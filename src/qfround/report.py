"""Round-level allocation reports combining funding math and diagnostics."""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .efficiency import check_k, dispersion, lambda_p, lambda_report
from .errors import DomainError, NoMatchableProjectsError
from .funding import MatchOutcome, ProjectLedger, compute_k, cqf_allocate, matching_requirement, qf_target
from .ledger import field_dict

__all__ = ["K_POLICY", "ProjectReport", "CategoryReport", "AllocationReport", "build_report", "diagnose"]

#: lambda_p is evaluated at each category's end-of-round k.
K_POLICY = "final"


@dataclass(frozen=True)
class ProjectReport:
    """One project's row; its fields are the per-project keys and columns of ``allocate``."""

    project_id: str
    contributors: int
    total: float
    f_qf: float
    m_qf: float
    m_actual: float
    f_actual: float
    lambda_p: float | None


@dataclass(frozen=True)
class CategoryReport:
    """One category's block; its fields are the keys of ``allocate``'s categories."""

    category: str
    pool: float
    k: float | None
    cap_at_target: bool
    surplus: float
    degenerate: bool
    projects: tuple[ProjectReport, ...]


@dataclass(frozen=True)
class AllocationReport:
    categories: tuple[CategoryReport, ...]

    def to_json_dict(self) -> dict:
        return {
            "k_policy": K_POLICY,
            "categories": [
                {**field_dict(c), "projects": [field_dict(p) for p in c.projects]} for c in self.categories
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _by_category(
    ledgers: Sequence[ProjectLedger], pools: Mapping[str, float]
) -> list[tuple[str, float, list[ProjectLedger]]]:
    """``(category, pool, ledgers sorted by project id)`` for every pool, by category name.

    Raises DomainError for a ledger whose category has no pool.
    """
    members: dict[str, list[ProjectLedger]] = {name: [] for name in pools}
    for ledger in ledgers:
        if ledger.category not in pools:
            raise DomainError(f"no pool configured for category {ledger.category!r}")
        members[ledger.category].append(ledger)
    return [
        (category, float(pools[category]), sorted(members[category], key=lambda l: l.project_id))
        for category in sorted(members)
    ]


def build_report(
    ledgers: Sequence[ProjectLedger],
    pools: Mapping[str, float],
    *,
    cap_at_target: bool = False,
    strict: bool = True,
) -> AllocationReport:
    """Allocate every category's pool and attach per-project diagnostics.

    ``strict`` propagates the no-matchable-projects error (CLI behavior);
    otherwise such categories are reported with k=None, zero matches, and
    ``degenerate`` set (simulator behavior for quiet days or empty rounds).
    """
    blocks = []
    for category, pool, members in _by_category(ledgers, pools):
        try:
            allocation = cqf_allocate(members, pool, category=category, cap_at_target=cap_at_target)
            k = check_k(allocation.pool_state.k, f"category {category!r}: ")
            surplus, outcomes = allocation.surplus, allocation.by_project()
        except NoMatchableProjectsError:
            if strict:
                raise
            k, surplus, outcomes = None, pool, {}
        projects = []
        for l in members:
            # A degenerate category (k=None) pays no match.
            o = outcomes.get(l.project_id) or MatchOutcome(
                l.project_id, qf_target(l), matching_requirement(l), 0.0, l.total
            )
            projects.append(ProjectReport(
                l.project_id, l.contributor_count, l.total, o.f_qf, o.m_qf, o.m_actual, o.f_actual,
                lambda_p(l, k) if k is not None and l.contributor_count else None,
            ))
        blocks.append(
            CategoryReport(category, pool, k, cap_at_target, surplus, k is None, tuple(projects))
        )
    return AllocationReport(tuple(blocks))


def diagnose(ledgers: Sequence[ProjectLedger], pools: Mapping[str, float]) -> str:
    """JSON of every project's lambda_p at its category's k, and its spread per category.

    Stops where ``build_report(strict=True)`` stops: DomainError for a
    ledger without a pool, then NoMatchableProjectsError for the first
    category, by name, whose projects need no match.
    """
    reports, stats = [], []
    for category, pool, members in _by_category(ledgers, pools):
        k = check_k(compute_k(members, pool), f"category {category!r}: ")
        block = [lambda_report(l, k) for l in members if l.contributor_count]
        reports += block
        stats.append(dispersion(block, category))
    return json.dumps({
        "k_policy": K_POLICY,
        "projects": [field_dict(r) for r in sorted(reports, key=lambda r: r.project_id)],
        "categories": [field_dict(s) for s in stats],
    }, indent=2)
