"""Round-level allocation reports combining funding math and diagnostics."""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .efficiency import dispersion, lambda_p, lambda_report
from .errors import DomainError, NoMatchableProjectsError
from .funding import MatchOutcome, ProjectLedger, compute_k, cqf_allocate, matching_requirement, qf_target

__all__ = ["K_POLICY", "PROJECT_COLUMNS", "ProjectReport", "CategoryReport", "AllocationReport",
           "build_report", "diagnose"]

#: lambda_p is evaluated at each category's end-of-round k.
K_POLICY = "final"
#: Per-project columns of the JSON report and the allocate CSV, in order.
PROJECT_COLUMNS = ("project_id", "contributors", "total", "f_qf", "m_qf", "m_actual", "f_actual", "lambda_p")
#: Keys of diagnose's per-project (LambdaReport) and per-category (DispersionStats) objects.
LAMBDA_KEYS = ("project_id", "category", "n", "k_used", "lambda_p", "lower_bound")
DISPERSION_KEYS = ("category", "project_count", "mean", "stdev", "min", "max")


@dataclass(frozen=True)
class ProjectReport:
    project_id: str
    category: str
    contributor_count: int
    total: float
    f_qf: float
    m_qf: float
    m_actual: float
    f_actual: float
    lambda_p: float | None

    def row(self) -> tuple:
        """The values of PROJECT_COLUMNS, in order."""
        return (self.project_id, self.contributor_count, self.total, self.f_qf, self.m_qf,
                self.m_actual, self.f_actual, self.lambda_p)


@dataclass(frozen=True)
class CategoryReport:
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
                {
                    "category": c.category,
                    "pool": c.pool,
                    "k": c.k,
                    "cap_at_target": c.cap_at_target,
                    "surplus": c.surplus,
                    "degenerate": c.degenerate,
                    "projects": [dict(zip(PROJECT_COLUMNS, p.row())) for p in c.projects],
                }
                for c in self.categories
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
            k, surplus, outcomes = allocation.pool_state.k, allocation.surplus, allocation.by_project()
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
                project_id=l.project_id,
                category=category,
                contributor_count=l.contributor_count,
                total=l.total,
                f_qf=o.f_qf,
                m_qf=o.m_qf,
                m_actual=o.m_actual,
                f_actual=o.f_actual,
                lambda_p=lambda_p(l, k) if k is not None and l.contributor_count else None,
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
        k = compute_k(members, pool)
        block = [lambda_report(l, k) for l in members if l.contributor_count]
        reports += block
        stats.append(dispersion(block, category))
    return json.dumps({
        "k_policy": K_POLICY,
        "projects": [
            {key: getattr(r, key) for key in LAMBDA_KEYS}
            for r in sorted(reports, key=lambda r: r.project_id)
        ],
        "categories": [{key: getattr(s, key) for key in DISPERSION_KEYS} for s in stats],
    }, indent=2)
