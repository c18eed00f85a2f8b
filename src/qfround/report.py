"""Round-level allocation reports combining funding math and diagnostics."""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

from .efficiency import check_k, dispersion, lambda_p, lambda_report
from .errors import DomainError, NoMatchableProjectsError
from .funding import CategoryReport, ProjectLedger, ProjectReport, compute_k, cqf_allocate, qf_target
from .ledger import field_dict

__all__ = ["K_POLICY", "ProjectReport", "CategoryReport", "AllocationReport", "build_report", "diagnose"]

#: lambda_p is evaluated at each category's end-of-round k.
K_POLICY = "final"


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
            block = cqf_allocate(members, pool, category=category, cap_at_target=cap_at_target)
        except NoMatchableProjectsError:
            if strict:
                raise
            # No project of a degenerate category needs a match, and none gets one.
            rows = [
                ProjectReport(l.project_id, l.contributor_count, l.total, qf_target(l), 0.0, 0.0, l.total, None)
                for l in members
            ]
            blocks.append(CategoryReport(category, pool, None, cap_at_target, pool, True, tuple(rows)))
            continue
        k = check_k(block.k, f"category {category!r}: ")
        rows = [ProjectReport(r.project_id, r.contributors, r.total, r.f_qf, r.m_qf, r.m_actual, r.f_actual,
                              lambda_p(l, k) if l.contributor_count else None)
                for r, l in zip(block.projects, members)]
        blocks.append(replace(block, projects=tuple(rows)))
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
