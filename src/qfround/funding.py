"""Quadratic-rule funding math and capital-constrained pool scaling.

Under the quadratic rule a project's funding target is the squared sum of
the square roots of its per-contributor amounts,

    target = (sum_i sqrt(c_i))^2,

so the match a project requires on top of what contributors already paid,
target - sum_i c_i, equals 2 * sum over unordered contributor pairs of
sqrt(c_i * c_j) and grows with the number of *pairs* of contributors.
When the matches required across a round exceed the available pool D, every
match is scaled by 1/k with k = (sum of required matches) / D, so the pool
is distributed exactly.  k < 1 (pool larger than requirements) scales
matches up by default; pass ``cap_at_target=True`` to cap each match at its
quadratic-rule requirement instead and report the unspent surplus.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import DomainError, NoMatchableProjectsError

__all__ = [
    "Contribution",
    "ProjectLedger",
    "MatchOutcome",
    "PoolState",
    "CqfAllocation",
    "aggregate_amounts",
    "group_ledgers",
    "qf_target",
    "required_match",
    "matching_requirement",
    "marginal_match",
    "compute_k",
    "cqf_allocate",
]

@dataclass(frozen=True)
class Contribution:
    """One (contributor, project, amount, day) record.

    Amounts are strictly positive finite decimals (currency units); zero
    and negative amounts are rejected at construction, matching the
    ingestion rule.  ``day`` is a nonnegative round-day index.
    """

    contributor_id: str
    project_id: str
    amount: float
    day: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.amount, (int, float)) or isinstance(self.amount, bool):
            raise DomainError(f"amount must be numeric, got {self.amount!r}")
        if not math.isfinite(self.amount) or self.amount <= 0:
            raise DomainError(f"contribution amount must be positive and finite, got {self.amount!r}")
        if int(self.day) != self.day or self.day < 0:
            raise DomainError(f"day must be a nonnegative integer, got {self.day!r}")


def aggregate_amounts(contributions: Iterable[Contribution]) -> dict[str, float]:
    """Sum amounts per contributor id.

    Square roots are always taken *after* this aggregation: splitting one
    wallet's amount across several records must not change any result.
    """
    totals: dict[str, float] = {}
    for record in contributions:
        totals[record.contributor_id] = totals.get(record.contributor_id, 0.0) + record.amount
    return totals


@dataclass(frozen=True)
class ProjectLedger:
    """Per-project aggregate: contribution list plus sums derived from it.

    ``sqrt_sum`` is the sum of square roots of per-contributor aggregated
    amounts, ``total`` the plain sum and ``contributor_count`` the number of
    distinct contributors; all three are computed once at construction.
    """

    project_id: str
    category: str
    contributions: tuple[Contribution, ...]
    sqrt_sum: float = field(init=False)
    total: float = field(init=False)
    contributor_count: int = field(init=False)

    def __post_init__(self) -> None:
        for record in self.contributions:
            if record.project_id != self.project_id:
                raise DomainError(
                    f"contribution for {record.project_id!r} placed in ledger {self.project_id!r}"
                )
        amounts = aggregate_amounts(self.contributions)
        object.__setattr__(self, "sqrt_sum", math.fsum(math.sqrt(a) for a in amounts.values()))
        object.__setattr__(self, "total", math.fsum(r.amount for r in self.contributions))
        object.__setattr__(self, "contributor_count", len(amounts))

    @classmethod
    def build(
        cls,
        project_id: str,
        contributions: Iterable[Contribution],
        category: str = "",
    ) -> "ProjectLedger":
        return cls(project_id, category, tuple(contributions))

    @classmethod
    def from_amounts(
        cls,
        project_id: str,
        amounts: Sequence[float],
        category: str = "",
    ) -> "ProjectLedger":
        """Build a ledger with one synthetic contributor per amount."""
        records = tuple(
            Contribution(f"{project_id}-backer-{i}", project_id, float(a))
            for i, a in enumerate(amounts)
        )
        return cls.build(project_id, records, category)

    def contributor_amounts(self) -> dict[str, float]:
        return aggregate_amounts(self.contributions)


def group_ledgers(
    contributions: Iterable[Contribution],
    categories: Mapping[str, str],
    projects: Iterable[str] = (),
) -> list[ProjectLedger]:
    """One ledger per project, sorted by project id, in a single pass.

    Categories come from ``categories`` ("" when absent); every id in
    ``projects`` gets a ledger even when nobody contributed to it.
    """
    by_project: dict[str, list[Contribution]] = {project: [] for project in projects}
    for record in contributions:
        by_project.setdefault(record.project_id, []).append(record)
    return [
        ProjectLedger.build(project, records, categories.get(project, ""))
        for project, records in sorted(by_project.items())
    ]


def qf_target(ledger: ProjectLedger) -> float:
    """Quadratic-rule funding target (sum_i sqrt(c_i))^2.

    Empty ledgers yield 0.  Negative amounts cannot occur: they are
    rejected when the Contribution is constructed.
    """
    return ledger.sqrt_sum * ledger.sqrt_sum


def required_match(sqrt_sum: float, total: float, n: int) -> float:
    """Match required on top of private funds: sqrt_sum^2 - total.

    ``sqrt_sum`` and ``total`` are the square-root sum and plain sum of
    ``n`` per-contributor amounts.  Algebraically 2 * sum over unordered
    contributor pairs of sqrt(c_i * c_j); exactly zero with one or zero
    contributors (there are no pairs, so the sub-ulp float residue of
    sqrt_sum^2 - total is discarded).
    """
    if n <= 1:
        return 0.0
    value = sqrt_sum * sqrt_sum - total
    return value if value > 0.0 else 0.0


def matching_requirement(ledger: ProjectLedger) -> float:
    """Match required on top of private funds: target - total."""
    return required_match(ledger.sqrt_sum, ledger.total, ledger.contributor_count)


def marginal_match(ledger: ProjectLedger, new_amount: float) -> float:
    """Extra match a brand-new contributor giving ``new_amount`` would require.

    Equals 2 * sqrt(new_amount) * sqrt_sum, i.e. the increase in
    matching_requirement when the contribution is appended.
    """
    if not math.isfinite(new_amount) or new_amount <= 0:
        raise DomainError(f"new_amount must be positive, got {new_amount!r}")
    return 2.0 * math.sqrt(new_amount) * ledger.sqrt_sum


def compute_k(ledgers: Iterable[ProjectLedger], pool: float) -> float:
    """Pool-scaling constant k = (sum of required matches) / pool.

    k < 1 means the pool exceeds requirements.  Raises
    NoMatchableProjectsError when the total requirement is zero (1/k would
    be undefined) and DomainError for a nonpositive pool.
    """
    if not math.isfinite(pool) or pool <= 0:
        raise DomainError(f"pool must be positive, got {pool!r}")
    required = math.fsum(matching_requirement(ledger) for ledger in ledgers)
    if required <= 0.0:
        raise NoMatchableProjectsError("no matchable projects: total required match is zero")
    return required / pool


@dataclass(frozen=True)
class MatchOutcome:
    """Funding outcome for one project under the pool-constrained rule."""

    project_id: str
    f_qf: float
    m_qf: float
    m_actual: float
    f_actual: float


@dataclass(frozen=True)
class PoolState:
    """A category pool together with its scaling constant."""

    category: str
    pool: float
    k: float


@dataclass(frozen=True)
class CqfAllocation:
    outcomes: tuple[MatchOutcome, ...]
    pool_state: PoolState
    surplus: float

    def by_project(self) -> dict[str, MatchOutcome]:
        return {o.project_id: o for o in self.outcomes}


def cqf_allocate(
    ledgers: Sequence[ProjectLedger],
    pool: float,
    *,
    category: str = "",
    cap_at_target: bool = False,
) -> CqfAllocation:
    """Distribute ``pool`` across projects by scaled quadratic-rule matches.

    Each project receives M = (1/k) * requirement and in total
    F = M + private contributions.  With ``cap_at_target`` and k < 1 the
    match is capped at the requirement itself and the leftover pool is
    reported as surplus instead of being scaled up.
    """
    seen: set[str] = set()
    for ledger in ledgers:
        if ledger.project_id in seen:
            raise DomainError(f"duplicate ledger for project {ledger.project_id!r}")
        seen.add(ledger.project_id)
    k = compute_k(ledgers, pool)
    capped = cap_at_target and k < 1.0
    scale = 1.0 if capped else 1.0 / k
    outcomes = []
    for ledger in ledgers:
        target = qf_target(ledger)
        requirement = matching_requirement(ledger)
        match = scale * requirement
        outcomes.append(
            MatchOutcome(ledger.project_id, target, requirement, match, match + ledger.total)
        )
    surplus = 0.0
    if capped:
        surplus = pool - math.fsum(o.m_actual for o in outcomes)
    return CqfAllocation(tuple(outcomes), PoolState(category, pool, k), surplus)
