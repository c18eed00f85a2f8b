"""Contribution-share concentration analytics.

Contributor i's share of a project is alpha_i = sqrt(c_i) / sum_j sqrt(c_j).
With n contributors, mean share 1/n and population variance sigma^2, the
required match decomposes exactly as

    match = (1 - n*sigma^2 - n*mean^2) * target,

so for a fixed target the most equally backed project needs the largest
match.  The module also evaluates how budget-constrained contributors'
cross-project share patterns drive total requirements: requirements are
maximized when share vectors are proportional across contributors, in which
case the round-wide total equals 2 * sum over pairs of sqrt(m_i * m_j).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import DomainError
from .funding import ProjectLedger, qf_target, required_match

__all__ = [
    "ShareProfile",
    "BudgetedContributor",
    "sqrt_shares",
    "share_profile",
    "decomposed_match",
    "max_match",
    "total_match_for_shares",
]

SHARE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ShareProfile:
    """Square-root contribution shares of one project, with summary stats."""

    alphas: tuple[float, ...]
    n: int
    hhi: float
    variance: float
    mean: float


def sqrt_shares(amounts: Iterable[float]) -> list[float]:
    """Square-root shares sqrt(c_i) / sum_j sqrt(c_j), one per amount, in order."""
    roots = [math.sqrt(a) for a in amounts]
    denom = math.fsum(roots)
    if denom <= 0:
        raise DomainError("at least one positive contribution required")
    return [r / denom for r in roots]


def share_profile(ledger: ProjectLedger) -> ShareProfile:
    """Per-contributor shares alpha_i (by contributor id) plus HHI and variance.

    The identity hhi = n*variance + n*mean^2 holds by construction.
    """
    if not ledger.amounts:
        raise DomainError(f"project {ledger.project_id!r} has no contributors")
    alphas = tuple(sqrt_shares(a for _cid, a in sorted(zip(ledger.contributors, ledger.amounts))))
    n = len(alphas)
    mean = 1.0 / n
    hhi = math.fsum(a * a for a in alphas)
    variance = math.fsum((a - mean) ** 2 for a in alphas) / n
    return ShareProfile(alphas, n, hhi, variance, mean)


def decomposed_match(ledger: ProjectLedger) -> float:
    """Required match via the share-variance decomposition.

    (1 - n*sigma^2 - n*mean^2) * target; agrees with
    funding.matching_requirement within 1e-9 on any ledger.
    """
    profile = share_profile(ledger)
    factor = 1.0 - profile.n * profile.variance - profile.n * profile.mean**2
    return factor * qf_target(ledger)


def max_match(budgets: Sequence[float]) -> float:
    """Round-wide requirement when contributors align their share vectors.

    2 * sum over unordered pairs of sqrt(m_i * m_j); 0 for an empty list.
    """
    for m in budgets:
        if not math.isfinite(m) or m <= 0:
            raise DomainError(f"budgets must be positive, got {m!r}")
    return _required(budgets)


def _required(amounts: Iterable[float]) -> float:
    """required_match over the positive entries of ``amounts``."""
    positive = [a for a in amounts if a > 0.0]
    return required_match(math.fsum(math.sqrt(a) for a in positive), math.fsum(positive), len(positive))


@dataclass(frozen=True)
class BudgetedContributor:
    """A contributor with budget m_i split across projects by shares s_i^p.

    Shares must be nonnegative and sum to 1 (within 1e-9); zero entries are
    allowed for skipped projects.
    """

    contributor_id: str
    budget: float
    shares: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.budget) or self.budget <= 0:
            raise DomainError(f"budget must be positive, got {self.budget!r}")
        for project, share in self.shares.items():
            if not math.isfinite(share) or share < 0:
                raise DomainError(f"share for {project!r} must be nonnegative, got {share!r}")
        total = math.fsum(self.shares.values())
        if abs(total - 1.0) > SHARE_SUM_TOL:
            raise DomainError(f"shares of {self.contributor_id!r} sum to {total!r}, expected 1")


def total_match_for_shares(contributors: Sequence[BudgetedContributor]) -> float:
    """Total requirement generated by a full share profile.

    sum over projects of 2 * sum over contributor pairs of
    sqrt(s_i^p * m_i * s_j^p * m_j).
    """
    projects: set[str] = set()
    for contributor in contributors:
        projects.update(contributor.shares)
    total = 0.0
    for project in sorted(projects):
        total += _required(c.shares.get(project, 0.0) * c.budget for c in contributors)
    return total
