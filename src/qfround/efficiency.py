"""Per-project efficiency multipliers under a constrained pool.

For a project with square-root shares alpha_i and scaling constant k, the
sum of contributors' marginal valuations implied by their first-order
conditions is

    lambda_p = sum_i [ 1/(k*alpha_i) + 1 - 1/k ]^(-1).

lambda_p equals 1 when k = 1 (the unconstrained optimum), rises toward the
contributor count n as k grows (pure private provision), and is always at
least n^2 / [ (1/k) * sum_i 1/alpha_i + n*(1 - 1/k) ], with equality for
equal shares.  Spread of lambda_p across a round's projects measures how
far the scaled allocation is from equalizing marginal benefits.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .concentration import sqrt_shares
from .errors import DomainError
from .funding import ProjectLedger

__all__ = [
    "LambdaReport",
    "DispersionStats",
    "SweepPoint",
    "check_k",
    "lambda_p",
    "lambda_from_amounts",
    "lambda_lower_bound",
    "lambda_report",
    "k_sweep",
    "dispersion",
    "format_profile_label",
]


def check_k(k: float, where: str = "") -> float:
    """``k`` if lambda_p can be evaluated at it, else DomainError; ``where`` leads its message.

    From 2**-52 up, 1/k + 1 is exact, so a lone contributor's term 1/(k*a) + 1 - 1/k
    is 1 and every term's denominator is positive.
    """
    if not 2.0**-52 <= k < math.inf:
        raise DomainError(f"{where}k must be in [2**-52, inf) for lambda_p, got {k!r}")
    return k


def lambda_from_amounts(amounts: Iterable[float], k: float) -> float:
    """lambda_p from raw per-contributor amounts (one entry per contributor)."""
    check_k(k)
    return math.fsum(1.0 / (1.0 / (k * a) + 1.0 - 1.0 / k) for a in sqrt_shares(amounts))


def lambda_p(ledger: ProjectLedger, k: float) -> float:
    """Sum of marginal valuations implied by the first-order conditions."""
    return lambda_from_amounts(ledger.amounts, k)


def lambda_lower_bound(ledger: ProjectLedger, k: float) -> float:
    """Lower bound n^2 / [(1/k) sum_i 1/alpha_i + n (1 - 1/k)].

    Follows from the Cauchy-Schwarz (Engel form) inequality applied to the
    lambda_p sum; tight exactly when all shares are equal.
    """
    check_k(k)
    alphas = sqrt_shares(ledger.amounts)
    n = len(alphas)
    denom = math.fsum(1.0 / a for a in alphas) / k + n * (1.0 - 1.0 / k)
    return n * n / denom


@dataclass(frozen=True)
class LambdaReport:
    """One project's multiplier; its fields are the keys of ``diagnose``'s projects."""

    project_id: str
    category: str
    n: int
    k_used: float
    lambda_p: float
    lower_bound: float


def lambda_report(ledger: ProjectLedger, k: float) -> LambdaReport:
    return LambdaReport(
        ledger.project_id, ledger.category, ledger.contributor_count, k,
        lambda_p(ledger, k), lambda_lower_bound(ledger, k),
    )


@dataclass(frozen=True)
class SweepPoint:
    profile_label: str
    k: float
    lambda_p: float


def format_profile_label(amounts: Sequence[float]) -> str:
    return ":".join(f"{a:g}" for a in amounts)


def k_sweep(ratio_profiles: Sequence[Sequence[float]], k_grid: Sequence[float]) -> list[SweepPoint]:
    """Evaluate lambda_p for each contribution profile over a grid of k values.

    Profiles are contribution vectors (only their ratios matter); the output
    is a plot-ready table of (profile_label, k, lambda_p) rows.
    """
    if not k_grid:
        raise DomainError("k grid must be nonempty")
    points = []
    for profile in ratio_profiles:
        label = format_profile_label(profile)
        points.extend(SweepPoint(label, k, lambda_from_amounts(profile, k)) for k in k_grid)
    return points


@dataclass(frozen=True)
class DispersionStats:
    """lambda_p's spread in one category; its fields are the keys of ``diagnose``'s categories."""

    category: str
    project_count: int
    mean: float
    stdev: float
    min: float
    max: float


def dispersion(reports: Iterable[LambdaReport], category: str) -> DispersionStats:
    """Population summary of lambda_p across one category's projects."""
    values = [r.lambda_p for r in reports if r.category == category]
    if not values:
        raise DomainError(f"no reports in category {category!r}")
    return DispersionStats(
        category, len(values), statistics.fmean(values), statistics.pstdev(values), min(values), max(values)
    )
