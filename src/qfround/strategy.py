"""Reciprocal-backing collusion: one-shot game, repeated play, thresholds.

Two contributors with budget c each can leave their money on their own
project, or put half into each other's with the expectation of being backed
in return.  The quadratic rule turns that choice into a Prisoners' Dilemma:

                     Invest                    Do not invest
    Invest           (c, c)                    (-c/2, c(1+2*sqrt(2))/2)
    Do not invest    (c(1+2*sqrt(2))/2, -c/2)  (0, 0)

Defecting dominates round by round, so the one-shot Nash outcome is mutual
non-investment; with repeated rounds a grim trigger sustains cooperation
whenever the per-round discount rate r satisfies r <= 2/(2*sqrt(2)-1).

For an n-member ring in which each cooperator splits c as c/n across every
ring project, a member's net return when a fraction alpha cooperates is

    F - c  with  F = c * [ (alpha^2 * n - alpha)/k + alpha ].

Without a pool constraint (k=1) participation is profitable above
alpha = 1/sqrt(n); with a binding pool the break-even fraction is the
positive root of (n/k) * a^2 + (1 - 1/k) * a - 1 = 0.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "PayoffMatrix",
    "CollusionThresholds",
    "RepeatedGameResult",
    "payoff_matrix",
    "pure_nash_equilibria",
    "trigger_sustainable",
    "TRIGGER_RATE_BOUND",
    "alpha_star",
    "alpha_double_star",
    "collusion_thresholds",
    "threshold_sweep",
    "ring_payoff",
    "repeated_game_simulate",
]

#: Largest per-round discount rate at which grim-trigger cooperation survives.
TRIGGER_RATE_BOUND = 2.0 / (2.0 * math.sqrt(2.0) - 1.0)

INVEST = True
NOT_INVEST = False


@dataclass(frozen=True)
class PayoffMatrix:
    """Net payoffs of the two-player reciprocal-backing game."""

    c: float
    invest_invest: tuple[float, float]
    invest_not: tuple[float, float]
    not_invest: tuple[float, float]
    not_not: tuple[float, float]

    def payoff(self, row: bool, col: bool) -> tuple[float, float]:
        if row and col:
            return self.invest_invest
        if row and not col:
            return self.invest_not
        if not row and col:
            return self.not_invest
        return self.not_not


def payoff_matrix(c: float) -> PayoffMatrix:
    if not math.isfinite(c) or c <= 0:
        raise DomainError(f"budget c must be positive, got {c!r}")
    sucker = -c / 2.0
    temptation = c * (1.0 + 2.0 * math.sqrt(2.0)) / 2.0
    return PayoffMatrix(
        c=c,
        invest_invest=(c, c),
        invest_not=(sucker, temptation),
        not_invest=(temptation, sucker),
        not_not=(0.0, 0.0),
    )


def pure_nash_equilibria(matrix: PayoffMatrix) -> set[tuple[bool, bool]]:
    """Pure-strategy equilibria by direct best-response enumeration."""
    actions = (INVEST, NOT_INVEST)
    out = set()
    for row in actions:
        for col in actions:
            row_payoff = matrix.payoff(row, col)[0]
            col_payoff = matrix.payoff(row, col)[1]
            if all(matrix.payoff(dev, col)[0] <= row_payoff for dev in actions) and all(
                matrix.payoff(row, dev)[1] <= col_payoff for dev in actions
            ):
                out.add((row, col))
    return out


def trigger_sustainable(discount_rate: float) -> bool:
    """Whether grim-trigger cooperation beats a one-shot deviation.

    Cooperation forever is worth c + c/r; deviating pays c(1+2*sqrt(2))/2
    once and nothing after, so cooperation survives iff
    r <= 2/(2*sqrt(2)-1) (weak inequality at the boundary).
    """
    if not math.isfinite(discount_rate) or discount_rate <= 0:
        raise DomainError(f"discount rate must be positive, got {discount_rate!r}")
    return discount_rate <= TRIGGER_RATE_BOUND


def _ring_size(n: int) -> float:
    """``n`` as a float, once it is a ring size (at least 2) within the float range."""
    if n < 2:
        raise DomainError(f"ring size must be at least 2, got {n!r}")
    try:
        return float(n)
    except OverflowError:
        raise DomainError(f"ring size n = {n!r} passes the largest float") from None


def alpha_star(n: int) -> float:
    """Break-even cooperating fraction with unlimited matching funds: 1/sqrt(n)."""
    return 1.0 / math.sqrt(_ring_size(n))


def alpha_double_star(n: int, k: float) -> float:
    """Break-even cooperating fraction under a binding pool constraint.

    Positive root of (n/k)*a^2 + (1 - 1/k)*a - 1 = 0:

        a = k * ( -(1 - 1/k) + sqrt((1 - 1/k)^2 + 4n/k) ) / (2n)

    evaluated in the rationalized form 2 / (b + sqrt(b^2 + 4n/k)) with
    b = 1 - 1/k, which avoids cancellation at large k.  Reduces to
    1/sqrt(n) at k = 1 and rises toward 1 as k grows.  An n or 4n/k past
    the largest float raises DomainError.
    """
    size = _ring_size(n)
    if not math.isfinite(k) or k < 1.0:
        raise DomainError(f"k must be at least 1, got {k!r}")
    ratio = 4.0 * (size / k)
    if ratio == math.inf:
        raise DomainError(f"ring size n = {n!r} at k = {k!r}: 4n/k passes the largest float")
    b = 1.0 - 1.0 / k
    return 2.0 / (b + math.sqrt(b * b + ratio))


@dataclass(frozen=True)
class CollusionThresholds:
    n: int
    k: float
    alpha_star: float
    alpha_double_star: float


def collusion_thresholds(n: int, k: float) -> CollusionThresholds:
    return CollusionThresholds(n, k, alpha_star(n), alpha_double_star(n, k))


def threshold_sweep(ns: Sequence[int], k_grid: Sequence[float]) -> list[CollusionThresholds]:
    """Threshold table over ring sizes and pool constraints (CSV-ready)."""
    return [collusion_thresholds(n, k) for n in ns for k in k_grid]


def ring_payoff(n: int, alpha: float, k: float, c: float) -> float:
    """Net return to a cooperating ring member when fraction alpha cooperates.

    The member's project collects alpha*n contributions of c/n, so it
    receives F = c * [ (alpha^2*n - alpha)/k + alpha ]; the return is F - c.
    """
    if n < 2:
        raise DomainError(f"ring size must be at least 2, got {n!r}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha!r}")
    if not math.isfinite(k) or k <= 0:
        raise DomainError(f"k must be positive, got {k!r}")
    if not math.isfinite(c) or c <= 0:
        raise DomainError(f"budget c must be positive, got {c!r}")
    funding = c * ((alpha * alpha * n - alpha) / k + alpha)
    return funding - c


def _defector_payoff(n: int, alpha: float, k: float, c: float) -> float:
    # Own c on own project plus alpha*n cooperators' c/n arriving anyway
    # (cooperators discover the defection only after the round).
    s = math.sqrt(c) * (1.0 + alpha * math.sqrt(n))
    private = c * (1.0 + alpha)
    funding = (s * s - private) / k + private
    return funding - c


def _stage_payoffs(cooperating: Sequence[bool], n: int, k: float, c: float) -> tuple[float, ...]:
    n_coop = sum(cooperating)
    alpha = n_coop / n
    payoffs = []
    for is_coop in cooperating:
        if is_coop:
            payoffs.append(ring_payoff(n, alpha, k, c))
        elif alpha > 0.0:
            payoffs.append(_defector_payoff(n, alpha, k, c))
        else:
            # Everyone on their own project: quadratic rule returns c exactly.
            payoffs.append(0.0)
    return tuple(payoffs)


@dataclass(frozen=True)
class RepeatedGameResult:
    cooperation: tuple[tuple[bool, ...], ...]
    payoffs: tuple[tuple[float, ...], ...]
    present_values: tuple[float, ...]
    rounds_played: int


def repeated_game_simulate(
    n: int = 2,
    k: float = 1.0,
    *,
    discount_rate: float,
    c: float = 1.0,
    horizon: int | None = None,
    continuation_prob: float | None = None,
    seed: int = 0,
    deviation_policy: str = "none",
) -> RepeatedGameResult:
    """Play the ring game round by round under grim-trigger strategies.

    Everyone cooperates until the first observed defection; after it nobody
    invests in anyone else again (all later payoffs are 0).  Policies:
    "none" keeps all players cooperative, "defect" makes player 0 defect
    from round 0 onward.  Run either a fixed ``horizon`` or open-ended
    with ``continuation_prob`` and a deterministic seed.
    Present values discount round t by (1+r)^-t.
    """
    if n < 2:
        raise DomainError(f"ring size must be at least 2, got {n!r}")
    if not math.isfinite(discount_rate) or discount_rate <= 0:
        raise DomainError(f"discount rate must be positive, got {discount_rate!r}")
    if deviation_policy not in ("none", "defect"):
        raise DomainError(f"unknown deviation policy {deviation_policy!r}")
    if (horizon is None) == (continuation_prob is None):
        raise DomainError("specify exactly one of horizon or continuation_prob")
    if horizon is not None and horizon < 1:
        raise DomainError(f"horizon must be at least 1, got {horizon!r}")
    if continuation_prob is not None and not 0.0 <= continuation_prob < 1.0:
        raise DomainError(f"continuation probability must be in [0, 1), got {continuation_prob!r}")
    defector = 0 if deviation_policy == "defect" else None

    rng = random.Random(seed)
    cooperation: list[tuple[bool, ...]] = []
    payoffs: list[tuple[float, ...]] = []
    present = [0.0] * n
    defection_seen = False
    t = 0
    while True:
        mask = tuple(not defection_seen and i != defector for i in range(n))
        stage = _stage_payoffs(mask, n, k, c)
        cooperation.append(mask)
        payoffs.append(stage)
        discount = (1.0 + discount_rate) ** (-t)
        for i in range(n):
            present[i] += stage[i] * discount
        if not all(mask):
            defection_seen = True
        t += 1
        if horizon is not None:
            if t >= horizon:
                break
        elif rng.random() >= continuation_prob:
            break
    return RepeatedGameResult(
        cooperation=tuple(cooperation),
        payoffs=tuple(payoffs),
        present_values=tuple(present),
        rounds_played=t,
    )
