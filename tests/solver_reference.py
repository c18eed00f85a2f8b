"""Reference copies of the equilibrium solver's first-order-condition kernels.

These are the readable forms of ``foc_lhs``, ``solve_best_contribution`` and
``_invert_marginal``: each evaluation goes through ``_foc`` and ``_funding``,
and the Newton slope through ``_marginal_decay``.  The package evaluates the
same floating-point operations in the same order inline, so
``test_equilibrium.TestSolverAgainstReference`` asks for identical bits, not
for a tolerance.
"""

import math

from qfround.equilibrium import FAMILIES, PLANNER_RESOLUTION, Valuation
from qfround.errors import DomainError


def _marginal_decay(valuation: Valuation, funding: float) -> float:
    """-d ln V'(F) / dF, the rate at which the marginal value falls (F > 0)."""
    if valuation.family == "sqrt":
        return 0.5 / funding
    return 1.0 / (1.0 + funding)


def _funding(k: float, s: float, c: float) -> float:
    return (s * s) / k + (1.0 - 1.0 / k) * c


def _foc(
    valuation: Valuation, k: float, s_others: float, c_others: float, c: float
) -> tuple[float, float, float]:
    """The first-order condition's left side at ``c > 0``, its funding F and its bracket."""
    root = math.sqrt(c)
    funding = _funding(k, s_others + root, c_others + c)
    bracket = 1.0 + s_others / (k * root)
    return valuation.marginal(funding) * bracket, funding, bracket


def foc_lhs(valuation: Valuation, k: float, s_others: float, c_others: float, c: float) -> float:
    """Left side of the first-order condition at ``c > 0``; it falls monotonically in c."""
    return _foc(valuation, k, s_others, c_others, c)[0]


def solve_best_contribution(
    valuation: Valuation,
    k: float,
    s_others: float,
    c_others: float,
    start: float = 1.0,
) -> float:
    """Best-response contribution given the rest of the project's ledger."""
    if not math.isfinite(k) or k <= 0:
        raise DomainError(f"k must be positive, got {k!r}")
    try:
        if s_others <= 0.0:
            # Alone on the project the funding formula collapses to F = c, so V'(c) = 1.
            scales = (valuation.scale if valuation.family == f else 0.0 for f in FAMILIES)
            return _invert_marginal(*scales, 1.0)
        c = start if start > 0.0 else 1.0
        lo, hi = 0.0, math.inf  # f > 1 at lo and f < 1 at hi; 0 and inf mean not yet seen
        # Steps of 2 cross all positive floats (about 1455 in ln c) in under 730.
        for _ in range(1000):
            lhs, funding, bracket = _foc(valuation, k, s_others, c_others, c)
            if lhs > 1.0:
                lo = c
            else:
                hi = c
            if hi - lo <= 1e-13 * lo:  # both sides seen and close
                return 0.5 * (lo + hi)
            # d ln f / d ln c, using dF/dc = bracket.
            slope = c * bracket * _marginal_decay(valuation, funding) + 0.5 * (bracket - 1.0) / bracket
            try:  # lhs is 0 once F is inf
                step = max(-2.0, min(2.0, math.log(lhs) / slope)) if lhs > 0.0 else -2.0
            except ZeroDivisionError:  # a huge k leaves the bracket 1 and the decay 0
                step = 2.0 if lhs > 1.0 else -2.0  # toward the root
            after = c * math.exp(step)
            if abs(after - c) <= 1e-13 * c:
                return after
            if lo < after < hi:
                c = after
            else:
                c = 0.5 * (lo + hi)
                if hi < math.inf and not lo < c < hi:  # no float lies strictly inside the bracket
                    return lo
    except (ZeroDivisionError, OverflowError):  # k * sqrt(c) or F rounds to 0, or c passes the largest float
        key = (valuation.contributor_id, valuation.project_id)
        raise DomainError(f"best response for {key!r} at k = {k!r} leaves the float range") from None
    raise DomainError("best-response root search did not converge")  # pragma: no cover


def _invert_marginal(a: float, b: float, lam: float) -> float:
    """Funding F where a project's summed marginal a/(2*sqrt(F)) + b/(1+F) equals lam.

    ``a`` and ``b`` sum its sqrt and log scales; with both, the marginal is inf at F = 0.
    """
    if not b:
        return (a / (2.0 * lam)) ** 2
    if not a:
        return max(0.0, b / lam - 1.0)

    def marginal(funding: float) -> float:
        return a / (2.0 * math.sqrt(funding)) + b / (1.0 + funding)

    hi = 1.0
    for _ in range(400):
        if marginal(hi) < lam:
            break
        hi *= 2.0
    lo = 0.0
    while hi - lo > PLANNER_RESOLUTION * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if marginal(mid) > lam:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
