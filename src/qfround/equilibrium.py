"""Best-response contribution equilibria and the constrained-planner benchmark.

Each contributor i with concave valuation V_i over a project's funding F
picks c_i to maximize V_i(F) - c_i, where with scaling constant k

    F = (1/k) * (sum_j sqrt(c_j))^2 + (1 - 1/k) * sum_j c_j.

The interior first-order condition is V_i'(F) * (1 + S_others/(k*sqrt(c_i)))
= 1, where S_others is the square-root sum of everyone else's amounts.  It
has a unique positive root (the left side falls monotonically from +inf to
0), found here by safeguarded Newton steps on ln f in ln c, where f is the
left side; dF/dc equals the bracket, so the slope has a closed form.  A
project nobody else funds reduces to V_i'(c_i) = 1, which can hit the
c_i = 0 corner for the log family.

The solver runs simultaneous best-response sweeps damped by 0.5 until the
largest update, relative to max(1, target), is below tolerance, then one
undamped in-place sweep so every entry lands on its exact best response
against the final profile.  k is exogenous throughout.

Valuations come in two closed-form concave families:

    sqrt: V(F) = v * sqrt(F)        log: V(F) = v * ln(1 + F)
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DomainError, LedgerFormatError
from .ledger import positive_field, read_rows

__all__ = [
    "Valuation",
    "EquilibriumResult",
    "PlannerResult",
    "foc_lhs",
    "solve_best_contribution",
    "best_response",
    "planner_optimum",
    "welfare",
    "max_foc_residual",
    "load_valuations",
]

FAMILIES = ("sqrt", "log")
#: Step damping of the best-response sweeps.
DAMPING = 0.5
#: best_response converges once every undamped step is below TOL * max(1, target).
TOL = 1e-11


@dataclass(frozen=True)
class Valuation:
    """One contributor's concave valuation of one project's funding level."""

    contributor_id: str
    project_id: str
    family: str
    scale: float

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown valuation family {self.family!r}; expected one of {FAMILIES}")
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise DomainError(f"valuation scale must be positive, got {self.scale!r}")

    def value(self, funding: float) -> float:
        if funding < 0:
            raise DomainError(f"funding must be nonnegative, got {funding!r}")
        if self.family == "sqrt":
            return self.scale * math.sqrt(funding)
        return self.scale * math.log1p(funding)

    def marginal(self, funding: float) -> float:
        if funding < 0:
            raise DomainError(f"funding must be nonnegative, got {funding!r}")
        if self.family == "sqrt":
            return math.inf if funding == 0 else self.scale / (2.0 * math.sqrt(funding))
        return self.scale / (1.0 + funding)

    def marginal_decay(self, funding: float) -> float:
        """-d ln V'(F) / dF, the rate at which the marginal value falls (F > 0)."""
        if self.family == "sqrt":
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
    """Best-response contribution given the rest of the project's ledger.

    ``s_others``/``c_others`` are the square-root sum and plain sum of the
    other contributors' amounts.  Newton's method on ln f in ln c, where f
    is the first-order condition's left side, runs from ``start`` (1 when
    it is not positive): every step is clipped to +-2 and falls back to the
    midpoint of the sign bracket found so far when it would leave it.  It
    stops once a step or the bracket is below 1e-13 relative, so even tiny
    interior roots satisfy their first-order condition to well under 1e-6;
    once no float lies inside the bracket it returns the low end (0 if no f > 1 was seen).
    A k so small that k * sqrt(c) or the funding rounds to 0, or a lone best
    contribution past the largest float, raises DomainError.
    """
    if not math.isfinite(k) or k <= 0:
        raise DomainError(f"k must be positive, got {k!r}")
    try:
        if s_others <= 0.0:
            # Alone on the project the funding formula collapses to F = c.
            if valuation.family == "sqrt":
                return (valuation.scale / 2.0) ** 2
            return max(0.0, valuation.scale - 1.0)
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
            slope = c * bracket * valuation.marginal_decay(funding) + 0.5 * (bracket - 1.0) / bracket
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


@dataclass(frozen=True)
class EquilibriumResult:
    """A best-response profile; its fields are the keys of ``equilibrium``'s JSON, in order."""

    converged: bool
    iterations: int
    welfare: float
    funds: dict[str, float]
    aggregate_marginal: dict[str, float]
    contributions: dict[tuple[str, str], float]
    clamped: frozenset[tuple[str, str]]


def _group_by_project(valuations: Sequence[Valuation]) -> dict[str, list[Valuation]]:
    seen: set[tuple[str, str]] = set()
    grouped: dict[str, list[Valuation]] = {}
    for valuation in valuations:
        key = (valuation.contributor_id, valuation.project_id)
        if key in seen:
            raise DomainError(f"duplicate valuation for {key!r}")
        seen.add(key)
        grouped.setdefault(valuation.project_id, []).append(valuation)
    for vals in grouped.values():
        vals.sort(key=lambda v: v.contributor_id)
    return grouped


def best_response(
    valuations: Sequence[Valuation],
    k: float,
    budgets: Mapping[str, float] | None = None,
    *,
    max_iter: int = 10_000,
    initial: Mapping[tuple[str, str], float] | None = None,
) -> EquilibriumResult:
    """Damped simultaneous best-response iteration to a fixed point.

    Projects are independent subproblems; budgets, when given, cap each
    contributor's total by proportional scaling and the affected entries are
    reported in ``clamped`` (their first-order conditions need not hold).
    A sweep converges when every undamped step is below ``TOL`` times
    max(1, target): roots are resolved only to a relative step of 1e-13, so
    an absolute test could never pass for large amounts.  Non-convergence after
    ``max_iter`` sweeps returns converged=False rather than a silent answer.
    ``funds`` and ``aggregate_marginal`` list projects in sorted order.
    """
    if not valuations:
        raise DomainError("at least one valuation is required")
    if not math.isfinite(k) or k <= 0:
        raise DomainError(f"k must be positive, got {k!r}")
    grouped = _group_by_project(valuations)
    current: dict[tuple[str, str], float] = {
        (v.contributor_id, v.project_id): 0.0 for vals in grouped.values() for v in vals
    }
    if initial:
        for key, value in initial.items():
            if key in current and value >= 0.0:
                current[key] = float(value)

    def sweep_targets() -> dict[tuple[str, str], float]:
        targets: dict[tuple[str, str], float] = {}
        for project in sorted(grouped):
            vals = grouped[project]
            roots = {v.contributor_id: math.sqrt(current[(v.contributor_id, project)]) for v in vals}
            s_all = math.fsum(roots.values())
            c_all = math.fsum(current[(v.contributor_id, project)] for v in vals)
            for v in vals:
                key = (v.contributor_id, project)
                targets[key] = solve_best_contribution(
                    v, k, s_all - roots[v.contributor_id], c_all - current[key],
                    current[key],
                )
        return targets

    keys_of: dict[str, list[tuple[str, str]]] = {}
    for key in sorted(current):  # a contributor's keys in the order its targets are swept
        keys_of.setdefault(key[0], []).append(key)
    capped = [(keys_of[cid], b) for cid, b in (budgets or {}).items() if cid in keys_of and b > 0]

    def clamp(targets: dict[tuple[str, str], float]) -> set[tuple[str, str]]:
        hit: set[tuple[str, str]] = set()
        for keys, budget in capped:
            total = 0.0
            for key in keys:
                total += targets[key]
            if total > budget:
                factor = budget / total
                for key in keys:
                    targets[key] *= factor
                hit.update(keys)
        return hit

    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        targets = sweep_targets()
        clamp(targets)
        delta = 0.0
        for key, target in targets.items():
            step = DAMPING * (target - current[key])
            current[key] += step
            delta = max(delta, abs(step) / max(1.0, target))
        if delta / DAMPING < TOL:
            converged = True
            break
    # One exact, undamped in-place sweep: interior entries land on their
    # best response against the final profile, corners land on exactly 0.
    final_targets = sweep_targets()
    clamped = clamp(final_targets)
    current.update(final_targets)

    funds: dict[str, float] = {}
    marginals: dict[str, float] = {}
    for project in sorted(grouped):
        vals = grouped[project]
        s_all = math.fsum(math.sqrt(current[(v.contributor_id, project)]) for v in vals)
        c_all = math.fsum(current[(v.contributor_id, project)] for v in vals)
        funding = _funding(k, s_all, c_all)
        funds[project] = funding
        marginals[project] = math.fsum(v.marginal(funding) for v in vals)
    total_value = math.fsum(v.value(funds[v.project_id]) for vals in grouped.values() for v in vals)
    spent = math.fsum(current.values())
    if not math.isfinite(total_value - spent):
        raise DomainError(f"best response at k = {k!r}: funds or welfare pass the largest float")
    return EquilibriumResult(
        contributions=dict(current),
        funds=funds,
        aggregate_marginal=marginals,
        welfare=total_value - spent,
        iterations=iterations,
        converged=converged,
        clamped=frozenset(clamped),
    )


@dataclass(frozen=True)
class PlannerResult:
    """Welfare-maximizing split of a pool, net of its spend; the planner block's keys after ``pool``."""

    funds: dict[str, float]
    common_marginal: float
    welfare: float


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
    while hi - lo > 1e-13 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if marginal(mid) > lam:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def planner_optimum(valuations: Sequence[Valuation], pool: float) -> PlannerResult:
    """Split ``pool`` so summed marginal valuations equalize across projects.

    A project enters only through the ``fsum`` of its sqrt and of its log scales,
    taken once; bisection on the common marginal inverts each project's marginal
    until total funding matches the pool, and funds are rescaled exactly at the end.
    A total past the largest float counts as above the pool; funds or welfare
    that pass it raise DomainError.  ``funds`` lists projects in sorted order.
    """
    if not valuations:
        raise DomainError("at least one valuation is required")
    if not math.isfinite(pool) or pool <= 0:
        raise DomainError(f"pool must be positive, got {pool!r}")
    grouped = _group_by_project(valuations)
    projects = sorted(grouped)
    scales = [[math.fsum(v.scale for v in grouped[p] if v.family == f) for f in FAMILIES] for p in projects]

    def total(values) -> float:
        try:
            return math.fsum(values)
        except OverflowError:  # a term or the sum passes the largest float, so any pool
            return math.inf

    def total_funding(lam: float) -> float:
        return total(_invert_marginal(a, b, lam) for a, b in scales)

    lam_lo = lam_hi = 1.0
    for _ in range(400):
        if total_funding(lam_hi) <= pool:
            break
        lam_hi *= 2.0
    else:
        raise DomainError("failed to bracket the planner multiplier from above")
    for _ in range(2000):
        if total_funding(lam_lo) >= pool:
            break
        lam_lo /= 2.0
    else:
        raise DomainError("failed to bracket the planner multiplier from below")
    for _ in range(2000):  # enough to resolve any multiplier the brackets reach to 1e-9
        mid = 0.5 * (lam_lo + lam_hi)
        spent = total_funding(mid)
        if abs(spent - pool) <= 1e-9 * pool:
            lam_lo = lam_hi = mid
            break
        if spent > pool:
            lam_lo = mid
        else:
            lam_hi = mid
    lam = 0.5 * (lam_lo + lam_hi)
    funds = {p: _invert_marginal(a, b, lam) for p, (a, b) in zip(projects, scales)}
    spent = math.fsum(funds.values())
    if spent > 0:
        factor = pool / spent
        funds = {p: f * factor for p, f in funds.items()}
    total_value = total(v.value(funds[v.project_id]) for vals in grouped.values() for v in vals)
    if not math.isfinite(total_value - pool):
        raise DomainError(f"planner funds or welfare at pool {pool!r} pass the largest float")
    return PlannerResult(funds=funds, common_marginal=lam, welfare=total_value - pool)


def welfare(
    valuations: Sequence[Valuation],
    funds: Mapping[str, float],
    contributions: Mapping[tuple[str, str], float],
) -> float:
    """Total valuation of the funded levels minus the contributions spent."""
    total = 0.0
    for valuation in valuations:
        if valuation.project_id not in funds:
            raise DomainError(f"no funding entry for project {valuation.project_id!r}")
        total += valuation.value(funds[valuation.project_id])
    return total - math.fsum(contributions.values())


def max_foc_residual(
    valuations: Sequence[Valuation],
    contributions: Mapping[tuple[str, str], float],
    k: float,
) -> float:
    """Largest |V'(F) * bracket - 1| over positive contributions (check helper)."""
    grouped = _group_by_project(list(valuations))
    worst = 0.0
    for project, vals in grouped.items():
        amounts = {v.contributor_id: contributions.get((v.contributor_id, project), 0.0) for v in vals}
        s_all = math.fsum(math.sqrt(a) for a in amounts.values())
        c_all = math.fsum(amounts.values())
        funding = _funding(k, s_all, c_all)
        for v in vals:
            c = amounts[v.contributor_id]
            if c <= 0.0:
                continue
            bracket = (s_all / math.sqrt(c)) / k + 1.0 - 1.0 / k
            worst = max(worst, abs(v.marginal(funding) * bracket - 1.0))
    return worst


def load_valuations(path) -> list[Valuation]:
    """Read valuations from CSV with header contributor_id,project_id,family,scale."""
    out: list[Valuation] = []
    seen: set[tuple[str, str]] = set()
    for line, (contributor, project, family, scale) in read_rows(
        path, ("contributor_id", "project_id", "family", "scale")
    ):
        key = ((contributor or "").strip(), (project or "").strip())
        if key in seen:
            raise LedgerFormatError(f"{path}:{line}: duplicate valuation for {key!r}")
        seen.add(key)
        scale = positive_field(path, line, scale, "scale")
        try:
            out.append(Valuation(*key, family, scale))
        except DomainError as exc:
            raise LedgerFormatError(f"{path}:{line}: {exc}") from None
    return out
