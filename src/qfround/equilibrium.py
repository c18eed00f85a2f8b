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

The solver sweeps best responses until no entry moves by more than the
tolerance relative to max(1, target).  The first two sweeps solve every
entry against the profile before them and move it halfway to its target;
later ones solve each project's contributors in turn (Gauss-Seidel), each
against the amounts the ones before it just took, scaled by their budget
factor from the sweep before, and move every entry all the way.  A last
simultaneous sweep then sets every entry to its exact best response against
the profile reached.  k is exogenous throughout.

Valuations come in two closed-form concave families:

    sqrt: V(F) = v * sqrt(F)        log: V(F) = v * ln(1 + F)
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DomainError, LedgerFormatError
from .funding import _total
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
#: best_response converges once every entry moves by less than TOL * max(1, target) in a sweep.
TOL = 1e-11
#: best_response's first sweeps are simultaneous and move each entry halfway to its target.
HALF_STEP_SWEEPS = 2
#: The planner resolves the funding of a project valued both by sqrt and by log
#: to this much (relative above 1), so it funds none below about this amount.
PLANNER_RESOLUTION = 1e-13


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


def _funding(k: float, s: float, c: float) -> float:
    return (s * s) / k + (1.0 - 1.0 / k) * c


def _sums(amounts: Sequence[float]) -> tuple[float, float]:
    """A project's square-root sum and plain sum of its contribution ``amounts``."""
    return math.fsum(math.sqrt(a) for a in amounts), math.fsum(amounts)


def foc_lhs(valuation: Valuation, k: float, s_others: float, c_others: float, c: float) -> float:
    """Left side of the first-order condition at ``c > 0``; it falls monotonically in c.

    V'(F) * (1 + s_others / (k * sqrt(c))).  ``solve_best_contribution``'s loop
    repeats these operations in this order, so the two agree to the bit.
    """
    root = math.sqrt(c)
    s = s_others + root
    funding = (s * s) / k + (1.0 - 1.0 / k) * (c_others + c)
    bracket = 1.0 + s_others / (k * root)
    return valuation.marginal(funding) * bracket


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

    Each evaluation writes ``foc_lhs``'s operations out in the loop, with one
    ``valuation.marginal`` call, and takes the decay -d ln V'(F) / dF inline.
    """
    if not math.isfinite(k) or k <= 0:
        raise DomainError(f"k must be positive, got {k!r}")
    sqrt_family = valuation.family == "sqrt"
    try:
        if s_others <= 0.0:
            # Alone on the project the funding formula collapses to F = c, so V'(c) = 1.
            scales = (valuation.scale, 0.0) if sqrt_family else (0.0, valuation.scale)
            return _invert_marginal(*scales, 1.0)
        sqrt, log, exp = math.sqrt, math.log, math.exp
        marginal = valuation.marginal
        scaled = 1.0 - 1.0 / k
        c = start if start > 0.0 else 1.0
        lo, hi = 0.0, math.inf  # f > 1 at lo and f < 1 at hi; 0 and inf mean not yet seen
        # Steps of 2 cross all positive floats (about 1455 in ln c) in under 730.
        for _ in range(1000):
            root = sqrt(c)
            s = s_others + root
            funding = (s * s) / k + scaled * (c_others + c)
            bracket = 1.0 + s_others / (k * root)
            lhs = marginal(funding) * bracket
            if lhs > 1.0:
                lo = c
            else:
                hi = c
            if hi - lo <= 1e-13 * lo:  # both sides seen and close
                return 0.5 * (lo + hi)
            # d ln f / d ln c, using dF/dc = bracket.
            decay = 0.5 / funding if sqrt_family else 1.0 / (1.0 + funding)
            slope = c * bracket * decay + 0.5 * (bracket - 1.0) / bracket
            if lhs > 0.0:  # lhs is 0 once F is inf
                try:
                    step = log(lhs) / slope
                except ZeroDivisionError:  # a huge k leaves the bracket 1 and the decay 0
                    step = 2.0 if lhs > 1.0 else -2.0  # toward the root
                else:  # clip to +-2 as max(-2.0, min(2.0, step)) does: NaN gives 2
                    if not step < 2.0:
                        step = 2.0
                    elif step <= -2.0:
                        step = -2.0
            else:
                step = -2.0
            after = c * exp(step)
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
    """Sequential best-response sweeps to a fixed point c = clamp(T(c)).

    Projects are independent subproblems; budgets, when given, cap each
    contributor's total by proportional scaling and the affected entries are
    reported in ``clamped`` (their first-order conditions need not hold).
    The first ``HALF_STEP_SWEEPS`` sweeps, from zeros or ``initial``, solve
    every entry against the profile before them and move it halfway to its
    clamped target: from zeros the first targets are lone best responses,
    which overshoot wherever others fund the project.  From then on a
    project's contributors are solved in sorted order, each against the
    project's amounts with the ones already solved in this sweep at their
    target times their contributor's budget factor from the last sweep's
    clamp, so at a fixed point every solve sees the clamped profile; every
    entry then takes its clamped target.  Below about k = 1e-20 the funding's
    two terms cancel and which error ends a run is set by rounding in these
    first solves, which are those of the damped iteration this replaced.
    The sweep converges when no clamped target moves its entry by ``TOL``
    times max(1, target) or more: roots are resolved only to a relative step
    of 1e-13, so an absolute test could never pass for large amounts.  A last
    simultaneous sweep sets every entry to its best response against the
    profile reached.  Non-convergence after ``max_iter`` sweeps returns
    converged=False rather than a silent answer; ``max_iter`` below 1 raises
    DomainError.
    ``funds`` and ``aggregate_marginal`` list projects in sorted order.
    """
    if not valuations:
        raise DomainError("at least one valuation is required")
    if not math.isfinite(k) or k <= 0:
        raise DomainError(f"k must be positive, got {k!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter!r}")
    grouped = _group_by_project(valuations)
    current: dict[tuple[str, str], float] = {
        (v.contributor_id, v.project_id): 0.0 for vals in grouped.values() for v in vals
    }
    if initial:
        for key, value in initial.items():
            if key in current and value >= 0.0:
                current[key] = float(value)
    projects = [(p, grouped[p], [(v.contributor_id, p) for v in grouped[p]]) for p in sorted(grouped)]

    def sweep_targets(factors: dict[str, float] | None) -> dict[tuple[str, str], float]:
        """Every entry's best response; simultaneous against ``current`` when
        ``factors`` is None, else each solve sees the entries solved before it
        in the project at their targets scaled by their contributor's factor."""
        targets: dict[tuple[str, str], float] = {}
        for _, vals, keys in projects:
            amounts = [current[key] for key in keys]
            roots = [math.sqrt(c) for c in amounts]
            s_all, c_all = math.fsum(roots), math.fsum(amounts)  # as _sums(amounts)
            for v, key, c, root in zip(vals, keys, amounts, roots):
                # Sums moved by a large entry's drop can round below the small ones left in them.
                s_others, c_others = s_all - root, c_all - c
                target = targets[key] = solve_best_contribution(
                    v, k, s_others if s_others > 0.0 else 0.0, c_others if c_others > 0.0 else 0.0, c
                )
                if factors is not None:  # an entry that does not move leaves both sums' bits
                    target *= factors.get(key[0], 1.0)
                    s_all += math.sqrt(target) - root
                    c_all += target - c
        return targets

    keys_of: dict[str, list[tuple[str, str]]] = {}
    for key in sorted(current):  # a contributor's keys in the order its targets are swept
        keys_of.setdefault(key[0], []).append(key)
    capped = [(cid, keys_of[cid], b) for cid, b in (budgets or {}).items() if cid in keys_of and b > 0]

    def clamp(targets: dict[tuple[str, str], float]) -> dict[str, float]:
        """Scale each over-budget contributor's targets onto its budget; return the factors by contributor."""
        factors: dict[str, float] = {}
        for cid, keys, budget in capped:
            total = 0.0
            for key in keys:
                total += targets[key]
            if total > budget:
                factor = factors[cid] = budget / total
                for key in keys:
                    targets[key] *= factor
        return factors

    iterations = 0
    converged = False
    factors: dict[str, float] = {}
    for _ in range(max_iter):
        iterations += 1
        half_step = iterations <= HALF_STEP_SWEEPS
        targets = sweep_targets(None if half_step else factors)
        factors = clamp(targets)
        delta = 0.0
        for key, target in targets.items():
            # delta = max(delta, abs(target - current) / max(1.0, target)), NaN cases included
            change = abs(target - current[key]) / (target if target > 1.0 else 1.0)
            if change > delta:
                delta = change
            if half_step:
                current[key] += 0.5 * (target - current[key])
        if not half_step:
            current.update(targets)
        if delta < TOL:
            converged = True
            break
    # One exact simultaneous sweep: interior entries land on their best
    # response against the profile before it, corners on exactly 0.
    final_targets = sweep_targets(None)
    clamped = {key for cid in clamp(final_targets) for key in keys_of[cid]}
    current.update(final_targets)

    funds: dict[str, float] = {}
    marginals: dict[str, float] = {}
    for project, vals, keys in projects:
        funding = _funding(k, *_sums([current[key] for key in keys]))
        funds[project] = funding
        marginals[project] = math.fsum(v.marginal(funding) for v in vals)
    net = welfare(valuations, funds, current)
    if not math.isfinite(net):
        raise DomainError(f"best response at k = {k!r}: funds or welfare pass the largest float")
    return EquilibriumResult(
        contributions=dict(current),
        funds=funds,
        aggregate_marginal=marginals,
        welfare=net,
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
    sqrt = math.sqrt
    hi = 1.0
    for _ in range(400):
        if a / (2.0 * sqrt(hi)) + b / (1.0 + hi) < lam:
            break
        hi *= 2.0
    lo = 0.0
    while hi - lo > PLANNER_RESOLUTION * (1.0 if hi < 1.0 else hi):  # max(hi, 1.0)
        mid = 0.5 * (lo + hi)
        if a / (2.0 * sqrt(mid)) + b / (1.0 + mid) > lam:
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

    def total_funding(lam: float) -> float:  # inf, past any pool, once the funds pass the largest float
        return _total(_invert_marginal(a, b, lam) for a, b in scales)

    lam_lo = lam_hi = 1.0
    while total_funding(lam_hi) > pool:
        if lam_hi >= 2.0**400:
            floor = ""
            if any(a and b for a, b in scales):
                floor = f"; a project valued by both sqrt and log is resolved only to {PLANNER_RESOLUTION!r}"
            raise DomainError(
                f"failed to bracket the planner multiplier from above: pool {pool!r} is below "
                f"{total_funding(lam_hi)!r}, the least total funding at multipliers up to 2**400{floor}"
            )
        lam_hi *= 2.0
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
    net = welfare(valuations, funds, {}) - pool
    if not math.isfinite(net):
        raise DomainError(f"planner funds or welfare at pool {pool!r} pass the largest float")
    return PlannerResult(funds=funds, common_marginal=lam, welfare=net)


def welfare(
    valuations: Sequence[Valuation],
    funds: Mapping[str, float],
    contributions: Mapping[tuple[str, str], float],
) -> float:
    """Total valuation of the funded levels minus the contributions spent.

    Each side is one ``_total``, so a sum past the largest float reads inf.
    """
    for valuation in valuations:
        if valuation.project_id not in funds:
            raise DomainError(f"no funding entry for project {valuation.project_id!r}")
    return _total(v.value(funds[v.project_id]) for v in valuations) - _total(contributions.values())


def max_foc_residual(
    valuations: Sequence[Valuation],
    contributions: Mapping[tuple[str, str], float],
    k: float,
) -> float:
    """Largest |V'(F) * bracket - 1| over positive contributions (check helper)."""
    grouped = _group_by_project(list(valuations))
    worst = 0.0
    for project, vals in grouped.items():
        amounts = [contributions.get((v.contributor_id, project), 0.0) for v in vals]
        s_all, c_all = _sums(amounts)
        for v, c in zip(vals, amounts):
            if c > 0.0:
                worst = max(worst, abs(foc_lhs(v, k, s_all - math.sqrt(c), c_all - c, c) - 1.0))
    return worst


def load_valuations(path) -> list[Valuation]:
    """Read valuations from CSV with header contributor_id,project_id,family,scale."""
    out: list[Valuation] = []
    seen: set[tuple[str, str]] = set()
    for line, (contributor, project, family, scale) in read_rows(
        path, ("contributor_id", "project_id", "family", "scale")
    ):
        key = ((contributor or "").strip(), (project or "").strip())
        if not all(key):
            raise LedgerFormatError(f"{path}:{line}: missing contributor or project id")
        if key in seen:
            raise LedgerFormatError(f"{path}:{line}: duplicate valuation for {key!r}")
        seen.add(key)
        scale = positive_field(path, line, scale, "scale")
        try:
            out.append(Valuation(*key, family, scale))
        except DomainError as exc:
            raise LedgerFormatError(f"{path}:{line}: {exc}") from None
    return out
