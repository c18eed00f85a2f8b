"""Best-response contribution equilibria and the constrained-planner benchmark.

Each contributor i with concave valuation V_i over a project's funding F
picks c_i to maximize V_i(F) - c_i, where with scaling constant k

    F = (1/k) * (sum_j sqrt(c_j))^2 + (1 - 1/k) * sum_j c_j.

The interior first-order condition is V_i'(F) * (1 + S_others/(k*sqrt(c_i)))
= 1, where S_others is the square-root sum of everyone else's amounts.  It
has a unique positive root (the left side falls monotonically from +inf to
0) found here by bisection.  A project nobody else funds reduces to
V_i'(c_i) = 1, which can hit the c_i = 0 corner for the log family.

The solver runs simultaneous best-response sweeps damped by 0.5 until the
largest update, relative to max(1, target), is below tolerance, then one
undamped in-place sweep so every entry lands on its exact best response
against the final profile.  k is exogenous throughout;
``best_response_endogenous_k`` wraps an experimental outer loop that
re-derives k from the induced contributions.

Valuations come in two closed-form concave families:

    sqrt: V(F) = v * sqrt(F)        log: V(F) = v * ln(1 + F)
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DomainError, LedgerFormatError
from .funding import required_match
from .ledger import positive_field, read_rows

__all__ = [
    "Valuation",
    "EquilibriumResult",
    "PlannerResult",
    "solve_best_contribution",
    "best_response",
    "best_response_endogenous_k",
    "planner_optimum",
    "welfare",
    "max_foc_residual",
    "load_valuations",
]

FAMILIES = ("sqrt", "log")
#: Step damping of the best-response sweeps and of the endogenous-k loop.
DAMPING = 0.5
#: best_response converges once every undamped step is below TOL * max(1, target).
TOL = 1e-11
#: The endogenous-k loop stops once |delta k| < K_TOL, or after MAX_OUTER steps.
K_TOL = 1e-6
MAX_OUTER = 200


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


def _foc_lhs(valuation: Valuation, k: float, s_others: float, c_others: float, c: float) -> float:
    root = math.sqrt(c)
    s = s_others + root
    funding = (s * s) / k + (1.0 - 1.0 / k) * (c_others + c)
    return valuation.marginal(funding) * (1.0 + s_others / (k * root))


def solve_best_contribution(
    valuation: Valuation,
    k: float,
    s_others: float,
    c_others: float,
    hi_hint: float = 1.0,
) -> float:
    """Best-response contribution given the rest of the project's ledger.

    ``s_others``/``c_others`` are the square-root sum and plain sum of the
    other contributors' amounts.  Bisection runs until the bracket is below
    1e-12 relative to the root, so even tiny interior roots satisfy their
    first-order condition to well under 1e-6.
    """
    if not math.isfinite(k) or k <= 0:
        raise DomainError(f"k must be positive, got {k!r}")
    if s_others <= 0.0:
        # Alone on the project the funding formula collapses to F = c.
        if valuation.family == "sqrt":
            return (valuation.scale / 2.0) ** 2
        return max(0.0, valuation.scale - 1.0)
    hi = max(hi_hint, 1.0)
    for _ in range(200):
        if _foc_lhs(valuation, k, s_others, c_others, hi) < 1.0:
            break
        hi *= 2.0
    else:  # pragma: no cover - marginal utility always decays to zero
        raise DomainError("failed to bracket the best-response root")
    lo = 0.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _foc_lhs(valuation, k, s_others, c_others, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class EquilibriumResult:
    contributions: dict[tuple[str, str], float]
    funds: dict[str, float]
    aggregate_marginal: dict[str, float]
    welfare: float
    iterations: int
    converged: bool
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


def _funding(k: float, s: float, c: float) -> float:
    return (s * s) / k + (1.0 - 1.0 / k) * c


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
    max(1, target): the bisection resolves roots to 1e-12 relative, so an
    absolute test could never pass for large amounts.  Non-convergence after
    ``max_iter`` sweeps returns converged=False rather than a silent answer.
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
                    hi_hint=max(1.0, 2.0 * current[key]),
                )
        return targets

    def clamp(targets: dict[tuple[str, str], float]) -> set[tuple[str, str]]:
        hit: set[tuple[str, str]] = set()
        if not budgets:
            return hit
        totals: dict[str, float] = {}
        for (cid, _pid), value in targets.items():
            totals[cid] = totals.get(cid, 0.0) + value
        for cid, total in totals.items():
            budget = budgets.get(cid)
            if budget is not None and total > budget > 0:
                factor = budget / total
                for key in targets:
                    if key[0] == cid:
                        targets[key] *= factor
                        hit.add(key)
        return hit

    iterations = 0
    converged = False
    clamped: set[tuple[str, str]] = set()
    for _ in range(max_iter):
        iterations += 1
        targets = sweep_targets()
        clamped = clamp(targets)
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
    return EquilibriumResult(
        contributions=dict(current),
        funds=funds,
        aggregate_marginal=marginals,
        welfare=total_value - spent,
        iterations=iterations,
        converged=converged,
        clamped=frozenset(clamped),
    )


def best_response_endogenous_k(
    valuations: Sequence[Valuation],
    pool: float,
) -> tuple[EquilibriumResult, float]:
    """Experimental outer loop: re-derive k from the induced contributions.

    Alternates the exogenous-k solver with k' = (sum of requirements)/pool,
    damped, until |delta k| < K_TOL.  The inner game treats k as fixed, so
    this is a heuristic fixed point, not a defined equilibrium concept.
    """
    if not math.isfinite(pool) or pool <= 0:
        raise DomainError(f"pool must be positive, got {pool!r}")
    k = 1.0
    result = best_response(valuations, k)
    for _ in range(MAX_OUTER):
        requirement = 0.0
        by_project: dict[str, list[float]] = {}
        for (cid, pid), amount in result.contributions.items():
            if amount > 0.0:
                by_project.setdefault(pid, []).append(amount)
        for amounts in by_project.values():
            requirement += required_match(
                math.fsum(math.sqrt(a) for a in amounts), math.fsum(amounts), len(amounts)
            )
        k_next = max(requirement / pool, 1e-9)
        if abs(k_next - k) < K_TOL:
            return result, k
        k += DAMPING * (k_next - k)
        result = best_response(valuations, k, initial=result.contributions)
    return result, k


@dataclass(frozen=True)
class PlannerResult:
    """Welfare-maximizing split of a pool; welfare is net of the pool spend."""

    funds: dict[str, float]
    common_marginal: float
    welfare: float


def _project_marginal(vals: Sequence[Valuation], funding: float) -> float:
    return math.fsum(v.marginal(funding) for v in vals)


def _invert_marginal(vals: Sequence[Valuation], lam: float) -> float:
    """Funding level where the project's summed marginal equals lam (0 at corner)."""
    families = {v.family for v in vals}
    total_scale = math.fsum(v.scale for v in vals)
    if families == {"sqrt"}:
        return (total_scale / (2.0 * lam)) ** 2
    if families == {"log"}:
        return max(0.0, total_scale / lam - 1.0)
    if _project_marginal(vals, 0.0) <= lam:
        return 0.0
    hi = 1.0
    for _ in range(400):
        if _project_marginal(vals, hi) < lam:
            break
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-13 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if _project_marginal(vals, mid) > lam:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def planner_optimum(valuations: Sequence[Valuation], pool: float) -> PlannerResult:
    """Split ``pool`` so summed marginal valuations equalize across projects.

    Bisection on the common marginal: each candidate is inverted per project
    (closed form for single-family projects), then the multiplier moves until
    total funding matches the pool; funds are rescaled exactly at the end.
    """
    if not valuations:
        raise DomainError("at least one valuation is required")
    if not math.isfinite(pool) or pool <= 0:
        raise DomainError(f"pool must be positive, got {pool!r}")
    grouped = _group_by_project(valuations)
    projects = sorted(grouped)

    def total_funding(lam: float) -> float:
        return math.fsum(_invert_marginal(grouped[p], lam) for p in projects)

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
    for _ in range(500):
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
    funds = {p: _invert_marginal(grouped[p], lam) for p in projects}
    spent = math.fsum(funds.values())
    if spent > 0:
        factor = pool / spent
        funds = {p: f * factor for p, f in funds.items()}
    total_value = math.fsum(v.value(funds[v.project_id]) for vals in grouped.values() for v in vals)
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
    for line, row in read_rows(path, ("contributor_id", "project_id", "family", "scale")):
        key = ((row["contributor_id"] or "").strip(), (row["project_id"] or "").strip())
        if key in seen:
            raise LedgerFormatError(f"{path}:{line}: duplicate valuation for {key!r}")
        seen.add(key)
        scale = positive_field(path, line, row, "scale")
        try:
            out.append(Valuation(*key, row["family"], scale))
        except DomainError as exc:
            raise LedgerFormatError(f"{path}:{line}: {exc}") from None
    return out
