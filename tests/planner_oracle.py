"""Reference planner and best response, written plainly from their definitions.

The planner inverts each project's summed marginal by re-summing every
valuation's marginal with ``math.fsum`` at each bisection step, inside the
bisection on the common multiplier.  ``best_response`` solves each project's
contributors one after another.  The first sweeps move every entry halfway
to its best response against the profile before them, and the final sweep
sets it there; between them each solve sees the ones before it at their new
amounts, through project sums moved by each entry's change and never taken
below 0.  It clamps an over-budget contributor by scanning every target for
that contributor's keys.  Tests compare the library against both.
"""

import math

from qfround.equilibrium import (
    HALF_STEP_SWEEPS,
    TOL,
    EquilibriumResult,
    PlannerResult,
    solve_best_contribution,
)


def _group_by_project(valuations):
    grouped = {}
    for valuation in valuations:
        grouped.setdefault(valuation.project_id, []).append(valuation)
    for vals in grouped.values():
        vals.sort(key=lambda v: v.contributor_id)
    return grouped


def _project_marginal(vals, funding):
    return math.fsum(v.marginal(funding) for v in vals)


def _invert_marginal(vals, lam):
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


def planner_optimum(valuations, pool):
    grouped = _group_by_project(valuations)
    projects = sorted(grouped)

    def total_funding(lam):
        return math.fsum(_invert_marginal(grouped[p], lam) for p in projects)

    lam_lo = lam_hi = 1.0
    for _ in range(400):
        if total_funding(lam_hi) <= pool:
            break
        lam_hi *= 2.0
    for _ in range(2000):
        if total_funding(lam_lo) >= pool:
            break
        lam_lo /= 2.0
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


def best_response(valuations, k, budgets=None, *, max_iter=10_000):
    grouped = _group_by_project(valuations)
    current = {(v.contributor_id, v.project_id): 0.0 for vals in grouped.values() for v in vals}

    def solve_project(vals, project, targets, factors):
        """Solve the project's contributors in turn.  With ``factors`` (a sequential
        sweep), each later solve sees the earlier ones at their target times their
        contributor's factor; without, every solve sees ``current``."""
        amounts = [current[(v.contributor_id, project)] for v in vals]
        s_all = math.fsum(math.sqrt(amount) for amount in amounts)
        c_all = math.fsum(amounts)
        for v in vals:
            key = (v.contributor_id, project)
            old = current[key]
            targets[key] = solve_best_contribution(
                v, k, max(0.0, s_all - math.sqrt(old)), max(0.0, c_all - old), old,
            )
            if factors is not None:
                new = targets[key] * factors.get(v.contributor_id, 1.0)
                s_all = s_all + (math.sqrt(new) - math.sqrt(old))
                c_all = c_all + (new - old)

    def sweep_targets(factors):
        targets = {}
        for project in sorted(grouped):
            solve_project(grouped[project], project, targets, factors)
        return targets

    def clamp(targets):
        """Scale over-budget contributors onto their budgets; return their factors."""
        factors = {}
        if not budgets:
            return factors
        totals = {}
        for (cid, _pid), value in targets.items():
            totals[cid] = totals.get(cid, 0.0) + value
        for cid, total in totals.items():
            budget = budgets.get(cid)
            if budget is not None and total > budget > 0:
                factors[cid] = budget / total
                for key in targets:
                    if key[0] == cid:
                        targets[key] *= factors[cid]
        return factors

    iterations = 0
    converged = False
    factors = {}
    for _ in range(max_iter):
        iterations += 1
        half_step = iterations <= HALF_STEP_SWEEPS
        targets = sweep_targets(None if half_step else factors)
        factors = clamp(targets)
        delta = 0.0
        for key, target in targets.items():
            delta = max(delta, abs(target - current[key]) / max(1.0, target))
            if half_step:
                current[key] = current[key] + 0.5 * (target - current[key])
            else:
                current[key] = target
        if delta < TOL:
            converged = True
            break
    final_targets = sweep_targets(None)
    final_factors = clamp(final_targets)
    clamped = {key for key in final_targets if key[0] in final_factors}
    current.update(final_targets)

    funds = {}
    marginals = {}
    for project in sorted(grouped):
        vals = grouped[project]
        s_all = math.fsum(math.sqrt(current[(v.contributor_id, project)]) for v in vals)
        c_all = math.fsum(current[(v.contributor_id, project)] for v in vals)
        funding = (s_all * s_all) / k + (1.0 - 1.0 / k) * c_all
        funds[project] = funding
        marginals[project] = math.fsum(v.marginal(funding) for v in vals)
    total_value = math.fsum(v.value(funds[v.project_id]) for vals in grouped.values() for v in vals)
    return EquilibriumResult(
        contributions=dict(current),
        funds=funds,
        aggregate_marginal=marginals,
        welfare=total_value - math.fsum(current.values()),
        iterations=iterations,
        converged=converged,
        clamped=frozenset(clamped),
    )
