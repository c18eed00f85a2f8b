"""Reference planner and budget clamp, as ``qfround.equilibrium`` first computed them.

The planner inverts each project's summed marginal by re-summing every
valuation's marginal with ``math.fsum`` at each bisection step, inside the
bisection on the common multiplier.  ``best_response`` clamps an
over-budget contributor by scanning every target for that contributor's
keys.  Tests compare the library against both.
"""

import math

from qfround.equilibrium import (
    DAMPING,
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

    def sweep_targets():
        targets = {}
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

    def clamp(targets):
        hit = set()
        if not budgets:
            return hit
        totals = {}
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
    final_targets = sweep_targets()
    clamped = clamp(final_targets)
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
