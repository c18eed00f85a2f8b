"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria with stated wall-clock budgets assert them.
"""

import itertools
import math
import random
import statistics
import time

import numpy as np
import pytest

from synthgraph import community_percentages_fixture, generate_backing

from qfround.concentration import decomposed_match, max_match
from qfround.efficiency import k_sweep, lambda_lower_bound, lambda_p
from qfround.equilibrium import Valuation, best_response, planner_optimum, welfare
from qfround.funding import (
    ProjectLedger,
    cqf_allocate,
    matching_requirement,
)
from qfround.ledger import build_graph, cross_category_stats, reciprocity_stats
from qfround.roundsim import (
    AgentSpec,
    CategorySpec,
    PoolEvent,
    RoundConfig,
    deficit_curve,
    run_round,
)
from qfround.strategy import (
    TRIGGER_RATE_BOUND,
    alpha_double_star,
    alpha_star,
    ring_payoff,
)


def announce(number, name):
    print(f"ACCEPTANCE {number:>2} ({name}): PASS")


def random_ledger(rng, max_n=12, min_amount=0.5, project="p"):
    n = rng.randint(1, max_n)
    return ProjectLedger.from_amounts(project, [rng.uniform(min_amount, 100.0) for _ in range(n)])


def test_criterion_01_quadratic_scaling():
    started = time.monotonic()
    for c in (0.5, 1.0, 7.0):
        for n in range(2, 65):
            project = ProjectLedger.from_amounts("p", [c] * n)
            expected = (n * n - n) * c
            assert matching_requirement(project) == pytest.approx(expected, rel=1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    announce(1, "quadratic scaling (n^2-n)c, n in 2..64")


def test_criterion_02_share_decomposition_identity():
    started = time.monotonic()
    rng = random.Random(202)
    for _ in range(10_000):
        project = random_ledger(rng, min_amount=0.01)
        direct = matching_requirement(project)
        decomposed = decomposed_match(project)
        assert decomposed == pytest.approx(direct, rel=1e-9, abs=1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    announce(2, "variance/HHI decomposition == pair sum on 10k ledgers")


def _simplex_grid(parts, steps=20):
    rows = []
    for cuts in itertools.combinations(range(steps + parts - 1), parts - 1):
        vector = []
        last = -1
        for cut in cuts:
            vector.append(cut - last - 1)
            last = cut
        vector.append(steps + parts - 2 - last)
        rows.append([v / steps for v in vector])
    return np.asarray(rows)


def _grid_max(budgets, n_projects):
    """Largest total requirement over the full product share grid."""
    grid = _simplex_grid(n_projects)
    roots = [np.sqrt(grid * m) for m in budgets]
    squares = [(r**2).sum(axis=1) for r in roots]
    n = len(budgets)
    if n == 2:
        total = roots[0][:, None, :] + roots[1][None, :, :]
        objective = (total**2).sum(-1) - (squares[0][:, None] + squares[1][None, :])
        return float(objective.max())
    if n == 3:
        best = -math.inf
        for i in range(grid.shape[0]):
            total = roots[0][i][None, None, :] + roots[1][:, None, :] + roots[2][None, :, :]
            objective = (total**2).sum(-1) - (
                squares[0][i] + squares[1][:, None] + squares[2][None, :]
            )
            best = max(best, float(objective.max()))
        return best
    if n == 4:
        total = (
            roots[0][:, None, None, None, :]
            + roots[1][None, :, None, None, :]
            + roots[2][None, None, :, None, :]
            + roots[3][None, None, None, :, :]
        )
        objective = (total**2).sum(-1) - (
            squares[0][:, None, None, None]
            + squares[1][None, :, None, None]
            + squares[2][None, None, :, None]
            + squares[3][None, None, None, :]
        )
        return float(objective.max())
    raise AssertionError("unsupported contributor count")


def _unilateral_deviation_max(budgets, base_shares):
    """Best objective reachable by one contributor deviating on the grid.

    The objective is jointly concave (a sum of pairwise geometric means), so
    no unilateral improvement over a correlated interior point means no
    global improvement either; used where the full product grid (231^4
    points) is out of budget.
    """
    grid = _simplex_grid(len(base_shares))
    base = [np.sqrt(np.asarray(base_shares) * m) for m in budgets]
    best = -math.inf
    for i, budget in enumerate(budgets):
        others = sum((base[j] for j in range(len(budgets)) if j != i), np.zeros(len(base_shares)))
        others_sq = sum(float((base[j] ** 2).sum()) for j in range(len(budgets)) if j != i)
        deviant = np.sqrt(grid * budget)
        total = others[None, :] + deviant
        objective = (total**2).sum(1) - (others_sq + (deviant**2).sum(1))
        best = max(best, float(objective.max()))
    return best


def test_criterion_03_correlated_shares_maximize_requirements():
    started = time.monotonic()
    budgets_by_n = {
        2: [1.0, 2.25],
        3: [1.0, 2.25, 0.49],
        4: [1.0, 2.25, 0.49, 4.0],
    }
    for n, n_projects in itertools.product((2, 3, 4), (2, 3)):
        budgets = budgets_by_n[n]
        ceiling = max_match(budgets)
        if (n, n_projects) == (4, 3):
            best = _unilateral_deviation_max(budgets, (0.4, 0.3, 0.3))
        else:
            best = _grid_max(budgets, n_projects)
        assert best <= ceiling + 1e-9
        assert best == pytest.approx(ceiling, abs=1e-6)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    announce(3, "0.05-grid search: correlated shares attain the max requirement")


def test_criterion_04_budget_balance_and_event_jump():
    rng = random.Random(404)
    for _ in range(300):
        ledgers = [
            random_ledger(rng, max_n=8, min_amount=0.01, project=f"p{i}")
            for i in range(rng.randint(1, 6))
        ]
        if sum(matching_requirement(l) for l in ledgers) == 0.0:
            continue
        pool = rng.uniform(0.1, 500.0)
        allocation = cqf_allocate(ledgers, pool)
        assert math.fsum(o.m_actual for o in allocation.projects) == pytest.approx(pool, abs=1e-6)

    agents = [
        AgentSpec(f"f{i}", "honest", budget=2.0, activity=1.0, fixed_amount=2.0, projects=("p1",))
        for i in range(6)
    ]
    config = RoundConfig(
        categories=(CategorySpec("main", 120.0, ("p1",)),),
        duration_days=4,
        pool_events=(PoolEvent(2, "main", 150.0),),
        seed=44,
    )
    jump = run_round(config, agents).event_jumps[0]
    assert jump.k_after == pytest.approx(jump.k_before * (120.0 / 150.0), rel=1e-12)
    assert jump.k_after == pytest.approx(jump.k_before * 0.8, rel=1e-12)
    announce(4, "pool exactly distributed; 25% pool event scales k by 0.8")


def test_criterion_05_lambda_suite():
    spot = lambda_p(ProjectLedger.from_amounts("p", [1.0, 1.0]), 2.0)
    assert abs(spot - 4.0 / 3.0) < 1e-12

    rng = random.Random(505)
    for _ in range(10_000):
        project = random_ledger(rng)
        k = rng.uniform(0.3, 100.0)
        assert lambda_p(project, k) >= lambda_lower_bound(project, k) - 1e-9
    for _ in range(200):
        project = random_ledger(rng)
        assert lambda_p(project, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert lambda_p(project, 1e9) == pytest.approx(project.contributor_count, abs=1e-5)

    grid = [1.0 + 19.0 * i / 99 for i in range(100)]
    points = k_sweep([(1, 1), (1, 2), (1, 15)], grid)
    curves = {}
    for point in points:
        curves.setdefault(point.profile_label, {})[point.k] = point.lambda_p
    for k in grid:
        if k > 1.0:
            assert curves["1:1"][k] >= curves["1:2"][k] - 1e-12
            assert curves["1:2"][k] >= curves["1:15"][k] - 1e-12
    assert curves["1:1"][grid[-1]] > curves["1:15"][grid[-1]] + 1e-3
    announce(5, "lambda limits, 10k bound checks, figure ordering, spot value")


def test_criterion_06_collusion_numbers():
    assert alpha_star(25) == 0.2

    threshold = alpha_double_star(25, 20.0)
    assert threshold == pytest.approx(0.5918, abs=5e-4)
    assert round(threshold * 10.0) == 6  # reads as "60%" at ten-percent precision

    assert TRIGGER_RATE_BOUND == pytest.approx(1.0938, abs=1e-4)
    assert TRIGGER_RATE_BOUND == 2.0 / (2.0 * math.sqrt(2.0) - 1.0)

    rng = random.Random(606)
    for _ in range(500):
        n = rng.randint(2, 300)
        k = rng.uniform(1.0, 60.0)
        c = rng.uniform(0.1, 10.0)
        assert abs(ring_payoff(n, alpha_double_star(n, k), k, c)) < 1e-9
    announce(6, "alpha*=0.2, alpha**(25,20)~0.5918, r*~1.0938, zero at root")


def test_criterion_07_equilibrium_limits_and_monotonicity():
    started = time.monotonic()
    rng = random.Random(707)

    for _ in range(10):
        vals = [
            Valuation(f"c{i}", f"p{j}", "sqrt", rng.uniform(0.5, 3.0))
            for i in range(3)
            for j in range(2)
        ]
        result = best_response(vals, 1.0)
        assert result.converged
        for project, marginal in result.aggregate_marginal.items():
            if result.funds[project] > 1e-9:
                assert marginal == pytest.approx(1.0, abs=1e-4)

        private = best_response(vals, 1e9)
        totals = {}
        for (cid, pid), amount in private.contributions.items():
            totals[pid] = totals.get(pid, 0.0) + amount
        for v in vals:
            c = private.contributions[(v.contributor_id, v.project_id)]
            if c > 1e-6:
                assert v.marginal(totals[v.project_id]) == pytest.approx(1.0, abs=1e-4)

    # Monotone response to scarcer matching: symmetric peers per project
    # (the class where the comparative static is exact; see notes in the
    # heterogeneous free-rider test in test_equilibrium.py).
    grid = [1.0 + 99.0 * i / 19 for i in range(20)]
    for _ in range(50):
        scales = {f"p{j}": rng.uniform(0.5, 3.0) for j in range(rng.randint(1, 2))}
        vals = [
            Valuation(f"c{i}", pid, "sqrt", scale)
            for i in range(rng.randint(2, 4))
            for pid, scale in scales.items()
        ]
        previous = None
        warm = None
        for k in grid:
            result = best_response(vals, k, initial=warm)
            warm = result.contributions
            if previous is not None:
                for key, amount in result.contributions.items():
                    assert amount <= previous[key] + 1e-8 * (1.0 + previous[key])
            previous = result.contributions
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    announce(7, "k=1 efficiency, k=1e9 private condition, monotone in k")


def test_criterion_08_planner():
    vals = [Valuation("a", "p1", "sqrt", 2.0), Valuation("a", "p2", "sqrt", 2.0)]
    result = planner_optimum(vals, 10.0)
    assert result.funds["p1"] == pytest.approx(5.0, abs=1e-8)
    assert result.funds["p2"] == pytest.approx(5.0, abs=1e-8)

    rng = random.Random(808)
    for _ in range(100):
        family = rng.choice(["sqrt", "log"])
        vals = [
            Valuation(f"c{i}", f"p{j}", family, rng.uniform(0.5, 3.0))
            for i in range(rng.randint(1, 3))
            for j in range(rng.randint(2, 4))
        ]
        pool = rng.uniform(1.0, 40.0)
        planned = planner_optimum(vals, pool)
        base = welfare(vals, planned.funds, {})
        epsilon = 1e-3 * pool
        projects = sorted(planned.funds)
        for source in projects:
            if planned.funds[source] < epsilon:
                continue
            for sink in projects:
                if source == sink:
                    continue
                shifted = dict(planned.funds)
                shifted[source] -= epsilon
                shifted[sink] += epsilon
                assert welfare(vals, shifted, {}) <= base + 1e-9
    announce(8, "planner splits symmetric pools evenly; perturbations never help")


def _mean_honest_emission(pool, seed):
    agents = [
        AgentSpec(
            f"a{i}",
            "honest",
            budget=40.0,
            activity=0.8,
            valuations=(
                Valuation(f"a{i}", "p1", "sqrt", 2.0 + 0.2 * i),
                Valuation(f"a{i}", "p2", "sqrt", 1.5 + 0.1 * i),
            ),
        )
        for i in range(6)
    ]
    config = RoundConfig(
        categories=(CategorySpec("main", pool, ("p1", "p2")),),
        duration_days=8,
        seed=seed,
    )
    trajectory = run_round(config, agents)
    return math.fsum(trajectory.panel.amounts) / len(agents)


def test_criterion_09_simulator():
    agents = [
        AgentSpec(
            f"f{i}", "honest", budget=3.0, activity=0.6, fixed_amount=1.5, projects=("p1", "p2")
        )
        for i in range(7)
    ]
    config = RoundConfig(
        categories=(CategorySpec("main", 30.0, ("p1", "p2")),),
        duration_days=9,
        pool_events=(PoolEvent(4, "main", 45.0),),
        seed=99,
    )
    first = run_round(config, agents)
    second = run_round(config, agents)
    assert first == second

    for day in range(1, config.duration_days):
        if day == 4:
            continue  # pool event day: k legitimately drops
        before = first.k_by_day[day - 1]["main"]
        after = first.k_by_day[day]["main"]
        if before is not None and after is not None:
            assert after >= before - 1e-12

    fit_agents = []
    projects = []
    for n in range(2, 8):
        pid = f"q{n}"
        projects.append(pid)
        fit_agents += [
            AgentSpec(f"{pid}-{i}", "honest", budget=2.0, activity=1.0, fixed_amount=2.0, projects=(pid,))
            for i in range(n)
        ]
    fit_config = RoundConfig(
        categories=(CategorySpec("main", 100.0, tuple(projects)),), duration_days=2, seed=1
    )
    curve = deficit_curve(run_round(fit_config, fit_agents))
    assert curve.fit is not None
    assert curve.fit.r_squared > 0.99

    pools = [64.0, 16.0, 4.0, 1.0, 0.25]
    seeds = range(20)
    means = [statistics.fmean(_mean_honest_emission(pool, seed) for seed in seeds) for pool in pools]
    for larger_pool, smaller_pool in zip(means, means[1:]):
        assert smaller_pool <= larger_pool + 1e-9
    announce(9, "bit-identical runs, monotone k, R^2>0.99, contributions fall with scarcity")


def test_criterion_10_reciprocity_forensics():
    slopes = []
    deltas = {}
    for seed in range(5):
        contributions, roster, categories = generate_backing(
            n_projects=6000, quota_range=(1, 60), seed=1000 + seed
        )
        graph = build_graph(contributions, roster, categories)
        slopes.append(reciprocity_stats(graph).slope.slope)
        for row in cross_category_stats(graph).rows:
            deltas.setdefault(row.category, []).append(
                row.cross_reciprocal_share - row.outside_project_share
            )
    assert statistics.fmean(slopes) == pytest.approx(0.2, abs=0.02)
    for category, values in deltas.items():
        spread = statistics.stdev(values)
        error = spread / math.sqrt(len(values))
        assert abs(statistics.fmean(values)) <= 2.0 * error, category

    contributions, roster, categories = community_percentages_fixture()
    graph = build_graph(contributions, roster, categories)
    rows = {row.category: row for row in cross_category_stats(graph).rows}
    assert rows["community"].outside_project_share == pytest.approx(0.66, abs=1e-12)
    assert rows["community"].cross_reciprocal_share == pytest.approx(0.71, abs=1e-12)
    announce(10, "slope 0.2 +/- 0.02, null model within 2 SE, community row exact")
