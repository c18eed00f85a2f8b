"""Tests for the best-response solver, planner benchmark, and welfare accounting."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfround.equilibrium import (
    Valuation,
    best_response,
    best_response_endogenous_k,
    load_valuations,
    max_foc_residual,
    planner_optimum,
    solve_best_contribution,
    welfare,
)
from qfround.errors import DomainError, LedgerFormatError


def sqrt_val(cid, pid, scale):
    return Valuation(cid, pid, "sqrt", scale)


def log_val(cid, pid, scale):
    return Valuation(cid, pid, "log", scale)


def random_instance(rng, n_contributors=3, n_projects=2, family="sqrt"):
    return [
        Valuation(f"c{i}", f"p{j}", family, rng.uniform(0.5, 3.0))
        for i in range(n_contributors)
        for j in range(n_projects)
    ]


class TestValuation:
    def test_families_and_shapes(self):
        v = sqrt_val("a", "p", 2.0)
        assert v.value(4.0) == pytest.approx(4.0)
        assert v.marginal(4.0) == pytest.approx(0.5)
        w = log_val("a", "p", 3.0)
        assert w.value(math.e - 1.0) == pytest.approx(3.0)
        assert w.marginal(0.0) == pytest.approx(3.0)

    def test_bad_family_and_scale(self):
        with pytest.raises(DomainError):
            Valuation("a", "p", "cubic", 1.0)
        with pytest.raises(DomainError):
            Valuation("a", "p", "sqrt", 0.0)


class TestSolveBestContribution:
    def test_lone_contributor_closed_form(self):
        for k in (1.0, 2.0, 1e9):
            assert solve_best_contribution(sqrt_val("a", "p", 4.0), k, 0.0, 0.0) == pytest.approx(4.0)

    def test_lone_log_contributor_corner(self):
        assert solve_best_contribution(log_val("a", "p", 0.5), 1.0, 0.0, 0.0) == 0.0
        assert solve_best_contribution(log_val("a", "p", 3.0), 1.0, 0.0, 0.0) == pytest.approx(2.0)

    def test_root_satisfies_first_order_condition(self):
        rng = random.Random(3)
        for _ in range(200):
            v = Valuation("a", "p", rng.choice(["sqrt", "log"]), rng.uniform(0.5, 4.0))
            k = rng.uniform(1.0, 30.0)
            s_others = rng.uniform(0.1, 5.0)
            c_others = s_others**2 * rng.uniform(0.5, 2.0)
            c = solve_best_contribution(v, k, s_others, c_others)
            s = s_others + math.sqrt(c)
            funding = s * s / k + (1.0 - 1.0 / k) * (c_others + c)
            bracket = 1.0 + s_others / (k * math.sqrt(c))
            assert v.marginal(funding) * bracket == pytest.approx(1.0, abs=1e-8)


class TestBestResponse:
    def test_single_contributor_any_k(self):
        for k in (1.0, 7.0, 1e9):
            result = best_response([sqrt_val("a", "p", 4.0)], k)
            assert result.converged
            assert result.contributions[("a", "p")] == pytest.approx(4.0, rel=1e-9)
            assert result.funds["p"] == pytest.approx(4.0, rel=1e-9)

    def test_k_one_aggregate_marginal_is_one(self):
        rng = random.Random(5)
        for _ in range(10):
            vals = random_instance(rng)
            result = best_response(vals, 1.0)
            assert result.converged
            for project, marginal in result.aggregate_marginal.items():
                if result.funds[project] > 1e-9:
                    assert marginal == pytest.approx(1.0, abs=1e-6)

    def test_large_k_recovers_private_provision(self):
        rng = random.Random(6)
        for _ in range(10):
            vals = random_instance(rng)
            result = best_response(vals, 1e9)
            totals = {}
            for (cid, pid), amount in result.contributions.items():
                totals[pid] = totals.get(pid, 0.0) + amount
            for v in vals:
                c = result.contributions[(v.contributor_id, v.project_id)]
                if c > 1e-6:
                    assert v.marginal(totals[v.project_id]) == pytest.approx(1.0, abs=1e-4)

    def test_foc_residuals_at_convergence(self):
        rng = random.Random(7)
        for _ in range(15):
            family = rng.choice(["sqrt", "log"])
            vals = random_instance(
                rng, n_contributors=rng.randint(2, 5), n_projects=rng.randint(1, 4), family=family
            )
            k = rng.uniform(1.0, 50.0)
            result = best_response(vals, k)
            assert result.converged
            assert max_foc_residual(vals, result.contributions, k) < 1e-6

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("c0", "c1", "c2", "c3")),
                st.sampled_from(("p0", "p1", "p2")),
                st.sampled_from(("sqrt", "log")),
                st.floats(min_value=0.5, max_value=60.0),
            ),
            min_size=1,
            max_size=10,
            unique_by=lambda row: row[:2],
        ),
        st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_converged_runs_satisfy_first_order_conditions(self, rows, k):
        vals = [Valuation(cid, pid, family, scale) for cid, pid, family, scale in rows]
        result = best_response(vals, k)
        assume(result.converged)
        assert max_foc_residual(vals, result.contributions, k) <= 1e-6

    def test_budget_clamping_marks_entries(self):
        vals = [sqrt_val("a", "p1", 4.0), sqrt_val("a", "p2", 4.0)]
        unconstrained = best_response(vals, 1.0)
        desired = sum(unconstrained.contributions.values())
        result = best_response(vals, 1.0, budgets={"a": desired / 2.0})
        spent = sum(result.contributions.values())
        assert spent == pytest.approx(desired / 2.0, rel=1e-9)
        assert result.clamped == frozenset({("a", "p1"), ("a", "p2")})

    def test_non_convergence_is_flagged(self):
        vals = random_instance(random.Random(9))
        result = best_response(vals, 2.0, max_iter=1)
        assert not result.converged

    def test_large_amounts_converge(self):
        # Amounts near 70: an absolute step test of 1e-11 is below what the
        # 1e-12-relative bisection resolves, so it would never be met.
        vals = [sqrt_val("a", "p", 20.0), sqrt_val("b", "p", 20.0)]
        result = best_response(vals, 2.5, max_iter=1000)
        assert result.converged
        assert result.iterations < 100
        assert result.contributions[("a", "p")] > 10.0
        assert max_foc_residual(vals, result.contributions, 2.5) <= 1e-9

    def test_contributions_nonincreasing_in_k_with_symmetric_peers(self):
        # Monotone comparative static per contributor; holds when peers on a
        # project are symmetric (see the free-rider exception test below).
        rng = random.Random(10)
        for _ in range(5):
            scales = {f"p{j}": rng.uniform(0.5, 3.0) for j in range(2)}
            vals = [
                Valuation(f"c{i}", pid, "sqrt", scale)
                for i in range(3)
                for pid, scale in scales.items()
            ]
            grid = [1.0 + 99.0 * i / 9 for i in range(10)]
            previous = None
            warm = None
            for k in grid:
                result = best_response(vals, k, initial=warm)
                warm = result.contributions
                if previous is not None:
                    for key, amount in result.contributions.items():
                        assert amount <= previous[key] + 1e-8 * (1.0 + previous[key])
                previous = result.contributions

    def test_project_totals_decline_from_scarce_matching(self):
        # Net effect across the k range: every multi-contributor project ends
        # with strictly less private money at k=100 than at k=1.  (Pathwise
        # monotonicity needs symmetric peers; see the free-rider test.)
        rng = random.Random(20)
        for _ in range(5):
            vals = random_instance(rng)
            totals = {}
            for k in (1.0, 100.0):
                result = best_response(vals, k)
                per_project = {pid: 0.0 for pid in result.funds}
                for (cid, pid), amount in result.contributions.items():
                    per_project[pid] += amount
                totals[k] = per_project
            for pid in totals[1.0]:
                assert totals[100.0][pid] < totals[1.0][pid] - 1e-6

    def test_free_rider_pickup_breaks_per_contributor_monotonicity(self):
        # Characterization: with unequal peers the strong contributor's level
        # dips below its k=1 value and then climbs back toward the private
        # optimum v^2/4 as the weak peer drops out, so per-contributor
        # monotonicity in k cannot hold unrestricted.
        vals = [sqrt_val("hi", "p", 3.0), sqrt_val("lo", "p", 0.5)]
        levels = []
        for k in (1.0, 1.5, 1000.0):
            result = best_response(vals, k)
            assert max_foc_residual(vals, result.contributions, k) < 1e-9
            levels.append(result.contributions[("hi", "p")])
        assert levels[0] == pytest.approx(2.25, rel=1e-9)
        assert levels[1] < levels[0] - 1e-3
        assert levels[2] > levels[1] + 1e-3

    def test_corner_contribution_is_exactly_zero_and_satisfies_kkt(self):
        # A weak log valuation on an otherwise unfunded project stays out:
        # c = 0 exactly, and the marginal value of the first unit (times a
        # bracket of 1 when nobody else is in) is below the unit cost.
        vals = [
            log_val("a", "lonely", 0.6),
            sqrt_val("a", "busy", 2.0),
            sqrt_val("b", "busy", 1.0),
        ]
        result = best_response(vals, 2.0)
        assert result.converged
        assert result.contributions[("a", "lonely")] == 0.0
        assert result.funds["lonely"] == 0.0
        assert vals[0].marginal(0.0) * 1.0 <= 1.0
        assert result.contributions[("a", "busy")] > 0.0

    def test_duplicate_valuation_rejected(self):
        with pytest.raises(DomainError):
            best_response([sqrt_val("a", "p", 1.0), sqrt_val("a", "p", 2.0)], 1.0)

    def test_no_valuations_rejected(self):
        with pytest.raises(DomainError):
            best_response([], 1.0)


class TestPlanner:
    def test_symmetric_two_projects_split_evenly(self):
        vals = [sqrt_val("a", "p1", 2.0), sqrt_val("a", "p2", 2.0)]
        result = planner_optimum(vals, 10.0)
        assert result.funds["p1"] == pytest.approx(5.0, abs=1e-8)
        assert result.funds["p2"] == pytest.approx(5.0, abs=1e-8)

    def test_single_project_closed_form_multiplier(self):
        result = planner_optimum([sqrt_val("a", "p", 2.0)], 25.0)
        assert result.common_marginal == pytest.approx(0.2, rel=1e-6)
        assert result.funds["p"] == pytest.approx(25.0, rel=1e-12)

    def test_marginals_equalized_across_funded_projects(self):
        rng = random.Random(11)
        for _ in range(10):
            vals = random_instance(rng, n_contributors=3, n_projects=3)
            result = planner_optimum(vals, rng.uniform(1.0, 50.0))
            grouped = {}
            for v in vals:
                grouped.setdefault(v.project_id, []).append(v)
            for project, members in grouped.items():
                if result.funds[project] > 1e-9:
                    total = sum(v.marginal(result.funds[project]) for v in members)
                    assert total == pytest.approx(result.common_marginal, abs=1e-6)

    def test_log_family_corner_projects(self):
        vals = [log_val("a", "p1", 10.0), log_val("a", "p2", 1.1)]
        result = planner_optimum(vals, 0.5)
        # Scarce pool: the weak project gets nothing before marginals equalize.
        assert result.funds["p2"] == 0.0
        assert result.funds["p1"] == pytest.approx(0.5, rel=1e-9)

    def test_perturbations_never_raise_welfare(self):
        rng = random.Random(12)
        for _ in range(20):
            vals = random_instance(rng, n_contributors=2, n_projects=3)
            pool = rng.uniform(2.0, 30.0)
            result = planner_optimum(vals, pool)
            base = welfare(vals, result.funds, {})
            epsilon = 1e-3 * pool
            projects = sorted(result.funds)
            for source in projects:
                for sink in projects:
                    if source == sink or result.funds[source] < epsilon:
                        continue
                    shifted = dict(result.funds)
                    shifted[source] -= epsilon
                    shifted[sink] += epsilon
                    assert welfare(vals, shifted, {}) <= base + 1e-9

    def test_planner_beats_equilibrium_at_matched_spend(self):
        rng = random.Random(13)
        for _ in range(10):
            vals = random_instance(rng, n_contributors=3, n_projects=3)
            equilibrium = best_response(vals, 2.0)
            spend = sum(equilibrium.funds.values())
            planned = planner_optimum(vals, spend)
            gross_eq = welfare(vals, equilibrium.funds, {})
            gross_plan = welfare(vals, planned.funds, {})
            assert gross_plan >= gross_eq - 1e-9
            assert gross_plan > gross_eq + 1e-6  # strict once k > 1

    def test_gap_shrinks_as_k_approaches_one(self):
        vals = random_instance(random.Random(14), n_contributors=3, n_projects=3)
        gaps = []
        for k in (5.0, 3.0, 2.0, 1.3, 1.0):
            equilibrium = best_response(vals, k)
            spend = sum(equilibrium.funds.values())
            planned = planner_optimum(vals, spend)
            gaps.append(welfare(vals, planned.funds, {}) - welfare(vals, equilibrium.funds, {}))
        assert all(later <= earlier + 1e-9 for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(0.0, abs=1e-6)

    def test_bad_pool_rejected(self):
        with pytest.raises(DomainError):
            planner_optimum([sqrt_val("a", "p", 1.0)], 0.0)


class TestWelfare:
    def test_zero_funds_zero_welfare(self):
        vals = [sqrt_val("a", "p", 2.0), log_val("b", "p", 1.0)]
        assert welfare(vals, {"p": 0.0}, {}) == 0.0

    def test_simple_arithmetic(self):
        assert welfare([sqrt_val("a", "p", 2.0)], {"p": 4.0}, {("a", "p"): 1.0}) == pytest.approx(3.0)

    def test_missing_fund_entry(self):
        with pytest.raises(DomainError):
            welfare([sqrt_val("a", "p", 2.0)], {}, {})


class TestEndogenousK:
    def test_outer_loop_settles(self):
        vals = [sqrt_val(f"c{i}", "p", 2.0) for i in range(3)]
        result, k = best_response_endogenous_k(vals, pool=0.5)
        assert result.converged
        requirement = 0.0
        amounts = [result.contributions[(f"c{i}", "p")] for i in range(3)]
        s = sum(math.sqrt(a) for a in amounts)
        requirement = s * s - sum(amounts)
        assert k == pytest.approx(max(requirement / 0.5, 1e-9), abs=1e-4)


class TestValuationsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "valuations.csv"
        path.write_text(
            "contributor_id,project_id,family,scale\n"
            "a,p1,sqrt,2.0\n"
            "b,p1,log,1.5\n",
            encoding="utf-8",
        )
        vals = load_valuations(path)
        assert vals == [sqrt_val("a", "p1", 2.0), log_val("b", "p1", 1.5)]

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "valuations.csv"
        path.write_text("contributor_id,scale\na,1.0\n", encoding="utf-8")
        with pytest.raises(LedgerFormatError):
            load_valuations(path)
