"""Tests for the best-response solver, planner benchmark, and welfare accounting."""

import math
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import planner_oracle
import solver_reference

from qfround import equilibrium
from qfround.equilibrium import (
    FAMILIES,
    Valuation,
    _invert_marginal,
    best_response,
    foc_lhs,
    load_valuations,
    max_foc_residual,
    planner_optimum,
    solve_best_contribution,
    welfare,
)
from qfround.errors import DomainError, LedgerFormatError
from qfround.ledger import load_budgets

GOLDEN_GAME = Path(__file__).resolve().parent / "golden" / "equilibrium"


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

    def test_corner_below_the_smallest_float(self):
        # f < 1 at every positive float: the bracket shrinks to (0, 5e-324),
        # whose midpoint is 0, so the corner is returned without evaluating there
        valuation = log_val("a", "p", 0.001)
        assert solve_best_contribution(valuation, 637.0, math.sqrt(1e-312), 1e-312) == 0.0
        assert foc_lhs(valuation, 637.0, math.sqrt(1e-312), 1e-312, 5e-324) < 1.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_corner_when_the_funding_overflows(self, family):
        # (2e154 + sqrt(c))**2 is inf for every c, so V'(F) and the left side are 0
        assert solve_best_contribution(Valuation("a", "p", family, 2.0), 1.0, 2e154, 1e308) == 0.0

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

    def test_roots_far_from_the_start(self):
        # Each root lies hundreds of clipped Newton steps in ln c from a start of 1.
        cases = ((log_val("a", "p", 1e-100), 2.5e-201), (sqrt_val("a", "p", 1e140), 2.5e279))
        for v, expected in cases:
            assert solve_best_contribution(v, 1.0, 1.0, 0.5) == pytest.approx(expected, rel=1e-12)


def bisection_root(valuation, k, s_others, c_others):
    """Reference root of the first-order condition: the solver's former bisection.

    Brackets from 1 upward by doubling, then halves until the bracket is
    below 1e-12 relative to its upper end.  Requires ``s_others > 0``.
    """

    def lhs(c):
        root = math.sqrt(c)
        s = s_others + root
        funding = (s * s) / k + (1.0 - 1.0 / k) * (c_others + c)
        return valuation.marginal(funding) * (1.0 + s_others / (k * root))

    hi = 1.0
    for _ in range(200):
        if lhs(hi) < 1.0:
            break
        hi *= 2.0
    else:
        raise AssertionError("failed to bracket the reference root")
    lo = 0.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if lhs(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def root_tolerance(valuation, k, s_others, c_others, c):
    """Relative distance within which two computed roots near ``c`` must agree.

    1e-11, unless f is so flat in c that rounding decides the root: a
    relative error e in f moves the root by e / |d ln f / d ln c|, taken
    here with e at 32 ulps and the slope by a central difference.
    """
    up = foc_lhs(valuation, k, s_others, c_others, c * math.exp(1e-4))
    down = foc_lhs(valuation, k, s_others, c_others, c * math.exp(-1e-4))
    slope = abs(math.log(up) - math.log(down)) / 2e-4
    return max(1e-11, 32.0 * sys.float_info.epsilon / slope)


def _power_of_ten(low, high):
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0**e)


#: (family, scale, k, s_others, c_others, start).  c_others is a fraction of
#: s_others**2, as for any set of other contributors (one of them: all of it).
SOLVER_CASES = st.tuples(
    st.sampled_from(("sqrt", "log")),
    _power_of_ten(-3.0, 3.0),
    _power_of_ten(-2.0, 9.0),
    _power_of_ten(-4.0, 4.0),
    _power_of_ten(-3.0, 0.0),
    _power_of_ten(-8.0, 8.0),
).map(lambda t: (t[0], t[1], t[2], t[3], t[4] * t[3] * t[3], t[5]))
#: Criterion 07's k = 1e9 case, where ln f is flat around the root.
FLAT_CASE = ("sqrt", 1.8392543599952407, 1e9, 0.9197895559153109, 0.8460128255234554, 1.0)
#: A log root near 4e-5 reached from a start near 2.4e4.
FAR_START_CASE = (
    "log", 0.030443025201585705, 0.6262526892119802, 7.015834957454978, 43.53926657795505, 2.4e4
)


class TestSolverAgainstBisection:
    @given(SOLVER_CASES)
    @example(FLAT_CASE)
    @example(FAR_START_CASE)
    @settings(max_examples=300, deadline=None)
    def test_root_matches_bisection(self, case):
        family, scale, k, s_others, c_others, start = case
        valuation = Valuation("a", "p", family, scale)
        expected = bisection_root(valuation, k, s_others, c_others)
        got = solve_best_contribution(valuation, k, s_others, c_others, start)
        tolerance = root_tolerance(valuation, k, s_others, c_others, expected)
        assert abs(got - expected) <= tolerance * expected
        assert foc_lhs(valuation, k, s_others, c_others, got) == pytest.approx(1.0, abs=1e-8)

    @given(SOLVER_CASES)
    @example(FLAT_CASE)
    @example(FAR_START_CASE)
    @settings(max_examples=300, deadline=None)
    def test_one_evaluation_decides_a_top_up(self, case):
        # The left side falls in c, so its value at the current amount tells
        # whether the best response lies above it.
        family, scale, k, s_others, c_others, own = case
        valuation = Valuation("a", "p", family, scale)
        expected = bisection_root(valuation, k, s_others, c_others)
        tolerance = root_tolerance(valuation, k, s_others, c_others, expected)
        if foc_lhs(valuation, k, s_others, c_others, own) <= 1.0:
            assert expected <= own * (1.0 + tolerance)
        else:
            assert expected >= own * (1.0 - tolerance)


def _outcome(fn, *args):
    """``fn(*args)`` as the hex of its float, or the type and text of what it raises."""
    try:
        return fn(*args).hex()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _reaching(values, low, high):
    """One of ``values``, or a power of ten with exponent in [low, high]."""
    return st.one_of(st.sampled_from(values), _power_of_ten(low, high))


#: (family, scale, k, s_others, c_others, start).  k spans [2**-20, 1e9] and
#: the extremes where k * sqrt(c) rounds to 0 (1e-300, 5e-324) or the bracket
#: rounds to 1 (1e300); s_others = 0 is the lone closed form.  c_others is a
#: fraction of s_others**2 or, to reach negative funding at k < 1, any amount.
REFERENCE_CASES = st.tuples(
    st.sampled_from(FAMILIES),
    _reaching((1e-300, 1e300), -3.0, 3.0),
    st.one_of(
        st.floats(min_value=-20.0, max_value=math.log2(1e9)).map(lambda e: 2.0**e),
        st.sampled_from((1e-300, 5e-324, 1e300)),
    ),
    _reaching((0.0,), -4.0, 4.0),
    st.one_of(st.floats(min_value=0.0, max_value=1.0), _power_of_ten(-4.0, 8.0).map(lambda c: -c)),
    _reaching((0.0, 5e-324, 1e300), -8.0, 8.0),
).map(lambda t: (*t[:4], t[4] * t[3] * t[3] if t[4] >= 0.0 else -t[4], t[5]))


class TestSolverAgainstReference:
    """The inline kernels evaluate the reference's floating-point operations in
    its order, so they return the same bits or raise the same error."""

    @given(REFERENCE_CASES)
    @example(("sqrt", 1.0, 1e300, 1.0, 1.0, 1.0))
    @example(("log", 1e300, 1e-300, 1.0, 0.5, 5e-324))
    @example(("sqrt", 1e-300, 5e-324, 1e4, 1e8, 1e300))
    @example(("log", 2.0, 0.5, 1.0, 1e8, 1.0))
    @example(("log", 3.0, 2.5, 0.0, 0.0, 0.0))
    @example(("sqrt", 1.0, 1e-300, 5e3, 0.0, 1e-12))  # an infinite bracket: NaN slope, step +2
    @example(FLAT_CASE)
    @example(FAR_START_CASE)
    @settings(max_examples=300, deadline=None)
    def test_same_bits(self, case):
        family, scale, k, s_others, c_others, start = case
        valuation = Valuation("a", "p", family, scale)
        args = (valuation, k, s_others, c_others, start)
        assert _outcome(solve_best_contribution, *args) == _outcome(
            solver_reference.solve_best_contribution, *args
        )
        assert _outcome(foc_lhs, *args) == _outcome(solver_reference.foc_lhs, *args)

    @given(_reaching((0.0, 1e-300, 1e300), -4.0, 4.0), _reaching((0.0, 1e-300, 1e300), -4.0, 4.0),
           _power_of_ten(-4.0, 4.0))
    @example(2.0, 3.0, 1.0)
    @settings(max_examples=200, deadline=None)
    def test_planner_inversion_same_bits(self, a, b, lam):
        assert _outcome(_invert_marginal, a, b, lam) == _outcome(solver_reference._invert_marginal, a, b, lam)


class TestEvaluationPath:
    """``best_response`` on the golden game evaluates one ``Valuation.marginal``
    per first-order-condition evaluation; these are the counts that path makes."""

    @pytest.mark.parametrize("with_budgets, evaluations, iterations", [(False, 280, 15), (True, 467, 22)])
    def test_marginal_calls(self, monkeypatch, with_budgets, evaluations, iterations):
        calls = []
        marginal = Valuation.marginal

        def counted(self, funding):
            calls.append(funding)
            return marginal(self, funding)

        monkeypatch.setattr(Valuation, "marginal", counted)
        valuations = load_valuations(GOLDEN_GAME / "valuations.csv")
        budgets = load_budgets(GOLDEN_GAME / "budgets.csv") if with_budgets else None
        result = best_response(valuations, 2.5, budgets)
        assert result.converged
        assert (len(calls), result.iterations) == (evaluations, iterations)


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
        st.none() | st.dictionaries(
            st.sampled_from(("c0", "c1", "c2", "c3")), st.floats(min_value=0.01, max_value=20.0), max_size=4
        ),
    )
    @example([("c0", "p0", "sqrt", 4.0), ("c0", "p1", "log", 3.0), ("c1", "p0", "sqrt", 2.0)], 2.0, {"c0": 0.5})
    @settings(max_examples=60, deadline=None)
    def test_converged_runs_satisfy_first_order_conditions(self, rows, k, budgets):
        """Without budgets every positive entry meets its first-order condition;
        with budgets, every entry that no budget clamped does."""
        vals = [Valuation(cid, pid, family, scale) for cid, pid, family, scale in rows]
        result = best_response(vals, k, budgets)
        assume(result.converged)
        if budgets is None:
            assert max_foc_residual(vals, result.contributions, k) <= 1e-6
        for v in vals:
            key = (v.contributor_id, v.project_id)
            c = result.contributions[key]
            if key in result.clamped or c <= 0.0:
                continue
            others = [
                result.contributions[(u.contributor_id, u.project_id)]
                for u in vals
                if u.project_id == v.project_id and u is not v
            ]
            lhs = foc_lhs(v, k, math.fsum(map(math.sqrt, others)), math.fsum(others), c)
            assert abs(lhs - 1.0) <= 1e-6, key

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

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_fewer_than_one_sweep_rejected(self, max_iter):
        with pytest.raises(DomainError, match=f"max_iter must be at least 1, got {max_iter}"):
            best_response([sqrt_val("a", "p", 1.0)], 1.0, max_iter=max_iter)

    def test_welfare_past_the_largest_float_is_a_domain_error(self):
        # Every value is finite, but their sum passes the largest float.
        vals = [sqrt_val("a", "p", 1e154), sqrt_val("b", "p", 1e154)]
        with pytest.raises(DomainError, match="funds or welfare pass the largest float"):
            best_response(vals, 1.0)

    def test_entry_far_below_its_start_converges(self):
        """Beside a sqrt contributor at scale 1e150 the log contributor's best
        response is many orders below its first target, its lone amount; the
        sweeps must land on it, not close the gap by a fraction each time."""
        vals = [log_val("a", "p", 1e150), sqrt_val("b", "p", 1e150)]
        result = best_response(vals, 1.0, max_iter=50)
        assert result.converged
        assert max_foc_residual(vals, result.contributions, 1.0) <= 1e-9

    def test_sums_handed_to_the_solver_are_never_negative(self, monkeypatch):
        """The two log contributors drop from their lone best responses beside
        the sqrt one's 1e24, leaving the moved plain sum about -1.3e8 below the
        sqrt entry; the solver must see 0, not a negative amount of others."""
        others = []
        solve = equilibrium.solve_best_contribution

        def recorded(valuation, k, s_others, c_others, start):
            others.append((s_others, c_others))
            return solve(valuation, k, s_others, c_others, start)

        monkeypatch.setattr(equilibrium, "solve_best_contribution", recorded)
        vals = [log_val("a", "p", 1e9), log_val("b", "p", 1e10), sqrt_val("c", "p", 2e12)]
        result = best_response(vals, 10.0)
        assert result.converged
        assert min(min(pair) for pair in others) >= 0.0
        assert max_foc_residual(vals, result.contributions, 10.0) <= 1e-9

    def test_funds_past_the_largest_float_are_found_in_few_solves(self, monkeypatch):
        """At k = 1e-300 the golden game's funds pass the largest float; the
        sweeps settle within a few dozen sweeps of 7 solves and then raise,
        rather than running all 10,000 default sweeps first."""
        calls = []
        solve = equilibrium.solve_best_contribution

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(equilibrium, "solve_best_contribution", counted)
        with pytest.raises(DomainError, match="funds or welfare pass the largest float"):
            best_response(load_valuations(GOLDEN_GAME / "valuations.csv"), 1e-300)
        assert 0 < len(calls) < 1000


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


#: Planner problems: per project, one to four (family, scale) valuations.
PLANNER_PROJECTS = st.lists(
    st.lists(st.tuples(st.sampled_from(FAMILIES), _power_of_ten(-4.0, 4.0)), min_size=1, max_size=4),
    min_size=1,
    max_size=5,
)


class TestPlannerAgainstOracle:
    """The planner aggregates each project's scales before inverting its
    marginal; the oracle re-sums every valuation's marginal at each step."""

    @given(PLANNER_PROJECTS, _power_of_ten(-4.0, 6.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle(self, projects, pool):
        assume(any(len({family for family, _ in vals}) == 2 for vals in projects))
        vals = [
            Valuation(f"c{i}", f"p{j}", family, scale)
            for j, members in enumerate(projects)
            for i, (family, scale) in enumerate(members)
        ]
        got = planner_optimum(vals, pool)
        expected = planner_oracle.planner_optimum(vals, pool)
        assert list(got.funds) == list(expected.funds)
        for project, fund in expected.funds.items():
            assert abs(got.funds[project] - fund) <= 1e-12 * pool
        assert got.common_marginal == pytest.approx(expected.common_marginal, rel=1e-12, abs=0)
        assert got.welfare == pytest.approx(expected.welfare, rel=1e-12, abs=0)


class TestClampAgainstOracle:
    def test_binding_budgets_match_the_scan(self):
        rng = random.Random(15)
        for trial in range(12):
            vals = [
                Valuation(f"c{i}", f"p{j}", rng.choice(FAMILIES), rng.uniform(0.5, 30.0))
                for i in range(rng.randint(2, 5))
                for j in range(rng.randint(1, 4))
            ]
            contributors = sorted({v.contributor_id for v in vals})
            budgets = {cid: rng.uniform(0.05, 5.0) for cid in contributors if rng.random() < 0.7}
            max_iter = 3 if trial % 4 == 0 else 500
            got = best_response(vals, 2.5, budgets, max_iter=max_iter)
            expected = planner_oracle.best_response(vals, 2.5, budgets, max_iter=max_iter)
            assert list(got.contributions.items()) == list(expected.contributions.items())
            assert got.clamped == expected.clamped
            assert list(got.funds.items()) == list(expected.funds.items())
            assert got.aggregate_marginal == expected.aggregate_marginal
            assert (got.welfare, got.iterations, got.converged) == (
                expected.welfare, expected.iterations, expected.converged
            )
            if max_iter > 3:
                assert got.clamped  # the budgets bind


#: Games of up to four contributors over three projects, as (contributor, project, family, scale) rows.
GAMES = st.lists(
    st.tuples(
        st.sampled_from(("c0", "c1", "c2", "c3")),
        st.sampled_from(("p0", "p1", "p2")),
        st.sampled_from(FAMILIES),
        _power_of_ten(-2.0, 3.0),
    ),
    min_size=1,
    max_size=10,
    unique_by=lambda row: row[:2],
)


def _bits(result):
    """Every field of a best-response result, floats as their hex, in a fixed order."""
    def hexed(mapping):
        return sorted((key, value.hex()) for key, value in mapping.items())

    return (result.converged, result.iterations, result.welfare.hex(), hexed(result.funds),
            hexed(result.aggregate_marginal), hexed(result.contributions), sorted(result.clamped))


class TestSweepOrder:
    @given(
        GAMES,
        st.floats(min_value=0.5, max_value=50.0),
        st.none() | st.dictionaries(st.sampled_from(("c0", "c1", "c2", "c3")), _power_of_ten(-2.0, 2.0)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_and_budget_order_leave_the_result_bits(self, rows, k, budgets, rng):
        """Each project's contributors are solved in sorted order, whatever
        order the valuation rows and the budgets come in."""
        vals = [Valuation(*row) for row in rows]
        shuffled = vals[:]
        rng.shuffle(shuffled)
        reordered = None
        if budgets is not None:
            items = list(budgets.items())
            rng.shuffle(items)
            reordered = dict(items)
        outcomes = []
        for game, caps in ((vals, budgets), (shuffled, reordered)):
            try:
                outcomes.append(_bits(best_response(game, k, caps)))
            except DomainError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestWelfare:
    @given(
        GAMES,
        st.floats(min_value=0.5, max_value=50.0),
        st.none() | st.dictionaries(st.sampled_from(("c0", "c1", "c2", "c3")), _power_of_ten(-2.0, 2.0)),
        _power_of_ten(-2.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_results_report_the_welfare_of_their_funds(self, rows, k, budgets, pool):
        """Best response and planner take their welfare from ``welfare``, bit for bit."""
        vals = [Valuation(*row) for row in rows]
        result = best_response(vals, k, budgets, max_iter=50)
        assert welfare(vals, result.funds, result.contributions) == result.welfare
        planned = planner_optimum(vals, pool)
        assert welfare(vals, planned.funds, {}) - pool == planned.welfare

    def test_a_sum_past_the_largest_float_reads_inf(self):
        vals = [sqrt_val("a", "p", 1e300), sqrt_val("b", "p", 1e300)]
        assert welfare(vals, {"p": 1e16}, {}) == math.inf
        assert welfare(vals, {"p": 1.0}, {("a", "p"): 1e308, ("b", "p"): 1e308}) == -math.inf

    def test_zero_funds_zero_welfare(self):
        vals = [sqrt_val("a", "p", 2.0), log_val("b", "p", 1.0)]
        assert welfare(vals, {"p": 0.0}, {}) == 0.0

    def test_simple_arithmetic(self):
        assert welfare([sqrt_val("a", "p", 2.0)], {"p": 4.0}, {("a", "p"): 1.0}) == pytest.approx(3.0)

    def test_missing_fund_entry(self):
        with pytest.raises(DomainError):
            welfare([sqrt_val("a", "p", 2.0)], {}, {})


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

    @pytest.mark.parametrize("row", [",p1,sqrt,2.0", "a, ,sqrt,2.0", "a"])
    def test_missing_ids(self, tmp_path, row):
        path = tmp_path / "valuations.csv"
        path.write_text(f"contributor_id,project_id,family,scale\nb,p1,log,1.5\n{row}\n", encoding="utf-8")
        with pytest.raises(LedgerFormatError, match=re.escape(f"{path}:3: missing contributor or project id")):
            load_valuations(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "valuations.csv"
        path.write_text("contributor_id,scale\na,1.0\n", encoding="utf-8")
        with pytest.raises(LedgerFormatError):
            load_valuations(path)
