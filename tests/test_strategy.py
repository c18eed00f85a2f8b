"""Tests for the collusion game, thresholds, and the repeated-round simulator."""

import math
import random

import pytest

from qfround.errors import DomainError
from qfround.strategy import (
    TRIGGER_RATE_BOUND,
    alpha_double_star,
    alpha_star,
    collusion_thresholds,
    payoff_matrix,
    pure_nash_equilibria,
    repeated_game_simulate,
    ring_payoff,
    threshold_sweep,
    trigger_sustainable,
)

SQRT2 = math.sqrt(2.0)


def quadratic_root_oracle(n, k):
    """Independent oracle: bisect the break-even quadratic (n/k)a^2+(1-1/k)a-1."""

    def g(a):
        return (n / k) * a * a + (1.0 - 1.0 / k) * a - 1.0

    lo, hi = 0.0, 1.0
    while g(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPayoffMatrix:
    def test_entries_for_budget_two(self):
        matrix = payoff_matrix(2.0)
        assert matrix.invest_invest == (2.0, 2.0)
        assert matrix.invest_not[0] == pytest.approx(-1.0, abs=1e-12)
        assert matrix.invest_not[1] == pytest.approx(1.0 + 2.0 * SQRT2, abs=1e-12)
        assert matrix.not_not == (0.0, 0.0)

    def test_symmetry(self):
        matrix = payoff_matrix(3.5)
        assert matrix.not_invest == (matrix.invest_not[1], matrix.invest_not[0])

    @pytest.mark.parametrize("c", [0.1, 1.0, 2.0, 17.0])
    def test_defection_dominates(self, c):
        matrix = payoff_matrix(c)
        # against an investor
        assert matrix.not_invest[0] > matrix.invest_invest[0]
        # against a non-investor
        assert matrix.not_not[0] > matrix.invest_not[0]

    def test_unique_one_shot_nash_is_mutual_defection(self):
        for c in (0.5, 1.0, 9.0):
            assert pure_nash_equilibria(payoff_matrix(c)) == {(False, False)}

    def test_bad_budget(self):
        with pytest.raises(DomainError):
            payoff_matrix(0.0)


class TestTrigger:
    def test_patient_players_cooperate(self):
        assert trigger_sustainable(0.1)

    def test_boundary(self):
        assert trigger_sustainable(1.0938)
        assert not trigger_sustainable(1.10)
        assert trigger_sustainable(TRIGGER_RATE_BOUND)
        assert not trigger_sustainable(TRIGGER_RATE_BOUND + 1e-12)

    def test_bound_value(self):
        assert TRIGGER_RATE_BOUND == pytest.approx(2.0 / (2.0 * SQRT2 - 1.0), rel=1e-15)
        assert TRIGGER_RATE_BOUND == pytest.approx(1.0938, abs=1e-4)

    def test_bad_rate(self):
        with pytest.raises(DomainError):
            trigger_sustainable(0.0)


class TestAlphaStar:
    def test_twenty_five_ring(self):
        assert alpha_star(25) == 0.2

    def test_four_ring(self):
        assert alpha_star(4) == 0.5

    def test_profitability_changes_sign_at_threshold(self):
        # Oracle: net return (a*n*sqrt(c/n))^2 - c around a = 1/sqrt(n), c=1.
        for n in (4, 9, 25, 100):
            threshold = alpha_star(n)
            for sign, a in ((-1, threshold * 0.999), (+1, threshold * 1.001)):
                net = (a * n * math.sqrt(1.0 / n)) ** 2 - 1.0
                assert math.copysign(1.0, net) == sign

    def test_small_ring_rejected(self):
        with pytest.raises(DomainError):
            alpha_star(1)

    def test_ring_past_the_float_range_rejected(self):
        assert alpha_star(10**308) == pytest.approx(1e-154, rel=1e-12)
        with pytest.raises(DomainError, match="ring size n = 1000"):
            alpha_star(10**400)


class TestAlphaDoubleStar:
    def test_reduces_to_alpha_star_at_unit_k(self):
        assert alpha_double_star(25, 1.0) == pytest.approx(0.2, abs=1e-12)
        for n in range(2, 1001):
            assert abs(alpha_double_star(n, 1.0) - 1.0 / math.sqrt(n)) < 1e-12

    def test_twenty_five_at_k_twenty(self):
        value = alpha_double_star(25, 20.0)
        assert value == pytest.approx(0.5918, abs=5e-4)
        assert round(value * 10.0) == 6  # i.e. sixty percent to the nearest ten

    def test_matches_quadratic_root_oracle(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(2, 400)
            k = rng.uniform(1.0, 60.0)
            assert alpha_double_star(n, k) == pytest.approx(quadratic_root_oracle(n, k), abs=1e-9)

    def test_monotone_in_k_and_n(self):
        grid = [1.0 + i for i in range(30)]
        for n in (10, 25):
            values = [alpha_double_star(n, k) for k in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        for k in (1.0, 5.0, 20.0):
            values = [alpha_double_star(n, k) for n in range(2, 200)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_approaches_one_for_scarce_pools(self):
        assert alpha_double_star(25, 1e12) == pytest.approx(1.0, abs=1e-6)

    def test_k_below_one_rejected(self):
        with pytest.raises(DomainError):
            alpha_double_star(25, 0.5)

    def test_4n_over_k_past_the_float_range_rejected(self):
        # At k = 2, 4n/k passes the largest float; k = 1e10 brings it back in range.
        with pytest.raises(DomainError, match=r"ring size n = 1000\d* at k = 2\.0: 4n/k passes the largest float"):
            alpha_double_star(10**308, 2.0)
        with pytest.raises(DomainError, match="passes the largest float"):
            alpha_double_star(10**400, 1e300)
        assert alpha_double_star(10**308, 1e10) == pytest.approx(math.sqrt(1e10 / 1e308), rel=1e-9)

    def test_sweep_table(self):
        rows = threshold_sweep([10, 25], [1.0, 10.0, 20.0])
        assert len(rows) == 6
        assert rows[0] == collusion_thresholds(10, 1.0)
        for row in rows:
            assert row.alpha_double_star >= row.alpha_star - 1e-12


class TestRingPayoff:
    def test_zero_at_break_even_fraction(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(2, 300)
            k = rng.uniform(1.0, 50.0)
            c = rng.uniform(0.1, 1000.0)
            threshold = alpha_double_star(n, k)
            assert abs(ring_payoff(n, threshold, k, c)) <= 1e-9 * c

    def test_full_cooperation_unconstrained(self):
        assert ring_payoff(4, 1.0, 1.0, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_lone_cooperator_loses_almost_everything(self):
        n = 50
        assert ring_payoff(n, 1.0 / n, 2.0, 1.0) == pytest.approx(-(1.0 - 1.0 / n), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ring_payoff(4, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            ring_payoff(4, 1.2, 1.0, 1.0)


class TestRepeatedGame:
    def test_cooperate_forever_present_value(self):
        result = repeated_game_simulate(2, 1.0, discount_rate=0.5, c=1.0, horizon=80)
        # geometric sum: c + c/r
        assert result.present_values[0] == pytest.approx(3.0, abs=1e-6)
        assert result.present_values[1] == pytest.approx(3.0, abs=1e-6)
        assert all(all(mask) for mask in result.cooperation)

    def test_stage_payoffs_match_matrix(self):
        c = 2.0
        matrix = payoff_matrix(c)
        both = repeated_game_simulate(2, 1.0, discount_rate=1.0, c=c, horizon=1)
        assert both.payoffs[0] == matrix.invest_invest
        lone = repeated_game_simulate(
            2, 1.0, discount_rate=1.0, c=c, horizon=1, deviation_policy="defect"
        )
        assert lone.payoffs[0][0] == pytest.approx(matrix.not_invest[0], rel=1e-12)
        assert lone.payoffs[0][1] == pytest.approx(matrix.not_invest[1], rel=1e-12)

    def test_deviation_pays_once_then_nothing(self):
        c = 1.0
        result = repeated_game_simulate(
            2, 1.0, discount_rate=0.5, c=c, horizon=40, deviation_policy="defect"
        )
        assert result.present_values[0] == pytest.approx(c * (1 + 2 * SQRT2) / 2, rel=1e-12)
        assert result.payoffs[1][0] == 0.0
        assert not any(any(mask) for mask in result.cooperation[1:])

    def test_threshold_consistency(self):
        c = 1.0
        for rate in (0.8, TRIGGER_RATE_BOUND - 1e-6, TRIGGER_RATE_BOUND + 1e-3, 1.5):
            cooperate = repeated_game_simulate(2, 1.0, discount_rate=rate, c=c, horizon=400)
            deviate = repeated_game_simulate(
                2, 1.0, discount_rate=rate, c=c, horizon=400, deviation_policy="defect"
            )
            gains = deviate.present_values[0] > cooperate.present_values[0]
            assert gains == (not trigger_sustainable(rate))

    def test_larger_ring_with_pool_constraint(self):
        result = repeated_game_simulate(5, 3.0, discount_rate=0.3, c=2.0, horizon=3)
        expected = ring_payoff(5, 1.0, 3.0, 2.0)
        assert result.payoffs[0] == tuple([pytest.approx(expected, rel=1e-12)] * 5)

    def test_open_ended_run_is_deterministic(self):
        kwargs = dict(discount_rate=0.4, c=1.0, continuation_prob=0.9, seed=11)
        first = repeated_game_simulate(2, 1.0, **kwargs)
        second = repeated_game_simulate(2, 1.0, **kwargs)
        assert first == second
        assert first.rounds_played >= 1

    def test_invalid_policy(self):
        with pytest.raises(DomainError):
            repeated_game_simulate(2, 1.0, discount_rate=0.5, horizon=5, deviation_policy="chaos")

    def test_horizon_xor_continuation(self):
        with pytest.raises(DomainError):
            repeated_game_simulate(2, 1.0, discount_rate=0.5)
        with pytest.raises(DomainError):
            repeated_game_simulate(
                2, 1.0, discount_rate=0.5, horizon=5, continuation_prob=0.5
            )
