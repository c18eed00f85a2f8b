"""Tests for the multiplier lambda_p, its bound, sweeps, and dispersion."""

import math
import random

import pytest

from qfround.efficiency import (
    LambdaReport,
    dispersion,
    format_profile_label,
    k_sweep,
    lambda_from_amounts,
    lambda_lower_bound,
    lambda_p,
    lambda_report,
)
from qfround.errors import DomainError
from qfround.funding import ProjectLedger


def ledger(*amounts, project="p", category=""):
    return ProjectLedger.from_amounts(project, amounts, category)


def hand_lambda(amounts, k):
    """Independent oracle: evaluate the definition term by term."""
    roots = [math.sqrt(a) for a in amounts]
    denom = sum(roots)
    total = 0.0
    for root in roots:
        alpha = root / denom
        total += 1.0 / (1.0 / (k * alpha) + 1.0 - 1.0 / k)
    return total


def random_ledger(rng, max_n=12):
    n = rng.randint(1, max_n)
    return ledger(*[rng.uniform(0.5, 100.0) for _ in range(n)])


class TestLambda:
    def test_efficient_limit(self):
        assert lambda_p(ledger(1, 1), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_equal_pair_at_k_two(self):
        assert lambda_p(ledger(1, 1), 2.0) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_one_fifteen_at_k_two(self):
        value = lambda_p(ledger(1, 15), 2.0)
        assert value == pytest.approx(hand_lambda([1, 15], 2.0), rel=1e-12)
        assert value == pytest.approx(1.226, abs=5e-4)

    def test_three_reference_profiles_at_k_two(self):
        values = [lambda_p(ledger(*amounts), 2.0) for amounts in ([1, 1], [1, 2], [1, 15])]
        assert values[0] == pytest.approx(1.3333, abs=5e-4)
        assert values[1] == pytest.approx(1.3246, abs=5e-4)
        assert values[2] == pytest.approx(1.2262, abs=5e-4)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            lambda_p(ledger(1, 1), 0.0)
        with pytest.raises(DomainError):
            lambda_p(ledger(1, 1), -2.0)

    def test_empty_ledger_rejected(self):
        with pytest.raises(DomainError):
            lambda_p(ProjectLedger.build("p", ()), 2.0)

    def test_k_below_one_allowed(self):
        assert lambda_p(ledger(1, 1), 0.5) == pytest.approx(hand_lambda([1, 1], 0.5), rel=1e-12)

    def test_limits(self):
        rng = random.Random(7)
        for _ in range(50):
            project = random_ledger(rng)
            n = project.contributor_count
            assert lambda_p(project, 1.0) == pytest.approx(1.0, abs=1e-9)
            assert lambda_p(project, 1e9) == pytest.approx(n, abs=1e-5)

    def test_monotone_and_concave_in_k(self):
        rng = random.Random(11)
        grid = [1.0 + 99.0 * i / 199 for i in range(200)]
        for _ in range(20):
            project = random_ledger(rng, max_n=8)
            values = [lambda_p(project, k) for k in grid]
            diffs = [b - a for a, b in zip(values, values[1:])]
            assert all(d >= -1e-12 for d in diffs)
            second = [b - a for a, b in zip(diffs, diffs[1:])]
            assert all(s <= 1e-9 for s in second)

    def test_equal_split_attains_the_maximum(self):
        rng = random.Random(13)
        for k in (1.5, 2.0, 10.0):
            for n in (2, 3, 7):
                ceiling = lambda_p(ledger(*[1.0] * n), k)
                for _ in range(1000 // n):
                    amounts = [rng.uniform(0.01, 100.0) for _ in range(n)]
                    assert lambda_p(ledger(*amounts), k) <= ceiling + 1e-12


class TestLowerBound:
    def test_equal_shares_tight(self):
        for k in (1.0, 2.0, 17.0):
            project = ledger(3, 3, 3)
            assert lambda_lower_bound(project, k) == pytest.approx(lambda_p(project, k), abs=1e-9)

    def test_unequal_shares_strictly_below(self):
        project = ledger(1, 4)
        assert lambda_lower_bound(project, 2.0) < lambda_p(project, 2.0)

    def test_large_k_bound_approaches_n(self):
        project = ledger(1, 4, 9)
        assert lambda_lower_bound(project, 1e9) == pytest.approx(3.0, abs=1e-6)

    def test_bound_holds_on_random_cases(self):
        rng = random.Random(17)
        for _ in range(2000):
            project = random_ledger(rng)
            k = rng.uniform(0.2, 100.0)
            assert lambda_p(project, k) >= lambda_lower_bound(project, k) - 1e-9


class TestSweep:
    def test_profile_ordering_matches_balance(self):
        grid = [1.0 + 19.0 * i / 99 for i in range(100)]
        points = k_sweep([(1, 1), (1, 2), (1, 15)], grid)
        assert [(p.profile_label, p.k) for p in points] == [
            (label, k) for label in ("1:1", "1:2", "1:15") for k in grid
        ]
        for point in points:
            amounts = [float(a) for a in point.profile_label.split(":")]
            assert point.lambda_p == pytest.approx(hand_lambda(amounts, point.k), rel=1e-12)
        curves = {}
        for point in points:
            curves.setdefault(point.profile_label, []).append(point.lambda_p)
        for flat, mid, steep in zip(curves["1:1"], curves["1:2"], curves["1:15"]):
            assert flat >= mid - 1e-12
            assert mid >= steep - 1e-12

    def test_asymptote(self):
        points = k_sweep([(1, 1, 1)], [1e6])
        assert points[0].lambda_p == pytest.approx(3.0, abs=1e-3)

    def test_label_formatting(self):
        assert format_profile_label((1.0, 15.0)) == "1:15"
        assert format_profile_label((1.0, 2.5)) == "1:2.5"

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            k_sweep([(1, 1)], [])


class TestDispersion:
    def test_identical_projects_have_zero_spread(self):
        reports = [lambda_report(ledger(2, 2, project=f"p{i}", category="c"), 3.0) for i in range(4)]
        stats = dispersion(reports, "c")
        assert stats.stdev == pytest.approx(0.0, abs=1e-12)
        assert stats.project_count == 4

    def test_two_point_arithmetic(self):
        reports = [
            LambdaReport("p1", "c", n=2, k_used=2.0, lambda_p=1.0, lower_bound=1.0),
            LambdaReport("p2", "c", n=2, k_used=2.0, lambda_p=2.0, lower_bound=1.5),
        ]
        stats = dispersion(reports, "c")
        assert stats.mean == pytest.approx(1.5)
        assert stats.stdev == pytest.approx(0.5)
        assert stats.min == 1.0
        assert stats.max == 2.0

    def test_empty_category_rejected(self):
        with pytest.raises(DomainError):
            dispersion([LambdaReport("p", "c", n=2, k_used=1.0, lambda_p=1.0, lower_bound=1.0)], "other")

    def test_scarcer_pool_spreads_multipliers(self):
        # Same projects, two pool levels: k=1 pins every multiplier at 1.
        projects = [ledger(1, 1, project="p1", category="c"), ledger(1, 9, project="p2", category="c")]
        rich = [lambda_report(p, 1.0) for p in projects]
        poor = [lambda_report(p, 6.0) for p in projects]
        assert dispersion(rich, "c").stdev == pytest.approx(0.0, abs=1e-12)
        assert dispersion(poor, "c").stdev > 1e-3


def test_lambda_from_amounts_matches_ledger_path():
    amounts = [1.0, 4.0, 2.5]
    assert lambda_from_amounts(amounts, 3.0) == pytest.approx(
        lambda_p(ledger(*amounts), 3.0), rel=1e-12
    )
