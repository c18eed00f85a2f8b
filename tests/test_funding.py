"""Tests for the quadratic-rule math and pool scaling."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfround.errors import DomainError, NoMatchableProjectsError
from qfround.funding import (
    Contribution,
    ProjectLedger,
    compute_k,
    cqf_allocate,
    group_ledgers,
    marginal_match,
    matching_requirement,
    qf_target,
    required_match,
)


def ledger(*amounts, project="p", category=""):
    return ProjectLedger.from_amounts(project, amounts, category)


def brute_force_requirement(amounts):
    """Independent oracle: 2 * sum over unordered pairs of sqrt(ai*aj)."""
    roots = [math.sqrt(a) for a in amounts]
    return 2.0 * sum(
        roots[i] * roots[j] for i in range(len(roots)) for j in range(i + 1, len(roots))
    )


amounts_strategy = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


class TestQfTarget:
    def test_single_contribution_is_identity(self):
        assert qf_target(ledger(4.0)) == 4.0

    def test_four_unit_contributions(self):
        assert qf_target(ledger(1, 1, 1, 1)) == pytest.approx(16.0, rel=1e-12)

    def test_one_and_four(self):
        assert qf_target(ledger(1, 4)) == pytest.approx(9.0, rel=1e-12)

    def test_empty_ledger_is_zero(self):
        assert qf_target(ProjectLedger.build("p", ())) == 0.0

    def test_negative_amount_rejected(self):
        with pytest.raises(DomainError):
            Contribution("a", "p", -1.0)

    def test_zero_amount_rejected(self):
        with pytest.raises(DomainError):
            Contribution("a", "p", 0.0)

    def test_same_contributor_aggregated_before_sqrt(self):
        split = ProjectLedger.build(
            "p", (Contribution("a", "p", 1.0), Contribution("a", "p", 1.0))
        )
        distinct = ledger(1.0, 1.0)
        assert qf_target(split) == pytest.approx(2.0, rel=1e-12)
        assert qf_target(distinct) == pytest.approx(4.0, rel=1e-12)

    @given(
        amount=st.floats(min_value=0.02, max_value=100, allow_nan=False),
        fraction=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_splitting_across_identities_strictly_pays(self, amount, fraction):
        # The identity-splitting surface: two ids always beat one.
        one = qf_target(ledger(amount))
        two = qf_target(ledger(amount * fraction, amount * (1 - fraction)))
        assert two > one


class TestMatchingRequirement:
    def test_single_contributor_needs_no_match(self):
        assert matching_requirement(ledger(4.0)) == 0.0
        assert matching_requirement(ledger(7.0)) == 0.0

    def test_four_units(self):
        assert matching_requirement(ledger(1, 1, 1, 1)) == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("c", [0.5, 1.0, 7.0])
    def test_equal_contributions_identity(self, n, c):
        expected = (n * n - n) * c
        assert matching_requirement(ledger(*[c] * n)) == pytest.approx(expected, rel=1e-9)

    @given(amounts_strategy)
    @settings(max_examples=200)
    def test_pair_sum_equivalence(self, amounts):
        got = matching_requirement(ledger(*amounts))
        want = brute_force_requirement(amounts)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(amounts_strategy, st.floats(min_value=0.01, max_value=100, allow_nan=False))
    @settings(max_examples=200)
    def test_new_contribution_never_decreases_requirement(self, amounts, extra):
        before = matching_requirement(ledger(*amounts))
        after = matching_requirement(ledger(*amounts, extra))
        assert after >= before - 1e-12

    @given(amounts_strategy, st.floats(min_value=0.01, max_value=100, allow_nan=False))
    @settings(max_examples=100)
    def test_topping_up_existing_contributor_never_decreases(self, amounts, extra):
        records = [Contribution(f"c{i}", "p", a) for i, a in enumerate(amounts)]
        before = matching_requirement(ProjectLedger.build("p", records))
        topped = records + [Contribution("c0", "p", extra)]
        after = matching_requirement(ProjectLedger.build("p", topped))
        assert after >= before - 1e-12


class TestMarginalMatch:
    def test_two_units_then_one(self):
        assert marginal_match(ledger(1, 1), 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_empty_ledger_no_match(self):
        assert marginal_match(ProjectLedger.build("p", ()), 5.0) == 0.0

    def test_one_four_then_nine(self):
        assert marginal_match(ledger(1, 4), 9.0) == pytest.approx(18.0, rel=1e-12)

    def test_nonpositive_amount_rejected(self):
        with pytest.raises(DomainError):
            marginal_match(ledger(1.0), 0.0)
        with pytest.raises(DomainError):
            marginal_match(ledger(1.0), -2.0)

    @given(amounts_strategy, st.floats(min_value=0.01, max_value=100, allow_nan=False))
    @settings(max_examples=200)
    def test_marginal_consistency(self, amounts, extra):
        base = ledger(*amounts)
        grown = ledger(*amounts, extra)
        diff = matching_requirement(grown) - matching_requirement(base)
        assert marginal_match(base, extra) == pytest.approx(diff, rel=1e-9, abs=1e-9)


class TestComputeK:
    def test_one_project_small_pool(self):
        assert compute_k([ledger(1, 1)], 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_two_projects_exact_pool(self):
        assert compute_k([ledger(1, 1, project="p1"), ledger(4, project="p2")], 2.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_pool_increase_scales_k(self):
        ledgers = [ledger(3, 5, 2, project="p1"), ledger(1, 8, project="p2")]
        k_before = compute_k(ledgers, 120.0)
        k_after = compute_k(ledgers, 150.0)
        assert k_after == pytest.approx(0.8 * k_before, rel=1e-12)

    def test_no_matchable_projects(self):
        with pytest.raises(NoMatchableProjectsError):
            compute_k([ledger(4.0)], 1.0)

    def test_bad_pool(self):
        with pytest.raises(DomainError):
            compute_k([ledger(1, 1)], 0.0)
        with pytest.raises(DomainError):
            compute_k([ledger(1, 1)], -3.0)


class TestCqfAllocate:
    def test_hand_worked_two_projects(self):
        allocation = cqf_allocate([ledger(1, 1, project="p1"), ledger(4, project="p2")], 1.0)
        assert allocation.pool_state.k == pytest.approx(2.0, rel=1e-12)
        by_project = allocation.by_project()
        assert by_project["p1"].m_actual == pytest.approx(1.0, rel=1e-12)
        assert by_project["p2"].m_actual == pytest.approx(0.0, abs=1e-12)
        assert by_project["p1"].f_actual == pytest.approx(3.0, rel=1e-12)
        assert by_project["p2"].f_actual == pytest.approx(4.0, rel=1e-12)

    def test_unconstrained_limit(self):
        ledgers = [ledger(1, 1, project="p1"), ledger(2, 3, project="p2")]
        pool = sum(matching_requirement(l) for l in ledgers)
        allocation = cqf_allocate(ledgers, pool)
        assert allocation.pool_state.k == pytest.approx(1.0, rel=1e-12)
        for outcome in allocation.outcomes:
            assert outcome.m_actual == pytest.approx(outcome.m_qf, rel=1e-12)

    def test_generous_pool_scales_up(self):
        allocation = cqf_allocate([ledger(1, 1)], 4.0)
        assert allocation.pool_state.k == pytest.approx(0.5, rel=1e-12)
        assert allocation.outcomes[0].m_actual == pytest.approx(4.0, rel=1e-12)
        assert allocation.outcomes[0].f_actual == pytest.approx(6.0, rel=1e-12)
        assert allocation.surplus == 0.0

    def test_cap_at_target_reports_surplus(self):
        allocation = cqf_allocate([ledger(1, 1)], 4.0, cap_at_target=True)
        assert allocation.outcomes[0].m_actual == pytest.approx(2.0, rel=1e-12)
        assert allocation.outcomes[0].f_actual == pytest.approx(4.0, rel=1e-12)
        assert allocation.surplus == pytest.approx(2.0, rel=1e-12)

    def test_cap_flag_inert_when_pool_binding(self):
        capped = cqf_allocate([ledger(1, 1)], 1.0, cap_at_target=True)
        literal = cqf_allocate([ledger(1, 1)], 1.0)
        assert capped.outcomes == literal.outcomes
        assert capped.surplus == 0.0

    @given(
        st.lists(amounts_strategy, min_size=1, max_size=5),
        st.floats(min_value=0.1, max_value=500, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_budget_balance(self, rounds, pool):
        ledgers = [
            ProjectLedger.from_amounts(f"p{i}", amounts) for i, amounts in enumerate(rounds)
        ]
        if sum(matching_requirement(l) for l in ledgers) <= 0:
            return
        allocation = cqf_allocate(ledgers, pool)
        assert math.fsum(o.m_actual for o in allocation.outcomes) == pytest.approx(pool, abs=1e-6)
        for outcome, project in zip(allocation.outcomes, ledgers):
            assert outcome.f_qf == pytest.approx(outcome.m_qf + project.total, rel=1e-9)
            assert outcome.f_actual == pytest.approx(outcome.m_actual + project.total, rel=1e-9)
            assert outcome.f_qf >= project.total - 1e-12
            assert outcome.m_qf >= 0.0

    def test_zero_contributor_project_rides_along(self):
        allocation = cqf_allocate(
            [ledger(1, 1, project="p1"), ProjectLedger.build("empty", ())], 2.0
        )
        outcome = allocation.by_project()["empty"]
        assert outcome.f_qf == 0.0
        assert outcome.m_actual == 0.0
        assert outcome.f_actual == 0.0

    def test_duplicate_project_rejected(self):
        with pytest.raises(DomainError):
            cqf_allocate([ledger(1, 1, project="p"), ledger(2, 2, project="p")], 1.0)

    def test_pool_state_matches_definition(self):
        ledgers = [ledger(2, 5, project="p1"), ledger(1, 1, 1, project="p2")]
        allocation = cqf_allocate(ledgers, 7.0, category="infra")
        required = sum(matching_requirement(l) for l in ledgers)
        assert allocation.pool_state.category == "infra"
        assert allocation.pool_state.k == pytest.approx(required / 7.0, rel=1e-9)


class TestLedgerType:
    def test_cached_sums_validated(self):
        """The sums are derived from the records and cannot be passed in."""
        records = (
            Contribution("a", "p", 1.0),
            Contribution("b", "p", 4.0),
            Contribution("a", "p", 3.0),
        )
        with pytest.raises(TypeError):
            ProjectLedger("p", "", records, sqrt_sum=99.0, total=5.0)
        built = ProjectLedger("p", "", records)
        assert built.total == math.fsum(r.amount for r in records)
        assert built.sqrt_sum == math.fsum(math.sqrt(a) for a in (4.0, 4.0))
        assert built.contributor_count == 2
        assert matching_requirement(built) == pytest.approx(8.0, rel=1e-12)

    def test_required_match_kernel(self):
        assert required_match(3.0, 5.0, 2) == 4.0
        assert required_match(2.0, 4.0 - 1e-15, 1) == 0.0  # no pairs, no residue
        assert required_match(0.0, 0.0, 0) == 0.0
        assert required_match(2.0, 4.0 + 1e-15, 2) == 0.0  # clipped at zero

    def test_group_ledgers_one_pass(self):
        records = [
            Contribution("a", "q", 1.0),
            Contribution("b", "p", 4.0),
            Contribution("a", "q", 3.0),
        ]
        ledgers = group_ledgers(records, {"p": "main"}, projects=("r", "p"))
        assert [l.project_id for l in ledgers] == ["p", "q", "r"]
        assert [l.category for l in ledgers] == ["main", "", ""]
        assert ledgers[1].contributions == (records[0], records[2])
        assert ledgers[1].total == 4.0 and ledgers[1].contributor_count == 1
        assert ledgers[2].contributions == () and matching_requirement(ledgers[2]) == 0.0

    def test_wrong_project_rejected(self):
        with pytest.raises(DomainError):
            ProjectLedger.build("p", (Contribution("a", "other", 1.0),))

    def test_contributor_count_aggregates(self):
        records = (
            Contribution("a", "p", 1.0),
            Contribution("a", "p", 2.0),
            Contribution("b", "p", 1.0),
        )
        assert ProjectLedger.build("p", records).contributor_count == 2

    def test_negative_day_rejected(self):
        with pytest.raises(DomainError):
            Contribution("a", "p", 1.0, day=-1)


records_strategy = st.lists(
    st.tuples(
        st.sampled_from(("a", "b", "c", "d", "e")),
        st.sampled_from(("p1", "p2", "p3")),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=2,
    max_size=20,
).map(lambda rows: [Contribution(cid, pid, amount) for cid, pid, amount in rows])


def allocate_records(records, pool):
    return cqf_allocate(group_ledgers(records, {}), pool)


class TestAllocationInvariances:
    """Properties of cqf_allocate under regrouping of the same contributions."""

    @given(records_strategy, st.floats(min_value=0.1, max_value=500.0), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_shuffled_contributions_give_identical_outcomes(self, records, pool, rnd):
        """Any reordering of the records, and of the ledgers, gives the same bits.

        One contributor's repeated records to one project keep their relative
        order: their amounts are summed as floats in record order before the
        square root is taken.
        """
        if sum(matching_requirement(l) for l in group_ledgers(records, {})) <= 0.0:
            return
        shuffled = records[:]
        rnd.shuffle(shuffled)
        per_pair = {}
        for record in records:
            per_pair.setdefault((record.contributor_id, record.project_id), []).append(record)
        queues = {pair: iter(rows) for pair, rows in per_pair.items()}
        shuffled = [next(queues[(r.contributor_id, r.project_id)]) for r in shuffled]
        before = allocate_records(records, pool)
        after = cqf_allocate(group_ledgers(shuffled, {})[::-1], pool)
        assert after.by_project() == before.by_project()
        assert after.pool_state == before.pool_state
        assert after.surplus == before.surplus

    @given(records_strategy, st.floats(min_value=0.01, max_value=0.99), st.integers(0, 19),
           st.floats(min_value=0.1, max_value=500.0))
    @settings(max_examples=150)
    def test_splitting_one_record_changes_nothing(self, records, fraction, index, pool):
        if sum(matching_requirement(l) for l in group_ledgers(records, {})) <= 0.0:
            return
        index %= len(records)
        whole = records[index]
        part = whole.amount * fraction
        split = records[:index] + [
            Contribution(whole.contributor_id, whole.project_id, part),
            Contribution(whole.contributor_id, whole.project_id, whole.amount - part),
        ] + records[index + 1:]
        before = allocate_records(records, pool)
        after = allocate_records(split, pool)
        assert after.pool_state.k == pytest.approx(before.pool_state.k, rel=1e-12)
        for project, outcome in before.by_project().items():
            other = after.by_project()[project]
            for name in ("f_qf", "m_qf", "m_actual", "f_actual"):
                assert getattr(other, name) == pytest.approx(getattr(outcome, name), rel=1e-12)

    @given(st.lists(amounts_strategy, min_size=1, max_size=5),
           st.floats(min_value=1e-3, max_value=1e12))
    @settings(max_examples=150)
    def test_doubling_the_pool_halves_k(self, rounds, pool):
        ledgers = [ProjectLedger.from_amounts(f"p{i}", amounts) for i, amounts in enumerate(rounds)]
        if sum(matching_requirement(l) for l in ledgers) <= 0.0:
            return
        assert compute_k(ledgers, 2.0 * pool) == compute_k(ledgers, pool) / 2.0
