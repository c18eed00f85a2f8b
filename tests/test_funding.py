"""Tests for the quadratic-rule math and pool scaling."""

import copy
import math
import pickle
import random
import tracemalloc
from array import array
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthgraph import Record

from qfround.errors import DomainError, NoMatchableProjectsError
from qfround.funding import (
    ContributionColumns,
    ProjectLedger,
    check_record,
    compute_k,
    cqf_allocate,
    marginal_match,
    matching_requirement,
    qf_target,
    required_match,
)
from qfround.roundsim import AgentSpec, _RoundState


def ledger(*amounts, project="p", category=""):
    return ProjectLedger.from_amounts(project, amounts, category)


def ledgers_of(records, categories, projects=()):
    """The ledgers of ``Record``s, each appended to one ``ContributionColumns``."""
    columns = ContributionColumns(projects)
    for record in records:
        columns.append(*record)
    return columns.ledgers(categories)


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
        with pytest.raises(DomainError, match="^contribution amount must be positive and finite, got -1.0$"):
            ContributionColumns().append("a", "p", -1.0, 0)
        with pytest.raises(DomainError, match="^contribution amount must be positive and finite, got -1.0$"):
            ProjectLedger.build("p", [("a", 1.0), ("b", -1.0)])

    def test_zero_amount_rejected(self):
        with pytest.raises(DomainError, match="^contribution amount must be positive and finite, got 0.0$"):
            ContributionColumns().append("a", "p", 0.0, 0)
        with pytest.raises(DomainError, match="^contribution amount must be positive and finite, got 0.0$"):
            ProjectLedger.build("p", [("a", 0.0)])

    def test_same_contributor_aggregated_before_sqrt(self):
        split = ProjectLedger.build("p", (("a", 1.0), ("a", 1.0)))
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
        records = [(f"c{i}", a) for i, a in enumerate(amounts)]
        before = matching_requirement(ProjectLedger.build("p", records))
        topped = records + [("c0", extra)]
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

    def test_total_requirement_past_the_largest_float_reads_inf(self):
        """Each project requires 8e307; three of them pass the largest float."""
        ledgers = [ledger(4e307, 4e307, project=f"p{i}") for i in range(3)]
        assert compute_k(ledgers, 1e308) == math.inf


class TestSumsPastTheLargestFloat:
    """Records whose sum passes the largest float stop the ledgers, naming the project."""

    @pytest.mark.parametrize("records", [
        [("u1", 1e308)] * 3,
        [("u1", 1e308), ("u1", 1e308), ("u2", 1.0)],
        [("u1", 1e308), ("u2", 1e308)],
        [("u1", 1e308), ("u2", 1e308), ("u3", 1e308)],
    ], ids=["pair_of_three", "pair_of_two", "project_of_two", "project_of_three"])
    def test_ledgers_name_the_project(self, records):
        contributions = [Record("a", "p0", 1.0)] + [Record(c, "p1", x) for c, x in records]
        with pytest.raises(DomainError, match="^contributions to project 'p1' sum past the largest float$"):
            ledgers_of(contributions, {})
        # a sum up to the largest float is kept
        [kept] = ledgers_of([Record("u1", "p1", 1e308), Record("u1", "p1", 7e307)], {})
        assert tuple(kept.amounts) == (kept.total,) == (1e308 + 7e307,)


class TestCqfAllocate:
    def test_hand_worked_two_projects(self):
        allocation = cqf_allocate([ledger(1, 1, project="p1"), ledger(4, project="p2")], 1.0)
        assert allocation.k == pytest.approx(2.0, rel=1e-12)
        by_project = allocation.by_project()
        assert by_project["p1"].m_actual == pytest.approx(1.0, rel=1e-12)
        assert by_project["p2"].m_actual == pytest.approx(0.0, abs=1e-12)
        assert by_project["p1"].f_actual == pytest.approx(3.0, rel=1e-12)
        assert by_project["p2"].f_actual == pytest.approx(4.0, rel=1e-12)

    def test_unconstrained_limit(self):
        ledgers = [ledger(1, 1, project="p1"), ledger(2, 3, project="p2")]
        pool = sum(matching_requirement(l) for l in ledgers)
        allocation = cqf_allocate(ledgers, pool)
        assert allocation.k == pytest.approx(1.0, rel=1e-12)
        for outcome in allocation.projects:
            assert outcome.m_actual == pytest.approx(outcome.m_qf, rel=1e-12)

    def test_generous_pool_scales_up(self):
        allocation = cqf_allocate([ledger(1, 1)], 4.0)
        assert allocation.k == pytest.approx(0.5, rel=1e-12)
        assert allocation.projects[0].m_actual == pytest.approx(4.0, rel=1e-12)
        assert allocation.projects[0].f_actual == pytest.approx(6.0, rel=1e-12)
        assert allocation.surplus == 0.0

    def test_cap_at_target_reports_surplus(self):
        allocation = cqf_allocate([ledger(1, 1)], 4.0, cap_at_target=True)
        assert allocation.projects[0].m_actual == pytest.approx(2.0, rel=1e-12)
        assert allocation.projects[0].f_actual == pytest.approx(4.0, rel=1e-12)
        assert allocation.surplus == pytest.approx(2.0, rel=1e-12)

    def test_cap_flag_inert_when_pool_binding(self):
        capped = cqf_allocate([ledger(1, 1)], 1.0, cap_at_target=True)
        literal = cqf_allocate([ledger(1, 1)], 1.0)
        assert capped.projects == literal.projects
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
        assert math.fsum(o.m_actual for o in allocation.projects) == pytest.approx(pool, abs=1e-6)
        for outcome, project in zip(allocation.projects, ledgers):
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
        assert allocation.category == "infra"
        assert allocation.k == pytest.approx(required / 7.0, rel=1e-9)


class TestLedgerType:
    def test_cached_sums_validated(self):
        """The derived sums come from the amounts and cannot be passed in."""
        records = (("a", 1.0), ("b", 4.0), ("a", 3.0))
        with pytest.raises(TypeError):
            ProjectLedger("p", "", ("a", "b"), (4.0, 4.0), 8.0, sqrt_sum=99.0)
        built = ProjectLedger.build("p", records)
        assert (built.contributors, tuple(built.amounts)) == (("a", "b"), (4.0, 4.0))
        assert built.total == math.fsum(amount for _, amount in records)
        assert built.sqrt_sum == math.fsum(math.sqrt(a) for a in (4.0, 4.0))
        assert built.contributor_count == 2
        assert matching_requirement(built) == pytest.approx(8.0, rel=1e-12)

    def test_required_match_kernel(self):
        assert required_match(3.0, 5.0, 2) == 4.0
        assert required_match(2.0, 4.0 - 1e-15, 1) == 0.0  # no pairs, no residue
        assert required_match(0.0, 0.0, 0) == 0.0
        assert required_match(2.0, 4.0 + 1e-15, 2) == 0.0  # clipped at zero

    def test_group_ledgers_one_pass(self):
        """``ContributionColumns.ledgers`` gives every project's ledger, named ones included."""
        records = [Record("a", "q", 1.0), Record("b", "p", 4.0), Record("a", "q", 3.0)]
        ledgers = ledgers_of(records, {"p": "main"}, projects=("r", "p"))
        assert [l.project_id for l in ledgers] == ["p", "q", "r"]
        assert [l.category for l in ledgers] == ["main", "", ""]
        assert (ledgers[1].contributors, tuple(ledgers[1].amounts)) == (("a",), (4.0,))
        assert ledgers[1].total == 4.0 and ledgers[1].contributor_count == 1
        assert tuple(ledgers[2].amounts) == () and matching_requirement(ledgers[2]) == 0.0

    def test_contributor_count_aggregates(self):
        records = (("a", 1.0), ("a", 2.0), ("b", 1.0))
        assert ProjectLedger.build("p", records).contributor_count == 2

    def test_negative_day_rejected(self):
        with pytest.raises(DomainError, match="^day must be a nonnegative integer, got -1$"):
            ContributionColumns().append("a", "p", 1.0, -1)


class TestArrayAmounts:
    """Every way to build a ledger stores its amounts as one ``array('d')``,
    so ledgers built from the same records compare equal whichever way."""

    RECORDS = (("p-backer-0", 1.0), ("p-backer-1", 4.0), ("p-backer-0", 3.0), ("p-backer-2", 0.25))

    @pytest.fixture
    def built(self):
        columns = ContributionColumns()
        state = _RoundState(("p",))
        for contributor, amount in self.RECORDS:
            columns.append(contributor, "p", amount, 0)
            state.emit(0, AgentSpec(contributor, "honest", 100.0, fixed_amount=amount, projects=("p",)), "p", amount)
        return {
            "ContributionColumns.ledgers": columns.ledgers({})[0],
            "build": ProjectLedger.build("p", self.RECORDS),
            "from_amounts": ProjectLedger.from_amounts("p", (4.0, 4.0, 0.25)),
            "_RoundState.ledger": state.ledger("p", ""),
            "constructor": ProjectLedger("p", "", ("p-backer-0", "p-backer-1", "p-backer-2"), (4.0, 4.0, 0.25), 8.25),
        }

    def test_equal_field_for_field(self, built):
        expected = ("p", "", ("p-backer-0", "p-backer-1", "p-backer-2"), array("d", (4.0, 4.0, 0.25)), 8.25, 4.5, 3)
        for name, ledger in built.items():
            assert (type(ledger.amounts), ledger.amounts.typecode) == (array, "d"), name
            assert tuple(getattr(ledger, f.name) for f in fields(ledger)) == expected, name
            assert ledger == built["constructor"], name

    def test_pickle_round_trip(self, built):
        for name, ledger in built.items():
            copied = pickle.loads(pickle.dumps(ledger))
            assert copied == ledger and type(copied.amounts) is array, name

    def test_hashable(self, built):
        assert len({hash(ledger) for ledger in built.values()}) == 1
        assert len(set(built.values())) == 1


class TestLedgersMemory:
    """numpy reports its buffers to tracemalloc, so the traced peak of one
    ``ContributionColumns.ledgers`` counts every record-sized temporary it
    holds at once, and what stays traced after it is the ledgers it returns."""

    @pytest.fixture(scope="class")
    def columns(self):
        """50,000 records on 500 projects from 5,000 contributors, in pairs
        of one to four records each, shuffled."""
        rng = random.Random(5)
        records = []
        while len(records) < 50_000:
            contributor, project = f"c{rng.randrange(5000)}", f"p{rng.randrange(500)}"
            for _ in range(rng.choice((1, 1, 1, 2, 2, 3, 4))):
                records.append((contributor, project, rng.choice((0.1, 0.2, 0.3, 1.0, 2.5, 7.0, 1e-3))))
        del records[50_000:]
        rng.shuffle(records)
        columns = ContributionColumns()
        for contributor, project, amount in records:
            columns.append(contributor, project, amount, 0)
        sizes = Counter(min(n, 3) for n in Counter((c, p) for c, p, _ in records).values())
        assert sizes[1] > 5000 and sizes[2] > 5000 and sizes[3] > 5000
        columns.ledgers({})  # the first call imports numpy
        return columns

    def traced(self, columns):
        """The traced peak of one ``ledgers`` call, the bytes still traced after
        it and the number of pairs in the ledgers it returns."""
        tracemalloc.start()
        try:
            ledgers = columns.ledgers({})
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, current, sum(ledger.contributor_count for ledger in ledgers)

    # Measured at 27.7 bytes per record; holding the sort order and the
    # sorted keys to the end of the sums took 46.3.
    def test_peak_bytes_per_record(self, columns):
        peak, _current, _pairs = self.traced(columns)
        assert peak / len(columns) <= 30.5

    # Measured at 23.2 bytes per pair; a float object per amount in a
    # tuple took 45.5.
    def test_live_bytes_per_pair(self, columns):
        _peak, current, pairs = self.traced(columns)
        assert current / pairs <= 25.5


@given(
    st.lists(
        st.tuples(
            st.sampled_from(("a", "b", "c", "d")),
            st.sampled_from(("p1", "p2", "p3")),
            st.one_of(
                st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
                st.sampled_from((0.1, 0.2, 0.3, 1e-3)),
            ),
        ),
        max_size=30,
    ),
    st.lists(st.sampled_from(("p0", "p2", "p4")), max_size=3),
)
@settings(max_examples=200)
def test_group_ledgers_match_a_brute_force_reading(rows, projects):
    """Every ledger's sums and per-contributor amounts, bit for bit, empty ledgers included."""
    records = [Record(cid, pid, amount) for cid, pid, amount in rows]
    ledgers = ledgers_of(records, {"p1": "main", "p4": "side"}, projects)
    assert [l.project_id for l in ledgers] == sorted({r.project_id for r in records} | set(projects))
    for built in ledgers:
        own = [r for r in records if r.project_id == built.project_id]
        per_contributor = {}
        for record in own:
            per_contributor.setdefault(record.contributor_id, []).append(record.amount)
        amounts = {cid: math.fsum(values) for cid, values in per_contributor.items()}
        assert built.category == {"p1": "main", "p4": "side"}.get(built.project_id, "")
        assert built.contributor_amounts() == amounts
        assert built.contributor_count == len(amounts)
        assert built.total == math.fsum(r.amount for r in own)
        assert built.sqrt_sum == math.fsum(math.sqrt(a) for a in amounts.values())


@given(st.lists(
    st.tuples(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from((0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, True, "1")),
        ),
        st.one_of(st.integers(min_value=-3, max_value=40), st.floats(min_value=-3.0, max_value=40.0)),
    ),
    max_size=12,
))
@settings(max_examples=300)
def test_append_accepts_exactly_what_check_record_accepts(records):
    """An accepted record is added as given; a rejected one raises ``check_record``'s
    error and leaves the columns and both code dicts as they were."""
    columns = ContributionColumns()
    for i, (amount, day) in enumerate(records):
        before = copy.deepcopy(columns)
        try:
            check_record(amount, day)
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                columns.append(f"c{i}", f"p{i}", amount, day)
            assert str(raised.value) == str(exc)
            assert len(columns) == len(before)
            assert columns == before
        else:
            columns.append(f"c{i}", f"p{i}", amount, day)
            assert len(columns) == len(before) + 1
            assert columns.amounts[-1] == amount and columns.days[-1] == day
            assert list(columns.contributor_codes)[columns.contributors[-1]] == f"c{i}"
            assert list(columns.project_codes)[columns.projects[-1]] == f"p{i}"


@given(
    st.lists(
        st.tuples(
            st.sampled_from(("a", "b", "c", "d")),
            st.one_of(
                st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
                st.sampled_from((0.1, 0.2, 0.3, 1e-3)),
            ),
        ),
        max_size=30,
    ),
)
@settings(max_examples=200)
def test_build_matches_a_brute_force_reading(pairs):
    """Contributors in first-appearance order, each amount the ``fsum`` of its
    records and ``total`` the ``fsum`` of all of them, bit for bit."""
    built = ProjectLedger.build("p", pairs, "main")
    per_contributor = {}
    for contributor, amount in pairs:
        per_contributor.setdefault(contributor, []).append(amount)
    assert (built.project_id, built.category) == ("p", "main")
    assert built.contributors == tuple(per_contributor)
    assert tuple(built.amounts) == tuple(map(math.fsum, per_contributor.values()))
    assert built.total == math.fsum(amount for _, amount in pairs)
    assert built.sqrt_sum == math.fsum(map(math.sqrt, built.amounts))


records_strategy = st.lists(
    st.tuples(
        st.sampled_from(("a", "b", "c", "d", "e")),
        st.sampled_from(("p1", "p2", "p3")),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=2,
    max_size=20,
).map(lambda rows: [Record(cid, pid, amount) for cid, pid, amount in rows])


def allocate_records(records, pool):
    return cqf_allocate(ledgers_of(records, {}), pool)


class TestAllocationInvariances:
    """Properties of cqf_allocate under regrouping of the same contributions."""

    @given(records_strategy, st.floats(min_value=0.1, max_value=500.0), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_shuffled_contributions_give_identical_outcomes(self, records, pool, rnd):
        """Any reordering of the records, and of the ledgers, gives the same bits."""
        if sum(matching_requirement(l) for l in ledgers_of(records, {})) <= 0.0:
            return
        shuffled = records[:]
        rnd.shuffle(shuffled)
        before = allocate_records(records, pool)
        after = cqf_allocate(ledgers_of(shuffled, {})[::-1], pool)
        assert after.by_project() == before.by_project()
        assert after.k == before.k
        assert after.surplus == before.surplus

    @given(records_strategy, st.floats(min_value=0.01, max_value=0.99), st.integers(0, 19),
           st.floats(min_value=0.1, max_value=500.0))
    @settings(max_examples=150)
    def test_splitting_one_record_changes_nothing(self, records, fraction, index, pool):
        if sum(matching_requirement(l) for l in ledgers_of(records, {})) <= 0.0:
            return
        index %= len(records)
        whole = records[index]
        part = whole.amount * fraction
        split = records[:index] + [
            Record(whole.contributor_id, whole.project_id, part),
            Record(whole.contributor_id, whole.project_id, whole.amount - part),
        ] + records[index + 1:]
        before = allocate_records(records, pool)
        after = allocate_records(split, pool)
        assert after.k == pytest.approx(before.k, rel=1e-12)
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
