"""Tests for the day-by-day round engine."""

import contextlib
import csv
import io
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import MISSING, fields, is_dataclass, replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import round_reference
from synthgraph import records_of

from qfround.cli import main
from qfround.equilibrium import FAMILIES, Valuation, foc_lhs, solve_best_contribution
from qfround.errors import BudgetBreachError, DomainError
from qfround.funding import required_match
from qfround.ledger import load_contributions
from qfround import roundsim
from qfround.report import build_report
from qfround.roundsim import (
    AgentSpec,
    CategorySpec,
    PoolEvent,
    RoundConfig,
    _RoundState,
    deficit_curve,
    emit_panel,
    load_simulation_file,
    run_repeated_rounds,
    run_round,
    write_deficit_curve,
    write_k_series,
)


def one_category_config(projects=("p1", "p2"), pool=10.0, days=6, seed=3, events=()):
    return RoundConfig(
        categories=(CategorySpec("main", pool, tuple(projects)),),
        duration_days=days,
        pool_events=tuple(events),
        seed=seed,
    )


def honest(agent_id, scales, budget=50.0, activity=1.0):
    return AgentSpec(
        agent_id=agent_id,
        kind="honest",
        budget=budget,
        activity=activity,
        valuations=tuple(
            Valuation(agent_id, pid, "sqrt", scale) for pid, scale in sorted(scales.items())
        ),
    )


def fixed(agent_id, amount, projects, budget=None, activity=1.0):
    return AgentSpec(
        agent_id=agent_id,
        kind="honest",
        budget=budget if budget is not None else amount * len(projects),
        activity=activity,
        fixed_amount=amount,
        projects=tuple(projects),
    )


def colluder(agent_id, ring, own, budget=10.0, defects_from_round=None):
    return AgentSpec(
        agent_id=agent_id,
        kind="reciprocal_colluder",
        budget=budget,
        activity=1.0,
        ring_id=ring,
        own_project=own,
        defects_from_round=defects_from_round,
    )


class TestConfigValidation:
    def test_event_day_outside_round(self):
        with pytest.raises(DomainError):
            one_category_config(events=[PoolEvent(9, "main", 5.0)], days=5)

    def test_duplicate_project_across_categories(self):
        with pytest.raises(DomainError):
            RoundConfig(
                categories=(
                    CategorySpec("a", 1.0, ("p1",)),
                    CategorySpec("b", 1.0, ("p1",)),
                ),
                duration_days=2,
            )

    def test_unknown_event_category(self):
        with pytest.raises(DomainError):
            one_category_config(events=[PoolEvent(1, "nope", 5.0)])

    def test_duplicate_agent(self):
        # one shared budget and one-shot flag: a fixed agent listed twice never paid
        agents = [fixed("f1", 1.0, ["p1"]), honest("a1", {"p2": 2.0}), fixed("f1", 1.0, ["p2"], budget=2.0)]
        with pytest.raises(DomainError, match="duplicate agent 'f1'"):
            run_round(one_category_config(), agents)

    def test_duplicate_valuation(self):
        agent = honest("a1", {"p1": 3.0, "p2": 1.0})
        agent = replace(agent, valuations=agent.valuations + (Valuation("a1", "p2", "log", 5.0),))
        with pytest.raises(DomainError, match=r"duplicate valuation for \('a1', 'p2'\)"):
            run_round(one_category_config(), [agent])

    def test_agent_targeting_unknown_project(self):
        config = one_category_config()
        with pytest.raises(DomainError):
            run_round(config, [fixed("f1", 1.0, ["ghost"])])


class TestDeterminism:
    def test_bit_identical_trajectories(self):
        config = one_category_config(days=8, seed=42)
        agents = [
            honest("a1", {"p1": 2.0, "p2": 1.0}, activity=0.6),
            honest("a2", {"p1": 1.5}, activity=0.8),
            fixed("f1", 0.5, ["p2"], activity=0.4),
        ]
        first = run_round(config, agents)
        second = run_round(config, agents)
        assert first == second

    def test_seed_changes_arrivals(self):
        agents = [fixed("f1", 1.0, ["p1"], activity=0.5)]
        a = run_round(one_category_config(seed=1), agents)
        b = run_round(one_category_config(seed=2), agents)
        days_a = a.panel.days
        days_b = b.panel.days
        assert days_a != days_b or a.panel == b.panel


class TestTrajectoryShape:
    def test_zero_agents_flat_with_undefined_k(self):
        trajectory = run_round(one_category_config(), [])
        assert len(trajectory.k_by_day) == 6
        assert all(day["main"] is None for day in trajectory.k_by_day)
        assert records_of(trajectory.panel) == ()
        block = trajectory.final_report.categories[0]
        assert block.degenerate
        assert block.k is None

    def test_quadratic_deficit_growth_from_staggered_identical_agents(self):
        c = 2.0
        agents = [fixed(f"f{i}", c, ["p1"], activity=0.3) for i in range(12)]
        config = one_category_config(projects=("p1",), days=15, pool=5.0, seed=9)
        trajectory = run_round(config, agents)
        arrived = 0
        seen = set()
        rows_by_day = {}
        for row in records_of(trajectory.panel):
            rows_by_day.setdefault(row.day, []).append(row)
        for day in range(config.duration_days):
            for row in rows_by_day.get(day, []):
                assert row.amount == c
                seen.add(row.contributor_id)
            arrived = len(seen)
            expected = (arrived * arrived - arrived) * c
            assert trajectory.m_qf_by_day[day]["p1"] == pytest.approx(expected, rel=1e-12)
            k = trajectory.k_by_day[day]["main"]
            if arrived >= 2:
                assert k == pytest.approx(expected / 5.0, rel=1e-12)
            else:
                assert k is None

    def test_k_monotone_between_events(self):
        agents = [fixed(f"f{i}", 1.0, ["p1", "p2"], activity=0.5) for i in range(8)]
        trajectory = run_round(one_category_config(days=10, seed=5), agents)
        values = [day["main"] for day in trajectory.k_by_day if day["main"] is not None]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_pool_event_jump_factor(self):
        agents = [fixed(f"f{i}", 1.0, ["p1"]) for i in range(6)]
        config = one_category_config(
            projects=("p1",),
            pool=120.0,
            days=6,
            seed=2,
            events=[PoolEvent(3, "main", 150.0)],
        )
        trajectory = run_round(config, agents)
        jump = trajectory.event_jumps[0]
        assert jump.day == 3
        assert jump.k_before is not None
        assert jump.k_after == pytest.approx(jump.k_before * 120.0 / 150.0, rel=1e-12)
        assert jump.k_after == pytest.approx(jump.k_before * 0.8, rel=1e-12)

    def test_conservation_of_the_pool(self):
        agents = [
            honest("a1", {"p1": 3.0, "p2": 1.0}),
            honest("a2", {"p1": 1.0, "p2": 2.0}),
            fixed("f1", 0.7, ["p1"]),
        ]
        trajectory = run_round(one_category_config(pool=4.0, days=5, seed=7), agents)
        block = trajectory.final_report.categories[0]
        assert not block.degenerate
        spent = math.fsum(p.m_actual for p in block.projects)
        assert spent == pytest.approx(4.0, abs=1e-6)


class TestBudgets:
    def test_overcommitted_fixed_agent_is_a_hard_error(self):
        agent = fixed("f1", 10.0, ["p1", "p2"], budget=5.0)
        with pytest.raises(BudgetBreachError):
            run_round(one_category_config(), [agent])

    def test_spent_agent_is_not_solved(self, monkeypatch):
        solves = []

        def counted(*args):
            solves.append(args)
            return solve_best_contribution(*args)

        monkeypatch.setattr("qfround.roundsim.solve_best_contribution", counted)
        agents = [fixed("f1", 4.0, ["p1"]), fixed("f2", 1.0, ["p1"]), honest("a1", {"p1": 9.0}, budget=1e-13)]
        trajectory = run_round(one_category_config(days=3), agents)
        assert solves == []
        assert {row.contributor_id for row in records_of(trajectory.panel)} == {"f1", "f2"}

    def test_spent_agent_still_rejects_an_infinite_k(self):
        # (sqrt(8e307) + sqrt(8e307))**2 overflows, so day 0's requirement and k are inf
        agents = [fixed("f1", 8e307, ["p2"]), fixed("f2", 8e307, ["p2"]), honest("a1", {"p2": 9.0}, budget=1e-13)]
        with pytest.raises(DomainError, match=r"day 0: category 'main' requires inf of pool 10\.0, so k is not finite"):
            run_round(one_category_config(days=2), agents)

    def test_honest_agent_never_exceeds_budget(self):
        agents = [honest("a1", {"p1": 9.0, "p2": 9.0}, budget=1.5)]
        trajectory = run_round(one_category_config(days=8, seed=3), agents)
        spent = math.fsum(trajectory.panel.amounts)
        assert spent <= 1.5 + 1e-9


class TestNonFiniteK:
    @pytest.mark.parametrize("pool, agents, need", [
        # (sqrt(8e307) + sqrt(8e307))**2 overflows, with and without an agent that reads k
        (10.0, [fixed("f1", 8e307, ["p2"]), fixed("f2", 8e307, ["p2"]), honest("a1", {"p2": 9.0})], "inf"),
        (10.0, [fixed("f1", 8e307, ["p2"]), fixed("f2", 8e307, ["p2"])], "inf"),
        # a finite requirement divided by the pool overflows
        (1e-10, [fixed("f1", 1e300, ["p2"]), fixed("f2", 1e300, ["p2"])], "1.9999999999999995e+300"),
        # three finite requirements of about 8.8e307 sum past the largest float
        (10.0, [fixed(f"{p}-{i}", 4.4e307, [p]) for p in ("p1", "p2", "p3") for i in range(2)], "inf"),
    ], ids=["best_responder", "fixed_only", "tiny_pool", "category_sum"])
    def test_exits_1_naming_the_night(self, pool, agents, need, tmp_path, capsys):
        config = one_category_config(projects=("p1", "p2", "p3"), pool=pool, days=3)
        path = tmp_path / "round.json"
        path.write_text(json.dumps(round_file(config, agents, omit_defaults=True)), encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        message = f"day 0: category 'main' requires {need} of pool {pool!r}, so k is not finite"
        assert capsys.readouterr().err == f"error: {message}\n"


class TestHonestBehavior:
    def test_top_up_toward_target_not_beyond(self):
        # One agent alone on a project: the target is v^2/4 regardless of k.
        agents = [honest("a1", {"p1": 4.0})]
        trajectory = run_round(one_category_config(projects=("p1",), days=5, seed=1), agents)
        total = math.fsum(trajectory.panel.amounts)
        assert total == pytest.approx(4.0, rel=1e-9)

    def test_smaller_pool_never_raises_emissions(self):
        agents = [
            honest("a1", {"p1": 3.0, "p2": 2.0}, activity=0.8),
            honest("a2", {"p1": 2.0, "p2": 3.0}, activity=0.8),
            honest("a3", {"p1": 1.0}, activity=0.8),
        ]
        totals = []
        for pool in (8.0, 2.0, 0.5):
            trajectory = run_round(one_category_config(pool=pool, days=8, seed=11), agents)
            totals.append(math.fsum(trajectory.panel.amounts))
        assert totals[0] >= totals[1] - 1e-9
        assert totals[1] >= totals[2] - 1e-9


class TestColluders:
    def test_ring_splits_budget_across_ring_projects(self):
        agents = [
            colluder("c1", "r", "p1", budget=10.0),
            colluder("c2", "r", "p2", budget=10.0),
        ]
        trajectory = run_round(one_category_config(days=3, seed=1), agents)
        amounts = {}
        for row in records_of(trajectory.panel):
            amounts[(row.contributor_id, row.project_id)] = (
                amounts.get((row.contributor_id, row.project_id), 0.0) + row.amount
            )
        assert amounts[("c1", "p1")] == pytest.approx(5.0)
        assert amounts[("c1", "p2")] == pytest.approx(5.0)
        assert amounts[("c2", "p1")] == pytest.approx(5.0)
        assert amounts[("c2", "p2")] == pytest.approx(5.0)

    def test_grim_trigger_across_rounds(self):
        agents = [
            colluder("c1", "r", "p1", budget=10.0, defects_from_round=1),
            colluder("c2", "r", "p2", budget=10.0),
        ]
        rounds = run_repeated_rounds(one_category_config(days=2, seed=1), agents, 3)

        def totals(trajectory):
            out = {}
            for row in records_of(trajectory.panel):
                out[(row.contributor_id, row.project_id)] = (
                    out.get((row.contributor_id, row.project_id), 0.0) + row.amount
                )
            return out

        first, second, third = map(totals, rounds)
        assert first[("c1", "p2")] == pytest.approx(5.0)  # both cooperate
        assert second[("c1", "p1")] == pytest.approx(10.0)  # c1 defects
        assert second[("c2", "p1")] == pytest.approx(5.0)  # c2 not yet aware
        assert ("c2", "p1") not in third  # trigger fired
        assert third[("c2", "p2")] == pytest.approx(10.0)


class TestOutputs:
    def fixture_trajectory(self):
        agents = [
            fixed(f"f{i}", 1.0, ["p1"], activity=0.7) for i in range(5)
        ] + [fixed("g1", 2.0, ["p2"], activity=0.7)]
        config = one_category_config(
            pool=120.0, days=6, seed=8, events=[PoolEvent(2, "main", 150.0)]
        )
        return run_round(config, agents)

    def test_panel_columns_and_replay(self, tmp_path):
        trajectory = self.fixture_trajectory()
        path = tmp_path / "panel.csv"
        emit_panel(trajectory, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == [
            "day",
            "category",
            "project_id",
            "contributor_id",
            "amount",
            "sqrt_amount",
            "k_at_day",
            "post_event_flag",
            "increase_category_flag",
        ]
        # replay oracle: recompute k from the panel itself
        for row in rows:
            day = int(row["day"])
            contributions = {}
            for other in rows:
                if int(other["day"]) <= day:
                    key = (other["project_id"], other["contributor_id"])
                    contributions[key] = contributions.get(key, 0.0) + float(other["amount"])
            per_project = {}
            for (pid, cid), amount in contributions.items():
                per_project.setdefault(pid, []).append(amount)
            required = 0.0
            for amounts in per_project.values():
                s = math.fsum(math.sqrt(a) for a in amounts)
                required += max(0.0, s * s - math.fsum(amounts))
            pool = 150.0 if day >= 2 else 120.0
            if required > 0:
                assert float(row["k_at_day"]) == pytest.approx(required / pool, rel=1e-9)
            else:
                assert row["k_at_day"] == ""
            assert float(row["sqrt_amount"]) == pytest.approx(
                math.sqrt(float(row["amount"])), rel=1e-12
            )
            assert row["post_event_flag"] == ("1" if day >= 2 else "0")
            assert row["increase_category_flag"] == "1"

    def test_panel_loads_back_through_ingestion(self, tmp_path):
        trajectory = self.fixture_trajectory()
        path = tmp_path / "panel.csv"
        emit_panel(trajectory, path)
        loaded = load_contributions(path)
        assert not loaded.errors
        assert len(loaded.contributions) == len(trajectory.panel)
        total_written = math.fsum(trajectory.panel.amounts)
        total_read = math.fsum(loaded.contributions.amounts)
        assert total_read == total_written

    def test_empty_trajectory_header_only(self, tmp_path):
        trajectory = run_round(one_category_config(), [])
        path = tmp_path / "panel.csv"
        emit_panel(trajectory, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        write_k_series(trajectory, tmp_path / "k.csv")
        assert len((tmp_path / "k.csv").read_text().strip().splitlines()) == 7

    def test_deficit_curve_fit_on_exact_quadratic_data(self, tmp_path):
        # projects with 2..6 equal contributors of the same c: m = (n^2-n)c
        agents = []
        projects = []
        for n in range(2, 7):
            pid = f"q{n}"
            projects.append(pid)
            agents += [fixed(f"{pid}-{i}", 1.5, [pid]) for i in range(n)]
        config = one_category_config(projects=tuple(projects), days=2, pool=30.0, seed=4)
        curve = deficit_curve(run_round(config, agents))
        assert curve.fit is not None
        assert curve.fit.r_squared > 0.999999
        assert curve.fit.a == pytest.approx(1.5, rel=1e-6)
        assert curve.fit.b == pytest.approx(-1.5, rel=1e-6)
        by_project = {p.project_id: p for p in curve.points}
        assert by_project["q3"].m_qf == pytest.approx((9 - 3) * 1.5, rel=1e-12)
        assert by_project["q3"].contributor_count == 3
        write_deficit_curve(curve, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text().startswith("project_id,m_qf,contributor_count")

    def test_deficit_curve_fit_past_the_largest_float_is_absent(self):
        """Requirements up to 3e300 are finite, but their squared deviations are not."""
        projects = tuple(f"q{n}" for n in range(2, 7))
        agents = [fixed(f"{pid}-{i}", 1e299, [pid]) for n, pid in enumerate(projects, 2) for i in range(n)]
        curve = deficit_curve(run_round(one_category_config(projects=projects, days=2, pool=30.0), agents))
        assert max(p.m_qf for p in curve.points) == pytest.approx(3e300, rel=1e-12)
        assert curve.fit is None

    def test_mixed_random_round_has_positive_quadratic_term(self):
        # regression sign check: requirements still bend upward in the
        # contributor count even when amounts are all over the place
        import random as _random

        rng = _random.Random(21)
        agents = []
        projects = []
        for p in range(8):
            pid = f"m{p}"
            projects.append(pid)
            for i in range(rng.randint(1, 10)):
                agents.append(
                    fixed(f"{pid}-{i}", rng.uniform(0.2, 8.0), [pid], activity=0.9)
                )
        config = one_category_config(projects=tuple(projects), days=4, pool=50.0, seed=22)
        curve = deficit_curve(run_round(config, agents))
        assert curve.fit is not None
        assert curve.fit.a > 0.0

    def test_single_contribution_projects_have_zero_deficits(self):
        agents = [fixed("f1", 1.0, ["p1"]), fixed("f2", 2.0, ["p2"])]
        curve = deficit_curve(run_round(one_category_config(days=2, seed=1), agents))
        assert all(p.m_qf == 0.0 for p in curve.points)
        assert curve.fit is None

    def test_scarce_pool_spreads_multipliers_in_simulated_round(self):
        # Fixed contributors keep the ledger pool-independent, so the same
        # round can be re-run with the pool set exactly to the requirement.
        agents = [fixed(f"a{i}", 1.0, ["p1"]) for i in range(4)]
        agents += [fixed("b0", 3.5, ["p2"]), fixed("b1", 0.1, ["p2"])]

        def final_lambda_stdev(pool):
            config = one_category_config(pool=pool, days=3, seed=6)
            block = run_round(config, agents).final_report.categories[0]
            values = [p.lambda_p for p in block.projects]
            mean = sum(values) / len(values)
            return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values)), block.k

        probe_config = one_category_config(pool=1.0, days=3, seed=6)
        requirement = math.fsum(
            p.m_qf for p in run_round(probe_config, agents).final_report.categories[0].projects
        )
        stdev_rich, k_rich = final_lambda_stdev(requirement)
        stdev_poor, k_poor = final_lambda_stdev(requirement / 8.0)
        assert k_rich == pytest.approx(1.0, rel=1e-9)
        assert stdev_rich == pytest.approx(0.0, abs=1e-9)
        assert k_poor > 1.0
        assert stdev_poor > stdev_rich + 1e-4


class TestExactSums:
    """The simulator's running per-project sums read back exactly what an
    ``fsum`` rescan of the ledger gives, bit for bit, and its per-agent
    amounts are those of the final ledgers."""

    PROJECTS = ("p1", "p2", "p3")

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from(PROJECTS),
                st.floats(min_value=1e-300, max_value=1e300) | st.floats(min_value=0.1, max_value=10.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_equal_fsum_rescans(self, emits):
        agents = [fixed(f"a{i}", 1.0, ["p1"], budget=1e308) for i in range(5)]
        state = _RoundState(self.PROJECTS)
        for who, project, amount in emits:
            state.emit(0, agents[who], project, amount)
            ledger = state.amounts[project]
            for contributor in (*ledger, "newcomer"):
                others = [a for cid, a in ledger.items() if cid != contributor]
                expected = (math.fsum(math.sqrt(a) for a in others), math.fsum(others))
                assert state.others(project, ledger.get(contributor, 0.0)) == expected
            for name in self.PROJECTS:
                amounts = state.amounts[name].values()
                sums = (math.fsum(math.sqrt(a) for a in amounts), math.fsum(amounts))
                assert state.shadow[name] == state.others(name, 0.0) == sums
                assert state.requirement(name) == required_match(*sums, len(amounts))
        ledgers = state.panel.ledgers({})
        assert {l.project_id: l.contributor_amounts() for l in ledgers} == state.amounts


def exact_test(state, valuation, k, own) -> bool:
    """The top-up test on the exact sums: the best response is at most ``own``."""
    return foc_lhs(valuation, k, *state.others(valuation.project_id, own), own) <= 1.0


SHADOW_TEST = _RoundState.nothing_to_add
#: How often the checked shadow test below settled a skip (True) or left it open (False).
SHADOW_CALLS = Counter()


def checked_nothing_to_add(state, valuation, k, own) -> bool:
    """``_RoundState.nothing_to_add``, asserting that a skip it settles is one
    the exact test makes too (``run_round`` asks the exact test otherwise)."""
    settled = SHADOW_TEST(state, valuation, k, own)
    SHADOW_CALLS[settled] += 1
    assert not settled or exact_test(state, valuation, k, own)
    return settled


@pytest.fixture(scope="class")
def checked_top_ups():
    """Every top-up test the shadow sums settle is checked against the exact test."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_RoundState, "nothing_to_add", checked_nothing_to_add)
        yield


AMOUNTS = st.floats(min_value=1e-300, max_value=1e300)


class TestShadowTopUps:
    """A top-up test settled from the shadow sums decides as the exact test
    does, on states built to be hard for its error bound."""

    @given(
        own=AMOUNTS,
        others=st.lists(AMOUNTS, max_size=4),
        dominant=st.booleans(),
        k=st.floats(min_value=1e-3, max_value=1e3) | st.sampled_from((1e-3, 0.5, 1.0, 2.0, 1e3)),
        family=st.sampled_from(FAMILIES),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        own_at=st.sampled_from(("drawn", "target", "unit lhs")),
        nudge=st.sampled_from((0.0, 2.0**-52, -(2.0**-52))) | st.floats(min_value=-1e-13, max_value=1e-13),
    )
    @settings(max_examples=1000, deadline=None)
    def test_agrees_with_the_exact_test(self, own, others, dominant, k, family, scale, own_at, nudge):
        """``own`` is drawn, or the best response to the others, or its lhs is
        1 + ``nudge`` (by the choice of scale); with ``dominant``, one other
        agent holds 1e-12 of what ``own`` holds."""
        if dominant:
            others = [own * 1e-12]
        state = _RoundState(("p",))
        agents = [fixed(f"a{i}", 1.0, ["p"], budget=1e308) for i in range(len(others) + 1)]
        for agent, amount in zip(agents[1:], others):
            state.emit(0, agent, "p", amount)
        valuation = Valuation("a0", "p", family, scale)
        if own_at == "target":
            try:
                own = solve_best_contribution(valuation, k, *state.others("p", 0.0))
            except (ArithmeticError, ValueError, DomainError):  # where the solver fails at extremes
                assume(False)
            assume(0.0 < own <= 1e300)
        state.emit(0, agents[0], "p", own)
        own = state.amounts["p"]["a0"]
        if own_at == "unit lhs":
            unit = foc_lhs(Valuation("a0", "p", family, 1.0), k, *state.others("p", own), own)
            assume(0.0 < unit < math.inf and 0.0 < (1.0 + nudge) / unit < math.inf)
            valuation = Valuation("a0", "p", family, (1.0 + nudge) / unit)
        exact = exact_test(state, valuation, k, own)
        assert (state.nothing_to_add(valuation, k, own) or exact) == exact  # run_round's test


#: Spec fields whose round-file key differs from the field name.
FILE_KEYS = {"agent_id": "id", "ring_id": "ring", "project_id": "project"}
POOLS = st.floats(min_value=1.0, max_value=1000.0)


@st.composite
def round_specs(draw):
    """A small valid ``(RoundConfig, agents)``: best-responders (often on
    budgets that bind), fixed agents, colluder rings with and without
    ``defects_from_round``, and pool events."""
    categories, projects = [], []
    for c in range(draw(st.integers(1, 3))):
        names = tuple(f"p{len(projects) + i}" for i in range(draw(st.integers(1, 3))))
        projects += names
        categories.append(CategorySpec(f"c{c}", draw(POOLS), names))
    days = draw(st.integers(1, 6))
    events = draw(st.lists(
        st.builds(PoolEvent, st.integers(0, days - 1), st.sampled_from([c.name for c in categories]), POOLS),
        max_size=3,
    ))
    config = RoundConfig(tuple(categories), days, tuple(events), draw(st.integers(0, 2**31)))
    agents = []
    kinds = draw(st.lists(st.sampled_from(("responder", "fixed", "colluder")), max_size=8))
    for i, kind in enumerate(kinds):
        agent_id = f"a{i}"
        budget = draw(st.floats(min_value=0.01, max_value=50.0))
        activity = draw(st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=1.0))
        if kind == "responder":
            targets = draw(st.lists(st.sampled_from(projects), min_size=1, max_size=3, unique=True))
            valuations = tuple(
                Valuation(agent_id, p, draw(st.sampled_from(FAMILIES)), draw(st.floats(0.1, 20.0)))
                for p in targets
            )
            agents.append(AgentSpec(agent_id, "honest", budget, activity, valuations))
        elif kind == "fixed":
            targets = tuple(draw(st.lists(st.sampled_from(projects), min_size=1, max_size=3)))
            amount = budget / len(targets) / draw(st.floats(1.0, 3.0))
            agents.append(AgentSpec(agent_id, "honest", budget, activity, fixed_amount=amount, projects=targets))
        else:
            agents.append(AgentSpec(
                agent_id, "reciprocal_colluder", budget, activity,
                ring_id=draw(st.sampled_from(("r0", "r1"))),
                own_project=draw(st.sampled_from(projects)),
                defects_from_round=draw(st.none() | st.integers(0, 3)),
            ))
    return config, agents


def round_file(config, agents, omit_defaults: bool) -> dict:
    """The round file that describes ``config`` and ``agents``; a field at
    its default is left out when ``omit_defaults`` is set, and a None never
    written."""

    def encode(value):
        if isinstance(value, tuple):
            return [encode(item) for item in value]
        if not is_dataclass(value):
            return value
        data = {}
        for field in fields(value):
            item = getattr(value, field.name)
            if item is None or field.name == "contributor_id":
                continue
            if omit_defaults and field.default is not MISSING and item == field.default:
                continue
            data[FILE_KEYS.get(field.name, field.name)] = encode(item)
        return data

    return {**encode(config), "agents": [encode(agent) for agent in agents]}


SIMULATE_OUTPUTS = ("k_daily.csv", "panel.csv", "deficit_curve.csv", "allocation_report.json")


def simulate(directory, config, agents) -> tuple[str, dict[str, bytes]]:
    """``qfround simulate`` on the round file of ``config`` and ``agents``:
    stdout, and the bytes of each output file."""
    path = directory / "round.json"
    path.write_text(json.dumps(round_file(config, agents, omit_defaults=True)), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["simulate", "--config", str(path), "--out-dir", str(directory / "out")]) == 0
    outputs = {name: (directory / "out" / name).read_bytes() for name in SIMULATE_OUTPUTS}
    return stdout.getvalue(), outputs


@pytest.mark.usefixtures("checked_top_ups")
class TestGeneratedRounds:
    """Properties of random valid round files: the reader gives back the
    specs the file was written from, and the simulator keeps every agent
    within budget, spends each pool it matches with, is a function of
    its seed, and writes outputs that agree with each other.  Every top-up
    test the shadow sums settle is checked against the exact test."""

    @given(specs=round_specs(), omit_defaults=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_round_file_reads_back_as_its_specs(self, specs, omit_defaults, tmp_path_factory):
        config, agents = specs
        path = tmp_path_factory.mktemp("round") / "round.json"
        path.write_text(json.dumps(round_file(config, agents, omit_defaults)), encoding="utf-8")
        assert load_simulation_file(path) == (config, agents)

    @given(specs=round_specs())
    @settings(max_examples=100, deadline=None)
    def test_budgets_hold_and_pools_balance(self, specs):
        config, agents = specs
        trajectory = run_round(config, agents)
        spent = {}
        for record in records_of(trajectory.panel):
            spent.setdefault(record.contributor_id, []).append(record.amount)
        for agent in agents:
            assert math.fsum(spent.get(agent.agent_id, ())) <= agent.budget * (1.0 + 1e-9)
        for block in trajectory.final_report.categories:
            paid = math.fsum(p.m_actual for p in block.projects)
            assert paid == (0.0 if block.degenerate else pytest.approx(block.pool, abs=1e-6))

    @given(specs=round_specs())
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_bytes(self, specs, tmp_path_factory):
        config, agents = specs
        first, second = tmp_path_factory.mktemp("a"), tmp_path_factory.mktemp("b")
        stdout_a, outputs_a = simulate(first, config, agents)
        stdout_b, outputs_b = simulate(second, config, agents)
        assert outputs_a == outputs_b
        assert stdout_a.replace(str(first), "") == stdout_b.replace(str(second), "")

    @given(specs=round_specs())
    @settings(max_examples=60, deadline=None)
    def test_outputs_replay_from_the_panel(self, specs, tmp_path_factory):
        """The panel loads back into the final ledgers, and each k_daily row
        is that night's requirement, recomputed from the panel, over the
        pool in force."""
        config, agents = specs
        directory = tmp_path_factory.mktemp("round")
        simulate(directory, config, agents)
        loaded = load_contributions(directory / "out" / "panel.csv")
        assert not loaded.errors
        pools = {c.name: c.pool for c in config.categories}
        for event in sorted(config.pool_events, key=lambda e: e.day):
            pools[event.category] = event.new_pool
        replayed = build_report(loaded.contributions.ledgers(loaded.project_categories), pools, strict=False)
        final = json.loads((directory / "out" / "allocation_report.json").read_text())
        by_project = {p["project_id"]: p for block in final["categories"] for p in block["projects"]}
        replayed_ids = set()
        for block in replayed.to_json_dict()["categories"]:
            for project in block["projects"]:
                replayed_ids.add(project["project_id"])
                assert project == by_project[project["project_id"]]
        assert all(p["contributors"] == 0 for pid, p in by_project.items() if pid not in replayed_ids)

        with open(directory / "out" / "k_daily.csv", newline="") as handle:
            k_rows = {(int(r["day"]), r["category"]): r["k"] for r in csv.DictReader(handle)}
        with open(directory / "out" / "panel.csv", newline="") as handle:
            panel = [(int(r["day"]), r["project_id"], r["contributor_id"], float(r["amount"]))
                     for r in csv.DictReader(handle)]
        assert len(k_rows) == config.duration_days * len(config.categories)
        pools = {c.name: c.pool for c in config.categories}
        for day in range(config.duration_days):
            for event in config.pool_events:
                if event.day == day:
                    pools[event.category] = event.new_pool
            records = {}
            for when, project, contributor, amount in panel:
                if when <= day:
                    records.setdefault(project, {}).setdefault(contributor, []).append(amount)
            for category in config.categories:
                required = []
                for project in category.projects:
                    amounts = [math.fsum(a) for a in records.get(project, {}).values()]
                    required.append(required_match(
                        math.fsum(math.sqrt(a) for a in amounts), math.fsum(amounts), len(amounts)
                    ))
                need = math.fsum(required)
                expected = repr(need / pools[category.name]) if need > 0.0 else ""
                assert k_rows[(day, category.name)] == expected


#: Agents no spec takes, each read as its own fault: not an object, a missing
#: key, an unknown key, a value of the wrong type, a fault of the spec itself.
BAD_AGENTS = (
    ["bad-list"],
    {"id": "bad-missing"},
    {"id": "bad-key", "kind": "honest", "budget": 1.0, "colour": 1},
    {"id": "bad-type", "kind": "honest", "budget": 1.0, "valuations": [{"project": 5, "family": "sqrt", "scale": 1}]},
    {"id": "bad-budget", "kind": "honest", "budget": -1, "valuations": [{"project": "p0", "family": "sqrt", "scale": 1}]},
)
#: Round keys no config takes, each its own fault.
BAD_CONFIG = (("duration_days", 0), ("seed", "x"), ("colour", 1), ("categories", {}), ("pool_events", [1]))
#: Other ``"agents"`` values: two lists of agents, then values that are not.
OTHER_AGENTS = (
    [], [{"id": "other", "kind": "honest", "budget": 1.0, "fixed_amount": 1.0, "projects": ["p0"]}],
    {}, "", "ab", None, 7, [1], [BAD_AGENTS[1]], {"a": [BAD_AGENTS[2]]},
)
ROUND_FAULTS = (
    "none", "repeated agents", "truncated", "inserted", "replaced", "trailing", "not an object",
    "bad agent", "bad agent then syntax", "bad agent and config",
)


def round_text(pairs, compact: bool) -> str:
    """A JSON object of ``(key, value)`` ``pairs``, where a key may repeat;
    ``indent=1`` unless ``compact``."""
    if compact:
        return "{" + ",".join(f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}" for k, v in pairs) + "}"
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v, indent=1)}" for k, v in pairs) + "\n}"


def load_outcome(load, path):
    """What ``load(path)`` returns, or the type and message of what it raises."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


class TestRoundFileReference:
    """``load_simulation_file`` returns the specs the whole-tree reader in
    ``round_reference`` returns, or raises the same exception with the same
    message, on valid round files in any key order and layout and on
    malformed ones."""

    @given(specs=round_specs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_specs_or_same_fault(self, specs, data, tmp_path_factory):
        config, agent_specs = specs
        document = round_file(config, agent_specs, data.draw(st.booleans(), label="omit_defaults"))
        agents = document.pop("agents")
        pairs = list(document.items())
        fault = data.draw(st.sampled_from(ROUND_FAULTS), label="fault")
        if fault.startswith("bad agent"):
            for bad in data.draw(st.lists(st.sampled_from(BAD_AGENTS), min_size=1, max_size=2), label="bad"):
                agents.insert(data.draw(st.integers(0, len(agents))), bad)
        if fault == "bad agent and config":
            key, value = data.draw(st.sampled_from(BAD_CONFIG), label="config fault")
            pairs = [pair for pair in pairs if pair[0] != key]
            pairs.insert(data.draw(st.integers(0, len(pairs))), (key, value))
        pairs.insert(data.draw(st.integers(0, len(pairs)), label="agents at"), ("agents", agents))
        if fault == "repeated agents":
            value = data.draw(st.sampled_from(OTHER_AGENTS), label="other agents")
            pairs.insert(data.draw(st.integers(0, len(pairs)), label="repeat at"), ("agents", value))
        text = round_text(pairs, compact=data.draw(st.booleans(), label="compact"))
        if fault == "truncated":
            text = text[: data.draw(st.integers(0, len(text) - 1), label="cut at")]
        elif fault in ("inserted", "replaced", "bad agent then syntax"):
            start = text.find('"bad-') + 1 if fault == "bad agent then syntax" else 0
            # often at a structural character, where a lax reader would slip
            marks = [at for at in range(start, len(text)) if text[at] in '{}[],:"']
            at = data.draw(st.sampled_from(marks) | st.integers(start, len(text) - 1), label="at")
            char = data.draw(st.sampled_from(("", ",", "}", '"', ":", "x", "t")), label="char")
            text = text[:at] + char + text[at + (fault == "replaced"):]
        elif fault == "trailing":
            text += data.draw(st.sampled_from((" \n", "x", "{}", ",", " 1", "]")), label="trailing")
        elif fault == "not an object":
            text = json.dumps(data.draw(st.sampled_from((agents, 1, "round", None, [1, 2], [{}])), label="top"))
        if data.draw(st.booleans(), label="crlf"):
            text = text.replace("\n", "\r\n")
        if data.draw(st.booleans(), label="bom"):
            text = "\ufeff" + text
        path = tmp_path_factory.mktemp("round") / "round.json"
        path.write_bytes(text.encode("utf-8"))
        expected = load_outcome(round_reference.load_simulation_file, path)
        assert load_outcome(load_simulation_file, path) == expected
        if fault == "none":
            assert expected == (config, agent_specs)

    def test_every_offset(self, tmp_path):
        """A small round file cut, or with a character deleted, replaced or
        inserted, at every offset."""
        config, agents = FIXED_AND_COLLUDERS
        agents = [*agents, honest("a0", {"p1": 2.0, "p3": 0.5})]
        document = round_file(config, agents, omit_defaults=True)
        text = json.dumps({"seed": document.pop("seed"), "agents": document.pop("agents"), **document}, indent=1)
        path = tmp_path / "round.json"
        edits = [(char, cut) for char in ',}":x' for cut in (0, 1)] + [("", 1)]
        for at in range(len(text) + 1):
            for variant in (text[:at], *(text[:at] + char + text[at + cut:] for char, cut in edits)):
                path.write_text(variant, encoding="utf-8")
                expected = load_outcome(round_reference.load_simulation_file, path)
                assert load_outcome(load_simulation_file, path) == expected, variant


class TestLoadMemory:
    """tracemalloc traces every object the reader makes, so the traced peak
    of one ``load_simulation_file`` counts the file's text, the specs made so
    far and whatever decoded JSON it holds at once."""

    @pytest.fixture(scope="class")
    def round_path(self, tmp_path_factory):
        """2,000 honest agents with 5 valuations each over 40 projects, written
        with ``indent=1`` as the ``round_2k`` benchmark input is."""
        rng = random.Random(2000)
        names = ("apps", "infra", "tools", "docs")
        projects = [f"{name}-{j}" for name in names for j in range(10)]
        categories = [{"name": name, "pool": 7.5e6, "projects": projects[10 * i: 10 * i + 10]} for i, name in enumerate(names)]
        agents = [
            {"id": f"agent-{i:04d}", "kind": "honest", "budget": float(rng.randrange(800, 4001, 50)),
             "activity": round(rng.uniform(0.4, 0.6), 3),
             "valuations": [{"project": project, "family": "log" if rng.random() < 0.15 else "sqrt",
                             "scale": round(rng.uniform(18.0, 55.0), 2)} for project in rng.sample(projects, 5)]}
            for i in range(2000)
        ]
        path = tmp_path_factory.mktemp("memory") / "round.json"
        document = {"seed": 1, "duration_days": 20, "categories": categories, "agents": agents}
        path.write_text(json.dumps(document, indent=1), encoding="utf-8")
        load_simulation_file(path)  # the first call's one-time allocations stay out of the peak
        return path

    # Measured at 1,421-1,758 bytes per agent on Python 3.10-3.13 (1,477 on
    # 3.11); decoding the whole file with json.load before converting it,
    # with a copy of each string per valuation, took 2,601-3,379.
    def test_peak_bytes_per_agent(self, round_path):
        tracemalloc.start()
        try:
            _config, agents = load_simulation_file(round_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(agents) == 2000
        assert peak / len(agents) <= 1935


def final_ledgers(config, agents):
    """``run_round``'s trajectory and the final ledgers it built its report from."""
    built = []

    def spy(ledgers, pools, **kwargs):
        built.append(ledgers)
        return build_report(ledgers, pools, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roundsim, "build_report", spy)
        trajectory = run_round(config, agents)
    [ledgers] = built
    return trajectory, ledgers


def two_category_config(days, events=(), pool=10.0):
    categories = (CategorySpec("c0", pool, ("p0", "p1")), CategorySpec("c1", pool, ("p2", "p3")))
    return RoundConfig(categories, days, tuple(PoolEvent(day, "c0", new) for day, new in events), 5)


#: a0 pays p0 on day 0, where its log valuation of p1 (marginal 0.5 alone) adds
#: nothing; a1 then pays p1, and a0 tops p1 up on day 1, behind a1.
LATER_AGENT_FIRST = (two_category_config(2), [
    AgentSpec("a0", "honest", 50.0, valuations=(Valuation("a0", "p0", "sqrt", 5.0), Valuation("a0", "p1", "log", 0.5))),
    fixed("a1", 1.0, ["p1"]),
])
#: Each rise of the pool lowers the next night's k, so both best-responders pay p0
#: on day 0 and top it up on days 2 and 3: three records each.
REPEATED_TOP_UPS = (two_category_config(4, events=[(1, 10.0), (2, 100.0), (3, 1000.0)], pool=1.0), [
    honest("a0", {"p0": 3.0}),
    AgentSpec("a1", "honest", 50.0, valuations=(Valuation("a1", "p0", "log", 3.0),)),
])
FIXED_AND_COLLUDERS = (two_category_config(3), [
    fixed("f0", 2.0, ["p2", "p0", "p2"]),
    colluder("r0-a", "r0", "p0"),
    colluder("r0-b", "r0", "p2", budget=4.0),
    fixed("f1", 0.5, ["p0", "p1"], activity=0.5),
    colluder("r1-a", "r1", "p1"),
])
#: p2 and p3, all of category c1, are funded by nobody.
UNFUNDED_PROJECTS = (two_category_config(2), [honest("a0", {"p0": 2.0}), fixed("f0", 1.0, ["p0", "p1"])])


class TestFinalLedgers:
    """``run_round`` builds its final ledgers from the round state; they equal
    ``ContributionColumns.ledgers`` of its panel field for field, order included."""

    @given(specs=round_specs())
    @example(specs=LATER_AGENT_FIRST)
    @example(specs=REPEATED_TOP_UPS)
    @example(specs=FIXED_AND_COLLUDERS)
    @example(specs=UNFUNDED_PROJECTS)
    @settings(max_examples=100, deadline=None)
    def test_equal_the_panel_ledgers(self, specs):
        config, agents = specs
        trajectory, ledgers = final_ledgers(config, agents)
        assert ledgers == trajectory.panel.ledgers(config.project_category())

    def test_examples_reach_their_cases(self):
        trajectory, ledgers = final_ledgers(*LATER_AGENT_FIRST)
        assert [records.contributor_id for records in records_of(trajectory.panel)] == ["a0", "a1", "a0"]
        assert ledgers[1].contributors == ("a0", "a1")
        trajectory, ledgers = final_ledgers(*REPEATED_TOP_UPS)
        assert Counter(record.contributor_id for record in records_of(trajectory.panel)) == {"a0": 3, "a1": 3}
        assert ledgers[0].total == math.fsum(trajectory.panel.amounts)
        trajectory, ledgers = final_ledgers(*UNFUNDED_PROJECTS)
        assert [ledger.contributors for ledger in ledgers[2:]] == [(), ()]

    def test_records_past_the_largest_float_raise(self):
        agents = [fixed(f, 1e308, ["p1"], budget=1e308) for f in ("f1", "f2")]
        with pytest.raises(DomainError, match="contributions to project 'p1' sum past the largest float"):
            run_round(one_category_config(days=1), agents)

    def test_records_past_the_largest_float_raise_where_their_per_agent_sums_do_not(self):
        """Each agent's two records round to its first, so the agents' amounts sum to
        the largest float, while the four records sum past it."""
        agents = [fixed(f, 1.0, ["p1"], budget=sys.float_info.max) for f in ("a", "b")]
        state = _RoundState(("p1",))
        for agent, amount in ((agents[0], 2.0**1023), (agents[0], 2.0**969),
                              (agents[1], 2.0**1023 - 2.0**971), (agents[1], 2.0**969)):
            state.emit(0, agent, "p1", amount)
        assert state.shadow["p1"][1] == sys.float_info.max
        message = "contributions to project 'p1' sum past the largest float"
        with pytest.raises(DomainError, match=message):
            state.panel.ledgers({})
        with pytest.raises(DomainError, match=message):
            state.ledger("p1", "")
