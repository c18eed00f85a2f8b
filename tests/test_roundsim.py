"""Tests for the day-by-day round engine."""

import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfround.equilibrium import Valuation
from qfround.errors import BudgetBreachError, DomainError
from qfround.funding import required_match
from qfround.ledger import load_contributions
from qfround.roundsim import (
    AgentSpec,
    CategorySpec,
    PoolEvent,
    RoundConfig,
    _RoundState,
    deficit_curve,
    emit_panel,
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
        days_a = [row.day for row in a.panel]
        days_b = [row.day for row in b.panel]
        assert days_a != days_b or a.panel == b.panel


class TestTrajectoryShape:
    def test_zero_agents_flat_with_undefined_k(self):
        trajectory = run_round(one_category_config(), [])
        assert len(trajectory.k_by_day) == 6
        assert all(day["main"] is None for day in trajectory.k_by_day)
        assert trajectory.panel == ()
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
        for row in trajectory.panel:
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

    def test_lambda_snapshot_present_once_matchable(self):
        agents = [fixed(f"f{i}", 1.0, ["p1"]) for i in range(3)]
        trajectory = run_round(one_category_config(projects=("p1",), days=4, seed=1), agents)
        last = trajectory.lambda_by_day[-1]
        assert last["p1"] is not None and last["p1"] > 0


class TestBudgets:
    def test_overcommitted_fixed_agent_is_a_hard_error(self):
        agent = fixed("f1", 10.0, ["p1", "p2"], budget=5.0)
        with pytest.raises(BudgetBreachError):
            run_round(one_category_config(), [agent])

    def test_honest_agent_never_exceeds_budget(self):
        agents = [honest("a1", {"p1": 9.0, "p2": 9.0}, budget=1.5)]
        trajectory = run_round(one_category_config(days=8, seed=3), agents)
        spent = math.fsum(row.amount for row in trajectory.panel)
        assert spent <= 1.5 + 1e-9


class TestHonestBehavior:
    def test_top_up_toward_target_not_beyond(self):
        # One agent alone on a project: the target is v^2/4 regardless of k.
        agents = [honest("a1", {"p1": 4.0})]
        trajectory = run_round(one_category_config(projects=("p1",), days=5, seed=1), agents)
        total = math.fsum(row.amount for row in trajectory.panel)
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
            totals.append(math.fsum(row.amount for row in trajectory.panel))
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
        for row in trajectory.panel:
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
            for row in trajectory.panel:
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
        total_written = math.fsum(r.amount for r in trajectory.panel)
        total_read = math.fsum(r.amount for r in loaded.contributions)
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
    ``fsum`` rescan of the ledger gives, bit for bit."""

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
                assert state.requirement(name) == required_match(
                    math.fsum(math.sqrt(a) for a in amounts), math.fsum(amounts), len(amounts)
                )
