"""Multi-day grant-round engine.

Each simulated day runs in four steps: pool events fire, agents act, the
per-category scaling constant k is recomputed from the cumulative ledger,
and the day is recorded.  Agents observe k with a one-day lag (they react
to last night's published estimate, never to a same-day recomputation);
on day 0, before any estimate exists, they assume k = 1.

Honest agents re-derive a target contribution per valued project from the
first-order condition each active day and top up toward it; contributions
are irrevocable, so rising k shows up as agents ceasing to add rather than
withdrawing.  Fixed agents emit a set amount once.  Reciprocal colluders
split their budget evenly across all their ring's projects on their first
active day, or dump it on their own project when defecting; across
repeated rounds a grim trigger makes a ring stop cooperating after the
first observed defection.

Activity is a per-day Bernoulli draw from the agent's propensity with a
seeded generator, so identical (config, agents, seed) reproduce the
trajectory bit for bit.
"""

from __future__ import annotations

import math
import random
from collections.abc import Collection, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .efficiency import lambda_from_amounts
from .equilibrium import Valuation, solve_best_contribution
from .errors import BudgetBreachError, DomainError
from .funding import Contribution, group_ledgers, required_match
from .ledger import CONTRIBUTIONS_COLUMNS, write_rows
from .report import AllocationReport, build_report

__all__ = [
    "CategorySpec",
    "PoolEvent",
    "RoundConfig",
    "AgentSpec",
    "EventJump",
    "RoundTrajectory",
    "QuadraticFit",
    "DeficitCurve",
    "run_round",
    "run_repeated_rounds",
    "deficit_curve",
    "emit_panel",
    "write_k_series",
    "write_deficit_curve",
]

PANEL_COLUMNS = CONTRIBUTIONS_COLUMNS + (
    "sqrt_amount",
    "k_at_day",
    "post_event_flag",
    "increase_category_flag",
)


@dataclass(frozen=True)
class CategorySpec:
    name: str
    pool: float
    projects: tuple[str, ...]


@dataclass(frozen=True)
class PoolEvent:
    day: int
    category: str
    new_pool: float


@dataclass(frozen=True)
class RoundConfig:
    categories: tuple[CategorySpec, ...]
    duration_days: int
    pool_events: tuple[PoolEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_days < 1:
            raise DomainError(f"duration must be at least one day, got {self.duration_days!r}")
        seen: set[str] = set()
        names = set()
        for category in self.categories:
            if category.name in names:
                raise DomainError(f"duplicate category {category.name!r}")
            names.add(category.name)
            if not math.isfinite(category.pool) or category.pool <= 0:
                raise DomainError(f"pool for {category.name!r} must be positive and finite")
            for project in category.projects:
                if project in seen:
                    raise DomainError(f"project {project!r} appears in more than one category")
                seen.add(project)
        for event in self.pool_events:
            if not 0 <= event.day < self.duration_days:
                raise DomainError(f"pool event day {event.day!r} outside the round")
            if event.category not in names:
                raise DomainError(f"pool event for unknown category {event.category!r}")
            if not math.isfinite(event.new_pool) or event.new_pool <= 0:
                raise DomainError("pool event must set a positive and finite pool")

    def project_category(self) -> dict[str, str]:
        return {p: c.name for c in self.categories for p in c.projects}


@dataclass(frozen=True)
class AgentSpec:
    """One simulated contributor.

    ``honest`` agents either best-respond through their valuations or, with
    ``fixed_amount`` set, pay that amount once to each listed project.
    ``reciprocal_colluder`` agents belong to a ring (grouped by ring_id)
    and own one project in it.
    """

    agent_id: str
    kind: str
    budget: float
    activity: float = 1.0
    valuations: tuple[Valuation, ...] = ()
    fixed_amount: float | None = None
    projects: tuple[str, ...] = ()
    ring_id: str = ""
    own_project: str = ""
    defects_from_round: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("honest", "reciprocal_colluder"):
            raise DomainError(f"unknown agent kind {self.kind!r}")
        if not math.isfinite(self.budget) or self.budget <= 0:
            raise DomainError(f"budget must be positive and finite, got {self.budget!r}")
        if not 0.0 <= self.activity <= 1.0:
            raise DomainError(f"activity must be in [0, 1], got {self.activity!r}")
        if self.kind == "honest":
            if self.fixed_amount is not None:
                if not 0.0 < self.fixed_amount < math.inf or not self.projects:
                    raise DomainError(
                        "fixed agents need a positive and finite amount and target projects"
                    )
            elif not self.valuations:
                raise DomainError(f"honest agent {self.agent_id!r} has no valuations")
        else:
            if not self.ring_id or not self.own_project:
                raise DomainError(f"colluder {self.agent_id!r} needs ring_id and own_project")


@dataclass(frozen=True)
class EventJump:
    day: int
    category: str
    old_pool: float
    new_pool: float
    k_before: float | None
    k_after: float | None


@dataclass(frozen=True)
class RoundTrajectory:
    config: RoundConfig
    k_by_day: tuple[dict[str, float | None], ...]
    m_qf_by_day: tuple[dict[str, float], ...]
    lambda_by_day: tuple[dict[str, float | None], ...]
    panel: tuple[Contribution, ...]
    event_jumps: tuple[EventJump, ...]
    final_report: AllocationReport


#: 2**1074: the exact sums count units of 2**-1074, the smallest positive float.
_UNITS = 1 << 1074


def _exact(x: float) -> int:
    """``x`` exactly, in units of 2**-1074 (every finite float is a whole number of them)."""
    numerator, denominator = x.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


class _RoundState:
    """The round's ledgers with exact per-project sums of sqrt(amount) and amount.

    The sums are ints in units of 2**-1074, so they carry no rounding error;
    int / int true division rounds correctly, as ``math.fsum`` does, so a sum
    read back equals an ``fsum`` rescan of the ledger bit for bit.
    """

    def __init__(self, projects: Collection[str]):
        self.amounts: dict[str, dict[str, float]] = {p: {} for p in projects}
        self.sqrt_sums: dict[str, int] = dict.fromkeys(projects, 0)
        self.totals: dict[str, int] = dict.fromkeys(projects, 0)
        self.spent: dict[str, float] = {}
        self.panel: list[Contribution] = []

    def emit(self, day: int, agent: AgentSpec, project: str, amount: float) -> None:
        if amount <= 0.0:
            return
        already = self.spent.get(agent.agent_id, 0.0)
        if already + amount > agent.budget * (1.0 + 1e-9):
            raise BudgetBreachError(
                f"agent {agent.agent_id!r} would emit {already + amount!r} of budget {agent.budget!r}"
            )
        self.spent[agent.agent_id] = already + amount
        ledger = self.amounts[project]
        old = ledger.get(agent.agent_id, 0.0)
        new = ledger[agent.agent_id] = old + amount
        self.sqrt_sums[project] += _exact(math.sqrt(new)) - _exact(math.sqrt(old))
        self.totals[project] += _exact(new) - _exact(old)
        self.panel.append(Contribution(agent.agent_id, project, amount, day))

    def remaining(self, agent: AgentSpec) -> float:
        return agent.budget - self.spent.get(agent.agent_id, 0.0)

    def others(self, project: str, own: float) -> tuple[float, float]:
        """Square-root sum and plain sum of the project's ledger without ``own``."""
        return (
            (self.sqrt_sums[project] - _exact(math.sqrt(own))) / _UNITS,
            (self.totals[project] - _exact(own)) / _UNITS,
        )

    def requirement(self, project: str) -> float:
        return required_match(*self.others(project, 0.0), len(self.amounts[project]))


def _k(required: float, pool: float) -> float | None:
    """The scaling constant; undefined (None) while nothing needs a match."""
    return required / pool if required > 0.0 else None


def _ring_projects(agents: Sequence[AgentSpec]) -> dict[str, tuple[str, ...]]:
    rings: dict[str, list[str]] = {}
    for agent in agents:
        if agent.kind == "reciprocal_colluder":
            rings.setdefault(agent.ring_id, []).append(agent.own_project)
    return {ring: tuple(sorted(projects)) for ring, projects in rings.items()}


def run_round(
    config: RoundConfig,
    agents: Sequence[AgentSpec],
    *,
    defecting_agents: Collection[str] = (),
) -> RoundTrajectory:
    """Simulate one round day by day; deterministic given (config, agents, seed).

    ``defecting_agents`` lists colluders that abandon ring cooperation for
    this round (used by the repeated-round driver's trigger logic).
    """
    known = config.project_category()
    state = _RoundState(known)
    pools = {c.name: float(c.pool) for c in config.categories}
    rings = _ring_projects(agents)
    for agent in agents:
        if agent.kind == "reciprocal_colluder":
            if agent.own_project not in known:
                raise DomainError(
                    f"colluder {agent.agent_id!r} owns unknown project {agent.own_project!r}"
                )
        else:
            for project in agent.projects + tuple(v.project_id for v in agent.valuations):
                if project not in known:
                    raise DomainError(
                        f"agent {agent.agent_id!r} targets unknown project {project!r}"
                    )

    rng = random.Random(config.seed)
    observed_k: dict[str, float] = {c.name: 1.0 for c in config.categories}
    # Each category's requirement at the last night; nothing is emitted
    # between a night and the next morning's pool events.
    required: dict[str, float] = {c.name: 0.0 for c in config.categories}
    one_shot_done: set[str] = set()
    k_by_day: list[dict[str, float | None]] = []
    m_by_day: list[dict[str, float]] = []
    lambda_by_day: list[dict[str, float | None]] = []
    jumps: list[EventJump] = []

    for day in range(config.duration_days):
        for event in config.pool_events:
            if event.day != day:
                continue
            need, old_pool = required[event.category], pools[event.category]
            pools[event.category] = event.new_pool
            k_before, k_after = _k(need, old_pool), _k(need, event.new_pool)
            jumps.append(EventJump(day, event.category, old_pool, event.new_pool, k_before, k_after))

        for agent in agents:
            draw = rng.random()  # always drawn so the stream stays aligned
            if draw >= agent.activity:
                continue
            if agent.kind == "reciprocal_colluder" or agent.fixed_amount is not None:
                if agent.agent_id in one_shot_done:
                    continue
                one_shot_done.add(agent.agent_id)
            if agent.kind == "reciprocal_colluder":
                if agent.agent_id in defecting_agents:
                    state.emit(day, agent, agent.own_project, min(agent.budget, state.remaining(agent)))
                else:
                    targets = rings[agent.ring_id]
                    share = agent.budget / len(targets)
                    for project in targets:
                        state.emit(day, agent, project, min(share, state.remaining(agent)))
            elif agent.fixed_amount is not None:
                for project in agent.projects:
                    state.emit(day, agent, project, agent.fixed_amount)
            else:
                for valuation in sorted(agent.valuations, key=lambda v: v.project_id):
                    project = valuation.project_id
                    own = state.amounts[project].get(agent.agent_id, 0.0)
                    s_others, c_others = state.others(project, own)
                    k_obs = observed_k[known[project]]
                    target = solve_best_contribution(
                        valuation, k_obs, s_others, c_others, hi_hint=max(1.0, 2.0 * own)
                    )
                    top_up = min(target - own, state.remaining(agent))
                    if top_up > 1e-12:
                        state.emit(day, agent, project, top_up)

        m_qf = {p: state.requirement(p) for p in sorted(known)}
        for category in config.categories:
            required[category.name] = math.fsum(m_qf[p] for p in category.projects)
        nightly = {name: _k(need, pools[name]) for name, need in required.items()}
        k_by_day.append(nightly)
        m_by_day.append(m_qf)
        snapshot: dict[str, float | None] = {}
        for project in sorted(known):
            k_cat = nightly[known[project]]
            ledger = state.amounts[project]
            if k_cat is None or not ledger:
                snapshot[project] = None
            else:
                snapshot[project] = lambda_from_amounts(ledger.values(), k_cat)
        lambda_by_day.append(snapshot)
        observed_k.update((name, k) for name, k in nightly.items() if k is not None)

    ledgers = group_ledgers(state.panel, known, known)
    final_report = build_report(ledgers, pools, strict=False)
    return RoundTrajectory(
        config=config,
        k_by_day=tuple(k_by_day),
        m_qf_by_day=tuple(m_by_day),
        lambda_by_day=tuple(lambda_by_day),
        panel=tuple(state.panel),
        event_jumps=tuple(jumps),
        final_report=final_report,
    )


def run_repeated_rounds(
    config: RoundConfig,
    agents: Sequence[AgentSpec],
    n_rounds: int,
) -> list[RoundTrajectory]:
    """Run the round repeatedly with grim-trigger ring cooperation.

    A colluder defects in round r when its ``defects_from_round`` is <= r;
    once any member of a ring has defected, the other members never
    cooperate again.  Round r uses seed config.seed + r.
    """
    if n_rounds < 1:
        raise DomainError(f"need at least one round, got {n_rounds!r}")
    triggered: set[str] = set()
    trajectories = []
    for round_index in range(n_rounds):
        defectors = {
            agent.agent_id
            for agent in agents
            if agent.kind == "reciprocal_colluder"
            and (
                agent.ring_id in triggered
                or (agent.defects_from_round is not None and agent.defects_from_round <= round_index)
            )
        }
        round_config = replace(config, seed=config.seed + round_index)
        trajectories.append(run_round(round_config, agents, defecting_agents=defectors))
        for agent in agents:
            if agent.kind == "reciprocal_colluder" and agent.agent_id in defectors:
                triggered.add(agent.ring_id)
    return trajectories


@dataclass(frozen=True)
class QuadraticFit:
    a: float
    b: float
    c: float
    r_squared: float


@dataclass(frozen=True)
class DeficitPoint:
    project_id: str
    m_qf: float
    contributor_count: int


@dataclass(frozen=True)
class DeficitCurve:
    points: tuple[DeficitPoint, ...]
    fit: QuadraticFit | None


def deficit_curve(trajectory: RoundTrajectory) -> DeficitCurve:
    """Final per-project requirement vs contributor count, with a quadratic fit."""
    points = []
    for block in trajectory.final_report.categories:
        for project in block.projects:
            points.append(DeficitPoint(project.project_id, project.m_qf, project.contributor_count))
    points.sort(key=lambda p: p.project_id)
    xs = np.array([p.contributor_count for p in points], dtype=float)
    ys = np.array([p.m_qf for p in points], dtype=float)
    fit = None
    if len(points) >= 3 and len(set(xs.tolist())) >= 3:
        coeffs = np.polyfit(xs, ys, 2)
        predicted = np.polyval(coeffs, xs)
        ss_res = float(np.sum((ys - predicted) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        fit = QuadraticFit(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]), r_squared)
    return DeficitCurve(tuple(points), fit)


def emit_panel(trajectory: RoundTrajectory, path) -> None:
    """Write the contribution panel with per-day k and event dummies.

    k_at_day is the category's nightly value for the row's day (empty when
    undefined); post_event_flag turns on at the earliest configured pool
    event; increase_category_flag marks categories that had any event.
    """
    events = trajectory.config.pool_events
    first_event_day = min((e.day for e in events), default=None)
    increased = {e.category for e in events}
    category_of = trajectory.config.project_category()

    def rows():
        for record in trajectory.panel:
            category = category_of[record.project_id]
            yield (
                record.day,
                category,
                record.project_id,
                record.contributor_id,
                record.amount,
                math.sqrt(record.amount),
                trajectory.k_by_day[record.day][category],
                1 if first_event_day is not None and record.day >= first_event_day else 0,
                1 if category in increased else 0,
            )

    write_rows(path, PANEL_COLUMNS, rows())


def write_k_series(trajectory: RoundTrajectory, path) -> None:
    write_rows(path, ("day", "category", "k"), (
        (day, category, by_category[category])
        for day, by_category in enumerate(trajectory.k_by_day)
        for category in sorted(by_category)
    ))


def write_deficit_curve(curve: DeficitCurve, path) -> None:
    write_rows(path, ("project_id", "m_qf", "contributor_count"), (
        (point.project_id, point.m_qf, point.contributor_count) for point in curve.points
    ))
