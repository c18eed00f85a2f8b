"""Multi-day grant-round engine.

Each simulated day runs in four steps: pool events fire, agents act, the
per-category scaling constant k is recomputed from the cumulative ledger,
and the day is recorded.  Agents observe k with a one-day lag (they react
to last night's published estimate, never to a same-day recomputation);
on day 0, before any estimate exists, they assume k = 1.

Honest agents re-derive a target contribution per valued project from the
first-order condition each active day and top up toward it; contributions
are irrevocable, so rising k shows up as agents ceasing to add rather than
withdrawing.  The condition's left side falls in the amount, so its value
at an agent's current amount (at most 1: nothing to add) settles most of
these decisions without solving for the target.  Fixed agents emit a set
amount once.  Reciprocal colluders split their budget evenly across all
their ring's projects on their first active day, or dump it on their own
project when defecting; across repeated rounds a grim trigger makes a ring
stop cooperating after the first observed defection.

Activity is a per-day Bernoulli draw from the agent's propensity with a
seeded generator, so identical (config, agents, seed) reproduce the
trajectory bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from collections import Counter
from collections.abc import Collection, Sequence
from dataclasses import dataclass, replace
from functools import cached_property

from .equilibrium import Valuation, foc_lhs, solve_best_contribution
from .errors import BudgetBreachError, DomainError, LedgerFormatError
from .funding import ContributionColumns, ProjectLedger, _total, required_match
from .ledger import CONTRIBUTIONS_COLUMNS, write_records, write_rows
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
    "load_simulation_file",
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
        rounds = self.defects_from_round
        if rounds is not None and (type(rounds) is not int or rounds < 0):
            raise DomainError(f"defects_from_round must be a nonnegative integer, got {rounds!r}")
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


#: A round-file key is the name of the spec field it fills, except these; a
#: valuation's contributor has no key, as it is the agent that lists it.
_KEY_OF_FIELD = {"agent_id": "id", "ring_id": "ring", "project_id": "project", "contributor_id": None}
#: Each round-file key's JSON type as ``json.load`` gives it; a number reads as a float, a
#: list as a tuple.  An untyped key (``defects_from_round``) goes as given to the spec.
_KEY_TYPES = {
    **dict.fromkeys(("name", "category", "id", "kind", "ring", "own_project", "project", "family"), str),
    **dict.fromkeys(("duration_days", "seed", "day"), int),
    **dict.fromkeys(("pool", "new_pool", "budget", "activity", "fixed_amount", "scale"), float),
    "projects": [str], "categories": [CategorySpec], "pool_events": [PoolEvent],
    "agents": [AgentSpec], "valuations": [Valuation],
}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


def _key_table(cls) -> tuple[dict[str, tuple[int, object]], list]:
    """``cls``'s round-file keys, ``{key: (field index, JSON type)}``, and its field defaults."""
    fields = dataclasses.fields(cls)
    keys = [_KEY_OF_FIELD.get(f.name, f.name) for f in fields]
    return {key: (i, _KEY_TYPES.get(key)) for i, key in enumerate(keys) if key}, [f.default for f in fields]


_KEYS = {cls: _key_table(cls) for cls in (RoundConfig, CategorySpec, PoolEvent, AgentSpec, Valuation)}


def _value(value, key: str, json_type, parent: dict, strings: dict):
    """``value`` of round-file ``key`` as its field takes it, where ``type(value)`` is not
    ``json_type``; a TypeError when it is not of that JSON type.  A list of specs is made
    one object at a time by ``_spec``."""
    if json_type is None:
        return value
    if json_type is float and type(value) is int:
        return float(value)
    if type(json_type) is not list:  # type(True) is bool, so a boolean is no number
        raise TypeError(f"{key} must be {_TYPE_NAMES[json_type]}, got {value!r:.80}")
    if type(value) is not list:  # a string is not split into one-character ids
        raise TypeError(f"{key} must be a list, got {value!r:.80}")
    [spec] = json_type
    if spec is str:
        return tuple([item if type(item) is str else _value(item, key, str, parent, strings) for item in value])
    defaults = _KEYS[spec][1]
    defaults = [parent.get("id"), *defaults[1:]] if spec is Valuation else defaults
    return tuple([_spec(spec, raw, key, defaults, strings) for raw in value])


def _spec(spec, raw, key: str, defaults: list, strings: dict):
    """The ``spec`` that ``raw``, an item of list ``key``, describes; each string is kept once in ``strings``."""
    if type(raw) is not dict:
        raise TypeError(f"{key} must hold objects, got {raw!r:.80}")
    table = _KEYS[spec][0]
    fields = defaults.copy()
    for name, item in raw.items():
        try:
            index, item_type = table[name]
        except KeyError:
            raise TypeError(f"unknown key {name!r} in {key}") from None
        if type(item) is not item_type:
            item = _value(item, name, item_type, raw, strings)
        elif item_type is str:
            item = strings.setdefault(item, item)
        fields[index] = item
    if len(raw) < len(table) and dataclasses.MISSING in fields:
        missing = next(name for name, (index, _) in table.items() if fields[index] is dataclasses.MISSING)
        raise TypeError(f"missing key {missing!r}")
    return spec(*fields)


def load_simulation_file(path) -> tuple[RoundConfig, list[AgentSpec]]:
    """Read a JSON round file, a RoundConfig's keys and its ``agents``; LedgerFormatError
    ``path:line: reason`` for a JSON syntax error, ``path: reason`` for any other fault.
    A leading UTF-8 byte-order mark is skipped, as for CSV inputs.  Each agent becomes its
    spec before the next is decoded; a file with a fault is read whole, as ``json.load``
    reads it, for the same first fault: a syntax fault, then the config's, then an agent's."""
    decode, skip, strings = json.JSONDecoder().raw_decode, json.decoder.WHITESPACE.match, {}
    data, agents = {}, []

    def expect(at: int, char: str) -> int:  # str.index raises ValueError unless text[at] is char
        return text.index(char, at, at + 1) + 1

    def walk(at: int, brackets: str, item) -> int:
        # the offset past the container at text[at]; item(at) reads one item, returns its end
        at = skip(text, expect(at, brackets[0])).end()
        if text[at] != brackets[1]:
            at = skip(text, item(at)).end()
            while text[at] != brackets[1]:
                at = skip(text, item(skip(text, expect(at, ",")).end())).end()
        return at + 1

    def member(at: int) -> int:
        key, at = json.decoder.scanstring(text, expect(at, '"'))
        at = skip(text, expect(skip(text, at).end(), ":")).end()
        if key != "agents":
            data[key], at = decode(text, at)
            return at
        agents.clear()  # a repeated key keeps its last value
        return walk(at, "[]", agent)

    def agent(at: int) -> int:
        raw, at = decode(text, at)
        agents.append(_spec(AgentSpec, raw, "agents", _KEYS[AgentSpec][1], strings))
        return at

    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
        try:
            if skip(text, walk(skip(text).end(), "{}", member)).end() != len(text):
                raise ValueError("extra data")
        except (TypeError, ValueError, OverflowError, IndexError):
            data = json.loads(text)  # json's own message and line for a syntax fault
            if type(data) is not dict:
                raise TypeError(f"a round file must be a JSON object, got {data!r:.80}") from None
            agents = data.pop("agents", [])
            config = _spec(RoundConfig, data, "the round file", _KEYS[RoundConfig][1], strings)
            return config, list(_value(agents, "agents", _KEY_TYPES["agents"], data, strings))
        return _spec(RoundConfig, data, "the round file", _KEYS[RoundConfig][1], strings), agents
    except UnicodeDecodeError as exc:
        raise LedgerFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise LedgerFormatError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise LedgerFormatError(f"{path}: {exc}") from None


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
    panel: ContributionColumns
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
    read back equals an ``fsum`` rescan of the ledger bit for bit.  An
    agent's amount in a ledger is the ``fsum`` of their records there, and
    ``repeated`` keeps the records of each (project, agent) pair with more
    than one: ``ledger`` reads the final ledgers off them.  ``shadow`` holds
    both sums as floats, correctly rounded, and ``panel`` every record, as columns.
    """

    def __init__(self, projects: Collection[str]):
        self.amounts: dict[str, dict[str, float]] = {p: {} for p in projects}
        self.repeated: dict[tuple[str, str], list[float]] = {}
        self.sqrt_sums: dict[str, int] = dict.fromkeys(projects, 0)
        self.totals: dict[str, int] = dict.fromkeys(projects, 0)
        self.shadow: dict[str, tuple[float, float]] = dict.fromkeys(projects, (0.0, 0.0))
        self.spent: dict[str, float] = {}
        self.panel = ContributionColumns(projects)

    def emit(self, day: int, agent: AgentSpec, project: str, amount: float) -> None:
        if amount <= 0.0:
            return
        spent = self.spent.get(agent.agent_id, 0.0) + amount
        # a budget near the largest float scales to inf, which no sum exceeds
        if spent > agent.budget * (1.0 + 1e-9) or spent == math.inf:
            raise BudgetBreachError(
                f"agent {agent.agent_id!r} would emit {spent!r} of budget {agent.budget!r}"
            )
        self.spent[agent.agent_id] = spent
        ledger = self.amounts[project]
        old = ledger.get(agent.agent_id, 0.0)
        if old > 0.0:
            records = self.repeated.setdefault((project, agent.agent_id), [old])
            records.append(amount)
            new = math.fsum(records)
        else:
            new = amount
        ledger[agent.agent_id] = new
        self.sqrt_sums[project] += _exact(math.sqrt(new)) - _exact(math.sqrt(old))
        self.totals[project] += _exact(new) - _exact(old)
        try:
            self.shadow[project] = (self.sqrt_sums[project] / _UNITS, self.totals[project] / _UNITS)
        except OverflowError:
            raise DomainError(f"contributions to project {project!r} sum past the largest float") from None
        self.panel.append(agent.agent_id, project, amount, day)

    def ledger(self, project: str, category: str) -> ProjectLedger:
        """``project``'s final ledger, equal to the one ``self.panel.ledgers`` gives field for field."""
        amounts = self.amounts[project]
        agents = sorted(amounts, key=self.panel.contributor_codes.get)
        total = _total([x for agent in agents for x in self.repeated.get((project, agent), (amounts[agent],))])
        if total == math.inf:
            raise DomainError(f"contributions to project {project!r} sum past the largest float")
        return ProjectLedger(project, category, tuple(agents), tuple(map(amounts.get, agents)), total)

    def remaining(self, agent: AgentSpec) -> float:
        return agent.budget - self.spent.get(agent.agent_id, 0.0)

    def others(self, project: str, own: float) -> tuple[float, float]:
        """Square-root sum and plain sum of the project's ledger without ``own``."""
        if own == 0.0:
            return self.shadow[project]
        return (
            (self.sqrt_sums[project] - _exact(math.sqrt(own))) / _UNITS,
            (self.totals[project] - _exact(own)) / _UNITS,
        )

    def requirement(self, project: str) -> float:
        return required_match(*self.shadow[project], len(self.amounts[project]))

    def nothing_to_add(self, valuation: Valuation, k: float, own: float) -> bool:
        """True only if ``foc_lhs(valuation, k, *self.others(project, own), own) <= 1``,
        read from the shadow sums; False leaves the test to the exact sums.

        Let u = 2**-53, m = min(k, 1), and S, C the exact sums.  The shadow's others-sums
        are within 2.01u*S and 2.01u*C of the exact ones however much of S is ``own``, the
        exact path's within u*S and u*C.  In the range below, no step before the marginal
        value leaves the normal floats, and as C <= S*S*(1 + 2.01u), F >= 0.99*S*S/max(k, 1)
        even where (1 - 1/k)*c < 0.  So F moves by 8.3u/m through the inputs and 17.5u/m in
        rounding, the bracket 1 + s/(k*sqrt(own)) by 2.01u/m and 3u, the rest by 3u: each
        path's lhs is within 35u/m of its value at the exact sums, and the margin
        2**-45*(1 + 1/k) exceeds the 71u/m between them.  Underflow in the last two steps
        adds under 2**-600; overflow gives inf.
        """
        s, c = self.shadow[valuation.project_id]
        if not (2.0**-300 < own and s < 2.0**300 and 2.0**-20 <= k < 2.0**300):
            return False
        return foc_lhs(valuation, k, s - math.sqrt(own), c - own, own) < 1.0 - 2.0**-45 * (1.0 + 1.0 / k)


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
    """Simulate one round day by day, without numpy; deterministic given (config, agents, seed).

    ``defecting_agents`` lists colluders that abandon ring cooperation for
    this round (used by the repeated-round driver's trigger logic).
    """
    known = config.project_category()
    state = _RoundState(known)
    pools = {c.name: float(c.pool) for c in config.categories}
    rings = _ring_projects(agents)
    # budgets, ledgers and one-shot payments are all kept by agent id
    ids = [agent.agent_id for agent in agents]
    if len(set(ids)) < len(ids):
        raise DomainError(f"duplicate agent {Counter(ids).most_common(1)[0][0]!r}")
    for agent in agents:
        valued = [v.project_id for v in agent.valuations]
        if len(set(valued)) < len(valued):
            raise DomainError(f"duplicate valuation for {(agent.agent_id, max(valued, key=valued.count))!r}")
        if agent.kind == "reciprocal_colluder":
            if agent.own_project not in known:
                raise DomainError(
                    f"colluder {agent.agent_id!r} owns unknown project {agent.own_project!r}"
                )
        else:
            for project in agent.projects + tuple(valued):
                if project not in known:
                    raise DomainError(
                        f"agent {agent.agent_id!r} targets unknown project {project!r}"
                    )

    sorted_valuations = [sorted(agent.valuations, key=lambda v: v.project_id) for agent in agents]
    rng = random.Random(config.seed)
    observed_k: dict[str, float] = {c.name: 1.0 for c in config.categories}
    # Each category's requirement at the last night; nothing is emitted
    # between a night and the next morning's pool events.
    required: dict[str, float] = {c.name: 0.0 for c in config.categories}
    one_shot_done: set[str] = set()
    k_by_day: list[dict[str, float | None]] = []
    m_by_day: list[dict[str, float]] = []
    jumps: list[EventJump] = []

    for day in range(config.duration_days):
        for event in config.pool_events:
            if event.day != day:
                continue
            need, old_pool = required[event.category], pools[event.category]
            pools[event.category] = event.new_pool
            k_before, k_after = _k(need, old_pool), _k(need, event.new_pool)
            jumps.append(EventJump(day, event.category, old_pool, event.new_pool, k_before, k_after))

        for agent, valuations in zip(agents, sorted_valuations):
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
                for valuation in valuations:
                    project = valuation.project_id
                    own = state.amounts[project].get(agent.agent_id, 0.0)
                    k_obs = observed_k[known[project]]
                    remaining = state.remaining(agent)
                    if remaining <= 1e-12:
                        continue  # the top-up is capped at remaining: nothing can be emitted
                    if state.nothing_to_add(valuation, k_obs, own):
                        continue
                    s_others, c_others = state.others(project, own)
                    if own > 0.0 and foc_lhs(valuation, k_obs, s_others, c_others, own) <= 1.0:
                        continue  # the best response is at most own: nothing to top up
                    target = solve_best_contribution(valuation, k_obs, s_others, c_others, own)
                    top_up = min(target - own, remaining)
                    if top_up > 1e-12:
                        state.emit(day, agent, project, top_up)

        m_qf = {p: state.requirement(p) for p in sorted(known)}
        for category in config.categories:
            required[category.name] = need = _total(m_qf[p] for p in category.projects)
            if _k(need, pools[category.name]) == math.inf:
                raise DomainError(f"day {day}: category {category.name!r} requires {need!r} of pool "
                                  f"{pools[category.name]!r}, so k is not finite")
        nightly = {name: _k(need, pools[name]) for name, need in required.items()}
        k_by_day.append(nightly)
        m_by_day.append(m_qf)
        observed_k.update((name, k) for name, k in nightly.items() if k is not None)

    ledgers = sorted(map(state.ledger, known, known.values()), key=lambda ledger: ledger.project_id)
    final_report = build_report(ledgers, pools, strict=False)
    return RoundTrajectory(config, tuple(k_by_day), tuple(m_by_day), state.panel, tuple(jumps), final_report)


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
    """One project's requirement; its fields are the columns of ``deficit_curve.csv``."""

    project_id: str
    m_qf: float
    contributor_count: int


@dataclass(frozen=True)
class DeficitCurve:
    """Final requirement against contributor count; ``fit`` is computed, with numpy, when first read."""

    points: tuple[DeficitPoint, ...]

    @cached_property
    def fit(self) -> QuadraticFit | None:
        import numpy as np

        xs = np.array([p.contributor_count for p in self.points], dtype=float)
        ys = np.array([p.m_qf for p in self.points], dtype=float)
        if len(set(xs.tolist())) < 3:
            return None
        with np.errstate(over="ignore", invalid="ignore"):  # sums past the largest float leave no fit
            coeffs = np.polyfit(xs, ys, 2)
            predicted = np.polyval(coeffs, xs)
            ss_res = float(np.sum((ys - predicted) ** 2))
            ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        if not (math.isfinite(ss_res) and math.isfinite(ss_tot)):
            return None
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        return QuadraticFit(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]), r_squared)


def deficit_curve(trajectory: RoundTrajectory) -> DeficitCurve:
    """Final per-project requirement vs contributor count, by project id; the fit waits for a read."""
    blocks = trajectory.final_report.categories
    points = [DeficitPoint(p.project_id, p.m_qf, p.contributors) for block in blocks for p in block.projects]
    return DeficitCurve(tuple(sorted(points, key=lambda point: point.project_id)))


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

    panel = trajectory.panel
    contributors, projects = list(panel.contributor_codes), list(panel.project_codes)
    k_text = [{c: "" if k is None else repr(k) for c, k in nightly.items()} for nightly in trajectory.k_by_day]

    def rows():
        for c, p, amount, day in zip(panel.contributors, panel.projects, panel.amounts, panel.days):
            category = category_of[projects[p]]
            yield (
                day,
                category,
                projects[p],
                contributors[c],
                amount,
                math.sqrt(amount),
                k_text[day][category],
                1 if first_event_day is not None and day >= first_event_day else 0,
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
    write_records(path, DeficitPoint, curve.points)
