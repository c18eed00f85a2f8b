"""Seeded input generators for the benchmark workloads.

Each generator writes its input files into a directory and returns a
``Workload``: the CLI command lines to run, the input files, and the facts
the output checks need (``truth``).  The inputs depend only on the seed and
the size; the generators use the standard library's Mersenne Twister and
never import the program under test, so a change to the program or to its
tests cannot move the data.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

CATEGORIES = ("apps", "infra", "community", "research")


@dataclass
class Workload:
    #: Commands of one operation, run in order; "{out}" is replaced by the
    #: operation's own output directory.
    commands: list[tuple[str, list[str]]]
    inputs: list[Path]
    truth: dict = field(default_factory=dict)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------
# ledger_200k: allocate + diagnose on a large contributions file

LEDGER_SIZES = {
    "full": {"rows": 200_000, "projects": 2000, "contributors": 50_000},
    "tiny": {"rows": 4000, "projects": 60, "contributors": 800},
}
#: Target k per category; the last pool exceeds its requirement (k < 1).
LEDGER_K = (3.0, 1.8, 1.2, 0.6)
#: Every reason ``ledger.load_contributions`` reports a row for.  The last
#: one (a project seen again under another category) is reported but kept.
REJECT_KINDS = (
    "bad_day",
    "bad_amount",
    "short_row",
    "missing_project",
    "missing_contributor",
    "nonpositive_amount",
    "negative_day",
    "category_conflict",
)
BAD_AMOUNTS = ("0", "-3.5", "nan", "inf")


def _bad_row(kind: str, index: int, good, rng: random.Random, category_of) -> list[str]:
    day, category, project, contributor, amount = good
    amount_text = repr(amount)
    if kind == "bad_day":
        return ["d" + str(day), category, project, contributor, amount_text]
    if kind == "bad_amount":
        return [str(day), category, project, contributor, amount_text + "x"]
    if kind == "short_row":
        return [str(day), category]
    if kind == "missing_project":
        return [str(day), category, "", contributor, amount_text]
    if kind == "missing_contributor":
        return [str(day), category, project, "  ", amount_text]
    if kind == "nonpositive_amount":
        return [str(day), category, project, contributor, BAD_AMOUNTS[index % len(BAD_AMOUNTS)]]
    if kind == "negative_day":
        return [str(-1 - day), category, project, contributor, amount_text]
    others = [c for c in CATEGORIES if c != category_of[project]]
    return [str(day), rng.choice(others), project, contributor, amount_text]


def ledger_inputs(seed: int, size: str, directory: Path) -> Workload:
    """Zipf-popular projects, lognormal amounts, ~0.2 % malformed rows."""
    dims = LEDGER_SIZES[size]
    rng = random.Random(f"ledger_200k:{seed}")
    n_projects = dims["projects"]
    projects = [f"proj-{i:04d}" for i in range(n_projects)]
    category_of = {p: CATEGORIES[i % len(CATEGORIES)] for i, p in enumerate(projects)}
    ranks = list(range(n_projects))
    rng.shuffle(ranks)
    cum_weights = []
    running = 0.0
    for rank in ranks:
        running += 1.0 / (rank + 1)
        cum_weights.append(running)

    n_bad = max(len(REJECT_KINDS), round(0.002 * dims["rows"]))
    n_good = dims["rows"] - n_bad
    chosen = rng.choices(projects, cum_weights=cum_weights, k=n_good)
    good = []
    for project in chosen:
        amount = max(0.01, round(rng.lognormvariate(1.2, 1.1), 2))
        contributor = f"user-{rng.randrange(dims['contributors']):05d}"
        good.append((rng.randrange(30), category_of[project], project, contributor, amount))

    # Bad rows go after at least one good row, so every project's first
    # appearance carries its own category and a conflict row can refer back.
    positions = sorted(rng.sample(range(1, n_good + 1), n_bad))
    kinds = [REJECT_KINDS[i % len(REJECT_KINDS)] for i in range(n_bad)]
    rng.shuffle(kinds)
    amounts: dict[str, dict[str, float]] = {p: {} for p in projects}
    rows: list[list[str]] = []
    cursor = 0
    for index, (position, kind) in enumerate(zip(positions, kinds)):
        for row in good[cursor:position]:
            rows.append([str(row[0]), row[1], row[2], row[3], repr(row[4])])
        cursor = position
        earlier = good[rng.randrange(position)]
        bad = _bad_row(kind, index, earlier, rng, category_of)
        rows.append(bad)
        if kind == "category_conflict":
            ledger = amounts[earlier[2]]
            ledger[earlier[3]] = ledger.get(earlier[3], 0.0) + earlier[4]
    for row in good[cursor:]:
        rows.append([str(row[0]), row[1], row[2], row[3], repr(row[4])])
    for _day, _category, project, contributor, amount in good:
        ledger = amounts[project]
        ledger[contributor] = ledger.get(contributor, 0.0) + amount

    contributions = directory / "contributions.csv"
    _write_csv(contributions, ("day", "category", "project_id", "contributor_id", "amount"), rows)
    requirement = {c: 0.0 for c in CATEGORIES}
    for project, ledger in amounts.items():
        if len(ledger) > 1:
            s = math.fsum(math.sqrt(a) for a in ledger.values())
            requirement[category_of[project]] += s * s - math.fsum(ledger.values())
    pools = {c: requirement[c] / k for c, k in zip(CATEGORIES, LEDGER_K)}
    pools_path = directory / "pools.csv"
    _write_csv(pools_path, ("category", "pool"), [(c, repr(p)) for c, p in pools.items()])

    c, p = str(contributions), str(pools_path)
    return Workload(
        commands=[
            ("allocate", ["allocate", "--contributions", c, "--pools", p, "--cap-at-target",
                          "--json", "{out}/allocate.json", "--csv", "{out}/allocate.csv"]),
            ("diagnose", ["diagnose", "--contributions", c, "--pools", p,
                          "--json", "{out}/diagnose.json"]),
        ],
        inputs=[contributions, pools_path],
        truth={
            "rows": dims["rows"],
            "bad_rows": n_bad,
            "amounts": {proj: ledger for proj, ledger in amounts.items() if ledger},
            "category_of": category_of,
            "pools": pools,
        },
    )


# --------------------------------------------------------------------------
# round_2k: a simulated 20-day round with best-responding agents

ROUND_SIZES = {
    "full": {"agents": 2000, "projects_per_category": 10, "days": 20, "fixed": 60, "ring": 6},
    "tiny": {"agents": 60, "projects_per_category": 3, "days": 6, "fixed": 4, "ring": 3},
}
#: Round-wide pool per honest agent, split evenly over the categories; it
#: keeps the final k of every category in single digits.
ROUND_POOL_PER_AGENT = 15000.0


def round_inputs(seed: int, size: str, directory: Path) -> Workload:
    """Honest agents with valuations drawn from the sample round's ranges."""
    dims = ROUND_SIZES[size]
    rng = random.Random(f"round_2k:{seed}")
    categories = []
    projects = []
    for name in CATEGORIES:
        members = [f"{name}-{j}" for j in range(dims["projects_per_category"])]
        projects.extend(members)
        categories.append(
            {"name": name, "pool": ROUND_POOL_PER_AGENT * dims["agents"] / len(CATEGORIES),
             "projects": members}
        )
    days = dims["days"]
    events = [
        {"day": days // 2, "category": c["name"], "new_pool": c["pool"] * 1.25}
        for c in categories[:3]
    ]
    agents = []
    budgets = {}
    for i in range(dims["agents"]):
        valuations = [
            {"project": project,
             "family": "log" if rng.random() < 0.15 else "sqrt",
             "scale": round(rng.uniform(18.0, 55.0), 2)}
            for project in rng.sample(projects, 5)
        ]
        agent = {"id": f"agent-{i:04d}", "kind": "honest",
                 "budget": float(rng.randrange(800, 4001, 50)),
                 "activity": round(rng.uniform(0.4, 0.6), 3), "valuations": valuations}
        agents.append(agent)
    for i in range(dims["fixed"]):
        targets = rng.sample(projects, rng.randint(1, 2))
        amount = float(rng.randrange(10, 41))
        agents.append({"id": f"drip-{i:03d}", "kind": "honest", "budget": amount * len(targets),
                       "activity": 0.6, "fixed_amount": amount, "projects": targets})
    for i, own in enumerate(rng.sample(projects, dims["ring"])):
        agents.append({"id": f"ring-{i}", "kind": "reciprocal_colluder", "budget": 600.0,
                       "activity": 0.9, "ring": "r1", "own_project": own})
    for agent in agents:
        budgets[agent["id"]] = agent["budget"]
    config = {"seed": seed, "duration_days": days, "categories": categories,
              "pool_events": events, "agents": agents}
    path = directory / "round.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    final_pools = {c["name"]: c["pool"] for c in categories}
    final_pools.update({e["category"]: e["new_pool"] for e in events})
    return Workload(
        commands=[("simulate", ["simulate", "--config", str(path), "--out-dir", "{out}/round"])],
        inputs=[path],
        truth={"budgets": budgets, "final_pools": final_pools},
    )


# --------------------------------------------------------------------------
# backing_6k: reciprocal-backing forensics on a synthetic network

BACKING_SIZES = {
    "full": {"projects": 6000, "quota": (1, 60)},
    "tiny": {"projects": 300, "quota": (1, 12)},
}
BACKING_CATEGORIES = (("alpha", 3), ("beta", 3), ("gamma", 4))
RECIPROCATION_PROB = 0.2


def backing_inputs(seed: int, size: str, directory: Path) -> Workload:
    """Null-model backing network: one-member teams, uniform targets.

    Every project has an outdegree quota.  Initiation slots are processed in
    random order: the project backs a fresh uniform target, which reciprocates
    with a fixed probability while it has quota left.
    """
    dims = BACKING_SIZES[size]
    rng = random.Random(f"backing_6k:{seed}")
    n = dims["projects"]
    projects = [f"p{i}" for i in range(n)]
    labels = [name for name, weight in BACKING_CATEGORIES for _ in range(weight)]
    category_of = {p: labels[i % len(labels)] for i, p in enumerate(projects)}
    quota = {p: rng.randint(*dims["quota"]) for p in projects}
    used = dict.fromkeys(projects, 0)
    edges: set[tuple[str, str]] = set()
    rows = []

    def add_edge(source: str, target: str) -> None:
        edges.add((source, target))
        used[source] += 1
        rows.append(("0", category_of[target], target, f"m{source}", "1.0"))

    slots = [p for p in projects for _ in range(quota[p])]
    rng.shuffle(slots)
    for source in slots:
        if used[source] >= quota[source]:
            continue
        for _ in range(64):
            target = projects[rng.randrange(n)]
            if target != source and (source, target) not in edges:
                break
        else:
            continue
        add_edge(source, target)
        if rng.random() < RECIPROCATION_PROB:
            if used[target] < quota[target] and (target, source) not in edges:
                add_edge(target, source)

    contributions = directory / "backing.csv"
    _write_csv(contributions, ("day", "category", "project_id", "contributor_id", "amount"), rows)
    teams = directory / "teams.csv"
    _write_csv(teams, ("project_id", "member_id"), [(p, f"m{p}") for p in projects])
    mutual_pairs = sum(1 for a, b in edges if a < b and (b, a) in edges)
    return Workload(
        commands=[("reciprocal", ["reciprocal", "--contributions", str(contributions),
                                  "--teams", str(teams), "--out-dir", "{out}"])],
        inputs=[contributions, teams],
        truth={"rows": len(rows), "bad_rows": 0, "edges": len(edges), "mutual_pairs": mutual_pairs},
    )


# --------------------------------------------------------------------------
# equilibrium_game: damped best response with budgets, then the planner

EQUILIBRIUM_SIZES = {
    "full": {"contributors": 120, "projects": 30},
    "tiny": {"contributors": 12, "projects": 6},
}
EQUILIBRIUM_K = 2.5
EQUILIBRIUM_MAX_ITER = 200
#: Budgets of the binding third: far below what almost every contributor
#: spends unconstrained, so their totals are clamped.
BINDING_BUDGET = (2.0, 8.0)
SLACK_BUDGET = 1e6


def equilibrium_inputs(seed: int, size: str, directory: Path) -> Workload:
    """Three valuations per contributor; a third of the budgets bind."""
    dims = EQUILIBRIUM_SIZES[size]
    rng = random.Random(f"equilibrium_game:{seed}")
    projects = [f"g{j:02d}" for j in range(dims["projects"])]
    contributors = [f"c{i:03d}" for i in range(dims["contributors"])]
    valuations = []
    scales = {}
    for cid in contributors:
        for pid in rng.sample(projects, 3):
            family = "log" if rng.random() < 0.2 else "sqrt"
            scale = round(rng.uniform(18.0, 55.0), 2)
            valuations.append((cid, pid, family, repr(scale)))
            scales[(cid, pid)] = (family, scale)
    binding = set(rng.sample(contributors, len(contributors) // 3))
    budgets = {
        cid: round(rng.uniform(*BINDING_BUDGET), 2) if cid in binding else SLACK_BUDGET
        for cid in contributors
    }
    pool = 40.0 * dims["contributors"]
    valuations_path = directory / "valuations.csv"
    _write_csv(valuations_path, ("contributor_id", "project_id", "family", "scale"), valuations)
    budgets_path = directory / "budgets.csv"
    _write_csv(budgets_path, ("contributor_id", "budget"), [(c, repr(b)) for c, b in budgets.items()])
    return Workload(
        commands=[("equilibrium", ["equilibrium", "--valuations", str(valuations_path),
                                   "--k", repr(EQUILIBRIUM_K), "--budgets", str(budgets_path),
                                   "--planner-pool", repr(pool),
                                   "--max-iter", str(EQUILIBRIUM_MAX_ITER),
                                   "--json", "{out}/equilibrium.json"])],
        inputs=[valuations_path, budgets_path],
        truth={"k": EQUILIBRIUM_K, "valuations": scales, "budgets": budgets, "pool": pool},
    )


GENERATORS = {
    "ledger_200k": ledger_inputs,
    "round_2k": round_inputs,
    "backing_6k": backing_inputs,
    "equilibrium_game": equilibrium_inputs,
}
