"""Output checks, one function per CLI command.

Each check reads one command's output files and returns a list of failure
messages (empty when the output is correct).  Expected values come from the
generator's ``truth``, never from the program's own loaders; the only
program code used is ``concentration.decomposed_match`` (on ledgers built
from the generator's amounts), the independent formula the allocation's
``m_qf`` must agree with.  ``ctx``
carries state between operations of one run, such as the first
operation's output digests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

POOL_REL_TOL = 1e-6
IDENTITY_TOL = 1e-9
FOC_TOL = 1e-6
BUDGET_SLACK = 1e-9


def _lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def _balance(total: float, pool: float, what: str) -> list[str]:
    if abs(total - pool) > POOL_REL_TOL * pool:
        return [f"{what}: {total!r} != pool {pool!r}"]
    return []


def _stderr_count(op_dir: Path, command: str, expected: int) -> list[str]:
    found = _lines(op_dir / f"{command}.stderr")
    if found != expected:
        return [f"{command}: {found} stderr lines, {expected} bad rows injected"]
    return []


def _expected_m_qf(truth: dict, ctx: dict) -> dict[str, float]:
    if "m_qf" not in ctx:
        from qfround.concentration import decomposed_match
        from qfround.funding import ProjectLedger

        ctx["m_qf"] = {
            project: decomposed_match(ProjectLedger.from_amounts(project, list(ledger.values())))
            for project, ledger in truth["amounts"].items()
        }
    return ctx["m_qf"]


def check_allocate(op_dir: Path, truth: dict, ctx: dict) -> list[str]:
    failures = _stderr_count(op_dir, "allocate", truth["bad_rows"])
    report = json.loads((op_dir / "allocate.json").read_text(encoding="utf-8"))
    expected = _expected_m_qf(truth, ctx)
    seen = {}
    capped_blocks = 0
    for block in report["categories"]:
        pool = truth["pools"][block["category"]]
        if block["pool"] != pool:
            failures.append(f"{block['category']}: pool {block['pool']!r} != {pool!r}")
        paid = math.fsum(p["m_actual"] for p in block["projects"])
        if block["cap_at_target"] and block["k"] < 1.0:
            capped_blocks += 1
            failures += _balance(paid + block["surplus"], pool, f"{block['category']} match+surplus")
        else:
            failures += _balance(paid, pool, f"{block['category']} matches")
        for project in block["projects"]:
            seen[project["project_id"]] = project["m_qf"]
    if capped_blocks != 1:
        failures.append(f"{capped_blocks} capped categories, expected exactly 1")
    if set(seen) != set(expected):
        failures.append(f"report has {len(seen)} projects, input has {len(expected)}")
    for project, want in expected.items():
        got = seen.get(project)
        if got is None or abs(got - want) > max(IDENTITY_TOL * abs(want), IDENTITY_TOL):
            failures.append(f"{project}: m_qf {got!r} vs decomposed_match {want!r}")
            break
    with open(op_dir / "allocate.csv", newline="", encoding="utf-8") as handle:
        rows = {row["project_id"]: float(row["m_qf"]) for row in csv.DictReader(handle)}
    if rows != seen:
        failures.append("allocate.csv m_qf column differs from the JSON report")
    return failures


def check_diagnose(op_dir: Path, truth: dict, ctx: dict) -> list[str]:
    failures = _stderr_count(op_dir, "diagnose", truth["bad_rows"])
    payload = json.loads((op_dir / "diagnose.json").read_text(encoding="utf-8"))
    projects = payload["projects"]
    if len(projects) != len(truth["amounts"]):
        failures.append(f"diagnose reports {len(projects)} projects, input has {len(truth['amounts'])}")
    below = [p["project_id"] for p in projects if not p["lambda_p"] >= p["lower_bound"]]
    if below:
        failures.append(f"lambda_p < lower_bound on {len(below)} projects, first {below[0]}")
    return failures


SIMULATE_OUTPUTS = ("k_daily.csv", "panel.csv", "deficit_curve.csv", "allocation_report.json")


def check_simulate(op_dir: Path, truth: dict, ctx: dict) -> list[str]:
    failures = []
    out = op_dir / "round"
    spent: dict[str, list[float]] = {}
    with open(out / "panel.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            spent.setdefault(row["contributor_id"], []).append(float(row["amount"]))
    for agent, amounts in spent.items():
        budget = truth["budgets"][agent]
        if math.fsum(amounts) > budget * (1.0 + BUDGET_SLACK):
            failures.append(f"{agent} spent {math.fsum(amounts)!r} of budget {budget!r}")
    report = json.loads((out / "allocation_report.json").read_text(encoding="utf-8"))
    for block in report["categories"]:
        pool = truth["final_pools"][block["category"]]
        if block["degenerate"]:
            failures.append(f"{block['category']}: no matchable projects")
            continue
        failures += _balance(math.fsum(p["m_actual"] for p in block["projects"]), pool,
                             f"{block['category']} final matches")
    digests = [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SIMULATE_OUTPUTS]
    first = ctx.setdefault("simulate_digests", digests)
    if digests != first:
        failures.append("outputs differ from the run's first operation")
    return failures


def check_reciprocal(op_dir: Path, truth: dict, ctx: dict) -> list[str]:
    failures = _stderr_count(op_dir, "reciprocal", truth["bad_rows"])
    with open(op_dir / "reciprocal_report.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    outdegree = sum(int(float(r["outdegree"])) for r in rows)
    reciprocal = sum(int(float(r["reciprocal"])) for r in rows)
    if outdegree != truth["edges"]:
        failures.append(f"sum of outdegree {outdegree} != {truth['edges']} generated edges")
    if reciprocal != 2 * truth["mutual_pairs"]:
        failures.append(f"sum of reciprocal {reciprocal} != 2 x {truth['mutual_pairs']} mutual pairs")
    return failures


def foc_residuals(payload: dict, truth: dict) -> list[float]:
    """|V'(F) * (s / (k sqrt(c)) + 1 - 1/k) - 1| of unclamped positive entries."""
    k = truth["k"]
    clamped = {tuple(pair) for pair in payload["clamped"]}
    by_project: dict[str, dict[str, float]] = {}
    for cid, entries in payload["contributions"].items():
        for pid, amount in entries.items():
            by_project.setdefault(pid, {})[cid] = amount
    residuals = []
    for pid, amounts in by_project.items():
        s = math.fsum(math.sqrt(a) for a in amounts.values())
        funding = s * s / k + (1.0 - 1.0 / k) * math.fsum(amounts.values())
        for cid, c in amounts.items():
            if c <= 0.0 or (cid, pid) in clamped:
                continue
            family, scale = truth["valuations"][(cid, pid)]
            marginal = scale / (2.0 * math.sqrt(funding)) if family == "sqrt" else scale / (1.0 + funding)
            residuals.append(abs(marginal * ((s / math.sqrt(c)) / k + 1.0 - 1.0 / k) - 1.0))
    return residuals


def check_equilibrium(op_dir: Path, truth: dict, ctx: dict) -> list[str]:
    failures = []
    payload = json.loads((op_dir / "equilibrium.json").read_text(encoding="utf-8"))
    residuals = foc_residuals(payload, truth)
    worst = max(residuals, default=0.0)
    ctx["max_foc_residual"] = max(ctx.get("max_foc_residual", 0.0), worst)
    if not residuals:
        failures.append("no unclamped positive contribution to check")
    elif worst > FOC_TOL:
        failures.append(f"FOC residual {worst!r} > {FOC_TOL}")
    for cid, entries in payload["contributions"].items():
        budget = truth["budgets"][cid]
        spent = math.fsum(entries.values())
        if spent > budget * (1.0 + BUDGET_SLACK):
            failures.append(f"{cid} spent {spent!r} of budget {budget!r}")
    pool = truth["pool"]
    planned = math.fsum(payload["planner"]["funds"].values())
    if abs(planned - pool) > IDENTITY_TOL * pool:
        failures.append(f"planner funds sum to {planned!r}, pool {pool!r}")
    return failures


CHECKS = {
    "allocate": check_allocate,
    "diagnose": check_diagnose,
    "simulate": check_simulate,
    "reciprocal": check_reciprocal,
    "equilibrium": check_equilibrium,
}


def check_counts(layers: dict, truth: dict, loads: int) -> list[str]:
    """A traced operation's ingestion counters against the generator."""
    failures = []
    for counter, per_load in (("ledger.rows_read", truth.get("rows", 0)),
                              ("ledger.rows_rejected", truth.get("bad_rows", 0))):
        found = layers["counters"].get(counter, 0)
        if found != loads * per_load:
            failures.append(f"{counter} {found} != {loads} x {per_load}")
    return failures
