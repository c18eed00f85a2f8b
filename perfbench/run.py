"""qfround benchmark: seeded CLI workloads, timed end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-check

One run generates the workload's inputs from the seed, times ``import
qfround.cli`` in fresh interpreters (``setup_s``), then starts a worker
process that runs the real CLI in process in a closed loop (one client,
one operation at a time) for the given seconds, and checks every
operation's outputs.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` the worker alternates untraced and traced operations and
the run reports the per-layer metrics, timed by wrappers around the public
functions of each ``qfround`` module (``layers.py``).  Every metric is
printed on its own line with its unit and sample count; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--workload all`` runs every workload untraced and traced.
``--self-check`` does the same on tiny inputs in seconds, repeats the traced
run to confirm the counts repeat exactly, and exits non-zero on any failure.

Inputs, outputs, spans (JSON lines) and a results file go to
``.perfbench_work/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path[:0] = [str(HERE), str(SRC)]  # the benchmark's modules; qfround for the checks
import checks  # noqa: E402
import gen  # noqa: E402

WORKLOADS = tuple(gen.GENERATORS)
#: Commands that call ``ledger.load_contributions``, per workload.
LOADS = {"ledger_200k": 2, "backing_6k": 1}
SETUP_SAMPLES = {"full": 9, "tiny": 1}
MIN_OPS = {"full": 3, "tiny": 2}
WORKER_TIMEOUT_S = 120
SETUP_SNIPPET = "import time; t = time.perf_counter(); import qfround.cli; print(time.perf_counter() - t)"

END_TO_END = {"command_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Per-layer metric -> unit.  Times are seconds per operation (all of the
#: workload's commands), counts are per operation; a layer the workload
#: does not reach reads 0.
PER_LAYER = {
    "cli.command_s": "s",
    "cli.self_s": "s",
    "cli.load_simulation_file_s": "s",
    "ledger.load_contributions_s": "s",
    "ledger.rows_read": "count",
    "ledger.rows_rejected": "count",
    "ledger.load_roster_s": "s",
    "ledger.build_graph_s": "s",
    "ledger.edges": "count",
    "ledger.reciprocity_stats_s": "s",
    "ledger.cross_category_stats_s": "s",
    "funding.ledger_build_s": "s",
    "funding.ledger_build_calls": "count",
    "funding.cqf_allocate_s": "s",
    "report.build_report_s": "s",
    "efficiency.lambda_p_s": "s",
    "efficiency.lambda_p_calls": "count",
    "efficiency.lambda_report_s": "s",
    "efficiency.lambda_from_amounts_calls": "count",
    "equilibrium.solve_s": "s",
    "equilibrium.solve_calls": "count",
    "equilibrium.marginal_evals": "count",
    "equilibrium.evals_per_solve": "evals/solve",
    "equilibrium.best_response_s": "s",
    "equilibrium.iterations": "count",
    "equilibrium.converged": "ratio",
    "equilibrium.planner_s": "s",
    "equilibrium.max_foc_residual": "residual",
    "roundsim.run_round_s": "s",
    "roundsim.run_round_self_s": "s",
    "roundsim.panel_rows": "count",
    "roundsim.write_outputs_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def layer_metrics(layers: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation from its span summary."""
    spans = layers["spans"]
    counters = layers["counters"]

    def inclusive(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    commands = [n for n in spans if n.startswith("cli.") and n != "cli.load_simulation_file"]
    solves = calls("equilibrium.solve")
    runs = counters.get("equilibrium.runs", 0)
    return {
        "cli.command_s": sum(inclusive(n) for n in commands),
        "cli.self_s": sum(spans[n][2] for n in commands),
        "cli.load_simulation_file_s": inclusive("cli.load_simulation_file"),
        "ledger.load_contributions_s": inclusive("ledger.load_contributions"),
        "ledger.rows_read": counters.get("ledger.rows_read", 0),
        "ledger.rows_rejected": counters.get("ledger.rows_rejected", 0),
        "ledger.load_roster_s": inclusive("ledger.load_roster"),
        "ledger.build_graph_s": inclusive("ledger.build_graph"),
        "ledger.edges": counters.get("ledger.edges", 0),
        "ledger.reciprocity_stats_s": inclusive("ledger.reciprocity_stats"),
        "ledger.cross_category_stats_s": inclusive("ledger.cross_category_stats"),
        "funding.ledger_build_s": inclusive("funding.ledger_build"),
        "funding.ledger_build_calls": calls("funding.ledger_build"),
        "funding.cqf_allocate_s": inclusive("funding.cqf_allocate"),
        "report.build_report_s": inclusive("report.build_report"),
        "efficiency.lambda_p_s": inclusive("efficiency.lambda_p"),
        "efficiency.lambda_p_calls": calls("efficiency.lambda_p"),
        "efficiency.lambda_report_s": inclusive("efficiency.lambda_report"),
        "efficiency.lambda_from_amounts_calls": calls("efficiency.lambda_from_amounts"),
        "equilibrium.solve_s": inclusive("equilibrium.solve"),
        "equilibrium.solve_calls": solves,
        "equilibrium.marginal_evals": sum(layers["marginal_by_span"].values()),
        "equilibrium.evals_per_solve": (
            layers["marginal_by_span"].get("equilibrium.solve", 0) / solves if solves else 0.0
        ),
        "equilibrium.best_response_s": inclusive("equilibrium.best_response"),
        "equilibrium.iterations": counters.get("equilibrium.iterations", 0),
        "equilibrium.converged": counters.get("equilibrium.runs_converged", 0) / runs if runs else 0.0,
        "equilibrium.planner_s": inclusive("equilibrium.planner"),
        "roundsim.run_round_s": inclusive("roundsim.run_round"),
        "roundsim.run_round_self_s": spans.get("roundsim.run_round", (0, 0.0, 0.0))[2],
        "roundsim.panel_rows": counters.get("roundsim.panel_rows", 0),
        "roundsim.write_outputs_s": sum(
            inclusive(f"roundsim.{n}") for n in ("write_k_series", "emit_panel", "write_deficit_curve")
        ),
        "trace.spans": layers["span_count"],
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict[str, str], samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_worker(spec: dict, run_dir: Path, env: dict[str, str]) -> dict:
    spec_path = run_dir / "worker_spec.json"
    result_path = run_dir / "worker_result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(run_dir / "worker.log", "w", encoding="utf-8") as log:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                       env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                       timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_ops(name: str, ops: list[dict], truth: dict) -> tuple[int, list[str], dict]:
    """Check every command of every operation.

    Returns the number of failed commands, their messages and the checks' context.
    """
    ctx: dict = {}
    failed = 0
    failures: list[str] = []
    for op in ops:
        for command in op["commands"]:
            problems = []
            if command["error"]:
                problems.append(f"raised:\n{command['error']}")
            elif command["exit"] != 0:
                problems.append(f"exited {command['exit']!r}")
            else:
                problems += checks.CHECKS[command["name"]](Path(op["dir"]), truth, ctx)
            if op["traced"] and command is op["commands"][-1]:
                problems += checks.check_counts(op["layers"], truth, LOADS.get(name, 0))
            if problems:
                failed += 1
                failures += [f"op {op['index']} {command['name']}: {p}" for p in problems]
    return failed, failures, ctx


def layer_samples(ops: list[dict], ctx: dict) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics: medians over the traced operations."""
    per_op = [layer_metrics(op["layers"]) for op in ops if op["traced"]]
    walls = {traced: statistics.median(sum(c["wall_s"] for c in op["commands"])
                                       for op in ops if op["traced"] == traced)
             for traced in (False, True)}
    samples = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead_s":
            value = walls[True] - walls[False]
        elif metric == "equilibrium.max_foc_residual":
            value = ctx.get("max_foc_residual", 0.0)
        elif unit == "count":
            value = statistics.median_low(m[metric] for m in per_op)
        else:
            value = statistics.median(m[metric] for m in per_op)
        samples[metric] = (value, unit, len(per_op))
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One run of one workload; prints its metric lines and returns the result."""
    run_dir = WORK / name
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    workload = gen.GENERATORS[name](seed, size, run_dir / "inputs")
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in workload.inputs}
    env = child_env()
    # Half the import timings before the worker and half after, so their
    # median spans the same stretch of time as the operations.
    setup = measure_setup(env, (SETUP_SAMPLES[size] + 1) // 2)
    spec = {
        "commands": workload.commands,
        "out_root": str(run_dir / "ops"),
        "seconds": seconds,
        "min_ops": 2 if trace else MIN_OPS[size],
        "trace": trace,
        "spans_out": str(run_dir / "spans.jsonl"),
    }
    result = run_worker(spec, run_dir, env)
    setup += measure_setup(env, SETUP_SAMPLES[size] // 2)
    ops = result["ops"]
    failed, failures, ctx = check_ops(name, ops, workload.truth)
    shutil.rmtree(run_dir / "ops", ignore_errors=True)
    attempted = sum(len(op["commands"]) for op in ops)

    untraced = [op for op in ops if not op["traced"]]
    op_walls = [sum(c["wall_s"] for c in op["commands"]) for op in untraced]
    samples: dict[str, tuple[float, str, int]] = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "command_s": (statistics.median(op_walls), "s", len(op_walls)),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB", 1),
    }
    for command_name, _argv in workload.commands:
        walls = [c["wall_s"] for op in untraced for c in op["commands"] if c["name"] == command_name]
        samples[f"{command_name}_s"] = (statistics.median(walls), "s", len(walls))
    samples["failed_frac"] = (failed / attempted, "ratio", attempted)
    if trace:
        samples.update(layer_samples(ops, ctx))

    print(f"# workload {name} seed {seed} trace {int(trace)} size {size}")
    for file_name, digest in digests.items():
        print(f"# input {file_name} sha256 {digest}")
    for metric, (value, unit, count) in samples.items():
        print(f"metric {metric} = {value!r} {unit} (n={count})")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    reported = PER_LAYER if trace else END_TO_END
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": samples[m][0], "unit": samples[m][1]} for m in reported},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
              "inputs": digests, "setup_s": setup, "ops": ops, "failures": failures,
              "samples": samples, "summary": summary}
    (run_dir / "results.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return summary


def run_all(seed: int, seconds: float, size: str) -> tuple[dict, dict[str, dict]]:
    by_run: dict[str, dict] = {}
    for name in WORKLOADS:
        for trace in (False, True):
            by_run[f"{name}/trace{int(trace)}"] = run_workload(name, seed, seconds, trace, size)
    combined = {
        "correct": all(s["correct"] for s in by_run.values()),
        "attempted": sum(s["attempted"] for s in by_run.values()),
        "failed": sum(s["failed"] for s in by_run.values()),
        "metrics": {f"{run}/{m}": v for run, s in by_run.items() for m, v in s["metrics"].items()},
    }
    return combined, by_run


COUNTS = ("ledger.rows_read", "ledger.rows_rejected", "ledger.edges", "funding.ledger_build_calls",
          "equilibrium.solve_calls", "equilibrium.marginal_evals", "equilibrium.iterations",
          "roundsim.panel_rows")


def self_check(seed: int) -> int:
    """Every workload at tiny size, both modes, plus a repeat of the traced run."""
    combined, by_run = run_all(seed, 0.0, "tiny")
    problems = [] if combined["correct"] else ["an operation failed its checks"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for run, summary in by_run.items():
        wanted = declared["per_layer"] if run.endswith("trace1") else declared["end_to_end"]
        if set(summary["metrics"]) != {m["name"] for m in wanted}:
            problems.append(f"{run}: metrics differ from BENCHMARK.json")
    for name in WORKLOADS:
        again = run_workload(name, seed, 0.0, True, "tiny")["metrics"]
        first = by_run[f"{name}/trace1"]["metrics"]
        for count in COUNTS:
            if again[count]["value"] != first[count]["value"]:
                problems.append(f"{name}: {count} {first[count]['value']} then {again[count]['value']}")
    for problem in problems:
        print(f"SELF-CHECK FAILED {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qfround" / "cli.py").is_file():
        print(f"error: no qfround sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        parser.error("--workload is required unless --self-check is given")
    try:
        if args.self_check:
            return self_check(args.seed)
        if args.workload == "all":
            summary, _ = run_all(args.seed, args.seconds, "full")
        else:
            summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except subprocess.SubprocessError as exc:
        print(f"error: {exc} (worker output in {WORK}/<workload>/worker.log)", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
