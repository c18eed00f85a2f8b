"""Command-line surface: reproducible reports from ledger files.

Exit codes: 0 success, 1 domain error (bad data), 2 usage error (bad flags
or unreadable files).  Machine-readable CSV/JSON goes to stdout or the
requested files; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import efficiency, equilibrium, ledger, roundsim, strategy
from .errors import DomainError, LedgerFormatError
from .funding import ProjectLedger, group_ledgers
from .report import PROJECT_COLUMNS, build_report

DEFAULT_SWEEP_PROFILES = "1:1,1:2,1:15"


def _load_contributions(path) -> ledger.LoadResult:
    loaded = ledger.load_contributions(path)
    for error in loaded.errors:
        print(f"{path}:{error.line}: {error.message}", file=sys.stderr)
    return loaded


def _ledgers_from_file(path) -> list[ProjectLedger]:
    loaded = _load_contributions(path)
    return group_ledgers(loaded.contributions, loaded.project_categories)


def _write_or_stdout(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_allocate(args) -> int:
    ledgers = _ledgers_from_file(args.contributions)
    pools = ledger.load_pools(args.pools)
    report = build_report(ledgers, pools, cap_at_target=args.cap_at_target, strict=True)
    _write_or_stdout(report.to_json(), args.json)
    if args.csv:
        rows = ((block.category, *p.row()) for block in report.categories for p in block.projects)
        ledger.write_rows(args.csv, ("category", *PROJECT_COLUMNS), rows)
    return 0


def _cmd_diagnose(args) -> int:
    ledgers = _ledgers_from_file(args.contributions)
    pools = ledger.load_pools(args.pools)
    report = build_report(ledgers, pools, strict=True)
    k_of = {block.category: block.k for block in report.categories}
    lambda_reports = [
        efficiency.lambda_report(item, k_of[item.category])
        for item in ledgers
        if item.contributor_count > 0
    ]
    stats = [
        efficiency.dispersion(lambda_reports, category)
        for category in sorted({r.category for r in lambda_reports})
    ]
    payload = {
        "k_policy": "final",
        "projects": [
            {
                "project_id": r.project_id,
                "category": r.category,
                "n": r.n,
                "k_used": r.k_used,
                "lambda_p": r.lambda_p,
                "lower_bound": r.lower_bound,
            }
            for r in sorted(lambda_reports, key=lambda r: r.project_id)
        ],
        "categories": [
            {
                "category": s.category,
                "project_count": s.project_count,
                "mean": s.mean,
                "stdev": s.stdev,
                "min": s.min,
                "max": s.max,
            }
            for s in stats
        ],
    }
    _write_or_stdout(json.dumps(payload, indent=2), args.json)
    return 0


def _parse_profiles(text: str) -> list[tuple[float, ...]]:
    profiles = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise DomainError(f"empty profile in {text!r}")
        try:
            amounts = tuple(float(part) for part in chunk.split(":"))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad ratio profile {chunk!r}: {exc}") from None
        if len(amounts) < 1 or any(a <= 0 for a in amounts):
            raise argparse.ArgumentTypeError(f"bad ratio profile {chunk!r}: need positive amounts")
        profiles.append(amounts)
    return profiles


def _cmd_sweep_k(args) -> int:
    profiles = args.profiles
    if args.steps < 2 or args.k_max <= args.k_min:
        raise DomainError("need at least 2 steps and k-max > k-min")
    step = (args.k_max - args.k_min) / (args.steps - 1)
    grid = [args.k_min + i * step for i in range(args.steps)]
    points = efficiency.k_sweep(profiles, grid)
    lines = ["profile_label,k,lambda_p"]
    lines += [f"{p.profile_label},{p.k!r},{p.lambda_p!r}" for p in points]
    _write_or_stdout("\n".join(lines), args.out)
    return 0


def _cmd_collusion(args) -> int:
    lines = ["n,k,alpha_star,alpha_double_star"]
    if args.sweep:
        ns = [int(x) for x in args.ring_sizes.split(",")]
        if args.steps < 2 or args.k_max <= 1.0:
            raise DomainError("need at least 2 steps and k-max > 1")
        step = (args.k_max - 1.0) / (args.steps - 1)
        grid = [1.0 + i * step for i in range(args.steps)]
        rows = strategy.threshold_sweep(ns, grid)
    else:
        rows = [strategy.collusion_thresholds(args.n, args.k)]
    lines += [f"{r.n},{r.k!r},{r.alpha_star!r},{r.alpha_double_star!r}" for r in rows]
    _write_or_stdout("\n".join(lines), args.out)
    return 0


def _cmd_equilibrium(args) -> int:
    valuations = equilibrium.load_valuations(args.valuations)
    budgets = ledger.load_budgets(args.budgets) if args.budgets else None
    result = equilibrium.best_response(valuations, args.k, budgets, max_iter=args.max_iter)
    if not result.converged:
        print(f"warning: best response did not converge in {result.iterations} sweeps", file=sys.stderr)
    contributions: dict[str, dict[str, float]] = {}
    for (cid, pid), amount in sorted(result.contributions.items()):
        contributions.setdefault(cid, {})[pid] = amount
    payload = {
        "k": args.k,
        "converged": result.converged,
        "iterations": result.iterations,
        "welfare": result.welfare,
        "funds": dict(sorted(result.funds.items())),
        "aggregate_marginal": dict(sorted(result.aggregate_marginal.items())),
        "contributions": contributions,
        "clamped": sorted(list(pair) for pair in result.clamped),
    }
    if args.planner_pool is not None:
        planner = equilibrium.planner_optimum(valuations, args.planner_pool)
        payload["planner"] = {
            "pool": args.planner_pool,
            "funds": dict(sorted(planner.funds.items())),
            "common_marginal": planner.common_marginal,
            "welfare": planner.welfare,
        }
    _write_or_stdout(json.dumps(payload, indent=2), args.json)
    return 0


def _string(value, key: str) -> str:
    """A round file's id exactly as given; anything but a JSON string is a TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def _strings(value, key: str) -> tuple[str, ...]:
    """A round file's list of ids; a string is not split into characters but a TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a list, got {value!r}")
    return tuple(_string(item, key) for item in value)


def load_simulation_file(path) -> tuple[roundsim.RoundConfig, list[roundsim.AgentSpec]]:
    """Parse the JSON round description (categories, events, agents).

    A file that is not such a description raises LedgerFormatError
    ``path:line: reason`` for a JSON syntax error, ``path: reason`` otherwise.
    Every id (category, project, agent, ring) must be a JSON string, and
    every list of project ids a JSON list.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        config = roundsim.RoundConfig(
            categories=tuple(
                roundsim.CategorySpec(
                    _string(c["name"], "name"),
                    float(c["pool"]),
                    _strings(c["projects"], "projects"),
                )
                for c in data["categories"]
            ),
            duration_days=int(data["duration_days"]),
            pool_events=tuple(
                roundsim.PoolEvent(
                    int(e["day"]), _string(e["category"], "category"), float(e["new_pool"])
                )
                for e in data.get("pool_events", ())
            ),
            seed=int(data.get("seed", 0)),
        )
        agents = [
            roundsim.AgentSpec(
                agent_id=_string(raw["id"], "id"),
                kind=raw["kind"],
                budget=float(raw["budget"]),
                activity=float(raw.get("activity", 1.0)),
                valuations=tuple(
                    equilibrium.Valuation(
                        raw["id"], _string(v["project"], "project"), v["family"], float(v["scale"])
                    )
                    for v in raw.get("valuations", ())
                ),
                fixed_amount=float(raw["fixed_amount"]) if "fixed_amount" in raw else None,
                projects=_strings(raw.get("projects", []), "projects"),
                ring_id=_string(raw.get("ring", ""), "ring"),
                own_project=_string(raw.get("own_project", ""), "own_project"),
                defects_from_round=raw.get("defects_from_round"),
            )
            for raw in data.get("agents", ())
        ]
    except json.JSONDecodeError as exc:
        raise LedgerFormatError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except KeyError as exc:
        raise LedgerFormatError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise LedgerFormatError(f"{path}: {exc}") from None
    return config, agents


def _cmd_simulate(args) -> int:
    config, agents = load_simulation_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    trajectory = roundsim.run_round(config, agents)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    roundsim.write_k_series(trajectory, out_dir / "k_daily.csv")
    roundsim.emit_panel(trajectory, out_dir / "panel.csv")
    curve = roundsim.deficit_curve(trajectory)
    roundsim.write_deficit_curve(curve, out_dir / "deficit_curve.csv")
    (out_dir / "allocation_report.json").write_text(
        trajectory.final_report.to_json(), encoding="utf-8"
    )
    summary = {
        "seed": config.seed,
        "days": config.duration_days,
        "contributions": len(trajectory.panel),
        "final_k": trajectory.k_by_day[-1] if trajectory.k_by_day else {},
        "outputs": {
            "k_daily": str(out_dir / "k_daily.csv"),
            "panel": str(out_dir / "panel.csv"),
            "deficit_curve": str(out_dir / "deficit_curve.csv"),
            "allocation_report": str(out_dir / "allocation_report.json"),
        },
    }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_reciprocal(args) -> int:
    loaded = _load_contributions(args.contributions)
    roster = ledger.load_roster(args.teams)
    graph = ledger.build_graph(loaded.contributions, roster, loaded.project_categories)
    report = ledger.reciprocity_stats(graph, weighted=args.weighted)
    cross = ledger.cross_category_stats(graph)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "reciprocal_report.csv"
    columns = [f.name for f in fields(ledger.ProjectReciprocity)]
    ledger.write_rows(report_path, columns, (
        [f"{v:g}" if isinstance(v, float) else v for v in (getattr(row, c) for c in columns)]
        for row in report.rows
    ))
    cross_path = out_dir / "cross_category.csv"
    columns = [f.name for f in fields(ledger.CategoryCross)]
    rows = ([getattr(row, c) for c in columns] for row in cross.rows)
    ledger.write_rows(cross_path, columns, rows)
    if cross.single_category:
        print("warning: single-category graph, cross shares are trivially 0", file=sys.stderr)

    def fit_dict(fit):
        return None if fit is None else {"slope": fit.slope, "intercept": fit.intercept, "n": fit.n_points}

    print(
        json.dumps(
            {
                "weighted": report.weighted,
                "slope": fit_dict(report.slope),
                "cross_slope_cross_denominator": fit_dict(report.cross_slope_cross_denominator),
                "cross_slope_total_denominator": fit_dict(report.cross_slope_total_denominator),
                "self_support_projects": len(graph.self_support),
                "outputs": {"report": str(report_path), "cross_category": str(cross_path)},
            },
            indent=2,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qfround", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    allocate = sub.add_parser("allocate", help="scale pool matches across a round's projects")
    allocate.add_argument("--contributions", required=True)
    allocate.add_argument("--pools", required=True)
    allocate.add_argument("--cap-at-target", action="store_true")
    allocate.add_argument("--json", default=None, help="write report JSON here instead of stdout")
    allocate.add_argument("--csv", default=None, help="also write a per-project CSV")
    allocate.set_defaults(func=_cmd_allocate)

    diagnose = sub.add_parser("diagnose", help="per-project multipliers and per-category dispersion")
    diagnose.add_argument("--contributions", required=True)
    diagnose.add_argument("--pools", required=True)
    diagnose.add_argument("--json", default=None)
    diagnose.set_defaults(func=_cmd_diagnose)

    sweep = sub.add_parser("sweep-k", help="multiplier curves over a grid of k values")
    sweep.add_argument("--profiles", type=_parse_profiles, default=_parse_profiles(DEFAULT_SWEEP_PROFILES))
    sweep.add_argument("--k-min", type=float, default=1.0)
    sweep.add_argument("--k-max", type=float, default=20.0)
    sweep.add_argument("--steps", type=int, default=100)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep_k)

    collusion = sub.add_parser("collusion", help="ring participation thresholds")
    collusion.add_argument("--n", type=int, default=25)
    collusion.add_argument("--k", type=float, default=1.0)
    collusion.add_argument("--sweep", action="store_true")
    collusion.add_argument("--ring-sizes", default="10,25")
    collusion.add_argument("--k-max", type=float, default=30.0)
    collusion.add_argument("--steps", type=int, default=30)
    collusion.add_argument("--out", default=None)
    collusion.set_defaults(func=_cmd_collusion)

    equilibrium_cmd = sub.add_parser("equilibrium", help="best-response fixed point (and planner)")
    equilibrium_cmd.add_argument("--valuations", required=True)
    equilibrium_cmd.add_argument("--k", type=float, required=True)
    equilibrium_cmd.add_argument("--budgets", default=None)
    equilibrium_cmd.add_argument("--planner-pool", type=float, default=None)
    equilibrium_cmd.add_argument("--max-iter", type=int, default=10_000)
    equilibrium_cmd.add_argument("--json", default=None)
    equilibrium_cmd.set_defaults(func=_cmd_equilibrium)

    simulate = sub.add_parser("simulate", help="run a configured round")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out-dir", default="round_out")
    simulate.add_argument("--seed", type=int, default=None, help="override the config seed")
    simulate.set_defaults(func=_cmd_simulate)

    reciprocal = sub.add_parser("reciprocal", help="reciprocal-backing forensics")
    reciprocal.add_argument("--contributions", required=True)
    reciprocal.add_argument("--teams", required=True)
    reciprocal.add_argument("--out-dir", default=".")
    reciprocal.add_argument("--weighted", action="store_true")
    reciprocal.set_defaults(func=_cmd_reciprocal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:  # pragma: no cover - console script shim
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
