"""Command-line surface: reproducible reports from ledger files.

Exit codes: 0 success, 1 domain error (bad data), 2 usage error (bad flags
or unreadable files).  Machine-readable CSV/JSON goes to stdout or the
requested files; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import efficiency, equilibrium, ledger, roundsim, strategy
from .errors import DomainError
from .funding import ProjectLedger
from .ledger import field_dict, field_names
from .report import ProjectReport, build_report, diagnose
from .roundsim import load_simulation_file

DEFAULT_SWEEP_PROFILES = "1:1,1:2,1:15"


def _load_contributions(path) -> ledger.LoadResult:
    loaded = ledger.load_contributions(path)
    for error in loaded.errors:
        print(f"{path}:{error.line}: {error.message}", file=sys.stderr)
    return loaded


def _ledgers_from_file(path) -> list[ProjectLedger]:
    loaded = _load_contributions(path)
    return loaded.contributions.ledgers(loaded.project_categories)


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
        rows = ((c.category, *field_dict(p).values()) for c in report.categories for p in c.projects)
        ledger.write_rows(args.csv, ("category", *field_names(ProjectReport)), rows)
    return 0


def _cmd_diagnose(args) -> int:
    ledgers = _ledgers_from_file(args.contributions)
    _write_or_stdout(diagnose(ledgers, ledger.load_pools(args.pools)), args.json)
    return 0


def _parse_profiles(text: str) -> list[tuple[float, ...]]:
    profiles = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise argparse.ArgumentTypeError(f"empty profile in {text!r}")
        try:
            amounts = tuple(float(part) for part in chunk.split(":"))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad ratio profile {chunk!r}: {exc}") from None
        if not all(0.0 < a < math.inf for a in amounts):
            raise argparse.ArgumentTypeError(f"bad ratio profile {chunk!r}: need finite positive amounts")
        profiles.append(amounts)
    return profiles


def _parse_ring_sizes(text: str) -> list[int]:
    try:
        return [int(size) for size in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ring sizes {text!r}: need comma-separated integers") from None


def _k_grid(args, k_min: float, k_min_name: str) -> list[float]:
    """``--steps`` evenly spaced k from ``k_min`` to ``--k-max``."""
    for flag, value in (("--k-min", k_min), ("--k-max", args.k_max)):
        if not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value!r}")
    if args.steps < 2 or args.k_max <= k_min:
        raise DomainError(f"need at least 2 steps and k-max > {k_min_name}")
    step = (args.k_max - k_min) / (args.steps - 1)
    return [k_min + i * step for i in range(args.steps)]


def _write_table(cls, rows, path: str | None) -> None:
    """A header of ``cls``'s field names, then each row's values as ``str`` (a float's repr)."""
    names = field_names(cls)
    lines = [",".join(names)] + [",".join(str(getattr(row, name)) for name in names) for row in rows]
    _write_or_stdout("\n".join(lines), path)


def _cmd_sweep_k(args) -> int:
    points = efficiency.k_sweep(args.profiles, _k_grid(args, args.k_min, "k-min"))
    _write_table(efficiency.SweepPoint, points, args.out)
    return 0


def _cmd_collusion(args) -> int:
    if args.sweep:
        rows = strategy.threshold_sweep(args.ring_sizes, _k_grid(args, 1.0, "1"))
    else:
        rows = [strategy.collusion_thresholds(args.n, args.k)]
    _write_table(strategy.CollusionThresholds, rows, args.out)
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
    payload = {"k": args.k, **field_dict(result), "contributions": contributions,
               "clamped": sorted(list(pair) for pair in result.clamped)}
    if args.planner_pool is not None:
        planner = equilibrium.planner_optimum(valuations, args.planner_pool)
        payload["planner"] = {"pool": args.planner_pool, **field_dict(planner)}
    _write_or_stdout(json.dumps(payload, indent=2), args.json)
    return 0


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
    ledger.write_rows(report_path, field_names(ledger.ProjectReciprocity), (
        [f"{v:g}" if isinstance(v, float) else v for v in field_dict(row).values()] for row in report.rows
    ))
    cross_path = out_dir / "cross_category.csv"
    ledger.write_records(cross_path, ledger.CategoryCross, cross.rows)
    if cross.single_category:
        print("warning: single-category graph, cross shares are trivially 0", file=sys.stderr)

    def fit_dict(fit):
        return None if fit is None else field_dict(fit)

    print(json.dumps({
        "weighted": report.weighted,
        "slope": fit_dict(report.slope),
        "cross_slope_cross_denominator": fit_dict(report.cross_slope_cross_denominator),
        "cross_slope_total_denominator": fit_dict(report.cross_slope_total_denominator),
        "self_support_projects": int((graph.self_counts > 0).sum()),
        "outputs": {"report": str(report_path), "cross_category": str(cross_path)},
    }, indent=2))
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
    collusion.add_argument("--ring-sizes", type=_parse_ring_sizes, default="10,25")
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
