"""Run one workload's CLI commands in process, in a closed loop.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

One client issues one operation at a time: an operation runs the
workload's commands in order through ``qfround.cli.main(argv)``, each with
its stdout and stderr captured to files in the operation's own directory.
The loop stops once ``min_ops`` operations have run and one more, at
their mean duration, would end after ``seconds``.  With tracing on,
operations alternate untraced and traced, starting untraced, so the result
holds both and the difference is the tracing overhead.  The result file lists every command's exit code and
wall time, the traced operations' layer summaries and the process's peak
resident memory.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    ``getrusage`` is not used: Linux carries the parent's peak across fork
    and exec into ``ru_maxrss``, so it would report the generator's memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_command(cli, argv: list[str], op_dir: Path, name: str, tracer) -> dict:
    gc.collect()
    with open(op_dir / f"{name}.stdout", "w", encoding="utf-8") as out, \
            open(op_dir / f"{name}.stderr", "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        error = None
        start = perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{name}", cli.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaped exception is a failed operation, not a crash
            code = None
            error = traceback.format_exc()
        out.flush()
        err.flush()
        wall = perf_counter() - start
    return {"name": name, "exit": code, "wall_s": wall, "error": error}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from qfround import cli  # found through PYTHONPATH, set by run.py

    tracer = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()
    out_root = Path(spec["out_root"])
    ops = []
    started = perf_counter()
    while True:
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        op_dir = out_root / f"op{index:03d}"
        op_dir.mkdir(parents=True)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            commands = [
                run_command(cli, [a.replace("{out}", str(op_dir)) for a in argv], op_dir, name,
                            tracer if traced else None)
                for name, argv in spec["commands"]
            ]
        finally:
            if traced:
                tracer.uninstall()
        op = {"index": index, "dir": str(op_dir), "traced": traced, "commands": commands}
        if traced:
            op["layers"] = tracer.summary()
        ops.append(op)
        elapsed = perf_counter() - started
        if len(ops) >= spec["min_ops"] and elapsed * (len(ops) + 1) / len(ops) > spec["seconds"]:
            break
    if tracer is not None:
        tracer.write_spans(spec["spans_out"])  # the last traced operation's spans
    result = {"ops": ops, "peak_rss_kb": peak_rss_kb()}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
