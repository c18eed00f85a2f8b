"""Layer spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of the ``qfround`` modules
with wrappers.  Every module attribute that refers to a wrapped function is
replaced, so callers that bound the name with ``from .x import f`` reach the
wrapper too; ``uninstall`` puts the originals back.  Each call becomes a
span ``(parent, name, start, end)`` kept in memory; ``summary`` derives
per-name calls, inclusive time and self time (the span's duration minus
the time its child spans cover).  ``Valuation.marginal`` runs millions of
times, so it is counted, not timed, under the name of the enclosing span.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter


def _count_load(counters: Counter, result) -> None:
    kept_conflicts = sum(1 for e in result.errors if e.message.startswith("category conflict"))
    counters["ledger.rows_read"] += len(result.contributions) + len(result.errors) - kept_conflicts
    counters["ledger.rows_rejected"] += len(result.errors)


def _count_graph(counters: Counter, result) -> None:
    counters["ledger.edges"] += len(result.edges)


def _count_best_response(counters: Counter, result) -> None:
    counters["equilibrium.runs"] += 1
    counters["equilibrium.iterations"] += result.iterations
    counters["equilibrium.runs_converged"] += int(result.converged)


def _count_round(counters: Counter, result) -> None:
    counters["roundsim.panel_rows"] += len(result.panel)


#: (module, attribute or Class.attribute, span name, result hook)
SPANS = (
    ("qfround.cli", "load_simulation_file", "cli.load_simulation_file", None),
    ("qfround.ledger", "load_contributions", "ledger.load_contributions", _count_load),
    ("qfround.ledger", "load_roster", "ledger.load_roster", None),
    ("qfround.ledger", "build_graph", "ledger.build_graph", _count_graph),
    ("qfround.ledger", "reciprocity_stats", "ledger.reciprocity_stats", None),
    ("qfround.ledger", "cross_category_stats", "ledger.cross_category_stats", None),
    ("qfround.funding", "ProjectLedger.build", "funding.ledger_build", None),
    ("qfround.funding", "cqf_allocate", "funding.cqf_allocate", None),
    ("qfround.report", "build_report", "report.build_report", None),
    ("qfround.efficiency", "lambda_p", "efficiency.lambda_p", None),
    ("qfround.efficiency", "lambda_report", "efficiency.lambda_report", None),
    ("qfround.efficiency", "lambda_from_amounts", "efficiency.lambda_from_amounts", None),
    ("qfround.equilibrium", "solve_best_contribution", "equilibrium.solve", None),
    ("qfround.equilibrium", "best_response", "equilibrium.best_response", _count_best_response),
    ("qfround.equilibrium", "planner_optimum", "equilibrium.planner", None),
    ("qfround.roundsim", "run_round", "roundsim.run_round", _count_round),
    ("qfround.roundsim", "deficit_curve", "roundsim.deficit_curve", None),
    ("qfround.roundsim", "write_k_series", "roundsim.write_k_series", None),
    ("qfround.roundsim", "emit_panel", "roundsim.emit_panel", None),
    ("qfround.roundsim", "write_deficit_curve", "roundsim.write_deficit_curve", None),
)
MARGINAL = ("qfround.equilibrium", "Valuation.marginal")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float] | None] = []
        self.counters: Counter = Counter()
        #: Valuation.marginal calls keyed by the enclosing span's name.
        self.marginal_by_span: Counter = Counter()
        self._stack: list[int] = []
        self._current = ""
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters.clear()
        self.marginal_by_span.clear()

    def call(self, name: str, fn, *args, hook=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        outer = self._current
        self._stack.append(index)
        self._current = name
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._current = outer
            self.spans[index] = (parent, name, start, end)
        if hook is not None:
            hook(self.counters, result)
        return result

    def _span_wrapper(self, name: str, fn, hook):
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, *args, hook=hook, **kwargs)

        return wrapper

    def _counting_wrapper(self, fn):
        counts = self.marginal_by_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self._current] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for module_name, path, name, hook in SPANS + ((*MARGINAL, None, None),):
            module = sys.modules[module_name]
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._span_wrapper(name, original.__func__, hook))
                elif name is None:
                    wrapped = self._counting_wrapper(original)
                else:
                    wrapped = self._span_wrapper(name, original, hook)
                self._patch(owner, attribute, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._span_wrapper(name, original, hook)
            for key, bound in list(sys.modules.items()):
                if key != "qfround" and not key.startswith("qfround."):
                    continue
                for attribute, value in list(vars(bound).items()):
                    if value is original:
                        self._patch(bound, attribute, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def summary(self) -> dict:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        child_time = [0.0] * len(self.spans)
        for parent, _name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list[float]] = {}
        for index, (_parent, name, start, end) in enumerate(self.spans):
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return {
            "spans": by_name,
            "counters": dict(self.counters),
            "marginal_by_span": dict(self.marginal_by_span),
            "span_count": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (parent, name, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")
