"""Reference backing graph and statistics, as ``qfround.ledger`` first computed them.

The graph is three dicts walked with Python sets: each record is added to
the edge of every team its contributor belongs to, in record order, and
each node's partners are found by looking up the reverse edge.  The
``reciprocal`` command is assembled the same way, from the loaded
records.  Tests compare the library and the command
against it.
"""

import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields
from functools import cached_property
from io import StringIO
from pathlib import Path

from synthgraph import records_of

from qfround import ledger
from qfround.errors import DomainError
from qfround.ledger import (
    CategoryCross,
    CrossCategoryReport,
    ProjectReciprocity,
    ReciprocityReport,
    SlopeFit,
)


@dataclass(frozen=True)
class ContributionGraph:
    categories: dict[str, str]
    edges: dict[tuple[str, str], float]
    self_support: dict[str, int]

    @cached_property
    def _adjacency(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {node: set() for node in self.categories}
        for (a, b) in self.edges:
            out[a].add(b)
        return {node: frozenset(targets) for node, targets in out.items()}

    def outdegree(self, project: str) -> int:
        return len(self._adjacency.get(project, ()))

    def out_neighbors(self, project: str) -> frozenset[str]:
        return self._adjacency.get(project, frozenset())

    def reciprocal_partners(self, project: str) -> set[str]:
        return {b for b in self.out_neighbors(project) if project in self.out_neighbors(b)}


def build_graph(contributions, roster, categories=None) -> ContributionGraph:
    teams_of = roster.teams_of()
    edges: dict[tuple[str, str], float] = {}
    self_support: dict[str, int] = {}
    nodes: set[str] = set(roster.members)
    for record in contributions:
        nodes.add(record.project_id)
        for source in teams_of.get(record.contributor_id, ()):
            if source == record.project_id:
                self_support[source] = self_support.get(source, 0) + 1
                continue
            key = (source, record.project_id)
            edges[key] = edges.get(key, 0.0) + record.amount
    labels = {node: (categories or {}).get(node, "") for node in nodes}
    return ContributionGraph(labels, edges, self_support)


def _ols(xs, ys):
    n = len(xs)
    if n < 2:
        return None
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    var_x = math.fsum((x - mean_x) ** 2 for x in xs)
    if var_x == 0.0:
        return None
    cov = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var_x
    return SlopeFit(slope, mean_y - slope * mean_x, n)


def reciprocity_stats(graph: ContributionGraph, *, weighted: bool = False) -> ReciprocityReport:
    if not graph.categories:
        raise DomainError("empty graph")
    rows = []
    for node in sorted(graph.categories):
        targets = graph.out_neighbors(node)
        mutual = graph.reciprocal_partners(node)
        cross_targets = {b for b in targets if graph.categories[b] != graph.categories[node]}
        cross_mutual = mutual & cross_targets

        def measure(group):
            if not weighted:
                return float(len(group))
            return math.fsum(graph.edges[(node, b)] for b in group)

        rows.append(
            ProjectReciprocity(
                project_id=node,
                category=graph.categories[node],
                outdegree=measure(targets),
                reciprocal=measure(mutual),
                cross_outdegree=measure(cross_targets),
                cross_reciprocal=measure(cross_mutual),
            )
        )
    active = [row for row in rows if row.outdegree > 0]
    slope = _ols([r.outdegree for r in active], [r.reciprocal for r in active])
    cross_active = [row for row in rows if row.cross_outdegree > 0]
    cross_cross = _ols(
        [r.cross_outdegree for r in cross_active], [r.cross_reciprocal for r in cross_active]
    )
    cross_total = _ols([r.outdegree for r in active], [r.cross_reciprocal for r in active])
    return ReciprocityReport(tuple(rows), slope, cross_cross, cross_total, weighted)


def cross_category_stats(graph: ContributionGraph) -> CrossCategoryReport:
    if not graph.categories:
        raise DomainError("empty graph")
    total = len(graph.categories)
    by_category: dict[str, list[str]] = {}
    for node in sorted(graph.categories):
        by_category.setdefault(graph.categories[node], []).append(node)
    single = len(by_category) < 2
    rows = []
    for category in sorted(by_category):
        members = by_category[category]
        endpoints = 0
        cross = 0
        for node in members:
            for partner in graph.reciprocal_partners(node):
                endpoints += 1
                if graph.categories[partner] != category:
                    cross += 1
        rows.append(
            CategoryCross(
                category=category,
                project_count=len(members),
                outside_project_share=(total - len(members)) / total,
                cross_reciprocal_share=cross / endpoints if endpoints else 0.0,
                reciprocal_endpoints=endpoints,
                cross_endpoints=cross,
            )
        )
    return CrossCategoryReport(tuple(rows), single)


def _fit_dict(fit):
    return None if fit is None else {"slope": fit.slope, "intercept": fit.intercept, "n": fit.n}


def _reciprocal(contributions, teams, out_dir: Path, weighted: bool) -> int:
    loaded = ledger.load_contributions(contributions)
    for error in loaded.errors:
        print(f"{contributions}:{error.line}: {error.message}", file=sys.stderr)
    roster = ledger.load_roster(teams)
    graph = build_graph(records_of(loaded.contributions), roster, loaded.project_categories)
    report = reciprocity_stats(graph, weighted=weighted)
    cross = cross_category_stats(graph)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "reciprocal_report.csv"
    columns = [f.name for f in fields(ProjectReciprocity)]
    ledger.write_rows(report_path, columns, (
        [f"{v:g}" if isinstance(v, float) else v for v in (getattr(row, c) for c in columns)]
        for row in report.rows
    ))
    cross_path = out_dir / "cross_category.csv"
    columns = [f.name for f in fields(CategoryCross)]
    ledger.write_rows(cross_path, columns, ([getattr(row, c) for c in columns] for row in cross.rows))
    if cross.single_category:
        print("warning: single-category graph, cross shares are trivially 0", file=sys.stderr)
    print(json.dumps({
        "weighted": report.weighted,
        "slope": _fit_dict(report.slope),
        "cross_slope_cross_denominator": _fit_dict(report.cross_slope_cross_denominator),
        "cross_slope_total_denominator": _fit_dict(report.cross_slope_total_denominator),
        "self_support_projects": len(graph.self_support),
        "outputs": {"report": str(report_path), "cross_category": str(cross_path)},
    }, indent=2))
    return 0


def reciprocal(contributions, teams, out_dir, weighted: bool = False) -> tuple[int, str, str]:
    """``(exit code, stdout, stderr)`` of ``reciprocal`` writing into ``out_dir``."""
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = _reciprocal(contributions, teams, Path(out_dir), weighted)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    return code, stdout.getvalue(), stderr.getvalue()
