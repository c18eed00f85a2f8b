"""File ingestion for contribution/team ledgers and reciprocity forensics.

contributions.csv needs the columns day,category,project_id,contributor_id,
amount (extras are ignored, so emitted panels load back).  teams.csv maps
project_id,member_id.  A directed edge A->B means some member of project
A's team contributed to project B; a pair is reciprocal when both
directions exist.  Contributions by a member to their own project are kept
out of the graph and tallied separately.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import DomainError, LedgerFormatError
from .funding import Contribution, ContributionColumns, check_record

__all__ = [
    "RowError",
    "LoadResult",
    "TeamRoster",
    "ContributionGraph",
    "SlopeFit",
    "ProjectReciprocity",
    "ReciprocityReport",
    "CategoryCross",
    "CrossCategoryReport",
    "read_rows",
    "write_rows",
    "positive_field",
    "load_contributions",
    "write_contributions",
    "load_roster",
    "load_pools",
    "load_budgets",
    "build_graph",
    "reciprocity_stats",
    "cross_category_stats",
]

CONTRIBUTIONS_COLUMNS = ("day", "category", "project_id", "contributor_id", "amount")
TEAMS_COLUMNS = ("project_id", "member_id")


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass(frozen=True)
class LoadResult:
    columns: ContributionColumns
    project_categories: dict[str, str]
    errors: tuple[RowError, ...]

    @cached_property
    def contributions(self) -> tuple[Contribution, ...]:
        """The loaded records, built on first access."""
        return self.columns.records()


def read_rows(path, columns: Sequence[str]) -> Iterator[tuple[int, tuple[str | None, ...]]]:
    """Yield ``(line, values)`` for each data row of a CSV file with a header.

    ``values`` are the row's fields for ``columns`` (two or more names), in
    that order; a row too short to reach a column has None there.  ``line``
    is the line the row starts on; blank lines are skipped.  The header must
    name every column in ``columns`` (extras are ignored; a repeated name
    reads its last column); otherwise, or for an empty file, a file that is
    not UTF-8 text or one that csv cannot parse, LedgerFormatError is raised.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise LedgerFormatError(f"{path}: empty file, expected a header row")
            missing = [column for column in columns if column not in header]
            if missing:
                raise LedgerFormatError(f"{path}: missing columns: {', '.join(missing)}")
            index = {name: i for i, name in enumerate(header)}
            positions = [index[column] for column in columns]
            pick = itemgetter(*positions)
            width = max(positions) + 1
            line = reader.line_num
            for row in reader:
                if len(row) >= width:
                    yield line + 1, pick(row)
                elif row:
                    yield line + 1, tuple(row[i] if i < len(row) else None for i in positions)
                line = reader.line_num
        except UnicodeDecodeError as exc:
            raise LedgerFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise LedgerFormatError(f"{path}:{reader.line_num}: {exc}") from None


def write_rows(path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a header row, then ``rows``; csv writes a float as its repr, None as ""."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def positive_field(path, line: int, text: str | None, column: str) -> float:
    """``text``, the value of ``column``, as a positive finite float, else LedgerFormatError."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise LedgerFormatError(f"{path}:{line}: {column} must be a positive number, got {text!r}")
    return value


def load_contributions(path) -> LoadResult:
    """Parse a contributions CSV into columns; malformed rows are reported, not fatal."""
    columns = ContributionColumns()
    append = columns.append
    categories: dict[str, str] = {}
    errors: list[RowError] = []
    for line, (day, category, project, contributor, amount) in read_rows(path, CONTRIBUTIONS_COLUMNS):
        try:
            day = int(day)
            amount = float(amount)
        except (TypeError, ValueError) as exc:
            errors.append(RowError(line, f"unparsable row: {exc}"))
            continue
        project = (project or "").strip()
        contributor = (contributor or "").strip()
        category = (category or "").strip()
        if not project or not contributor:
            errors.append(RowError(line, "missing project or contributor id"))
            continue
        try:
            check_record(amount, day)
        except DomainError as exc:
            errors.append(RowError(line, str(exc)))
            continue
        kept = categories.setdefault(project, category)
        if kept != category:
            errors.append(RowError(line, f"category conflict for {project!r}: keeping {kept!r}"))
        append(contributor, project, amount, day)
    return LoadResult(columns, categories, tuple(errors))


def write_contributions(
    path,
    contributions: Iterable[Contribution],
    project_categories: Mapping[str, str],
) -> None:
    write_rows(path, CONTRIBUTIONS_COLUMNS, (
        (r.day, project_categories.get(r.project_id, ""), r.project_id, r.contributor_id, r.amount)
        for r in contributions
    ))


@dataclass(frozen=True)
class TeamRoster:
    """Project -> team member ids, as registered by the platform."""

    members: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        for project, team in self.members.items():
            if not team:
                raise DomainError(f"project {project!r} has an empty team")

    def teams_of(self) -> dict[str, frozenset[str]]:
        """Member id -> projects the member belongs to."""
        reverse: dict[str, set[str]] = {}
        for project, team in self.members.items():
            for member in team:
                reverse.setdefault(member, set()).add(project)
        return {member: frozenset(projects) for member, projects in reverse.items()}


def load_roster(path) -> TeamRoster:
    members: dict[str, set[str]] = {}
    for _line, (project, member) in read_rows(path, TEAMS_COLUMNS):
        project = (project or "").strip()
        member = (member or "").strip()
        if project and member:
            members.setdefault(project, set()).add(member)
    return TeamRoster({project: frozenset(team) for project, team in members.items()})


def _positive_by_key(path, key: str, column: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for line, (name, text) in read_rows(path, (key, column)):
        name = (name or "").strip()
        if name in values:
            raise LedgerFormatError(f"{path}:{line}: duplicate {key} {name!r}")
        values[name] = positive_field(path, line, text, column)
    return values


def load_pools(path) -> dict[str, float]:
    """Read category pools from a CSV with header category,pool."""
    return _positive_by_key(path, "category", "pool")


def load_budgets(path) -> dict[str, float]:
    """Read contributor budgets from a CSV with header contributor_id,budget."""
    return _positive_by_key(path, "contributor_id", "budget")


@dataclass(frozen=True)
class ContributionGraph:
    #: node -> category; its keys are the graph's nodes
    categories: dict[str, str]
    #: (A, B) -> the amount that A's team members gave B
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


def build_graph(
    contributions: Iterable[Contribution],
    roster: TeamRoster,
    categories: Mapping[str, str] | None = None,
) -> ContributionGraph:
    """Project-to-project support edges derived from team membership.

    Edge A->B exists when a member of A's team contributed to B (A != B);
    a member sending money to their own project is excluded and counted in
    ``self_support`` instead.
    """
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


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    n_points: int


def _ols(xs: Sequence[float], ys: Sequence[float]) -> SlopeFit | None:
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


@dataclass(frozen=True)
class ProjectReciprocity:
    project_id: str
    category: str
    outdegree: float
    reciprocal: float
    cross_outdegree: float
    cross_reciprocal: float


@dataclass(frozen=True)
class ReciprocityReport:
    rows: tuple[ProjectReciprocity, ...]
    #: reciprocal ~ outdegree
    slope: SlopeFit | None
    #: cross-category reciprocal ~ cross-category outdegree
    cross_slope_cross_denominator: SlopeFit | None
    #: cross-category reciprocal ~ total outdegree
    cross_slope_total_denominator: SlopeFit | None
    weighted: bool


def reciprocity_stats(graph: ContributionGraph, *, weighted: bool = False) -> ReciprocityReport:
    """Outdegree vs reciprocated-backing counts, with fitted slopes.

    Counting is at project-pair granularity by default; ``weighted`` uses
    contributed amounts instead of pair counts.  Slopes are ordinary least
    squares with intercept and are absent (None) when fewer than two
    projects have positive outdegree.
    """
    if not graph.categories:
        raise DomainError("empty graph")
    rows = []
    for node in sorted(graph.categories):
        targets = graph.out_neighbors(node)
        mutual = graph.reciprocal_partners(node)
        cross_targets = {b for b in targets if graph.categories[b] != graph.categories[node]}
        cross_mutual = mutual & cross_targets

        def measure(group: set[str]) -> float:
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


@dataclass(frozen=True)
class CategoryCross:
    category: str
    project_count: int
    outside_project_share: float
    cross_reciprocal_share: float
    reciprocal_endpoints: int
    cross_endpoints: int


@dataclass(frozen=True)
class CrossCategoryReport:
    rows: tuple[CategoryCross, ...]
    single_category: bool


def cross_category_stats(graph: ContributionGraph) -> CrossCategoryReport:
    """Per category: share of outside projects vs share of reciprocity
    whose partner lies outside the category.

    Under target choices made independently of category the two shares
    coincide in expectation.  A single-category graph yields zero cross
    shares and sets the warning flag.
    """
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
