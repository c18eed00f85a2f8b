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
from dataclasses import dataclass, fields
from functools import cache, cached_property
from operator import itemgetter

import numpy as np

from .errors import DomainError, LedgerFormatError
from .funding import ContributionColumns, check_record

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
    "field_names",
    "field_dict",
    "write_records",
    "positive_field",
    "load_contributions",
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
    contributions: ContributionColumns
    project_categories: dict[str, str]
    errors: tuple[RowError, ...]


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


@cache
def field_names(cls) -> tuple[str, ...]:
    """The field names of dataclass ``cls``, in order: the keys or columns of its output."""
    return tuple(f.name for f in fields(cls))


def field_dict(record) -> dict:
    """``record``'s fields by name, in order, read shallowly (``dataclasses.asdict`` copies deeply)."""
    return {name: getattr(record, name) for name in field_names(type(record))}


def write_records(path, cls, records: Iterable) -> None:
    """Write dataclass ``records`` under a header of ``cls``'s field names."""
    names = field_names(cls)
    write_rows(path, names, ([getattr(record, name) for name in names] for record in records))


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


@dataclass(frozen=True, eq=False)
class ContributionGraph:
    """Project-to-project backing edges over sorted nodes, as arrays.

    ``nodes`` are the project ids, sorted, and ``labels`` their categories.
    Edge j runs from node ``sources[j]`` to node ``targets[j]``, sorted by
    source, then target.  ``amounts[j]`` is what the source's team members
    gave the target, summed in record order, and ``mutual[j]`` tells
    whether the reverse edge exists.  ``self_counts[i]`` counts the records
    node i's own members sent it.  ``edges`` is the one dict view: it stays
    while ``perfbench/layers.py`` counts a graph's edges as ``len(graph.edges)``.
    """

    nodes: tuple[str, ...]
    labels: tuple[str, ...]
    sources: np.ndarray
    targets: np.ndarray
    amounts: np.ndarray
    mutual: np.ndarray
    self_counts: np.ndarray

    @cached_property
    def edges(self) -> dict[tuple[str, str], float]:
        """(A, B) -> the amount that A's team members gave B."""
        names = self.nodes.__getitem__
        return {
            (names(a), names(b)): amount
            for a, b, amount in zip(self.sources.tolist(), self.targets.tolist(), self.amounts.tolist())
        }


def build_graph(
    contributions: ContributionColumns,
    roster: TeamRoster,
    categories: Mapping[str, str] | None = None,
) -> ContributionGraph:
    """Project-to-project support edges derived from team membership.

    Edge A->B exists when a member of A's team contributed to B (A != B);
    a member sending money to their own project is excluded and counted in
    ``self_counts`` instead.

    Each record becomes one row per team its contributor is on.  A row is
    the key ``source * n_nodes + target``; one sort groups the rows by
    edge, and an edge is mutual when ``np.searchsorted`` finds its key
    among the sorted reverse keys.  An edge's amount is the sum of its
    records in record order: ``np.add.reduceat`` sums one or two records,
    whose sum does not depend on their order, and an edge of three or more
    is summed in Python after its rows are put back in record order.
    """
    nodes = sorted(set(roster.members).union(contributions.project_codes))
    index = {node: i for i, node in enumerate(nodes)}
    width = max(len(nodes), 1)
    teams_of = roster.teams_of()
    teams = [[index[p] for p in teams_of.get(c, ())] for c in contributions.contributor_codes]
    team_sizes = np.array([len(team) for team in teams], dtype=np.int64)
    team_nodes = np.array([node for team in teams for node in team], dtype=np.int64)
    project_nodes = np.array([index[p] for p in contributions.project_codes], dtype=np.int64)

    contributors = np.frombuffer(contributions.contributors, dtype=np.int64)
    repeats = team_sizes[contributors]
    records = np.repeat(np.arange(len(contributors)), repeats)
    # a row's rank among its record's rows, offset into the contributor's team
    rank = np.arange(len(records)) - np.repeat(np.cumsum(repeats) - repeats, repeats)
    team_starts = np.cumsum(team_sizes) - team_sizes
    sources = team_nodes[team_starts[contributors[records]] + rank]
    targets = project_nodes[np.frombuffer(contributions.projects, dtype=np.int64)[records]]
    amounts = np.frombuffer(contributions.amounts, dtype=np.float64)[records]
    own = sources == targets
    self_counts = np.bincount(sources[own], minlength=len(nodes))

    keys, amounts = sources[~own] * width + targets[~own], amounts[~own]
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(amounts[order], starts) if len(keys) else amounts
    ends = np.append(starts[1:], len(keys))
    for edge in np.flatnonzero(ends - starts >= 3).tolist():
        total = 0.0
        for amount in amounts[np.sort(order[starts[edge]:ends[edge]])].tolist():
            total += amount
        sums[edge] = total
    keys = keys[starts]
    sources, targets = np.divmod(keys, width)
    # B->A is an edge exactly when A->B's key is among the reverse keys;
    # -1 is no key, so a key past the last reverse key is not found
    reverse = np.sort(targets * width + sources)
    mutual = np.append(reverse, -1)[np.searchsorted(reverse, keys)] == keys
    labels = tuple((categories or {}).get(node, "") for node in nodes)
    return ContributionGraph(tuple(nodes), labels, sources, targets, sums, mutual, self_counts)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    n: int


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


def _category_codes(labels: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct categories, and each label's index among them."""
    names = sorted(set(labels))
    code = {name: i for i, name in enumerate(names)}
    return names, np.array([code[label] for label in labels], dtype=np.int64)


def _per_node(sources: np.ndarray, amounts: np.ndarray, n: int, weighted: bool) -> list[float]:
    """Per node, its edges among sorted ``sources``: their count, or with
    ``weighted`` the ``math.fsum`` of their amounts."""
    if not weighted:
        return np.bincount(sources, minlength=n).astype(float).tolist()
    bounds = np.searchsorted(sources, np.arange(n + 1)).tolist()
    amounts = amounts.tolist()
    return [math.fsum(amounts[a:b]) for a, b in zip(bounds, bounds[1:])]


def reciprocity_stats(graph: ContributionGraph, *, weighted: bool = False) -> ReciprocityReport:
    """Outdegree vs reciprocated-backing counts, with fitted slopes.

    Counting is at project-pair granularity by default; ``weighted`` uses
    contributed amounts instead of pair counts.  Slopes are ordinary least
    squares with intercept and are absent (None) when fewer than two
    projects have positive outdegree.
    """
    if not graph.nodes:
        raise DomainError("empty graph")
    _names, codes = _category_codes(graph.labels)
    cross = codes[graph.sources] != codes[graph.targets]
    columns = [
        _per_node(graph.sources[edges], graph.amounts[edges], len(graph.nodes), weighted)
        for edges in (slice(None), graph.mutual, cross, graph.mutual & cross)
    ]
    rows = tuple(map(ProjectReciprocity, graph.nodes, graph.labels, *columns))
    active = [row for row in rows if row.outdegree > 0]
    slope = _ols([r.outdegree for r in active], [r.reciprocal for r in active])
    cross_active = [row for row in rows if row.cross_outdegree > 0]
    cross_cross = _ols(
        [r.cross_outdegree for r in cross_active], [r.cross_reciprocal for r in cross_active]
    )
    cross_total = _ols([r.outdegree for r in active], [r.cross_reciprocal for r in active])
    return ReciprocityReport(rows, slope, cross_cross, cross_total, weighted)


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
    if not graph.nodes:
        raise DomainError("empty graph")
    total = len(graph.nodes)
    names, codes = _category_codes(graph.labels)
    # one endpoint per mutual edge, in its source's category
    sides = codes[graph.sources[graph.mutual]]
    cross = sides != codes[graph.targets[graph.mutual]]
    counts, endpoints, crossing = (
        np.bincount(values, minlength=len(names)).tolist()
        for values in (codes, sides, sides[cross])
    )
    rows = tuple(
        CategoryCross(
            category=category,
            project_count=count,
            outside_project_share=(total - count) / total,
            cross_reciprocal_share=cross_ends / ends if ends else 0.0,
            reciprocal_endpoints=ends,
            cross_endpoints=cross_ends,
        )
        for category, count, ends, cross_ends in zip(names, counts, endpoints, crossing)
    )
    return CrossCategoryReport(rows, len(names) < 2)
