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
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import DomainError, LedgerFormatError
from .funding import ContributionColumns, _total, check_record

# numpy is imported inside the kernels that use it, so a command that never
# reaches one does not pay for its import.
if TYPE_CHECKING:
    import numpy as np

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
#: Rows ``load_contributions`` reads, checks and adds at a time.
RUN_ROWS = 64


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass(frozen=True)
class LoadResult:
    contributions: ContributionColumns
    project_categories: dict[str, str]
    errors: tuple[RowError, ...]


@contextmanager
def _csv_reader(path, columns: Sequence[str]) -> Iterator[tuple[Iterator[list[str]], list[int]]]:
    """A ``csv.reader`` of ``path`` past its header, and the header positions
    of ``columns``.

    The header must name every column in ``columns`` (extras are ignored; a
    repeated name reads its last column); otherwise, or for an empty file, a
    file that is not UTF-8 text or one that csv cannot parse, also while the
    caller reads rows, LedgerFormatError is raised.  A leading UTF-8
    byte-order mark, as spreadsheet exports write, is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise LedgerFormatError(f"{path}: empty file, expected a header row")
            missing = [column for column in columns if column not in header]
            if missing:
                raise LedgerFormatError(f"{path}: missing columns: {', '.join(missing)}")
            index = {name: i for i, name in enumerate(header)}
            yield reader, [index[column] for column in columns]
        except UnicodeDecodeError as exc:
            raise LedgerFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise LedgerFormatError(f"{path}:{reader.line_num}: {exc}") from None


def _padded(row: Sequence[str], positions: Sequence[int]) -> tuple[str | None, ...]:
    """A short row's fields at ``positions``, None past its end."""
    return tuple(row[i] if i < len(row) else None for i in positions)


def read_rows(path, columns: Sequence[str]) -> Iterator[tuple[int, tuple[str | None, ...]]]:
    """Yield ``(line, values)`` for each data row of a CSV file with a header.

    ``values`` are the row's fields for ``columns`` (two or more names), in
    that order; a row too short to reach a column has None there.  ``line``
    is the line the row starts on; blank lines are skipped.  The header and
    the file are checked as ``_csv_reader`` says.  Rows are read one at a
    time, so a caller that stops at a bad row reports it before any fault
    csv finds further on.
    """
    with _csv_reader(path, columns) as (reader, positions):
        pick = itemgetter(*positions)
        width = max(positions) + 1
        line = reader.line_num
        for row in reader:
            if len(row) >= width:
                yield line + 1, pick(row)
            elif row:
                yield line + 1, _padded(row, positions)
            line = reader.line_num


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
    """Parse a contributions CSV into columns; malformed rows are reported, not fatal.

    Rows are read in runs of ``RUN_ROWS``.  Each run's longest prefix of
    clean rows, rows that pass the record rule and keep their project's
    category, is checked and added column by column (``_add_clean``).  The
    first other row goes through ``_load_row``, which words every message,
    and the run goes on after it.
    """
    columns = ContributionColumns()
    categories: dict[str, str] = {}
    errors: list[RowError] = []
    with _csv_reader(path, CONTRIBUTIONS_COLUMNS) as (reader, positions):
        pick = itemgetter(*positions)
        width = max(positions) + 1
        line = reader.line_num
        while rows := list(islice(reader, RUN_ROWS)):
            end = reader.line_num
            lines = range(line + 1, end + 1) if end - line == len(rows) else _start_lines(line, rows)
            line = end
            while rows and (clean := _add_clean(rows, pick, width, columns, categories)) < len(rows):
                if row := rows[clean]:
                    values = pick(row) if len(row) >= width else _padded(row, positions)
                    _load_row(lines[clean], values, columns, categories, errors)
                rows, lines = rows[clean + 1:], lines[clean + 1:]
    return LoadResult(columns, categories, tuple(errors))


def _start_lines(line: int, rows: Sequence[Sequence[str]]) -> list[int]:
    """The line each of ``rows`` starts on, the first the line after ``line``.

    A row ends on a later line than it starts only inside a quoted field,
    which keeps the line break: a row takes one line more than the line
    breaks (\\n, \\r or \\r\\n, as the file is read) in its fields.
    """
    starts = []
    for row in rows:
        line += 1
        starts.append(line)
        for field in row:
            line += field.count("\n") + field.count("\r") - field.count("\r\n")
    return starts


def _parsed(parse, texts: Sequence[str]) -> list:
    """``parse`` of each of ``texts``, up to the first one it raises ValueError for."""
    try:
        return list(map(parse, texts))
    except ValueError:
        values = []
        for text in texts:
            try:
                values.append(parse(text))
            except ValueError:
                break
        return values


def _add_clean(rows, pick, width: int, columns: ContributionColumns, categories: dict[str, str]) -> int:
    """Add the longest prefix of ``rows`` whose rows are clean; return its length.

    A clean row reaches every column, parses, has both ids, passes
    ``check_record`` and keeps its project's category (it sets the category
    of a new project).  Categories are recorded in row order and only for
    rows that pass the record rule, as ``_load_row`` records them; those
    after a conflicting row are recorded again, to no effect, when the
    run goes on after it.
    """
    size = len(rows)
    if min(map(len, rows)) < width:  # a blank or short row
        size = next(i for i, row in enumerate(rows) if len(row) < width)
        if not size:
            return 0
        rows = rows[:size]
    # transposed, then picked: the columns up to ``width`` are as long as the run
    days, cats, projects, contributors, amounts = pick(list(islice(zip(*rows), width)))
    days, amounts = _parsed(int, days), _parsed(float, amounts)
    projects, contributors = list(map(str.strip, projects)), list(map(str.strip, contributors))
    clean = min(len(days), len(amounts))
    if not (clean == size and min(days) >= 0 and min(amounts) > 0 and math.isfinite(sum(amounts))
            and all(projects) and all(contributors)):
        clean = next((i for i, (day, amount, project, contributor)
                      in enumerate(zip(days, amounts, projects, contributors))
                      if day < 0 or not 0 < amount < math.inf or not project or not contributor), clean)
    cats = list(map(str.strip, cats[:clean]))
    del projects[clean:]
    kept = list(map(categories.setdefault, projects, cats))
    if kept != cats:
        clean = next(i for i, (keep, cat) in enumerate(zip(kept, cats)) if keep != cat)
    del projects[clean:], contributors[clean:], amounts[clean:], days[clean:]
    columns.extend(contributors, projects, amounts, days)
    return clean


def _load_row(line: int, values, columns: ContributionColumns, categories: dict[str, str],
              errors: list[RowError]) -> None:
    """Check one row and add it, or report why it is rejected: the loader's only source of messages."""
    day, category, project, contributor, amount = values
    try:
        day = int(day)
        amount = float(amount)
    except (TypeError, ValueError) as exc:
        errors.append(RowError(line, f"unparsable row: {exc}"))
        return
    project = (project or "").strip()
    contributor = (contributor or "").strip()
    category = (category or "").strip()
    if not project or not contributor:
        errors.append(RowError(line, "missing project or contributor id"))
        return
    try:
        check_record(amount, day)
    except DomainError as exc:
        errors.append(RowError(line, str(exc)))
        return
    kept = categories.setdefault(project, category)
    if kept != category:
        errors.append(RowError(line, f"category conflict for {project!r}: keeping {kept!r}"))
    columns.append(contributor, project, amount, day)


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
    """Read project teams from a CSV with header project_id,member_id; a row needs both ids."""
    members: dict[str, set[str]] = {}
    for line, (project, member) in read_rows(path, TEAMS_COLUMNS):
        project = (project or "").strip()
        member = (member or "").strip()
        if not project or not member:
            raise LedgerFormatError(f"{path}:{line}: missing project or member id")
        members.setdefault(project, set()).add(member)
    return TeamRoster({project: frozenset(team) for project, team in members.items()})


def _positive_by_key(path, key: str, column: str, *, required: bool) -> dict[str, float]:
    """``column``'s positive value per distinct ``key``; with ``required`` an empty key is an error."""
    values: dict[str, float] = {}
    for line, (name, text) in read_rows(path, (key, column)):
        name = (name or "").strip()
        if required and not name:
            raise LedgerFormatError(f"{path}:{line}: missing {key}")
        if name in values:
            raise LedgerFormatError(f"{path}:{line}: duplicate {key} {name!r}")
        values[name] = positive_field(path, line, text, column)
    return values


def load_pools(path) -> dict[str, float]:
    """Read category pools from a CSV with header category,pool."""
    return _positive_by_key(path, "category", "pool", required=False)


def load_budgets(path) -> dict[str, float]:
    """Read contributor budgets from a CSV with header contributor_id,budget."""
    return _positive_by_key(path, "contributor_id", "budget", required=True)


@dataclass(frozen=True, eq=False)
class ContributionGraph:
    """Project-to-project backing edges over sorted nodes, as arrays.

    ``nodes`` are the project ids, sorted, and ``labels`` their categories.
    Edge j runs from node ``sources[j]`` to node ``targets[j]``, sorted by
    source, then target.  ``amounts[j]`` is what the source's team members
    gave the target, summed in record order (``amounts`` is None unless
    built ``weighted``), and ``mutual[j]`` tells whether the reverse edge
    exists.  ``self_counts[i]`` counts the records node i's own members sent
    it.  ``edges``, the one dict view (values None without amounts), stays
    while ``perfbench/layers.py`` counts a graph's edges as ``len(graph.edges)``.
    """

    nodes: tuple[str, ...]
    labels: tuple[str, ...]
    sources: np.ndarray
    targets: np.ndarray
    amounts: np.ndarray | None
    mutual: np.ndarray
    self_counts: np.ndarray

    @cached_property
    def edges(self) -> dict[tuple[str, str], float | None]:
        """(A, B) -> the amount that A's team members gave B, or None without amounts."""
        pairs = [(self.nodes[a], self.nodes[b]) for a, b in zip(self.sources.tolist(), self.targets.tolist())]
        return dict(zip(pairs, self.amounts.tolist())) if self.amounts is not None else dict.fromkeys(pairs)


def build_graph(
    contributions: ContributionColumns,
    roster: TeamRoster,
    categories: Mapping[str, str] | None = None,
    *,
    weighted: bool = True,
) -> ContributionGraph:
    """Project-to-project support edges derived from team membership.

    Edge A->B exists when a member of A's team contributed to B (A != B);
    a member sending money to their own project is excluded and counted in
    ``self_counts`` instead.

    Each record becomes one row per team its contributor is on.  A row is
    the key ``source * n_nodes + target``; one sort groups the rows by
    edge, and an edge is mutual when ``np.searchsorted`` finds its key
    among the sorted reverse keys.  With ``weighted``, an edge's amount is
    the sum of its records in record order (``np.add.reduceat`` for one or
    two records, whose sum does not depend on their order, a Python loop in
    record order for more); a sum past the largest float raises DomainError.
    Otherwise ``amounts`` is None.  With one team per contributor, the build
    peaks at about 37 bytes per record, 45 with ``weighted``.
    """
    import numpy as np

    nodes = sorted(set(roster.members).union(contributions.project_codes))
    index = {node: i for i, node in enumerate(nodes)}
    width = max(len(nodes), 1)
    teams_of = roster.teams_of()
    teams = [[index[p] for p in teams_of.get(c, ())] for c in contributions.contributor_codes]
    team_sizes = np.array([len(team) for team in teams], dtype=np.int64)
    team_nodes = np.array([node for team in teams for node in team], dtype=np.int64)
    project_nodes = np.array([index[p] for p in contributions.project_codes], dtype=np.int64)
    del teams_of, teams

    contributors = np.frombuffer(contributions.contributors, dtype=np.int64)
    repeats = team_sizes[contributors]
    # row i of record r is team_nodes[i + r's team start - r's first row]
    sources = (np.cumsum(team_sizes) - team_sizes)[contributors] - (np.cumsum(repeats) - repeats)
    sources = np.repeat(sources, repeats)
    sources += np.arange(len(sources))
    sources = team_nodes[sources]
    targets = np.repeat(project_nodes[np.frombuffer(contributions.projects, dtype=np.int64)], repeats)
    records = np.repeat(np.arange(len(contributors)), repeats) if weighted else None
    own = sources == targets
    self_counts = np.bincount(sources[own], minlength=len(nodes))
    sources *= width  # in place: the rows' keys
    sources += targets
    keys = sources[~own]
    del sources, targets, repeats
    order = np.argsort(keys)
    keys = keys[order]
    records = records[~own][order] if weighted else None
    del own, order
    # edge j's rows are bounds[j]:bounds[j + 1]
    bounds = np.append(np.flatnonzero(np.diff(keys, prepend=-1)), len(keys))
    sums = None
    if weighted:
        amounts = np.frombuffer(contributions.amounts, dtype=np.float64)
        with np.errstate(over="ignore"):
            sums = np.add.reduceat(amounts[records], bounds[:-1]) if len(keys) else np.zeros(0)
        for edge in np.flatnonzero(np.diff(bounds) >= 3).tolist():
            total = 0.0
            for amount in amounts[np.sort(records[bounds[edge]:bounds[edge + 1]])].tolist():
                total += amount
            sums[edge] = total
    keys = keys[bounds[:-1]]
    del bounds, records
    # A->B is mutual when its key is among the sorted B->A keys (one past them all clips to a miss)
    reverse = np.sort(keys % width * width + keys // width)
    mutual = reverse.take(np.searchsorted(reverse, keys), mode="clip") == keys
    sources, targets = np.divmod(keys, width)
    if weighted and not np.isfinite(sums).all():
        edge = int(np.argmin(np.isfinite(sums)))
        raise DomainError(f"contributions from the team of project {nodes[sources[edge]]!r} "
                          f"to project {nodes[targets[edge]]!r} sum past the largest float")
    labels = tuple((categories or {}).get(node, "") for node in nodes)
    return ContributionGraph(tuple(nodes), labels, sources, targets, sums, mutual, self_counts)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    n: int


def _ols(xs: Sequence[float], ys: Sequence[float]) -> SlopeFit | None:
    """The least-squares line, or None for fewer than two points, one x, or a sum past the largest float."""
    n = len(xs)
    if n < 2:
        return None
    try:
        mean_x = math.fsum(xs) / n
        mean_y = math.fsum(ys) / n
        var_x = math.fsum((x - mean_x) ** 2 for x in xs)
        cov = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    except (OverflowError, ValueError):  # a square or a sum past the largest float, or inf - inf
        return None
    if var_x == 0.0:
        return None
    slope = cov / var_x
    intercept = mean_y - slope * mean_x
    return SlopeFit(slope, intercept, n) if math.isfinite(slope) and math.isfinite(intercept) else None


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
    import numpy as np

    names = sorted(set(labels))
    code = {name: i for i, name in enumerate(names)}
    return names, np.array([code[label] for label in labels], dtype=np.int64)


def _per_node(sources: np.ndarray, amounts: np.ndarray | None, n: int, weighted: bool) -> list[float]:
    """Per node, its edges among sorted ``sources``: their count, or with
    ``weighted`` the ``math.fsum`` of their amounts."""
    import numpy as np

    if not weighted:
        return np.bincount(sources, minlength=n).astype(float).tolist()
    bounds = np.searchsorted(sources, np.arange(n + 1)).tolist()
    return [_total(amounts[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


def reciprocity_stats(graph: ContributionGraph, *, weighted: bool = False) -> ReciprocityReport:
    """Outdegree vs reciprocated-backing counts, with fitted slopes.

    Counting is at project-pair granularity by default; ``weighted`` uses
    contributed amounts instead, so it needs a graph built ``weighted``.
    Slopes are ordinary least squares with intercept, absent (None) when
    fewer than two projects have positive outdegree.
    """
    if not graph.nodes:
        raise DomainError("empty graph")
    if weighted and graph.amounts is None:
        raise DomainError("weighted statistics need a graph built with weighted=True")
    _names, codes = _category_codes(graph.labels)
    cross = codes[graph.sources] != codes[graph.targets]
    columns = [
        _per_node(graph.sources[edges], graph.amounts[edges] if weighted else None, len(graph.nodes), weighted)
        for edges in (slice(None), graph.mutual, cross, graph.mutual & cross)
    ]
    if math.inf in columns[0]:  # every other column's sums are parts of these
        project = graph.nodes[columns[0].index(math.inf)]
        raise DomainError(f"contributions from the team of project {project!r} sum past the largest float")
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
    import numpy as np

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
