"""Tests for ledger ingestion and the reciprocity forensics."""

import contextlib
import csv
import io
import random
import re
import statistics
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dictreader_loader
import graph_oracle
import loader_reference
from synthgraph import Record, columns_of, community_percentages_fixture, generate_backing, records_of

from qfround.cli import main
from qfround.errors import DomainError, LedgerFormatError
from qfround import ledger
from qfround.ledger import (
    CONTRIBUTIONS_COLUMNS,
    RUN_ROWS,
    TeamRoster,
    build_graph,
    cross_category_stats,
    load_budgets,
    load_contributions,
    load_pools,
    load_roster,
    reciprocity_stats,
    write_rows,
)

GOLDEN = """day,category,project_id,contributor_id,amount
0,infra,p1,alice,4
1,infra,p1,bob,1
2,apps,p2,carol,2.5
"""


def write_contributions(path, records, project_categories) -> None:
    """A contributions CSV of ``records``; a project without a category gets ""."""
    write_rows(path, CONTRIBUTIONS_COLUMNS, (
        (r.day, project_categories.get(r.project_id, ""), r.project_id, r.contributor_id, r.amount)
        for r in records
    ))


class TestLoadContributions:
    def test_golden_three_rows(self, tmp_path):
        path = tmp_path / "contributions.csv"
        path.write_text(GOLDEN, encoding="utf-8")
        loaded = load_contributions(path)
        assert loaded.errors == ()
        assert records_of(loaded.contributions) == (
            Record("alice", "p1", 4.0, 0),
            Record("bob", "p1", 1.0, 1),
            Record("carol", "p2", 2.5, 2),
        )
        assert loaded.project_categories == {"p1": "infra", "p2": "apps"}

    def test_header_only(self, tmp_path):
        path = tmp_path / "contributions.csv"
        path.write_text("day,category,project_id,contributor_id,amount\n", encoding="utf-8")
        loaded = load_contributions(path)
        assert records_of(loaded.contributions) == ()
        assert loaded.errors == ()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "contributions.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(LedgerFormatError):
            load_contributions(path)

    def test_zero_amount_rejected_and_reported(self, tmp_path):
        path = tmp_path / "contributions.csv"
        path.write_text(GOLDEN + "3,apps,p2,dave,0\n", encoding="utf-8")
        loaded = load_contributions(path)
        assert len(loaded.contributions) == 3
        assert len(loaded.errors) == 1
        assert loaded.errors[0].line == 5
        assert "amount" in loaded.errors[0].message

    def test_malformed_rows_collect_line_numbers(self, tmp_path):
        path = tmp_path / "contributions.csv"
        path.write_text(
            GOLDEN + "not_a_day,apps,p2,dave,1\n-1,apps,p2,erin,1\n4,apps,,frank,1\n",
            encoding="utf-8",
        )
        loaded = load_contributions(path)
        assert [e.line for e in loaded.errors] == [5, 6, 7]
        assert len(loaded.contributions) == 3

    def test_extra_columns_tolerated(self, tmp_path):
        path = tmp_path / "contributions.csv"
        path.write_text(
            "day,category,project_id,contributor_id,amount,k_at_day\n0,infra,p1,a,2,1.5\n",
            encoding="utf-8",
        )
        loaded = load_contributions(path)
        assert loaded.contributions.amounts[0] == 2.0

    def test_round_trip_is_identity(self, tmp_path):
        records = (
            Record("alice", "p1", 4.0, 0),
            Record("bob", "p1", 0.125, 3),
            Record("carol", "p2", 1e-3, 7),
        )
        categories = {"p1": "infra", "p2": "apps"}
        path = tmp_path / "out.csv"
        write_contributions(path, records, categories)
        loaded = load_contributions(path)
        assert records_of(loaded.contributions) == records
        assert loaded.project_categories == categories
        assert loaded.errors == ()

    @given(
        rows=st.lists(
            st.tuples(
                st.text(alphabet="abcdefgh0,;'\" -", min_size=1, max_size=8),
                st.text(alphabet="pqrs19_", min_size=1, max_size=6),
                st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
                st.integers(min_value=0, max_value=30),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, rows, tmp_path_factory):
        # ids go through csv quoting, so commas and quotes must survive;
        # surrounding whitespace is stripped at load, hence .strip() here
        records = tuple(
            Record(cid.strip() or "x", pid, amount, day)
            for cid, pid, amount, day in rows
        )
        categories = {record.project_id: "cat" for record in records}
        path = tmp_path_factory.mktemp("roundtrip") / "out.csv"
        write_contributions(path, records, categories)
        loaded = load_contributions(path)
        assert loaded.errors == ()
        assert records_of(loaded.contributions) == records


#: Field texts covering every reason a row is rejected: a "d"-prefixed or
#: fractional day, a negative day, an "x"-suffixed or blank amount, zero,
#: negative and non-finite amounts, blank or space-only ids and categories
#: that conflict; ids hold commas and quotes, so csv quotes them.
DAY_TEXTS = st.one_of(
    st.integers(min_value=-3, max_value=40).map(str),
    st.sampled_from(("d3", "", "1.5", " 7 ", "99999999999999999999")),
)
AMOUNT_TEXTS = st.one_of(
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False).map(repr),
    st.sampled_from(("0", "-3.5", "nan", "inf", "2.45x", "", "1e400", " 4 ", "1_000", "-0.0")),
)
ID_TEXTS = st.one_of(
    st.sampled_from(("a", "b", " a", "", "  ", "c,d", '"q"')),
    st.text(alphabet="ab,\" ", max_size=4),
)
CATEGORY_TEXTS = st.sampled_from(("infra", "apps", "", " apps", "x,y"))


@st.composite
def contributions_files(draw):
    """A contributions CSV as rows of text: shuffled header, extra columns, short rows."""
    extras = draw(st.lists(st.sampled_from(("note", "k_at_day")), unique=True, max_size=2))
    header = draw(st.permutations(CONTRIBUTIONS_COLUMNS + tuple(extras)))
    fields = {
        "day": DAY_TEXTS,
        "category": CATEGORY_TEXTS,
        "project_id": ID_TEXTS,
        "contributor_id": ID_TEXTS,
        "amount": AMOUNT_TEXTS,
        "note": st.text(alphabet="n, ", max_size=3),
        "k_at_day": AMOUNT_TEXTS,
    }
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        row = [draw(fields[column]) for column in header]
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            # a short row, never an empty one: csv writes that as a blank line
            row = row[: draw(st.integers(min_value=1, max_value=len(row) - 1))]
        rows.append(row)
    return [list(header)] + rows


class TestLoaderOracle:
    @given(rows=contributions_files())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_dictreader_loader(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("oracle") / "contributions.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        records, categories, errors = dictreader_loader.load_contributions(path)
        loaded = load_contributions(path)
        assert loaded.errors == errors
        assert records_of(loaded.contributions) == records
        assert loaded.project_categories == categories


#: Categories of the clean rows' projects; a "conflict" row takes another.
PROJECT_CATEGORIES = {f"p{i}": ("infra", "apps", "community")[i % 3] for i in range(8)}
#: Edits of a clean row, by name.  Every reason a row is rejected, values
#: that parse but break the record rule, category conflicts, and awkward
#: fields that are clean: padded numbers, quoted ids with commas, quotes
#: and line breaks.  "short" cuts the row, "blank" makes it a blank line.
ROW_EDITS = {
    "day_text": {"day": "d3"},
    "day_fraction": {"day": "1.5"},
    "day_blank": {"day": ""},
    "day_negative": {"day": "-1"},
    "day_huge": {"day": "99999999999999999999"},
    "amount_text": {"amount": "2.45x"},
    "amount_blank": {"amount": ""},
    "amount_nan": {"amount": "nan"},
    "amount_inf": {"amount": "inf"},
    "amount_overflow": {"amount": "1e400"},
    "amount_underflow": {"amount": "1e-400"},
    "amount_zero": {"amount": "0"},
    "amount_negative": {"amount": "-3.5"},
    "amount_negative_zero": {"amount": "-0.0"},
    "padded": {"day": " 7 ", "amount": " 4 ", "project_id": " p1 ", "category": " apps "},
    "project_missing": {"project_id": ""},
    "contributor_blank": {"contributor_id": "  "},
    "category_conflict": {},
    "category_blank": {"category": ""},
    "new_project": {"project_id": "p,new", "category": "apps"},
    "newline_id": {"contributor_id": "a\nb"},
    "crlf_id": {"contributor_id": "a\r\nb"},
    "cr_id": {"project_id": "p\rq"},
    "two_breaks_id": {"contributor_id": "a\n\rb\r"},
    "comma_quote_id": {"contributor_id": 'c,"d'},
    "short": {},
    "blank": {},
}
EXTRA_COLUMNS = ("note", "k_at_day")


def csv_text(rows, terminator: str) -> str:
    """``rows`` as CSV text; a field holding a comma, a quote or a line break is quoted."""
    def field(text):
        return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text
    return "".join(",".join(map(field, row)) + terminator for row in rows)


def edited_rows(rng, header, n_rows: int, edits: dict[int, str]) -> list[list[str]]:
    """``n_rows`` clean rows in ``header``'s order, row i edited by ``ROW_EDITS[edits[i]]``."""
    rows = []
    for i in range(n_rows):
        project = f"p{rng.randrange(len(PROJECT_CATEGORIES))}"
        fields = {
            "day": str(rng.randrange(30)),
            "category": PROJECT_CATEGORIES[project],
            "project_id": project,
            "contributor_id": f"c{rng.randrange(20)}",
            "amount": repr(round(rng.uniform(0.01, 50.0), 2)),
            "note": "n",
            "k_at_day": "1.5",
        }
        kind = edits.get(i)
        fields.update(ROW_EDITS.get(kind, {}))
        if kind == "category_conflict":
            fields["category"] = "other"
        row = [fields[column] for column in header]
        if kind == "short":
            row = row[:rng.randrange(1, len(row))]
        elif kind == "blank":
            row = []
        rows.append(row)
    return rows


@st.composite
def long_contributions_files(draw):
    """Header and rows of a file spanning three or four runs, sparsely edited,
    with edits favouring the first and last row of each run."""
    extras = draw(st.lists(st.sampled_from(EXTRA_COLUMNS), unique=True, max_size=2))
    header = draw(st.permutations(CONTRIBUTIONS_COLUMNS + tuple(extras)))
    n_rows = draw(st.integers(min_value=3 * RUN_ROWS, max_value=4 * RUN_ROWS + 2))
    edges = [i for start in range(0, n_rows, RUN_ROWS) for i in (start, start + RUN_ROWS - 1) if i < n_rows]
    positions = st.one_of(st.sampled_from(edges), st.integers(min_value=0, max_value=n_rows - 1))
    edits = draw(st.dictionaries(positions, st.sampled_from(sorted(ROW_EDITS)), max_size=20))
    rng = draw(st.randoms(use_true_random=False))
    return [list(header)] + edited_rows(rng, header, n_rows, edits)


def assert_same_load(loaded, reference) -> None:
    """Equal ``LoadResult`` fields, dicts in the same order."""
    assert loaded.errors == reference.errors
    got, want = loaded.contributions, reference.contributions
    assert list(got.contributor_codes.items()) == list(want.contributor_codes.items())
    assert list(got.project_codes.items()) == list(want.project_codes.items())
    for name in ("contributors", "projects", "amounts", "days"):
        assert getattr(got, name) == getattr(want, name), name
    assert list(loaded.project_categories.items()) == list(reference.project_categories.items())


class TestLoaderReference:
    """The loader against the row-by-row loader it replaced, on files of
    several runs: every record, code, category and message, in order."""

    @staticmethod
    def check(path, rows, terminator: str, bom: bool) -> None:
        text = csv_text(rows, terminator)
        path.write_text(("\ufeff" if bom else "") + text, encoding="utf-8", newline="")
        assert_same_load(load_contributions(path), loader_reference.load_contributions(path))

    @given(
        rows=long_contributions_files(),
        terminator=st.sampled_from(("\n", "\r\n")),
        bom=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_row_by_row_loader(self, rows, terminator, bom, tmp_path_factory):
        self.check(tmp_path_factory.mktemp("reference") / "contributions.csv", rows, terminator, bom)

    @pytest.mark.parametrize("bom", [False, True])
    @pytest.mark.parametrize("terminator", ["\n", "\r\n"])
    def test_every_edit_on_the_first_and_last_row_of_a_run(self, tmp_path, terminator, bom):
        """Run r holds edit r on its first and last rows, and a category
        conflict in its middle; a final run is clean."""
        kinds = sorted(ROW_EDITS)
        edits = {}
        for run, kind in enumerate(kinds):
            first = run * RUN_ROWS
            edits.update({first: kind, first + RUN_ROWS // 2: "category_conflict", first + RUN_ROWS - 1: kind})
        header = ("amount", "note", "contributor_id", "day", "project_id", "category")
        rows = edited_rows(random.Random(3), header, RUN_ROWS * (len(kinds) + 1), edits)
        self.check(tmp_path / "contributions.csv", [list(header)] + rows, terminator, bom)


#: Edits that make a row rejected or a category conflict.
BAD_EDITS = tuple(kind for kind in sorted(ROW_EDITS) if kind.startswith(("day_", "amount_", "project_"))
                  and kind != "day_huge") + ("contributor_blank", "category_conflict", "short")
#: Edits that leave a row clean, and blank lines.
CLEAN_EDITS = ("padded", "day_huge", "new_project", "newline_id", "crlf_id", "comma_quote_id", "blank")


class TestLoaderRuns:
    """Clean runs are added in bulk: only the rows that are reported go
    through ``_load_row``, the loader's row-by-row step."""

    @pytest.fixture
    def row_by_row(self, monkeypatch):
        """The line of each row ``_load_row`` is given."""
        lines = []
        load_row = ledger._load_row

        def counted(line, *args):
            lines.append(line)
            load_row(line, *args)

        monkeypatch.setattr(ledger, "_load_row", counted)
        return lines

    def write(self, path, edits: dict[int, str], n_rows: int) -> None:
        rows = edited_rows(random.Random(11), CONTRIBUTIONS_COLUMNS, n_rows, edits)
        path.write_text(csv_text([list(CONTRIBUTIONS_COLUMNS)] + rows, "\n"), encoding="utf-8")

    def test_a_clean_file_takes_no_row_by_row_step(self, tmp_path, row_by_row):
        edits = {7 + 21 * i: kind for i, kind in enumerate(CLEAN_EDITS * 2)}
        self.write(tmp_path / "clean.csv", edits, 5 * RUN_ROWS + 3)
        loaded = load_contributions(tmp_path / "clean.csv")
        assert loaded.errors == ()
        assert len(loaded.contributions) == 5 * RUN_ROWS + 3 - 2  # two blank lines
        assert row_by_row == []

    def test_each_bad_row_takes_one_row_by_row_step(self, tmp_path, row_by_row):
        """One bad row per run, at offsets from its first to its last row,
        among clean but awkward rows."""
        rng = random.Random(5)
        edits = {}
        for run, kind in enumerate(BAD_EDITS):
            edits[run * RUN_ROWS + rng.choice((0, RUN_ROWS - 1, rng.randrange(RUN_ROWS)))] = kind
            edits.setdefault(run * RUN_ROWS + rng.randrange(RUN_ROWS), rng.choice(CLEAN_EDITS))
        self.write(tmp_path / "bad.csv", edits, RUN_ROWS * len(BAD_EDITS))
        loaded = load_contributions(tmp_path / "bad.csv")
        assert len(BAD_EDITS) <= len(loaded.errors) <= len(BAD_EDITS) + 2  # a new category can conflict later
        assert row_by_row == [error.line for error in loaded.errors]


class TestRosterAndPools:
    def test_load_roster(self, tmp_path):
        path = tmp_path / "teams.csv"
        path.write_text("project_id,member_id\np1,m1\np1,m2\np2,m1\n", encoding="utf-8")
        roster = load_roster(path)
        assert roster.members == {"p1": frozenset({"m1", "m2"}), "p2": frozenset({"m1"})}
        assert roster.teams_of()["m1"] == frozenset({"p1", "p2"})

    def test_empty_team_rejected(self):
        with pytest.raises(DomainError):
            TeamRoster({"p1": frozenset()})

    def test_roster_bad_header(self, tmp_path):
        path = tmp_path / "teams.csv"
        path.write_text("project,who\n", encoding="utf-8")
        with pytest.raises(LedgerFormatError):
            load_roster(path)

    def test_load_pools(self, tmp_path):
        path = tmp_path / "pools.csv"
        path.write_text("category,pool\ninfra,120000\napps,50000\n", encoding="utf-8")
        assert load_pools(path) == {"infra": 120000.0, "apps": 50000.0}

    def test_nonpositive_pool_rejected(self, tmp_path):
        path = tmp_path / "pools.csv"
        path.write_text("category,pool\ninfra,0\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_pools(path)

    def test_only_budgets_need_a_key(self, tmp_path):
        """An empty category is a category; an empty contributor id is missing."""
        path = tmp_path / "keys.csv"
        path.write_text("category,contributor_id,pool,budget\n,,5,5\n", encoding="utf-8")
        assert load_pools(path) == {"": 5.0}
        with pytest.raises(LedgerFormatError, match=f"^{re.escape(str(path))}:2: missing contributor_id$"):
            load_budgets(path)


def two_team_graph():
    roster = TeamRoster({"A": frozenset({"a1"}), "B": frozenset({"b1"})})
    contributions = columns_of([("a1", "B", 2.0), ("b1", "A", 1.0)])
    return build_graph(contributions, roster, {"A": "x", "B": "y"})


def edge_pairs(graph, mask=slice(None)) -> set[tuple[str, str]]:
    """The edges ``mask`` selects, as (source, target) ids read from the graph's arrays."""
    sources, targets = graph.sources[mask].tolist(), graph.targets[mask].tolist()
    return {(graph.nodes[a], graph.nodes[b]) for a, b in zip(sources, targets)}


def outdegrees(graph) -> dict[str, int]:
    """Node -> the number of edges leaving it, read from ``sources``."""
    counts = Counter(graph.sources.tolist())
    return {node: counts[i] for i, node in enumerate(graph.nodes)}


def self_support(graph) -> dict[str, int]:
    """Node -> the records its own members sent it, for nodes with any."""
    return {node: count for node, count in zip(graph.nodes, graph.self_counts.tolist()) if count}


class TestBuildGraph:
    @pytest.mark.parametrize("count", [2, 3])
    def test_edge_past_the_largest_float_names_its_ends(self, count):
        roster = TeamRoster({"A": frozenset({"a1", "a2"}), "B": frozenset({"b1"})})
        records = [("a1", "A", 1.0)] + [(f"a{i % 2 + 1}", "B", 1e308) for i in range(count)]
        message = "^contributions from the team of project 'A' to project 'B' sum past the largest float$"
        with pytest.raises(DomainError, match=message):
            build_graph(columns_of(records), roster, {})

    def test_disjoint_teams_no_edges(self):
        roster = TeamRoster({"A": frozenset({"a1"}), "B": frozenset({"b1"})})
        graph = build_graph(columns_of([("stranger", "A", 1.0)]), roster, {})
        assert graph.edges == {}

    def test_mutual_pair(self):
        graph = two_team_graph()
        assert set(graph.edges) == {("A", "B"), ("B", "A")}
        assert edge_pairs(graph, graph.mutual) == {("A", "B"), ("B", "A")}

    def test_four_project_fixture_exact_adjacency(self):
        roster = TeamRoster(
            {
                "A": frozenset({"a1", "a2"}),
                "B": frozenset({"b1"}),
                "C": frozenset({"c1"}),
                "D": frozenset({"d1"}),
            }
        )
        contributions = columns_of([
            ("a1", "B", 1.0),
            ("a2", "B", 3.0),   # second member, same edge
            ("b1", "A", 1.0),
            ("a1", "C", 1.0),
            ("d1", "C", 5.0),
            ("c1", "C", 9.0),   # self-support, not an edge
        ])
        graph = build_graph(contributions, roster, {})
        assert set(graph.edges) == {("A", "B"), ("B", "A"), ("A", "C"), ("D", "C")}
        assert graph.edges[("A", "B")] == pytest.approx(4.0)
        assert self_support(graph) == {"C": 1}
        assert outdegrees(graph)["A"] == 2

    def test_edge_amounts_add_their_records_in_record_order(self):
        """Past a few rows the sort moves an edge's rows out of record order,
        and 0.1, 0.2 and 0.3 or 1e6 and 1e-3 sum differently in another order."""
        roster = TeamRoster({"A": frozenset({"a1"}), "B": frozenset({"b1"}), "C": frozenset({"c1"})})
        rng = random.Random(3)
        records = [(rng.choice(["a1", "b1"]), rng.choice("BC"), rng.choice(GRAPH_AMOUNTS)) for _ in range(500)]
        expected = {}
        for member, project, amount in records:
            edge = (member[0].upper(), project)
            if edge[0] != project:
                expected[edge] = expected.get(edge, 0.0) + amount
        assert build_graph(columns_of(records), roster, {}).edges == expected

    def test_member_on_two_teams_projects_both(self):
        roster = TeamRoster({"A": frozenset({"m"}), "B": frozenset({"m"})})
        graph = build_graph(columns_of([("m", "C", 1.0)]), roster, {})
        assert set(graph.edges) == {("A", "C"), ("B", "C")}

    @given(
        teams=st.dictionaries(
            st.sampled_from(["A", "B", "C", "D", "E"]),
            st.frozensets(st.sampled_from(["m1", "m2", "m3", "m4"]), min_size=1, max_size=3),
            min_size=1,
        ),
        records=st.lists(
            st.tuples(
                st.sampled_from(["m1", "m2", "m3", "m4", "outsider"]),
                st.sampled_from(["A", "B", "C", "D", "E", "F"]),
                st.sampled_from([0.5, 1.0, 2.25, 7.0, 1e6]),
            ),
            max_size=25,
        ),
        labels=st.dictionaries(st.sampled_from(["A", "B", "C", "D", "F"]), st.sampled_from(["x", "y"])),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_definition(self, teams, records, labels):
        roster = TeamRoster(teams)
        graph = build_graph(columns_of(records), roster, labels)

        def given_to(source: str, target: str) -> list[float]:
            return [amount for cid, pid, amount in records if pid == target and cid in teams[source]]

        nodes = set(teams) | {pid for _cid, pid, _amount in records}
        edges = {(a, b) for a in teams for b in nodes if a != b and given_to(a, b)}
        assert set(graph.edges) == edges
        assert self_support(graph) == {a: len(given_to(a, a)) for a in teams if given_to(a, a)}
        assert dict(zip(graph.nodes, graph.labels)) == {node: labels.get(node, "") for node in nodes}
        assert outdegrees(graph) == {node: sum(a == node for (a, _b) in edges) for node in nodes}
        assert edge_pairs(graph) == edges
        assert edge_pairs(graph, graph.mutual) == {(a, b) for (a, b) in edges if (b, a) in edges}
        weighted = reciprocity_stats(graph, weighted=True)
        assert [row.project_id for row in weighted.rows] == sorted(nodes)
        for row in weighted.rows:
            amounts = [x for (a, b) in edges if a == row.project_id for x in given_to(a, b)]
            assert row.outdegree == pytest.approx(sum(amounts), rel=1e-12, abs=0.0)


class TestReciprocityStats:
    def test_perfect_mutual_triangle(self):
        roster = TeamRoster({p: frozenset({f"m{p}"}) for p in "ABC"})
        contributions = columns_of((f"m{a}", b, 1.0) for a in "ABC" for b in "ABC" if a != b)
        graph = build_graph(contributions, roster, {})
        report = reciprocity_stats(graph)
        for row in report.rows:
            assert row.reciprocal == row.outdegree == 2
        # identical outdegrees leave the regression without variance
        assert report.slope is None

    def test_fully_mutual_graph_slope_one(self):
        projects = ["A", "B", "C", "D"]
        roster = TeamRoster({p: frozenset({f"m{p}"}) for p in projects})
        pairs = [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C")]
        records = []
        for a, b in pairs:
            records.append((f"m{a}", b, 1.0))
            records.append((f"m{b}", a, 1.0))
        report = reciprocity_stats(build_graph(columns_of(records), roster, {}))
        for row in report.rows:
            assert row.reciprocal == row.outdegree
        assert report.slope.slope == pytest.approx(1.0, abs=1e-12)
        assert report.slope.intercept == pytest.approx(0.0, abs=1e-12)

    def test_star_graph_slope_zero(self):
        leaves = [f"L{i}" for i in range(5)]
        roster = TeamRoster({p: frozenset({f"m{p}"}) for p in ["hub"] + leaves})
        records = [("mhub", leaf, 1.0) for leaf in leaves]
        # a couple of leaves back each other, never the hub
        records += [
            ("mL0", "L1", 1.0),
            ("mL1", "L0", 1.0),
        ]
        graph = build_graph(columns_of(records), roster, {})
        report = reciprocity_stats(graph)
        by_id = {row.project_id: row for row in report.rows}
        assert by_id["hub"].outdegree == 5
        assert by_id["hub"].reciprocal == 0

    def test_reciprocal_never_exceeds_outdegree_and_is_symmetric(self):
        contributions, roster, categories = generate_backing(n_projects=300, seed=5)
        graph = build_graph(contributions, roster, categories)
        report = reciprocity_stats(graph)
        rows = {row.project_id: row for row in report.rows}
        for row in report.rows:
            assert row.reciprocal <= row.outdegree
            assert row.cross_reciprocal <= row.cross_outdegree
        mutual = edge_pairs(graph, graph.mutual)
        assert mutual == {(b, a) for (a, b) in mutual}

    def test_generator_recovers_reciprocation_probability(self):
        slopes = []
        for seed in range(3):
            contributions, roster, categories = generate_backing(
                n_projects=3000, quota_range=(1, 50), seed=seed
            )
            graph = build_graph(contributions, roster, categories)
            slopes.append(reciprocity_stats(graph).slope.slope)
        assert statistics.fmean(slopes) == pytest.approx(0.2, abs=0.02)

    def test_too_few_active_projects_slope_absent(self):
        roster = TeamRoster({"A": frozenset({"a1"}), "B": frozenset({"b1"})})
        graph = build_graph(columns_of([("a1", "B", 1.0)]), roster, {})
        assert reciprocity_stats(graph).slope is None

    def test_weighted_variant_uses_amounts(self):
        graph = two_team_graph()
        weighted = reciprocity_stats(graph, weighted=True)
        by_id = {row.project_id: row for row in weighted.rows}
        assert by_id["A"].outdegree == pytest.approx(2.0)
        assert by_id["A"].reciprocal == pytest.approx(2.0)
        assert by_id["B"].outdegree == pytest.approx(1.0)

    def test_weighted_slope_past_the_largest_float_is_absent(self):
        """Outdegrees 1e300 and 3e300 are finite, but their squared deviations are not."""
        roster = TeamRoster({"A": frozenset({"a1"}), "B": frozenset({"b1"})})
        graph = build_graph(columns_of([("a1", "B", 1e300), ("b1", "A", 3e300)]), roster, {})
        weighted = reciprocity_stats(graph, weighted=True)
        assert [row.outdegree for row in weighted.rows] == [1e300, 3e300]
        assert weighted.slope is weighted.cross_slope_total_denominator is None

    def test_weighted_outdegree_past_the_largest_float(self):
        roster = TeamRoster({"A": frozenset({"a1"}), "B": frozenset({"b1"}), "C": frozenset({"c1"})})
        graph = build_graph(columns_of([("a1", "B", 1e308), ("a1", "C", 1e308)]), roster, {})
        assert reciprocity_stats(graph).rows[0].outdegree == 2.0
        message = "^contributions from the team of project 'A' sum past the largest float$"
        with pytest.raises(DomainError, match=message):
            reciprocity_stats(graph, weighted=True)


class TestCrossCategory:
    def test_all_reciprocity_within_one_category(self):
        roster = TeamRoster({p: frozenset({f"m{p}"}) for p in ["A", "B", "C"]})
        contributions = columns_of([
            ("mA", "B", 1.0),
            ("mB", "A", 1.0),
        ])
        graph = build_graph(contributions, roster, {"A": "x", "B": "x", "C": "y"})
        report = cross_category_stats(graph)
        rows = {row.category: row for row in report.rows}
        assert rows["x"].cross_reciprocal_share == 0.0
        assert rows["x"].reciprocal_endpoints == 2
        assert not report.single_category

    def test_single_category_warns(self):
        graph = build_graph(columns_of([]), TeamRoster({"A": frozenset({"m"})}), {"A": "only"})
        report = cross_category_stats(graph)
        assert report.single_category
        assert report.rows[0].cross_reciprocal_share == 0.0

    def test_community_row_percentages_exact(self):
        contributions, roster, categories = community_percentages_fixture()
        graph = build_graph(contributions, roster, categories)
        report = cross_category_stats(graph)
        rows = {row.category: row for row in report.rows}
        assert rows["community"].outside_project_share == pytest.approx(0.66, abs=1e-12)
        assert rows["community"].cross_reciprocal_share == pytest.approx(0.71, abs=1e-12)

    def test_null_model_cross_share_tracks_outside_share(self):
        # summarized here on a few seeds; the acceptance suite runs the
        # full Monte Carlo comparison with standard errors
        deltas = []
        for seed in range(3):
            contributions, roster, categories = generate_backing(n_projects=1500, seed=100 + seed)
            graph = build_graph(contributions, roster, categories)
            report = cross_category_stats(graph)
            for row in report.rows:
                deltas.append(row.cross_reciprocal_share - row.outside_project_share)
        assert abs(statistics.fmean(deltas)) < 0.02


#: Projects E and F are never on a team; m4 backs the teams it is on, and
#: "outsider" is on none.  0.1, 0.2 and 0.3 sum to 0.6000000000000001 in
#: this order, while math.fsum gives 0.6.
GRAPH_PROJECTS = ("A", "B", "C", "D", "E", "F")
GRAPH_MEMBERS = ("m1", "m2", "m3", "m4", "outsider")
GRAPH_AMOUNTS = (0.1, 0.2, 0.3, 1.0, 2.25, 7.0, 1e6, 1e-3)


@st.composite
def backing_inputs(draw):
    """``(teams, records, labels)``: a roster, ``(member, project, amount)``
    records in order, and a category per project ("" when absent)."""
    teams = draw(st.dictionaries(
        st.sampled_from(GRAPH_PROJECTS[:4]),
        st.frozensets(st.sampled_from(GRAPH_MEMBERS[:4]), min_size=1, max_size=3),
    ))
    records = draw(st.lists(
        st.tuples(
            st.sampled_from(GRAPH_MEMBERS),
            st.sampled_from(GRAPH_PROJECTS),
            st.sampled_from(GRAPH_AMOUNTS),
        ),
        max_size=30,
    ))
    labels = draw(st.dictionaries(
        st.sampled_from(GRAPH_PROJECTS),
        st.sampled_from(("x", "y", "")),
    ))
    return teams, records, labels


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        return f"DomainError: {exc}"


def _write_backing_files(directory, teams, records, labels):
    contributions = directory / "contributions.csv"
    with open(contributions, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CONTRIBUTIONS_COLUMNS)
        for day, (member, project, amount) in enumerate(records):
            writer.writerow((day, labels.get(project, ""), project, member, repr(amount)))
    roster = directory / "teams.csv"
    with open(roster, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("project_id", "member_id"))
        writer.writerows((project, member) for project in teams for member in sorted(teams[project]))
    return contributions, roster


def _run_reciprocal(contributions, teams, out_dir, weighted):
    """``(exit code, stdout, stderr, report bytes, cross bytes)``; the two
    files are removed, so the next run writes into an empty directory."""
    argv = ["reciprocal", "--contributions", str(contributions), "--teams", str(teams),
            "--out-dir", str(out_dir)] + (["--weighted"] if weighted else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return (code, stdout.getvalue(), stderr.getvalue()) + _take_outputs(out_dir)


def _take_outputs(out_dir):
    texts = []
    for name in ("reciprocal_report.csv", "cross_category.csv"):
        path = out_dir / name
        texts.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return tuple(texts)


class TestGraphOracle:
    """The graph, both statistics and the ``reciprocal`` command equal the
    reference in ``graph_oracle`` exactly: edge amounts to the bit, every
    report row, the slopes and the command's bytes."""

    @given(inputs=backing_inputs())
    @example(inputs=({"A": frozenset({"m1"})}, [], {}))
    @example(inputs=(
        {"A": frozenset({"m1", "m2"}), "B": frozenset({"m2"}), "C": frozenset({"m3"}),
         "D": frozenset({"m4"})},
        [("m1", "B", 0.1), ("m2", "B", 0.2), ("m2", "C", 1.0), ("m1", "B", 0.3),
         ("m3", "A", 2.25), ("m2", "C", 7.0), ("outsider", "F", 1.0), ("m3", "C", 1.0)],
        {"A": "x", "B": "y", "F": ""},
    ))
    @settings(max_examples=200, deadline=None)
    def test_library_and_command_match_the_oracle(self, inputs, tmp_path_factory):
        teams, records, labels = inputs
        roster = TeamRoster(teams)
        graph = build_graph(columns_of(records), roster, labels)
        contributions = [Record(m, p, amount, 0) for m, p, amount in records]
        expected = graph_oracle.build_graph(contributions, roster, labels)
        assert graph.edges == expected.edges
        assert self_support(graph) == expected.self_support
        assert dict(zip(graph.nodes, graph.labels)) == expected.categories
        nodes = expected.categories
        assert outdegrees(graph) == {node: expected.outdegree(node) for node in nodes}
        assert edge_pairs(graph) == {(a, b) for a in nodes for b in expected.out_neighbors(a)}
        assert edge_pairs(graph, graph.mutual) == {
            (a, b) for a in nodes for b in expected.reciprocal_partners(a)
        }
        for weighted in (False, True):
            assert _outcome(reciprocity_stats, graph, weighted=weighted) == _outcome(
                graph_oracle.reciprocity_stats, expected, weighted=weighted
            )
        assert _outcome(cross_category_stats, graph) == _outcome(
            graph_oracle.cross_category_stats, expected
        )

        directory = tmp_path_factory.mktemp("backing")
        files = _write_backing_files(directory, teams, records, labels)
        out_dir = directory / "out"
        for weighted in (False, True):
            reference = graph_oracle.reciprocal(*files, out_dir, weighted) + _take_outputs(out_dir)
            assert _run_reciprocal(*files, out_dir, weighted) == reference


class TestUnweightedGraph:
    """``build_graph(weighted=False)`` skips the edge sums and nothing else."""

    @given(inputs=backing_inputs())
    @example(inputs=(
        # m1 is on A, B and C; edge C->D gets four records from m1 and m2,
        # between rows of other keys, and m1 and m3 back their own projects
        {"A": frozenset({"m1"}), "B": frozenset({"m1", "m3"}), "C": frozenset({"m1", "m2"}),
         "D": frozenset({"m4"})},
        [("m1", "D", 0.1), ("m4", "A", 1.0), ("m2", "D", 0.2), ("m1", "A", 2.25), ("m1", "D", 0.3),
         ("m3", "B", 7.0), ("m2", "D", 1e6), ("outsider", "F", 1.0)],
        {"A": "x", "D": "y"},
    ))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_weighted_graph_but_for_amounts(self, inputs):
        teams, records, labels = inputs
        contributions, roster = columns_of(records), TeamRoster(teams)
        weighted = build_graph(contributions, roster, labels)
        unweighted = build_graph(contributions, roster, labels, weighted=False)
        assert (unweighted.nodes, unweighted.labels) == (weighted.nodes, weighted.labels)
        for name, dtype in (("sources", "int64"), ("targets", "int64"), ("mutual", "bool"),
                            ("self_counts", "int64")):
            ours, theirs = getattr(unweighted, name), getattr(weighted, name)
            assert (str(ours.dtype), str(theirs.dtype)) == (dtype, dtype)
            assert ours.tobytes() == theirs.tobytes()
        assert str(weighted.amounts.dtype) == "float64"
        assert unweighted.amounts is None
        assert unweighted.edges == dict.fromkeys(weighted.edges)

    def test_weighted_statistics_need_the_amounts(self):
        roster = TeamRoster({"A": frozenset({"a1"}), "B": frozenset({"b1"})})
        contributions = columns_of([("a1", "B", 2.0), ("b1", "A", 1.0)])
        graph = build_graph(contributions, roster, {"A": "x", "B": "y"}, weighted=False)
        message = "^weighted statistics need a graph built with weighted=True$"
        with pytest.raises(DomainError, match=message):
            reciprocity_stats(graph, weighted=True)
        assert reciprocity_stats(graph) == reciprocity_stats(two_team_graph())


class TestBuildGraphMemory:
    """numpy reports its buffers to tracemalloc, so the traced peak of one
    build counts every record-sized temporary it holds at once."""

    @pytest.fixture(scope="class")
    def inputs(self):
        """50,000 records from 1,500 members, each on one to three of 1,000 teams."""
        rng = random.Random(7)
        projects = [f"p{i}" for i in range(1000)]
        members = [f"m{i}" for i in range(1500)]
        teams = {}
        for member in members:
            for project in rng.sample(projects, rng.randint(1, 3)):
                teams.setdefault(project, set()).add(member)
        roster = TeamRoster({project: frozenset(team) for project, team in teams.items()})
        records = [(rng.choice(members), rng.choice(projects), rng.choice(GRAPH_AMOUNTS)) for _ in range(50_000)]
        return columns_of(records), roster

    # Measured at 63.8 and 83.3 bytes per record; a build that summed every
    # edge and held each temporary to its end took 236 either way.
    @pytest.mark.parametrize("weighted, bound", [(False, 71), (True, 92)])
    def test_peak_bytes_per_record(self, inputs, weighted, bound):
        contributions, roster = inputs
        build_graph(contributions, roster, {}, weighted=weighted)  # the first build imports numpy
        tracemalloc.start()
        try:
            build_graph(contributions, roster, {}, weighted=weighted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(contributions.amounts) <= bound

    # Measured at 31.7 bytes per record, as much as the unweighted
    # statistics; summing each node's amounts from one list of every edge
    # amount took 64.8.
    def test_weighted_statistics_peak_bytes_per_record(self, inputs):
        contributions, roster = inputs
        graph = build_graph(contributions, roster, {}, weighted=True)
        reciprocity_stats(graph, weighted=True)
        tracemalloc.start()
        try:
            reciprocity_stats(graph, weighted=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(contributions.amounts) <= 35
