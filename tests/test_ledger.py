"""Tests for ledger ingestion and the reciprocity forensics."""

import contextlib
import csv
import io
import statistics
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dictreader_loader
import graph_oracle
from synthgraph import columns_of, community_percentages_fixture, generate_backing, records_of

from qfround.cli import main
from qfround.errors import DomainError, LedgerFormatError
from qfround.funding import Contribution
from qfround.ledger import (
    CONTRIBUTIONS_COLUMNS,
    TeamRoster,
    build_graph,
    cross_category_stats,
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
            Contribution("alice", "p1", 4.0, 0),
            Contribution("bob", "p1", 1.0, 1),
            Contribution("carol", "p2", 2.5, 2),
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
            Contribution("alice", "p1", 4.0, 0),
            Contribution("bob", "p1", 0.125, 3),
            Contribution("carol", "p2", 1e-3, 7),
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
            Contribution(cid.strip() or "x", pid, amount, day)
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
        contributions = [Contribution(m, p, amount, 0) for m, p, amount in records]
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
