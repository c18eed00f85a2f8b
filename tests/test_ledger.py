"""Tests for ledger ingestion and the reciprocity forensics."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthgraph import community_percentages_fixture, generate_backing

from qfround.errors import DomainError, LedgerFormatError
from qfround.funding import Contribution
from qfround.ledger import (
    TeamRoster,
    build_graph,
    cross_category_stats,
    load_contributions,
    load_pools,
    load_roster,
    reciprocity_stats,
    write_contributions,
)

GOLDEN = """day,category,project_id,contributor_id,amount
0,infra,p1,alice,4
1,infra,p1,bob,1
2,apps,p2,carol,2.5
"""


class TestLoadContributions:
    def test_golden_three_rows(self, tmp_path):
        path = tmp_path / "contributions.csv"
        path.write_text(GOLDEN, encoding="utf-8")
        loaded = load_contributions(path)
        assert loaded.errors == ()
        assert loaded.contributions == (
            Contribution("alice", "p1", 4.0, 0),
            Contribution("bob", "p1", 1.0, 1),
            Contribution("carol", "p2", 2.5, 2),
        )
        assert loaded.project_categories == {"p1": "infra", "p2": "apps"}

    def test_header_only(self, tmp_path):
        path = tmp_path / "contributions.csv"
        path.write_text("day,category,project_id,contributor_id,amount\n", encoding="utf-8")
        loaded = load_contributions(path)
        assert loaded.contributions == ()
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
        assert loaded.contributions[0].amount == 2.0

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
        assert loaded.contributions == records
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
        assert loaded.contributions == records


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
    contributions = [
        Contribution("a1", "B", 2.0, 0),
        Contribution("b1", "A", 1.0, 1),
    ]
    return build_graph(contributions, roster, {"A": "x", "B": "y"})


class TestBuildGraph:
    def test_disjoint_teams_no_edges(self):
        roster = TeamRoster({"A": frozenset({"a1"}), "B": frozenset({"b1"})})
        contributions = [Contribution("stranger", "A", 1.0, 0)]
        graph = build_graph(contributions, roster, {})
        assert graph.edges == {}

    def test_mutual_pair(self):
        graph = two_team_graph()
        assert set(graph.edges) == {("A", "B"), ("B", "A")}
        assert graph.reciprocal_partners("A") == {"B"}
        assert graph.reciprocal_partners("B") == {"A"}

    def test_four_project_fixture_exact_adjacency(self):
        roster = TeamRoster(
            {
                "A": frozenset({"a1", "a2"}),
                "B": frozenset({"b1"}),
                "C": frozenset({"c1"}),
                "D": frozenset({"d1"}),
            }
        )
        contributions = [
            Contribution("a1", "B", 1.0, 0),
            Contribution("a2", "B", 3.0, 0),   # second member, same edge
            Contribution("b1", "A", 1.0, 0),
            Contribution("a1", "C", 1.0, 0),
            Contribution("d1", "C", 5.0, 0),
            Contribution("c1", "C", 9.0, 0),   # self-support, not an edge
        ]
        graph = build_graph(contributions, roster, {})
        assert set(graph.edges) == {("A", "B"), ("B", "A"), ("A", "C"), ("D", "C")}
        assert graph.edges[("A", "B")] == pytest.approx(4.0)
        assert graph.self_support == {"C": 1}
        assert graph.outdegree("A") == 2

    def test_member_on_two_teams_projects_both(self):
        roster = TeamRoster({"A": frozenset({"m"}), "B": frozenset({"m"})})
        contributions = [Contribution("m", "C", 1.0, 0)]
        graph = build_graph(contributions, roster, {})
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
        contributions = [Contribution(cid, pid, amount, 0) for cid, pid, amount in records]
        graph = build_graph(contributions, roster, labels)

        def given_to(source: str, target: str) -> list[float]:
            return [c.amount for c in contributions
                    if c.project_id == target and c.contributor_id in teams[source]]

        nodes = set(teams) | {c.project_id for c in contributions}
        edges = {(a, b) for a in teams for b in nodes if a != b and given_to(a, b)}
        self_support = {a: len(given_to(a, a)) for a in teams if given_to(a, a)}
        assert set(graph.edges) == edges
        assert graph.self_support == self_support
        assert graph.categories == {node: labels.get(node, "") for node in nodes}
        for node in nodes:
            targets = {b for (a, b) in edges if a == node}
            assert graph.outdegree(node) == len(targets)
            assert graph.out_neighbors(node) == targets
            assert graph.reciprocal_partners(node) == {b for b in targets if (b, node) in edges}
        weighted = reciprocity_stats(graph, weighted=True)
        assert [row.project_id for row in weighted.rows] == sorted(nodes)
        for row in weighted.rows:
            amounts = [x for (a, b) in edges if a == row.project_id for x in given_to(a, b)]
            assert row.outdegree == pytest.approx(sum(amounts), rel=1e-12, abs=0.0)


class TestReciprocityStats:
    def test_perfect_mutual_triangle(self):
        roster = TeamRoster({p: frozenset({f"m{p}"}) for p in "ABC"})
        contributions = [
            Contribution(f"m{a}", b, 1.0, 0) for a in "ABC" for b in "ABC" if a != b
        ]
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
        contributions = []
        for a, b in pairs:
            contributions.append(Contribution(f"m{a}", b, 1.0, 0))
            contributions.append(Contribution(f"m{b}", a, 1.0, 0))
        report = reciprocity_stats(build_graph(contributions, roster, {}))
        for row in report.rows:
            assert row.reciprocal == row.outdegree
        assert report.slope.slope == pytest.approx(1.0, abs=1e-12)
        assert report.slope.intercept == pytest.approx(0.0, abs=1e-12)

    def test_star_graph_slope_zero(self):
        leaves = [f"L{i}" for i in range(5)]
        roster = TeamRoster({p: frozenset({f"m{p}"}) for p in ["hub"] + leaves})
        contributions = [Contribution("mhub", leaf, 1.0, 0) for leaf in leaves]
        # a couple of leaves back each other, never the hub
        contributions += [
            Contribution("mL0", "L1", 1.0, 0),
            Contribution("mL1", "L0", 1.0, 0),
        ]
        graph = build_graph(contributions, roster, {})
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
        for (a, b) in graph.edges:
            assert (b in graph.reciprocal_partners(a)) == (a in graph.reciprocal_partners(b))

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
        graph = build_graph([Contribution("a1", "B", 1.0, 0)], roster, {})
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
        contributions = [
            Contribution("mA", "B", 1.0, 0),
            Contribution("mB", "A", 1.0, 0),
        ]
        graph = build_graph(contributions, roster, {"A": "x", "B": "x", "C": "y"})
        report = cross_category_stats(graph)
        rows = {row.category: row for row in report.rows}
        assert rows["x"].cross_reciprocal_share == 0.0
        assert rows["x"].reciprocal_endpoints == 2
        assert not report.single_category

    def test_single_category_warns(self):
        graph = build_graph([], TeamRoster({"A": frozenset({"m"})}), {"A": "only"})
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
