"""End-to-end tests of the command-line surface."""

import contextlib
import csv
import io
import json
import math
import random
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import diagnose_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthgraph import records_of

from qfround.cli import main
from qfround.ledger import load_contributions

GOLDEN = Path(__file__).resolve().parent / "golden"
#: Inputs whose sums pass the largest float, which CI's installed-script job replays too.
OVERFLOW = Path(__file__).resolve().parent / "data" / "overflow"
#: Rounds whose one agent has a budget at the largest float, which CI's installed-script job replays too.
BUDGET = Path(__file__).resolve().parent / "data" / "budget"
#: The allocate and diagnose golden inputs, which CI's installed-script job replays too.
CONTRIBUTIONS = (GOLDEN / "allocate" / "contributions.csv").read_text(encoding="utf-8")
POOLS = (GOLDEN / "allocate" / "pools.csv").read_text(encoding="utf-8")
TEAMS = "project_id,member_id\np1,bob\np2,alice\n"
EQUILIBRIUM = GOLDEN / "equilibrium"
#: One project valued only through sqrt, one only through log.
SPLIT_VALUATIONS = "contributor_id,project_id,family,scale\na,p1,sqrt,2.0\nb,p2,log,3.0\n"


@pytest.fixture
def round_files(tmp_path):
    contributions = tmp_path / "contributions.csv"
    contributions.write_text(CONTRIBUTIONS, encoding="utf-8")
    pools = tmp_path / "pools.csv"
    pools.write_text(POOLS, encoding="utf-8")
    return contributions, pools


class TestAllocate:
    def test_golden_report(self, round_files, capsys):
        contributions, pools = round_files
        assert main(["allocate", "--contributions", str(contributions), "--pools", str(pools)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_policy"] == "final"
        block = payload["categories"][0]
        assert block["category"] == "main"
        assert block["k"] == pytest.approx(2.0, rel=1e-12)
        projects = {p["project_id"]: p for p in block["projects"]}
        assert projects["p1"]["f_qf"] == pytest.approx(4.0)
        assert projects["p1"]["m_qf"] == pytest.approx(2.0)
        assert projects["p1"]["m_actual"] == pytest.approx(1.0)
        assert projects["p1"]["f_actual"] == pytest.approx(3.0)
        assert projects["p1"]["lambda_p"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert projects["p2"]["m_actual"] == pytest.approx(0.0, abs=1e-12)
        assert projects["p2"]["f_actual"] == pytest.approx(4.0)
        assert projects["p2"]["lambda_p"] == pytest.approx(1.0, abs=1e-12)

    def test_csv_output(self, round_files, tmp_path, capsys):
        contributions, pools = round_files
        out = tmp_path / "per_project.csv"
        assert (
            main(
                [
                    "allocate",
                    "--contributions",
                    str(contributions),
                    "--pools",
                    str(pools),
                    "--csv",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["project_id"] for r in rows] == ["p1", "p2"]
        assert float(rows[0]["m_actual"]) == pytest.approx(1.0)

    def test_cap_at_target_reports_surplus(self, tmp_path, capsys):
        contributions = tmp_path / "contributions.csv"
        contributions.write_text(CONTRIBUTIONS, encoding="utf-8")
        pools = tmp_path / "pools.csv"
        pools.write_text("category,pool\nmain,8\n", encoding="utf-8")
        assert (
            main(
                [
                    "allocate",
                    "--contributions",
                    str(contributions),
                    "--pools",
                    str(pools),
                    "--cap-at-target",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        block = payload["categories"][0]
        assert block["k"] == pytest.approx(0.25)
        assert block["surplus"] == pytest.approx(6.0)
        projects = {p["project_id"]: p for p in block["projects"]}
        assert projects["p1"]["m_actual"] == pytest.approx(2.0)

    def test_byte_order_mark_is_not_part_of_the_first_column(self, round_files, tmp_path, capsys):
        """Spreadsheet CSV exports start with a UTF-8 byte-order mark; the
        report is the one the same files give without it."""
        contributions, pools = round_files
        assert main(["allocate", "--contributions", str(contributions), "--pools", str(pools)]) == 0
        expected = capsys.readouterr()
        marked = []
        for path in (contributions, pools):
            copy = tmp_path / f"bom_{path.name}"
            copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            marked.append(str(copy))
        assert main(["allocate", "--contributions", marked[0], "--pools", marked[1]]) == 0
        assert capsys.readouterr() == expected

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        pools = tmp_path / "pools.csv"
        pools.write_text(POOLS, encoding="utf-8")
        code = main(["allocate", "--contributions", str(tmp_path / "nope.csv"), "--pools", str(pools)])
        assert code == 2

    def test_no_matchable_projects_is_domain_error(self, tmp_path, capsys):
        contributions = tmp_path / "contributions.csv"
        contributions.write_text(
            "day,category,project_id,contributor_id,amount\n0,main,p1,alice,5\n",
            encoding="utf-8",
        )
        pools = tmp_path / "pools.csv"
        pools.write_text(POOLS, encoding="utf-8")
        code = main(["allocate", "--contributions", str(contributions), "--pools", str(pools)])
        assert code == 1
        assert "no matchable" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["allocate", "diagnose"])
def test_pool_too_large_for_lambda_names_the_category(round_files, capsys, command):
    """A pool of 1e308 against a required match of 2 makes k = 2e-308,
    where p2's lone contributor's lambda_p term would divide by 0."""
    contributions, pools = round_files
    pools.write_text("category,pool\nmain,1e308\n", encoding="utf-8")
    assert main([command, "--contributions", str(contributions), "--pools", str(pools)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: category 'main': k must be in [2**-52, inf) for lambda_p, got 2e-308\n"
    assert captured.out == ""


class TestDiagnose:
    def test_reports_lambda_and_dispersion(self, round_files, capsys):
        contributions, pools = round_files
        assert main(["diagnose", "--contributions", str(contributions), "--pools", str(pools)]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_project = {p["project_id"]: p for p in payload["projects"]}
        assert by_project["p1"]["lambda_p"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert by_project["p1"]["lower_bound"] <= by_project["p1"]["lambda_p"] + 1e-12
        category = payload["categories"][0]
        assert category["project_count"] == 2
        assert category["stdev"] > 0


#: Projects p0..p5 are spread over four categories; a row keeps its
#: project's category unless it is drawn to conflict.
DIAGNOSE_CATEGORIES = ("a", "b", "c", "d")
BAD_AMOUNTS = ("0", "-2", "nan", "x", "")


@st.composite
def diagnose_files(draw):
    """A contributions CSV (with bad rows) and a pools CSV, as text."""
    home = {f"p{i}": draw(st.sampled_from(DIAGNOSE_CATEGORIES)) for i in range(6)}
    lines = ["day,category,project_id,contributor_id,amount"]
    for _ in range(draw(st.integers(min_value=8, max_value=40))):
        project = draw(st.sampled_from(sorted(home)))
        category = home[project]
        amount = repr(draw(st.floats(min_value=1e-3, max_value=1e4)))
        day = str(draw(st.integers(min_value=0, max_value=9)))
        flaw = draw(st.integers(min_value=0, max_value=9))
        if flaw == 0:
            amount = draw(st.sampled_from(BAD_AMOUNTS))
        elif flaw == 1:
            category = draw(st.sampled_from(DIAGNOSE_CATEGORIES))
        elif flaw == 2:
            day = "d1"
        contributor = draw(st.sampled_from(("c0", "c1", "c2", "c3", "c4", "")))
        lines.append(",".join((day, category, project, contributor, amount)))
    pooled = {home[line.split(",")[2]] for line in lines[1:]}
    if draw(st.integers(min_value=0, max_value=3)) == 0:  # a pool too few or one too many
        pooled ^= {draw(st.sampled_from(DIAGNOSE_CATEGORIES))}
    pools = ["category,pool"] + [
        f"{name},{draw(st.floats(min_value=1e-2, max_value=1e5))!r}" for name in sorted(pooled)
    ]
    return "\n".join(lines) + "\n", "\n".join(pools) + "\n"


def diagnose_both(directory, contributions_text, pools_text):
    """The command's and the oracle's ``(exit code, --json text, stderr)``."""
    contributions = directory / "contributions.csv"
    contributions.write_text(contributions_text, encoding="utf-8")
    pools = directory / "pools.csv"
    pools.write_text(pools_text, encoding="utf-8")
    out = directory / "diagnose.json"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["diagnose", "--contributions", str(contributions), "--pools", str(pools),
                     "--json", str(out)])
    assert stdout.getvalue() == ""
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return (code, text, stderr.getvalue()), diagnose_oracle.diagnose(contributions, pools)


class TestDiagnoseOracle:
    """``diagnose`` writes what the reference assembly in
    ``diagnose_oracle`` writes: the same JSON bytes, stderr and exit code."""

    @given(files=diagnose_files())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_oracle(self, files, tmp_path_factory):
        command, oracle = diagnose_both(tmp_path_factory.mktemp("diagnose"), *files)
        assert command == oracle

    ROWS = (
        "day,category,project_id,contributor_id,amount\n"
        "0,a,p1,c1,1\n0,a,p1,c2,4\n1,a,p2,c1,2.5\n1,a,p2,c3,0.25\n"
        "0,b,p3,c1,9\n2,b,p3,c2,1\n2,b,p3,c4,x\n"
        "0,c,p4,c2,3\n0,c,p4,c3,3\n0,c,p5,c4,7\n1,a,p4,c5,1\n"
    )

    @pytest.mark.parametrize(
        "extra, pools, code, message",
        [
            ("", "a,2\nb,0.5\nc,30\n", 0, None),
            ("0,d,p6,c1,5\n", "a,2\nb,0.5\nc,30\n", 1, "no pool configured for category 'd'"),
            # p6, the only project of d, has one backer over two records
            ("0,d,p6,c1,5\n1,d,p6,c1,2\n", "a,2\nb,0.5\nc,30\nd,1\n", 1, "no matchable projects"),
        ],
        ids=["three_categories", "category_without_pool", "pool_without_matchable_projects"],
    )
    def test_cases(self, tmp_path, extra, pools, code, message):
        command, oracle = diagnose_both(tmp_path, self.ROWS + extra, "category,pool\n" + pools)
        assert command == oracle
        assert command[0] == code
        assert f"{tmp_path / 'contributions.csv'}:8: unparsable row" in command[2]
        assert f"{tmp_path / 'contributions.csv'}:12: category conflict" in command[2]
        if message:
            assert message in command[2]
        else:
            assert [c["category"] for c in json.loads(command[1])["categories"]] == ["a", "b", "c"]


class TestSweepK:
    def test_default_profiles(self, capsys):
        assert main(["sweep-k", "--steps", "5", "--k-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "profile_label,k,lambda_p"
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"1:1", "1:2", "1:15"}
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert float(first[1]) == 1.0
        assert float(first[2]) == pytest.approx(1.0, abs=1e-9)

    def test_bad_profile_syntax_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-k", "--profiles", "1:banana"])
        assert excinfo.value.code == 2

    def test_empty_profile_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-k", "--profiles", ",1:2"])
        assert excinfo.value.code == 2
        assert "argument --profiles: empty profile in ',1:2'" in capsys.readouterr().err

    @pytest.mark.parametrize("profiles", ["1:inf", "1:nan", "-inf:1", "1:0"])
    def test_non_finite_or_nonpositive_profile_is_usage_error(self, capsys, profiles):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-k", f"--profiles={profiles}", "--steps", "3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --profiles: bad ratio profile {profiles!r}: need finite positive amounts" in err

    def test_k_below_lambda_floor_is_domain_error(self, capsys):
        argv = ["sweep-k", "--profiles", "1", "--k-min", "1e-300", "--k-max", "1", "--steps", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: k must be in [2**-52, inf) for lambda_p, got 1e-300\n"

    @pytest.mark.parametrize("flag", ["--k-min", "--k-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_k_bound_is_domain_error(self, capsys, flag, value):
        assert main(["sweep-k", f"{flag}={value}", "--steps", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be finite, got {float(value)!r}\n"
        assert captured.out == ""


class TestCollusion:
    def test_point_values(self, capsys):
        assert main(["collusion", "--n", "25", "--k", "1"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        n, k, star, double_star = line.split(",")
        assert float(star) == 0.2
        assert float(double_star) == pytest.approx(0.2, abs=1e-12)

    def test_paper_like_point(self, capsys):
        assert main(["collusion", "--n", "25", "--k", "20"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert float(line.split(",")[3]) == pytest.approx(0.5918, abs=5e-4)

    def test_sweep_table(self, capsys):
        assert main(["collusion", "--sweep", "--k-max", "30", "--steps", "30"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,k,alpha_star,alpha_double_star"
        assert len(lines) == 1 + 2 * 30
        by_n = {}
        for line in lines[1:]:
            n, k, star, double = line.split(",")
            by_n.setdefault(int(n), []).append(float(double))
        for values in by_n.values():
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_sweep_k_max_is_domain_error(self, capsys, value):
        assert main(["collusion", "--sweep", f"--k-max={value}", "--steps", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --k-max must be finite, got {float(value)!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, reason", [
        (["--n", str(10**400), "--k", "2"], f"ring size n = {10**400} passes the largest float"),
        (["--n", str(10**308), "--k", "2"], f"ring size n = {10**308} at k = 2.0: 4n/k passes the largest float"),
        (["--sweep", "--ring-sizes", f"10,{10**400}"], f"ring size n = {10**400} passes the largest float"),
    ], ids=["n_past_float", "4n_over_k_past_float", "sweep"])
    def test_ring_size_past_the_float_range_is_domain_error(self, capsys, argv, reason):
        assert main(["collusion", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {reason}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("sizes", ["10,x", "10,,25", ""])
    def test_ring_sizes_not_integers_is_usage_error(self, capsys, sizes):
        with pytest.raises(SystemExit) as excinfo:
            main(["collusion", "--sweep", "--ring-sizes", sizes])
        assert excinfo.value.code == 2
        assert f"argument --ring-sizes: bad ring sizes {sizes!r}" in capsys.readouterr().err


class TestEquilibriumCommand:
    def test_fixed_point_and_planner(self, tmp_path, capsys):
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(
            "contributor_id,project_id,family,scale\n"
            "a,p1,sqrt,2.0\nb,p1,sqrt,2.0\na,p2,sqrt,1.0\n",
            encoding="utf-8",
        )
        assert (
            main(
                [
                    "equilibrium",
                    "--valuations",
                    str(valuations),
                    "--k",
                    "1.0",
                    "--planner-pool",
                    "4.0",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert payload["aggregate_marginal"]["p1"] == pytest.approx(1.0, abs=1e-6)
        assert payload["contributions"]["a"]["p1"] > 0
        assert payload["planner"]["funds"]["p1"] + payload["planner"]["funds"]["p2"] == pytest.approx(
            4.0, rel=1e-9
        )

    def test_budget_file(self, tmp_path, capsys):
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(
            "contributor_id,project_id,family,scale\na,p1,sqrt,4.0\na,p2,sqrt,4.0\n",
            encoding="utf-8",
        )
        budgets = tmp_path / "budgets.csv"
        budgets.write_text("contributor_id,budget\na,1.0\n", encoding="utf-8")
        assert (
            main(
                [
                    "equilibrium",
                    "--valuations",
                    str(valuations),
                    "--k",
                    "1.0",
                    "--budgets",
                    str(budgets),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        spent = sum(sum(per.values()) for per in payload["contributions"].values())
        assert spent == pytest.approx(1.0, rel=1e-9)
        assert payload["clamped"]

    def test_huge_k_is_private_provision(self, capsys):
        """At k = 1e300 the match vanishes and the Newton slope underflows to 0:
        each contributor funds alone what its valuation is worth to it."""
        argv = ["equilibrium", "--valuations", str(EQUILIBRIUM / "valuations.csv"), "--k", "1e300"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["converged"] and captured.err == ""
        assert all(math.isfinite(f) for f in payload["funds"].values())
        # alice's sqrt scale 2 on p1 and log scale 4 on p3, carol's log scale 6 on p2
        assert payload["funds"] == pytest.approx({"p1": 1.0, "p2": 5.0, "p3": 3.0}, rel=1e-9)

    def test_planner_pool_near_the_largest_float(self, tmp_path, capsys):
        """With a pool of 1e308 the multiplier search passes through funding
        levels past the largest float; the split still equalizes marginals."""
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(SPLIT_VALUATIONS, encoding="utf-8")
        argv = ["equilibrium", "--valuations", str(valuations), "--k", "2", "--planner-pool", "1e308"]
        assert main(argv) == 0
        planner = json.loads(capsys.readouterr().out)["planner"]
        funds, lam = planner["funds"], planner["common_marginal"]
        assert funds["p1"] + funds["p2"] == pytest.approx(1e308, rel=1e-9)
        assert 2.0 / (2.0 * math.sqrt(funds["p1"])) == pytest.approx(lam, rel=1e-6)
        assert 3.0 / (1.0 + funds["p2"]) == pytest.approx(lam, rel=1e-6)
        assert math.isfinite(planner["welfare"])

    def test_planner_pool_at_the_largest_float(self, tmp_path, capsys):
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(SPLIT_VALUATIONS, encoding="utf-8")
        pool = repr(sys.float_info.max)
        argv = ["equilibrium", "--valuations", str(valuations), "--k", "2", "--planner-pool", pool]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: planner funds or welfare at pool {pool} pass the largest float\n"
        )

    @pytest.mark.parametrize("pool", ["1e-300", "5e-324"])
    def test_planner_pool_below_the_resolution_floor(self, capsys, pool):
        """p2 and p3 are valued by both sqrt and log, so the planner funds
        neither below its resolution, whatever the multiplier."""
        argv = ["equilibrium", "--valuations", str(EQUILIBRIUM / "valuations.csv"), "--k", "2.5",
                "--planner-pool", pool]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: failed to bracket the planner multiplier from above: pool {pool} is below "
            "5.684341886080802e-14, the least total funding at multipliers up to 2**400; "
            "a project valued by both sqrt and log is resolved only to 1e-13\n"
        )

    def test_planner_pool_below_the_multiplier_bound(self, tmp_path, capsys):
        """A sqrt project at pool 1e-300 needs a multiplier near 1e150, past 2**400."""
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(SPLIT_VALUATIONS, encoding="utf-8")
        argv = ["equilibrium", "--valuations", str(valuations), "--k", "2", "--planner-pool", "1e-300"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: failed to bracket the planner multiplier from above: pool 1e-300 is below "
            "1.499696813895631e-241, the least total funding at multipliers up to 2**400\n"
        )

    def test_best_contribution_past_the_largest_float(self, tmp_path, capsys):
        valuations = tmp_path / "valuations.csv"
        valuations.write_text("contributor_id,project_id,family,scale\na,p1,sqrt,1e308\n", encoding="utf-8")
        assert main(["equilibrium", "--valuations", str(valuations), "--k", "2"]) == 1
        assert capsys.readouterr().err == "error: best response for ('a', 'p1') at k = 2.0 leaves the float range\n"

    @pytest.mark.parametrize("k", ["1e-200", "5e-324"])
    def test_k_too_small_for_the_search(self, capsys, k):
        argv = ["equilibrium", "--valuations", str(EQUILIBRIUM / "valuations.csv"), "--k", k]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: best response for (") and err.endswith(f" at k = {float(k)!r} leaves the float range\n")

    @pytest.mark.parametrize("k, code, head, tail", [
        ("1e-320", 1, "error: best response for ('alice', 'p1') at k = 1e-320", " leaves the float range\n"),
        ("1e-300", 1, "error: best response at k = 1e-300: funds or welfare pass the largest float\n", ""),
        ("1e-280", 1, "error: best response for (", " at k = 1e-280 leaves the float range\n"),
        ("5e-200", 1, "error: funding must be nonnegative, got -", "\n"),
        ("1e-100", 1, "error: best response for ('alice', 'p1') at k = 1e-100", " leaves the float range\n"),
        ("1e-49", 1, "error: funding must be nonnegative, got -", "\n"),
        ("5e-49", 1, "error: best response for ('carol', 'p3') at k = 5e-49", " leaves the float range\n"),
        ("5e-48", 1, "error: best response for ('bob', 'p1') at k = 5e-48", " leaves the float range\n"),
        ("1e-20", 0, "", ""),
        ("1e-18", 0, "", ""),
    ])
    def test_tiny_k_exit(self, capsys, k, code, head, tail):
        """Below about k = 1e-20 the funding's two terms cancel, so which error
        ends a run, or whether it converges, is set by rounding.  Most runs
        end in the second sweep's solves, which repeat those of the damped
        iteration the sweeps replaced, so the same contributor fails for the
        same reason; at k = 1e-280 the error comes dozens of sweeps later and
        only its reason is pinned, as is only the sign of a negative funding."""
        argv = ["equilibrium", "--valuations", str(EQUILIBRIUM / "valuations.csv"), "--k", k]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(head) and captured.err.endswith(tail)
        if code == 0:
            assert captured.err == "" and json.loads(captured.out)["converged"]

    def test_non_convergence_warns_on_stderr(self, tmp_path, capsys):
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(VALUATIONS, encoding="utf-8")
        argv = ["equilibrium", "--valuations", str(valuations), "--k", "1.0"]
        assert main(argv) == 0
        converged = capsys.readouterr()
        assert json.loads(converged.out)["converged"] and converged.err == ""
        assert main(argv + ["--max-iter", "1"]) == 0
        stopped = capsys.readouterr()
        payload = json.loads(stopped.out)
        assert not payload["converged"] and payload["iterations"] == 1
        assert stopped.err == "warning: best response did not converge in 1 sweeps\n"

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_fewer_than_one_sweep_is_domain_error(self, tmp_path, capsys, max_iter):
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(VALUATIONS, encoding="utf-8")
        argv = ["equilibrium", "--valuations", str(valuations), "--k", "1.0", "--max-iter", max_iter]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: max_iter must be at least 1, got {max_iter}\n"
        assert captured.out == ""


SAMPLE_ROUND_PATH = Path(__file__).resolve().parent.parent / "sample_rounds" / "pool_increase_round.json"
SAMPLE_ROUND = json.loads(SAMPLE_ROUND_PATH.read_text(encoding="utf-8"))
SIM_CONFIG = {
    "seed": 5,
    "duration_days": 6,
    "categories": [
        {"name": "main", "pool": 120.0, "projects": ["p1", "p2"]},
        {"name": "side", "pool": 50.0, "projects": ["p3"]},
    ],
    "pool_events": [{"day": 3, "category": "main", "new_pool": 150.0}],
    "agents": [
        {
            "id": "a1",
            "kind": "honest",
            "budget": 50.0,
            "activity": 0.9,
            "valuations": [
                {"project": "p1", "family": "sqrt", "scale": 3.0},
                {"project": "p2", "family": "sqrt", "scale": 2.0},
            ],
        },
        {
            "id": "a2",
            "kind": "honest",
            "budget": 50.0,
            "activity": 0.9,
            "valuations": [{"project": "p1", "family": "sqrt", "scale": 2.5}],
        },
        {"id": "f1", "kind": "honest", "budget": 10.0, "activity": 0.8, "fixed_amount": 2.0, "projects": ["p3"]},
        {"id": "f2", "kind": "honest", "budget": 10.0, "activity": 0.8, "fixed_amount": 1.0, "projects": ["p3"]},
        {"id": "c1", "kind": "reciprocal_colluder", "budget": 8.0, "ring": "r1", "own_project": "p1"},
        {"id": "c2", "kind": "reciprocal_colluder", "budget": 8.0, "ring": "r1", "own_project": "p2"},
    ],
}


class TestSimulate:
    def test_end_to_end_outputs(self, tmp_path, capsys):
        config = tmp_path / "round.json"
        config.write_text(json.dumps(SIM_CONFIG), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 5
        for name in ("k_daily.csv", "panel.csv", "deficit_curve.csv", "allocation_report.json"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "allocation_report.json").read_text())
        pools = {block["category"]: block["pool"] for block in report["categories"]}
        assert pools["main"] == 150.0  # event applied
        loaded = load_contributions(out_dir / "panel.csv")
        assert not loaded.errors
        assert len(loaded.contributions) == summary["contributions"]

    def test_amount_below_the_smallest_normal_float(self, tmp_path, capsys):
        """A log valuation beside a subnormal amount: the best response is the corner 0."""
        round_file = {
            "seed": 1, "duration_days": 2,
            "categories": [{"name": "main", "pool": 10.0, "projects": ["p"]}],
            "agents": [
                {"id": "f", "kind": "honest", "budget": 1.0, "fixed_amount": 1e-320, "projects": ["p"]},
                {"id": "v", "kind": "honest", "budget": 1.0,
                 "valuations": [{"project": "p", "family": "log", "scale": 0.001}]},
            ],
        }
        config = write_round(tmp_path, json.dumps(round_file))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["contributions"] == 1

    def test_project_sum_past_the_largest_float_is_domain_error(self, tmp_path, capsys):
        round_file = {
            "seed": 1, "duration_days": 1,
            "categories": [{"name": "main", "pool": 10.0, "projects": ["p"]}],
            "agents": [
                {"id": f, "kind": "honest", "budget": 1e308, "fixed_amount": 1e308, "projects": ["p"]}
                for f in ("f1", "f2")
            ],
        }
        config = write_round(tmp_path, json.dumps(round_file))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: contributions to project 'p' sum past the largest float\n"

    @pytest.mark.parametrize("name", ["two_projects", "one_project_twice"])
    def test_budget_at_the_largest_float_is_enforced(self, tmp_path, capsys, name):
        """The agent's spend reaches inf, which its budget scaled by 1 + 1e-9 (also inf) does not exceed."""
        config = BUDGET / f"{name}.json"
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: agent 'f' would emit inf of budget 1.7976931348623157e+308\n"

    def test_seed_override_changes_run_deterministically(self, tmp_path, capsys):
        config = tmp_path / "round.json"
        config.write_text(json.dumps(SIM_CONFIG), encoding="utf-8")
        outputs = []
        for seed, directory in ((9, "a"), (9, "b"), (11, "c")):
            out_dir = tmp_path / directory
            assert (
                main(
                    [
                        "simulate",
                        "--config",
                        str(config),
                        "--out-dir",
                        str(out_dir),
                        "--seed",
                        str(seed),
                    ]
                )
                == 0
            )
            capsys.readouterr()
            outputs.append((out_dir / "panel.csv").read_text())
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]


class TestSampleRound:
    def test_shipped_config_shows_the_event_drop(self, tmp_path, capsys):
        config = SAMPLE_ROUND_PATH
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        with open(out_dir / "k_daily.csv", newline="") as handle:
            rows = [row for row in csv.DictReader(handle) if row["category"] == "apps"]
        series = {int(row["day"]): float(row["k"]) for row in rows if row["k"]}
        # monotone before the day-8 increase, exact 0.8 drop across it
        for day in range(1, 8):
            if day in series and day - 1 in series:
                assert series[day] >= series[day - 1] - 1e-12
        assert series[8] <= series[7] * 0.8 + 1e-9


class TestReciprocal:
    def test_forensics_outputs(self, tmp_path, capsys):
        contributions = tmp_path / "contributions.csv"
        contributions.write_text(
            "day,category,project_id,contributor_id,amount\n"
            "0,x,B,a1,2\n"
            "1,y,A,b1,1\n"
            "2,x,C,a1,1\n",
            encoding="utf-8",
        )
        teams = tmp_path / "teams.csv"
        teams.write_text("project_id,member_id\nA,a1\nB,b1\nC,c1\n", encoding="utf-8")
        out_dir = tmp_path / "forensics"
        assert (
            main(
                [
                    "reciprocal",
                    "--contributions",
                    str(contributions),
                    "--teams",
                    str(teams),
                    "--out-dir",
                    str(out_dir),
                ]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        with open(out_dir / "reciprocal_report.csv", newline="") as handle:
            rows = {row["project_id"]: row for row in csv.DictReader(handle)}
        assert rows["A"]["outdegree"] == "2"
        assert rows["A"]["reciprocal"] == "1"
        assert rows["B"]["reciprocal"] == "1"
        with open(out_dir / "cross_category.csv", newline="") as handle:
            cross = {row["category"]: row for row in csv.DictReader(handle)}
        assert set(cross) == {"x", "y"}
        assert summary["slope"] is not None


VALUATIONS = "contributor_id,project_id,family,scale\na,p1,sqrt,2.0\nb,p1,sqrt,2.0\n"


class TestSumsPastTheLargestFloat:
    """Each overflow input exits 1 with one error line and no warning."""

    PROJECT = "contributions to project 'p1' sum past the largest float"
    EDGE = "contributions from the team of project 'p4' to project 'p1' sum past the largest float"
    TEAM = "contributions from the team of project 'p4' sum past the largest float"
    K = "category 'main': k must be in [2**-52, inf) for lambda_p, got inf"

    @pytest.mark.parametrize("command", ["allocate", "diagnose", "reciprocal"])
    @pytest.mark.parametrize("name, message, weighted_message", [
        ("pair", PROJECT, EDGE),
        ("project", PROJECT, EDGE),
        ("requirement", K, TEAM),
    ], ids=["pair", "project", "requirement"])
    def test_one_error_line(self, tmp_path, capsys, command, name, message, weighted_message):
        argv = [command, "--contributions", str(OVERFLOW / f"{name}.csv")]
        if command == "reciprocal":
            argv += ["--teams", str(OVERFLOW / "teams.csv"), "--out-dir", str(tmp_path / "out"), "--weighted"]
            message = weighted_message
        else:
            argv += ["--pools", str(OVERFLOW / "pools.csv")]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestUnweightedReciprocalSumsNoEdge:
    """Without ``--weighted``, ``reciprocal`` reads no edge amount, so an edge
    whose records sum past the largest float is counted like any other."""

    @pytest.mark.parametrize("name", ["pair", "project"])
    def test_exits_0(self, tmp_path, capsys, name):
        out_dir = tmp_path / "out"
        argv = ["reciprocal", "--contributions", str(OVERFLOW / f"{name}.csv"),
                "--teams", str(OVERFLOW / "teams.csv"), "--out-dir", str(out_dir)]
        assert main(argv) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        assert json.loads(stdout) == {
            "weighted": False,
            "slope": None,
            "cross_slope_cross_denominator": None,
            "cross_slope_total_denominator": None,
            "self_support_projects": 0,
            "outputs": {"report": str(out_dir / "reciprocal_report.csv"),
                        "cross_category": str(out_dir / "cross_category.csv")},
        }
        assert (out_dir / "reciprocal_report.csv").read_bytes() == (
            b"project_id,category,outdegree,reciprocal,cross_outdegree,cross_reciprocal\r\n"
            b"p1,main,0,0,0,0\r\n"
            b"p4,,1,0,1,0\r\n"
        )
        assert (out_dir / "cross_category.csv").read_bytes() == (
            b"category,project_count,outside_project_share,cross_reciprocal_share,"
            b"reciprocal_endpoints,cross_endpoints\r\n"
            b",1,0.5,0.0,0,0\r\n"
            b"main,1,0.5,0.0,0,0\r\n"
        )


class TestMalformedRows:
    """Bad values and repeated keys in pools, budgets and valuations files
    are data errors: exit code 1 and a ``path:line: reason`` message."""

    @pytest.mark.parametrize(
        "text, line",
        [
            ("category,pool\nmain,abc\n", 2),
            ("category,pool\nmain,inf\n", 2),
            ("category,pool\nmain,1\nmain,2\n", 3),
            ("category,pool\nside,5\nmain,0\n", 3),
        ],
        ids=["non_numeric", "non_finite", "duplicate_category", "non_positive"],
    )
    def test_bad_pools(self, round_files, capsys, text, line):
        contributions, pools = round_files
        pools.write_text(text, encoding="utf-8")
        assert main(["allocate", "--contributions", str(contributions), "--pools", str(pools)]) == 1
        assert f"{pools}:{line}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("contributor_id,budget\na,x\n", 2),
            ("contributor_id,budget\na,nan\n", 2),
            ("contributor_id,budget\na,1\nb,-1\n", 3),
            ("contributor_id,budget\na,1\na,2\n", 3),
            ("contributor_id,budget\na,1\n ,5\n", 3),
        ],
        ids=["non_numeric", "non_finite", "non_positive", "duplicate_contributor", "missing_contributor"],
    )
    def test_bad_budgets(self, tmp_path, capsys, text, line):
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(VALUATIONS, encoding="utf-8")
        budgets = tmp_path / "budgets.csv"
        budgets.write_text(text, encoding="utf-8")
        argv = ["equilibrium", "--valuations", str(valuations), "--k", "1.0", "--budgets", str(budgets)]
        assert main(argv) == 1
        assert f"{budgets}:{line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("row", [",bob", "p1,", "p1", " , "], ids=["project", "member", "short", "both"])
    def test_team_row_without_an_id(self, round_files, tmp_path, capsys, row):
        contributions, _pools = round_files
        teams = tmp_path / "teams.csv"
        teams.write_text(TEAMS + row + "\n", encoding="utf-8")
        argv = ["reciprocal", "--contributions", str(contributions), "--teams", str(teams),
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {teams}:4: missing project or member id\n")

    @pytest.mark.parametrize(
        "row, line",
        [
            ("c,p1,sqrt,x\n", 4),
            ("c,p1,sqrt,inf\n", 4),
            ("c,p1,sqrt,-2\n", 4),
            ("a,p1,log,1.0\n", 4),
        ],
        ids=["non_numeric", "non_finite", "non_positive", "duplicate_pair"],
    )
    def test_bad_valuations(self, tmp_path, capsys, row, line):
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(VALUATIONS + row, encoding="utf-8")
        assert main(["equilibrium", "--valuations", str(valuations), "--k", "1.0"]) == 1
        assert f"{valuations}:{line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("row", [",p2,sqrt,1.0\n", "c,,log,1.0\n", " , ,sqrt,1.0\n"],
                             ids=["contributor", "project", "both"])
    def test_valuation_without_an_id(self, tmp_path, capsys, row):
        """As in contributions.csv, a row needs both ids; here it stops the command."""
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(VALUATIONS + row, encoding="utf-8")
        assert main(["equilibrium", "--valuations", str(valuations), "--k", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {valuations}:4: missing contributor or project id\n"
        assert captured.out == ""


class TestLoaderReasons:
    """Bad contribution rows are reported one per line and skipped."""

    BAD_ROWS = (
        "2,main,p1,dave,nan\n"
        "2,main,p1,erin,1e400\n"
        "2,main,p1,frank,-2\n"
        "2,main,p1,gina,abc\n"
        "-1,main,p1,hank,1\n"
        "3,main,,ivan,1\n"
    )

    def test_each_bad_row_has_a_reason(self, round_files, tmp_path, capsys):
        contributions, pools = round_files
        assert main(["allocate", "--contributions", str(contributions), "--pools", str(pools)]) == 0
        clean = capsys.readouterr().out
        dirty = tmp_path / "dirty.csv"
        dirty.write_text(CONTRIBUTIONS + self.BAD_ROWS, encoding="utf-8")
        assert main(["allocate", "--contributions", str(dirty), "--pools", str(pools)]) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert [line.split(": ", 1)[0] for line in lines] == [f"{dirty}:{n}" for n in range(5, 11)]
        assert "finite" in lines[0] and "finite" in lines[1]
        assert captured.out == clean

    def test_line_numbers_count_blank_lines_and_quoted_newlines(self, round_files, capsys):
        contributions, pools = round_files
        contributions.write_text(
            CONTRIBUTIONS + "\n1,main,p1,erin,zz\n2,main,p2,\"carol\nsmith\",2.5\n3,main,p2,dave,nan\n",
            encoding="utf-8",
        )
        assert main(["allocate", "--contributions", str(contributions), "--pools", str(pools)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ", 1)[0] for line in lines] == [f"{contributions}:{n}" for n in (6, 9)]
        assert "'zz'" in lines[0] and "nan" in lines[1]
        assert [r.contributor_id for r in records_of(load_contributions(contributions).contributions)][-1] == "carol\nsmith"


def write_round(tmp_path, text: str):
    config = tmp_path / "round.json"
    config.write_text(text, encoding="utf-8")
    return config


class TestMalformedRoundFile:
    """A round file that cannot be read as a round is a data error: exit
    code 1, a ``path: reason`` message and no traceback."""

    def test_category_without_projects(self, tmp_path, capsys):
        broken = json.loads(json.dumps(SIM_CONFIG))
        del broken["categories"][1]["projects"]
        config = write_round(tmp_path, json.dumps(broken))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{config}: " in err and "projects" in err

    def test_truncated_file(self, tmp_path, capsys):
        truncated = json.dumps(SIM_CONFIG, indent=2)[:500]
        config = write_round(tmp_path, truncated)
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        last_line = truncated.count("\n") + 1  # the parser gives up at the end of the file
        assert f"{config}:{last_line}: " in capsys.readouterr().err

    def test_infinite_pool(self, tmp_path, capsys):
        text = json.dumps(SIM_CONFIG).replace('"pool": 50.0', '"pool": Infinity')
        config = write_round(tmp_path, text)
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{config}: " in err and "positive and finite" in err

    @pytest.mark.parametrize(
        "where, value",
        [
            (("categories", 1, "name"), 1),
            (("agents", 4, "own_project"), ["x"]),
            (("agents", 4, "ring"), [1]),
            (("agents", 0, "valuations", 0, "project"), ["p"]),
            (("agents", 0, "id"), 7),
            (("agents", 0, "kind"), 1),
            (("agents", 0, "valuations", 0, "family"), 1),
        ],
        ids=["category_name", "own_project", "ring", "valuation_project", "agent_id", "kind", "family"],
    )
    def test_non_string_id(self, tmp_path, capsys, where, value):
        broken = json.loads(json.dumps(SIM_CONFIG))
        target = broken
        for step in where[:-1]:
            target = target[step]
        target[where[-1]] = value
        config = write_round(tmp_path, json.dumps(broken))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{config}: {where[-1]} must be a string, got " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["soon", True, -1, 1.5])
    def test_bad_defects_from_round(self, tmp_path, capsys, value):
        broken = json.loads(json.dumps(SIM_CONFIG))
        broken["agents"][4]["defects_from_round"] = value
        config = write_round(tmp_path, json.dumps(broken))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        expected = f"{config}: defects_from_round must be a nonnegative integer, got {value!r}"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, value",
        [
            (("duration_days",), 12.9),
            (("duration_days",), "6"),
            (("seed",), True),
            (("pool_events", 0, "day"), 2.5),
        ],
        ids=["fractional_duration", "string_duration", "boolean_seed", "fractional_event_day"],
    )
    def test_non_integer(self, tmp_path, capsys, where, value):
        # int() would run 12.9 as 12 days and True as seed 1
        broken = json.loads(json.dumps(SIM_CONFIG))
        target = broken
        for step in where[:-1]:
            target = target[step]
        target[where[-1]] = value
        config = write_round(tmp_path, json.dumps(broken))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{config}: {where[-1]} must be an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, value",
        [
            (("categories", 0, "pool"), True),
            (("categories", 0, "pool"), "120000"),
            (("agents", 0, "budget"), "50"),
            (("pool_events", 0, "new_pool"), "150"),
            (("agents", 0, "activity"), "0.9"),
            (("agents", 0, "valuations", 0, "scale"), False),
            (("agents", 2, "fixed_amount"), "2"),
        ],
        ids=["boolean_pool", "string_pool", "string_budget", "string_new_pool",
             "string_activity", "boolean_scale", "string_fixed_amount"],
    )
    def test_non_number(self, tmp_path, capsys, where, value):
        # float() would run True as a pool of 1.0 and "50" as a budget of 50
        broken = json.loads(json.dumps(SIM_CONFIG))
        target = broken
        for step in where[:-1]:
            target = target[step]
        target[where[-1]] = value
        config = write_round(tmp_path, json.dumps(broken))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{config}: {where[-1]} must be a number, got {value!r}" in capsys.readouterr().err

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        text = json.dumps(SIM_CONFIG).replace('"budget": 8.0', '"budget": 1' + "0" * 400, 1)
        config = write_round(tmp_path, text)
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{config}: int too large to convert to float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where",
        [("categories", 1, "projects"), ("agents", 2, "projects")],
        ids=["category_projects", "agent_projects"],
    )
    def test_string_for_project_list(self, tmp_path, capsys, where):
        # Split into characters, "ab" would name the real projects a and b.
        broken = json.loads(json.dumps(SIM_CONFIG))
        broken["categories"][1]["projects"] = ["a", "b"]
        broken["agents"][2]["projects"] = broken["agents"][3]["projects"] = ["a"]
        target = broken
        for step in where[:-1]:
            target = target[step]
        target[where[-1]] = "ab"
        config = write_round(tmp_path, json.dumps(broken))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{config}: projects must be a list, got 'ab'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, message",
        [
            (("agents", 0, "activty"), "unknown key 'activty' in agents"),
            (("pool_event",), "unknown key 'pool_event' in the round file"),
            (("categories", 0, "pools"), "unknown key 'pools' in categories"),
            (("agents", 0, "valuations", 0, "sclae"), "unknown key 'sclae' in valuations"),
        ],
        ids=["agent", "round", "category", "valuation"],
    )
    def test_unknown_key(self, tmp_path, capsys, where, message):
        # ignored, a misspelled "activty" would run the agent at activity 1.0
        # and "pool_event" the round with no pool increase
        broken = json.loads(json.dumps(SIM_CONFIG))
        target = broken
        for step in where[:-1]:
            target = target[step]
        target[where[-1]] = 0.5
        config = write_round(tmp_path, json.dumps(broken))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{config}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, value",
        [
            (("agents",), {}),
            (("pool_events",), {}),
            (("agents",), ""),
            (("categories",), {"apps": 1}),
            (("agents", 0, "valuations"), "ab"),
        ],
        ids=["agents_object", "pool_events_object", "agents_string", "categories_object", "valuations_string"],
    )
    def test_container_not_a_list(self, tmp_path, capsys, where, value):
        broken = json.loads(json.dumps(SIM_CONFIG))
        target = broken
        for step in where[:-1]:
            target = target[step]
        target[where[-1]] = value
        config = write_round(tmp_path, json.dumps(broken))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{config}: {where[-1]} must be a list, got {value!r}" in capsys.readouterr().err

    def test_long_value_is_cut(self, tmp_path, capsys):
        agents = {agent["id"]: agent for agent in SIM_CONFIG["agents"]}
        config = write_round(tmp_path, json.dumps({**SIM_CONFIG, "agents": agents}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{config}: agents must be a list, got {repr(agents)[:80]}\n" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "a round file must be a JSON object, got [1, 2]"),
            (json.dumps({**SIM_CONFIG, "agents": [1]}), "agents must hold objects, got 1"),
            (json.dumps({**SIM_CONFIG, "pool_events": ["day 3"]}), "pool_events must hold objects, got 'day 3'"),
        ],
        ids=["round", "agent", "pool_event"],
    )
    def test_not_an_object(self, tmp_path, capsys, text, message):
        config = write_round(tmp_path, text)
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{config}: {message}" in capsys.readouterr().err

    def test_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "round.json"
        config.write_bytes(b"\xff\xfe{}")
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {config}: not UTF-8 text (invalid start byte)\n"


class TestUnreadableInputs:
    """A file that cannot be opened is a usage error (exit code 2); a CSV
    file that is not UTF-8 text or not parsable as CSV is a data error
    (exit code 1, ``path: reason``)."""

    def test_contributions_directory(self, round_files, tmp_path, capsys):
        _contributions, pools = round_files
        assert main(["allocate", "--contributions", str(tmp_path), "--pools", str(pools)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_round_file_directory(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_contributions_not_utf8(self, round_files, capsys):
        contributions, pools = round_files
        contributions.write_bytes(CONTRIBUTIONS.encode() + b"2,main,p1,\xffdave,1\n")
        assert main(["allocate", "--contributions", str(contributions), "--pools", str(pools)]) == 1
        assert f"error: {contributions}: not UTF-8 text" in capsys.readouterr().err

    def test_contributions_field_over_csv_limit(self, round_files, capsys):
        contributions, pools = round_files
        contributions.write_text(CONTRIBUTIONS + '2,main,p1,"' + "x" * 200_000, encoding="utf-8")
        assert main(["allocate", "--contributions", str(contributions), "--pools", str(pools)]) == 1
        assert f"error: {contributions}:5: field larger than field limit" in capsys.readouterr().err


def value_paths(node, prefix=()):
    """The path to every value nested in a JSON document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from value_paths(child, prefix + (key,))


class TestFuzz:
    """Seeded mutations of valid inputs: the command exits 0, 1 or 2, never
    raises, and explains a nonzero exit on stderr."""

    REPLACEMENTS = (None, "", "x", "50", [], {}, ["x"], True, -1, 0, 1.5, math.nan)
    GARBLE = ("", "x", "-1", "nan", "1e400", "1.5", '"', "\x00", " ", ",")
    #: Finite numbers that parse but overflow or underflow the arithmetic.
    EXTREME = ("1e308", "1e300", "1e-300", "5e-324")

    @staticmethod
    def run(capsys, argv, text):
        try:
            code = main(argv)
        except Exception as exc:  # report the input that broke the command
            pytest.fail(f"{argv[0]} raised {exc!r} on input:\n{text!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), text
        if code:
            assert "error:" in err, text

    def test_round_file_mutations(self, tmp_path, capsys):
        rng = random.Random(2020)
        base = json.dumps(SIM_CONFIG, indent=1)
        paths = list(value_paths(SIM_CONFIG))
        config = tmp_path / "round.json"
        argv = ["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        for _ in range(600):
            if rng.random() < 0.1:
                text = base[: rng.randrange(len(base))]
            else:
                data = json.loads(base)
                path = rng.choice(paths)
                target = data
                for step in path[:-1]:
                    target = target[step]
                target[path[-1]] = rng.choice(self.REPLACEMENTS)
                text = json.dumps(data)
            config.write_text(text, encoding="utf-8")
            self.run(capsys, argv, text)

    @pytest.mark.parametrize("config", [SIM_CONFIG, SAMPLE_ROUND], ids=["sim_config", "sample_round"])
    def test_round_file_extreme_values(self, tmp_path, capsys, config):
        """Each extreme finite number in turn at every numeric key."""
        base = json.dumps(config)
        path = tmp_path / "round.json"
        argv = ["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]
        for *parents, key in value_paths(config):
            number = reduce(getitem, parents, config)[key]
            if isinstance(number, bool) or not isinstance(number, (int, float)):
                continue
            for value in self.EXTREME:
                data = json.loads(base)
                reduce(getitem, parents, data)[key] = float(value)
                text = json.dumps(data)
                path.write_text(text, encoding="utf-8")
                self.run(capsys, argv, text)

    @staticmethod
    def garble(rng, text, values) -> bytes:
        """CSV ``text`` with a column dropped, one field replaced by one of
        ``values``, or a byte that is not UTF-8 inserted."""
        lines = [line.split(",") for line in text.splitlines()]
        kind = rng.randrange(3)
        if kind == 0:  # drop a column from the header, one row or every line
            column = rng.randrange(len(lines[0]))
            for fields in rng.choice(([lines[0]], [rng.choice(lines[1:])], lines)):
                del fields[column]
        elif kind == 1:  # garble one field
            fields = rng.choice(lines)
            fields[rng.randrange(len(fields))] = rng.choice(values)
        data = "\n".join(",".join(fields) for fields in lines).encode() + b"\n"
        if kind == 2:  # insert a byte that is not UTF-8
            at = rng.randrange(len(data) + 1)
            data = data[:at] + bytes([rng.choice((0x80, 0xC3, 0xFF))]) + data[at:]
        return data

    def test_contributions_mutations(self, round_files, tmp_path, capsys):
        rng = random.Random(2020)
        _contributions, pools = round_files
        teams = tmp_path / "teams.csv"
        teams.write_text(TEAMS, encoding="utf-8")
        path = tmp_path / "fuzzed.csv"
        commands = (
            ["allocate", "--contributions", str(path), "--pools", str(pools)],
            ["diagnose", "--contributions", str(path), "--pools", str(pools)],
            ["reciprocal", "--contributions", str(path), "--teams", str(teams),
             "--out-dir", str(tmp_path / "out")],
        )
        for _ in range(200):
            data = self.garble(rng, CONTRIBUTIONS, self.GARBLE)
            path.write_bytes(data)
            self.run(capsys, rng.choice(commands), data)

    @pytest.mark.parametrize("name", ["pools", "teams", "valuations", "budgets"])
    def test_input_file_mutations(self, round_files, tmp_path, capsys, name):
        """Each other input file, garbled the same way, with extreme numbers too."""
        rng = random.Random(2020)
        contributions, _pools = round_files
        path = tmp_path / "fuzzed.csv"
        valuations = EQUILIBRIUM / "valuations.csv"
        base, commands = {
            "pools": (POOLS, [
                ["allocate", "--contributions", str(contributions), "--pools", str(path)],
                ["diagnose", "--contributions", str(contributions), "--pools", str(path)],
            ]),
            "teams": (TEAMS, [
                ["reciprocal", "--contributions", str(contributions), "--teams", str(path),
                 "--out-dir", str(tmp_path / "out")],
            ]),
            "valuations": (valuations.read_text(encoding="utf-8"), [
                ["equilibrium", "--valuations", str(path), "--k", "2.5"],
                ["equilibrium", "--valuations", str(path), "--k", "2.5", "--planner-pool", "12"],
            ]),
            "budgets": ((EQUILIBRIUM / "budgets.csv").read_text(encoding="utf-8"), [
                ["equilibrium", "--valuations", str(valuations), "--k", "2.5", "--budgets", str(path)],
            ]),
        }[name]
        for _ in range(200):
            data = self.garble(rng, base, self.GARBLE + self.EXTREME)
            path.write_bytes(data)
            self.run(capsys, rng.choice(commands), data)

    def test_equilibrium_extreme_scales(self, tmp_path, capsys):
        """Two to four contributors value one project through sqrt at scales
        from 1e150 to 1e300, over k from 0.5 to 1e10.  At 1e154 each value is
        finite but their sum can pass the largest float."""
        path = tmp_path / "valuations.csv"
        for n in range(2, 5):
            for scale in ("1e150", "1e154", "1e200", "1e300"):
                rows = "".join(f"c{i},p,sqrt,{scale}\n" for i in range(n))
                path.write_text("contributor_id,project_id,family,scale\n" + rows, encoding="utf-8")
                for k in ("0.5", "1", "2.5", "1e5", "1e10"):
                    argv = ["equilibrium", "--valuations", str(path), "--k", k, "--max-iter", "200"]
                    self.run(capsys, argv, f"{n} contributors at scale {scale}, k {k}")

    def test_equilibrium_flag_values(self, tmp_path, capsys):
        """Every pairing of extreme and ordinary ``--k`` and ``--planner-pool``
        values, over the golden valuations and over one sqrt and one log
        project; 200 sweeps bound a run that does not converge."""
        split = tmp_path / "split.csv"
        split.write_text(SPLIT_VALUATIONS, encoding="utf-8")
        values = self.EXTREME + ("2.5", "1", "0.5")
        for valuations in (EQUILIBRIUM / "valuations.csv", split):
            for k in values:
                for pool in (None,) + values:
                    argv = ["equilibrium", "--valuations", str(valuations), "--k", k, "--max-iter", "200"]
                    argv += [] if pool is None else ["--planner-pool", pool]
                    self.run(capsys, argv, " ".join(argv))
