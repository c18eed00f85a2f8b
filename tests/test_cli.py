"""End-to-end tests of the command-line surface."""

import csv
import json

import pytest

from qfround.cli import main
from qfround.ledger import load_contributions

CONTRIBUTIONS = """day,category,project_id,contributor_id,amount
0,main,p1,alice,1
0,main,p1,bob,1
1,main,p2,carol,4
"""

POOLS = "category,pool\nmain,1\n"


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
        from pathlib import Path

        config = Path(__file__).resolve().parent.parent / "sample_rounds" / "pool_increase_round.json"
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
        ],
        ids=["non_numeric", "non_finite", "non_positive", "duplicate_contributor"],
    )
    def test_bad_budgets(self, tmp_path, capsys, text, line):
        valuations = tmp_path / "valuations.csv"
        valuations.write_text(VALUATIONS, encoding="utf-8")
        budgets = tmp_path / "budgets.csv"
        budgets.write_text(text, encoding="utf-8")
        argv = ["equilibrium", "--valuations", str(valuations), "--k", "1.0", "--budgets", str(budgets)]
        assert main(argv) == 1
        assert f"{budgets}:{line}: " in capsys.readouterr().err

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
