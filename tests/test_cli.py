"""End-to-end tests of the command-line surface."""

import csv
import json
import math
import random

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

    @pytest.mark.parametrize(
        "where, value",
        [
            (("categories", 1, "name"), 1),
            (("agents", 4, "own_project"), ["x"]),
            (("agents", 4, "ring"), [1]),
            (("agents", 0, "valuations", 0, "project"), ["p"]),
            (("agents", 0, "id"), 7),
        ],
        ids=["category_name", "own_project", "ring", "valuation_project", "agent_id"],
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

    REPLACEMENTS = (None, "", "x", [], {}, ["x"], True, -1, 0, 1.5, math.nan)
    GARBLE = ("", "x", "-1", "nan", "1e400", "1.5", '"', "\x00", " ", ",")

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

    def test_contributions_mutations(self, round_files, tmp_path, capsys):
        rng = random.Random(2020)
        _contributions, pools = round_files
        teams = tmp_path / "teams.csv"
        teams.write_text("project_id,member_id\np1,bob\np2,alice\n", encoding="utf-8")
        path = tmp_path / "fuzzed.csv"
        commands = (
            ["allocate", "--contributions", str(path), "--pools", str(pools)],
            ["diagnose", "--contributions", str(path), "--pools", str(pools)],
            ["reciprocal", "--contributions", str(path), "--teams", str(teams),
             "--out-dir", str(tmp_path / "out")],
        )
        for _ in range(200):
            lines = [line.split(",") for line in CONTRIBUTIONS.splitlines()]
            kind = rng.randrange(3)
            if kind == 0:  # drop a column from the header, one row or every line
                column = rng.randrange(len(lines[0]))
                for fields in rng.choice(([lines[0]], [rng.choice(lines[1:])], lines)):
                    del fields[column]
            elif kind == 1:  # garble one field
                fields = rng.choice(lines)
                fields[rng.randrange(len(fields))] = rng.choice(self.GARBLE)
            data = "\n".join(",".join(fields) for fields in lines).encode() + b"\n"
            if kind == 2:  # insert a byte that is not UTF-8
                at = rng.randrange(len(data) + 1)
                data = data[:at] + bytes([rng.choice((0x80, 0xC3, 0xFF))]) + data[at:]
            path.write_bytes(data)
            self.run(capsys, rng.choice(commands), data)
