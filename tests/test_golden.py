"""Byte-for-byte regression tests of the command-line and writer outputs.

Each expected file under ``tests/golden/`` is the exact output (a file or
stdout) of one command or writer function on a small fixed input, so any
change to a formula, a summation order or a writer's formatting shows up
as a failing comparison.
"""

import codecs
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from synthgraph import Record
from test_ledger import write_contributions
from test_roundsim import SHADOW_CALLS, checked_nothing_to_add

from qfround.cli import main
from qfround.roundsim import _RoundState

GOLDEN = Path(__file__).resolve().parent / "golden"
ALLOCATE = GOLDEN / "allocate"
ROOT = Path(__file__).resolve().parent.parent
SAMPLE_ROUND = ROOT / "sample_rounds" / "pool_increase_round.json"
SIMULATE_OUTPUTS = ("k_daily.csv", "panel.csv", "deficit_curve.csv", "allocation_report.json")


def assert_golden(path: Path, name: str) -> None:
    assert path.read_bytes() == (GOLDEN / name).read_bytes(), f"{path.name} differs from golden/{name}"


@pytest.fixture
def fixture_round():
    """The allocate and diagnose inputs, which CI's installed-script job reads too."""
    return ALLOCATE / "contributions.csv", ALLOCATE / "pools.csv"


@pytest.mark.parametrize("cap", [False, True])
def test_allocate_bytes(fixture_round, tmp_path, capsys, cap):
    contributions, pools = fixture_round
    suffix = "_cap" if cap else ""
    argv = ["allocate", "--contributions", str(contributions), "--pools", str(pools),
            "--json", str(tmp_path / "out.json"), "--csv", str(tmp_path / "out.csv")]
    assert main(argv + (["--cap-at-target"] if cap else [])) == 0
    assert capsys.readouterr().out == ""
    assert_golden(tmp_path / "out.json", f"allocate{suffix}.json")
    assert_golden(tmp_path / "out.csv", f"allocate{suffix}.csv")


def test_allocate_generous_pool_bytes(fixture_round, tmp_path, capsys):
    contributions, _ = fixture_round
    pools = ALLOCATE / "pools_generous.csv"
    for cap in (False, True):
        suffix = "_cap" if cap else ""
        argv = ["allocate", "--contributions", str(contributions), "--pools", str(pools),
                "--json", str(tmp_path / "out.json"), "--csv", str(tmp_path / "out.csv")]
        assert main(argv + (["--cap-at-target"] if cap else [])) == 0
        assert_golden(tmp_path / "out.json", f"allocate_generous{suffix}.json")
        assert_golden(tmp_path / "out.csv", f"allocate_generous{suffix}.csv")


def test_diagnose_bytes(fixture_round, tmp_path, capsys):
    contributions, pools = fixture_round
    out = tmp_path / "diagnose.json"
    assert main(["diagnose", "--contributions", str(contributions), "--pools", str(pools),
                 "--json", str(out)]) == 0
    assert_golden(out, "diagnose.json")


def assert_stdout_golden(capsys, name: str) -> None:
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes(), f"stdout differs from golden/{name}"


@pytest.mark.parametrize("weighted", [False, True])
def test_reciprocal_bytes(tmp_path, capsys, monkeypatch, weighted):
    """The stdout summary names the outputs by the relative --out-dir."""
    monkeypatch.chdir(tmp_path)
    inputs = GOLDEN / "reciprocal"
    argv = ["reciprocal", "--contributions", str(inputs / "contributions.csv"),
            "--teams", str(inputs / "teams.csv"), "--out-dir", "forensics"]
    assert main(argv + (["--weighted"] if weighted else [])) == 0
    suffix = "_weighted" if weighted else ""
    assert_stdout_golden(capsys, f"reciprocal{suffix}_stdout.json")
    out_dir = tmp_path / "forensics"
    assert_golden(out_dir / "reciprocal_report.csv", f"reciprocal_report{suffix}.csv")
    assert_golden(out_dir / "cross_category.csv", f"cross_category{suffix}.csv")


@pytest.fixture
def checked_top_ups(monkeypatch):
    """Every top-up test the shadow sums settle is checked against the exact
    test, and at least one is settled."""
    monkeypatch.setattr(_RoundState, "nothing_to_add", checked_nothing_to_add)
    settled = SHADOW_CALLS[True]
    yield
    assert SHADOW_CALLS[True] > settled


def test_simulate_sample_round_bytes(tmp_path, capsys, monkeypatch, checked_top_ups):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(SAMPLE_ROUND), "--out-dir", "round"]) == 0
    assert_stdout_golden(capsys, "sample_round/stdout.json")
    out_dir = tmp_path / "round"
    for name in SIMULATE_OUTPUTS:
        assert_golden(out_dir / name, f"sample_round/{name}")


def test_simulate_sample_round_with_a_byte_order_mark(tmp_path, capsys, monkeypatch):
    """A round file saved with a UTF-8 byte-order mark reads as the same round."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "round.json"
    config.write_bytes(codecs.BOM_UTF8 + SAMPLE_ROUND.read_bytes())
    assert main(["simulate", "--config", str(config), "--out-dir", "round"]) == 0
    assert_stdout_golden(capsys, "sample_round/stdout.json")
    for name in SIMULATE_OUTPUTS:
        assert_golden(tmp_path / "round" / name, f"sample_round/{name}")


def test_simulate_topup_round_bytes(tmp_path, capsys, monkeypatch, checked_top_ups):
    """80 agents over 12 days at activity about 0.5: sqrt and log valuations,
    repeated top-ups of one (agent, project) pair, binding budgets, a pool
    event, a category whose pool exceeds its requirements (k < 1), fixed
    agents and a four-member colluder ring."""
    monkeypatch.chdir(tmp_path)
    config = GOLDEN / "topup_round" / "round.json"
    assert main(["simulate", "--config", str(config), "--out-dir", "round"]) == 0
    assert_stdout_golden(capsys, "topup_round/stdout.json")
    out_dir = tmp_path / "round"
    panel = (out_dir / "panel.csv").read_text(encoding="utf-8").splitlines()[1:]
    pairs = Counter(tuple(row.split(",")[2:4]) for row in panel)
    assert sum(1 for count in pairs.values() if count > 1) >= 10
    for name in SIMULATE_OUTPUTS:
        assert_golden(out_dir / name, f"topup_round/{name}")


def test_write_contributions_bytes(tmp_path):
    records = (
        Record("alice", "p1", 4.0, 0),
        Record("bob", "p1", 0.1, 3),
        Record("carol, jr.", "p2", 1.0 / 3.0, 7),
        Record('dave "d"', "p3", 1e-3, 2),
        Record("erin", "p2", 2.5e17, 11),
        Record("frank", "p2", 3, 1),
    )
    path = tmp_path / "contributions.csv"
    write_contributions(path, records, {"p1": "infra", "p2": "apps"})
    assert_golden(path, "contributions.csv")


def test_sweep_k_default_stdout_bytes(capsys):
    assert main(["sweep-k"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "sweep_k.txt").read_bytes()


def test_sweep_k_profiles_stdout_bytes(capsys):
    """Three, two and unequal-share profiles over k from 0.5 (a generous pool) to 12."""
    argv = ["sweep-k", "--profiles", "1:2,1:1:3,0.5:7", "--k-min", "0.5", "--k-max", "12",
            "--steps", "24"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "sweep_k_profiles.txt").read_bytes()


def test_collusion_sweep_stdout_bytes(capsys):
    assert main(["collusion", "--sweep"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "collusion_sweep.txt").read_bytes()


def test_collusion_one_row_stdout_bytes(capsys):
    assert main(["collusion", "--n", "10", "--k", "2.5"]) == 0
    assert_stdout_golden(capsys, "collusion_n10_k2.5.txt")


EQUILIBRIUM_CASES = [
    ("equilibrium.json", ["--k", "2.5"]),
    ("equilibrium_budgets_planner.json",
     ["--k", "2.5", "--budgets", str(GOLDEN / "equilibrium" / "budgets.csv"), "--planner-pool", "12"]),
    ("equilibrium_k0.5.json", ["--k", "0.5"]),
    ("equilibrium_k1e-3.json", ["--k", "1e-3"]),
    ("equilibrium_k1e300.json", ["--k", "1e300"]),
]


@pytest.mark.parametrize("name, extra", EQUILIBRIUM_CASES)
def test_equilibrium_bytes(tmp_path, capsys, name, extra):
    """The valuations list projects and contributors out of sorted order; with
    the budgets, carol's binds and alice's does not.  k = 0.5 and 1e-3 make
    1 - 1/k negative; at k = 1e300 every bracket rounds to 1."""
    out = tmp_path / "equilibrium.json"
    argv = ["equilibrium", "--valuations", str(GOLDEN / "equilibrium" / "valuations.csv"),
            "--json", str(out)]
    assert main(argv + extra) == 0
    assert capsys.readouterr().err == ""
    assert_golden(out, f"equilibrium/{name}")


def assert_same_fixed_point(got, expected, path="") -> None:
    """Same keys in the same order, equal strings and booleans, numbers within 1e-9 relative."""
    if isinstance(expected, dict):
        assert list(got) == list(expected), path
        for key, value in expected.items():
            assert_same_fixed_point(got[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), path
        for index, (item, value) in enumerate(zip(got, expected)):
            assert_same_fixed_point(item, value, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert got == pytest.approx(expected, rel=1e-9, abs=0), path
    else:
        assert type(got) is type(expected) and got == expected, path


@pytest.mark.parametrize("name, extra", EQUILIBRIUM_CASES)
def test_equilibrium_fixed_points(tmp_path, name, extra):
    """A change to how best response iterates keeps each golden's fixed point:
    every key, the clamped entries and the planner block exactly, and every
    other number to 1e-9 relative.  ``iterations`` counts the sweeps taken
    to get there, so it alone may move."""
    out = tmp_path / "equilibrium.json"
    argv = ["equilibrium", "--valuations", str(GOLDEN / "equilibrium" / "valuations.csv"),
            "--json", str(out)]
    assert main(argv + extra) == 0
    got = json.loads(out.read_text())
    expected = json.loads((GOLDEN / "equilibrium" / name).read_text())
    assert got["clamped"] == expected["clamped"]
    assert got.get("planner") == expected.get("planner")
    assert isinstance(got["iterations"], int)
    got["iterations"] = expected["iterations"]
    assert_same_fixed_point(got, expected)


#: Reports which of numpy and statistics are loaded after ``import
#: qfround.cli``, after the commands that need neither, and after ``allocate``.
LAZY_IMPORTS = """
import contextlib, io, json, sys
loaded = lambda: sorted({"numpy", "statistics"} & set(sys.modules))
stages = {}
import qfround.cli
stages["import"] = loaded()
valuations, contributions, pools, sample_round, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["equilibrium", "--valuations", valuations, "--k", "2.5"], ["sweep-k"],
                 ["collusion", "--sweep"]):
        assert qfround.cli.main(argv) == 0, argv
stages["equilibrium, sweep-k, collusion"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert qfround.cli.main(["simulate", "--config", sample_round, "--out-dir", out + "_round"]) == 0
stages["simulate"] = loaded()
from qfround.roundsim import AgentSpec, CategorySpec, RoundConfig, deficit_curve, run_round
projects = ("q1", "q2", "q3")
agents = [AgentSpec(f"{p}-{i}", "honest", 1.0, fixed_amount=1.0, projects=(p,))
          for n, p in enumerate(projects, 1) for i in range(n)]
curve = deficit_curve(run_round(RoundConfig((CategorySpec("c", 10.0, projects),), 1), agents))
stages["deficit_curve"] = loaded()
stages["fit is None"] = curve.fit is None
stages["fit read"] = loaded()
assert qfround.cli.main(["allocate", "--contributions", contributions, "--pools", pools,
                         "--json", out + ".json", "--csv", out + ".csv"]) == 0
stages["allocate"] = loaded()
print(json.dumps(stages))
"""


def test_numpy_and_statistics_load_only_where_their_kernels_run(fixture_round, tmp_path):
    """A fresh interpreter: importing the CLI loads neither numpy nor
    statistics, the commands that never reach a numpy kernel leave it
    unloaded, ``simulate`` among them with its golden bytes, reading a
    deficit curve's fit loads numpy, and ``allocate``, which loads it,
    still writes its golden bytes."""
    contributions, pools = fixture_round
    out = tmp_path / "allocate"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-c", LAZY_IMPORTS, str(GOLDEN / "equilibrium" / "valuations.csv"),
            str(contributions), str(pools), str(SAMPLE_ROUND), str(out)]
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout)
    assert stages["import"] == []
    assert "numpy" not in stages["equilibrium, sweep-k, collusion"]
    assert stages["simulate"] == stages["deficit_curve"] == []
    for name in SIMULATE_OUTPUTS:
        assert_golden(tmp_path / "allocate_round" / name, f"sample_round/{name}")
    assert stages["fit is None"] is False
    assert stages["fit read"] == ["numpy"]
    assert "numpy" in stages["allocate"]
    assert_golden(tmp_path / "allocate.json", "allocate.json")
    assert_golden(tmp_path / "allocate.csv", "allocate.csv")
