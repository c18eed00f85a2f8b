"""Byte-for-byte regression tests of the command-line and writer outputs.

Each expected file under ``tests/golden/`` is the exact output (a file or
stdout) of one command or writer function on a small fixed input, so any
change to a formula, a summation order or a writer's formatting shows up
as a failing comparison.
"""

from collections import Counter
from pathlib import Path

import pytest
from test_cli import CONTRIBUTIONS, POOLS
from test_ledger import write_contributions
from test_roundsim import SHADOW_CALLS, checked_nothing_to_add

from qfround.cli import main
from qfround.funding import Contribution
from qfround.roundsim import _RoundState

GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLE_ROUND = Path(__file__).resolve().parent.parent / "sample_rounds" / "pool_increase_round.json"
SIMULATE_OUTPUTS = ("k_daily.csv", "panel.csv", "deficit_curve.csv", "allocation_report.json")


def assert_golden(path: Path, name: str) -> None:
    assert path.read_bytes() == (GOLDEN / name).read_bytes(), f"{path.name} differs from golden/{name}"


@pytest.fixture
def no_records(monkeypatch):
    """Commands hold records as columns: building a ``Contribution`` fails the test."""

    def refuse(record):
        raise AssertionError(f"a command built {record!r}")

    monkeypatch.setattr(Contribution, "__post_init__", refuse)


@pytest.fixture
def fixture_round(tmp_path):
    contributions = tmp_path / "contributions.csv"
    contributions.write_text(CONTRIBUTIONS, encoding="utf-8")
    pools = tmp_path / "pools.csv"
    pools.write_text(POOLS, encoding="utf-8")
    return contributions, pools


@pytest.mark.usefixtures("no_records")
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


@pytest.mark.usefixtures("no_records")
def test_allocate_generous_pool_bytes(fixture_round, tmp_path, capsys):
    contributions, _ = fixture_round
    pools = tmp_path / "generous.csv"
    pools.write_text("category,pool\nmain,8\n", encoding="utf-8")
    for cap in (False, True):
        suffix = "_cap" if cap else ""
        argv = ["allocate", "--contributions", str(contributions), "--pools", str(pools),
                "--json", str(tmp_path / "out.json"), "--csv", str(tmp_path / "out.csv")]
        assert main(argv + (["--cap-at-target"] if cap else [])) == 0
        assert_golden(tmp_path / "out.json", f"allocate_generous{suffix}.json")
        assert_golden(tmp_path / "out.csv", f"allocate_generous{suffix}.csv")


@pytest.mark.usefixtures("no_records")
def test_diagnose_bytes(fixture_round, tmp_path, capsys):
    contributions, pools = fixture_round
    out = tmp_path / "diagnose.json"
    assert main(["diagnose", "--contributions", str(contributions), "--pools", str(pools),
                 "--json", str(out)]) == 0
    assert_golden(out, "diagnose.json")


def assert_stdout_golden(capsys, name: str) -> None:
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes(), f"stdout differs from golden/{name}"


@pytest.mark.usefixtures("no_records")
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


@pytest.mark.usefixtures("no_records")
def test_simulate_sample_round_bytes(tmp_path, capsys, monkeypatch, checked_top_ups):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(SAMPLE_ROUND), "--out-dir", "round"]) == 0
    assert_stdout_golden(capsys, "sample_round/stdout.json")
    out_dir = tmp_path / "round"
    for name in SIMULATE_OUTPUTS:
        assert_golden(out_dir / name, f"sample_round/{name}")


@pytest.mark.usefixtures("no_records")
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
        Contribution("alice", "p1", 4.0, 0),
        Contribution("bob", "p1", 0.1, 3),
        Contribution("carol, jr.", "p2", 1.0 / 3.0, 7),
        Contribution('dave "d"', "p3", 1e-3, 2),
        Contribution("erin", "p2", 2.5e17, 11),
        Contribution("frank", "p2", 3, 1),
    )
    path = tmp_path / "contributions.csv"
    write_contributions(path, records, {"p1": "infra", "p2": "apps"})
    assert_golden(path, "contributions.csv")


@pytest.mark.usefixtures("no_records")
def test_sweep_k_default_stdout_bytes(capsys):
    assert main(["sweep-k"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "sweep_k.txt").read_bytes()


@pytest.mark.usefixtures("no_records")
def test_sweep_k_profiles_stdout_bytes(capsys):
    """Three, two and unequal-share profiles over k from 0.5 (a generous pool) to 12."""
    argv = ["sweep-k", "--profiles", "1:2,1:1:3,0.5:7", "--k-min", "0.5", "--k-max", "12",
            "--steps", "24"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "sweep_k_profiles.txt").read_bytes()


@pytest.mark.usefixtures("no_records")
def test_collusion_sweep_stdout_bytes(capsys):
    assert main(["collusion", "--sweep"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "collusion_sweep.txt").read_bytes()


@pytest.mark.usefixtures("no_records")
def test_collusion_one_row_stdout_bytes(capsys):
    assert main(["collusion", "--n", "10", "--k", "2.5"]) == 0
    assert_stdout_golden(capsys, "collusion_n10_k2.5.txt")


@pytest.mark.usefixtures("no_records")
@pytest.mark.parametrize("name, extra", [
    ("equilibrium.json", []),
    ("equilibrium_budgets_planner.json",
     ["--budgets", str(GOLDEN / "equilibrium" / "budgets.csv"), "--planner-pool", "12"]),
])
def test_equilibrium_bytes(tmp_path, capsys, name, extra):
    """The valuations list projects and contributors out of sorted order; with
    the budgets, carol's binds and alice's does not."""
    out = tmp_path / "equilibrium.json"
    argv = ["equilibrium", "--valuations", str(GOLDEN / "equilibrium" / "valuations.csv"),
            "--k", "2.5", "--json", str(out)]
    assert main(argv + extra) == 0
    assert capsys.readouterr().err == ""
    assert_golden(out, f"equilibrium/{name}")
