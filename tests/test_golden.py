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

from qfround.cli import main
from qfround.efficiency import k_sweep, write_sweep_csv
from qfround.funding import Contribution
from qfround.ledger import write_contributions

GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLE_ROUND = Path(__file__).resolve().parent.parent / "sample_rounds" / "pool_increase_round.json"
SIMULATE_OUTPUTS = ("k_daily.csv", "panel.csv", "deficit_curve.csv", "allocation_report.json")

ROSTER_CONTRIBUTIONS = """day,category,project_id,contributor_id,amount
0,x,B,a1,2
0,x,C,a1,1.5
1,y,A,b1,1
1,x,C,b2,3
2,y,A,c1,0.25
2,x,B,c1,2
3,y,D,a2,7
3,x,B,d1,1
3,x,A,a1,4
"""
ROSTER = "project_id,member_id\nA,a1\nA,a2\nB,b1\nB,b2\nC,c1\nD,d1\n"


def assert_golden(path: Path, name: str) -> None:
    assert path.read_bytes() == (GOLDEN / name).read_bytes(), f"{path.name} differs from golden/{name}"


@pytest.fixture
def fixture_round(tmp_path):
    contributions = tmp_path / "contributions.csv"
    contributions.write_text(CONTRIBUTIONS, encoding="utf-8")
    pools = tmp_path / "pools.csv"
    pools.write_text(POOLS, encoding="utf-8")
    return contributions, pools


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
    pools = tmp_path / "generous.csv"
    pools.write_text("category,pool\nmain,8\n", encoding="utf-8")
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


@pytest.mark.parametrize("weighted", [False, True])
def test_reciprocal_bytes(tmp_path, capsys, weighted):
    contributions = tmp_path / "contributions.csv"
    contributions.write_text(ROSTER_CONTRIBUTIONS, encoding="utf-8")
    teams = tmp_path / "teams.csv"
    teams.write_text(ROSTER, encoding="utf-8")
    out_dir = tmp_path / "forensics"
    argv = ["reciprocal", "--contributions", str(contributions), "--teams", str(teams),
            "--out-dir", str(out_dir)]
    assert main(argv + (["--weighted"] if weighted else [])) == 0
    suffix = "_weighted" if weighted else ""
    assert_golden(out_dir / "reciprocal_report.csv", f"reciprocal_report{suffix}.csv")
    assert_golden(out_dir / "cross_category.csv", f"cross_category{suffix}.csv")


def test_simulate_sample_round_bytes(tmp_path, capsys):
    out_dir = tmp_path / "round"
    assert main(["simulate", "--config", str(SAMPLE_ROUND), "--out-dir", str(out_dir)]) == 0
    for name in SIMULATE_OUTPUTS:
        assert_golden(out_dir / name, f"sample_round/{name}")


def test_simulate_topup_round_bytes(tmp_path, capsys):
    """80 agents over 12 days at activity about 0.5: sqrt and log valuations,
    repeated top-ups of one (agent, project) pair, binding budgets, a pool
    event, a category whose pool exceeds its requirements (k < 1), fixed
    agents and a four-member colluder ring."""
    out_dir = tmp_path / "round"
    config = GOLDEN / "topup_round" / "round.json"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
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


def test_write_sweep_csv_bytes(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(k_sweep([(1, 2), (1, 1, 3), (0.5, 7)], [1.0, 1.5, 2.0 / 3.0, 12.0]), path)
    assert_golden(path, "sweep.csv")


def test_sweep_k_default_stdout_bytes(capsys):
    assert main(["sweep-k"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "sweep_k.txt").read_bytes()


def test_collusion_sweep_stdout_bytes(capsys):
    assert main(["collusion", "--sweep"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "collusion_sweep.txt").read_bytes()
