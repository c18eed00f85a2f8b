"""Tests for the combined allocation report."""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfround.efficiency import lambda_p
from qfround.errors import DomainError, NoMatchableProjectsError
from qfround.funding import ProjectLedger, cqf_allocate, matching_requirement
from qfround.report import build_report


def ledger(*amounts, project="p", category="main"):
    return ProjectLedger.from_amounts(project, amounts, category)


def test_strict_raises_on_degenerate_category():
    with pytest.raises(NoMatchableProjectsError):
        build_report([ledger(5.0)], {"main": 10.0}, strict=True)


def test_non_strict_flags_degenerate_category():
    report = build_report([ledger(5.0)], {"main": 10.0}, strict=False)
    block = report.categories[0]
    assert block.degenerate
    assert block.k is None
    assert block.surplus == 10.0
    assert block.projects[0].m_actual == 0.0
    assert block.projects[0].f_actual == 5.0


def test_missing_pool_for_category():
    with pytest.raises(DomainError):
        build_report([ledger(1, 1, category="orphan")], {"main": 1.0})


def test_multi_category_report():
    ledgers = [
        ledger(1, 1, project="p1", category="a"),
        ledger(2, 2, project="p2", category="a"),
        ledger(1, 4, project="p3", category="b"),
    ]
    report = build_report(ledgers, {"a": 3.0, "b": 2.0})
    blocks = {block.category: block for block in report.categories}
    assert blocks["a"].k == pytest.approx(6.0 / 3.0)
    assert blocks["b"].k == pytest.approx(4.0 / 2.0)
    for block in report.categories:
        spent = math.fsum(p.m_actual for p in block.projects)
        assert spent == pytest.approx(block.pool, abs=1e-9)
    assert report.to_json_dict()["k_policy"] == "final"


def test_lambda_uses_category_k():
    ledgers = [
        ledger(1, 1, project="p1", category="a"),
        ledger(1, 1, project="p2", category="b"),
    ]
    report = build_report(ledgers, {"a": 2.0, "b": 0.5})
    blocks = {block.category: block for block in report.categories}
    # equal pair: lambda = 2k/(k+1)
    assert blocks["a"].projects[0].lambda_p == pytest.approx(1.0, abs=1e-12)  # k = 1
    assert blocks["b"].projects[0].lambda_p == pytest.approx(1.6, abs=1e-12)  # k = 4


@given(
    st.lists(st.lists(st.floats(min_value=0.01, max_value=100.0), max_size=5), min_size=1, max_size=6),
    st.floats(min_value=0.1, max_value=500.0),
    st.booleans(),
)
@settings(max_examples=100)
def test_rows_are_cqf_allocate_rows_with_lambda_p(rounds, pool, cap):
    """build_report fills in each row's lambda_p at the category's k and changes nothing else."""
    ledgers = [ledger(*amounts, project=f"p{i}") for i, amounts in enumerate(rounds)]
    assume(math.fsum(map(matching_requirement, ledgers)) > 0.0)
    block = cqf_allocate(ledgers, pool, category="main", cap_at_target=cap)
    [reported] = build_report(ledgers[::-1], {"main": pool}, cap_at_target=cap).categories
    assert replace(reported, projects=()) == replace(block, projects=())
    assert [replace(row, lambda_p=None) for row in reported.projects] == list(block.projects)
    assert [row.lambda_p for row in reported.projects] == [
        lambda_p(l, block.k) if l.contributor_count else None for l in ledgers
    ]
