"""Quadratic-rule funding math and capital-constrained pool scaling.

Under the quadratic rule a project's funding target is the squared sum of
the square roots of its per-contributor amounts,

    target = (sum_i sqrt(c_i))^2,

so the match a project requires on top of what contributors already paid,
target - sum_i c_i, equals 2 * sum over unordered contributor pairs of
sqrt(c_i * c_j) and grows with the number of *pairs* of contributors.
When the matches required across a round exceed the available pool D, every
match is scaled by 1/k with k = (sum of required matches) / D, so the pool
is distributed exactly.  k < 1 (pool larger than requirements) scales
matches up by default; pass ``cap_at_target=True`` to cap each match at its
quadratic-rule requirement instead and report the unspent surplus.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DomainError, NoMatchableProjectsError

# numpy is imported inside the kernels that use it, so a command that never
# reaches one does not pay for its import.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ContributionColumns",
    "ProjectLedger",
    "ProjectReport",
    "CategoryReport",
    "check_record",
    "qf_target",
    "required_match",
    "matching_requirement",
    "marginal_match",
    "compute_k",
    "cqf_allocate",
]


def _total(values) -> float:
    """``math.fsum`` of ``values``, or inf once a term or the sum passes the largest float."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def check_record(amount, day) -> None:
    """Raise DomainError unless ``amount`` is a positive finite number and
    ``day`` a nonnegative integer: the rule every contribution record obeys."""
    if not isinstance(amount, (int, float)) or isinstance(amount, bool):
        raise DomainError(f"amount must be numeric, got {amount!r}")
    if not math.isfinite(amount) or amount <= 0:
        raise DomainError(f"contribution amount must be positive and finite, got {amount!r}")
    if int(day) != day or day < 0:
        raise DomainError(f"day must be a nonnegative integer, got {day!r}")


@dataclass(frozen=True)
class ProjectLedger:
    """One project's contributions, summed per contributor.

    ``contributors`` (a tuple) and ``amounts`` (an ``array('d')``) are
    parallel: each distinct contributor and the correctly rounded sum of
    their records, in the order contributors first appear in the input.
    Any other sequence of amounts is converted to an ``array('d')`` at
    construction; the array is not part of the hash, and must not be
    changed.  ``total`` is the plain sum of the records, ``sqrt_sum`` the
    sum of the square roots of ``amounts`` and ``contributor_count`` their
    number; the last two are derived at construction.  Build one project's
    ledger with ``build`` or ``from_amounts``, and a round's with
    ``ContributionColumns.ledgers``.
    """

    project_id: str
    category: str
    contributors: tuple[str, ...]
    amounts: array = field(hash=False)
    total: float
    sqrt_sum: float = field(init=False)
    contributor_count: int = field(init=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.amounts, array) and self.amounts.typecode == "d"):
            object.__setattr__(self, "amounts", array("d", self.amounts))
        object.__setattr__(self, "sqrt_sum", math.fsum(map(math.sqrt, self.amounts)))
        object.__setattr__(self, "contributor_count", len(self.amounts))

    @classmethod
    def build(
        cls,
        project_id: str,
        records: Iterable[tuple[str, float]],
        category: str = "",
    ) -> "ProjectLedger":
        """``project_id``'s ledger from ``(contributor_id, amount)`` pairs, each
        checked as ``ContributionColumns.append`` checks a record of day 0."""
        columns = ContributionColumns((project_id,))
        for contributor, amount in records:
            columns.append(contributor, project_id, amount, 0)
        return columns.ledgers({project_id: category})[0]

    @classmethod
    def from_amounts(
        cls,
        project_id: str,
        amounts: Sequence[float],
        category: str = "",
    ) -> "ProjectLedger":
        """Build a ledger with one synthetic contributor per amount."""
        pairs = ((f"{project_id}-backer-{i}", amount) for i, amount in enumerate(map(float, amounts)))
        return cls.build(project_id, pairs, category)

    def contributor_amounts(self) -> dict[str, float]:
        return dict(zip(self.contributors, self.amounts))


class _Codes(dict):
    """Id -> int code; looking up an id not seen before gives it the next code."""

    def __missing__(self, key: str) -> int:
        self[key] = code = len(self)
        return code


class ContributionColumns:
    """Contribution records as columns, in record order.

    Contributor and project ids are interned: ``contributor_codes`` and
    ``project_codes`` map each id to its int code, in order of first
    appearance, and the ``contributors`` and ``projects`` columns hold
    codes; looking up an id the dicts lack interns it, so query them with
    ``in`` or ``get``.  ``amounts`` and ``days`` hold the rest of each record.
    """

    def __init__(self, projects: Iterable[str] = ()):
        self.contributor_codes: dict[str, int] = _Codes()
        self.project_codes: dict[str, int] = _Codes()
        for project in projects:
            self.project_codes[project]  # the lookup interns it
        self.contributors = array("q")
        self.projects = array("q")
        self.amounts = array("d")
        self.days: list[int] = []

    def append(self, contributor: str, project: str, amount: float, day: int) -> None:
        """Add one record, or raise DomainError and add nothing unless
        ``check_record`` accepts its amount and day."""
        check_record(amount, day)
        self.contributors.append(self.contributor_codes[contributor])
        self.projects.append(self.project_codes[project])
        self.amounts.append(amount)
        self.days.append(day)

    def extend(
        self, contributors: Iterable[str], projects: Iterable[str], amounts: list[float], days: Iterable[int]
    ) -> None:
        """Add records given as columns, unchecked: the loader's ``_add_clean``
        has already checked each run column by column."""
        self.contributors.fromlist(list(map(self.contributor_codes.__getitem__, contributors)))
        self.projects.fromlist(list(map(self.project_codes.__getitem__, projects)))
        self.amounts.fromlist(amounts)
        self.days.extend(days)

    def __len__(self) -> int:
        return len(self.amounts)

    def __eq__(self, other) -> bool:
        """Equal columns hold the same records in the same order, with the same codes."""
        return vars(self) == vars(other) if isinstance(other, ContributionColumns) else NotImplemented

    def ledgers(self, categories: Mapping[str, str]) -> list[ProjectLedger]:
        """One ledger per project, sorted by project id, from one aggregation.

        Categories come from ``categories`` ("" when absent).
        """
        contributor_ids = list(self.contributor_codes)
        project_ids = list(self.project_codes)
        contributors, sums, bounds, totals = self._sums()
        ledgers = []
        for code in sorted(range(len(project_ids)), key=project_ids.__getitem__):
            first, last = bounds[code], bounds[code + 1]
            project = project_ids[code]
            ledgers.append(ProjectLedger(
                project,
                categories.get(project, ""),
                tuple(map(contributor_ids.__getitem__, contributors[first:last].tolist())),
                array("d", sums[first:last].tobytes()),  # frombytes: no float object per amount
                totals[code],
            ))
        return ledgers

    def _sums(self) -> tuple[np.ndarray, np.ndarray, list[int], list[float]]:
        """The records summed per (project, contributor) pair and per project.

        A pair is the key ``project * n_contributors + contributor``; one
        sort on it groups the records by pair, and so by project.  Each
        pair's amount is the correctly rounded sum of its records, so
        neither their order nor the sort's order of equal keys moves a bit:
        ``np.add.reduceat`` sums one or two records with at most one
        rounding, and a pair with three or more is summed with ``math.fsum``.
        Returns the pairs' contributor codes and amounts in key order, each
        project's offsets into them, and each project's ``fsum`` of its records.
        Raises DomainError for a project whose records sum past the largest
        float; a pair's sum past it is part of its project's.
        """
        import numpy as np

        width = max(len(self.contributor_codes), 1)
        keys = np.frombuffer(self.projects, dtype=np.int64) * width
        keys += np.frombuffer(self.contributors, dtype=np.int64)
        order = np.argsort(keys)
        keys = keys[order]
        records = np.frombuffer(self.amounts, dtype=np.float64)[order]
        del order  # each record-sized temporary goes after its last use
        n = len(keys)
        starts = np.flatnonzero(np.concatenate(([n > 0], keys[1:] != keys[:-1])))
        pairs = keys[starts]
        del keys
        offsets = np.searchsorted(pairs, np.arange(len(self.project_codes) + 1) * width)
        with np.errstate(over="ignore"):
            sums = np.add.reduceat(records, starts)
        starts = np.append(starts, n)  # pair i's records are starts[i]:starts[i + 1]
        for pair in np.flatnonzero(np.diff(starts) >= 3).tolist():
            sums[pair] = _total(records[starts[pair]:starts[pair + 1]].tolist())
        bounds = starts[offsets].tolist()
        totals = [_total(records[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
        del records
        if math.inf in totals:
            project = list(self.project_codes)[totals.index(math.inf)]
            raise DomainError(f"contributions to project {project!r} sum past the largest float")
        pairs %= width
        return pairs, sums, offsets.tolist(), totals


def qf_target(ledger: ProjectLedger) -> float:
    """Quadratic-rule funding target (sum_i sqrt(c_i))^2.

    Empty ledgers yield 0.  Negative amounts cannot occur: every record
    passes ``check_record``.
    """
    return ledger.sqrt_sum * ledger.sqrt_sum


def required_match(sqrt_sum: float, total: float, n: int) -> float:
    """Match required on top of private funds: sqrt_sum^2 - total.

    ``sqrt_sum`` and ``total`` are the square-root sum and plain sum of
    ``n`` per-contributor amounts.  Algebraically 2 * sum over unordered
    contributor pairs of sqrt(c_i * c_j); exactly zero with one or zero
    contributors (there are no pairs, so the sub-ulp float residue of
    sqrt_sum^2 - total is discarded).
    """
    if n <= 1:
        return 0.0
    value = sqrt_sum * sqrt_sum - total
    return value if value > 0.0 else 0.0


def matching_requirement(ledger: ProjectLedger) -> float:
    """Match required on top of private funds: target - total."""
    return required_match(ledger.sqrt_sum, ledger.total, ledger.contributor_count)


def marginal_match(ledger: ProjectLedger, new_amount: float) -> float:
    """Extra match a brand-new contributor giving ``new_amount`` would require.

    Equals 2 * sqrt(new_amount) * sqrt_sum, i.e. the increase in
    matching_requirement when the contribution is appended.
    """
    if not math.isfinite(new_amount) or new_amount <= 0:
        raise DomainError(f"new_amount must be positive, got {new_amount!r}")
    return 2.0 * math.sqrt(new_amount) * ledger.sqrt_sum


def compute_k(ledgers: Iterable[ProjectLedger], pool: float) -> float:
    """Pool-scaling constant k = (sum of required matches) / pool.

    k < 1 means the pool exceeds requirements, and a total requirement past
    the largest float gives k = inf.  Raises NoMatchableProjectsError when
    the total requirement is zero (1/k would be undefined) and DomainError
    for a nonpositive pool.
    """
    if not math.isfinite(pool) or pool <= 0:
        raise DomainError(f"pool must be positive, got {pool!r}")
    required = _total(matching_requirement(ledger) for ledger in ledgers)
    if required <= 0.0:
        raise NoMatchableProjectsError("no matchable projects: total required match is zero")
    return required / pool


@dataclass(frozen=True)
class ProjectReport:
    """One project's row; its fields are the per-project keys and columns of ``allocate``."""

    project_id: str
    contributors: int
    total: float
    f_qf: float
    m_qf: float
    m_actual: float
    f_actual: float
    lambda_p: float | None


@dataclass(frozen=True)
class CategoryReport:
    """One category's block; its fields are the keys of ``allocate``'s categories."""

    category: str
    pool: float
    k: float | None
    cap_at_target: bool
    surplus: float
    degenerate: bool
    projects: tuple[ProjectReport, ...]

    def by_project(self) -> dict[str, ProjectReport]:
        return {p.project_id: p for p in self.projects}


def cqf_allocate(
    ledgers: Sequence[ProjectLedger],
    pool: float,
    *,
    category: str = "",
    cap_at_target: bool = False,
) -> CategoryReport:
    """Distribute ``pool`` across projects by scaled quadratic-rule matches.

    Each project receives M = (1/k) * requirement and in total
    F = M + private contributions.  With ``cap_at_target`` and k < 1 the
    match is capped at the requirement itself and the leftover pool is
    reported as surplus instead of being scaled up.  Rows follow
    ``ledgers`` and leave ``lambda_p`` None.
    """
    seen: set[str] = set()
    for ledger in ledgers:
        if ledger.project_id in seen:
            raise DomainError(f"duplicate ledger for project {ledger.project_id!r}")
        seen.add(ledger.project_id)
    k = compute_k(ledgers, pool)
    capped = cap_at_target and k < 1.0
    scale = 1.0 if capped else 1.0 / k
    rows = []
    for ledger in ledgers:
        requirement = matching_requirement(ledger)
        match = scale * requirement
        rows.append(ProjectReport(
            ledger.project_id, ledger.contributor_count, ledger.total,
            qf_target(ledger), requirement, match, match + ledger.total, None,
        ))
    surplus = pool - math.fsum(r.m_actual for r in rows) if capped else 0.0
    return CategoryReport(category, pool, k, cap_at_target, surplus, False, tuple(rows))
