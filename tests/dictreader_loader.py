"""Reference contributions loader built on ``csv.DictReader``.

It reads a file the simple way: one dict and one ``Record``, checked by
``check_record``, per row, records numbered from line 2.  Tests compare
``ledger.load_contributions`` against it on generated files without blank
lines or quoted newlines, where that numbering is each record's line.
"""

import csv

from synthgraph import Record

from qfround.errors import DomainError, LedgerFormatError
from qfround.funding import check_record
from qfround.ledger import CONTRIBUTIONS_COLUMNS, RowError


def load_contributions(path):
    """``(records, project_categories, errors)`` of a contributions CSV."""
    records = []
    categories = {}
    errors = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None or any(column not in header for column in CONTRIBUTIONS_COLUMNS):
            raise LedgerFormatError(f"{path}: bad header")
        for line, row in enumerate(reader, start=2):
            try:
                day = int(row["day"])
                amount = float(row["amount"])
            except (TypeError, ValueError) as exc:
                errors.append(RowError(line, f"unparsable row: {exc}"))
                continue
            project = (row["project_id"] or "").strip()
            contributor = (row["contributor_id"] or "").strip()
            category = (row["category"] or "").strip()
            if not project or not contributor:
                errors.append(RowError(line, "missing project or contributor id"))
                continue
            try:
                check_record(amount, day)
            except DomainError as exc:
                errors.append(RowError(line, str(exc)))
                continue
            if project in categories and categories[project] != category:
                errors.append(
                    RowError(line, f"category conflict for {project!r}: keeping {categories[project]!r}")
                )
            else:
                categories[project] = category
            records.append(Record(contributor, project, amount, day))
    return tuple(records), categories, tuple(errors)
