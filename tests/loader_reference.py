"""Reference copy of the row-by-row contributions loader.

``load_contributions`` and ``read_rows`` are verbatim copies of the package's
row-by-row versions, and ``_Columns.append`` of the row-by-row interning in
``ContributionColumns.append``: one ``csv.reader`` row, one ``check_record``
and one ``setdefault`` per id at a time.  ``test_ledger.TestLoaderReference``
asks ``ledger.load_contributions`` for a ``LoadResult`` equal to this one,
field by field and in order.
"""

import csv
from operator import itemgetter

from qfround.errors import DomainError, LedgerFormatError
from qfround.funding import ContributionColumns, check_record
from qfround.ledger import CONTRIBUTIONS_COLUMNS, LoadResult, RowError


class _Columns(ContributionColumns):
    def append(self, contributor, project, amount, day):
        codes = self.contributor_codes
        self.contributors.append(codes.setdefault(contributor, len(codes)))
        codes = self.project_codes
        self.projects.append(codes.setdefault(project, len(codes)))
        self.amounts.append(amount)
        self.days.append(day)


def read_rows(path, columns):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise LedgerFormatError(f"{path}: empty file, expected a header row")
            missing = [column for column in columns if column not in header]
            if missing:
                raise LedgerFormatError(f"{path}: missing columns: {', '.join(missing)}")
            index = {name: i for i, name in enumerate(header)}
            positions = [index[column] for column in columns]
            pick = itemgetter(*positions)
            width = max(positions) + 1
            line = reader.line_num
            for row in reader:
                if len(row) >= width:
                    yield line + 1, pick(row)
                elif row:
                    yield line + 1, tuple(row[i] if i < len(row) else None for i in positions)
                line = reader.line_num
        except UnicodeDecodeError as exc:
            raise LedgerFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise LedgerFormatError(f"{path}:{reader.line_num}: {exc}") from None


def load_contributions(path) -> LoadResult:
    """Parse a contributions CSV into columns; malformed rows are reported, not fatal."""
    columns = _Columns()
    append = columns.append
    categories: dict[str, str] = {}
    errors: list[RowError] = []
    for line, (day, category, project, contributor, amount) in read_rows(path, CONTRIBUTIONS_COLUMNS):
        try:
            day = int(day)
            amount = float(amount)
        except (TypeError, ValueError) as exc:
            errors.append(RowError(line, f"unparsable row: {exc}"))
            continue
        project = (project or "").strip()
        contributor = (contributor or "").strip()
        category = (category or "").strip()
        if not project or not contributor:
            errors.append(RowError(line, "missing project or contributor id"))
            continue
        try:
            check_record(amount, day)
        except DomainError as exc:
            errors.append(RowError(line, str(exc)))
            continue
        kept = categories.setdefault(project, category)
        if kept != category:
            errors.append(RowError(line, f"category conflict for {project!r}: keeping {kept!r}"))
        append(contributor, project, amount, day)
    return LoadResult(columns, categories, tuple(errors))
