"""Reference ``qfround diagnose``, assembled as the command first was.

It builds the full allocation report only to read each category's ``k``
from it, then evaluates every project's ``lambda_p`` again through
``efficiency.lambda_report``.  Tests compare the command against it on
generated contributions and pools files.
"""

import json

from qfround import efficiency, ledger
from qfround.errors import DomainError
from qfround.report import build_report


def diagnose(contributions, pools) -> tuple[int, str | None, str]:
    """``(exit code, --json text or None, stderr)`` of ``diagnose`` on two files."""
    stderr = ""
    try:
        loaded = ledger.load_contributions(contributions)
        stderr = "".join(f"{contributions}:{e.line}: {e.message}\n" for e in loaded.errors)
        ledgers = loaded.contributions.ledgers(loaded.project_categories)
        report = build_report(ledgers, ledger.load_pools(pools), strict=True)
        k_of = {block.category: block.k for block in report.categories}
        lambda_reports = [
            efficiency.lambda_report(item, k_of[item.category])
            for item in ledgers
            if item.contributor_count > 0
        ]
        stats = [
            efficiency.dispersion(lambda_reports, category)
            for category in sorted({r.category for r in lambda_reports})
        ]
    except DomainError as exc:
        return 1, None, stderr + f"error: {exc}\n"
    payload = {
        "k_policy": "final",
        "projects": [
            {
                "project_id": r.project_id,
                "category": r.category,
                "n": r.n,
                "k_used": r.k_used,
                "lambda_p": r.lambda_p,
                "lower_bound": r.lower_bound,
            }
            for r in sorted(lambda_reports, key=lambda r: r.project_id)
        ],
        "categories": [
            {
                "category": s.category,
                "project_count": s.project_count,
                "mean": s.mean,
                "stdev": s.stdev,
                "min": s.min,
                "max": s.max,
            }
            for s in stats
        ],
    }
    return 0, json.dumps(payload, indent=2), stderr
