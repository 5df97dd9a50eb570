"""Scheduler comparison tables from results (shared by CLI and examples).

Takes any mapping of label -> result-like object (live
:class:`~repro.sim.metrics.SimResult` or pooled multi-cell results --
anything exposing the ``avg_fct_ms`` / ``pctl_fct_ms`` / ``mean_se`` /
``mean_fairness`` quartet) and renders the FCT-vs-system-objectives
table every evaluation in the paper revolves around.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analysis.tables import format_table

#: (header, extractor) columns of the standard comparison.
STANDARD_COLUMNS = (
    ("S avg ms", lambda r: f"{r.avg_fct_ms('S'):.1f}"),
    ("S p95 ms", lambda r: f"{r.pctl_fct_ms(95, 'S'):.0f}"),
    ("M avg ms", lambda r: f"{r.avg_fct_ms('M'):.0f}"),
    ("L avg ms", lambda r: f"{r.avg_fct_ms('L'):.0f}"),
    ("all avg ms", lambda r: f"{r.avg_fct_ms():.0f}"),
    ("SE", lambda r: f"{r.mean_se():.2f}"),
    ("fairness", lambda r: f"{r.mean_fairness():.3f}"),
)


def comparison_table(
    results: Mapping[str, object],
    title: str = "",
    baseline: Optional[str] = None,
) -> str:
    """Render the standard comparison; optionally add a gain column.

    With ``baseline`` set to one of the labels, an extra column reports
    each row's overall-average-FCT improvement over that baseline.
    """
    if not results:
        raise ValueError("need at least one result")
    if baseline is not None and baseline not in results:
        raise ValueError(f"baseline {baseline!r} not among {sorted(results)}")
    headers = ["scheduler"] + [name for name, _ in STANDARD_COLUMNS]
    if baseline is not None:
        headers.append(f"vs {baseline}")
        base_avg = results[baseline].avg_fct_ms()
    rows = []
    for label, result in results.items():
        row = [label] + [extract(result) for _, extract in STANDARD_COLUMNS]
        if baseline is not None:
            avg = result.avg_fct_ms()
            if base_avg and base_avg == base_avg and avg == avg:
                row.append(f"{(1 - avg / base_avg) * 100:+.0f}%")
            else:
                row.append("n/a")
        rows.append(row)
    return format_table(headers, rows, title=title)
