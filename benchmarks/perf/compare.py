"""Compare two result files of ``run.py``, metric by metric.

    python3 benchmarks/perf/compare.py A.json B.json

One row per (workload, end-to-end metric): both reported values (median
over the cells) with the cells' quartiles, the metric's bound from
``BENCHMARK.json`` and a verdict for B against A.  Both files must come
from the same ``--seed``: the verdict rests on the cells the two files
share, compared cell by cell, so a difference between inputs never reads
as a difference between commits.

* ``worse``      B's value is worse than A's by more than the bound;
* ``better``     every cell of B beats the same cell of A and the values
  differ by more than the run-to-run spread;
* ``unresolved`` the run-to-run spread exceeds the bound and the cells
  disagree on the direction, so this pair of files cannot tell;
* ``same``       otherwise.

The run-to-run spread is the interquartile range of the per-cell changes
(0 for a simulated metric the two commits compute identically).
Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float, float]:
    """(verdict, change, spread); change > 0 means B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"])
    paired = []
    for cell, samples in a["cells"].items():
        if cell in b["cells"]:
            va = statistics.median(samples)
            paired.append(sign * (statistics.median(b["cells"][cell]) - va) / abs(va))
    if not paired:
        return "unresolved", change, 0.0
    spread = 0.0
    if len(paired) > 1:
        q1, _, q3 = statistics.quantiles(paired, n=4)
        spread = q3 - q1
    if spread > bound and min(paired) < 0 < max(paired):
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if change < -spread and max(paired) < 0:
        return "better", change, spread
    return "same", change, spread


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None or "end_to_end" not in entry_a or "end_to_end" not in entry_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma, mb = entry_a["end_to_end"][name], entry_b["end_to_end"][name]
            v, change, spread = verdict(ma, mb, metric["bound"], metric["better"])
            rows.append(
                {
                    "workload": workload, "metric": name, "unit": metric["unit"],
                    "a": ma, "b": mb, "bound": metric["bound"],
                    "change": change, "spread": spread, "verdict": v,
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    def side(m: dict) -> str:
        return f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"

    lines = [
        f"{'workload':<15}{'metric':<20}{'A median [q1, q3]':<30}"
        f"{'B median [q1, q3]':<30}{'change':>8}{'spread':>8}{'bound':>7}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<15}{r['metric']:<20}{side(r['a']):<30}{side(r['b']):<30}"
            f"{r['change'] * 100:>+7.1f}%{r['spread'] * 100:>7.1f}%{r['bound'] * 100:>6.0f}%"
            f"  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    from run import load_spec

    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, load_spec())
    print(format_rows(rows))
    for workload in a["workloads"]:
        fa = a["workloads"][workload]["fingerprints"]
        fb = b["workloads"].get(workload, {}).get("fingerprints")
        print(f"{workload}: fingerprints {'equal' if fa == fb else 'DIFFER'}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
