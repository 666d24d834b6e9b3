"""Compare two benchmark result files: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of runs of
one commit), ``B`` the candidate.  Both come from
``python3 bench/run.py --seed N --repeats R``.  One row is printed per
workload x end-to-end metric: both medians with their quartiles, the ratio
``B / A`` *and its base* (A's median), the metric's bound, and a verdict:

``ok``
    B's median is not worse than A's by more than the bound.
``worse``
    it is.
``unresolved``
    on either side the runs spread (interquartile range / median) wider
    than the bound, so the data cannot tell "unchanged" from "worse".

Exit code: 1 if any row is ``worse``, else 2 if any is ``unresolved``,
else 0.  No combined score is computed; every row stands on its own.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from metrics import END_TO_END, EndToEnd

__all__ = ["Row", "summarise", "verdict", "compare", "main"]


class Summary(NamedTuple):
    median: float
    q1: float
    q3: float
    runs: int

    @property
    def spread(self) -> float:
        """Interquartile range as a share of the median."""
        return (self.q3 - self.q1) / self.median if self.median else 0.0


class Row(NamedTuple):
    workload: str
    metric: EndToEnd
    base: Summary
    candidate: Summary
    verdict: str

    @property
    def ratio(self) -> float:
        return self.candidate.median / self.base.median


def summarise(values: Sequence[float]) -> Summary:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return Summary(values[0], values[0], values[0], 1)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Summary(median, q1, q3, len(values))


def verdict(metric: EndToEnd, base: Summary, candidate: Summary) -> str:
    if max(base.spread, candidate.spread) > metric.bound:
        return "unresolved"
    change = (candidate.median - base.median) / base.median
    worse_by = change if metric.better == "lower" else -change
    return "worse" if worse_by > metric.bound else "ok"


def _values(result: Dict[str, Any]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per untraced run]}}`` of one result file."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for entry in result["workloads"]:
        per_metric: Dict[str, List[float]] = {}
        for record in entry["untraced"]:
            for name, value in record["metrics"].items():
                per_metric.setdefault(name, []).append(value)
        table[entry["workload"]] = per_metric
    return table


def compare(base: Dict[str, Any], candidate: Dict[str, Any]) -> List[Row]:
    """One row per workload x end-to-end metric present in both results."""
    base_values = _values(base)
    candidate_values = _values(candidate)
    rows: List[Row] = []
    for workload, per_metric in base_values.items():
        for metric in END_TO_END:
            ours = per_metric.get(metric.name)
            theirs = candidate_values.get(workload, {}).get(metric.name)
            if not ours or not theirs:
                continue
            a, b = summarise(ours), summarise(theirs)
            rows.append(Row(workload, metric, a, b, verdict(metric, a, b)))
    return rows


def _format(rows: List[Row]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<17} {'unit':<6} {'A median [q1, q3]':<38} {'B median [q1, q3]':<38} "
        f"{'B/A':>7} {'base (A)':>12} {'bound':>6}  verdict"
    ]
    for row in rows:
        a, b = row.base, row.candidate
        sign = "+" if row.metric.better == "lower" else "-"
        lines.append(
            f"{row.workload:<14} {row.metric.name:<17} {row.metric.unit:<6} "
            f"{f'{a.median:.4f} [{a.q1:.4f}, {a.q3:.4f}] n={a.runs}':<38} "
            f"{f'{b.median:.4f} [{b.q1:.4f}, {b.q3:.4f}] n={b.runs}':<38} "
            f"{row.ratio:>7.3f} {a.median:>12.4f} {sign}{row.metric.bound:>4.0%}  {row.verdict}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    results = []
    for path in arguments:
        with open(path, "r", encoding="utf-8") as handle:
            results.append(json.load(handle))
    rows = compare(*results)
    print(_format(rows))
    verdicts = {row.verdict for row in rows}
    print(f"{len(rows)} rows: " + ", ".join(f"{v}={sum(r.verdict == v for r in rows)}" for v in ("ok", "worse", "unresolved")))
    if "worse" in verdicts:
        return 1
    return 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
