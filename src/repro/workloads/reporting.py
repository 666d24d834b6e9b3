"""Result rendering.

Turns :class:`~repro.workloads.runner.ExperimentResult` objects into the
plain-text tables used by the CLI, the benchmark suite and EXPERIMENTS.md.
Each table lists the same series as the corresponding figure of the paper:
one row per x-axis value, one column of mean per-arrival milliseconds per
engine, plus the ITA speedup over the competitor.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.workloads.perfjson import SUMMARY
from repro.workloads.runner import ExperimentResult, PointResult

__all__ = [
    "format_result_table",
    "format_speedup_summary",
    "result_rows",
    "render_perf_dashboard",
]


def result_rows(result: ExperimentResult) -> List[Dict[str, object]]:
    """The experiment result as a list of plain dictionaries (one per point)."""
    rows: List[Dict[str, object]] = []
    engines = list(result.definition.engines)
    for point in result.points:
        row: Dict[str, object] = {
            "experiment": result.definition.experiment_id,
            "x": point.point.label,
            "value": point.point.value,
        }
        for engine in engines:
            measurement = point.measurements[engine]
            row[f"{engine}_ms"] = measurement.mean_ms
            row[f"{engine}_scores_per_event"] = measurement.scores_per_event
        if "ita" in engines:
            competitor = _competitor(engines)
            if competitor is not None:
                row["speedup"] = point.speedup("ita", competitor)
        rows.append(row)
    return rows


def _competitor(engines: Sequence[str]) -> Optional[str]:
    # Prefer the paper's Naive competitors; otherwise (design-choice
    # ablations) compare ITA against whichever other variant is present.
    for candidate in ("naive-kmax", "naive"):
        if candidate in engines:
            return candidate
    for candidate in engines:
        if candidate != "ita":
            return candidate
    return None


def format_result_table(result: ExperimentResult) -> str:
    """Render one experiment as an aligned text table."""
    definition = result.definition
    engines = list(definition.engines)
    competitor = _competitor(engines)

    header = [definition.x_axis]
    for engine in engines:
        header.append(f"{engine} (ms)")
    for engine in engines:
        header.append(f"{engine} scores/event")
    if "ita" in engines and competitor is not None:
        header.append("speedup")

    table: List[List[str]] = [header]
    for point in result.points:
        row = [point.point.label]
        for engine in engines:
            row.append(f"{point.measurements[engine].mean_ms:.3f}")
        for engine in engines:
            row.append(f"{point.measurements[engine].scores_per_event:.1f}")
        if "ita" in engines and competitor is not None:
            row.append(f"{point.speedup('ita', competitor):.1f}x")
        table.append(row)

    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [
        f"{definition.paper_reference}: {definition.title}",
        "-" * (sum(widths) + 3 * (len(widths) - 1)),
    ]
    for row_index, row in enumerate(table):
        line = "   ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(line)
        if row_index == 0:
            lines.append("-" * (sum(widths) + 3 * (len(widths) - 1)))
    return "\n".join(lines)


def format_speedup_summary(result: ExperimentResult) -> str:
    """One line summarising the ITA speedup range across the sweep."""
    engines = list(result.definition.engines)
    competitor = _competitor(engines)
    if "ita" not in engines or competitor is None:
        return f"{result.definition.experiment_id}: no ITA/competitor pair to compare"
    speedups = result.speedups("ita", competitor)
    if not speedups:
        return f"{result.definition.experiment_id}: no data"
    return (
        f"{result.definition.experiment_id}: ITA is between "
        f"{min(speedups):.1f}x and {max(speedups):.1f}x faster than {competitor} "
        f"across the sweep"
    )


# --------------------------------------------------------------------------- #
# the markdown perf dashboard (CI artifact)
# --------------------------------------------------------------------------- #
def _markdown_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_perf_dashboard(
    entries: Sequence[Dict[str, Any]],
    metrics: Optional[Dict[str, Any]] = None,
) -> str:
    """Render the benchmark trajectory (plus an optional telemetry
    snapshot) as the markdown dashboard CI publishes.

    ``entries`` are trajectory lines as read by
    :func:`repro.workloads.perfjson.read_history`, oldest first;
    ``metrics`` is a registry snapshot as returned by
    :meth:`~repro.observability.registry.MetricsRegistry.snapshot`.
    """
    lines: List[str] = ["# Performance dashboard", ""]
    if not entries:
        lines.append("No benchmark history yet -- run "
                     "`python -m repro.workloads.cli bench-all` to record a first entry.")
        return "\n".join(lines) + "\n"

    latest = entries[-1]
    lines.append(
        f"{len(entries)} bench-all run(s) recorded, "
        f"{entries[0].get('ts', '?')} to {latest.get('ts', '?')} "
        f"(latest at scale `{latest.get('scale', '?')}`, "
        f"schema `{latest.get('schema', '?')}`, "
        f"commit `{latest.get('git_sha') or '?'}`, "
        f"{latest.get('cpu_count') or '?'} CPU(s), "
        f"Python {latest.get('python') or '?'}, "
        f"best of {latest.get('repeats') or '?'})."
    )
    lines.append("")

    summary = latest.get("summary", {})
    if summary:
        notes = {name: note for name, *_cells, note in SUMMARY}
        lines.append("## Headline ratios (latest run)")
        lines.append("")
        rows = [
            (f"`{key}`", f"{value:.4f}" if isinstance(value, float) else str(value),
             notes.get(key, ""))
            for key, value in sorted(summary.items())
        ]
        lines.extend(_markdown_table(("ratio", "value", "meaning"), rows))
        lines.append("")

    # Ratios move with the scale (and the host) as much as with the code,
    # so the trend baseline is the earliest run at the latest run's scale.
    scale = latest.get("scale")
    first = next(entry for entry in entries if entry.get("scale") == scale)
    if first is not latest:
        lines.append(f"## Trend (first vs latest `{scale}` run)")
        lines.append("")
        rows = []
        for key in sorted(summary):
            then = first.get("summary", {}).get(key)
            now = summary.get(key)
            if not isinstance(then, (int, float)) or not isinstance(now, (int, float)):
                continue
            delta = ((now - then) / then * 100.0) if then else 0.0
            rows.append((f"`{key}`", f"{then:.4f}", f"{now:.4f}", f"{delta:+.1f}%"))
        if rows:
            lines.extend(_markdown_table(("ratio", "first", "latest", "change"), rows))
            lines.append("")

    throughput = latest.get("docs_per_sec", {})
    if throughput:
        lines.append("## Throughput (docs/sec, latest run)")
        lines.append("")
        rows = [
            (f"`{cell}`", f"{value:,.0f}")
            for cell, value in sorted(throughput.items())
        ]
        lines.extend(_markdown_table(("cell", "docs/sec"), rows))
        lines.append("")

    if metrics:
        lines.append("## Telemetry snapshot")
        lines.append("")
        rows = []
        for name, family in sorted(metrics.get("families", {}).items()):
            for sample in family.get("samples", []):
                labels = sample.get("labels") or {}
                label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                cell = f"`{name}{{{label_text}}}`" if label_text else f"`{name}`"
                if family.get("kind") == "histogram":
                    rows.append(
                        (cell, family.get("kind", ""),
                         f"count={sample.get('count')} sum={sample.get('sum'):.3f} "
                         f"p50<={sample.get('p50')} p99<={sample.get('p99')}")
                    )
                else:
                    rows.append((cell, family.get("kind", ""), f"{sample.get('value')}"))
        for name, samples in sorted(metrics.get("collected", {}).items()):
            for sample in samples:
                labels = sample.get("labels") or {}
                label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                cell = f"`{name}{{{label_text}}}`" if label_text else f"`{name}`"
                rows.append((cell, "collected", f"{sample.get('value')}"))
        if rows:
            lines.extend(_markdown_table(("metric", "kind", "value"), rows))
            lines.append("")

    return "\n".join(lines) + "\n"
