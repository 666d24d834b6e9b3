"""Workloads and the experiment harness.

* :mod:`repro.workloads.generators` -- query-workload generation (random
  dictionary terms, as in the paper's evaluation) and corpus/stream
  construction helpers.
* :mod:`repro.workloads.experiments` -- declarative definitions of every
  experiment reproduced from the paper (Figure 3a, Figure 3b) plus the
  ablations listed in DESIGN.md.
* :mod:`repro.workloads.runner` -- executes an experiment definition:
  builds the engines, pre-fills the sliding window, streams the measured
  documents and records per-arrival processing times and operation
  counters for every engine.  Also home of the harness's one timed loop
  (``measure_chunks``) and its best-of-N selection (``best_of``).
* :mod:`repro.workloads.reporting` -- renders results as text tables
  (the same rows/series as the paper's figures).
* :mod:`repro.workloads.perfjson` -- the machine-readable performance
  harness behind ``bench-all``: the paper's cells as a table of rows
  (workload, point, engine, mode, storage), a table of summary ratios
  over them and the checks on the emitted ``BENCH_results.json`` (see
  ``docs/BENCHMARKING.md``).
* :mod:`repro.workloads.cli` -- ``python -m repro.workloads.cli figure3a``
  / ``bench-all`` / ``report``.
"""

from repro.workloads.experiments import (
    ExperimentDefinition,
    SweepPoint,
    ablation_k,
    ablation_kmax,
    ablation_num_queries,
    ablation_scoring,
    ablation_window_type,
    all_experiments,
    cluster_scaling,
    figure_3a,
    figure_3b,
)
from repro.workloads.generators import QueryWorkloadGenerator, WorkloadConfig, build_workload
from repro.workloads.perfjson import BenchCell, BenchRecord, default_suite, run_bench_suite
from repro.workloads.runner import EngineMeasurement, ExperimentResult, PointResult, run_experiment
from repro.workloads.cost_model import (
    CostEstimate,
    WorkloadParameters,
    ita_scores_per_arrival,
    naive_scores_per_arrival,
    speedup_estimate,
)
from repro.workloads.reporting import format_result_table, format_speedup_summary

__all__ = [
    "WorkloadConfig",
    "QueryWorkloadGenerator",
    "build_workload",
    "ExperimentDefinition",
    "SweepPoint",
    "figure_3a",
    "figure_3b",
    "ablation_num_queries",
    "ablation_k",
    "ablation_kmax",
    "ablation_window_type",
    "ablation_scoring",
    "all_experiments",
    "run_experiment",
    "ExperimentResult",
    "PointResult",
    "EngineMeasurement",
    "BenchCell",
    "BenchRecord",
    "default_suite",
    "run_bench_suite",
    "format_result_table",
    "format_speedup_summary",
    "WorkloadParameters",
    "CostEstimate",
    "naive_scores_per_arrival",
    "ita_scores_per_arrival",
    "speedup_estimate",
]
