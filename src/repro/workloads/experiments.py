"""Declarative experiment definitions.

Each function returns an :class:`ExperimentDefinition` describing one of
the paper's figures (or one of the ablations listed in DESIGN.md) as a
sweep over a single parameter, together with the engines to compare.  The
:mod:`repro.workloads.runner` executes a definition; the CLI
(``python -m repro.workloads.cli <experiment>``) runs one by name.

Scaling
-------
The paper's exact parameters (181,978-term dictionary, 1,000 queries,
windows up to 100,000 documents) are CPU-heavy for pure Python, so each
definition is built at one of three *scales*:

* ``"smoke"``  -- seconds; used by the integration tests,
* ``"small"``  -- a couple of minutes for the whole suite; the default for
  the CLI,
* ``"paper"``  -- the parameters of the paper; expect long runtimes.

The sweep values (query lengths 4..40, window sizes 10..100,000) follow
the paper at every scale; only the corpus size, query count and number of
measured events shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.documents.corpus import SyntheticCorpusConfig
from repro.exceptions import ExperimentError
from repro.workloads.generators import WorkloadConfig

__all__ = [
    "SweepPoint",
    "ExperimentDefinition",
    "figure_3a",
    "figure_3b",
    "ablation_num_queries",
    "ablation_k",
    "ablation_kmax",
    "ablation_window_type",
    "ablation_scoring",
    "ablation_rollup",
    "ablation_probe_order",
    "cluster_scaling",
    "all_experiments",
    "SCALES",
]


#: Valid scale presets and their workload shrink factors.
SCALES: Dict[str, Dict[str, object]] = {
    "smoke": {
        "num_queries": 20,
        "measured_events": 30,
        "dictionary_size": 2_000,
        "mean_log_length": 3.2,
        "max_window": 500,
    },
    "small": {
        "num_queries": 500,
        "measured_events": 120,
        "dictionary_size": 20_000,
        "mean_log_length": 4.0,
        "max_window": 20_000,
    },
    "paper": {
        "num_queries": 1_000,
        "measured_events": 1_000,
        "dictionary_size": 181_978,
        "mean_log_length": 5.0,
        "max_window": 100_000,
    },
}


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point of an experiment: a label plus its workload config."""

    label: str
    value: float
    config: WorkloadConfig
    #: extra per-point engine options (e.g. the k_max multiplier)
    engine_options: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentDefinition:
    """A named experiment: a parameter sweep plus the engines to compare."""

    experiment_id: str
    title: str
    #: the figure / table of the paper this reproduces ("figure-3a", ...)
    paper_reference: str
    x_axis: str
    points: Sequence[SweepPoint]
    #: engine names understood by the runner ("ita", "naive-kmax", "naive")
    engines: Sequence[str] = ("ita", "naive-kmax")
    description: str = ""

    def point_labels(self) -> List[str]:
        return [point.label for point in self.points]


def _base_config(scale: str, seed: int = 42) -> WorkloadConfig:
    if scale not in SCALES:
        raise ExperimentError(f"unknown scale {scale!r}; choose one of {sorted(SCALES)}")
    preset = SCALES[scale]
    corpus = SyntheticCorpusConfig(
        dictionary_size=int(preset["dictionary_size"]),
        mean_log_length=float(preset["mean_log_length"]),
        seed=seed,
    )
    return WorkloadConfig(
        num_queries=int(preset["num_queries"]),
        measured_events=int(preset["measured_events"]),
        corpus=corpus,
        seed=seed,
    )


def _cap_window(scale: str, window: int) -> Optional[int]:
    """Return the window capped to the scale's maximum, or None to skip."""
    maximum = int(SCALES[scale]["max_window"])
    if window > maximum:
        return None
    return window


# --------------------------------------------------------------------------- #
# Figure 3(a): processing time versus query length
# --------------------------------------------------------------------------- #
def figure_3a(scale: str = "small") -> ExperimentDefinition:
    """Processing time vs. query length n (paper Figure 3a).

    Paper setup: window 1,000 documents, 1,000 queries, k = 10, n varied
    from 4 to 40, log-scale y axis in milliseconds.  Reported outcome: ITA
    about 10x faster than Naive at n = 4 and about 6x faster at n = 40.
    """
    base = _base_config(scale)
    window = min(1_000, int(SCALES[scale]["max_window"]))
    points = []
    for query_length in (4, 10, 20, 30, 40):
        config = base.with_overrides(query_length=query_length, window_size=window)
        points.append(SweepPoint(label=f"n={query_length}", value=query_length, config=config))
    return ExperimentDefinition(
        experiment_id="figure3a",
        title="Sensitivity to query length",
        paper_reference="Figure 3(a)",
        x_axis="query length n",
        points=tuple(points),
        description=(
            "Average per-arrival processing time for ITA and the kmax-enhanced "
            "Naive as the number of query terms grows."
        ),
    )


# --------------------------------------------------------------------------- #
# Figure 3(b): processing time versus window size
# --------------------------------------------------------------------------- #
def figure_3b(scale: str = "small") -> ExperimentDefinition:
    """Processing time vs. window size N (paper Figure 3b).

    Paper setup: query length 10, N varied from 10 to 100,000.  Reported
    outcome: ITA 13x faster at N = 10, 18x faster at N = 10,000; Naive
    becomes unstable (CPU saturated) at N = 100,000.
    """
    base = _base_config(scale)
    points = []
    for window in (10, 100, 1_000, 10_000, 100_000):
        capped = _cap_window(scale, window)
        if capped is None:
            continue
        config = base.with_overrides(query_length=10, window_size=capped)
        points.append(SweepPoint(label=f"N={capped}", value=capped, config=config))
    return ExperimentDefinition(
        experiment_id="figure3b",
        title="Sensitivity to window size",
        paper_reference="Figure 3(b)",
        x_axis="window size N",
        points=tuple(points),
        description=(
            "Average per-arrival processing time for ITA and the kmax-enhanced "
            "Naive as the sliding window grows."
        ),
    )


# --------------------------------------------------------------------------- #
# Ablations (experiments the paper mentions but omits for space)
# --------------------------------------------------------------------------- #
def ablation_num_queries(scale: str = "small") -> ExperimentDefinition:
    """Scaling with the number of installed queries (ablation A1)."""
    base = _base_config(scale)
    window = min(1_000, int(SCALES[scale]["max_window"]))
    full = base.num_queries
    points = []
    for fraction in (0.25, 0.5, 1.0, 2.0, 4.0):
        num_queries = max(1, int(round(full * fraction)))
        config = base.with_overrides(num_queries=num_queries, window_size=window)
        points.append(SweepPoint(label=f"Q={num_queries}", value=num_queries, config=config))
    return ExperimentDefinition(
        experiment_id="ablation-queries",
        title="Sensitivity to the number of queries",
        paper_reference="Section IV (omitted experiments)",
        x_axis="installed queries",
        points=tuple(points),
    )


def ablation_k(scale: str = "small") -> ExperimentDefinition:
    """Sensitivity to the result size k (ablation A2)."""
    base = _base_config(scale)
    window = min(1_000, int(SCALES[scale]["max_window"]))
    points = []
    for k in (1, 5, 10, 25, 50):
        config = base.with_overrides(k=k, window_size=window)
        points.append(SweepPoint(label=f"k={k}", value=k, config=config))
    return ExperimentDefinition(
        experiment_id="ablation-k",
        title="Sensitivity to the result size k",
        paper_reference="Section IV (omitted experiments)",
        x_axis="result size k",
        points=tuple(points),
    )


def ablation_kmax(scale: str = "small") -> ExperimentDefinition:
    """Effect of the k_max multiplier on the Naive competitor (ablation A3)."""
    base = _base_config(scale)
    window = min(1_000, int(SCALES[scale]["max_window"]))
    points = []
    for multiplier in (1.0, 2.0, 4.0, 8.0):
        config = base.with_overrides(window_size=window)
        points.append(
            SweepPoint(
                label=f"kmax={multiplier}k",
                value=multiplier,
                config=config,
                engine_options={"kmax_multiplier": multiplier},
            )
        )
    return ExperimentDefinition(
        experiment_id="ablation-kmax",
        title="Effect of the k_max materialised-view size",
        paper_reference="Yi et al. enhancement (Section IV)",
        x_axis="k_max multiplier",
        points=tuple(points),
        engines=("ita", "naive-kmax"),
    )


def ablation_window_type(scale: str = "small") -> ExperimentDefinition:
    """Count-based versus time-based windows (ablation A4).

    The paper states "We use a count-based window; the results for a
    time-based one are similar."  The time-based window spans
    ``window_size / arrival_rate`` seconds so both hold the same expected
    number of valid documents.
    """
    base = _base_config(scale)
    window = min(1_000, int(SCALES[scale]["max_window"]))
    count_config = base.with_overrides(window_size=window, time_based_window=False)
    time_config = base.with_overrides(window_size=window, time_based_window=True)
    points = (
        SweepPoint(label="count-based", value=0, config=count_config),
        SweepPoint(label="time-based", value=1, config=time_config),
    )
    return ExperimentDefinition(
        experiment_id="ablation-window-type",
        title="Count-based versus time-based sliding windows",
        paper_reference="Section II / Section IV",
        x_axis="window type",
        points=points,
    )


def ablation_scoring(scale: str = "small") -> ExperimentDefinition:
    """Cosine versus Okapi BM25 similarity (ablation A5).

    The paper notes its techniques "are applicable to other measures, such
    as the Okapi formulation"; this ablation verifies that the relative
    ITA/Naive behaviour is preserved under BM25 impact weights.
    """
    base = _base_config(scale)
    window = min(1_000, int(SCALES[scale]["max_window"]))
    cosine_config = base.with_overrides(window_size=window, scoring="cosine")
    okapi_config = base.with_overrides(window_size=window, scoring="okapi")
    points = (
        SweepPoint(label="cosine", value=0, config=cosine_config),
        SweepPoint(label="okapi-bm25", value=1, config=okapi_config),
    )
    return ExperimentDefinition(
        experiment_id="ablation-scoring",
        title="Cosine versus Okapi BM25 weighting",
        paper_reference="Section II (similarity measures)",
        x_axis="similarity measure",
        points=points,
    )


def ablation_rollup(scale: str = "small") -> ExperimentDefinition:
    """Design choice: roll-up on versus off (ablation A6).

    The paper motivates the roll-up ("since S_k has increased, we should
    shrink the monitored region of the term-frequency space in order to
    reduce the number of future updates that need to be handled").  This
    ablation compares full ITA against an ITA whose thresholds are never
    raised, over a sweep of query lengths, to measure how many future
    updates the roll-up avoids.
    """
    base = _base_config(scale)
    window = min(1_000, int(SCALES[scale]["max_window"]))
    points = []
    for query_length in (4, 10, 20, 40):
        config = base.with_overrides(query_length=query_length, window_size=window)
        points.append(SweepPoint(label=f"n={query_length}", value=query_length, config=config))
    return ExperimentDefinition(
        experiment_id="ablation-rollup",
        title="Effect of threshold roll-up",
        paper_reference="Section III-B (roll-up design choice)",
        x_axis="query length n",
        points=tuple(points),
        engines=("ita", "ita-no-rollup"),
    )


def ablation_probe_order(scale: str = "small") -> ExperimentDefinition:
    """Design choice: weighted versus round-robin list probing (ablation A7).

    The paper departs from Fagin's round-robin threshold algorithm and
    probes the list with the highest ``w_{Q,t} * c_t`` instead.  This
    ablation measures the difference in postings read (``scores/event`` and
    the ``postings_scanned`` counter) between the two strategies.
    """
    base = _base_config(scale)
    window = min(1_000, int(SCALES[scale]["max_window"]))
    points = []
    for query_length in (4, 10, 20, 40):
        config = base.with_overrides(query_length=query_length, window_size=window)
        points.append(SweepPoint(label=f"n={query_length}", value=query_length, config=config))
    return ExperimentDefinition(
        experiment_id="ablation-probe-order",
        title="Weighted versus round-robin list probing",
        paper_reference="Section III-A (probing design choice)",
        x_axis="query length n",
        points=tuple(points),
        engines=("ita", "ita-round-robin"),
    )


def cluster_scaling(scale: str = "small") -> ExperimentDefinition:
    """Query partitioning: the sharded cluster versus the shard count
    (beyond the paper).

    The workload is fixed; only the number of shards of a
    :class:`~repro.cluster.engine.ShardedEngine` varies (1, 2, 4, 8), with
    cost-model-driven query placement.  Not a throughput play: every shard
    scores against the full window, so the stream is replicated to each of
    them and they run one after another in one call -- the headline
    ``mean_ms`` stays roughly flat.  What shrinks with N is the *per-shard*
    service time (1/N of the queries each), which the dispatcher's
    per-shard timers report (``tests/cluster/test_sharded_engine.py``).
    The cluster's end-to-end throughput is ``bench/``'s ``proc_cluster``
    workload against ``alerts_steady``.
    """
    base = _base_config(scale)
    window = min(1_000, int(SCALES[scale]["max_window"]))
    # Sharding targets the many-query regime (what is partitioned is the
    # query work; the replicated indexing is constant), so the sweep
    # installs several times the scale's default query count.
    num_queries = base.num_queries * (10 if scale == "smoke" else 4)
    config = base.with_overrides(window_size=window, num_queries=num_queries)
    points = []
    for num_shards in (1, 2, 4, 8):
        points.append(
            SweepPoint(
                label=f"shards={num_shards}",
                value=num_shards,
                config=config,
                engine_options={"num_shards": num_shards, "placement": "cost"},
            )
        )
    return ExperimentDefinition(
        experiment_id="cluster-scaling",
        title="Query-sharded cluster: per-shard work vs shard count",
        paper_reference="Beyond the paper (query partitioning)",
        x_axis="shard count",
        points=tuple(points),
        engines=("sharded-ita",),
        description=(
            "A ShardedEngine partitions the installed queries across N inner "
            "ITA engines with cost-model placement; per-shard service time "
            "shrinks with N while the merged results stay identical."
        ),
    )


def all_experiments(scale: str = "small") -> List[ExperimentDefinition]:
    """Every experiment of the reproduction, paper figures first."""
    return [
        figure_3a(scale),
        figure_3b(scale),
        ablation_num_queries(scale),
        ablation_k(scale),
        ablation_kmax(scale),
        ablation_window_type(scale),
        ablation_scoring(scale),
        ablation_rollup(scale),
        ablation_probe_order(scale),
        cluster_scaling(scale),
    ]
