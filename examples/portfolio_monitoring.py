"""Domain example: portfolio monitoring on the synthetic corpus at scale.

This example matches the paper's evaluation setup more closely than the
other two: it streams the synthetic WSJ stand-in corpus through a large set
of randomly generated continuous queries (standing "portfolio" interests),
and reports the per-arrival processing time and the score-computation
savings of ITA against the k_max-enhanced Naive competitor.

It is effectively a miniature, self-contained version of the Figure 3
benchmarks, runnable directly without pytest.  The engines are described
by :class:`~repro.EngineSpec` (the same typed specs the façade,
persistence and experiment harness use), and ITA is additionally measured
through ``process_batch`` -- the batch call the
:class:`~repro.MonitoringService` ingest and the benchmark harness make.

Run with::

    python examples/portfolio_monitoring.py
"""

from __future__ import annotations

import time

from repro import EngineSpec, WindowSpec
from repro.documents.corpus import SyntheticCorpus, SyntheticCorpusConfig
from repro.documents.stream import PoissonArrivalProcess, stream_from_documents
from repro.query.query import ContinuousQuery


def build_queries(corpus: SyntheticCorpus, count: int, query_length: int, k: int):
    return [
        ContinuousQuery.from_term_ids(
            query_id=query_id,
            term_ids=corpus.sample_query_terms(query_length, skew_towards_frequent=False),
            k=k,
        )
        for query_id in range(count)
    ]


def prepare_engine(spec: EngineSpec, prefill, queries):
    """Build the specced engine, pre-fill its window, install the queries."""
    engine = spec.build()
    engine.process_batch(prefill)
    for query in queries:
        engine.register_query(query)
    engine.counters.reset()
    return engine


def run_sequential(engine, measured) -> float:
    started = time.perf_counter()
    for document in measured:
        engine.process(document)
    return (time.perf_counter() - started) * 1000.0 / len(measured)


def run_batched(engine, measured, batch_size: int = 64) -> float:
    started = time.perf_counter()
    for start in range(0, len(measured), batch_size):
        engine.process_batch(measured[start : start + batch_size])
    return (time.perf_counter() - started) * 1000.0 / len(measured)


def main() -> None:
    num_queries = 400
    query_length = 8
    k = 10
    window_size = 1_000
    measured_events = 150

    config = SyntheticCorpusConfig(dictionary_size=20_000, mean_log_length=4.0, seed=42)
    corpus = SyntheticCorpus(config)
    queries = build_queries(corpus, num_queries, query_length, k)

    documents = corpus.take(window_size + measured_events)
    arrivals = PoissonArrivalProcess(rate=200.0, seed=7)
    streamed = list(stream_from_documents(documents, arrivals))
    prefill, measured = streamed[:window_size], streamed[window_size:]

    print("Portfolio monitoring -- synthetic WSJ stand-in corpus")
    print("=" * 70)
    print(f"  queries        : {num_queries} (length {query_length}, k={k})")
    print(f"  window size    : {window_size} documents")
    print(f"  measured events: {measured_events}")
    print(f"  dictionary     : {config.dictionary_size} terms")
    print()

    window = WindowSpec.count(window_size)
    ita_spec = EngineSpec(kind="ita", window=window, track_changes=False)
    kmax_spec = EngineSpec(
        kind="naive-kmax", window=window, track_changes=False, kmax_multiplier=2.0
    )

    ita = prepare_engine(ita_spec, prefill, queries)
    ita_ms = run_sequential(ita, measured)
    ita_batched = prepare_engine(ita_spec, prefill, queries)
    ita_batched_ms = run_batched(ita_batched, measured)
    kmax = prepare_engine(kmax_spec, prefill, queries)
    kmax_ms = run_sequential(kmax, measured)

    print(f"  ITA            : {ita_ms:6.3f} ms/arrival   "
          f"{ita.counters.scores_computed / measured_events:8.1f} scores/arrival")
    print(f"  ITA (batched)  : {ita_batched_ms:6.3f} ms/arrival   "
          f"(identical results through process_batch)")
    print(f"  Naive (kmax)   : {kmax_ms:6.3f} ms/arrival   "
          f"{kmax.counters.scores_computed / measured_events:8.1f} scores/arrival")
    print()
    best_ita_ms = min(ita_ms, ita_batched_ms)
    speedup = kmax_ms / best_ita_ms if best_ita_ms else float("inf")
    score_ratio = (
        kmax.counters.scores_computed / ita.counters.scores_computed
        if ita.counters.scores_computed
        else float("inf")
    )
    print(f"  ITA is {speedup:.1f}x faster in wall-clock time and computes "
          f"{score_ratio:.0f}x fewer similarity scores.")
    print()
    print("  (Increase num_queries towards the paper's 1,000 to widen the gap: the")
    print("   Naive cost grows linearly with the query count, ITA's does not.")
    print("   `python -m repro.workloads.cli bench-all` writes the same kind of")
    print("   measurement to BENCH_results.json for the whole workload suite.)")


if __name__ == "__main__":
    main()
