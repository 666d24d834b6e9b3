"""Raw text through the service: the analysis seam and what the table may not change."""

from unittest import mock

import repro.text.analyzer as analyzer_module
from repro.documents.corpus import FileCorpus, InMemoryCorpus
from repro.documents.document import Document
from repro.service import EngineSpec, MonitoringService, WindowSpec
from repro.text.analyzer import Analyzer
from repro.text.vocabulary import Vocabulary
from repro.weighting.schemes import CosineWeighting
from tests.text.bench_text import TextGenerator, TextShape

_SHAPE = TextShape(vocab_size=400, median_tokens=50, stopword_rate=0.3, inflect_rate=0.5)


def _counting(instance, name):
    """Wrap ``instance.name`` on the instance, as ``bench/``'s spans do."""
    calls = []
    inner = getattr(instance, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    setattr(instance, name, wrapper)
    return calls


def test_every_ingested_text_passes_the_wrapped_seams_exactly_once():
    """A measurement (or a user) that wraps ``term_frequencies`` /
    ``document_weights`` on the instances it hands to the service must see
    each ingested text once: a fast path that bypassed the instances would
    zero ``text.analyze`` / ``weighting.weights`` in the benchmark's trace."""
    analyzer, weighting = Analyzer(), CosineWeighting()
    analysed = _counting(analyzer, "term_frequencies")
    weighted = _counting(weighting, "document_weights")
    service = MonitoringService(EngineSpec(window=WindowSpec.count(50)), analyzer=analyzer, weighting=weighting)
    service.subscribe("markets rally", k=2)
    del analysed[:], weighted[:]  # the query was analysed and weighted too

    texts = TextGenerator(5, _SHAPE).documents(12)
    service.ingest(texts[0])
    service.ingest(texts[1:9])
    service.ingest(iter(texts[9:]))
    assert [args[0] for args in analysed] == texts
    assert len(weighted) == len(texts)
    # Documents that arrive already analysed do not touch the analyzer.
    service.ingest(Document(doc_id=99, composition=service.engine.window.newest.composition))
    assert len(analysed) == len(weighted) == len(texts)


def _run(texts, queries):
    """Compositions (as float.hex) and alerts of one service over ``texts``."""
    service = MonitoringService(EngineSpec(window=WindowSpec.count(30)))
    alerts = []
    for query in queries:
        service.subscribe(query, k=3, on_change=alerts.append)
    compositions = []
    for index in range(0, len(texts), 7):
        service.ingest(texts[index : index + 7])
        # a subscription in mid-stream shares the table with the documents
        service.subscribe(queries[index % len(queries)], k=2, on_change=alerts.append)
    for streamed in service.engine.window:
        compositions.append([(t, w.hex()) for t, w in streamed.composition.items()])
    delivered = [
        (a.query_id, a.document.doc_id, a.change.entered, a.change.left) for a in alerts
    ]
    return compositions, delivered, service.analyzer.surface_table_stats(), list(service.vocabulary)


def test_a_table_of_no_entries_changes_no_composition_and_no_alert():
    generator = TextGenerator(11, _SHAPE)
    texts, queries = generator.documents(90), generator.queries(8, 4)
    with mock.patch.object(analyzer_module, "SURFACE_TABLE_CAPACITY", 0):
        bare = _run(texts, queries)
    tabled = _run(texts, queries)
    assert bare[3] == tabled[3], "term ids are handed out in the same order"
    assert bare[0] == tabled[0] and bare[0]
    assert bare[1] == tabled[1] and bare[1]
    assert bare[2]["entries"] == 0 and bare[2]["misses"] == bare[2]["tokens"]
    assert 0 < tabled[2]["misses"] == tabled[2]["entries"] < tabled[2]["tokens"]


def test_service_and_corpora_build_the_same_document(tmp_path):
    """``build_document`` is the one spelling of text -> Document."""
    texts = TextGenerator(13, _SHAPE).documents(5)
    service = MonitoringService()
    service.ingest(texts)
    ingested = [streamed.document for streamed in service.engine.window]

    in_memory = list(InMemoryCorpus(texts, analyzer=Analyzer(), vocabulary=Vocabulary()))
    for index, text in enumerate(texts):
        (tmp_path / f"{index}.txt").write_text(text, encoding="utf-8")
    from_files = list(FileCorpus(tmp_path, analyzer=Analyzer(), vocabulary=Vocabulary()))

    for built in (in_memory, from_files):
        assert [d.doc_id for d in built] == [d.doc_id for d in ingested] == list(range(5))
        assert [d.text for d in built] == texts
        assert [[(t, w.hex()) for t, w in d.composition.items()] for d in built] == [
            [(t, w.hex()) for t, w in d.composition.items()] for d in ingested
        ]
    assert from_files[0].metadata == {"path": str(tmp_path / "0.txt")}
    assert in_memory[0].metadata == ingested[0].metadata == {}

