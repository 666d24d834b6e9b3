"""Change collection: the pair diff reports what the entry diff reported.

:meth:`~repro.core.base.MonitoringEngine._collect_changes` compares each
touched query's top-k prefix as raw ``(-score, doc_id)`` pairs and builds
:class:`~repro.query.result.ResultEntry` objects only for the documents
that entered or left.  Three claims are pinned down here:

* on any before/after pair lists it returns the ``ResultChange`` lists of
  the snapshot diff it replaced (kept verbatim in
  :mod:`tests.core.parent_changes`), tuple order included;
* every engine's per-event changes equal two models that share none of
  the new code: the old diff over full snapshots of the engine's own
  results (a tie-heavy stream), and
  :class:`~repro.baselines.oracle.OracleEngine`'s own entry-based diff
  (a tie-free stream for all, the tie-heavy one for the tie-exact
  baselines);
* on the ingest path nothing builds an entry that is not reported:
  ``ResultList.top`` is never called and the number of ``ResultEntry``
  objects constructed is the number of entries in the emitted changes.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.base import MonitoringEngine
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, WindowSpec
from repro.query.query import ContinuousQuery
from repro.query.result import ResultEntry, ResultList
from repro.service.spec import spec_from_name
from tests.conftest import make_document
from tests.core.parent_changes import parent_collect_changes

ENGINE_NAMES = ["ita", "ita-columnar", "naive", "naive-kmax", "sharded-ita-2"]


# --------------------------------------------------------------------------- #
# 1. the diff itself
# --------------------------------------------------------------------------- #
class _FixedAfter(MonitoringEngine):
    """Just enough engine for ``_collect_changes``: a canned *after* state."""

    def __init__(self, after):
        self._after = after

    def _top_pairs(self, query_id):
        return self._after[query_id]


def entries(pairs):
    return [ResultEntry(doc_id=doc_id, score=-negative) for negative, doc_id in pairs]


def assert_matches_parent(before, after):
    expected = parent_collect_changes(
        {query_id: entries(pairs) for query_id, pairs in before.items()},
        lambda query_id: entries(after[query_id]),
    )
    assert _FixedAfter(after)._collect_changes(before) == expected
    return expected


#: A few scores only, so equal scores under different ids are the norm.
SCORES = st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0])


@st.composite
def ordered_prefix(draw, max_size=5):
    """A top-k prefix as the ordered view holds it: unique ids, ascending pairs."""
    ids = draw(st.lists(st.integers(0, 9), unique=True, max_size=max_size))
    return sorted((-draw(SCORES), doc_id) for doc_id in ids)


class TestPairDiffMatchesParentDiff:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 6), st.tuples(ordered_prefix(), ordered_prefix()), max_size=4
        )
    )
    @example({3: ([], [])})
    @example({3: ([], [(-0.5, 1)]), 1: ([(-0.5, 1)], [])})
    @example({0: ([(-1.0, 2), (-0.5, 4)], [(-1.0, 2), (-0.5, 4)])})
    @example({0: ([(-1.0, 2), (-0.5, 4)], [(-0.75, 7), (-0.25, 9)])})
    @example({0: ([(-0.5, 1), (-0.5, 2)], [(-0.5, 1), (-0.5, 3)])})
    def test_any_before_and_after(self, cases):
        before = {query_id: pair[0] for query_id, pair in cases.items()}
        after = {query_id: pair[1] for query_id, pair in cases.items()}
        assert_matches_parent(before, after)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_one_swap_at_the_last_position(self, k):
        before = [(-1.0, doc_id) for doc_id in range(k - 1)] + [(-0.5, 20)]
        # the same score under another id, then a better and a worse one
        for newcomer in [(-0.5, 21), (-0.75, 30), (-0.25, 31)]:
            after = sorted(before[:-1] + [newcomer])
            (change,) = assert_matches_parent({4: before}, {4: after})
            assert change.entered == tuple(entries([newcomer]))
            assert change.left == tuple(entries([before[-1]]))

    def test_reordering_alone_is_not_a_change(self):
        # Unequal pair lists over the same documents: nothing entered or left.
        before = [(-1.0, 1), (-0.5, 2)]
        after = [(-1.0, 2), (-0.5, 1)]
        assert assert_matches_parent({0: before}, {0: after}) == []

    def test_fewer_than_k_grows_and_shrinks(self):
        short, full = [(-1.0, 1)], [(-1.0, 1), (-0.5, 2), (-0.25, 3)]
        (grown,) = assert_matches_parent({0: short}, {0: full})
        assert grown.entered == tuple(entries(full[1:])) and grown.left == ()
        (shrunk,) = assert_matches_parent({0: full}, {0: short})
        assert shrunk.left == tuple(entries(full[1:])) and shrunk.entered == ()


# --------------------------------------------------------------------------- #
# 2. every engine against two independent models of "what changed"
# --------------------------------------------------------------------------- #
def stream_case(seed, pool_size, num_documents=160, num_terms=10):
    """Queries and documents with generic float weights.

    With ``pool_size`` the documents are copies of that many compositions,
    so most scores tie exactly (and only copies tie); with ``None`` every
    document has its own composition and no two positive scores tie.
    """
    rng = random.Random(seed)

    def composition(max_terms):
        terms = rng.sample(range(num_terms), rng.randint(1, max_terms))
        return {term: rng.uniform(0.05, 1.0) for term in terms}

    pool = [composition(4) for _ in range(pool_size or 0)]
    queries = [
        ContinuousQuery(query_id=query_id, weights=composition(3), k=rng.randint(1, 4))
        for query_id in range(8)
    ]
    documents = []
    clock = 0.0
    for doc_id in range(num_documents):
        clock += rng.choice([0.5, 1.0, 2.0, 6.0])
        weights = rng.choice(pool) if pool else composition(4)
        documents.append(make_document(doc_id, weights, arrival_time=clock))
    return queries, documents


def build(engine_name, window, queries):
    engine = spec_from_name(engine_name, window=window).build()
    for query in queries:
        engine.register_query(
            ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
        )
    return engine


def stream_ops(documents, batch_size, timed):
    """The calls of one run: batches, and on a time window a clock tick after every eighth document."""
    ops = []
    for start in range(0, len(documents), 8):
        chunk = documents[start : start + 8]
        for offset in range(0, len(chunk), batch_size):
            ops.append(("ingest", chunk[offset : offset + batch_size]))
        if timed:
            ops.append(("advance", chunk[-1].arrival_time + 0.25))
    return ops


def apply(engine, op):
    """One op's per-event change lists."""
    kind, argument = op
    if kind == "ingest":
        return engine.process_batch_events(argument)
    return [engine.advance_time(argument)]


def run_events(engine, documents, batch_size, timed):
    return [event for op in stream_ops(documents, batch_size, timed) for event in apply(engine, op)]


WINDOWS = pytest.mark.parametrize(
    "window", [WindowSpec.count(9), WindowSpec.time(7.0)], ids=["count", "time"]
)


class TestChangesAgainstIndependentModels:
    """The oracle breaks a tie at the k-th score by document age alone; ITA
    reports whichever tied document its R holds (a copy that arrived at
    exactly a local threshold is in R while its older twin is still unread
    -- the caveat of ``tests/conformance``'s tie-heavy tapes).  So on the
    tie-heavy stream the ITA family is held to the old full-snapshot diff
    of *its own* reported results, the tie-exact baselines to the oracle;
    on a tie-free stream everything is held to the oracle."""

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    @WINDOWS
    @pytest.mark.parametrize("seed", [3, 4])
    def test_tie_heavy_changes_are_the_full_snapshot_diff(self, engine_name, window, seed):
        queries, documents = stream_case(seed, pool_size=6)
        timed = window.kind == "time"
        engine = build(engine_name, window, queries)
        events = []
        for op in stream_ops(documents, 1, timed):
            before = engine.current_results()
            (event,) = apply(engine, op)
            assert event == parent_collect_changes(before, engine.current_result)
            events.append(event)
        assert sum(len(event) for event in events) > len(documents) // 2
        batched = build(engine_name, window, queries)
        assert run_events(batched, documents, 8, timed) == events

    @pytest.mark.parametrize(
        "engine_name, pool_size",
        [(name, None) for name in ENGINE_NAMES] + [("naive", 6), ("naive-kmax", 6)],
    )
    @WINDOWS
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_per_event_changes_equal_the_oracles(self, engine_name, pool_size, window, batch_size):
        queries, documents = stream_case(seed=7, pool_size=pool_size)
        timed = window.kind == "time"
        engine = build(engine_name, window, queries)
        oracle = build("oracle", window, queries)
        expected = run_events(oracle, documents, 1, timed)
        assert sum(len(event) for event in expected) > len(documents) // 2
        assert run_events(engine, documents, batch_size, timed) == expected
        assert engine.current_results() == oracle.current_results()


# --------------------------------------------------------------------------- #
# 3. nothing is built that is not reported
# --------------------------------------------------------------------------- #
class TestIngestBuildsOnlyReportedEntries:
    @pytest.mark.parametrize("storage", ["bisect", "columnar"])
    def test_entries_constructed_equal_entries_reported(self, storage, monkeypatch):
        queries, documents = stream_case(seed=5, pool_size=6, num_documents=120)
        engine = ITAEngine(CountBasedWindow(9), storage=storage)
        for query in queries:
            engine.register_query(query)

        built = []
        scanned = []
        original_init = ResultEntry.__init__
        original_below = ResultList.entries_below

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original_init(self, *args, **kwargs)

        def counting_below(self, score):
            found = original_below(self, score)
            scanned.extend(found)
            return found

        def forbidden_top(self, k):
            raise AssertionError("ResultList.top called on the ingest path")

        monkeypatch.setattr(ResultEntry, "__init__", counting_init)
        monkeypatch.setattr(ResultList, "entries_below", counting_below)
        monkeypatch.setattr(ResultList, "top", forbidden_top)
        events = []
        for start in range(0, len(documents), 8):
            events.extend(engine.process_batch_events(documents[start : start + 8]))
        monkeypatch.undo()

        reported = sum(
            len(change.entered) + len(change.left) for changes in events for change in changes
        )
        assert reported > 0
        # The reference state's eviction scan (bisect only) reads entries
        # under tau; the fused kernel walks the same suffix as raw pairs.
        if storage == "columnar":
            assert not scanned
        assert len(built) - len(scanned) == reported
