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
  objects constructed is the number of entries in the emitted changes;
* the columnar kernel takes no snapshots at all: it records the pairs
  that cross position ``k`` where they cross it, and what it reports is
  still the snapshot diff -- on tie-heavy tapes, and on hand-written
  events built around the ways a record of moves can go wrong.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.base import MonitoringEngine, ResultChange
from repro.core.descent import ProbeOrder
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, WindowSpec
from repro.query.query import ContinuousQuery
from repro.query.result import ResultEntry, ResultList
from repro.service.spec import spec_from_name
from tests.conftest import count_constructions, make_document
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

        scanned = []
        original_below = ResultList.entries_below

        def counting_below(self, score):
            found = original_below(self, score)
            scanned.extend(found)
            return found

        def forbidden_top(self, k):
            raise AssertionError("ResultList.top called on the ingest path")

        built = count_constructions(monkeypatch, ResultEntry)
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
        assert built[ResultEntry] - len(scanned) == reported


# --------------------------------------------------------------------------- #
# 4. the kernel's moves across position k
# --------------------------------------------------------------------------- #
#: Every weight from four values: products and sums of them collide all the
#: time, so equal scores, arrivals at exactly a local threshold and ties
#: admitted by a descent are the norm rather than the exception.
ALPHABET = [0.25, 0.5, 0.75, 1.0]


def tie_tape(seed, k, num_documents=140):
    """Six queries of the same ``k`` and a stream whose clock sometimes jumps
    most of a 7.0 time window, expiring several documents in one event."""
    rng = random.Random(seed)

    def composition(num_terms):
        return {term: rng.choice(ALPHABET) for term in rng.sample(range(num_terms), rng.randint(1, 3))}

    queries = [ContinuousQuery(query_id=query_id, weights=composition(6), k=k) for query_id in range(6)]
    documents = []
    clock = 0.0
    for doc_id in range(num_documents):
        clock += rng.choice([0.5, 1.0, 2.0, 6.0])
        documents.append(make_document(doc_id, composition(7), arrival_time=clock))
    return queries, documents


def columnar_engine(window, queries, **options):
    engine = ITAEngine(window.build(), storage="columnar", **options)
    for query in queries:
        engine.register_query(query)
    return engine


def full_lists(engine):
    """Every query's whole R as ``(-score, doc_id)`` pairs, rank order."""
    return {
        query_id: list(engine.state_of(query_id).results._ordered._items)
        for query_id in engine.query_ids()
    }


class TestKernelMovesEqualTheSnapshotDiff:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @WINDOWS
    @pytest.mark.parametrize("probe_order", list(ProbeOrder), ids=lambda order: order.name.lower())
    def test_tie_heavy_tapes(self, k, window, probe_order):
        queries, documents = tie_tape(seed=10 + k, k=k)
        engine = columnar_engine(window, queries, probe_order=probe_order)
        events = []
        most_expirations = 0
        for document in documents:
            before = engine.current_results()
            expirations = engine.counters.expirations
            (event,) = engine.process_batch_events([document])
            assert event == parent_collect_changes(before, engine.current_result)
            most_expirations = max(most_expirations, engine.counters.expirations - expirations)
            events.append(event)
        assert sum(len(event) for event in events) > len(documents)
        assert engine.counters.refills > 10
        if window.kind == "time":
            assert most_expirations >= 3

        batched = columnar_engine(window, queries, probe_order=probe_order)
        assert run_events(batched, documents, 8, timed=False) == events

        # Untracked, the same state and work and nothing reported.
        for batch_size in (1, 8):
            untracked = columnar_engine(
                window, queries, probe_order=probe_order, track_changes=False
            )
            silent = run_events(untracked, documents, batch_size, timed=False)
            assert silent == [[] for _ in documents]
            assert full_lists(untracked) == full_lists(engine)
            assert untracked.counters.as_dict() == engine.counters.as_dict()

    @pytest.mark.parametrize("k", [1, 2, 4])
    @WINDOWS
    def test_no_eviction_names_a_reported_pair(self, k, window):
        """Evictions are the one mutation of R the kernel does not record: they
        come last in an event, so each must lie past the k-th pair that is left."""
        queries, documents = tie_tape(seed=20 + k, k=k)
        engine = columnar_engine(window, queries)
        evicted = 0
        for document in documents:
            before = full_lists(engine)
            engine.process_batch_events([document])
            in_window = engine.index.documents._documents
            for query_id, after in full_lists(engine).items():
                gone = [
                    pair
                    for pair in set(before[query_id]).difference(after)
                    if pair[1] in in_window
                ]
                evicted += len(gone)
                for pair in gone:
                    assert len(after) >= k and pair > after[k - 1]
        assert 0 < evicted <= engine.counters.result_evictions


def ingest(engine, doc_id, weights, arrival_time=None):
    """One event on ``engine``, checked against the snapshot diff."""
    clock = float(doc_id) if arrival_time is None else arrival_time
    before = engine.current_results()
    (event,) = engine.process_batch_events([make_document(doc_id, weights, arrival_time=clock)])
    assert event == parent_collect_changes(before, engine.current_result)
    return event


def change(query_id, entered, left):
    return ResultChange(query_id, tuple(entries(entered)), tuple(entries(left)))


class TestTheWaysARecordOfMovesGoesWrong:
    def test_the_pair_that_slid_up_was_not_reported(self):
        """A descent is diffed against what is left of the *reported* prefix.
        Document 1 sits at position k in R; when 0 expires it slides up and
        the (empty) descent leaves it there, so it enters -- and the arrival
        pushes it straight out again, so over the event it does neither."""
        query = ContinuousQuery(query_id=0, weights={0: 0.25, 1: 1.0}, k=1)
        engine = columnar_engine(WindowSpec.count(2), [query])
        assert ingest(engine, 0, {1: 1.0}) == [change(0, [(-1.0, 0)], [])]
        assert ingest(engine, 1, {0: 0.5}) == []
        assert full_lists(engine)[0] == [(-1.0, 0), (-0.125, 1)]
        refills = engine.counters.refills
        assert ingest(engine, 2, {1: 0.5}) == [change(0, [(-0.5, 2)], [(-1.0, 0)])]
        assert engine.counters.refills == refills + 1

    def test_slid_up_on_the_fast_path_then_pushed_out(self):
        """Entered and left within one event with the certificate intact: 1 ties
        the reported 0 and is verified, slides up when 0 expires, and leaves
        again (R too: the roll-up uncovers it) when the arrival outscores it."""
        query = ContinuousQuery(query_id=0, weights={0: 1.0}, k=1)
        engine = columnar_engine(WindowSpec.count(2), [query])
        ingest(engine, 0, {0: 0.5})
        assert ingest(engine, 1, {0: 0.5}) == []
        assert full_lists(engine)[0] == [(-0.5, 0), (-0.5, 1)]
        refills = engine.counters.refills
        assert ingest(engine, 2, {0: 0.75}) == [change(0, [(-0.75, 2)], [(-0.5, 0)])]
        assert engine.counters.refills == refills
        assert full_lists(engine)[0] == [(-0.75, 2)]

    def test_a_refill_admits_a_tie_that_outranks_a_reported_pair(self):
        """Document 4 arrived at exactly a local threshold and is reported while
        its older twin 3 is still unread.  The refill after 2 expires reads 3,
        which ties 4 and outranks it by id; the arrival then pushes 4 out."""
        query = ContinuousQuery(query_id=0, weights={0: 0.5, 1: 0.5}, k=2)
        engine = columnar_engine(WindowSpec.count(4), [query])
        ingest(engine, 0, {2: 1.0})
        ingest(engine, 1, {0: 1.0})
        ingest(engine, 2, {0: 0.75})
        assert ingest(engine, 3, {0: 0.5}) == []  # under the threshold roll-up left at 0.75
        ingest(engine, 4, {2: 0.75, 1: 0.5})
        assert ingest(engine, 5, {2: 0.5}) == [change(0, [(-0.25, 4)], [(-0.5, 1)])]
        assert full_lists(engine)[0] == [(-0.375, 2), (-0.25, 4)]
        assert ingest(engine, 6, {2: 0.5, 0: 0.75}) == [
            change(0, [(-0.375, 6), (-0.25, 3)], [(-0.375, 2), (-0.25, 4)])
        ]

    def test_a_tie_removed_below_position_k_that_still_refills(self):
        """``score >= S_k`` also holds for a tie *below* position k, whose
        removal leaves the reported prefix whole: the base of that diff is all
        k pairs, or the reported 4 would be taken for a newcomer.  With the
        certificate intact such a removal never refills, so it is taken away
        by hand here."""
        query = ContinuousQuery(query_id=0, weights={0: 1.0}, k=1)
        engine = columnar_engine(WindowSpec.time(10.0), [query])
        ingest(engine, 1, {0: 1.0}, arrival_time=0.0)
        ingest(engine, 7, {0: 1.0}, arrival_time=1.0)
        assert ingest(engine, 2, {0: 0.5}, arrival_time=5.0) == []  # under the threshold at 1.0
        ingest(engine, 4, {0: 1.0}, arrival_time=7.0)
        assert full_lists(engine)[0] == [(-1.0, 1), (-1.0, 4), (-1.0, 7)]
        assert ingest(engine, 8, {1: 1.0}, arrival_time=10.5) == [
            change(0, [(-1.0, 4)], [(-1.0, 1)])
        ]
        # no document verifies: the next removal at or above S_k refills
        engine.state_of(0).tau = 2.0
        refills = engine.counters.refills
        assert ingest(engine, 9, {1: 1.0}, arrival_time=11.5) == []  # 7 expires, 4 stays
        assert engine.counters.refills == refills + 1
        assert full_lists(engine)[0] == [(-1.0, 4)]
        assert engine.state_of(0).tau == 1.0
