"""Tests for the operation counters."""

from repro.observability.opcounters import OperationCounters


class TestOperationCounters:
    def test_defaults_to_zero(self):
        counters = OperationCounters()
        assert all(value == 0 for value in counters.as_dict().values())

    def test_as_dict_contains_all_fields(self):
        counters = OperationCounters()
        keys = counters.as_dict().keys()
        for expected in ("scores_computed", "rollup_steps", "refills", "arrivals"):
            assert expected in keys

    def test_reset(self):
        counters = OperationCounters(scores_computed=5, refills=2)
        counters.reset()
        assert counters.scores_computed == 0
        assert counters.refills == 0

    def test_merged_with(self):
        a = OperationCounters(scores_computed=5, arrivals=1)
        b = OperationCounters(scores_computed=2, expirations=3)
        merged = a.merged_with(b)
        assert merged.scores_computed == 7
        assert merged.arrivals == 1
        assert merged.expirations == 3
        # inputs untouched
        assert a.scores_computed == 5 and b.scores_computed == 2

    def test_subtraction(self):
        after = OperationCounters(scores_computed=10, refills=4)
        before = OperationCounters(scores_computed=6, refills=1)
        diff = after - before
        assert diff.scores_computed == 4
        assert diff.refills == 3

    def test_copy_is_independent(self):
        original = OperationCounters(scores_computed=1)
        snapshot = original.copy()
        original.scores_computed = 99
        assert snapshot.scores_computed == 1
