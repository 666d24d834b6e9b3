"""Tests for timers and summaries."""

import pytest

from repro.observability.timing import PercentileSummary, Timer, TimingSummary


class TestTimer:
    def test_context_manager_accumulates(self):
        timer = Timer()
        with timer:
            pass
        with timer:
            pass
        assert timer.count == 2
        assert timer.total_ms >= 0.0
        assert timer.mean_ms == pytest.approx(timer.total_ms / 2)

    def test_stop_returns_elapsed(self):
        timer = Timer()
        timer.start()
        elapsed = timer.stop()
        assert elapsed >= 0.0

    def test_double_start_rejected(self):
        timer = Timer()
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_mean_of_unused_timer_is_zero(self):
        assert Timer().mean_ms == 0.0

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.count == 0 and timer.total_ms == 0.0


class TestPercentileSummary:
    def test_empty_samples(self):
        summary = PercentileSummary.from_samples([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_known_distribution(self):
        samples = list(range(1, 101))  # 1..100
        summary = PercentileSummary.from_samples([float(s) for s in samples])
        assert summary.count == 100
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == 50.0
        assert summary.p90 == 90.0
        assert summary.p99 == 99.0

    def test_single_sample(self):
        summary = PercentileSummary.from_samples([3.5])
        assert summary.p50 == summary.p99 == 3.5


class TestTimingSummary:
    def test_record_and_mean(self):
        timing = TimingSummary()
        timing.record("ita", 1.0)
        timing.record("ita", 3.0)
        timing.record("naive", 10.0)
        assert timing.mean_ms("ita") == pytest.approx(2.0)
        assert timing.mean_ms("naive") == pytest.approx(10.0)
        assert timing.mean_ms("unknown") == 0.0
        assert sorted(timing.labels()) == ["ita", "naive"]

    def test_extend_and_samples(self):
        timing = TimingSummary()
        timing.extend("ita", [1.0, 2.0, 3.0])
        assert timing.samples("ita") == [1.0, 2.0, 3.0]
        assert timing.summary("ita").count == 3

    def test_merge(self):
        a = TimingSummary()
        a.record("ita", 1.0)
        b = TimingSummary()
        b.record("ita", 3.0)
        b.record("naive", 4.0)
        a.merge(b)
        assert a.mean_ms("ita") == pytest.approx(2.0)
        assert a.mean_ms("naive") == pytest.approx(4.0)
