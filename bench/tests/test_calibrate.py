"""The calibration task: fixed work, nothing of the seed's or the program's in it."""

import gc

from calibrate import Calibration


def test_the_task_is_the_same_every_time():
    first, second = Calibration(), Calibration()
    assert first._documents == second._documents
    assert {term: len(postings) for term, postings in first._index.items()} == {
        term: len(postings) for term, postings in second._index.items()
    }
    before = sum(len(postings) for postings in first._index.values())
    assert first.measure() > 0
    assert sum(len(postings) for postings in first._index.values()) == before  # steady size


def test_the_collector_is_left_as_it_was():
    calibration = Calibration()
    assert gc.isenabled()
    calibration.measure()
    assert gc.isenabled()
    gc.disable()
    try:
        calibration.measure()
        assert not gc.isenabled()
    finally:
        gc.enable()
