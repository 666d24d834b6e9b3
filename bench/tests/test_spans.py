"""Span bookkeeping: parents, trace ids, and self times that add up."""

import json
import time

from spans import Recorder


def _tree(recorder):
    leaf = recorder.wrap(lambda: time.sleep(0.002), "leaf")

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    middle = recorder.wrap(middle, "middle")

    def root():
        middle()
        time.sleep(0.001)

    return recorder.wrap(root, "root")


def test_parents_and_trace_ids():
    recorder = Recorder()
    root = _tree(recorder)
    root()
    root()
    names = [span[0] for span in recorder.spans]
    assert names == ["root", "middle", "leaf", "leaf"] * 2
    parents = [span[3] for span in recorder.spans]
    assert parents == [-1, 0, 1, 1, -1, 4, 5, 5]
    assert [span[4] for span in recorder.spans] == [1] * 4 + [2] * 4


def test_self_times_add_up_to_the_roots():
    recorder = Recorder()
    root = _tree(recorder)
    for _ in range(5):
        root()
    totals = recorder.self_times()
    assert {name: count for name, (_, count) in totals.items()} == {"root": 5, "middle": 5, "leaf": 10}
    roots = sum(recorder.durations("root"))
    assert abs(sum(total for total, _ in totals.values()) - roots) < 1e-9
    assert totals["leaf"][0] >= 10 * 0.002
    assert totals["root"][0] < roots - totals["leaf"][0]


def test_a_slice_of_whole_traces():
    recorder = Recorder()
    root = _tree(recorder)
    root()
    mark = recorder.mark()
    root()
    later = recorder.self_times(mark)
    assert later["leaf"][1] == 2
    first = recorder.self_times(0, mark)
    assert abs(first["root"][0] + first["middle"][0] + first["leaf"][0] - recorder.durations("root", 0, mark)[0]) < 1e-9


def test_an_exception_still_closes_the_span():
    recorder = Recorder()

    def boom():
        raise ValueError("x")

    traced = recorder.wrap(boom, "boom")
    try:
        traced()
    except ValueError:
        pass
    assert recorder.spans[0][2] >= recorder.spans[0][1] > 0
    recorder.wrap(lambda: None, "next")()
    assert recorder.spans[1][3] == -1, "the failed span must not stay on the stack"


def test_patch_shadows_one_instance_only():
    class Layer:
        def work(self):
            return 42

    recorder = Recorder()
    patched, untouched = Layer(), Layer()
    recorder.patch(patched, "work", "layer.work")
    assert patched.work() == 42 and untouched.work() == 42
    assert [span[0] for span in recorder.spans] == ["layer.work"]


def test_chrome_trace_dump(tmp_path):
    recorder = Recorder()
    _tree(recorder)()
    path = tmp_path / "out" / "trace.json"
    recorder.dump_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [event["name"] for event in events] == ["root", "middle", "leaf", "leaf"]
    assert all(event["ph"] == "X" and event["dur"] > 0 for event in events)
