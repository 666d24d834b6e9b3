"""The calibration task: how fast is the host *right now*?

The host the benchmark runs on shares its physical cores and caches with
neighbours.  A fixed piece of work, alone in the machine, runs up to 40%
slower for minutes at a time, and ten runs of one commit spread 10-40% on
every timing -- too much to tell a 10% regression from nothing.  So beside
every block of timed calls (and every set-up and recovery) the harness times
this task, a fixed amount of work that has nothing of the program's in it,
and reports each timing *relative to it*::

    reported = measured * REFERENCE_SECONDS / calibration measured beside it

``REFERENCE_SECONDS`` is a constant -- what the task takes on the host the
benchmark was built on, undisturbed -- so the reported numbers read as they
would on that host with no neighbours, and the constant cancels in every
comparison between two commits.  The measured (raw) numbers are printed
beside the reported ones and kept in every record.

The task is shaped like the program's work -- it strips fixed word lists,
counts terms in dictionaries, normalises, and keeps sorted postings in a few
MB of lists that stay alive between calls -- because what slows the host
slows different code differently.  Variants were tried on ten runs of
``alerts_steady`` in a bad half hour (throughput as measured: spread 8.2%,
range 25%): relative to an arithmetic loop 4.4% and 23% were left; relative
to a task touching 8x the memory, which over-corrects, 7.7% and 14%;
relative to this one 4.5% and 8%.  Three times two sets of ten runs of all
six workloads were made while the benchmark was built: relative to the task
no end-to-end timing ever spread more than 25% (once; 17-21% otherwise) and
no median moved more than 23% between two sets (once; 6-11% otherwise); as
measured, 17 to 32 of the 84 timings spread more than 25% each time (up to
55%) and medians moved by up to 43%.
"""

from __future__ import annotations

import gc
import math
import random
from bisect import insort
from statistics import median
from time import perf_counter
from typing import Dict, List

__all__ = ["REFERENCE_SECONDS", "Calibration"]

#: what one pass of the task takes on the reference host, undisturbed
REFERENCE_SECONDS = 2.3e-3

_WORDS = 20_000
_DOCUMENTS = 64
_TOKENS = 60
_POSTINGS_KEPT = 50


class Calibration:
    """A fixed amount of index-like work; :meth:`measure` times it."""

    def __init__(self) -> None:
        rng = random.Random(12345)  # fixed: the task must not depend on --seed
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = ["".join(rng.choice(letters) for _ in range(rng.randint(3, 10))) for _ in range(_WORDS)]
        self._documents = [[rng.choice(words) for _ in range(_TOKENS)] for _ in range(_DOCUMENTS)]
        self._index: Dict[str, List[float]] = {}
        for _ in range(_POSTINGS_KEPT):  # fill the posting lists to their steady size
            self._pass()

    def _pass(self) -> None:
        index = self._index
        for document in self._documents:
            counts: Dict[str, int] = {}
            for word in document:
                term = word[:-1] if word.endswith("s") else word
                counts[term] = counts.get(term, 0) + 1
            norm = math.sqrt(sum(count * count for count in counts.values()))
            for term, count in counts.items():
                postings = index.get(term)
                if postings is None:
                    index[term] = postings = []
                insort(postings, count / norm)
                if len(postings) > _POSTINGS_KEPT:
                    del postings[0]

    def measure(self, passes: int = 3) -> float:
        """Seconds one pass takes now: the median of ``passes``.

        The collector is off meanwhile: a collection the task triggered
        would scan the program's heap and make the task's time depend on the
        program.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(passes):
                started = perf_counter()
                self._pass()
                times.append(perf_counter() - started)
            return median(times)
        finally:
            if was_enabled:
                gc.enable()
