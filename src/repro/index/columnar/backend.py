"""Registry adapter for the columnar storage backend."""

from __future__ import annotations

from typing import Callable

from repro.index.backend import StorageBackend
from repro.index.columnar.postings import ColumnarInvertedList
from repro.index.columnar.thresholds import ColumnarThresholdTree

__all__ = ["ColumnarStorageBackend"]


class ColumnarStorageBackend(StorageBackend):
    """Array-column containers plus the fused kernels.

    The backend opts into *virtual cold lists*: only terms with a
    registered query (or promoted by an explicit ordered read) carry
    columns; for every other term the index records which documents
    brought it and builds the columns from that term's own postings on
    first watch.  Since threshold probes, roll-up candidates and descents
    only ever read query terms, the per-event substrate work for unwatched
    terms is one list append per arrival and nothing per expiration.
    """

    name = "columnar"
    virtual_cold_lists = True

    def make_inverted_list(self, term_id: int) -> ColumnarInvertedList:
        return ColumnarInvertedList(term_id)

    def make_threshold_tree(self, term_id: int) -> ColumnarThresholdTree:
        return ColumnarThresholdTree(term_id)

    def build_inverted_list(self, term_id: int, postings) -> ColumnarInvertedList:
        return ColumnarInvertedList.from_postings(term_id, postings)

    def attach_tree(self, inverted_list, tree) -> None:
        inverted_list._tree = tree

    def batch_kernel(self) -> Callable:
        from repro.index.columnar.kernel import columnar_batch_events

        return columnar_batch_events

    def descent_kernel(self) -> Callable:
        from repro.index.columnar.kernel import columnar_descent

        return columnar_descent
