"""Change collection as it stood at commit 88fe797, frozen as a test oracle.

``MonitoringEngine._collect_changes`` used to take two full
``ResultEntry`` snapshots of every query an event touched -- the top-k
before and ``current_result`` after -- and diff them with
``_diff_results``, dropping the change when nothing entered or left.  It
now compares the raw ``(-score, doc_id)`` prefixes and builds entries only
for what moved.  The change promises *the same ``ResultChange`` lists*;
this module is the old code, kept verbatim so the tests can hold it to
that.

Do not tidy or speed it up: its value is that it has not changed.
``ResultChange`` and ``ResultEntry`` are imported, not copied -- they did
not change.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.core.base import ResultChange
from repro.query.result import ResultEntry

__all__ = ["parent_collect_changes", "parent_diff_results"]


def parent_collect_changes(
    before: Dict[int, List[ResultEntry]],
    current_result: Callable[[int], List[ResultEntry]],
) -> List[ResultChange]:
    """``MonitoringEngine._collect_changes`` at 88fe797 (``self.current_result`` passed in)."""
    changes: List[ResultChange] = []
    for query_id in sorted(before):
        change = parent_diff_results(
            query_id, before[query_id], current_result(query_id)
        )
        if change.changed:
            changes.append(change)
    return changes


def parent_diff_results(
    query_id: int,
    before: Sequence[ResultEntry],
    after: Sequence[ResultEntry],
) -> ResultChange:
    """Compute the entered/left sets between two reported results."""
    before_ids = {entry.doc_id for entry in before}
    after_ids = {entry.doc_id for entry in after}
    entered = tuple(entry for entry in after if entry.doc_id not in before_ids)
    left = tuple(entry for entry in before if entry.doc_id not in after_ids)
    return ResultChange(query_id=query_id, entered=entered, left=left)
