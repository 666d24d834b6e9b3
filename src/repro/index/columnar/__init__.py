"""Columnar storage backend: scoring state as parallel ``array`` columns.

Instead of one Python object (or tuple) per posting, the columnar backend
stores each inverted list as two parallel stdlib :mod:`array` columns --
``array('d')`` of negated weights and ``array('q')`` of document ids --
and each threshold tree as parallel threshold/query-id columns.  The flat
C buffers keep the binary searches of the hot path on contiguous memory,
a deletion removes its cell as an insertion adds one (every cell is a
posting), and the backend ships a fused batch kernel
(:mod:`repro.index.columnar.kernel`) that inlines the whole per-event
probe/score/roll-up/evict loop over the raw columns and reports an event's
result changes from the pairs that crossed position k.

Columns exist only for terms somebody watches (or whose order was read);
for the rest the index records which documents brought the term and sorts
that term's own postings on first watch, so the postings no query reads
are never sorted.  Standard library only.

Importing this package registers the backend under the name
``"columnar"`` (the registry in :mod:`repro.index.backend` also imports
it lazily on first ``storage_backend("columnar")`` call).
"""

from repro.index.backend import register_storage_backend
from repro.index.columnar.backend import ColumnarStorageBackend
from repro.index.columnar.postings import ColumnarInvertedList
from repro.index.columnar.thresholds import ColumnarThresholdTree

__all__ = [
    "ColumnarStorageBackend",
    "ColumnarInvertedList",
    "ColumnarThresholdTree",
]

register_storage_backend("columnar", ColumnarStorageBackend)
