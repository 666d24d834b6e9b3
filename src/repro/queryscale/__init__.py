"""Query-scale subsystem: canonicalization/dedup and weight compaction.

Millions of standing queries are massively redundant; this package makes
k-distinct-of-N-subscribed cost O(distinct) in CPU and memory.  See
:mod:`repro.queryscale.manager` for the design notes and
``docs/ARCHITECTURE.md`` ("Query scale: dedup and compaction") for the big picture.

Enable it through the service spec::

    spec = spec_from_name("sharded-ita-4").with_overrides(
        queryscale=QueryScaleOptions(dedup=True, compact_weights=True)
    )
"""

from repro.queryscale.interning import CompactWeights, TermTable
from repro.queryscale.manager import CanonicalQuery, QueryScaleManager, canonical_key
from repro.queryscale.options import QueryScaleOptions
from repro.queryscale.sizing import deep_size_of, getsizeof_reliable

__all__ = [
    "CanonicalQuery",
    "CompactWeights",
    "QueryScaleManager",
    "QueryScaleOptions",
    "TermTable",
    "canonical_key",
    "deep_size_of",
    "getsizeof_reliable",
]
