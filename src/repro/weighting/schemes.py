"""Weighting schemes: cosine (Formula (1)) and Okapi BM25.

A weighting scheme converts raw term frequencies into the per-term weights
stored in composition lists (documents) and query vectors.  The continuous
query engines only ever consume the resulting :class:`WeightedVector`
objects and the scalar similarity ``S(d|Q) = sum_t w_{Q,t} * w_{d,t}``, so
new schemes can be plugged in without touching the engines -- exactly the
property the paper appeals to when it says the techniques "are applicable
to other measures, such as the Okapi formulation".

Important detail reproduced from the paper: document weights are normalised
over *all* the document's terms (the whole dictionary ``T``), while query
weights are normalised over the query's own terms only.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul, truediv
from typing import Dict, Iterable, Mapping, Optional, Protocol, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "WeightedVector",
    "WeightingScheme",
    "CosineWeighting",
    "OkapiBM25Weighting",
    "dot_product",
]


#: A sparse weighted term vector: ``{term_id: weight}``.
WeightedVector = Dict[int, float]


def dot_product(query_weights: Mapping[int, float], document_weights: Mapping[int, float]) -> float:
    """Return ``sum_t w_{Q,t} * w_{d,t}`` over the query's terms.

    Iterates over the smaller mapping for efficiency; the result is the
    similarity score of the paper's Formula (1) once both vectors have been
    produced by a :class:`WeightingScheme`.
    """
    if len(document_weights) < len(query_weights):
        small, large = document_weights, query_weights
    else:
        small, large = query_weights, document_weights
    score = 0.0
    for term_id, weight in small.items():
        other = large.get(term_id)
        if other is not None:
            score += weight * other
    return score


class WeightingScheme(Protocol):
    """Interface implemented by all weighting schemes."""

    def document_weights(self, term_frequencies: Mapping[int, int]) -> WeightedVector:
        """Turn a document's raw term frequencies into indexable weights."""
        ...  # pragma: no cover - protocol

    def query_weights(self, term_frequencies: Mapping[int, int]) -> WeightedVector:
        """Turn a query's raw term frequencies into query weights."""
        ...  # pragma: no cover - protocol


class CosineWeighting:
    """The cosine / vector-space weighting of the paper's Formula (1).

    ``w_{d,t} = f_{d,t} / sqrt(sum_{t'} f_{d,t'}^2)`` and analogously for
    queries.  Optionally a sub-linear (logarithmic) term-frequency damping
    can be applied before normalisation, a standard vector-space variant
    (``1 + ln f``); the paper's formula corresponds to ``log_tf=False``.
    """

    def __init__(self, log_tf: bool = False) -> None:
        self.log_tf = log_tf

    # ------------------------------------------------------------------ #
    def document_weights(self, term_frequencies: Mapping[int, int]) -> WeightedVector:
        counts = term_frequencies.values()
        # Counts not > 0, NaN ones included, carry no weight.  Once they
        # are gone each step is one C-level pass in dict order; the built-in
        # sum adds the squares with the interpreter's rounding (compensated
        # from Python 3.12 on), so no other summation may stand in for it.
        if not counts or not min(counts) > 0 or math.isnan(sum(counts)):
            term_frequencies = {t: f for t, f in term_frequencies.items() if f > 0}
            counts = term_frequencies.values()
        if self.log_tf:
            values = list(map(add, repeat(1.0), map(math.log, counts)))
        else:
            values = list(map(float, counts))
        norm = math.sqrt(sum(map(mul, values, values)))
        if norm == 0.0:
            return {}
        return dict(zip(term_frequencies, map(truediv, values, repeat(norm))))

    def query_weights(self, term_frequencies: Mapping[int, int]) -> WeightedVector:
        # Same normalisation; queries are normalised over their own terms,
        # which is exactly what this computes since only query terms appear
        # in the mapping.
        return self.document_weights(term_frequencies)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(log_tf={self.log_tf})"


class OkapiBM25Weighting:
    """Okapi BM25-style impact weighting.

    BM25 is usually written as a scoring function over the query and the
    document; to fit the dot-product interface required by the inverted
    file (impact entries must carry a single per-document-per-term weight),
    we follow the standard "impact-ordered index" decomposition:

    * document weight for term ``t``:
        ``w_{d,t} = ((k1 + 1) f_{d,t}) / (k1 ((1-b) + b dl/avdl) + f_{d,t})``
    * query weight for term ``t``:
        ``w_{Q,t} = f_{Q,t} * idf(t)``  (idf is optional because in a
        streaming window the collection statistics drift; see below).

    The engine computes ``S(d|Q) = sum_t w_{Q,t} * w_{d,t}`` exactly as with
    cosine weights, so the incremental threshold machinery is untouched.

    Because document frequencies change as the window slides, using a live
    idf would retroactively change already-indexed impact weights and break
    the threshold invariants.  We therefore freeze the idf statistics at
    weighting time (``idf_provider`` may be a static snapshot, or ``None``
    to use uniform idf = 1), which is the standard practical compromise for
    impact-ordered streaming indexes.
    """

    def __init__(
        self,
        k1: float = 1.2,
        b: float = 0.75,
        average_document_length: float = 200.0,
        idf_provider: Optional[Mapping[int, float]] = None,
    ) -> None:
        if k1 < 0:
            raise ConfigurationError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ConfigurationError("b must be in [0, 1]")
        if average_document_length <= 0:
            raise ConfigurationError("average_document_length must be positive")
        self.k1 = k1
        self.b = b
        self.average_document_length = average_document_length
        self._idf = dict(idf_provider) if idf_provider is not None else None

    # ------------------------------------------------------------------ #
    def _idf_of(self, term_id: int) -> float:
        if self._idf is None:
            return 1.0
        return self._idf.get(term_id, 1.0)

    def document_weights(self, term_frequencies: Mapping[int, int]) -> WeightedVector:
        document_length = float(sum(f for f in term_frequencies.values() if f > 0))
        if document_length == 0.0:
            return {}
        length_norm = self.k1 * (
            (1.0 - self.b) + self.b * document_length / self.average_document_length
        )
        weights: WeightedVector = {}
        for term_id, frequency in term_frequencies.items():
            if frequency <= 0:
                continue
            weights[term_id] = ((self.k1 + 1.0) * frequency) / (length_norm + frequency)
        return weights

    def query_weights(self, term_frequencies: Mapping[int, int]) -> WeightedVector:
        weights: WeightedVector = {}
        for term_id, frequency in term_frequencies.items():
            if frequency <= 0:
                continue
            weights[term_id] = float(frequency) * self._idf_of(term_id)
        return weights

    @classmethod
    def with_idf_snapshot(
        cls,
        document_frequencies: Mapping[int, int],
        collection_size: int,
        k1: float = 1.2,
        b: float = 0.75,
        average_document_length: float = 200.0,
    ) -> "OkapiBM25Weighting":
        """Build a scheme with a frozen idf snapshot.

        Uses the standard BM25 idf ``ln(1 + (N - df + 0.5) / (df + 0.5))``.
        """
        if collection_size <= 0:
            raise ConfigurationError("collection_size must be positive")
        idf: Dict[int, float] = {}
        for term_id, df in document_frequencies.items():
            df = max(0, min(df, collection_size))
            idf[term_id] = math.log(1.0 + (collection_size - df + 0.5) / (df + 0.5))
        return cls(
            k1=k1,
            b=b,
            average_document_length=average_document_length,
            idf_provider=idf,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(k1={self.k1}, b={self.b}, "
            f"avdl={self.average_document_length})"
        )
