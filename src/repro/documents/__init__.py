"""Document model, corpora, streams and sliding windows.

This package models the input side of the paper's system:

* :mod:`repro.documents.document` -- a streamed document together with its
  *composition list* of ``(term, weight)`` pairs and arrival time.
* :mod:`repro.documents.corpus` -- sources of documents: an in-memory
  corpus, a directory-of-text-files corpus, and the synthetic Zipfian
  corpus that substitutes for the proprietary WSJ collection.
* :mod:`repro.documents.stream` -- arrival processes (Poisson, as in the
  paper's evaluation, plus fixed-rate and replay) that attach arrival
  timestamps to corpus documents.
* :mod:`repro.documents.window` -- count-based and time-based sliding
  windows that decide which documents are *valid* at any instant.
"""

from repro.documents.document import CompositionList, Document, StreamedDocument
from repro.documents.corpus import (
    Corpus,
    FileCorpus,
    InMemoryCorpus,
    SyntheticCorpus,
    SyntheticCorpusConfig,
    TopicalCorpusConfig,
    TopicalSyntheticCorpus,
    build_document,
)
from repro.documents.stream import (
    ArrivalProcess,
    DocumentStream,
    FixedRateArrivalProcess,
    PoissonArrivalProcess,
    ReplayArrivalProcess,
)
from repro.documents.window import CountBasedWindow, SlidingWindow, TimeBasedWindow

__all__ = [
    "CompositionList",
    "Document",
    "StreamedDocument",
    "build_document",
    "Corpus",
    "InMemoryCorpus",
    "FileCorpus",
    "SyntheticCorpus",
    "SyntheticCorpusConfig",
    "TopicalCorpusConfig",
    "TopicalSyntheticCorpus",
    "ArrivalProcess",
    "PoissonArrivalProcess",
    "FixedRateArrivalProcess",
    "ReplayArrivalProcess",
    "DocumentStream",
    "CountBasedWindow",
    "TimeBasedWindow",
    "SlidingWindow",
]
