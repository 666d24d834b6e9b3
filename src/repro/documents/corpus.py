"""Document corpora.

Three corpus implementations are provided:

* :class:`InMemoryCorpus` -- wraps a list of raw texts; used by the
  examples and the tests.
* :class:`FileCorpus` -- reads ``*.txt`` files from a directory tree, so a
  real newswire collection can be streamed if one is available locally.
* :class:`SyntheticCorpus` -- the WSJ stand-in: generates documents whose
  term-rank distribution follows a Zipf-Mandelbrot law over a fixed
  dictionary and whose lengths follow a log-normal distribution.  See
  DESIGN.md ("Substitutions") for why this preserves the behaviour the
  paper's evaluation exercises.

Every corpus yields :class:`~repro.documents.document.Document` objects with
fully-built composition lists, using a shared
:class:`~repro.text.vocabulary.Vocabulary` and a
:class:`~repro.weighting.WeightingScheme`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.documents.document import CompositionList, Document
from repro.exceptions import ConfigurationError, DocumentError
from repro.text.analyzer import Analyzer
from repro.text.vocabulary import Vocabulary
from repro.text.zipf import ZipfMandelbrotSampler
from repro.weighting.schemes import CosineWeighting, WeightingScheme

__all__ = [
    "build_document",
    "Corpus",
    "InMemoryCorpus",
    "FileCorpus",
    "SyntheticCorpusConfig",
    "SyntheticCorpus",
    "TopicalCorpusConfig",
    "TopicalSyntheticCorpus",
]


def build_document(
    doc_id: int,
    weighting: WeightingScheme,
    term_frequencies: Optional[Mapping[int, int]] = None,
    text: Optional[str] = None,
    metadata: Optional[Dict[str, str]] = None,
    analyzer: Optional[Analyzer] = None,
    vocabulary: Optional[Vocabulary] = None,
) -> Document:
    """The one place frequencies become a :class:`Document`.

    Given ``term_frequencies`` by term id, weight them; without them,
    ``analyzer`` first counts the terms of ``text`` and ``vocabulary``
    assigns their ids in first-seen order.  The corpora and
    :meth:`MonitoringService.ingest` of a ``str`` all come through here, so
    a text means the same composition list wherever it enters.  The
    weights are checked whole (:meth:`CompositionList._adopted`), and
    the fresh dict the weighting returns becomes the list's own.
    """
    if term_frequencies is None:
        term_frequencies = vocabulary.add_counts(analyzer.term_frequencies(text))
    return Document(
        doc_id=doc_id,
        composition=CompositionList._adopted(weighting.document_weights(term_frequencies)),
        text=text,
        metadata=metadata or {},
    )


class Corpus:
    """Base class for document sources.

    A corpus is an iterable of :class:`Document`; subclasses implement
    :meth:`iter_documents`.  Document ids are assigned sequentially by the
    corpus starting from ``first_doc_id``.
    """

    def __init__(
        self,
        vocabulary: Optional[Vocabulary] = None,
        weighting: Optional[WeightingScheme] = None,
        first_doc_id: int = 0,
    ) -> None:
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self.weighting = weighting if weighting is not None else CosineWeighting()
        self._next_doc_id = first_doc_id
        #: set by the corpora that read raw text
        self.analyzer: Optional[Analyzer] = None

    # ------------------------------------------------------------------ #
    def _build_document(
        self,
        term_frequencies: Optional[Mapping[int, int]] = None,
        text: Optional[str] = None,
        metadata: Optional[Dict[str, str]] = None,
    ) -> Document:
        """:func:`build_document` with this corpus's parts and next id."""
        document = build_document(
            self._next_doc_id,
            self.weighting,
            term_frequencies=term_frequencies,
            text=text,
            metadata=metadata,
            analyzer=self.analyzer,
            vocabulary=self.vocabulary,
        )
        self._next_doc_id += 1
        return document

    # ------------------------------------------------------------------ #
    def iter_documents(self) -> Iterator[Document]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Document]:
        return self.iter_documents()


class InMemoryCorpus(Corpus):
    """A corpus over an in-memory list of raw texts.

    Parameters
    ----------
    texts:
        The raw document texts, in stream order.
    analyzer:
        The :class:`Analyzer` used to extract terms.  The same analyzer
        should be used for query registration so the dictionaries agree.
    """

    def __init__(
        self,
        texts: Sequence[str],
        analyzer: Optional[Analyzer] = None,
        vocabulary: Optional[Vocabulary] = None,
        weighting: Optional[WeightingScheme] = None,
        metadata: Optional[Sequence[Dict[str, str]]] = None,
        first_doc_id: int = 0,
    ) -> None:
        super().__init__(vocabulary=vocabulary, weighting=weighting, first_doc_id=first_doc_id)
        self.analyzer = analyzer or Analyzer()
        self._texts = list(texts)
        if metadata is not None and len(metadata) != len(self._texts):
            raise ConfigurationError("metadata must align one-to-one with texts")
        self._metadata = list(metadata) if metadata is not None else None

    def __len__(self) -> int:
        return len(self._texts)

    def iter_documents(self) -> Iterator[Document]:
        for position, text in enumerate(self._texts):
            metadata = self._metadata[position] if self._metadata is not None else None
            yield self._build_document(text=text, metadata=metadata)


class FileCorpus(Corpus):
    """A corpus reading ``*.txt`` files from a directory (recursively).

    Files are streamed in sorted-path order so runs are reproducible.
    """

    def __init__(
        self,
        root: Path,
        pattern: str = "*.txt",
        analyzer: Optional[Analyzer] = None,
        vocabulary: Optional[Vocabulary] = None,
        weighting: Optional[WeightingScheme] = None,
        encoding: str = "utf-8",
        first_doc_id: int = 0,
    ) -> None:
        super().__init__(vocabulary=vocabulary, weighting=weighting, first_doc_id=first_doc_id)
        self.root = Path(root)
        if not self.root.exists():
            raise ConfigurationError(f"corpus root {self.root} does not exist")
        self.pattern = pattern
        self.encoding = encoding
        self.analyzer = analyzer or Analyzer()

    def iter_documents(self) -> Iterator[Document]:
        for path in sorted(self.root.rglob(self.pattern)):
            text = path.read_text(encoding=self.encoding, errors="replace")
            yield self._build_document(text=text, metadata={"path": str(path)})


@dataclass
class SyntheticCorpusConfig:
    """Parameters of the synthetic WSJ stand-in corpus.

    The defaults are scaled down from the paper's corpus statistics so the
    full benchmark suite runs in minutes on a laptop; the paper-scale
    values are kept alongside for reference:

    * dictionary size: paper 181,978 -> default 20,000 (configurable),
    * mean distinct terms per document: WSJ articles average a few hundred
      distinct terms -> log-normal with median ~=150,
    * Zipf-Mandelbrot exponent ~1.07, offset 2.7: standard fits for
      newswire vocabularies after stop-word removal.
    """

    dictionary_size: int = 20_000
    zipf_exponent: float = 1.07
    zipf_offset: float = 2.7
    mean_log_length: float = 5.0          # median document length e^5 ~= 148 tokens
    sigma_log_length: float = 0.45        # spread of the log-normal length law
    min_document_length: int = 10
    max_document_length: int = 2_000
    term_prefix: str = "term"
    seed: Optional[int] = 7

    def validate(self) -> None:
        if self.dictionary_size <= 0:
            raise ConfigurationError("dictionary_size must be positive")
        if self.min_document_length <= 0:
            raise ConfigurationError("min_document_length must be positive")
        if self.max_document_length < self.min_document_length:
            raise ConfigurationError("max_document_length must be >= min_document_length")
        if self.sigma_log_length <= 0:
            raise ConfigurationError("sigma_log_length must be positive")


class SyntheticCorpus(Corpus):
    """Generates an unbounded stream of synthetic Zipfian documents.

    The generator draws a target token count from a truncated log-normal
    law, then samples that many tokens from a Zipf-Mandelbrot distribution
    over the fixed dictionary; repeated draws of the same term accumulate
    into its term frequency, reproducing the within-document frequency
    skew of real text.

    Because the corpus is unbounded, :meth:`iter_documents` yields forever;
    use :meth:`take` or wrap it in a stream with a document budget.
    """

    def __init__(
        self,
        config: Optional[SyntheticCorpusConfig] = None,
        vocabulary: Optional[Vocabulary] = None,
        weighting: Optional[WeightingScheme] = None,
        first_doc_id: int = 0,
    ) -> None:
        self.config = config or SyntheticCorpusConfig()
        self.config.validate()
        if vocabulary is None:
            vocabulary = Vocabulary(
                f"{self.config.term_prefix}{i:06d}" for i in range(self.config.dictionary_size)
            )
            vocabulary.freeze()
        elif len(vocabulary) < self.config.dictionary_size:
            raise ConfigurationError(
                "provided vocabulary is smaller than the configured dictionary size"
            )
        super().__init__(vocabulary=vocabulary, weighting=weighting, first_doc_id=first_doc_id)
        self._rng = random.Random(self.config.seed)
        sampler_seed = None if self.config.seed is None else self.config.seed + 1
        self._sampler = ZipfMandelbrotSampler(
            n=self.config.dictionary_size,
            exponent=self.config.zipf_exponent,
            offset=self.config.zipf_offset,
            seed=sampler_seed,
        )

    # ------------------------------------------------------------------ #
    def _sample_length(self) -> int:
        length = int(round(self._rng.lognormvariate(
            self.config.mean_log_length, self.config.sigma_log_length
        )))
        return max(self.config.min_document_length,
                   min(self.config.max_document_length, length))

    def generate_document(self) -> Document:
        """Generate and return the next synthetic document."""
        length = self._sample_length()
        term_frequencies: Dict[int, int] = {}
        for _ in range(length):
            term_id = self._sampler.sample()
            term_frequencies[term_id] = term_frequencies.get(term_id, 0) + 1
        return self._build_document(term_frequencies, text=None, metadata={"synthetic": "true"})

    def take(self, count: int) -> List[Document]:
        """Generate exactly ``count`` documents."""
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        return [self.generate_document() for _ in range(count)]

    def iter_documents(self) -> Iterator[Document]:
        while True:
            yield self.generate_document()

    # ------------------------------------------------------------------ #
    def sample_query_terms(self, count: int, skew_towards_frequent: bool = True) -> List[int]:
        """Sample distinct term ids for building a workload query.

        The paper generates queries "with terms selected randomly from the
        dictionary".  Two modes are provided:

        * ``skew_towards_frequent=True`` draws terms from the same Zipfian
          law as the documents (queries tend to use real words, which are
          themselves Zipf-distributed), making document/query overlap
          realistic;
        * ``skew_towards_frequent=False`` draws uniformly from the
          dictionary, which is the literal reading of the paper's setup.
        """
        if count <= 0:
            raise ConfigurationError("count must be positive")
        if count > self.config.dictionary_size:
            raise ConfigurationError("cannot sample more distinct terms than the dictionary holds")
        chosen: Dict[int, None] = {}
        while len(chosen) < count:
            if skew_towards_frequent:
                term_id = self._sampler.sample()
            else:
                term_id = self._rng.randrange(self.config.dictionary_size)
            chosen.setdefault(term_id, None)
        return list(chosen.keys())


@dataclass
class TopicalCorpusConfig:
    """Parameters of the topical (clustered) synthetic corpus.

    Real newswire streams are not a single Zipfian bag of words: articles
    cluster into topics (markets, politics, sport, ...), and each topic
    favours a characteristic sub-vocabulary.  This richer generator assigns
    every document a topic and draws most of its terms from that topic's
    own Zipfian distribution, with a configurable fraction of "background"
    terms drawn from the global distribution.  The topical structure makes
    the overlap between a query and the documents depend on whether the
    query's terms fall in an active topic -- a more realistic stress test
    for the candidate-pruning of ITA than uniform term draws.
    """

    dictionary_size: int = 20_000
    num_topics: int = 20
    topic_vocabulary_size: int = 1_500
    background_fraction: float = 0.2
    zipf_exponent: float = 1.07
    zipf_offset: float = 2.7
    mean_log_length: float = 5.0
    sigma_log_length: float = 0.45
    min_document_length: int = 10
    max_document_length: int = 2_000
    term_prefix: str = "term"
    seed: Optional[int] = 7

    def validate(self) -> None:
        if self.dictionary_size <= 0:
            raise ConfigurationError("dictionary_size must be positive")
        if self.num_topics <= 0:
            raise ConfigurationError("num_topics must be positive")
        if not 1 <= self.topic_vocabulary_size <= self.dictionary_size:
            raise ConfigurationError("topic_vocabulary_size must be in [1, dictionary_size]")
        if not 0.0 <= self.background_fraction <= 1.0:
            raise ConfigurationError("background_fraction must be in [0, 1]")
        if self.min_document_length <= 0:
            raise ConfigurationError("min_document_length must be positive")
        if self.max_document_length < self.min_document_length:
            raise ConfigurationError("max_document_length must be >= min_document_length")
        if self.sigma_log_length <= 0:
            raise ConfigurationError("sigma_log_length must be positive")


class TopicalSyntheticCorpus(Corpus):
    """A synthetic corpus whose documents cluster into topics.

    Each document is assigned a topic uniformly at random; a fraction
    ``1 - background_fraction`` of its tokens is drawn from the topic's own
    Zipf-Mandelbrot distribution over a fixed slice of the dictionary, and
    the remainder from the global distribution.  This reproduces the
    topical sub-vocabulary structure of real newswire text.
    """

    def __init__(
        self,
        config: Optional[TopicalCorpusConfig] = None,
        vocabulary: Optional[Vocabulary] = None,
        weighting: Optional[WeightingScheme] = None,
        first_doc_id: int = 0,
    ) -> None:
        self.config = config or TopicalCorpusConfig()
        self.config.validate()
        if vocabulary is None:
            vocabulary = Vocabulary(
                f"{self.config.term_prefix}{i:06d}" for i in range(self.config.dictionary_size)
            )
            vocabulary.freeze()
        elif len(vocabulary) < self.config.dictionary_size:
            raise ConfigurationError(
                "provided vocabulary is smaller than the configured dictionary size"
            )
        super().__init__(vocabulary=vocabulary, weighting=weighting, first_doc_id=first_doc_id)
        self._rng = random.Random(self.config.seed)
        base_seed = None if self.config.seed is None else self.config.seed + 1
        self._background = ZipfMandelbrotSampler(
            n=self.config.dictionary_size,
            exponent=self.config.zipf_exponent,
            offset=self.config.zipf_offset,
            seed=base_seed,
        )
        # Build one term-id slice and sampler per topic.  Slices overlap
        # (topics share some vocabulary), which is realistic.
        self._topic_terms: List[List[int]] = []
        self._topic_samplers: List[ZipfMandelbrotSampler] = []
        slice_rng = random.Random(
            None if self.config.seed is None else self.config.seed + 2
        )
        for topic in range(self.config.num_topics):
            start = slice_rng.randrange(
                max(1, self.config.dictionary_size - self.config.topic_vocabulary_size + 1)
            )
            terms = list(range(start, start + self.config.topic_vocabulary_size))
            self._topic_terms.append(terms)
            topic_seed = None if self.config.seed is None else self.config.seed + 100 + topic
            self._topic_samplers.append(
                ZipfMandelbrotSampler(
                    n=len(terms),
                    exponent=self.config.zipf_exponent,
                    offset=self.config.zipf_offset,
                    seed=topic_seed,
                )
            )

    def _sample_length(self) -> int:
        length = int(round(self._rng.lognormvariate(
            self.config.mean_log_length, self.config.sigma_log_length
        )))
        return max(self.config.min_document_length,
                   min(self.config.max_document_length, length))

    def generate_document(self) -> Document:
        """Generate the next topical document."""
        topic = self._rng.randrange(self.config.num_topics)
        topic_terms = self._topic_terms[topic]
        topic_sampler = self._topic_samplers[topic]
        length = self._sample_length()
        term_frequencies: Dict[int, int] = {}
        for _ in range(length):
            if self._rng.random() < self.config.background_fraction:
                term_id = self._background.sample()
            else:
                term_id = topic_terms[topic_sampler.sample()]
            term_frequencies[term_id] = term_frequencies.get(term_id, 0) + 1
        return self._build_document(
            term_frequencies, text=None, metadata={"topic": str(topic)}
        )

    def take(self, count: int) -> List[Document]:
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        return [self.generate_document() for _ in range(count)]

    def iter_documents(self) -> Iterator[Document]:
        while True:
            yield self.generate_document()

    def topic_terms(self, topic: int) -> List[int]:
        """The dictionary slice used by ``topic`` (for building topical queries)."""
        if not 0 <= topic < self.config.num_topics:
            raise ConfigurationError(f"topic {topic} out of range")
        return list(self._topic_terms[topic])

    def sample_topic_query_terms(self, topic: int, count: int) -> List[int]:
        """Sample ``count`` distinct terms from ``topic``'s sub-vocabulary."""
        if count <= 0:
            raise ConfigurationError("count must be positive")
        terms = self._topic_terms[topic]
        if count > len(terms):
            raise ConfigurationError("cannot sample more terms than the topic vocabulary holds")
        return self._rng.sample(terms, count)
