"""Seeded raw-text generator for the benchmark.

Everything the program under test receives is a plain string made here:
documents and query texts.  The generator is independent of
``repro.text.zipf`` / ``SyntheticCorpus`` on purpose -- the benchmark must
not share code with the program it measures -- and ``seed`` is its only
source of randomness.

The text is shaped like English as far as the analyzer can tell:

* a dictionary of pronounceable pseudo-words, ranked by a Zipf-Mandelbrot
  law ``p(r) ~ 1 / (r + q) ** s``;
* each word may surface inflected (``-s`` / ``-ed`` / ``-ing``), so the
  stemmer has work to do and the number of distinct *surface forms* (what
  the stemmer caches) is up to four times the dictionary size;
* a share of the tokens are real English stopwords, which the stop-word
  filter removes;
* document lengths are lognormal; tokens are grouped into capitalised
  sentences ending in a period.

Two things are **stratified** rather than drawn independently, so that runs
on different seeds do the same amount of work and differ only in which text
does it (drawn independently, the work per document -- scores computed,
threshold probes -- spread 11-12% between seeds, decided by whether one of
the few very frequent words happened to land in a query):

* every ``LENGTH_CYCLE`` consecutive documents have the same lengths, the
  quantiles of the lognormal, in an order the seed decides;
* the query terms of one ``queries()`` call are one word from each of
  equally many strata of consecutive frequency ranks, dealt out at random
  -- still "terms selected randomly from the dictionary", but every band of
  the frequency table is hit equally often on every seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from statistics import NormalDist
from typing import Iterable, List

__all__ = ["STOPWORDS", "LENGTH_CYCLE", "TextShape", "TextGenerator", "digest_texts"]

#: documents per cycle of stratified lengths
LENGTH_CYCLE = 100

#: real English function words (every one is on any standard stop list)
STOPWORDS = (
    "the of and to in is that for it as was with be by on not he this are or "
    "his from at which but have an had they you were their one all we can her "
    "has there been if more when will would who so no out up into than them "
    "then its these some what only over such after also most those through "
    "before between very being where both each about because during under"
).split()

_SUFFIXES = ("", "s", "ed", "ing")
_ONSETS = "b c d f g h j k l m n p r s t v w z br cr dr fl gr pl pr st tr".split()
_VOWELS = "a e i o u ai ea ou".split()
_CODAS = ("", "", "", "n", "r", "l", "m", "t", "k")


@dataclass(frozen=True)
class TextShape:
    """The statistical shape of one workload's text."""

    #: dictionary size (base pseudo-words)
    vocab_size: int
    #: median tokens per document (lognormal location)
    median_tokens: int
    #: lognormal sigma of the document length
    length_sigma: float = 0.35
    #: Zipf-Mandelbrot exponent and shift
    zipf_s: float = 1.0
    zipf_q: float = 2.7
    #: share of tokens that are stopwords
    stopword_rate: float = 0.0
    #: share of content tokens that surface inflected
    inflect_rate: float = 0.0


def _pseudo_words(rng: random.Random, count: int) -> List[str]:
    """``count`` distinct pronounceable words, none of them a stopword."""
    taken = set(STOPWORDS)
    words: List[str] = []
    while len(words) < count:
        syllables = rng.choice((2, 2, 3, 3, 4))
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


class TextGenerator:
    """Deterministic documents and queries for one ``(seed, shape)``.

    Documents and queries draw from separate random streams, and documents
    are produced strictly one after the other, so ``documents(a)`` followed
    by ``documents(b)`` yields the same texts as ``documents(a + b)``.
    """

    def __init__(self, seed: int, shape: TextShape) -> None:
        self.shape = shape
        self.words = _pseudo_words(random.Random(f"{seed}:words"), shape.vocab_size)
        self._doc_rng = random.Random(f"{seed}:documents")
        self._query_rng = random.Random(f"{seed}:queries")
        # One population holds every surface form and every stopword, so a
        # document's tokens are a single weighted draw.
        population: List[str] = []
        weights: List[float] = []
        content_share = 1.0 - shape.stopword_rate
        ranks = [1.0 / (rank + shape.zipf_q) ** shape.zipf_s for rank in range(1, shape.vocab_size + 1)]
        norm = content_share / sum(ranks)
        inflected = shape.inflect_rate / (len(_SUFFIXES) - 1)
        for word, rank_weight in zip(self.words, ranks):
            mass = rank_weight * norm
            if shape.inflect_rate > 0.0:
                for suffix in _SUFFIXES:
                    population.append(word + suffix)
                    weights.append(mass * (inflected if suffix else 1.0 - shape.inflect_rate))
            else:
                population.append(word)
                weights.append(mass)
        if shape.stopword_rate > 0.0:
            stop_ranks = [1.0 / (rank + 1.0) for rank in range(len(STOPWORDS))]
            stop_norm = shape.stopword_rate / sum(stop_ranks)
            population.extend(STOPWORDS)
            weights.extend(weight * stop_norm for weight in stop_ranks)
        self._population = population
        self._cum_weights = list(accumulate(weights))
        normal = NormalDist(math.log(shape.median_tokens), shape.length_sigma)
        self._cycle_lengths = [
            max(5, int(math.exp(normal.inv_cdf((index + 0.5) / LENGTH_CYCLE)))) for index in range(LENGTH_CYCLE)
        ]
        self._lengths: List[int] = []

    @property
    def surface_forms(self) -> int:
        """How many distinct token strings the generator can emit."""
        return len(self._population)

    def document(self) -> str:
        rng = self._doc_rng
        if not self._lengths:
            self._lengths = rng.sample(self._cycle_lengths, LENGTH_CYCLE)
        length = self._lengths.pop()
        tokens = rng.choices(self._population, cum_weights=self._cum_weights, k=length)
        sentences: List[str] = []
        start = 0
        while start < length:
            stop = start + rng.randint(6, 18)
            sentences.append(" ".join(tokens[start:stop]).capitalize() + ".")
            start = stop
        return " ".join(sentences)

    def documents(self, count: int) -> List[str]:
        return [self.document() for _ in range(count)]

    def queries(self, count: int, terms: int) -> List[str]:
        """``count`` query texts of ``terms`` distinct dictionary words each.

        The paper's "terms selected randomly from the dictionary",
        stratified by frequency rank (see the module docstring): the
        ``count * terms`` words are one from each of as many equal bands of
        the dictionary, which must be at least that large.
        """
        rng = self._query_rng
        slots = count * terms
        stride = len(self.words) / slots
        if stride < 1.0:
            raise ValueError(f"{slots} query terms need a dictionary of at least that many words")
        chosen = [
            self.words[rng.randrange(int(slot * stride), int((slot + 1) * stride))] for slot in range(slots)
        ]
        rng.shuffle(chosen)
        return [" ".join(chosen[index : index + terms]) for index in range(0, slots, terms)]


def digest_texts(digest: "hashlib._Hash", texts: Iterable[str]) -> None:
    """Fold ``texts`` into ``digest``, length-prefixed so boundaries count."""
    for text in texts:
        data = text.encode("utf-8")
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)
