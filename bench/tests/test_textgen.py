"""The generator: the seed is the only source of randomness."""

import hashlib

import pytest

from textgen import LENGTH_CYCLE, STOPWORDS, TextGenerator, TextShape, digest_texts

SHAPE = TextShape(vocab_size=2_000, median_tokens=40, stopword_rate=0.3, inflect_rate=0.4)


def _digest(seed: int, documents: int = 200, queries: int = 20) -> str:
    generator = TextGenerator(seed, SHAPE)
    digest = hashlib.sha256()
    digest_texts(digest, generator.documents(documents))
    digest_texts(digest, generator.queries(queries, 10))
    return digest.hexdigest()


def test_same_seed_same_digest():
    assert _digest(7) == _digest(7)


def test_different_seed_different_digest():
    assert _digest(7) != _digest(8)


def test_documents_do_not_depend_on_chunking_or_on_queries():
    whole = TextGenerator(3, SHAPE).documents(60)
    chunked = TextGenerator(3, SHAPE)
    first = chunked.documents(25)
    chunked.queries(5, 10)
    assert first + chunked.documents(35) == whole


def test_digest_counts_boundaries():
    a, b = hashlib.sha256(), hashlib.sha256()
    digest_texts(a, ["ab", "c"])
    digest_texts(b, ["a", "bc"])
    assert a.hexdigest() != b.hexdigest()


def test_text_has_the_requested_shape():
    generator = TextGenerator(11, SHAPE)
    assert generator.surface_forms == SHAPE.vocab_size * 4 + len(STOPWORDS)
    tokens = [token.strip(".").lower() for text in generator.documents(300) for token in text.split()]
    stop_share = sum(token in set(STOPWORDS) for token in tokens) / len(tokens)
    assert 0.25 < stop_share < 0.35
    bases = set(generator.words)
    inflected = sum(token not in bases and token not in set(STOPWORDS) for token in tokens) / len(tokens)
    assert 0.2 < inflected < 0.36  # 0.4 of the 70% content tokens
    lengths = sorted(len(text.split()) for text in generator.documents(300))
    assert 30 <= lengths[len(lengths) // 2] <= 50


def test_queries_are_distinct_dictionary_words():
    generator = TextGenerator(5, SHAPE)
    for query in generator.queries(50, 10):
        words = query.split()
        assert len(set(words)) == 10
        assert set(words) <= set(generator.words)


def test_every_cycle_of_documents_has_the_same_lengths():
    first, second = TextGenerator(5, SHAPE), TextGenerator(6, SHAPE)
    cycles = [
        [len(text.split()) for text in generator.documents(LENGTH_CYCLE)]
        for generator in (first, first, second)
    ]
    assert cycles[0] != cycles[1] != cycles[2]  # the order is the seed's
    assert sorted(cycles[0]) == sorted(cycles[1]) == sorted(cycles[2])
    assert len(set(cycles[0])) > 20  # and the lengths do vary


def test_query_terms_cover_every_band_of_the_frequency_table():
    generator = TextGenerator(5, SHAPE)
    rank = {word: index for index, word in enumerate(generator.words)}
    terms = [word for query in generator.queries(20, 10) for word in query.split()]
    stride = SHAPE.vocab_size // len(terms)
    assert sorted(rank[word] // stride for word in terms) == list(range(len(terms)))
    with pytest.raises(ValueError):
        generator.queries(SHAPE.vocab_size // 10 + 1, 10)
