"""Tests for the from-scratch Porter stemmer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.stemmer import NullStemmer, PorterStemmer
from tests.text.bench_text import TEXT_HEAVY, TextGenerator
from tests.text.parent_chain import ParentPorterStemmer


@pytest.fixture(scope="module")
def stemmer():
    return PorterStemmer()


class TestPorterStemmerKnownCases:
    """Classic examples from Porter's original paper and common IR suites."""

    @pytest.mark.parametrize(
        "word, expected",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("formaliti", "formal"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ],
    )
    def test_known_stem(self, stemmer, word, expected):
        assert stemmer.stem(word) == expected

    def test_monitoring_family_collapses(self, stemmer):
        stems = {stemmer.stem(w) for w in ("monitor", "monitors", "monitoring", "monitored")}
        assert stems == {"monitor"}

    def test_query_and_document_forms_agree(self, stemmer):
        # "weapons" in the query must match "weapon" in a document.
        assert stemmer.stem("weapons") == stemmer.stem("weapon")


class TestPorterStemmerBehaviour:
    def test_short_words_unchanged(self, stemmer):
        assert stemmer.stem("go") == "go"
        assert stemmer.stem("at") == "at"

    def test_lowercases_input(self, stemmer):
        assert stemmer.stem("Running") == stemmer.stem("running")

    def test_non_alphabetic_returned_as_is(self, stemmer):
        assert stemmer.stem("b2b") == "b2b"
        assert stemmer.stem("1992") == "1992"

    def test_callable_protocol(self, stemmer):
        assert stemmer("walking") == stemmer.stem("walking")

    def test_stem_all(self, stemmer):
        assert stemmer.stem_all(["cats", "dogs"]) == ["cat", "dog"]

    def test_the_stemmer_keeps_no_cache(self):
        # The memo is the analyzer's surface-form table; a second one here
        # would hold the same strings twice.
        with pytest.raises(TypeError):
            PorterStemmer(cache_size=2)
        assert not vars(PorterStemmer())

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_stem_never_longer_than_word(self, word):
        stemmer = PorterStemmer()
        assert len(stemmer.stem(word)) <= len(word)

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_stemming_is_deterministic(self, word):
        assert PorterStemmer().stem(word) == PorterStemmer().stem(word)

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=3, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_stem_is_nonempty_for_alpha_words(self, word):
        assert PorterStemmer().stem(word)


# Letters and endings that steer a random word into the rules the rewrite
# touched: y (consonant or vowel by position), doubled consonants, the *o
# condition's w/x/y, and every step-1 to step-5 suffix.
_SUFFIXES = (
    "s sses ies ss eed ed ing at bl iz y e ll "
    "ational tional enci anci izer abli alli entli eli ousli ization ation ator alism iveness fulness "
    "ousness aliti iviti biliti icate ative alize iciti ical ful ness "
    "al ance ence er ic able ible ant ement ment ent ou ism ate iti ous ive ize ion sion tion"
).split()
_letters = st.text(alphabet="abcdefghijklmnopqrstuvwxyz" + "y" * 6 + "aeiou" * 2 + "lstzwx", max_size=8)
_doubled = st.sampled_from("bdfglmnprstz").map(lambda letter: letter * 2)
_porter_word = st.builds(
    "".join,
    st.lists(st.one_of(_letters, _doubled, st.sampled_from(_SUFFIXES)), min_size=1, max_size=4),
).filter(lambda word: 1 <= len(word) <= 20)


class TestSameStemsAsTheParent:
    """The rewrite (one consonant/vowel string per word, suffix rules found
    by penultimate letter) changes no stem."""

    def test_every_surface_form_of_the_text_heavy_workload(self):
        forms = TextGenerator(7, TEXT_HEAVY)._population
        assert len(forms) > 150_000
        new, parent = PorterStemmer().stem, ParentPorterStemmer(cache_size=0).stem
        assert [new(form) for form in forms] == [parent(form) for form in forms]

    @given(_porter_word)
    @settings(max_examples=3000, deadline=None)
    def test_words_built_from_the_rules(self, word):
        assert PorterStemmer().stem(word) == ParentPorterStemmer(cache_size=0).stem(word)

    @pytest.mark.parametrize("word", ["Yyy", "SKY", "café", "naïve", "straße", "éééing", "yéying", "b2b", "it's", ""])
    def test_case_and_letters_outside_a_to_z(self, word):
        assert PorterStemmer().stem(word) == ParentPorterStemmer().stem(word)


class TestNullStemmer:
    def test_identity(self):
        stemmer = NullStemmer()
        assert stemmer.stem("running") == "running"
        assert stemmer("Running") == "Running"
        assert stemmer.stem_all(["a", "b"]) == ["a", "b"]
