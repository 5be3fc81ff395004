import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tokenize_words
from relmap.terms import Term, TermPair, tokenize

from conftest import WHITESPACE, token_texts


def test_tokenize_strips_and_lowercases():
    toks = tokenize("The sun attracts the planet.")
    assert toks == ["the", "sun", "attracts", "the", "planet"]


def test_tokenize_drops_pure_punctuation():
    assert tokenize("hello *** -- world!!") == ["hello", "world"]


def test_term_parse_multiword():
    term = Term.parse("Solar  System")
    assert term.tokens == ("solar", "system")
    assert term.text == "solar system"


def test_term_equality_ignores_surface():
    assert Term.parse("SUN") == Term.parse("sun.")
    assert hash(Term.parse("SUN")) == hash(Term.parse("sun"))


def test_term_rejects_empty_and_oversized():
    with pytest.raises(ValueError):
        Term.parse("...")
    with pytest.raises(ValueError):
        Term.parse("a b c d e")


@given(st.text(max_size=40))
def test_normalization_idempotent(text):
    toks = tokenize(text)
    again = tokenize(" ".join(toks))
    assert toks == again


@given(token_texts)
@settings(max_examples=300)
def test_tokenize_equals_word_by_word_oracle(text):
    assert tokenize(text) == tokenize_words(text)


def test_lowercasing_the_whole_text_keeps_token_bounds():
    """Why `tokenize` may lowercase before it splits, checked over every code point.

    Lowercasing maps each character on its own, except capital sigma,
    whose form depends on the cased letters around it. So the text's
    words lowercase as they would alone when no character lowercases to
    whitespace or from it, and the sigma rule stops at whitespace.
    """
    for c in map(chr, range(sys.maxunicode + 1)):
        low = c.lower()
        if c.isspace():
            assert low and low.isspace(), hex(ord(c))
        else:
            assert not any(map(str.isspace, low)), hex(ord(c))
    for w in WHITESPACE:
        for text in ("AΣ" + w + "B", "A" + w + "Σ", "A" + w + "ΣB", "AΣ'" + w + "'B"):
            assert text.lower().split() == [word.lower() for word in text.split()], (
                hex(ord(w)), text)


def test_no_character_lowercases_to_a_slot_marker():
    """Why `tokenize` never emits "X" or "Y", checked over every code point:
    no character lowercases to a string holding either."""
    for c in map(chr, range(sys.maxunicode + 1)):
        low = c.lower()
        assert "X" not in low and "Y" not in low, hex(ord(c))


def test_pair_requires_distinct_terms():
    with pytest.raises(ValueError):
        TermPair.parse("sun", "Sun")


def test_pair_reversal_and_equality():
    p = TermPair.parse("sun", "solar system")
    assert p.reversed().reversed() == p
    assert p == TermPair.parse("SUN", "solar   system")
    assert p.text == "sun:solar system"
