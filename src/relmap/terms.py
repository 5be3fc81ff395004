"""Terms, term pairs, and the tokenizer shared by corpus and queries.

A term is a short run of 1-4 normalized word tokens ("planet",
"solar system"). Normalization is lowercasing plus stripping of
leading/trailing punctuation, with whitespace as the only token
separator; it is idempotent, so terms and corpus text can be
normalized independently and still match.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass, field

MAX_TERM_TOKENS = 4

_PUNCT = string.punctuation + "‘’“”–—"


@dataclass(frozen=True)
class Tokenizer:
    """Whitespace tokenizer with lowercasing and edge-punctuation stripping.

    The whole text is lowercased before it is split, so that the work
    per token runs in C calls, with no Python loop. That gives the
    tokens of lowercasing each word on its own: no character lowercases
    to whitespace or from it, and the final-sigma rule never looks
    across whitespace (tests/test_terms.py checks both over every code
    point).
    """

    lowercase: bool = True
    strip_punctuation: bool = True

    def tokenize(self, text: str) -> list[str]:
        tokens = (text.lower() if self.lowercase else text).split()
        if self.strip_punctuation:
            return list(filter(None, map(str.strip, tokens, itertools.repeat(_PUNCT))))
        return tokens


DEFAULT_TOKENIZER = Tokenizer()


@dataclass(frozen=True)
class Term:
    """A normalized vocabulary item; equality and hashing use tokens only."""

    tokens: tuple[str, ...]
    surface: str = field(compare=False, default="")

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("term has no tokens")
        if len(self.tokens) > MAX_TERM_TOKENS:
            raise ValueError(f"term {self.tokens!r} exceeds {MAX_TERM_TOKENS} tokens")
        for tok in self.tokens:
            if not tok or any(ch.isspace() for ch in tok):
                raise ValueError(f"bad token {tok!r} in term")
        if not self.surface:
            object.__setattr__(self, "surface", " ".join(self.tokens))

    @classmethod
    def parse(cls, text: str, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> "Term":
        toks = tokenizer.tokenize(text)
        if not toks:
            raise ValueError(f"term {text!r} is empty after normalization")
        return cls(tokens=tuple(toks), surface=text.strip())

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class TermPair:
    """An ordered pair of distinct terms; equality is by normalized tokens."""

    x: Term
    y: Term

    def __post_init__(self):
        if self.x == self.y:
            raise ValueError(f"pair requires distinct terms, got {self.x.text!r} twice")

    @classmethod
    def parse(cls, x: str, y: str) -> "TermPair":
        return cls(Term.parse(x), Term.parse(y))

    def reversed(self) -> "TermPair":
        return TermPair(self.y, self.x)

    @property
    def text(self) -> str:
        return f"{self.x.text}:{self.y.text}"

    def __str__(self) -> str:
        return self.text
