"""Terms, term pairs, and the one tokenizer shared by corpus and queries.

A term is a short run of 1-4 normalized word tokens ("planet",
"solar system"). Normalization is lowercasing plus stripping of
leading/trailing punctuation, with whitespace as the only token
separator; it is idempotent, so terms and corpus text can be
normalized independently and still match. There is one tokenizer, with
no settings; the index cache's format tag (`corpus._CACHE_FORMAT`)
stands for it, so a change to `tokenize` must bump that tag.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass

MAX_TERM_TOKENS = 4

_PUNCT = string.punctuation + "‘’“”–—"

# The slot markers of a mined pattern, which `tokenize` never emits: it
# lowercases, and "*" is edge punctuation. Mining relies on that.
X_SLOT = "X"
Y_SLOT = "Y"
WILDCARD = "*"
MARKERS = (X_SLOT, Y_SLOT, WILDCARD)


def tokenize(text: str) -> list[str]:
    """Whitespace tokens of `text`, lowercased, with edge punctuation stripped.

    The whole text is lowercased before it is split, so that the work
    per token runs in C calls, with no Python loop. That gives the
    tokens of lowercasing each word on its own: no character lowercases
    to whitespace or from it, and the final-sigma rule never looks
    across whitespace (tests/test_terms.py checks both over every code
    point).
    """
    return list(filter(None, map(str.strip, text.lower().split(), itertools.repeat(_PUNCT))))


@dataclass(frozen=True)
class Term:
    """A normalized vocabulary item: a run of 1-4 tokens."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("term has no tokens")
        if len(self.tokens) > MAX_TERM_TOKENS:
            raise ValueError(f"term {self.tokens!r} exceeds {MAX_TERM_TOKENS} tokens")
        for tok in self.tokens:
            if not tok or any(ch.isspace() for ch in tok):
                raise ValueError(f"bad token {tok!r} in term")

    @classmethod
    def parse(cls, text: str) -> "Term":
        toks = tokenize(text)
        if not toks:
            raise ValueError(f"term {text!r} is empty after normalization")
        return cls(tokens=tuple(toks))

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
