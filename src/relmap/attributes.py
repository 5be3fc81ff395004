"""Attributional similarity providers.

Every provider is total and symmetric: unknown inputs score zero, and
sim(a, b) == sim(b, a). Values feed the attributional and hybrid
solvers, so magnitudes matter only relative to one another.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path

from .corpus import CorpusIndex, cooccurrence_counts
from .errors import DataError
from .terms import Term

logger = logging.getLogger(__name__)

POS_EXACT = 100.0
POS_TAG_MATCH = 10.0


class PosSimilarity:
    """100 for identical terms, 10 for matching part-of-speech tags, else 0.

    The large identical-term value keeps exact matches ahead of any
    additive combination with another measure. Terms without a tag are
    warned about once and score 0 (unless identical).
    """

    def __init__(self, tags: dict[str, str]):
        self.tags = dict(tags)
        self._warned: set[str] = set()

    def sim(self, a: Term, b: Term) -> float:
        if a == b:
            return POS_EXACT
        tag_a = self.tags.get(a.text)
        tag_b = self.tags.get(b.text)
        missing = [t.text for t, tag in ((a, tag_a), (b, tag_b)) if tag is None]
        for text in missing:
            if text not in self._warned:
                self._warned.add(text)
                logger.warning("no POS tag for term %r; scoring 0", text)
        if missing:
            return 0.0
        return POS_TAG_MATCH if tag_a == tag_b else 0.0


class PmiIrSimilarity:
    """Pointwise mutual information of two terms' corpus co-occurrence.

    The co-occurrence count (add-one smoothed) is compared against the
    expectation under independence, using total_tokens / (2 * window)
    as the effective number of co-occurrence neighborhoods, so
    independent terms score near zero. Absent terms score exactly zero.
    """

    def __init__(self, index: CorpusIndex, window: int = 10):
        if window < 1:
            raise DataError(f"PMI window must be >= 1, got {window}")
        self.index = index
        self.window = window

    def sim(self, a: Term, b: Term) -> float:
        count_a, count_b, count_ab = cooccurrence_counts(
            self.index, a, b, self.window)
        if count_a == 0 or count_b == 0 or self.index.total_tokens == 0:
            return 0.0
        positions = self.index.total_tokens / (2.0 * self.window)
        return math.log((count_ab + 1) * positions / (count_a * count_b))


class TableSimilarity:
    """Symmetric lookup over explicit (term, term) -> score entries."""

    def __init__(self, entries: dict[tuple[str, str], float]):
        self._table: dict[tuple[str, str], float] = {}
        for (a, b), score in entries.items():
            self._table[(a, b)] = score
            self._table[(b, a)] = score

    def sim(self, a: Term, b: Term) -> float:
        return self._table.get((a.text, b.text), 0.0)


def load_external_similarity(path: str | Path) -> TableSimilarity:
    """Provider from a UTF-8 file of `term_a<TAB>term_b<TAB>score` lines.

    A leading byte-order mark is skipped, and both orders are stored. A
    repeated pair keeps the last value and is warned about; a malformed
    line, a term that does not normalize, or a score that is NaN or
    infinite, is a load error naming its number.
    """
    p = Path(path)
    entries: dict[tuple[str, str], float] = {}
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read similarity table {p}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{p}:{lineno}: expected term<TAB>term<TAB>score")
        try:
            score = float(parts[2])
        except ValueError as exc:
            raise DataError(f"{p}:{lineno}: bad score {parts[2]!r}") from exc
        if not math.isfinite(score):
            raise DataError(f"{p}:{lineno}: score {parts[2]!r} is not finite")
        try:
            a, b = Term.parse(parts[0]).text, Term.parse(parts[1]).text
        except ValueError as exc:
            raise DataError(f"{p}:{lineno}: bad term: {exc}") from exc
        key = (a, b)
        if key in entries or (b, a) in entries:
            logger.warning("%s:%d: duplicate pair %s/%s, keeping the last value",
                           p, lineno, a, b)
            entries.pop((b, a), None)
        entries[key] = score
    return TableSimilarity(entries)


class CombinedSimilarity:
    """Plain sum of two providers (typically a base measure plus POS)."""

    def __init__(self, base, pos):
        self.base = base
        self.pos = pos

    def sim(self, a: Term, b: Term) -> float:
        return self.base.sim(a, b) + self.pos.sim(a, b)

