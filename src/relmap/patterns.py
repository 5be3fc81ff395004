"""Wildcard-pattern mining and assembly of the pair-pattern matrix.

A pattern is a tuple of slots: literal words, the hole markers "X" and
"Y" (exactly one of each, either order), and "*" which matches any
single word. No literal equals a marker: an index holds only
`terms.tokenize`'s words, which it never emits.

From a retrieved window, the two term spans become X and Y and every
remaining word is independently kept or wildcarded; the same is done
with the markers exchanged, giving up to 2^(n+1) patterns for n
remaining words. Counts are recorded so that the frequency of a
pattern instantiated with a pair equals the number of windows of that
pair reproducing it: patterns from the direct substitution are
credited to the retrieved pair, patterns from the exchanged
substitution to the reversed pair. This is what makes the matrix rows
of a pair and its reverse mirror images of each other.

Slot coding. Mining works on token-id arrays and never builds a
string pattern: the windows of all pairs come from one array search
over the index, and a window is laid out as at most MAX_SLOTS slots
(pre word, X, up to three middle words, Y, post word), and every slot
is an integer code; code 0 marks a slot past the pattern's end. The
slot strings are the words seen in windows plus "X", "Y" and "*".

Order rule. Comparing code tuples must give the order of the
serialized patterns (slots joined by single spaces). When no slot
string holds a character at or below U+0020, each string has one code,
its rank + 1: the separating space then sorts below every character of
every string, so a string that is a proper prefix of another sorts
first both as a slot and in the text, and a pattern that ends sorts
before one that goes on. Otherwise ranking each slot's string alone is
not enough: ("a", "X", "Y") comes before ("a\\x01", "X", "Y") as a
tuple, but "a\\x01 X Y" comes before "a X Y" as a string. Then the codes
rank one sorted alphabet of pieces, each string once as it is and once
with a trailing space; an inner slot is coded by its spaced piece, so
that "a\\x01 " < "a " keeps the order, and the pattern's last slot by
its bare piece. A serialized pattern is the concatenation of its
pieces, no spaced piece is a prefix of another piece, because words
hold no whitespace, and a bare piece that is a prefix of another piece
ends its pattern.

The slot strings are sorted by sorting their token ids, since the
vocabulary is sorted, and the markers are placed among them by the
vocabulary's keys, without decoding a word; only on the second path
are the strings decoded and the pieces sorted as strings (`_alphabet`).

The variants of all windows are held as MAX_SLOTS rows of slot codes,
one row per slot, in the smallest unsigned dtype that holds the largest
code (`_variants`), and are sorted at once by (slot rows, pair) with
`corpus._stable_argsort`, a few passes of `np.sort` over plain uint64s,
each sorting one digit of the record with the positions packed beside
it; the kernel packs the rows into those digits and drops the bits no
variant uses. Equal runs give the counts. The pair must be part of the
record, because the variants of one (pattern, pair) entry can lie
apart: a block's exchanged variants come in the order of their direct
pairs, not of the reversed pairs' ids, and a pair listed twice repeats
its windows.

Array layout of `PatternStats`, for P distinct patterns and E nonzero
(pair, pattern) entries:

- ``pairs``: the pair table, the mined pairs in first-seen order and
  then the reverses not among them, which also receive counts.
- ``phrase_counts``: windows mined per pair, keyed by pair.
- ``slots`` and ``codes``: the sorted slot strings, each the id of its
  word in ``vocab``, the index's vocabulary, or, for a marker, -1 minus
  its place in `terms.MARKERS` (`slot_words` decodes them); and a
  (2, len(slots)) array of each string's code as the last slot (row 0)
  and as an inner slot (row 1); the rows are equal where each string
  has one code.
- ``keys``: (MAX_SLOTS, P), the slot codes of the distinct patterns in
  serialized order, slot by row; pattern ids index its columns.
- ``starts``: P + 1 offsets; the entries of pattern p are
  ``starts[p]:starts[p + 1]``, so ``np.diff(starts)`` is the number of
  generating pairs of each pattern.
- ``entry_pair`` and ``entry_count``: per entry, the pair table id and
  the number of windows, ordered by (pattern, pair).
- ``column_order``: pattern ids by (-generating pairs, serialized
  order), computed once; `select_columns` takes a prefix of it.

Matrix columns stay pattern ids from selection to F: `select_columns`
returns ids and `build_frequency_matrix` takes them; a column's pattern
is read from its slot codes in ``keys``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .corpus import (MAX_MID, MAX_POST, MAX_PRE, CorpusIndex, Vocabulary, _find_windows,
                     _stable_argsort)
from .csr import CSR, _ranges, from_coo
from .errors import ConfigError, RelmapError
from .problems import MappingProblem
from .terms import MARKERS, WILDCARD, X_SLOT, Y_SLOT, TermPair

MAX_SLOTS = MAX_PRE + 1 + MAX_MID + 1 + MAX_POST


def build_pair_list(problems: Iterable[MappingProblem]) -> list[TermPair]:
    """All ordered pairs of distinct terms within each side of each problem.

    Both orders of every pair are included and the result is
    duplicate-free across problems, preserving first-seen order.
    """
    seen: dict[TermPair, None] = {}
    for problem in problems:
        for side in (problem.source, problem.target):
            for a in side:
                for b in side:
                    if a != b:
                        seen.setdefault(TermPair(a, b))
    return list(seen)


# --- statistics ---------------------------------------------------------------

@dataclass(eq=False)
class PatternStats:
    """Occurrence counts per (pair, pattern) plus per-pair phrase totals.

    Array-backed; the module docstring gives the layout.
    """

    pairs: list[TermPair]
    phrase_counts: dict[TermPair, int]
    vocab: Vocabulary
    slots: np.ndarray
    codes: np.ndarray
    keys: np.ndarray
    starts: np.ndarray
    entry_pair: np.ndarray
    entry_count: np.ndarray
    column_order: np.ndarray


def _window_arrays(index: CorpusIndex, pairs: list[TermPair], table: dict[TermPair, int],
                   cap: Optional[int]) -> tuple[dict[str, np.ndarray], dict[TermPair, int]]:
    """Per-window arrays over all pairs, and the windows mined per pair."""
    owner, _doc, x, y, pre, post = _find_windows(index, pairs)
    if cap is not None:
        rank = np.arange(owner.size) - np.searchsorted(owner, owner)
        owner, x, y, pre, post = (a[rank < cap] for a in (owner, x, y, pre, post))
    phrase_counts: dict[TermPair, int] = {}
    for pair, n in zip(pairs, np.bincount(owner, minlength=len(pairs)).tolist()):
        phrase_counts[pair] = phrase_counts.get(pair, 0) + n
    x_len = np.array([len(p.x.tokens) for p in pairs], dtype=np.int64)
    y_len = np.array([len(p.y.tokens) for p in pairs], dtype=np.int64)
    ids = np.array([table[p] for p in pairs], dtype=np.int32)
    rev = np.array([table[p.reversed()] for p in pairs], dtype=np.int32)
    win = {"pair": ids[owner], "rev": rev[owner], "x": x, "x_end": x + x_len[owner],
           "y": y, "y_end": y + y_len[owner], "pre": pre, "post": post}
    win["mid"] = win["y"] - win["x_end"]
    return win, phrase_counts


def _alphabet(index: CorpusIndex, win: dict[str, np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slot strings, their codes, and each window's context words.

    Returns the sorted slot strings (the words seen in windows and the
    markers) as `PatternStats.slots` holds them, their (2, n) codes, row
    0 coding a string as a pattern's last slot and row 1 as an inner one,
    and a (2 + MAX_MID, n_windows) array: the position in the slot
    strings of each window's pre word, middle words and post word, 0
    where the window has none.

    The vocabulary is sorted, so ranking the seen ids ranks their words,
    and no word equals a marker, so the markers are placed among them by
    the vocabulary's keys. No word is decoded for that. When no string
    holds a character at or below U+0020, the r-th string's code is
    r + 1 in both rows. Otherwise the strings are decoded and their
    pieces, each string bare and with a trailing space, sorted as
    strings. The module docstring gives the order rule.
    """
    has = [win["pre"] > 0, *(win["mid"] > k for k in range(MAX_MID)), win["post"] > 0]
    at = [win["x"] - 1, *(win["x_end"] + k for k in range(MAX_MID)), win["y_end"]]
    seen = np.concatenate([np.take(index.ids, a[h]) for h, a in zip(has, at)])
    order = _stable_argsort(seen)
    seen = np.take(seen, order)
    new = np.diff(seen, prepend=-1) != 0
    ids = seen[new].astype(np.int64)
    rank = np.empty(seen.size, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    # The seen words below a marker are those of ids below its place in
    # the vocabulary; taken in increasing order, each marker also follows
    # the markers placed before it.
    marks = sorted(MARKERS)
    below = np.searchsorted(ids, index.vocab.locate(marks)[0]) + np.arange(len(marks))
    slots = ids
    for m, at in zip(marks, below.tolist()):
        slots = np.insert(slots, at, -1 - MARKERS.index(m))
        rank[rank >= at] += 1
    context = np.zeros((len(has), win["x"].size), dtype=np.int64)
    for row, h in zip(context, has):
        row[h], rank = rank[:np.count_nonzero(h)], rank[np.count_nonzero(h):]
    n = slots.size
    # UTF-8 codes a character at or below U+0020 as that one byte alone,
    # and each word is followed by one space; no marker holds such a byte.
    if np.count_nonzero(index.vocab.joined(ids, ord(" ")) <= ord(" ")) == ids.size:
        codes = np.tile(np.arange(1, n + 1), (2, 1))
    else:
        words = slot_words(slots, index.vocab)
        pieces = words + [w + " " for w in words]
        codes = np.empty(2 * n, dtype=np.int64)
        codes[sorted(range(2 * n), key=pieces.__getitem__)] = np.arange(1, 2 * n + 1)
        codes = codes.reshape(2, n)
    return slots, codes, context


def slot_words(slots: np.ndarray, vocab: Vocabulary) -> list[str]:
    """The slot strings that `PatternStats.slots` holds, decoded."""
    words = iter(vocab.words(slots[slots >= 0]))
    return [MARKERS[-1 - s] if s < 0 else next(words) for s in slots.tolist()]


def _variants(win: dict[str, np.ndarray], slots: np.ndarray, codes: np.ndarray,
              context: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot codes and pair ids of every distinct variant of every window.

    Returns a (MAX_SLOTS, n) array of the n variants' slot codes, in the
    smallest unsigned dtype that holds the largest code, and their pair
    ids. Windows are taken one shape (pre, mid, post) at a time, so that
    the free slots sit at fixed rows. Direct windows give variants to the
    window's pair; exchanged ones, the same codes with X and Y swapped,
    to the reversed pair. A shape's slot codes are laid out once, both
    orientations side by side; each of the 2^f masks of its f free slots
    then copies them into one block of the output and writes "*" over
    the rows it wildcards, so that each numpy loop runs over the windows.
    The variants are in no particular order; `mine_patterns` sorts them
    by (pattern, pair).
    """
    place = {m: int(np.flatnonzero(slots == -1 - k)[0]) for k, m in enumerate(MARKERS)}
    marker = {(m, last): int(codes[int(not last), place[m]])
              for m in MARKERS for last in (False, True)}
    swap = np.arange(int(codes.max()) + 1)
    for last in (False, True):
        x, y = marker[X_SLOT, last], marker[Y_SLOT, last]
        swap[x], swap[y] = y, x
    dtype = np.min_scalar_type(int(codes.max()))
    # The codes of the slot strings by (row, orientation, string).
    oriented = np.stack([codes, swap[codes]], axis=1).astype(dtype)
    shapes = []
    for pre, mid, post in itertools.product(range(MAX_PRE + 1), range(MAX_MID + 1),
                                            range(MAX_POST + 1)):
        sel = np.flatnonzero((win["pre"] == pre) & (win["mid"] == mid)
                             & (win["post"] == post))
        if not sel.size:
            continue
        n_slots = pre + mid + post + 2
        # (slot, context row) of each free slot
        free = ([(0, 0)] * pre + [(pre + 1 + k, 1 + k) for k in range(mid)]
                + [(n_slots - 1, 1 + MAX_MID)] * post)
        window = np.zeros((MAX_SLOTS, 2, sel.size), dtype=dtype)
        for col, last, m in ((pre, False, X_SLOT), (pre + mid + 1, not post, Y_SLOT)):
            window[col] = np.array([[marker[m, last]], [swap[marker[m, last]]]])
        star = {}
        for col, row in free:
            last = col == n_slots - 1
            star[col] = marker[WILDCARD, last]
            window[col] = np.take(oriented[int(not last)], np.take(context[row], sel), axis=1)
        owner = np.concatenate([np.take(win["pair"], sel), np.take(win["rev"], sel)])
        shapes.append((window.reshape(MAX_SLOTS, -1), owner, star))
    size = sum(owner.size << len(star) for _window, owner, star in shapes)
    keys = np.empty((MAX_SLOTS, size), dtype=dtype)
    owners = np.empty(size, dtype=np.int32)
    at = 0
    for window, owner, star in shapes:
        n = owner.size
        for mask in range(1 << len(star)):
            block = keys[:, at:at + n]
            block[...] = window
            for k, (col, code) in enumerate(star.items()):
                if mask >> k & 1:
                    block[col] = code
            owners[at:at + n] = owner
            at += n
    return keys, owners


def mine_patterns(index: CorpusIndex, pairs: list[TermPair],
                  max_phrases_per_pair: Optional[int] = None) -> PatternStats:
    """Retrieve phrases for every pair and accumulate pattern statistics.

    `max_phrases_per_pair` caps the windows processed per ordered pair
    (a guard for degenerate corpora): the first N in (document, x start,
    y start) order. None means unlimited.
    """
    if max_phrases_per_pair is not None and max_phrases_per_pair < 1:
        raise ConfigError(f"max_phrases_per_pair must be >= 1 or None, "
                          f"got {max_phrases_per_pair}")
    table = list(dict.fromkeys([*pairs, *(p.reversed() for p in pairs)]))
    win, phrase_counts = _window_arrays(
        index, pairs, {p: i for i, p in enumerate(table)}, max_phrases_per_pair)
    slots, codes, context = _alphabet(index, win)
    keys, owner = _variants(win, slots, codes, context)
    order = _stable_argsort(*keys, owner)
    # The sorted codes are built one slot row at a time, only the distinct
    # patterns' are kept, and each array is dropped once used, which keeps
    # the peak memory near that of the variants.
    owner = np.take(owner, order)
    new_pattern = np.zeros(owner.size, dtype=bool)
    new_pattern[:1] = True
    for row in keys:
        row = np.take(row, order)
        new_pattern[1:] |= row[1:] != row[:-1]
        del row
    new_entry = new_pattern.copy()
    new_entry[1:] |= owner[1:] != owner[:-1]
    entry = np.flatnonzero(new_entry)
    first = np.flatnonzero(new_pattern[entry])
    del new_pattern, new_entry
    keys = np.take(keys, np.take(order, entry[first]), axis=1)
    del order
    starts = np.append(first, entry.size)
    del first
    entry_pair, entry_count = np.take(owner, entry), np.diff(entry, append=owner.size)
    del owner, entry
    n_pairs = np.diff(starts)
    return PatternStats(
        pairs=table, phrase_counts=phrase_counts, vocab=index.vocab, slots=slots, codes=codes,
        keys=keys,
        starts=starts, entry_pair=entry_pair, entry_count=entry_count,
        column_order=_stable_argsort(n_pairs.max(initial=0) - n_pairs))


def prune_rows(pairs: list[TermPair],
               phrase_counts: dict[TermPair, int]) -> list[TermPair]:
    """Drop a pair only when neither it nor its reverse retrieved any phrase."""
    return [p for p in pairs
            if phrase_counts.get(p, 0) or phrase_counts.get(p.reversed(), 0)]


def select_columns(stats: PatternStats, t: int, n_r: int) -> np.ndarray:
    """Ids of the top t*n_r patterns by number of distinct generating pairs.

    Ties are broken by ascending lexicographic serialization so the
    selection (and everything downstream) is reproducible. The order is
    computed once at mining; this is an int64 prefix of it.
    """
    if t <= 0:
        raise ConfigError(f"column factor t must be positive, got {t}")
    return stats.column_order[:t * n_r]


def build_frequency_matrix(rows: list[TermPair], cols: np.ndarray,
                           stats: PatternStats) -> CSR:
    """Assemble the sparse pair-pattern frequency matrix from the records.

    `cols` holds pattern ids, as `select_columns` returns them. No corpus
    re-search happens here; entry (i, j) is the number of windows of
    pair i that reproduce pattern cols[j].

    No cell is given twice, so none is summed: the entries of one pattern
    are of distinct pairs, and rows and columns are distinct.
    """
    if len(set(rows)) != len(rows):
        raise RelmapError("duplicate row labels in frequency matrix")
    ids = np.asarray(cols, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= len(stats.starts) - 1):
        raise RelmapError("frequency matrix column is not a mined pattern id")
    ordered = np.sort(ids)
    if np.any(ordered[1:] == ordered[:-1]):
        raise RelmapError("duplicate column ids in frequency matrix")
    row_of = np.full(len(stats.pairs), -1, dtype=np.int64)
    table = {pair: i for i, pair in enumerate(stats.pairs)}
    for i, pair in enumerate(rows):
        if pair in table:
            row_of[table[pair]] = i
    n = stats.starts[ids + 1] - stats.starts[ids]
    entry = _ranges(stats.starts[ids], n)
    ii = row_of[stats.entry_pair[entry]]
    kept = ii >= 0
    data = stats.entry_count[entry[kept]].astype(np.float64)
    return from_coo(ii[kept], np.repeat(np.arange(ids.size), n)[kept], data,
                    (len(rows), ids.size))
