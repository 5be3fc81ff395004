"""Corpus ingestion, phrase-window retrieval, and co-occurrence counts.

Phrase retrieval finds every window of the form

    [0-1 words]  x  [0-3 words]  y  [0-1 words]

where x and y are (possibly multiword) terms matched as contiguous
token runs. Windows never cross document boundaries; the leading and
trailing context words are included when available. Occurrences are
tokens, not types: the same window shape in two places is two results.

Index layout. One text file is one document. The documents are
concatenated into a single int32 array of token ids; `doc_offsets`
(int64, one more entry than there are documents) marks where each
starts, so document d spans global positions
``doc_offsets[d]:doc_offsets[d + 1]``. Token ids index a vocabulary in
lexicographic order. The vocabulary is never decoded whole: it stays
one "\\n"-joined UTF-8 byte array (tokens never contain whitespace), with
the byte offset of each word built on first use. A term's token is
looked up by bisection over those offsets, and the words of many ids
are decoded in one pass. UTF-8 byte order is code-point order, so the
bytes sort as the words do.

Postings exist only for the terms a query names. One pass over the ids
finds the positions of a whole batch of first tokens; each term's start
positions are then kept on the index, so a term asked for again costs
no pass. Beyond the vocabulary's bytes and offsets nothing is kept per
vocabulary word, and an index that is only built and cached never
searches.

Window search works on terms, not pairs. The starts of all the terms of
a pair list are merged in position order, once each however many pairs
name a term. For every start of a term that is some pair's x, one
`searchsorted` finds the term starts in the 0-3 tokens after its run,
inside its document. Each (x term, y term) hit is mapped to the pair
slots with those terms through a sorted key array, and one stable sort
by slot gives the windows in (pair, document, x start, y start) order.

Ingest streams the files. Each file is read, hashed, tokenized and
mapped to ids before the next one is read. Ids are first-seen ids in a
batch dict that is flushed once it holds `_BATCH_WORDS` words; a flushed
batch keeps only its words, as one "\\n"-joined UTF-8 byte string. So at
any time memory holds one batch's dict, the distinct words' bytes (a
word seen in several batches once per batch), 4 bytes per token so far
and one file's tokens: never a Python string per corpus token or per
vocabulary word. At the end the words of all batches are sorted once,
in numpy, by most-significant-digit refinement on the 8-byte prefixes
the cache check also reads (below). Copies of a word from several
batches become one vocabulary word, the ids are renumbered by
vocabulary rank, and the vocabulary's bytes are copied out a bounded
number of words at a time.

Cache. `save_index` writes an uncompressed ``.npz`` holding the ids,
the offsets, the vocabulary's bytes as they are and a JSON metadata
string. The file name is a hash of the corpus content digest and the
format version. There is one tokenizer (`terms.tokenize`), and the
format version stands for it, so an index written by another tokenizer
or layout is never found. The file is written to a temporary name
in the cache directory and renamed into place, so no reader sees a
partial file. `load_index` reads it with ``allow_pickle=False`` and
checks the format, the dtypes, the offsets, the vocabulary and the id
range before it returns anything. The vocabulary is checked on its
bytes, a bounded number of words at a time: UTF-8 validity, the stated
size, no empty word and strictly increasing order. The order is settled
for whole chunks at once on each word's first 8 bytes, read as one
big-endian integer; only words whose first 8 bytes tie, and the words
on each side of a chunk boundary, are compared as whole bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import os
import zipfile
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import CorpusError
from .terms import Term, TermPair, tokenize

logger = logging.getLogger(__name__)

MAX_PRE = 1
MAX_MID = 3
MAX_POST = 1

# The format tag also stands for the one tokenizer, which the cache key and
# metadata do not otherwise name: any change to `terms.tokenize` must bump it.
_CACHE_FORMAT = "relmap-corpus-index-v3"
# Words decoded at once when a loaded vocabulary is checked.
_CHECK_WORDS = 1 << 14
# Words that ingest's first-seen dict holds before it is flushed.
_BATCH_WORDS = 1 << 14
# _PREFIX_MASKS[k] keeps the first k of 8 big-endian bytes. A table, not a
# shift: shifting a 64-bit integer by 64 bits is undefined.
_PREFIX_MASKS = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


class Vocabulary:
    """A sorted vocabulary kept as its "\\n"-joined UTF-8 bytes.

    A read-only sequence of `size` words: `len`, item access, `find` (a
    word's id by bisection, -1 if absent) and `words` (many words
    decoded in one pass). No word is decoded until asked for; the byte
    offsets of the words are found on first use.
    """

    def __init__(self, blob: np.ndarray, size: int):
        blob.flags.writeable = False
        self.blob = blob         # uint8, the words joined by b"\\n"
        self.size = size

    @functools.cached_property
    def _offsets(self) -> np.ndarray:
        """Word i is blob[_offsets[i]:_offsets[i + 1] - 1]."""
        breaks = np.flatnonzero(self.blob == ord("\n"))
        if not (breaks.size == self.size - 1 if self.size else self.blob.size == 0):
            raise ValueError("vocabulary is not of the stated size")
        offsets = np.empty(breaks.size + 2, dtype=np.int64)
        offsets[0], offsets[-1] = 0, self.blob.size + 1
        np.add(breaks, 1, out=offsets[1:-1])
        return offsets

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> str:
        if not 0 <= i < self.size:
            raise IndexError(f"word id {i} out of range")
        return self._word_bytes(i).decode("utf-8")

    def words(self, ids) -> list[str]:
        """The words with these ids, in their order, decoded in one pass."""
        ids = np.asarray(ids, dtype=np.int64)
        if not ids.size:
            return []
        starts = self._offsets[ids]
        sizes = self._offsets[ids + 1] - starts   # each word and the byte after it
        # The byte after the last word lies past the blob, and `_gather`
        # reads another; every byte after a word is then set to a newline.
        raw = _gather(self.blob, starts, sizes)
        raw[np.cumsum(sizes) - 1] = ord("\n")
        return raw[:-1].tobytes().decode("utf-8").split("\n")

    def find(self, word: str) -> int:
        """The id of `word`, or -1 when it is not in the vocabulary."""
        i = bisect_left(self, word)
        return i if i < self.size and self[i] == word else -1

    def check(self) -> None:
        """Raise ValueError unless the bytes hold `size` valid, non-empty UTF-8
        words in strictly increasing order, looked at _CHECK_WORDS words at
        a time.

        Neighbours are ordered by their first 8 bytes, read as big-endian
        integers with the bytes past a word's end zeroed: a smaller prefix
        makes a word the smaller one, a larger one refuses the order. Only
        neighbours with equal prefixes, and the two words on each side of
        a chunk boundary, are compared as whole bytes.
        """
        offsets = self._offsets
        if self.size and offsets[1] == 1:  # in increasing order only the first can be empty
            raise ValueError("vocabulary holds an empty word")
        word = self._word_bytes
        last = None
        for a in range(0, self.size, _CHECK_WORDS):
            b = min(a + _CHECK_WORDS, self.size)
            raw = self.blob[offsets[a]:offsets[b] - 1]
            str(raw, "utf-8")  # a chunk ends at a word, so at a character
            padded = np.zeros(raw.size + 8, dtype=np.uint8)
            padded[:raw.size] = raw
            prefix = _prefixes(padded, offsets[a:b] - offsets[a], np.diff(offsets[a:b + 1]) - 1)
            if (last is not None and not last < word(a)) or np.any(prefix[:-1] > prefix[1:]):
                raise ValueError("vocabulary is not strictly increasing")
            for i in (np.flatnonzero(prefix[:-1] == prefix[1:]) + a).tolist():
                if not word(i) < word(i + 1):
                    raise ValueError("vocabulary is not strictly increasing")
            last = word(b - 1)

    def _word_bytes(self, i: int) -> bytes:
        """Word i's UTF-8 bytes."""
        a, b = self._offsets[i:i + 2].tolist()
        return self.blob[a:b - 1].tobytes()


def _prefixes(padded: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The byte runs padded[s:s + n] of these starts and sizes, each as the
    big-endian integer of its first 8 bytes, with the bytes past its end
    zeroed. `padded` must hold 8 bytes from every start.
    """
    # One 8-byte integer at every byte (strides of 1 byte).
    at = np.ndarray((padded.size - 7,), dtype=">u8", buffer=padded, strides=(1,))
    prefix = at[starts].astype(np.uint64)
    prefix &= _PREFIX_MASKS[np.minimum(sizes, 8)]
    return prefix


def _gather(blob: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The byte runs blob[s:s + n] of these starts and sizes, concatenated;
    a byte past the blob's end reads as its last byte."""
    first = np.cumsum(sizes) - sizes
    return blob.take(np.repeat(starts - first, sizes) + np.arange(int(sizes.sum())),
                     mode="clip")


def _sorted_vocabulary(blob: np.ndarray, n: int) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary of n words, and the id in it of each of them.

    `blob` holds the words, in any order and maybe repeated, each
    followed by a "\\n", then 8 * _BATCH_WORDS zero bytes. An empty
    word, or one holding a newline, is refused with CorpusError. The
    vocabulary's bytes are copied out _BATCH_WORDS words at a time, so
    no index array covers every byte.
    """
    ends = np.flatnonzero(blob == ord("\n"))
    if ends.size != n:
        raise CorpusError("a vocabulary word is empty or holds a newline")
    starts = np.zeros(n, dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    sizes = ends - starts
    del ends
    if not sizes.all():
        raise CorpusError("a vocabulary word is empty or holds a newline")
    order, first = _sort_words(blob, starts, sizes)
    distinct = first == np.arange(n)
    del first
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.cumsum(distinct) - 1
    words = order[distinct]  # the first copy of each vocabulary word, in order
    del order, distinct
    out = np.empty(int(sizes[words].sum()) + words.size, dtype=np.uint8)
    at = 0
    for a in range(0, words.size, _BATCH_WORDS):
        w = words[a:a + _BATCH_WORDS]
        raw = _gather(blob, starts[w], sizes[w] + 1)  # each word and its "\\n"
        out[at:at + raw.size] = raw
        at += raw.size
    return Vocabulary(out[:-1], int(words.size)), rank


def _sort_words(blob: np.ndarray, starts: np.ndarray,
                sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The words blob[s:s + n] of these starts and sizes, sorted.

    Returns `order`, the word indices by increasing word, equal words
    next to each other, and `first`, for each place in `order` the first
    place that holds the same word. `blob` must hold 8 * _BATCH_WORDS
    bytes past every word's end.

    Most-significant-digit refinement. A round reads k 8-byte prefixes
    of each word still tied: _BATCH_WORDS // (words still tied), at
    least 1 and no more than the longest of them needs. So a tie of few
    long words, such as copies of one long word from several batches,
    takes few rounds. A round sorts the words still tied, which share
    their first `depth` bytes, by (the first place of their tie, their
    next k prefixes, the bytes they have left clipped to 8k + 1). A
    prefix is read as a big-endian integer with the bytes past the
    word's end zeroed, so of two words with equal prefixes the one with
    fewer bytes left is the one that begins the other, and equal keys
    with 8k bytes left or fewer are equal words. Only ties with more
    than 8k bytes left go on to the next round.
    """
    n = starts.size  # below 2**31: ingest numbers the words in int32
    order = np.arange(n, dtype=np.int32)
    first = np.zeros(n, dtype=np.int32)
    live = order.copy()  # places still tied, with bytes left
    depth = 0
    while live.size:
        words = order[live]
        most = int(sizes[words].max()) - depth  # bytes left in the longest word
        k = max(1, min(_BATCH_WORDS // live.size, -(-most // 8)))
        # The smallest dtype sorts fastest: 8 bits when k is 1.
        left = np.minimum(sizes[words] - depth, 8 * k + 1).astype(np.min_scalar_type(8 * k + 1))
        step = np.arange(0, 8 * k, 8, dtype=left.dtype)[:, None]
        # Prefix j holds clip(left - 8j, 0, 8) of a word's bytes; this
        # form of it never goes below 0 in an unsigned dtype.
        prefix = _prefixes(blob, starts[words] + depth + step,
                           np.minimum(left, step + 8) - np.minimum(left, step))
        # In the first round all words are one tie.
        by = np.lexsort((left, *prefix[::-1], *((first[live],) if depth else ())))
        # A tie holds the places live[i] of consecutive i, so its words
        # stay in its places.
        order[live] = words[by]
        tie, left, prefix = first[live][by], left[by], prefix[:, by]
        new = np.ones(live.size, dtype=bool)
        new[1:] = ((tie[1:] != tie[:-1]) | (left[1:] != left[:-1])
                   | (prefix[:, 1:] != prefix[:, :-1]).any(axis=0))
        first[live] = np.maximum.accumulate(np.where(new, live, 0))
        tied = ~new
        tied[:-1] |= ~new[1:]
        live = live[tied & (left > 8 * k)]
        depth += 8 * k
    return order, first


@dataclass(eq=False)
class CorpusIndex:
    """Immutable token index: token ids, document offsets, sorted vocabulary."""

    ids: np.ndarray              # int32 token ids, all documents concatenated
    doc_offsets: np.ndarray      # int64, n_documents + 1 entries
    vocab: Vocabulary
    digest: str = ""
    # start positions of every term searched for so far
    _found: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.ids.flags.writeable = False
        self.doc_offsets.flags.writeable = False

    @classmethod
    def from_token_lists(cls, documents: Iterable[list[str]]) -> "CorpusIndex":
        """Index tokenized documents, in the given order.

        `documents` is consumed one document at a time, and only that
        document's ids are kept, so a generator of token lists holds
        one document's tokens at a time. Tokens get first-seen ids in a
        batch dict, looked at every _BATCH_WORDS tokens and flushed once
        it holds _BATCH_WORDS words (so it holds fewer than twice that);
        a flushed batch keeps only its words, "\\n"-joined as UTF-8
        bytes. So memory holds one batch's dict, the distinct words'
        bytes and 4 bytes per token, never a Python string per
        vocabulary word. The words of all batches are sorted once at the
        end (`_sorted_vocabulary`), and the ids renumbered by vocabulary
        rank. An empty token, or one holding a newline, is refused with
        CorpusError.
        """
        batches = []
        n_words = 0  # words in the flushed batches
        seen = defaultdict(itertools.count().__next__)
        parts = [np.zeros(0, dtype=np.int32)]
        for doc in documents:
            part = np.empty(len(doc), dtype=np.int32)
            for a in range(0, len(doc), _BATCH_WORDS):
                # Ids assigned without a Python loop, numbered on from the
                # words of earlier batches.
                chunk = part[a:a + _BATCH_WORDS]
                chunk[:] = np.fromiter(map(seen.__getitem__, doc[a:a + _BATCH_WORDS]),
                                       dtype=np.int32, count=chunk.size)
                chunk += n_words
                if len(seen) >= _BATCH_WORDS:
                    batches.append("\n".join(seen).encode("utf-8"))
                    n_words += len(seen)
                    seen = defaultdict(itertools.count().__next__)
            parts.append(part)
            del doc  # before the next document is made
        if seen:
            batches.append("\n".join(seen).encode("utf-8"))
            n_words += len(seen)
        del seen
        # The sort reads up to 8 * _BATCH_WORDS bytes past a word's end.
        blob = np.frombuffer(b"\n".join([*batches, bytes(8 * _BATCH_WORDS)]), dtype=np.uint8)
        del batches
        vocab, rank = _sorted_vocabulary(blob, n_words)
        del blob
        offsets = np.zeros(len(parts), dtype=np.int64)
        np.cumsum([part.size for part in parts[1:]], dtype=np.int64, out=offsets[1:])
        ids = np.concatenate(parts)
        del parts
        return cls(ids=rank[ids], doc_offsets=offsets, vocab=vocab)

    @property
    def total_tokens(self) -> int:
        return int(self.ids.size)

    @property
    def n_documents(self) -> int:
        return int(self.doc_offsets.size) - 1

    def _starts(self, terms: list[Term]) -> dict[Term, np.ndarray]:
        """Sorted global start positions of each term's token run (read-only).

        The first tokens of all terms not searched for before are found
        in one pass over the ids, and every term's positions are kept.
        """
        found = self._found
        tids = {term: [self.vocab.find(tok) for tok in term.tokens]
                for term in dict.fromkeys(terms) if term not in found}
        heads = self._positions(np.unique([t[0] for t in tids.values() if min(t) >= 0]))
        for term, t in tids.items():
            found[term] = self._runs(heads[t[0]], t) if min(t) >= 0 else _EMPTY
        return {term: found[term] for term in terms}

    def _positions(self, tids: np.ndarray) -> dict[int, np.ndarray]:
        """Sorted global positions of each of these token ids, from one pass."""
        if not tids.size:
            return {}
        wanted = np.zeros(len(self.vocab), dtype=bool)
        wanted[tids] = True
        pos = np.flatnonzero(wanted[self.ids])
        tok = self.ids[pos]
        order = np.argsort(tok, kind="stable")  # positions stay sorted per token
        pos, tok = pos[order], tok[order]
        pos.flags.writeable = False
        lo = np.searchsorted(tok, tids, side="left").tolist()
        hi = np.searchsorted(tok, tids, side="right").tolist()
        return {t: pos[a:b] for t, a, b in zip(tids.tolist(), lo, hi)}

    def _runs(self, pos: np.ndarray, tids: list[int]) -> np.ndarray:
        """The positions in `pos`, where tids[0] occurs, that start the whole run."""
        if len(tids) == 1:
            return pos
        span = len(tids)
        pos = pos[pos + span <= self.ids.size]
        for k, tid in enumerate(tids[1:], 1):
            pos = pos[self.ids[pos + k] == tid]
        pos = pos[pos + span <= self.doc_offsets[self._doc_of(pos) + 1]]
        pos.flags.writeable = False
        return pos

    def _doc_of(self, pos: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.doc_offsets, pos, side="right") - 1


def ingest(paths: list[str | Path]) -> CorpusIndex:
    """Build an index over the given files, in the given order.

    The files are streamed: each is read, hashed, tokenized and mapped
    to ids before the next is read, so memory holds one batch's dict,
    the distinct words' bytes, 4 bytes per token and one file's tokens
    (see `CorpusIndex.from_token_lists`). Files must be UTF-8 text;
    an unreadable or mis-encoded file raises CorpusError naming the
    path. An empty path list yields a valid empty index.
    """
    hasher = hashlib.sha256()
    index = CorpusIndex.from_token_lists(
        tokenize(_read_text(Path(path), hasher)) for path in paths)
    return dataclasses.replace(index, digest=hasher.hexdigest())


def _read_text(path: Path, hasher) -> str:
    """The file's UTF-8 text; the SHA-256 of its bytes goes into `hasher`."""
    try:
        raw = path.read_bytes()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot ingest {path}: {exc}") from exc
    hasher.update(hashlib.sha256(raw).digest())
    return text


def corpus_files(corpus_dir: str | Path) -> list[Path]:
    """All .txt files under a directory, recursively, in lexicographic path order."""
    root = Path(corpus_dir)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")
    return sorted(root.rglob("*.txt"), key=lambda p: p.as_posix())


def ingest_dir(corpus_dir: str | Path) -> CorpusIndex:
    return ingest(corpus_files(corpus_dir))


def _find_windows(index: CorpusIndex, pairs: list[TermPair]) -> tuple[np.ndarray, ...]:
    """Every template window of every pair, as arrays.

    Returns (pair, doc, x_pos, y_pos, pre, post), one entry per window:
    the position of its pair in `pairs`, its document, the global start
    positions of its x and y runs, and the number of leading and
    trailing context words. Windows come in (pair, document, x start,
    y start) order. A y match starts 0-3 tokens after the x match ends
    and lies in the same document.

    The search is by term (see the module docstring). A (x term, y term)
    hit is a window of every pair slot with those terms, so a pair
    listed twice is mined twice.
    """
    starts = index._starts([term for pair in pairs for term in (pair.x, pair.y)])
    code = {term: i for i, term in enumerate(starts)}
    n = len(code)
    length = np.array([len(term.tokens) for term in starts], dtype=np.int64)
    # The starts of all the terms in position order; terms that start at
    # one position stay in the order of `starts`.
    pos = np.concatenate([_EMPTY, *starts.values()])
    term = np.repeat(np.arange(n), [a.size for a in starts.values()])
    order = np.argsort(pos, kind="stable")
    pos, term = pos[order], term[order]
    # The pair slots, sorted by their (x term, y term) key.
    keys = np.array([code[p.x] * n + code[p.y] for p in pairs], dtype=np.int64)
    slots = np.argsort(keys, kind="stable")
    keys = keys[slots]
    is_x = np.zeros(n, dtype=bool)
    is_x[keys // n] = True
    xi = np.flatnonzero(is_x[term])
    x_pos = pos[xi]
    x_end = x_pos + length[term[xi]]
    doc = index._doc_of(x_pos)
    doc_end = index.doc_offsets[doc + 1]
    # Every term's run lies inside one document (`_runs`), so a y that
    # starts before x's document ends also ends inside it.
    lo = np.searchsorted(pos, x_end, side="left")
    hi = np.searchsorted(pos, np.minimum(x_end + MAX_MID, doc_end - 1), side="right")
    # (x start, term start) hits; each array is dropped once used, which
    # keeps the peak memory near that of the hits and windows alone.
    hit_x, hit_y = _expand(lo, np.maximum(hi - lo, 0))
    del x_end, lo, hi
    key = term[xi[hit_x]] * n + term[hit_y]
    first = np.searchsorted(keys, key, side="left")
    count = np.searchsorted(keys, key, side="right") - first
    del key
    win, slot = _expand(first, count)
    del first, count
    pair = slots[slot]
    del slot
    # Within a pair, hits come in (x start, y start) order, so one
    # stable sort by pair gives the windows their order.
    order = np.argsort(pair, kind="stable")
    pair, win = pair[order], win[order]
    del order
    wy = hit_y[win]
    y_pos = pos[wy]
    y_end = y_pos + length[term[wy]]
    del wy
    wx = hit_x[win]
    del hit_x, hit_y, win
    x_pos, doc, doc_end = x_pos[wx], doc[wx], doc_end[wx]
    del wx
    pre = np.minimum(MAX_PRE, x_pos - index.doc_offsets[doc])
    post = np.minimum(MAX_POST, doc_end - y_end)
    return pair, doc, x_pos, y_pos, pre, post


def _expand(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, first[i] + k) for each i and each k < count[i], in that order."""
    owner = np.repeat(np.arange(first.size), count)
    shift = first + count
    shift -= np.cumsum(count)
    at = np.repeat(shift, count)
    del shift
    at += np.arange(at.size)
    return owner, at


def cooccurrence_counts(index: CorpusIndex, a: Term, b: Term,
                        window: int) -> tuple[int, int, int]:
    """Occurrence counts of a and b, and of their co-occurrences.

    count_ab counts unordered pairs of distinct start positions, one
    where a starts and one where b starts, within `window` tokens of
    each other in the same document.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    starts = index._starts([a, b])
    pos_a, pos_b = starts[a], starts[b]

    def pairs(p: np.ndarray, q: np.ndarray) -> int:
        """Ordered (p, q) position pairs at most `window` apart in one document."""
        doc = index._doc_of(p)
        # Every q position lies inside one document, so clipping the range
        # to p's document keeps only same-document positions.
        lo = np.searchsorted(q, np.maximum(p - window, index.doc_offsets[doc]), side="left")
        hi = np.searchsorted(q, np.minimum(p + window, index.doc_offsets[doc + 1] - 1),
                             side="right")
        return int(np.maximum(hi - lo, 0).sum())

    # A position where both terms start does not pair with itself, and a
    # pair of two such positions is seen once from each end.
    shared = np.intersect1d(pos_a, pos_b, assume_unique=True)
    inside = (pairs(shared, shared) - shared.size) // 2
    count_ab = pairs(pos_a, pos_b) - shared.size - inside
    return int(pos_a.size), int(pos_b.size), count_ab


# --- persistence -----------------------------------------------------------

def cache_path(cache_dir: str | Path, digest: str) -> Path:
    """Where the index of a corpus with this digest is cached."""
    key = json.dumps({"format": _CACHE_FORMAT, "digest": digest}, sort_keys=True)
    return Path(cache_dir) / f"index-{hashlib.sha256(key.encode()).hexdigest()}.npz"


def save_index(index: CorpusIndex, cache_dir: str | Path) -> Path:
    """Persist the index under its cache key; returns the file's path."""
    path = cache_path(cache_dir, index.digest)
    meta = {"format": _CACHE_FORMAT, "digest": index.digest,
            "vocab_size": len(index.vocab)}
    tmp = path.with_name(f".{path.stem}-{os.urandom(6).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "xb") as fh:
                np.savez(fh, ids=index.ids, doc_offsets=index.doc_offsets,
                         vocab=index.vocab.blob, meta=json.dumps(meta))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise CorpusError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def _require(ok: bool, path, what: str) -> None:
    if not ok:
        raise CorpusError(f"bad index cache {path}: {what}")


def load_index(path: str | Path) -> CorpusIndex:
    """Read an index written by `save_index`, checking it before use.

    Nothing is unpickled. A file that is not such an index, or whose
    arrays are inconsistent, raises CorpusError naming the path.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            ids = data["ids"]
            offsets = data["doc_offsets"]
            blob = data["vocab"]
    except (OSError, ValueError, KeyError, TypeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise CorpusError(f"cannot load index cache {path}: {exc}") from exc
    _require(isinstance(meta, dict) and meta.get("format") == _CACHE_FORMAT,
             path, "not a relmap index of this format")
    digest, vocab_size = meta.get("digest"), meta.get("vocab_size")
    _require(isinstance(digest, str) and type(vocab_size) is int and vocab_size >= 0,
             path, "bad metadata")
    _require(ids.dtype == np.int32 and ids.ndim == 1
             and offsets.dtype == np.int64 and offsets.ndim == 1
             and blob.dtype == np.uint8 and blob.ndim == 1, path, "bad array types")
    _require(offsets.size >= 1 and offsets[0] == 0 and offsets[-1] == ids.size
             and bool(np.all(offsets[1:] >= offsets[:-1])),
             path, "document offsets do not partition the tokens")
    vocab = Vocabulary(blob, vocab_size)
    try:
        vocab.check()
    except ValueError as exc:  # UnicodeDecodeError included
        raise CorpusError(f"bad index cache {path}: {exc}") from exc
    _require(ids.size == 0 or (int(ids.min()) >= 0 and int(ids.max()) < vocab_size),
             path, "token id out of vocabulary range")
    return CorpusIndex(ids=ids, doc_offsets=offsets, vocab=vocab, digest=digest)


def corpus_digest(paths: list[str | Path]) -> str:
    """Content digest of the corpus files, in the given order."""
    hasher = hashlib.sha256()
    for path in paths:
        p = Path(path)
        try:
            hasher.update(hashlib.sha256(p.read_bytes()).digest())
        except OSError as exc:
            raise CorpusError(f"cannot read {p}: {exc}") from exc
    return hasher.hexdigest()


def cached_index(paths: list[str | Path],
                 cache_dir: Optional[str | Path]) -> tuple[CorpusIndex, bool]:
    """The index of these files, from the cache when it holds one.

    Returns the index and whether it came from the cache. On a miss the
    files are ingested and, with a cache directory, the index is saved.
    """
    if not cache_dir:
        return ingest(paths), False
    digest = corpus_digest(paths)
    path = cache_path(cache_dir, digest)
    if path.exists():
        index = load_index(path)
        if index.digest != digest:
            raise CorpusError(f"index cache {path} holds another corpus")
        return index, True
    index = ingest(paths)
    save_index(index, cache_dir)
    return index, False
