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
lexicographic order. The vocabulary is kept as the keys ingest sorts
its words by (`Vocabulary`): each word's first 8 bytes as one big-endian
uint64 with the bytes past its end zeroed, its size as int32, and its
bytes past the 8th, concatenated in word order. UTF-8 byte order is
code-point order, so the keys sort as the words do. The vocabulary is
never decoded whole: the terms of a query are looked up at once by one
`searchsorted` over the prefixes, and the words of many ids are decoded
in one pass.

Postings exist only for the terms a query names. One pass over the ids
finds the positions of a whole batch of first tokens; each term's start
positions are then kept on the index, so a term asked for again costs
no pass. Beyond the vocabulary's keys nothing is kept per vocabulary
word, and an index that is only built and cached never searches.

Window search works on terms, not pairs. The starts of all the terms of
a pair list are merged in position order, once each however many pairs
name a term. For every start of a term that is some pair's x, one
`searchsorted` finds the term starts in the 0-3 tokens after its run,
inside its document. Each (x term, y term) hit is mapped to the pair
slots with those terms through a sorted key array, and one stable sort
by slot gives the windows in (pair, document, x start, y start) order.

Ingest streams the files: each is read, hashed and tokenized by bytes
before the next one is read. Its text is decoded, lowercased whole as
`terms.tokenize` lowercases it and encoded as UTF-8 again, and its bytes
are classed as whitespace, edge punctuation or word bytes: ASCII bytes
through a table, and the few wider characters that split or are stripped
by their codes. A token runs from the first word byte to the last of a
run of bytes that are not whitespace, so it is the runs of word bytes
joined across the runs of edge punctuation that lie between two of them,
found for all tokens at once. Each token's bytes become a key at once,
before the next file is read: its prefix, its size, and its bytes past
the 8th (`_keys`). One merge step sorts keys (`_merge`): it sorts them by
value on (prefix, size clipped to 9), refines only ties of words longer
than 8 bytes over the bytes past the 8th (`_sort_words`), and keeps the
distinct words, as keys, and each word's rank among them. Each batch of
_BATCH_TOKENS tokens is merged once its last token has come, and the
batches' distinct words are merged again, so that copies of a word from
several batches become one vocabulary word; each batch's ranks are
mapped to vocabulary ids, and the keys of the distinct words are the
vocabulary. So at any time memory holds one file, the keys of the tokens
waiting for their batch, one merge, the keys of the distinct words of
the batches so far and 4 bytes per token: never a Python string per
corpus token or per vocabulary word.

Cache. `save_index` writes one directory per cache key, holding
``ids.npy``, ``doc_offsets.npy``, ``prefix.npy``, ``sizes.npy``,
``tails.npy`` and ``meta.json``: the format, the corpus digest, the
vocabulary's size and the CRC-32 of each array's bytes. The directory
name is a hash of the corpus content digest and the format version.
There is one tokenization, `terms.tokenize`'s, taken by bytes, and the
format version stands for it, so an index written by another tokenizer
or layout is never found; the ``.npz`` files of format v4 and before
are never opened. The directory is written under a
temporary name in the cache directory and renamed into place, so no
reader sees a partial index. `load_index` maps each array read-only
(``mmap_mode="r"``, ``allow_pickle=False``), so nothing is copied or
unpickled, and checks the format, the dtypes, every array's CRC-32, the
offsets, the vocabulary and the id range before it returns anything.
The vocabulary is checked on its keys, a bounded number of words at a
time (`Vocabulary.check`): consistent keys, no empty word, valid UTF-8
without whitespace, decoding only the words that are not printable
ASCII, and strictly increasing order, settled on (prefix, size clipped
to 9) for whole chunks at once, with the bytes past the 8th compared
only where two long words tie on it. Last, no word may be a slot marker
(`terms.MARKERS`): `tokenize` never emits one, nor whitespace, and
mining relies on both.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import re
import shutil
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .csr import _ranges
from .errors import CorpusError
from .terms import _PUNCT, MARKERS, Term, TermPair

logger = logging.getLogger(__name__)

MAX_PRE = 1
MAX_MID = 3
MAX_POST = 1

# The format tag also stands for how `_file_tokens` decodes and tokenizes
# a file, which the cache key and metadata do not name: new tokens bump it.
_CACHE_FORMAT = "relmap-corpus-index-v5"
# The arrays of a cached index, each one `.npy` file.
_ARRAYS = ("ids", "doc_offsets", "prefix", "sizes", "tails")
# Words whose keys are checked at once when a loaded vocabulary is checked.
_CHECK_WORDS = 1 << 16
# Tokens that ingest sorts at once; the distinct words of the batches, kept
# as keys, are sorted again to make the vocabulary.
_BATCH_TOKENS = 1 << 16
# 8-byte prefixes a round of the word sort reads, beyond one a word, and
# the words whose bytes past the 8th a merge gathers at once.
_SORT_CHUNK = 1 << 14
# _PREFIX_MASKS[k] keeps the first k of 8 big-endian bytes. A table, not a
# shift: shifting a 64-bit integer by 64 bits is undefined.
_PREFIX_MASKS = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)
_PAST_MASKS = ~_PREFIX_MASKS
# Eight bytes of one value, for the vocabulary check: "A", which pads a
# word's prefix; "!", the lowest byte that is neither whitespace nor a
# control character; and each byte's top bit.
_FILL, _BANG, _HIGH = (np.uint64(int.from_bytes(bytes([c]) * 8, "big"))
                       for c in (0x41, 0x21, 0x80))
_WHITESPACE = re.compile(r"\s")
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False
# The kinds of the characters past ASCII that split or are stripped, all of
# 2 or 3 bytes (tests check every code point), and their 3-byte codes.
_SPACE, _EDGE, _WORD, _LEAD = 0, 1, 2, 3
_WIDE_KIND = (dict.fromkeys("\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
                            + "\u2028\u2029\u202f\u205f\u3000", _SPACE)
              | dict.fromkeys((c for c in _PUNCT if not c.isascii()), _EDGE))
_WIDE = sorted((int.from_bytes(c.encode().ljust(3, b"\0"), "big"), len(c.encode()), k)
               for c, k in _WIDE_KIND.items())
_WIDE_CODES, _WIDE_SIZES, _WIDE_KINDS = (np.array(column, dtype=np.int64) for column in zip(*_WIDE))
_WIDE_LEADS = {code >> 16 for code, _, _ in _WIDE}
# Whether a lead byte and the byte after it, as lead << 8 | next, begin a
# wide character: most characters with a lead byte begin none.
_WIDE_PAIRS = np.isin(np.arange(1 << 16), [code >> 8 for code, _, _ in _WIDE])
# The byte tokenizer's table for `bytes.translate`: each byte's kind
# (whitespace as `str.split` splits on it, edge punctuation as `tokenize`
# strips it, a word byte, or a lead: a wide character's first byte).
_BYTE_KIND = bytes(_LEAD if c in _WIDE_LEADS else _WORD if c >= 0x80
                   else _SPACE if chr(c).isspace() else _EDGE if chr(c) in _PUNCT else _WORD
                   for c in range(256))


class Vocabulary:
    """A sorted vocabulary kept as ingest's keys.

    Word i is three keys: prefix[i], its first 8 bytes as one big-endian
    integer with the bytes past its end zeroed (as `_prefixes` reads
    them); sizes[i], its size in bytes; and its bytes past the 8th, which
    follow those of the words before it in `tails`. It offers `len`,
    `find` and `locate` (many words placed by one `searchsorted` over the
    prefixes) and `words` (many words decoded in one pass), and no item
    access. No word is decoded until asked for.

    Words that share a prefix sort by their size clipped to 9, then by
    their bytes past the 8th: a prefix pads a word with zeros, so of two
    such words the shorter begins the other, and two of 9 bytes or more
    begin with the same 8 bytes.
    """

    def __init__(self, prefix: np.ndarray, sizes: np.ndarray, tails: np.ndarray):
        for keys in (prefix, sizes, tails):
            keys.flags.writeable = False
        self.prefix = prefix     # uint64
        self.sizes = sizes       # int32
        self.tails = tails       # uint8

    @functools.cached_property
    def _tail_starts(self) -> np.ndarray:
        """Word i's bytes past the 8th are tails[_tail_starts[i]:_tail_starts[i + 1]]."""
        starts = np.zeros(self.sizes.size + 1, dtype=np.int64)
        np.cumsum(np.maximum(self.sizes, 8) - 8, dtype=np.int64, out=starts[1:])
        return starts

    def __len__(self) -> int:
        return int(self.prefix.size)

    def words(self, ids) -> list[str]:
        """The words with these ids, in their order, decoded in one pass."""
        ids = np.asarray(ids, dtype=np.int64)
        if not ids.size:
            return []
        return self.joined(ids, ord("\n"))[:-1].tobytes().decode("utf-8").split("\n")

    def find(self, words: Sequence[str]) -> np.ndarray:
        """The id of each word, -1 for one not in the vocabulary."""
        below, found = self.locate(words)
        return np.where(found, below, -1)

    def locate(self, words: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """For each word, the number of vocabulary words below it, and
        whether the next one is that word.

        One `searchsorted` places all the words' prefixes; only the
        vocabulary words that share a word's prefix are compared on their
        other keys.
        """
        raw = [word.encode("utf-8") for word in words]
        prefix = np.array([int.from_bytes(b[:8].ljust(8, b"\0"), "big") for b in raw],
                          dtype=np.uint64)
        lo = np.searchsorted(self.prefix, prefix, side="left").tolist()
        hi = np.searchsorted(self.prefix, prefix, side="right").tolist()
        below, found = [], []
        for b, a, z in zip(raw, lo, hi):
            key = (min(len(b), 9), b[8:])
            i = a + bisect_left(range(a, z), key, key=self._tie_key)
            below.append(i)
            found.append(i < z and self._tie_key(i) == key)
        return np.array(below, dtype=np.int64), np.array(found, dtype=bool)

    def _tie_key(self, i: int) -> tuple[int, bytes]:
        """How word i sorts among the words that share its prefix."""
        size = int(self.sizes[i])
        if size <= 8:
            return size, b""
        a = int(self._tail_starts[i])
        return 9, self.tails[a:a + size - 8].tobytes()

    def joined(self, ids: np.ndarray, sep: int) -> np.ndarray:
        """The UTF-8 bytes of the words with these ids, each followed by the byte `sep`."""
        size = self.sizes[ids].astype(np.int64)
        end = np.cumsum(size + 1)
        start = end - size - 1
        out = np.full(int(end[-1]) if end.size else 0, sep, dtype=np.uint8)
        head = np.minimum(size, 8)
        first = self.prefix[ids].astype(">u8").view(np.uint8).reshape(-1, 8)
        out[_ranges(start, head)] = first[np.arange(8) < head[:, None]]
        long = np.flatnonzero(size > 8)
        if long.size:
            more = size[long] - 8
            out[_ranges(start[long] + 8, more)] = _gather(
                self.tails, self._tail_starts[ids[long]], more)
        return out

    def check(self) -> None:
        """Raise ValueError unless the keys hold distinct, non-empty, valid
        UTF-8 words without whitespace, in strictly increasing order,
        looked at _CHECK_WORDS words at a time.

        The keys must agree: as many sizes as prefixes, no byte of a prefix
        past its word's end, and as many bytes in `tails` as the sizes ask
        for. Each word's prefix, padded past its end with "A", is read as
        8 bytes at once: a word none of whose bytes lies below "!" or above
        DEL is ASCII without whitespace; only the others are decoded.
        Neighbours are ordered on (prefix, size clipped to 9) for a whole
        chunk at once, and only two words of 9 bytes or more that tie on
        it have their bytes past the 8th compared. The last pair of a
        chunk is its last word and the next chunk's first.
        """
        n = len(self)
        if self.sizes.size != n:
            raise ValueError("vocabulary is not of the stated size")
        if n and self.sizes.min() < 1:
            raise ValueError("vocabulary holds an empty word")
        base = 0  # bytes past the 8th of the words before the chunk
        for a in range(0, n, _CHECK_WORDS):
            b = min(a + _CHECK_WORDS, n)
            prefix, size = self.prefix[a:b + 1], self.sizes[a:b + 1]
            more = np.maximum(size, 8) - 8
            ends = np.zeros(more.size, dtype=np.int64)
            if np.any(more):  # most chunks of most corpora have no word past 8 bytes
                np.cumsum(more, dtype=np.int64, out=ends)
            ends += base
            starts = ends - more
            if ends[-1] > self.tails.size:
                raise ValueError("vocabulary's bytes past the 8th do not match its sizes")
            past = np.take(_PAST_MASKS, np.minimum(size, 8))
            if np.any(prefix & past):
                raise ValueError("vocabulary key has bytes past its word's end")
            # In `padded - _BANG` the lowest byte below "!" borrows, which sets
            # its top bit; a byte from 0x80 up has it set already.
            padded = prefix | past & _FILL
            odd = np.flatnonzero(((padded - _BANG | padded) & _HIGH)[:b - a])
            tail = self.tails[base:ends[b - a - 1]]
            odd_tail = np.flatnonzero(tail - np.uint8(ord("!")) > 0x7f - ord("!"))
            if odd_tail.size:
                odd_tail = np.searchsorted(ends[:b - a], odd_tail + base, side="right")
                odd = np.union1d(odd, odd_tail)
            if odd.size:
                text = self.joined(odd + a, 0).tobytes().decode("utf-8")
                if _WHITESPACE.search(text):
                    raise ValueError("vocabulary holds a word with whitespace")
            base = int(ends[b - a - 1])
            if np.any(prefix[1:] < prefix[:-1]):
                raise ValueError("vocabulary is not strictly increasing")
            same = np.flatnonzero(prefix[1:] == prefix[:-1])
            lo, hi = np.minimum(size[same], 9), np.minimum(size[same + 1], 9)
            if np.any((lo > hi) | (lo == hi) & (lo < 9)) or not self._tails_increase(
                    same[lo == hi], starts, more):
                raise ValueError("vocabulary is not strictly increasing")
        if base != self.tails.size:
            raise ValueError("vocabulary's bytes past the 8th do not match its sizes")

    def _tails_increase(self, i: np.ndarray, starts: np.ndarray, more: np.ndarray) -> bool:
        """Whether, for each i, the bytes past the 8th of the i-th word of
        a chunk, which start at starts[i] and number more[i], sort below
        those of the word after it: at the first byte where they differ,
        or else by size."""
        if not i.size:
            return True
        n = np.minimum(more[i], more[i + 1]).astype(np.int64)
        x = _gather(self.tails, starts[i], n)
        y = _gather(self.tails, starts[i + 1], n)
        first = np.cumsum(n) - n
        differ = np.append(np.flatnonzero(x != y), x.size)
        at = differ[np.searchsorted(differ, first)]
        has = at < first + n
        at = np.minimum(at, x.size - 1)
        return bool(np.all(np.where(has, x[at] < y[at], more[i] < more[i + 1])))


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
    return blob.take(_ranges(starts, sizes), mode="clip")


def _sort_words(prefix: np.ndarray, sizes: np.ndarray, blob: np.ndarray,
                tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Words given as keys, sorted.

    Word i is its first 8 bytes, prefix[i] (as `_prefixes` reads them),
    its size, sizes[i], and its bytes past the 8th,
    blob[tails[i]:tails[i] + sizes[i] - 8]. `blob` must hold
    8 * _SORT_CHUNK bytes past the end of every word's bytes.

    Returns `order`, the word indices by increasing word, equal words
    next to each other, and `first`, for each place in `order` the first
    place that holds the same word.

    The first round sorts all words by value on (prefix, min(size, 9)).
    A prefix has the bytes past the word's end zeroed, so of two words
    with equal prefixes the shorter is the one that begins the other,
    and words of 8 bytes or fewer with equal keys are equal. Only ties
    of longer words go on, to most-significant-digit refinement over the
    bytes past their 8th. A round reads k 8-byte prefixes of each word
    still tied: _SORT_CHUNK // (words still tied), at least 1 and no
    more than the longest of them needs. So a tie of few long words,
    such as copies of one long word from several batches, takes few
    rounds. A round sorts the words still tied, which share their first
    `depth` bytes, by (the first place of their tie, their next k
    prefixes, the bytes they have left clipped to 8k + 1); equal keys
    with 8k bytes left or fewer are equal words, and only ties with more
    than 8k bytes left go on to the next round.
    """
    n = prefix.size  # below 2**31: ingest numbers the words in int32
    head = np.minimum(sizes, 9).astype(np.uint8)
    order = np.lexsort((head, prefix))
    head, key = head[order], prefix[order]
    new = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    new[1:] |= head[1:] != head[:-1]
    first = np.maximum.accumulate(np.where(new, np.arange(n, dtype=np.int32), 0))
    tied = ~new
    tied[:-1] |= ~new[1:]
    del new
    live = np.flatnonzero(tied & (head > 8))  # places still tied, with bytes left
    del tied, head
    depth = 8
    while live.size:
        words = order[live]
        most = int(sizes[words].max()) - depth  # bytes left in the longest word
        k = max(1, min(_SORT_CHUNK // live.size, -(-most // 8)))
        # The smallest dtype sorts fastest: 8 bits when k is 1.
        left = np.minimum(sizes[words] - depth, 8 * k + 1).astype(np.min_scalar_type(8 * k + 1))
        step = np.arange(0, 8 * k, 8, dtype=left.dtype)[:, None]
        # Prefix j holds clip(left - 8j, 0, 8) of a word's bytes; this
        # form of it never goes below 0 in an unsigned dtype.
        key = _prefixes(blob, tails[words] + (depth - 8) + step,
                        np.minimum(left, step + 8) - np.minimum(left, step))
        by = np.lexsort((left, *key[::-1], first[live]))
        # A tie holds the places live[i] of consecutive i, so its words
        # stay in its places.
        order[live] = words[by]
        tie, left, key = first[live][by], left[by], key[:, by]
        new = np.ones(live.size, dtype=bool)
        new[1:] = ((tie[1:] != tie[:-1]) | (left[1:] != left[:-1])
                   | (key[:, 1:] != key[:, :-1]).any(axis=0))
        first[live] = np.maximum.accumulate(np.where(new, live, 0))
        tied = ~new
        tied[:-1] |= ~new[1:]
        live = live[tied & (left > 8 * k)]
        depth += 8 * k
    return order, first


def _tail_bytes(words: np.ndarray, sizes: np.ndarray, blob: np.ndarray,
                tails: np.ndarray) -> np.ndarray:
    """The bytes past the 8th of these words among the keys (as
    `_sort_words` reads them), concatenated in this order, gathered
    _SORT_CHUNK words at a time."""
    long = words[sizes[words] > 8]
    more = sizes[long] - 8
    out = np.empty(int(more.sum(dtype=np.int64)), dtype=np.uint8)
    at = 0
    for a in range(0, long.size, _SORT_CHUNK):
        part = _gather(blob, tails[long[a:a + _SORT_CHUNK]], more[a:a + _SORT_CHUNK])
        out[at:at + part.size] = part
        at += part.size
    return out


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
        new = [term for term in dict.fromkeys(terms) if term not in found]
        tokens = list(dict.fromkeys(tok for term in new for tok in term.tokens))
        tid = dict(zip(tokens, self.vocab.find(tokens).tolist()))
        tids = {term: [tid[tok] for tok in term.tokens] for term in new}
        heads = self._positions(sorted({t[0] for t in tids.values() if min(t) >= 0}))
        for term, t in tids.items():
            found[term] = self._runs(heads[t[0]], t) if min(t) >= 0 else _EMPTY
        return {term: found[term] for term in terms}

    def _positions(self, tids: list[int]) -> dict[int, np.ndarray]:
        """Sorted global positions of each of these sorted, distinct token
        ids, from one pass."""
        if not tids:
            return {}
        wanted = np.zeros(len(self.vocab), dtype=bool)
        wanted[tids] = True
        pos = np.flatnonzero(wanted[self.ids])
        tok = self.ids[pos]
        order = _stable_argsort(tok)  # positions stay sorted per token
        pos, tok = pos[order], tok[order]
        pos.flags.writeable = False
        lo = np.searchsorted(tok, tids, side="left").tolist()
        hi = np.searchsorted(tok, tids, side="right").tolist()
        return {t: pos[a:b] for t, a, b in zip(tids, lo, hi)}

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

    The files are streamed: each is read, hashed and tokenized before
    the next is read (`_file_tokens`), and its tokens wait, as keys, for
    their batch to be sorted (`_index_tokens`). Files must be UTF-8 text,
    whose leading byte-order mark is skipped; an unreadable or
    mis-encoded file raises CorpusError naming the path. An empty path
    list yields a valid empty index.
    """
    hasher = hashlib.sha256()
    index = _index_tokens(_file_tokens(Path(path), hasher) for path in paths)
    return dataclasses.replace(index, digest=hasher.hexdigest())


def _file_tokens(path: Path, hasher) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The file's tokens as (bytes, starts, sizes), `tokenize`'s tokens of
    its UTF-8 text less a leading byte-order mark, lowercased whole as
    `tokenize` lowercases it; the SHA-256 of its bytes goes into `hasher`."""
    try:
        raw = path.read_bytes()
        low = raw.decode("utf-8-sig").lower().encode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot ingest {path}: {exc}") from exc
    hasher.update(hashlib.sha256(raw).digest())
    return _byte_tokens(low)


def _byte_tokens(low: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`tokenize`'s tokens of lowercase UTF-8 text, as (bytes, starts,
    sizes): token i is bytes[starts[i]:starts[i] + sizes[i]].

    A token is a run of bytes that are not whitespace, less the edge
    punctuation: it spans from its run's first word byte to its last, and
    a run with no word byte gives none. A character of `_WIDE_KIND` is
    classed whole, by its code at its lead, a byte no character holds
    inside; a code is read only where the lead and the byte after it
    begin such a character.
    """
    data = np.frombuffer(low, dtype=np.uint8)
    kind = np.frombuffer(low.translate(_BYTE_KIND), dtype=np.uint8).copy()
    lead = np.flatnonzero(kind == _LEAD)
    kind[lead] = _WORD
    pair = data[lead].astype(np.uint16) << 8 | np.take(data, lead + 1, mode="clip")
    lead = lead[_WIDE_PAIRS[pair]]
    del pair
    b0, b1, b2 = (np.take(data, lead + k, mode="clip").astype(np.int64) for k in range(3))
    code = b0 << 16 | b1 << 8 | np.where(b0 < 0xE0, 0, b2)
    at = np.searchsorted(_WIDE_CODES, code)
    hit = _WIDE_CODES.take(at, mode="clip") == code
    at = at[hit]
    kind[_ranges(lead[hit], _WIDE_SIZES[at])] = np.repeat(_WIDE_KINDS[at], _WIDE_SIZES[at])
    parts = _run_edges(kind == _WORD)  # runs of word bytes
    edges = _run_edges(kind == _EDGE)  # runs of edge punctuation
    # A run of edge punctuation with word bytes on both sides joins the
    # parts on its two sides into one token; any other gap between two
    # parts holds whitespace. At the file's ends `take` clips to the run's
    # own first or last byte, which is no word byte.
    a, b = edges[0::2], edges[1::2]
    inner = (np.take(kind, a - 1, mode="clip") == _WORD) & (np.take(kind, b, mode="clip") == _WORD)
    del kind
    joined = np.zeros(len(low) + 1, dtype=bool)
    joined[a[inner]] = joined[b[inner]] = True
    starts = parts[0::2][~joined[parts[0::2]]]
    sizes = parts[1::2][~joined[parts[1::2]]] - starts
    return data, starts, sizes


def _run_edges(mask: np.ndarray) -> np.ndarray:
    """Where each run of True in `mask` starts and ends, interleaved."""
    padded = np.zeros(mask.size + 2, dtype=bool)
    padded[1:-1] = mask
    return np.flatnonzero(padded[1:] != padded[:-1])


def _index_tokens(documents: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> CorpusIndex:
    """The index of documents given as (bytes, starts, sizes) of their tokens.

    Each document's tokens become keys (`_keys`) before the next document
    is made, so no document's bytes outlive its keys. The keys are sorted
    in batches of up to _BATCH_TOKENS tokens, each batch once its last
    token has come (`_merge`), which keeps its distinct words' keys and
    gives its tokens' ranks among the words of the batches. The same
    merge of the batches' keys makes the copies of a word from several
    batches one vocabulary word; each batch's ranks are mapped to
    vocabulary ids, and the distinct words' keys become the `Vocabulary`.
    """
    lengths = [0]
    pending = []   # the keys of the tokens not yet sorted
    held = 0       # tokens in `pending`
    batches = []   # the keys of each sorted batch's distinct words
    ranks = []     # each sorted batch's tokens' ranks among them all
    for data, starts, sizes in documents:
        lengths.append(starts.size)
        at = 0
        while at < starts.size:
            end = min(starts.size, at + _BATCH_TOKENS - held)
            pending.append(_keys(data, starts[at:end], sizes[at:end]))
            held += end - at
            at = end
            if held == _BATCH_TOKENS:
                ranks.append(_merge(pending, batches))
                held = 0
        del data, starts, sizes  # before the next document is made
    if held:
        ranks.append(_merge(pending, batches))
    offsets = np.cumsum(lengths, dtype=np.int64)
    vocab = []
    rank = _merge(batches, vocab)
    ids = np.empty(offsets[-1], dtype=np.int32)
    at = 0
    for i, batch in enumerate(ranks):
        np.take(rank, batch, out=ids[at:at + batch.size])
        at += batch.size
        ranks[i] = None
    return CorpusIndex(ids=ids, doc_offsets=offsets, vocab=Vocabulary(*vocab[0]))


def _keys(data: np.ndarray, starts: np.ndarray,
          sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The keys of the words data[s:s + n] of these starts and sizes:
    their 8-byte prefixes, their sizes (as int32) and their bytes past the
    8th, concatenated in their order."""
    a = int(starts[0])
    padded = np.zeros(int(starts[-1] + sizes[-1]) - a + 8, dtype=np.uint8)
    padded[:-8] = data[a:a + padded.size - 8]
    starts = starts - a
    long = sizes > 8
    return (_prefixes(padded, starts, sizes), sizes.astype(np.int32),
            _gather(padded, starts[long] + 8, sizes[long] - 8))


def _merge(parts: list, words: list) -> np.ndarray:
    """Sort the words given as keys in `parts`, and empty it.

    The keys of the distinct words, in increasing order, are appended to
    `words`. Returns each word's rank among the keys of `words`,
    concatenated.
    """
    # The bytes the sort reads past the last word's end are zeros.
    pad = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int32),
           np.zeros(8 * _SORT_CHUNK, dtype=np.uint8))
    prefix, sizes, blob = (np.concatenate(keys) for keys in zip(*parts, pad))
    parts.clear()
    # Where each word's bytes past the 8th start in `blob`; a word of 8
    # bytes or fewer has none, and 0.
    tails = np.zeros(prefix.size, dtype=np.int64)
    long = np.flatnonzero(sizes > 8)
    more = sizes[long] - 8
    tails[long] = np.cumsum(more, dtype=np.int64) - more
    del long, more
    order, first = _sort_words(prefix, sizes, blob, tails)
    distinct = first == np.arange(prefix.size, dtype=np.int32)
    del first
    rank = np.empty(prefix.size, dtype=np.int32)
    rank[order] = np.cumsum(distinct, dtype=np.int32) + (sum(p.size for p, _, _ in words) - 1)
    kept = order[distinct]
    del order, distinct
    tail = _tail_bytes(kept, sizes, blob, tails)
    del blob, tails
    words.append((prefix[kept], sizes[kept], tail))
    return rank


def corpus_files(corpus_dir: str | Path) -> list[Path]:
    """All .txt files under a directory, recursively, in lexicographic path order."""
    root = Path(corpus_dir)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")
    return sorted(root.rglob("*.txt"), key=lambda p: p.as_posix())


def _stable_argsort(*fields: np.ndarray) -> np.ndarray:
    """The stable argsort of the records (fields[0][i], fields[1][i], ...)
    of non-negative integers, fields[0] most significant, by `np.sort` of
    plain uint64s: the order `np.lexsort(fields[::-1])` gives.

    Let b be the bit length of n - 1. A pass sorts ``digit << b |
    position`` by value, which is a stable argsort by the digit: equal
    digits keep the order of their positions, and the low b bits of the
    sorted values are the argsort. The bits that are zero in every record
    are dropped, and the passes run least significant digit first, each
    over as many of the bits left as fit beside the positions. One
    n-sized digit is built at a time. At 400k elements a pass takes about
    a tenth of the time of numpy's indirect stable sort.
    """
    n = fields[0].size
    b = max(n - 1, 0).bit_length()
    parts = []   # (field, its lowest used bit, its used width, its lowest record bit)
    width = 0
    for f in reversed(fields):
        used = int(np.bitwise_or.reduce(f, initial=0))
        low = (used & -used).bit_length() - 1 if used else 0
        parts.append((f, low, used.bit_length() - low, width))
        width += used.bit_length() - low
    order = np.arange(n)
    for lo in range(0, width, 64 - b):
        hi = min(lo + 64 - b, width)
        key = np.arange(n, dtype=np.uint64)
        for f, low, size, at in parts:
            a, z = max(lo, at), min(hi, at + size)
            if a < z:
                digit = (f.astype(np.uint64) if lo == 0
                         else np.take(f, order).astype(np.uint64, copy=False))
                if low + a > at:
                    digit >>= np.uint64(low + a - at)
                if z < at + size:  # the field's bits go on past the pass
                    digit &= np.uint64((1 << (z - a)) - 1)
                digit <<= np.uint64(a - lo + b)
                key |= digit
                del digit
        key.sort()
        key &= np.uint64((1 << b) - 1)
        order = key.view(np.int64) if lo == 0 else np.take(order, key.view(np.int64))
    return order


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
    order = _stable_argsort(pos)
    pos, term = pos[order], term[order]
    # The pair slots, sorted by their (x term, y term) key.
    keys = np.array([code[p.x] * n + code[p.y] for p in pairs], dtype=np.int64)
    slots = _stable_argsort(keys)
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
    order = _stable_argsort(pair)
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
    return np.repeat(np.arange(first.size), count), _ranges(first, count)


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
    """Where the index of a corpus with this digest is cached: a directory."""
    key = json.dumps({"format": _CACHE_FORMAT, "digest": digest}, sort_keys=True)
    return Path(cache_dir) / f"index-{hashlib.sha256(key.encode()).hexdigest()}"


def save_index(index: CorpusIndex, cache_dir: str | Path) -> Path:
    """Persist the index under its cache key; returns the directory's path.

    The arrays and the metadata are written into a temporary directory,
    which is renamed into place. Should another writer have put the same
    key's directory there first, that one is kept.
    """
    path = cache_path(cache_dir, index.digest)
    vocab = index.vocab
    arrays = {"ids": index.ids, "doc_offsets": index.doc_offsets,
              "prefix": vocab.prefix, "sizes": vocab.sizes, "tails": vocab.tails}
    meta = {"format": _CACHE_FORMAT, "digest": index.digest, "vocab_size": len(vocab),
            "crc32": {name: zlib.crc32(a) for name, a in arrays.items()}}
    tmp = path.with_name(f".{path.name}-{os.urandom(6).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.mkdir()
            for name, a in arrays.items():
                np.save(tmp / f"{name}.npy", a, allow_pickle=False)
            (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
            os.rename(tmp, path)
        except OSError:
            if not path.is_dir():
                raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except OSError as exc:
        raise CorpusError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def _require(ok: bool, path, what: str) -> None:
    if not ok:
        raise CorpusError(f"bad index cache {path}: {what}")


def load_index(path: str | Path) -> CorpusIndex:
    """Read an index written by `save_index`, checking it before use.

    Each array is mapped read-only, not copied, and nothing is unpickled.
    A directory that is not such an index, or whose arrays are damaged or
    inconsistent, raises CorpusError naming the path.
    """
    path = Path(path)
    try:
        meta = json.loads((path / "meta.json").read_bytes())
        arrays = {name: np.asarray(np.load(path / f"{name}.npy", mmap_mode="r", allow_pickle=False))
                  for name in _ARRAYS}
    except (OSError, ValueError, EOFError) as exc:
        raise CorpusError(f"cannot load index cache {path}: {exc}") from exc
    _require(isinstance(meta, dict) and meta.get("format") == _CACHE_FORMAT,
             path, "not a relmap index of this format")
    digest, vocab_size, crc = meta.get("digest"), meta.get("vocab_size"), meta.get("crc32")
    _require(isinstance(digest, str) and type(vocab_size) is int and vocab_size >= 0
             and isinstance(crc, dict), path, "bad metadata")
    ids, offsets = arrays["ids"], arrays["doc_offsets"]
    prefix, sizes, tails = arrays["prefix"], arrays["sizes"], arrays["tails"]
    _require(ids.dtype == np.int32 and offsets.dtype == np.int64 and prefix.dtype == np.uint64
             and sizes.dtype == np.int32 and tails.dtype == np.uint8
             and all(a.ndim == 1 for a in arrays.values()), path, "bad array types")
    for name, a in arrays.items():
        _require(crc.get(name) == zlib.crc32(a), path, f"{name}.npy does not match its CRC-32")
    _require(offsets.size >= 1 and offsets[0] == 0 and offsets[-1] == ids.size
             and bool(np.all(offsets[1:] >= offsets[:-1])),
             path, "document offsets do not partition the tokens")
    _require(prefix.size == vocab_size, path, "vocabulary is not of the stated size")
    vocab = Vocabulary(prefix, sizes, tails)
    try:
        vocab.check()
    except ValueError as exc:  # UnicodeDecodeError included
        raise CorpusError(f"bad index cache {path}: {exc}") from exc
    _require(ids.size == 0 or (int(ids.min()) >= 0 and int(ids.max()) < vocab_size),
             path, "token id out of vocabulary range")
    _require(not vocab.locate(MARKERS)[1].any(), path, "vocabulary holds a slot marker")
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
