"""Independent reference implementations used to check the real code.

Everything here is deliberately naive: plain scans, explicit loops, no
shared code with the package beyond its public data types. The ingest
references tokenize one word at a time and assign ids after every file
is tokenized, from one first-seen dict over the whole corpus and a
Python sort of its words, the package's earlier designs; the streamed
ingest, with its byte tokenizer and its numpy sort of batches of
tokens, must give the same ids, offsets, vocabulary and
digest. The lookup
reference keeps the vocabulary as a list of strings and builds postings
for every token id with a full stable argsort and a bincount, the
package's earlier design; the byte-blob vocabulary and the per-query
postings must find the same ids, words and start positions.
`word_keys` builds a vocabulary's keys one word at a time. The
vocabulary-check reference rebuilds every word from its keys and
compares neighbours in Python, as the package's earlier design
compared the words of its newline-joined bytes; the key-compared check
must accept and refuse the same vocabularies with the same message. The search references score and
compare one mapping at a time, one Python call per mapping, as the slow
reference for the package's block search core.
The hybrid's probability reference totals a channel by counting the
grid cells the enumerated mappings read, not by the package's closed
form.
The SVD references are the dense LAPACK and iterative `svds` backends,
against which the package's Gram eigendecomposition is checked, and
`truncated_svd_full`, one eigh of the whole Gram matrix, the package's
earlier design; the decomposition one connected component at a time
must keep the same spectrum, cut and cosines. `truncated_svd_every_component`
runs that decomposition on every component, the design before the
package skipped the components whose eigenvalues cannot reach the cut;
the package must keep its bits. Both run each eigh at one BLAS thread,
as the package does, so that their bits do not depend on the thread
count. The no-SVD reference,
`dense_cosines`, normalizes a dense copy of X's rows, the package's
earlier design; the cosines from the sparse Gram matrix must agree with
it and zero the same weak rows. `scalar_sim_r` reads one cosine at a
time, as the package's earlier `sim_r` did, against which the grid and
pair lookups are checked to the bit. `search_phrases` spells out the
package's windows for one pair as `PhraseOccurrence` objects, and is
checked against `scan_windows`. The pattern-mining reference takes its
windows from it, builds string patterns and counts them in dicts; the
package's integer-coded miner must give the same counts, columns and
matrix; `decode` reads the miner's column slot codes back as slot
tuples, which only the tests need. The scipy.sparse references are the
package's earlier F and X, held as scipy matrices: both weightings and
the no-SVD cosines from one sparse product, against which the numpy
matrix of `relmap.csr` must give the same bytes. The space functions
take only that matrix: `as_csr` builds it from a dense array or a scipy
matrix, and `as_scipy` turns it into a scipy one, for the tests that
index or densify it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
import string
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import svds

from relmap.corpus import MAX_MID, MAX_POST, MAX_PRE, _find_windows
from relmap.csr import CSR
from relmap.errors import RelmapError, TransformError
from relmap.patterns import slot_words
from relmap.space import _WEAK_ROW_SHARE, _one_blas_thread
from relmap.terms import TermPair

TIE_TOLERANCE = 1e-12
SVD_TIE_SHARE = 1e-9
WEAK_ROW_SHARE = 1e-6

PUNCTUATION = string.punctuation + "‘’“”–—"


def tokenize_words(text):
    """Split on whitespace, then lowercase and strip each word on its own."""
    out = []
    for raw in text.split():
        tok = raw.lower().strip(PUNCTUATION)
        if tok:
            out.append(tok)
    return out


def batch_index(documents):
    """(ids, offsets, vocab) of token lists, with ids assigned after all are read.

    Ids are first assigned in order of first appearance, in one dict
    over all the tokens, then renumbered by the token's rank in the
    vocabulary, sorted by Python's string order.
    """
    first_seen = defaultdict(itertools.count().__next__)
    n_tokens = sum(map(len, documents))
    seen_ids = np.fromiter(
        map(first_seen.__getitem__, itertools.chain.from_iterable(documents)),
        dtype=np.int32, count=n_tokens)
    seen = list(first_seen)
    order = sorted(range(len(seen)), key=seen.__getitem__)
    rank = np.empty(len(seen), dtype=np.int32)
    rank[order] = np.arange(len(seen), dtype=np.int32)
    offsets = np.zeros(len(documents) + 1, dtype=np.int64)
    np.cumsum([len(doc) for doc in documents], dtype=np.int64, out=offsets[1:])
    return rank[seen_ids], offsets, [seen[i] for i in order]


def batch_ingest(paths):
    """(ids, offsets, vocab, digest): every file tokenized, then ids assigned."""
    hasher = hashlib.sha256()
    documents = []
    for path in paths:
        raw = Path(path).read_bytes()
        hasher.update(hashlib.sha256(raw).digest())
        documents.append(tokenize_words(raw.decode("utf-8-sig")))
    return (*batch_index(documents), hasher.hexdigest())


class ListIndex:
    """Term lookup over a list vocabulary and postings for every token id.

    The postings are CSR: every position sorted by (token id, position),
    with per-id bounds from a bincount.
    """

    def __init__(self, ids, doc_offsets, vocab):
        self.ids, self.doc_offsets, self.vocab = ids, doc_offsets, vocab
        self.order = np.argsort(ids, kind="stable")
        self.bounds = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=len(vocab)), out=self.bounds[1:])

    def token_id(self, token):
        i = bisect_left(self.vocab, token)
        return i if i < len(self.vocab) and self.vocab[i] == token else -1

    def starts(self, tokens):
        """Sorted global start positions of the token run, inside one document."""
        tids = [self.token_id(tok) for tok in tokens]
        if min(tids) < 0:
            return np.zeros(0, dtype=np.int64)
        pos = self.order[self.bounds[tids[0]]:self.bounds[tids[0] + 1]]
        keep = []
        for p in pos.tolist():
            doc = int(np.searchsorted(self.doc_offsets, p, side="right")) - 1
            end = p + len(tids)
            if end <= self.doc_offsets[doc + 1] and self.ids[p:end].tolist() == tids:
                keep.append(p)
        return np.array(keep, dtype=np.int64)


def word_keys(words):
    """The keys of these byte words, one word at a time, as `corpus.Vocabulary`
    holds them: each word's first 8 bytes, zero-padded, as a big-endian
    uint64, its size as int32, and its bytes past the 8th, concatenated."""
    prefix = np.array([int.from_bytes(w[:8].ljust(8, b"\0"), "big") for w in words],
                      dtype=np.uint64)
    sizes = np.array([len(w) for w in words], dtype=np.int32)
    tails = np.frombuffer(b"".join(w[8:] for w in words), dtype=np.uint8)
    return prefix, sizes, tails


def check_vocabulary(prefix, sizes, tails, chunk_words):
    """Raise ValueError as `Vocabulary.check` must, in Python: every word is
    rebuilt from its keys, each chunk of `chunk_words` words is decoded
    and searched for whitespace, and its neighbours, up to the next
    chunk's first word, are compared as bytes objects."""
    if len(sizes) != len(prefix):
        raise ValueError("vocabulary is not of the stated size")
    sizes = sizes.tolist()
    if min(sizes, default=1) < 1:
        raise ValueError("vocabulary holds an empty word")
    words, at = [], 0
    for p, n in zip(prefix.tolist(), sizes):
        words.append(p.to_bytes(8, "big")[:n] + tails[at:at + max(n - 8, 0)].tobytes())
        at += max(n - 8, 0)
    size = len(words)
    for a in range(0, size, chunk_words):
        part = words[a:a + chunk_words + 1]
        if sum(max(n - 8, 0) for n in sizes[:a + len(part)]) > len(tails):
            raise ValueError("vocabulary's bytes past the 8th do not match its sizes")
        if any(p.to_bytes(8, "big")[min(n, 8):].strip(b"\0")
               for p, n in zip(prefix[a:a + len(part)].tolist(), sizes[a:a + len(part)])):
            raise ValueError("vocabulary key has bytes past its word's end")
        text = b"\0".join(part[:chunk_words]).decode("utf-8")
        if any(c.isspace() for c in text):
            raise ValueError("vocabulary holds a word with whitespace")
        if not all(map(operator.lt, part, part[1:])):
            raise ValueError("vocabulary is not strictly increasing")
    if at != len(tails):
        raise ValueError("vocabulary's bytes past the 8th do not match its sizes")


@dataclass(frozen=True)
class PhraseOccurrence:
    """One corpus window matching the search template for a term pair.

    Spans are token index ranges into `window` (half-open). `pre`, `mid`
    and `post` count the words outside the two term spans.
    """

    doc: int
    start: int                   # window start offset within the document
    window: tuple[str, ...]
    x_span: tuple[int, int]      # term x, relative to window
    y_span: tuple[int, int]      # term y, relative to window
    pre: int
    mid: int
    post: int

    def __post_init__(self):
        if not (0 <= self.pre <= MAX_PRE and 0 <= self.mid <= MAX_MID
                and 0 <= self.post <= MAX_POST):
            raise ValueError(f"window gaps out of template bounds: "
                             f"pre={self.pre} mid={self.mid} post={self.post}")
        if self.x_span[1] > self.y_span[0]:
            raise ValueError("term spans overlap or are out of order")


def search_phrases(index, pair):
    """Every window where pair.x is followed by pair.y within the template,
    found by the package's `_find_windows` and spelled out one by one.

    Absent terms simply yield an empty list. A y match must start 0-3
    tokens after the x match ends and lie in the same document; up to
    one token of leading and trailing context is included when the
    document provides it. Results come in (document, x start, y start)
    order.
    """
    _pair, doc, x_pos, y_pos, pre, post = _find_windows(index, [pair])
    x_len = len(pair.x.tokens)
    y_len = len(pair.y.tokens)
    w_start = x_pos - pre
    w_end = y_pos + y_len + post
    words = index.vocab.words
    ids = index.ids
    out = []
    for d, ds, ws, we, xp, yp, pr, po in zip(
            doc.tolist(), index.doc_offsets[doc].tolist(), w_start.tolist(),
            w_end.tolist(), x_pos.tolist(), y_pos.tolist(), pre.tolist(),
            post.tolist()):
        out.append(PhraseOccurrence(
            doc=d,
            start=ws - ds,
            window=tuple(words(ids[ws:we])),
            x_span=(xp - ws, xp + x_len - ws),
            y_span=(yp - ws, yp + y_len - ws),
            pre=pr,
            mid=yp - xp - x_len,
            post=po,
        ))
    return out


def scan_windows(documents, x_tokens, y_tokens,
                 max_pre=1, max_mid=3, max_post=1):
    """Brute-force template windows: (doc, x_start, y_start, pre, mid, post)."""
    x_tokens = tuple(x_tokens)
    y_tokens = tuple(y_tokens)
    hits = []
    for doc_id, toks in enumerate(documents):
        n = len(toks)
        for xs in range(n):
            if tuple(toks[xs:xs + len(x_tokens)]) != x_tokens:
                continue
            xe = xs + len(x_tokens)
            for mid in range(max_mid + 1):
                ys = xe + mid
                if tuple(toks[ys:ys + len(y_tokens)]) != y_tokens:
                    continue
                ye = ys + len(y_tokens)
                if ye > n:
                    continue
                pre = min(max_pre, xs)
                post = min(max_post, n - ye)
                hits.append((doc_id, xs, ys, pre, mid, post))
    return hits


def scan_cooccurrences(documents, a_tokens, b_tokens, window):
    """(count_a, count_b, count_ab) by direct position scanning."""
    a_tokens, b_tokens = tuple(a_tokens), tuple(b_tokens)

    def positions(tokens_wanted):
        out = []
        for doc_id, toks in enumerate(documents):
            for i in range(len(toks)):
                if tuple(toks[i:i + len(tokens_wanted)]) == tokens_wanted:
                    out.append((doc_id, i))
        return out

    pos_a = positions(a_tokens)
    pos_b = positions(b_tokens)
    pairs = set()
    for da, ia in pos_a:
        for db, ib in pos_b:
            if da == db and (da, ia) != (db, ib) and abs(ia - ib) <= window:
                pairs.add(((da, min(ia, ib)), (da, max(ia, ib))))
    return len(pos_a), len(pos_b), len(pairs)


def enumerate_pattern_strings(window, x_span, y_span):
    """Every pattern (as a string) a window can generate, both hole orders."""
    out = set()
    for x_mark, y_mark in (("X", "Y"), ("Y", "X")):
        slots = []
        free = []
        i = 0
        while i < len(window):
            if i == x_span[0]:
                slots.append(x_mark)
                i = x_span[1]
            elif i == y_span[0]:
                slots.append(y_mark)
                i = y_span[1]
            else:
                free.append(len(slots))
                slots.append(window[i])
                i += 1
        for mask in range(1 << len(free)):
            variant = list(slots)
            for bit, pos in enumerate(free):
                if mask >> bit & 1:
                    variant[pos] = "*"
            out.add(" ".join(variant))
    return out


# --- string pattern mining ------------------------------------------------------
# The dict-of-string-tuples miner that preceded the package's integer-coded
# one: patterns are tuples of slot strings, counted per pair in dicts, and
# the columns are ordered by sorting every pattern's serialized string.

def swap_pattern(pattern):
    """The same pattern with the X and Y holes exchanged."""
    return tuple("Y" if s == "X" else "X" if s == "Y" else s for s in pattern)


def is_template_shaped(pattern):
    """True if the slot layout could come from a template window."""
    holes = [i for i, s in enumerate(pattern) if s in ("X", "Y")]
    if len(holes) != 2 or pattern[holes[0]] == pattern[holes[1]]:
        return False
    first, second = holes
    return first <= 1 and (second - first - 1) <= 3 and (len(pattern) - second - 1) <= 1


def _base_slots(phrase, pair):
    (xs, xe), (ys, ye) = phrase.x_span, phrase.y_span
    if tuple(phrase.window[xs:xe]) != pair.x.tokens or \
       tuple(phrase.window[ys:ye]) != pair.y.tokens:
        raise RelmapError(f"phrase window does not contain pair {pair.text!r} "
                          f"at the recorded spans")
    slots = []
    free = []
    i = 0
    while i < len(phrase.window):
        if i == xs:
            slots.append("X")
            i = xe
        elif i == ys:
            slots.append("Y")
            i = ye
        else:
            free.append(len(slots))
            slots.append(phrase.window[i])
            i += 1
    return slots, free


def _wildcard_variants(slots, free):
    out = set()
    for mask in range(1 << len(free)):
        variant = list(slots)
        for bit, pos in enumerate(free):
            if mask >> bit & 1:
                variant[pos] = "*"
        out.add(tuple(variant))
    return out


def generate_pattern_families(phrase, pair):
    """(direct, exchanged) pattern sets for one window of `pair`."""
    slots, free = _base_slots(phrase, pair)
    direct = _wildcard_variants(slots, free)
    return direct, {swap_pattern(p) for p in direct}


def generate_patterns(phrase, pair):
    """All patterns a window contributes, both hole assignments together."""
    direct, swapped = generate_pattern_families(phrase, pair)
    return direct | swapped


class StringPatternStats:
    """Occurrence counts per (pair, pattern) in dicts, plus per-pair phrase totals."""

    def __init__(self):
        self.counts = {}
        self.phrase_counts = {}

    def add_window(self, pair, phrase):
        direct, swapped = generate_pattern_families(phrase, pair)
        self.phrase_counts[pair] = self.phrase_counts.get(pair, 0) + 1
        row = self.counts.setdefault(pair, {})
        for p in direct:
            row[p] = row.get(p, 0) + 1
        rrow = self.counts.setdefault(pair.reversed(), {})
        for p in swapped:
            rrow[p] = rrow.get(p, 0) + 1

    def count(self, pair, pattern):
        return self.counts.get(pair, {}).get(pattern, 0)

    def generating_pair_counts(self):
        """Number of distinct pairs with a nonzero count, per pattern."""
        out = {}
        for row in self.counts.values():
            for pattern in row:
                out[pattern] = out.get(pattern, 0) + 1
        return out


def mine_patterns(index, pairs, max_phrases_per_pair=None):
    """The first `max_phrases_per_pair` windows of each pair, turned into string patterns."""
    stats = StringPatternStats()
    for pair in pairs:
        occs = search_phrases(index, pair)
        if max_phrases_per_pair is not None:
            occs = occs[:max_phrases_per_pair]
        stats.phrase_counts.setdefault(pair, 0)
        for occ in occs:
            stats.add_window(pair, occ)
    return stats


def select_columns(stats, t, n_r):
    """Top t*n_r patterns by (-generating pairs, serialized string)."""
    counts = stats.generating_pair_counts()
    ordered = sorted(counts, key=lambda p: (-counts[p], " ".join(p)))
    return ordered[:min(t * n_r, len(ordered))]


def build_frequency_matrix(rows, cols, stats):
    """Frequency matrix from the count dicts, one cell at a time."""
    col_index = {c: j for j, c in enumerate(cols)}
    data, ii, jj = [], [], []
    for i, pair in enumerate(rows):
        for pattern, count in stats.counts.get(pair, {}).items():
            j = col_index.get(pattern)
            if j is not None and count:
                ii.append(i)
                jj.append(j)
                data.append(float(count))
    mat = sp.csr_matrix((data, (ii, jj)), shape=(len(rows), len(cols)))
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def decode(stats, ids):
    """The patterns of these column ids of `PatternStats`, as slot-string
    tuples, read from their slot codes."""
    codes = stats.keys[:, ids].T.astype(np.int64)
    word_of = np.zeros(int(stats.codes.max()) + 1, dtype=np.int64)
    word_of[stats.codes] = np.arange(stats.slots.size)
    lengths = np.count_nonzero(codes, axis=1).tolist()
    words = slot_words(stats.slots, stats.vocab)
    return [tuple(map(words.__getitem__, row[:n]))
            for row, n in zip(word_of[codes].tolist(), lengths)]


# --- scipy.sparse references ------------------------------------------------

def as_scipy(X):
    """A `relmap.csr.CSR`, or anything scipy takes, as a scipy CSR matrix."""
    if sp.issparse(X):
        return X.tocsr()
    if hasattr(X, "indptr"):
        return sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
    return sp.csr_matrix(np.asarray(X, dtype=np.float64))


def scipy_as_csr(matrix):
    """A dense array or a scipy matrix as a scipy CSR matrix: float64,
    stored zeros eliminated."""
    if sp.issparse(matrix):
        out = matrix.tocsr().astype(np.float64)
    else:
        out = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
    out.eliminate_zeros()
    return out


def as_csr(matrix) -> CSR:
    """A dense array or a scipy matrix as a `relmap.csr.CSR` in canonical
    form without stored zeros, the form the package's transforms and
    `build_frequency_matrix` give the space functions."""
    out = scipy_as_csr(matrix)
    out.sort_indices()
    out.sum_duplicates()
    return CSR(out.data, out.indices.astype(np.int64), out.indptr.astype(np.int64), out.shape)


def scipy_ppmic(F):
    """`transform_ppmic` as it was on scipy.sparse."""
    F = scipy_as_csr(F)
    total = F.sum()
    if total <= 0:
        raise TransformError("cannot transform an all-zero frequency matrix")
    row_sums = np.asarray(F.sum(axis=1)).ravel()
    col_sums = np.asarray(F.sum(axis=0)).ravel()
    out = F.tocoo(copy=True)
    with np.errstate(divide="ignore"):
        pmi = np.log(out.data * total / (row_sums[out.row] * col_sums[out.col]))
    out.data = np.where(pmi > 0, pmi, 0.0)
    result = out.tocsr()
    result.eliminate_zeros()
    return result


def scipy_log_entropy(F):
    """`transform_log_entropy` as it was on scipy.sparse."""
    F = scipy_as_csr(F)
    total = F.sum()
    if total <= 0:
        raise TransformError("cannot transform an all-zero frequency matrix")
    n_r = F.shape[0]
    col_sums = np.asarray(F.sum(axis=0)).ravel()
    kept = np.flatnonzero(col_sums > 0)
    coo = F[:, kept].tocoo()
    if n_r > 1:
        q = coo.data / col_sums[kept][coo.col]
        ent = np.zeros(len(kept))
        np.add.at(ent, coo.col, q * np.log(q))
        weights = 1.0 + ent / np.log(n_r)
    else:
        weights = np.ones(len(kept))
    data = np.log1p(coo.data) * weights[coo.col]
    out = sp.csr_matrix((data, (coo.row, coo.col)), shape=coo.shape)
    out.eliminate_zeros()
    return out, kept


def scipy_gram_cosines(X):
    """The no-SVD cosines as they were on scipy.sparse, from one sparse
    product X X^T."""
    X = scipy_as_csr(X)
    G = X @ X.T
    d = G.diagonal()
    norms = np.sqrt(d)
    strong = norms > _WEAK_ROW_SHARE * norms.max(initial=0.0)
    cos = G.toarray()
    d = np.where(strong, d, 1.0)
    scale = np.multiply.outer(d, d)
    cos /= np.sqrt(scale, out=scale)
    cos[~strong] = 0.0
    cos[:, ~strong] = 0.0
    return cos


def ppmi_cell(F, i, j):
    """Scalar positive PMI of one cell, straight from the probability ratios."""
    total = sum(sum(row) for row in F)
    p_ij = F[i][j] / total
    p_i = sum(F[i]) / total
    p_j = sum(row[j] for row in F) / total
    if p_ij == 0 or p_i == 0 or p_j == 0:
        return 0.0
    pmi = math.log(p_ij / (p_i * p_j))
    return pmi if pmi > 0 else 0.0


def log_entropy_cell(F, i, j):
    """Scalar log-entropy weighting of one cell of a dense list matrix."""
    n_r = len(F)
    col = [F[r][j] for r in range(n_r)]
    col_sum = sum(col)
    if col_sum == 0:
        return 0.0
    if n_r > 1:
        entropy = 0.0
        for v in col:
            if v > 0:
                q = v / col_sum
                entropy += q * math.log(q)
        weight = 1.0 + entropy / math.log(n_r)
    else:
        weight = 1.0
    return math.log(F[i][j] + 1.0) * weight


def dense_svd(X, k):
    """(U_k, sigma_k) from LAPACK's full SVD, zero-padded past min(shape)."""
    X = as_scipy(X).toarray()
    u, s, _ = np.linalg.svd(X, full_matrices=False)
    kk = min(k, s.size)
    return (np.pad(u[:, :kk], ((0, 0), (0, k - kk))),
            np.pad(s[:kk], (0, k - kk)))


def truncated_svd_full(X, k):
    """(U_k, sigma_k) from one eigh of the whole n x n Gram matrix X X^T.

    The same cut as the package: every column after the last strict gap
    at or below k, sigma_j - sigma_(j+1) > SVD_TIE_SHARE * sigma_1 with
    sigma_(n+1) = 0, gets sigma = 0 and a zero U column.
    """
    X = sp.csr_matrix(as_scipy(X), dtype=float)
    X.eliminate_zeros()
    with _one_blas_thread():
        lam, vecs = np.linalg.eigh((X @ X.T).toarray())
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    gaps = s[:k] - np.append(s[1:], 0.0)[:k]
    strict = np.flatnonzero(gaps > SVD_TIE_SHARE * s.max(initial=0.0))
    keep = strict[-1] + 1 if strict.size else 0
    u = np.zeros((X.shape[0], k))
    u[:, :keep] = vecs[:, ::-1][:, :keep]
    return u, np.pad(s[:keep], (0, k - keep))


def truncated_svd_every_component(X, k):
    """(U_k, sigma_k) from one eigh of every component of two or more rows,
    the package's design before it skipped components that cannot reach the
    cut: the same layout, stable tie order and cut, so the package must keep
    its bits. The components come from scipy's connected_components on the
    bipartite graph of rows and columns, each labelled by its smallest row.
    """
    X = sp.csr_matrix(as_scipy(X), dtype=float)
    X.eliminate_zeros()
    n, n_c = X.shape
    pattern = sp.csr_matrix((np.ones(X.nnz), X.indices, X.indptr), shape=X.shape)
    _, comp = connected_components(sp.bmat([[sp.csr_matrix((n, n)), pattern],
                                            [pattern.T, sp.csr_matrix((n_c, n_c))]]),
                                   directed=False)
    first = {}
    label = np.array([first.setdefault(g, i) for i, g in enumerate(comp[:n].tolist())],
                     dtype=np.int64)
    rows = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[rows], prepend=-1))
    ends = np.append(starts[1:], n)
    X = X[rows]
    lam = np.bincount(np.repeat(np.arange(n), np.diff(X.indptr)), weights=X.data ** 2,
                      minlength=n)
    blocks = {}
    for a, b in zip(starts.tolist(), ends.tolist()):
        if b - a > 1:
            block = X[a:b]
            with _one_blas_thread():
                values, vectors = np.linalg.eigh((block @ block.T).toarray())
            lam[a:b], blocks[a] = values[::-1], vectors[:, ::-1]
    order = np.argsort(-lam, kind="stable")
    s = np.sqrt(np.maximum(lam[order], 0.0))
    gaps = s[:k] - np.append(s[1:], 0.0)[:k]
    strict = np.flatnonzero(gaps > SVD_TIE_SHARE * s.max(initial=0.0))
    keep = strict[-1] + 1 if strict.size else 0
    kept = order[:keep]
    sizes = ends - starts
    start = np.repeat(starts, sizes)[kept]
    u = np.zeros((n, k))
    alone = np.flatnonzero(np.repeat(sizes, sizes)[kept] == 1)
    u[rows[kept[alone]], alone] = 1.0
    for a, vectors in blocks.items():
        cols = np.flatnonzero(start == a)
        u[np.ix_(rows[a:a + len(vectors)], cols)] = vectors[:, kept[cols] - a]
    return u, np.pad(s[:keep], (0, k - keep))


def sparse_svd(X, k):
    """(U_k, sigma_k) from scipy's iterative svds, with a seeded start vector.

    Needs 1 <= k < min(X.shape).
    """
    X = sp.csr_matrix(as_scipy(X), dtype=float)
    v0 = np.random.default_rng(0).standard_normal(min(X.shape))
    u, s, _ = svds(X, k=k, v0=v0, which="LM")
    order = np.argsort(s)[::-1]
    return u[:, order], s[order]


def dense_cosines(X):
    """(cosines, weak) of X's rows from their dense copy, the package's
    earlier no-SVD design: each row divided by its norm, a row at or below
    WEAK_ROW_SHARE of the largest norm zeroed, then the dot product of
    every two unit rows. `weak` marks the zeroed rows."""
    M = as_scipy(X).toarray()
    norms = np.linalg.norm(M, axis=1)
    weak = norms <= WEAK_ROW_SHARE * norms.max(initial=0.0)
    M /= np.where(weak, 1.0, norms)[:, None]
    M[weak] = 0.0
    return M @ M.T, weak


def scalar_sim_r(space, p, q):
    """sim_r one pair at a time, the package's earlier body: the dot
    product `W[i] @ W[j]` of two unit rows, or one cell of a no-SVD
    space's cosines; 0.0 when either pair has no row."""
    i, j = space.row_index.get(p), space.row_index.get(q)
    if i is None or j is None:
        return 0.0
    if space.W is None:
        return float(space.cosines[i][j])
    return float(space.W[i] @ space.W[j])


def all_permutations(m):
    """Recursive permutation generator, independent of itertools."""
    if m == 0:
        return [()]
    out = []

    def rec(prefix, remaining):
        if not remaining:
            out.append(tuple(prefix))
            return
        for v in sorted(remaining):
            rec(prefix + [v], remaining - {v})

    rec([], set(range(m)))
    return out


def brute_force_best(m, score_of):
    """(best score, set of maximizing permutations) by exhaustive search."""
    best = -math.inf
    tied = []
    for perm in all_permutations(m):
        s = score_of(perm)
        if s > best:
            best = s
            tied = [perm]
        elif s == best:
            tied.append(perm)
    return best, set(tied)


def relational_score(perm, sim_lookup):
    """Direct double loop over i < j; sim_lookup(i, j, a, b) -> float."""
    m = len(perm)
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            total += sim_lookup(i, j, perm[i], perm[j])
    return total


def attributional_score(perm, table):
    """Scalar sum from 0.0 in source order (sum() compensates on Python 3.12+)."""
    total = 0.0
    for i, j in enumerate(perm):
        total += table[i][j]
    return total


# --- tuple-at-a-time search ---------------------------------------------------

def relational_grids(problem, space):
    """{(i, j): the nested-list grid of sim_r at [a][b]} for the source pairs i < j."""
    m = problem.m
    src, tgt = problem.source, problem.target
    grids = {}
    for i in range(m):
        for j in range(i + 1, m):
            p = TermPair(src[i], src[j])
            grids[(i, j)] = [[space.sim_r(p, TermPair(tgt[a], tgt[b])) if a != b else 0.0
                              for b in range(m)] for a in range(m)]
    return grids


def relational_scorer(problem, space):
    """score(perm) for one tuple: the double loop over nested-list sim_r grids."""
    grids = relational_grids(problem, space)
    return lambda perm: relational_score(perm, lambda i, j, a, b: grids[(i, j)][a][b])


def attributional_table(problem, provider):
    m = problem.m
    return [[provider.sim(problem.source[i], problem.target[j]) for j in range(m)]
            for i in range(m)]


def attributional_scorer(problem, provider):
    table = attributional_table(problem, provider)
    return lambda perm: attributional_score(perm, table)


def argmax_with_ties(perms, score_fn):
    """(best, tied perms, count) by the sequential tolerance chain rule.

    A score more than 1e-12 above the running best resets the tie set;
    one within 1e-12 of it joins.
    """
    best = -math.inf
    tied = []
    total = 0
    for perm in perms:
        total += 1
        s = score_fn(perm)
        if s > best + TIE_TOLERANCE:
            best = s
            tied = [perm]
        elif s >= best - TIE_TOLERANCE:
            tied.append(perm)
    return best, tied, total


def pick_tied(tied, seed, problem_id, tie_policy):
    if tie_policy == "first" or len(tied) == 1:
        return tied[0]
    rng = random.Random(f"{seed}:{problem_id}")
    return tied[rng.randrange(len(tied))]


def constrained_perms(m, sub_src, sub_tgt):
    """Permutations sending the source subset onto the target subset setwise.

    Enumerated with the subset assignment as the major key.
    """
    rest_src = [i for i in range(m) if i not in set(sub_src)]
    rest_tgt = [j for j in range(m) if j not in set(sub_tgt)]
    for sub_perm in itertools.permutations(sub_tgt):
        base = dict(zip(sub_src, sub_perm))
        for rest_perm in itertools.permutations(rest_tgt):
            full = dict(base)
            full.update(zip(rest_src, rest_perm))
            yield tuple(full[i] for i in range(m))


def probabilities(perms, scores, grids):
    """Shift negatives away, then normalize; degenerate fields become uniform.

    `grids` maps each source pair (i, j) to the m x m grid a mapping
    reads at [perm[i]][perm[j]]; a term of one source is a pair (i, i).
    The total counts how often each cell is read over the enumerated
    mappings (np.bincount), sums count x cell less one shift per mapping
    in Fractions, and rounds once. Each score is a float sum within the
    rounding margin of its exact value, so a total of at most the count
    of mappings times that margin is residue, a degenerate field.
    """
    lo = min(scores)
    shift = lo if lo < 0 else 0.0
    P = np.array(perms)
    m = P.shape[1]
    keys = list(grids)
    cells = [v for key in keys for row in grids[key] for v in row]
    reads = np.concatenate([k * m * m + P[:, i] * m + P[:, j]
                            for k, (i, j) in enumerate(keys)])
    counts = np.bincount(reads, minlength=len(cells)).tolist()
    exact = sum((c * Fraction(v) for c, v in zip(counts, cells)), Fraction(0))
    total = float(exact - len(perms) * Fraction(shift))
    scale = sum(max(abs(v) for row in grids[key] for v in row) for key in keys)
    margin = 2.0 * (len(keys) + 1) * np.finfo(np.float64).eps * scale
    if total <= len(perms) * margin:
        return [1.0 / len(perms)] * len(perms)
    return [(s - shift) / total for s in scores]


def hybrid_probabilities(problem, space, provider):
    """(perms, prob_r, prob_a) over the whole search space, as lists."""
    m = problem.m
    perms = list(itertools.permutations(range(m)))
    grids = relational_grids(problem, space)
    table = attributional_table(problem, provider)
    diagonals = {(i, i): [[table[i][a] if a == b else 0.0 for b in range(m)]
                          for a in range(m)] for i in range(m)}
    rel = [relational_score(p, lambda i, j, a, b: grids[(i, j)][a][b]) for p in perms]
    att = [attributional_score(p, table) for p in perms]
    return perms, probabilities(perms, rel, grids), probabilities(perms, att, diagonals)
