"""Matrix weighting, truncated SVD smoothing, and relational similarity.

The pipeline is: raw frequency matrix F -> weighted matrix X (positive
PMI by default, log entropy as the alternative) -> truncated SVD ->
W = row-normalized U_k * Sigma_k. The relational similarity of two
term pairs is the dot product of their unit rows of W (their cosine);
a pair without a row scores zero against everything.

Only U_k * Sigma_k is used, so the decomposition is of the n_r x n_r Gram
matrix G = X X^T, cut at a strict gap in the spectrum so that tied
singular values never leave an arbitrary pick. Two rows in different
connected components of X (rows joined by a shared column) have a zero
Gram cell, so G is block-diagonal over the components and its eigenpairs
are those of its blocks: one eigh per component, of its dense block, 8
bytes per cell whatever the column count. Rows in different components
get U rows with disjoint supports, so their cosine is exactly 0.0.
Only the k + 1 largest eigenvalues reach the cut, so a component whose
Gershgorin row-sum bound lies below k + 1 eigenvalues already known is
not decomposed at all; its eigenvalues could not have been kept, and the
result keeps its bits. Without SVD the cosines come from G itself,
G_ij / sqrt(G_ii G_jj), kept as one dense n_r x n_r matrix; cells across
components are 0.0 there too. The memory budget counts the dense arrays:
with SVD the largest component's Gram block and the n_r x k factors,
without it all n_r^2 cells. Each block decomposed keeps only its first k
vectors, the only ones a kept column can take, so its whole eigenvector
matrix lives no longer than its eigh. An input past the budget is
refused with BudgetError before any of these arrays is formed. A row
left at or below _WEAK_ROW_SHARE of the largest norm holds only rounding
noise and is zeroed, not made a unit.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .csr import CSR, columns, gram
from .errors import BudgetError, ConfigError, DataError, TransformError
from .terms import TermPair

# A row at or below this share of the largest row norm is noise; see above.
_WEAK_ROW_SHARE = 1e-6
# Singular values closer than this share of sigma_1 count as tied.
_TIE_SHARE = 1e-9
# The decomposition's peak memory per Gram cell, the Gram matrix included,
# when X is one component, the worst case: 41-46 bytes at n_r = 1000-4000
# (x86-64, OpenBLAS, one thread).
_DECOMPOSITION_BYTES_PER_CELL = 48
# The n_r x k arrays' bytes per cell, 8 bytes each: the first k vectors
# kept of each block decomposed (at most n_r x k in all), U_k, U_k * sigma_k
# and the squares np.linalg.norm forms of it in build_space.
_FACTOR_BYTES_PER_CELL = 32
# Half of an 8 GB host, which admits one component of up to 9,128 rows
# at k = 1.
_DECOMPOSITION_BUDGET_BYTES = 4 * 10 ** 9
# A bound must fall this share below the (k + 1)-th eigenvalue to skip.
_BOUND_MARGIN = 1e-6


def transform_ppmic(F: CSR) -> CSR:
    """Positive pointwise mutual information of each cell.

    Probabilities are ratios of frequency sums over the whole matrix;
    cells whose PMI is negative are zeroed, so density never grows.
    """
    total = F.data.sum()
    if total <= 0:
        raise TransformError("cannot transform an all-zero frequency matrix")
    row_sums, col_sums = F.row_sums(), F.col_sums()
    with np.errstate(divide="ignore"):
        pmi = np.log(F.data * total / (row_sums[F.row_ids()] * col_sums[F.indices]))
    return F.with_data(np.where(pmi > 0, pmi, 0.0))


def transform_log_entropy(F: CSR) -> tuple[CSR, np.ndarray]:
    """log(f+1) cells scaled by one minus the column's normalized entropy.

    Returns (X, kept_cols) where kept_cols are the original indices of
    the surviving columns: all-zero columns of F are dropped. A column
    whose mass sits in a single row keeps full weight; a column uniform
    over every row is weighted to zero.
    """
    if F.data.sum() <= 0:
        raise TransformError("cannot transform an all-zero frequency matrix")
    n_r = F.shape[0]
    col_sums = F.col_sums()
    kept = np.flatnonzero(col_sums > 0)
    X = F.take_columns(kept)
    if n_r > 1:
        q = X.data / col_sums[kept][X.indices]
        ent = np.zeros(len(kept))
        np.add.at(ent, X.indices, q * np.log(q))
        weights = 1.0 + ent / np.log(n_r)
    else:
        weights = np.ones(len(kept))
    return X.with_data(np.log1p(X.data) * weights[X.indices]), kept


def truncated_svd(X: CSR, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-k factors (U_k, sigma_k), shaped (n, k) and (k,), sigma descending.

    Every column after the last strict gap at or below k, a strict gap
    being sigma_j - sigma_(j+1) > _TIE_SHARE * sigma_1 with sigma_(n+1) = 0,
    gets sigma = 0 and a zero U column; so does every column past n.

    The Gram matrix X X^T is block-diagonal over the connected components
    of `_components`, so its eigenpairs are those of its blocks: one eigh
    per component of two or more rows, and (X X^T)[i, i] with the unit
    vector e_i for a row alone. The spectrum lists them component by
    component, in order of each component's smallest row, and a stable
    sort puts it in descending order, so exact ties keep that order. Each
    U column is then zero outside one component, and the cosine of two
    rows in different components is exactly 0.0. When X is one component
    its block is X X^T in row order, and U_k and sigma_k are the bits of a
    single eigh of X X^T.

    Only the k + 1 largest eigenvalues, and the vectors of the kept ones,
    reach the result. So the components are decomposed in descending
    order of a bound on their largest eigenvalue, and the rest are skipped
    once a bound falls below the (k + 1)-th largest eigenvalue known so
    far; with n <= k none is skipped. See `_spectrum`. The result keeps
    the bits of an eigh of every component. Which components are skipped
    depends on k: a spectrum meant to be cut at several k must be taken
    at the largest.

    The memory budget counts the largest component's Gram block and the
    n x k arrays, each block's first k vectors among them; see
    `_require_decomposition_budget`.
    """
    if k < 1:
        raise ConfigError(f"svd rank k must be >= 1, got {k}")
    n = X.shape[0]
    label = _components(X)
    rows = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[rows], prepend=-1))
    ends = np.append(starts[1:], n)
    sizes = ends - starts
    _require_decomposition_budget(n, k, int(sizes.max(initial=0)))
    X = X.take_rows(rows)   # grouped by component; the ungrouped copy is freed
    lam, blocks = _spectrum(X, starts, sizes, k)
    order = np.argsort(-lam, kind="stable")
    s = np.sqrt(np.maximum(lam[order], 0.0))
    # Cut at the last strict gap at or below k.
    gaps = s[:k] - np.append(s[1:], 0.0)[:k]
    strict = np.flatnonzero(gaps > _TIE_SHARE * s.max(initial=0.0))
    keep = strict[-1] + 1 if strict.size else 0
    # Scatter: kept column j is the vector at position order[j].
    kept = order[:keep]
    start = np.repeat(starts, sizes)[kept]
    u = np.zeros((n, k))
    alone = np.flatnonzero(np.repeat(sizes, sizes)[kept] == 1)
    u[rows[kept[alone]], alone] = 1.0
    for a, vectors in blocks.items():
        cols = np.flatnonzero(start == a)
        u[np.ix_(rows[a:a + len(vectors)], cols)] = vectors[:, kept[cols] - a]
    return u, np.pad(s[:keep], (0, k - keep))


def _spectrum(X: CSR, starts: np.ndarray, sizes: np.ndarray,
              k: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """(lam, blocks): the spectrum of X X^T, X's rows grouped by component.

    Component c, the sizes[c] rows from row a = starts[c], puts its
    eigenvalues, descending, in lam[a:a + sizes[c]] and the vectors of the
    first k in blocks[a]. A block's m-th value, from 0, comes after the m
    before it in the stable descending order, so a kept column, one of the
    first k there, never needs a later vector. A row alone keeps its
    squared norm, (X X^T)[i, i], summed in X's order as the product X X^T
    sums it. So does every row of a skipped component, which gets no block.

    A component's largest eigenvalue is at most its largest row sum of
    |X| |X|^T (Gershgorin's bound on |X X^T|, taken in O(nnz)). The
    components are decomposed in descending order of that bound until it
    falls below the (k + 1)-th largest eigenvalue known exactly, from the
    blocks decomposed and the rows alone; with n <= k there is never a
    (k + 1)-th, and every component is decomposed. Every later
    component's bound is no larger, so its eigenvalues, and its rows'
    squared norms (each at most its largest eigenvalue), all lie below
    k + 1 values that do not change: the first k + 1 places of the stable
    descending order, sigma_1 and the cut are those of an eigh of every
    component, and no kept column falls in a skipped component.

    A block's Gram matrix is formed from X's cells by column, sorted once
    (`relmap.csr.gram`): the rows of a component share no column with any
    other row.
    """
    n = X.shape[0]
    row_of = X.row_ids()
    lam = np.bincount(row_of, weights=X.data ** 2, minlength=n)
    mass = np.abs(X.data)
    col_mass = np.bincount(X.indices, weights=mass, minlength=X.shape[1])
    bound = np.maximum.reduceat(
        np.bincount(row_of, weights=mass * col_mass[X.indices], minlength=n), starts)
    todo = np.flatnonzero(sizes > 1)
    todo = todo[np.argsort(-bound[todo], kind="stable")]
    top = np.sort(lam[starts[sizes == 1]])[::-1][:k + 1]
    blocks = {}
    cols = columns(X) if todo.size else None
    for c in todo.tolist():
        # The margin covers the rounding of the bound and eigh's backward
        # error, which can put a computed eigenvalue of a b-row block about
        # b * eps * lambda_max above the true one: a skipped value must stay
        # below top[k] as an eigh of its block would have computed it.
        if top.size > k and bound[c] * (1.0 + _BOUND_MARGIN) < top[k]:
            break
        a, b = int(starts[c]), int(starts[c] + sizes[c])
        lam[a:b], blocks[a] = _top_eigenpairs(gram(X, cols, a, b), k)
        top = np.sort(np.concatenate((top, lam[a:b])))[::-1][:k + 1]
    return lam, blocks


def _top_eigenpairs(G: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of a block's Gram matrix G, descending, and the first k vectors.

    The vectors are copied out, so eigh's whole b x b matrix is freed on
    return and a block holds at most b x k cells while the rest are
    decomposed. eigh runs at one BLAS thread (`_one_blas_thread`): from
    about 300 rows on, a threaded eigh's last bits depend on the thread
    count.
    """
    with _one_blas_thread():
        values, vectors = np.linalg.eigh(G)
    return values[::-1], vectors[:, ::-1][:, :k].copy()


@functools.cache
def _blas_thread_calls():
    """The (get, set) calls of the thread count of the OpenBLAS that
    numpy's wheel bundles: on Linux, `scipy_openblas_get_num_threads64_`
    and `scipy_openblas_set_num_threads64_` of `libscipy_openblas64_` in
    `numpy.libs`. None with any other BLAS or wheel layout."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's BLAS at one thread, then restore the
    count it had. Where `_blas_thread_calls` finds none this does
    nothing, and a threaded BLAS may change the last bits of what the
    body computes."""
    calls = _blas_thread_calls()
    threads = calls[0]() if calls else 1
    if threads != 1:
        calls[1](1)
    try:
        yield
    finally:
        if threads != 1:
            calls[1](threads)


def _components(X: CSR) -> np.ndarray:
    """Each row's connected component, labelled by its smallest row.

    Two rows are joined when they share a column of X. Each round, every
    tree root takes the smallest label found in any column its tree's
    rows touch (min-label hooking), and pointer jumping then flattens the
    trees. Every tree with a neighbour hooks or is hooked, so the trees of
    a component at least halve each round: O(log n) rounds, each a few
    whole-array passes over the nonzeros. A row with no nonzero is alone.
    """
    n = X.shape[0]
    label = np.arange(n)
    if X.nnz == 0:
        return label
    starts, row_of, _ = columns(X)
    used = np.flatnonzero(np.diff(starts))
    firsts = starts[used]
    col_min = np.empty(X.shape[1], dtype=np.int64)
    rows = np.flatnonzero(np.diff(X.indptr))
    row_starts = X.indptr[rows]
    while True:
        col_min[used] = np.minimum.reduceat(label[row_of], firsts)
        near = np.minimum.reduceat(col_min[X.indices], row_starts)
        new = label.copy()
        np.minimum.at(new, label[rows], near)
        new[rows] = np.minimum(new[rows], near)
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def _require_decomposition_budget(n_r: int, k: int, largest: int) -> None:
    """Raise BudgetError when the decomposition's dense arrays would pass the memory budget.

    They are the dense Gram block of the largest component, `largest`
    rows, at _DECOMPOSITION_BYTES_PER_CELL per cell, and the n_r x k
    arrays at _FACTOR_BYTES_PER_CELL per cell.
    """
    gram = _DECOMPOSITION_BYTES_PER_CELL * largest * largest
    factors = _FACTOR_BYTES_PER_CELL * n_r * k
    if gram + factors > _DECOMPOSITION_BUDGET_BYTES:
        raise BudgetError(
            f"decomposing n_r={n_r:,} pair rows at k={k:,} needs about {gram:,} bytes for "
            f"the Gram block of the largest component ({largest:,} rows) and {factors:,} "
            f"bytes for the n_r x k factors, over the budget of "
            f"{_DECOMPOSITION_BUDGET_BYTES:,} bytes")


def _require_cosine_budget(n_r: int) -> None:
    """Raise BudgetError when the n_r x n_r cosines would pass the memory budget."""
    need = _DECOMPOSITION_BYTES_PER_CELL * n_r * n_r
    if need > _DECOMPOSITION_BUDGET_BYTES:
        raise BudgetError(
            f"the cosines of n_r={n_r:,} pair rows, n_r x n_r cells, need about {need:,} "
            f"bytes, over the budget of {_DECOMPOSITION_BUDGET_BYTES:,} bytes")


def _normalize_rows(M: np.ndarray) -> np.ndarray:
    """M with unit rows, in place; rows at or below _WEAK_ROW_SHARE of the largest norm become zero."""
    norms = np.linalg.norm(M, axis=1)
    strong = norms > _WEAK_ROW_SHARE * norms.max(initial=0.0)
    M /= np.where(strong, norms, 1.0)[:, None]
    M[~strong] = 0.0
    return M


def _gram_cosines(X: CSR) -> np.ndarray:
    """Every cosine of X's rows, G_ij / sqrt(G_ii G_jj) with G = X X^T.

    G is formed from X's cells by column (`relmap.csr.gram`), so a cell
    sums only the columns its two rows share, and rows in different
    components get exactly 0.0. A row whose norm sqrt(G_ii) is at or below
    _WEAK_ROW_SHARE of the largest is zeroed. The peak is a row chunk of
    G's products beside the dense G: 20-22 bytes per n_r^2 cell under
    tracemalloc when X is one component of 1,000-2,000 rows, within the
    decomposition's 48.
    """
    cos = gram(X, columns(X), 0, X.shape[0])
    d = np.diagonal(cos).copy()
    norms = np.sqrt(d)
    strong = norms > _WEAK_ROW_SHARE * norms.max(initial=0.0)
    d = np.where(strong, d, 1.0)
    scale = np.multiply.outer(d, d)
    cos /= np.sqrt(scale, out=scale)
    cos[~strong] = 0.0
    cos[:, ~strong] = 0.0
    return cos


@dataclass
class RelationSpace:
    """The relational similarity of the term pairs that have a row.

    With SVD the space keeps W, the unit rows of the smoothed matrix, and
    a query takes the dot products it needs; without it, `cosines` holds
    the cosine of every two rows of the weighted matrix, and a query reads
    cells. Immutable after construction.
    """

    row_index: dict[TermPair, int]
    W: Optional[np.ndarray] = None
    cosines: Optional[np.ndarray] = None

    def sim_r(self, p: TermPair, q: TermPair) -> float:
        """Cosine of the two pair rows; zero if either pair has no row."""
        return float(self.sim_grid([p], [q])[0, 0])

    def sim_grid(self, ps: list[TermPair], qs: list[TermPair]) -> np.ndarray:
        """sim_r of every (p, q) as a len(ps) x len(qs) array.

        Each pair's row is looked up once, and one lookup gives every
        (p, q) whose pairs both have a row. Other cells stay 0.0.
        """
        rows_p, rows_q = self._rows(ps), self._rows(qs)
        a, b = np.flatnonzero(rows_p >= 0), np.flatnonzero(rows_q >= 0)
        out = np.zeros((len(ps), len(qs)))
        out[np.ix_(a, b)] = self._lookup(rows_p[a][:, None], rows_q[b][None, :])
        return out

    def _lookup(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The cosine of rows i and j, broadcast against each other.

        Over W, one `np.vecdot` of the unit rows. For float64 it calls
        the dot kernel that `W[i] @ W[j]` calls, one vector pair at a
        time, so each cell has that scalar product's bits; a matrix
        product's blocking could move a last bit.
        """
        if self.cosines is not None:
            return self.cosines[i, j]
        return np.vecdot(self.W[i], self.W[j])

    def _rows(self, pairs: list[TermPair]) -> np.ndarray:
        """The row of each pair, -1 for a pair without one."""
        return np.array([self.row_index.get(p, -1) for p in pairs], dtype=np.int64)


def build_space(U_k: np.ndarray, sigma_k: np.ndarray,
                row_index: dict[TermPair, int]) -> RelationSpace:
    """Space over W = row-normalized U_k * diag(sigma_k); weak rows become zero."""
    return RelationSpace(row_index=dict(row_index), W=_normalize_rows(U_k * sigma_k[None, :]))


def build_space_from_matrix(X: CSR, rows: list[TermPair], *, k: Optional[int]) -> RelationSpace:
    """Space from a weighted matrix, with or without SVD smoothing.

    k=None skips the decomposition: similarities are then the cosines of
    the weighted matrix rows themselves, taken from its Gram matrix,
    formed from the cells the rows share, n_r x n_r cells, refused with BudgetError past the budget on
    n_r. With SVD the budget counts the largest component's Gram block and
    the n_r x k factors instead.
    """
    row_index = {pair: i for i, pair in enumerate(rows)}
    if len(row_index) != len(rows):
        raise DataError("duplicate pair rows in relation space")
    if k is None:
        _require_cosine_budget(X.shape[0])
        return RelationSpace(row_index=row_index, cosines=_gram_cosines(X))
    u, s = truncated_svd(X, k)
    return build_space(u, s, row_index)
