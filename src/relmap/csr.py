"""A compressed sparse row matrix in numpy, and the operations the pipeline
takes on it.

F and X are held as `CSR`: row i stores its cells in
``indptr[i]:indptr[i + 1]`` of `indices` (column ids) and `data`
(float64 values). Every function here makes or keeps the form scipy
calls canonical: each row's columns ascending, no cell stored twice.
`from_coo` is given each cell once, as `build_frequency_matrix` gives
them, and sums none.

Each operation that sums does so in the order scipy.sparse sums the
operation it replaced, so that F, X and everything after them keep their
bits:

- `CSR.row_sums` is `np.add.reduceat` over the rows' data, as scipy's
  ``sum(axis=1)`` takes it; `CSR.col_sums` is a `np.bincount` in stored
  order, the order in which ``sum(axis=0)`` adds each cell; and
  ``data.sum()`` is ``sum()``.
- `gram` forms rows a..b-1 of X X^T as scipy's ``csr_matmat`` does: cell
  (i, j) is the sum, from 0.0 and one product at a time, of
  X[i, k] * X[j, k] over the columns k of row i in stored order. The
  products come in (i, k, j) order and one `np.bincount` adds each into
  its cell in that order.

The rest only moves data. tests/test_csr.py checks every operation
against scipy.sparse, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A chunk of Gram products may always be this large, so that a small block
# is formed in one chunk.
_MIN_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse float64 matrix by rows; see the module docstring."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def row_ids(self) -> np.ndarray:
        """The row of each stored cell."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.shape[0])
        rows = np.flatnonzero(np.diff(self.indptr))
        if rows.size:
            out[rows] = np.add.reduceat(self.data, self.indptr[rows])
        return out

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.indices, weights=self.data, minlength=self.shape[1])

    def take_rows(self, rows: np.ndarray) -> CSR:
        """The matrix of these rows, in this order."""
        counts = np.diff(self.indptr)[rows]
        indptr = _offsets(counts)
        at = _ranges(self.indptr[rows], counts)
        return CSR(self.data[at], self.indices[at], indptr, (len(rows), self.shape[1]))

    def take_columns(self, cols: np.ndarray) -> CSR:
        """The matrix of these columns, given ascending, renumbered from 0."""
        new = np.full(self.shape[1], -1, dtype=np.int64)
        new[cols] = np.arange(len(cols))
        renumbered = new[self.indices]
        return self._where(renumbered >= 0, renumbered, self.data, len(cols))

    def with_data(self, data: np.ndarray) -> CSR:
        """The same cells holding `data`; a cell whose value is 0 is dropped."""
        return self._where(data != 0, self.indices, data, self.shape[1])

    def _where(self, keep: np.ndarray, indices: np.ndarray, data: np.ndarray,
               n_cols: int) -> CSR:
        if keep.all():
            return CSR(data, indices, self.indptr, (self.shape[0], n_cols))
        return CSR(data[keep], indices[keep], _offsets(keep)[self.indptr],
                   (self.shape[0], n_cols))


def _offsets(counts: np.ndarray) -> np.ndarray:
    """0 and the running sums of `counts`: where each run starts, then the end."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The integers s, s + 1, ..., s + n - 1 of each of these starts s and
    sizes n, concatenated."""
    shift = starts - np.cumsum(sizes)
    shift += sizes
    at = np.repeat(shift, sizes)
    del shift
    at += np.arange(at.size)
    return at


def from_coo(row: np.ndarray, col: np.ndarray, data: np.ndarray,
             shape: tuple[int, int]) -> CSR:
    """The matrix holding data[e] at (row[e], col[e]), cells in any order,
    each given once. Zeros are kept."""
    n_r, n_c = int(shape[0]), int(shape[1])
    key = np.asarray(row, dtype=np.int64) * max(n_c, 1) + col
    order = np.argsort(key, kind="stable")
    row, col = np.divmod(key[order], max(n_c, 1))
    return CSR(np.asarray(data, dtype=np.float64)[order], col,
               _offsets(np.bincount(row, minlength=n_r)), (n_r, n_c))


def columns(X: CSR) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, rows, values): X's cells by column, each column's in row
    order; column c's are ``starts[c]:starts[c + 1]``."""
    by_col = np.argsort(X.indices, kind="stable")
    starts = _offsets(np.bincount(X.indices, minlength=X.shape[1]))
    return starts, X.row_ids()[by_col], X.data[by_col]


def gram(X: CSR, cols: tuple[np.ndarray, np.ndarray, np.ndarray], a: int, b: int
         ) -> np.ndarray:
    """Rows and columns a..b-1 of X X^T as a dense array; `cols` is `columns(X)`.

    No row in a..b-1 may share a column with a row outside it: with a = 0
    and b = n_r that always holds, and the rows of one connected component
    hold it. Cell (i, j) sums the products X[i, k] * X[j, k] in the order
    of row i's cells, as scipy's product ``X @ X.T`` does.

    Rows are taken a chunk at a time: the chunk's products, 24 bytes each
    at the peak, are formed and added into its cells. A chunk holds at most
    max(n^2 / 2, _MIN_CHUNK) products and as many cells of the n x n
    result, unless one row has more products; a row has at most X.nnz. So
    forming a large block takes 12 + 4 bytes per cell beside the result's 8.
    """
    starts, col_rows, col_vals = cols
    n = b - a
    indptr = X.indptr[a:b + 1]
    count = np.diff(starts)[X.indices[indptr[0]:indptr[-1]]]
    # The products of the rows before each row, from row a.
    before = _offsets(count)[indptr - indptr[0]]
    cap = max(n * n // 2, _MIN_CHUNK)
    out = np.empty((n, n))
    r = 0
    while r < n:
        s = int(np.searchsorted(before, before[r] + cap, side="right")) - 1
        s = max(r + 1, min(s, r + cap // n))
        cells = slice(indptr[r], indptr[s])
        c = count[indptr[r] - indptr[0]:indptr[s] - indptr[0]]
        # Where in `cols` each product's second factor X[j, k] lies.
        at = _ranges(starts[X.indices[cells]], c)
        w = np.repeat(X.data[cells], c)
        w *= col_vals[at]
        cell = col_rows[at]
        del at
        cell += np.repeat(np.repeat(np.arange(s - r) * n - a, np.diff(indptr[r:s + 1])), c)
        out[r:s] = np.bincount(cell, weights=w, minlength=(s - r) * n).reshape(s - r, n)
        del cell, w
        r = s
    return out
