"""The numpy sparse matrix against scipy.sparse, byte for byte.

Every operation the package takes on F and X is checked against the
scipy.sparse operation it replaced, on matrices with empty rows and
columns, stored zeros, one component (a dense column shared by every
row) and many (blocks on the diagonal).
"""

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import as_csr, scipy_as_csr, scipy_gram_cosines, scipy_log_entropy, scipy_ppmic
from relmap import csr
from relmap.space import _components, _gram_cosines, transform_log_entropy, transform_ppmic


def same(got, want):
    """A CSR and a scipy CSR matrix hold the same bytes."""
    assert got.shape == want.shape
    assert got.data.tobytes() == want.data.tobytes()
    assert got.indices.astype(np.int64).tobytes() == want.indices.astype(np.int64).tobytes()
    assert got.indptr.astype(np.int64).tobytes() == want.indptr.astype(np.int64).tobytes()


@st.composite
def matrices(draw):
    """(dense values, scipy CSR of them with some stored zeros, rng)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["random", "one component", "blocks"]))
    if shape == "blocks":
        blocks = [rng.random(rng.integers(1, 5, size=2)) < rng.uniform(0.3, 1.0)
                  for _ in range(draw(st.integers(1, 5)))]
        mask = sp.block_diag(blocks).toarray() != 0
    else:
        mask = rng.random(draw(st.tuples(st.integers(0, 14), st.integers(0, 14)))) \
            < draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
        if shape == "one component" and mask.shape[1]:
            mask[:, rng.integers(mask.shape[1])] = True
    if draw(st.booleans()):
        values = rng.integers(1, 6, size=mask.shape).astype(np.float64)
    else:
        values = rng.uniform(-1.0, 1.0, mask.shape) * 10.0 ** rng.uniform(-4, 4, mask.shape)
    dense = np.where(mask, values, 0.0)
    dense = dense[rng.permutation(dense.shape[0])][:, rng.permutation(dense.shape[1])]
    row, col = np.nonzero(dense)
    data = dense[row, col]
    # some stored zeros, on cells that hold no value
    free = np.argwhere(dense == 0)
    zeros = free[rng.random(len(free)) < draw(st.sampled_from([0.0, 0.1]))]
    stored = sp.csr_matrix((np.append(data, np.zeros(len(zeros))),
                            (np.append(row, zeros[:, 0]).astype(np.int64),
                             np.append(col, zeros[:, 1]).astype(np.int64))),
                           shape=dense.shape)
    return dense, stored, rng


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_from_coo_assembles_shuffled_cells_as_scipy_does(drawn):
    dense, _, rng = drawn
    row, col = np.nonzero(dense)
    order = rng.permutation(row.size)
    row, col, data = row[order], col[order], dense[row, col][order]
    same(csr.from_coo(row, col, data, dense.shape),
         sp.csr_matrix((data, (row, col)), shape=dense.shape))


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_sums_have_the_bits_of_scipy(drawn):
    _, stored, _ = drawn
    F, want = as_csr(stored), scipy_as_csr(stored)
    if F.nnz:
        assert F.data.sum().tobytes() == np.float64(want.sum()).tobytes()
    assert F.row_sums().tobytes() == np.asarray(want.sum(axis=1)).ravel().tobytes()
    assert F.col_sums().tobytes() == np.asarray(want.sum(axis=0)).ravel().tobytes()


@given(matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_rows_columns_and_data_move_as_in_scipy(drawn, data):
    dense, stored, rng = drawn
    F, want = as_csr(stored), scipy_as_csr(stored)
    n_r, n_c = F.shape
    assert F.row_ids().tolist() == want.tocoo().row.tolist()
    rows = rng.integers(0, n_r, size=data.draw(st.integers(0, 2 * n_r))) if n_r else \
        np.zeros(0, dtype=np.int64)
    same(F.take_rows(rows), want[rows])
    cols = np.flatnonzero(rng.random(n_c) < 0.6)
    same(F.take_columns(cols), want[:, cols])
    halved = np.where(rng.random(F.nnz) < 0.3, 0.0, F.data / 2)
    ref = want.copy()
    ref.data = halved.copy()
    ref.eliminate_zeros()
    same(F.with_data(halved), ref)


@given(matrices(), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_gram_has_the_bits_of_the_sparse_product(drawn, chunk):
    """Whole and one component at a time, in chunks of every size."""
    _, stored, _ = drawn
    X, ref = as_csr(stored), scipy_as_csr(stored)
    with mock.patch.object(csr, "_MIN_CHUNK", chunk):
        got = csr.gram(X, csr.columns(X), 0, X.shape[0])
        assert got.tobytes() == (ref @ ref.T).toarray().tobytes()
        rows = np.argsort(_components(X), kind="stable")
        X, ref = X.take_rows(rows), ref[rows]
        label = _components(X)
        cols = csr.columns(X)
        for a in np.flatnonzero(np.diff(label, prepend=-1)).tolist():
            b = a + int(np.count_nonzero(label == label[a]))
            block = ref[a:b]
            assert csr.gram(X, cols, a, b).tobytes() == (block @ block.T).toarray().tobytes()


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_transforms_and_cosines_have_the_bits_of_scipy(drawn):
    _, stored, _ = drawn
    counts = abs(stored)
    if counts.sum() > 0:
        same(transform_ppmic(as_csr(counts)), scipy_ppmic(counts))
        X, kept = transform_log_entropy(as_csr(counts))
        want, want_kept = scipy_log_entropy(counts)
        same(X, want)
        assert kept.tolist() == want_kept.tolist()
    assert _gram_cosines(as_csr(stored)).tobytes() == scipy_gram_cosines(stored).tobytes()
