import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from oracles import (as_csr, as_scipy, dense_cosines, dense_svd, log_entropy_cell, ppmi_cell,
                     scalar_sim_r, sparse_svd, truncated_svd_every_component,
                     truncated_svd_full)
from relmap.config import Config
from relmap.corpus import ingest
from relmap.errors import BudgetError, ConfigError, TransformError
from relmap.evaluation import mine_for_problems, space_from_stats
from relmap.patterns import (build_frequency_matrix, build_pair_list,
                             mine_patterns, prune_rows, select_columns)
from relmap.problems import MappingProblem
from relmap.solver import RelationalScorer
from relmap.space import (_DECOMPOSITION_BYTES_PER_CELL, _FACTOR_BYTES_PER_CELL,
                          _components, _gram_cosines, _require_cosine_budget,
                          _require_decomposition_budget, build_space, build_space_from_matrix,
                          transform_log_entropy, transform_ppmic, truncated_svd)
from relmap.terms import TermPair

from conftest import write_corpus

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def dense(matrix):
    return as_scipy(matrix).toarray()


# --- PPMI transform ---------------------------------------------------------

def test_ppmic_uniform_matrix_is_zero():
    out = transform_ppmic(as_csr([[3.0, 3.0], [3.0, 3.0]]))
    assert out.nnz == 0


def test_ppmic_diagonal_log2():
    out = dense(transform_ppmic(as_csr([[4.0, 0.0], [0.0, 4.0]])))
    want = [[math.log(2.0), 0.0], [0.0, math.log(2.0)]]
    assert np.allclose(out, want, atol=1e-12)


def test_ppmic_clamps_negative_cells():
    F = [[3.0, 1.0], [1.0, 3.0]]
    out = dense(transform_ppmic(as_csr(F)))
    for i in range(2):
        for j in range(2):
            assert out[i][j] == pytest.approx(ppmi_cell(F, i, j), abs=1e-12)
    assert out[0][1] == 0.0 and out[1][0] == 0.0


def test_ppmic_rejects_all_zero():
    with pytest.raises(TransformError):
        transform_ppmic(as_csr([[0.0, 0.0], [0.0, 0.0]]))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60)
def test_ppmic_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    F = rng.integers(0, 5, size=(6, 9)).astype(float)
    if F.sum() == 0:
        F[0, 0] = 1.0
    out = dense(transform_ppmic(as_csr(F)))
    rows = F.tolist()
    for i in range(F.shape[0]):
        for j in range(F.shape[1]):
            assert out[i][j] == pytest.approx(ppmi_cell(rows, i, j), abs=1e-9)
    assert np.count_nonzero(out) <= np.count_nonzero(F)
    assert np.all(out[F == 0] == 0)


# --- log entropy transform --------------------------------------------------

def test_log_entropy_single_mass_column():
    X, kept = transform_log_entropy(as_csr([[5.0, 0.0], [0.0, 2.0]]))
    out = dense(X)
    assert kept.tolist() == [0, 1]
    assert out[0][0] == pytest.approx(math.log(6.0))
    assert out[1][1] == pytest.approx(math.log(3.0))


def test_log_entropy_uniform_column_zeroed():
    X, kept = transform_log_entropy(as_csr([[2.0, 3.0], [2.0, 0.0]]))
    out = dense(X)
    assert out[0][0] == 0.0 and out[1][0] == 0.0  # uniform column, weight 0
    assert out[0][1] > 0


def test_log_entropy_drops_zero_columns():
    X, kept = transform_log_entropy(as_csr([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]]))
    assert kept.tolist() == [0, 2]
    assert X.shape == (2, 2)


def test_log_entropy_matches_scalar_oracle():
    F = [[2.0, 0.0], [1.0, 1.0]]
    X, kept = transform_log_entropy(as_csr(F))
    out = dense(X)
    for i in range(2):
        for j in range(2):
            assert out[i][j] == pytest.approx(log_entropy_cell(F, i, j),
                                              abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_log_entropy_random_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    F = rng.integers(0, 4, size=(5, 7)).astype(float)
    if F.sum() == 0:
        F[0, 0] = 1.0
    X, kept = transform_log_entropy(as_csr(F))
    out = dense(X)
    rows = F.tolist()
    for col_out, j in enumerate(kept):
        for i in range(F.shape[0]):
            assert out[i][col_out] == pytest.approx(
                log_entropy_cell(rows, i, int(j)), abs=1e-9)


# --- truncated SVD ----------------------------------------------------------

def test_svd_rank_one_exact():
    X = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    u, s = truncated_svd(as_csr(X), 1)
    recon = u @ u.T @ X
    assert np.linalg.norm(recon - X) <= 1e-8


def test_svd_diagonal_analytic():
    # singular values of diag(3, 1) are exactly 3 and 1
    u, s = truncated_svd(as_csr(np.diag([3.0, 1.0])), 1)
    assert s.shape == (1,)
    assert s[0] == pytest.approx(3.0, abs=1e-12)
    recon = u @ u.T @ np.diag([3.0, 1.0])
    assert np.allclose(recon, [[3.0, 0.0], [0.0, 0.0]], atol=1e-10)


def test_svd_full_rank_reconstruction():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4))
    u, s = truncated_svd(as_csr(X), 4)
    err = np.linalg.norm(u @ u.T @ X - X) / np.linalg.norm(X)
    assert err <= 1e-8


def test_svd_orthonormal_columns():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 30))
    u, s = truncated_svd(as_csr(X), 8)
    gram = u.T @ u
    assert np.linalg.norm(gram - np.eye(8)) <= 1e-8
    assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))


def test_svd_pads_when_k_exceeds_dimension():
    X = np.diag([2.0, 1.0])
    u, s = truncated_svd(as_csr(X), 5)
    assert u.shape == (2, 5)
    assert s.shape == (5,)
    assert np.all(s[2:] == 0)
    assert np.all(u[:, 2:] == 0)


def test_svd_rejects_bad_k():
    with pytest.raises(ConfigError):
        truncated_svd(as_csr(np.eye(3)), 0)


def test_svd_refuses_a_gram_matrix_over_the_memory_budget():
    """One nonzero per row: X is tiny, but its Gram matrix is n_r x n_r."""
    n_r = 10_000
    X = as_csr(sp.csr_matrix((np.ones(n_r), (np.arange(n_r), np.zeros(n_r, dtype=np.int64))),
                             shape=(n_r, 1)))
    with pytest.raises(BudgetError, match="n_r=10,000 .* 4,800,000,000 bytes"):
        truncated_svd(X, 5)
    rows = [TermPair.parse(f"a{i}", f"b{i}") for i in range(n_r)]
    with pytest.raises(BudgetError, match="n_r=10,000"):
        build_space_from_matrix(X, rows, k=5)


def test_decomposition_budget_edge():
    _require_decomposition_budget(9_128, 1, 9_128)
    with pytest.raises(BudgetError, match="n_r=9,129"):
        _require_decomposition_budget(9_129, 1, 9_129)
    _require_cosine_budget(9_128)
    with pytest.raises(BudgetError, match="cosines of n_r=9,129"):
        _require_cosine_budget(9_129)


def test_no_svd_refuses_a_cosine_matrix_over_the_memory_budget():
    """Without SVD the same budget on n_r holds: 10,000 rows of one nonzero
    each are refused before any 10,000 x 10,000 array (800 MB) is formed."""
    n_r = 10_000
    X = as_csr(sp.identity(n_r, format="csr"))
    rows = [TermPair.parse(f"a{i}", f"b{i}") for i in range(n_r)]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="n_r=10,000 .* 4,800,000,000 bytes"):
            build_space_from_matrix(X, rows, k=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_r * n_r / 100


def test_no_svd_cosines_peak_within_the_budget_per_cell():
    """X of one component, 1,000 rows that all share column 0: the cosines
    and the Gram products formed for them peak within the bytes per n_r^2
    cell that the budget counts."""
    rng = np.random.default_rng(0)
    n_r, n_c = 1_000, 200
    X = rng.uniform(0.5, 2.0, (n_r, n_c)) * (rng.random((n_r, n_c)) < 0.2)
    X[:, 0] = 1.0
    X = as_csr(X)
    assert not _components(X).any()
    tracemalloc.start()
    try:
        cos = _gram_cosines(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cos.shape == (n_r, n_r)
    assert peak < _DECOMPOSITION_BYTES_PER_CELL * n_r * n_r


def test_svd_beats_random_rank_k_competitors():
    rng = np.random.default_rng(42)
    for _ in range(5):
        X = rng.standard_normal((12, 18))
        k = 3
        u, s = truncated_svd(as_csr(X), k)
        best = np.linalg.norm(u @ u.T @ X - X)
        for _ in range(20):
            B = rng.standard_normal((12, k)) @ rng.standard_normal((k, 18))
            assert best <= np.linalg.norm(B - X) + 1e-8


def test_svd_sparse_path_matches_dense():
    rng = np.random.default_rng(3)
    X = sp.random(700, 900, density=0.01, random_state=rng, format="csr")
    u, s = truncated_svd(as_csr(X), 5)   # Gram eigendecomposition against dense LAPACK
    dense_s = np.linalg.svd(X.toarray(), compute_uv=False)[:5]
    assert np.allclose(s, dense_s, rtol=1e-6, atol=1e-8)
    assert np.linalg.norm(u.T @ u - np.eye(5)) <= 1e-6


# --- decomposition one connected component at a time -----------------------

def csgraph_labels(X):
    """Each row's smallest component-mate, from scipy's connected_components
    on the bipartite graph of X's rows and columns, joined by its nonzeros."""
    X = sp.csr_matrix(X)
    n_r, n_c = X.shape
    pattern = sp.csr_matrix((np.ones(X.nnz), X.indices, X.indptr), shape=X.shape)
    _, comp = connected_components(sp.bmat([[sp.csr_matrix((n_r, n_r)), pattern],
                                            [pattern.T, sp.csr_matrix((n_c, n_c))]]),
                                   directed=False)
    first = {}
    return np.array([first.setdefault(g, i) for i, g in enumerate(comp[:n_r].tolist())])


def shuffled_blocks(rng, blocks, n_zero, n_cols_extra=0):
    """The blocks on the diagonal, n_zero zero rows, rows and columns shuffled."""
    n_r = sum(b.shape[0] for b in blocks) + n_zero
    n_c = sum(b.shape[1] for b in blocks) + n_cols_extra
    X = np.zeros((n_r, n_c))
    r = c = 0
    for b in blocks:
        X[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return sp.csr_matrix(X[rng.permutation(n_r)][:, rng.permutation(n_c)])


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]))
@settings(max_examples=200, deadline=None)
def test_components_match_csgraph(seed, n_r, n_c, density):
    rng = np.random.default_rng(seed)
    X = sp.random(n_r, n_c, density=density, random_state=rng, format="csr")
    assert _components(as_csr(X)).tolist() == csgraph_labels(X).tolist()


def test_components_of_empty_rows_singletons_and_permuted_blocks():
    rng = np.random.default_rng(0)
    assert _components(as_csr(np.zeros((4, 3)))).tolist() == [0, 1, 2, 3]
    alone = sp.identity(50, format="csr")[rng.permutation(50)]
    assert _components(as_csr(alone)).tolist() == list(range(50))
    blocks = [rng.standard_normal((r, c)) for r, c in ((3, 4), (1, 2), (5, 1), (2, 2))]
    X = shuffled_blocks(rng, blocks, n_zero=3, n_cols_extra=2)
    labels = _components(as_csr(X))
    assert labels.tolist() == csgraph_labels(X).tolist()
    assert sorted(np.bincount(labels)[np.unique(labels)].tolist()) == [1, 1, 1, 1, 2, 3, 5]


def test_components_of_a_chain_at_the_budget_edge():
    """9,128 rows, the most one component may have under the decomposition
    budget, each sharing a column with the next one in a random order: one component, found in a
    few whole-array rounds, where one eigh of that size takes minutes."""
    n_r = 9_128
    order = np.random.default_rng(1).permutation(n_r)
    rows = np.concatenate([order, order])
    cols = np.concatenate([np.arange(n_r), np.arange(n_r) + 1])
    X = sp.csr_matrix((np.ones(2 * n_r), (rows, cols)), shape=(n_r, n_r + 1))
    start = time.perf_counter()
    labels = _components(as_csr(X))
    assert time.perf_counter() - start < 1.0
    assert not labels.any()
    assert labels.tolist() == csgraph_labels(X).tolist()


def block_matrix(seed, plan, n_zero):
    """X of dense blocks with chosen, well-separated singular values, rows
    and columns shuffled. `plan` holds, per block, (rows, extra columns)
    or (rows, extra columns, scale) for a new block, its singular values
    multiplied by scale, or ("copy", i) to repeat block i over new columns."""
    rng = np.random.default_rng(seed)
    pool = iter(rng.permutation(np.arange(4, 44)) / 4.0)
    blocks = []
    for first, second, *scale in plan:
        if first == "copy":
            blocks.append(blocks[second].copy())
            continue
        r, c = first, first + second
        left, _ = np.linalg.qr(rng.standard_normal((r, r)))
        right, _ = np.linalg.qr(rng.standard_normal((c, r)))
        block = left @ np.diag([next(pool) for _ in range(r)]) @ right.T
        blocks.append(block * scale[0] if scale else block)
    return shuffled_blocks(rng, blocks, n_zero=n_zero)


@st.composite
def block_matrices(draw, scales=(1.0,)):
    """`block_matrix` with some blocks repeated (singular values tied exactly
    across components) and zero rows. Each new block is scaled by one of
    `scales`; a scale below 1 can put its whole spectrum below another's."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    plan = []
    for _ in range(draw(st.integers(1, 4))):
        if plan and draw(st.booleans()):
            plan.append(("copy", draw(st.integers(0, len(plan) - 1))))
        else:
            plan.append((draw(st.integers(1, 5)), draw(st.integers(0, 3)),
                         draw(st.sampled_from(scales))))
    return block_matrix(seed, plan, draw(st.integers(0, 3)))


@given(block_matrices())
# Three copies of one 5 x 5 block: at k = 3 each row is its block's top
# singular direction alone, and two weak rows of different copies, with
# norms 4.8e-3 against sigma_1 = 8.5, read a cosine of 2.0e-12 in the
# reference where the component path gives exactly 0.0.
@example(block_matrix(4294967294, [(5, 0), ("copy", 0), ("copy", 0)], 0))
# Sigma 10.25 and 10.0 kept above 9.75 dropped at k = 2: the cut's gap
# turns the kept rows, by 7.3e-14 in one cosine.
@example(block_matrix(1075, [(5, 3)], 1))
@settings(max_examples=150, deadline=None)
def test_component_decomposition_matches_one_eigh(X):
    """Against one eigh of the whole Gram matrix, at every k from 1 to past
    n_r: below, at and above the rank, and inside a tie.

    The whole eigh gives each zero row an eigenvalue of rounding noise, not
    0: a sigma of up to about 1e-8 * sigma_1, which its cut can keep past
    the rank. A zero row alone gives exactly 0. So the reference's columns
    at or below NOISE * sigma_1 count as zero padding.

    The cosines agree to the reference's rounding. Its rows r_i = U[i] *
    sigma come from one eigh of the n_r x n_r Gram matrix G, which is
    backward stable: its eigenpairs are exact for some G + E with |E|
    about n_r * eps * sigma_1^2, eps = 2.2e-16. To first order, E turns
    each kept eigenvector v_i toward each dropped one v_j by E_ij /
    (lambda_i - lambda_j), and the rows weight v_i by sigma_i, so they
    move by |dr_i| <= n_r eps sigma_1 a, with a = lambda_k / (lambda_k -
    lambda_(k+1)) at the cut: 1 when the cut is at the rank, and about 20
    for sigma 10.0 kept above 9.75 dropped. A cosine is the dot product
    of the unit rows r_i / |r_i|, so it moves by at most |dr_i| / |r_i| +
    |dr_j| / |r_j|. The bound is twice that, to cover the component
    path's own rounding, of the same kind on smaller matrices: it is
    tighter than 1e-12 between strong rows, and wider for a weak row,
    whose direction the same absolute error turns further. Over 12,000
    matrices drawn like these, half of them from seeds below 4096, the
    largest difference was 0.32 of the bound.
    """
    NOISE = 1e-6
    n_r = X.shape[0]
    rows = [TermPair.parse(f"a{i}", f"b{i}") for i in range(n_r)]
    row_index = {p: i for i, p in enumerate(rows)}
    spectrum = np.sqrt(np.maximum(np.linalg.eigvalsh((X @ X.T).toarray())[::-1], 0.0))
    for k in range(1, n_r + 3):
        u, s = truncated_svd(as_csr(X), k)
        u_ref, s_ref = truncated_svd_full(X, k)
        sigma_1 = s_ref.max(initial=0.0)
        kept = int(np.count_nonzero(s_ref > NOISE * sigma_1))
        assert np.count_nonzero(s) == kept
        assert np.all(s[kept:] == 0.0) and np.all(u[:, kept:] == 0.0)
        assert np.abs(s[:kept] - s_ref[:kept]).max(initial=0.0) <= 1e-12 * sigma_1
        got = build_space(u, s, row_index).sim_grid(rows, rows)
        want = build_space(u_ref, s_ref, row_index).sim_grid(rows, rows)
        a = 1.0
        if kept:
            dropped = spectrum[kept] if kept < n_r else 0.0
            a = s_ref[kept - 1] ** 2 / (s_ref[kept - 1] ** 2 - dropped ** 2)
        norms = np.linalg.norm(u_ref[:, :kept] * s_ref[:kept], axis=1)
        turn = n_r * np.finfo(float).eps * sigma_1 * a / np.where(norms > 0, norms, np.inf)
        assert np.all(np.abs(got - want) <= 2 * (turn[:, None] + turn[None, :]))


# One component of 400 rows: a threaded eigh of its Gram block gives
# other last bits at one BLAS thread and at two.
SVD_BYTES = """
import hashlib
import numpy as np
from oracles import as_csr
from relmap.space import truncated_svd
X = np.random.default_rng(3).random((400, 60))
u, s = truncated_svd(as_csr(X), 50)
print(hashlib.sha256(u.tobytes() + s.tobytes()).hexdigest())
"""


def test_truncated_svd_keeps_its_bytes_at_two_blas_threads():
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]),
                   OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", SVD_BYTES], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out[threads] = proc.stdout
    assert out["1"] == out["2"]


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 30),
       st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_one_component_keeps_the_bits_of_one_eigh(seed, n_r, n_c, k):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_r, n_c)) * (rng.random((n_r, n_c)) < 0.3)
    X[:, 0] = rng.uniform(0.5, 2.0, n_r)   # every row shares column 0
    X = sp.csr_matrix(X)
    assert not _components(as_csr(X)).any()
    u, s = truncated_svd(as_csr(X), k)
    u_ref, s_ref = truncated_svd_full(X, k)
    assert s.tobytes() == s_ref.tobytes()
    assert u.tobytes() == u_ref.tobytes()


def near_tie_below_the_kth():
    """Rows alone with squared norms 1, 1e-8 and 1e-12, and a 2-row block
    whose largest eigenvalue, equal to its row-sum bound, lies 1e-5 below
    1e-8, while its rows' squared norms are two thirds of that. At k = 2
    sigma_2 = 1e-4 is tied with the block's sigma (5e-10 apart, within
    1e-9 sigma_1), so the cut drops it; a block skipped against the k-th
    value in place of the (k+1)-th would leave its squared norms as the
    3rd value, a strict gap, and keep sigma_2."""
    x = math.sqrt(1e-8 * (1 - 1e-5) / 3)
    return sp.csr_matrix(np.array([[1.0, 0, 0, 0, 0, 0], [0, 1e-4, 0, 0, 0, 0],
                                   [0, 0, 1e-6, 0, 0, 0], [0, 0, 0, x, x, 0],
                                   [0, 0, 0, 0, x, x]]))


@given(block_matrices(scales=(1.0, 1.0, 0.5, 0.1, 0.01)))
@example(near_tie_below_the_kth())
# A strong 5-row block, a scaled-down 4-row one, a row alone and a zero
# row: the weak block is skipped at k = 1-4 and decomposed from k = 5.
@example(block_matrix(7, [(5, 1, 1.0), (4, 2, 0.1), (1, 1, 0.5)], 1))
# Two copies of a strong block and a weak one: the tie at the cut spans
# two components, neither of which may be skipped.
@example(block_matrix(11, [(3, 0, 1.0), ("copy", 0), (3, 1, 0.01)], 0))
@settings(max_examples=200, deadline=None)
def test_skipping_components_keeps_the_bits_of_every_eigh(X):
    """The components whose eigenvalues cannot reach the cut are skipped,
    and U_k and sigma_k keep the bits of an eigh of every component, at
    every k from 1 to past n_r."""
    for k in range(1, X.shape[0] + 3):
        u, s = truncated_svd(as_csr(X), k)
        u_ref, s_ref = truncated_svd_every_component(X, k)
        assert s.tobytes() == s_ref.tobytes()
        assert u.tobytes() == u_ref.tobytes()


def test_a_weak_component_below_the_cut_is_not_decomposed(monkeypatch):
    """A strong 6-row block and a weak 6-row one: at k = 3 the weak block's
    row-sum bound lies below the strong block's 4th eigenvalue, so one eigh
    runs; at k = 12, n_r, nothing can be skipped."""
    X = block_matrix(3, [(6, 2, 1.0), (6, 2, 0.01)], 0)
    sizes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    u, s = truncated_svd(as_csr(X), 3)
    assert sizes == [6]
    u_ref, s_ref = truncated_svd_every_component(X, 3)
    assert (u.tobytes(), s.tobytes()) == (u_ref.tobytes(), s_ref.tobytes())
    sizes.clear()
    truncated_svd(as_csr(X), 12)
    assert sizes == [6, 6]


def chain(n_r):
    """n_r rows in one component: row i shares a column with row i + 1."""
    rows = np.repeat(np.arange(n_r), 2)
    return sp.csr_matrix((np.ones(2 * n_r), (rows, rows + np.tile([0, 1], n_r))),
                         shape=(n_r, n_r + 1))


def test_budget_counts_the_largest_component():
    """A 9,129-row component is refused inside a larger X, before any
    n_r x n_r or n_r x k array is formed; 10,000 rows in 2-row components
    are not, and keep the bits of an eigh of every component."""
    X = as_csr(sp.block_diag([chain(9_129), sp.identity(871)], format="csr"))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"n_r=10,000 pair rows at k=5 .* \(9,129 rows\)"):
            truncated_svd(X, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10_000 * 10_000 / 100
    rng = np.random.default_rng(0)
    pairs = sp.block_diag([rng.uniform(0.5, 2.0, (2, 2)) for _ in range(5_000)], format="csr")
    u, s = truncated_svd(as_csr(pairs), 5)
    u_ref, s_ref = truncated_svd_every_component(pairs, 5)
    assert (u.tobytes(), s.tobytes()) == (u_ref.tobytes(), s_ref.tobytes())


def test_budget_counts_the_factors():
    """At a huge k the n_r x k factors alone pass the budget: refused by
    name, before u is formed. At k = 300 they move the edge for X of one
    component from 9,128 rows to 9,029."""
    with pytest.raises(BudgetError,
                       match="n_r=3 pair rows at k=1,000,000,000 .* 96,000,000,000 bytes"):
        truncated_svd(as_csr(np.eye(3)), 10 ** 9)
    with pytest.raises(BudgetError, match=r"\(9,030 rows\)"):
        _require_decomposition_budget(9_030, 300, 9_030)
    _require_decomposition_budget(9_029, 300, 9_029)


def test_decomposed_blocks_hold_no_more_than_the_budget_counts(monkeypatch):
    """Twenty alike 400-row components, none of which can be skipped at
    k = 10: each keeps only its first k vectors, so the traced peak stays
    within what the budget counts, the largest Gram block and the n_r x k
    arrays, where keeping every block's whole eigenvector matrix would
    hold 25.6 MB."""
    rng = np.random.default_rng(3)
    block = rng.uniform(0.5, 2.0, (400, 8))
    X = as_csr(sp.block_diag([block * (1 + i / 1000) for i in range(20)], format="csr"))
    n_r, k = X.shape[0], 10
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    tracemalloc.start()
    try:
        u, s = truncated_svd(X, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [400] * 20
    counted_bytes = _DECOMPOSITION_BYTES_PER_CELL * 400 ** 2 + _FACTOR_BYTES_PER_CELL * n_r * k
    assert peak < counted_bytes < 8 * 20 * 400 ** 2
    u_ref, s_ref = truncated_svd_every_component(X, k)
    assert (u.tobytes(), s.tobytes()) == (u_ref.tobytes(), s_ref.tobytes())


def test_weak_row_is_zeroed():
    # Rows 2 and 3 lie wholly in the third right singular direction of a
    # rank-3 matrix, so at k=2 their rows of U_k * Sigma_k hold only
    # rounding noise, which must not be scaled up to unit vectors.
    rng = np.random.default_rng(1)
    V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    R, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    X0 = np.zeros((5, 6))
    X0[:2, :2] = R @ np.diag([5.0, 4.0])
    X0[2, 2] = 1.0
    X0[3, 2] = 2.0
    rows = [TermPair.parse(f"a{i}", f"b{i}") for i in range(5)]
    space = build_space_from_matrix(as_csr(X0 @ V.T), rows, k=2)
    assert np.linalg.norm(space.W, axis=1).tolist() == pytest.approx(
        [1.0, 1.0, 0.0, 0.0, 0.0], abs=1e-12)
    assert np.all(space.W[2:] == 0.0)
    assert space.sim_r(rows[2], rows[3]) == 0.0
    assert space.sim_r(rows[2], rows[0]) == 0.0


TERMS = [f"t{i}" for i in range(6)]
ALL_PAIRS = [TermPair.parse(a, b) for a in TERMS for b in TERMS if a != b]


@st.composite
def spaces(draw):
    """A space over some of ALL_PAIRS, with SVD or without; some rows weak
    enough to be zeroed."""
    rows = draw(st.lists(st.sampled_from(ALL_PAIRS), unique=True, max_size=len(ALL_PAIRS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weak = np.array(draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))),
                    dtype=bool)
    scale = np.where(weak, 1e-9, 1.0)
    if draw(st.booleans()):
        X = sp.random(len(rows), draw(st.integers(1, 40)), density=0.3, random_state=rng,
                      data_rvs=rng.standard_normal)
        return build_space_from_matrix(as_csr(sp.diags(scale) @ X), rows, k=None), rows
    k = draw(st.integers(1, 320))
    U = rng.standard_normal((len(rows), k)) * scale[:, None]
    space = build_space(U, rng.uniform(0.1, 10.0, size=k), {p: i for i, p in enumerate(rows)})
    return space, rows


@given(spaces(), st.lists(st.sampled_from(ALL_PAIRS), max_size=12),
       st.lists(st.sampled_from(ALL_PAIRS), max_size=12), st.permutations(range(6)))
@settings(max_examples=200, deadline=None)
def test_grids_and_explain_have_sim_r_bits(drawn, ps, qs, perm):
    """sim_grid, sim_r and the prepared score's explain equal the scalar
    sim_r reference cell by cell, to the bit, over pairs without a row and
    rows zeroed as weak too, with SVD and without."""
    space, rows = drawn
    grid = space.sim_grid(ps, qs)
    assert grid.shape == (len(ps), len(qs))
    for a, p in enumerate(ps):
        for b, q in enumerate(qs):
            assert grid[a, b].hex() == scalar_sim_r(space, p, q).hex()
            assert space.sim_r(p, q).hex() == scalar_sim_r(space, p, q).hex()
    problem = MappingProblem.build("P", TERMS, TERMS)
    src, tgt = problem.source, problem.target
    explained = RelationalScorer(space).prepare(problem).explain(problem, tuple(perm))
    want = [(TermPair(src[i], src[j]), TermPair(tgt[perm[i]], tgt[perm[j]]))
            for i in range(6) for j in range(i + 1, 6)]
    assert [label for label, _ in explained] == [f"{p.text} ~ {q.text}" for p, q in want]
    assert [v.hex() for _, v in explained] == [scalar_sim_r(space, p, q).hex() for p, q in want]


def test_decomposition_backends_agree(planted_all):
    """eigh, dense LAPACK and svds give the same sim_r on rows with signal."""
    data, index = planted_all
    pairs, stats = mine_for_problems(index, data.problems, Config())
    rows = prune_rows(pairs, stats.phrase_counts)
    F = build_frequency_matrix(rows, select_columns(stats, 20, len(rows)), stats)
    X = transform_ppmic(F)
    s = np.linalg.svd(dense(X), compute_uv=False)
    for k in (20, 100):
        assert s[k - 1] - s[k] > 1e-3 * s[0]   # a unique rank-k space
        space = build_space_from_matrix(X, rows, k=k)
        weak = np.flatnonzero(np.all(space.W == 0.0, axis=1))
        assert 0 < weak.size < len(rows)
        for backend in (dense_svd, sparse_svd):
            u, sigma = backend(X, k)
            proj = u * sigma
            norms = np.linalg.norm(proj, axis=1)
            assert np.flatnonzero(norms <= 1e-6 * norms.max()).tolist() == weak.tolist()
            strong = np.flatnonzero(norms > 1e-6 * norms.max())
            unit = proj[strong] / norms[strong, None]
            want = unit @ unit.T
            for a, i in enumerate(strong):
                for b, j in enumerate(strong):
                    assert abs(space.sim_r(rows[i], rows[j]) - want[a, b]) <= 1e-9
            for i in weak:
                assert space.sim_r(rows[i], rows[strong[0]]) == 0.0


# --- relation space ---------------------------------------------------------

def pair_index(*pairs):
    return {TermPair.parse(*xy): i for i, xy in enumerate(pairs)}


def test_build_space_normalizes_rows():
    U = np.array([[3.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    sigma = np.array([2.0, 1.0])
    space = build_space(U, sigma, pair_index(("a", "b"), ("c", "d"), ("e", "f")))
    norms = np.linalg.norm(space.W, axis=1)
    assert norms[0] == pytest.approx(1.0)
    assert norms[1] == pytest.approx(1.0)
    assert norms[2] == 0.0


def test_build_space_identity_example():
    space = build_space(np.eye(2), np.array([2.0, 1.0]),
                        pair_index(("a", "b"), ("c", "d")))
    assert np.allclose(space.W, np.eye(2))


def test_sim_self_is_one():
    space = build_space(np.eye(2), np.array([2.0, 1.0]),
                        pair_index(("a", "b"), ("c", "d")))
    p = TermPair.parse("a", "b")
    assert space.sim_r(p, p) == pytest.approx(1.0, abs=1e-12)


def test_sim_absent_pair_is_zero():
    space = build_space(np.eye(2), np.array([2.0, 1.0]),
                        pair_index(("a", "b"), ("c", "d")))
    assert space.sim_r(TermPair.parse("a", "b"),
                       TermPair.parse("q", "z")) == 0.0


def build_toy_space(tmp_path, k=None, transform="ppmic"):
    texts = ["p1 links q1 fill fill fill p2 links q2",
             "p1 ties q1 fill fill fill p2 near q2 fill p3 far q3"]
    index = write_corpus(tmp_path, texts)
    prob = MappingProblem.build(id="toy", source=["p1", "q1", "p3"],
                                target=["p2", "q2", "q3"])
    pairs = build_pair_list([prob])
    stats = mine_patterns(index, pairs)
    rows = prune_rows(pairs, stats.phrase_counts)
    cols = select_columns(stats, t=50, n_r=len(rows))
    F = build_frequency_matrix(rows, cols, stats)
    X = transform_ppmic(F)
    return X, rows


def test_sim_matches_dense_cosine_oracle(tmp_path):
    # k=3 is left out: sigma_3 ties sigma_4 on this space, so a rank-3
    # space is not unique (see test_tied_boundary_cuts_at_last_gap)
    X, rows = build_toy_space(tmp_path)
    for k in (2, 4):
        space = build_space_from_matrix(X, rows, k=k)
        Xd = dense(X)
        u, s, vt = np.linalg.svd(Xd, full_matrices=False)
        proj = u[:, :k] * s[:k]
        for i, p in enumerate(rows):
            for j, q in enumerate(rows):
                ni, nj = np.linalg.norm(proj[i]), np.linalg.norm(proj[j])
                if ni == 0 or nj == 0:
                    want = 0.0
                else:
                    want = float(proj[i] @ proj[j] / (ni * nj))
                assert space.sim_r(p, q) == pytest.approx(want, abs=1e-9)


def test_tied_boundary_cuts_at_last_gap(tmp_path):
    X, rows = build_toy_space(tmp_path)
    s = np.linalg.svd(dense(X), compute_uv=False)
    assert s[2] - s[3] <= 1e-9 * s[0] < s[1] - s[2]
    u, sigma = truncated_svd(X, 3)
    assert sigma[2] == 0.0 and np.all(u[:, 2] == 0.0)
    three = build_space_from_matrix(X, rows, k=3)
    two = build_space_from_matrix(X, rows, k=2)
    for p in rows:
        for q in rows:
            assert three.sim_r(p, q) == pytest.approx(two.sim_r(p, q), abs=1e-12)


def test_sim_symmetric_under_pair_reversal(tmp_path):
    X, rows = build_toy_space(tmp_path)
    space = build_space_from_matrix(X, rows, k=4)
    present = list(space.row_index)
    for p in present:
        for q in present:
            if p.reversed() in space.row_index and q.reversed() in space.row_index:
                assert space.sim_r(p, q) == pytest.approx(
                    space.sim_r(p.reversed(), q.reversed()), abs=1e-9)


def test_sim_range(tmp_path):
    X, rows = build_toy_space(tmp_path)
    space = build_space_from_matrix(X, rows, k=2)
    for p in rows:
        for q in rows:
            v = space.sim_r(p, q)
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def test_no_svd_equals_direct_cosines(tmp_path):
    X, rows = build_toy_space(tmp_path)
    space = build_space_from_matrix(X, rows, k=None)
    Xd = dense(X)
    for i, p in enumerate(rows):
        for j, q in enumerate(rows):
            ni, nj = np.linalg.norm(Xd[i]), np.linalg.norm(Xd[j])
            want = 0.0 if ni == 0 or nj == 0 else float(Xd[i] @ Xd[j] / (ni * nj))
            assert space.sim_r(p, q) == pytest.approx(want, abs=1e-12)


@st.composite
def gram_inputs(draw):
    """A sparse X of one to four blocks on the diagonal, so of several
    components, its rows scaled over 1e-4..1, with some rows zeroed, some
    weak, and some duplicated, in shuffled order."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = [sp.random(*rng.integers(1, 10, size=2), density=rng.uniform(0.1, 1.0),
                        random_state=rng, data_rvs=lambda n: rng.uniform(-1.0, 1.0, n))
              for _ in range(draw(st.integers(1, 4)))]
    X = sp.block_diag(blocks, format="csr")
    n = X.shape[0]
    scale = 10.0 ** rng.uniform(-4.0, 0.0, n)
    scale[rng.random(n) < 0.1] = 0.0
    scale[rng.random(n) < 0.1] = 1e-9
    X = (sp.diags(scale) @ X).tocsr()
    X = X[rng.permutation(np.append(np.arange(n), rng.integers(0, n, rng.integers(0, 4))))]
    return sp.csr_matrix(X)


@given(gram_inputs())
@settings(max_examples=300, deadline=None)
def test_no_svd_cosines_match_the_dense_oracle(X):
    """The cosines from the sparse Gram matrix are those of the dense
    normalized rows to 2e-15, zero the same weak rows, and are exactly 0.0
    across components."""
    rows = [TermPair.parse(f"a{i}", f"b{i}") for i in range(X.shape[0])]
    cos = build_space_from_matrix(as_csr(X), rows, k=None).cosines
    want, weak = dense_cosines(X)
    assert np.abs(cos - want).max() <= 2e-15
    assert np.all(cos == cos.T)
    assert np.all(cos[weak] == 0.0)
    assert np.all(np.diag(cos)[~weak] == 1.0)
    labels = csgraph_labels(X)
    assert np.all(cos[labels[:, None] != labels[None, :]] == 0.0)


def test_empty_space_from_empty_corpus():
    index = ingest([])
    prob = MappingProblem.build(id="e", source=["a", "b"], target=["c", "d"])
    cfg = Config(t=20, k=300)
    pairs, stats = mine_for_problems(index, [prob], cfg)
    space, diag = space_from_stats(pairs, stats, cfg)
    assert diag["n_r"] == 0
    assert space.sim_r(TermPair.parse("a", "b"), TermPair.parse("c", "d")) == 0.0
