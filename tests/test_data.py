import numpy as np
import pytest

import shardcd as sc
from conftest import random_matrix
from oracles import dense_from_columns, normalized_dense


def test_mat_vec_zero_coefficients():
    rng = np.random.default_rng(0)
    m, _ = random_matrix(rng, n=6, d=4)
    assert np.array_equal(m.mat_vec(np.zeros(6)), np.zeros(4))


def test_mat_vec_identity_columns():
    m = sc.ColMatrix.from_columns(3, [[(0, 1.0)], [(1, 1.0)], [(2, 1.0)]])
    a = np.array([0.3, -2.0, 5.0])
    assert np.allclose(m.mat_vec(a), a)


def test_mat_vec_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        m, cols = random_matrix(rng, n=n, d=d, density=0.5)
        dense = dense_from_columns(d, cols)
        a = rng.standard_normal(n)
        assert np.max(np.abs(m.mat_vec(a) - dense @ a)) <= 1e-12


def test_mat_tvec_matches_dense_oracle():
    rng = np.random.default_rng(43)
    m, cols = random_matrix(rng, n=7, d=5, density=0.5)
    dense = dense_from_columns(5, cols)
    u = rng.standard_normal(5)
    assert np.max(np.abs(m.mat_tvec(u) - dense.T @ u)) <= 1e-12


def test_products_match_dense_after_normalize():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        m, cols = random_matrix(rng, n=n, d=d, density=0.5)
        cols[int(rng.integers(0, n))] = []
        m = sc.ColMatrix.from_columns(d, cols)
        dense = dense_from_columns(d, cols)
        a, u = rng.standard_normal(n), rng.standard_normal(d)
        for ref in (dense, normalized_dense(dense)):
            if ref is not dense:
                m.normalize_columns()  # in place: the products must see it
            assert np.max(np.abs(m.toarray() - ref)) <= 1e-15
            assert np.max(np.abs(m.mat_vec(a) - ref @ a)) <= 1e-12
            assert np.max(np.abs(m.mat_tvec(u) - ref.T @ u)) <= 1e-12


def test_mat_vec_length_mismatch():
    rng = np.random.default_rng(1)
    m, _ = random_matrix(rng, n=4, d=3)
    with pytest.raises(ValueError):
        m.mat_vec(np.zeros(5))


def test_axpy_zero_scale_is_noop():
    rng = np.random.default_rng(2)
    m, _ = random_matrix(rng, n=4, d=3)
    u = rng.standard_normal(3)
    before = u.copy()
    m.axpy_column(0, 0.0, u)
    assert np.array_equal(u, before)


def test_axpy_unit_basis():
    m = sc.ColMatrix.from_columns(2, [[(0, 1.0)]])
    u = np.array([1.0, 7.0])
    m.axpy_column(0, 1.0, u)
    assert np.array_equal(u, np.array([2.0, 7.0]))


def test_axpy_stream_matches_batched_product():
    rng = np.random.default_rng(3)
    m, _ = random_matrix(rng, n=12, d=8, density=0.5)
    u = np.zeros(8)
    acc = np.zeros(12)
    for _ in range(1000):
        i = int(rng.integers(0, 12))
        s = float(rng.standard_normal())
        m.axpy_column(i, s, u)
        acc[i] += s
    ref = m.mat_vec(acc)
    scale = 1.0 + np.max(np.abs(ref))
    assert np.max(np.abs(u - ref)) <= 1e-10 * scale


def test_partition_contiguous_small():
    p = sc.partition_columns(4, 2, strategy="contiguous")
    assert [b.tolist() for b in p.blocks] == [[0, 1], [2, 3]]


def test_partition_balance_odd():
    p = sc.partition_columns(5, 2)
    assert sorted(p.block_sizes()) == [2, 3]


def test_partition_round_robin_exhaustive():
    p = sc.partition_columns(100, 7, strategy="round_robin")
    seen = np.concatenate(p.blocks)
    assert len(seen) == 100
    assert set(seen.tolist()) == set(range(100))
    for b in p.blocks:
        assert np.all(np.diff(b) > 0)


def test_partition_sweep_disjoint_exhaustive_balanced():
    for n in range(1, 65):
        for k in range(1, n + 1):
            for strategy in ("contiguous", "round_robin"):
                p = sc.partition_columns(n, k, strategy=strategy)
                sizes = p.block_sizes()
                assert max(sizes) - min(sizes) <= 1
                seen = np.concatenate(p.blocks)
                assert len(seen) == n and set(seen.tolist()) == set(range(n))
                for kk, b in enumerate(p.blocks):
                    assert np.all(p.owner[b] == kk)


def test_partition_errors():
    with pytest.raises(ValueError):
        sc.partition_columns(4, 0)
    with pytest.raises(ValueError):
        sc.partition_columns(4, 5)


def test_normalize_unit_columns_untouched():
    m = sc.ColMatrix.from_columns(2, [[(0, 1.0)], [(1, 1.0)]])
    before = m.vals.copy()
    norms = m.normalize_columns()
    assert np.allclose(norms, 1.0)
    assert np.array_equal(m.vals, before)


def test_normalize_scales_and_returns_norms():
    m = sc.ColMatrix.from_columns(2, [[(0, 2.0)]])
    norms = m.normalize_columns()
    assert norms[0] == pytest.approx(2.0)
    assert m.vals[0] == pytest.approx(1.0)  # 2.0 scaled by 1/2
    assert m.normalized


def test_normalize_random_postcondition():
    rng = np.random.default_rng(9)
    m, _ = random_matrix(rng, n=20, d=10, density=0.4)
    m.normalize_columns()
    for i in range(m.n_cols):
        _, v = m.column(i)
        nrm = float(np.sqrt(np.sum(v * v)))
        assert nrm == 0.0 or abs(nrm - 1.0) <= 1e-12


def test_normalize_leaves_zero_columns():
    m = sc.ColMatrix.from_columns(3, [[(0, 1.5)], []])
    norms = m.normalize_columns()
    assert norms.tolist() == [1.5, 0.0]
    _, v = m.column(1)
    assert len(v) == 0


def test_constructor_rejects_bad_columns():
    with pytest.raises(ValueError):
        sc.ColMatrix.from_columns(2, [[(0, 1.0), (0, 2.0)]])  # duplicate row
    with pytest.raises(ValueError):
        sc.ColMatrix.from_columns(2, [[(2, 1.0)]])  # row out of range
    with pytest.raises(ValueError):
        sc.ColMatrix.from_columns(2, [[(0, np.inf)]])  # nonfinite


def test_constructors_reject_unordered_rows_naming_the_column():
    with pytest.raises(ValueError, match="column 1"):
        sc.ColMatrix.from_columns(3, [[(0, 1.0)], [(2, 1.0), (2, -1.0)]])
    with pytest.raises(ValueError, match="column 2"):
        sc.ColMatrix.from_coo(3, 3, [0, 1, 1, 1], [0, 0, 2, 2],
                              [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="column 0"):
        sc.ColMatrix(3, 2, [0, 2, 3], [2, 1, 0], [1.0, 2.0, 3.0])
    # ascending rows that only look unordered across a column boundary
    m = sc.ColMatrix(3, 2, [0, 2, 3], [1, 2, 0], [1.0, 2.0, 3.0])
    assert m.nnz == 3


def test_from_coo_names_bad_indices():
    with pytest.raises(ValueError, match=r"column index 3 out of range \[0, 2\)"):
        sc.ColMatrix.from_coo(2, 2, [0, 1], [0, 3], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"column index -1 out of range"):
        sc.ColMatrix.from_coo(2, 2, [0, 1], [-1, 0], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"duplicate entry at \(row 1, column 0\)"):
        sc.ColMatrix.from_coo(2, 2, [1, 0, 1], [0, 1, 0], [1.0, 2.0, 3.0])
    m = sc.ColMatrix.from_coo(2, 2, [1, 1, 0], [0, 1, 0], [1.0, 2.0, 3.0])
    assert np.array_equal(m.toarray(), [[3.0, 0.0], [1.0, 2.0]])


def test_sq_spectral_norm_examples():
    one = sc.ColMatrix.from_columns(3, [[(0, 1.0)]])
    assert sc.sq_spectral_norm(one) == pytest.approx(1.0, abs=1e-9)
    two = sc.ColMatrix.from_columns(3, [[(1, 1.0)], [(1, 1.0)]])
    assert sc.sq_spectral_norm(two) == pytest.approx(2.0, abs=1e-9)
    assert sc.sq_spectral_norm(two, cols=[]) == 0.0
    rng = np.random.default_rng(31)
    for trial in range(20):
        m, columns = random_matrix(rng, n=12, d=9, density=0.4)
        dense = dense_from_columns(9, columns)
        cols = np.sort(rng.choice(12, size=int(rng.integers(1, 13)),
                                  replace=False))
        for subset in (None, cols):
            ref = np.linalg.norm(dense if subset is None
                                 else dense[:, subset], 2) ** 2
            got = sc.sq_spectral_norm(m, cols=subset, iters=2000, seed=trial)
            assert got == pytest.approx(ref, rel=1e-9)
