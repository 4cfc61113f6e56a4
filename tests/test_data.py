import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shardcd as sc
from conftest import libsvm_paths, random_matrix
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
    p = sc.partition_columns(4, 2)
    assert [b.tolist() for b in p.blocks] == [[0, 1], [2, 3]]


def test_partition_balance_odd():
    p = sc.partition_columns(5, 2)
    assert sorted(len(b) for b in p.blocks) == [2, 3]


def test_partition_sweep_disjoint_exhaustive_balanced():
    for n in range(1, 65):
        for k in range(1, n + 1):
            p = sc.partition_columns(n, k)
            sizes = [len(b) for b in p.blocks]
            assert max(sizes) - min(sizes) <= 1
            seen = np.concatenate(p.blocks)
            assert len(seen) == n and set(seen.tolist()) == set(range(n))
            assert (p.k_count, p.n_cols) == (k, n)


def test_partition_errors():
    with pytest.raises(ValueError):
        sc.partition_columns(4, 0)
    with pytest.raises(ValueError):
        sc.partition_columns(4, 5)


def test_integral_float_indices_still_build():
    # from_columns hands its row ids to from_coo as one float array, so an
    # integral float index builds wherever a fractional one is refused
    m = sc.ColMatrix.from_columns(3, [[(2, 1.5), (0.0, -1.0)], [(1.0, 2.0)]])
    assert m.rows.dtype == np.int64
    assert np.array_equal(m.toarray(), [[-1.0, 0.0], [0.0, 2.0], [1.5, 0.0]])
    same = sc.ColMatrix(3, 2, m.indptr.astype(float), m.rows.astype(float),
                        m.vals)
    assert np.array_equal(same.indptr, m.indptr)
    assert np.array_equal(same.rows, m.rows)


@pytest.mark.parametrize("blocks, message", [
    (([0, 1, 2], [2, 3]), "repeat column 2"),        # overlap
    (([0, 1], [0, 1, 2, 3]), "repeat column 0"),
    (([0, 1], [3, 4]), "miss column 2"),             # gap
    (([1, 2], [3]), "miss column 0"),
    (([0, 1, 1],), "repeat column 1"),
])
def test_partition_rejects_overlap_and_gap(blocks, message):
    with pytest.raises(ValueError, match=message):
        sc.Partition(tuple(np.array(b) for b in blocks))


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


def test_normalize_scales_a_column_whose_squared_norm_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = sc.ColMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], [1e200, 1.0, 3.0, 4.0])
        assert m.col_sq_norms.tolist() == [np.inf, 25.0]
        norms = m.normalize_columns()
    assert norms.tolist() == [1e200, 5.0]
    np.testing.assert_array_max_ulp(m.vals[:2], np.array([1.0, 1e-200]), maxulp=1)
    assert m.vals[2:].tolist() == [3.0 * (1 / 5.0), 4.0 * (1 / 5.0)]


def test_normalize_refuses_a_column_whose_norm_overflows():
    # ||(1.7e308, 1.7e308)|| = 2.4e308 is beyond the largest double
    vals = [2.0, 1.7e308, 1.7e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = sc.ColMatrix(2, 2, [0, 1, 3], [0, 0, 1], vals)
        with pytest.raises(ValueError, match=r"^column 1: its norm exceeds"):
            m.normalize_columns()
    assert m.vals.tolist() == vals and not m.normalized
    assert m.col_sq_norms.tolist() == [4.0, np.inf]


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
    assert sc.sq_spectral_norm(sc.ColMatrix(3, 0, [0], [], [])) == 0.0
    rng = np.random.default_rng(31)
    for trial in range(20):
        m, columns = random_matrix(rng, n=12, d=9, density=0.4)
        ref = np.linalg.norm(dense_from_columns(9, columns), 2) ** 2
        got = sc.sq_spectral_norm(m, iters=2000, seed=trial)
        assert got == pytest.approx(ref, rel=1e-9)


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@libsvm_paths
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_storage_matches_lexsort_reference_and_round_trips(data):
    d, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    keys = data.draw(st.lists(st.integers(0, d * n - 1), unique=True))
    # explicit zeros of both signs among the values; rows and columns
    # without entries occur whenever keys miss them
    vals = np.array(data.draw(st.lists(
        st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6),
        min_size=len(keys), max_size=len(keys))), dtype=np.float64)
    rows, cols = np.divmod(np.array(keys, dtype=np.int64), n)
    perm = np.array(data.draw(st.permutations(range(len(keys)))), dtype=np.int64)
    rows, cols, vals = rows[perm], cols[perm], vals[perm]

    m = sc.ColMatrix.from_coo(d, n, rows, cols, vals)
    order = np.lexsort((rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    assert bits(m.indptr) == bits(indptr.astype(np.int64))
    assert bits(m.rows) == bits(rows[order])
    assert bits(m.vals) == bits(vals[order])
    col_ids = np.repeat(np.arange(n), np.diff(m.indptr))
    sq = np.bincount(col_ids, weights=m.vals * m.vals, minlength=n) \
        if m.nnz else np.zeros(n)
    assert bits(m.col_sq_norms) == bits(sq)

    if keys:
        dup = data.draw(st.integers(0, len(keys) - 1))
        at = data.draw(st.integers(0, len(keys)))
        with pytest.raises(ValueError, match=rf"duplicate entry at "
                           rf"\(row {rows[dup]}, column {cols[dup]}\)$"):
            sc.ColMatrix.from_coo(d, n, np.insert(rows, at, rows[dup]),
                                  np.insert(cols, at, cols[dup]),
                                  np.insert(vals, at, 1.0))

    labels = np.arange(d, dtype=np.float64) - 0.5
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.svm")
        sc.write_libsvm(path, m, labels)
        back, back_labels = sc.read_libsvm(path)
    # the file does not record trailing empty columns
    assert (back.n_rows, m.indptr[back.n_cols]) == (d, m.nnz)
    assert bits(back.indptr) == bits(m.indptr[:back.n_cols + 1])
    assert bits(back.rows) == bits(m.rows) and bits(back.vals) == bits(m.vals)
    assert bits(back_labels) == bits(labels)
