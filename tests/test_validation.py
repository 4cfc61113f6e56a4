"""Each argument check that no other test reaches: the call, the exception
it raises and its message."""

import re

import numpy as np
import pytest

import shardcd as sc
from conftest import subproblem

ONES = sc.ColMatrix(2, 2, [0, 1, 2], [0, 1], [1.0, 1.0])
EMPTY = sc.ColMatrix(2, 2, [0, 0, 0], [], [])
FIT = sc.DataFit(kind=sc.LEAST_SQUARES, labels=[1.0, -1.0])
LASSO = sc.make_objective(FIT, "l1", 0.1)
HALVES = sc.partition_columns(2, 2)
FIRST = sc.partition_columns(1, 1)  # misses column 1


def local_view():
    return subproblem(ONES, np.arange(2, dtype=np.int64), np.zeros(2),
                      alpha_block=np.zeros(2), sigma_prime=1.0, tau=1.0,
                      reg=LASSO.reg, f_share=0.0)


def block_of_ones(block):
    return sc.BlockColumns(ONES, np.array(block))


def solve_with_three_labels():
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=[1.0, 2.0, 3.0])
    sc.solve(sc.EngineConfig(k_count=1), sc.make_objective(fit, "l1", 0.1),
             ONES, sc.partition_columns(2, 1))


@pytest.mark.parametrize("call, error, message", [
    (lambda: sc.EngineConfig(k_count=1, h_local=0), ValueError,
     "h_local must be >= 1"),
    (lambda: sc.solve_local(local_view(), 0, 0), ValueError,
     "local epoch count h must be >= 1"),
    (lambda: sc.BaselineConfig(kind="mb_cd", batch_size=0), ValueError,
     "batch_size must be >= 1"),
    (lambda: sc.BaselineConfig(kind="mb_cd", batch_size=2, beta_scale=0.5),
     ValueError, "beta_scale must lie in [1, batch_size]"),
    (lambda: sc.BaselineConfig(kind="mb_cd", batch_size=2, beta_scale=3.0),
     ValueError, "beta_scale must lie in [1, batch_size]"),
    (lambda: sc.solve_baseline(sc.BaselineConfig(kind="prox_gd"), LASSO,
                               EMPTY),
     ValueError, "cannot pick a step size for an all-zero matrix"),
    (lambda: sc.ColMatrix(-1, 0, [0], [], []), ValueError,
     "matrix shape must be nonnegative"),
    (lambda: sc.ColMatrix(2, 2, [0, 2], [0, 1], [1.0, 1.0]), ValueError,
     "indptr has wrong length"),
    (lambda: sc.ColMatrix(2, 2, [0, 1, 3], [0, 1], [1.0, 1.0]), ValueError,
     "indptr endpoints inconsistent with nnz"),
    (lambda: sc.ColMatrix(2, 2, [0, 2, 1], [0], [1.0]), ValueError,
     "indptr must be nondecreasing"),
    (lambda: sc.ColMatrix(2, 2, [0, 1, 2], [0, 1], [1.0]), ValueError,
     "rows and vals length mismatch"),
    (lambda: sc.ColMatrix(2, 2, [0, 1, 2], [0, 2], [1.0, 1.0]), ValueError,
     "row index out of range"),
    (lambda: sc.ColMatrix(2, 1, [0, 2], [1, 1], [1.0, 1.0]), ValueError,
     "duplicate entry at (row 1, column 0)"),
    (lambda: sc.ColMatrix.from_coo(-1, 2, [], [], []), ValueError,
     "matrix shape must be nonnegative"),
    (lambda: sc.ColMatrix(2.5, 2, [0, 1, 2], [0, 1], [1.0, 2.0]), ValueError,
     "n_rows must be an integer, got 2.5"),
    (lambda: sc.ColMatrix(2, 2, [0, 1.5, 2], [0, 1], [1.0, 2.0]), ValueError,
     "indptr must hold integers, got 1.5 at position 1"),
    (lambda: sc.ColMatrix(2, 2, [0, 1, 2], [0, np.nan], [1.0, 2.0]),
     ValueError, "rows must hold integers, got nan at position 1"),
    (lambda: sc.ColMatrix.from_coo(2.5, 2, [0], [0], [1.0]), ValueError,
     "n_rows must be an integer, got 2.5"),
    (lambda: sc.ColMatrix.from_coo(2, 2, [0.7, 1.2], [0, 1], [1.0, 2.0]),
     ValueError, "coo_rows must hold integers, got 0.7 at position 0"),
    (lambda: sc.ColMatrix.from_coo(2, 2, [0, 1], [0, 1.9], [1.0, 2.0]),
     ValueError, "coo_cols must hold integers, got 1.9 at position 1"),
    (lambda: sc.Partition((np.array([0.0, 1.0]),)), ValueError,
     "partition block 0 must hold integers, got dtype float64"),
    (lambda: sc.partition_columns(4.0, 2), ValueError,
     "n must be an integer, got 4.0"),
    (lambda: sc.partition_columns(4, 2.5), ValueError,
     "k must be an integer, got 2.5"),
    (lambda: ONES.column(2), IndexError, "column index 2 out of range [0, 2)"),
    (lambda: ONES.mat_tvec(np.zeros(3)), ValueError,
     "vector length 3 != n_rows 2"),
    (lambda: ONES.axpy_column(0, 1.0, np.zeros(3)), ValueError,
     "vector length 3 != n_rows 2"),
    (lambda: sc.write_libsvm("unused.svm", ONES, np.zeros(3)), ValueError,
     "labels must have one entry per matrix row"),
    (lambda: sc.SyntheticSpec(n=0, d=2, density=0.5, true_nnz=0,
                              noise_sd=0.0, seed=0),
     ValueError, "n and d must be positive"),
    (lambda: sc.DataFit(kind=sc.LEAST_SQUARES, labels=[1.0, np.nan]),
     ValueError, "labels must be finite"),
    (lambda: sc.Regularizer(kind="x", lam=1.0), ValueError,
     "unknown regularizer kind 'x'"),
    (solve_with_three_labels, ValueError, "label length 3 != matrix rows 2"),
    (lambda: sc.make_objective(FIT, "elastic_net", 0.1), ValueError,
     "elastic net requires eta"),
    (lambda: sc.make_objective(FIT, "x", 0.1), ValueError,
     "unknown regularizer kind 'x'"),
    (lambda: sc.f_value(FIT, np.zeros(3)), ValueError,
     "vector length 3 != label length 2"),
    (lambda: sc.solve_local(local_view(), 1.5, 0), ValueError,
     "h must be an integer, got 1.5"),
    (lambda: sc.sq_spectral_norm(ONES, iters=2.5), ValueError,
     "iters must be an integer, got 2.5"),
    (lambda: sc.sq_spectral_norm(ONES, seed=1.5), ValueError,
     "seed must be an integer, got 1.5"),
    (lambda: sc.check_sigma_safety(ONES, HALVES, 1.0, probes=2.5),
     ValueError, "probes must be an integer, got 2.5"),
    (lambda: sc.check_lemma3(LASSO, ONES, HALVES, sc.EngineConfig(k_count=2),
                             trials=2.5),
     ValueError, "trials must be an integer, got 2.5"),
    (lambda: sc.duality_gap(LASSO, ONES, np.zeros(5), np.zeros(2)), ValueError,
     "coefficient length 5 != n_cols 2"),
    (lambda: sc.primal_value(LASSO, ONES, np.ones(5), np.zeros(2)), ValueError,
     "coefficient length 5 != n_cols 2"),
    (lambda: sc.check_sigma_safety(ONES, HALVES, np.nan), ValueError,
     "gamma must lie in (0, 1]"),
    (lambda: sc.check_sigma_safety(ONES, HALVES, 5.0), ValueError,
     "gamma must lie in (0, 1]"),
    (lambda: sc.check_lemma3(LASSO, ONES, HALVES, sc.EngineConfig(k_count=2),
                             trials=0),
     ValueError, "trials must be >= 1"),
    (lambda: sc.check_sigma_safety(ONES, HALVES, 1.0, probes=0), ValueError,
     "probes must be >= 1"),
    (lambda: sc.check_sigma_safety(ONES, HALVES, 1.0, probes=-3), ValueError,
     "probes must be >= 1"),
    (lambda: sc.sq_spectral_norm(ONES, iters=0), ValueError,
     "iters must be >= 1"),
    (lambda: sc.solve_local(local_view(), 1, 1.5), ValueError,
     "seed must be an integer, got 1.5"),
    (lambda: sc.check_lemma3(LASSO, ONES, FIRST, sc.EngineConfig(k_count=1)),
     ValueError, "partition does not match matrix columns"),
    (lambda: sc.check_sigma_safety(ONES, FIRST, 1.0), ValueError,
     "partition does not match matrix columns"),
    (lambda: sc.check_theta(LASSO, ONES, FIRST, sc.EngineConfig(k_count=1)),
     ValueError, "partition does not match matrix columns"),
    (lambda: sc.check_lemma3(LASSO, ONES, HALVES, sc.EngineConfig(k_count=3)),
     ValueError, "config expects 3 workers, partition has 2"),
    (lambda: sc.check_theta(LASSO, ONES, HALVES, sc.EngineConfig(k_count=3)),
     ValueError, "config expects 3 workers, partition has 2"),
    (lambda: block_of_ones([0.7]), ValueError,
     "block must hold integers, got 0.7 at position 0"),
    (lambda: block_of_ones([0, 2]), ValueError,
     "block column 2 out of range [0, 2)"),
    (lambda: block_of_ones([-1]), ValueError,
     "block column -1 out of range [0, 2)"),
    (lambda: block_of_ones([1, 1]), ValueError, "block repeats column 1"),
], ids=["h_local", "solve_local-h", "batch_size", "beta_scale-low",
        "beta_scale-high", "prox_gd-zero-matrix", "shape", "indptr-length",
        "indptr-endpoints", "indptr-decreasing", "rows-vals", "row-range",
        "duplicate-row", "from_coo-shape", "shape-integer", "indptr-integer",
        "rows-integer", "from_coo-shape-integer", "from_coo-rows-integer",
        "from_coo-cols-integer", "partition-integer",
        "partition_columns-n-integer", "partition_columns-k-integer",
        "column-range", "mat_tvec-length",
        "axpy_column-length", "write-labels", "synthetic-n", "labels-finite",
        "regularizer-kind", "check_dims", "enet-eta", "objective-kind",
        "f_value-length", "solve_local-h-integer", "iters-integer",
        "sq_spectral_norm-seed-integer", "probes-integer", "trials-integer",
        "duality_gap-length", "primal_value-length", "sigma-gamma-nan",
        "sigma-gamma-high", "trials-zero", "probes-zero", "probes-negative",
        "iters-zero", "solve_local-seed-integer", "lemma3-partition-columns",
        "sigma-partition-columns", "theta-partition-columns",
        "lemma3-partition-workers", "theta-partition-workers",
        "block-integer", "block-high", "block-negative", "block-repeat"])
def test_argument_check_raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
