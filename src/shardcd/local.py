"""Data-local quadratic subproblem and its coordinate-descent solver.

Each worker owns a column block and, per round, approximately minimizes

    const + w^T (A d) + (sigma'/(2 tau)) ||A d||^2 + sum_{i in block} l(alpha_i + d_i)

over block-supported updates d, where w is the gradient of the data-fit
term at the round's shared prediction vector and `const` is that
vector's share of the data-fit value. Single-coordinate restrictions
have closed-form minimizers, so the solver is plain randomized
coordinate descent with an epoch budget; more epochs buy a better
approximation at the cost of per-round work.

Both regularizers are l(a) = l1 |a| + l2 a^2 / 2 on [-B, B] (L1 is
(lam, 0, B), the elastic net (lam (1 - eta), lam eta, inf)), so every
step is one scalar shrinkage clipped to [-B, B], a no-op for B = inf.

The coordinate pass runs in a C kernel (_cd.c), compiled once per
process with the C compiler on PATH and loaded with ctypes; without a
working compiler the Python loop runs, which is also the kernel's
reference, and the two give bit-identical results. The same library
carries dataio's libsvm tokenizer.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np

from .objectives import ell_value

__all__ = [
    "BlockColumns", "SubproblemView", "LocalResult",
    "subproblem_value", "coordinate_update", "solve_local", "measure_theta",
]


@dataclass(frozen=True, eq=False)
class BlockColumns:
    """Constants of one column block, built once per solve.

    `pool` holds the local positions of the block's positive-norm
    columns, the only ones coordinate descent updates; `ids` holds their
    matrix column ids (int64, for indexing `indptr`) and `sq` their
    squared norms.
    """

    pool: np.ndarray
    ids: np.ndarray
    sq: np.ndarray

    @classmethod
    def of(cls, m, block):
        sq = m.col_sq_norms[block]
        pool = np.flatnonzero(sq > 0.0)
        # ids index indptr directly, so numpy's negative wrap is applied here
        ids = np.asarray(block, dtype=np.int64)[pool] % m.n_cols
        return cls(pool, ids, sq[pool])


@dataclass
class SubproblemView:
    """Read-only slice of shared state a worker needs for one round.

    `alpha_block` holds the current coefficients of the owned columns,
    `w` the data-fit gradient at the shared prediction vector, `xw` the
    owned columns' inner products with it, (A^T w)[block], `columns` the
    block's per-solve constants, and `f_share` the worker's share of the
    data-fit value (so local objective values are comparable across
    workers). The driver computes all of them once per round; the view
    only holds them.
    """

    matrix: object
    block: np.ndarray
    w: np.ndarray
    alpha_block: np.ndarray
    sigma_prime: float
    tau: float
    reg: object
    xw: np.ndarray
    columns: BlockColumns
    f_share: float = 0.0

    def __post_init__(self):
        if not self.sigma_prime > 0:
            raise ValueError("sigma_prime must be positive")
        if not self.tau > 0:
            raise ValueError("tau must be positive")


@dataclass
class LocalResult:
    """Outcome of one local solve.

    `changed` holds the ascending local positions (int64) of the
    coordinates the solve moved and `delta_alpha` their coefficient
    changes (float64); under L1 few coordinates move, and
    `len(delta_alpha)` counts them. delta_v is the running product
    A * delta, maintained incrementally and equal to the fresh product
    up to accumulation rounding. Zero-norm columns are never moved.
    """

    changed: np.ndarray
    delta_alpha: np.ndarray
    delta_v: np.ndarray
    updates_done: int
    clamp_hits: int = 0


def subproblem_value(view, delta, z):
    """Evaluate the local objective at a block update.

    `delta` is a dense float64 update with one entry per block column,
    and `z` the caller-maintained product A * delta.
    """
    quad = 0.5 * (view.sigma_prime / view.tau) * float(np.dot(z, z))
    return (view.f_share + float(np.dot(view.w, z)) + quad
            + float(np.sum(ell_value(view.reg, view.alpha_block + delta))))


def _shrink(c, g, q, l1, l2, bound):
    """Minimizer of q (a - c)^2 / 2 + g (a - c) + l1 |a| + l2 a^2 / 2 on
    [-bound, bound], and whether the clip engaged (for the default L1 box
    and monotone descent from zero it never does)."""
    num = q * c - g
    if num > l1:
        new = (num - l1) / (q + l2)
    elif num < -l1:
        new = (num + l1) / (q + l2)
    else:
        return 0.0, False
    if new > bound:
        return bound, True
    if new < -bound:
        return -bound, True
    return new, False


def coordinate_update(reg, current_total, g_lin, q):
    """Exact minimizer of the local objective along one coordinate.

    `current_total` is the coordinate's current value alpha_i + d_i,
    `g_lin` the local objective's smooth-part derivative there, and
    q > 0 the smooth-part curvature (sigma'/tau times the squared
    column norm). The smooth part is exactly quadratic along a
    coordinate, so the shrinkage step of the penalty form
    l1 |a| + l2 a^2 / 2, clipped to [-B, B], is the exact minimizer.
    """
    if not q > 0:
        raise ValueError("curvature q must be positive")
    return _shrink(current_total, g_lin, q, *reg.penalty)[0]


_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _build_kernel():
    """Compile _cd.c with the C compiler on PATH into a private temporary
    directory, load it and remove the directory; the library, its functions
    typed, or None when any step fails. A `CDLL` call releases the GIL:
    `dataio._tokenize_c`'s threads rely on it to run at once."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    try:
        with tempfile.TemporaryDirectory(prefix="shardcd-",
                                         ignore_cleanup_errors=True) as tmp:
            so = os.path.join(tmp, "_cd.so")
            subprocess.run([cc, *_CFLAGS, "-o", so,
                            os.path.join(os.path.dirname(__file__), "_cd.c")],
                           stdin=subprocess.DEVNULL, capture_output=True,
                           check=True, timeout=120)
            lib = ctypes.CDLL(so)
            cd_pass, count = lib.cd_pass, lib.count_libsvm
            parse = lib.parse_libsvm
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    cd_pass.restype = count.restype = parse.restype = ctypes.c_int64
    cd_pass.argtypes = ([ctypes.c_int64] + [ctypes.c_void_p] * 9
                        + [ctypes.c_double] * 4)
    count.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    parse.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 3
                      + [ctypes.c_void_p] * 4)
    return lib


_UNBUILT = object()
_kernel = _UNBUILT  # _cd.c's library once built, or None for the Python loops


def kernel_name():
    """Which coordinate pass and libsvm tokenizer this process runs, "c"
    or "python"; the C library is built on the first call."""
    global _kernel
    if _kernel is _UNBUILT:
        _kernel = _build_kernel()
    return "python" if _kernel is None else "c"


def _c_array(a, dtype, size):
    """Whether `a` is a one-dimensional C-contiguous `dtype` array of
    `size` entries."""
    return (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
            and a.flags.c_contiguous and len(a) == size)


def _within(a, n):
    """Whether every entry of the integer array `a` lies in [0, n)."""
    return not len(a) or (0 <= a.min() and a.max() < n)


def _coordinate_pass(view, order, totals, z):
    """Exact single-coordinate steps on the pool positions in `order`.

    `order` is a C-contiguous int64 array of pool positions; `totals`
    (C-contiguous float64, one entry per pool column) holds the
    coordinates' current values alpha_i + d_i. It and the running product
    z = A d (C-contiguous float64, one entry per matrix row) are updated
    in place; anything else is refused with ValueError. Runs the C kernel
    when it built, else the Python loop below, its reference: the same
    steps in the operation order _cd.c's header states, bit for bit (rows
    within a column are distinct, so the gathered z[r] is reused for the
    write). Returns the number of steps the support bound clipped.
    """
    cols, m = view.columns, view.matrix
    sp_tau = view.sigma_prime / view.tau
    xw = np.asarray(view.xw, dtype=np.float64)[cols.pool]
    qs = sp_tau * cols.sq
    l1, l2, bound = view.reg.penalty
    ids = cols.ids
    # the kernel indexes unchecked: refuse what could read or write out of bounds
    if not (_c_array(ids, np.int64, len(qs)) and len(xw) == len(qs)
            and _within(ids, m.n_cols)):
        raise ValueError("block columns do not match the matrix")
    if not (_c_array(order, np.int64, len(order)) and _within(order, len(ids))):
        raise ValueError("order is not a C-contiguous int64 array of pool positions")
    if not _c_array(totals, np.float64, len(ids)):
        raise ValueError("totals is not a C-contiguous float64 array "
                         "with one entry per pool column")
    if not _c_array(z, np.float64, m.n_rows):
        raise ValueError("z is not a C-contiguous float64 array "
                         "with one entry per matrix row")
    if kernel_name() == "c":
        return _kernel.cd_pass(
            len(order), order.ctypes.data, ids.ctypes.data,
            m.indptr.ctypes.data, m.rows.ctypes.data, m.vals.ctypes.data,
            xw.ctypes.data, qs.ctypes.data, totals.ctypes.data, z.ctypes.data,
            sp_tau, l1, l2, bound)
    spans = list(zip(m.indptr[ids].tolist(), m.indptr[ids + 1].tolist()))
    rows, vals, acc = m.rows, m.vals, np.add.accumulate
    xw, qs, tot = xw.tolist(), qs.tolist(), totals.tolist()
    clamp_hits = 0
    for t in order.tolist():
        lo, hi = spans[t]
        r, v = rows[lo:hi], vals[lo:hi]
        c = tot[t]
        zr = z[r]
        # cd_pass's sum, left to right from +0.0 (0.0 + turns -0.0 into +0.0)
        dot = 0.0 + float(acc(v * zr)[-1])
        new, clamped = _shrink(c, xw[t] + sp_tau * dot, qs[t], l1, l2, bound)
        clamp_hits += clamped
        dlt = new - c
        if dlt != 0.0:
            tot[t] = new
            z[r] = zr + dlt * v
    totals[:] = tot
    return clamp_hits


def solve_local(view, h, seed):
    """Run h epochs of randomized coordinate descent on the subproblem.

    Performs h * block_size single-coordinate updates on uniformly
    sampled (with replacement) columns of positive norm, the pool of
    `view.columns`; a block with none makes no update. z = A * delta is
    maintained by sparse in-place updates. Deterministic given (view, h,
    seed); the local objective never increases across updates.
    """
    if h < 1:
        raise ValueError("local epoch count h must be >= 1")
    pool = view.columns.pool
    z = np.zeros(view.matrix.n_rows)
    if not len(pool):
        return LocalResult(np.zeros(0, np.int64), np.zeros(0), z, 0)

    n_updates = h * len(view.block)
    draws = np.random.default_rng(seed).integers(0, len(pool), size=n_updates)
    start = view.alpha_block[pool]
    totals = start.astype(np.float64)
    clamp_hits = _coordinate_pass(view, draws, totals, z)
    moved = np.flatnonzero(totals != start)
    return LocalResult(pool[moved], totals[moved] - start[moved], z,
                       n_updates, clamp_hits)


def _cd_minimize(view, max_sweeps):
    """Deterministic cyclic coordinate descent on the subproblem.

    Sweeps until the per-sweep objective improvement drops below 1e-14
    or the sweep budget runs out. Returns the subproblem value reached;
    used as the reference when grading a budgeted local solve.
    """
    pool = view.columns.pool
    z = np.zeros(view.matrix.n_rows)
    start = view.alpha_block[pool]
    totals = start.astype(np.float64)
    order = np.arange(len(pool), dtype=np.int64)
    delta = np.zeros(len(view.block))
    value = subproblem_value(view, delta, z)
    for _ in range(max_sweeps):
        _coordinate_pass(view, order, totals, z)
        delta[pool] = totals - start
        before, value = value, subproblem_value(view, delta, z)
        if before - value < 1e-14:
            break
    return value


def measure_theta(view, result):
    """Grade a local solve against a near-exact reference.

    Returns (G(result) - G(ref)) / (G(0) - G(ref)) clamped to [0, 1]:
    0 means the budgeted solve matched the reference, 1 means it made
    no progress. `result` is solve_local's result on `view` (run_round
    returns one per worker); the reference is cyclic coordinate descent
    capped at 400 sweeps. Returns 0.0 when the zero update is already
    optimal (denominator below 1e-14). Single-run diagnostic, not a
    certified bound.
    """
    delta = np.zeros(len(view.block))
    g_zero = subproblem_value(view, delta, np.zeros(view.matrix.n_rows))
    delta[result.changed] = result.delta_alpha
    g_res = subproblem_value(view, delta, result.delta_v)
    g_ref = _cd_minimize(view, max_sweeps=400)
    denom = g_zero - g_ref
    if denom < 1e-14:
        return 0.0
    return float(min(max((g_res - g_ref) / denom, 0.0), 1.0))
