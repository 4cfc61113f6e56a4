"""Dataset ingestion, synthetic instances, and trace serialization."""

from __future__ import annotations

import ctypes
import json
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import local
from .data import ColMatrix, _check_integers

__all__ = [
    "DataFormatError", "SyntheticSpec",
    "read_libsvm", "write_libsvm", "gen_synthetic", "write_trace",
    "TRACE_FIELDS",
]

TRACE_FIELDS = ("round", "elapsed_ms", "primal", "dual", "gap", "nnz",
                "local_updates", "theta")


_INDEX_MAX = 2**63 - 1  # column indices are stored as int64
_CHUNK_MIN = 1 << 20  # bytes; the C tokenizer gives each thread at least this
_WRITE_BUF = 1 << 20  # bytes; the C formatter's buffer holds at least this


class DataFormatError(ValueError):
    """Malformed input data file."""


def read_libsvm(path):
    """Read a sparse dataset in the plain-text `label idx:val ...` format.

    Feature indices are 1-based and must be strictly ascending within a
    line. Examples become the ROWS of the returned matrix and features
    the COLUMNS, which is the layout the column-partitioned solver
    expects: one coefficient per feature, one shared-vector entry per
    example.

    Returns (matrix, labels); labels has one entry per example. An empty
    file and a non-finite label or value are errors.

    With the native library of `local` built, `_tokenize_c` reads the
    file's bytes under a strict ASCII grammar: blanks are spaces and tabs,
    lines end in LF or CR LF, indices are int64s as `std::from_chars`
    reads them, and labels and values are what it reads from a whole token
    that starts with a digit or `.` after one skipped `+` and one `-`,
    exactly `[+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?`, within a double's range.
    It declines all else (a `+` or `_` in an index, an index below 1,
    `nan`, `inf`, a number that overflows or underflows to 0, hexadecimal,
    other whitespace, a lone CR, non-ASCII bytes, any malformed line).
    Then the Python loop `_tokenize` rereads the file: both give the same
    arrays and error, naming the first bad token in file order, at any
    thread count.
    """
    parsed = None
    if local.kernel_name() == "c":
        with open(path, "rb") as fh:
            parsed = _tokenize_c(fh.read())
    if parsed is None:
        parsed = _tokenize(path)
    labels, counts, cols, vals = parsed
    if not len(counts):
        raise DataFormatError(f"{path}: empty dataset")
    # a valid CSR already (rows in order, columns strictly ascending in each)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    shape = (len(counts), int(cols.max(initial=-1)) + 1)
    csc = scipy.sparse.csr_array((vals, cols, indptr), shape=shape).tocsc()
    return ColMatrix(*shape, csc.indptr, csc.indices, csc.data), labels


def _threads(size):
    """Threads for `size` bytes of work: at most one per usable CPU and
    per _CHUNK_MIN bytes, and at least one."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, size // _CHUNK_MIN))


def _cuts(buf):
    """Chunk bounds in `buf`: at most `_threads(len(buf))` chunks, each
    but the last ending just after a LF."""
    n = _threads(len(buf))
    cuts = [0]
    for i in range(1, n):
        lf = buf.find(b"\n", max(cuts[-1], i * len(buf) // n))
        if 0 <= lf < len(buf) - 1:
            cuts.append(lf + 1)
    return cuts + [len(buf)]


def _tokenize_c(buf):
    """`_tokenize`'s arrays from the C tokenizer, or None when it declines.

    Each `_cuts` chunk, in a thread of its own if there are more, counts
    its LFs and colons; this thread allocates arrays from those bounds, and
    each chunk parses into its slices. Threads get pointers into `buf` and
    allocate nothing. An entry takes one colon, so a chunk with fewer
    entries declines; unused example slots are dropped.
    """
    at, cuts = ctypes.cast(buf, ctypes.c_void_p).value, _cuts(buf)
    chunks = [(at + lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])]
    colons = np.zeros(len(chunks), dtype=np.int64)
    with ThreadPoolExecutor(len(chunks)) as pool:  # starts threads on demand
        run = pool.map if len(chunks) > 1 else map
        slots = np.array(list(run(lambda i: local._kernel.count_libsvm(
            *chunks[i], colons[i:].ctypes.data), range(len(chunks)))))
        slots[-1] += 1  # the last line may end without a LF
        row_at, entry_at = np.cumsum(slots) - slots, np.cumsum(colons) - colons
        labels, counts = np.empty(slots.sum()), np.empty(slots.sum(), np.int64)
        cols, vals = np.empty(colons.sum(), np.int64), np.empty(colons.sum())

        def parse(i):
            r, e = row_at[i], entry_at[i]
            return local._kernel.parse_libsvm(
                *chunks[i], slots[i], colons[i], labels[r:].ctypes.data,
                counts[r:].ctypes.data, cols[e:].ctypes.data,
                vals[e:].ctypes.data)

        rows = list(run(parse, range(len(chunks))))
    if min(rows) < 0:
        return None
    keep = np.concatenate([np.arange(r, r + n) for r, n in zip(row_at, rows)])
    return labels[keep], counts[keep], cols, vals


def _tokenize(path):
    """The reference tokenizer: labels, entries per example, 0-based
    columns and values, or DataFormatError naming the first bad token,
    non-finite numbers included."""
    labels, counts, ex_cols, ex_vals = [], [], [], []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                label = float(parts[0])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad label {parts[0]!r}")
            labels.append(_check_finite(label, path, lineno, parts[0]))
            prev = 0
            for tok in parts[1:]:
                idx, sep, val = tok.partition(":")
                if not sep:
                    raise DataFormatError(f"{path}:{lineno}: bad token {tok!r}")
                try:
                    idx = int(idx)
                    val = float(val)
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: bad token {tok!r}")
                if idx > _INDEX_MAX:
                    raise DataFormatError(f"{path}:{lineno}: bad token {tok!r}")
                if idx <= 0:
                    raise DataFormatError(f"{path}:{lineno}: index {idx} not 1-based")
                if idx <= prev:
                    raise DataFormatError(
                        f"{path}:{lineno}: indices not strictly ascending")
                prev = idx
                ex_cols.append(idx - 1)
                ex_vals.append(_check_finite(val, path, lineno, tok))
            counts.append(len(parts) - 1)
    return (np.asarray(labels, dtype=np.float64), counts,
            np.asarray(ex_cols, dtype=np.int64),
            np.asarray(ex_vals, dtype=np.float64))


def _check_finite(x, path, lineno, tok):
    if not math.isfinite(x):
        raise DataFormatError(f"{path}:{lineno}: non-finite number {tok!r}")
    return x


def write_libsvm(path, m, labels):
    """Inverse of :func:`read_libsvm` but for trailing empty columns, which
    the format cannot show; labels and values are written as `repr` writes
    them, so they read back exactly.

    scipy turns the columns row-major (features ascending within each
    example). With the native library of `local` built, the rows are cut
    into blocks whose worst case under `format_libsvm`, 25 + 45 k bytes
    for a line of k entries, fits a buffer of _WRITE_BUF bytes or of the
    longest line's worst case. `format_libsvm` formats each block into a
    buffer of its own on one of `_threads(worst case of all lines)`
    threads, and this thread writes the blocks out in row order. With T
    threads this thread allocates T + 1 buffers and hands block i + T + 1
    the buffer of block i once that is written; with one it formats every
    block itself into one buffer and starts no thread. An error waits for
    the blocks in flight. Otherwise the Python loop, the reference that
    writes the same bytes, writes one example at a time. A matrix without
    rows, labels not finite (both give files read_libsvm refuses) or not
    one-dimensional and real (boolean, integer or float) raise ValueError
    before `path` is opened.
    """
    if m.n_rows == 0:
        raise ValueError("matrix must have at least one row")
    if np.ndim(labels) != 1 or np.asarray(labels).dtype.kind not in "biuf":
        raise ValueError("labels must be one-dimensional and real")
    if len(labels) != m.n_rows:
        raise ValueError("labels must have one entry per matrix row")
    if not np.isfinite(labels).all():
        raise ValueError("labels must be finite")
    by_row = m._csc.tocsr()
    if local.kernel_name() == "c":
        indptr, cols, vals, labels = (np.ascontiguousarray(a, t) for a, t in (
            (by_row.indptr, np.int64), (by_row.indices, np.int64),
            (by_row.data, np.float64), (labels, np.float64)))
        worst = 25 + 45 * np.diff(indptr)  # format_libsvm's bound per line
        cap, ends = max(_WRITE_BUF, int(worst.max())), np.cumsum(worst)
        cuts = [0]
        while cuts[-1] < m.n_rows:
            done = ends[cuts[-1] - 1] if cuts[-1] else 0
            cuts.append(int(np.searchsorted(ends, done + cap, "right")))
        threads = _threads(int(ends[-1]))
        bufs = [np.empty(cap, np.uint8) for _ in range(threads + (threads > 1))]
        ptrs = [a.ctypes.data for a in (indptr, cols, vals, labels)]

        def fill(i):
            nxt, buf = ctypes.c_int64(), bufs[i % len(bufs)]
            n = local._kernel.format_libsvm(cuts[i], cuts[i + 1], *ptrs,
                                            buf.ctypes.data, cap,
                                            ctypes.byref(nxt))
            if nxt.value != cuts[i + 1]:
                raise RuntimeError(f"format_libsvm stopped at row {nxt.value}"
                                   f" of block [{cuts[i]}, {cuts[i + 1]})")
            return memoryview(buf)[:n]

        blocks = len(cuts) - 1
        with ThreadPoolExecutor(threads) as pool, open(path, "wb") as fh:
            run = pool.submit if threads > 1 else _now
            jobs = [run(fill, i) for i in range(min(len(bufs), blocks))]
            for i in range(blocks):
                fh.write(jobs[i].result())
                if i + len(bufs) < blocks:
                    jobs.append(run(fill, i + len(bufs)))
    else:
        bounds = by_row.indptr.tolist()
        features = by_row.indices + 1
        with open(path, "w", newline="\n") as fh:
            for e, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                parts = [repr(float(labels[e]))]
                parts += [f"{f}:{v!r}" for f, v in zip(
                    features[lo:hi].tolist(), by_row.data[lo:hi].tolist())]
                fh.write(" ".join(parts) + "\n")
    return m.n_rows


def _now(fn, *args):
    """fn(*args), run on this thread, as a finished Future."""
    done = Future()
    done.set_result(fn(*args))
    return done


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale random instance: sparse Gaussian data with a planted
    sparse coefficient vector."""

    n: int
    d: int
    density: float
    true_nnz: int
    noise_sd: float
    seed: int

    def __post_init__(self):
        _check_integers(n=self.n, d=self.d, true_nnz=self.true_nnz,
                        seed=self.seed)
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if not 0 <= self.true_nnz <= self.n:
            raise ValueError("true_nnz must lie in [0, n]")
        if not 0 <= self.noise_sd < np.inf:
            raise ValueError("noise_sd must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def gen_synthetic(sspec, classification=False):
    """Generate (matrix, labels, planted_coefficients), seeded.

    The matrix is d x n with Gaussian entries kept with probability
    `density` (each column keeps at least one entry so no variable is
    degenerate). Labels are A alpha_true + noise, passed through sign()
    for classification instances.
    """
    rng = np.random.default_rng(sspec.seed)
    rows, vals = [], []
    for _ in range(sspec.n):
        mask = rng.random(sspec.d) < sspec.density
        if not mask.any():
            mask[rng.integers(0, sspec.d)] = True
        rows.append(np.flatnonzero(mask))
        vals.append(rng.standard_normal(len(rows[-1])))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    m = ColMatrix(sspec.d, sspec.n, indptr, np.concatenate(rows),
                  np.concatenate(vals))

    truth = np.zeros(sspec.n)
    support = rng.choice(sspec.n, size=sspec.true_nnz, replace=False)
    signs = rng.choice([-1.0, 1.0], size=sspec.true_nnz)
    truth[support] = signs * rng.uniform(0.5, 2.0, size=sspec.true_nnz)

    signal = m.mat_vec(truth)
    noise = sspec.noise_sd * rng.standard_normal(sspec.d)
    if classification:
        labels = np.sign(signal + noise)
        labels[labels == 0.0] = 1.0
    else:
        labels = signal + noise
    return m, labels, truth


def _trace_values(tr):
    """One record's values in TRACE_FIELDS order; elapsed_ms is always 0.0
    and theta always None, reserved so the file format stays fixed."""
    return (tr.round, 0.0, float(tr.primal), float(tr.dual),
            float(tr.gap), tr.nnz, tr.local_updates, None)


def write_trace(traces, path, format="csv"):
    """Serialize per-round records with round-trip-exact numbers.

    CSV columns: round,elapsed_ms,primal,dual,gap,nnz,local_updates,theta
    (elapsed_ms always 0.0, theta always empty). JSON is an array of
    objects with the same keys (theta always null).
    """
    if format == "csv":
        with open(path, "w") as fh:
            fh.write(",".join(TRACE_FIELDS) + "\n")
            for tr in traces:
                fh.write(",".join("" if x is None else str(x)
                                  for x in _trace_values(tr)) + "\n")
    elif format == "json":
        records = [dict(zip(TRACE_FIELDS, _trace_values(tr))) for tr in traces]
        with open(path, "w") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"unknown trace format {format!r}")
