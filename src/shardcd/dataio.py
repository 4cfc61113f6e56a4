"""Dataset ingestion, synthetic instances, and trace serialization."""

from __future__ import annotations

import ctypes
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import local
from .data import ColMatrix
from .engine import _check_integers

__all__ = [
    "DataFormatError", "SyntheticSpec",
    "read_libsvm", "write_libsvm", "gen_synthetic", "write_trace",
    "TRACE_FIELDS",
]

TRACE_FIELDS = ("round", "elapsed_ms", "primal", "dual", "gap", "nnz",
                "local_updates", "theta")


_INDEX_MAX = 2**63 - 1  # column indices are stored as int64
_CHUNK_MIN = 1 << 20  # bytes; the C tokenizer gives each thread at least this


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

    With the C library of `local` built, `_tokenize_c` reads the file's
    bytes under a strict ASCII grammar: blanks are spaces and tabs, lines
    end in LF or CR LF, indices are plain decimal digits within int64, and
    labels and values are what `strtod` reads from a whole token of digits,
    signs, `.`, `e` and `E`, which is exactly
    `[+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?`. It declines everything else (a
    sign or `_` in an index, `nan`, hexadecimal, other whitespace, a lone
    CR, non-ASCII bytes, any malformed line). On declined input, and on a
    label or value that reads as infinite, the Python loop `_tokenize`
    rereads the file, so both give the same arrays and the same error,
    which names the first bad token in file order, for any thread count.
    """
    parsed = None
    if local.kernel_name() == "c":
        with open(path, "rb") as fh:
            parsed = _tokenize_c(fh.read())
    if parsed is None or not (np.isfinite(parsed[0]).all()
                              and np.isfinite(parsed[3]).all()):
        parsed = _tokenize(path)
    labels, counts, cols, vals = parsed
    if not len(counts):
        raise DataFormatError(f"{path}: empty dataset")
    # a valid CSR already (rows in order, columns strictly ascending in each)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    shape = (len(counts), int(cols.max(initial=-1)) + 1)
    csc = scipy.sparse.csr_array((vals, cols, indptr), shape=shape).tocsc()
    return ColMatrix(*shape, csc.indptr, csc.indices, csc.data), labels


def _cuts(buf):
    """Chunk bounds in `buf`: at most one chunk per usable CPU and per
    _CHUNK_MIN bytes, each but the last ending just after a LF."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n = max(1, min(cpus, len(buf) // _CHUNK_MIN))
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
    each chunk parses into its slices. Threads get pointers into `buf`
    (NUL-terminated by Python) and allocate nothing. An entry takes one
    colon, so a chunk with fewer declines; unused example slots are dropped.
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
    if min(rows) < 0 or any(counts[r:r + n].sum() != c for r, n, c
                            in zip(row_at, rows, colons)):
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
    the format cannot show; values are written round-trip exact.

    scipy turns the columns row-major (features ascending within each
    example), and examples are written one at a time, so only one line's
    numbers are held as Python objects. Non-finite labels, which
    read_libsvm refuses, raise ValueError before `path` is opened.
    """
    if len(labels) != m.n_rows:
        raise ValueError("labels must have one entry per matrix row")
    if not np.isfinite(labels).all():
        raise ValueError("labels must be finite")
    by_row = m._csc.tocsr()
    bounds = by_row.indptr.tolist()
    features = by_row.indices + 1
    with open(path, "w") as fh:
        for e, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            parts = [repr(float(labels[e]))]
            parts += [f"{f}:{v!r}" for f, v in zip(features[lo:hi].tolist(),
                                                   by_row.data[lo:hi].tolist())]
            fh.write(" ".join(parts) + "\n")
    return m.n_rows


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
