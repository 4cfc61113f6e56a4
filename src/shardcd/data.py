"""Column-major sparse matrix storage and column partitioning.

The solver only ever touches the data one column at a time (single
coordinate updates) or as whole-matrix products when computing
certificates, so the matrix is stored compressed by column. scipy
carries the storage layer: its sparse kernels run the whole-matrix
products over the same three buffers, and its format conversions build
them from triplets and turn them row-major for export.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse

__all__ = ["ColMatrix", "Partition", "partition_columns", "sq_spectral_norm"]


def _check_integers(low=None, /, **counts):
    """Refuse a count that is not an integer, naming its field: a float
    count fails deep in numpy, or (a seed) is silently truncated. Given
    `low`, refuse a count below it too."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ValueError(f"{name} must be >= {low}")


def _indices(name, values):
    """`values` as an int64 array, refusing an entry that is not an
    integer. An integer array passes on its dtype alone; another must hold
    integral values (from_columns hands its row ids over as floats)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        f = a.astype(np.float64)
        bad = np.flatnonzero(~(np.isfinite(f) & (np.trunc(f) == f)))
        if len(bad):
            raise ValueError(f"{name} must hold integers, got "
                             f"{f.flat[bad[0]]} at position {bad[0]}")
    return np.ascontiguousarray(a, dtype=np.int64)


class ColMatrix:
    """Sparse d x n matrix stored as compressed columns.

    Columns are the optimization variables, rows index the shared
    prediction vector. The matrix holds three buffers, `indptr`, `rows`
    and `vals`, and scipy's two views of them: a CSC array and its CSR
    transpose, which run the products and see in-place rescaling. Row
    indices within a column are strictly ascending; all stored values
    are finite. Squared column norms are cached at construction and
    refreshed by :meth:`normalize_columns`. A squared norm beyond the
    largest double is cached as inf, its correctly rounded value,
    without a warning.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix shape (d rows, n columns).
    indptr : array of int, shape (n_cols + 1,)
        Column pointer into `rows` / `vals`.
    rows, vals : arrays, shape (nnz,)
        Row indices and values of the stored entries. An index array of
        floats is taken only if every entry is an integer.
    """

    def __init__(self, n_rows, n_cols, indptr, rows, vals):
        _check_integers(n_rows=n_rows, n_cols=n_cols)
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = _indices("indptr", indptr)
        self.rows = _indices("rows", rows)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        self.normalized = False
        self._csc = self._validate()
        self._csr_t = self._csc.T
        self._refresh_norms()

    def _validate(self):
        """Check the invariants; returns the CSC view of the buffers."""
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix shape must be nonnegative")
        if self.indptr.shape != (self.n_cols + 1,):
            raise ValueError("indptr has wrong length")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.rows):
            raise ValueError("indptr endpoints inconsistent with nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if len(self.rows) != len(self.vals):
            raise ValueError("rows and vals length mismatch")
        if len(self.rows) and (self.rows.min() < 0 or self.rows.max() >= self.n_rows):
            raise ValueError("row index out of range")
        if not np.all(np.isfinite(self.vals)):
            raise ValueError("matrix values must be finite")
        csc = scipy.sparse.csc_array((self.vals, self.rows, self.indptr),
                                     shape=(self.n_rows, self.n_cols), copy=False)
        if not csc.has_canonical_format:  # error path only: find the column
            col_ids = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
            i = np.flatnonzero((np.diff(self.rows) <= 0)
                               & (col_ids[1:] == col_ids[:-1]))[0]
            r, c = self.rows[i], col_ids[i]
            if r == self.rows[i + 1]:
                raise ValueError(f"duplicate entry at (row {r}, column {c})")
            raise ValueError(f"column {c}: row indices not strictly ascending")
        return csc

    def _refresh_norms(self):
        # a CSR of A^T with squared values sums each column in storage order
        with np.errstate(over="ignore"):
            sq = scipy.sparse.csr_array((self.vals * self.vals, self.rows, self.indptr),
                                        shape=(self.n_cols, self.n_rows), copy=False)
            self._col_sq_norms = sq @ np.ones(self.n_rows)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_columns(cls, n_rows, columns):
        """Build from a list of per-column (row_index, value) pair lists."""
        entries = [(r, c, v) for c, col in enumerate(columns) for r, v in col]
        return cls.from_coo(n_rows, len(columns), *np.reshape(entries, (-1, 3)).T)

    @classmethod
    def from_coo(cls, n_rows, n_cols, coo_rows, coo_cols, coo_vals):
        """Build from unsorted triplets. Duplicate (row, col) pairs are invalid.

        scipy sorts the triplets by (column, row) and sums duplicates, so
        a shrunken count names the first duplicate in that order, after
        any non-finite value (which a sum keeps non-finite).
        """
        _check_integers(n_rows=n_rows, n_cols=n_cols)
        coo_rows = _indices("coo_rows", coo_rows)
        coo_cols = _indices("coo_cols", coo_cols)
        coo_vals = np.asarray(coo_vals, dtype=np.float64)
        bad = np.flatnonzero((coo_cols < 0) | (coo_cols >= n_cols))
        if len(bad):
            raise ValueError(f"column index {coo_cols[bad[0]]} out of range "
                             f"[0, {n_cols})")
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix shape must be nonnegative")
        if len(coo_rows) and (coo_rows.min() < 0 or coo_rows.max() >= n_rows):
            raise ValueError("row index out of range")
        coo = scipy.sparse.coo_array((coo_vals, (coo_rows, coo_cols)),
                                     shape=(n_rows, n_cols))
        csc = coo.tocsc()
        if csc.nnz < coo.nnz and np.isfinite(coo_vals).all():  # error path only
            coo.data = np.ones(coo.nnz)
            counts = coo.tocsc().tocoo()  # in (column, row) order
            i = np.flatnonzero(counts.data > 1)[0]
            raise ValueError(f"duplicate entry at (row {counts.row[i]}, "
                             f"column {counts.col[i]})")
        return cls(n_rows, n_cols, csc.indptr, csc.indices, csc.data)

    # ------------------------------------------------------------------
    # accessors

    @property
    def nnz(self):
        return len(self.vals)

    @property
    def col_sq_norms(self):
        """Cached squared Euclidean norms of the columns."""
        return self._col_sq_norms

    def column(self, i):
        """Views of the row indices and values of column `i`."""
        if not 0 <= i < self.n_cols:
            raise IndexError(f"column index {i} out of range [0, {self.n_cols})")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.rows[lo:hi], self.vals[lo:hi]

    def toarray(self):
        return self._csc.toarray()

    # ------------------------------------------------------------------
    # products

    def mat_vec(self, a):
        """Return the matrix-vector product A a (length d)."""
        a = np.asarray(a, dtype=np.float64)
        if len(a) != self.n_cols:
            raise ValueError(f"vector length {len(a)} != n_cols {self.n_cols}")
        return self._csc @ a

    def mat_tvec(self, u):
        """Return A^T u, i.e. all column inner products at once (length n)."""
        u = np.asarray(u, dtype=np.float64)
        if len(u) != self.n_rows:
            raise ValueError(f"vector length {len(u)} != n_rows {self.n_rows}")
        return self._csr_t @ u

    def axpy_column(self, i, s, u):
        """In-place u += s * column_i, touching stored entries only."""
        r, v = self.column(i)
        if len(u) != self.n_rows:
            raise ValueError(f"vector length {len(u)} != n_rows {self.n_rows}")
        u[r] += s * v

    # ------------------------------------------------------------------

    def normalize_columns(self):
        """Rescale every nonzero column to unit norm, in place.

        Zero columns are left untouched. Returns the original column
        norms so callers can undo the scaling on coefficients. A column
        whose squared norm overflows takes its norm as s * ||x / s||, s
        its largest |x|; one whose norm itself exceeds the largest double
        raises ValueError before any value changes, since no returned
        norm could undo its scaling.
        """
        norms = np.sqrt(self._col_sq_norms)
        for i in np.flatnonzero(np.isinf(norms)):
            x = self.vals[self.indptr[i]:self.indptr[i + 1]]
            s = np.abs(x).max()
            with np.errstate(over="ignore"):
                norms[i] = s * np.sqrt(np.square(x / s).sum())
            if np.isinf(norms[i]):
                raise ValueError(f"column {i}: its norm exceeds the largest "
                                 f"double, so it cannot be scaled to unit norm")
        scale = 1.0 / np.where(norms > 0, norms, 1.0)
        self.vals *= np.repeat(scale, np.diff(self.indptr))
        self._refresh_norms()
        self.normalized = True
        return norms


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint assignment of column indices to workers.

    blocks[k] is the sorted integer index array owned by worker k. The
    blocks must cover {0, ..., n-1} exactly, n being their total size.
    """

    blocks: tuple

    def __post_init__(self):
        for k, dtype in enumerate(np.asarray(b).dtype for b in self.blocks):
            if dtype.kind not in "iu":
                raise ValueError(f"partition block {k} must hold integers, "
                                 f"got dtype {dtype}")
        ids = np.concatenate([np.zeros(0, np.int64), *self.blocks])
        seen = np.bincount(ids[(ids >= 0) & (ids < len(ids))], minlength=len(ids))
        bad = np.flatnonzero(seen != 1)
        if len(bad):
            what = "repeat" if seen[bad[0]] else "miss"
            raise ValueError(f"partition blocks {what} column {bad[0]}")

    @property
    def k_count(self):
        return len(self.blocks)

    @property
    def n_cols(self):
        return sum(len(b) for b in self.blocks)


def partition_columns(n, k):
    """Split columns {0..n-1} into k contiguous blocks whose sizes differ
    by at most one, the larger first. Any other disjoint cover can be
    built as a Partition directly.
    """
    _check_integers(n=n, k=k)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"cannot split {n} columns over {k} workers")
    return Partition(tuple(np.array_split(np.arange(n, dtype=np.int64), k)))


def sq_spectral_norm(m, iters=50, seed=0):
    """Power-iteration estimate of ||A||^2.

    Iterates u <- normalize(A^T A u) from a seeded Gaussian start and
    returns the final Rayleigh quotient ||A u||^2 / ||u||^2. Returns 0.0
    for a matrix without columns or with all-zero ones.
    """
    _check_integers(1, iters=iters)
    _check_integers(seed=seed)
    a = m._csc
    u = np.random.default_rng(seed).standard_normal(a.shape[1])
    est = 0.0
    for _ in range(iters):
        y = a @ u
        z = a.T @ y
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        est = float(np.dot(y, y) / np.dot(u, u))
        u = z / nz
    y = a @ u
    return max(est, float(np.dot(y, y) / np.dot(u, u)))
