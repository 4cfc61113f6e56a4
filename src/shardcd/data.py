"""Column-major sparse matrix storage and column partitioning.

The solver only ever touches the data one column at a time (single
coordinate updates) or as whole-matrix products when computing
certificates, so the matrix is stored compressed by column. The
whole-matrix products run in scipy's sparse kernels over the same
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

__all__ = ["ColMatrix", "Partition", "partition_columns", "sq_spectral_norm"]


class ColMatrix:
    """Sparse d x n matrix stored as compressed columns.

    Columns are the optimization variables, rows index the shared
    prediction vector. Row indices within a column are strictly
    ascending; all stored values are finite. Squared column norms are
    cached at construction and refreshed by :meth:`normalize_columns`.
    The products run on a scipy CSC array (and its CSR transpose) that
    share the three buffers, so in-place rescaling is seen by them.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix shape (d rows, n columns).
    indptr : array of int, shape (n_cols + 1,)
        Column pointer into `rows` / `vals`.
    rows, vals : arrays, shape (nnz,)
        Row indices and values of the stored entries.
    """

    def __init__(self, n_rows, n_cols, indptr, rows, vals):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.rows = np.ascontiguousarray(rows, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        self.normalized = False
        self._col_ids = self._validate()
        self._csc = scipy.sparse.csc_array(
            (self.vals, self.rows, self.indptr),
            shape=(self.n_rows, self.n_cols), copy=False)
        self._csr_t = self._csc.T
        self._refresh_norms()

    def _validate(self):
        """Check the invariants; returns the column id of every stored entry."""
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
        col_ids = np.repeat(np.arange(self.n_cols, dtype=np.int64),
                            np.diff(self.indptr))
        bad = np.flatnonzero((np.diff(self.rows) <= 0)
                             & (col_ids[1:] == col_ids[:-1]))
        if len(bad):
            r, c = self.rows[bad[0]], col_ids[bad[0]]
            if r == self.rows[bad[0] + 1]:
                raise ValueError(f"duplicate entry at (row {r}, column {c})")
            raise ValueError(f"column {c}: row indices not strictly ascending")
        return col_ids

    def _refresh_norms(self):
        sq = self.vals * self.vals
        self._col_sq_norms = np.bincount(
            self._col_ids, weights=sq, minlength=self.n_cols
        ) if len(sq) else np.zeros(self.n_cols)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_columns(cls, n_rows, columns):
        """Build from a list of per-column (row_index, value) pair lists."""
        indptr = [0]
        rows, vals = [], []
        for col in columns:
            col = sorted(col)
            rows.extend(r for r, _ in col)
            vals.extend(v for _, v in col)
            indptr.append(len(rows))
        return cls(n_rows, len(columns), np.array(indptr), np.array(rows, dtype=np.int64),
                   np.array(vals, dtype=np.float64))

    @classmethod
    def from_coo(cls, n_rows, n_cols, coo_rows, coo_cols, coo_vals):
        """Build from unsorted triplets. Duplicate (row, col) pairs are invalid."""
        coo_rows = np.asarray(coo_rows, dtype=np.int64)
        coo_cols = np.asarray(coo_cols, dtype=np.int64)
        coo_vals = np.asarray(coo_vals, dtype=np.float64)
        bad = np.flatnonzero((coo_cols < 0) | (coo_cols >= n_cols))
        if len(bad):
            raise ValueError(f"column index {coo_cols[bad[0]]} out of range "
                             f"[0, {n_cols})")
        order = np.lexsort((coo_rows, coo_cols))
        rows = coo_rows[order]
        vals = coo_vals[order]
        counts = np.bincount(coo_cols, minlength=n_cols)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(n_rows, n_cols, indptr, rows, vals)

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
        norms so callers can undo the scaling on coefficients.
        """
        norms = np.sqrt(self._col_sq_norms.copy())
        scale = np.ones(self.n_cols)
        nz = norms > 0
        scale[nz] = 1.0 / norms[nz]
        if self.nnz:
            self.vals *= scale[self._col_ids]
        self._refresh_norms()
        self.normalized = True
        return norms


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint assignment of column indices to `k_count` workers.

    blocks[k] is the sorted index list owned by worker k; owner maps a
    column index back to its worker. Blocks cover {0, ..., n-1} exactly.
    """

    k_count: int
    blocks: tuple
    owner: np.ndarray = field(repr=False)

    @property
    def n_cols(self):
        return len(self.owner)


def partition_columns(n, k):
    """Split columns {0..n-1} into k contiguous blocks whose sizes differ
    by at most one, the larger first. Any other disjoint cover can be
    built as a Partition directly.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"cannot split {n} columns over {k} workers")
    blocks = np.array_split(np.arange(n, dtype=np.int64), k)
    owner = np.empty(n, dtype=np.int64)
    for kk, b in enumerate(blocks):
        owner[b] = kk
    return Partition(k_count=k, blocks=tuple(blocks), owner=owner)


def sq_spectral_norm(m, iters=50, seed=0):
    """Power-iteration estimate of ||A||^2.

    Iterates u <- normalize(A^T A u) from a seeded Gaussian start and
    returns the final Rayleigh quotient ||A u||^2 / ||u||^2. Returns 0.0
    for a matrix without columns or with all-zero ones.
    """
    a = m._csc
    u = np.random.default_rng(seed).standard_normal(a.shape[1])
    est = 0.0
    for _ in range(max(int(iters), 1)):
        y = a @ u
        z = a.T @ y
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        est = float(np.dot(y, y) / np.dot(u, u))
        u = z / nz
    y = a @ u
    return max(est, float(np.dot(y, y) / np.dot(u, u)))
