"""Independent reference computations used to grade the implementation.

Everything here is deliberately naive (dense algebra, grid search,
golden-section scans, finite differences) and shares no code with the
paths it checks.
"""

import math

import numpy as np


def dense_from_columns(n_rows, columns):
    """Dense matrix from the same (row, val) pair lists ColMatrix accepts."""
    out = np.zeros((n_rows, len(columns)))
    for i, col in enumerate(columns):
        for r, v in col:
            out[r, i] = v
    return out


def golden_min(fn, lo, hi, iters=120):
    """Golden-section scan for the minimizer of a unimodal function.

    Pure value comparisons bottom out at ~sqrt(machine eps) around a
    smooth minimum, so the bracket midpoint gets one parabolic polish
    (a no-op at kink minima, where the curvature estimate blows up).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    h = 1e-5 * (1.0 + abs(x))
    f0, fp, fm = fn(x), fn(x + h), fn(x - h)
    curv = fp - 2.0 * f0 + fm
    if curv > 0.0:
        cand = x - h * (fp - fm) / (2.0 * curv)
        cand = min(max(cand, lo), hi)
        if fn(cand) <= f0 + 1e-12 * (1.0 + abs(f0)):
            x = cand
    return x


def numeric_sup(score, lo, hi, grid=4001, refine_iters=100):
    """sup of `score` over [lo, hi] by grid scan plus golden refinement."""
    xs = np.linspace(lo, hi, grid)
    vals = np.array([score(x) for x in xs])
    j = int(np.argmax(vals))
    a = xs[max(j - 1, 0)]
    b = xs[min(j + 1, grid - 1)]
    x_star = golden_min(lambda x: -score(x), a, b, iters=refine_iters)
    return max(float(vals[j]), float(score(x_star))), x_star


def numeric_conjugate(ell_scalar, x, lo, hi):
    """Numeric l*(x) = sup_a (x a - l(a)) over a bracket of the domain."""

    def score(a):
        v = ell_scalar(a)
        return -math.inf if math.isinf(v) else x * a - v

    val, _ = numeric_sup(score, lo, hi)
    return val


def finite_diff_grad(fn, v, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    g = np.zeros_like(v)
    for j in range(len(v)):
        e = np.zeros_like(v)
        e[j] = h
        g[j] = (fn(v + e) - fn(v - e)) / (2.0 * h)
    return g


def linear_fit_r2(x, y):
    """Least-squares line fit; returns (slope, intercept, r2, residuals)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2, y - yhat


def cyclic_cd_lasso_like(dense_a, b, reg, iters=20000, tol=1e-15):
    """Brute-force full-problem coordinate descent on the dense matrix.

    Independent of the package solver: dense algebra, cyclic order,
    run until the coefficient sweep stalls. Handles both built-in
    penalty kinds.
    """
    d, n = dense_a.shape
    alpha = np.zeros(n)
    resid = -b.astype(float).copy()  # A alpha - b at alpha = 0
    sq = np.sum(dense_a * dense_a, axis=0)
    lam = reg.lam
    for _ in range(iters):
        biggest = 0.0
        for i in range(n):
            if sq[i] == 0.0:
                continue
            g = float(dense_a[:, i] @ resid)
            c = alpha[i]
            if reg.kind == "l1":
                t = c - g / sq[i]
                thr = lam / sq[i]
                new = math.copysign(max(abs(t) - thr, 0.0), t)
                new = min(max(new, -reg.support_bound), reg.support_bound)
            else:
                num = sq[i] * c - g
                thr = lam * (1.0 - reg.eta)
                den = sq[i] + lam * reg.eta
                new = math.copysign(max(abs(num) - thr, 0.0), num) / den
            dlt = new - c
            if dlt != 0.0:
                alpha[i] = new
                resid += dlt * dense_a[:, i]
                biggest = max(biggest, abs(dlt))
        if biggest < tol:
            break
    return alpha


def local_solve_loop(view, w, h, seed):
    """Per-column reference for the local coordinate-descent solve.

    Recomputes every column's inner product with the data-fit gradient
    `w` the view was built from, one column at a time, and keeps the
    update as a dict, with the shrinkage steps written out here. Builds
    the active set from those products (nonzero coefficient, or
    |x_i^T w| not below 0.9 l1) and draws the same h permutations of it
    as the package solver. Returns (delta map, A delta, updates, clamp
    hits).
    """
    m = view.columns.matrix
    block = view.columns.block
    sq = m.col_sq_norms
    pool = [j for j in range(len(block)) if sq[block[j]] > 0.0]
    z = np.zeros(m.n_rows)
    if not pool:
        return {}, z, 0, 0
    sp_tau = view.sigma_prime / view.tau
    cols = [m.column(int(block[j])) for j in pool]
    xw = [float(np.dot(v, w[r])) for r, v in cols]
    totals = [float(view.alpha_block[j]) for j in pool]
    reg = view.reg
    l1 = reg.lam if reg.kind == "l1" else reg.lam * (1.0 - reg.eta)
    active = [t for t in range(len(pool))
              if totals[t] != 0.0 or not abs(xw[t]) < 0.9 * l1]
    if not active:
        return {}, z, 0, 0
    rng = np.random.default_rng(seed)
    draws = [active[j] for _ in range(h)
             for j in rng.permutation(len(active)).tolist()]
    clamps = 0
    for t in draws:
        r, v = cols[t]
        q = sp_tau * sq[block[pool[t]]]
        g = xw[t] + sp_tau * float(np.dot(v, z[r]))
        c = totals[t]
        if reg.kind == "l1":
            new = math.copysign(max(abs(c - g / q) - reg.lam / q, 0.0), c - g / q)
            if abs(new) > reg.support_bound:
                new = math.copysign(reg.support_bound, new)
                clamps += 1
        else:
            num = q * c - g
            thr = reg.lam * (1.0 - reg.eta)
            new = math.copysign(max(abs(num) - thr, 0.0), num) \
                / (q + reg.lam * reg.eta)
        if new != c:
            z[r] += (new - c) * v
            totals[t] = new
    delta = {pool[t]: totals[t] - float(view.alpha_block[pool[t]])
             for t in range(len(pool))
             if totals[t] != view.alpha_block[pool[t]]}
    return delta, z, len(draws), clamps


def normalized_dense(dense):
    """Dense matrix with every nonzero column scaled to unit norm."""
    norms = np.sqrt(np.sum(dense * dense, axis=0))
    return dense / np.where(norms > 0.0, norms, 1.0)
