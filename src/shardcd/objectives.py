"""Data-fit terms, separable regularizers, conjugates, and gap certificates.

The solved problem is

    min_alpha  f(A alpha) + sum_i l_i(alpha_i)

with a smooth data-fit f (least squares or logistic) and a separable
regularizer (L1 or elastic net). Certificates come from the conjugate
(dual) problem

    min_w  f*(w) + sum_i l_i*(-x_i^T w)

evaluated at the better of two points: the mapped point w = grad f(A alpha)
and its rescaling s w with s = min(1, l1 / ||A^T w||_inf), which pays no
conjugate charge for the penalty (the dual point of Gap Safe screening).
The sum of the two objective values is the duality gap, a computable
upper bound on suboptimality.

The pure-L1 term is treated as the absolute value restricted to the box
[-B, B]. The restriction makes the conjugate finite everywhere (so the
gap is always defined); with the default B = f(0)/lambda and a monotone
solver started at zero it is never active, so iterates and solutions
match the unrestricted problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "LEAST_SQUARES", "LOGISTIC", "L1", "ELASTIC_NET",
    "DataFit", "Regularizer", "ObjectiveSpec", "DualDomainError",
    "f_value", "f_grad", "f_conj",
    "ell_value", "ell_conj",
    "primal_value", "duality_gap", "GapReport",
    "default_support_bound", "make_objective",
]

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic"
L1 = "l1"
ELASTIC_NET = "elastic_net"

# slack on the logistic conjugate box constraint before a point is
# rejected as an invalid dual candidate
_BOX_SLACK = 1e-12


class DualDomainError(ValueError):
    """Raised when a vector lies outside the domain of the conjugate."""


@dataclass(frozen=True, eq=False)
class DataFit:
    """Smooth data-fit term: kind and labels.

    f is (1/tau)-smooth, f(v + d) <= f(v) + grad f(v)^T d + ||d||^2 / (2 tau),
    with `tau` fixed by the kind. Logistic labels must be exactly +-1.
    """

    kind: str
    labels: np.ndarray

    def __post_init__(self):
        if self.kind not in (LEAST_SQUARES, LOGISTIC):
            raise ValueError(f"unknown data-fit kind {self.kind!r}")
        labels = np.ascontiguousarray(self.labels, dtype=np.float64)
        if not np.all(np.isfinite(labels)):
            raise ValueError("labels must be finite")
        if self.kind == LOGISTIC and not np.all(np.abs(labels) == 1.0):
            raise ValueError("logistic labels must be exactly +1 or -1")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self):
        return len(self.labels)

    @property
    def tau(self):
        """1 for least squares (f'' = 1) and 4 for logistic, whose second
        derivative b^2 t (1 - t) is at most 1/4 for labels b = +-1."""
        return 1.0 if self.kind == LEAST_SQUARES else 4.0


@dataclass(frozen=True)
class Regularizer:
    """Separable penalty sum_i l(alpha_i).

    l1:           l(a) = lam * |a| on [-B, B], +inf outside.
    elastic_net:  l(a) = lam * (eta * a^2 / 2 + (1 - eta) * |a|).

    The L1 kind always carries a finite support bound B; the elastic
    net carries none (B = inf) and is strongly convex with constant
    mu = lam * eta.
    """

    kind: str
    lam: float
    eta: float = 1.0
    support_bound: float = math.inf

    def __post_init__(self):
        if self.kind not in (L1, ELASTIC_NET):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not 0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if self.kind == ELASTIC_NET and not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.kind == L1 and not (math.isfinite(self.support_bound)
                                    and self.support_bound > 0):
            raise ValueError("l1 regularizer requires a finite support bound")
        if self.kind == ELASTIC_NET and self.support_bound != math.inf:
            raise ValueError("elastic net takes no support bound")

    @property
    def penalty(self):
        """Weights (l1, l2, B) of l(a) = l1 |a| + l2 a^2 / 2 on [-B, B].

        l1 is (lam, 0, B); the elastic net is (lam (1 - eta), lam eta, inf).
        """
        if self.kind == L1:
            return self.lam, 0.0, self.support_bound
        return self.lam * (1.0 - self.eta), self.lam * self.eta, math.inf

    @property
    def strong_convexity(self):
        return self.penalty[1]


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    data_fit: DataFit
    reg: Regularizer

    def check_dims(self, m):
        if self.data_fit.dim != m.n_rows:
            raise ValueError(
                f"label length {self.data_fit.dim} != matrix rows {m.n_rows}")


def default_support_bound(fit, lam):
    """Canonical L1 coefficient box: f(0) / lambda.

    Any monotone solver started at zero keeps lam * |alpha_i| below the
    initial objective value f(0), so this bound never binds.
    """
    return f_value(fit, np.zeros(fit.dim)) / lam


def make_objective(fit, reg_kind, lam, eta=None):
    """Assemble an ObjectiveSpec; the L1 box is default_support_bound.

    A Regularizer built directly may take any finite box, but one below
    the default may change the solution set.
    """
    if reg_kind == L1:
        reg = Regularizer(kind=L1, lam=lam,
                          support_bound=default_support_bound(fit, lam))
    elif reg_kind == ELASTIC_NET:
        if eta is None:
            raise ValueError("elastic net requires eta")
        reg = Regularizer(kind=ELASTIC_NET, lam=lam, eta=float(eta))
    else:
        raise ValueError(f"unknown regularizer kind {reg_kind!r}")
    return ObjectiveSpec(data_fit=fit, reg=reg)


# ----------------------------------------------------------------------
# smooth part

def _check_len(fit, x):
    x = np.asarray(x, dtype=np.float64)
    if len(x) != fit.dim:
        raise ValueError(f"vector length {len(x)} != label length {fit.dim}")
    return x


def _entropy(t, log_t, log_1mt, s=1.0):
    """Logistic conjugate at s w, for w = -b t and 0 <= s <= 1: the sum of
    (s t) log(s t) + (1 - s t) log(1 - s t), given log t and log(1 - t)
    (0 log 0 = 0)."""
    if s == 0.0:
        return 0.0
    tlt = float(np.dot(t, log_t))
    if s == 1.0:
        return tlt + float(np.dot(1.0 - t, log_1mt))
    st = s * t
    return s * (tlt + math.log(s) * float(np.sum(t))) \
        + float(np.dot(1.0 - st, np.log1p(-st)))


def _fit_pass(fit, v):
    """f(v), w = grad f(v) and conj(s) = f*(s w) for 0 <= s <= 1, all
    from one pass over v; f_value and f_grad return its bits.

    Logistic, with z = b v, e = exp(-|z|) and sp = log1p(e): the sigmoid
    t = 1 / (1 + exp(z)) is where(z > 0, e, 1) / (1 + e), log t is
    -(z_+ + sp) and log(1 - t) is -((-z)_+ + sp), so f(v) = -sum log(1 - t)
    and w = -b t. One exp and one log1p, and all finite for finite v.
    """
    v = _check_len(fit, v)
    b = fit.labels
    if fit.kind == LEAST_SQUARES:
        w = v - b
        ww, wb = float(np.dot(w, w)), float(np.dot(w, b))
        return 0.5 * ww, w, lambda s: s * (0.5 * s * ww + wb)
    z = b * v
    e = np.exp(-np.abs(z))
    sp = np.log1p(e)
    t = np.where(z > 0, e, 1.0) / (1.0 + e)
    log_t, log_1mt = -(np.maximum(z, 0.0) + sp), -(np.maximum(-z, 0.0) + sp)
    return (-float(np.sum(log_1mt)), -b * t,
            lambda s: _entropy(t, log_t, log_1mt, s))


def _primal_change(spec, a, da, v, dv):
    """t -> P(a + t da) - P(a) for a logistic data fit, with v = A a and
    dv = A da given.

    The rows where dv != 0 and the coordinates where da != 0 are gathered
    once; each call sums softplus(-b v_j) and l(a_i) differences over
    those only, so it costs no product and no pass over the whole of v.
    Non-finite when the point is: outside the L1 box, or overflowed.
    """
    rows, cols = np.flatnonzero(dv), np.flatnonzero(da)
    b, v, dv = spec.data_fit.labels[rows], v[rows], dv[rows]
    a, da = a[cols], da[cols]

    def loss(z):  # log(1 + exp(-z)), as _fit_pass computes it
        return np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))

    loss0, pen0 = loss(b * v), ell_value(spec.reg, a)
    return lambda t: float(np.sum(loss(b * (v + t * dv)) - loss0)) \
        + float(np.sum(ell_value(spec.reg, a + t * da) - pen0))


def f_value(fit, v):
    """Evaluate the data-fit term at a length-d prediction vector."""
    return _fit_pass(fit, v)[0]


def f_grad(fit, v):
    """Gradient of the data-fit term; also the dual candidate map.

    Least squares: v - b (the residual). Logistic: entrywise
    -b_j / (1 + exp(b_j v_j)), always inside the conjugate box.
    """
    return _fit_pass(fit, v)[1]


def f_conj(fit, w):
    """Convex conjugate f*(w).

    Least squares: ||w||^2 / 2 + w^T b. Logistic: the binary entropy
    form sum_j [t_j log t_j + (1 - t_j) log(1 - t_j)] with t = -w b in
    the box [0, 1] and 0 log 0 = 0 at the endpoints, evaluated by
    _entropy, which the certificate's one pass (_fit_pass) also uses.
    Points outside the box (beyond a 1e-12 slack) raise DualDomainError,
    signalling an invalid dual candidate.
    """
    w = _check_len(fit, w)
    if fit.kind == LEAST_SQUARES:
        return 0.5 * float(np.dot(w, w)) + float(np.dot(w, fit.labels))
    t = -w * fit.labels
    if np.any(t < -_BOX_SLACK) or np.any(t > 1.0 + _BOX_SLACK):
        raise DualDomainError("logistic conjugate argument outside [0, 1] box")
    t = np.clip(t, 0.0, 1.0)
    log_t = np.log(t, out=np.zeros_like(t), where=t > 0.0)
    log_1mt = np.log1p(-t, out=np.zeros_like(t), where=t < 1.0)
    return _entropy(t, log_t, log_1mt)


# ----------------------------------------------------------------------
# separable part (elementwise on scalars or arrays)

def ell_value(reg, a):
    """Per-coordinate penalty value; +inf outside the L1 box."""
    a = np.asarray(a, dtype=np.float64)
    aa = np.abs(a)
    if reg.kind == L1:
        out = np.where(aa <= reg.support_bound, reg.lam * aa, np.inf)
    else:
        out = reg.lam * (0.5 * reg.eta * a * a + (1.0 - reg.eta) * aa)
    return float(out) if np.isscalar(a) or a.ndim == 0 else out


def ell_conj(reg, x):
    """Per-coordinate conjugate penalty l*(x).

    l1 (box-restricted):  0 for |x| <= lam, else B (|x| - lam);
    globally B-Lipschitz.
    elastic net:  ( [|x|/lam - (1 - eta)]_+ )^2 * lam / (2 eta).
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    if reg.kind == L1:
        out = np.where(ax <= reg.lam, 0.0,
                       reg.support_bound * (ax - reg.lam))
    else:
        t = np.maximum(ax / reg.lam - (1.0 - reg.eta), 0.0)
        out = reg.lam * t * t / (2.0 * reg.eta)
    return float(out) if np.isscalar(x) or x.ndim == 0 else out


# ----------------------------------------------------------------------
# certificates

class GapReport(NamedTuple):
    """Certificate at one iterate, plus the quantities it computed there.

    `dual` is the smaller of the dual objectives at w = grad f(v) and at
    its rescaling s w (see duality_gap), and `gap` = dual + primal. `fit`
    is the data-fit value f(v), `w` = grad f(v) and `atw` = A^T w; the
    next round's local views start from exactly `fit` and `atw`, so the
    rescaling never feeds back into the iterates.
    """

    gap: float
    primal: float
    dual: float
    w: np.ndarray
    fit: float
    atw: np.ndarray


def _check_coefs(m, a):
    if len(a) != m.n_cols:
        raise ValueError(f"coefficient length {len(a)} != n_cols {m.n_cols}")


def primal_value(spec, m, a, v):
    """Objective value f(v) + sum_i l(a_i) with caller-maintained v = A a.

    Returns +inf when a coordinate violates the L1 support bound; an `a`
    without one entry per column of `m` raises ValueError.
    """
    _check_coefs(m, a)
    return f_value(spec.data_fit, v) + float(np.sum(ell_value(spec.reg, a)))


def duality_gap(spec, m, a, v):
    """Certificate at the iterate a (with v = A a).

    Evaluates the dual objective f*(w) + sum_i l*(-x_i^T w) at w = grad
    f(v) and at s w, s = min(1, l1 / ||A^T w||_inf) with l1 the penalty's
    linear weight, where the penalty's conjugate charge vanishes, and
    reports the smaller; gap = dual + primal >= -1e-9 up to rounding
    bounds the primal suboptimality from above. A coefficient outside the
    support bound [-B, B] (the iterate left the level set the certificate
    is defined on) or an `a` without one entry per column of `m` raises
    ValueError. A non-finite iterate (a diverged run) yields a non-finite
    gap.
    """
    _check_coefs(m, a)
    pen = float(np.sum(ell_value(spec.reg, a)))
    if pen == math.inf and np.any(np.abs(a) > spec.reg.support_bound):
        raise ValueError("coefficient outside the support bound [-B, B]")
    fit, w, conj = _fit_pass(spec.data_fit, v)
    atw = m.mat_tvec(w)
    primal = fit + pen
    # overflow needs |x_i^T w| > l1, where the finite rescaled dual is kept
    with np.errstate(over="ignore"):
        dual = conj(1.0) + float(np.sum(ell_conj(spec.reg, -atw)))
    l1 = spec.reg.penalty[0]
    top = float(np.max(np.abs(atw), initial=0.0))
    if top > l1:
        dual = min(dual, conj(l1 / top))
    return GapReport(gap=dual + primal, primal=primal, dual=dual, w=w,
                     fit=fit, atw=atw)
