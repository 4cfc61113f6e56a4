"""Single-process reference optimizers for benchmark comparisons.

Two baselines: full proximal gradient descent, and mini-batch parallel
coordinate descent (one shrinkage step per sampled coordinate, all
applied together with a damping factor beta / batch). The single-update,
one-coordinate-per-worker extreme of the mini-batch scheme is the
classic high-communication configuration the round-based solver is
meant to improve on. Both run through the solver's own driver loop, so
they are certified, drift-checked, traced and stopped exactly like it,
and each step takes its gradient from the certificate of the state it
starts from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import sq_spectral_norm
from .engine import SolverState, _check_drive_settings, _drive, _worker_seed
from .local import coordinate_update

__all__ = ["BaselineConfig", "prox_gd_step", "mb_cd_round", "solve_baseline"]

PROX_GD = "prox_gd"
MB_CD = "mb_cd"


@dataclass
class BaselineConfig:
    """Settings for one baseline run.

    For prox_gd, a None step_size resolves to tau / ||A||^2 (power
    iteration estimate), the largest step with guaranteed descent; a
    given step must be positive and finite. For
    mb_cd, batch_size coordinates are sampled per round and updates are
    scaled by beta_scale / batch_size with beta_scale in [1, batch].
    """

    kind: str
    step_size: float | None = None
    batch_size: int = 1
    beta_scale: float = 1.0
    max_rounds: int = 1000
    gap_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (PROX_GD, MB_CD):
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.step_size is not None:
            _check_step(self.step_size, "step_size")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 1.0 <= self.beta_scale <= self.batch_size:
            raise ValueError("beta_scale must lie in [1, batch_size]")
        _check_drive_settings(self.max_rounds, self.gap_tol)


def _check_step(step, name):
    if not 0.0 < step < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def _prox(reg, u, step):
    """Vector prox of step * l: the shrinkage of `coordinate_update` at
    curvature 1/step and zero slope, elementwise."""
    l1, l2, bound = reg.penalty
    shrunk = np.sign(u) * np.maximum(np.abs(u) - step * l1, 0.0)
    return np.clip(shrunk / (1.0 + step * l2), -bound, bound)


def prox_gd_step(state, spec, m, step, shared):
    """One full proximal gradient step; the shared vector is recomputed.

    `shared` is the certificate (GapReport) taken at `state`; its A^T w
    is the gradient.
    """
    _check_step(step, "step")
    alpha = _prox(spec.reg, state.alpha - step * shared.atw, step)
    return SolverState(alpha=alpha, v=m.mat_vec(alpha), round=state.round + 1)


def mb_cd_round(state, spec, m, b, beta, seed, shared):
    """One mini-batch coordinate-descent round.

    Samples b distinct coordinates, computes each one's solo shrinkage
    update against the current gradient (curvature ||x_i||^2 / tau, no
    cross terms), and applies all of them scaled by beta / b, updating
    the shared vector incrementally. Zero-norm coordinates stay frozen.
    `shared` is the certificate (GapReport) taken at `state`; its A^T w
    holds each coordinate's gradient x_i^T w.
    """
    n = m.n_cols
    if not 1 <= b <= n:
        raise ValueError("batch size must lie in [1, n]")
    if not 1.0 <= beta <= b:
        raise ValueError("beta must lie in [1, batch]")
    rng = np.random.default_rng(seed)
    coords = rng.choice(n, size=b, replace=False)
    tau = spec.data_fit.tau
    sq = m.col_sq_norms
    scale = beta / b

    alpha = state.alpha.copy()
    v = state.v.copy()
    for i in coords:
        i = int(i)
        if sq[i] <= 0.0:
            continue
        c = alpha[i]
        new = coordinate_update(spec.reg, c, shared.atw[i], sq[i] / tau)
        dlt = scale * (new - c)
        if dlt != 0.0:
            alpha[i] = c + dlt
            m.axpy_column(i, dlt, v)
    return SolverState(alpha=alpha, v=v, round=state.round + 1)


def solve_baseline(cfg, spec, m):
    """Drive a baseline to the gap tolerance through the solver's loop,
    recording the same traces and stop reasons so runs are directly
    comparable."""
    step_size = cfg.step_size
    if cfg.kind == PROX_GD:
        if step_size is None:
            norm_sq = sq_spectral_norm(m, iters=60, seed=cfg.seed)
            if norm_sq <= 0.0:
                raise ValueError("cannot pick a step size for an all-zero matrix")
            step_size = spec.data_fit.tau / norm_sq

        def step(state, shared):
            return prox_gd_step(state, spec, m, step_size, shared), m.n_cols, None
    else:
        def step(state, shared):
            seed = _worker_seed(cfg.seed, 0, state.round + 1)
            return (mb_cd_round(state, spec, m, cfg.batch_size, cfg.beta_scale,
                                seed, shared), cfg.batch_size, None)

    return _drive(step, spec, m, cfg.max_rounds, cfg.gap_tol,
                  {"step_size": step_size})
