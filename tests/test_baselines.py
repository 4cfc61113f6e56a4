import math

import numpy as np
import pytest

import shardcd as sc
from conftest import lasso_objective, regression_instance


def test_prox_gd_fixed_point_at_solution():
    # lambda above the max correlation: zero is optimal and a fixed point
    m, b, _ = regression_instance(seed=1)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    lam = 1.1 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(fit, "l1", lam)
    state = sc.SolverState.initial(m)
    nxt = sc.prox_gd_step(state, spec, m, step=0.3)
    assert np.array_equal(nxt.alpha, state.alpha)


def test_prox_gd_monotone_descent_default_step():
    rng = np.random.default_rng(2)
    for trial in range(100):
        m, b, _ = regression_instance(seed=100 + trial, n=16, d=12)
        spec = lasso_objective(m, b, frac=float(rng.uniform(0.05, 0.4)))
        step = spec.data_fit.tau / sc.sq_spectral_norm(m, iters=60, seed=trial)
        state = sc.SolverState.initial(m)
        prev = sc.primal_value(spec, m, state.alpha, state.v)
        for _ in range(4):
            state = sc.prox_gd_step(state, spec, m, step)
            cur = sc.primal_value(spec, m, state.alpha, state.v)
            assert cur <= prev + 1e-10
            prev = cur


def test_mb_cd_single_coordinate_matches_scalar_oracle():
    # b=1, beta=1 must follow a plain sequential-CD trajectory exactly:
    # replicate five rounds with an independent dense implementation
    from oracles import dense_from_columns
    from conftest import random_matrix
    rng = np.random.default_rng(3)
    m, cols = random_matrix(rng, n=10, d=8, density=0.5)
    dense = dense_from_columns(8, cols)
    b_vec = rng.standard_normal(8)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b_vec)
    lam = 0.1 * float(np.max(np.abs(dense.T @ b_vec)))
    for kind in ("l1", "elastic_net"):
        check_mb_cd_against_oracle(m, dense, b_vec, sc.make_objective(
            fit, kind, lam, eta=0.4 if kind == "elastic_net" else None))


def check_mb_cd_against_oracle(m, dense, b_vec, spec):
    lam, bound = spec.reg.lam, spec.reg.support_bound
    state = sc.SolverState.initial(m)
    alpha_ref = np.zeros(10)
    for seed in (42, 7, 9, 1, 30):
        state = sc.mb_cd_round(state, spec, m, b=1, beta=1.0, seed=seed)
        # oracle: same sampled coordinate, dense solo shrinkage step
        i = int(np.random.default_rng(seed).choice(10, size=1, replace=False)[0])
        q = float(dense[:, i] @ dense[:, i])
        if q > 0:
            resid = dense @ alpha_ref - b_vec
            g = float(dense[:, i] @ resid)
            if spec.reg.kind == sc.L1:
                target = alpha_ref[i] - g / q
                new = np.sign(target) * max(abs(target) - lam / q, 0.0)
                alpha_ref[i] = min(max(new, -bound), bound)
            else:
                # argmin_a q/2 (a - c)^2 + g (a - c) + lam (eta a^2/2 + (1-eta)|a|)
                eta = spec.reg.eta
                num = q * alpha_ref[i] - g
                alpha_ref[i] = np.sign(num) * max(abs(num) - lam * (1 - eta),
                                                  0.0) / (q + lam * eta)
        assert np.allclose(state.alpha, alpha_ref, atol=1e-12)
    assert np.count_nonzero(alpha_ref) >= 2
    assert np.max(np.abs(state.v - m.mat_vec(state.alpha))) <= 1e-12


def test_mb_cd_validation():
    m, b, _ = regression_instance(seed=4, n=8, d=6)
    spec = lasso_objective(m, b)
    state = sc.SolverState.initial(m)
    with pytest.raises(ValueError):
        sc.mb_cd_round(state, spec, m, b=0, beta=1.0, seed=0)
    with pytest.raises(ValueError):
        sc.mb_cd_round(state, spec, m, b=4, beta=5.0, seed=0)
    with pytest.raises(ValueError):
        sc.BaselineConfig(kind="sgd")
    # each would return a result without a certificate or never stop
    for bad in ({"max_rounds": -3}, {"gap_tol": -1e-6}, {"gap_tol": -math.inf},
                {"gap_tol": math.nan}, {"trace_every": 0}):
        for kind in ("prox_gd", "mb_cd"):
            with pytest.raises(ValueError):
                sc.BaselineConfig(kind=kind, **bad)


def test_mb_cd_deterministic():
    m, b, _ = regression_instance(seed=5, n=12, d=8)
    spec = lasso_objective(m, b)
    state = sc.SolverState.initial(m)
    r1 = sc.mb_cd_round(state, spec, m, b=4, beta=2.0, seed=9)
    r2 = sc.mb_cd_round(state, spec, m, b=4, beta=2.0, seed=9)
    assert np.array_equal(r1.alpha, r2.alpha)
    assert np.array_equal(r1.v, r2.v)


def test_baselines_reach_engine_primal():
    m, b, _ = regression_instance(seed=6, n=32, d=20)
    m.normalize_columns()
    spec = lasso_objective(m, b, frac=0.2)
    p = sc.partition_columns(32, 4)
    res = sc.solve(sc.EngineConfig(k_count=4, h_local=8, max_rounds=3000,
                                   gap_tol=1e-9, seed=1), spec, m, p)
    ref = res.traces[-1].primal

    pg = sc.solve_baseline(sc.BaselineConfig(
        kind="prox_gd", max_rounds=50000, gap_tol=1e-8, seed=1,
        trace_every=25), spec, m)
    assert pg.stop_reason == "gap_tol"
    assert abs(pg.traces[-1].primal - ref) <= 1e-5 * abs(ref)

    mb = sc.solve_baseline(sc.BaselineConfig(
        kind="mb_cd", batch_size=8, beta_scale=1.0, max_rounds=300000,
        gap_tol=1e-8, seed=1, trace_every=100), spec, m)
    assert mb.stop_reason == "gap_tol"
    assert abs(mb.traces[-1].primal - ref) <= 1e-5 * abs(ref)


def test_full_batch_jacobi_runs():
    # b = n with beta = 1: damped Jacobi-style update; just has to take a
    # valid step and keep v consistent (oscillation on correlated data is
    # expected behavior, not asserted)
    m, b, _ = regression_instance(seed=7, n=16, d=10)
    spec = lasso_objective(m, b)
    state = sc.SolverState.initial(m)
    nxt = sc.mb_cd_round(state, spec, m, b=16, beta=1.0, seed=3)
    assert np.max(np.abs(nxt.v - m.mat_vec(nxt.alpha))) <= 1e-10


def test_mb_cd_drift_is_caught_by_the_driver(monkeypatch):
    # a shared-vector update that is lost must stop the run, as in solve
    m, b, _ = regression_instance(seed=8, n=12, d=8)
    spec = lasso_objective(m, b)
    monkeypatch.setattr(sc.ColMatrix, "axpy_column", lambda self, i, s, u: None)
    with pytest.raises(RuntimeError, match="drifted"):
        sc.solve_baseline(sc.BaselineConfig(kind="mb_cd", batch_size=4,
                                            max_rounds=5, gap_tol=0.0), spec, m)


def test_prox_gd_with_too_long_a_step_diverges():
    m, b, _ = regression_instance(seed=9, n=12, d=8)
    spec = lasso_objective(m, b)
    step = 10.0 / sc.sq_spectral_norm(m, iters=60)
    res = sc.solve_baseline(sc.BaselineConfig(
        kind="prox_gd", step_size=step, max_rounds=200, gap_tol=0.0), spec, m)
    assert res.stop_reason == "diverged"
    assert res.traces[-1].round == res.state.round < 200
    assert res.traces[-1].primal > res.traces[0].primal


def test_prox_matches_scalar_step():
    # prox-GD's vector prox is coordinate_update at curvature 1/step, zero slope
    from shardcd.baselines import _prox
    rng = np.random.default_rng(41)
    for trial in range(200):
        lam = float(rng.uniform(0.05, 3.0))
        step = float(rng.uniform(0.01, 5.0))
        if trial % 2:
            bound = float(rng.uniform(0.5, 5.0))
            reg = sc.Regularizer(kind=sc.L1, lam=lam, support_bound=bound)
            u = rng.uniform(-3.0, 3.0, size=20) * bound  # some beyond +-B
        else:
            reg = sc.Regularizer(kind=sc.ELASTIC_NET, lam=lam,
                                 eta=float(rng.uniform(0.05, 1.0)))
            u = 5.0 * rng.standard_normal(20)
        got = _prox(reg, u, step)
        for ui, gi in zip(u.tolist(), got.tolist()):
            ref = sc.coordinate_update(reg, ui, 0.0, 1.0 / step)
            assert abs(gi - ref) <= 1e-12 * abs(ref)
