import math

import numpy as np
import pytest

import shardcd as sc
from conftest import lasso_objective, regression_instance


def certified(spec, m, state):
    """The certificate at `state` that `_drive` hands each step."""
    return sc.duality_gap(spec, m, state.alpha, state.v)


def test_prox_gd_fixed_point_at_solution():
    # lambda above the max correlation: zero is optimal and a fixed point
    m, b, _ = regression_instance(seed=1)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    lam = 1.1 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(fit, "l1", lam)
    state = sc.SolverState.initial(m)
    nxt = sc.prox_gd_step(state, spec, m, 0.3, certified(spec, m, state))
    assert np.array_equal(nxt.alpha, state.alpha)


def logistic_objective(m, b, frac):
    """L1 logistic regression on the signs of the regression labels b,
    at lambda = frac * lambda_max."""
    fit = sc.DataFit(kind=sc.LOGISTIC, labels=np.where(b >= 0.0, 1.0, -1.0))
    lam_max = float(np.max(np.abs(m.mat_tvec(sc.f_grad(fit, np.zeros(len(b)))))))
    return sc.make_objective(fit, "l1", frac * lam_max)


def test_prox_gd_monotone_descent_default_step():
    # tau / ||A||^2 is the descent limit: 1 / ||A||^2 for least squares,
    # 4 / ||A||^2 for logistic, whose curvature is at most 1/4
    rng = np.random.default_rng(2)
    for trial in range(100):
        m, b, _ = regression_instance(seed=100 + trial, n=16, d=12)
        frac = float(rng.uniform(0.05, 0.4))
        for spec in (lasso_objective(m, b, frac=frac),
                     logistic_objective(m, b, frac)):
            step = spec.data_fit.tau / sc.sq_spectral_norm(m, iters=60,
                                                           seed=trial)
            state = sc.SolverState.initial(m)
            prev = sc.primal_value(spec, m, state.alpha, state.v)
            for _ in range(4):
                state = sc.prox_gd_step(state, spec, m, step,
                                        certified(spec, m, state))
                cur = sc.primal_value(spec, m, state.alpha, state.v)
                assert cur <= prev + 1e-10
                prev = cur


def oracle_instance(zero_col=None):
    """A random 8 x 10 matrix, optionally with one all-zero column, its
    dense copy, labels, and lasso and elastic-net specs on them."""
    from oracles import dense_from_columns
    from conftest import random_matrix
    rng = np.random.default_rng(3)
    _, cols = random_matrix(rng, n=10, d=8, density=0.5)
    if zero_col is not None:
        cols[zero_col] = []
    m = sc.ColMatrix.from_columns(8, cols)
    dense = dense_from_columns(8, cols)
    b_vec = rng.standard_normal(8)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b_vec)
    lam = 0.1 * float(np.max(np.abs(dense.T @ b_vec)))
    specs = [sc.make_objective(fit, kind, lam, eta=0.4)
             for kind in ("l1", "elastic_net")]
    return m, dense, b_vec, specs


def test_mb_cd_single_coordinate_matches_scalar_oracle():
    # b=1, beta=1 must follow a plain sequential-CD trajectory exactly:
    # replicate five rounds with an independent dense implementation
    m, dense, b_vec, specs = oracle_instance()
    for spec in specs:
        check_mb_cd_against_oracle(m, dense, b_vec, spec)


def test_mb_cd_batch_matches_jacobi_oracle():
    # b > 1: every sampled coordinate steps from the round's one gradient
    # (a Jacobi step), scaled by beta / b; a zero-norm column never moves
    m, dense, b_vec, specs = oracle_instance(zero_col=3)
    for spec in specs:
        check_mb_cd_against_oracle(m, dense, b_vec, spec, batch=4, beta=2.5,
                                   zero_col=3)


def check_mb_cd_against_oracle(m, dense, b_vec, spec, batch=1, beta=1.0,
                               zero_col=None):
    lam, bound = spec.reg.lam, spec.reg.support_bound
    n = m.n_cols
    state = sc.SolverState.initial(m)
    alpha_ref = np.zeros(n)
    zero_sampled = False
    for seed in (42, 7, 9, 1, 30):
        state = sc.mb_cd_round(state, spec, m, batch, beta, seed,
                               certified(spec, m, state))
        # oracle: same sampled coordinates, dense solo shrinkage steps,
        # all from the gradient at the round's start
        coords = np.random.default_rng(seed).choice(n, size=batch,
                                                    replace=False)
        zero_sampled |= zero_col in coords.tolist()
        resid = dense @ alpha_ref - b_vec
        start = alpha_ref.copy()
        for i in coords.tolist():
            q = float(dense[:, i] @ dense[:, i])
            if q == 0:
                continue
            g = float(dense[:, i] @ resid)
            if spec.reg.kind == sc.L1:
                target = start[i] - g / q
                new = np.sign(target) * max(abs(target) - lam / q, 0.0)
                new = min(max(new, -bound), bound)
            else:
                # argmin_a q/2 (a - c)^2 + g (a - c) + lam (eta a^2/2 + (1-eta)|a|)
                eta = spec.reg.eta
                num = q * start[i] - g
                new = np.sign(num) * max(abs(num) - lam * (1 - eta),
                                         0.0) / (q + lam * eta)
            alpha_ref[i] = start[i] + beta / batch * (new - start[i])
        assert np.allclose(state.alpha, alpha_ref, atol=1e-12)
    assert np.count_nonzero(alpha_ref) >= 2
    if zero_col is not None:
        assert zero_sampled and state.alpha[zero_col] == 0.0
    assert np.max(np.abs(state.v - m.mat_vec(state.alpha))) <= 1e-12


def test_mb_cd_validation():
    m, b, _ = regression_instance(seed=4, n=8, d=6)
    spec = lasso_objective(m, b)
    state = sc.SolverState.initial(m)
    shared = certified(spec, m, state)
    with pytest.raises(ValueError):
        sc.mb_cd_round(state, spec, m, 0, 1.0, 0, shared)
    with pytest.raises(ValueError):
        sc.mb_cd_round(state, spec, m, 4, 5.0, 0, shared)
    with pytest.raises(ValueError):
        sc.BaselineConfig(kind="sgd")
    # each would return a result without a certificate, never stop, stop
    # as diverged for a step that was never a number, fail after round 0
    # deriving a sampling stream, or (a count that is not an integer) fail
    # deep in numpy or truncate
    for bad in ({"max_rounds": -3}, {"gap_tol": -1e-6}, {"gap_tol": -math.inf},
                {"gap_tol": math.nan}, {"step_size": math.nan},
                {"step_size": math.inf}, {"step_size": -1.0}, {"seed": -1},
                {"max_rounds": 2.5}, {"seed": 1.5}, {"batch_size": 2.5}):
        (name,) = bad
        for kind in ("prox_gd", "mb_cd"):
            with pytest.raises(ValueError, match=name):
                sc.BaselineConfig(kind=kind, **bad)
    for step in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            sc.prox_gd_step(state, spec, m, step, shared)


def test_mb_cd_deterministic():
    m, b, _ = regression_instance(seed=5, n=12, d=8)
    spec = lasso_objective(m, b)
    state = sc.SolverState.initial(m)
    shared = certified(spec, m, state)
    r1 = sc.mb_cd_round(state, spec, m, 4, 2.0, 9, shared)
    r2 = sc.mb_cd_round(state, spec, m, 4, 2.0, 9, shared)
    assert np.array_equal(r1.alpha, r2.alpha)
    assert np.array_equal(r1.v, r2.v)


def test_baselines_reach_engine_primal():
    m, b, _ = regression_instance(seed=6, n=32, d=20)
    m.normalize_columns()
    p = sc.partition_columns(32, 4)
    for spec in (lasso_objective(m, b, frac=0.2),
                 logistic_objective(m, b, 0.2)):
        res = sc.solve(sc.EngineConfig(k_count=4, h_local=8, max_rounds=3000,
                                       gap_tol=1e-9, seed=1), spec, m, p)
        assert res.stop_reason == "gap_tol"
        ref = res.traces[-1].primal

        pg = sc.solve_baseline(sc.BaselineConfig(
            kind="prox_gd", max_rounds=50000, gap_tol=1e-8, seed=1), spec, m)
        assert pg.stop_reason == "gap_tol"
        assert abs(pg.traces[-1].primal - ref) <= 1e-5 * abs(ref)

        mb = sc.solve_baseline(sc.BaselineConfig(
            kind="mb_cd", batch_size=8, beta_scale=1.0, max_rounds=300000,
            gap_tol=1e-8, seed=1), spec, m)
        assert mb.stop_reason == "gap_tol"
        assert abs(mb.traces[-1].primal - ref) <= 1e-5 * abs(ref)
        for run in (pg, mb):
            assert [t.round for t in run.traces] == \
                list(range(run.state.round + 1))


def test_full_batch_jacobi_runs():
    # b = n with beta = 1: damped Jacobi-style update; just has to take a
    # valid step and keep v consistent (oscillation on correlated data is
    # expected behavior, not asserted)
    m, b, _ = regression_instance(seed=7, n=16, d=10)
    spec = lasso_objective(m, b)
    state = sc.SolverState.initial(m)
    nxt = sc.mb_cd_round(state, spec, m, 16, 1.0, 3,
                         certified(spec, m, state))
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


@pytest.mark.parametrize("cfg", [
    sc.BaselineConfig(kind="prox_gd"),  # would take a step of tau / inf
    sc.BaselineConfig(kind="mb_cd", batch_size=2, beta_scale=2.0),
], ids=["prox_gd", "mb_cd"])
def test_baselines_refuse_a_column_whose_squared_norm_overflows(cfg):
    m = sc.ColMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], [3.0, 4.0, 1e200, 1.0])
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=np.array([1.0, 2.0]))
    spec = sc.make_objective(fit, "l1", 0.1)
    with pytest.raises(ValueError, match=r"^column 1: its squared norm .*"
                       r"normalize_columns, --normalize"):
        sc.solve_baseline(cfg, spec, m)
    m.normalize_columns()
    assert sc.solve_baseline(cfg, spec, m).stop_reason == "gap_tol"
