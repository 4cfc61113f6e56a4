import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import shardcd as sc
from shardcd import engine as eng
from shardcd import local
from conftest import (enet_objective, hand_round, lasso_objective,
                      regression_instance, subproblem)


def desk_setup(seed=5, n=40, d=24, kind="l1", K=4):
    m, b, _ = regression_instance(seed=seed, n=n, d=d)
    spec = lasso_objective(m, b) if kind == "l1" else enet_objective(b)
    return m, spec, sc.partition_columns(n, K)


def test_config_defaults_and_validation():
    cfg = sc.EngineConfig(k_count=4, gamma=0.5)
    assert cfg.sigma_prime is None  # adapted by solve within [gamma, gamma K]
    assert cfg.fixed_sigma_prime == 2.0
    assert sc.EngineConfig(k_count=4, sigma_prime=3.0).fixed_sigma_prime == 3.0
    with pytest.raises(ValueError):
        sc.EngineConfig(k_count=0)
    with pytest.raises(ValueError):
        sc.EngineConfig(k_count=2, gamma=1.5)
    with pytest.raises(ValueError):
        sc.EngineConfig(k_count=2, gamma=0.5, sigma_prime=0.4)
    # each would return a result without a certificate, never stop, or
    # never move a coordinate
    for bad in ({"max_rounds": -3}, {"gap_tol": -1e-6}, {"gap_tol": -math.inf},
                {"gap_tol": math.nan}, {"sigma_prime": math.nan},
                {"sigma_prime": math.inf}, {"seed": -1}):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            sc.EngineConfig(k_count=2, **bad)
    assert sc.EngineConfig(k_count=2, max_rounds=0, gap_tol=math.inf)
    # counts that are not integers fail deep in numpy or (a seed) truncate
    for bad in ({"k_count": 2.0}, {"k_count": 1.5}, {"h_local": 1.5},
                {"max_rounds": 2.5}, {"seed": 1.5}, {"seed": None}):
        (name,) = bad
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sc.EngineConfig(**{"k_count": 2, **bad})
    assert sc.EngineConfig(k_count=np.int64(2), h_local=np.int32(3)).k_count == 2


def test_mismatched_partition_rejected():
    m, spec, p = desk_setup(seed=4, K=4)
    for rounds in (0, 1):  # refused before the zero start is certified
        cfg = sc.EngineConfig(k_count=2, max_rounds=rounds, gap_tol=0.0)
        with pytest.raises(ValueError,
                           match="config expects 2 workers, partition has 4"):
            sc.solve(cfg, spec, m, p)


def test_hand_round_on_a_non_contiguous_partition_keeps_v_equal_to_a_alpha():
    # each worker's update lands on its own view's block, whatever columns
    # that block holds: no second statement of the partition can disagree
    m, b, _ = regression_instance(seed=3, n=4, d=12)
    spec = lasso_objective(m, b)
    p = sc.Partition((np.array([0, 2]), np.array([1, 3])))
    cfg = sc.EngineConfig(k_count=2, max_rounds=1, gap_tol=0.0)
    state, results = hand_round(sc.SolverState.initial(m), cfg, spec, m, p)
    assert all(len(r.changed) for r in results)
    eng.check_v(m, state.alpha, state.v)


def test_single_worker_big_budget_decreases_primal():
    m, spec, p = desk_setup(K=1)
    cfg = sc.EngineConfig(k_count=1, h_local=200, max_rounds=1, gap_tol=0.0, seed=1)
    state0 = sc.SolverState.initial(m)
    p0 = sc.primal_value(spec, m, state0.alpha, state0.v)
    state1, _ = hand_round(state0, cfg, spec, m, p)
    p1 = sc.primal_value(spec, m, state1.alpha, state1.v)
    assert p1 <= p0


def test_dead_zone_lambda_is_fixed_point():
    m, b, _ = regression_instance(seed=6)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    lam = 1.05 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(fit, "l1", lam)
    p = sc.partition_columns(m.n_cols, 4)
    cfg = sc.EngineConfig(k_count=4, h_local=3, max_rounds=5, gap_tol=1e-10, seed=2)
    res = sc.solve(cfg, spec, m, p)
    assert res.stop_reason == "gap_tol"
    assert res.state.round == 0
    assert np.array_equal(res.state.alpha, np.zeros(m.n_cols))


def test_round_is_deterministic():
    m, spec, p = desk_setup(seed=7)
    cfg = sc.EngineConfig(k_count=4, h_local=3, max_rounds=12, gap_tol=0.0,
                          seed=9)
    r1 = sc.solve(cfg, spec, m, p)
    r2 = sc.solve(cfg, spec, m, p)
    assert np.array_equal(r1.state.alpha, r2.state.alpha)
    assert np.array_equal(r1.state.v, r2.state.v)
    assert [t.gap for t in r1.traces] == [t.gap for t in r2.traces]


def divergent_setup(kind):
    """K=16, sigma' = 1 < gamma K, H=20: unsafe scaling that diverges."""
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=200, d=100, density=0.3, true_nnz=15, noise_sd=0.1, seed=0))
    m.normalize_columns()
    spec = lasso_objective(m, b, frac=0.1)
    if kind == "elastic_net":
        spec = sc.make_objective(spec.data_fit, "elastic_net", spec.reg.lam,
                                 eta=0.5)
    cfg = sc.EngineConfig(k_count=16, h_local=20, sigma_prime=1.0,
                          max_rounds=30, gap_tol=0.0, seed=0)
    return m, spec, sc.partition_columns(m.n_cols, 16), cfg


def test_l1_barrier_keeps_coefficients_in_box():
    # sigma' = 1 < gamma K lets local steps clamp at the box; rebuilding
    # alpha + gamma (total - start) at the barrier used to land 1 ulp past B
    m, spec, p, cfg = divergent_setup("l1")
    state = sc.SolverState.initial(m)
    for _ in range(30):
        state, _ = hand_round(state, cfg, spec, m, p)
        assert np.max(np.abs(state.alpha)) <= spec.reg.support_bound
        assert sc.duality_gap(spec, m, state.alpha, state.v).gap >= -1e-9
    assert state.round == 30
    assert sc.solve(cfg, spec, m, p).stop_reason == "diverged"


@pytest.mark.parametrize("kind", ["l1", "elastic_net"])
def test_divergent_run_stops_at_its_last_certificate(kind):
    m, spec, p, cfg = divergent_setup(kind)
    res = sc.solve(cfg, spec, m, p)
    assert res.stop_reason == "diverged"
    assert [t.round for t in res.traces] == list(range(res.state.round + 1))
    last = res.traces[-1]
    assert last.round == res.state.round < cfg.max_rounds
    assert last.primal > res.traces[0].primal
    assert last.primal == sc.primal_value(spec, m, res.state.alpha,
                                          res.state.v)


def test_hand_stepped_round_warns_where_solve_stops_diverged(pass_kernel):
    # gamma = sigma' = 1e-300: each of the two workers alone moves v[0] by
    # about 1e308 from the zero start, and their sum at the barrier
    # overflows. A caller stepping by hand gets no stop reason, so the
    # round stays loud; solve reports the overflow as its stop reason.
    m = sc.ColMatrix.from_columns(1, [[(0, 1.0)], [(0, 1.0)]])
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=np.array([1e8]))
    spec = sc.make_objective(fit, "elastic_net", 1e-3, eta=1e-300)
    cfg = sc.EngineConfig(k_count=2, gamma=1e-300, sigma_prime=1e-300,
                          max_rounds=5, gap_tol=0.0)
    p = sc.partition_columns(2, 2)
    state = sc.SolverState.initial(m)
    cert = sc.duality_gap(spec, m, state.alpha, state.v)
    assert math.isfinite(cert.gap)
    views = eng._build_views(state, cfg.fixed_sigma_prime, spec, cert,
                             [sc.BlockColumns(m, b) for b in p.blocks])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            eng.run_round(state, cfg, views)
        res = sc.solve(cfg, spec, m, p)
    assert res.stop_reason == "diverged"
    assert res.state.round == res.traces[-1].round == 0


def poisoned_round_solve(m, spec, p, poison, monkeypatch, sign=1.0):
    """Solve with round 3 poisoned: v[0] = sign * inf or NaN, or a finite
    alpha[0] = 1e200 whose f(v) or l(alpha) is not. The run must stop as
    diverged at the state certified before it, without a numpy warning.
    sigma' is fixed at gamma K so that round 3 is applied; the adaptive
    default rejects it and discards the poison."""
    cfg = sc.EngineConfig(k_count=4, h_local=2, sigma_prime=4.0,
                          max_rounds=10, gap_tol=0.0, seed=2)
    real = eng.run_round

    def poisoned(*args, **kwargs):
        new, results = real(*args, **kwargs)
        if new.round == 3:
            if poison == "overflow":
                new.alpha[0] = 1e200
                new.v = m.mat_vec(new.alpha)
            else:
                new.v[0] = sign * float(poison)
        return new, results

    monkeypatch.setattr(eng, "run_round", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = sc.solve(cfg, spec, m, p)
    assert res.stop_reason == "diverged"
    assert res.state.round == 2
    assert [t.round for t in res.traces] == [0, 1, 2]
    for tr in res.traces:
        assert all(math.isfinite(x) for x in (tr.primal, tr.dual, tr.gap,
                                              tr.nnz, tr.local_updates))
    monkeypatch.setattr(eng, "run_round", real)
    cfg.max_rounds = 2
    ref = sc.solve(cfg, spec, m, p)
    assert np.array_equal(res.state.alpha, ref.state.alpha)
    assert np.array_equal(res.state.v, ref.state.v)
    return res


@pytest.mark.parametrize("poison", ["inf", "nan", "overflow"])
def test_non_finite_round_stops_the_run_at_its_last_certificate(
        poison, monkeypatch):
    # a round whose v or certificate is not finite gets no trace row
    m, spec, p = desk_setup(seed=28, kind="enet")
    poisoned_round_solve(m, spec, p, poison, monkeypatch)


@pytest.mark.parametrize("poison", ["inf", "nan", "overflow"])
def test_non_finite_logistic_round_stops_the_run_at_its_last_certificate(
        poison, monkeypatch):
    # the line search takes t = 1 at a non-finite P(1), doubling no
    # further; v[0] = -b[0] inf makes the loss at row 0 infinite
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=40, d=24, density=0.4, true_nnz=5, noise_sd=0.1, seed=28),
        classification=True)
    spec = sc.make_objective(sc.DataFit(kind=sc.LOGISTIC, labels=b),
                             "elastic_net", 0.3, eta=0.5)
    res = poisoned_round_solve(m, spec, sc.partition_columns(40, 4), poison,
                               monkeypatch, sign=-b[0])
    assert len(res.diagnostics["step"]) == 3
    assert res.diagnostics["step"][2] == 1.0


@pytest.mark.parametrize("rounds", [400, 2000])
def test_non_finite_run_stops_at_its_last_finite_certificate(rounds,
                                                              pass_kernel,
                                                              monkeypatch):
    # left alone, the elastic-net iterate overflows within `rounds` rounds:
    # at 400 alpha is finite but its penalty is not, at 2000 it is NaN.
    # Every round is certified, so the primal rule stops the run long
    # before that; the first round is poisoned the same way instead
    m, spec, p, cfg = divergent_setup("elastic_net")
    cfg.max_rounds = rounds
    real = eng.run_round

    def poisoned(*args, **kwargs):
        new, results = real(*args, **kwargs)
        if rounds == 400:
            new.alpha[0] = 1e200
            new.v = m.mat_vec(new.alpha)
        else:
            new.alpha[0] = new.v[0] = math.nan
        return new, results

    monkeypatch.setattr(eng, "run_round", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = sc.solve(cfg, spec, m, p)
    assert res.stop_reason == "diverged"
    assert res.state.round == res.traces[-1].round == 0
    for tr in res.traces:
        assert all(math.isfinite(x) for x in (tr.primal, tr.dual, tr.gap,
                                              tr.nnz, tr.local_updates))
    assert np.array_equal(res.state.alpha, np.zeros(m.n_cols))


def test_nan_update_is_accepted_and_stops_as_diverged(monkeypatch):
    # the alignment test passes a NaN update instead of rejecting it round
    # after round (doubling sigma') until the budget runs out
    m, spec, p = desk_setup(seed=28, kind="enet")
    cfg = sc.EngineConfig(k_count=4, h_local=2, max_rounds=10, gap_tol=0.0,
                          seed=2)
    real = eng.solve_local

    def poisoned(view, h, seed):
        res = real(view, h, seed)
        if view.columns.block[0] == p.blocks[1][0]:
            res.delta_v[0] = math.nan
        return res

    monkeypatch.setattr(eng, "solve_local", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = sc.solve(cfg, spec, m, p)
    assert res.stop_reason == "diverged"
    assert res.state.round == 0 and len(res.traces) == 1
    assert res.diagnostics["rejected_rounds"] == 0
    assert res.diagnostics["sigma_prime"] == [cfg.gamma]


def test_non_finite_zero_start_is_an_input_error():
    m, b, _ = regression_instance(seed=3, n=20, d=10)
    spec = enet_objective(1e160 * b)  # f(0) = ||b||^2 / 2 overflows
    cfg = sc.EngineConfig(k_count=2, max_rounds=5, gap_tol=1e-6)
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="not finite at the zero start"):
        sc.solve(cfg, spec, m, sc.partition_columns(20, 2))


def test_solve_refuses_a_column_whose_squared_norm_overflows():
    # column 1's curvature would be inf: every step would leave it at 0
    # and the gap would stall at 0.1238 for all of max_rounds
    m = sc.ColMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], [3.0, 4.0, 1e200, 1.0])
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=np.array([1.0, 2.0]))
    spec = sc.make_objective(fit, "l1", 0.1)
    cfg = sc.EngineConfig(k_count=1, max_rounds=1000, gap_tol=1e-6)
    with pytest.raises(ValueError, match=r"^column 1: its squared norm .*"
                       r"\(ColMatrix\.normalize_columns, --normalize\)$"):
        sc.solve(cfg, spec, m, sc.partition_columns(2, 1))
    m.normalize_columns()
    assert sc.solve(cfg, spec, m,
                    sc.partition_columns(2, 1)).stop_reason == "gap_tol"


def test_check_v_detects_stale_v():
    m, b, _ = regression_instance(seed=24)
    a = np.ones(m.n_cols) * 0.01
    with pytest.raises(RuntimeError, match="drifted"):
        eng.check_v(m, a, np.zeros(m.n_rows))
    assert eng.check_v(m, a, m.mat_vec(a)) <= 1e-12
    a[0] = np.inf
    with np.errstate(invalid="ignore"):
        assert not math.isfinite(eng.check_v(m, a, m.mat_vec(a)))


def test_infinite_gap_tol_does_no_work():
    m, spec, p = desk_setup(seed=8)
    cfg = sc.EngineConfig(k_count=4, max_rounds=100, gap_tol=math.inf, seed=0)
    res = sc.solve(cfg, spec, m, p)
    assert res.state.round == 0
    assert len(res.traces) == 1
    assert res.stop_reason == "gap_tol"


def test_round_aborts_transactionally_on_worker_failure(monkeypatch):
    m, spec, p = desk_setup(seed=9)
    cfg = sc.EngineConfig(k_count=4, h_local=2, max_rounds=3, gap_tol=0.0, seed=1)
    state = sc.SolverState.initial(m)
    alpha_before = state.alpha.copy()
    v_before = state.v.copy()

    real = eng.solve_local
    calls = {"n": 0}

    def flaky(view, h, seed):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("worker died")
        return real(view, h, seed)

    monkeypatch.setattr(eng, "solve_local", flaky)
    with pytest.raises(RuntimeError):
        hand_round(state, cfg, spec, m, p)
    assert np.array_equal(state.alpha, alpha_before)
    assert np.array_equal(state.v, v_before)


def test_monotone_primal_descent_gamma_one():
    m, spec, p = desk_setup(seed=10, kind="enet")
    cfg = sc.EngineConfig(k_count=4, h_local=2, max_rounds=60, gap_tol=0.0, seed=3)
    res = sc.solve(cfg, spec, m, p)
    primals = [t.primal for t in res.traces]
    for a, b in zip(primals, primals[1:]):
        assert b <= a + 1e-10


def test_v_consistency_along_run():
    m, spec, p = desk_setup(seed=11)
    cfg = sc.EngineConfig(k_count=4, h_local=2, max_rounds=40, gap_tol=0.0, seed=4)
    res = sc.solve(cfg, spec, m, p)
    ref = m.mat_vec(res.state.alpha)
    assert np.max(np.abs(res.state.v - ref)) <= 1e-8 * (1 + np.max(np.abs(res.state.v)))


def test_gap_decay_shape_elastic_net():
    m, spec, p = desk_setup(seed=13, kind="enet")
    cfg = sc.EngineConfig(k_count=4, h_local=4, max_rounds=200, gap_tol=1e-9, seed=6)
    res = sc.solve(cfg, spec, m, p)
    gaps = np.array([t.gap for t in res.traces if t.gap > 1e-12])
    # eventually decreasing with per-round ratio bounded below 1
    tail = gaps[len(gaps) // 3:]
    ratios = tail[1:] / tail[:-1]
    assert np.median(ratios) < 1.0
    assert tail[-1] < tail[0]


def test_solve_deterministic_traces():
    m, spec, p = desk_setup(seed=14, K=3)
    cfg = sc.EngineConfig(k_count=3, h_local=2, max_rounds=25, gap_tol=0.0, seed=7)
    r1 = sc.solve(cfg, spec, m, p)
    r2 = sc.solve(cfg, spec, m, p)
    assert [t.round for t in r1.traces] == list(range(r1.state.round + 1))
    assert r1.traces == r2.traces


def test_check_lemma3_zero_delta_tight():
    m, spec, p = desk_setup(seed=15)
    v = m.mat_vec(np.zeros(m.n_cols))
    w = sc.f_grad(spec.data_fit, v)
    f_share = sc.f_value(spec.data_fit, v) / p.k_count
    gamma = 0.7
    rhs = (1 - gamma) * sc.primal_value(spec, m, np.zeros(m.n_cols), v)
    for k in range(p.k_count):
        view = subproblem(
            m, p.blocks[k], w,
            alpha_block=np.zeros(len(p.blocks[k])), sigma_prime=gamma * 4,
            tau=1.0, reg=spec.reg, f_share=f_share)
        rhs += gamma * sc.subproblem_value(view, np.zeros(len(p.blocks[k])),
                                           np.zeros(m.n_rows))
    lhs = sc.primal_value(spec, m, np.zeros(m.n_cols), v)
    assert lhs - rhs == pytest.approx(0.0, abs=1e-12)


def test_check_lemma3_random_instances_safe():
    m, spec, p = desk_setup(seed=16, n=40, d=20)
    cfg = sc.EngineConfig(k_count=4)
    worst = sc.check_lemma3(spec, m, p, cfg, trials=300, seed=3)
    assert worst <= 1e-8


def test_check_lemma3_detects_unsafe_sigma():
    col = [(0, 1.0), (1, 0.5)]
    m = sc.ColMatrix.from_columns(4, [list(col) for _ in range(8)])
    m.normalize_columns()
    b = np.array([1.0, -0.5, 0.3, 0.2])
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    spec = sc.make_objective(fit, "l1", 0.5)
    p = sc.partition_columns(8, 4)
    # sigma' = gamma K / 4, below the safe gamma K
    cfg = sc.EngineConfig(k_count=4, sigma_prime=1.0)
    worst = sc.check_lemma3(spec, m, p, cfg, trials=100, seed=0)
    assert worst > 0


def test_check_lemma3_detects_a_too_large_logistic_tau(monkeypatch):
    # criterion 3's logistic instances, where random alpha saturate the loss
    instances = []
    for seed in (100, 102):
        m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
            n=40, d=20, density=0.5, true_nnz=6, noise_sd=0.2, seed=seed))
        labels = np.where(b < 0, -1.0, 1.0)
        instances.append((m, sc.make_objective(
            sc.DataFit(kind=sc.LOGISTIC, labels=labels), "l1", 0.3)))
    p, cfg = sc.partition_columns(40, 4), sc.EngineConfig(k_count=4)

    def worst():
        return max(sc.check_lemma3(spec, m, p, cfg, trials=200, seed=s)
                   for s, (m, spec) in enumerate(instances))

    assert worst() <= 1e-8
    # 16x the true smoothness constant: unsafe near v = 0, where f'' = 1/4
    monkeypatch.setattr(sc.DataFit, "tau", property(lambda self: 64.0))
    assert worst() > 0.1


def test_check_sigma_safety_k1_equals_gamma():
    m, _, _ = desk_setup(seed=17)
    p = sc.partition_columns(m.n_cols, 1)
    r = sc.check_sigma_safety(m, p, gamma=0.6, probes=8, seed=0)
    assert r == pytest.approx(0.6, abs=1e-12)


def test_check_sigma_safety_block_diagonal_is_gamma():
    # orthogonal blocks: every column of block k lives on rows owned by k
    cols = ([[(0, 1.0)], [(1, 1.0)]], [[(2, 1.0)], [(3, 1.0)]])
    m = sc.ColMatrix.from_columns(4, cols[0] + cols[1])
    p = sc.partition_columns(4, 2)
    r = sc.check_sigma_safety(m, p, gamma=1.0, probes=32, seed=1)
    assert r == pytest.approx(1.0, abs=1e-9)


def test_check_sigma_safety_duplicated_columns_tight():
    m = sc.ColMatrix.from_columns(3, [[(0, 1.0)] for _ in range(6)])
    p = sc.partition_columns(6, 3)
    r = sc.check_sigma_safety(m, p, gamma=1.0, probes=16, seed=2)
    assert r == pytest.approx(3.0, abs=1e-6)
    assert r <= 3.0 + 1e-9


def test_theory_round_bound_limits():
    m, b, _ = regression_instance(seed=18, n=10, d=8)
    enet = enet_objective(b, lam=0.5, eta=0.5)
    cfg = sc.EngineConfig(k_count=2, gap_tol=1e-6)
    assert math.isinf(sc.theory_round_bound(enet, m, cfg, theta=1.0))
    # mu*tau >> n: factor collapses to log(n/eps) / (gamma (1 - theta))
    big = enet_objective(b, lam=4e9, eta=0.5)
    got = sc.theory_round_bound(big, m, cfg, theta=0.25)
    limit = math.log(m.n_cols / cfg.gap_tol) / (cfg.gamma * 0.75)
    assert got == pytest.approx(limit, rel=1e-6)
    lasso = lasso_objective(m, b)
    with pytest.raises(ValueError):
        sc.theory_round_bound(lasso, m, cfg, theta=0.5)
    for theta in (-0.5, math.nan):
        with pytest.raises(ValueError, match="theta must lie in"):
            sc.theory_round_bound(enet, m, cfg, theta=theta)


def test_theory_round_bound_monotone_in_theta():
    m, b, _ = regression_instance(seed=19, n=12, d=8)
    spec = enet_objective(b)
    cfg = sc.EngineConfig(k_count=2, gap_tol=1e-6)
    t1 = sc.theory_round_bound(spec, m, cfg, theta=0.1)
    t2 = sc.theory_round_bound(spec, m, cfg, theta=0.9)
    assert t2 > t1


def test_partition_independence_of_optimum_small():
    m, b, _ = regression_instance(seed=21, n=24, d=16)
    m.normalize_columns()
    spec = lasso_objective(m, b, frac=0.25)
    finals = []
    for K in (1, 2, 4):
        p = sc.partition_columns(24, K)
        cfg = sc.EngineConfig(k_count=K, h_local=8, max_rounds=2000,
                              gap_tol=1e-8, seed=1)
        res = sc.solve(cfg, spec, m, p)
        assert res.stop_reason == "gap_tol"
        finals.append(res.traces[-1].primal)
    spread = max(finals) - min(finals)
    assert spread <= 1e-6 * max(1.0, abs(min(finals)))


def test_lasso_solution_is_sparse():
    m, spec, p = desk_setup(seed=24, n=48, d=32)
    cfg = sc.EngineConfig(k_count=4, h_local=6, max_rounds=2000, gap_tol=1e-8,
                          seed=1)
    res = sc.solve(cfg, spec, m, p)
    assert res.stop_reason == "gap_tol"
    assert res.traces[-1].nnz < m.n_cols


def test_diagnostics_record_normalization():
    m, spec, p = desk_setup(seed=25, K=2)
    cfg = sc.EngineConfig(k_count=2, max_rounds=2, gap_tol=0.0, seed=0)
    res = sc.solve(cfg, spec, m, p)
    assert res.diagnostics["columns_normalized"] is False
    m.normalize_columns()
    res = sc.solve(cfg, spec, m, p)
    assert res.diagnostics["columns_normalized"] is True


def test_worker_updates_sum_to_each_rounds_local_updates():
    # per-worker work of every round, h sweeps of each worker's active set
    m, spec, p = desk_setup(seed=6, K=4)
    cfg = sc.EngineConfig(k_count=4, h_local=3, max_rounds=200, gap_tol=1e-8,
                          seed=2)
    res = sc.solve(cfg, spec, m, p)
    per_round = res.diagnostics["worker_updates"]
    assert res.stop_reason == "gap_tol"
    assert len(per_round) == len(res.traces) - 1
    assert [sum(u) for u in per_round] == \
        [t.local_updates for t in res.traces[1:]]
    assert all(len(u) == 4 for u in per_round)
    assert all(0 <= x <= 3 * 10 and x % 3 == 0 for u in per_round for x in u)
    assert max(per_round[-1]) < max(per_round[0])


def test_solve_falls_back_to_python_without_a_compiler(monkeypatch):
    m, spec, p = desk_setup(seed=26, n=60, d=30)
    cfg = sc.EngineConfig(k_count=4, h_local=3, max_rounds=2000, gap_tol=1e-7,
                          seed=3)
    ref = sc.solve(cfg, spec, m, p)
    assert ref.diagnostics["kernel"] == local.kernel_name()
    monkeypatch.setattr(local.shutil, "which", lambda name: None)
    monkeypatch.setattr(local, "_kernel", local._UNBUILT)
    res = sc.solve(cfg, spec, m, p)
    assert res.diagnostics["kernel"] == "python"
    assert res.stop_reason == "gap_tol"
    assert all(tr.gap >= -1e-9 for tr in res.traces)
    assert eng.check_v(m, res.state.alpha, res.state.v) <= 1e-12
    assert res.traces[-1].gap <= cfg.gap_tol
    # the same run as on the kernel this process built, bit for bit
    assert repr(res.traces) == repr(ref.traces)
    assert res.state.alpha.tobytes() == ref.state.alpha.tobytes()
    assert res.state.v.tobytes() == ref.state.v.tobytes()


def test_random_partition_reaches_same_optimum():
    m, b, _ = regression_instance(seed=26, n=30, d=20)
    m.normalize_columns()
    spec = lasso_objective(m, b, frac=0.2)
    finals = []
    for p in (sc.partition_columns(30, 3),
              random_partition(np.random.default_rng(26), 30, 3)):
        res = sc.solve(sc.EngineConfig(k_count=3, h_local=8, max_rounds=3000,
                                       gap_tol=1e-9, seed=4), spec, m, p)
        assert res.stop_reason == "gap_tol"
        finals.append(res.traces[-1].primal)
    assert abs(finals[0] - finals[1]) <= 1e-6 * max(1.0, abs(finals[0]))


def test_frozen_columns_surface_in_diagnostics():
    cols = [[(0, 1.0)], [], [(1, -2.0)], []]
    m = sc.ColMatrix.from_columns(3, cols)
    b = np.array([1.0, 1.0, -1.0])
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    spec = sc.make_objective(fit, "l1", 0.05)
    p = sc.partition_columns(4, 2)
    for rounds in (5, 0):
        res = sc.solve(sc.EngineConfig(k_count=2, h_local=2, max_rounds=rounds,
                                       gap_tol=0.0, seed=0), spec, m, p)
        assert res.diagnostics["frozen_cols"] == 2
    # a block of zero-norm columns only makes no update; the other block
    # alone reaches the optimum of the single-worker run
    m = sc.ColMatrix.from_columns(3, [[(0, 1.0)], [(1, -2.0)], [], []])
    res, single = [sc.solve(sc.EngineConfig(k_count=k, h_local=2, max_rounds=100,
                                            gap_tol=1e-9, seed=0),
                            spec, m, sc.partition_columns(4, k))
                   for k in (2, 1)]
    assert res.stop_reason == single.stop_reason == "gap_tol"
    assert res.diagnostics["frozen_cols"] == 2
    assert res.traces[-1].primal == single.traces[-1].primal
    assert all(t.local_updates == 2 * 2 for t in res.traces[1:])


def test_round_given_its_views_computes_no_product_or_certificate(monkeypatch):
    # a round is the local solves plus the barrier: f(v), w and A^T w
    # arrive in its views
    m, spec, p = desk_setup(seed=24, n=16, d=10, K=2)
    cfg = sc.EngineConfig(k_count=2, h_local=2, max_rounds=1, gap_tol=0.0,
                          seed=1)
    state = sc.SolverState.initial(m)
    views = eng._build_views(state, cfg.fixed_sigma_prime, spec,
                             sc.duality_gap(spec, m, state.alpha, state.v),
                             [sc.BlockColumns(m, b) for b in p.blocks])
    calls = []
    for name in ("mat_vec", "mat_tvec"):
        real = getattr(sc.ColMatrix, name)
        monkeypatch.setattr(
            sc.ColMatrix, name,
            lambda self, x, name=name, real=real: calls.append(name)
            or real(self, x))
    monkeypatch.setattr(eng, "duality_gap",
                        lambda *args: calls.append("duality_gap"))
    new, results = eng.run_round(state, cfg, views)
    assert calls == []
    assert new.round == 1 and len(results) == 2
    assert np.any(new.alpha)


def test_views_reuse_the_certificate(monkeypatch):
    # every round starts from a certificate, whose f(v), w and A^T w the
    # round's views take instead of computing them
    m, spec, p = desk_setup(seed=23, n=16, d=10, K=2)
    calls = []
    real = eng.f_grad
    monkeypatch.setattr(eng, "f_grad",
                        lambda *args: calls.append(1) or real(*args))
    cfg = sc.EngineConfig(k_count=2, h_local=2, max_rounds=12, gap_tol=0.0,
                          seed=3)
    res = sc.solve(cfg, spec, m, p)
    assert len(res.traces) == 13
    assert calls == []


def random_partition(rng, n, k):
    """k blocks of a random permutation of n columns, each sorted."""
    return sc.Partition(tuple(np.sort(c) for c in
                              np.array_split(rng.permutation(n), k)))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), k=st.integers(1, 6),
       kind=st.sampled_from(["l1", "elastic_net"]),
       unsafe_sigma=st.booleans(), h=st.integers(1, 4))
def test_round_invariants_over_random_partitions(seed, k, kind, unsafe_sigma, h):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(max(k, 2), 30)), int(rng.integers(4, 20))
    m, b, _ = regression_instance(seed=seed, n=n, d=d)
    if rng.random() < 0.5:
        m.normalize_columns()
    spec = lasso_objective(m, b, frac=0.1) if kind == "l1" else enet_objective(b)
    p = random_partition(rng, n, k)
    # sigma' below gamma K is unsafe; only the box keeps L1 runs bounded
    sigma = 1.0 if unsafe_sigma and kind == "l1" else None
    cfg = sc.EngineConfig(k_count=k, h_local=h, sigma_prime=sigma,
                          max_rounds=8, gap_tol=0.0, seed=seed)
    state = sc.SolverState.initial(m)
    for _ in range(cfg.max_rounds):
        state, _ = hand_round(state, cfg, spec, m, p)
        v_ref = m.mat_vec(state.alpha)
        assert np.max(np.abs(state.v - v_ref)) \
            <= 1e-8 * (1.0 + np.max(np.abs(v_ref)))
        if kind == "l1":
            assert np.max(np.abs(state.alpha)) <= spec.reg.support_bound
        assert sc.duality_gap(spec, m, state.alpha, state.v).gap >= -1e-9


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), k=st.sampled_from([1, 2, 4]),
       kind=st.sampled_from(["lasso", "enet", "logistic"]),
       h=st.sampled_from([1, 3]), given_sigma=st.booleans())
def test_solve_is_bit_identical_with_and_without_the_kernel(seed, k, kind, h,
                                                            given_sigma):
    # long columns (30 to 108 entries expected), on which any summation
    # order other than the kernel's changes the last bits
    if local.kernel_name() != "c":
        pytest.skip("no C++ compiler to build the kernel with")
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(k + 2, 24)), int(rng.integers(60, 120))
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=n, d=d, density=float(rng.uniform(0.5, 0.9)), true_nnz=2,
        noise_sd=0.1, seed=seed), classification=kind == "logistic")
    if rng.random() < 0.5:
        m.normalize_columns()
    fit = sc.DataFit(kind=sc.LOGISTIC if kind == "logistic"
                     else sc.LEAST_SQUARES, labels=b)
    lam = 0.1 * float(np.max(np.abs(m.mat_tvec(sc.f_grad(fit, np.zeros(d))))))
    spec = sc.make_objective(fit, "elastic_net" if kind == "enet" else "l1",
                             lam, eta=0.5)
    p = random_partition(rng, n, k)
    cfg = sc.EngineConfig(k_count=k, h_local=h,
                          sigma_prime=float(k) if given_sigma else None,
                          max_rounds=30, gap_tol=0.0, seed=seed)
    kernel, runs = local._kernel, []
    with pytest.MonkeyPatch.context() as mp:
        for handle in (kernel, None):
            mp.setattr(local, "_kernel", handle)
            runs.append(sc.solve(cfg, spec, m, p))
    c, py = runs
    assert (c.diagnostics["kernel"], py.diagnostics["kernel"]) == ("c", "python")
    assert repr(c.traces) == repr(py.traces)
    assert c.state.alpha.tobytes() == py.state.alpha.tobytes()
    assert c.state.v.tobytes() == py.state.v.tobytes()


# ----------------------------------------------------------------------
# adaptive sigma' (the default)


def _solve_recording_rounds(cfg, spec, m, p):
    """solve, plus (input state, views, new state, results) of every
    run_round call; solve passes the input state on when it rejects a
    round."""
    calls = []
    real = eng.run_round

    def recording(state, cfg, views):
        new, results = real(state, cfg, views)
        calls.append((state, views, new, results))
        return new, results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "run_round", recording)
        return sc.solve(cfg, spec, m, p), calls


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), k=st.integers(2, 6),
       kind=st.sampled_from(["lasso", "enet", "logistic"]),
       h=st.integers(1, 4))
def test_accepted_rounds_satisfy_lemma3_and_never_raise_the_primal(
        seed, k, kind, h):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(k, 30)), int(rng.integers(3, 20))
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=n, d=d, density=float(rng.uniform(0.2, 0.8)), true_nnz=2,
        noise_sd=0.1, seed=seed), classification=kind == "logistic")
    if rng.random() < 0.5:
        m.normalize_columns()
    fit = sc.DataFit(kind=sc.LOGISTIC if kind == "logistic"
                     else sc.LEAST_SQUARES, labels=b)
    lam = 0.1 * float(np.max(np.abs(m.mat_tvec(sc.f_grad(fit, np.zeros(d))))))
    spec = sc.make_objective(fit, "elastic_net" if kind == "enet" else "l1",
                             max(lam, 1e-3), eta=0.5)
    p = random_partition(rng, n, k)
    gamma = float(rng.choice([1.0, 0.5]))
    cfg = sc.EngineConfig(k_count=k, h_local=h, gamma=gamma, max_rounds=25,
                          gap_tol=0.0, seed=seed)
    res, calls = _solve_recording_rounds(cfg, spec, m, p)
    assert res.stop_reason != "diverged"
    assert [t.round for t in res.traces] == list(range(res.state.round + 1))
    assert len(calls) == res.state.round
    assert res.diagnostics["sigma_prime"] == [views[0].sigma_prime
                                              for _, views, _, _ in calls]
    assert all(gamma <= s <= gamma * k for s in res.diagnostics["sigma_prime"])
    steps = res.diagnostics["step"]
    assert len(steps) == len(calls)
    if kind != "logistic":
        assert set(steps) <= {0.0, 1.0}
    successors = [state for state, _, _, _ in calls[1:]] + [res.state]
    for (state, views, new, results), nxt, t in zip(calls, successors, steps):
        if t == 0.0:  # rejected: the input state went on
            assert nxt.alpha is state.alpha and nxt.v is state.v
            continue
        if t == 1.0:
            assert nxt.alpha is new.alpha and nxt.v is new.v
        else:  # a logistic line-search step along the round's update
            assert np.array_equal(nxt.alpha,
                                  state.alpha + t * (new.alpha - state.alpha))
            assert np.array_equal(nxt.v, state.v + t * (new.v - state.v))
        if t < 1.0:  # a misaligned candidate, not bound by Lemma 3
            continue
        # the data-fit half of Lemma 3, with f evaluated directly
        fv = sc.f_value(fit, state.v)
        total = sum(r.delta_v for r in results)
        sq = sum(float(np.dot(r.delta_v, r.delta_v)) for r in results)
        sigma = views[0].sigma_prime
        w = sc.duality_gap(spec, m, state.alpha, state.v).w
        rhs = fv + gamma * float(np.dot(w, total)) \
            + gamma * sigma / (2.0 * fit.tau) * sq
        assert sc.f_value(fit, new.v) <= rhs + 1e-9 * abs(fv)
    assert steps.count(0.0) == res.diagnostics["rejected_rounds"]
    primals = [t.primal for t in res.traces]
    for before, after in zip(primals, primals[1:]):
        assert after <= before + 1e-9 * abs(before)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), k=st.integers(1, 6),
       reg=st.sampled_from(["l1", "elastic_net"]), h=st.integers(1, 4),
       gamma=st.sampled_from([0.5, 1.0]))
def test_logistic_line_search_steps(seed, k, reg, h, gamma):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(max(k, 2), 30)), int(rng.integers(3, 20))
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=n, d=d, density=float(rng.uniform(0.2, 0.8)), true_nnz=2,
        noise_sd=0.1, seed=seed), classification=True)
    if rng.random() < 0.5:
        m.normalize_columns()
    fit = sc.DataFit(kind=sc.LOGISTIC, labels=b)
    lam = 0.1 * float(np.max(np.abs(m.mat_tvec(sc.f_grad(fit, np.zeros(d))))))
    spec = sc.make_objective(fit, reg, max(lam, 1e-3), eta=0.5)
    p = random_partition(rng, n, k)
    cfg = sc.EngineConfig(k_count=k, h_local=h, gamma=gamma, max_rounds=25,
                          gap_tol=0.0, seed=seed)
    res, calls = _solve_recording_rounds(cfg, spec, m, p)
    assert res.stop_reason != "diverged"
    assert len(res.diagnostics["step"]) == len(calls) == res.state.round
    successors = [state for state, _, _, _ in calls[1:]] + [res.state]
    primals = [t.primal for t in res.traces]
    for r, ((state, views, new, results), nxt, t) in enumerate(
            zip(calls, successors, res.diagnostics["step"])):
        sigma = views[0].sigma_prime
        aligned = sigma == gamma * k or eng._aligned(results, gamma, sigma)
        if t >= 1.0:
            assert aligned and t in [2.0 ** i for i in range(7)]
        else:
            assert not aligned
            assert t in [0.0] + [0.5 ** i for i in range(1, 11)]
        if 0.0 < t < 1.0:
            assert primals[r + 1] < primals[r]
        if t > 1.0:  # doubling stops only when P stops falling: allow
            # the rounding of the certificate's sum over all rows
            top = sc.primal_value(spec, m, new.alpha, new.v)
            assert primals[r + 1] <= top + 1e-12 * abs(top)
        if reg == "l1":
            assert np.max(np.abs(nxt.alpha)) <= spec.reg.support_bound
        sc.check_v(m, nxt.alpha, nxt.v)


def test_rejected_round_reuses_its_certificate(monkeypatch):
    # a rejected round hands back the state it started from, which _drive
    # certified already: no second drift check or certificate for it
    m, spec, p = desk_setup(seed=5, K=4)
    calls = {"check_v": 0, "duality_gap": 0}
    for name in calls:
        def counting(*args, real=getattr(eng, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(eng, name, counting)
    res = sc.solve(sc.EngineConfig(k_count=4, h_local=3, max_rounds=40,
                                   gap_tol=0.0, seed=1), spec, m, p)
    rejected = res.diagnostics["rejected_rounds"]
    assert rejected > 0
    assert len(res.traces) == res.state.round + 1 == 41
    assert calls == {"check_v": 41 - rejected, "duality_gap": 41 - rejected}
    rows = [(t.primal, t.dual, t.gap, t.nnz) for t in res.traces]
    assert sum(a == b for a, b in zip(rows, rows[1:])) >= rejected


@pytest.mark.parametrize("kind", ["l1", "elastic_net"])
def test_adaptive_sigma_converges_where_a_fixed_unsafe_one_diverges(kind):
    m, spec, p, fixed_cfg = divergent_setup(kind)
    assert sc.solve(fixed_cfg, spec, m, p).stop_reason == "diverged"
    cfg = sc.EngineConfig(k_count=16, h_local=20, max_rounds=3000,
                          gap_tol=1e-8, seed=0)
    res = sc.solve(cfg, spec, m, p)
    assert res.stop_reason == "gap_tol"
    assert res.diagnostics["rejected_rounds"] > 0
    ref = sc.solve(sc.EngineConfig(k_count=16, h_local=20, sigma_prime=16.0,
                                   max_rounds=3000, gap_tol=1e-8, seed=0),
                   spec, m, p)
    assert ref.stop_reason == "gap_tol"
    assert res.state.round < ref.state.round
    gap = max(res.traces[-1].gap, ref.traces[-1].gap)
    assert abs(res.traces[-1].primal - ref.traces[-1].primal) <= gap


def desk_grid_instance(kind):
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=400, d=200, density=0.05, true_nnz=20, noise_sd=0.1, seed=1),
        classification=kind == "logistic")
    m.normalize_columns()
    fit = sc.DataFit(kind=sc.LOGISTIC if kind == "logistic"
                     else sc.LEAST_SQUARES, labels=b)
    zero = np.zeros(m.n_rows)
    lam = 0.1 * float(np.max(np.abs(m.mat_tvec(sc.f_grad(fit, zero)))))
    spec = sc.make_objective(fit, "elastic_net" if kind == "enet" else "l1",
                             lam, eta=0.5)
    return m, spec, 1e-6 * sc.f_value(fit, zero)


@pytest.mark.parametrize("kind", ["lasso", "enet"])
def test_adaptive_sigma_needs_no_more_rounds_than_gamma_k(kind):
    # round counts only: they are deterministic, timings are not
    m, spec, tol = desk_grid_instance(kind)
    for k in (4, 16):
        p = sc.partition_columns(m.n_cols, k)
        runs = [sc.solve(sc.EngineConfig(k_count=k, h_local=5,
                                         sigma_prime=sp, max_rounds=5000,
                                         gap_tol=tol), spec, m, p)
                for sp in (None, float(k))]
        assert [r.stop_reason for r in runs] == ["gap_tol", "gap_tol"]
        assert runs[0].state.round <= runs[1].state.round


@pytest.mark.parametrize("kind", ["lasso", "logistic"])
def test_adaptive_sigma_is_inert_on_one_worker(kind, tmp_path):
    m, spec, tol = desk_grid_instance(kind)
    p = sc.partition_columns(m.n_cols, 1)
    files = []
    for sp in (None, 0.5):
        res = sc.solve(sc.EngineConfig(k_count=1, h_local=2, gamma=0.5,
                                       sigma_prime=sp, max_rounds=200,
                                       gap_tol=tol), spec, m, p)
        assert res.diagnostics["rejected_rounds"] == 0
        assert set(res.diagnostics["sigma_prime"]) == {0.5}
        files.append(tmp_path / f"{sp}.csv")
        sc.write_trace(res.traces, files[-1])
    assert files[0].read_bytes() == files[1].read_bytes()
