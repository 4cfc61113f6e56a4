import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import shardcd as sc
from shardcd import engine as eng
from shardcd import local
from conftest import enet_objective, lasso_objective, regression_instance


def desk_setup(seed=5, n=40, d=24, kind="l1", K=4):
    m, b, _ = regression_instance(seed=seed, n=n, d=d)
    spec = lasso_objective(m, b) if kind == "l1" else enet_objective(b)
    return m, spec, sc.partition_columns(n, K)


def test_config_defaults_and_validation():
    cfg = sc.EngineConfig(k_count=4, gamma=0.5)
    assert cfg.sigma_prime == pytest.approx(2.0)
    with pytest.raises(ValueError):
        sc.EngineConfig(k_count=0)
    with pytest.raises(ValueError):
        sc.EngineConfig(k_count=2, gamma=1.5)
    with pytest.raises(ValueError):
        sc.EngineConfig(k_count=2, gamma=0.5, sigma_prime=0.4)
    # each would return a result without a certificate, never stop, never
    # move a coordinate, or write a negative or NaN elapsed_ms
    for bad in ({"max_rounds": -3}, {"gap_tol": -1e-6}, {"gap_tol": -math.inf},
                {"gap_tol": math.nan}, {"sigma_prime": math.nan},
                {"sigma_prime": math.inf}, {"round_latency": -1.0},
                {"round_latency": math.nan}, {"round_latency": math.inf},
                {"update_cost": -1.0}, {"update_cost": math.nan},
                {"update_cost": math.inf}):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            sc.EngineConfig(k_count=2, **bad)
    assert sc.EngineConfig(k_count=2, max_rounds=0, gap_tol=math.inf)


def test_mismatched_partition_rejected():
    m, spec, p = desk_setup(seed=4, K=4)
    cfg = sc.EngineConfig(k_count=2, max_rounds=1, gap_tol=0.0)
    with pytest.raises(ValueError):
        sc.solve(cfg, spec, m, p)
    other = sc.partition_columns(m.n_cols - 1, 2)
    with pytest.raises(ValueError):
        sc.run_round(sc.SolverState.initial(m),
                     sc.EngineConfig(k_count=2, max_rounds=1, gap_tol=0.0),
                     spec, m, other)


def test_single_worker_big_budget_decreases_primal():
    m, spec, p = desk_setup(K=1)
    cfg = sc.EngineConfig(k_count=1, h_local=200, max_rounds=1, gap_tol=0.0, seed=1)
    state0 = sc.SolverState.initial(m)
    p0 = sc.primal_value(spec, m, state0.alpha, state0.v)
    state1, _ = sc.run_round(state0, cfg, spec, m, p)
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
        state, _ = sc.run_round(state, cfg, spec, m, p)
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


@pytest.mark.parametrize("poison", ["inf", "nan", "overflow"])
def test_non_finite_round_stops_the_run_at_its_last_certificate(
        poison, monkeypatch):
    # a round whose v or certificate is not finite gets no trace row: the
    # run stops as diverged at the state certified before it, without a
    # numpy warning
    m, spec, p = desk_setup(seed=28, kind="enet")
    cfg = sc.EngineConfig(k_count=4, h_local=2, max_rounds=10, gap_tol=0.0,
                          seed=2)
    real = eng.run_round

    def poisoned(*args, **kwargs):
        new, results = real(*args, **kwargs)
        if new.round == 3:
            if poison == "overflow":  # finite, but f(v) and l(alpha) are not
                new.alpha[0] = 1e200
                new.v = m.mat_vec(new.alpha)
            else:
                new.v[0] = float(poison)
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
                                              tr.nnz, tr.local_updates,
                                              tr.elapsed_ms))
    monkeypatch.setattr(eng, "run_round", real)
    cfg.max_rounds = 2
    ref = sc.solve(cfg, spec, m, p)
    assert np.array_equal(res.state.alpha, ref.state.alpha)
    assert np.array_equal(res.state.v, ref.state.v)


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
                                              tr.nnz, tr.local_updates,
                                              tr.elapsed_ms))
    assert np.array_equal(res.state.alpha, np.zeros(m.n_cols))


def test_non_finite_zero_start_is_an_input_error():
    m, b, _ = regression_instance(seed=3, n=20, d=10)
    spec = enet_objective(1e160 * b)  # f(0) = ||b||^2 / 2 overflows
    cfg = sc.EngineConfig(k_count=2, max_rounds=5, gap_tol=1e-6)
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="not finite at the zero start"):
        sc.solve(cfg, spec, m, sc.partition_columns(20, 2))


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
        eng.run_round(state, cfg, spec, m, p)
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
    assert [(t.round, t.primal, t.dual, t.gap, t.nnz, t.local_updates,
             t.elapsed_ms) for t in r1.traces] == \
           [(t.round, t.primal, t.dual, t.gap, t.nnz, t.local_updates,
             t.elapsed_ms) for t in r2.traces]


def test_check_lemma3_zero_delta_tight():
    m, spec, p = desk_setup(seed=15)
    v = m.mat_vec(np.zeros(m.n_cols))
    w = sc.f_grad(spec.data_fit, v)
    f_share = sc.f_value(spec.data_fit, v) / p.k_count
    gamma = 0.7
    rhs = (1 - gamma) * sc.primal_value(spec, m, np.zeros(m.n_cols), v)
    for k in range(p.k_count):
        view = sc.SubproblemView(
            matrix=m, block=p.blocks[k], w=w,
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
    cfg = sc.EngineConfig(k_count=4)
    worst = sc.check_lemma3(spec, m, p, cfg, trials=100, seed=0, sigma_scale=0.1)
    assert worst > 0


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


def test_theory_round_bound_monotone_in_theta():
    m, b, _ = regression_instance(seed=19, n=12, d=8)
    spec = enet_objective(b)
    cfg = sc.EngineConfig(k_count=2, gap_tol=1e-6)
    t1 = sc.theory_round_bound(spec, m, cfg, theta=0.1)
    t2 = sc.theory_round_bound(spec, m, cfg, theta=0.9)
    assert t2 > t1


def test_block_sigma_k_examples():
    single = sc.ColMatrix.from_columns(3, [[(1, 1.0)]])
    p1 = sc.partition_columns(1, 1)
    assert sc.block_sigma_k(single, p1, 0) == pytest.approx(1.0, abs=1e-9)

    dup = sc.ColMatrix.from_columns(3, [[(0, 1.0)], [(0, 1.0)]])
    p2 = sc.partition_columns(2, 1)
    assert sc.block_sigma_k(dup, p2, 0) == pytest.approx(2.0, abs=1e-9)


def test_block_sigma_k_bounded_by_block_size_when_normalized():
    m, _, _ = desk_setup(seed=20, n=32, d=16)
    m.normalize_columns()
    p = sc.partition_columns(32, 4)
    for k in range(4):
        sig = sc.block_sigma_k(m, p, k, power_iters=40)
        assert sig <= len(p.blocks[k]) + 1e-6


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


def test_simulated_timing_is_deterministic_and_configurable():
    m, spec, p = desk_setup(seed=22)
    cfg = sc.EngineConfig(k_count=4, h_local=2, max_rounds=6, gap_tol=0.0,
                          seed=3, round_latency=0.1, update_cost=1e-6)
    res = sc.solve(cfg, spec, m, p)
    for t in res.traces[1:]:
        assert t.elapsed_ms == pytest.approx(100.0 + 1e-3 * t.local_updates)
    assert res.diagnostics["sim_elapsed_s"] == pytest.approx(
        sum(0.1 + 1e-6 * t.local_updates for t in res.traces[1:]))


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
    # the same run as on the kernel this process built, up to the last bits
    assert len(res.traces) == len(ref.traces)
    for a, b in zip(res.traces, ref.traces):
        assert abs(a.primal - b.primal) <= 1e-12 * abs(b.primal)


def test_round_robin_partition_reaches_same_optimum():
    m, b, _ = regression_instance(seed=26, n=30, d=20)
    m.normalize_columns()
    spec = lasso_objective(m, b, frac=0.2)
    finals = []
    for strategy in ("contiguous", "round_robin"):
        p = sc.partition_columns(30, 3, strategy=strategy)
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
    res = sc.solve(sc.EngineConfig(k_count=2, h_local=2, max_rounds=5,
                                   gap_tol=0.0, seed=0), spec, m, p)
    assert res.diagnostics["frozen_cols"] == 2


def test_estimate_theta_reuses_the_certificate(monkeypatch):
    # every round starts from a certificate, whose f(v), w and A^T w the
    # round's views and the theta estimate take instead of computing them
    m, spec, p = desk_setup(seed=23, n=16, d=10, K=2)
    calls = []
    real = eng.f_grad
    monkeypatch.setattr(eng, "f_grad",
                        lambda *args: calls.append(1) or real(*args))
    cfg = sc.EngineConfig(k_count=2, h_local=2, max_rounds=12, gap_tol=0.0,
                          seed=3, estimate_theta=True)
    res = sc.solve(cfg, spec, m, p)
    assert len(res.traces) == 13
    assert all(t.theta_estimate is not None for t in res.traces[1:])
    assert calls == []


def test_estimate_theta_recorded_in_trace():
    m, spec, p = desk_setup(seed=23, n=16, d=10, K=2)
    cfg = sc.EngineConfig(k_count=2, h_local=2, max_rounds=4, gap_tol=0.0,
                          seed=3, estimate_theta=True)
    res = sc.solve(cfg, spec, m, p)
    assert all(t.theta_estimate is not None for t in res.traces[1:])
    assert all(0.0 <= t.theta_estimate <= 1.0 for t in res.traces[1:])


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
    perm = rng.permutation(n)
    blocks = tuple(np.sort(c) for c in np.array_split(perm, k))
    owner = np.empty(n, dtype=np.int64)
    for kk, blk in enumerate(blocks):
        owner[blk] = kk
    p = sc.Partition(k_count=k, blocks=blocks, owner=owner)
    # sigma' below gamma K is unsafe; only the box keeps L1 runs bounded
    sigma = 1.0 if unsafe_sigma and kind == "l1" else None
    cfg = sc.EngineConfig(k_count=k, h_local=h, sigma_prime=sigma,
                          max_rounds=8, gap_tol=0.0, seed=seed)
    state = sc.SolverState.initial(m)
    for _ in range(cfg.max_rounds):
        state, _ = sc.run_round(state, cfg, spec, m, p)
        v_ref = m.mat_vec(state.alpha)
        assert np.max(np.abs(state.v - v_ref)) \
            <= 1e-8 * (1.0 + np.max(np.abs(v_ref)))
        if kind == "l1":
            assert np.max(np.abs(state.alpha)) <= spec.reg.support_bound
        assert sc.duality_gap(spec, m, state.alpha, state.v).gap >= -1e-9
