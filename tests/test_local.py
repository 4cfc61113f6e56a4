import math
import shutil
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import shardcd as sc
from shardcd import local
from conftest import enet_objective, lasso_objective, random_matrix, regression_instance
from oracles import golden_min, local_solve_loop


def make_view(seed=1, n=12, d=8, kind="l1", sigma_prime=2.0, alpha_scale=0.2):
    rng = np.random.default_rng(seed)
    m, b, _ = regression_instance(seed=seed, n=n, d=d)
    if kind == "l1":
        spec = lasso_objective(m, b, frac=0.2)
    else:
        spec = enet_objective(b, lam=0.5, eta=0.5)
    alpha = alpha_scale * rng.standard_normal(n)
    v = m.mat_vec(alpha)
    block = np.arange(n, dtype=np.int64)
    return sc.SubproblemView(
        matrix=m, block=block, w=sc.f_grad(spec.data_fit, v),
        alpha_block=alpha, sigma_prime=sigma_prime, tau=1.0, reg=spec.reg,
        f_share=sc.f_value(spec.data_fit, v) / 2.0), spec


def changes(res):
    """A local result's update as a position -> change map."""
    return dict(zip(res.changed.tolist(), res.delta_alpha.tolist()))


def one_dim_objective(view, z_other, j, delta_others):
    """Restriction of the local objective to coordinate j's total value."""
    alpha_j = float(view.alpha_block[j])

    def fn(a):
        delta = delta_others.copy()
        delta[j] = a - alpha_j
        z = z_other.copy()
        view.matrix.axpy_column(int(view.block[j]), a - alpha_j, z)
        return sc.subproblem_value(view, delta, z)

    return fn


def test_subproblem_value_at_zero():
    view, spec = make_view(seed=2)
    val = sc.subproblem_value(view, np.zeros(len(view.block)),
                              np.zeros(view.matrix.n_rows))
    ref = view.f_share + float(np.sum(sc.ell_value(view.reg, view.alpha_block)))
    assert val == pytest.approx(ref, rel=1e-12)


def test_subproblem_value_matches_dense_recompute():
    rng = np.random.default_rng(3)
    view, spec = make_view(seed=3)
    m = view.matrix
    delta = np.zeros(len(view.block))
    delta[[0, 4, 7]] = [0.3, -0.2, 0.05]
    z = np.zeros(m.n_rows)
    for j in np.flatnonzero(delta):
        m.axpy_column(int(view.block[j]), delta[j], z)
    # term-by-term recomputation
    lin = float(np.dot(view.w, z))
    quad = 0.5 * view.sigma_prime / view.tau * float(np.dot(z, z))
    pen = 0.0
    for j in range(len(view.block)):
        pen += sc.ell_value(view.reg, float(view.alpha_block[j] + delta[j]))
    ref = view.f_share + lin + quad + pen
    assert sc.subproblem_value(view, delta, z) == pytest.approx(ref, rel=1e-12)


def test_subproblem_quadratic_term_linear_in_sigma():
    view, _ = make_view(seed=4, sigma_prime=2.0)
    view2, _ = make_view(seed=4, sigma_prime=4.0)
    delta = np.zeros(len(view.block))
    delta[[1, 3]] = [0.4, -0.1]
    z = np.zeros(view.matrix.n_rows)
    for j in np.flatnonzero(delta):
        view.matrix.axpy_column(int(view.block[j]), delta[j], z)
    g1 = sc.subproblem_value(view, delta, z)
    g2 = sc.subproblem_value(view2, delta, z)
    quad1 = 0.5 * view.sigma_prime * float(np.dot(z, z))
    assert g2 - g1 == pytest.approx(quad1, rel=1e-10)


def test_coordinate_update_zero_gradient_stays_zero():
    l1 = sc.Regularizer(kind=sc.L1, lam=1.0, support_bound=10.0)
    en = sc.Regularizer(kind=sc.ELASTIC_NET, lam=1.0, eta=0.5)
    assert sc.coordinate_update(l1, 0.0, 0.0, 1.0) == 0.0
    assert sc.coordinate_update(en, 0.0, 0.0, 1.0) == 0.0


def test_coordinate_update_l1_closed_form():
    reg = sc.Regularizer(kind=sc.L1, lam=1.0, support_bound=10.0)
    assert sc.coordinate_update(reg, 0.0, -3.0, 1.0) == pytest.approx(2.0)


def test_coordinate_update_enet_closed_form():
    reg = sc.Regularizer(kind=sc.ELASTIC_NET, lam=1.0, eta=0.5)
    assert sc.coordinate_update(reg, 0.0, -3.0, 1.0) == pytest.approx(5.0 / 3.0)


def test_coordinate_update_rejects_bad_curvature():
    reg = sc.Regularizer(kind=sc.ELASTIC_NET, lam=1.0, eta=0.5)
    with pytest.raises(ValueError):
        sc.coordinate_update(reg, 0.0, 1.0, 0.0)


def test_coordinate_update_matches_golden_section():
    rng = np.random.default_rng(7)
    for kind in ("l1", "elastic_net"):
        for _ in range(200):
            q = float(rng.uniform(0.1, 10.0))
            g = float(rng.uniform(-5, 5))
            c = float(rng.uniform(-3, 3))
            lam = float(rng.uniform(0.05, 3.0))
            if kind == "l1":
                bound = float(rng.uniform(0.5, 20.0))
                reg = sc.Regularizer(kind=sc.L1, lam=lam, support_bound=bound)
                lo, hi = -bound, bound
            else:
                reg = sc.Regularizer(kind=sc.ELASTIC_NET, lam=lam,
                                     eta=float(rng.uniform(0.05, 1.0)))
                lo, hi = -60.0, 60.0

            def fn(a):
                return 0.5 * q * (a - c) ** 2 + g * (a - c) + sc.ell_value(reg, a)

            ref = golden_min(fn, lo, hi, iters=140)
            got = sc.coordinate_update(reg, c, g, q)
            assert got == pytest.approx(ref, abs=1e-8)


def test_manual_update_stream_is_monotone():
    for kind in ("l1", "elastic_net"):
        view, _ = make_view(seed=8, n=10, d=6, kind=kind, alpha_scale=0.5)
        rng = np.random.default_rng(8)
        m = view.matrix
        sp_tau = view.sigma_prime / view.tau
        delta = np.zeros(len(view.block))
        z = np.zeros(m.n_rows)
        prev = sc.subproblem_value(view, delta, z)
        for _ in range(200):
            j = int(rng.integers(0, len(view.block)))
            i = int(view.block[j])
            r, v = m.column(i)
            if len(v) == 0:
                continue
            c = float(view.alpha_block[j] + delta[j])
            g_lin = float(np.dot(v, view.w[r])) + sp_tau * float(np.dot(v, z[r]))
            q = sp_tau * float(np.dot(v, v))
            new = sc.coordinate_update(view.reg, c, g_lin, q)
            dlt = new - c
            if dlt != 0.0:
                delta[j] += dlt
                m.axpy_column(i, dlt, z)
            cur = sc.subproblem_value(view, delta, z)
            assert cur <= prev + 1e-12 * max(1.0, abs(prev))
            prev = cur


def test_solve_local_dead_zone_returns_zero_update():
    m, b, _ = regression_instance(seed=9, n=16, d=10)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    lam = 2.0 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(fit, "l1", lam)
    v = np.zeros(m.n_rows)
    view = sc.SubproblemView(
        matrix=m, block=np.arange(16, dtype=np.int64),
        w=sc.f_grad(fit, v), alpha_block=np.zeros(16),
        sigma_prime=1.0, tau=1.0, reg=spec.reg, f_share=sc.f_value(fit, v))
    res = sc.solve_local(view, h=3, seed=0)
    assert len(res.changed) == len(res.delta_alpha) == 0
    assert np.array_equal(res.delta_v, np.zeros(m.n_rows))
    assert res.updates_done == 48


def test_solve_local_single_column_is_exact():
    rng = np.random.default_rng(10)
    m, b, _ = regression_instance(seed=10, n=6, d=5)
    spec = lasso_objective(m, b, frac=0.2)
    alpha = 0.1 * rng.standard_normal(6)
    v = m.mat_vec(alpha)
    block = np.array([2], dtype=np.int64)
    view = sc.SubproblemView(
        matrix=m, block=block, w=sc.f_grad(spec.data_fit, v),
        alpha_block=alpha[block], sigma_prime=2.0, tau=1.0, reg=spec.reg,
        f_share=sc.f_value(spec.data_fit, v) / 3.0)
    res = sc.solve_local(view, h=1, seed=4)
    fn = one_dim_objective(view, np.zeros(m.n_rows), 0, np.zeros(1))
    a_ref = golden_min(fn, -spec.reg.support_bound, spec.reg.support_bound)
    a_got = float(alpha[2] + changes(res).get(0, 0.0))
    assert a_got == pytest.approx(a_ref, abs=1e-8)


def test_solve_local_deterministic():
    view, _ = make_view(seed=11, kind="elastic_net")
    r1 = sc.solve_local(view, h=4, seed=77)
    r2 = sc.solve_local(view, h=4, seed=77)
    assert np.array_equal(r1.changed, r2.changed)
    assert np.array_equal(r1.delta_alpha, r2.delta_alpha)
    assert np.array_equal(r1.delta_v, r2.delta_v)
    assert r1.updates_done == r2.updates_done


def test_solve_local_residual_consistency():
    view, _ = make_view(seed=12, n=20, d=12)
    res = sc.solve_local(view, h=5, seed=3)
    # ascending positions of the moved coordinates, and their changes
    assert res.changed.dtype == np.int64
    assert res.delta_alpha.dtype == np.float64
    assert 0 < len(res.changed) == len(res.delta_alpha) <= len(view.block)
    assert np.all(np.diff(res.changed) > 0)
    assert np.all(res.delta_alpha != 0.0)
    acc = np.zeros(view.matrix.n_cols)
    for j, dv in changes(res).items():
        acc[view.block[j]] += dv
    ref = view.matrix.mat_vec(acc)
    assert np.max(np.abs(res.delta_v - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))


def test_solve_local_matches_per_column_loop(pass_kernel):
    # tolerance fixed before the vectorized path was written: the only
    # arithmetic change is how each column's x_i^T w (and, in the C
    # kernel, x_i^T z) is summed
    rng = np.random.default_rng(31)
    for trial in range(40):
        kind = "l1" if trial % 2 else "elastic_net"
        n, d = int(rng.integers(4, 30)), int(rng.integers(3, 20))
        m, cols = random_matrix(rng, n=n, d=d, density=0.4)
        if trial % 3 == 0:
            cols[0] = []
            m = sc.ColMatrix.from_columns(d, cols)
        b = rng.standard_normal(d)
        fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
        lam = float(rng.uniform(0.05, 0.5)) * float(np.max(np.abs(m.mat_tvec(b))))
        spec = sc.make_objective(fit, kind, lam, eta=0.5)
        alpha = 0.3 * rng.standard_normal(n)
        v = m.mat_vec(alpha)
        block = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                   replace=False))
        view = sc.SubproblemView(
            matrix=m, block=block, w=sc.f_grad(fit, v),
            alpha_block=alpha[block], sigma_prime=float(rng.uniform(0.5, 4.0)),
            tau=1.0, reg=spec.reg, f_share=sc.f_value(fit, v))
        h = int(rng.integers(1, 4))
        res = sc.solve_local(view, h=h, seed=trial)
        delta, z, updates, clamps, frozen = local_solve_loop(view, h, trial)
        assert res.changed.tolist() == sorted(delta)
        for j, dv in delta.items():
            got, ref = alpha[block[j]] + changes(res)[j], alpha[block[j]] + dv
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        assert np.max(np.abs(res.delta_v - z), initial=0.0) \
            <= 1e-12 * max(1.0, np.max(np.abs(z), initial=0.0))
        assert (res.updates_done, res.clamp_hits, res.frozen_cols) == \
            (updates, clamps, frozen)


def needs_kernel():
    if local.kernel_name() != "c":
        pytest.skip("no C compiler to build the kernel with")


def test_kernel_builds_with_a_compiler_on_path():
    if not (shutil.which("cc") or shutil.which("gcc")):
        pytest.skip("no C compiler on PATH")
    assert local.kernel_name() == "c"


def test_kernel_matches_python_loop(monkeypatch):
    needs_kernel()
    c_pass = local._kernel

    def run(handle, fn, *args):
        monkeypatch.setattr(local, "_kernel", handle)
        return fn(*args)

    rng = np.random.default_rng(57)
    clamps = 0
    for trial in range(40):
        n, d = int(rng.integers(4, 30)), int(rng.integers(3, 20))
        m, _ = random_matrix(rng, n=n, d=d, density=0.4)
        b = rng.standard_normal(d)
        fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
        lam = float(rng.uniform(0.05, 0.5)) * float(np.max(np.abs(m.mat_tvec(b))))
        if trial % 2:  # an L1 box small enough for the clip to engage
            reg = sc.Regularizer(kind=sc.L1, lam=lam,
                                 support_bound=float(rng.uniform(0.05, 1.0)))
        else:
            reg = sc.Regularizer(kind=sc.ELASTIC_NET, lam=lam,
                                 eta=float(rng.uniform(0.1, 1.0)))
        bound = reg.penalty[2]
        alpha = np.clip(0.3 * rng.standard_normal(n), -bound, bound)
        v = m.mat_vec(alpha)
        block = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                   replace=False))
        view = sc.SubproblemView(
            matrix=m, block=block, w=sc.f_grad(fit, v),
            alpha_block=alpha[block], sigma_prime=float(rng.uniform(0.5, 4.0)),
            tau=1.0, reg=reg, f_share=sc.f_value(fit, v))
        h = int(rng.integers(1, 4))
        got = run(c_pass, sc.solve_local, view, h, trial)
        ref = run(None, sc.solve_local, view, h, trial)
        assert np.array_equal(got.changed, ref.changed)
        for j, dv in changes(ref).items():
            a, r = alpha[block[j]] + changes(got)[j], alpha[block[j]] + dv
            assert abs(a - r) <= 1e-12 * max(1.0, abs(r))
        scale = max(1.0, np.max(np.abs(ref.delta_v), initial=0.0))
        assert np.max(np.abs(got.delta_v - ref.delta_v), initial=0.0) <= 1e-12 * scale
        assert (got.updates_done, got.clamp_hits, got.frozen_cols) == \
            (ref.updates_done, ref.clamp_hits, ref.frozen_cols)
        clamps += ref.clamp_hits
        # the cyclic reference solve runs the same pass
        g_val = run(c_pass, local._cd_minimize, view, 50)[2]
        r_val = run(None, local._cd_minimize, view, 50)[2]
        assert abs(g_val - r_val) <= 1e-12 * max(1.0, abs(r_val))
    assert clamps > 0


def test_kernel_is_bit_identical_across_runs_and_threads():
    needs_kernel()
    view, _ = make_view(seed=41, n=30, d=20, kind="elastic_net")
    first = sc.solve_local(view, h=5, seed=9)
    with ThreadPoolExecutor(2) as pool:
        again = list(pool.map(lambda _: sc.solve_local(view, h=5, seed=9),
                              range(4)))
    for res in [sc.solve_local(view, h=5, seed=9)] + again:
        assert np.array_equal(res.changed, first.changed)
        assert res.delta_alpha.tobytes() == first.delta_alpha.tobytes()
        assert res.delta_v.tobytes() == first.delta_v.tobytes()
        assert res.clamp_hits == first.clamp_hits


def test_kernel_refuses_columns_outside_the_matrix():
    needs_kernel()
    view, _ = make_view(seed=3)
    cols = view.columns
    view.columns = sc.BlockColumns(cols.pool, cols.ids + view.matrix.n_cols,
                                   cols.sq)
    with pytest.raises(ValueError, match="do not match the matrix"):
        sc.solve_local(view, h=1, seed=0)


def test_solve_local_skips_zero_columns():
    cols = [[(0, 1.0)], [], [(1, -2.0)]]
    m = sc.ColMatrix.from_columns(3, cols)
    b = np.array([1.0, 1.0, -1.0])
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    spec = sc.make_objective(fit, "l1", 0.01)
    view = sc.SubproblemView(
        matrix=m, block=np.arange(3, dtype=np.int64), w=sc.f_grad(fit, np.zeros(3)),
        alpha_block=np.zeros(3), sigma_prime=1.0, tau=1.0, reg=spec.reg,
        f_share=sc.f_value(fit, np.zeros(3)))
    res = sc.solve_local(view, h=10, seed=1)
    assert res.frozen_cols == 1
    assert 1 not in res.changed


def test_measure_theta_zero_update_is_one():
    view, _ = make_view(seed=13, kind="elastic_net")
    res = sc.LocalResult(np.zeros(0, np.int64), np.zeros(0),
                         np.zeros(view.matrix.n_rows), 0)
    assert sc.measure_theta(view, res) == pytest.approx(1.0)


def test_measure_theta_oracle_budget_is_zero():
    view, _ = make_view(seed=14, kind="elastic_net", n=8, d=6)
    res = sc.solve_local(view, h=400, seed=5)
    assert sc.measure_theta(view, res) <= 1e-6


def test_measure_theta_monotone_in_budget():
    view, _ = make_view(seed=15, n=16, d=10)
    t1 = sc.measure_theta(view, sc.solve_local(view, h=1, seed=5))
    t100 = sc.measure_theta(view, sc.solve_local(view, h=100, seed=5))
    assert t100 <= t1


def test_measure_theta_already_optimal_block():
    # huge lambda: zero update is the exact minimizer, denominator ~ 0
    m, b, _ = regression_instance(seed=16, n=8, d=6)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    lam = 3.0 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(fit, "l1", lam)
    view = sc.SubproblemView(
        matrix=m, block=np.arange(8, dtype=np.int64),
        w=sc.f_grad(fit, np.zeros(m.n_rows)), alpha_block=np.zeros(8),
        sigma_prime=1.0, tau=1.0, reg=spec.reg,
        f_share=sc.f_value(fit, np.zeros(m.n_rows)))
    res = sc.solve_local(view, h=1, seed=0)
    assert sc.measure_theta(view, res) == 0.0


def test_shotgun_configuration_matches_minibatch_cd():
    # one update per worker per round (single-column blocks), sigma' = 1,
    # aggregation gamma -> equals one mini-batch CD round of batch n,
    # damped by beta/b = gamma
    m, b, _ = regression_instance(seed=17, n=10, d=8)
    spec = lasso_objective(m, b, frac=0.1)
    gamma = 0.5
    n = m.n_cols
    p = sc.partition_columns(n, n)
    cfg = sc.EngineConfig(k_count=n, h_local=1, gamma=gamma, sigma_prime=1.0,
                          max_rounds=1, gap_tol=0.0, seed=2)
    state0 = sc.SolverState.initial(m)
    state1, _ = sc.run_round(state0, cfg, spec, m, p)

    ref = sc.mb_cd_round(state0, spec, m, n, gamma * n, 123, sc.duality_gap(
        spec, m, state0.alpha, state0.v))
    assert np.allclose(state1.alpha, ref.alpha, atol=1e-12)
    assert np.allclose(state1.v, ref.v, atol=1e-12)
