import ctypes
import dataclasses
import math
import os
import re
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import shardcd as sc
from shardcd import local
from conftest import (enet_objective, hand_round, lasso_objective, random_matrix,
                      regression_instance, subproblem)
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
    return subproblem(
        m, block, sc.f_grad(spec.data_fit, v),
        alpha_block=alpha, sigma_prime=sigma_prime, tau=1.0, reg=spec.reg,
        f_share=sc.f_value(spec.data_fit, v) / 2.0), spec


def view_grad(view, spec):
    """The data-fit gradient w a make_view view was built from."""
    return sc.f_grad(spec.data_fit, view.columns.matrix.mat_vec(view.alpha_block))


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
        view.columns.matrix.axpy_column(int(view.columns.block[j]), a - alpha_j, z)
        return sc.subproblem_value(view, delta, z)

    return fn


def test_view_requires_the_driver_inputs():
    # xw = (A^T w)[block] and the block's columns come from the driver,
    # once per round; a view never computes them itself
    m, b, _ = regression_instance(seed=2, n=6, d=5)
    spec = lasso_objective(m, b)
    block = np.arange(6, dtype=np.int64)
    w = sc.f_grad(spec.data_fit, np.zeros(m.n_rows))
    full = dict(alpha_block=np.zeros(6), sigma_prime=1.0, tau=1.0, reg=spec.reg,
                xw=m.mat_tvec(w)[block], columns=sc.BlockColumns.of(m, block))
    assert sc.SubproblemView(**full).xw is full["xw"]
    for missing in ("xw", "columns"):
        fields = {k: v for k, v in full.items() if k != missing}
        with pytest.raises(TypeError, match=missing):
            sc.SubproblemView(**fields)


def test_subproblem_value_at_zero():
    view, spec = make_view(seed=2)
    val = sc.subproblem_value(view, np.zeros(len(view.columns.block)),
                              np.zeros(view.columns.matrix.n_rows))
    ref = view.f_share + float(np.sum(sc.ell_value(view.reg, view.alpha_block)))
    assert val == pytest.approx(ref, rel=1e-12)


def test_subproblem_value_matches_dense_recompute():
    rng = np.random.default_rng(3)
    view, spec = make_view(seed=3)
    m = view.columns.matrix
    delta = np.zeros(len(view.columns.block))
    delta[[0, 4, 7]] = [0.3, -0.2, 0.05]
    z = np.zeros(m.n_rows)
    for j in np.flatnonzero(delta):
        m.axpy_column(int(view.columns.block[j]), delta[j], z)
    # term-by-term recomputation, the linear term as w^T z
    lin = float(np.dot(view_grad(view, spec), z))
    quad = 0.5 * view.sigma_prime / view.tau * float(np.dot(z, z))
    pen = 0.0
    for j in range(len(view.columns.block)):
        pen += sc.ell_value(view.reg, float(view.alpha_block[j] + delta[j]))
    ref = view.f_share + lin + quad + pen
    assert sc.subproblem_value(view, delta, z) == pytest.approx(ref, rel=1e-12)


def test_subproblem_quadratic_term_linear_in_sigma():
    view, _ = make_view(seed=4, sigma_prime=2.0)
    view2, _ = make_view(seed=4, sigma_prime=4.0)
    delta = np.zeros(len(view.columns.block))
    delta[[1, 3]] = [0.4, -0.1]
    z = np.zeros(view.columns.matrix.n_rows)
    for j in np.flatnonzero(delta):
        view.columns.matrix.axpy_column(int(view.columns.block[j]), delta[j], z)
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
    for q in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="curvature q must be positive"):
            sc.coordinate_update(reg, 0.0, 1.0, q)


def test_view_rejects_nan_scalings():
    # a NaN sigma' or tau fails every comparison in the shrinkage step,
    # which would set each drawn coordinate to 0.0
    view, _ = make_view(seed=1)
    for name in ("sigma_prime", "tau"):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            dataclasses.replace(view, **{name: math.nan})


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
        view, spec = make_view(seed=8, n=10, d=6, kind=kind, alpha_scale=0.5)
        rng = np.random.default_rng(8)
        m = view.columns.matrix
        w = view_grad(view, spec)
        sp_tau = view.sigma_prime / view.tau
        delta = np.zeros(len(view.columns.block))
        z = np.zeros(m.n_rows)
        prev = sc.subproblem_value(view, delta, z)
        for _ in range(200):
            j = int(rng.integers(0, len(view.columns.block)))
            i = int(view.columns.block[j])
            r, v = m.column(i)
            if len(v) == 0:
                continue
            c = float(view.alpha_block[j] + delta[j])
            g_lin = float(np.dot(v, w[r])) + sp_tau * float(np.dot(v, z[r]))
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
    view = subproblem(
        m, np.arange(16, dtype=np.int64),
        sc.f_grad(fit, v), alpha_block=np.zeros(16),
        sigma_prime=1.0, tau=1.0, reg=spec.reg, f_share=sc.f_value(fit, v))
    res = sc.solve_local(view, h=3, seed=0)
    assert len(res.changed) == len(res.delta_alpha) == 0
    assert np.array_equal(res.delta_v, np.zeros(m.n_rows))
    # every column sits at 0 below its threshold: the active set is empty
    assert res.updates_done == 0
    # and skipping the block is exact: h sweeps of the whole pool move nothing
    pool = view.columns.pool
    order = np.tile(np.arange(len(pool), dtype=np.int64), 3)
    totals, z = np.zeros(len(pool)), np.zeros(m.n_rows)
    local._coordinate_pass(view, order, totals, z)
    assert np.array_equal(totals, np.zeros(len(pool)))
    assert np.array_equal(z, np.zeros(m.n_rows))


def test_solve_local_single_column_is_exact():
    rng = np.random.default_rng(10)
    m, b, _ = regression_instance(seed=10, n=6, d=5)
    spec = lasso_objective(m, b, frac=0.2)
    alpha = 0.1 * rng.standard_normal(6)
    v = m.mat_vec(alpha)
    block = np.array([2], dtype=np.int64)
    view = subproblem(
        m, block, sc.f_grad(spec.data_fit, v),
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
    assert 0 < len(res.changed) == len(res.delta_alpha) <= len(view.columns.block)
    assert np.all(np.diff(res.changed) > 0)
    assert np.all(res.delta_alpha != 0.0)
    acc = np.zeros(view.columns.matrix.n_cols)
    for j, dv in changes(res).items():
        acc[view.columns.block[j]] += dv
    ref = view.columns.matrix.mat_vec(acc)
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
        w = sc.f_grad(fit, v)
        view = subproblem(
            m, block, w,
            alpha_block=alpha[block], sigma_prime=float(rng.uniform(0.5, 4.0)),
            tau=1.0, reg=spec.reg, f_share=sc.f_value(fit, v))
        h = int(rng.integers(1, 4))
        res = sc.solve_local(view, h=h, seed=trial)
        delta, z, updates, clamps = local_solve_loop(view, w, h, trial)
        assert res.changed.tolist() == sorted(delta)
        for j, dv in delta.items():
            got, ref = alpha[block[j]] + changes(res)[j], alpha[block[j]] + dv
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        assert np.max(np.abs(res.delta_v - z), initial=0.0) \
            <= 1e-12 * max(1.0, np.max(np.abs(z), initial=0.0))
        assert (res.updates_done, res.clamp_hits) == (updates, clamps)


def test_solve_local_sweeps_the_active_set_in_permutations(pass_kernel,
                                                           monkeypatch):
    # the order handed to the coordinate pass is h back-to-back
    # permutations of one set of pool positions, which holds every column
    # that is nonzero or violates |x_i^T w| <= l1, and a NaN x_i^T w
    orders = []
    real = local._coordinate_pass

    def spy(view, order, totals, z):
        orders.append(order.copy())
        return real(view, order, totals, z)

    monkeypatch.setattr(local, "_coordinate_pass", spy)
    rng = np.random.default_rng(61)
    for trial in range(60):
        n, d = int(rng.integers(4, 30)), int(rng.integers(3, 20))
        m, cols = random_matrix(rng, n=n, d=d, density=0.4)
        if trial % 3 == 0:
            cols[0] = []
            m = sc.ColMatrix.from_columns(d, cols)
        b = rng.standard_normal(d)
        fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
        lam = float(rng.uniform(0.1, 1.2)) * float(np.max(np.abs(m.mat_tvec(b))))
        spec = sc.make_objective(fit, "l1" if trial % 2 else "elastic_net",
                                 lam, eta=0.5)
        alpha = 0.3 * rng.standard_normal(n) * (rng.random(n) < 0.3)
        block = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                   replace=False))
        view = subproblem(
            m, block, sc.f_grad(fit, m.mat_vec(alpha)),
            alpha_block=alpha[block], sigma_prime=float(rng.uniform(0.5, 4.0)),
            tau=1.0, reg=spec.reg)
        pool = view.columns.pool
        if trial % 4 == 1 and len(pool):
            view.xw[pool[int(rng.integers(0, len(pool)))]] = math.nan
        xw, start = view.xw[pool], view.alpha_block[pool]
        must = np.flatnonzero((start != 0.0) | (np.abs(xw) > spec.reg.penalty[0])
                              | np.isnan(xw))
        h = int(rng.integers(1, 4))
        orders.clear()
        res = sc.solve_local(view, h=h, seed=trial)
        if not orders:
            assert len(must) == 0 and res.updates_done == 0
            continue
        (order,) = orders
        assert res.updates_done == len(order) and len(order) % h == 0
        epochs = order.reshape(h, -1)
        active = np.sort(epochs[0])
        assert np.all(np.diff(active) > 0) and active[-1] < len(pool)
        assert all(np.array_equal(np.sort(e), active) for e in epochs)
        assert np.isin(must, active).all()


def needs_kernel():
    if local.kernel_name() != "c":
        pytest.skip("no C++ compiler to build the kernel with")


def test_kernel_builds_with_a_compiler_on_path():
    if not (shutil.which("c++") or shutil.which("g++")):
        pytest.skip("no C++ compiler on PATH")
    assert local.kernel_name() == "c"


def test_native_source_compiles_without_warnings(tmp_path):
    cxx = shutil.which("c++") or shutil.which("g++")
    if cxx is None:
        pytest.skip("no C++ compiler on PATH")
    so = str(tmp_path / "lib.so")
    # as is and as strict C++17, then with the command _build_kernel runs
    for std in ([], ["-std=c++17", "-pedantic-errors"]):
        build = subprocess.run([cxx, *local._CFLAGS, "-Wall", "-Wextra",
                                "-Werror", *std, "-o", so, local._SOURCE],
                               capture_output=True, text=True, timeout=120)
        assert build.returncode == 0, build.stderr
    build = subprocess.run(local._build_command(cxx, so),
                           capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr


def test_package_data_ships_every_native_source():
    # an installed copy without a source the loader compiles runs the
    # Python loops
    tomllib = pytest.importorskip("tomllib")
    package = os.path.dirname(local.__file__)
    root = os.path.dirname(os.path.dirname(package))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        shipped = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    compiled = [os.path.basename(arg)
                for arg in local._build_command("c++", "lib.so")
                if os.path.dirname(arg) == package]
    assert compiled and set(compiled) <= set(shipped["shardcd"])


def test_every_native_entry_point_is_typed():
    # an untyped ctypes function returns a C int and passes Python ints as
    # C ints, which truncates 64-bit pointers and counts
    needs_kernel()
    with open(local._SOURCE) as fh:
        entries = re.findall(r'extern "C" (\w+) (\w+)\(([^)]*)\)', fh.read())
    assert len(entries) == 4
    for ret, name, params in entries:
        fn = getattr(local._kernel, name)
        assert (ret, fn.restype) == ("int64_t", ctypes.c_int64), name
        want = [ctypes.c_void_p if "*" in p else
                ctypes.c_double if p.split()[0] == "double" else ctypes.c_int64
                for p in params.split(",")]
        assert fn.argtypes == want, name


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
        view = subproblem(
            m, block, sc.f_grad(fit, v),
            alpha_block=alpha[block], sigma_prime=float(rng.uniform(0.5, 4.0)),
            tau=1.0, reg=reg, f_share=sc.f_value(fit, v))
        h = int(rng.integers(1, 4))
        got = run(c_pass, sc.solve_local, view, h, trial)
        ref = run(None, sc.solve_local, view, h, trial)
        assert np.array_equal(got.changed, ref.changed)
        assert got.delta_alpha.tobytes() == ref.delta_alpha.tobytes()
        assert got.delta_v.tobytes() == ref.delta_v.tobytes()
        assert (got.updates_done, got.clamp_hits) == \
            (ref.updates_done, ref.clamp_hits)
        clamps += ref.clamp_hits
        # the cyclic reference solve runs the same pass
        g_val = run(c_pass, local._cd_minimize, view, 50)
        r_val = run(None, local._cd_minimize, view, 50)
        assert g_val.hex() == r_val.hex()
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
    view.columns = sc.BlockColumns(cols.matrix, cols.block, cols.pool,
                                   cols.ids + cols.matrix.n_cols, cols.sq)
    with pytest.raises(ValueError, match="do not match the matrix"):
        sc.solve_local(view, h=1, seed=0)


def test_kernel_pass_is_bit_identical_to_a_sequential_sum(monkeypatch):
    # the Python loop sums each x_i^T z left to right, as the kernel does;
    # columns longer than the kernel's prefetched head (64 entries) and
    # step counts across its look-ahead of 8 and 16 steps, with the first
    # and last pool positions drawn at both ends of the order
    needs_kernel()
    c_pass = local._kernel
    rng = np.random.default_rng(83)
    d = 320
    columns = []
    for j in range(14):
        idx = np.flatnonzero(rng.random(d) < (0.8 if j % 3 else 0.05))
        columns.append(list(zip(idx.tolist(), rng.standard_normal(len(idx)).tolist())))
    m = sc.ColMatrix.from_columns(d, columns)
    assert np.max(np.diff(m.indptr)) > 200
    b = rng.standard_normal(d)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    lam = 0.05 * float(np.max(np.abs(m.mat_tvec(b))))
    clamps = 0
    for n_steps in range(40):
        if n_steps % 2:
            reg = sc.Regularizer(kind=sc.L1, lam=lam, support_bound=0.05)
        else:
            reg = sc.Regularizer(kind=sc.ELASTIC_NET, lam=lam, eta=0.5)
        block = np.arange(m.n_cols, dtype=np.int64)
        view = subproblem(
            m, block, sc.f_grad(fit, rng.standard_normal(d)),
            alpha_block=np.zeros(m.n_cols), sigma_prime=float(rng.uniform(0.5, 4.0)),
            tau=1.0, reg=reg)
        last = len(view.columns.pool) - 1
        order = rng.integers(0, last + 1, size=n_steps)
        order[:2], order[-2:] = [0, last][:n_steps], [last, 0][:n_steps]
        start = np.clip(0.1 * rng.standard_normal(last + 1), -0.05, 0.05)
        z0 = 0.1 * rng.standard_normal(d)
        totals, z = start.copy(), z0.copy()
        monkeypatch.setattr(local, "_kernel", c_pass)
        got = local._coordinate_pass(view, order, totals, z)
        ref_totals, ref_z = start.copy(), z0.copy()
        monkeypatch.setattr(local, "_kernel", None)
        ref = local._coordinate_pass(view, order, ref_totals, ref_z)
        assert totals.tobytes() == ref_totals.tobytes()
        assert z.tobytes() == ref_z.tobytes()
        assert got == ref
        clamps += ref
    assert clamps > 0


def test_pass_refuses_arrays_the_kernel_would_overrun(pass_kernel):
    view, _ = make_view(seed=3)
    n_pool, n_rows = len(view.columns.pool), view.columns.matrix.n_rows
    totals, z = np.zeros(n_pool), np.zeros(n_rows)
    for order, what in [(np.array([0, n_pool]), "order"),
                        (np.array([-1, 0]), "order"),
                        (np.array([0, 1], dtype=np.int32), "order"),
                        (np.arange(4)[::2], "order")]:
        with pytest.raises(ValueError, match=what):
            local._coordinate_pass(view, order, totals, z)
    order = np.array([0, n_pool - 1])
    for bad in [np.zeros(n_pool + 1), np.zeros(n_pool, np.float32),
                np.zeros(2 * n_pool)[::2]]:
        with pytest.raises(ValueError, match="totals"):
            local._coordinate_pass(view, order, bad, z)
    for bad in [np.zeros(n_rows - 1), np.zeros((n_rows, 1))]:
        with pytest.raises(ValueError, match="z is not"):
            local._coordinate_pass(view, order, totals, bad)
    assert not totals.any() and not z.any()
    assert local._coordinate_pass(view, order, totals, z) == 0


def test_solve_local_skips_zero_columns():
    cols = [[(0, 1.0)], [], [(1, -2.0)]]
    m = sc.ColMatrix.from_columns(3, cols)
    b = np.array([1.0, 1.0, -1.0])
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    spec = sc.make_objective(fit, "l1", 0.01)
    view = subproblem(
        m, np.arange(3, dtype=np.int64), sc.f_grad(fit, np.zeros(3)),
        alpha_block=np.zeros(3), sigma_prime=1.0, tau=1.0, reg=spec.reg,
        f_share=sc.f_value(fit, np.zeros(3)))
    res = sc.solve_local(view, h=10, seed=1)
    assert 1 not in res.changed


def test_measure_theta_zero_update_is_one():
    view, _ = make_view(seed=13, kind="elastic_net")
    res = sc.LocalResult(np.zeros(0, np.int64), np.zeros(0),
                         np.zeros(view.columns.matrix.n_rows), 0)
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
    view = subproblem(
        m, np.arange(8, dtype=np.int64),
        sc.f_grad(fit, np.zeros(m.n_rows)), alpha_block=np.zeros(8),
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
    state1, _ = hand_round(state0, cfg, spec, m, p)

    ref = sc.mb_cd_round(state0, spec, m, n, gamma * n, 123, sc.duality_gap(
        spec, m, state0.alpha, state0.v))
    assert np.allclose(state1.alpha, ref.alpha, atol=1e-12)
    assert np.allclose(state1.v, ref.v, atol=1e-12)
