import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.special import expit, xlogy

import shardcd as sc
from shardcd import engine as eng
from shardcd import objectives as obj
from conftest import enet_objective, lasso_objective, random_matrix, regression_instance
from oracles import (cyclic_cd_lasso_like, finite_diff_grad, numeric_conjugate,
                     numeric_sup)


def ls_fit(b):
    return sc.DataFit(kind=sc.LEAST_SQUARES, labels=np.asarray(b, dtype=float))


def logistic_fit(b):
    return sc.DataFit(kind=sc.LOGISTIC, labels=np.asarray(b, dtype=float))


# ----------------------------------------------------------------------
# data-fit values and gradients

def test_f_value_least_squares_at_labels():
    b = np.array([1.0, -2.0, 0.5])
    assert sc.f_value(ls_fit(b), b) == 0.0


def test_f_value_logistic_at_zero():
    b = np.array([1.0, -1.0, 1.0])
    assert sc.f_value(logistic_fit(b), np.zeros(3)) == pytest.approx(3 * math.log(2))


def test_f_value_least_squares_hand():
    fit = ls_fit(np.zeros(2))
    assert sc.f_value(fit, np.array([1.0, 2.0])) == pytest.approx(2.5)


def test_f_grad_examples():
    b = np.array([0.5, -1.5])
    assert np.array_equal(sc.f_grad(ls_fit(b), b), np.zeros(2))
    blog = np.array([1.0, -1.0])
    assert np.allclose(sc.f_grad(logistic_fit(blog), np.zeros(2)), -blog / 2)


def test_f_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    b_ls = rng.standard_normal(5)
    b_lg = rng.choice([-1.0, 1.0], size=5)
    for fit in (ls_fit(b_ls), logistic_fit(b_lg)):
        for _ in range(50):
            v = rng.standard_normal(5)
            g = sc.f_grad(fit, v)
            g_ref = finite_diff_grad(lambda u: sc.f_value(fit, u), v)
            assert np.max(np.abs(g - g_ref)) <= 1e-6


def test_tau_is_the_tight_smoothness_constant():
    # 0 <= f(v + d) - f(v) - grad f(v)^T d <= ||d||^2 / (2 tau), and the
    # bound is met to first order at v = 0, where f'' is largest
    rng = np.random.default_rng(12)
    fits = (ls_fit(rng.standard_normal(20)),
            logistic_fit(rng.choice([-1.0, 1.0], size=20)))
    assert [fit.tau for fit in fits] == [1.0, 4.0]

    def ratio(fit, v, d):
        excess = sc.f_value(fit, v + d) - sc.f_value(fit, v) \
            - float(np.dot(sc.f_grad(fit, v), d))
        assert excess >= 0.0
        return 2.0 * fit.tau * excess / float(np.dot(d, d))

    for fit in fits:
        for _ in range(200):
            v = 2.0 * rng.standard_normal(20)
            d = float(rng.uniform(0.1, 3.0)) * rng.standard_normal(20)
            assert ratio(fit, v, d) <= 1.0 + 1e-9
        d = 1e-3 * rng.standard_normal(20) / math.sqrt(20)
        assert 0.99 < ratio(fit, np.zeros(20), d) <= 1.0 + 1e-9


def test_f_conj_least_squares_at_minus_labels():
    b = np.array([1.0, 2.0, -1.0])
    assert sc.f_conj(ls_fit(b), -b) == pytest.approx(-0.5 * float(b @ b))


def test_f_conj_logistic_midpoint():
    b = np.array([1.0, -1.0])
    w = -b / 2
    assert sc.f_conj(logistic_fit(b), w) == pytest.approx(-2 * math.log(2))


def test_f_conj_logistic_endpoints_zero():
    b = np.array([1.0, -1.0])
    assert sc.f_conj(logistic_fit(b), np.zeros(2)) == 0.0      # t = 0
    assert sc.f_conj(logistic_fit(b), -b) == 0.0               # t = 1


def test_f_conj_logistic_domain_error():
    b = np.array([1.0])
    with pytest.raises(sc.DualDomainError):
        sc.f_conj(logistic_fit(b), np.array([0.5]))  # -wb = -0.5 outside box


def test_f_conj_least_squares_matches_numeric_sup():
    rng = np.random.default_rng(12)
    b = rng.standard_normal(3)
    fit = ls_fit(b)
    w = rng.standard_normal(3)
    # separable: sup_v w^T v - f(v) splits per coordinate
    ref = 0.0
    for j in range(3):
        val, _ = numeric_sup(lambda t: w[j] * t - 0.5 * (t - b[j]) ** 2,
                             -30.0, 30.0)
        ref += val
    assert sc.f_conj(fit, w) == pytest.approx(ref, abs=1e-6)


# ----------------------------------------------------------------------
# separable penalties

def l1_reg(lam=1.0, bound=5.0):
    return sc.Regularizer(kind=sc.L1, lam=lam, support_bound=bound)


def enet_reg(lam=1.0, eta=0.5):
    return sc.Regularizer(kind=sc.ELASTIC_NET, lam=lam, eta=eta)


def test_ell_value_examples():
    assert sc.ell_value(l1_reg(lam=2.0, bound=10.0), 3.0) == 6.0
    assert math.isinf(sc.ell_value(l1_reg(bound=10.0), 11.0))
    assert sc.ell_value(enet_reg(), 2.0) == pytest.approx(2.0)


def test_ell_conj_examples():
    assert sc.ell_conj(l1_reg(lam=1.0, bound=5.0), 0.5) == 0.0
    assert sc.ell_conj(l1_reg(lam=1.0, bound=5.0), 3.0) == pytest.approx(10.0)
    assert sc.ell_conj(enet_reg(), 1.5) == pytest.approx(1.0)


def test_ell_conj_matches_numeric_sup():
    rng = np.random.default_rng(13)
    for _ in range(30):
        lam = float(rng.uniform(0.2, 2.0))
        x = float(rng.uniform(-4, 4))
        l1 = l1_reg(lam=lam, bound=6.0)
        ref = numeric_conjugate(lambda a: sc.ell_value(l1, a), x, -6.0, 6.0)
        assert sc.ell_conj(l1, x) == pytest.approx(ref, abs=1e-6)
        en = enet_reg(lam=lam, eta=float(rng.uniform(0.2, 1.0)))
        ref = numeric_conjugate(lambda a: sc.ell_value(en, a), x, -100.0, 100.0)
        assert sc.ell_conj(en, x) == pytest.approx(ref, abs=1e-6)


def test_fenchel_young_and_equality_case():
    rng = np.random.default_rng(14)
    for reg in (l1_reg(lam=0.7, bound=4.0), enet_reg(lam=0.9, eta=0.3)):
        for _ in range(500):
            x = float(rng.uniform(-3, 3))
            a = float(rng.uniform(-4, 4))
            la = sc.ell_value(reg, a)
            if math.isinf(la):
                continue
            assert la + sc.ell_conj(reg, x) >= a * x - 1e-12
        # equality at the numeric argmax
        x = float(rng.uniform(-3, 3))
        lo, hi = (-4.0, 4.0) if reg.kind == sc.L1 else (-50.0, 50.0)
        _, a_star = numeric_sup(
            lambda a: x * a - sc.ell_value(reg, a), lo, hi)
        slack = sc.ell_value(reg, a_star) + sc.ell_conj(reg, x) - a_star * x
        assert 0 <= slack <= 1e-8


def test_double_conjugate_recovers_penalty():
    for reg in (l1_reg(lam=0.8, bound=3.0), enet_reg(lam=1.2, eta=0.4)):
        for a in np.linspace(-2.5, 2.5, 11):
            # (l*)* via numeric sup over the conjugate
            val = numeric_conjugate(lambda x: sc.ell_conj(reg, x), a, -40.0, 40.0)
            assert val == pytest.approx(sc.ell_value(reg, a), abs=1e-4)


def test_l1_conjugate_lipschitz():
    rng = np.random.default_rng(15)
    reg = l1_reg(lam=0.6, bound=7.0)
    for _ in range(1000):
        x, y = rng.uniform(-10, 10, size=2)
        lhs = abs(sc.ell_conj(reg, x) - sc.ell_conj(reg, y))
        assert lhs <= (reg.support_bound + 1e-9) * abs(x - y)


def test_enet_conjugate_gradient_lipschitz():
    rng = np.random.default_rng(16)
    reg = enet_reg(lam=0.8, eta=0.4)
    lip = 1.0 / (reg.lam * reg.eta)
    h = 1e-5

    def grad(x):
        return (sc.ell_conj(reg, x + h) - sc.ell_conj(reg, x - h)) / (2 * h)

    for _ in range(500):
        x, y = rng.uniform(-5, 5, size=2)
        if abs(x - y) < 1e-6:
            continue
        assert abs(grad(x) - grad(y)) <= (lip + 1e-3) * abs(x - y)


# ----------------------------------------------------------------------
# primal / dual / gap

def test_primal_value_at_zero():
    m, b, _ = regression_instance(seed=21)
    spec = lasso_objective(m, b)
    val = sc.primal_value(spec, m, np.zeros(m.n_cols), np.zeros(m.n_rows))
    assert val == pytest.approx(0.5 * float(b @ b))


def test_primal_value_infinite_outside_box():
    m, b, _ = regression_instance(seed=22)
    spec = lasso_objective(m, b)
    a = np.zeros(m.n_cols)
    a[0] = spec.reg.support_bound + 1.0
    assert math.isinf(sc.primal_value(spec, m, a, m.mat_vec(a)))


def test_primal_value_matches_scratch_recompute():
    rng = np.random.default_rng(23)
    m, b, _ = regression_instance(seed=23)
    spec = enet_objective(b, lam=0.4, eta=0.6)
    a = rng.standard_normal(m.n_cols)
    v = m.mat_vec(a)
    ref = sc.f_value(spec.data_fit, v) + sum(
        sc.ell_value(spec.reg, float(ai)) for ai in a)
    assert sc.primal_value(spec, m, a, v) == pytest.approx(ref, rel=1e-12)


def test_dual_value_flat_region():
    m, b, _ = regression_instance(seed=25)
    fit = ls_fit(b)
    lam = 1.5 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(fit, "l1", lam)
    # least squares at v = 0 gives w = grad f(0) = -b
    rep = sc.duality_gap(spec, m, np.zeros(m.n_cols), np.zeros(m.n_rows))
    assert rep.dual == pytest.approx(-0.5 * float(b @ b))


def test_dual_value_zero_matrix():
    m = sc.ColMatrix.from_columns(3, [[], []])
    b = np.array([1.0, -2.0, 0.5])
    spec = sc.make_objective(ls_fit(b), "l1", 1.0)
    rep = sc.duality_gap(spec, m, np.zeros(m.n_cols), np.zeros(m.n_rows))
    assert rep.dual == pytest.approx(-0.5 * float(b @ b))


def test_dual_value_terms_match_numeric_sup():
    rng = np.random.default_rng(26)
    m, b, _ = regression_instance(seed=26, n=10, d=8)
    spec = lasso_objective(m, b, frac=0.4)
    v = m.mat_vec(rng.standard_normal(10) * 0.05)
    w = sc.f_grad(spec.data_fit, v)
    B = spec.reg.support_bound
    total, top = 0.0, 0.0
    for i in range(m.n_cols):
        rows, vals = m.column(i)
        x = -float(vals @ w[rows])
        ref = numeric_conjugate(lambda a: sc.ell_value(spec.reg, a), x, -B, B)
        term = sc.ell_conj(spec.reg, x)
        assert term == pytest.approx(ref, abs=1e-6 * max(1.0, abs(ref)))
        total += term
        top = max(top, abs(x))
    # the better of the box dual at w and the charge-free dual at s w
    box = sc.f_conj(spec.data_fit, w) + total
    rescaled = sc.f_conj(spec.data_fit, min(1.0, spec.reg.lam / top) * w)
    assert total > 0.0 and rescaled < box
    rep = sc.duality_gap(spec, m, np.zeros(m.n_cols), v)
    assert rep.dual == pytest.approx(min(box, rescaled))
    # l*(-x_i^T w) overflows only where |x_i^T w| exceeds the penalty's l1
    # weight, so the finite rescaled dual is kept, without a warning
    m = sc.ColMatrix.from_columns(1, [[(0, 1.0)], [(0, 1.0)]])
    spec = sc.make_objective(ls_fit([1e8]), "elastic_net", 1e-3, eta=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sc.duality_gap(spec, m, np.zeros(2), np.zeros(1))
    assert math.isfinite(rep.gap) and rep.gap >= -1e-9


def test_gap_zero_at_kkt_zero_point():
    m, b, _ = regression_instance(seed=27)
    fit = ls_fit(b)
    lam = 1.01 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(fit, "l1", lam)
    rep = sc.duality_gap(spec, m, np.zeros(m.n_cols), np.zeros(m.n_rows))
    assert abs(rep.gap) <= 1e-10


def test_weak_duality_random_samples():
    # 10^4 (alpha, spec) samples: 400 random instances x 25 iterates each
    rng = np.random.default_rng(28)
    for trial in range(400):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(2, 10))
        m, cols = random_matrix(rng, n=n, d=d, density=0.6)
        b = rng.standard_normal(d)
        if trial % 2:
            spec = sc.make_objective(ls_fit(b), "elastic_net",
                                     float(rng.uniform(0.1, 1.0)),
                                     eta=float(rng.uniform(0.1, 1.0)))
            scale = 2.0
        else:
            spec = sc.make_objective(ls_fit(b), "l1", float(rng.uniform(0.1, 1.0)))
            scale = 0.5 * spec.reg.support_bound
        for _ in range(25):
            a = rng.uniform(-1, 1, size=n) * scale
            rep = sc.duality_gap(spec, m, a, m.mat_vec(a))
            assert rep.gap >= -1e-9
    # eta = 1 leaves the penalty no l1 weight, so the dual is rescaled to s = 0
    for fit in (ls_fit(rng.standard_normal(3)),
                logistic_fit(rng.choice([-1.0, 1.0], size=3))):
        m, _ = random_matrix(rng, n=2, d=3, density=0.6)
        spec = sc.make_objective(fit, "elastic_net", 0.5, eta=1.0)
        for _ in range(25):
            a = rng.uniform(-2, 2, size=2)
            rep = sc.duality_gap(spec, m, a, m.mat_vec(a))
            assert math.isfinite(rep.gap) and rep.gap >= -1e-9
        res = sc.solve(sc.EngineConfig(k_count=1, max_rounds=1000,
                                       gap_tol=1e-9, seed=0),
                       spec, m, sc.partition_columns(2, 1))
        assert res.stop_reason == "gap_tol"


def test_gap_small_at_bruteforce_optimum():
    rng = np.random.default_rng(29)
    m, cols = random_matrix(rng, n=12, d=9, density=0.6)
    from oracles import dense_from_columns
    dense = dense_from_columns(9, cols)
    b = rng.standard_normal(9)
    spec = sc.make_objective(ls_fit(b), "elastic_net", 0.5, eta=0.5)
    a_star = cyclic_cd_lasso_like(dense, b, spec.reg)
    rep = sc.duality_gap(spec, m, a_star, m.mat_vec(a_star))
    assert 0 <= rep.gap <= 1e-8


def test_duality_gap_rejects_infeasible():
    m, b, _ = regression_instance(seed=30)
    spec = lasso_objective(m, b)
    a = np.zeros(m.n_cols)
    a[1] = 2 * spec.reg.support_bound
    with pytest.raises(ValueError):
        sc.duality_gap(spec, m, a, m.mat_vec(a))


def test_logistic_fenchel_young_equality_identity():
    rng = np.random.default_rng(31)
    b = rng.choice([-1.0, 1.0], size=6)
    fit = logistic_fit(b)
    for _ in range(100):
        v = rng.standard_normal(6) * 3
        w = sc.f_grad(fit, v)
        lhs = sc.f_value(fit, v) + sc.f_conj(fit, w)
        assert lhs == pytest.approx(float(v @ w), abs=1e-8)


def test_logistic_one_pass_matches_scipy():
    # f, w, f*(w) and f*(s w) from one exp and one log1p pass, against
    # logaddexp, scipy's expit and xlogy, out to |b v| = 1e3 where
    # exp(-|b v|) underflows
    rng = np.random.default_rng(32)
    b = rng.choice([-1.0, 1.0], size=3000)
    fit = logistic_fit(b)
    for scale in (1.0, 10.0, 100.0, 1e3):
        v = rng.uniform(-scale, scale, size=len(b))
        v[:2] = (scale, -scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, w, conj = obj._fit_pass(fit, v)
            pieces = (sc.f_value(fit, v), sc.f_grad(fit, v),
                      sc.f_conj(fit, w), conj(1.0), conj(0.7), conj(1e-3))
        z = b * v
        t = expit(-z)
        assert f == pieces[0]
        assert np.array_equal(w, pieces[1])
        assert f == pytest.approx(float(np.sum(np.logaddexp(0.0, -z))),
                                  rel=1e-13)
        normal = t >= np.finfo(np.float64).tiny
        assert not normal.all() or scale < 1e3
        assert np.allclose(w[normal], -b[normal] * t[normal], rtol=1e-13,
                           atol=0.0)
        assert np.all(np.abs(w[~normal] + b[~normal] * t[~normal]) <= 1e-300)
        for s, got in zip((1.0, 1.0, 0.7, 1e-3), pieces[2:]):
            st_ = s * t
            ref = float(np.sum(xlogy(st_, st_) + xlogy(1.0 - st_, 1.0 - st_)))
            assert got == pytest.approx(ref, rel=1e-13)
        assert all(np.all(np.isfinite(x)) for x in (f, w) + pieces)


def _box_gap(spec, m, a, v):
    """The gap with the dual at w = grad f(v) alone, charge included."""
    w = sc.f_grad(spec.data_fit, v)
    return (sc.f_conj(spec.data_fit, w)
            + float(np.sum(sc.ell_conj(spec.reg, -m.mat_tvec(w))))
            + sc.primal_value(spec, m, a, v))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16),
       kind=st.sampled_from(["l1", "elastic_net", "logistic"]))
def test_certificate_between_suboptimality_and_box_gap(seed, kind):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 12)), int(rng.integers(3, 14))
    m, _ = random_matrix(rng, n=n, d=d, density=0.6)
    if kind == "logistic":
        fit = logistic_fit(rng.choice([-1.0, 1.0], size=d))
    else:
        fit = ls_fit(rng.standard_normal(d))
    lam_max = float(np.max(np.abs(m.mat_tvec(sc.f_grad(fit, np.zeros(d))))))
    lam = float(rng.uniform(0.1, 0.9)) * lam_max
    spec = sc.make_objective(fit, "elastic_net" if kind == "elastic_net"
                             else "l1", lam, eta=0.5)
    tight = sc.solve(sc.EngineConfig(k_count=1, h_local=20, max_rounds=5000,
                                     gap_tol=1e-10, seed=1),
                     spec, m, sc.partition_columns(n, 1))
    assert tight.stop_reason == "gap_tol"
    p_star = tight.traces[-1].primal  # within 1e-10 above the optimum
    bound = spec.reg.penalty[2]
    for _ in range(10):
        scale = float(rng.choice([1e-3, 0.1, 0.5])) * min(bound, 4.0)
        a = rng.uniform(-1.0, 1.0, size=n) * scale
        v = m.mat_vec(a)
        rep = sc.duality_gap(spec, m, a, v)
        # f_conj takes log t from t, the certificate from b v: rounding
        slack = 1e-12 * (abs(rep.primal) + abs(rep.dual))
        assert rep.gap <= _box_gap(spec, m, a, v) + slack
        assert rep.gap >= rep.primal - p_star - 1e-9

    # the run stops no later than the box gap alone would let it
    starts = []  # each round's input state: the state of the row before
    real = eng.run_round

    def recording(state, *args):
        starts.append(state)
        return real(state, *args)

    gap_tol = 1e-4 * tight.traces[0].primal
    p = sc.partition_columns(n, 2 if n > 2 else 1)
    cfg = sc.EngineConfig(k_count=p.k_count, h_local=1, max_rounds=400,
                          gap_tol=gap_tol, seed=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "run_round", recording)
        res = sc.solve(cfg, spec, m, p)
    # one box gap per trace row; a rejected round's row repeats the state,
    # and so the box gap, of the row before it
    box_gaps = [_box_gap(spec, m, st.alpha, st.v)
                for st in starts + [res.state]]
    assert len(box_gaps) == len(res.traces)
    first_box = next((t for t, g in enumerate(box_gaps) if g <= gap_tol),
                     math.inf)
    assert res.traces[-1].round <= first_box
    assert all(tr.gap <= g + 1e-12 * (abs(tr.primal) + abs(tr.dual))
               for tr, g in zip(res.traces, box_gaps))


# ----------------------------------------------------------------------
# support bound

def test_default_support_bound_examples():
    b = np.array([2.0, 2.0])  # ||b||^2 = 8
    assert sc.default_support_bound(ls_fit(b), 2.0) == pytest.approx(2.0)
    blog = np.array([1.0, -1.0, 1.0, -1.0])
    assert sc.default_support_bound(logistic_fit(blog), 1.0) == pytest.approx(
        4 * math.log(2))


def test_default_support_bound_monotone_in_lambda():
    b = np.array([1.0, 3.0])
    fit = ls_fit(b)
    bounds = [sc.default_support_bound(fit, lam) for lam in (0.5, 1.0, 2.0, 8.0)]
    assert all(bounds[i] > bounds[i + 1] for i in range(len(bounds) - 1))


def test_datafit_validation():
    with pytest.raises(ValueError):
        sc.DataFit(kind=sc.LOGISTIC, labels=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        sc.DataFit(kind="huber", labels=np.array([1.0]))


def test_regularizer_validation():
    with pytest.raises(ValueError):
        sc.Regularizer(kind=sc.L1, lam=1.0)  # missing finite bound
    with pytest.raises(ValueError):
        sc.Regularizer(kind=sc.ELASTIC_NET, lam=1.0, eta=0.0)
    with pytest.raises(ValueError):
        sc.Regularizer(kind=sc.ELASTIC_NET, lam=-1.0, eta=0.5)
    with pytest.raises(ValueError, match="no support bound"):
        sc.Regularizer(kind=sc.ELASTIC_NET, lam=1.0, eta=0.5, support_bound=2.0)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=np.ones(3))
    for kind in (sc.L1, sc.ELASTIC_NET):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            sc.make_objective(fit, kind, math.inf, eta=0.5)
