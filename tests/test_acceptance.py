"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Desk-scale instances stand in for the cluster-scale datasets; the
checks are certificate-, rate-, and shape-based rather than wall-clock
comparisons.
"""

import math
import time

import numpy as np
import pytest

import shardcd as sc
from shardcd.engine import _build_views, _worker_seed
from conftest import random_matrix
from oracles import golden_min, linear_fit_r2, numeric_conjugate, numeric_sup


def report(num, ok, detail=""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def ls_fit(b):
    return sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)


# ----------------------------------------------------------------------
# shared desk runs (criteria 5, 6, 11)

@pytest.fixture(scope="module")
def c5_run():
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=200, d=100, density=0.3, true_nnz=15, noise_sd=0.1, seed=7))
    m.normalize_columns()
    spec = sc.make_objective(ls_fit(b), "elastic_net", 0.5, eta=0.5)
    p = sc.partition_columns(m.n_cols, 4)
    cfg = sc.EngineConfig(k_count=4, h_local=5, max_rounds=500, gap_tol=1e-6,
                          seed=3)
    t0 = time.perf_counter()
    res = sc.solve(cfg, spec, m, p)
    elapsed = time.perf_counter() - t0
    tight = sc.solve(sc.EngineConfig(k_count=4, h_local=5, max_rounds=3000,
                                     gap_tol=1e-12, seed=3), spec, m, p)
    zero = sc.SolverState.initial(m)
    views = _build_views(zero, cfg, spec, m, p,
                         sc.duality_gap(spec, m, zero.alpha, zero.v))
    theta = max(sc.measure_theta(views[k],
                                 sc.solve_local(views[k], cfg.h_local,
                                                _worker_seed(cfg.seed, k, 0)))
                for k in range(4))
    return dict(m=m, b=b, spec=spec, p=p, cfg=cfg, res=res, elapsed=elapsed,
                d_star=tight.traces[-1].primal, theta=theta)


@pytest.fixture(scope="module")
def c6_run():
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=120, d=60, density=0.25, true_nnz=10, noise_sd=0.05, seed=21))
    m.normalize_columns()
    lam = 0.1 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(ls_fit(b), "l1", lam)
    p = sc.partition_columns(m.n_cols, 4)
    cfg = sc.EngineConfig(k_count=4, h_local=2, max_rounds=500,
                          gap_tol=1e-300, seed=9)
    t0 = time.perf_counter()
    res = sc.solve(cfg, spec, m, p)
    elapsed = time.perf_counter() - t0
    return dict(m=m, b=b, spec=spec, p=p, cfg=cfg, res=res, elapsed=elapsed)


# ----------------------------------------------------------------------

def test_criterion_01_certificate_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(2, 33))
        cls = bool(rng.integers(0, 2))
        m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
            n=n, d=d, density=float(rng.uniform(0.1, 0.9)),
            true_nnz=int(rng.integers(1, max(2, n // 4))), noise_sd=0.1,
            seed=int(rng.integers(0, 2 ** 31))), classification=cls)
        fit = sc.DataFit(kind=sc.LOGISTIC if cls else sc.LEAST_SQUARES,
                         labels=b)
        if rng.integers(0, 2):
            spec = sc.make_objective(fit, "elastic_net",
                                     float(rng.uniform(0.05, 1.0)),
                                     eta=float(rng.uniform(0.1, 1.0)))
        else:
            corr = float(np.max(np.abs(m.mat_tvec(sc.f_grad(fit, np.zeros(d))))))
            spec = sc.make_objective(fit, "l1",
                                     float(rng.uniform(0.05, 0.5)) * max(corr, 1e-3))
        K = int(rng.integers(1, min(4, n) + 1))
        cfg = sc.EngineConfig(k_count=K, h_local=int(rng.integers(1, 4)),
                              max_rounds=8, gap_tol=0.0, seed=trial)
        res = sc.solve(cfg, spec, m, sc.partition_columns(n, K))
        worst = min(worst, min(t.gap for t in res.traces))
    elapsed = time.perf_counter() - t0
    report(1, worst >= -1e-9 and elapsed < 60.0,
           f"worst gap {worst:.3g} over 1000 instances in {elapsed:.1f}s")


def test_criterion_02_kkt_zero_point():
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=40, d=30, density=0.4, true_nnz=5, noise_sd=0.1, seed=3))
    lam = 1.01 * float(np.max(np.abs(m.mat_tvec(b))))  # direct oracle
    spec = sc.make_objective(ls_fit(b), "l1", lam)
    rep = sc.duality_gap(spec, m, np.zeros(40), np.zeros(30))
    res = sc.solve(sc.EngineConfig(k_count=4, h_local=3, max_rounds=50,
                                   gap_tol=1e-10, seed=1),
                   spec, m, sc.partition_columns(40, 4))
    ok = abs(rep.gap) <= 1e-10 and res.state.round == 0 \
        and res.stop_reason == "gap_tol"
    report(2, ok, f"gap(0) = {rep.gap:.3g}, productive rounds = {res.state.round}")


def test_criterion_03_surrogate_inequality():
    worst = -math.inf
    for s in range(5):
        m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
            n=40, d=20, density=0.5, true_nnz=6, noise_sd=0.2, seed=100 + s))
        if s % 2 == 0:
            labels = np.sign(b)
            labels[labels == 0] = 1.0
            fit = sc.DataFit(kind=sc.LOGISTIC, labels=labels)
        else:
            fit = ls_fit(b)
        spec = sc.make_objective(fit, "l1", 0.3) if s < 3 else \
            sc.make_objective(fit, "elastic_net", 0.3, eta=0.4)
        p = sc.partition_columns(40, 4)
        cfg = sc.EngineConfig(k_count=4)  # sigma' = gamma K per trial
        worst = max(worst, sc.check_lemma3(spec, m, p, cfg, trials=200, seed=s))
    report(3, worst <= 1e-8, f"worst violation {worst:.3g} over 1000 trials")


def test_criterion_04_sigma_safety():
    gamma = 1.0
    worst = 0.0
    for s in range(5):
        m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
            n=48, d=24, density=0.4, true_nnz=4, noise_sd=0.1, seed=200 + s))
        p = sc.partition_columns(48, 4)
        worst = max(worst, sc.check_sigma_safety(m, p, gamma, probes=64, seed=s))
    safe = worst <= gamma * 4 + 1e-9

    dup = sc.ColMatrix.from_columns(3, [[(0, 1.0)] for _ in range(8)])
    pdup = sc.partition_columns(8, 4)
    tight = sc.check_sigma_safety(dup, pdup, gamma, probes=32, seed=0)
    report(4, safe and tight >= 0.95 * gamma * 4,
           f"random worst {worst:.4g} <= {gamma * 4}, adversarial {tight:.4g}")


def test_criterion_05_geometric_rate(c5_run):
    r = c5_run
    res, d_star = r["res"], r["d_star"]
    T = res.state.round
    converged = res.stop_reason == "gap_tol" and T <= 500

    sub = np.array([t.primal - d_star for t in res.traces])
    rounds = np.array([t.round for t in res.traces])
    mask = (rounds >= T // 2) & (sub > 1e-13)
    slope, _, r2, resid = linear_fit_r2(rounds[mask], np.log(sub[mask]))
    spread = float(np.max(np.log(sub[mask])) - np.min(np.log(sub[mask])))
    max_dev = float(np.max(np.abs(resid))) / spread if spread > 0 else 0.0

    bound = sc.theory_round_bound(r["spec"], r["m"], r["cfg"], r["theta"])
    ok = converged and r2 >= 0.95 and max_dev <= 0.05 and slope < 0 \
        and T <= bound and r["elapsed"] < 30.0
    report(5, ok, f"rounds {T}, tail R^2 {r2:.5f}, max dev {max_dev:.3f}, "
                  f"theta {r['theta']:.3f}, bound {bound:.0f}, "
                  f"{r['elapsed']:.1f}s")


def test_criterion_06_sublinear_l1_decay(c6_run):
    r = c6_run
    res = r["res"]
    gaps = {t.round: t.gap for t in res.traces}
    t_hi = min(res.state.round, 500)
    series = [gaps[t] * t for t in range(50, t_hi + 1) if t in gaps]
    ref = series[0]
    ok = max(series) <= 3.0 * ref and r["elapsed"] < 30.0
    report(6, ok, f"max gap*t / (gap*t at 50) = {max(series) / ref:.3f} "
                  f"over t in [50, {t_hi}], {r['elapsed']:.1f}s")


def test_criterion_07_partition_invariance():
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=64, d=48, density=0.3, true_nnz=8, noise_sd=0.05, seed=13))
    m.normalize_columns()
    lam = 0.15 * float(np.max(np.abs(m.mat_tvec(b))))
    specs = {
        "lasso": sc.make_objective(ls_fit(b), "l1", lam),
        "elastic_net": sc.make_objective(ls_fit(b), "elastic_net", 0.1, eta=0.5),
    }
    detail = []
    ok = True
    for name, spec in specs.items():
        finals = []
        for K in (1, 2, 4, 8):
            res = sc.solve(sc.EngineConfig(k_count=K, h_local=10,
                                           max_rounds=8000, gap_tol=1e-8,
                                           seed=2),
                           spec, m, sc.partition_columns(64, K))
            ok = ok and res.stop_reason == "gap_tol"
            finals.append(res.traces[-1].primal)
        rel = (max(finals) - min(finals)) / max(1e-30, abs(min(finals)))
        detail.append(f"{name} rel spread {rel:.2g}")
        ok = ok and rel <= 1e-6
    report(7, ok, "; ".join(detail))


def test_criterion_08_local_work_tradeoff():
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=240, d=300, density=0.2, true_nnz=12, noise_sd=0.1, seed=101))
    m.normalize_columns()
    lam = 0.2 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(ls_fit(b), "l1", lam)
    p = sc.partition_columns(240, 8)
    hs = (1, 5, 20, 100)
    rounds, compute = {}, {}
    for H in hs:
        res = sc.solve(sc.EngineConfig(k_count=8, h_local=H, max_rounds=3000,
                                       gap_tol=1e-4, seed=5), spec, m, p)
        assert res.stop_reason == "gap_tol"
        rounds[H] = res.state.round
        compute[H] = sum(res.diagnostics["wall_times"])
    non_increasing = all(rounds[hs[i + 1]] <= rounds[hs[i]] for i in range(3))

    non_monotone_at = []
    for lat in (0.01, 0.03, 0.1, 0.3, 1.0):
        wall = {H: rounds[H] * lat + compute[H] for H in hs}
        if min(wall[5], wall[20]) < min(wall[1], wall[100]):
            non_monotone_at.append(lat)
    ok = non_increasing and len(non_monotone_at) > 0
    report(8, ok, f"rounds {[rounds[H] for H in hs]}, interior H wins at "
                  f"latencies {non_monotone_at}")


def test_criterion_09_coordinate_update_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for kind in ("l1", "elastic_net"):
        for _ in range(1000):
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
            worst = max(worst, abs(sc.coordinate_update(reg, c, g, q) - ref))
    report(9, worst <= 1e-8, f"worst |closed form - golden section| = {worst:.2g}")


def test_criterion_10_conjugate_suite():
    rng = np.random.default_rng(1010)
    l1 = sc.Regularizer(kind=sc.L1, lam=0.7, support_bound=4.0)
    en = sc.Regularizer(kind=sc.ELASTIC_NET, lam=0.9, eta=0.3)

    # Fenchel-Young inequality, 1e4 random pairs across both kinds
    fy_ok = True
    for reg, amax in ((l1, 4.0), (en, 6.0)):
        a = rng.uniform(-amax, amax, size=5000)
        x = rng.uniform(-3.0, 3.0, size=5000)
        vals = sc.ell_value(reg, a) + sc.ell_conj(reg, x) - a * x
        fy_ok = fy_ok and bool(np.all(vals >= -1e-12))
    # equality at the numeric argmax
    eq_worst = 0.0
    for reg, lo, hi in ((l1, -4.0, 4.0), (en, -50.0, 50.0)):
        for _ in range(25):
            x = float(rng.uniform(-3, 3))
            _, a_star = numeric_sup(lambda a: x * a - sc.ell_value(reg, a), lo, hi)
            eq_worst = max(eq_worst, sc.ell_value(reg, a_star)
                           + sc.ell_conj(reg, x) - a_star * x)
    eq_ok = eq_worst <= 1e-8

    # double conjugate recovers the penalty (1e-4)
    dc_worst = 0.0
    for reg in (l1, en):
        for a in np.linspace(-2.5, 2.5, 9):
            val = numeric_conjugate(lambda x: sc.ell_conj(reg, x), a, -40.0, 40.0)
            dc_worst = max(dc_worst, abs(val - sc.ell_value(reg, a)))
    dc_ok = dc_worst <= 1e-4

    # Lipschitz certificates
    lip_ok = True
    for _ in range(1000):
        x, y = rng.uniform(-10, 10, size=2)
        lip_ok = lip_ok and abs(sc.ell_conj(l1, x) - sc.ell_conj(l1, y)) \
            <= (l1.support_bound + 1e-9) * abs(x - y)
    h = 1e-5
    lip_en = 1.0 / (en.lam * en.eta)
    for _ in range(500):
        x, y = rng.uniform(-5, 5, size=2)
        if abs(x - y) < 1e-6:
            continue
        gx = (sc.ell_conj(en, x + h) - sc.ell_conj(en, x - h)) / (2 * h)
        gy = (sc.ell_conj(en, y + h) - sc.ell_conj(en, y - h)) / (2 * h)
        lip_ok = lip_ok and abs(gx - gy) <= (lip_en + 1e-3) * abs(x - y)

    # logistic equality case of Fenchel-Young through the gradient map
    b = rng.choice([-1.0, 1.0], size=8)
    fit = sc.DataFit(kind=sc.LOGISTIC, labels=b)
    log_worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(8) * 3
        w = sc.f_grad(fit, v)
        log_worst = max(log_worst, abs(sc.f_value(fit, v) + sc.f_conj(fit, w)
                                       - float(v @ w)))
    log_ok = log_worst <= 1e-8

    ok = fy_ok and eq_ok and dc_ok and lip_ok and log_ok
    report(10, ok, f"FY ok={fy_ok}, equality worst {eq_worst:.2g}, "
                   f"double-conj worst {dc_worst:.2g}, Lipschitz ok={lip_ok}, "
                   f"logistic identity worst {log_worst:.2g}")


def test_criterion_11_level_set_containment(c5_run, c6_run):
    details = []
    ok = True
    for name, run in (("elastic_net", c5_run), ("lasso", c6_run)):
        spec, res = run["spec"], run["res"]
        bound = sc.default_support_bound(spec.data_fit, spec.reg.lam)
        peak = max(run["res"].diagnostics["max_abs_coef"], default=0.0)
        clamps = res.diagnostics["clamp_hits"]
        ok = ok and peak <= bound and clamps == 0
        details.append(f"{name}: max|coef| {peak:.3g} <= B {bound:.3g}, "
                       f"clamps {clamps}")
    report(11, ok, "; ".join(details))


def test_criterion_12_baseline_consistency():
    m, b, _ = sc.gen_synthetic(sc.SyntheticSpec(
        n=64, d=48, density=0.3, true_nnz=8, noise_sd=0.05, seed=13))
    m.normalize_columns()
    lam = 0.15 * float(np.max(np.abs(m.mat_tvec(b))))
    spec = sc.make_objective(ls_fit(b), "l1", lam)
    K = 4
    p = sc.partition_columns(64, K)

    ref = sc.solve(sc.EngineConfig(k_count=K, h_local=10, max_rounds=8000,
                                   gap_tol=1e-10, seed=2), spec, m, p)
    ref_primal = ref.traces[-1].primal

    pg = sc.solve_baseline(sc.BaselineConfig(
        kind="prox_gd", max_rounds=100000, gap_tol=1e-7, seed=2), spec, m)
    mb_tight = sc.solve_baseline(sc.BaselineConfig(
        kind="mb_cd", batch_size=64 // K, beta_scale=1.0, max_rounds=400000,
        gap_tol=1e-7, seed=2), spec, m)
    pg_rel = abs(pg.traces[-1].primal - ref_primal) / abs(ref_primal)
    mb_rel = abs(mb_tight.traces[-1].primal - ref_primal) / abs(ref_primal)

    eng = sc.solve(sc.EngineConfig(k_count=K, h_local=5, max_rounds=8000,
                                   gap_tol=1e-4, seed=2), spec, m, p)
    mb = sc.solve_baseline(sc.BaselineConfig(
        kind="mb_cd", batch_size=64 // K, beta_scale=1.0, max_rounds=400000,
        gap_tol=1e-4, seed=2), spec, m)
    ok = pg_rel <= 1e-5 and mb_rel <= 1e-5 \
        and eng.state.round <= mb.state.round / 2
    report(12, ok, f"prox_gd rel {pg_rel:.2g}, mb_cd rel {mb_rel:.2g}, "
                   f"rounds engine {eng.state.round} vs mb_cd {mb.state.round}")


def test_criterion_13_cli_determinism(tmp_path):
    from shardcd.cli import cli_main
    flags = ("--synthetic 200,100,0.1,10,0.01,42 --objective lasso "
             "--lambda 0.1 --k 4 --h 5 --gap-tol 1e-6").split()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rc1 = cli_main(flags + ["--out", str(a)])
    rc2 = cli_main(flags + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    report(13, ok, f"exit codes ({rc1}, {rc2}), byte-identical={identical}, "
                   f"{len(a.read_bytes())} bytes")
