"""Synchronous multi-worker driver with per-round gap certificates.

One round: freeze the shared prediction vector v = A alpha, hand every
worker a read-only view (its BlockColumns, its columns' inner products
A^T w with the data-fit gradient w, and its share of the data-fit
value), let each produce a block-local update, then apply all updates at
a barrier, scaled by the aggregation weight gamma, in fixed ascending
worker order so runs are bit-reproducible. Workers run one after another
in this process. Rounds are transactional: a worker failure leaves the
state untouched.

Each piece of whole-data work is done once per round. Every state is
certified, and the certificate's f(v) and A^T w, w = grad f(v), feed
the views of the round that starts there. Each worker's BlockColumns
(the matrix, its column ids and their squared norms) is built once per
solve and is the round's one statement of which columns it owns.

One driver loop (_drive) certifies, checks v = A alpha, records a trace
row and decides the stop after every round, for the solver and for both
baselines alike, so their traces and stop reasons ("gap_tol",
"diverged", "max_rounds") mean the same thing.

Unless a sigma_prime is given, solve adapts the local quadratic scaling
sigma' each round to the measured alignment of the workers' updates. A
least-squares round whose updates break the data-fit half of the paper's
Lemma 3 at the sigma' it used is rejected (keeps its state); a logistic
round searches for its step length along its combined update instead.

Traces hold only deterministic quantities: their elapsed_ms column is
always 0.0 and their theta column always empty, kept so the file format
does not change. Measured wall times are kept separately in the solve
diagnostics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import _check_integers
from .local import (BlockColumns, SubproblemView, kernel_name, solve_local,
                    subproblem_value)
# benchmarks/tracing.py wraps duality_gap, f_grad and f_value here by name
from .objectives import (ELASTIC_NET, LOGISTIC, _primal_change,  # noqa: F401
                         duality_gap, f_grad, f_value, primal_value)

__all__ = [
    "EngineConfig", "SolverState", "RoundTrace", "SolveResult",
    "run_round", "solve", "check_v",
    "check_lemma3", "check_sigma_safety", "theory_round_bound",
]


@dataclass
class EngineConfig:
    """Driver knobs.

    sigma_prime is the scaling of the local quadratic term. Unset (None),
    solve adapts it every round within [gamma, gamma * k_count] to the
    measured alignment of the workers' updates (see solve); a given
    number, finite and at least gamma, is both ends of that range, so it
    is used in every round. The rate theory (theory_round_bound,
    check_lemma3) assumes a fixed sigma_prime; gamma * k_count is always
    safe. h_local is the number of local coordinate-descent epochs per
    round over each worker's active set (see solve_local), the single
    communication/computation trade-off knob. seed (nonnegative) derives
    every worker's sampling stream.
    """

    k_count: int
    h_local: int = 1
    gamma: float = 1.0
    sigma_prime: float | None = None
    max_rounds: int = 100
    gap_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _check_integers(1, k_count=self.k_count, h_local=self.h_local)
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.sigma_prime is not None \
                and not self.gamma <= self.sigma_prime < math.inf:
            raise ValueError("sigma_prime must be finite and at least gamma")
        _check_drive_settings(self.max_rounds, self.gap_tol, self.seed)

    @property
    def fixed_sigma_prime(self):
        """The given sigma_prime, or the always-safe gamma * k_count when
        unset: the value of every check and hand-stepped round."""
        if self.sigma_prime is None:
            return self.gamma * self.k_count
        return self.sigma_prime


def _check_drive_settings(max_rounds, gap_tol, seed):
    """Reject the _drive settings under which it could return a result
    without a certificate, never stop on the gap (a NaN gap_tol), or fail
    after round 0 deriving a worker stream (a negative seed)."""
    _check_integers(max_rounds=max_rounds, seed=seed)
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    if not gap_tol >= 0:
        raise ValueError("gap_tol must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


@dataclass
class SolverState:
    """Iterate alpha, shared vector v = A alpha, and the round counter."""

    alpha: np.ndarray
    v: np.ndarray
    round: int = 0

    @classmethod
    def initial(cls, m):
        return cls(alpha=np.zeros(m.n_cols), v=np.zeros(m.n_rows), round=0)


@dataclass
class RoundTrace:
    round: int
    primal: float
    dual: float
    gap: float
    nnz: int
    local_updates: int


@dataclass
class SolveResult:
    state: SolverState
    traces: list
    stop_reason: str
    diagnostics: dict = field(default_factory=dict)


def _worker_seed(global_seed, k, t):
    """Stable per-(worker, round) stream derived from the run seed."""
    ss = np.random.SeedSequence(entropy=int(global_seed), spawn_key=(int(k), int(t)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _build_views(state, sigma_prime, spec, shared, blocks):
    """One view per BlockColumns in `blocks`, at `state`, with the
    round's sigma_prime. `shared` is the certificate (GapReport) taken at
    `state`: every view reads its A^T w and an even share of its f(v)."""
    f_share = shared.fit / len(blocks)
    return [
        SubproblemView(
            alpha_block=state.alpha[cols.block],
            sigma_prime=sigma_prime,
            tau=spec.data_fit.tau,
            reg=spec.reg,
            xw=shared.atw[cols.block],
            columns=cols,
            f_share=f_share,
        )
        for cols in blocks
    ]


def run_round(state, cfg, views):
    """Execute one synchronous round; returns (new state, worker results).

    `views` are the workers' views at `state`, made by _build_views from
    the certificate taken there; worker k's update lands on
    views[k].columns.block. Local solves run on disjoint blocks, then the
    coefficient and shared-vector updates are reduced at a barrier in
    ascending worker order. Coefficients are clipped to the views'
    penalty's [-B, B] unconditionally: for the L1 box this only removes
    rounding, since each is a convex combination of two in-box values,
    and for B = inf (elastic net) the clip does nothing. Any worker
    failure aborts the round with the input state unchanged.

    numpy's overflow and invalid-value warnings stay on here: a caller who
    steps rounds by hand gets no stop reason, so a warning is its only
    sign of a round that overflowed. solve silences them in _drive only
    because its "diverged" stop reports the overflow.
    """
    t = state.round
    results = [solve_local(view, cfg.h_local, _worker_seed(cfg.seed, k, t))
               for k, view in enumerate(views)]

    # barrier: apply all updates in fixed ascending worker order
    new_alpha = state.alpha.copy()
    dv = np.zeros(len(state.v))
    for view, res in zip(views, results):
        new_alpha[view.columns.block[res.changed]] += cfg.gamma * res.delta_alpha
        dv += res.delta_v
    bound = views[0].reg.penalty[2]
    np.clip(new_alpha, -bound, bound, out=new_alpha)
    new_v = state.v + cfg.gamma * dv
    return SolverState(alpha=new_alpha, v=new_v, round=t + 1), results


def _check_partition(cfg, m, p):
    if p.k_count != cfg.k_count:
        raise ValueError(f"config expects {cfg.k_count} workers, "
                         f"partition has {p.k_count}")
    if p.n_cols != m.n_cols:
        raise ValueError("partition does not match matrix columns")


def _check_col_norms(m):
    """Refuse a column whose squared norm overflows, before any round: its
    curvature sigma'/tau ||x_i||^2 is inf, so every step leaves it where it
    is, and its ||A||^2 bound leaves prox-GD no step size."""
    bad = np.flatnonzero(np.isinf(m.col_sq_norms))
    if len(bad):
        raise ValueError(f"column {bad[0]}: its squared norm exceeds the "
                         f"largest double; scale the columns to unit norm "
                         f"first (ColMatrix.normalize_columns, --normalize)")


def check_v(m, alpha, v):
    """Return the drift max |v - A alpha|; a finite drift beyond
    1e-8 (1 + max |v|) is a bookkeeping fault and raises RuntimeError."""
    drift = float(np.max(np.abs(v - m.mat_vec(alpha)), initial=0.0))
    if math.inf > drift > 1e-8 * (1.0 + np.max(np.abs(v), initial=0.0)):
        raise RuntimeError(f"shared vector drifted from A alpha by {drift:g}")
    return drift


@np.errstate(over="ignore", invalid="ignore")
def _drive(step, spec, m, max_rounds, gap_tol, diag):
    """The certify, drift-check, trace and stop loop every method runs.

    `step(state, shared)` advances one round from `state`, whose
    certificate is `shared`, and returns (new state, coordinate updates);
    it must not modify the arrays it is handed.
    Every state, the zero start included, is certified after check_v and
    recorded as one trace row; a step that hands back the alpha and v
    arrays certified last (a rejected round) reuses that drift and
    certificate. Stops with
    "gap_tol" at a gap within gap_tol and with "diverged" at a primal not
    at most the zero start's (a monotone method never climbs above it),
    else "max_rounds"; the returned state is the one in the last trace
    row. A non-finite drift or gap stops the run as "diverged", without a
    trace row, at the state certified before it (at the zero start it
    raises ValueError); numpy's overflow and invalid-value warnings are
    silenced, since the stop reason reports them. Adds measured step
    seconds (`wall_times`) to `diag`.
    """
    spec.check_dims(m)
    state = certified = SolverState.initial(m)
    shared = None
    traces = []
    diag["wall_times"] = []
    updates = 0
    for t in range(max_rounds + 1):
        if t:  # round 0 certifies the zero start
            t0 = time.perf_counter()
            state, updates = step(state, shared)
            diag["wall_times"].append(time.perf_counter() - t0)
        if shared is None or state.alpha is not certified.alpha \
                or state.v is not certified.v:
            drift = check_v(m, state.alpha, state.v)
            shared = duality_gap(spec, m, state.alpha, state.v)
        if not math.isfinite(drift + shared.gap):
            if not t:
                raise ValueError("objective is not finite at the zero start")
            return SolveResult(certified, traces, "diverged", diag)
        traces.append(RoundTrace(
            round=t, primal=shared.primal, dual=shared.dual, gap=shared.gap,
            nnz=int(np.count_nonzero(state.alpha)), local_updates=updates))
        certified = state
        if shared.gap <= gap_tol:
            return SolveResult(state, traces, "gap_tol", diag)
        if not shared.primal <= traces[0].primal:
            return SolveResult(state, traces, "diverged", diag)
    return SolveResult(state, traces, "max_rounds", diag)


def _alignment(zs):
    """||sum_k z_k||^2 and sum_k ||z_k||^2 of per-block products z_k."""
    total = sum(zs)
    return float(np.dot(total, total)), sum(float(np.dot(z, z)) for z in zs)


def _aligned(results, gamma, sigma_prime):
    """Whether a round's updates z_k = delta_v satisfy

        gamma * ||sum_k z_k||^2 <= sigma_prime * sum_k ||z_k||^2,

    which, for a (1/tau)-smooth data fit, gives the data-fit half of the
    paper's Lemma 3, f(v + gamma sum z) <= f(v) + gamma w^T sum z
    + (gamma sigma' / 2 tau) sum ||z||^2; tau scales both sides alike.
    Both sides are sums of squares, free of cancellation, so the test
    needs no rounding slack. A NaN or infinite side passes, so that a
    non-finite round reaches _drive's "diverged" stop.
    """
    aligned, spread = _alignment([r.delta_v for r in results])
    return not gamma * aligned > sigma_prime * spread


def _line_search(spec, state, da, dv, aligned, primal):
    """Step length t along a logistic round's update (da, dv) of alpha, v.

    An aligned round takes t = 1 and doubles t, up to 64, while the
    primal P(t) strictly falls; no trial falls below a NaN or infinite
    P(1), so such a round takes t = 1, which _drive stops as "diverged".
    A misaligned round failed the test that makes its candidate a
    descent step, so it takes the first t = 1/2, 1/4, ..., 2^-10 whose
    fall P(0) - P(t) exceeds 1e-12 |P(0)| (`primal`), far above the
    rounding of a primal sum, else t = 0. Each trial is one call of
    _primal_change's gathered sums.
    """
    change = _primal_change(spec, state.alpha, da, state.v, dv)
    if aligned:
        t, best = 1.0, change(1.0)
        while t < 64.0:
            trial = change(2.0 * t)
            if not trial < best:
                break
            t, best = 2.0 * t, trial
        return t
    t = 0.5
    while not change(t) < -1e-12 * abs(primal):
        if t == 2.0 ** -10:
            return 0.0
        t *= 0.5
    return t


def solve(cfg, spec, m, p):
    """Run rounds until the duality gap reaches gap_tol or rounds run out.

    Rounds run through _drive, which certifies the zero start and every
    round after it; each round's views take f(v), w and A^T w from the
    certificate of the state it starts from.

    sigma' starts at the floor and moves within [floor, cap]: [gamma,
    gamma K] with cfg.sigma_prime unset, else floor = cap = sigma_prime.
    A round below the cap is aligned when its updates pass _aligned (one
    test for both data fits); at gamma K the inequality holds by
    Cauchy-Schwarz, so no test runs there or at K=1 and every round is
    aligned. sigma' shrinks by a factor 0.9 after an aligned round, down
    to the floor, and doubles after a misaligned one, up to the cap.

    The round then steps t (cand - state) from its state to its
    candidate cand. A least-squares round takes t = 1 when aligned, else
    t = 0. A logistic round takes the t of _line_search, at least 1 when
    aligned and below 1 when not: tau = 4 is logistic's worst-case
    curvature, so its candidate is often far short of the best point on
    the line, while for least squares tau = 1 is exact. At t = 0 the
    round is rejected: the state stays as it was (the round still counts,
    with its updates and a trace row, and keeps its certificate).

    Returns the final state, one trace row per round, the stop reason
    ("gap_tol", "diverged" or "max_rounds"), and a diagnostics dict with
    measured wall times, per-round coefficient extremes, each round's
    sigma' (`sigma_prime`), step t (`step`) and per-worker coordinate
    updates (`worker_updates`, K counts that sum to the round's
    local_updates), the count of `rejected_rounds` (rounds with t = 0),
    clamp/frozen-column counters, whether the matrix's columns were
    normalized (`columns_normalized`) and the coordinate-pass kernel that
    ran ("c" or "python"). A column whose squared norm overflows raises
    ValueError (_check_col_norms).
    """
    _check_partition(cfg, m, p)
    _check_col_norms(m)
    blocks = [BlockColumns.of(m, block) for block in p.blocks]
    diag = {
        "max_abs_coef": [],
        "sigma_prime": [],
        "step": [],
        "worker_updates": [],
        "rejected_rounds": 0,
        "clamp_hits": 0,
        "frozen_cols": m.n_cols - sum(len(c.pool) for c in blocks),
        "columns_normalized": m.normalized,
        "kernel": kernel_name(),
    }
    cap = cfg.fixed_sigma_prime
    floor = sigma = cfg.gamma if cfg.sigma_prime is None else cap

    def step(state, shared):
        nonlocal sigma
        views = _build_views(state, sigma, spec, shared, blocks)
        new, results = run_round(state, cfg, views)
        diag["sigma_prime"].append(sigma)
        aligned = not sigma < cap or _aligned(results, cfg.gamma, sigma)
        t = 1.0 if aligned else 0.0
        if spec.data_fit.kind == LOGISTIC:
            da, dv = new.alpha - state.alpha, new.v - state.v
            t = _line_search(spec, state, da, dv, aligned, shared.primal)
        if t == 0.0:
            new = SolverState(alpha=state.alpha, v=state.v, round=new.round)
            diag["rejected_rounds"] += 1
        elif t != 1.0:  # only a logistic round steps elsewhere
            new = SolverState(alpha=state.alpha + t * da, v=state.v + t * dv,
                              round=new.round)
        diag["step"].append(t)
        sigma = max(floor, 0.9 * sigma) if aligned else min(cap, 2.0 * sigma)
        diag["clamp_hits"] += sum(r.clamp_hits for r in results)
        diag["max_abs_coef"].append(float(np.max(np.abs(new.alpha), initial=0.0)))
        diag["worker_updates"].append([r.updates_done for r in results])
        return new, sum(diag["worker_updates"][-1])

    return _drive(step, spec, m, cfg.max_rounds, cfg.gap_tol, diag)


# ----------------------------------------------------------------------
# diagnostics for the convergence-theory constants


def check_lemma3(spec, m, p, cfg, trials=200, seed=0):
    """Probe the surrogate inequality tying local objectives to the global one.

    For random feasible (alpha, delta, gamma) triples it evaluates

        D(alpha + gamma * sum_k delta_k)
            <= (1 - gamma) D(alpha) + gamma * sum_k G_k(delta_k)

    and returns the worst left-minus-right value over all trials (<= 0
    up to rounding when the local quadratic scaling is safe). Each
    trial draws its own gamma and uses sigma_prime = ratio * gamma * K,
    where ratio = cfg.fixed_sigma_prime / (cfg.gamma K) is the configured
    scaling's (1 when sigma_prime is unset). Each trial also probes
    alpha = 0 with delta / max |A delta|, where the logistic curvature
    peaks. D(alpha) and each G_k come from the certificate at alpha and
    its _build_views. A column whose squared norm overflows raises
    ValueError (_check_col_norms).
    """
    _check_integers(1, trials=trials)
    _check_integers(seed=seed)
    _check_col_norms(m)
    spec.check_dims(m)
    rng = np.random.default_rng(seed)
    ratio = cfg.fixed_sigma_prime / (cfg.gamma * p.k_count)
    scale = 0.45 * spec.reg.support_bound if spec.reg.kind == "l1" else 1.0
    blocks = [BlockColumns.of(m, block) for block in p.blocks]
    worst = -math.inf
    for _ in range(trials):
        gamma = float(rng.uniform(0.05, 1.0))
        sigma_prime = ratio * gamma * p.k_count
        alpha = scale * rng.uniform(-1.0, 1.0, size=m.n_cols)
        delta = scale * rng.uniform(-1.0, 1.0, size=m.n_cols)
        peak = float(np.max(np.abs(m.mat_vec(delta)), initial=0.0))
        for alpha, delta in ((alpha, delta), (np.zeros(m.n_cols),
                                              delta / peak if peak else delta)):
            state = SolverState(alpha=alpha, v=m.mat_vec(alpha))
            shared = duality_gap(spec, m, alpha, state.v)
            views = _build_views(state, sigma_prime, spec, shared, blocks)
            rhs = (1.0 - gamma) * shared.primal
            for view in views:
                block = view.columns.block
                dk = np.zeros(m.n_cols)
                dk[block] = delta[block]
                rhs += gamma * subproblem_value(view, delta[block], m.mat_vec(dk))
            a_new = alpha + gamma * delta
            lhs = primal_value(spec, m, a_new, m.mat_vec(a_new))
            worst = max(worst, lhs - rhs)
    return worst


def check_sigma_safety(m, p, gamma, probes=64, seed=0):
    """Falsification probe for the local quadratic scaling requirement.

    Returns the largest observed value of

        gamma * ||A alpha||^2 / sum_k ||A alpha_k||^2

    over random coefficient probes plus power-iteration-refined ones
    (iterates of A^T A, whose limit concentrates mass on the most
    cross-block-aligned direction). A configured sigma_prime is safe on
    this data only if it is at least the returned ratio; the ratio
    never exceeds gamma * K. All-zero probes count as 0. A gamma outside
    (0, 1], fewer than one probe or a column whose squared norm overflows
    (_check_col_norms) raises ValueError.
    """
    _check_integers(1, probes=probes)
    _check_integers(seed=seed)
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    _check_col_norms(m)
    rng = np.random.default_rng(seed)

    def ratio(alpha):
        zs = []
        for block in p.blocks:
            ak = np.zeros(m.n_cols)
            ak[block] = alpha[block]
            zs.append(m.mat_vec(ak))
        aligned, spread = _alignment(zs)
        return gamma * aligned / spread if spread else 0.0

    worst = max(ratio(rng.standard_normal(m.n_cols))
                for _ in range(probes))
    # refine: power iteration drives probes toward the top singular vector
    u = rng.standard_normal(m.n_cols)
    for _ in range(30):
        z = m.mat_vec(u)
        u_next = m.mat_tvec(z)
        nrm = np.linalg.norm(u_next)
        if nrm == 0.0:
            break
        u = u_next / nrm
        worst = max(worst, ratio(u))
    return worst


def theory_round_bound(spec, m, cfg, theta):
    """Sufficient round count for the strongly convex (elastic-net) case.

    Evaluates the geometric-rate bound

        T >= (1 / (gamma (1 - theta))) * ((mu tau + n) / (mu tau)) * log(n / eps)

    at eps = cfg.gap_tol, where mu = lam * eta is the regularizer's
    strong-convexity constant. Valid for unit-norm-bounded columns and a
    balanced partition. The L1 kind has mu = 0 and no geometric rate, so
    it is rejected.
    """
    reg = spec.reg
    if reg.kind != ELASTIC_NET:
        raise ValueError("geometric round bound requires a strongly convex "
                         "(elastic net) regularizer")
    if theta >= 1.0:
        return math.inf
    if not theta >= 0.0:
        raise ValueError("theta must lie in [0, 1)")
    mu_tau = reg.strong_convexity * spec.data_fit.tau
    n = m.n_cols
    eps = cfg.gap_tol
    return (1.0 / (cfg.gamma * (1.0 - theta))) * ((mu_tau + n) / mu_tau) \
        * math.log(n / eps)

