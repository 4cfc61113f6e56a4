"""Synchronous multi-worker driver with per-round gap certificates.

One round: freeze the shared prediction vector v = A alpha, hand every
worker a read-only view (its column block, the data-fit gradient w, its
columns' inner products A^T w, and its share of the data-fit value), let
each produce a block-local update, then apply all updates at a barrier,
scaled by the aggregation weight gamma, in fixed ascending worker order
so runs are bit-reproducible. Workers run one after another in this
process. Rounds are transactional: a worker failure leaves the state
untouched.

Each piece of whole-data work is done once per round. The certificate
computes f(v), w = grad f(v) and A^T w, and the next round's views reuse
them; a round without a certificate before it computes them once itself.
Each block's column ids and squared norms are built once per solve.

One driver loop (_drive) certifies, checks v = A alpha, records traces
and decides the stop for the solver and for both baselines alike, so
their traces and stop reasons ("gap_tol", "diverged", "max_rounds")
mean the same thing.

Timing in traces is simulated (configured per-round latency plus a
per-update cost model) so traces are deterministic; measured wall times
are kept separately in the solve diagnostics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .local import (BlockColumns, SubproblemView, kernel_name, measure_theta,
                    solve_local, subproblem_value)
from .objectives import (ELASTIC_NET, duality_gap, f_grad, f_value,
                         primal_value)

__all__ = [
    "EngineConfig", "SolverState", "RoundTrace", "SolveResult",
    "run_round", "solve", "check_v",
    "check_lemma3", "check_sigma_safety", "theory_round_bound", "block_sigma_k",
]


@dataclass
class EngineConfig:
    """Driver knobs.

    sigma_prime defaults to gamma * k_count, the always-safe scaling of
    the local quadratic term; it must never drop below gamma. h_local is
    the number of local coordinate-descent epochs per round, the single
    communication/computation trade-off knob. round_latency and
    update_cost (seconds) feed the simulated per-round timing recorded
    in traces.
    """

    k_count: int
    h_local: int = 1
    gamma: float = 1.0
    sigma_prime: float | None = None
    max_rounds: int = 100
    gap_tol: float = 1e-6
    seed: int = 0
    trace_every: int = 1
    estimate_theta: bool = False
    round_latency: float = 0.0
    update_cost: float = 0.0

    def __post_init__(self):
        if self.k_count < 1:
            raise ValueError("k_count must be >= 1")
        if self.h_local < 1:
            raise ValueError("h_local must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.sigma_prime is None:
            self.sigma_prime = self.gamma * self.k_count
        if self.sigma_prime < self.gamma:
            raise ValueError("sigma_prime must be at least gamma")
        _check_drive_settings(self.max_rounds, self.gap_tol, self.trace_every)


def _check_drive_settings(max_rounds, gap_tol, trace_every):
    """Reject the _drive settings under which it could return a result
    without a certificate, or never stop on the gap (a NaN gap_tol)."""
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    if not gap_tol >= 0:
        raise ValueError("gap_tol must be nonnegative")
    if trace_every < 1:
        raise ValueError("trace_every must be >= 1")


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
    elapsed_ms: float
    theta_estimate: float | None = None


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


def _build_views(state, cfg, spec, m, p, shared=None, blocks=None):
    """One view per worker at `state`.

    `shared` is a GapReport taken at state.v, whose f(v), w and A^T w
    are reused; without it they are computed here, once for all
    workers. `blocks` holds each block's BlockColumns when the caller
    built them already.
    """
    if shared is None:
        w = f_grad(spec.data_fit, state.v)
        fit = f_value(spec.data_fit, state.v)
        atw = m.mat_tvec(w)
    else:
        fit, w, atw = shared.fit, shared.w, shared.atw
    f_share = fit / p.k_count
    return [
        SubproblemView(
            matrix=m,
            block=block,
            w=w,
            alpha_block=state.alpha[block],
            sigma_prime=cfg.sigma_prime,
            tau=spec.data_fit.tau,
            reg=spec.reg,
            f_share=f_share,
            xw=atw[block],
            columns=None if blocks is None else blocks[k],
        )
        for k, block in enumerate(p.blocks)
    ]


def run_round(state, cfg, spec, m, p, views=None):
    """Execute one synchronous round; returns (new state, worker results).

    `views` are the workers' views at `state` as _build_views makes
    them; without them they are built here, computing the data-fit
    gradient and A^T w once for all workers. Local solves run
    on disjoint blocks, then the coefficient and shared-vector updates
    are reduced at a barrier in ascending worker order. Coefficients are
    clipped to the penalty's [-B, B] unconditionally: for the L1 box this
    only removes rounding, since each is a convex combination of two
    in-box values, and for B = inf (elastic net) the clip does nothing.
    Any worker failure aborts the round with the input state unchanged.
    """
    if p.k_count != cfg.k_count:
        raise ValueError(f"config expects {cfg.k_count} workers, "
                         f"partition has {p.k_count}")
    if p.n_cols != m.n_cols:
        raise ValueError("partition does not match matrix columns")
    if views is None:
        views = _build_views(state, cfg, spec, m, p)
    t = state.round
    results = [solve_local(views[k], cfg.h_local, _worker_seed(cfg.seed, k, t))
               for k in range(p.k_count)]

    # barrier: apply all updates in fixed ascending worker order
    new_alpha = state.alpha.copy()
    dv = np.zeros(m.n_rows)
    for block, res in zip(p.blocks, results):
        new_alpha[block[res.changed]] += cfg.gamma * res.delta_alpha
        dv += res.delta_v
    bound = spec.reg.penalty[2]
    np.clip(new_alpha, -bound, bound, out=new_alpha)
    new_v = state.v + cfg.gamma * dv
    return SolverState(alpha=new_alpha, v=new_v, round=t + 1), results


def check_v(m, alpha, v):
    """Return the drift max |v - A alpha|; a finite drift beyond
    1e-8 (1 + max |v|) is a bookkeeping fault and raises RuntimeError."""
    drift = float(np.max(np.abs(v - m.mat_vec(alpha)), initial=0.0))
    if math.inf > drift > 1e-8 * (1.0 + np.max(np.abs(v), initial=0.0)):
        raise RuntimeError(f"shared vector drifted from A alpha by {drift:g}")
    return drift


@np.errstate(over="ignore", invalid="ignore")
def _drive(step, spec, m, max_rounds, gap_tol, trace_every, diag,
           round_latency=0.0, update_cost=0.0):
    """The certify, drift-check, trace and stop loop every method runs.

    `step(state, shared, traced)` advances one round and returns (new
    state, coordinate updates, theta estimate or None); `shared` is the
    certificate taken at `state` or None, and `traced` says whether the
    new state will be certified. Certificates are taken at the zero
    start, every `trace_every` rounds and at the final round, each after
    check_v. Stops with "gap_tol" at a certified gap within gap_tol and
    with "diverged" at a certified primal not at most the zero start's (a
    monotone method never climbs above it), else "max_rounds"; the
    returned state is the one in the last trace row. A non-finite drift
    or gap stops the run as "diverged", without a trace row, at the state
    certified before it (at the zero start it raises ValueError); a round
    whose v is not finite is certified at once, between trace rounds too,
    so an overflowed run stops there; numpy's overflow and invalid-value
    warnings are silenced, since the stop reason reports them. Adds
    measured step seconds (`wall_times`) and the simulated elapsed time
    (`sim_elapsed_s`) to `diag`.
    """
    spec.check_dims(m)
    state = certified = SolverState.initial(m)
    traces = []
    diag["wall_times"] = []
    diag["sim_elapsed_s"] = 0.0
    # the last certificate, while it was taken at the current state
    shared, updates, theta, seconds = None, 0, None, 0.0
    for t in range(max_rounds + 1):
        if t:  # round 0 certifies the zero start
            traced = t % trace_every == 0 or t == max_rounds
            t0 = time.perf_counter()
            state, updates, theta = step(state, shared, traced)
            diag["wall_times"].append(time.perf_counter() - t0)
            seconds = round_latency + update_cost * updates
            diag["sim_elapsed_s"] += seconds
            shared = None
            if not traced and np.isfinite(state.v).all():
                continue
        drift = check_v(m, state.alpha, state.v)
        shared = duality_gap(spec, m, state.alpha, state.v)
        if not math.isfinite(drift + shared.gap):
            if not t:
                raise ValueError("objective is not finite at the zero start")
            return SolveResult(certified, traces, "diverged", diag)
        traces.append(RoundTrace(
            round=t, primal=shared.primal, dual=shared.dual, gap=shared.gap,
            nnz=int(np.count_nonzero(state.alpha)), local_updates=updates,
            elapsed_ms=1000.0 * seconds, theta_estimate=theta))
        certified = state
        if shared.gap <= gap_tol:
            return SolveResult(state, traces, "gap_tol", diag)
        if not shared.primal <= traces[0].primal:
            return SolveResult(state, traces, "diverged", diag)
    return SolveResult(state, traces, "max_rounds", diag)


def solve(cfg, spec, m, p):
    """Run rounds until the duality gap reaches gap_tol or rounds run out.

    Rounds run through _drive, which certifies the zero start and then
    every `trace_every` rounds (and the final round), so gap computation
    is amortized when tracing sparsely. Returns the final state, the
    recorded traces, the stop reason ("gap_tol", "diverged" or
    "max_rounds"), and a diagnostics dict with measured wall times,
    per-round coefficient extremes, clamp/frozen-column counters and the
    coordinate-pass kernel that ran ("c" or "python").
    """
    if m.n_cols != p.n_cols:
        raise ValueError("partition does not match matrix columns")
    diag = {
        "max_abs_coef": [],
        "clamp_hits": 0,
        "frozen_cols": 0,
        "columns_normalized": bool(getattr(m, "normalized", False)),
        "kernel": kernel_name(),
    }
    blocks = [BlockColumns.of(m, block) for block in p.blocks]

    def step(state, shared, traced):
        views = _build_views(state, cfg, spec, m, p, shared, blocks)
        new, results = run_round(state, cfg, spec, m, p, views)
        diag["clamp_hits"] += sum(r.clamp_hits for r in results)
        diag["frozen_cols"] = max(diag["frozen_cols"],
                                  sum(r.frozen_cols for r in results))
        diag["max_abs_coef"].append(float(np.max(np.abs(new.alpha), initial=0.0)))
        theta = None
        if traced and cfg.estimate_theta:
            theta = max(measure_theta(view, res)
                        for view, res in zip(views, results))
        return new, sum(r.updates_done for r in results), theta

    return _drive(step, spec, m, cfg.max_rounds, cfg.gap_tol, cfg.trace_every,
                  diag, cfg.round_latency, cfg.update_cost)


# ----------------------------------------------------------------------
# diagnostics for the convergence-theory constants


def check_lemma3(spec, m, p, cfg, trials=200, seed=0, sigma_scale=None):
    """Probe the surrogate inequality tying local objectives to the global one.

    For random feasible (alpha, delta, gamma) triples it evaluates

        D(alpha + gamma * sum_k delta_k)
            <= (1 - gamma) D(alpha) + gamma * sum_k G_k(delta_k)

    and returns the worst left-minus-right value over all trials (<= 0
    up to rounding when the local quadratic scaling is safe). Each
    trial draws its own gamma and uses sigma_prime = scale * gamma * K,
    where `scale` defaults to the configured sigma_prime / (gamma K)
    ratio; passing sigma_scale < 1 probes deliberately unsafe scalings
    the solver config itself would reject.
    """
    spec.check_dims(m)
    rng = np.random.default_rng(seed)
    ratio = cfg.sigma_prime / (cfg.gamma * p.k_count) if sigma_scale is None \
        else float(sigma_scale)
    reg = spec.reg
    if reg.kind == "l1":
        scale = 0.45 * reg.support_bound
    else:
        scale = 1.0
    blocks = [BlockColumns.of(m, block) for block in p.blocks]
    worst = -math.inf
    for _ in range(trials):
        gamma = float(rng.uniform(0.05, 1.0))
        sigma_prime = ratio * gamma * p.k_count
        alpha = scale * rng.uniform(-1.0, 1.0, size=m.n_cols)
        delta = scale * rng.uniform(-1.0, 1.0, size=m.n_cols)
        v = m.mat_vec(alpha)
        f_share = f_value(spec.data_fit, v) / p.k_count
        w = f_grad(spec.data_fit, v)
        atw = m.mat_tvec(w)

        rhs = (1.0 - gamma) * primal_value(spec, m, alpha, v)
        for k in range(p.k_count):
            block = p.blocks[k]
            dk = np.zeros(m.n_cols)
            dk[block] = delta[block]
            zk = m.mat_vec(dk)
            view = SubproblemView(
                matrix=m, block=block, w=w, alpha_block=alpha[block],
                sigma_prime=sigma_prime, tau=spec.data_fit.tau, reg=reg,
                f_share=f_share, xw=atw[block], columns=blocks[k])
            rhs += gamma * subproblem_value(view, delta[block], zk)

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
    never exceeds gamma * K. All-zero probes are skipped.
    """
    rng = np.random.default_rng(seed)

    def ratio(alpha):
        denom = 0.0
        for k in range(p.k_count):
            block = p.blocks[k]
            ak = np.zeros(m.n_cols)
            ak[block] = alpha[block]
            zk = m.mat_vec(ak)
            denom += float(np.dot(zk, zk))
        if denom == 0.0:
            return None
        z = m.mat_vec(alpha)
        return gamma * float(np.dot(z, z)) / denom

    worst = 0.0
    for _ in range(max(int(probes), 1)):
        r = ratio(rng.standard_normal(m.n_cols))
        if r is not None:
            worst = max(worst, r)
    # refine: power iteration drives probes toward the top singular vector
    u = rng.standard_normal(m.n_cols)
    for _ in range(30):
        z = m.mat_vec(u)
        u_next = m.mat_tvec(z)
        nrm = np.linalg.norm(u_next)
        if nrm == 0.0:
            break
        u = u_next / nrm
        r = ratio(u)
        if r is not None:
            worst = max(worst, r)
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
    if theta < 0.0:
        raise ValueError("theta must lie in [0, 1)")
    mu_tau = reg.strong_convexity * spec.data_fit.tau
    n = m.n_cols
    eps = cfg.gap_tol
    return (1.0 / (cfg.gamma * (1.0 - theta))) * ((mu_tau + n) / mu_tau) \
        * math.log(n / eps)


def block_sigma_k(m, p, k, power_iters=30):
    """Squared spectral norm of one worker's column block (power iteration).

    For unit-norm columns this never exceeds the block size, which is
    what makes the default quadratic scaling safe. Diagnostic only.
    """
    if power_iters < 10:
        raise ValueError("power_iters must be >= 10")
    from .data import sq_spectral_norm
    return sq_spectral_norm(m, cols=p.blocks[k], iters=power_iters, seed=12345 + k)
