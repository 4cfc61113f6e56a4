"""Seeded workloads of the time-to-gap benchmark.

A workload turns the benchmark seed into inputs (untimed): a synthetic
instance spec, or a libsvm file written by this module's own vectorized
generator. `setup` turns those inputs into a solvable instance through
the public shardcd API only: generate or read the data, normalize the
columns, compute lambda_max = ||A^T grad f(0)||_inf, build the objective
and partition the columns. The library never sees the seed itself; the
engine seed is fixed at 0.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

import shardcd as sc

# generous round budget: every workload reaches its gap target long before
MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `features` and `examples` are the columns and rows of the solver's
    matrix. Synthetic workloads keep each entry with probability
    `density`; the libsvm workload draws `nnz` distinct entries.
    Lambda is `lam_frac` times lambda_max and the gap target is
    `tol_frac` times f(0).
    """

    name: str
    objective: str  # "sparse_logistic" or "elastic_net"
    features: int
    examples: int
    lam_frac: float
    k: int
    h: int
    tol_frac: float
    density: float = 0.0
    nnz: int = 0
    true_nnz: int = 10
    noise_sd: float = 0.1
    eta: float | None = None
    from_file: bool = False
    normalize: bool = False


WORKLOADS = (
    # communication-bound: per-round O(nnz + d) certificate, products, barrier
    Workload("logistic-tall-k4-h1", "sparse_logistic", features=100,
             examples=30_000, density=0.03, lam_frac=0.3, k=4, h=1,
             tol_frac=1e-4),
    # ~1M nonzeros from a libsvm file: ingest and export dominate, K=1.
    # Pure-noise labels give a dense solution whose gap decays smoothly,
    # so rounds_to_gap barely moves with the seed; a planted sparse
    # support made it jump between 7 and 13 rounds.
    Workload("ingest-enet-1m", "elastic_net", features=50_000,
             examples=100_000, nnz=1_000_000, true_nnz=0, noise_sd=3.0, eta=0.5,
             lam_frac=0.2, k=1, h=1, tol_frac=1e-6, from_file=True,
             normalize=True),
)


class Instance(NamedTuple):
    matrix: sc.ColMatrix
    labels: np.ndarray
    spec: sc.ObjectiveSpec
    partition: sc.Partition
    cfg: sc.EngineConfig
    f0: float


class Reference(NamedTuple):
    """Prox-GD run to the workload's own gap target."""

    primal: float
    gap: float
    rounds: int
    seconds: float


def make_inputs(w, seed, workdir):
    """Seeded inputs: a SyntheticSpec, or the path of a written libsvm file."""
    if not w.from_file:
        return sc.SyntheticSpec(n=w.features, d=w.examples, density=w.density,
                                true_nnz=w.true_nnz, noise_sd=w.noise_sd,
                                seed=seed)
    # gen_synthetic draws O(n d) randoms, far too slow at this size
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, w.examples * w.features, size=w.nnz))
    rows, cols = np.divmod(keys, w.features)
    m = sc.ColMatrix.from_coo(w.examples, w.features, rows, cols,
                              rng.standard_normal(len(keys)))
    truth = np.zeros(w.features)
    truth[rng.choice(w.features, size=w.true_nnz, replace=False)] = \
        rng.standard_normal(w.true_nnz)
    labels = m.mat_vec(truth) + w.noise_sd * rng.standard_normal(w.examples)
    path = os.path.join(workdir, f"{w.name}.svm")
    sc.write_libsvm(path, m, labels)
    return path


def setup(w, inputs):
    """Inputs to a solvable instance; this is what `setup_s` times."""
    logistic = w.objective == "sparse_logistic"
    if w.from_file:
        m, labels = sc.read_libsvm(inputs)
    else:
        m, labels, _ = sc.gen_synthetic(inputs, classification=logistic)
    if w.normalize:
        m.normalize_columns()
    fit = sc.DataFit(kind=sc.LOGISTIC if logistic else sc.LEAST_SQUARES,
                     labels=labels)
    zero = np.zeros(m.n_rows)
    lam_max = float(np.max(np.abs(m.mat_tvec(sc.f_grad(fit, zero)))))
    reg = "elastic_net" if w.objective == "elastic_net" else "l1"
    spec = sc.make_objective(fit, reg, w.lam_frac * lam_max, eta=w.eta)
    part = sc.partition_columns(m.n_cols, w.k)
    f0 = sc.f_value(fit, zero)
    cfg = sc.EngineConfig(k_count=w.k, h_local=w.h, max_rounds=MAX_ROUNDS,
                          gap_tol=w.tol_frac * f0)
    return Instance(m, labels, spec, part, cfg, f0)


def reference_optimum(inst):
    """Prox-GD to the same gap target; only `solve_baseline` is timed.

    The step is tau / ||A||^2 from a Lanczos estimate, because the
    library's per-column power iteration takes seconds at 50k columns.
    """
    m = inst.matrix
    a = scipy.sparse.csc_matrix((m.vals, m.rows, m.indptr),
                                shape=(m.n_rows, m.n_cols))
    sigma = scipy.sparse.linalg.svds(a, k=1, return_singular_vectors=False,
                                     v0=np.ones(min(a.shape)))[0]
    bcfg = sc.BaselineConfig(kind="prox_gd",
                             step_size=inst.spec.data_fit.tau / sigma**2,
                             max_rounds=MAX_ROUNDS, gap_tol=inst.cfg.gap_tol)
    t0 = time.perf_counter()
    res = sc.solve_baseline(bcfg, inst.spec, m)
    seconds = time.perf_counter() - t0
    if res.stop_reason != "gap_tol":
        raise RuntimeError(f"prox-GD reference stopped by {res.stop_reason}")
    last = res.traces[-1]
    return Reference(last.primal, last.gap, res.state.round, seconds)
