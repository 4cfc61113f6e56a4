import contextlib
import functools
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import shardcd as sc
from shardcd import dataio, engine, local


def random_matrix(rng, n, d, density=0.4):
    """Random sparse columns plus the triplet lists they were built from."""
    columns = []
    for _ in range(n):
        mask = rng.random(d) < density
        if not mask.any():
            mask[rng.integers(0, d)] = True
        idx = np.nonzero(mask)[0]
        vals = rng.standard_normal(len(idx))
        columns.append(list(zip(idx.tolist(), vals.tolist())))
    return sc.ColMatrix.from_columns(d, columns), columns


def regression_instance(seed, n=40, d=24, density=0.4, noise=0.1):
    m, b, truth = sc.gen_synthetic(
        sc.SyntheticSpec(n=n, d=d, density=density, true_nnz=max(2, n // 8),
                         noise_sd=noise, seed=seed))
    return m, b, truth


def lasso_objective(m, b, frac=0.15):
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    lam = frac * float(np.max(np.abs(m.mat_tvec(b))))
    return sc.make_objective(fit, "l1", lam)


def enet_objective(b, lam=0.3, eta=0.5):
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    return sc.make_objective(fit, "elastic_net", lam, eta=eta)


def subproblem(matrix, block, w, **fields):
    """A SubproblemView with the inputs the driver computes per round,
    xw = (A^T w)[block] and the block's BlockColumns, filled in here."""
    return sc.SubproblemView(matrix=matrix, block=block, w=w,
                             xw=matrix.mat_tvec(w)[block],
                             columns=sc.BlockColumns.of(matrix, block),
                             **fields)


def hand_round(state, cfg, spec, m, p):
    """One engine.run_round from `state` at cfg.fixed_sigma_prime, its
    views built from the certificate taken at `state`."""
    views = engine._build_views(state, cfg.fixed_sigma_prime, spec, m, p,
                                sc.duality_gap(spec, m, state.alpha, state.v))
    return engine.run_round(state, cfg, spec, m, p, views)


@pytest.fixture
def small_instance():
    m, b, _ = regression_instance(seed=5)
    return m, b


@pytest.fixture(params=["c", "python"])
def pass_kernel(request, monkeypatch):
    """Run a test on the C coordinate pass and on the Python loop; the
    Python run sets the module's kernel handle to None."""
    if request.param == "python":
        monkeypatch.setattr(local, "_kernel", None)
    elif local.kernel_name() != "c":
        pytest.skip("no C compiler to build the kernel with")
    return request.param


@contextlib.contextmanager
def chunked(cpus):
    """Let read_libsvm's C tokenizer cut a file of any size into as many
    chunks as `cpus` and the file's lines allow."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_CHUNK_MIN", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                   raising=False)
        yield


def both_readers(test):
    """Run a read_libsvm test on the C tokenizer, when the C library
    builds, in one chunk and in up to three, and then on the Python loop,
    under the test's own name."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        if local.kernel_name() == "c":
            test(*args, **kwargs)
            with chunked(3):
                test(*args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(local, "_kernel", None)
            test(*args, **kwargs)
    return run
