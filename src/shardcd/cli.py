"""Command-line benchmark runner.

Exit codes: 0 when the gap tolerance was reached (or a requested
diagnostic check passed), 2 when the round budget ran out first (or a
diagnostic observed a violation), 3 when the run diverged (a certified
primal value rose above the zero start's, or the iterate overflowed),
1 for usage or data errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import engine
from .baselines import BaselineConfig, solve_baseline
from .data import partition_columns
from .dataio import DataFormatError, SyntheticSpec, gen_synthetic, read_libsvm, write_trace
from .engine import EngineConfig
from .local import measure_theta, solve_local
from .objectives import (DataFit, LEAST_SQUARES, LOGISTIC, make_objective)

__all__ = ["cli_main", "main"]

OBJECTIVES = ("lasso", "elastic_net", "sparse_logistic")
EXIT_CODES = {"gap_tol": 0, "max_rounds": 2, "diverged": 3}


def build_parser():
    p = argparse.ArgumentParser(
        prog="shardcd",
        description="Column-partitioned coordinate descent for L1 and "
                    "elastic-net GLMs, with duality-gap certificates.")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--data", metavar="PATH",
                     help="dataset in 'label idx:val ...' text format")
    src.add_argument("--synthetic", metavar="n,d,density,nnz,noise,seed",
                     help="generate a random instance instead of reading one")
    p.add_argument("--objective", choices=OBJECTIVES, default="lasso")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="regularization strength (required for solver runs)")
    p.add_argument("--eta", type=float, default=None,
                   help="elastic-net mix in (0, 1]")
    p.add_argument("--k", type=int, default=1, help="number of workers")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="aggregation weight in (0, 1]")
    p.add_argument("--sigma-prime", type=float, default=None,
                   help="local quadratic scaling (default gamma * k)")
    p.add_argument("--h", type=int, default=1,
                   help="local coordinate-descent epochs per round")
    p.add_argument("--rounds", type=int, default=5000, help="round budget")
    p.add_argument("--gap-tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action="store_true",
                   help="rescale columns to unit norm before solving")
    p.add_argument("--baseline", choices=("prox_gd", "mb_cd"), default=None)
    p.add_argument("--step", type=float, default=None,
                   help="prox_gd step size (default tau / ||A||^2)")
    p.add_argument("--batch", type=int, default=1, help="mb_cd batch size")
    p.add_argument("--beta", type=float, default=1.0,
                   help="mb_cd update scale numerator, in [1, batch]")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the per-round trace here")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--check", choices=("lemma3", "sigma", "theta"), default=None,
                   help="run a theory diagnostic instead of a solve")
    return p


def _parse_synthetic(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise DataFormatError(
            "--synthetic expects n,d,density,nnz,noise,seed")
    try:
        return SyntheticSpec(n=int(parts[0]), d=int(parts[1]),
                             density=float(parts[2]), true_nnz=int(parts[3]),
                             noise_sd=float(parts[4]), seed=int(parts[5]))
    except ValueError as exc:
        raise DataFormatError(f"bad --synthetic value: {exc}")


def _load_instance(args):
    classification = args.objective == "sparse_logistic"
    if args.synthetic:
        sspec = _parse_synthetic(args.synthetic)
        m, labels, _ = gen_synthetic(sspec, classification=classification)
    elif args.data:
        m, labels = read_libsvm(args.data)
    else:
        raise DataFormatError("one of --data or --synthetic is required")
    if args.normalize:
        m.normalize_columns()
    return m, labels


def _make_spec(args, labels):
    if args.lam is None:
        raise ValueError("--lambda is required")
    if args.objective == "lasso":
        fit = DataFit(kind=LEAST_SQUARES, labels=labels)
        return make_objective(fit, "l1", args.lam)
    if args.objective == "elastic_net":
        fit = DataFit(kind=LEAST_SQUARES, labels=labels)
        return make_objective(fit, "elastic_net", args.lam, eta=args.eta)
    fit = DataFit(kind=LOGISTIC, labels=labels)
    return make_objective(fit, "l1", args.lam)


def _run_check(check, args, m, labels, p, cfg):
    if check == "sigma":
        worst = engine.check_sigma_safety(m, p, cfg.gamma, probes=64,
                                          seed=cfg.seed)
        safe = worst <= cfg.sigma_prime + 1e-9
        print(f"sigma check: worst_ratio={worst:.6g} sigma_prime="
              f"{cfg.sigma_prime:.6g} safe={safe}")
        return 0 if safe else 2
    spec = _make_spec(args, labels)
    if check == "lemma3":
        worst = engine.check_lemma3(spec, m, p, cfg, trials=200, seed=cfg.seed)
        ok = worst <= 1e-8
        print(f"lemma3 check: worst_violation={worst:.6g} ok={ok}")
        return 0 if ok else 2
    # theta: grade one round of local solves from the zero start
    state = engine.SolverState.initial(m)
    views = engine._build_views(state, cfg, spec, m, p, engine.duality_gap(
        spec, m, state.alpha, state.v))
    thetas = []
    for k in range(p.k_count):
        res = solve_local(views[k], cfg.h_local, engine._worker_seed(cfg.seed, k, 0))
        thetas.append(measure_theta(views[k], res))
    print(f"theta check: h={cfg.h_local} max={max(thetas):.6g} "
          f"mean={float(np.mean(thetas)):.6g}")
    return 0


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = EngineConfig(
            k_count=args.k, h_local=args.h, gamma=args.gamma,
            sigma_prime=args.sigma_prime, max_rounds=args.rounds,
            gap_tol=args.gap_tol, seed=args.seed)
        baseline_cfg = None
        if args.baseline:
            baseline_cfg = BaselineConfig(
                kind=args.baseline, step_size=args.step,
                batch_size=args.batch, beta_scale=args.beta,
                max_rounds=args.rounds, gap_tol=args.gap_tol, seed=args.seed)
        if args.objective == "elastic_net" and args.eta is None:
            raise ValueError("--eta is required for the elastic net")
        m, labels = _load_instance(args)
        p = partition_columns(m.n_cols, cfg.k_count)

        if args.check:
            return _run_check(args.check, args, m, labels, p, cfg)

        spec = _make_spec(args, labels)
        if baseline_cfg is not None:
            result = solve_baseline(baseline_cfg, spec, m)
            label = baseline_cfg.kind
        else:
            result = engine.solve(cfg, spec, m, p)
            label = f"k={cfg.k_count} h={cfg.h_local}"
    except (DataFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        try:
            write_trace(result.traces, args.out, format=args.format)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    last = result.traces[-1]
    print(f"{args.objective} [{label}] rounds={result.state.round} "
          f"primal={last.primal:.10g} gap={last.gap:.6g} nnz={last.nnz} "
          f"stop={result.stop_reason}")
    return EXIT_CODES[result.stop_reason]


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
