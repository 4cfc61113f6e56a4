"""Certified time-to-gap benchmark for shardcd.

Run from the repository root:

    python3 benchmarks/run.py --workload logistic-tall-k4-h1 --seed 1 --seconds 55 --trace 0

One process, sequential engine (`EngineConfig.parallel=False`, the only
mode the CLI offers) and BLAS pinned to one thread. A run:

1. makes the workload's inputs from `--seed` (untimed);
2. sets up a solvable instance from them;
3. computes a prox-GD reference optimum once (untimed) and runs a short
   warm-up solve;
4. repeats, for at least three iterations and until about `--seconds`
   have been measured: one `solve` from the zero start to the certified
   gap target, then more setups and exports (`write_trace` of the first
   solve's trace plus `write_libsvm` of the loaded instance);
5. checks every result outside the timed region.

`time_to_gap_s`, `setup_s` and `write_s` are medians over the run.
With `--trace 1` every iteration adds a solve with every layer boundary
wrapped in a span (see tracing.py) and the run reports the per-layer metrics
instead; spans go to `benchmarks/out/`. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "benchmarks", "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import shardcd as sc  # noqa: E402

if not os.path.abspath(sc.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise SystemExit(f"shardcd was imported from {sc.__file__}, "
                     f"not from {ROOT}/src")

from tracing import LAYER, Tracer  # noqa: E402
from workloads import (WORKLOADS, make_inputs, reference_optimum,  # noqa: E402
                       setup)

END_TO_END = {
    "time_to_gap_s": "s",
    "rounds_to_gap": "count",
    "setup_s": "s",
    "write_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "local.solve_local_ms.p50": "ms",
    "local.solve_local_ms.p99": "ms",
    "local.ns_per_update": "ns",
    "local.updates": "count",
    "local.changed_ratio": "ratio",
    "local.share": "ratio",
    "objectives.duality_gap_ms.p50": "ms",
    "objectives.duality_gap_ms.p99": "ms",
    "objectives.view_ms": "ms",
    "objectives.share": "ratio",
    "data.mat_vec_ms.p50": "ms",
    "data.mat_tvec_ms.p50": "ms",
    "data.product_gbps_computed": "GB/s",
    "data.share": "ratio",
    "data.from_coo_s": "s",
    "data.normalize_s": "s",
    "data.setup_share": "ratio",
    "engine.run_round_ms.p50": "ms",
    "engine.run_round_ms.p99": "ms",
    "engine.self_ms_per_round": "ms",
    "engine.drift_check_ms": "ms",
    "engine.imbalance": "ratio",
    "engine.share": "ratio",
    "dataio.read_libsvm_s": "s",
    "dataio.read_mb_per_s": "MB/s",
    "dataio.write_libsvm_s": "s",
    "dataio.write_trace_ms": "ms",
    "dataio.gen_synthetic_s": "s",
    "dataio.setup_share": "ratio",
    "baselines.prox_gd_time_to_gap_s": "s",
    "baselines.prox_gd_rounds": "count",
    "trace.overhead_s": "s",
}

# each iteration: one solve (two when tracing), then setups and exports
# for at least SIDE_SHARE of --seconds each
MIN_ITERATIONS = 3
SIDE_SHARE = 0.025
WARMUP_ROUNDS = 3


def repeat(fn, min_reps, budget_s):
    """Call fn at least min_reps times, and again while the next call is
    expected to end within budget_s. Returns (wall times, last output);
    repeat(fn, 1, 0.0) times a single call. Each call starts from a
    collected heap, so garbage left by earlier work is not timed with it."""
    times, out = [], None
    while len(times) < min_reps or sum(times) + statistics.median(times) <= budget_s:
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def check_solve(inst, ref, res):
    """Failed checks of one solve result (empty when it is correct)."""
    errors = []
    if res.stop_reason != "gap_tol":
        errors.append(f"stop reason {res.stop_reason}")
    if any(tr.gap < -1e-9 for tr in res.traces):
        errors.append("negative gap in trace")
    v_ref = inst.matrix.mat_vec(res.state.alpha)
    drift = float(np.max(np.abs(res.state.v - v_ref), initial=0.0))
    if drift > 1e-8 * max(1.0, float(np.max(np.abs(v_ref), initial=0.0))):
        errors.append(f"v differs from A alpha by {drift:g}")
    last = res.traces[-1]
    # both primals lie within their own gap above the optimum
    if abs(last.primal - ref.primal) > max(last.gap, ref.gap) + 1e-12 * abs(ref.primal):
        errors.append(f"primal {last.primal!r} vs reference {ref.primal!r}")
    return errors


def same_matrix(a, b):
    return (a.n_rows == b.n_rows and a.n_cols == b.n_cols
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.vals, b.vals))


@dataclasses.dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict
    notes: list

    def json(self):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def measure(w, seed, seconds, trace, reference_fn=reference_optimum):
    """Run one workload; see the module docstring for the phases."""
    tracer = Tracer()

    @contextlib.contextmanager
    def traced(name=None):
        """Install the span wrappers, and open span `name`, when tracing."""
        if not trace:
            yield
            return
        with tracer.installed(), (tracer.span(name) if name
                                  else contextlib.nullcontext()):
            yield

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        inputs = make_inputs(w, seed, tmp)
        file_bytes = os.path.getsize(inputs) if w.from_file else 0

        def do_setup():
            with traced("setup"):
                return setup(w, inputs)
        setup_times, inst = repeat(do_setup, 1, 0.0)

        ref = reference_fn(inst)
        sc.solve(dataclasses.replace(inst.cfg, max_rounds=WARMUP_ROUNDS),
                 inst.spec, inst.matrix, inst.partition)

        solve_times, traced_times, write_times = [], [], []
        first, errors = [], []  # first (result, trace bytes); failed checks per solve
        trace_path = os.path.join(tmp, "trace.csv")
        export_path = os.path.join(tmp, "export.svm")

        def do_solve(tracing=False):
            def call():
                with traced() if tracing else contextlib.nullcontext():
                    return sc.solve(inst.cfg, inst.spec, inst.matrix,
                                    inst.partition)
            times, res = repeat(call, 1, 0.0)
            # checked at once, outside the timed call, so results do not pile up
            path = os.path.join(tmp, "check.csv")
            sc.write_trace(res.traces, path)
            with open(path, "rb") as fh:
                data = fh.read()
            if not first:
                first.append((res, data))
            errs = check_solve(inst, ref, res)
            if data != first[0][1]:
                errs.append("trace bytes differ from the first solve")
            errors.append(errs)
            return times

        def do_export():
            with traced("export"):
                sc.write_trace(first[0][0].traces, trace_path)
                sc.write_libsvm(export_path, inst.matrix, inst.labels)

        # Setups and exports are spread over the whole run, so that their
        # medians sample the same host conditions as the solves.
        def iteration():
            solve_times.extend(do_solve())
            if trace:
                traced_times.extend(do_solve(tracing=True))
            setup_times.extend(repeat(do_setup, 1, SIDE_SHARE * seconds)[0])
            write_times.extend(repeat(do_export, 1, SIDE_SHARE * seconds)[0])
        repeat(iteration, MIN_ITERATIONS, seconds - setup_times[0])

        # correctness, outside every timed region
        notes = [f"solve {i} failed: " + "; ".join(e)
                 for i, e in enumerate(errors) if e]
        failed = len(notes)
        m_back, labels_back = sc.read_libsvm(export_path)
        if not (same_matrix(m_back, inst.matrix)
                and np.array_equal(labels_back, inst.labels)):
            failed += 1
            notes.append("export round trip failed: arrays or labels differ")
        attempted = len(errors) + 1

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    notes.append(f"{len(solve_times)} untraced solves, "
                 f"{len(traced_times)} traced, {len(setup_times)} setups, "
                 f"{len(write_times)} exports")
    notes.append("solve seconds " + " ".join(f"{t:.4f}" for t in solve_times))
    notes.append(f"time_to_gap_s quartiles {_quartiles(solve_times)}; "
                 + _tail_note(solve_times))
    notes.append(f"fail_ratio = {failed}/{attempted} = "
                 f"{failed / attempted:.6g} ratio")
    if trace:
        metrics = layer_metrics(tracer, inst, ref, solve_times, traced_times,
                                file_bytes)
        span_path = os.path.join(OUT_DIR, f"spans-{w.name}-seed{seed}.jsonl")
        tracer.write(span_path, environment(w, seed, seconds, trace))
        notes.append(f"{len(tracer.spans)} spans written to {span_path}")
    else:
        metrics = {
            "time_to_gap_s": statistics.median(solve_times),
            "rounds_to_gap": first[0][0].state.round,
            "setup_s": statistics.median(setup_times),
            "write_s": statistics.median(write_times),
            "peak_rss_mb": rss_mb,
        }
    units = PER_LAYER if trace else END_TO_END
    return Result(attempted, failed,
                  {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                  notes)


def _quartiles(xs):
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"{q1:.4g}/{q2:.4g}/{q3:.4g} s of n={len(xs)}"


def _tail_note(xs):
    """The highest percentile with at least ten samples beyond it, if any."""
    tail = [p for p in (50, 90, 99, 99.9) if len(xs) * (100 - p) / 100 >= 10]
    if not tail:
        return "no percentile has ten samples beyond it"
    p = tail[-1]
    return f"p{p} = {float(np.percentile(xs, p)):.6g} s"


def layer_metrics(tracer, inst, ref, untraced, traced, file_bytes):
    """Per-layer metrics derived from the recorded spans."""
    spans = tracer.spans
    self_ms = tracer.self_ms()
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(sp)

    def root_name(sp):
        return spans[sp.root].name

    def ms(name, root, parent=None, own=False):
        return [self_ms[i] if own else sp.ms for i, sp in enumerate(spans)
                if sp.name == name and root_name(sp) == root
                and (parent is None or spans[sp.parent].name == parent)]

    def pct(xs, p):
        return float(np.percentile(xs, p)) if xs else 0.0

    def shares(root):
        total = sum(sp.ms for sp in spans if sp.parent is None and sp.name == root)
        acc = defaultdict(float)
        for i, sp in enumerate(spans):
            if root_name(sp) == root:
                acc[LAYER.get(sp.name, "benchmark")] += self_ms[i]
        return {k: v / total for k, v in acc.items()}

    n_solves = sum(1 for sp in spans if sp.parent is None and sp.name == "solve")
    local = [sp for sp in spans if sp.name == "solve_local" and root_name(sp) == "solve"]
    updates = sum(sp.attrs["updates"] for sp in local)
    changed = sum(sp.attrs["changed"] for sp in local)
    local_ms = sum(sp.ms for sp in local)
    rounds = [i for i, sp in enumerate(spans) if sp.name == "run_round"]
    views, imbalance = [], []
    for r in rounds:
        kids = children[r]
        views.append(sum(k.ms for k in kids if k.name in ("f_grad", "f_value")))
        workers = [k.ms for k in kids if k.name == "solve_local"]
        imbalance.append(max(workers) / statistics.fmean(workers))
    products = ms("mat_vec", "solve") + ms("mat_tvec", "solve")
    m = inst.matrix
    product_bytes = 24 * m.nnz + 8 * (m.n_rows + m.n_cols)
    solve_share, setup_share = shares("solve"), shares("setup")
    reads = ms("read_libsvm", "setup")
    return {
        "local.solve_local_ms.p50": pct([sp.ms for sp in local], 50),
        "local.solve_local_ms.p99": pct([sp.ms for sp in local], 99),
        "local.ns_per_update": local_ms * 1e6 / updates,
        "local.updates": updates / n_solves,
        "local.changed_ratio": changed / updates,
        "local.share": solve_share.get("local", 0.0),
        "objectives.duality_gap_ms.p50": pct(ms("duality_gap", "solve", own=True), 50),
        "objectives.duality_gap_ms.p99": pct(ms("duality_gap", "solve", own=True), 99),
        "objectives.view_ms": pct(views, 50),
        "objectives.share": solve_share.get("objectives", 0.0),
        "data.mat_vec_ms.p50": pct(ms("mat_vec", "solve"), 50),
        "data.mat_tvec_ms.p50": pct(ms("mat_tvec", "solve"), 50),
        "data.product_gbps_computed":
            len(products) * product_bytes / (sum(products) / 1e3) / 1e9,
        "data.share": solve_share.get("data", 0.0),
        "data.from_coo_s": pct(ms("from_coo", "setup"), 50) / 1e3,
        "data.normalize_s": pct(ms("normalize_columns", "setup"), 50) / 1e3,
        "data.setup_share": setup_share.get("data", 0.0),
        "engine.run_round_ms.p50": pct(ms("run_round", "solve"), 50),
        "engine.run_round_ms.p99": pct(ms("run_round", "solve"), 99),
        "engine.self_ms_per_round": pct(ms("run_round", "solve", own=True), 50),
        "engine.drift_check_ms": pct(ms("mat_vec", "solve", parent="solve"), 50),
        "engine.imbalance": pct(imbalance, 50),
        "engine.share": solve_share.get("engine", 0.0),
        "dataio.read_libsvm_s": pct(ms("read_libsvm", "setup", own=True), 50) / 1e3,
        "dataio.read_mb_per_s":
            file_bytes / 1e6 / (pct(reads, 50) / 1e3) if reads else 0.0,
        "dataio.write_libsvm_s": pct(ms("write_libsvm", "export"), 50) / 1e3,
        "dataio.write_trace_ms": pct(ms("write_trace", "export"), 50),
        "dataio.gen_synthetic_s": pct(ms("gen_synthetic", "setup"), 50) / 1e3,
        "dataio.setup_share": setup_share.get("dataio", 0.0),
        "baselines.prox_gd_time_to_gap_s": ref.seconds,
        "baselines.prox_gd_rounds": ref.rounds,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError), \
                open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(w, seed, seconds, trace):
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": _git_commit(),
    }


def main(argv=None, workloads=WORKLOADS):
    by_name = {w.name: w for w in workloads}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(by_name))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    w = by_name[args.workload]
    print("env " + json.dumps(environment(w, args.seed, args.seconds, args.trace)))
    res = measure(w, args.seed, args.seconds, bool(args.trace))
    for note in res.notes:
        print(note)
    for name, m in res.metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(res.json()))


if __name__ == "__main__":
    main()
