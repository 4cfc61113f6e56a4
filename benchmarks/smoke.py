"""Smoke check of the benchmark harness at tiny sizes.

    python3 benchmarks/smoke.py

Runs every workload shrunk to a few hundred nonzeros, untraced and
traced, and asserts that every metric named in BENCHMARK.json is printed
with its unit, that all checks pass and that tracing restores every
wrapped name. Then it hands the harness a deliberately corrupted
reference optimum and asserts that every solve is counted as failed.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re

import run
import tracing
from workloads import WORKLOADS, reference_optimum

TINY = {
    "logistic-tall-k4-h1": dict(features=10, examples=600, density=0.1,
                                true_nnz=3),
    "ingest-enet-1m": dict(features=200, examples=500, nnz=3000, true_nnz=20),
}
TINY_WORKLOADS = tuple(dataclasses.replace(w, **TINY[w.name]) for w in WORKLOADS)


def check(cond, msg):
    if not cond:
        raise SystemExit(f"smoke check failed: {msg}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check({w["name"] for w in bench["workloads"]}
          == {w.name for w in WORKLOADS}, "workload names differ")
    originals = [vars(owner)[name] for owner, name, _ in tracing.WRAPPED]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        named = {m["name"]: m["unit"] for m in bench[key]}
        check(named == (run.PER_LAYER if trace else run.END_TO_END),
              f"{key} names or units differ from run.py")
        for w in TINY_WORKLOADS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.main(["--workload", w.name, "--seed", "3", "--seconds",
                          "0.5", "--trace", str(trace)], workloads=TINY_WORKLOADS)
            text = out.getvalue()
            result = json.loads(text.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "result keys")
            check(result["correct"] and result["failed"] == 0,
                  f"{w.name}: checks failed:\n{text}")
            for name, unit in named.items():
                check(result["metrics"].get(name, {}).get("unit") == unit,
                      f"{w.name}: {name} missing or without unit {unit}")
                line = rf"^{re.escape(name)} = \S+ {re.escape(unit)}$"
                check(re.search(line, text, re.M),
                      f"{w.name}: {name} not printed with its unit")
            check("fail_ratio = 0/" in text, f"{w.name}: fail_ratio not printed")
            print(f"ok {w.name} trace={trace}")
    check(all(vars(owner)[name] is orig for (owner, name, _), orig
              in zip(tracing.WRAPPED, originals)), "a wrapped name was not restored")

    def corrupted(inst):
        ref = reference_optimum(inst)
        return ref._replace(primal=ref.primal + 1.0 + abs(ref.primal))

    w = TINY_WORKLOADS[0]
    res = run.measure(w, 3, 0.5, False, reference_fn=corrupted)
    solves = res.attempted - 1  # one export round trip, which still passes
    check(res.failed == solves and not res.json()["correct"],
          f"corrupted reference counted {res.failed} of {solves} solves")
    check(f"fail_ratio = {solves}/{res.attempted}" in "\n".join(res.notes),
          "fail_ratio does not show the corrupted reference")
    print(f"ok corrupted reference: fail_ratio {res.failed}/{res.attempted}")


if __name__ == "__main__":
    main()
