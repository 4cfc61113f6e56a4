import csv
import json
import warnings

import numpy as np
import pytest

import shardcd as sc
from shardcd import local
from shardcd.cli import build_parser, cli_main


def run(args):
    return cli_main(args.split() if isinstance(args, str) else args)


SMALL = "--synthetic 40,24,0.4,4,0.05,5"

# Ten runs on one instance, by name, whose stdout and trace files a change
# that keeps the solver's arithmetic must leave byte-identical
IDENTITY_PREFIX = "--synthetic 200,100,0.1,10,0.01,42 --lambda 0.05"
IDENTITY_RUNS = {
    "lasso_k4_h5": "--objective lasso --k 4 --h 5",
    "lasso_k4_h5_sp4": "--objective lasso --k 4 --h 5 --sigma-prime 4",
    "enet_k3_json": "--objective elastic_net --k 3 --eta 0.5 --normalize "
                    "--format json",
    "logistic_k4_r300": "--objective sparse_logistic --k 4 --rounds 300",
    "prox_gd": "--objective lasso --baseline prox_gd",
    "mb_cd": "--objective lasso --baseline mb_cd --batch 10 --beta 2",
    "enet_k16_h20_sp1": "--objective elastic_net --eta 0.5 --k 16 --h 20 "
                        "--sigma-prime 1",
    "check_theta": "--objective lasso --k 4 --check theta",
    "check_lemma3": "--objective lasso --k 4 --check lemma3",
    "check_sigma": "--objective lasso --k 4 --check sigma",
}


def test_converged_run_exits_zero(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = run(f"{SMALL} --objective lasso --lambda 2.0 --k 4 --h 3 "
             f"--gap-tol 1e-6 --rounds 2000 --out {out}")
    assert rc == 0
    assert out.exists()
    line = capsys.readouterr().out.strip()
    assert "stop=gap_tol" in line and "primal=" in line and "nnz=" in line


def test_budget_exhausted_exits_two(capsys):
    rc = run(f"{SMALL} --objective lasso --lambda 0.01 --k 2 --rounds 2 "
             f"--gap-tol 1e-12")
    assert rc == 2
    assert "stop=max_rounds" in capsys.readouterr().out


def test_diverged_run_exits_three(capsys):
    rc = run(f"{SMALL} --objective lasso --lambda 0.01 --baseline prox_gd "
             f"--step 100 --rounds 50 --gap-tol 1e-12")
    assert rc == 3
    assert "stop=diverged" in capsys.readouterr().out


def test_rejected_rounds_printed_beside_adaptive_stop(capsys):
    args = f"{SMALL} --objective lasso --lambda 0.5 --k 4 --h 3 --rounds 2000"
    assert run(args) == 0
    line = capsys.readouterr().out.strip()
    assert line.split()[-2] == "stop=gap_tol"
    assert line.split()[-1].startswith("rejected=")
    assert run(f"{args} --sigma-prime 4") == 0
    assert capsys.readouterr().out.strip().endswith("stop=gap_tol")


def test_usage_errors_exit_one(capsys):
    assert run("--bogus") == 1
    assert run(f"{SMALL} --objective lasso --lambda 0.1 --k 0") == 1
    assert run(f"{SMALL} --objective lasso") == 1            # missing lambda
    assert run(f"{SMALL} --objective elastic_net --lambda 0.1") == 1  # no eta
    assert run("--objective lasso --lambda 0.1") == 1        # no data source
    assert run(f"{SMALL} --objective lasso --lambda 0.1 --format xml") == 1
    capsys.readouterr()


def test_non_finite_sigma_prime_exits_one(capsys):
    # a NaN sigma' moves no coordinate, so the run would spend its budget
    assert run(f"{SMALL} --objective lasso --lambda 0.1 --k 2 "
               f"--sigma-prime nan") == 1
    assert "sigma_prime" in capsys.readouterr().err


def test_negative_seed_exits_one(capsys):
    # it would fail after round 0, deriving a worker stream
    for extra in ("--k 2", "--baseline mb_cd"):
        assert run(f"{SMALL} --objective lasso --lambda 0.1 --seed -1 "
                   f"{extra}") == 1
        assert "seed must be nonnegative" in capsys.readouterr().err


def test_eta_out_of_range_exits_one(capsys):
    assert run(f"{SMALL} --objective elastic_net --lambda 0.1 --eta 1.5") == 1
    assert run(f"{SMALL} --objective elastic_net --lambda 0.1 --eta 0.0") == 1
    capsys.readouterr()


@pytest.mark.parametrize("objective", ["lasso", "sparse_logistic"])
def test_eta_without_elastic_net_exits_one(objective, capsys):
    assert run(f"{SMALL} --objective {objective} --lambda 0.1 --eta 0.5") == 1
    assert "--eta applies only to --objective elastic_net" \
        in capsys.readouterr().err


def test_data_and_synthetic_mutually_exclusive(capsys):
    assert run("--data /tmp/x.libsvm --synthetic 4,4,0.5,1,0.1,0 "
               "--objective lasso --lambda 0.1") == 1
    capsys.readouterr()


def test_python_dash_m_entry_point():
    import subprocess, sys
    from pathlib import Path
    # run from the directory holding the imported package, so the child
    # process finds the same shardcd without an install
    proc = subprocess.run(
        [sys.executable, "-m", "shardcd", "--synthetic", "20,12,0.5,2,0.1,3",
         "--objective", "lasso", "--lambda", "1.0", "--rounds", "500",
         "--gap-tol", "1e-5"],
        capture_output=True, text=True,
        cwd=Path(sc.__file__).resolve().parents[1])
    assert proc.returncode in (0, 2)
    assert "lasso" in proc.stdout


def test_column_whose_squared_norm_overflows_needs_normalize(tmp_path,
                                                            capsys):
    path = tmp_path / "big.svm"
    m = sc.ColMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], [1e200, 1.0, 3.0, 4.0])
    sc.write_libsvm(path, m, np.array([1.0, 2.0]))
    flags = f"--data {path} --objective lasso --lambda 0.1"
    assert run(flags) == 1
    assert capsys.readouterr().err.startswith(
        "error: column 0: its squared norm exceeds the largest double")
    assert run(f"{flags} --normalize") == 0
    assert "stop=gap_tol" in capsys.readouterr().out


@pytest.mark.parametrize("check", ["sigma", "lemma3", "theta"])
def test_checks_refuse_a_column_whose_squared_norm_overflows(tmp_path, capsys,
                                                            check):
    path = tmp_path / "big.svm"
    m = sc.ColMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], [1e200, 1.0, 3.0, 4.0])
    sc.write_libsvm(path, m, np.array([1.0, 2.0]))
    flags = f"--data {path} --objective lasso --lambda 0.1 --k 2 --check {check}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: column 0: its squared norm exceeds the largest double")
    assert run(f"{flags} --normalize") == 0
    assert capsys.readouterr().out.startswith(f"{check} check: ")


def test_missing_data_file_exits_one(capsys):
    assert run("--data /nonexistent.libsvm --objective lasso --lambda 0.1") == 1
    capsys.readouterr()


def test_bad_synthetic_descriptor_exits_one(capsys):
    assert run("--synthetic 1,2,3 --objective lasso --lambda 0.1") == 1
    capsys.readouterr()


@pytest.mark.parametrize("noise_seed,cause", [
    ("nan,1", "noise_sd must be finite and nonnegative"),
    ("inf,1", "noise_sd must be finite and nonnegative"),
    ("0.1,-1", "seed must be nonnegative")], ids=["nan", "inf", "seed"])
def test_bad_synthetic_value_names_its_cause(noise_seed, cause, capsys):
    assert run(f"--synthetic 50,30,0.2,5,{noise_seed} --lambda 0.1") == 1
    assert capsys.readouterr().err == f"error: bad --synthetic value: {cause}\n"


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()


def test_trace_files_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = (f"{SMALL} --objective elastic_net --lambda 0.5 --eta 0.5 "
             f"--k 4 --h 2 --rounds 50 --gap-tol 1e-8")
    rc1 = run(f"{flags} --out {a}")
    rc2 = run(f"{flags} --out {b}")
    assert rc1 == rc2
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


# the runs of IDENTITY_RUNS that take the coordinate pass, but for
# lasso_k4_h5_sp4, whose 1,061 rounds take seconds on the Python loop
@pytest.mark.parametrize("name", ["lasso_k4_h5", "enet_k3_json",
                                  "logistic_k4_r300", "enet_k16_h20_sp1",
                                  "check_theta", "check_lemma3"])
def test_identity_runs_do_not_depend_on_the_kernel(name, tmp_path, capsys,
                                                   monkeypatch):
    if local.kernel_name() != "c":
        pytest.skip("no C++ compiler to build the kernel with")
    outputs = []
    for i, handle in enumerate((local._kernel, None)):
        monkeypatch.setattr(local, "_kernel", handle)
        out = tmp_path / f"t{i}"
        rc = run(f"{IDENTITY_PREFIX} {IDENTITY_RUNS[name]} --out {out}")
        outputs.append((rc, capsys.readouterr().out,
                        out.read_bytes() if out.exists() else None))
    assert (outputs[0][2] is None) == name.startswith("check")
    assert outputs[1] == outputs[0]


def test_json_trace_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = (f"{SMALL} --objective lasso --lambda 1.0 --k 2 --rounds 20 "
             f"--gap-tol 1e-9 --format json")
    run(f"{flags} --out {a}")
    run(f"{flags} --out {b}")
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("method", ["", "--baseline prox_gd",
                                    "--baseline mb_cd --batch 4"],
                         ids=["solver", "prox_gd", "mb_cd"])
def test_reserved_trace_columns(tmp_path, capsys, method, fmt):
    # elapsed_ms and theta stay in the file format, always 0.0 and empty
    out = tmp_path / f"t.{fmt}"
    run(f"{SMALL} --objective lasso --lambda 1.0 --k 2 --rounds 10 "
        f"--format {fmt} --out {out} {method}")
    capsys.readouterr()
    if fmt == "csv":
        with open(out) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert tuple(reader.fieldnames) == sc.TRACE_FIELDS
        assert all(r["theta"] == "" for r in rows)
    else:
        rows = json.loads(out.read_text())
        assert all(tuple(r) == sc.TRACE_FIELDS for r in rows)
        assert all(r["theta"] is None for r in rows)
    assert len(rows) > 1
    assert all(float(r["elapsed_ms"]) == 0.0 for r in rows)


def test_sparse_logistic_runs(capsys):
    rc = run("--synthetic 30,20,0.5,3,0.1,9 --objective sparse_logistic "
             "--lambda 0.4 --k 2 --h 3 --rounds 800 --gap-tol 1e-5")
    assert rc in (0, 2)
    assert "sparse_logistic" in capsys.readouterr().out


def test_near_separable_logistic_reaches_the_gap(capsys):
    # at logistic's worst-case step length this run spent all 5,000
    # rounds and stopped at gap 4.6e-4; the line search makes it stop
    rc = run("--synthetic 200,100,0.1,10,0.01,42 --lambda 0.05 "
             "--objective sparse_logistic --k 1 --h 5")
    fields = dict(f.split("=") for f in capsys.readouterr().out.split()
                  if "=" in f)
    assert rc == 0 and fields["stop"] == "gap_tol"
    assert int(fields["rounds"]) < 5000
    assert abs(float(fields["primal"]) - 6.916608) <= float(fields["gap"])


def test_baseline_runs(tmp_path, capsys):
    out = tmp_path / "pg.csv"
    rc = run(f"{SMALL} --objective lasso --lambda 2.0 --baseline prox_gd "
             f"--rounds 5000 --gap-tol 1e-6 --out {out}")
    assert rc == 0
    assert "prox_gd" in capsys.readouterr().out
    rc = run(f"{SMALL} --objective lasso --lambda 2.0 --baseline mb_cd "
             f"--batch 10 --beta 2.0 --rounds 20000 --gap-tol 1e-6")
    assert rc == 0
    capsys.readouterr()


def test_baseline_ignores_solver_only_flags(tmp_path, capsys):
    # --k, --sigma-prime and --h set up the solver, which a baseline never runs
    base = "--synthetic 60,30,0.3,5,0.1,7 --lambda 0.5 --baseline prox_gd"
    outputs = []
    for i, extra in enumerate(["", "--k 100", "--sigma-prime 0.5", "--h 0"]):
        out = tmp_path / f"t{i}.csv"
        rc = run(f"{base} {extra} --out {out}")
        outputs.append((rc, capsys.readouterr().out, out.read_bytes()))
    assert outputs[0][1].startswith("lasso [prox_gd]")
    assert outputs[1:] == outputs[:1] * 3


@pytest.mark.parametrize("check", ["sigma", "lemma3", "theta"])
def test_check_with_baseline_exits_one(check, capsys):
    assert run(f"{SMALL} --objective lasso --lambda 0.5 --check {check} "
               f"--baseline mb_cd") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--check" in captured.err and "--baseline" in captured.err


def test_check_sigma(capsys):
    rc = run(f"{SMALL} --check sigma --k 4")
    assert rc == 0
    assert "worst_ratio=" in capsys.readouterr().out


def test_check_lemma3(capsys):
    rc = run(f"{SMALL} --objective lasso --lambda 0.5 --check lemma3 --k 4")
    assert rc == 0
    assert "worst_violation=" in capsys.readouterr().out


def test_check_theta(capsys):
    rc = run(f"{SMALL} --objective lasso --lambda 0.5 --check theta --k 4 --h 5")
    assert rc == 0
    out = capsys.readouterr().out
    assert "theta check:" in out and "max=" in out


def test_normalize_flag(capsys):
    rc = run(f"{SMALL} --objective lasso --lambda 0.5 --normalize --rounds 50 "
             f"--gap-tol 1e-4")
    assert rc in (0, 2)
    capsys.readouterr()


def test_parser_defaults():
    args = build_parser().parse_args(["--synthetic", "4,4,0.5,1,0.1,0"])
    assert args.k == 1 and args.gamma == 1.0 and args.format == "csv"
    assert args.rounds == 5000
