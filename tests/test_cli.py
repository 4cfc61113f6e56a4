import numpy as np
import pytest

import shardcd as sc
from shardcd.cli import build_parser, cli_main


def run(args):
    return cli_main(args.split() if isinstance(args, str) else args)


SMALL = "--synthetic 40,24,0.4,4,0.05,5"


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


def test_eta_out_of_range_exits_one(capsys):
    assert run(f"{SMALL} --objective elastic_net --lambda 0.1 --eta 1.5") == 1
    assert run(f"{SMALL} --objective elastic_net --lambda 0.1 --eta 0.0") == 1
    capsys.readouterr()


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


def test_missing_data_file_exits_one(capsys):
    assert run("--data /nonexistent.libsvm --objective lasso --lambda 0.1") == 1
    capsys.readouterr()


def test_bad_synthetic_descriptor_exits_one(capsys):
    assert run("--synthetic 1,2,3 --objective lasso --lambda 0.1") == 1
    capsys.readouterr()


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


def test_json_trace_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = (f"{SMALL} --objective lasso --lambda 1.0 --k 2 --rounds 20 "
             f"--gap-tol 1e-9 --format json")
    run(f"{flags} --out {a}")
    run(f"{flags} --out {b}")
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_sparse_logistic_runs(capsys):
    rc = run("--synthetic 30,20,0.5,3,0.1,9 --objective sparse_logistic "
             "--lambda 0.4 --k 2 --h 3 --rounds 800 --gap-tol 1e-5")
    assert rc in (0, 2)
    assert "sparse_logistic" in capsys.readouterr().out


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
