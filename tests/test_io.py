import csv
import ctypes
import json
import math
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shardcd as sc
from shardcd import dataio, local
from shardcd.dataio import DataFormatError, TRACE_FIELDS
from shardcd.engine import RoundTrace
from conftest import both_readers, chunked, random_matrix


@both_readers
def test_read_libsvm_two_lines(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("1 1:0.5\n-1 2:1.0\n")
    m, labels = sc.read_libsvm(path)
    assert (m.n_rows, m.n_cols) == (2, 2)
    assert labels.tolist() == [1.0, -1.0]
    assert m.toarray().tolist() == [[0.5, 0.0], [0.0, 1.0]]


@both_readers
def test_read_libsvm_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(DataFormatError):
        sc.read_libsvm(path)


@both_readers
def test_read_libsvm_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1:0.5\n-1 2:oops\n")
    with pytest.raises(DataFormatError, match=":2:"):
        sc.read_libsvm(path)


@both_readers
def test_read_libsvm_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("1 1:0.5\n\n-1 2:1.0\n\n")
    m, labels = sc.read_libsvm(path)
    assert (m.n_rows, m.n_cols) == (2, 2)
    assert labels.tolist() == [1.0, -1.0]


@both_readers
def test_read_libsvm_label_only_example(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("1 1:0.5\n-1\n1 2:1.0\n")
    m, labels = sc.read_libsvm(path)
    assert m.n_rows == 3
    assert labels.tolist() == [1.0, -1.0, 1.0]
    assert m.toarray()[1].tolist() == [0.0, 0.0]
    out = tmp_path / "bare_out.txt"
    sc.write_libsvm(out, m, labels)
    assert out.read_text() == "1.0 1:0.5\n-1.0\n1.0 2:1.0\n"


@both_readers
def test_read_libsvm_rejects_nonascending(tmp_path):
    path = tmp_path / "order.txt"
    path.write_text("1 2:1.0 1:0.5\n")
    with pytest.raises(DataFormatError, match="ascending"):
        sc.read_libsvm(path)
    path.write_text("1 0:1.0\n")
    with pytest.raises(DataFormatError, match="1-based"):
        sc.read_libsvm(path)


@both_readers
@pytest.mark.parametrize("line", ["nan 1:0.5", "1 1:nan", "1 1:0.5 2:inf",
                                  "-1 2:-inf"])
def test_read_libsvm_rejects_non_finite(tmp_path, line):
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"1 1:0.5\n\n{line}\n-1 2:1.0\n")
    with pytest.raises(DataFormatError, match=r"nonfinite\.txt:3: non-finite"):
        sc.read_libsvm(path)


@both_readers
def test_read_libsvm_names_the_first_bad_token(tmp_path):
    # a non-finite number before a malformed token is the one named
    path = tmp_path / "two.txt"
    path.write_text("1 1:0.5\n-1 2:inf\n1 x:1\n")
    with pytest.raises(DataFormatError,
                       match=r"two\.txt:2: non-finite number '2:inf'$"):
        sc.read_libsvm(path)


def test_write_libsvm_refuses_non_finite_labels(tmp_path):
    # read_libsvm refuses what it would write; the file is left untouched
    m = sc.ColMatrix.from_columns(2, [[(0, 1.0)], [(1, 2.0)]])
    path = tmp_path / "kept.txt"
    path.write_text("1 1:1.0\n")
    for bad in ([math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="labels must be finite"):
            sc.write_libsvm(path, m, np.array(bad))
        assert path.read_text() == "1 1:1.0\n"


@both_readers
def test_libsvm_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    m, _ = random_matrix(rng, n=9, d=6, density=0.5)
    # round-tripping needs the last feature present somewhere
    if len(m.column(8)[0]) == 0:
        pytest.skip("degenerate draw")
    # the format has no width: trailing empty columns read back as absent
    narrow = sc.ColMatrix.from_coo(2, 3, [0, 1], [0, 1], [1.0, 2.0])
    for m, width in ((m, m.n_cols), (narrow, 2)):
        labels = rng.standard_normal(m.n_rows)
        path = tmp_path / "rt.txt"
        sc.write_libsvm(path, m, labels)
        m2, labels2 = sc.read_libsvm(path)
        assert (m2.n_rows, m2.n_cols) == (m.n_rows, width)
        assert np.array_equal(labels2, labels)
        assert np.array_equal(m2.indptr, m.indptr[:width + 1])
        assert np.array_equal(m2.rows, m.rows)
        assert np.array_equal(m2.vals, m.vals)


@both_readers
def test_read_libsvm_index_beyond_int64_is_a_bad_token(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1 1:0.5\n-1 99999999999999999999999:1.0\n")
    with pytest.raises(DataFormatError, match=r"huge\.txt:2: bad token "
                       r"'99999999999999999999999:1\.0'$"):
        sc.read_libsvm(path)


def read_outcome(path, kernel):
    """read_libsvm's arrays and labels as bytes, or its error, with the
    module's kernel handle set to `kernel`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local, "_kernel", kernel)
        try:
            m, labels = sc.read_libsvm(path)
        except Exception as err:
            return type(err), str(err)
    return (m.n_rows, m.n_cols) + tuple(
        (a.dtype, a.tobytes()) for a in (m.indptr, m.rows, m.vals, labels))


def needs_c_tokenizer():
    if local.kernel_name() != "c":
        pytest.skip("no C compiler to build the tokenizer with")
    return local._kernel


@pytest.mark.parametrize("text", [
    "1 +3:1.0\n", "1 1_0:1\n", "1 1:1_0\n", "1 0x10:1\n", "1 1:0x10\n",
    "1 1:0.5\r-1 2:1.0\n", "1 1:0.5\r", "1\x0b1:0.5\n", "1 1:0.5\f\n",
    "1\u00a01:0.5\n", "\u0661 1:0.5\n", "\ufeff1 1:0.5\n", "1 1:0.5\x00\n",
    "nan 1:0.5\n", "1 1:nan\n", "1 1:inf\n", "1 1:Infinity\n",
    "1 99999999999999999999999:1.0\n", "1 9223372036854775808:1.0\n",
    "1 0:1\n", "1 -2:1\n", "1 2:1 2:1\n", "1 :1\n", "1 1:\n", "1 1:2:3\n",
    "1 1:.\n", "1 1:1e\n", "1 1:1e+\n", "1 1 2:1\n", "1: 1:1\n", "x 1:1\n",
    # strtod's own leniencies: leading whitespace (a newline would read the
    # next line's label), a locale's comma, inf, nan(...), a trailing e
    "1 1:\n-1 2:1.0", "1 1: 5\n", "1 1:\t5\n", "1 1:\x0b5\n", "1 1:1,5\n",
    "1 1:INF\n", "1 1:nan(0x1)\n", "1 1:1e5e\n",
])
def test_read_libsvm_declined_input_reads_as_in_python(tmp_path, text):
    lib = needs_c_tokenizer()
    path = tmp_path / "declined.txt"
    path.write_bytes(text.encode())
    want = read_outcome(path, None)
    for cpus in (1, 3):
        with chunked(cpus):
            assert dataio._tokenize_c(path.read_bytes()) is None
            assert read_outcome(path, lib) == want


@pytest.mark.parametrize("text", ["1 1:1e999\n", "-1e999 1:1\n",
                                  "1 1:1e-400 2:4.9e-324\n"])
def test_read_libsvm_out_of_range_numbers_read_as_in_python(tmp_path, text):
    lib = needs_c_tokenizer()
    path = tmp_path / "range.txt"
    path.write_text(text)
    assert dataio._tokenize_c(path.read_bytes()) is not None
    assert read_outcome(path, lib) == read_outcome(path, None)


DIGITS = "0123456789"
BLANKS = st.text(" \t", min_size=1, max_size=3)


@st.composite
def number_text(draw):
    """A number of the C tokenizer's grammar, whose square is finite."""
    whole = draw(st.text(DIGITS, max_size=17))
    frac = draw(st.none() | st.text(DIGITS, max_size=17))
    if not (whole or frac):
        whole = "0"
    text = draw(st.sampled_from(["", "+", "-"])) + whole
    if frac is not None:
        text += "." + frac
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE"))
                 + draw(st.sampled_from(["", "+", "-"]))
                 + draw(st.sampled_from(["", "0", "00"]))
                 + str(draw(st.integers(0, 130))))
    return text


@st.composite
def libsvm_text(draw):
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        lines += draw(st.lists(st.text(" \t", max_size=3), max_size=2))
        gaps = draw(st.lists(st.integers(1, 40), max_size=6))
        tokens = [draw(number_text())] + [
            draw(st.sampled_from(["", "0", "00"])) + f"{idx}:{draw(number_text())}"
            for idx in np.cumsum(gaps, dtype=np.int64).tolist()]
        line = "".join(tok + draw(BLANKS) for tok in tokens[:-1]) + tokens[-1]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line
                     + draw(st.sampled_from(["", " ", "\t "])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=60, deadline=None)
@given(text=libsvm_text())
def test_c_tokenizer_reads_valid_files_as_the_python_loop(text):
    lib = needs_c_tokenizer()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        want = read_outcome(path, None)
        assert isinstance(want[0], int)  # read, not raised
        for cpus in (1, 3):
            with chunked(cpus):
                assert dataio._tokenize_c(text.encode()) is not None
                assert read_outcome(path, lib) == want


def test_count_libsvm_counts_line_ends_and_colons():
    lib = needs_c_tokenizer()
    text = b"1 1:0.5 2:1\n-1 3:2\r\n\n" * 20  # 440 bytes
    for end in (0, 1, 127, 128, 129, 255, 256, 300, len(text)):
        colons = ctypes.c_int64()
        assert lib.count_libsvm(text, end, ctypes.byref(colons)) == \
            text[:end].count(b"\n")
        assert colons.value == text[:end].count(b":")


LONG_LINE = "1 " + " ".join(f"{i}:{i}.5" for i in range(1, 30)) + "\n"


@pytest.mark.parametrize("cpus, text, cuts, accepted", [
    # a bad token only in the last chunk
    (2, "1 1:0.5\n-1 2:1.0\n1 3:1.0\n-1 x:1\n", [0, 17, 32], False),
    # bad tokens in two chunks: the first in file order is named
    (2, "1 1:0.5\n-1 2:oops\n1 3:1\n-1 y:1\n", [0, 18, 31], False),
    # an infinite value in a later chunk
    (2, "1 1:0.5\n-1 2:1\n1 3:1e999\n", [0, 15, 25], True),
    # `1:` ending a chunk: strtod reads on into the next chunk's label
    (2, "1 1:\n-1\n", [0, 5, 8], False),
    # CR LF and blank lines on either side of a cut
    (3, "1 1:0.5\r\n\r\n\n-1 2:1\r\n\n1 3:2\r\n", [0, 11, 20, 28], True),
    # no LF after the last line
    (2, "1 1:0.5\n-1 2:1.0\n1 3:2", [0, 17, 22], True),
    # fewer lines than chunks
    (8, "1 1:0.5\n-1 2:1\n", [0, 8, 15], True),
    (4, "1 1:0.5\n", [0, 8], True),
    # one line longer than a chunk
    (4, LONG_LINE + "-1 2:1\n1\n", [0, 216, 223, 225], True),
], ids=["bad-last", "bad-twice", "inf-later", "colon-at-cut", "crlf-blank",
        "no-final-lf", "few-lines", "one-line", "long-line"])
def test_read_libsvm_in_chunks_reads_as_in_python(tmp_path, cpus, text, cuts,
                                                   accepted):
    lib = needs_c_tokenizer()
    path = tmp_path / "chunks.txt"
    path.write_bytes(text.encode())
    with chunked(cpus):
        assert dataio._cuts(text.encode()) == cuts
        assert (dataio._tokenize_c(text.encode()) is not None) == accepted
        assert read_outcome(path, lib) == read_outcome(path, None)


class NoThread(RuntimeError):
    pass


def test_read_libsvm_starts_no_thread_on_one_cpu_or_a_small_file(
        tmp_path, monkeypatch):
    lib = needs_c_tokenizer()
    path = tmp_path / "lines.txt"
    path.write_text("1 1:0.5\n-1 2:1.0\n1 3:2\n")
    want = read_outcome(path, None)

    def refuse(*args, **kwargs):
        raise NoThread

    monkeypatch.setattr(threading, "Thread", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert read_outcome(path, lib) == want  # under _CHUNK_MIN
    with chunked(1):
        assert read_outcome(path, lib) == want
    with chunked(2), pytest.raises(NoThread):  # the patch does catch threads
        sc.read_libsvm(path)


def test_read_libsvm_starts_a_thread_per_chunk_at_most(tmp_path, monkeypatch):
    lib = needs_c_tokenizer()
    path = tmp_path / "lines.txt"
    path.write_text("".join(f"{i % 2} {i}:{i}.25\n" for i in range(1, 40)))
    want = read_outcome(path, None)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    with chunked(3):
        assert read_outcome(path, lib) == want
    assert 1 <= len(started) <= 3
    assert not any(t.is_alive() for t in started)
    # without sched_getaffinity, cpu_count bounds the threads
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(dataio, "_CHUNK_MIN", 1)
    assert len(dataio._cuts(path.read_bytes())) == 3


def test_gen_synthetic_deterministic_and_dense():
    spec = sc.SyntheticSpec(n=12, d=8, density=1.0, true_nnz=3, noise_sd=0.1,
                            seed=11)
    m1, b1, t1 = sc.gen_synthetic(spec)
    m2, b2, t2 = sc.gen_synthetic(spec)
    assert np.array_equal(m1.vals, m2.vals)
    assert np.array_equal(b1, b2)
    assert np.array_equal(t1, t2)
    assert m1.nnz == 12 * 8  # density 1 -> fully dense columns
    assert np.count_nonzero(t1) == 3


def test_gen_synthetic_matches_a_from_columns_build():
    # the same draws in the same order, collected as (row, value) pairs
    for n, d, density, seed in ((12, 8, 1.0, 11), (40, 30, 0.2, 3),
                                (25, 6, 0.01, 7)):
        spec = sc.SyntheticSpec(n=n, d=d, density=density, true_nnz=2,
                                noise_sd=0.1, seed=seed)
        m, b, truth = sc.gen_synthetic(spec)
        rng = np.random.default_rng(seed)
        cols = []
        for _ in range(n):
            mask = rng.random(d) < density
            if not mask.any():
                mask[rng.integers(0, d)] = True
            idx = np.nonzero(mask)[0]
            cols.append(list(zip(idx.tolist(),
                                 rng.standard_normal(len(idx)).tolist())))
        ref = sc.ColMatrix.from_columns(d, cols)
        assert (m.n_rows, m.n_cols) == (ref.n_rows, ref.n_cols) == (d, n)
        for got, want in ((m.indptr, ref.indptr), (m.rows, ref.rows),
                          (m.vals, ref.vals)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        ref_truth = np.zeros(n)
        support = rng.choice(n, size=2, replace=False)
        signs = rng.choice([-1.0, 1.0], size=2)
        ref_truth[support] = signs * rng.uniform(0.5, 2.0, size=2)
        assert np.array_equal(truth, ref_truth)
        noise = 0.1 * rng.standard_normal(d)
        assert np.array_equal(b, ref.mat_vec(ref_truth) + noise)
        if density < 0.05:  # most columns took the one-entry fallback
            assert np.sum(np.diff(m.indptr) == 1) > n // 2


def test_gen_synthetic_classification_labels():
    spec = sc.SyntheticSpec(n=10, d=30, density=0.5, true_nnz=2, noise_sd=0.0,
                            seed=3)
    _, b, _ = sc.gen_synthetic(spec, classification=True)
    assert set(np.unique(b)).issubset({-1.0, 1.0})


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        sc.SyntheticSpec(n=4, d=4, density=0.0, true_nnz=1, noise_sd=0.1, seed=0)
    with pytest.raises(ValueError):
        sc.SyntheticSpec(n=4, d=4, density=0.5, true_nnz=9, noise_sd=0.1, seed=0)
    for noise in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sd must be finite and nonneg"):
            sc.SyntheticSpec(n=4, d=4, density=0.5, true_nnz=1, noise_sd=noise,
                             seed=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        sc.SyntheticSpec(n=4, d=4, density=0.5, true_nnz=1, noise_sd=0.1, seed=-1)
    # counts and seeds that are not integers, refused before gen_synthetic
    for name, value in [("n", 5.5), ("d", 4.0), ("true_nnz", 1.5),
                        ("seed", 1.5)]:
        fields = dict(n=4, d=4, density=0.5, true_nnz=1, noise_sd=0.1, seed=0)
        fields[name] = value
        with pytest.raises(ValueError,
                           match=f"{name} must be an integer, got {value}"):
            sc.SyntheticSpec(**fields)


def test_noiseless_synthetic_support_recovery():
    spec = sc.SyntheticSpec(n=50, d=80, density=0.4, true_nnz=5, noise_sd=0.0,
                            seed=21)
    m, b, truth = sc.gen_synthetic(spec)
    fit = sc.DataFit(kind=sc.LEAST_SQUARES, labels=b)
    lam = 0.001 * float(np.max(np.abs(m.mat_tvec(b))))
    ospec = sc.make_objective(fit, "l1", lam)
    p = sc.partition_columns(50, 4)
    res = sc.solve(sc.EngineConfig(k_count=4, h_local=10, max_rounds=3000,
                                   gap_tol=1e-10, seed=5), ospec, m, p)
    support = set(np.nonzero(truth)[0].tolist())
    recovered = set(np.nonzero(np.abs(res.state.alpha) > 1e-3)[0].tolist())
    assert support.issubset(recovered)
    # and the coefficients themselves are close at tiny lambda / no noise
    assert np.max(np.abs(res.state.alpha - truth)) <= 0.05


def trace_rows(n):
    return [RoundTrace(round=t, primal=1.0 / (t + 1), dual=-1.0,
                       gap=1e-3 * (t + 1), nnz=t, local_updates=10 * t)
            for t in range(n)]


def test_write_trace_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    sc.write_trace([], path, format="csv")
    assert path.read_text() == "round,elapsed_ms,primal,dual,gap,nnz,local_updates,theta\n"


def test_write_trace_single_record(tmp_path):
    path = tmp_path / "one.csv"
    sc.write_trace(trace_rows(1), path, format="csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",") == list(TRACE_FIELDS)
    # the reserved columns: elapsed_ms second, theta last
    assert lines[1] == "0,0.0,1.0,-1.0,0.001,0,0,"


def test_trace_csv_round_trip_parser_oracle(tmp_path):
    path = tmp_path / "rt.csv"
    rows = trace_rows(5)
    sc.write_trace(rows, path, format="csv")
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 5
    for rec, tr in zip(parsed, rows):
        assert int(rec["round"]) == tr.round
        assert float(rec["primal"]) == tr.primal  # exact round trip
        assert float(rec["dual"]) == tr.dual
        assert float(rec["gap"]) == tr.gap
        assert int(rec["nnz"]) == tr.nnz
        assert int(rec["local_updates"]) == tr.local_updates
        assert rec["elapsed_ms"] == "0.0"
        assert rec["theta"] == ""


def test_trace_json_round_trip_parser_oracle(tmp_path):
    path = tmp_path / "rt.json"
    rows = trace_rows(4)
    sc.write_trace(rows, path, format="json")
    parsed = json.loads(path.read_text())
    assert len(parsed) == 4
    for rec, tr in zip(parsed, rows):
        assert rec["round"] == tr.round
        assert rec["primal"] == tr.primal
        assert rec["elapsed_ms"] == 0.0
        assert rec["theta"] is None
        assert sorted(rec.keys()) == sorted(TRACE_FIELDS)


def test_write_trace_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        sc.write_trace([], tmp_path / "x.bin", format="xml")
