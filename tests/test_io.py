import csv
import ctypes
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import shardcd as sc
from shardcd import dataio, local
from shardcd.dataio import DataFormatError, TRACE_FIELDS
from shardcd.engine import RoundTrace
from conftest import chunked, libsvm_paths, random_matrix


@libsvm_paths
def test_read_libsvm_two_lines(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("1 1:0.5\n-1 2:1.0\n")
    m, labels = sc.read_libsvm(path)
    assert (m.n_rows, m.n_cols) == (2, 2)
    assert labels.tolist() == [1.0, -1.0]
    assert m.toarray().tolist() == [[0.5, 0.0], [0.0, 1.0]]


@libsvm_paths
def test_read_libsvm_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(DataFormatError):
        sc.read_libsvm(path)


@libsvm_paths
def test_read_libsvm_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1:0.5\n-1 2:oops\n")
    with pytest.raises(DataFormatError, match=":2:"):
        sc.read_libsvm(path)


@libsvm_paths
def test_read_libsvm_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("1 1:0.5\n\n-1 2:1.0\n\n")
    m, labels = sc.read_libsvm(path)
    assert (m.n_rows, m.n_cols) == (2, 2)
    assert labels.tolist() == [1.0, -1.0]


@libsvm_paths
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


@libsvm_paths
def test_read_libsvm_rejects_nonascending(tmp_path):
    path = tmp_path / "order.txt"
    path.write_text("1 2:1.0 1:0.5\n")
    with pytest.raises(DataFormatError, match="ascending"):
        sc.read_libsvm(path)
    path.write_text("1 0:1.0\n")
    with pytest.raises(DataFormatError, match="1-based"):
        sc.read_libsvm(path)


@libsvm_paths
@pytest.mark.parametrize("line", ["nan 1:0.5", "1 1:nan", "1 1:0.5 2:inf",
                                  "-1 2:-inf"])
def test_read_libsvm_rejects_non_finite(tmp_path, line):
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"1 1:0.5\n\n{line}\n-1 2:1.0\n")
    with pytest.raises(DataFormatError, match=r"nonfinite\.txt:3: non-finite"):
        sc.read_libsvm(path)


@libsvm_paths
def test_read_libsvm_names_the_first_bad_token(tmp_path):
    # a non-finite number before a malformed token is the one named
    path = tmp_path / "two.txt"
    path.write_text("1 1:0.5\n-1 2:inf\n1 x:1\n")
    with pytest.raises(DataFormatError,
                       match=r"two\.txt:2: non-finite number '2:inf'$"):
        sc.read_libsvm(path)


@libsvm_paths
def test_write_libsvm_refuses_non_finite_labels(tmp_path):
    # read_libsvm refuses what it would write; the file is left untouched
    m = sc.ColMatrix.from_columns(2, [[(0, 1.0)], [(1, 2.0)]])
    path = tmp_path / "kept.txt"
    path.write_text("1 1:1.0\n")
    for bad in ([math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="labels must be finite"):
            sc.write_libsvm(path, m, np.array(bad))
        assert path.read_text() == "1 1:1.0\n"


@libsvm_paths
def test_write_libsvm_refuses_labels_not_one_dimensional_and_real(tmp_path):
    # a (2, 1) or (2, 2) array has one entry per row by len(), complex
    # labels are finite, and string labels have no finiteness; the file is
    # left untouched. Boolean, integer and float labels are written
    m = sc.ColMatrix.from_columns(2, [[(0, 1.0)], [(1, 2.0)]])
    path = tmp_path / "kept.txt"
    path.write_text("1 1:1.0\n")
    for bad in (np.ones((2, 1)), np.ones((2, 2)), np.float64(1.0),
                np.array([1.0, 2j]), [1.0, 1j], np.array(["a", "b"])):
        with pytest.raises(ValueError,
                           match="labels must be one-dimensional and real"):
            sc.write_libsvm(path, m, bad)
        assert path.read_text() == "1 1:1.0\n"
    for good in (np.array([True, False]), np.array([3, -1]), [0.5, 2.0]):
        sc.write_libsvm(path, m, good)
        assert np.array_equal(sc.read_libsvm(path)[1], np.asarray(good, float))


@libsvm_paths
def test_write_libsvm_refuses_a_matrix_without_rows(tmp_path):
    # read_libsvm refuses the empty file it would write; the file is left
    # untouched
    m = sc.ColMatrix(0, 2, [0, 0, 0], [], [])
    path = tmp_path / "kept.txt"
    path.write_text("1 1:1.0\n")
    with pytest.raises(ValueError, match="matrix must have at least one row"):
        sc.write_libsvm(path, m, np.zeros(0))
    assert path.read_text() == "1 1:1.0\n"


def written(path, m, labels, kernel):
    """The bytes write_libsvm writes with the module's kernel handle set
    to `kernel`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local, "_kernel", kernel)
        sc.write_libsvm(path, m, labels)
    return path.read_bytes()


def assert_writers_agree(path, m, labels):
    """The C formatter writes the Python loop's bytes on one, two and three
    threads; returns them."""
    lib = needs_c_tokenizer()  # the library that holds the formatter
    want = written(path, m, labels, None)
    assert written(path, m, labels, lib) == want
    for cpus in (2, 3):
        with chunked(cpus):
            assert written(path, m, labels, lib) == want
    return want


def one_column(values):
    """Labels carrying `values`, and a one-column matrix holding those
    whose squares, the column norm's terms, are finite."""
    values = np.asarray(values, dtype=np.float64)
    rows = np.flatnonzero(np.abs(values) < 1e150)
    return sc.ColMatrix.from_coo(len(values), 1, rows, 0 * rows,
                                 values[rows]), values


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
    1e-4, 9.999999999999999e-05, 1e-5, 1e16, -1e16, 9999999999999998.0,
    0.1, 1 / 3, 123.0, 1.5e16, 1e-300, 1e300,
] + [s * float(10**k) for k in range(19) for s in (1, -1)] + [
    s * 2.0**e for e in range(-1074, 1024) for s in (1, -1)] + [
    # 1,000 ulps each way of where repr's layout changes (1e-4, 1e16) and
    # where doubles stop being spaced by at most 1 (2^53, and 1e15 below it)
    s * x for c in (1e-4, 1e16, 2.0**53, 1e15) for s in (1, -1)
    for x in (np.float64(c).view(np.int64)
              + np.arange(-1000, 1001)).view(np.float64).tolist()]


def test_c_formatter_writes_repr_of_edge_values(tmp_path):
    m, labels = one_column(EDGE_VALUES)
    lines = assert_writers_agree(tmp_path / "edge.svm", m,
                                 labels).decode().splitlines()
    assert lines[:3] == ["0.0 1:0.0", "-0.0 1:-0.0", "5e-324 1:5e-324"]
    assert [line.split()[0] for line in lines] == list(map(repr, EDGE_VALUES))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_c_formatter_writes_repr_of_random_doubles(tmp_path_factory, bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assume(len(values))  # write_libsvm refuses a matrix without rows
    m, labels = one_column(values)
    assert_writers_agree(tmp_path_factory.mktemp("bits") / "bits.svm", m,
                         labels)


def test_c_formatter_buffer_boundary(tmp_path, monkeypatch):
    lib = needs_c_tokenizer()
    starts = []

    class Counted:
        def format_libsvm(self, row, *args):
            starts.append(row)
            return lib.format_libsvm(row, *args)

    long_row = 30_000  # its worst case, 25 + 45 * 30_000 bytes, tops 1 MiB
    # each case with the rows its blocks start at, for the default buffer
    # and for one too small for any line, which a buffer of the longest
    # line's worst case replaces; a block ends before the row whose worst
    # case would take the block's sum past the buffer
    cases = [
        # worst cases 25, 25, 25: buffers of 1 MiB and 25 bytes
        (sc.ColMatrix(3, 0, [0], [], []), [0], [0, 1, 2]),  # label-only rows
        # worst cases 70, 25, 70: buffers of 1 MiB and 70 bytes
        (sc.ColMatrix.from_coo(3, 2_000_000, [0, 2], [1_500_000, 1_999_999],
                               [0.5, -2.0]), [0], [0, 1, 2]),
        # worst cases 25, 25, 1_350_025, 25: a buffer of 1_350_025 bytes
        (sc.ColMatrix.from_coo(4, long_row, np.full(long_row, 2),
                               np.arange(long_row),
                               np.linspace(-1, 1, long_row)), [0, 2, 3],
         [0, 2, 3]),
    ]
    rng, default = np.random.default_rng(3), dataio._WRITE_BUF
    monkeypatch.setattr(threading, "Thread", None)  # the writer starts
    monkeypatch.setattr(subprocess, "Popen", None)  # no thread or process
    for i, (m, *calls) in enumerate(cases):
        labels = rng.standard_normal(m.n_rows)
        path = tmp_path / f"case{i}.svm"
        want = written(path, m, labels, None)
        for size, expected in zip((default, 8), calls):
            monkeypatch.setattr(dataio, "_WRITE_BUF", size)
            del starts[:]
            assert written(path, m, labels, Counted()) == want
            assert starts == expected


@libsvm_paths
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


@libsvm_paths
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
        pytest.skip("no C++ compiler to build the tokenizer with")
    return local._kernel


@pytest.mark.parametrize("text", [
    "1 +3:1.0\n", "1 1_0:1\n", "1 1:1_0\n", "1 0x10:1\n", "1 1:0x10\n",
    "1 1:0.5\r-1 2:1.0\n", "1 1:0.5\r", "1\x0b1:0.5\n", "1 1:0.5\f\n",
    "1\u00a01:0.5\n", "\u0661 1:0.5\n", "\ufeff1 1:0.5\n", "1 1:0.5\x00\n",
    "nan 1:0.5\n", "1 1:nan\n", "1 1:inf\n", "1 1:Infinity\n",
    "1 99999999999999999999999:1.0\n", "1 9223372036854775808:1.0\n",
    "1 0:1\n", "1 -0:1\n", "1 -2:1\n", "1 2:1 2:1\n", "1 :1\n", "1 1:\n",
    "1 1:2:3\n", "1 1:.\n", "1 1:1e\n", "1 1:1e+\n", "1 1 2:1\n", "1: 1:1\n",
    "x 1:1\n",
    # what a number reader may take beyond the grammar: leading whitespace
    # (a newline would read the next line's label), a locale's comma, inf,
    # nan(...), a trailing e
    "1 1:\n-1 2:1.0", "1 1: 5\n", "1 1:\t5\n", "1 1:\x0b5\n", "1 1:1,5\n",
    "1 1:INF\n", "1 1:nan(0x1)\n", "1 1:1e5e\n",
    # signs: the one leading '+' that from_chars refuses is skipped, no more
    "+-1 1:1\n", "1 1:+-5\n", "1 1:++5\n", "1 1:+\n", "1 1:-+5\n",
    # out of a double's range, which from_chars reports: the Python loop
    # reads an overflow as inf (an error) and an underflow as 0
    "1 1:1e999\n", "-1e999 1:1\n", "1 1:1e-400 2:4.9e-324\n",
    "+1e999 1:1\n", "1 1:+1e-400\n", "1 1:2.4703282292062327e-324\n",
    "1 1:1.7976931348623159e308\n", "1 1:1e-99999999999999999999\n",
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


@pytest.mark.parametrize("number", [
    "4.9e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
    "1.7976931348623158e308", "1e23", "9007199254740993", "0e99999", ".5",
    "5.", "+.5", "+1e23", "1234567890123456789012345678901234567890",
])
def test_read_libsvm_boundary_numbers_read_as_in_python(tmp_path, number):
    lib = needs_c_tokenizer()
    path = tmp_path / "boundary.txt"
    negative = "-" + number.lstrip("+")
    path.write_text(f"{number} 1:{number}\n{negative} 2:{negative}\n")
    parsed = dataio._tokenize_c(path.read_bytes())
    assert parsed is not None
    assert parsed[0].tolist() == [float(number), float(negative)]
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


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=20),
       form=st.sampled_from(["{!r}", "{:.17e}"]))
def test_c_tokenizer_reads_every_finite_double_back(xs, form):
    lib = needs_c_tokenizer()
    text = "".join(f"{form} 1:{form}\n".format(x, x) for x in xs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doubles.txt")
        with open(path, "w") as fh:
            fh.write(text)
        assert dataio._tokenize_c(text.encode()) is not None
        want = read_outcome(path, None)
        assert read_outcome(path, lib) == want
    bits = np.array(xs).tobytes()
    assert want[-1] == (np.dtype(np.float64), bits)  # labels
    assert want[-2] == (np.dtype(np.float64), bits)  # the one column's values


def test_count_libsvm_counts_line_ends_and_colons():
    lib = needs_c_tokenizer()
    text = b"1 1:0.5 2:1\n-1 3:2\r\n\n" * 20  # 440 bytes
    for end in (0, 1, 127, 128, 129, 255, 256, 300, len(text)):
        colons = ctypes.c_int64()
        assert lib.count_libsvm(text, end, ctypes.byref(colons)) == \
            text[:end].count(b"\n")
        assert colons.value == text[:end].count(b":")


def test_parse_libsvm_reads_nothing_past_its_chunk():
    lib = needs_c_tokenizer()
    labels, counts = np.zeros(1), np.zeros(1, np.int64)
    cols, vals = np.zeros(1, np.int64), np.full(1, -7.0)

    def parse(text, end):  # one example of one entry at most
        return lib.parse_libsvm(text, end, 1, 1, *(
            a.ctypes.data for a in (labels, counts, cols, vals)))

    # the chunk ends inside an exponent out of range: declined, not stored
    assert parse(b"1 1:1e4000 1:1\n", 9) == -1
    assert vals[0] == -7.0
    assert parse(b"1 1:0.55\n", 7) == 1
    assert vals[0] == 0.5
    assert parse(b"1\n", 2) == -1  # no entry for the one slot


LONG_LINE = "1 " + " ".join(f"{i}:{i}.5" for i in range(1, 30)) + "\n"


@pytest.mark.parametrize("cpus, text, cuts, accepted", [
    # a bad token only in the last chunk
    (2, "1 1:0.5\n-1 2:1.0\n1 3:1.0\n-1 x:1\n", [0, 17, 32], False),
    # bad tokens in two chunks: the first in file order is named
    (2, "1 1:0.5\n-1 2:oops\n1 3:1\n-1 y:1\n", [0, 18, 31], False),
    # an infinite value in a later chunk, and a value that underflows
    (2, "1 1:0.5\n-1 2:1\n1 3:1e999\n", [0, 15, 25], False),
    (2, "1 1:0.5\n-1 2:1\n1 3:1e-400\n", [0, 15, 26], False),
    # `1:` ending a chunk: its empty value declines, read up to the chunk's end
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
], ids=["bad-last", "bad-twice", "inf-later", "underflow-later",
        "colon-at-cut", "crlf-blank", "no-final-lf", "few-lines", "one-line",
        "long-line"])
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


class Blocks:
    """The C library, recording the row range of each format_libsvm call
    from whichever thread makes it."""

    def __init__(self, lib):
        self.lib, self.ranges = lib, []

    def format_libsvm(self, row, n_rows, *args):
        self.ranges.append((row, n_rows))
        return self.lib.format_libsvm(row, n_rows, *args)


def many_rows(rows=40):
    rng = np.random.default_rng(5)
    m, _ = random_matrix(rng, n=6, d=rows)
    return m, rng.standard_normal(rows)


def test_write_libsvm_starts_no_thread_on_one_cpu_or_a_small_file(
        tmp_path, monkeypatch):
    lib = needs_c_tokenizer()
    m, labels = one_column([1.0, -0.5, 2.0])  # worst cases 70 bytes a line
    path = tmp_path / "lines.svm"
    want = written(path, m, labels, None)

    def refuse(*args, **kwargs):
        raise NoThread

    monkeypatch.setattr(threading, "Thread", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert written(path, m, labels, lib) == want  # under _CHUNK_MIN
    with chunked(1):
        assert written(path, m, labels, lib) == want
    monkeypatch.setattr(dataio, "_WRITE_BUF", 1)  # a block per line
    monkeypatch.setattr(dataio, "_CHUNK_MIN", 106)  # 210 // 106: 1 thread
    assert written(path, m, labels, lib) == want
    monkeypatch.setattr(dataio, "_CHUNK_MIN", 105)  # 210 // 105: 2 threads
    with pytest.raises(NoThread):  # the patch does catch threads
        written(path, m, labels, lib)


def test_write_libsvm_starts_a_thread_per_cpu_at_most(tmp_path, monkeypatch):
    lib = needs_c_tokenizer()
    m, labels = many_rows()
    path = tmp_path / "rows.svm"
    want = written(path, m, labels, None)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    blocks = Blocks(lib)
    with chunked(3):
        assert written(path, m, labels, blocks) == want
    assert 1 <= len(started) <= 3
    assert not any(t.is_alive() for t in started)
    # the blocks tile the rows in order, more of them than threads
    ranges = sorted(blocks.ranges)
    assert len(ranges) > 3
    assert [lo for lo, _ in ranges[1:]] == [hi for _, hi in ranges[:-1]]
    assert (ranges[0][0], ranges[-1][1]) == (0, m.n_rows)
    # without sched_getaffinity, cpu_count bounds the threads
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(dataio, "_CHUNK_MIN", 1)
    monkeypatch.setattr(dataio, "_WRITE_BUF", 1)
    del started[:]
    assert written(path, m, labels, lib) == want
    assert 1 <= len(started) <= 2


@pytest.mark.parametrize("cpus", [1, 3])
def test_write_libsvm_raises_a_write_error_once_its_threads_end(
        tmp_path, monkeypatch, cpus):
    needs_c_tokenizer()
    m, labels = many_rows()
    writes = []

    class Full(io.FileIO):
        def write(self, data):
            writes.append(len(data))
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(dataio, "open", Full, raising=False)
    before = threading.active_count()
    with chunked(cpus), pytest.raises(OSError, match="No space left"):
        sc.write_libsvm(tmp_path / "full.svm", m, labels)
    assert len(writes) == 2
    assert threading.active_count() == before


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
