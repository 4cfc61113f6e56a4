/* Native helpers of shardcd, one C++17 library that local._build_kernel
 * builds with one compiler call and loads with ctypes.  Each entry point is
 * extern "C" and gives the same results as its Python loop, its reference.
 *
 * cd_pass: the coordinate pass of shardcd.local, the same exact
 * single-coordinate steps as local._coordinate_pass and local._shrink, in
 * the same operation order, on the ColMatrix CSC buffers in place, so the
 * two give bit-identical results.  The order: x_i^T z is summed left to
 * right over the column's entries from +0.0, each product rounded on its
 * own; every other operation is one IEEE operation in the order written
 * below.  Build without FMA contraction (-ffp-contract=off, local._CFLAGS)
 * so that no product is fused into a sum.
 *
 * order[s]   pool position of step s (n_steps entries)
 * ids[t]     matrix column of pool position t
 * xw, qs     per pool position: x_i^T w and the curvature sigma'/tau ||x_i||^2
 * totals     per pool position: alpha_i + d_i, updated in place
 * z          the running product A d, updated in place
 * Returns the number of steps the support bound clipped.
 *
 * In random order every step starts a chain of dependent cache misses,
 * ids[t] -> indptr -> rows/vals, that the arithmetic waits on.  The draws
 * are known in advance, so the pass fetches ahead without changing a single
 * operation: at step s it prefetches indptr for step s + 2 AHEAD, then reads
 * the now cached bounds of step s + AHEAD and prefetches the head of that
 * column's rows and vals, and its totals entry.  The head is capped at HEAD
 * entries: a whole long column (logistic's ~900 entries) would evict the
 * lines the current steps still use.  z is not prefetched: it is one float64
 * per example, small enough to stay in L2 on the workloads measured, and a
 * third stage that prefetched z[rows] gained nothing.  No look-ahead index
 * passes n_steps - 1.
 *
 * count_libsvm: the LF bytes of buf[0, len), returned, and its ':' bytes, in
 * *colons; they bound the examples and the entries parse_libsvm reads.  Each
 * BLOCK of bytes is counted into byte-wide sums, a loop of fixed length that
 * gcc vectorizes at -O2; the plain loop that finishes the tail took 7 times
 * as long on a whole file (gcc 12, x86-64).
 *
 * parse_libsvm: the tokenizer of shardcd.dataio.read_libsvm for the strict
 * ASCII subset of the format, into caller-allocated arrays.
 *
 * buf, len      a chunk of the file's bytes (see below): the whole file,
 *               or lines of it ending in a LF
 * labels[i]     label of example i (at most max_rows examples)
 * counts[i]     number of idx:val entries of example i
 * cols, vals    0-based column and value of each entry (at most max_entries)
 * Blanks are ' ' and '\t', lines end in '\n' or "\r\n", blank lines are
 * skipped, labels and values are finite doubles as number() reads them and
 * indices int64s as std::from_chars reads them, at least 1 and strictly
 * ascending within a line.  Returns the number of examples; or -1 on any
 * other input, or unless exactly max_entries entries were read, for which
 * the Python loop rereads the file.
 *
 * read_libsvm may cut a file into chunks that each end just after a LF and
 * run count_libsvm and parse_libsvm on every chunk in a thread of its own.
 * A chunk is a pointer into the one buffer holding the whole file, never a
 * copy, and no function reads a byte past its chunk's end.
 *
 * format_libsvm: the writer of shardcd.dataio.write_libsvm.  It writes lines
 * `label[ idx:val]...\n` of rows row, row + 1, ... of a CSR matrix (indptr,
 * 0-based indices, data) and its labels into buf[0, cap), for as many whole
 * rows as their worst case fits: a row of nnz entries fits when LINE +
 * ENTRY * nnz bytes are left.  Stores the next row to write in *next and
 * returns the bytes written.  Indices are written 1-based, and every label
 * and value as Python's repr writes a float, byte for byte.  The digits are
 * the shortest that read back as the same double, the closest to it on a
 * tie, which is what std::to_chars gives without a precision (libstdc++ 11
 * or later, after Adams, "Ryu: fast float-to-string conversion", PLDI
 * 2018).  repr lays them out in exponent form when their decimal exponent is
 * below -4 or at least 16, which holds exactly for x != 0 with |x| < 1e-4 or
 * |x| >= 1e16: to_chars's scientific form (1e-05, 1.5e+16, 5e-324).  Else
 * it writes them positionally, which is to_chars's fixed form, with ".0"
 * after an integral value (-0.0, 123.0, 0.0001).
 *
 * write_libsvm may run format_libsvm on disjoint row ranges from several
 * threads at once: it reads the matrix and labels and writes only its
 * caller's buffer and *next. */
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace {

constexpr int64_t AHEAD = 8, HEAD = 64,
                  PER_LINE = 8 /* int64 or double per cache line */;
constexpr int BLOCK = 128; /* at most 255, the largest byte-wide sum */

/* The longest repr, -2.2250738585072014e-308, has 24 bytes and an int64 at
 * most 19 digits: a line takes at most LINE + ENTRY bytes per entry. */
constexpr int64_t NUMBER = 24, INDEX = 19, LINE = NUMBER + 1,
                  ENTRY = 1 + INDEX + 1 + NUMBER;

/* Parses the number at p into *x with std::from_chars, which reads nothing at
 * or past end, and returns its end; or nullptr unless it read a whole token,
 * ending at a blank, a line end or end, that starts with a digit or '.' after
 * at most one sign.  That start rules out inf and nan, and from_chars reads
 * no hexadecimal; it refuses a '+', which is skipped here unless a '-'
 * follows.  So it accepts exactly [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)? within a
 * double's range: a token that overflows or underflows to 0 (1e999, 1e-400)
 * it declines without storing it, and the Python loop reads that file. */
const char *number(const char *p, const char *end, double *x)
{
    const char *start = p + (end - p > 1 && p[0] == '+' && p[1] != '-');
    const char *first = start + (start < end && *start == '-');
    if (first == end || !((*first >= '0' && *first <= '9') || *first == '.'))
        return nullptr;
    auto [stop, ec] = std::from_chars(start, end, *x);
    if (ec != std::errc()
        || !(stop == end || *stop == ' ' || *stop == '\t' || *stop == '\n'
             || *stop == '\r'))
        return nullptr;
    return stop;
}

/* x as repr(x) writes it, at p; returns the end. */
char *put_double(char *p, double x)
{
    const double a = std::fabs(x);
    if (a != 0 && (a < 1e-4 || a >= 1e16))
        return std::to_chars(p, p + NUMBER, x,
                             std::chars_format::scientific).ptr;
    char *end = std::to_chars(p, p + NUMBER, x, std::chars_format::fixed).ptr;
    if (!std::memchr(p, '.', end - p)) {
        *end++ = '.';
        *end++ = '0';
    }
    return end;
}

}  // namespace

extern "C" int64_t cd_pass(int64_t n_steps, const int64_t *order,
                           const int64_t *ids, const int64_t *indptr,
                           const int64_t *rows, const double *vals,
                           const double *xw, const double *qs, double *totals,
                           double *z, double sp_tau, double l1, double l2,
                           double bound)
{
    int64_t clamps = 0;
    for (int64_t s = 0; s < n_steps; s++) {
        if (s + 2 * AHEAD < n_steps)
            __builtin_prefetch(&indptr[ids[order[s + 2 * AHEAD]]]);
        if (s + AHEAD < n_steps) {
            int64_t u = order[s + AHEAD];
            int64_t a = indptr[ids[u]], b = indptr[ids[u] + 1];
            for (int64_t e = a; e < b && e < a + HEAD; e += PER_LINE) {
                __builtin_prefetch(&rows[e]);
                __builtin_prefetch(&vals[e]);
            }
            __builtin_prefetch(&totals[u]);
        }
        int64_t t = order[s], lo = indptr[ids[t]], hi = indptr[ids[t] + 1];
        double dot = 0.0;
        for (int64_t e = lo; e < hi; e++)
            dot += vals[e] * z[rows[e]];
        double c = totals[t], q = qs[t];
        double num = q * c - (xw[t] + sp_tau * dot), next = 0.0;
        if (num > l1)
            next = (num - l1) / (q + l2);
        else if (num < -l1)
            next = (num + l1) / (q + l2);
        if (next > bound) {
            next = bound;
            clamps++;
        } else if (next < -bound) {
            next = -bound;
            clamps++;
        }
        double dlt = next - c;
        if (dlt != 0.0) {
            totals[t] = next;
            for (int64_t e = lo; e < hi; e++)
                z[rows[e]] = z[rows[e]] + dlt * vals[e];
        }
    }
    return clamps;
}

extern "C" int64_t count_libsvm(const char *buf, int64_t len, int64_t *colons)
{
    int64_t lf = 0, c = 0, i = 0;
    for (; i + BLOCK <= len; i += BLOCK) {
        unsigned char block_lf = 0, block_c = 0;
        for (int j = 0; j < BLOCK; j++) {
            block_lf += buf[i + j] == '\n';
            block_c += buf[i + j] == ':';
        }
        lf += block_lf;
        c += block_c;
    }
    for (; i < len; i++) {
        lf += buf[i] == '\n';
        c += buf[i] == ':';
    }
    *colons = c;
    return lf;
}

extern "C" int64_t parse_libsvm(const char *buf, int64_t len, int64_t max_rows,
                                int64_t max_entries, double *labels,
                                int64_t *counts, int64_t *cols, double *vals)
{
    const char *p = buf, *end = buf + len;
    int64_t n = 0, k = 0;
    while (p < end) {
        while (p < end && (*p == ' ' || *p == '\t'))
            p++;
        if (p < end && *p != '\n' && *p != '\r') {
            if (n == max_rows)
                return -1;
            p = number(p, end, &labels[n]);
            if (p == nullptr)
                return -1;
            int64_t first = k, prev = 0;
            for (;;) {
                while (p < end && (*p == ' ' || *p == '\t'))
                    p++;
                if (p == end || *p == '\n' || *p == '\r')
                    break;
                int64_t idx = 0;
                auto [colon, ec] = std::from_chars(p, end, idx);
                if (ec != std::errc() || colon == end || *colon != ':'
                    || idx <= prev || k == max_entries)
                    return -1;
                p = number(colon + 1, end, &vals[k]);
                if (p == nullptr)
                    return -1;
                cols[k++] = idx - 1;
                prev = idx;
            }
            counts[n++] = k - first;
        }
        if (p < end && *p == '\r') {
            if (p + 1 == end || p[1] != '\n')
                return -1;
            p++;
        }
        if (p < end)
            p++;
    }
    return k == max_entries ? n : -1;
}

extern "C" int64_t format_libsvm(int64_t row, int64_t n_rows,
                                 const int64_t *indptr, const int64_t *indices,
                                 const double *data, const double *labels,
                                 char *buf, int64_t cap, int64_t *next)
{
    char *p = buf;
    for (; row < n_rows; row++) {
        int64_t lo = indptr[row], hi = indptr[row + 1];
        if (buf + cap - p < LINE + ENTRY * (hi - lo))
            break;
        p = put_double(p, labels[row]);
        for (int64_t k = lo; k < hi; k++) {
            *p++ = ' ';
            p = std::to_chars(p, p + INDEX, indices[k] + 1).ptr;
            *p++ = ':';
            p = put_double(p, data[k]);
        }
        *p++ = '\n';
    }
    *next = row;
    return p - buf;
}
