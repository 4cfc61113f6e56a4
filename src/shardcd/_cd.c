/* Native helpers of shardcd, built and loaded by local._build_kernel.
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
 * count_libsvm and parse_libsvm: the libsvm tokenizer of
 * shardcd.dataio.read_libsvm, which may cut a file into chunks that each
 * end just after a LF and run both on every chunk in a thread of its own.
 * A chunk is a pointer into the one buffer holding the whole file, which is
 * NUL-terminated after its last byte, never a copy: strtod skips leading
 * whitespace, so on a "1:\n" token it reads past the chunk's LF into the
 * next chunk (the token is declined), and the NUL keeps every such read
 * inside the buffer. */
#include <stdint.h>
#include <stdlib.h>

/* A read prefetch hint, or nothing where the compiler has no builtin. */
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(p) __builtin_prefetch(p)
#else
#define PREFETCH(p) ((void)(p))
#endif

enum { AHEAD = 8, HEAD = 64, LINE = 8 /* int64 or double per cache line */ };

int64_t cd_pass(int64_t n_steps, const int64_t *order, const int64_t *ids,
                const int64_t *indptr, const int64_t *rows, const double *vals,
                const double *xw, const double *qs, double *totals, double *z,
                double sp_tau, double l1, double l2, double bound)
{
    int64_t clamps = 0;
    for (int64_t s = 0; s < n_steps; s++) {
        if (s + 2 * AHEAD < n_steps)
            PREFETCH(&indptr[ids[order[s + 2 * AHEAD]]]);
        if (s + AHEAD < n_steps) {
            int64_t u = order[s + AHEAD];
            int64_t a = indptr[ids[u]], b = indptr[ids[u] + 1];
            for (int64_t e = a; e < b && e < a + HEAD; e += LINE) {
                PREFETCH(&rows[e]);
                PREFETCH(&vals[e]);
            }
            PREFETCH(&totals[u]);
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

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* Digits, signs, '.', 'e' and 'E': a table tests them faster than ifs. */
static const char NUMBER_CHARS[256] = {
    ['0'] = 1, ['1'] = 1, ['2'] = 1, ['3'] = 1, ['4'] = 1, ['5'] = 1,
    ['6'] = 1, ['7'] = 1, ['8'] = 1, ['9'] = 1, ['+'] = 1, ['-'] = 1,
    ['.'] = 1, ['e'] = 1, ['E'] = 1};

/* Parses the number at p into *x with strtod, which stops at the NUL after
 * the buffer at the latest, and returns its end; or NULL unless strtod read
 * a whole token (ending at a blank, a line end or the buffer's end) made only
 * of NUMBER_CHARS.  From those strtod reads no leading blank, inf, nan or
 * hexadecimal, and it stops at a '.' that LC_NUMERIC does not make the
 * decimal point, so it accepts exactly [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?. */
static const char *number(const char *p, const char *end, double *x)
{
    char *stop;
    *x = strtod(p, &stop);
    if (stop == p || !(stop == end || *stop == ' ' || *stop == '\t'
                       || *stop == '\n' || *stop == '\r'))
        return NULL;
    for (const char *q = p; q < stop; q++)
        if (!NUMBER_CHARS[(unsigned char)*q])
            return NULL;
    return stop;
}

/* count_libsvm: the LF bytes of buf[0, len), returned, and its ':' bytes, in
 * *colons; they bound the examples and the entries parse_libsvm reads.  Each
 * BLOCK of bytes is counted into byte-wide sums, a loop of fixed length that
 * gcc vectorizes at -O2; the plain loop that finishes the tail took 7 times
 * as long on a whole file (gcc 12, x86-64). */
enum { BLOCK = 128 /* at most 255, the largest byte-wide sum */ };

int64_t count_libsvm(const char *buf, int64_t len, int64_t *colons)
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

/* parse_libsvm: the tokenizer of shardcd.dataio.read_libsvm for the strict
 * ASCII subset of the format, into caller-allocated arrays.
 *
 * buf, len      a chunk of the file's bytes: the whole file, or lines of it
 *               ending in a LF, inside a buffer NUL-terminated after the
 *               file's last byte (see the header)
 * labels[i]     label of example i (at most max_rows examples)
 * counts[i]     number of idx:val entries of example i
 * cols, vals    0-based column and value of each entry (at most max_entries)
 * Blanks are ' ' and '\t', lines end in '\n' or "\r\n", blank lines are
 * skipped, labels and values are numbers as number() reads them (an
 * exponent out of range reads as inf) and indices plain decimal digits, at
 * least 1, strictly ascending within a line and within int64.  Returns the
 * number of examples, or -1 on any other input, for which the Python loop
 * rereads the file. */
int64_t parse_libsvm(const char *buf, int64_t len, int64_t max_rows,
                     int64_t max_entries, double *labels, int64_t *counts,
                     int64_t *cols, double *vals)
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
            if (p == NULL)
                return -1;
            int64_t first = k, prev = 0;
            for (;;) {
                while (p < end && (*p == ' ' || *p == '\t'))
                    p++;
                if (p == end || *p == '\n' || *p == '\r')
                    break;
                int64_t idx = 0;
                const char *d = p;
                for (; p < end && is_digit(*p); p++) {
                    if (idx > (INT64_MAX - (*p - '0')) / 10)
                        return -1;
                    idx = 10 * idx + (*p - '0');
                }
                if (p == d || p == end || *p != ':' || idx <= prev
                    || k == max_entries)
                    return -1;
                p = number(p + 1, end, &vals[k]);
                if (p == NULL)
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
    return n;
}
