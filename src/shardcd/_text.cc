/* format_libsvm: the libsvm writer of shardcd.dataio.write_libsvm, built
 * into one library with _cd.c by local._build_kernel.
 *
 * Every label and value is written as Python's repr writes a float, byte
 * for byte.  The digits are the shortest that read back as the same double,
 * the closest to it on a tie, which is what std::to_chars gives without a
 * precision (libstdc++ 11 or later, after Adams, "Ryu: fast float-to-string
 * conversion", PLDI 2018).  repr lays them out in exponent form when the
 * decimal exponent is below -4 or at least 16, with a sign and at least two
 * exponent digits (1e-05, 1.5e+16, 5e-324), which is to_chars's scientific
 * form as it stands; otherwise positionally, with ".0" after an integral
 * value (-0.0, 123.0, 0.0001).  Indices are written 1-based with integer
 * to_chars. */
#include <charconv>
#include <cstdint>
#include <cstring>

namespace {

/* The longest repr, -2.2250738585072014e-308, has 24 bytes and an int64 at
 * most 19 digits: a line takes at most LINE + ENTRY bytes per entry. */
constexpr int64_t NUMBER = 24, INDEX = 19, LINE = NUMBER + 1,
                  ENTRY = 1 + INDEX + 1 + NUMBER;

char *copy(char *p, const char *from, const char *to)
{
    std::memcpy(p, from, to - from);
    return p + (to - from);
}

char *zeros(char *p, int n)
{
    std::memset(p, '0', n);
    return p + n;
}

/* x as repr(x) writes it, at p; returns the end. */
char *put_double(char *p, double x)
{
    char sci[32];
    const char *end = std::to_chars(sci, sci + sizeof sci, x,
                                    std::chars_format::scientific).ptr;
    const char *e = static_cast<const char *>(
        std::memchr(sci, 'e', end - sci));
    int exp = 0;
    std::from_chars(e + 1 + (e[1] == '+'), end, exp);
    if (exp < -4 || exp >= 16)
        return copy(p, sci, end);
    /* the digits: lead, then rest[0, e - rest) */
    const char *lead = sci + (sci[0] == '-');
    const char *rest = lead + 1 + (lead[1] == '.');
    p = copy(p, sci, lead);
    if (exp < 0) {
        *p++ = '0';
        *p++ = '.';
        p = zeros(p, -exp - 1);
        *p++ = *lead;
        return copy(p, rest, e);
    }
    *p++ = *lead;
    const char *point = rest + exp < e ? rest + exp : e;
    p = zeros(copy(p, rest, point), exp - static_cast<int>(point - rest));
    *p++ = '.';
    if (point == e)
        *p++ = '0';
    return copy(p, point, e);
}

}  // namespace

/* format_libsvm: lines `label[ idx:val]...\n` of rows row, row + 1, ... of
 * a CSR matrix (indptr, 0-based indices, data) and its labels, into
 * buf[0, cap), for as many whole rows as their worst case fits.  Stores the
 * next row to write in *next and returns the bytes written.  A row of nnz
 * entries fits when LINE + ENTRY * nnz bytes are left. */
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
