/* Native coordinate pass of shardcd.local: the same exact single-coordinate
 * steps as local._coordinate_pass and local._shrink, in the same operation
 * order, on the ColMatrix CSC buffers in place.  Build without FMA
 * contraction (-ffp-contract=off) so every product is rounded as in Python;
 * only the sum in x_i^T z may differ from numpy's dot in the last bits.
 *
 * order[s]   pool position of step s (n_steps entries)
 * ids[t]     matrix column of pool position t
 * xw, qs     per pool position: x_i^T w and the curvature sigma'/tau ||x_i||^2
 * totals     per pool position: alpha_i + d_i, updated in place
 * z          the running product A d, updated in place
 * Returns the number of steps the support bound clipped. */
#include <stdint.h>

int64_t cd_pass(int64_t n_steps, const int64_t *order, const int64_t *ids,
                const int64_t *indptr, const int64_t *rows, const double *vals,
                const double *xw, const double *qs, double *totals, double *z,
                double sp_tau, double l1, double l2, double bound)
{
    int64_t clamps = 0;
    for (int64_t s = 0; s < n_steps; s++) {
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
