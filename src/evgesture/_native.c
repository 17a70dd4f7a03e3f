/* The two per-event loops of evgesture: background suppression, one
   event after the other, and the online learning rule of a layer, one
   valid surface after the other.

   Every dot product and squared distance is summed in one fixed order,
   numpy's pairwise summation, so each equals np.add.reduce(a * b) on the
   same rows bit for bit, and a trained bank depends on no BLAS kernel.
   Build with -ffp-contract=off: every product and sum is then one
   separately rounded IEEE-754 operation, as in numpy and Python. */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* a[i] * b[i], or (a[i] - b[i])^2 where sq is set */
static inline double term(const double *a, const double *b, int64_t i, int sq)
{
    if (sq) {
        double d = a[i] - b[i];
        return d * d;
    }
    return a[i] * b[i];
}

/* Two lanes of term: each lane is its own IEEE-754 operation, as in the
   scalar form; the vector type only makes sure the loop is vectorised. */
typedef double pair __attribute__((vector_size(16)));

static inline pair terms(const double *a, const double *b, int64_t i, int sq)
{
    pair x, y;
    memcpy(&x, a + i, sizeof x);
    memcpy(&y, b + i, sizeof y);
    if (sq) {
        pair d = x - y;
        return d * d;
    }
    return x * y;
}

/* The sum of n terms in the order of numpy's pairwise_sum: a plain loop
   below 8 terms; up to 128, 8 accumulators r0..r7 (held as lanes of r01,
   r23, r45, r67), combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
   (r6 + r7)), then the tail; above 128, the two halves split at a
   multiple of 8. */
static double pairwise(const double *a, const double *b, int64_t n, int sq)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += term(a, b, i, sq);
        return res;
    }
    if (n <= 128) {
        pair r01 = terms(a, b, 0, sq), r23 = terms(a, b, 2, sq);
        pair r45 = terms(a, b, 4, sq), r67 = terms(a, b, 6, sq);
        int64_t i;
        for (i = 8; i < n - n % 8; i += 8) {
            r01 += terms(a, b, i, sq);
            r23 += terms(a, b, i + 2, sq);
            r45 += terms(a, b, i + 4, sq);
            r67 += terms(a, b, i + 6, sq);
        }
        double res = ((r01[0] + r01[1]) + (r23[0] + r23[1]))
                     + ((r45[0] + r45[1]) + (r67[0] + r67[1]));
        for (; i < n; i++)
            res += term(a, b, i, sq);
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, b, n2, sq) + pairwise(a + n2, b + n2, n - n2, sq);
}

/* np.add.reduce(a * b), or np.add.reduce((a - b) ** 2) where sq is set:
   the pairwise sum added to the reduction's initial 0.0 */
double evg_reduce(const double *a, const double *b, int64_t n, int sq)
{
    return 0.0 + pairwise(a, b, n, sq);
}

static int64_t first_least(const int64_t *v, int64_t n)
{
    int64_t at = 0;
    for (int64_t i = 1; i < n; i++)
        if (v[i] < v[at])
            at = i;
    return at;
}

/* The learning rule over m surface rows of length d (network.Layer._learn).

   bank is n x d; state holds n_filled and tick; counts and last hold n
   entries, of which the first n_filled are live. Writes each row's
   prototype id to ids, -1 during warm-up, and the updated bank, counts,
   ticks and state in place. Returns 0, or -1 if out of memory. */
int evg_learn(double *bank, int64_t n, int64_t d, int64_t *state, int64_t *counts,
              int64_t *last, const double *surfaces, int64_t m, int64_t window,
              int64_t *ids)
{
    double *norm2 = malloc((size_t)n * sizeof(double)); /* each row's |b|^2 */
    if (!norm2)
        return -1;
    int64_t filled = state[0], tick = state[1];
    /* sq_b_max never falls, so it bounds every row's |b|^2 */
    double sq_b_max = 0.0;
    for (int64_t r = 0; r < n; r++) {
        norm2[r] = evg_reduce(bank + r * d, bank + r * d, d, 0);
        if (norm2[r] > sq_b_max)
            sq_b_max = norm2[r];
    }
    /* the first index of the least tick; only a write to its row, or of a
       tick at or below it, can move it */
    int64_t stalest = filled ? first_least(last, filled) : 0;
    for (int64_t k = 0; k < m; k++) {
        const double *s = surfaces + k * d;
        double *row;
        int64_t i;
        tick++;
        ids[k] = -1;
        if (filled < n) { /* warm-up: no stable ids yet */
            i = filled++;
            memcpy(bank + i * d, s, (size_t)d * sizeof(double));
            counts[i] = 1;
        } else if (tick - last[stalest] > window) { /* reseed the stalest row */
            i = stalest;
            memcpy(bank + i * d, s, (size_t)d * sizeof(double));
            counts[i] = 1;
            ids[k] = i;
        } else {
            double ns2 = evg_reduce(s, s, d, 0);
            i = 0;
            if (n > 1) {
                /* screen |b|^2/2 - s.b, half of |b|^2 - 2 s.b exactly;
                   recheck exactly where the two best lie within the
                   margin of network._screen_margin */
                double best = INFINITY, second = INFINITY;
                for (int64_t r = 0; r < n; r++) {
                    double v = 0.5 * norm2[r] - evg_reduce(bank + r * d, s, d, 0);
                    if (v < best) {
                        second = best;
                        best = v;
                        i = r;
                    } else if (v < second) {
                        second = v;
                    }
                }
                double gap = 2.0 * (second - best);
                if (!(gap > (double)(16 * (d + 2)) * DBL_EPSILON * (ns2 + sq_b_max))) {
                    double least = INFINITY;
                    for (int64_t r = 0; r < n; r++) {
                        double v = evg_reduce(bank + r * d, s, d, 1);
                        if (v < least) {
                            least = v;
                            i = r;
                        }
                    }
                }
            }
            /* learn_update: a cosine-weighted pull at rate 1/(1 + count),
               the step clamped to [0, 1] */
            row = bank + i * d;
            if (ns2 != 0.0 && norm2[i] != 0.0) {
                double cos = evg_reduce(s, row, d, 0) / sqrt(ns2 * norm2[i]);
                double step = 1.0 / (1.0 + (double)counts[i]) * cos;
                if (0.0 > step)
                    step = 0.0;
                if (1.0 < step)
                    step = 1.0;
                for (int64_t j = 0; j < d; j++)
                    row[j] += (s[j] - row[j]) * step;
            }
            counts[i]++;
            ids[k] = i;
        }
        last[i] = tick;
        if (last[stalest] >= tick)
            stalest = first_least(last, filled);
        row = bank + i * d;
        norm2[i] = evg_reduce(row, row, d, 0);
        if (norm2[i] > sq_b_max)
            sq_b_max = norm2[i];
    }
    state[0] = filled;
    state[1] = tick;
    free(norm2);
    return 0;
}

/* Background suppression over n events (dbs.DbsFilter.process_block).

   activity and last hold cells + 1 counters, the whole array's last.
   Event k brings its cell's counter and then the whole array's forward
   to t[k], a = a * exp(-(t - last) / tau) + 1, and is kept iff its
   cell's is at least alpha times the whole array's over cells. exp is
   libm's, the function math.exp calls, so every value and decision is
   bit-equal to dbs.update_activity's. */
void evg_dbs(const int64_t *t, const int64_t *cell, int64_t n, double *activity,
             int64_t *last, int64_t cells, double tau, double alpha, uint8_t *keep)
{
    for (int64_t k = 0; k < n; k++) {
        const int64_t hits[2] = {cell[k], cells};
        for (int j = 0; j < 2; j++) {
            int64_t c = hits[j];
            activity[c] = activity[c] * exp(-(double)(t[k] - last[c]) / tau) + 1.0;
            last[c] = t[k];
        }
        keep[k] = activity[cell[k]] >= alpha * (activity[cells] / (double)cells);
    }
}
