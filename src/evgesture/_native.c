/* The per-event loops of evgesture: background suppression, one event
   after the other; a layer's time-surfaces, one event after the other;
   and a layer's nearest-row rule, used by the online learning rule, one
   valid surface after the other, and by frozen matching.

   Every dot product and squared distance that decides an output is
   summed in one fixed order, numpy's pairwise summation, so each equals
   np.add.reduce(a * b) on the same rows bit for bit, and a trained bank
   depends on no BLAS kernel. Build with -ffp-contract=off: every product
   and sum is then one separately rounded IEEE-754 operation, as in numpy
   and Python. */

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

/* What the nearest-row rule reads besides the bank (n x d): each row's
   pairwise |b|^2, a bound on them all, the bank transposed (d x n), and
   scratch for n screened values and d nonzero indices. */
struct screen {
    double *norm2, *bank_t, *v;
    int64_t *nz;
    double sq_b_max;
};

/* Row r of bank into norm2[r], sq_b_max and column r of bank_t */
static void refresh(struct screen *c, const double *bank, int64_t n, int64_t d, int64_t r)
{
    const double *row = bank + r * d;
    for (int64_t j = 0; j < d; j++)
        c->bank_t[j * n + r] = row[j];
    c->norm2[r] = evg_reduce(row, row, d, 0);
    if (c->norm2[r] > c->sq_b_max)
        c->sq_b_max = c->norm2[r];
}

static void screen_free(struct screen *c)
{
    free(c->norm2);
    free(c->nz);
}

/* The caches of bank; returns 0, or -1 if out of memory */
static int screen_init(struct screen *c, const double *bank, int64_t n, int64_t d)
{
    c->norm2 = malloc((size_t)n * (size_t)(d + 2) * sizeof(double));
    c->nz = malloc((size_t)d * sizeof(int64_t));
    if (!c->norm2 || !c->nz) {
        screen_free(c);
        return -1;
    }
    c->v = c->norm2 + n;
    c->bank_t = c->norm2 + 2 * n;
    c->sq_b_max = 0.0;
    for (int64_t j = 0; j < d; j++) /* row by row of bank_t, to write it in order */
        for (int64_t r = 0; r < n; r++)
            c->bank_t[j * n + r] = bank[r * d + j];
    for (int64_t r = 0; r < n; r++) {
        c->norm2[r] = evg_reduce(bank + r * d, bank + r * d, d, 0);
        if (c->norm2[r] > c->sq_b_max)
            c->sq_b_max = c->norm2[r];
    }
    return 0;
}

/* The screened values of rows r0 .. r0 + rows - 1, over the q nonzero
   entries nz of s. rows is a constant wherever this is inlined, so the
   sums stay in registers while the loop runs over the nonzero entries. */
static inline __attribute__((always_inline)) void screen_rows(
    const struct screen *c, int64_t n, const double *s, int64_t q, int64_t r0, int64_t rows)
{
    double acc[16];
    for (int64_t i = 0; i < rows; i++)
        acc[i] = 0.5 * c->norm2[r0 + i];
    for (int64_t k = 0; k < q; k++) {
        double sj = s[c->nz[k]];
        const double *col = c->bank_t + c->nz[k] * n + r0;
        for (int64_t i = 0; i < rows; i++)
            acc[i] -= sj * col[i];
    }
    for (int64_t i = 0; i < rows; i++)
        c->v[r0 + i] = acc[i];
}

/* The nearest of the n rows of bank (n x d) to the surface s, whose caches
   c hold; ties go to the lowest index. Returns the argmin over rows of the
   pairwise np.add.reduce((b - s)**2), bit for bit (network.nearest_rows).

   The screen takes v_r = |b_r|^2 / 2 - sum_j s_j b_rj over the surface's
   nonzero j only, from the rows of bank_t, so the loop over bank rows is
   contiguous and vectorises; zero entries add nothing to s.b. Where the
   two best screened values lie within the margin, the pairwise distance
   to every row is recomputed, and its argmin taken instead.

   Why the margin suffices. Let A = |s|^2 + max |b|^2, u = DBL_EPSILON / 2
   and g(k) = k u / (1 - k u). The exact distance is d_r = |s|^2 + 2 v_r.
   The screened v_r is one sum, left to right, of at most D + 1 terms,
   |b_r|^2 / 2 and each -s_j b_rj, whose magnitudes add up to at most
   |b|^2 / 2 + |s| |b| <= |b|^2 + |s|^2 / 2 <= A; each product is rounded
   once, so v_r lies within g(D + 1) A of its value for the computed
   |b_r|^2, which itself lies within g(D) |b_r|^2 of the exact one. So
   2 v_r lies within 3 g(D + 1) A of d_r - |s|^2. The pairwise distance
   P_r rounds each difference and square once and sums D terms, so it lies
   within g(D + 3) |b_r - s|^2 <= 2 g(D + 3) A of d_r. If the pairwise
   argmin q is not the screened argmin r, then P_q <= P_r, and the
   screened gap 2 (v_q - v_r) is at most 6 g(D + 1) A + 4 g(D + 3) A
   <= 10 g(D + 3) A, about 5 (D + 3) eps A: under half the margin
   16 (D + 2) eps A, which leaves room for the rounding of |s|^2 (summed
   over the nonzero entries), of sq_b_max and of the margin itself. So
   where the gap exceeds the margin the screened argmin is the pairwise
   one, ties included; a NaN gap is rechecked too. */
static int64_t nearest(const struct screen *c, const double *bank, int64_t n, int64_t d,
                       const double *s)
{
    if (n < 2)
        return 0;
    int64_t q = 0, r = 0;
    double ns2 = 0.0;
    for (int64_t j = 0; j < d; j++) {
        c->nz[q] = j;
        q += s[j] != 0.0;
    }
    for (int64_t k = 0; k < q; k++)
        ns2 += s[c->nz[k]] * s[c->nz[k]];
    for (; r + 16 <= n; r += 16)
        screen_rows(c, n, s, q, r, 16);
    for (; r + 4 <= n; r += 4)
        screen_rows(c, n, s, q, r, 4);
    for (; r < n; r++)
        screen_rows(c, n, s, q, r, 1);
    int64_t at = 0;
    double best = INFINITY, second = INFINITY;
    for (r = 0; r < n; r++) {
        if (c->v[r] < best) {
            second = best;
            best = c->v[r];
            at = r;
        } else if (c->v[r] < second) {
            second = c->v[r];
        }
    }
    double gap = 2.0 * (second - best);
    if (!(gap > (double)(16 * (d + 2)) * DBL_EPSILON * (ns2 + c->sq_b_max))) {
        double least = INFINITY;
        for (r = 0; r < n; r++) {
            double dist = evg_reduce(bank + r * d, s, d, 1);
            if (dist < least) {
                least = dist;
                at = r;
            }
        }
    }
    return at;
}

/* Frozen matching (network.nearest_rows): the nearest of the n rows of
   bank (n x d) to each of m surface rows, into ids. Returns 0, or -1 if
   out of memory. */
int evg_match(const double *bank, int64_t n, int64_t d, const double *surfaces, int64_t m,
              int64_t *ids)
{
    struct screen c;
    if (n < 2) {
        memset(ids, 0, (size_t)m * sizeof(int64_t));
        return 0;
    }
    if (screen_init(&c, bank, n, d))
        return -1;
    for (int64_t k = 0; k < m; k++)
        ids[k] = nearest(&c, bank, n, d, surfaces + k * d);
    screen_free(&c);
    return 0;
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
    /* c.sq_b_max never falls, so it bounds every row's |b|^2 */
    struct screen c;
    if (screen_init(&c, bank, n, d))
        return -1;
    int64_t filled = state[0], tick = state[1];
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
            i = nearest(&c, bank, n, d, s);
            /* learn_update: a cosine-weighted pull at rate 1/(1 + count),
               the step clamped to [0, 1] */
            row = bank + i * d;
            if (ns2 != 0.0 && c.norm2[i] != 0.0) {
                double cos = evg_reduce(s, row, d, 0) / sqrt(ns2 * c.norm2[i]);
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
        refresh(&c, bank, n, d, i);
    }
    state[0] = filled;
    state[1] = tick;
    screen_free(&c);
    return 0;
}

/* The time-surfaces of n consecutive events (network.Layer.block_surfaces).

   memory is the layer's channels x (height + 2 radius) x (width +
   2 radius) timestamp memory, -inf where nothing fired, inside a
   radius-wide -inf border. Each event first records its time at its own
   pixel, then reads its (2 radius + 1)^2 field on every channel, in
   channel-major (p, dy, dx) order, as v = (m - t) / tau + 1, clamped at
   0: the arithmetic of surfaces.extract, so every value is bit-equal to
   it. Writes n rows of channels (2 radius + 1)^2 values to out. Returns
   0, or k + 1, with memory unchanged, if event k lies outside the
   layer's pixels or channels. */
int64_t evg_surfaces(double *memory, int64_t channels, int64_t height, int64_t width,
                     int64_t radius, double tau, const int64_t *t, const int64_t *x,
                     const int64_t *y, const int64_t *p, int64_t n, double *out)
{
    for (int64_t k = 0; k < n; k++)
        if (x[k] < 0 || x[k] >= width || y[k] < 0 || y[k] >= height || p[k] < 0
            || p[k] >= channels)
            return k + 1;
    int64_t side = 2 * radius + 1, rows = height + 2 * radius, cols = width + 2 * radius;
    for (int64_t k = 0; k < n; k++) {
        double now = (double)t[k];
        memory[(p[k] * rows + y[k] + radius) * cols + x[k] + radius] = now;
        for (int64_t c = 0; c < channels; c++) {
            for (int64_t dy = 0; dy < side; dy++) {
                const double *m = memory + (c * rows + y[k] + dy) * cols + x[k];
                for (int64_t dx = 0; dx < side; dx++) {
                    double v = (m[dx] - now) / tau + 1.0;
                    *out++ = v >= 0.0 ? v : 0.0;
                }
            }
        }
    }
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
