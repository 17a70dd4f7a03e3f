/* The per-event loops of evgesture: background suppression, one event
   after the other; and a layer as one pass over its events, with no
   blocks: each event is recorded in the timestamp memory, its surface
   read into one row and gated on its sum, and a valid one taken through
   the online learning rule or matched to the frozen bank, by one
   nearest-row rule. The same pass takes surface rows given from Python,
   ungated.

   Every dot product, sum and squared distance that decides an output is
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
   scratch for n screened values; the surface row being matched, with
   the q indices nz of its nonzero entries; and d ones, to sum a row as
   its dot product with them. */
struct screen {
    double *norm2, *bank_t, *v, *row, *ones;
    int64_t *nz, q;
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

/* The caches of bank, in scratch of n (d + 2) + 2 d doubles and nz of d
   indices */
static void screen_init(struct screen *c, double *scratch, int64_t *nz, const double *bank,
                        int64_t n, int64_t d)
{
    c->norm2 = scratch;
    c->v = scratch + n;
    c->bank_t = scratch + 2 * n;
    c->row = c->bank_t + n * d;
    c->ones = c->row + d;
    c->nz = nz;
    c->sq_b_max = 0.0;
    for (int64_t j = 0; j < d; j++)
        c->ones[j] = 1.0;
    for (int64_t r = 0; r < n; r++)
        refresh(c, bank, n, d, r);
}

/* The screened values of rows r0 .. r0 + rows - 1, over the q nonzero
   entries nz of s. rows is a constant wherever this is inlined, so the
   sums stay in registers while the loop runs over the nonzero entries. */
static inline __attribute__((always_inline)) void screen_rows(
    const struct screen *c, int64_t n, const double *s, int64_t r0, int64_t rows)
{
    double acc[16];
    for (int64_t i = 0; i < rows; i++)
        acc[i] = 0.5 * c->norm2[r0 + i];
    for (int64_t k = 0; k < c->q; k++) {
        double sj = s[c->nz[k]];
        const double *col = c->bank_t + c->nz[k] * n + r0;
        for (int64_t i = 0; i < rows; i++)
            acc[i] -= sj * col[i];
    }
    for (int64_t i = 0; i < rows; i++)
        c->v[r0 + i] = acc[i];
}

/* The nearest of the n rows of bank (n x d) to the surface s, whose
   nonzero entries and caches c holds; ties go to the lowest index.
   Returns the argmin over rows of the pairwise np.add.reduce((b - s)**2),
   bit for bit (network.nearest_rows).

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
    int64_t r = 0;
    double ns2 = 0.0;
    for (int64_t k = 0; k < c->q; k++)
        ns2 += s[c->nz[k]] * s[c->nz[k]];
    for (; r + 16 <= n; r += 16)
        screen_rows(c, n, s, r, 16);
    for (; r + 4 <= n; r += 4)
        screen_rows(c, n, s, r, 4);
    for (; r < n; r++)
        screen_rows(c, n, s, r, 1);
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

/* A layer's timestamp memory: channels x (height + 2 radius) x (width +
   2 radius), -inf where nothing fired, inside a radius-wide -inf border;
   and the decay tau of its time-surfaces. */
struct field {
    double *memory;
    int64_t channels, height, width, radius;
    double tau;
};

/* 0, or -1 - k where event k is the first of the n events outside the
   field's pixels or channels */
static int64_t outside(const struct field *f, const int64_t *x, const int64_t *y,
                       const int64_t *p, int64_t n)
{
    for (int64_t k = 0; k < n; k++)
        if (x[k] < 0 || x[k] >= f->width || y[k] < 0 || y[k] >= f->height || p[k] < 0
            || p[k] >= f->channels)
            return -1 - k;
    return 0;
}

/* One event's time-surface: the event first records its time at its own
   pixel, then reads its (2 radius + 1)^2 field on every channel, in
   channel-major (p, dy, dx) order, as v = (m - t) / tau + 1, clamped at
   0: the arithmetic of surfaces.extract, so every value is bit-equal to
   it. Writes the channels (2 radius + 1)^2 values to row and, unless nz
   is NULL, the indices of the nonzero ones to nz; returns their count. */
static int64_t read_surface(const struct field *f, int64_t t, int64_t x, int64_t y,
                            int64_t p, double *row, int64_t *nz)
{
    int64_t R = f->radius, side = 2 * R + 1, rows = f->height + 2 * R;
    int64_t cols = f->width + 2 * R, j = 0, q = 0;
    double now = (double)t;
    f->memory[(p * rows + y + R) * cols + x + R] = now;
    for (int64_t c = 0; c < f->channels; c++) {
        for (int64_t dy = 0; dy < side; dy++) {
            const double *m = f->memory + (c * rows + y + dy) * cols + x;
            for (int64_t dx = 0; dx < side; dx++, j++) {
                double v = (m[dx] - now) / f->tau + 1.0;
                row[j] = v >= 0.0 ? v : 0.0;
                if (nz) {
                    nz[q] = j;
                    q += row[j] != 0.0;
                }
            }
        }
    }
    return q;
}

/* The time-surfaces of n consecutive events (network.Layer.block_surfaces),
   one row each, written to out; memory is updated to include them.
   Returns 0, or -1 - k, with memory unchanged, if event k lies outside
   the layer's pixels or channels. */
int64_t evg_surfaces(double *memory, int64_t channels, int64_t height, int64_t width,
                     int64_t radius, double tau, const int64_t *t, const int64_t *x,
                     const int64_t *y, const int64_t *p, int64_t n, double *out)
{
    const struct field f = {memory, channels, height, width, radius, tau};
    int64_t bad = outside(&f, x, y, p, n), d = channels * (2 * radius + 1) * (2 * radius + 1);
    for (int64_t k = 0; !bad && k < n; k++)
        read_surface(&f, t[k], x[k], y[k], p[k], out + k * d, NULL);
    return bad;
}

/* A layer's one pass (network._pass) over m events, or over m given
   surface rows of length d.

   bank is n x d; state holds n_filled and tick; counts and last hold n
   match counts and last-match ticks, of which the first n_filled are
   live; scratch holds n (d + 2) + 2 d doubles and nz d indices. Given
   events (t not NULL), each in turn is recorded in memory and its
   surface read into one row, which goes on only if its pairwise sum, the
   order of np.add.reduce(surfaces, axis=1), is at least 2 radius (the
   validity gate of surfaces.is_valid). Given rows (t NULL), every row
   goes on. Each row that goes on adds 1 to tick, and is taken through
   the learning rule if learning is set, else matched to its nearest bank
   row. Writes keep[k] for each input, set iff its row went on and the
   bank was past its warm-up, and the ids of the kept rows, in order, to
   ids; updates bank, counts, last and state in place. Returns the number
   kept, or -1 - k, with memory unchanged, if event k lies outside the
   layer's pixels or channels. */
int64_t evg_layer(double *bank, int64_t n, int64_t d, int64_t *state, int64_t *counts,
                  int64_t *last, int64_t window, int learning, double *scratch, int64_t *nz,
                  const double *surfaces, double *memory, int64_t channels, int64_t height,
                  int64_t width, int64_t radius, double tau, const int64_t *t,
                  const int64_t *x, const int64_t *y, const int64_t *p, int64_t m,
                  uint8_t *keep, int64_t *ids)
{
    const struct field f = {memory, channels, height, width, radius, tau};
    int64_t bad = t ? outside(&f, x, y, p, m) : 0;
    if (bad)
        return bad;
    /* c.sq_b_max never falls, so it bounds every row's |b|^2 */
    struct screen c;
    screen_init(&c, scratch, nz, bank, n, d);
    int64_t filled = state[0], tick = state[1], kept = 0;
    /* the first index of the least tick; only a write to its row, or of a
       tick at or below it, can move it */
    int64_t stalest = learning && filled ? first_least(last, filled) : 0;
    for (int64_t k = 0; k < m; k++) {
        const double *s = t ? c.row : surfaces + k * d;
        int64_t i, emit = 1;
        if (t) {
            c.q = read_surface(&f, t[k], x[k], y[k], p[k], c.row, nz);
            keep[k] = 0;
            if (!(evg_reduce(c.row, c.ones, d, 0) >= (double)(2 * radius)))
                continue;
        } else {
            c.q = 0;
            for (int64_t j = 0; j < d; j++) {
                nz[c.q] = j;
                c.q += s[j] != 0.0;
            }
        }
        tick++;
        if (!learning) {
            i = nearest(&c, bank, n, d, s);
        } else {
            if (filled < n || tick - last[stalest] > window) {
                /* seed an empty row (warm-up: no stable ids yet), or
                   reseed the stalest */
                emit = filled == n;
                i = emit ? stalest : filled++;
                memcpy(bank + i * d, s, (size_t)d * sizeof(double));
                counts[i] = 1;
            } else {
                double ns2 = evg_reduce(s, s, d, 0);
                i = nearest(&c, bank, n, d, s);
                /* learn_update: a cosine-weighted pull at rate 1/(1 + count),
                   the step clamped to [0, 1] */
                double *row = bank + i * d;
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
            }
            last[i] = tick;
            if (last[stalest] >= tick)
                stalest = first_least(last, filled);
            refresh(&c, bank, n, d, i);
        }
        keep[k] = (uint8_t)emit;
        ids[kept] = i;
        kept += emit;
    }
    state[0] = filled;
    state[1] = tick;
    return kept;
}

/* Background suppression over n events (dbs.DbsFilter.process_block).

   activity and last hold cells + 1 counters, the whole array's last.
   Event k's cell is row_cell[y[k]] + col_cell[x[k]]: the tables hold
   grid_cells at (0, y), the first cell of y's grid row, and at (x, 0),
   x's grid column, so the sum is grid_cells(x, y). Event k brings its
   cell's counter and then the whole array's forward to t[k], a = a *
   exp(-(t - last) / tau) + 1, and is kept iff its cell's is at least
   alpha times the whole array's over cells. exp is libm's, the function
   math.exp calls, so every value and decision is bit-equal to
   dbs.update_activity's. */
void evg_dbs(const int64_t *t, const int32_t *x, const int32_t *y, const int64_t *row_cell,
             const int64_t *col_cell, int64_t n, double *activity, int64_t *last,
             int64_t cells, double tau, double alpha, uint8_t *keep)
{
    for (int64_t k = 0; k < n; k++) {
        const int64_t hits[2] = {row_cell[y[k]] + col_cell[x[k]], cells};
        for (int j = 0; j < 2; j++) {
            int64_t c = hits[j];
            activity[c] = activity[c] * exp(-(double)(t[k] - last[c]) / tau) + 1.0;
            last[c] = t[k];
        }
        keep[k] = activity[hits[0]] >= alpha * (activity[cells] / (double)cells);
    }
}
