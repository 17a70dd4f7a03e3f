/* The per-event loops of evgesture, as one pass: each event in turn goes
   through background suppression and then through each layer of a
   cascade, and stops at the first stage that drops it. A layer records
   the event in its timestamp memory, reads its surface into one row,
   gates it on its sum, and takes a valid one through the online learning
   rule or matches it to the frozen bank, by one nearest-row rule; the id
   it emits is the next layer's channel. The pass writes what its callers
   read: the kept events' times and pixels, compacted, and, for a
   signature, the end ids counted into pooled bins. The same pass takes
   surface rows given from Python through one layer, ungated. Before it
   takes any event, it checks them all for time order and bounds, so
   events that need no cast reach it unchecked.

   Two shortcuts skip work only where it changes no bit: suppression
   reads its decay for small integer gaps from a table of exp of the same
   argument, built once per tau by the caller, and the surface reader
   lists the entries younger than tau first, with no branch, and then
   divides only those. The library writes only stage state and outputs.

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

/* The term a sum adds: a[i] * b[i] (DOT), (a[i] - b[i])^2 (SQDIST) or a[i]
   alone (SUM), which reads nothing of b */
enum { DOT, SQDIST, SUM };

static inline double term(const double *a, const double *b, int64_t i, int mode)
{
    if (mode == SUM)
        return a[i];
    if (mode == SQDIST) {
        double d = a[i] - b[i];
        return d * d;
    }
    return a[i] * b[i];
}

/* Two lanes of term: each lane is its own IEEE-754 operation, as in the
   scalar form; the vector type only makes sure the loop is vectorised. */
typedef double pair __attribute__((vector_size(16)));

static inline pair terms(const double *a, const double *b, int64_t i, int mode)
{
    pair x, y;
    memcpy(&x, a + i, sizeof x);
    if (mode == SUM)
        return x;
    memcpy(&y, b + i, sizeof y);
    if (mode == SQDIST) {
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
static double pairwise(const double *a, const double *b, int64_t n, int mode)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += term(a, b, i, mode);
        return res;
    }
    if (n <= 128) {
        pair r01 = terms(a, b, 0, mode), r23 = terms(a, b, 2, mode);
        pair r45 = terms(a, b, 4, mode), r67 = terms(a, b, 6, mode);
        int64_t i;
        for (i = 8; i < n - n % 8; i += 8) {
            r01 += terms(a, b, i, mode);
            r23 += terms(a, b, i + 2, mode);
            r45 += terms(a, b, i + 4, mode);
            r67 += terms(a, b, i + 6, mode);
        }
        double res = ((r01[0] + r01[1]) + (r23[0] + r23[1]))
                     + ((r45[0] + r45[1]) + (r67[0] + r67[1]));
        for (; i < n; i++)
            res += term(a, b, i, mode);
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, b, n2, mode) + pairwise(a + n2, b + n2, n - n2, mode);
}

/* np.add.reduce of a * b (mode DOT), (a - b) ** 2 (SQDIST) or a (SUM): the
   pairwise sum added to the reduction's initial 0.0. Also the pass's own
   sums, as a call: inlined, the recursion bloats the per-event loop. */
__attribute__((noinline)) double evg_reduce(const double *a, const double *b, int64_t n,
                                            int mode)
{
    return 0.0 + pairwise(a, b, n, mode);
}

static int64_t first_least(const int64_t *v, int64_t n)
{
    int64_t at = 0;
    for (int64_t i = 1; i < n; i++)
        if (v[i] < v[at])
            at = i;
    return at;
}

/* The records of the stages, mirrored field for field by _native.Dbs and
   _native.Layer. Every field is 8 bytes wide, so neither has padding. */

/* A DBS stage (dbs.DbsFilter): activity and last hold cells + 1
   counters, the whole array's last; row_cell and col_cell hold
   grid_cells at (0, y), for each of height pixel rows, and at (x, 0), for
   each of width pixel columns. decay holds the counters' decay over the
   gaps dt below gaps, exp(-dt / tau), and is only read.
   channels bounds the events' channels on a pass with no layer. kept
   counts the events the stage keeps; the caller sets it to 0. */
struct dbs {
    const int64_t *row_cell, *col_cell;
    double *activity;
    const double *decay;
    int64_t *last, cells, width, height, channels, gaps, kept;
    double tau, alpha;
};

/* A layer stage (network.Layer). bank is n x d; counts and last hold n
   match counts and last-match ticks, of which the first filled are live;
   tick counts the rows that went on, and since is the latest event time
   in memory. memory is channels x (height + 2 radius) x (width + 2
   radius), -inf where nothing fired, inside a radius-wide -inf border;
   tau is the decay of its time-surfaces. scratch holds n (d + 2) + 2 d
   doubles, the last d of them the reader's, and nz d indices. */
struct layer {
    double *bank, *memory, *scratch;
    int64_t *counts, *last, *nz;
    int64_t n, d, filled, tick, since, window, learning, channels, height, width, radius;
    double tau;
};

/* What the nearest-row rule reads besides the bank (n x d): each row's
   pairwise |b|^2, a bound on them all, the bank transposed (d x n), and
   scratch for n screened values; the surface row being matched, with
   the q indices nz of its nonzero entries; and the first index of the
   least last-match tick, the row a reseed takes. */
struct screen {
    double *norm2, *bank_t, *v, *row;
    int64_t *nz, q, stalest;
    double sq_b_max;
};

/* Row r of bank into norm2[r], sq_b_max and column r of bank_t */
static void refresh(struct screen *c, const double *bank, int64_t n, int64_t d, int64_t r)
{
    const double *row = bank + r * d;
    for (int64_t j = 0; j < d; j++)
        c->bank_t[j * n + r] = row[j];
    c->norm2[r] = evg_reduce(row, row, d, DOT);
    if (c->norm2[r] > c->sq_b_max)
        c->sq_b_max = c->norm2[r];
}

/* The caches of L's bank, in L's scratch */
static void screen_init(struct screen *c, const struct layer *L)
{
    int64_t n = L->n, d = L->d;
    c->norm2 = L->scratch;
    c->v = L->scratch + n;
    c->bank_t = L->scratch + 2 * n;
    c->row = c->bank_t + n * d;
    c->nz = L->nz;
    c->sq_b_max = 0.0;
    /* only a write to its row, or of a tick at or below it, can move it */
    c->stalest = L->learning && L->filled ? first_least(L->last, L->filled) : 0;
    for (int64_t r = 0; r < n; r++)
        refresh(c, L->bank, n, d, r);
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
            double dist = evg_reduce(bank + r * d, s, d, SQDIST);
            if (dist < least) {
                least = dist;
                at = r;
            }
        }
    }
    return at;
}

/* Whether pixel (x, y) on channel p lies outside width x height pixels
   and channels */
static int outside(int64_t x, int64_t y, int64_t p, int64_t width, int64_t height,
                   int64_t channels)
{
    return x < 0 || x >= width || y < 0 || y >= height || p < 0 || p >= channels;
}

/* One event's time-surface: the event first records its time at its own
   pixel of L's memory, then reads its (2 radius + 1)^2 field on every
   channel, in channel-major (p, dy, dx) order, as v = (m - t) / tau + 1,
   clamped at 0: the arithmetic of surfaces.extract, so every value is
   bit-equal to it. Writes the channels (2 radius + 1)^2 values to row and
   the indices of the nonzero ones, ascending, to L's nz; returns their
   count.

   Most entries are at least tau old, and an entry with m - t <= -tau,
   -inf included, has (m - t) / tau <= -1 under any rounding, since
   division rounds monotonically and -tau / tau is exactly -1: it reads
   0.0 with no division. So the read runs in two phases, with no branch
   on an entry's value. The first walks the field once, writes 0.0 to
   every entry and lists each entry's index in nz and its age m - t in
   the last d doubles of L's scratch, moving on to the next slot only for
   an entry younger than tau. The second takes just those candidates
   through the division, writes them, and keeps in nz, in order, the
   indices of those that read nonzero. */
static int64_t read_surface(const struct layer *L, int64_t t, int64_t x, int64_t y,
                            int64_t p, double *restrict row)
{
    const int64_t R = L->radius, side = 2 * R + 1, rows = L->height + 2 * R;
    const int64_t cols = L->width + 2 * R, channels = L->channels;
    double *restrict ages = L->scratch + L->n * (L->d + 2) + L->d;
    int64_t *restrict nz = L->nz;
    const double tau = L->tau, now = (double)t;
    int64_t j = 0, q = 0, live = 0;
    L->memory[(p * rows + y + R) * cols + x + R] = now;
    for (int64_t c = 0; c < channels; c++) {
        for (int64_t dy = 0; dy < side; dy++) {
            const double *m = L->memory + (c * rows + y + dy) * cols + x;
            for (int64_t dx = 0; dx < side; dx++, j++) {
                double age = m[dx] - now;
                row[j] = 0.0;
                nz[q] = j;
                ages[q] = age;
                q += age > -tau;
            }
        }
    }
    for (int64_t k = 0; k < q; k++) {
        /* age > -tau, so age / tau >= -1 by the same monotone rounding,
           and v >= +0.0 with no clamp: -1.0 + 1.0 is +0.0 */
        double v = ages[k] / tau + 1.0;
        int64_t i = nz[k];
        row[i] = v;
        nz[live] = i;
        live += v != 0.0;
    }
    return live;
}

/* The time-surfaces of n consecutive events (network.Layer.block_surfaces),
   one row each, written to out; L's memory is updated to include them.
   The events are in evg_pass's layout, and the one caller has checked
   them against L's pixels and channels. */
void evg_surfaces(const struct layer *L, const int64_t *t, const int32_t *x,
                  const int32_t *y, const int32_t *p, int64_t n, double *out)
{
    for (int64_t k = 0; k < n; k++)
        read_surface(L, t[k], x[k], y[k], p[k], out + k * L->d);
}

/* exp(-dt / tau) for D's counters, the gap dt >= 0: D's table entry
   where dt < gaps, which holds the value of this same call. */
static double decay(const struct dbs *D, int64_t dt)
{
    return dt < D->gaps ? D->decay[dt] : exp(-(double)dt / D->tau);
}

/* Background suppression of the event at time t in pixel (x, y): its
   cell's counter and then the whole array's are brought forward to t,
   a = a * exp(-(t - last) / tau) + 1, and the event is kept iff its
   cell's is at least alpha times the whole array's over cells. The cell
   is row_cell[y] + col_cell[x], grid_cells(x, y). The whole array's
   counter and its last time are the pass's locals all and all_last, in
   registers, not D's. exp is libm's, the function math.exp calls, so
   every value and decision is bit-equal to dbs.update_activity's. */
static inline int dbs_step(struct dbs *D, double *all, int64_t *all_last, int64_t t,
                           int64_t x, int64_t y)
{
    const int64_t c = D->row_cell[y] + D->col_cell[x];
    const double a = D->activity[c] * decay(D, t - D->last[c]) + 1.0;
    D->activity[c] = a;
    D->last[c] = t;
    *all = *all * decay(D, t - *all_last) + 1.0;
    *all_last = t;
    return a >= D->alpha * (*all / (double)D->cells);
}

/* Layer L's step, c its caches, on the event (t, x, y, p), or on the
   given row s where s is not NULL. The event is recorded in memory and
   its surface read into one row, which goes on only if its pairwise sum,
   the order of np.add.reduce(surfaces, axis=1), is at least 2 radius
   (the validity gate of surfaces.is_valid); a given row always goes on.
   A row that goes on adds 1 to tick, and is taken through the learning
   rule if learning is set, else matched to its nearest bank row. Returns
   the id emitted, or -1 if the row did not go on or the bank is still in
   its warm-up. */
static int64_t layer_step(struct layer *L, struct screen *c, int64_t t, int64_t x,
                          int64_t y, int64_t p, const double *s)
{
    int64_t n = L->n, d = L->d, *last = L->last, i, emit = 1;
    if (!s) {
        L->since = t;
        c->q = read_surface(L, t, x, y, p, c->row);
        if (!(evg_reduce(c->row, c->row, d, SUM) >= (double)(2 * L->radius)))
            return -1;
        s = c->row;
    } else {
        c->q = 0;
        for (int64_t j = 0; j < d; j++) {
            c->nz[c->q] = j;
            c->q += s[j] != 0.0;
        }
    }
    L->tick++;
    if (!L->learning)
        return nearest(c, L->bank, n, d, s);
    /* c->sq_b_max never falls, so it bounds every row's |b|^2 */
    if (L->filled < n || L->tick - last[c->stalest] > L->window) {
        /* seed an empty row (warm-up: no stable ids yet), or reseed the
           stalest */
        emit = L->filled == n;
        i = emit ? c->stalest : L->filled++;
        memcpy(L->bank + i * d, s, (size_t)d * sizeof(double));
        L->counts[i] = 1;
    } else {
        double ns2 = evg_reduce(s, s, d, DOT);
        i = nearest(c, L->bank, n, d, s);
        /* learn_update: a cosine-weighted pull at rate 1/(1 + count), the
           step clamped to [0, 1] */
        double *row = L->bank + i * d;
        if (ns2 != 0.0 && c->norm2[i] != 0.0) {
            double cos = evg_reduce(s, row, d, DOT) / sqrt(ns2 * c->norm2[i]);
            double step = 1.0 / (1.0 + (double)L->counts[i]) * cos;
            if (0.0 > step)
                step = 0.0;
            if (1.0 < step)
                step = 1.0;
            for (int64_t j = 0; j < d; j++)
                row[j] += (s[j] - row[j]) * step;
        }
        L->counts[i]++;
    }
    last[i] = L->tick;
    if (last[c->stalest] >= L->tick)
        c->stalest = first_least(last, L->filled);
    refresh(c, L->bank, n, d, i);
    return emit ? i : -1;
}

/* The one pass (_native.run) over m events (t, x, y, p) in the stream
   layout (events.LAYOUT), or over m given surface rows of layers[0]
   where rows is not NULL (then t, x, y and p are NULL, D is NULL and nl
   is 1). p NULL puts every event on channel 0.

   Each event in turn goes through D, unless D is NULL, then through each
   of the nl layers, the id a layer emits being the next layer's
   channel, and stops at the first stage that drops it. No stage reads
   anything from a later one, so this equals running each stage over the
   whole output of the stage before it. Writes keep[k] for each input,
   set iff it passed every stage; the end ids of the kept inputs, in
   order, to ids (with no layer, their channels), and, where kt is not
   NULL, their t, x and y to kt, kx and ky; and, where counts is not NULL
   (then nl >= 1), adds 1 to counts[cell * n + id] for each, where cell
   is pool_row[y] + pool_col[x] and n the last layer's bank rows. Updates
   every stage's state in place; D's whole-array counter, its last time
   and its kept count stay in registers until the pass ends.

   Returns the number kept, or -1 - k, with no state changed, at the
   first event k that goes back in time: below 0, behind the latest time
   any stage has taken or behind the event before it; or that lies
   outside D's pixels, or, given p with no layer, D's channels; or
   outside layers[0]'s pixels or channels. */
int64_t evg_pass(struct dbs *D, struct layer *layers, int64_t nl, const int64_t *t,
                 const int32_t *x, const int32_t *y, const int32_t *p, const double *rows,
                 int64_t m, uint8_t *keep, int32_t *ids, int64_t *kt, int32_t *kx,
                 int32_t *ky, const int64_t *pool_row, const int64_t *pool_col,
                 double *counts)
{
    /* at least 0, since every time a stage has taken was checked, so a
       negative first time is refused too */
    int64_t since = D ? D->last[D->cells] : 0;
    for (int64_t i = 0; i < nl; i++)
        since = layers[i].since > since ? layers[i].since : since;
    for (int64_t k = 0; !rows && k < m; k++) {
        int64_t pk = p ? p[k] : 0;
        if (t[k] < (k ? t[k - 1] : since)
            || (D && outside(x[k], y[k], nl ? 0 : pk, D->width, D->height,
                             nl ? 1 : D->channels))
            || (nl && outside(x[k], y[k], pk, layers->width, layers->height,
                              layers->channels)))
            return -1 - k;
    }
    struct screen cs[nl ? nl : 1];
    for (int64_t i = 0; i < nl; i++)
        screen_init(&cs[i], &layers[i]);
    double all = D ? D->activity[D->cells] : 0.0;
    int64_t all_last = D ? D->last[D->cells] : 0, dbs_kept = D ? D->kept : 0, kept = 0;
    for (int64_t k = 0; k < m; k++) {
        const double *s = rows ? rows + k * layers->d : NULL;
        int64_t tk = s ? 0 : t[k], xk = s ? 0 : x[k], yk = s ? 0 : y[k];
        int64_t id = p ? p[k] : 0, go = !D || dbs_step(D, &all, &all_last, tk, xk, yk);
        dbs_kept += go;
        for (int64_t i = 0; go && i < nl; i++) {
            id = layer_step(&layers[i], &cs[i], tk, xk, yk, id, s);
            go = id >= 0;
        }
        keep[k] = (uint8_t)go;
        ids[kept] = (int32_t)id;
        if (kt) {
            kt[kept] = tk;
            kx[kept] = (int32_t)xk;
            ky[kept] = (int32_t)yk;
        }
        if (counts && go)
            counts[(pool_row[yk] + pool_col[xk]) * layers[nl - 1].n + id] += 1.0;
        kept += go;
    }
    if (D) {
        D->activity[D->cells] = all;
        D->last[D->cells] = all_last;
        D->kept = dbs_kept;
    }
    return kept;
}
