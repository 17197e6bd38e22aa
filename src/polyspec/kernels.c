#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <sys/mman.h>

/* a pivot of magnitude below pivmin counts as -pivmin */
static inline double pivot(double x, double pivmin)
{
    return fabs(x) < pivmin ? -pivmin : x;
}

/* v (L, R) and tsq (L-1, R) hold one operator per column; s, counts and d
   (R, K) hold realization r's K shifts, counts below them and last pivots
   in row r.  Only rows r0 .. r1 - 1 are swept and written. */
void sturm_counts(int64_t L, int64_t R, int64_t K, int64_t r0, int64_t r1,
                  const double *restrict v, const double *restrict tsq,
                  const double *restrict s, double pivmin, int64_t *restrict counts,
                  double *restrict d)
{
    for (int64_t r = r0; r < r1; ++r)
        for (int64_t i = r * K; i < (r + 1) * K; ++i) {
            const double x = pivot(v[r] - s[i], pivmin);
            d[i] = x;
            counts[i] = x < 0;
        }
    /* sites outermost: each site's row of v and tsq is read once per sweep */
    for (int64_t n = 1; n < L; ++n) {
        const double *vn = v + n * R, *tn = tsq + (n - 1) * R;
        const double *sr = s + r0 * K;
        double *dr = d + r0 * K;
        int64_t *cr = counts + r0 * K;
        for (int64_t r = r0; r < r1; ++r, sr += K, dr += K, cr += K) {
            const double vr = vn[r], tr = tn[r];
            for (int64_t k = 0; k < K; ++k) {
                const double x = pivot((vr - sr[k]) - tr / dr[k], pivmin);
                dr[k] = x;
                cr[k] += x < 0;
            }
        }
    }
}

/* Lanes come in whole vectors: every run of lanes below starts and ends on
   a multiple of VEC, padded with spare lanes whose results nobody reads,
   so each lockstep loop is a whole number of fixed-width blocks. */
enum { VEC = 8 };

static int64_t vec_up(int64_t k)
{
    return (k + VEC - 1) / VEC * VEC;
}

/* One site's step of the twisted lanes k .. k + VEC - 1 of lane_sweep: the
   pivots p and their derivatives dp in x.  Under `masked`, only the lanes
   the site belongs to step: tw > n forward, tw < -n backward (n < 0). */
static inline void twisted_block(int64_t k, int64_t n, double vr, double tr, double pivmin,
                                 const int64_t *restrict tw, const double *restrict x,
                                 double *restrict p, double *restrict dp,
                                 int64_t *restrict cnt, int masked)
{
    for (int64_t i = k; i < k + VEC; ++i) {
        const double inv = 1.0 / p[i], q = tr * inv;
        const double y = pivot((vr - x[i]) - q, pivmin), dy = q * inv * dp[i] - 1.0;
        const int on = !masked || (n > 0 ? tw[i] > n : tw[i] < -n);
        p[i] = on ? y : p[i];
        dp[i] = on ? dy : dp[i];
        cnt[i] += on & (y < 0);
    }
}

/* One lockstep evaluation of the lanes of nseg segments.  Segment s holds
   lanes s0[s] .. s2[s] - 1, all at shifts x of realization sr[s]: twisted
   lanes s0[s] .. s1[s] - 1, ascending in their twist index tw, then plain
   lanes.  A plain lane gets cnt, the count of sturm_counts at x.  A twisted
   lane at t = tw runs the recursion forward over sites 0 .. t-1 (pivots d,
   derivatives dd in x) and backward over sites L-1 .. t+1 (pivots e,
   derivatives de); cnt is the negative count of the twisted factorization
   of H - x, which by Sylvester's law of inertia is again the eigenvalue
   count below x, and g, gp are the twist pivot
   gamma_t = (v_t - x) - tsq_{t-1}/d_{t-1} - tsq_t/e_{t+1} and its
   derivative.  gamma_t is left as computed (pivmin bounds only the pivots
   that divide), so a Newton step from an x on the eigenvalue is exactly 0.
   With the twisted lanes sorted by t, those a site updates are a
   contiguous run, whose start (forward) or end (backward) ptr tracks; only
   the block that holds the run's edge updates under a mask.  Not inlined,
   so that its restrict arguments stay distinct to the vectorizer although
   they are carved from one mapping. */
__attribute__((noinline))
static void lane_sweep(int64_t L, int64_t R, const double *restrict v,
                       const double *restrict tsq, double pivmin, int64_t nseg,
                       const int64_t *restrict sr, const int64_t *restrict s0,
                       const int64_t *restrict s1, const int64_t *restrict s2,
                       int64_t *restrict ptr, const int64_t *restrict tw,
                       const double *restrict x, double *restrict d, double *restrict dd,
                       double *restrict e, double *restrict de, int64_t *restrict cnt,
                       double *restrict g, double *restrict gp)
{
    int64_t twisted = 0;
    for (int64_t s = 0; s < nseg; ++s) {
        const double v0 = v[sr[s]], vl = v[(L - 1) * R + sr[s]];
        twisted |= s1[s] > s0[s];
        ptr[s] = s0[s];
        for (int64_t k = s0[s]; k < s1[s]; ++k) {
            d[k] = pivot(v0 - x[k], pivmin);
            dd[k] = -1.0;
            e[k] = pivot(vl - x[k], pivmin);
            de[k] = -1.0;
            cnt[k] = ((tw[k] > 0) & (d[k] < 0)) + ((tw[k] < L - 1) & (e[k] < 0));
        }
        for (int64_t k = s1[s]; k < s2[s]; ++k) {
            d[k] = pivot(v0 - x[k], pivmin);
            cnt[k] = (L > 1) & (d[k] < 0);  /* with L = 1 site 0 is the last */
        }
    }
    for (int64_t n = 1; n < L - 1; ++n) {
        const double *vn = v + n * R, *tn = tsq + (n - 1) * R;
        for (int64_t s = 0; s < nseg; ++s) {
            const double vr = vn[sr[s]], tr = tn[sr[s]];
            int64_t k0 = ptr[s];
            while (k0 < s1[s] && tw[k0] <= n)
                ++k0;
            ptr[s] = k0;
            /* the block holding the run's start under a mask, then whole blocks */
            const int64_t kb = k0 / VEC * VEC;
            if (kb < k0)
                twisted_block(kb, n, vr, tr, pivmin, tw, x, d, dd, cnt, 1);
            for (int64_t k = kb < k0 ? kb + VEC : kb; k < s1[s]; k += VEC)
                twisted_block(k, n, vr, tr, pivmin, tw, x, d, dd, cnt, 0);
            for (int64_t k = s1[s]; k < s2[s]; k += VEC)
                for (int64_t i = k; i < k + VEC; ++i) {  /* as sturm_counts, bit for bit */
                    const double y = pivot((vr - x[i]) - tr / d[i], pivmin);
                    d[i] = y;
                    cnt[i] += y < 0;
                }
        }
    }
    for (int64_t s = 0; s < nseg; ++s)
        ptr[s] = s1[s];
    for (int64_t n = L - 2; n > 0 && twisted; --n) {
        const double *vn = v + n * R, *tn = tsq + n * R;
        for (int64_t s = 0; s < nseg; ++s) {
            int64_t k1 = ptr[s];
            while (k1 > s0[s] && tw[k1 - 1] >= n)
                --k1;
            ptr[s] = k1;
            const double vr = vn[sr[s]], tr = tn[sr[s]];
            /* whole blocks, then the block holding the run's end under a mask */
            const int64_t ke = k1 / VEC * VEC;
            for (int64_t k = s0[s]; k < ke; k += VEC)
                twisted_block(k, -n, vr, tr, pivmin, tw, x, e, de, cnt, 0);
            if (ke < k1)
                twisted_block(ke, -n, vr, tr, pivmin, tw, x, e, de, cnt, 1);
        }
    }
    for (int64_t s = 0; s < nseg; ++s) {
        const int64_t r = sr[s];
        for (int64_t k = s0[s]; k < s2[s]; ++k) {
            const int64_t t = k < s1[s] ? tw[k] : L - 1;
            double y = v[t * R + r] - x[k], dy = -1.0;
            if (k >= s1[s]) {
                if (t > 0)
                    y -= tsq[(t - 1) * R + r] / d[k];
            } else {
                if (t > 0) {
                    const double inv = 1.0 / d[k], q = tsq[(t - 1) * R + r] * inv;
                    y -= q;
                    dy += q * inv * dd[k];
                }
                if (t < L - 1) {
                    const double inv = 1.0 / e[k], q = tsq[t * R + r] * inv;
                    y -= q;
                    dy += q * inv * de[k];
                }
            }
            cnt[k] += pivot(y, pivmin) < 0;
            g[k] = y;
            gp[k] = dy;
        }
    }
}

/* The twist index of each lane: the two-sided pass at x that picks
   tw = argmin_t |gamma_t| (the largest t on ties), with g and gp gamma and
   its derivative there, and cnt the forward negative count.  Lanes are
   grouped in whole-vector segments (s0[s] .. s2[s] - 1, realization sr[s]);
   A and P (L, B) hold each site's forward part of gamma and of its
   derivative, so a pass takes B lanes at most.  Not inlined, as
   lane_sweep. */
__attribute__((noinline))
static void twist_pass(int64_t L, int64_t R, const double *restrict v,
                       const double *restrict tsq, double pivmin, int64_t nseg,
                       const int64_t *restrict sr, const int64_t *restrict s0,
                       const int64_t *restrict s2, int64_t B, const double *restrict x,
                       double *restrict A, double *restrict P, double *restrict d,
                       double *restrict dd, int64_t *restrict cnt, int64_t *restrict tw,
                       double *restrict g, double *restrict gp)
{
    for (int64_t s = 0; s < nseg; ++s) {
        const double v0 = v[sr[s]];
        for (int64_t k = s0[s]; k < s2[s]; ++k) {
            const double y = v0 - x[k];
            A[k] = y;
            P[k] = 0.0;
            d[k] = pivot(y, pivmin);
            dd[k] = -1.0;
            cnt[k] = d[k] < 0;
        }
    }
    for (int64_t n = 1; n < L; ++n) {
        const double *vn = v + n * R, *tn = tsq + (n - 1) * R;
        double *An = A + n * B, *Pn = P + n * B;
        for (int64_t s = 0; s < nseg; ++s) {
            const double vr = vn[sr[s]], tr = tn[sr[s]];
            for (int64_t k = s0[s]; k < s2[s]; k += VEC)
                for (int64_t i = k; i < k + VEC; ++i) {
                    const double inv = 1.0 / d[i], q = tr * inv;
                    const double y = (vr - x[i]) - q, p = q * inv * dd[i];
                    An[i] = y;
                    Pn[i] = p;
                    dd[i] = p - 1.0;
                    d[i] = pivot(y, pivmin);
                    cnt[i] += d[i] < 0;
                }
        }
    }
    /* backward: d and dd now hold the backward pivots and derivatives */
    for (int64_t s = 0; s < nseg; ++s) {
        const double vl = v[(L - 1) * R + sr[s]];
        for (int64_t k = s0[s]; k < s2[s]; ++k) {
            tw[k] = L - 1;
            g[k] = A[(L - 1) * B + k];
            gp[k] = P[(L - 1) * B + k] - 1.0;
            d[k] = pivot(vl - x[k], pivmin);
            dd[k] = -1.0;
        }
    }
    for (int64_t n = L - 2; n >= 0; --n) {
        const double *vn = v + n * R, *tn = tsq + n * R, *An = A + n * B, *Pn = P + n * B;
        for (int64_t s = 0; s < nseg; ++s) {
            const double vr = vn[sr[s]], tr = tn[sr[s]];
            for (int64_t k = s0[s]; k < s2[s]; k += VEC)
                for (int64_t i = k; i < k + VEC; ++i) {
                    const double inv = 1.0 / d[i], q = tr * inv, qd = q * inv * dd[i];
                    const double y = An[i] - q, dy = (Pn[i] + qd) - 1.0;
                    const int better = fabs(y) < fabs(g[i]);
                    tw[i] = better ? n : tw[i];
                    g[i] = better ? y : g[i];
                    gp[i] = better ? dy : gp[i];
                    d[i] = pivot((vr - x[i]) - q, pivmin);
                    dd[i] = qd - 1.0;
                }
        }
    }
}

/* window_eigenvalues: what a column does this round */
enum { BISECT, TWIST, REFINE, CONFIRM, DONE };
/* twisted-pivot steps a column may take before it falls back to bisection */
enum { MAX_REFINE = 10 };
/* a bracket shared by g columns is cut at MULTI g points per round */
enum { MULTI = 2 };

struct window {
    double tol;
    const double *lo0, *hi0;  /* each column's starting bracket */
    double *lo, *hi, *x, *g, *gp, *step, *work, *eig;
    int64_t *j, *clo, *chi, *tw, *nref, *rejected, *twists, *state;
};

static void finish(struct window *w, int64_t c, double value)
{
    w->eig[c] = value;
    w->state[c] = DONE;
}

/* a bisecting column: done once its bracket is no wider than tol (or cannot
   be split), on to the twist pass once it holds its own eigenvalue alone
   and is wide enough for refinement to save sweeps */
static void settle(struct window *w, int64_t c)
{
    const double lo = w->lo[c], hi = w->hi[c], mid = lo + (hi - lo) * 0.5;
    if (hi - lo <= w->tol || !(lo < mid && mid < hi))
        finish(w, c, mid);
    else if (w->twists[c] > 0 && w->clo[c] == w->j[c] && w->chi[c] == w->j[c] + 1
             && hi - lo > 32 * w->tol)
        w->state[c] = TWIST;
    else
        w->state[c] = BISECT;
}

/* a refining column, with the twist pivot (g) and its derivative (gp) at
   x: confirm once the Newton step is below tol/8, else take the step if it
   stays inside the bracket and at most halves the previous one, else
   bisect.  Two rejected steps in a row mean a poor twist index (one where
   a neighbour's eigenvector outweighs the column's own): the column takes
   the twist pass again, once, at its now narrower bracket. */
static void propose(struct window *w, int64_t c)
{
    const double lo = w->lo[c], hi = w->hi[c], x = w->x[c], dx = -w->g[c] / w->gp[c];
    const int newton = isfinite(w->gp[c]) && isfinite(dx);
    if (w->nref[c] >= MAX_REFINE || hi - lo <= w->tol) {
        w->twists[c] = 0;
        settle(w, c);
        return;
    }
    if (newton && fabs(dx) <= 0.125 * w->tol) {
        w->x[c] = x + dx;
        w->state[c] = CONFIRM;
        return;
    }
    double nx = x + dx;
    if (newton && lo < nx && nx < hi && fabs(dx) <= 0.5 * fabs(w->step[c])) {
        w->rejected[c] = 0;
    } else if (++w->rejected[c] >= 2 && w->twists[c] > 0) {
        w->state[c] = TWIST;
        return;
    } else {
        nx = lo + (hi - lo) * 0.5;
    }
    if (!(lo < nx && nx < hi)) {
        w->twists[c] = 0;
        settle(w, c);
        return;
    }
    w->step[c] = nx - x;
    w->x[c] = nx;
    w->state[c] = REFINE;
}

/* an eigenvalue count `below` at x: x becomes the bracket end it may be */
static void narrow(struct window *w, int64_t c, double x, int64_t below)
{
    if (below <= w->j[c]) {
        w->lo[c] = x;
        w->clo[c] = below;
    } else {
        w->hi[c] = x;
        w->chi[c] = below;
    }
}

/* x -+ tol/4 around a confirming column's x; a bracket end already past
   one of them settles that side without a count */
static void confirm_ends(const struct window *w, int64_t c, double *xl, double *xh,
                         int *need_lo, int *need_hi)
{
    const double h = 0.25 * w->tol;
    *xl = w->x[c] - h;
    *xh = w->x[c] + h;
    *need_lo = !(w->lo[c] >= *xl);
    *need_hi = !(w->hi[c] <= *xh);
}

/* the confirming counts below xl and xh (of the sides that need one): done
   with the midpoint of [xl, xh], or back to plain bisection on what the
   counts and the bracket say */
static void confirm(struct window *w, int64_t c, int64_t below_lo, int64_t below_hi)
{
    double xl, xh;
    int need_lo, need_hi;
    confirm_ends(w, c, &xl, &xh, &need_lo, &need_hi);
    const int64_t j = w->j[c];
    w->work[c] += need_lo + need_hi;
    if ((!need_lo || below_lo <= j) && (!need_hi || below_hi > j) && xh - xl <= w->tol) {
        finish(w, c, 0.5 * (xl + xh));
        return;
    }
    if (need_lo && (below_lo <= j ? xl > w->lo[c] : xl < w->hi[c]))
        narrow(w, c, xl, below_lo);
    if (need_hi && (below_hi <= j ? xh > w->lo[c] : xh < w->hi[c]))
        narrow(w, c, xh, below_hi);
    if (!(w->lo[c] < w->hi[c])) {  /* counts disagree in the last bits: restart */
        w->lo[c] = w->lo0[c];
        w->hi[c] = w->hi0[c];
    }
    w->twists[c] = 0;
    settle(w, c);
}

/* The scratch of one window_eigenvalues call: one anonymous mapping, so
   that its pages go back to the system on return instead of staying in the
   allocator's heap.  Built with AddressSanitizer, each array is a malloc of
   its own instead, so that redzones separate them. */
struct scratch {
    char *mem, *at;
    size_t bytes;
    int n;
    void *parts[64];
};

static int scratch_open(struct scratch *s, size_t bytes)
{
    s->bytes = bytes;
    s->n = 0;
#ifdef __SANITIZE_ADDRESS__
    s->mem = s->at = NULL;
    return 0;
#else
    s->mem = s->at = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return s->mem == MAP_FAILED ? -1 : 0;
#endif
}

static void *carve(struct scratch *s, size_t bytes)
{
#ifdef __SANITIZE_ADDRESS__
    return s->parts[s->n++] = malloc(bytes);
#else
    void *p = s->at;
    s->at += (bytes + 63) / 64 * 64;
    if (s->at > s->mem + s->bytes)  /* the size sum below is out of step */
        abort();
    return p;
#endif
}

static void scratch_close(struct scratch *s)
{
#ifdef __SANITIZE_ADDRESS__
    while (s->n > 0)
        free(s->parts[--s->n]);
#else
    munmap(s->mem, s->bytes);
#endif
}

/* Eigenvalues of realizations r0 .. r1 - 1 (v and tsq as in sturm_counts),
   one per packed column: realization r owns the columns off[r] ..
   off[r+1] - 1, and column i finds its eigenvalue of 0-based index j[i],
   starting from the bracket [lo[i], hi[i]] whose Sturm counts are clo[i]
   <= j[i] < chi[i].  A realization's columns that start from one bracket
   must be adjacent, in ascending j.  eig[i] gets the midpoint of a bracket
   no wider than tol that holds the eigenvalue, and sweeps[i] the column's
   share of the sweeps over the L sites, rounded (q counts that g columns
   share add q/g to each, a twist pass 2).

   Adjacent columns of a realization that share a bracket cut it at twice
   as many points as they are, in one lockstep sweep, until each bracket holds
   its eigenvalue alone.  A column then picks its twist index in one
   two-sided pass, takes safeguarded Newton steps on the twist pivot, whose
   root is the eigenvalue and whose negative count keeps the bracket, and
   confirms with the counts at x -+ tol/4.  A cluster too tight to split,
   or a column whose steps fail, bisects to tol.  Each round evaluates every
   active column in lockstep, sites outermost; a column's result depends on
   its own realization only.  Returns -1 if the scratch cannot be
   allocated, else 0. */
int window_eigenvalues(int64_t L, int64_t R, int64_t r0, int64_t r1,
                       const int64_t *restrict off, const double *restrict v,
                       const double *restrict tsq, double pivmin, double tol,
                       const int64_t *restrict j, const double *restrict lo,
                       const double *restrict hi, const int64_t *restrict clo,
                       const int64_t *restrict chi, double *restrict eig,
                       int64_t *restrict sweeps)
{
    const int64_t c0 = off[r0], C = off[r1] - c0, nr = r1 - r0;
    if (C == 0)
        return 0;
    /* twist pass: about 1 MB of A and P, in whole vectors */
    const int64_t B = L < 65536 / VEC ? 65536 / L / VEC * VEC : VEC;
    const int64_t M = MULTI * C + 2 * VEC * nr;  /* lanes: MULTI per column, and padding */
    const size_t d8 = sizeof(double), i8 = sizeof(int64_t);
    const size_t bytes = 64 * 64 + C * (7 * d8 + 13 * i8) + M * (7 * d8 + 3 * i8)
                         + nr * 6 * i8 + 2 * B * L * d8 + B * (5 * d8 + 5 * i8);
    struct scratch sc;
    if (scratch_open(&sc, bytes))
        return -1;
    struct window w = {.tol = tol, .lo0 = lo + c0, .hi0 = hi + c0};
    w.eig = eig + c0;
    double **cd[] = {&w.lo, &w.hi, &w.x, &w.g, &w.gp, &w.step, &w.work};
    for (int i = 0; i < 7; ++i)
        *cd[i] = carve(&sc, C * d8);
    int64_t **ci[] = {&w.j, &w.clo, &w.chi, &w.tw, &w.nref, &w.rejected, &w.twists, &w.state};
    for (int i = 0; i < 8; ++i)
        *ci[i] = carve(&sc, C * i8);
    /* perm: each realization's columns, refining ones first by twist index;
       lane1, lane2: a column's lanes this round; jobs: the twist passes */
    int64_t *perm = carve(&sc, C * i8), *lane1 = carve(&sc, C * i8);
    int64_t *lane2 = carve(&sc, C * i8), *jobs = carve(&sc, C * i8);
    int64_t *jobr = carve(&sc, C * i8);
    double *lx = carve(&sc, M * d8), *ld = carve(&sc, M * d8), *ldd = carve(&sc, M * d8);
    double *le = carve(&sc, M * d8), *lde = carve(&sc, M * d8), *lg = carve(&sc, M * d8);
    double *lgp = carve(&sc, M * d8);
    int64_t *ltw = carve(&sc, M * i8), *lcnt = carve(&sc, M * i8);
    int64_t *lshare = carve(&sc, M * i8);
    int64_t *sr = carve(&sc, nr * i8), *s0 = carve(&sc, nr * i8), *s1 = carve(&sc, nr * i8);
    int64_t *s2 = carve(&sc, nr * i8), *ptr = carve(&sc, nr * i8);
    int64_t *nact = carve(&sc, nr * i8);
    double *A = carve(&sc, B * L * d8), *P = carve(&sc, B * L * d8);
    double *tx = carve(&sc, B * d8), *td = carve(&sc, B * d8), *tdd = carve(&sc, B * d8);
    double *tg = carve(&sc, B * d8), *tgp = carve(&sc, B * d8);
    int64_t *tcnt = carve(&sc, B * i8), *ttw = carve(&sc, B * i8), *tsr = carve(&sc, B * i8);
    int64_t *ts0 = carve(&sc, B * i8), *ts2 = carve(&sc, B * i8);

    for (int64_t r = r0; r < r1; ++r)
        nact[r - r0] = off[r + 1] - off[r];
    for (int64_t c = 0; c < C; ++c) {
        perm[c] = c;
        w.j[c] = j[c0 + c];
        w.lo[c] = lo[c0 + c];
        w.hi[c] = hi[c0 + c];
        w.clo[c] = clo[c0 + c];
        w.chi[c] = chi[c0 + c];
        w.nref[c] = 0;
        w.rejected[c] = 0;
        w.twists[c] = 2;
        w.work[c] = 0.0;
        settle(&w, c);
    }
    for (;;) {
        /* plan: per realization, refining columns ascending in twist index
           (a stable insertion sort: the order changes little per round),
           then the others; done columns drop out at the end */
        int64_t nseg = 0, m = 0, nj = 0;
        for (int64_t r = r0; r < r1; ++r) {
            int64_t *p = perm + (off[r] - c0), n = nact[r - r0];
#define KEY(c) (w.state[c] == REFINE ? w.tw[c] : w.state[c] == DONE ? L + 1 : L)
            for (int64_t i = 1; i < n; ++i) {
                const int64_t c = p[i], key = KEY(c);
                int64_t k = i;
                for (; k > 0 && KEY(p[k - 1]) > key; --k)
                    p[k] = p[k - 1];
                p[k] = c;
            }
#undef KEY
            while (n > 0 && w.state[p[n - 1]] == DONE)
                --n;
            nact[r - r0] = n;
            sr[nseg] = r;
            s0[nseg] = m;
            int64_t i = 0;
            for (; i < n && w.state[p[i]] == REFINE; ++i) {
                const int64_t c = p[i];
                lx[m] = w.x[c];
                ltw[m] = w.tw[c];
                lane1[c] = m++;
            }
            for (const int64_t k1 = vec_up(m); m < k1; ++m) {  /* spare twisted lanes */
                lx[m] = lx[s0[nseg]];
                ltw[m] = L - 1;
            }
            s1[nseg] = m;
            for (; i < n; ++i) {
                const int64_t c = p[i];
                double xl, xh;
                int need_lo, need_hi;
                switch (w.state[c]) {
                case BISECT: {
                    /* the g columns from here with this bracket share its q points */
                    const double lo = w.lo[c], hi = w.hi[c];
                    int64_t g = 1;
                    while (i + g < n && w.state[p[i + g]] == BISECT && w.lo[p[i + g]] == lo
                           && w.hi[p[i + g]] == hi)
                        ++g;
                    const int64_t q = w.twists[c] > 0 ? MULTI * g : 1;
                    for (int64_t u = 1; u <= q; ++u)
                        lx[m + u - 1] = lo + (hi - lo) * ((double)u / (double)(q + 1));
                    for (int64_t k = i; k < i + g; ++k) {
                        lane1[p[k]] = m;
                        lane2[p[k]] = q;
                    }
                    lshare[m] = g;
                    m += q;
                    i += g - 1;
                    break;
                }
                case CONFIRM:
                    confirm_ends(&w, c, &xl, &xh, &need_lo, &need_hi);
                    lane1[c] = lane2[c] = -1;
                    if (need_lo)
                        lx[m] = xl, lane1[c] = m++;
                    if (need_hi)
                        lx[m] = xh, lane2[c] = m++;
                    break;
                case TWIST:
                    jobr[nj] = r;
                    jobs[nj++] = c;
                    break;
                }
            }
            for (const int64_t k2 = vec_up(m); m < k2; ++m)  /* spare plain lanes */
                lx[m] = lx[m - 1];
            if (m > s0[nseg])
                s2[nseg++] = m;
        }
        if (m == 0 && nj == 0)
            break;
        lane_sweep(L, R, v, tsq, pivmin, nseg, sr, s0, s1, s2, ptr, ltw, lx, ld, ldd, le, lde,
                   lcnt, lg, lgp);
        for (int64_t r = r0; r < r1; ++r) {
            const int64_t *p = perm + (off[r] - c0);
            for (int64_t i = 0; i < nact[r - r0]; ++i) {
                const int64_t c = p[i], k = lane1[c];
                switch (w.state[c]) {
                case BISECT:
                    /* the tightest bracket the points give */
                    w.work[c] += (double)lane2[c] / (double)lshare[k];
                    for (int64_t u = k; u < k + lane2[c]; ++u) {
                        narrow(&w, c, lx[u], lcnt[u]);
                        if (lcnt[u] > w.j[c])
                            break;
                    }
                    settle(&w, c);
                    break;
                case REFINE:
                    w.work[c] += 1;
                    w.nref[c] += 1;
                    narrow(&w, c, lx[k], lcnt[k]);
                    w.g[c] = lg[k];
                    w.gp[c] = lgp[k];
                    propose(&w, c);
                    break;
                case CONFIRM:
                    confirm(&w, c, k < 0 ? 0 : lcnt[k], lane2[c] < 0 ? 0 : lcnt[lane2[c]]);
                    break;
                }
            }
        }
        /* twist passes over blocks of at most B lanes, each block in
           whole-vector segments of one realization (jobs come in
           realization order) */
        for (int64_t j0 = 0; j0 < nj;) {
            int64_t ns = 0, k = 0, j1 = j0;
            for (; j1 < nj; ++j1) {
                const int64_t fresh = ns == 0 || tsr[ns - 1] != jobr[j1];
                const int64_t at = fresh ? vec_up(k) : k;
                if (at + 1 > B && j1 > j0)
                    break;
                if (fresh) {
                    for (; k < at; ++k)
                        tx[k] = tx[k - 1];
                    if (ns > 0)
                        ts2[ns - 1] = at;
                    tsr[ns] = jobr[j1];
                    ts0[ns++] = at;
                }
                tx[k++] = w.lo[jobs[j1]] + (w.hi[jobs[j1]] - w.lo[jobs[j1]]) * 0.5;
            }
            for (const int64_t k2 = vec_up(k); k < k2; ++k)
                tx[k] = tx[k - 1];
            ts2[ns - 1] = k;
            twist_pass(L, R, v, tsq, pivmin, ns, tsr, ts0, ts2, B, tx, A, P, td, tdd, tcnt, ttw,
                       tg, tgp);
            for (int64_t s = 0, jj = j0; s < ns; ++s)
                for (int64_t u = ts0[s]; u < ts2[s] && jj < j1 && jobr[jj] == tsr[s]; ++u) {
                    const int64_t c = jobs[jj++];
                    w.work[c] += 2;
                    w.twists[c] -= 1;
                    w.rejected[c] = 0;
                    w.step[c] = w.hi[c] - w.lo[c];
                    narrow(&w, c, tx[u], tcnt[u]);
                    w.x[c] = tx[u];
                    w.tw[c] = ttw[u];
                    w.g[c] = tg[u];
                    w.gp[c] = tgp[u];
                    propose(&w, c);
                }
            j0 = j1;
        }
    }
    for (int64_t c = 0; c < C; ++c)
        sweeps[c0 + c] = (int64_t)(w.work[c] + 0.5);
    scratch_close(&sc);
    return 0;
}

/* Eigenvectors of one operator (v (L), hoppings t (L-1), t[n] coupling
   sites n and n+1) at its eigenvalues lam (K), by twisted factorization
   (Fernando 1997; Dhillon and Parlett 2004; LAPACK dlar1v), for columns
   c0 .. c1 - 1.  Column k runs the LDL^T recursion of H - lam[k] forward
   (pivots d+) and backward (pivots d-), picks the twist index
   r = argmin_r |gamma_r| (the largest r on ties, as twist_pass) and solves
   N_r D_r N_r^T z = gamma_r e_r with z_r = 1:
   z_n = (t[n] / d+_n) z_{n+1} for n < r and z_n = (t[n-1] / d-_n) z_{n-1}
   for n > r.  The Rayleigh quotient x + gamma_r / |z|^2 of z then replaces
   x = lam[k] for a second such pass (one step of Rayleigh quotient
   iteration: a bracket midpoint can sit 1e-13 off, and z's error is that
   over the gap).  Z (L, K), row-major, gets the second pass's z / |z| in
   column k, whose entry at r is positive, and rq[k] its Rayleigh quotient.
   Pivots are clamped as in sturm_counts, so no division is by zero.  The
   columns run in blocks of B, in lockstep with sites outermost, over about
   1 MB of inverse pivots.  Returns -1 if the scratch cannot be allocated,
   else 0. */
int twisted_vectors(int64_t L, int64_t K, int64_t c0, int64_t c1, const double *restrict v,
                    const double *restrict t, double pivmin, const double *restrict lam,
                    double *restrict Z, double *restrict rq)
{
    if (c1 <= c0)
        return 0;
    const int64_t want = L < 65536 / VEC ? 65536 / L / VEC * VEC : VEC;
    const int64_t B = want < c1 - c0 ? want : c1 - c0;
    const size_t d8 = sizeof(double);
    struct scratch sc;
    if (scratch_open(&sc, 64 * 8 + 2 * B * L * d8 + B * (5 * d8 + sizeof(int64_t))))
        return -1;
    /* ip, im (L, B): inverse forward and backward pivots */
    double *ip = carve(&sc, B * L * d8), *im = carve(&sc, B * L * d8);
    double *x = carve(&sc, B * d8), *g = carve(&sc, B * d8), *zl = carve(&sc, B * d8);
    double *zr = carve(&sc, B * d8), *nrm = carve(&sc, B * d8);
    int64_t *tw = carve(&sc, B * sizeof(int64_t));
    for (int64_t k0 = c0; k0 < c1; k0 += B) {
        const int64_t nb = c1 - k0 < B ? c1 - k0 : B;
        double *zk = Z + k0;
        for (int64_t b = 0; b < nb; ++b)
            x[b] = lam[k0 + b];
        for (int pass = 0; pass < 2; ++pass) {
            for (int64_t b = 0; b < nb; ++b)
                ip[b] = 1.0 / pivot(v[0] - x[b], pivmin);
            for (int64_t n = 1; n < L; ++n) {
                const double vn = v[n], tq = t[n - 1] * t[n - 1];
                const double *pp = ip + (n - 1) * B;
                double *pn = ip + n * B;
                for (int64_t b = 0; b < nb; ++b)
                    pn[b] = 1.0 / pivot((vn - x[b]) - tq * pp[b], pivmin);
            }
            /* backward, with gamma_n = (v_n - x) - t[n-1]^2 / d+_{n-1} - t[n]^2 / d-_{n+1} */
            {
                const double vl = v[L - 1], tq = L > 1 ? t[L - 2] * t[L - 2] : 0.0;
                const double *pp = ip + (L > 1 ? L - 2 : 0) * B;
                for (int64_t b = 0; b < nb; ++b) {
                    tw[b] = L - 1;
                    g[b] = (vl - x[b]) - tq * pp[b];
                    im[(L - 1) * B + b] = 1.0 / pivot(vl - x[b], pivmin);
                }
            }
            for (int64_t n = L - 2; n >= 0; --n) {
                const double vn = v[n], tq = t[n] * t[n], tl = n > 0 ? t[n - 1] * t[n - 1] : 0.0;
                const double *pp = ip + (n > 0 ? n - 1 : 0) * B, *mn = im + (n + 1) * B;
                double *mc = im + n * B;
                for (int64_t b = 0; b < nb; ++b) {
                    const double q = tq * mn[b], y = ((vn - x[b]) - tl * pp[b]) - q;
                    const int better = fabs(y) < fabs(g[b]);
                    tw[b] = better ? n : tw[b];
                    g[b] = better ? y : g[b];
                    mc[b] = 1.0 / pivot((vn - x[b]) - q, pivmin);
                }
            }
            int64_t rmin = L - 1, rmax = 0;
            for (int64_t b = 0; b < nb; ++b) {
                rmin = tw[b] < rmin ? tw[b] : rmin;
                rmax = tw[b] > rmax ? tw[b] : rmax;
                zl[b] = 0.0;
                zr[b] = 0.0;
                nrm[b] = 0.0;
            }
            /* leftward from the largest twist index: sites n <= r of each column */
            for (int64_t n = rmax; n >= 0; --n) {
                const double tn = n < L - 1 ? t[n] : 0.0, *pn = ip + n * B;
                double *zn = zk + n * K;
                for (int64_t b = 0; b < nb; ++b) {
                    const double z = n == tw[b] ? 1.0 : n < tw[b] ? (tn * pn[b]) * zl[b] : 0.0;
                    zl[b] = z;
                    nrm[b] += z * z;
                    zn[b] = z;
                }
            }
            /* rightward from the smallest: sites n > r */
            for (int64_t n = rmin; n < L; ++n) {
                const double tn = n > 0 ? t[n - 1] : 0.0, *mn = im + n * B;
                double *zn = zk + n * K;
                for (int64_t b = 0; b < nb; ++b) {
                    const int right = n > tw[b];
                    const double z = n == tw[b] ? 1.0 : right ? (tn * mn[b]) * zr[b] : 0.0;
                    zr[b] = z;
                    nrm[b] += right ? z * z : 0.0;
                    zn[b] = right ? z : zn[b];
                }
            }
            for (int64_t b = 0; b < nb; ++b)
                x[b] += g[b] / nrm[b];  /* the Rayleigh quotient of z */
        }
        for (int64_t b = 0; b < nb; ++b) {
            rq[k0 + b] = x[b];
            zl[b] = 1.0 / sqrt(nrm[b]);
        }
        for (int64_t n = 0; n < L; ++n) {
            double *zn = zk + n * K;
            for (int64_t b = 0; b < nb; ++b)
                zn[b] *= zl[b];
        }
    }
    scratch_close(&sc);
    return 0;
}

/* Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it: x gets
   the block with counter (c, 0, 0, 0) under key k. */
static void philox_block(uint64_t c, const uint64_t *k, uint64_t *x)
{
    uint64_t c0 = c, c1 = 0, c2 = 0, c3 = 0, k0 = k[0], k1 = k[1];
    for (int i = 0; i < 10; ++i) {
        const __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93u * c0;
        const __uint128_t p1 = (__uint128_t)0xCA5A826395121157u * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c1 = (uint64_t)p1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
    x[0] = c0; x[1] = c1; x[2] = c2; x[3] = c3;
}

static uint32_t hashmix(uint32_t x, uint32_t *h)
{
    x ^= *h;
    *h *= 0x931e8875u;
    x *= *h;
    return x ^ (x >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t m = 0xca01f9ddu * x - 0x4973f715u * y;
    return m ^ (m >> 16);
}

/* keys (R, 2): the Philox key of numpy's SeedSequence(entropy=seed,
   spawn_key=(idx[r],)).generate_state(2, np.uint64).  The entropy words are
   the seed's two 32-bit halves padded to the pool size 4, then the spawn
   index's one word, or two from 2^32 on. */
void stream_keys(int64_t R, uint64_t seed, const uint64_t *idx, uint64_t *keys)
{
    for (int64_t r = 0; r < R; ++r) {
        const uint32_t words[6] = {(uint32_t)seed, (uint32_t)(seed >> 32), 0, 0,
                                   (uint32_t)idx[r], (uint32_t)(idx[r] >> 32)};
        const int n = idx[r] >> 32 ? 6 : 5;
        uint32_t pool[4], h = 0x43b0d7e5u, g = 0x8b51f9ddu, out[4];
        for (int i = 0; i < 4; ++i)
            pool[i] = hashmix(words[i], &h);
        for (int i = 0; i < 4; ++i)
            for (int m = 0; m < 4; ++m)
                if (m != i)
                    pool[m] = mix(pool[m], hashmix(pool[i], &h));
        for (int i = 4; i < n; ++i)
            for (int m = 0; m < 4; ++m)
                pool[m] = mix(pool[m], hashmix(words[i], &h));
        for (int i = 0; i < 4; ++i) {
            uint32_t x = pool[i] ^ g;
            g *= 0x58f38dedu;
            x *= g;
            out[i] = x ^ (x >> 16);
        }
        keys[2 * r] = out[0] | (uint64_t)out[1] << 32;
        keys[2 * r + 1] = out[2] | (uint64_t)out[3] << 32;
    }
}

/* GROUP streams, or GROUP products, advance in lockstep, so that their
   independent Philox rounds and matrix products overlap in the CPU */
enum { GROUP = 8, CHUNK = 256 };

/* below (R, n): whether draws j0 .. j0 + n - 1 of each stream (keys (R, 2))
   are below p, as numpy's Generator(Philox(key=k)).random(j0 + n)[j0:] < p:
   draw j is lane j % 4 of the block with counter j / 4 + 1, and its uniform
   is (x >> 11) 2^-53. */
void stream_below(int64_t R, const uint64_t *keys, uint64_t j0, uint64_t n, double p,
                  uint8_t *below)
{
    for (int64_t r0 = 0; r0 < R; r0 += GROUP) {
        /* a short last group repeats its last stream and stores only its own */
        const int64_t m = R - r0 < GROUP ? R - r0 : GROUP;
        uint64_t key[GROUP][2];
        for (int g = 0; g < GROUP; ++g) {
            const int64_t r = g < m ? r0 + g : R - 1;
            key[g][0] = keys[2 * r];
            key[g][1] = keys[2 * r + 1];
        }
        for (uint64_t c = j0 / 4; 4 * c < j0 + n; ++c) {
            const uint64_t lo = 4 * c < j0 ? j0 : 4 * c;
            const uint64_t hi = 4 * c + 4 < j0 + n ? 4 * c + 4 : j0 + n;
            uint64_t x[GROUP][4];
            for (int g = 0; g < GROUP; ++g)
                philox_block(c + 1, key[g], x[g]);
            for (int64_t g = 0; g < m; ++g) {
                uint8_t *out = below + (r0 + g) * n + (lo - j0);
                if (hi - lo == 4)  /* a whole block: a fixed trip count */
                    for (int q = 0; q < 4; ++q)
                        out[q] = (double)(x[g][q] >> 11) * 0x1p-53 < p;
                else
                    for (uint64_t j = lo; j < hi; ++j)
                        out[j - lo] = (double)(x[g][j % 4] >> 11) * 0x1p-53 < p;
            }
        }
    }
}

/* R boxes of L sites, one per stream: v (L, R) and tsq (L-1, R) get the
   potentials and squared hoppings of sites 0 .. L-1 and 1 .. L-1.  Each box
   lays polymer blocks from site 0, block b the plus polymer where draw b of
   its stream is below p; the last block is cut at site L-1.  pv and ptsq
   hold the plus polymer's lp sites, then the minus polymer's lm.  Returns -1
   if the scratch cannot be allocated, else 0. */
int fill_boxes(int64_t L, int64_t R, const uint64_t *keys, double p, int64_t lp,
               int64_t lm, const double *pv, const double *ptsq, double *v, double *tsq)
{
    const int64_t nb = (L - 1) / (lp < lm ? lp : lm) + 1;  /* blocks a box can need */
    /* one spare entry each: a zero-size request may return NULL */
    struct box { int64_t at, end, block; } *boxes = calloc(R + 1, sizeof *boxes);
    uint8_t *plus = malloc(R * nb + 1);
    if (boxes == NULL || plus == NULL) {
        free(boxes);
        free(plus);
        return -1;
    }
    stream_below(R, keys, 0, nb, p, plus);
    /* sites outermost: each site's row of v and tsq is written once, in order */
    for (int64_t n = 0; n < L; ++n) {
        for (int64_t r = 0; r < R; ++r) {
            struct box *b = boxes + r;
            if (b->at == b->end) {
                /* arithmetic, not a branch: the signs are coin flips */
                const int64_t minus = !plus[r * nb + b->block++];
                b->at = minus * lp;
                b->end = lp + minus * lm;
            }
            v[n * R + r] = pv[b->at];
            if (n > 0)
                tsq[(n - 1) * R + r] = ptsq[b->at];
            ++b->at;
        }
    }
    free(boxes);
    free(plus);
    return 0;
}

/* Advance R running 2x2 products P <- T P by steps j0 .. j0 + k - 1, step j
   taking T = tp where draw j of the realization's stream (keys (R, 2)) is
   below p and tm elsewhere.  P (R, 2, 2) and expo (R) are C-contiguous; tp
   and tm are row-major 2x2.  The true product is 2^expo P: when an entry of
   P exceeds 2^256, P is scaled by exactly 2^-256, so the only rounding is in
   the products.  A short last group repeats its last realization and stores
   only its own. */
void lyapunov_steps(int64_t R, const uint64_t *keys, uint64_t j0, uint64_t k, double p,
                    const double *tp, const double *tm, double *P, int64_t *expo)
{
    for (int64_t r0 = 0; r0 < R; r0 += GROUP) {
        uint64_t key[2 * GROUP];
        double a[GROUP], b[GROUP], c[GROUP], d[GROUP];
        int64_t e[GROUP];
        for (int g = 0; g < GROUP; ++g) {
            const int64_t r = r0 + g < R ? r0 + g : R - 1;
            key[2 * g] = keys[2 * r];
            key[2 * g + 1] = keys[2 * r + 1];
            a[g] = P[4 * r]; b[g] = P[4 * r + 1]; c[g] = P[4 * r + 2]; d[g] = P[4 * r + 3];
            e[g] = expo[r];
        }
        for (uint64_t j = j0; j < j0 + k; j += CHUNK) {
            const uint64_t n = j0 + k - j < CHUNK ? j0 + k - j : CHUNK;
            uint8_t plus[GROUP * CHUNK];
            stream_below(GROUP, key, j, n, p, plus);
            for (uint64_t i = 0; i < n; ++i)
                for (int g = 0; g < GROUP; ++g) {
                    const double *t = plus[g * n + i] ? tp : tm;
                    const double na = t[0] * a[g] + t[1] * c[g], nb = t[0] * b[g] + t[1] * d[g];
                    const double nc = t[2] * a[g] + t[3] * c[g], nd = t[2] * b[g] + t[3] * d[g];
                    a[g] = na; b[g] = nb; c[g] = nc; d[g] = nd;
                    if (fabs(na) > 0x1p256 || fabs(nb) > 0x1p256 || fabs(nc) > 0x1p256
                        || fabs(nd) > 0x1p256) {
                        a[g] *= 0x1p-256; b[g] *= 0x1p-256; c[g] *= 0x1p-256; d[g] *= 0x1p-256;
                        e[g] += 256;
                    }
                }
        }
        for (int g = 0; g < GROUP && r0 + g < R; ++g) {
            const int64_t r = r0 + g;
            P[4 * r] = a[g]; P[4 * r + 1] = b[g]; P[4 * r + 2] = c[g]; P[4 * r + 3] = d[g];
            expo[r] = e[g];
        }
    }
}
