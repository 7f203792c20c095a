/* Search kernel: the WCNF parser, the start state and the flip, pick and
 * weighting steps of search.solve in C.
 *
 * A straight port of decimation_init and random_init, SearchState's build,
 * state.flip (with refresh_candidacy and the IndexSet add/discard; each
 * clause keeps the XOR of its satisfying variables, sat_xor, so a flip
 * that leaves one true literal reads its variable without a scan),
 * search._best, pick_from_falsified, and weighting.spb_weighting and
 * decay_weights; and of bms_pick, which scores each distinct sample once
 * and stops sampling a small candidate set once it has drawn all of it
 * (see bms_pick). The clause literals, offsets and soft weights are the
 * formula's own arrays, read in place; every other array is carved by
 * kn_setup from one zeroed buffer that kernel.py allocates and keeps alive.
 *
 * A run is flip for flip the Python one:
 *  - the same order: touched variables, set members and score sums follow
 *    the Python loops exactly, so floating-point sums round the same way
 *    (build with -ffp-contract=off: a fused multiply-add rounds once);
 *  - the same random numbers: CPython's MT19937, random() and
 *    randrange(), seeded as random.Random(seed) seeds it (kn_seed, which
 *    kernel.py calls once per seed); the words of BMS samples that cannot
 *    change a pick are skipped, not left undrawn. The twist computes four
 *    words at a time, and a pick from more than 64 candidates tempers and
 *    converts four samples at a time, in 16-byte vectors of GCC's vector
 *    extension, which clang shares (SSE2 on x86-64): the words and doubles
 *    are those of one at a time;
 *  - the same types: hard weights, hscore and the SPB weight are doubles,
 *    soft weights, softdelta and the objective are int64.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* The layout shared with Python is declared here only: kernel.py builds its
 * ctypes classes from the PART_ enum and each typedef struct, comments
 * stripped. It reads int64_t and double fields, any pointer (const and comma
 * lists too), earlier typedefs by name and [PARTS] arrays, and raises on any
 * other form. EPS, DECAY_FACTOR and MAX_VARS are -D options in its FLAGS. */

/* The parts of solve's loop body that a profiled kn_advance times. */
enum { PART_BMS_PICK, PART_PICK_FROM_FALSIFIED, PART_FLIP, PART_SPB_WEIGHTING, PARTS };

/* One clause kind. Literals are stored per clause (CSR: lits[off[c]] up to
 * lits[off[c + 1]]); occ lists the clause ids of each literal in clause
 * order, slot 2 * v + 1 for v and 2 * v for -v. sat_count counts each
 * clause's true literals and sat_xor XORs their variables (a clause holds
 * each variable once), so where the count is 1 sat_xor is the one
 * satisfying variable. */
typedef struct {
    int64_t num_clauses;
    const int32_t *lits, *off;
    int32_t *occ_off, *occ;
    int32_t *sat_count, *sat_xor;
    int32_t *falsified, *falsified_pos; /* IndexSet: members, then positions */
    int64_t num_falsified;
} kind;

typedef struct {
    int64_t num_vars, k, decimation; /* decimation: the init mode, else random */
    double h_inc, hard_delta, spb_delta, decay_threshold;
    kind hard, soft;
    const int64_t *soft_weight;
    double *hard_weight;
    int32_t *values;
    int64_t *flip_stamp;
    double *hscore;
    int64_t *softdelta;
    int32_t *goodvars, *goodvars_pos;
    int64_t num_goodvars;
    int32_t *touched; /* scratch: total literals + num_vars + 1 entries */
    uint32_t *mt;     /* 624 state words, then the index */
    const uint32_t *seeded;  /* the 625 words that kn_seed gives the seed */
    int64_t step, current_obj;
    int64_t has_bound, bound; /* the SPB bound: the best cost so far */
    double max_hard_weight, spb_weight;
    int64_t optimum; /* set by kn_advance when nothing is falsified */
    int64_t profile; /* nonzero: count and time the parts of kn_advance */
    int64_t part_calls[PARTS], part_ns[PARTS];
} kstate;

/* CPython's genrand_uint32 and random_random (Modules/_randommodule.c). */
#define MT_N 624
#define MT_M 397

/* Four 32-bit words in one SSE2 register (GCC's and clang's portable
 * vector extension), loaded and stored unaligned. */
typedef uint32_t u32x4 __attribute__((vector_size(16)));

static inline u32x4 load4(const uint32_t *p)
{
    u32x4 v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store4(uint32_t *p, u32x4 v)
{
    memcpy(p, &v, sizeof v);
}

/* The twist of one word, from it, the next word and the word MT_M ahead
 * (mod MT_N); -(y & 1) selects the matrix word without a branch or table. */
static inline uint32_t twist1(uint32_t cur, uint32_t next, uint32_t far)
{
    uint32_t y = (cur & 0x80000000U) | (next & 0x7fffffffU);
    return far ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
}

/* twist1 of the four words at p, with the four at far. */
static inline u32x4 twist4(const uint32_t *p, const uint32_t *far)
{
    u32x4 y = (load4(p) & 0x80000000U) | (load4(p + 1) & 0x7fffffffU);
    return load4(far) ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
}

/* The next 624 words, computed in place, four at a time; the index goes
 * back to 0. Word kk reads the old words kk and kk + 1 and the word MT_M
 * ahead mod MT_N, which is old below MT_N - MT_M and already new from there
 * on. A step's four far words must be contiguous, so the steps stop short
 * of MT_N - MT_M, where the far word wraps to the start, and of the last
 * word, whose next word is the new mt[0]. */
static void mt_twist(uint32_t *mt)
{
    int kk = 0;
    for (; kk + 4 <= MT_N - MT_M; kk += 4)
        store4(mt + kk, twist4(mt + kk, mt + kk + MT_M));
    for (; kk < MT_N - MT_M; kk++)
        mt[kk] = twist1(mt[kk], mt[kk + 1], mt[kk + MT_M]);
    for (; kk + 4 <= MT_N - 1; kk += 4)
        store4(mt + kk, twist4(mt + kk, mt + kk + (MT_M - MT_N)));
    mt[MT_N - 1] = twist1(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
    mt[MT_N] = 0;
}

/* CPython's random_seed for an int seed (init_genrand and init_by_array),
 * into the 625 words at mt: the key is the 32-bit words of abs(seed), least
 * significant first, read from its little-endian bytes. The index is left
 * at MT_N, so the first draw twists. kernel.py calls it once per seed and
 * hands kn_setup the words. */
void kn_seed(uint32_t *mt, const uint8_t *key, int64_t words)
{
    mt[0] = 19650218U;
    for (uint32_t n = 1; n < MT_N; n++)
        mt[n] = 1812433253U * (mt[n - 1] ^ (mt[n - 1] >> 30)) + n;
    int64_t i = 1, j = 0;
    for (int64_t k = MT_N > words ? MT_N : words; k; k--) {
        const uint8_t *b = key + 4 * j;
        uint32_t word = b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16 | (uint32_t)b[3] << 24;
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + word + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= words)
            j = 0;
    }
    for (int64_t k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U; /* MSB is 1, so the state is not all zero */
    mt[MT_N] = MT_N;
}

static inline uint32_t temper(uint32_t y)
{
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* temper of four words */
static inline u32x4 temper4(u32x4 y)
{
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static uint32_t genrand_uint32(uint32_t *mt)
{
    if (mt[MT_N] >= MT_N)
        mt_twist(mt);
    return temper(mt[mt[MT_N]++]);
}

/* random_random from two words */
static inline double to_double(uint32_t a, uint32_t b)
{
    return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0);
}

static double random01(uint32_t *mt)
{
    uint32_t a = genrand_uint32(mt);
    return to_double(a, genrand_uint32(mt));
}

/* The state after n more genrand_uint32 calls, without tempering their words:
 * a block is twisted when the index has run past it, as genrand_uint32 does
 * at its next call. */
static void mt_skip(uint32_t *mt, int64_t n)
{
    while (n > 0) {
        if (mt[MT_N] >= MT_N)
            mt_twist(mt);
        int64_t step = MT_N - (int64_t)mt[MT_N];
        if (step > n)
            step = n;
        mt[MT_N] += (uint32_t)step;
        n -= step;
    }
}

/* IndexSet.add / IndexSet.discard */
static inline void set_add(int32_t *members, int32_t *pos, int64_t *size, int32_t x)
{
    if (pos[x] < 0) {
        pos[x] = (int32_t)*size;
        members[(*size)++] = x;
    }
}

static inline void set_discard(int32_t *members, int32_t *pos, int64_t *size, int32_t x)
{
    int32_t i = pos[x];
    if (i >= 0) {
        int32_t last = members[*size - 1];
        members[i] = last;
        pos[last] = i;
        (*size)--;
        pos[x] = -1;
    }
}

/* Whether lit is true under the 0/1 values, without a branch on its sign. */
static inline int lit_true(const int32_t *values, int32_t lit)
{
    return values[abs(lit)] == (lit > 0);
}

static inline double score(const kstate *s, int32_t v)
{
    return s->hscore[v] + s->spb_weight * (double)s->softdelta[v];
}

/* refresh_candidacy for one variable */
static inline void refresh_var(kstate *s, int32_t u)
{
    if (score(s, u) > EPS)
        set_add(s->goodvars, s->goodvars_pos, &s->num_goodvars, u);
    else
        set_discard(s->goodvars, s->goodvars_pos, &s->num_goodvars, u);
}

static void refresh_candidacy(kstate *s, const int32_t *vars, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        refresh_var(s, vars[i]);
}

/* refresh_candidacy over range(1, num_vars + 1) */
static void refresh_all(kstate *s)
{
    for (int64_t v = 1; v <= s->num_vars; v++)
        refresh_var(s, (int32_t)v);
}

/* The per-kind loop of state.flip, for a kind whose weights have type W and
 * whose scores are kept in an array of the same type. v has just been set
 * to 1 - old; the variables whose score changed are appended to
 * s->touched from position nt, and the new end is returned. v's literal
 * turns true or false in each clause visited, so v is XORed into its
 * sat_xor: where one true literal is left, sat_xor is its variable, and no
 * clause is scanned. */
#define DEFINE_FLIP_KIND(NAME, W)                                                  \
    static int64_t NAME(kstate *s, kind *c, const W *weight, W *scores, int32_t v, \
                        int old, int64_t nt)                                       \
    {                                                                              \
        const int32_t *lits = c->lits, *off = c->off;                              \
        int32_t *count = c->sat_count, *sat_xor = c->sat_xor, *t = s->touched;     \
        int64_t made = 2 * (int64_t)v + !old, broken = 2 * (int64_t)v + old;       \
        for (int32_t j = c->occ_off[made]; j < c->occ_off[made + 1]; j++) {        \
            int32_t cid = c->occ[j], n = count[cid], x = sat_xor[cid];             \
            sat_xor[cid] = x ^ v;                                                  \
            count[cid] = n + 1;                                                    \
            if (n == 0) {                                                          \
                W w = weight[cid];                                                 \
                set_discard(c->falsified, c->falsified_pos, &c->num_falsified, cid); \
                for (int32_t l = off[cid]; l < off[cid + 1]; l++) {                \
                    int32_t u = abs(lits[l]);                                      \
                    scores[u] -= w;                                                \
                    t[nt++] = u;                                                   \
                }                                                                  \
                scores[v] -= w;                                                    \
            } else if (n == 1) {                                                   \
                scores[x] += weight[cid];                                          \
                t[nt++] = x;                                                       \
            }                                                                      \
        }                                                                          \
        for (int32_t j = c->occ_off[broken]; j < c->occ_off[broken + 1]; j++) {    \
            int32_t cid = c->occ[j], n = count[cid], x = sat_xor[cid] ^ v;         \
            sat_xor[cid] = x;                                                      \
            count[cid] = n - 1;                                                    \
            if (n == 1) {                                                          \
                W w = weight[cid];                                                 \
                set_add(c->falsified, c->falsified_pos, &c->num_falsified, cid);   \
                scores[v] += w;                                                    \
                for (int32_t l = off[cid]; l < off[cid + 1]; l++) {                \
                    int32_t u = abs(lits[l]);                                      \
                    scores[u] += w;                                                \
                    t[nt++] = u;                                                   \
                }                                                                  \
            } else if (n == 2) {                                                   \
                scores[x] -= weight[cid];                                          \
                t[nt++] = x;                                                       \
            }                                                                      \
        }                                                                          \
        return nt;                                                                 \
    }

DEFINE_FLIP_KIND(flip_hard, double)
DEFINE_FLIP_KIND(flip_soft, int64_t)

static void flip(kstate *s, int32_t v)
{
    int old = s->values[v];
    s->values[v] = 1 - old;
    s->flip_stamp[v] = s->step++;
    s->current_obj -= s->softdelta[v];
    int64_t nt = flip_hard(s, &s->hard, s->hard_weight, s->hscore, v, old, 0);
    nt = flip_soft(s, &s->soft, s->soft_weight, s->softdelta, v, old, nt);
    refresh_candidacy(s, s->touched, nt);
}

/* search._best's order: higher score, then the older flip stamp, then the
 * lower id. */
static inline int better(const kstate *s, int32_t u, double su, int32_t b, double sb)
{
    return su > sb || (su == sb && (s->flip_stamp[u] < s->flip_stamp[b]
                                    || (s->flip_stamp[u] == s->flip_stamp[b] && u < b)));
}

/* search._best's step: take u as the best so far (best < 0: none yet) if it
 * is better; a candidate equal to the best is skipped. */
static inline void consider(const kstate *s, int32_t u, int32_t *best, double *best_s)
{
    if (u == *best)
        return;
    double su = score(s, u);
    if (*best < 0 || better(s, u, su, *best, *best_s)) {
        *best = u;
        *best_s = su;
    }
}

/* random01 with the MT index kept in *idx; mt[MT_N] is brought up to date
 * only around a twist, and the caller stores *idx back when done. */
static inline double random01_at(uint32_t *mt, uint32_t *idx)
{
    if (*idx < MT_N - 1) {
        uint32_t a = mt[*idx], b = mt[*idx + 1];
        *idx += 2;
        return to_double(temper(a), temper(b));
    }
    mt[MT_N] = *idx;
    double r = random01(mt);
    *idx = mt[MT_N];
    return r;
}

/* members[floor(x)] for x = random() * n, a sample as random.choices takes
 * it, with its scores prefetched. */
static inline int32_t take(const kstate *s, double x)
{
    int32_t u = s->goodvars[(int64_t)x];
    __builtin_prefetch(&s->hscore[u]);
    __builtin_prefetch(&s->softdelta[u]);
    return u;
}

typedef uint64_t u64x2 __attribute__((vector_size(16)));
typedef double f64x2 __attribute__((vector_size(16)));
_Static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__, "draws2 reads word pairs as 64-bit lanes");

/* to_double(a, b) * dn for the two word pairs (a, b) of w, tempered, in one
 * vector: a 64-bit lane holds a | b << 32, and a 52-bit integer x in the
 * mantissa of 2^52 is the double 2^52 + x, so both parts convert exactly. */
static inline f64x2 draws2(u32x4 w, double dn)
{
    u64x2 lanes = (u64x2)temper4(w), exp52 = (u64x2){0x4330000000000000U, 0x4330000000000000U};
    f64x2 a = (f64x2)(((lanes & 0xffffffffU) >> 5) | exp52) - 0x1p52;
    f64x2 b = (f64x2)((lanes >> 38) | exp52) - 0x1p52;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0) * dn;
}

#define BMS_BATCH 128 /* samples drawn and prefetched before they are scored */

/* search.bms_pick: the best of k members sampled with replacement, each as
 * random.choices takes it, members[floor(random() * n)] (two MT words).
 *
 * better() is a strict total order on distinct variables (score, then the
 * older flip stamp, then the lower id) because scores are finite: they are
 * sums of finite clause weights (a NaN would need a weight to overflow). So
 * the pick is the largest of the distinct members sampled, whatever their
 * order and repeats, and two shortcuts return the variable and leave the MT
 * state that k draws compared one by one would:
 *  - n <= 64, the width of the mask: a bit per position records the set
 *    sampled so far. Once it holds all n, later samples cannot change it, so
 *    the words of the rest are skipped untempered (mt_skip), and each
 *    member is scored once.
 *  - n > 64: the samples are drawn a batch at a time with the MT index in a
 *    local and their hscore and softdelta prefetched, then compared. Four
 *    samples at a time temper and convert their eight words in vectors
 *    while those lie before the next twist; next to the twist, and for the
 *    last one to three samples of a batch, they draw one at a time
 *    (random01_at, which twists). */
static int32_t bms_pick(kstate *s)
{
    const int32_t *members = s->goodvars;
    uint32_t *mt = s->mt, idx = mt[MT_N];
    int64_t n = s->num_goodvars, k = s->k, i = 0;
    if (n == 1)
        return members[0];
    double dn = (double)n;
    int32_t best = -1;
    double best_s = 0.0;
    if (n <= 64) {
        uint64_t all = n == 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1, seen = 0;
        for (; i < k && seen != all; i++)
            seen |= (uint64_t)1 << (int64_t)(random01_at(mt, &idx) * dn);
        mt[MT_N] = idx;
        mt_skip(mt, 2 * (k - i));
        for (; seen; seen &= seen - 1)
            consider(s, members[__builtin_ctzll(seen)], &best, &best_s);
        return best;
    }
    int32_t batch[BMS_BATCH];
    while (i < k) {
        int64_t m = k - i < BMS_BATCH ? k - i : BMS_BATCH, j = 0;
        while (j < m) {
            if (m - j >= 4 && idx <= MT_N - 8) {
                f64x2 a = draws2(load4(mt + idx), dn), b = draws2(load4(mt + idx + 4), dn);
                idx += 8;
                batch[j++] = take(s, a[0]);
                batch[j++] = take(s, a[1]);
                batch[j++] = take(s, b[0]);
                batch[j++] = take(s, b[1]);
            } else {
                batch[j++] = take(s, random01_at(mt, &idx) * dn);
            }
        }
        for (j = 0; j < m; j++)
            consider(s, batch[j], &best, &best_s);
        i += m;
    }
    mt[MT_N] = idx;
    return best;
}

/* Best variable of a random falsified clause, hard first; -1 when nothing
 * is falsified. */
static int32_t pick_from_falsified(kstate *s)
{
    kind *c = s->hard.num_falsified ? &s->hard : &s->soft;
    if (!c->num_falsified)
        return -1;
    int32_t cid = c->falsified[(int64_t)(random01(s->mt) * (double)c->num_falsified)];
    int32_t best = -1;
    double best_s = 0.0;
    for (int32_t l = c->off[cid]; l < c->off[cid + 1]; l++)
        consider(s, abs(c->lits[l]), &best, &best_s);
    return best;
}

static void decay_weights(kstate *s)
{
    if (s->spb_weight <= s->decay_threshold && s->max_hard_weight <= s->decay_threshold)
        return;
    kind *h = &s->hard;
    double *hw = s->hard_weight, w;
    for (int64_t cid = 0; cid < h->num_clauses; cid++) {
        w = hw[cid] * DECAY_FACTOR;
        hw[cid] = w > 1.0 ? w : 1.0;
    }
    w = s->spb_weight * DECAY_FACTOR;
    s->spb_weight = w > 1.0 ? w : 1.0;
    s->max_hard_weight = h->num_clauses ? hw[0] : 1.0; /* max(hw, default=1.0) */
    for (int64_t cid = 1; cid < h->num_clauses; cid++) {
        if (hw[cid] > s->max_hard_weight)
            s->max_hard_weight = hw[cid];
    }
    /* state._add_scores over the hard clauses, from zero */
    for (int64_t v = 0; v <= s->num_vars; v++)
        s->hscore[v] = 0.0;
    for (int64_t cid = 0; cid < h->num_clauses; cid++) {
        if (h->sat_count[cid] == 0) {
            for (int32_t l = h->off[cid]; l < h->off[cid + 1]; l++)
                s->hscore[abs(h->lits[l])] += hw[cid];
        } else if (h->sat_count[cid] == 1) {
            s->hscore[h->sat_xor[cid]] -= hw[cid];
        }
    }
    refresh_all(s);
}

static void spb_weighting(kstate *s)
{
    kind *h = &s->hard, *sf = &s->soft;
    int32_t *t = s->touched;
    int64_t nt = 0;
    for (int64_t i = 0; i < h->num_falsified; i++) {
        int32_t cid = h->falsified[i];
        double old = s->hard_weight[cid];
        double w = s->hard_delta * (old + s->h_inc);
        s->hard_weight[cid] = w;
        double dw = w - old;
        for (int32_t l = h->off[cid]; l < h->off[cid + 1]; l++) {
            int32_t u = abs(h->lits[l]);
            s->hscore[u] += dw;
            t[nt++] = u;
        }
        if (w > s->max_hard_weight)
            s->max_hard_weight = w;
    }
    if (s->has_bound && s->current_obj >= s->bound) {
        s->spb_weight = s->spb_delta * (s->spb_weight + 1.0);
        for (int64_t i = 0; i < sf->num_falsified; i++) {
            int32_t cid = sf->falsified[i];
            for (int32_t l = sf->off[cid]; l < sf->off[cid + 1]; l++)
                t[nt++] = abs(sf->lits[l]);
        }
        for (int64_t i = 0; i < s->num_goodvars; i++)
            t[nt++] = s->goodvars[i];
    }
    refresh_candidacy(s, t, nt);
    decay_weights(s);
}

/* The occurrence lists of one kind: occ_off (zeroed) and occ from lits and
 * off. */
static void build_occ(kind *c, int64_t num_vars)
{
    int64_t slots = 2 * (num_vars + 1), total = c->off[c->num_clauses];
    for (int64_t l = 0; l < total; l++)
        c->occ_off[2 * (int64_t)abs(c->lits[l]) + (c->lits[l] > 0) + 1]++;
    for (int64_t i = 0; i < slots; i++)
        c->occ_off[i + 1] += c->occ_off[i];
    /* occ_off[slot] is the next free place of each slot while filling ... */
    for (int32_t cid = 0; cid < c->num_clauses; cid++)
        for (int32_t l = c->off[cid]; l < c->off[cid + 1]; l++)
            c->occ[c->occ_off[2 * (int64_t)abs(c->lits[l]) + (c->lits[l] > 0)]++] = cid;
    /* ... and the start of the next slot after it: shift back by one. */
    for (int64_t i = slots; i > 0; i--)
        c->occ_off[i] = c->occ_off[i - 1];
    c->occ_off[0] = 0;
}

/* CPython's Random._randbelow (getrandbits rejection sampling), 0 < n < 2**32. */
static int64_t randbelow(uint32_t *mt, int64_t n)
{
    int k = 64 - __builtin_clzll((uint64_t)n); /* n.bit_length() */
    uint32_t r;
    do
        r = genrand_uint32(mt) >> (32 - k);
    while (r >= n);
    return r;
}

/* initialization.random_init */
static void random_init(kstate *s)
{
    s->values[0] = 0;
    for (int64_t v = 1; v <= s->num_vars; v++)
        s->values[v] = random01(s->mt) < 0.5;
}

/* decimation_init's assign(): set v, then per kind mark the clauses it
 * satisfies and queue those it leaves with one unassigned literal. Until
 * kn_setup overwrites them, sat_count holds each clause's unassigned
 * literals, sat_xor (as a flag) whether it is satisfied, and falsified the
 * unit queue (at most one entry per clause: a count reaches 1 once). */
static void assign(kstate *s, int32_t v, int value, int64_t *queued)
{
    s->values[v] = value;
    kind *kinds[2] = {&s->hard, &s->soft};
    for (int i = 0; i < 2; i++) {
        kind *c = kinds[i];
        int64_t sat = 2 * (int64_t)v + value, fal = 2 * (int64_t)v + !value;
        for (int32_t j = c->occ_off[sat]; j < c->occ_off[sat + 1]; j++)
            c->sat_xor[c->occ[j]] = 1;
        for (int32_t j = c->occ_off[fal]; j < c->occ_off[fal + 1]; j++) {
            int32_t cid = c->occ[j];
            if (--c->sat_count[cid] == 1 && !c->sat_xor[cid])
                c->falsified[queued[i]++] = cid;
        }
    }
}

/* The unassigned literal of a unit clause. */
static int32_t unit_literal(const kstate *s, const kind *c, int32_t cid)
{
    for (int32_t l = c->off[cid]; l < c->off[cid + 1]; l++)
        if (s->values[abs(c->lits[l])] < 0)
            return c->lits[l];
    return 0;
}

/* initialization.decimation_init, with the same random draws: hard units
 * first in queue order, then a random soft unit, then a random unassigned
 * variable with a random value. The pool of variables lives in goodvars. */
static void decimation_init(kstate *s)
{
    kind *h = &s->hard, *sf = &s->soft;
    int64_t queued[2] = {0, 0}, head = 0, pool = s->num_vars;
    kind *kinds[2] = {h, sf};
    for (int i = 0; i < 2; i++) {
        kind *c = kinds[i];
        for (int32_t cid = 0; cid < c->num_clauses; cid++) {
            c->sat_count[cid] = c->off[cid + 1] - c->off[cid];
            c->sat_xor[cid] = 0;
            if (c->sat_count[cid] == 1)
                c->falsified[queued[i]++] = cid;
        }
    }
    for (int64_t v = 1; v <= s->num_vars; v++) {
        s->values[v] = -1;
        s->goodvars[v - 1] = (int32_t)v;
    }
    for (int64_t remaining = s->num_vars; remaining; remaining--) {
        int32_t lit = 0;
        while (!lit && head < queued[0]) {
            int32_t cid = h->falsified[head++];
            if (!h->sat_xor[cid] && h->sat_count[cid] == 1)
                lit = unit_literal(s, h, cid);
        }
        while (!lit && queued[1]) {
            int64_t i = randbelow(s->mt, queued[1]);
            int32_t cid = sf->falsified[i];
            if (sf->sat_xor[cid] || sf->sat_count[cid] != 1)
                sf->falsified[i] = sf->falsified[--queued[1]];
            else
                lit = unit_literal(s, sf, cid);
        }
        while (!lit) {
            int64_t i = randbelow(s->mt, pool);
            int32_t v = s->goodvars[i];
            s->goodvars[i] = s->goodvars[--pool];
            if (s->values[v] < 0)
                lit = random01(s->mt) < 0.5 ? v : -v;
        }
        assign(s, abs(lit), lit > 0, queued);
    }
    s->values[0] = 0;
}

/* SearchState._build_kind for one kind: satisfied-literal counts, the XOR
 * of each clause's satisfying variables (where the count is 1, the sole
 * one), the falsified set in clause order, and each clause's
 * make/break weight added into scores (state._add_scores). Returns the
 * falsified weight. */
#define DEFINE_BUILD_KIND(NAME, W)                                                 \
    static W NAME(kstate *s, kind *c, const W *weight, W *scores)                  \
    {                                                                              \
        W falsified = 0;                                                           \
        c->num_falsified = 0;                                                      \
        for (int32_t cid = 0; cid < c->num_clauses; cid++) {                       \
            int32_t n = 0, x = 0;                                                  \
            for (int32_t l = c->off[cid]; l < c->off[cid + 1]; l++) {              \
                int t = lit_true(s->values, c->lits[l]);                           \
                n += t;                                                            \
                x ^= abs(c->lits[l]) & -t; /* no branch */                         \
            }                                                                      \
            c->sat_count[cid] = n;                                                 \
            c->sat_xor[cid] = x;                                                   \
            c->falsified_pos[cid] = -1;                                            \
            if (n == 0) {                                                          \
                set_add(c->falsified, c->falsified_pos, &c->num_falsified, cid);   \
                falsified += weight[cid];                                          \
                for (int32_t l = c->off[cid]; l < c->off[cid + 1]; l++)            \
                    scores[abs(c->lits[l])] += weight[cid];                        \
            } else if (n == 1) {                                                   \
                scores[x] -= weight[cid];                                          \
            }                                                                      \
        }                                                                          \
        return falsified;                                                          \
    }

DEFINE_BUILD_KIND(build_hard, double)
DEFINE_BUILD_KIND(build_soft, int64_t)

/* The address p rounded up to a 64-byte boundary. */
static inline uintptr_t align64(uintptr_t p)
{
    return (p + 63) & ~(uintptr_t)63;
}

/* Point field at n items from the next 64-byte boundary at or after at,
 * and move at past them. */
#define CARVE(at, field, n) \
    ((at) = align64(at), (field) = (void *)(at), (at) += (uintptr_t)(n) * sizeof *(field))

/* Carve every array that the kernel owns from the memory at at; returns the
 * end of the last one. This order is the arrays' layout, set nowhere else. */
static uintptr_t carve(kstate *s, uintptr_t at)
{
    int64_t vars = s->num_vars + 1;
    kind *kinds[2] = {&s->hard, &s->soft};
    for (int i = 0; i < 2; i++) {
        kind *c = kinds[i];
        int64_t m = c->num_clauses;
        CARVE(at, c->occ_off, 2 * vars + 1);
        CARVE(at, c->occ, c->off[m]);
        CARVE(at, c->sat_count, m);
        CARVE(at, c->sat_xor, m);
        CARVE(at, c->falsified, m);
        CARVE(at, c->falsified_pos, m);
    }
    CARVE(at, s->values, vars);
    CARVE(at, s->flip_stamp, vars);
    CARVE(at, s->hscore, vars);
    CARVE(at, s->softdelta, vars);
    CARVE(at, s->hard_weight, s->hard.num_clauses);
    CARVE(at, s->goodvars, vars);
    CARVE(at, s->goodvars_pos, vars);
    CARVE(at, s->mt, MT_N + 1);
    int64_t lits = (int64_t)s->hard.off[s->hard.num_clauses] + s->soft.off[s->soft.num_clauses];
    CARVE(at, s->touched, lits + vars);
    return at;
}

/* The start state of solve. With arena NULL, returns the bytes that an
 * arena must have. Otherwise carves every array from arena, which must be
 * that long and zeroed, then builds: the flip stamps (0), the hard weights
 * (1), the Mersenne Twister (a copy of the seeded words), the occurrence
 * lists, the initial assignment (decimation or random, drawing from mt),
 * then what SearchState's build computes from it, in the same order;
 * returns 0.
 * Expects the scalar fields, the seeded words, current_obj (the soft base)
 * and each kind's num_clauses, lits and off set. */
int64_t kn_setup(kstate *s, void *arena)
{
    if (!arena) {
        kstate probe = *s; /* carve from address 0, leaving s as it is */
        return (int64_t)carve(&probe, 0) + 63; /* + room to align the start */
    }
    carve(s, align64((uintptr_t)arena));
    /* The stamps start at 0, as the arena does; writing them here faults
     * their pages in now. An mmap arena gets a page at its first write, and
     * the search writes the stamp of every variable it flips: left to the
     * search, those faults took 3% of the first 10^4 flips on perfbench's
     * set-cover instance. The arrays that the search may never reach (the
     * touched scratch, the falsified sets' tails) stay unwritten. */
    memset(s->flip_stamp, 0, (size_t)(s->num_vars + 1) * sizeof *s->flip_stamp);
    for (int64_t cid = 0; cid < s->hard.num_clauses; cid++)
        s->hard_weight[cid] = 1.0;
    s->step = 1;
    s->max_hard_weight = s->spb_weight = 1.0;
    memcpy(s->mt, s->seeded, (MT_N + 1) * sizeof *s->mt);
    build_occ(&s->hard, s->num_vars);
    build_occ(&s->soft, s->num_vars);
    if (s->decimation)
        decimation_init(s);
    else
        random_init(s);
    build_hard(s, &s->hard, s->hard_weight, s->hscore);
    s->current_obj += build_soft(s, &s->soft, s->soft_weight, s->softdelta);
    s->num_goodvars = 0;
    for (int64_t v = 0; v <= s->num_vars; v++)
        s->goodvars_pos[v] = -1;
    refresh_all(s);
    return 0;
}

static inline int64_t now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

#define TIMED(s, part, stmt)                             \
    do {                                                 \
        if ((s)->profile) {                              \
            int64_t t0_ = now_ns();                      \
            stmt;                                        \
            (s)->part_ns[part] += now_ns() - t0_;        \
            (s)->part_calls[part]++;                     \
        } else {                                         \
            stmt;                                        \
        }                                                \
    } while (0)

/* Run up to n steps of solve's loop body: pick (BMS, or weighting and a
 * falsified-clause pick at a local optimum), then flip. Returns the number
 * of flips made. Stops early right after a flip that leaves no hard clause
 * falsified and the objective below the bound, or, with s->optimum set,
 * when nothing is falsified. With s->profile set, each part's calls and
 * nanoseconds are added up in part_calls and part_ns. */
int64_t kn_advance(kstate *s, int64_t n)
{
    s->optimum = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t v;
        if (s->num_goodvars) {
            TIMED(s, PART_BMS_PICK, v = bms_pick(s));
        } else {
            TIMED(s, PART_SPB_WEIGHTING, spb_weighting(s));
            TIMED(s, PART_PICK_FROM_FALSIFIED, v = pick_from_falsified(s));
            if (v < 0) {
                s->optimum = 1;
                return i;
            }
        }
        TIMED(s, PART_FLIP, flip(s, v));
        if (!s->hard.num_falsified && (!s->has_bound || s->current_obj < s->bound))
            return i + 1;
    }
    return n;
}

/* --- WCNF parsing ---------------------------------------------------------
 *
 * kn_parse is formula.parse_wcnf on UTF-8 bytes: it writes each clause kind
 * into the arrays of a formula.Clauses, with the rows, counts and checks of
 * the Python parser and Clauses.add. It declines (returns DECLINED)
 * wherever it would have to tell errors apart or read text as Python does:
 * on any error, on a byte >= 0x80 or one of \v \f \x1c-\x1f (line breaks or
 * whitespace only to Python), on a number token that is not [-]digits
 * (int() also reads "+1" and "1_0") or is above 2^64 - 1, on a kind with
 * more than INT32_MAX literals, and when out of memory. parse_wcnf then
 * parses the text in Python, which reports the error. Lines end at \n or
 * \r (so at \r\n too), and tokens are separated by spaces and tabs.
 *
 * One pass: each byte is read once, and each row is checked and written,
 * normalized, straight into its kind's arrays, whose capacities kernel.py
 * sets. When a row does not fit (its kind's literals, offsets or weights
 * are full), kn_parse returns FULL before that row: pos is the row's
 * offset, every count is as it was before the row, and row_lits bounds
 * the row's literals. kernel.py grows the arrays in place and calls
 * kn_parse again, which goes on from pos. Nothing is allocated per
 * variable.
 *
 * No scan tests for the end of the text. The lines up to the last line
 * break are read in place, and every scan stops at a line break at the
 * latest; a last line without a break is read from a copy that ends in
 * "\n".
 */

/* One clause kind: the arrays and the fields of a formula.Clauses. */
typedef struct {
    int32_t *lits, *off;
    int64_t *weights; /* the soft kind only */
    int64_t lits_cap, rows_cap; /* lits has lits_cap items, off rows_cap + 1, weights rows_cap */
    int64_t num_lits, num_clauses, empty, dropped, total, max_var, max_weight;
    int64_t first; /* 1 + the offset of the kind's first row, 0 before it */
} pkind;

/* The parse so far, zeroed before the first call. */
typedef struct {
    pkind hard, soft;
    int64_t num_vars, top, format; /* format: UNSEEN, CLASSIC or HEADERLESS */
    int64_t pos, row_lits; /* the offset to go on from; after FULL, the row's bound */
} parsed;

enum { PARSED, DECLINED, FULL };
enum { UNSEEN, CLASSIC, HEADERLESS }; /* set by the first significant line */

/* Byte classes; the parser declines on a DECLINE byte wherever it is. */
enum { OTHER, DIGIT, BLANK, EOL, DECLINE };
static const uint8_t CLASS[256] = {
    ['0' ... '9'] = DIGIT, [' '] = BLANK, ['\t'] = BLANK, ['\n'] = EOL, ['\r'] = EOL,
    ['\v'] = DECLINE, ['\f'] = DECLINE, [0x1c ... 0x1f] = DECLINE, [0x80 ... 0xff] = DECLINE,
};

/* Whether byte b ends a token: a blank or a line break. */
static inline int ends_token(uint8_t b)
{
    return (unsigned)(CLASS[b] - BLANK) <= EOL - BLANK;
}

static inline const uint8_t *skip_blanks(const uint8_t *p)
{
    while (CLASS[*p] == BLANK)
        p++;
    return p;
}

static inline int is_digit(uint8_t b)
{
    return (uint8_t)(b - '0') < 10;
}

/* The digits at *pp, read as a number into *x, with *pp moved past them; 0
 * when there are none or the number is above 2^64 - 1. The 8 bytes at *pp
 * must be readable. Up to 7 digits are found and summed in one 64-bit word
 * (little-endian only), with no branch per digit. */
static inline int read_digits(const uint8_t **pp, uint64_t *x)
{
    const uint8_t *p = *pp, *s = p;
    uint64_t v = 0;
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    uint64_t w;
    memcpy(&w, p, 8);
    /* A byte below '0' or above '9' sets its top bit in one of the two
     * words; a carry or a borrow spoils only the bytes after it. */
    uint64_t stop = ((w + 0x4646464646464646u) | (w - 0x3030303030303030u)) & 0x8080808080808080u;
    w -= 0x3030303030303030u; /* digits 0-9 up to the first other byte */
    if (stop) { /* the first byte whose top bit is set is no digit */
        int len = __builtin_ctzll(stop) >> 3;
        if (!len)
            return 0;
        v = w << (64 - 8 * len); /* the digits, most significant byte first, after zeros */
        v = (v & 0x0f0f0f0f0f0f0f0fu) * 2561 >> 8;
        v = (v & 0x00ff00ff00ff00ffu) * 6553601 >> 16;
        *x = (v & 0x0000ffff0000ffffu) * 42949672960001u >> 32;
        *pp = p + len;
        return 1;
    }
#endif
    while (is_digit(*p))
        v = v * 10 + (uint64_t)(*p++ - '0');
    if (p - s > 19) { /* may have wrapped: read again, checked */
        v = 0;
        for (const uint8_t *d = s; d < p; d++)
            if (__builtin_mul_overflow(v, 10, &v) || __builtin_add_overflow(v, *d - '0', &v))
                return 0;
    }
    *pp = p;
    *x = v;
    return p > s;
}

/* An unsigned number token at *pp, at most 2^64 - 1, into *x; 0 if there is
 * none. */
static int read_number(const uint8_t **pp, uint64_t *x)
{
    return read_digits(pp, x) && ends_token(**pp);
}

/* The "p wcnf <num_vars> <clauses> <top>" line at *pp, checked as
 * formula._header does. */
static int read_header(const uint8_t **pp, uint64_t *num_vars, uint64_t *top)
{
    const uint8_t *p = *pp + 1;
    uint64_t clauses;
    if (CLASS[*p] != BLANK)
        return 0;
    p = skip_blanks(p);
    for (const char *w = "wcnf"; *w; w++, p++) /* a line break differs */
        if (*p != (uint8_t)*w)
            return 0;
    if (CLASS[*p] != BLANK)
        return 0;
    p = skip_blanks(p);
    if (!read_number(&p, num_vars) || *num_vars > MAX_VARS)
        return 0;
    p = skip_blanks(p);
    p += *p == '-'; /* int() takes any clause count */
    if (!read_number(&p, &clauses))
        return 0;
    p = skip_blanks(p);
    if (!read_number(&p, top) || *top < 1)
        return 0;
    *pp = p = skip_blanks(p);
    return CLASS[*p] == EOL;
}

/* formula._normalize of a row with two or more literals, in place: repeated
 * literals are dropped and first occurrences kept in order, as
 * dict.fromkeys does. Returns the new length, 0 for a tautology (a variable
 * of both signs), -1 when out of memory. Short rows are compared pairwise,
 * longer ones go through a hash table of their variables. */
static int64_t normalize(int32_t *lits, int64_t n)
{
    int64_t kept = 0;
    if (n <= 16) {
        for (int64_t i = 0; i < n; i++) {
            int64_t j = 0;
            while (j < kept && abs(lits[j]) != abs(lits[i]))
                j++;
            if (j == kept)
                lits[kept++] = lits[i];
            else if (lits[j] != lits[i])
                return 0;
        }
        return kept;
    }
    int bits = 65 - __builtin_clzll((uint64_t)n); /* 2^bits >= 2n */
    uint64_t mask = ((uint64_t)1 << bits) - 1;
    int32_t *seen = calloc(mask + 1, sizeof *seen);
    if (!seen)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        int32_t lit = lits[i];
        uint64_t h = ((uint64_t)abs(lit) * 0x9e3779b97f4a7c15u) >> (64 - bits);
        while (seen[h] && abs(seen[h]) != abs(lit))
            h = (h + 1) & mask;
        if (!seen[h]) {
            seen[h] = lit;
            lits[kept++] = lit;
        } else if (seen[h] != lit) {
            kept = 0;
            break;
        }
    }
    free(seen);
    return kept;
}

/* Returns FULL with pos at the row at offset `offset`, which starts at row;
 * its literals are fewer than half its bytes. */
static int64_t stop_before(parsed *out, const uint8_t *row, int64_t offset)
{
    const uint8_t *eol = row;
    while (CLASS[*eol] != EOL)
        eol++;
    out->pos = offset;
    out->row_lits = (eol - row) / 2 + 1;
    return FULL;
}

/* Parses the lines of base from p up to last, a line break, into out;
 * base is the text from offset at on. */
static int64_t read_lines(const uint8_t *base, const uint8_t *p, const uint8_t *last,
                          int64_t at, parsed *out)
{
    pkind *kinds[2] = {&out->hard, &out->soft};
    uint64_t limit = out->format == CLASSIC ? (uint64_t)out->num_vars : MAX_VARS;
    for (;;) {
        p = skip_blanks(p);
        if (CLASS[*p] == EOL) {
            if (p++ == last)
                return PARSED;
            continue;
        }
        if (*p == 'c') { /* a comment line */
            while (CLASS[*p] < EOL)
                p++;
            if (CLASS[*p] == DECLINE)
                return DECLINED;
            continue;
        }
        if (out->format == UNSEEN && *p == 'p') {
            uint64_t num_vars, top;
            if (!read_header(&p, &num_vars, &top))
                return DECLINED;
            out->format = CLASSIC;
            out->num_vars = (int64_t)(limit = num_vars);
            out->top = (int64_t)top;
            continue;
        }
        if (out->format == UNSEEN)
            out->format = HEADERLESS;
        const uint8_t *row = p;
        uint64_t weight = 1;
        int hard = out->format == HEADERLESS && *p == 'h' && ends_token(p[1]);
        if (hard)
            p++;
        else if (!read_number(&p, &weight))
            return DECLINED;
        else
            hard = out->format == CLASSIC && weight >= (uint64_t)out->top;
        pkind *k = kinds[!hard];
        if (!k->first)
            k->first = at + (row - base) + 1;
        if (!hard && (weight < 1 || weight > (uint64_t)(INT64_MAX - k->total)))
            return DECLINED;
        if (k->num_clauses == k->rows_cap)
            return stop_before(out, row, at + (row - base));
        int32_t *lits = k->lits + k->num_lits, *q = lits, *full = k->lits + k->lits_cap;
        /* seen has bit v % 64 of each variable v of the row, twice those set
         * twice: a repeated variable sets one, and only then is the row
         * normalized. */
        uint64_t row_max = 0, seen = 0, twice = 0;
        for (p = skip_blanks(p);; p = skip_blanks(p + 1)) {
            const uint8_t *tok = p;
            uint32_t neg = *p == '-';
            uint64_t var;
            p += neg;
            if (!read_digits(&p, &var))
                return DECLINED;
            if (!var) { /* must be the terminating "0", the line's last token */
                if (p - tok != 1 || CLASS[*(p = skip_blanks(p))] != EOL)
                    return DECLINED;
                break;
            }
            if (var > limit || CLASS[*p] != BLANK) /* a blank: the "0" is still to come */
                return DECLINED;
            if (q == full)
                return stop_before(out, row, at + (row - base));
            *q++ = (int32_t)(((uint32_t)var ^ -neg) + neg);
            row_max = var > row_max ? var : row_max;
            uint64_t bit = (uint64_t)1 << (var & 63);
            twice |= seen & bit;
            seen |= bit;
        }
        int64_t w = hard ? 1 : (int64_t)weight, len = q - lits;
        if (!hard)
            k->total += w;
        if ((int64_t)row_max > k->max_var)
            k->max_var = (int64_t)row_max;
        if (twice && (len = normalize(lits, len)) <= 0) {
            if (len < 0)
                return DECLINED;
            k->dropped += w;
            continue;
        }
        if (!len) {
            k->empty += w;
            continue;
        }
        if (k->num_lits + len > INT32_MAX)
            return DECLINED;
        k->num_lits += len;
        k->off[++k->num_clauses] = (int32_t)k->num_lits;
        if (!hard) {
            k->weights[k->num_clauses - 1] = w;
            if (w > k->max_weight)
                k->max_weight = w;
        }
    }
}

/* Parses text[0:n] from out->pos on: see above. */
int64_t kn_parse(const uint8_t *text, int64_t n, parsed *out)
{
    /* text[pos:cut] is whole lines, and 8 bytes can be read at any of them */
    int64_t pos = out->pos, cut = n - 7, r;
    while (cut > pos && CLASS[text[cut - 1]] != EOL)
        cut--;
    if (cut > pos && (r = read_lines(text, text + pos, text + cut - 1, 0, out)))
        return r;
    if (cut < pos)
        cut = pos;
    if (cut < n) { /* the rest, from a copy that ends in "\n" and 8 more bytes */
        int64_t m = n - cut;
        uint8_t *tail = calloc((size_t)m + 9, 1);
        if (!tail)
            return DECLINED;
        memcpy(tail, text + cut, (size_t)m);
        tail[m] = '\n';
        r = read_lines(tail, tail, tail + m, cut, out);
        free(tail);
        if (r)
            return r;
    }
    out->pos = n;
    if (out->format != CLASSIC)
        out->num_vars = out->hard.max_var > out->soft.max_var ? out->hard.max_var
                                                              : out->soft.max_var;
    return PARSED;
}
