/* One block of slots of psindex.sim.simulate, compiled, with numpy's
   seeding and its PCG64 streams drawn inline.

   This gives the Python slot loop in sim.py bit-identical reports: the
   same uniforms against the same CDF doubles, the same departure
   counts, the same random choices, and the same order of
   floating-point sums. Build it with -ffp-contract=off, so that no
   multiply-add is fused.

   block   slots in this block; num: servers; buffer: the queue cap
   x       queue lengths, updated in place
   counts  {state code, drops}, updated in place
   acc     {cost sum, then one length sum per server}, updated in place
   costs   holding cost per server
   cdfs    per server, the departure CDF rows at lengths 0..buffer
           back to back, each followed by a sentinel 1.0 (row x has
           x + 1 doubles and starts at x(x + 3)/2)
   stride  mixed-radix place value per server; all zero without dec
   gen     seed()'s words for num + 2 streams (one per server, the
           arrival stream, the policy stream), updated in place
   p       arrival probability: a slot has an arrival when its arrival
           uniform is < p
   dec     the decision table, indexed by the state code; or NULL, and
           then each slot's server is Generator.integers(num) on the
           policy stream

   A row is non-decreasing and ends in 1.0 > u, so the first k with
   u < row[k] is bisect_right's answer. Two comparisons count the
   usual 0 or 1 departures and a scan runs only past that; an empty
   queue reads 1.0 and its sentinel, so it draws 0. Its costs[i] * 0.0
   adds +0.0 to non-negative sums, which changes none of them, so
   empty queues and empty slots take no branch of their own.

   The streams are numpy's, whose NEP 19 fixes them:
   - seed() is SeedSequence(entropy).spawn(streams), each child's
     generate_state(4, uint64) and PCG64's srandom: numpy's hashmix
     pool of four 32-bit words, mixed with the spawn key.
   - A uniform is Generator.random() on PCG64 (O'Neill,
     HMC-CS-2014-0905): a 128-bit LCG step with numpy's multiplier,
     the XSL-RR output of the new state, and its top 53 bits times
     2^-53.
   - A choice is Generator.integers(num) (Lemire, ACM TOMACS 29(1),
     2019): a 32-bit draw times num, rejected while its low half is
     below 2^32 mod num. The 32-bit draws are halves of a 64-bit one,
     low half first, the high half buffered in the generator.
   sim.py checks seed(), uniforms() and integers() against numpy before
   it uses this file. */

#include <stddef.h>
#include <stdint.h>

typedef unsigned __int128 u128;

static const u128 MULT =
    ((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;

static inline uint64_t next64(u128 *state, u128 inc)
{
    u128 s = *state * MULT + inc;
    *state = s;
    uint64_t v = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return (v >> rot) | (v << (-rot & 63));
}

static inline double next_double(u128 *state, u128 inc)
{
    return (double)(next64(state, inc) >> 11) * (1.0 / 9007199254740992.0);
}

/* The next 32-bit draw; half = {a high half is buffered, that half}. */
static inline uint32_t next32(u128 *state, u128 inc, uint64_t *half)
{
    if (half[0]) {
        half[0] = 0;
        return (uint32_t)half[1];
    }
    uint64_t v = next64(state, inc);
    half[0] = 1;
    half[1] = v >> 32;
    return (uint32_t)v;
}

/* Generator.integers(num) for 1 <= num < 2^32; num = 1 draws nothing. */
static inline int64_t bounded(u128 *state, u128 inc, uint64_t *half,
                              uint32_t num, uint32_t reject)
{
    if (num == 1)
        return 0;
    uint64_t m;
    do
        m = (uint64_t)next32(state, inc, half) * num;
    while ((uint32_t)m < reject);
    return (int64_t)(m >> 32);
}

/* numpy's SeedSequence constants. */
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_L 0xca01f9ddu
#define MIX_R 0x4973f715u

static inline uint32_t hashmix(uint32_t v, uint32_t *h)
{
    v ^= *h;
    *h *= MULT_A;
    v *= *h;
    return v ^ (v >> 16);
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_L * x - MIX_R * y;
    return r ^ (r >> 16);
}

/* Word k of child c's entropy: the seed's nwords words (little-endian
   bytes), zero-padded to run >= 4 words, then the spawn key c. */
static inline uint32_t entropy_word(const uint8_t *entropy, int64_t nwords,
                                    int64_t run, int64_t c, int64_t k)
{
    if (k == run)
        return (uint32_t)c;
    if (k >= nwords)
        return 0;
    const uint8_t *b = entropy + 4 * k;
    return b[0] | b[1] << 8 | b[2] << 16 | (uint32_t)b[3] << 24;
}

static inline uint64_t pair(uint32_t lo, uint32_t hi)
{
    return lo | (uint64_t)hi << 32;
}

/* PCG64 seeded from SeedSequence(entropy).spawn(streams), into gen:
   the streams' states, then their increments, then {0, 0}, the policy
   stream's empty 32-bit buffer. entropy holds the seed's nwords >= 1
   uint32 words, least significant first, as little-endian bytes. */
void seed(const uint8_t *entropy, int64_t nwords, int64_t streams,
          u128 *gen)
{
    int64_t run = nwords < 4 ? 4 : nwords;
    for (int64_t c = 0; c < streams; c++) {
        /* SeedSequence's mix_entropy: hash the first four words into
           the pool, mix every pool word into every other, then mix
           each remaining word into every pool word. */
        uint32_t pool[4], h = INIT_A;
        for (int k = 0; k < 4; k++)
            pool[k] = hashmix(entropy_word(entropy, nwords, run, c, k), &h);
        for (int s = 0; s < 4; s++)
            for (int d = 0; d < 4; d++)
                if (s != d)
                    pool[d] = mix(pool[d], hashmix(pool[s], &h));
        for (int64_t k = 4; k <= run; k++) {
            uint32_t w = entropy_word(entropy, nwords, run, c, k);
            for (int d = 0; d < 4; d++)
                pool[d] = mix(pool[d], hashmix(w, &h));
        }
        /* generate_state(4, uint64): eight hashed words, paired low
           word first; then PCG64's srandom(initstate, initseq). */
        uint32_t w[8], hb = INIT_B;
        for (int k = 0; k < 8; k++) {
            uint32_t v = pool[k % 4] ^ hb;
            hb *= MULT_B;
            v *= hb;
            w[k] = v ^ (v >> 16);
        }
        u128 initstate = (u128)pair(w[0], w[1]) << 64 | pair(w[2], w[3]);
        u128 inc = ((u128)pair(w[4], w[5]) << 64 | pair(w[6], w[7])) << 1
                   | 1;
        gen[c] = (inc + initstate) * MULT + inc;
        gen[streams + c] = inc;
    }
    gen[2 * streams] = 0;
}

/* n uniforms of one stream, gen = {state, increment}, into out. */
void uniforms(int64_t n, u128 *restrict gen, double *out)
{
    for (int64_t k = 0; k < n; k++)
        out[k] = next_double(gen, gen[1]);
}

/* n draws of Generator.integers(num), 1 <= num < 2^32, into out, from
   one stream: gen = {state, increment, its 32-bit buffer}. */
void integers(int64_t n, int64_t num, u128 *restrict gen, int64_t *out)
{
    uint32_t reject = (uint32_t)(-(uint32_t)num) % (uint32_t)num;
    for (int64_t k = 0; k < n; k++)
        out[k] = bounded(gen, gen[1], (uint64_t *)(gen + 2),
                         (uint32_t)num, reject);
}

/* advance()'s loop, inlined twice so that no slot tests dec. */
static inline __attribute__((always_inline)) void
slots(int64_t block, int64_t num, int64_t buffer, int64_t *x,
      int64_t *counts, double *acc, const double *costs, const double *cdfs,
      const int64_t *stride, u128 *restrict gen, double p,
      const uint8_t *dec)
{
    const int64_t per_server = (buffer + 1) * (buffer + 4) / 2;
    const u128 *inc = gen + num + 2;
    u128 *pol = gen + num + 1;
    uint64_t *half = (uint64_t *)(gen + 2 * (num + 2));
    uint64_t buffered[2] = {half[0], half[1]};
    const uint32_t reject = (uint32_t)(-(uint32_t)num) % (uint32_t)num;
    int64_t code = counts[0], drops = counts[1];
    double cost = acc[0];
    double *len = acc + 1;

    for (int64_t j = 0; j < block; j++) {
        int64_t a = dec ? dec[code]
                        : bounded(pol, inc[num + 1], buffered,
                                  (uint32_t)num, reject);
        double slot_cost = 0.0;
        for (int64_t i = 0; i < num; i++) {
            int64_t xi = x[i];
            const double *row = cdfs + i * per_server + xi * (xi + 3) / 2;
            double u = next_double(gen + i, inc[i]);
            slot_cost += costs[i] * (double)xi;
            len[i] += (double)xi;
            int64_t d = (u >= row[0]) + (u >= row[1]);
            if (u >= row[1])
                while (u >= row[d])
                    d++;
            x[i] = xi - d;
            code -= d * stride[i];
        }
        cost += slot_cost;
        int64_t arr = next_double(gen + num, inc[num]) < p;
        int64_t xa = x[a];
        int64_t ok = arr & (xa < buffer);
        x[a] = xa + ok;
        code += ok * stride[a];
        drops += arr - ok;
    }
    half[0] = buffered[0];
    half[1] = buffered[1];
    counts[0] = code;
    counts[1] = drops;
    acc[0] = cost;
}

void advance(int64_t block, int64_t num, int64_t buffer, int64_t *x,
             int64_t *counts, double *acc, const double *costs,
             const double *cdfs, const int64_t *stride,
             u128 *restrict gen, double p, const uint8_t *dec)
{
    if (dec)
        slots(block, num, buffer, x, counts, acc, costs, cdfs, stride, gen,
              p, dec);
    else
        slots(block, num, buffer, x, counts, acc, costs, cdfs, stride, gen,
              p, NULL);
}
