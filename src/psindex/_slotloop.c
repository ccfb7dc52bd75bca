/* One block of slots of psindex.sim.simulate, compiled, with numpy's
   PCG64 stream drawn inline.

   This gives the Python slot loop in sim.py bit-identical reports: the
   same uniforms against the same CDF doubles, the same departure
   counts, and the same order of floating-point sums. Build it with
   -ffp-contract=off, so that no multiply-add is fused.

   block   slots in this block; num: servers; buffer: the queue cap
   x       queue lengths, updated in place
   counts  {state code, drops}, updated in place
   acc     {cost sum, then one length sum per server}, updated in place
   costs   holding cost per server
   cdfs    per server, the departure CDF rows at lengths 0..buffer
           back to back, each followed by a sentinel 1.0 (row x has
           x + 1 doubles and starts at x(x + 3)/2)
   stride  mixed-radix place value per server; all zero without dec
   gen     num + 1 PCG64 states (one per server, then the arrival
           stream), then their num + 1 increments; states updated in
           place
   p       arrival probability: a slot has an arrival when its arrival
           uniform is < p
   dec     the decision table, indexed by the state code; or NULL
   choice  block pre-drawn servers, read when dec is NULL

   A row is non-decreasing and ends in 1.0 > u, so the first k with
   u < row[k] is bisect_right's answer. Two comparisons count the
   usual 0 or 1 departures and a scan runs only past that; an empty
   queue reads 1.0 and its sentinel, so it draws 0. Its costs[i] * 0.0
   adds +0.0 to non-negative sums, which changes none of them, so
   empty queues and empty slots take no branch of their own.

   The uniforms are numpy's Generator.random() on PCG64 (O'Neill,
   HMC-CS-2014-0905; the stream is fixed by numpy's NEP 19): a 128-bit
   LCG step with numpy's multiplier, the XSL-RR output of the new
   state, and its top 53 bits times 2^-53. sim.py checks a few dozen
   draws of uniforms() against numpy before it uses this file. */

#include <stdint.h>

typedef unsigned __int128 u128;

static const u128 MULT =
    ((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;

static inline double next_double(u128 *state, u128 inc)
{
    u128 s = *state * MULT + inc;
    *state = s;
    uint64_t v = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    v = (v >> rot) | (v << (-rot & 63));
    return (double)(v >> 11) * (1.0 / 9007199254740992.0);
}

/* n uniforms of one stream, gen = {state, increment}, into out. */
void uniforms(int64_t n, u128 *restrict gen, double *out)
{
    for (int64_t k = 0; k < n; k++)
        out[k] = next_double(gen, gen[1]);
}

void advance(int64_t block, int64_t num, int64_t buffer, int64_t *x,
             int64_t *counts, double *acc, const double *costs,
             const double *cdfs, const int64_t *stride,
             u128 *restrict gen, double p, const uint8_t *dec,
             const int64_t *choice)
{
    const int64_t per_server = (buffer + 1) * (buffer + 4) / 2;
    const u128 *inc = gen + num + 1;
    int64_t code = counts[0], drops = counts[1];
    double cost = acc[0];
    double *len = acc + 1;

    for (int64_t j = 0; j < block; j++) {
        int64_t a = dec ? dec[code] : choice[j];
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
    counts[0] = code;
    counts[1] = drops;
    acc[0] = cost;
}
