/* One block of slots of psindex.sim.simulate, compiled.

   This mirrors the Python slot loop in sim.py operation for operation,
   so both give bit-identical reports: the same uniforms, the same
   bisect_right probes on the same CDF doubles, and the same order of
   floating-point sums. Build it with -ffp-contract=off, so that no
   multiply-add is fused.

   block   slots in this block; num: servers; buffer: the queue cap
   x       queue lengths, updated in place
   counts  {state code, busy queues, drops}, updated in place
   acc     {cost sum, then one length sum per server}, updated in place
   costs   holding cost per server
   cdfs    per server, the departure CDF rows at lengths 0..buffer
           back to back (row x has x + 1 doubles)
   stride  mixed-radix place value per server (read only with dec)
   dep_u   num rows of block departure uniforms
   arr     block arrival flags
   dec     the decision table, indexed by the state code; or NULL
   choice  block pre-drawn servers, read when dec is NULL

   An empty queue draws no departure, and a slot with every queue empty
   adds nothing to the sums. Emptiness is a count of busy queues, never
   the code, which is kept only for a table (at most 2^22 states) and
   may not fit 64 bits otherwise. */

#include <stdint.h>

/* CPython's bisect.bisect_right, probe for probe. */
static int64_t bisect_right(const double *row, int64_t len, double u)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (u < row[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

void advance(int64_t block, int64_t num, int64_t buffer, int64_t *x,
             int64_t *counts, double *acc, const double *costs,
             const double *cdfs, const int64_t *stride,
             const double *dep_u, const uint8_t *arr, const uint8_t *dec,
             const int64_t *choice)
{
    const int64_t per_server = (buffer + 1) * (buffer + 2) / 2;
    int64_t code = counts[0], busy = counts[1], drops = counts[2];
    double cost = acc[0];
    double *len = acc + 1;

    for (int64_t j = 0; j < block; j++) {
        int64_t a = dec ? dec[code] : choice[j];
        if (busy) {
            double slot_cost = 0.0;
            for (int64_t i = 0; i < num; i++) {
                int64_t xi = x[i];
                if (xi) {
                    slot_cost += costs[i] * (double)xi;
                    len[i] += (double)xi;
                    int64_t d = bisect_right(
                        cdfs + i * per_server + xi * (xi + 1) / 2, xi + 1,
                        dep_u[i * block + j]);
                    if (d) {
                        x[i] = xi - d;
                        if (dec)
                            code -= d * stride[i];
                        if (d == xi)
                            busy--;
                    }
                }
            }
            cost += slot_cost;
        }
        if (arr[j]) {
            int64_t xa = x[a];
            if (xa < buffer) {
                x[a] = xa + 1;
                if (dec)
                    code += stride[a];
                if (!xa)
                    busy++;
            } else {
                drops++;
            }
        }
    }
    counts[0] = code;
    counts[1] = busy;
    counts[2] = drops;
    acc[0] = cost;
}
