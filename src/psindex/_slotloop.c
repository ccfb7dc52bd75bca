/* One block of slots of psindex.sim.simulate, compiled.

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
   dep_u   num rows of block departure uniforms
   arr     block arrival flags, each 0 or 1
   dec     the decision table, indexed by the state code; or NULL
   choice  block pre-drawn servers, read when dec is NULL

   A row is non-decreasing and ends in 1.0 > u, so the first k with
   u < row[k] is bisect_right's answer. Two comparisons count the
   usual 0 or 1 departures and a scan runs only past that; an empty
   queue reads 1.0 and its sentinel, so it draws 0. Its costs[i] * 0.0
   adds +0.0 to non-negative sums, which changes none of them, so
   empty queues and empty slots take no branch of their own. */

#include <stdint.h>

void advance(int64_t block, int64_t num, int64_t buffer, int64_t *x,
             int64_t *counts, double *acc, const double *costs,
             const double *cdfs, const int64_t *stride,
             const double *dep_u, const uint8_t *arr, const uint8_t *dec,
             const int64_t *choice)
{
    const int64_t per_server = (buffer + 1) * (buffer + 4) / 2;
    int64_t code = counts[0], drops = counts[1];
    double cost = acc[0];
    double *len = acc + 1;

    for (int64_t j = 0; j < block; j++) {
        int64_t a = dec ? dec[code] : choice[j];
        double slot_cost = 0.0;
        for (int64_t i = 0; i < num; i++) {
            int64_t xi = x[i];
            const double *row = cdfs + i * per_server + xi * (xi + 3) / 2;
            double u = dep_u[i * block + j];
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
        int64_t xa = x[a];
        int64_t ok = arr[j] & (xa < buffer);
        x[a] = xa + ok;
        code += ok * stride[a];
        drops += arr[j] - ok;
    }
    counts[0] = code;
    counts[1] = drops;
    acc[0] = cost;
}
