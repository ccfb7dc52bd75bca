"""Compute Whittle indices for a bank of processor-sharing queues.

Walks through the single-queue machinery: the departure law, the
balance gap whose root is the index, the incremental iteration against
the bisection reference, and a full per-server table, solved in closed
form, with the linear extrapolation used beyond the computed range.
"""

import numpy as np

from psindex import (ServerParams, SystemConfig, bisect_index,
                     build_index_table, compute_index, index_residual,
                     passive_kernel)

cfg = SystemConfig(arrival_p=0.4, buffer=100, servers=(
    ServerParams(q=0.55, cost_c=30.0),
    ServerParams(q=0.50, cost_c=29.0),
    ServerParams(q=0.45, cost_c=28.0)))

# Each of x resident jobs finishes with probability q/x, so the mean
# departure count stays q no matter how crowded the server is.
# Row x of the passive kernel, read backwards, is that law.
print("departure law at x=4, q=0.55:")
law = passive_kernel(0.55, 4)[4, ::-1]
for d, w in enumerate(law):
    print(f"  P(D={d}) = {w:.6f}")
print(f"  mean = {law @ np.arange(5):.12f}\n")

# The index of state x is the passivity charge at which activating and
# resting the queue cost the same. The gap is affine in the charge, so
# a damped fixed-point iteration and a bisection must find one root.
server = cfg.servers[0]
print("index of the empty queue (closed form cost_c * p / q = 21.8181..):")
lam = compute_index(0, server, cfg.arrival_p, n=100)
print(f"  incremental iteration: {lam:.6f}")
print(f"  bisection reference:   {bisect_index(0, server, cfg.arrival_p, 100):.6f}")
print(f"  residual at the root:  {index_residual(lam, 0, server, cfg.arrival_p, 100):.2e}\n")

# A table covers states 0..x_max for every server. Because the gap is
# affine, each cell is its root -g(0)/slope from two back-solves,
# checked to leave a gap within 1e-6.
table = build_index_table(cfg, x_max=40)
print("index table, states 0..8:")
header = "  x   " + "".join(f"server{i}".rjust(12) for i in range(3))
print(header)
for x in range(9):
    row = "".join(f"{table.lookup(i, x):12.4f}" for i in range(3))
    print(f"  {x:<4d}{row}")

# Past x_max the table extends the last slope linearly; deep states are
# rare under a stable policy, so the continuation only needs the order.
print("\nextrapolated indices at x = 41, 42 for server 0:")
print(f"  {table.lookup(0, 41):.4f}  {table.lookup(0, 42):.4f}")
slope = table.lookup(0, 40) - table.lookup(0, 39)
print(f"  (slope carried forward: {slope:.4f})")

# The whole policy reduces to: admit the arrival at the server whose
# current index is smallest.
state = (3, 1, 0)
vals = [table.lookup(i, state[i]) for i in range(3)]
print(f"\nat joint state {state} the indices are "
      + ", ".join(f"{v:.3f}" for v in vals))
print(f"the arrival goes to server {int(np.argmin(vals))}")
