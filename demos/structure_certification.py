"""Certify the structure that makes the index policy well founded.

Sweeps the passivity charge for one queue and shows threshold-shaped
greedy policies whose threshold only grows, then runs the packaged
property suite (chain dominance, stationary-mass monotonicity, value
convexity, index agreement) and prints each verdict.
"""

import numpy as np

from psindex import (ServerParams, SystemConfig, active_interval,
                     optimal_threshold_costs, single_queue_rvi,
                     threshold_chains)
from psindex.checks import run_property_suite

server = ServerParams(q=0.55, cost_c=30.0)
p = 0.4

# As the charge for resting grows, staying active pays off on ever
# longer queues: the greedy active set is {0..k} with k non-decreasing.
print("threshold k(lam) from relative value iteration:")
v = None
for lam in np.arange(0.0, 200.0, 25.0):
    sol = single_queue_rvi(float(lam), server, p, n=80, v_init=v)
    v = sol.v
    k, interval = active_interval(sol.policy, upto=40)
    print(f"  lam={lam:6.1f}: k={k:2d}  interval={interval}  "
          f"beta={sol.beta:9.4f}")

# The same thresholds fall out of the stationary chain costs, with no
# dynamic programming involved.
print("\nbest fixed threshold by stationary chain evaluation:")
lams = (25.0, 100.0, 175.0)
costs, args = optimal_threshold_costs(lams, server.cost_c, server.q, p)
for lam, cost, k in zip(lams, costs, args):
    print(f"  lam={lam:6.1f}: argmin k={k:2d}  cost={cost:9.4f}")

# Raising the threshold keeps more stationary mass on the active
# states, the monotonicity behind a well-defined index.
masses = 1.0 - threshold_chains(0.55, 0.4, 7).top[1:]
print("\nstationary active mass by threshold:",
      " ".join(f"{m:.4f}" for m in masses))

print("\npackaged property suite on a two-server bank:")
cfg = SystemConfig(arrival_p=0.4, buffer=40, servers=(
    ServerParams(q=0.55, cost_c=30.0),
    ServerParams(q=0.50, cost_c=29.0)))
for res in run_property_suite(cfg):
    tag = "pass" if res.passed else "FAIL"
    print(f"  {tag}  {res.name}: {res.detail}")
