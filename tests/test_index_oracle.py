"""Index cells against a high-precision solve of their value system.

The oracle writes the threshold-x value system on states 0..x+1 (the
states the policy visits from empty) with the index as one more
unknown, builds its binomial laws with mpmath.binomial and solves it by
mpmath's LU at the working precision its caller names. It shares no
code with the library; its inputs are the same doubles the library
reads. The gap-line table is checked at 50 digits. On p >= q servers
the index grows past 1e17 by x = 40, and the solve needs more digits
the larger the index, so the flow-balance route is checked at
40 + 2 log10(index) digits.
"""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from psindex import ServerParams, SystemConfig, build_index_table
from psindex.cli import load_config
from psindex.threshold import flow_balance_indices

ROOT = Path(__file__).resolve().parent.parent

FIG3 = SystemConfig(arrival_p=0.4,
                    servers=(ServerParams(q=0.55, cost_c=30.0),
                             ServerParams(q=0.50, cost_c=29.0),
                             ServerParams(q=0.45, cost_c=28.0)),
                    buffer=100)


def exact_index(server: ServerParams, arrival_p: float, x: int,
                dps: int):
    """Whittle index of state x at dps significant digits.

    Unknowns V(0..n), beta and lam with n = x + 1: n + 1 balance rows
    V(s) + beta - P_s V - lam [s > x] = c s, the pin V(0) = 0, and the
    balance at x, (A_x - P_x) V - lam = 0, with P the passive and A
    the active law.
    """
    with mpmath.workdps(dps):
        q, p, c = (mpmath.mpf(v) for v in (server.q, arrival_p,
                                           server.cost_c))
        n = x + 1

        def passive(s):
            r = q / s if s else mpmath.mpf(0)
            row = [mpmath.mpf(0)] * (n + 1)
            for d in range(s + 1):
                row[s - d] = (mpmath.binomial(s, d) * r ** d
                              * (1 - r) ** (s - d))
            return row

        def active(s):  # s <= x, so the arrival never meets the buffer
            row = passive(s)
            return [(1 - p) * row[j] + (p * row[j - 1] if j else 0)
                    for j in range(n + 1)]

        a = mpmath.zeros(n + 3, n + 3)
        b = mpmath.zeros(n + 3, 1)
        for s in range(n + 1):
            row = active(s) if s <= x else passive(s)
            for j in range(n + 1):
                a[s, j] = -row[j]
            a[s, s] += 1
            a[s, n + 1] = 1
            a[s, n + 2] = -1 if s > x else 0
            b[s] = c * s
        a[n + 1, 0] = 1
        d = [u - v for u, v in zip(active(x), passive(x))]
        for j in range(n + 1):
            a[n + 2, j] = d[j]
        a[n + 2, n + 2] = -1
        return mpmath.lu_solve(a, b)[n + 2]


def scaled_digits(index: float) -> int:
    """40 + 2 log10(index) digits, the precision a p >= q cell needs."""
    return 40 + 2 * max(0, math.ceil(math.log10(abs(index))))


def relative_error(got: float, ref) -> float:
    return float(abs((mpmath.mpf(got) - ref) / ref))


def worst_relative_error(cfg: SystemConfig, x_max: int, states) -> float:
    table = build_index_table(cfg, x_max)
    worst = 0.0
    for i, server in enumerate(cfg.servers):
        for x in states:
            ref = exact_index(server, cfg.arrival_p, x, 50)
            worst = max(worst, relative_error(table.entries[i, x], ref))
    return worst


def test_oracle_reproduces_the_closed_form_of_the_empty_state():
    # At x = 0 the index is cost_c * p / q.
    ref = exact_index(ServerParams(q=0.5, cost_c=1.0), 0.4, 0, 50)
    assert abs(ref - mpmath.mpf(0.4) / mpmath.mpf(0.5)) < mpmath.mpf(10) ** -45


def test_fig3_cells_match_the_50_digit_solve():
    assert worst_relative_error(FIG3, 40, (0, 1, 5, 20, 40)) <= 1e-12


@pytest.mark.parametrize("q,p", [(0.55, 0.6), (0.9, 0.95)])
def test_cells_with_arrivals_above_capacity_match_the_50_digit_solve(q, p):
    cfg = SystemConfig(arrival_p=p, servers=(ServerParams(q, 1.0),),
                       buffer=100)
    assert worst_relative_error(cfg, 40, (10, 40)) <= 1e-10


def test_heavy_traffic_cells_match_the_50_digit_solve():
    """Server 0 of the heavy-traffic bank, p > q: cells 6 and 8 pass the
    residual guard on states 0..x+1, though not on the whole buffer."""
    cfg = SystemConfig(arrival_p=0.9,
                       servers=(ServerParams(q=0.55, cost_c=30.0),),
                       buffer=100)
    assert worst_relative_error(cfg, 8, (6, 8)) <= 1e-9


# (q, p, c): the two heavy-traffic servers and two banks whose gap-line
# tables abort at states 15 and 11.
FLOW_SERVERS = [(0.55, 0.9, 30.0), (0.5, 0.9, 29.0), (0.25, 0.5, 0.1),
                (0.2293, 0.6011, 0.1037)]


def worst_flow_balance_error(q, p, c, states) -> float:
    lam = flow_balance_indices(c, q, p, max(states))
    server = ServerParams(q=q, cost_c=c)
    return max(relative_error(lam[x], exact_index(server, p, x,
                                                  scaled_digits(lam[x])))
               for x in states)


@pytest.mark.parametrize("q,p,c", FLOW_SERVERS)
def test_flow_balance_indices_match_the_scaled_solve(q, p, c):
    assert worst_flow_balance_error(q, p, c, (0, 10, 40)) <= 1e-13


def test_flow_balance_indices_match_the_table_where_it_builds():
    """Heavy-traffic server 0's gap-line table builds to state 8; both
    routes agree there to the digits the gap line keeps."""
    cfg = SystemConfig(arrival_p=0.9,
                       servers=(ServerParams(q=0.55, cost_c=30.0),),
                       buffer=100)
    table = build_index_table(cfg, 8).entries[0]
    lam = flow_balance_indices(30.0, 0.55, 0.9, 8)
    assert (np.abs(lam - table) <= 1e-10 * np.abs(table)).all()


@pytest.mark.slow
@pytest.mark.parametrize("server", [0, 1])
def test_every_heavy_traffic_cell_matches_the_scaled_solve(server):
    cfg = load_config(ROOT / "perfbench" / "heavy-traffic.yaml").system
    s = cfg.servers[server]
    assert worst_flow_balance_error(s.q, cfg.arrival_p, s.cost_c,
                                    range(41)) <= 1e-13
