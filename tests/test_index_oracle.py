"""Index table cells against a 50-digit solve of their value system.

The oracle writes the threshold-x value system on states 0..x+1 (the
states the policy visits from empty) with the index as one more
unknown, builds its binomial laws with mpmath.binomial and solves it by
mpmath's LU at 50 significant digits. It shares no code with the
library; its inputs are the same doubles the table reads.
"""

import mpmath
import pytest

from psindex import ServerParams, SystemConfig, build_index_table

FIG3 = SystemConfig(arrival_p=0.4,
                    servers=(ServerParams(q=0.55, cost_c=30.0),
                             ServerParams(q=0.50, cost_c=29.0),
                             ServerParams(q=0.45, cost_c=28.0)),
                    buffer=100)


def exact_index(server: ServerParams, arrival_p: float, x: int):
    """Whittle index of state x at 50 digits.

    Unknowns V(0..n), beta and lam with n = x + 1: n + 1 balance rows
    V(s) + beta - P_s V - lam [s > x] = c s, the pin V(0) = 0, and the
    balance at x, (A_x - P_x) V - lam = 0, with P the passive and A
    the active law.
    """
    with mpmath.workdps(50):
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


def worst_relative_error(cfg: SystemConfig, x_max: int, states) -> float:
    table = build_index_table(cfg, x_max)
    worst = 0.0
    for i, server in enumerate(cfg.servers):
        for x in states:
            ref = exact_index(server, cfg.arrival_p, x)
            err = abs((mpmath.mpf(table.entries[i, x]) - ref) / ref)
            worst = max(worst, float(err))
    return worst


def test_oracle_reproduces_the_closed_form_of_the_empty_state():
    # At x = 0 the index is cost_c * p / q.
    ref = exact_index(ServerParams(q=0.5, cost_c=1.0), 0.4, 0)
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
