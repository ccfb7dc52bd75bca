"""Fixed-threshold value solve, balance gap, index computation, tables."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from psindex import (ConvergenceError, IndexIterationConfig, IndexTable,
                     ServerParams, bisect_index, build_index_table,
                     compute_index, index_residual, solve_value,
                     SystemConfig, threshold_chains)
from psindex import whittle
from psindex.cli import load_config
from psindex.model import transition_kernel
from psindex.threshold import threshold_rows
from psindex.whittle import default_truncation

ROOT = Path(__file__).resolve().parent.parent

UNIT = ServerParams(q=0.5, cost_c=1.0)
HEAVY = ServerParams(q=0.55, cost_c=30.0)


def test_solve_value_frozen_reference_case():
    sol = solve_value(0.0, 0, UNIT, 0.4, 40)
    assert sol.beta == pytest.approx(4.0 / 9.0, abs=1e-9)
    assert sol.v[0] == 0.0
    assert sol.v[1] == pytest.approx(10.0 / 9.0, abs=1e-9)


@pytest.mark.parametrize("server", [UNIT, HEAVY])
@pytest.mark.parametrize("k", [0, 1, 3, 7, 12])
@pytest.mark.parametrize("lam", [-5.0, 0.0, 2.5, 10.0])
def test_solve_value_beta_equals_chain_average_cost(server, k, lam):
    """The linear solve and the stationary chain are independent routes."""
    chains = threshold_chains(server.q, 0.4, k)
    want = server.cost_c * chains.mean[k + 1] + lam * chains.top[k + 1]
    for n in (k + 1, max(2 * k, 40)):
        sol = solve_value(lam, k, server, 0.4, n)
        assert sol.beta == pytest.approx(want, abs=1e-8)


def test_index_residual_frozen_at_zero_charge():
    assert index_residual(0.0, 0, UNIT, 0.4, 40) == pytest.approx(
        4.0 / 9.0, abs=1e-9)


def test_index_residual_is_affine_in_the_charge():
    r = [index_residual(lam, 3, HEAVY, 0.4, 60) for lam in (0.0, 5.0, 10.0)]
    assert r[1] - r[0] == pytest.approx(r[2] - r[1], abs=1e-8)
    # Slope strictly inside (-1, 0) keeps the damped iteration contractive.
    slope = (r[1] - r[0]) / 5.0
    assert -1.0 < slope < 0.0


@pytest.mark.parametrize("server,want", [
    (UNIT, 0.8),
    (HEAVY, 30.0 * 0.4 / 0.55),
    (ServerParams(q=0.95, cost_c=30.0), 30.0 * 0.4 / 0.95),
])
def test_index_of_the_empty_state_closed_form(server, want):
    """At x = 0 the balance solves in closed form to cost_c * p / q."""
    assert compute_index(0, server, 0.4, 40) == pytest.approx(want, abs=1e-4)
    assert bisect_index(0, server, 0.4, 40) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("x", [-1, -2])
@pytest.mark.parametrize("route", [
    lambda x: index_residual(0.0, x, UNIT, 0.4, 10),
    lambda x: compute_index(x, UNIT, 0.4, 10),
    lambda x: bisect_index(x, UNIT, 0.4, 10)],
    ids=["index_residual", "compute_index", "bisect_index"])
def test_every_index_route_refuses_a_state_below_zero(route, x):
    """Threshold -1 is a value system solve_value accepts, and its
    balance rows sit at state 0: compute_index(-1, ...) and
    bisect_index(-1, ...) returned state 0's index, 0.8."""
    with pytest.raises(ValueError, match=r"^x must be >= 0$"):
        route(x)


def test_compute_index_leaves_negligible_residual():
    for x in range(0, 5):
        lam = compute_index(x, UNIT, 0.4, 40)
        assert abs(index_residual(lam, x, UNIT, 0.4, 40)) <= 1e-6


@pytest.mark.parametrize("server", [UNIT, HEAVY])
def test_compute_index_agrees_with_bisection(server):
    for x in range(0, 7):
        inc = compute_index(x, server, 0.4, 40)
        ref = bisect_index(x, server, 0.4, 40)
        assert inc == pytest.approx(ref, abs=1e-4)


def test_compute_index_nondecreasing_in_state():
    vals = [compute_index(x, HEAVY, 0.4, 60) for x in range(0, 9)]
    assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))


def test_compute_index_root_independent_of_start():
    far = IndexIterationConfig(lambda0=37.0)
    assert compute_index(0, UNIT, 0.4, 40, far) == pytest.approx(0.8,
                                                                 abs=1e-4)


def test_compute_index_reports_nonconvergence():
    with pytest.raises(ConvergenceError) as exc:
        compute_index(0, UNIT, 0.4, 40,
                      IndexIterationConfig(max_iter=2, lambda0=30.0))
    assert exc.value.iterate is not None
    assert abs(exc.value.residual) > 1e-6


def test_iteration_config_rejects_bad_values():
    with pytest.raises(ValueError):
        IndexIterationConfig(gamma=0.0)
    with pytest.raises(ValueError):
        IndexIterationConfig(tol=-1.0)
    with pytest.raises(ValueError):
        IndexIterationConfig(max_iter=0)


def test_bisection_expands_its_bracket_when_needed():
    # Indices at deep states sit far outside the initial [-50, 50] window.
    deep = bisect_index(40, HEAVY, 0.4, 100)
    assert deep > 50.0
    assert abs(index_residual(deep, 40, HEAVY, 0.4, 100)) <= 1e-6


def test_bisection_without_a_sign_change_fails(monkeypatch):
    """A gap of one sign over all 40 windows has no bracket to bisect."""
    calls = []

    def gap(self, lam):
        calls.append(lam)
        return 1.0

    monkeypatch.setattr(whittle._FixedThresholdSystem, "gap", gap)
    with pytest.raises(ConvergenceError, match="no sign change"):
        bisect_index(3, HEAVY, 0.4, 40)
    assert len(calls) == 80  # both ends of each of the 40 windows


@pytest.mark.parametrize("root", [-50.0, 50.0, -150.0, 150.0])
def test_bisection_returns_a_root_on_a_window_end(monkeypatch, root):
    """Windows are [-50, 50], [-150, 150], ...: a root on an end of one
    is returned exactly, not approached by halving."""
    monkeypatch.setattr(whittle._FixedThresholdSystem, "gap",
                        lambda self, lam: lam - root)
    assert bisect_index(3, HEAVY, 0.4, 40) == root


def test_bisect_index_scan_keeps_the_residual_guard(monkeypatch):
    monkeypatch.setattr(whittle, "VALUE_RESIDUAL_TOL", 0.0)
    with pytest.raises(RuntimeError, match="residual"):
        bisect_index(3, HEAVY, 0.4, 100)


@pytest.mark.parametrize("solve", [
    lambda system: system.solve(np.nan),
    lambda system: system.solve(np.inf),
], ids=["solve_nan", "solve_inf"])
def test_non_finite_charges_fail_the_residual_guard(solve):
    """The solves skip scipy's finiteness check, so the guard must catch
    a NaN residual as well as a large one."""
    system = whittle._FixedThresholdSystem(HEAVY, 0.4, 3, 40)
    with np.errstate(invalid="ignore"), \
            pytest.raises(RuntimeError, match="value system residual nan"):
        solve(system)


def test_the_residual_guard_fails_with_a_convergence_error(monkeypatch):
    """Every solver's guard failure is a ConvergenceError, which the CLI
    reports as `error: ...`, and it carries the residual."""
    monkeypatch.setattr(whittle, "VALUE_RESIDUAL_TOL", -1.0)
    with pytest.raises(ConvergenceError,
                       match="value system residual") as exc:
        compute_index(3, HEAVY, 0.4, 40)
    assert exc.value.residual >= 0.0


class _ScipyValueSystem:
    """The value system stated with scipy.linalg.lu_factor and lu_solve.

    An independent statement of _FixedThresholdSystem's arithmetic: the
    same matrix and right-hand sides, each solve allocating afresh, the
    guard taken as np.max(np.abs(...)). The lean solves must match it
    bit for bit.
    """

    def __init__(self, server, p, x, n):
        active, passive = transition_kernel(server.q, p, n)
        m = n + 2
        self.a = np.zeros((m, m))
        self.a[: n + 1, : n + 1] = -threshold_rows(active, passive, x)
        self.a[np.arange(n + 1), np.arange(n + 1)] += 1.0
        self.a[: n + 1, n + 1] = 1.0
        self.a[n + 1, 0] = 1.0
        self.b0 = np.zeros(m)
        self.b0[: n + 1] = server.cost_c * np.arange(n + 1)
        self.b1 = np.zeros(m)
        self.b1[x + 1: n + 1] = 1.0
        self.lu = lu_factor(self.a)
        self.rows = active[max(x, 0)], passive[max(x, 0)]
        self.n = n

    def solve(self, lam):
        b = self.b0 + lam * self.b1
        u = lu_solve(self.lu, b)
        u += lu_solve(self.lu, b - self.a @ u)
        assert float(np.max(np.abs(self.a @ u - b))) <= 1e-9
        return u

    def gap(self, lam):
        v = self.solve(lam)[: self.n + 1]
        return float(self.rows[0] @ v - self.rows[1] @ v) - lam

    def gap_line(self):
        d = self.rows[0] - self.rows[1]
        v0 = lu_solve(self.lu, self.b0)[: self.n + 1]
        v1 = lu_solve(self.lu, self.b1)[: self.n + 1]
        return float(d @ v0), float(d @ v1) - 1.0


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("q,p", [(0.3, 0.1), (0.55, 0.4), (0.9, 0.8)])
def test_lean_solves_match_the_scipy_formulation_bit_for_bit(q, p):
    server = ServerParams(q=q, cost_c=3.5)
    for x, n in ((-1, 1), (0, 1), (0, 6), (3, 4), (12, 13), (12, 30)):
        system = whittle._FixedThresholdSystem(server, p, x, n)
        ref = _ScipyValueSystem(server, p, x, n)
        assert _same(system.gap_line(), ref.gap_line())
        for lam in (-7.5, 0.0, 2.5, 31.0):
            want = ref.solve(lam)
            sol = system.solve(lam)
            assert _same(sol.v, want[: n + 1])
            assert _same(sol.beta, want[n + 1])
            assert _same(system.gap(lam + 1.0), ref.gap(lam + 1.0))
            assert _same(sol.v, want[: n + 1])  # gap reused no buffer of v


ASSEMBLY_PAIRS = [(0.55, 0.4), (0.95, 0.4), (0.55, 0.9), (0.0427, 0.6161)]
# Truncations n = 61..65, each at its end, middle and first thresholds.
WIDE_CASES = [(x, n) for n in range(61, 66) for x in (-1, 0, n // 2, n - 1)]


@pytest.mark.parametrize("q,p", ASSEMBLY_PAIRS)
def test_the_system_is_the_kernel_assembly_bit_for_bit(q, p):
    """The matrix written from the cached blocks, its right-hand sides,
    balance rows and LU equal those of transition_kernel + threshold_rows,
    whose active rows 0..x never see the buffer clamp at n."""
    server = ServerParams(q=q, cost_c=3.5)
    cases = [(x, n) for x in range(-1, 16)
             for n in (x + 1, x + 5, 120) if n >= 1] + WIDE_CASES
    for x, n in cases:
        system = whittle._FixedThresholdSystem(server, p, x, n)
        _assert_same_system(system, _ScipyValueSystem(server, p, x, n))


def _assert_same_system(system, ref):
    lu, piv, info = whittle.dgetrf(ref.a)
    assert info == 0
    assert system._a.flags.c_contiguous
    cell = (system.threshold_x, system.n)
    for got, want in ((system._a, ref.a), (system._b0, ref.b0),
                      (system._b1, ref.b1), (system._lu, lu),
                      (system._piv, piv),
                      (system.active_row, ref.rows[0]),
                      (system.passive_row, ref.rows[1])):
        assert got.shape == want.shape, cell
        assert _same(got, want), cell
    # Views of the shared kernel, which nothing may write through.
    assert not system.active_row.flags.writeable
    assert not system.passive_row.flags.writeable


@pytest.mark.parametrize("x_max", [1, 62, 63, 64, 100])
@pytest.mark.parametrize("q,p", ASSEMBLY_PAIRS)
def test_a_table_row_is_the_kernel_assembly_bit_for_bit(q, p, x_max):
    """Every cell of a row, sliced from one kernel over exactly states
    0..x_max+1, has the matrix, right-hand sides, balance rows and LU of
    transition_kernel + threshold_rows at its own n = x + 1."""
    server = ServerParams(q=q, cost_c=3.5)
    cells = list(whittle._row_systems(server, p, x_max))
    assert len(cells) == x_max + 1
    for x, system in enumerate(cells):
        assert (system.threshold_x, system.n) == (x, x + 1)
        _assert_same_system(system, _ScipyValueSystem(server, p, x, x + 1))


def test_a_table_evaluates_the_pmf_only_over_its_states(pmf_sizes):
    """Cells 0..40 live on states 0..41: 42 * 43 / 2 = 903 lower-triangle
    pmf entries per server."""
    build_index_table(FIG3, x_max=40)
    assert pmf_sizes == [903] * 3


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "gap", "tiny"])
def test_index_table_matches_the_scipy_formulation_bit_for_bit(name):
    loaded = load_config(ROOT / "configs" / f"{name}.yaml")
    cfg = loaded.system
    for x_max in (loaded.whittle.x_max, 100):
        table = build_index_table(cfg, x_max=x_max)
        for i, server in enumerate(cfg.servers):
            for x in range(x_max + 1):
                ref = _ScipyValueSystem(server, cfg.arrival_p, x, x + 1)
                g0, slope = ref.gap_line()
                lam = -g0 / slope
                assert abs(ref.gap(lam)) <= 1e-6
                assert _same(table.entries[i, x], lam)


def test_a_singular_pivot_raises_a_convergence_error(monkeypatch):
    factor = whittle.dgetrf

    def singular(a):
        lu, piv, _ = factor(a)
        return lu, piv, 2
    monkeypatch.setattr(whittle, "dgetrf", singular)
    with pytest.raises(ConvergenceError, match="singular: pivot 2"):
        whittle._FixedThresholdSystem(HEAVY, 0.4, 3, 4)


@pytest.mark.parametrize("build,block,row", [
    (lambda: build_index_table(FIG3, x_max=2), 1, 3),
    (lambda: whittle._FixedThresholdSystem(HEAVY, 0.4, 3, 4), 0, 0),
], ids=["table_row", "oracle"])
def test_a_non_finite_kernel_is_refused(monkeypatch, build, block, row):
    """A NaN in a row a system reads is refused when the per-server
    kernel is built, before any factorisation: passive row 3, the last
    of a table row at x_max 2, and active row 0 of threshold 3 at
    n = 4."""
    real = whittle.transition_kernel

    def poisoned(q, p, n):
        blocks = [b.copy() for b in real(q, p, n)]
        blocks[block][row, 0] = np.nan
        return tuple(blocks)
    monkeypatch.setattr(whittle, "transition_kernel", poisoned)
    monkeypatch.setattr(whittle, "dgetrf", None)  # nothing is factored
    with pytest.raises(ValueError, match="infs or NaNs"):
        build()


# ---------------------------------------------------------------- #
# index tables                                                     #
# ---------------------------------------------------------------- #


def test_index_table_requires_monotone_rows():
    with pytest.raises(ValueError):
        IndexTable(entries=np.array([[1.0, 0.5, 2.0]]), x_max=2)
    with pytest.raises(ValueError):
        IndexTable(entries=np.array([[1.0, 2.0]]), x_max=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_index_table_rejects_non_finite_entries(bad):
    # NaN fails every comparison, so the monotonicity test alone lets it by.
    with pytest.raises(ValueError, match="indices must be finite"):
        IndexTable(entries=np.array([[1.0, bad]]), x_max=1)


def test_index_table_requires_two_points_to_extrapolate():
    # With x_max = 0 the slope would read row[-1], going silently flat.
    with pytest.raises(ValueError, match="x_max must be >= 1"):
        IndexTable(entries=np.array([[1.0]]), x_max=0)


def test_index_table_lookup_and_linear_extrapolation():
    row = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
    table = IndexTable(entries=row[None, :], x_max=4)
    assert table.lookup(0, 2) == 3.0
    # Past the last entry the slope through the final two points carries on.
    assert table.lookup(0, 5) == pytest.approx(14.0)
    assert table.lookup(0, 6) == pytest.approx(10.0 + 2 * (10.0 - 6.0))
    with pytest.raises(ValueError):
        table.lookup(0, -1)
    # Server -1 would read the last row silently.
    for server in (-1, 1):
        with pytest.raises(ValueError,
                           match=f"server must be in 0..0, got {server}"):
            table.lookup(server, 2)
    dense = table.dense_row(0, 7)
    assert np.allclose(dense[:5], row)
    assert dense[6] == pytest.approx(18.0)


def test_default_truncation():
    assert default_truncation(40, 100) == 100
    assert default_truncation(40, 25) == 80


def test_build_index_table_matches_per_state_solves():
    cfg = SystemConfig(arrival_p=0.4,
                       servers=(UNIT, ServerParams(q=0.55, cost_c=2.0)),
                       buffer=10)
    table = build_index_table(cfg, x_max=4)
    assert table.entries.shape == (2, 5)
    for i, server in enumerate(cfg.servers):
        for x in range(5):
            solo = compute_index(x, server, 0.4, cfg.buffer)
            assert table.lookup(i, x) == pytest.approx(solo, abs=1e-4)
        assert np.all(np.diff(table.entries[i]) >= -1e-7)


def test_build_index_table_rejects_trivial_range():
    cfg = SystemConfig(arrival_p=0.4, servers=(UNIT,), buffer=10)
    with pytest.raises(ValueError):
        build_index_table(cfg, x_max=0)


FIG3 = SystemConfig(arrival_p=0.4,
                    servers=(ServerParams(q=0.55, cost_c=30.0),
                             ServerParams(q=0.50, cost_c=29.0),
                             ServerParams(q=0.45, cost_c=28.0)),
                    buffer=100)


def test_build_index_table_matches_bisection_on_fig3():
    table = build_index_table(FIG3, x_max=40)
    for i, server in enumerate(FIG3.servers):
        for x in (0, 1, 7, 20, 40):
            ref = bisect_index(x, server, FIG3.arrival_p, FIG3.buffer)
            assert table.entries[i, x] == pytest.approx(ref, abs=1e-6)


def test_build_index_table_does_not_read_the_buffer():
    """Cell x is solved on states 0..x+1, the states the threshold-x
    policy visits from empty, so no buffer can change it."""
    want = build_index_table(FIG3, x_max=40).entries
    for buffer in (400, 800):
        got = build_index_table(replace(FIG3, buffer=buffer), x_max=40)
        assert np.array_equal(got.entries, want)


def test_build_index_table_refuses_a_truncation():
    cfg = SystemConfig(arrival_p=0.4, servers=(UNIT,), buffer=10)
    assert build_index_table(cfg, 4, None, None).entries.shape == (1, 5)
    with pytest.raises(ValueError, match="iter_cfg and n are retired"):
        build_index_table(cfg, 4, None, 10)


@pytest.mark.parametrize("iter_cfg", [
    IndexIterationConfig(tol=1e300), IndexIterationConfig(tol=1e-9),
    IndexIterationConfig(gamma=0.5), IndexIterationConfig(max_iter=10),
    IndexIterationConfig(lambda0=3.0)])
def test_build_index_table_refuses_an_iteration_config(iter_cfg):
    """The roots are checked at the fixed IndexIterationConfig.tol: a
    caller's config is refused unless it equals the default, which
    perfbench passes positionally."""
    cfg = SystemConfig(arrival_p=0.4, servers=(UNIT,), buffer=10)
    default = IndexIterationConfig(0.1, 1e-6, 100_000)
    assert np.array_equal(build_index_table(cfg, 4, default, None).entries,
                          build_index_table(cfg, 4).entries)
    with pytest.raises(ValueError, match="iter_cfg and n are retired"):
        build_index_table(cfg, 4, iter_cfg)


def test_build_index_table_solves_an_overloaded_queue():
    # p = 0.9 against q = 0.5: the gap's slope is close to zero here, so
    # the damped iteration stalls at state 5; the closed form does not.
    cfg = SystemConfig(arrival_p=0.9,
                       servers=(ServerParams(q=0.5, cost_c=1.0),),
                       buffer=20)
    table = build_index_table(cfg, x_max=10)
    ref = bisect_index(5, cfg.servers[0], 0.9, 20)
    assert ref == pytest.approx(2050.1195, abs=1e-3)
    assert table.entries[0, 5] == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("slope", [0.0, float("nan"), float("inf")])
def test_build_index_table_rejects_a_gap_without_a_root(monkeypatch, slope):
    monkeypatch.setattr(whittle._FixedThresholdSystem, "gap_line",
                        lambda self: (1.0, slope))
    cfg = SystemConfig(arrival_p=0.4, servers=(UNIT,), buffer=10)
    with pytest.raises(ConvergenceError, match="server 0, state 0"):
        build_index_table(cfg, x_max=2)


def test_build_index_table_carries_the_root_of_a_gap_above_tol(monkeypatch):
    # A wrong line puts the root at lam = 1, where the true gap is not 0.
    monkeypatch.setattr(whittle._FixedThresholdSystem, "gap_line",
                        lambda self: (1.0, -1.0))
    cfg = SystemConfig(arrival_p=0.4, servers=(UNIT,), buffer=10)
    with pytest.raises(ConvergenceError,
                       match="server 0, state 0: closed-form index") as exc:
        build_index_table(cfg, x_max=2)
    assert exc.value.iterate == 1.0
    assert abs(exc.value.residual) > 1e-6


def test_build_index_table_names_the_cell_of_a_guard_failure(monkeypatch):
    monkeypatch.setattr(whittle, "VALUE_RESIDUAL_TOL", -1.0)
    cfg = SystemConfig(arrival_p=0.4, servers=(UNIT,), buffer=10)
    with pytest.raises(ConvergenceError,
                       match="server 0, state 0: value system residual"):
        build_index_table(cfg, x_max=2)
