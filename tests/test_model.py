"""Single-queue primitives: laws, validation, drift certificate."""

import math

import numpy as np
import pytest

from psindex import (ServerParams, SystemConfig, lyapunov_certificate,
                     lyapunov_margin, passive_kernel, transition_kernel,
                     validate_config)

from conftest import binom_departures, binom_row, enum_next_state, enum_row


def _support(row) -> dict[int, float]:
    """Nonzero entries of a dense law, keyed by state."""
    return {int(y): float(row[y]) for y in np.flatnonzero(row)}


# ---------------------------------------------------------------- #
# departure law                                                    #
# ---------------------------------------------------------------- #


def test_departure_pmf_two_jobs_frozen():
    # Binomial(2, 0.25): each of two jobs finishes w.p. q/x = 0.25.
    law = passive_kernel(0.5, 2)[2, ::-1]
    assert law.tolist() == pytest.approx([0.5625, 0.375, 0.0625], abs=1e-15)


def test_departure_pmf_empty_server_is_point_mass():
    assert passive_kernel(0.7, 3)[0].tolist() == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.55, 0.95])
def test_departure_mean_is_q_for_any_backlog(q):
    """E[D] = x * (q/x) = q regardless of how jobs share the server."""
    passive = passive_kernel(q, 200)
    for x in range(1, 201):
        assert abs(passive[x, x::-1] @ np.arange(x + 1) - q) <= 1e-12


def test_departure_pmf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        passive_kernel(0.0, 3)
    with pytest.raises(ValueError):
        passive_kernel(1.0, 3)


def test_passive_kernel_rejects_a_negative_size():
    with pytest.raises(ValueError, match="n=-1"):
        passive_kernel(0.5, -1)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 200, 255, 256])
@pytest.mark.parametrize("q", [1e-9, 0.05, 0.45, 0.55, 0.95, 1 - 1e-9])
def test_passive_kernel_equals_the_per_row_oracle_bit_for_bit(q, n):
    """The kernel calls scipy's private binomial pmf ufunc, so this
    comparison with the public scipy.stats.binom.pmf pins it, at
    extreme q as well."""
    passive = passive_kernel(q, n)
    assert passive.shape == (n + 1, n + 1)
    want = np.zeros((n + 1, n + 1))
    for x in range(n + 1):
        want[x, x::-1] = binom_departures(x, q)
    assert passive.tobytes() == want.tobytes()


# ---------------------------------------------------------------- #
# one-slot transition law                                          #
# ---------------------------------------------------------------- #


def test_next_state_pmf_active_frozen():
    active, _ = transition_kernel(0.5, 0.4, 10)
    assert _support(active[1]) == pytest.approx({0: 0.3, 1: 0.5, 2: 0.2},
                                                abs=1e-15)


def test_next_state_pmf_empty_active_frozen():
    active, _ = transition_kernel(0.5, 0.4, 10)
    assert _support(active[0]) == pytest.approx({0: 0.6, 1: 0.4}, abs=1e-15)


def test_next_state_pmf_passive_admits_nothing():
    _, passive = transition_kernel(0.5, 0.4, 10)
    assert _support(passive[0]) == {0: 1.0}
    assert not np.triu(passive, 1).any()
    assert _support(passive[3]) == pytest.approx(
        enum_next_state(3, 0.5, 0.4, False, 10))


@pytest.mark.parametrize("active", [True, False])
@pytest.mark.parametrize("x,q,p,buffer", [
    (0, 0.5, 0.4, 3), (1, 0.5, 0.4, 3), (3, 0.5, 0.4, 3),
    (5, 0.55, 0.4, 5), (7, 0.95, 0.1, 12), (12, 0.2, 0.15, 12),
])
def test_next_state_pmf_matches_enumeration(x, q, p, buffer, active):
    kernel = transition_kernel(q, p, buffer)[0 if active else 1]
    got = _support(kernel[x])
    want = enum_next_state(x, q, p, active, buffer)
    assert set(got) == set(want)
    for s in want:
        assert got[s] == pytest.approx(want[s], abs=1e-14)


def test_next_state_pmf_clamps_at_buffer():
    active, _ = transition_kernel(0.5, 0.4, 4)
    # The clamped arrival folds into staying at the buffer.
    passive = enum_next_state(4, 0.5, 0.4, False, 4)
    stay = passive[4]  # no departure
    assert active[4, 4] == pytest.approx(stay * 0.6 + stay * 0.4
                                         + passive[3] * 0.4, abs=1e-14)


def test_active_law_is_passive_convolved_with_arrival():
    buffer = 40
    active, _ = transition_kernel(0.55, 0.4, buffer)
    for x in range(0, 31):
        passive = enum_row(x, 0.55, 0.4, False, buffer)
        conv = 0.6 * passive + 0.4 * np.roll(passive, 1)
        conv[0] = 0.6 * passive[0]
        assert np.allclose(active[x], conv, atol=1e-14)


def test_next_state_pmf_rejects_state_outside_buffer():
    # The kernel's states are 0..buffer, and a buffer must hold a job.
    active, passive = transition_kernel(0.5, 0.4, 4)
    assert active.shape == passive.shape == (5, 5)
    with pytest.raises(ValueError):
        transition_kernel(0.5, 0.4, 0)


def test_transition_row_is_dense_and_stochastic():
    row = transition_kernel(0.5, 0.4, 10)[0][3]
    assert row.shape == (11,)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(row - binom_row(3, 0.5, 0.4, True, 10))) <= 1e-15


@pytest.mark.parametrize("q,p,n", [
    (0.5, 0.4, 1), (0.55, 0.4, 100), (0.3, 0.9, 20), (0.95, 0.05, 2),
    (0.45, 0.4, 150),
])
def test_transition_kernel_matches_rows(q, p, n):
    active, passive = transition_kernel(q, p, n)
    assert active.shape == passive.shape == (n + 1, n + 1)
    for x in range(n + 1):
        assert np.max(np.abs(active[x] - binom_row(x, q, p, True, n))) \
            <= 1e-15
        assert np.max(np.abs(passive[x] - binom_row(x, q, p, False, n))) \
            <= 1e-15


@pytest.mark.parametrize("n", [1, 62, 63, 64, 65, 127, 128])
@pytest.mark.parametrize("p", [0.1, 0.4, 0.9])
def test_transition_kernel_equals_the_direct_formula_bit_for_bit(p, n):
    """The cached active block is (1-p) passive + p shift with the
    clamp at n."""
    for q in (0.05, 0.55, 0.95):
        passive = passive_kernel(q, n)
        want = (1.0 - p) * passive
        want[:, 1:] += p * passive[:, :-1]
        want[n, n] += p * passive[n, n]
        active, got = transition_kernel(q, p, n)
        assert active.tobytes() == want.tobytes()
        assert got.tobytes() == passive.tobytes()


def test_kernels_are_the_shared_read_only_cached_blocks():
    """A repeated call hands out the same two arrays, which no caller
    may edit."""
    active, passive = transition_kernel(0.55, 0.4, 70)
    again = transition_kernel(0.55, 0.4, 70)
    assert again[0] is active and again[1] is passive
    assert passive_kernel(0.55, 70) is passive
    for m in (active, passive):
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[3, 1] = 7.0


@pytest.mark.parametrize("n", [1, 41, 62, 63, 64, 100])
def test_transition_kernel_is_a_corner_of_a_larger_kernel_but_its_clamp(n):
    """Built at exactly n + 1 states: the active rows below n and the
    whole passive block are the top-left corners of the kernel over
    0..200, bit for bit, and active row n adds the clamp at n to the
    larger passive row, so a table row's kernel and an oracle's kernel
    over fewer states hold the same entries."""
    for q, p in ((0.05, 0.9), (0.55, 0.4), (0.95, 0.1)):
        active, passive = transition_kernel(q, p, n)
        big_active, big_passive = transition_kernel(q, p, 200)
        assert active.shape == passive.shape == (n + 1, n + 1)
        assert active[:n].tobytes() == big_active[:n, : n + 1].tobytes()
        assert passive.tobytes() == big_passive[: n + 1, : n + 1].tobytes()
        row = big_passive[n, : n + 1]
        want = (1.0 - p) * row
        want[1:] += p * row[:-1]
        want[n] += p * row[n]
        assert active[n].tobytes() == want.tobytes()


def test_transition_kernel_rejects_bad_arguments():
    for q, p, n, match in ((0.0, 0.4, 5, "q must"), (0.5, 1.0, 5, "p must"),
                           (0.5, 0.4, 0, "n must")):
        with pytest.raises(ValueError, match=match):
            transition_kernel(q, p, n)


# ---------------------------------------------------------------- #
# configuration validation                                         #
# ---------------------------------------------------------------- #


def _cfg(**kw):
    base = dict(arrival_p=0.4,
                servers=(ServerParams(q=0.55, cost_c=30.0),
                         ServerParams(q=0.5, cost_c=29.0)),
                buffer=100)
    base.update(kw)
    return SystemConfig(**base)


def test_validate_config_accepts_reference_setup():
    assert validate_config(_cfg()).ok


def test_validate_config_flags_each_violation():
    report = validate_config(_cfg(arrival_p=1.5,
                                  servers=(ServerParams(q=0.0, cost_c=-1.0),),
                                  buffer=0))
    text = "\n".join(report.violations)
    assert not report.ok
    assert "arrival_p outside (0,1)" in text
    assert "servers[0].q=0 outside (0,1)" in text
    assert "servers[0].cost_c=-1 not > 0" in text
    assert "buffer=0 not >= 1" in text
    inf = validate_config(_cfg(servers=(ServerParams(q=0.5, cost_c=np.inf),)))
    assert "servers[0].cost_c=inf not finite" in inf.violations


def test_validate_config_strict_mode_extras():
    lax = _cfg(servers=(ServerParams(q=0.5, cost_c=2.0),
                        ServerParams(q=0.5, cost_c=1.0)))
    assert validate_config(lax).ok
    strict = _cfg(servers=(ServerParams(q=0.5, cost_c=2.0),
                           ServerParams(q=0.5, cost_c=1.0)),
                  strict_stability_mode=True)
    text = "\n".join(validate_config(strict).violations)
    assert "q values not strictly decreasing" in text
    assert "q_min=0.5 <= 2p=0.8" in text


# ---------------------------------------------------------------- #
# drift certificate                                                #
# ---------------------------------------------------------------- #


def test_lyapunov_margin_frozen_values():
    assert lyapunov_margin(0.1, 0.45, 0.5) == pytest.approx(0.0236584,
                                                            abs=1e-6)
    # At a = 1.0 the arrival side dominates and the margin goes negative.
    assert 0.1 * (math.e - 1.0) == pytest.approx(0.171828, abs=1e-6)
    assert 0.5 * 0.45 * (1.0 - math.exp(-1.0)) == pytest.approx(0.142227,
                                                                abs=1e-6)
    assert lyapunov_margin(0.1, 0.45, 1.0) < 0.0


def test_lyapunov_certificate_maximises_the_margin():
    cert = lyapunov_certificate(0.1, 0.45)
    assert cert is not None
    assert cert.b > 0.0
    assert cert.b == pytest.approx(lyapunov_margin(0.1, 0.45, cert.a),
                                   abs=1e-15)
    for a in np.linspace(0.01, 5.0, 200):
        assert lyapunov_margin(0.1, 0.45, float(a)) <= cert.b + 1e-9


@pytest.mark.parametrize("p,q_min", [(0.1, 0.45), (0.2, 0.55), (0.01, 0.05),
                                     (0.24, 0.5), (1e-5, 0.99)])
def test_lyapunov_certificate_takes_the_closed_form_maximiser(p, q_min):
    cert = lyapunov_certificate(p, q_min)
    root = 0.5 * math.log(q_min / (2.0 * p))
    slope = 0.5 * q_min * math.exp(-cert.a) - p * math.exp(cert.a)
    if root > 5.0:  # p = 1e-5, q_min = 0.99: root 5.41, capped
        assert cert.a == 5.0
        assert slope > 0.0
    else:
        assert cert.a == pytest.approx(root, rel=1e-15)
        assert abs(slope) <= 1e-15
    assert cert.b == lyapunov_margin(p, q_min, cert.a)


def test_lyapunov_certificate_requires_q_min_above_2p():
    assert lyapunov_certificate(0.4, 0.55) is None
    assert lyapunov_certificate(0.25, 0.5) is None
    with pytest.raises(ValueError):
        lyapunov_certificate(0.0, 0.5)
