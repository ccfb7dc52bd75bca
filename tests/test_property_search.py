"""Property-based search over the model's parameters (hypothesis).

Every property runs under one fixed profile: derandomized, with no
example database and no deadline, so each run draws the same examples
and Tier-1 stays deterministic. A failure shrinks to the smallest case
hypothesis can find. A property that fails because of a known defect
is a strict xfail, so the fix has to flip it.
"""

import contextlib
import io
import shutil
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, find, given, settings, strategies as st
from hypothesis.errors import NoSuchExample

from psindex import (CmuPolicy, ConvergenceError, RandomPolicy,
                     ServerParams, SystemConfig, build_index_table, policies,
                     sim, simulate, stationary_distribution)
from psindex.cli import ConfigError, load_config, main
from psindex.model import passive_kernel, transition_kernel
from psindex.threshold import stationary_ladder, threshold_rows


def search(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


rates = st.floats(0.02, 0.98)
costs = st.sampled_from([0.1, 1.0, 30.0])


@search(60)
@given(q=rates, n=st.integers(1, 200))
def test_passive_rows_are_probability_vectors_with_mean_q(q, n):
    passive = passive_kernel(q, n)
    shift = np.subtract.outer(np.arange(n + 1), np.arange(n + 1))
    assert (passive >= 0.0).all()
    assert np.abs(passive.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs((passive * shift).sum(axis=1)[1:] - q).max() <= 1e-12


@search(60)
@given(q=rates, p=rates, size=st.integers(1, 40))
def test_each_ladder_column_is_its_chains_stationary_law(q, p, size):
    active, passive = transition_kernel(q, p, size)
    laws = stationary_ladder(active, passive)
    for k in range(size):
        chain = threshold_rows(active, passive, k)[: k + 2, : k + 2]
        assert not laws[k + 2:, k].any()
        assert np.allclose(laws[: k + 2, k], stationary_distribution(chain),
                           rtol=1e-12, atol=0.0)


def _one_server_table(q, p, c):
    cfg = SystemConfig(arrival_p=p, servers=(ServerParams(q=q, cost_c=c),),
                       buffer=20)
    return build_index_table(cfg, x_max=20)


@search(60)
@given(q=rates, p=rates, c=costs)
def test_a_one_server_table_to_20_builds_wherever_q_exceeds_p(q, p, c):
    assume(q > p)
    entries = _one_server_table(q, p, c).entries
    assert np.isfinite(entries).all()
    assert (np.diff(entries) >= 0.0).all()


def _aborts(case):
    try:
        _one_server_table(*case)
    except ConvergenceError:
        return True
    return False


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="defect 1: no index table for a server with "
                   "p >= q past x of about 5-30")
def test_a_one_server_table_to_20_builds_for_every_q_and_p():
    """A search for a (q, p, c) whose table aborts, which passes only
    when it finds none. Unlike a failing @given test, find records no
    falsifying example to the working directory."""
    try:
        case = find(st.tuples(rates, rates, costs), _aborts,
                    settings=search(60))
    except NoSuchExample:
        return
    raise AssertionError(f"the table of (q, p, c) = {case} aborts")


# One to four servers' score rows of one length, small integers so
# that most draws tie.
score_rows = st.tuples(st.integers(1, 4), st.integers(1, 8)).flatmap(
    lambda shape: st.lists(st.lists(st.integers(-2, 2), min_size=shape[1],
                                    max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))


@search(60)
@given(rows=score_rows)
def test_the_argmin_table_is_np_argmin_over_the_grid(rows):
    """np.argmin over the stacked full grid, ties to the lowest server."""
    states = np.indices((len(rows[0]),) * len(rows))
    grid = np.stack([np.asarray(r, dtype=float)[x]
                     for r, x in zip(rows, states)])
    want = np.argmin(grid, axis=0).astype(np.uint8).tobytes()
    assert policies._argmin_table(rows) == want


banks = st.builds(
    lambda p, servers, buffer: SystemConfig(arrival_p=p, servers=servers,
                                            buffer=buffer),
    rates,
    st.lists(st.builds(ServerParams, q=rates, cost_c=costs),
             min_size=1, max_size=3).map(tuple),
    st.integers(1, 6))


@pytest.mark.skipif(shutil.which("cc") is None,
                    reason="no C compiler on the path")
@search(60)
@given(cfg=banks, rule=st.sampled_from(["cmu", "random"]),
       seed=st.integers(0, 2 ** 40))
def test_the_compiled_and_python_kernels_give_equal_reports(cfg, rule, seed):
    policy = (CmuPolicy(cfg.servers) if rule == "cmu"
              else RandomPolicy(cfg.num_servers))
    assert sim._slot_loop() is not None, "cc did not build the slot loop"
    compiled = simulate(cfg, policy, horizon=3_000, burn_in=300, seed=seed)
    with mock.patch.object(sim, "_slot_loop", lambda: None):
        python = simulate(cfg, policy, horizon=3_000, burn_in=300, seed=seed)
    assert compiled == python


# Config files: each key known or not (text or an int), each value any
# YAML scalar (nan and inf included), a list of them or null.
scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 200),
                    st.floats(), st.text(max_size=4))
values = st.one_of(scalars, st.lists(scalars, max_size=3))


def _mapping(*known):
    keys = st.one_of(st.sampled_from(known), st.text(max_size=4),
                     st.integers(-2, 2))
    return st.dictionaries(keys, values, max_size=4)


config_files = st.builds(
    lambda given, unknown: yaml.safe_dump({**unknown, **given}),
    st.fixed_dictionaries({}, optional={
        "arrival_p": st.one_of(st.floats(0.05, 0.95), values),
        "buffer": st.one_of(st.integers(1, 20), values),
        "servers": st.one_of(st.lists(_mapping("q", "cost_c"), max_size=3),
                             values),
        "strict_stability_mode": values,
        "whittle": st.one_of(_mapping("x_max"), values),
        "sim": st.one_of(_mapping("horizon", "burn_in", "seeds"), values)}),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-2, 2)),
                    values, max_size=2))


@search(60)
@given(text=config_files)
def test_load_config_loads_or_raises_a_config_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("config") / "bank.yaml"
    path.write_text(text)
    try:
        load_config(path)
    except ConfigError:
        pass


def _bank_files(max_servers, max_buffer):
    """YAML of a bank that `validate` may accept, each cost anywhere
    from 0 to 1e300."""
    server = st.fixed_dictionaries({"q": rates,
                                    "cost_c": st.floats(0.0, 1e300)})
    return st.builds(
        lambda p, servers, buffer: yaml.safe_dump(
            {"arrival_p": p, "servers": servers, "buffer": buffer}),
        rates, st.lists(server, min_size=1, max_size=max_servers),
        st.integers(1, max_buffer))


def _exits_0_1_or_2_without_a_traceback(tmp_path_factory, text, *argv):
    path = tmp_path_factory.mktemp("config") / "bank.yaml"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(path),
                     "--out", str(path.parent)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@search(60)
@given(text=config_files)
def test_validate_exits_0_1_or_2_without_a_traceback(tmp_path_factory, text):
    _exits_0_1_or_2_without_a_traceback(tmp_path_factory, text, "validate")


@search(60)
@given(text=st.one_of(config_files, _bank_files(3, 20)))
def test_indices_exits_0_1_or_2_without_a_traceback(tmp_path_factory, text):
    _exits_0_1_or_2_without_a_traceback(tmp_path_factory, text, "indices",
                                        "--x-max", "5")


@search(60)
@given(text=_bank_files(2, 4))
def test_exact_exits_0_1_or_2_without_a_traceback(tmp_path_factory, text):
    _exits_0_1_or_2_without_a_traceback(tmp_path_factory, text, "exact")


@search(60)
@given(text=_bank_files(3, 20),
       policy=st.sampled_from(["whittle", "cmu", "random"]))
def test_simulate_exits_0_1_or_2_without_a_traceback(tmp_path_factory, text,
                                                     policy):
    """A horizon above the default burn-in of 10 000 slots."""
    x_max = ["--x-max", "5"] if policy == "whittle" else []
    _exits_0_1_or_2_without_a_traceback(
        tmp_path_factory, text, "simulate", "--policy", policy,
        "--horizon", "20000", *x_max)


@search(60)
@given(text=_bank_files(3, 20))
def test_compare_exits_0_1_or_2_without_a_traceback(tmp_path_factory, text):
    """Two seeds, the fewest compare's intervals take, each above the
    default burn-in of 10 000 slots."""
    _exits_0_1_or_2_without_a_traceback(
        tmp_path_factory, text, "compare", "--horizon", "20000", "--seeds",
        "2", "--x-max", "5")
