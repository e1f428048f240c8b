"""Randomly permuted trials swept in lockstep: each trial of a stack equals
the trial run alone bit for bit, on composed and block-by-block sweeps, with
opaque terms and with trials that trip the divergence guard mid-block; and
the stacked divergence guard decides every row as max_abs does."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting import solvers
from coupled_splitting._linalg import max_abs
from coupled_splitting.rp import permutation_at

from gen import mixed_instance, scaled_identity_R

LIMIT = solvers.DIVERGENCE_LIMIT


def _assert_same_run(a, b):
    """Rows (every column, NaN where NaN, signs of zeros), iterates, status
    and final point equal bit for bit."""
    assert a.status == b.status and len(a) == len(b)
    for col in ("r_dual", "r_feas", "surrogate", "objective", "lyapunov", "surrogate_blocks", "path"):
        got, want = getattr(a, col), getattr(b, col)
        assert np.array_equal(got, want, equal_nan=True), col
        assert np.array_equal(np.signbit(got), np.signbit(want)), col
    assert np.array_equal(a.x, b.x, equal_nan=True) and np.array_equal(a.mu, b.mu, equal_nan=True)


def _assert_trials_run_alone(inst, cfg, trials, x0=None):
    """Trial t of a stack of trials equals trial 0 of a run seeded seed ^ t;
    returns the stack's traces."""
    traces, _ = cs.run_rp_solver(inst, cfg, x0=x0, trials=trials, keep_iterates=True)
    for t, trace in enumerate(traces):
        (alone,), _ = cs.run_rp_solver(inst, dataclasses.replace(cfg, seed=cfg.seed ^ t), x0=x0, keep_iterates=True)
        _assert_same_run(trace, alone)
    return traces


def _composes(inst, cfg):
    ws = solvers._Workspace(inst, cfg, n_orders=math.factorial(inst.blocks.n))
    return ws.composed


def test_trials_in_lockstep_equal_each_trial_alone():
    """On an all-direct instance (one stacked product per sweep), an l1
    instance and a 7-block instance past the map budget (block by block),
    trials that stop at different rows equal each trial run alone."""
    rng = np.random.default_rng(71)
    direct = mixed_instance(rng, (2, 1, 2), 2, ("zero", "quadratic", "zero"))
    lasso = mixed_instance(rng, (2, 3, 1), 2, ("l1", "zero", "l1"))
    seven = mixed_instance(rng, (2,) * 7, 4, ("zero",) * 7)
    for inst, composes in ((direct, True), (lasso, False), (seven, False)):
        cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.1, R=scaled_identity_R(inst, 1.1), tol=1e-9,
                              max_iter=3000, seed=5)
        assert _composes(inst, cfg) == composes
        traces = _assert_trials_run_alone(inst, cfg, 5, x0=3.0 * rng.standard_normal(inst.blocks.d))
        assert {t.status for t in traces} == {"converged"}
        assert len({len(t) for t in traces}) > 1, inst.blocks.dims


def test_opaque_trials_run_no_user_code_past_any_stop():
    """Trials with an opaque term equal each trial alone, and its prox runs
    once per kept sweep and its value once per kept row, summed over the
    trials: no trial calls user code past its stop."""
    calls = {"prox": 0, "value": 0}

    def prox(r, v):
        calls["prox"] += 1
        return np.sign(v) * np.maximum(np.abs(v) - 0.4 / r, 0.0)

    def value(x):
        calls["value"] += 1
        return 0.4 * float(np.sum(np.abs(x)))

    rng = np.random.default_rng(72)
    base = mixed_instance(rng, (2, 2, 1), 2, ("l1", "l1", "zero"))
    inst = dataclasses.replace(base, theta=(cs.ProxFn.opaque(prox, value=value),) + base.theta[1:])
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, R=scaled_identity_R(inst, 1.0), tol=1e-9,
                          max_iter=5000, seed=8)
    traces = _assert_trials_run_alone(inst, cfg, 4)
    assert {t.status for t in traces} == {"converged"} and len({len(t) for t in traces}) > 1
    for run_cfg in (cfg, dataclasses.replace(cfg, tol=0.0, max_iter=70)):
        calls.update(prox=0, value=0)
        traces, _ = cs.run_rp_solver(inst, run_cfg, trials=4)
        rows = sum(len(t) for t in traces)
        assert calls == {"prox": rows - 4, "value": rows}


def _chyy3():
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=3),
        H=np.zeros((3, 3)), g=np.zeros(3), A=A, b=np.array([1.0, 2.0, 3.0]),
    )


def test_trials_that_trip_the_guard_mid_block_leave_the_stack():
    """From a start near the divergence limit, some trials trip the guard a
    few sweeps in, at different rows inside the first block, while the others
    sweep on and converge in later blocks. Each equals the trial alone,
    keeps no row past its guard row, and nothing warns."""
    inst = _chyy3()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, tol=1e-9, max_iter=3000, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traces = _assert_trials_run_alone(inst, cfg, 8, x0=[8e11, 0.0, 0.0])
    diverged = [t for t in traces if t.status == "diverged"]
    converged = [t for t in traces if t.status == "converged"]
    assert len(diverged) >= 2 and len(converged) >= 2
    assert len({len(t) for t in diverged}) > 1 and all(len(t) - 1 < solvers.SWEEP_BLOCK for t in diverged)
    assert len({(len(t) - 1) // solvers.SWEEP_BLOCK for t in converged}) > 1
    for t in diverged:
        peaks = np.abs(t.path).max(axis=1)
        assert np.all(peaks[:-1] <= LIMIT) and not peaks[-1] <= LIMIT


def test_composed_trials_sweep_each_row_by_its_own_orders_map():
    """Each row of a composed stack of trials is the row before it under the
    map of the order the trial drew there (permutation_at), composed alone
    on a cyclic workspace, z -> T z + t, bit for bit: a row of the table
    gathered at another order's rank fails it."""
    rng = np.random.default_rng(73)
    inst = mixed_instance(rng, (1, 2, 1, 1), 2, ("zero", "quadratic", "zero", "zero"))
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.2, R=scaled_identity_R(inst, 1.2), tol=0.0, max_iter=150,
                          seed=9)
    assert _composes(inst, cfg)
    traces, _ = cs.run_rp_solver(inst, cfg, x0=rng.standard_normal(5), trials=3, keep_iterates=True)
    alone = solvers._Workspace(inst, cfg)
    for t, trace in enumerate(traces):
        path = trace.path
        assert len(path) == 151
        for k in range(150):
            T, c = alone.sweep_map(permutation_at(9 ^ t, k, 4))
            assert np.array_equal(path[k + 1], np.add(T.dot(path[k]), c)), (t, k)


def _parent_guard(Z):
    """The guard as one max_abs per row."""
    return np.array([not max_abs(z) <= LIMIT for z in Z])


@pytest.mark.parametrize("width", [1, 2, 7, 40])
def test_stacked_guard_decides_as_max_abs(width):
    """NaN, +-inf, values one ulp either side of the limit (and the limit
    itself, both signs) in one coordinate or spread over every coordinate,
    finite values whose squares overflow, and rows whose squares sum past the
    limit's square while every entry stays within it: each row of a stack
    and each row alone is past the limit exactly when max_abs says so."""
    below, above = np.nextafter(LIMIT, 0.0), np.nextafter(LIMIT, np.inf)
    rng = np.random.default_rng(73)
    rows = [np.zeros(width), rng.standard_normal(width)]
    for v in (np.nan, np.inf, -np.inf, below, above, -below, -above, LIMIT, -LIMIT, 1e200, -1e300):
        one = rng.standard_normal(width)
        one[rng.integers(width)] = v
        rows += [one, np.full(width, v)]
    rows.append(np.full(width, 0.75 * LIMIT))
    rows.append(np.where(np.arange(width) % 2, below, -below))
    Z = np.array(rows)
    want = _parent_guard(Z)
    assert want.any() and not want.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solvers._past_limit(Z)
        assert got is not None and np.array_equal(got, want)
        for z, past in zip(Z, want):
            alone = solvers._past_limit(z[None])
            assert (alone is not None and bool(alone[0])) == past, z
        past = solvers._past_limit(Z[~want])
        assert past is None or not past.any()
