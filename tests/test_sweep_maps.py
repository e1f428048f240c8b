"""Composed sweeps: when every block is direct (swept without a prox), one
sweep in a block order is one affine map z -> T z + t, which the engine
composes under a byte budget, a randomly permuted run all n! orders at once
into one table. Composed sweeps agree with the block-by-block loop of
tests/oracles.py to rounding; the rule that picks them depends on the
instance, the variant and the kind of run only; each table row is its order's
map composed alone, bit for bit, at the order's lexicographic rank; a map
composed on a workspace past the budget, which keeps none, has the bits of a
kept one; and every run the rule does not compose equals the block-by-block
loop bit for bit."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting import solvers
from coupled_splitting.rp import permutation_at

from gen import mixed_instance, random_psd, scaled_identity_R, violating_instance
from oracles import engine_sweep, per_block_sweep

# composed and block-by-block sweeps from the same point, relative to
# 1 + the largest magnitude of the block-by-block result
COMPOSED_TOL = 1e-14


def _direct_cases():
    """(instance, cfg, min_norm) triples whose blocks are all direct:
    admm_cyclic_n with user R and gamma != 1, bcd without rows, admm2 and
    its linearization with quadratic and zero terms, and the minimum-norm
    maps of a singular two-block instance."""
    rng = np.random.default_rng(61)
    cases = []
    inst = mixed_instance(rng, (2, 3, 1, 2), 3, ("zero", "quadratic", "zero", "quadratic"))
    R = [0.5, None, random_psd(rng, 1), 0.2 * np.eye(2)]
    cases.append((inst, cs.SolverConfig(variant="admm_cyclic_n", beta=1.3, gamma=1.4, R=R), False))
    cases.append((inst, cs.SolverConfig(variant="admm_cyclic_n", beta=0.7, gamma=0.6), False))
    free = mixed_instance(rng, (1, 3, 2), 0, ("quadratic", "zero", "zero"))
    cases.append((free, cs.SolverConfig(variant="bcd", beta=2.0, gamma=1.2, R=[None, 0.3, None]), False))
    pair = mixed_instance(rng, (3, 2), 2, ("quadratic", "quadratic"))
    cases.append((pair, cs.SolverConfig(variant="admm2", beta=1.7, gamma=1.3, R=scaled_identity_R(pair, 1.7)), False))
    cases.append((pair, cs.SolverConfig(variant="admm2", beta=0.9), False))
    zero_pair = mixed_instance(rng, (2, 2), 1, ("zero", "zero"))
    cases.append((zero_pair, cs.SolverConfig(variant="admm2_linearized", beta=1.1, gamma=0.8), False))
    singular, _ = violating_instance(rng)
    cases.append((singular, cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.2), True))
    return rng, cases


def test_composed_sweeps_match_the_per_block_loop():
    """Every order's composed sweep against the block-by-block loop, one
    sweep at a time along the loop's own trajectory, for the cyclic and for
    random orders; each composed alone, then kept in the workspace's table
    with every other order's map."""
    rng, cases = _direct_cases()
    for inst, cfg, min_norm in cases:
        n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
        ws = solvers._Workspace(inst, cfg, min_norm=min_norm, random_orders=True)
        assert ws.composed and "sweep_table" not in ws.__dict__
        orders = [tuple(range(n))] + [tuple(int(v) for v in rng.permutation(n)) for _ in range(20)]
        z = np.concatenate([3.0 * rng.standard_normal(d), rng.standard_normal(m)])
        for order in orders:
            want, got = z.copy(), z.copy()
            per_block_sweep(ws, want, order)
            engine_sweep(ws, got, order)
            scale = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= COMPOSED_TOL * scale, (cfg.variant, order)
            z = want
        assert "sweep_table" not in ws.__dict__
        T, t = ws.sweep_table
        assert len(T) == len(t) == math.factorial(n)
        alone = solvers._Workspace(inst, cfg, min_norm=min_norm)
        for order in orders:
            rank = solvers._ranks(np.array(order))
            for got, want in zip((T[rank], t[rank]), alone.sweep_map(order)):
                assert np.array_equal(got, want), (cfg.variant, order)


def test_step_and_runs_compose_the_same_maps():
    """A composed run's rows come from the same maps as cs.step: a cyclic
    run is a loop of cyclic steps, bit for bit."""
    rng, cases = _direct_cases()
    inst, cfg, _ = cases[0]
    run_cfg = dataclasses.replace(cfg, tol=0.0, max_iter=70)
    x0 = rng.standard_normal(inst.blocks.d)
    trace = cs.run_solver(inst, run_cfg, x0=x0, keep_iterates=True)
    state = cs.IterateState.start(inst, x0=x0)
    for x, mu in trace.iterates[1:]:
        state = cs.step(inst, cfg, state)
        assert np.array_equal(x, state.x) and np.array_equal(mu, state.mu)


def test_maps_past_the_budget_give_the_cached_bits(monkeypatch):
    """A workspace whose maps of all the orders it can draw do not fit the
    budget does not compose, yet sweep_map still composes any order: for a
    7-block randomly permuted run, to rounding of the block-by-block loop
    and to the bits of a cyclic workspace, which composes; for a
    minimum-norm workspace built under a budget one byte short of its two
    orders' maps (it composes at exactly their size), to the bits of a
    composing workspace's table."""
    rng, cases = _direct_cases()
    seven = mixed_instance(rng, (2,) * 7, 4, ("zero", "quadratic") * 3 + ("zero",))
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.3, gamma=0.7, R=scaled_identity_R(seven, 1.3))
    unkept = solvers._Workspace(seven, cfg, random_orders=True)
    cyclic = solvers._Workspace(seven, cfg)
    assert not unkept.composed and cyclic.composed
    z = np.concatenate([rng.standard_normal(14), rng.standard_normal(4)])
    for order in [tuple(range(7))] + [tuple(int(v) for v in rng.permutation(7)) for _ in range(10)]:
        T, t = unkept.sweep_map(order)
        want = z.copy()
        per_block_sweep(unkept, want, order)
        assert np.max(np.abs(T.dot(z) + t - want)) <= COMPOSED_TOL * (1.0 + np.max(np.abs(want))), order
        for got, alone in zip((T, t), cyclic.sweep_map(order)):
            assert np.array_equal(got, alone), order
    singular, singular_cfg, _ = cases[-1]
    size = singular.blocks.d + singular.blocks.m
    assert singular.blocks.n == 2
    monkeypatch.setattr(solvers, "SWEEP_MAP_BYTES", 2 * 8 * size * (size + 1) - 1)
    unkept = solvers._Workspace(singular, singular_cfg, min_norm=True, random_orders=True)
    monkeypatch.setattr(solvers, "SWEEP_MAP_BYTES", 2 * 8 * size * (size + 1))
    assert solvers._Workspace(singular, singular_cfg, min_norm=True, random_orders=True).composed
    monkeypatch.undo()
    kept = solvers._Workspace(singular, singular_cfg, min_norm=True, random_orders=True)
    assert not unkept.composed and kept.composed
    T, t = kept.sweep_table
    for rank, order in enumerate(itertools.permutations(range(2))):
        for got, want in zip(unkept.sweep_map(order), (T[rank], t[rank])):
            assert np.array_equal(got, want), order
    assert "sweep_table" not in unkept.__dict__ and "sweep_table" not in cyclic.__dict__


def test_composition_rule_is_per_instance_variant_and_kind_of_run():
    """Composed when every block is direct and the maps of all orders the
    run can draw fit SWEEP_MAP_BYTES: one order for a cyclic run or a
    cyclic step, n! for a randomly permuted run or a step in a given order."""
    rng = np.random.default_rng(62)
    five = mixed_instance(rng, (2,) * 5, 3, ("zero",) * 5)
    seven = mixed_instance(rng, (2,) * 7, 4, ("zero",) * 7)
    prox = mixed_instance(rng, (2, 2, 2), 2, ("zero", "l1", "zero"))
    cfg = cs.SolverConfig(variant="admm_cyclic_n")
    for inst, random_orders, composed in (
        (five, False, True), (five, True, True),
        (seven, False, True), (seven, True, False),
        (prox, False, False),
    ):
        ws = solvers._Workspace(inst, dataclasses.replace(cfg, R=scaled_identity_R(inst, 1.0)),
                                random_orders=random_orders)
        assert ws.composed == composed, (inst.blocks.dims, random_orders)
    bcpg = mixed_instance(rng, (2, 2), 0, ("l1", "zero"))
    assert not solvers._Workspace(bcpg, cs.SolverConfig(variant="bcpg")).composed


def _assert_rows_are_per_block_sweeps(ws, trace, orders):
    z = np.concatenate(trace.iterates[0])
    for k, (x, mu) in enumerate(trace.iterates[1:]):
        per_block_sweep(ws, z, orders[k])
        assert np.array_equal(np.concatenate([x, mu]), z), k


def test_runs_not_composed_equal_the_per_block_loop_bitwise():
    """A run with a prox block, and a randomly permuted run whose n! maps do
    not fit the budget, sweep block by block: every row equals the
    block-by-block loop bit for bit, and so does a step in a given order."""
    rng = np.random.default_rng(63)
    prox = mixed_instance(rng, (2, 3, 2), 2, ("box", "zero", "l1"))
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.2, gamma=0.9, R=scaled_identity_R(prox, 1.2),
                          tol=0.0, max_iter=150)
    trace = cs.run_solver(prox, cfg, x0=rng.standard_normal(7), keep_iterates=True)
    ws = solvers._Workspace(prox, cfg)
    assert not ws.composed
    _assert_rows_are_per_block_sweeps(ws, trace, [(0, 1, 2)] * 150)

    seven = mixed_instance(rng, (1,) * 7, 2, ("zero",) * 7)
    rp_cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, tol=0.0, max_iter=150, seed=3)
    traces, _ = cs.run_rp_solver(seven, rp_cfg, trials=2, keep_iterates=True)
    ws = solvers._Workspace(seven, rp_cfg, random_orders=True)
    assert not ws.composed
    for t, trial in enumerate(traces):
        _assert_rows_are_per_block_sweeps(ws, trial, [permutation_at(3 ^ t, k, 7) for k in range(150)])
    state = cs.IterateState.start(seven, x0=rng.standard_normal(7))
    order = (6, 0, 5, 1, 4, 2, 3)
    z = np.concatenate([state.x, state.mu])
    per_block_sweep(ws, z, order)
    nxt = cs.step(seven, rp_cfg, state, order=order)
    assert np.array_equal(np.concatenate([nxt.x, nxt.mu]), z)



def _table_cases():
    """(instance, cfg, min_norm) triples of every block count 1..5 under
    admm_cyclic_n with gamma != 1 and a user R of scalars, None and a
    matrix, and under bcd without rows; then the minimum-norm maps of a
    singular two-block instance."""
    rng = np.random.default_rng(64)
    for n in range(1, 6):
        dims = tuple(int(v) for v in rng.integers(1, 3, n))
        kinds = tuple(("quadratic", "zero")[i % 2] for i in range(n))
        R = [(0.3, None, random_psd(rng, k))[i % 3] for i, k in enumerate(dims)]
        cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.3, gamma=0.7 + 0.15 * n, R=R)
        yield mixed_instance(rng, dims, 2, kinds), cfg, False
        free = mixed_instance(rng, dims, 0, kinds)
        yield free, cs.SolverConfig(variant="bcd", beta=0.8, gamma=1.2, R=[0.2] * n), False
    singular, _ = violating_instance(rng)
    yield singular, cs.SolverConfig(variant="admm_cyclic_n", gamma=1.2), True


def test_table_rows_are_each_orders_map_composed_alone():
    """Row r of a composing randomly permuted workspace's table is, bit for
    bit and sign of zero for sign of zero, the sweep_map of order r of
    itertools.permutations composed alone; _ranks gives each order its
    index there, one order at a time and as a stack of runs' blocks."""
    for inst, cfg, min_norm in _table_cases():
        n, size = inst.blocks.n, inst.blocks.d + inst.blocks.m
        ws = solvers._Workspace(inst, cfg, min_norm=min_norm, random_orders=True)
        alone = solvers._Workspace(inst, cfg, min_norm=min_norm, random_orders=True)
        assert ws.composed
        T, t = ws.sweep_table
        orders = list(itertools.permutations(range(n)))
        assert T.shape == (len(orders), size, size) and t.shape == (len(orders), size)
        for r, order in enumerate(orders):
            assert solvers._ranks(np.array(order)) == r
            for got, want in zip((T[r], t[r]), alone.sweep_map(order)):
                assert np.array_equal(got, want), (cfg.variant, n, order)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (cfg.variant, n, order)
        assert "sweep_table" not in alone.__dict__
        # a block of 3 sweeps of 2 runs, as _sweep_block stacks them
        at = np.random.default_rng(n).integers(len(orders), size=(3, 2))
        assert np.array_equal(solvers._ranks(np.array(orders)[at]), at)


def test_table_build_stays_within_three_map_budgets():
    """Five blocks of 6 with 2 rows (d + m = 32): the 120 maps take 0.97
    MiB, just inside SWEEP_MAP_BYTES (d + m = 33 would not fit), and
    building the table peaks below 3 x SWEEP_MAP_BYTES under tracemalloc."""
    rng = np.random.default_rng(65)
    inst = mixed_instance(rng, (6,) * 5, 2, ("zero", "quadratic", "zero", "quadratic", "zero"))
    cfg = cs.SolverConfig(variant="admm_cyclic_n", R=scaled_identity_R(inst, 1.0))
    ws = solvers._Workspace(inst, cfg, random_orders=True)
    assert ws.composed and 120 * 8 * 33 * 34 > solvers.SWEEP_MAP_BYTES
    tracemalloc.start()
    try:
        T, t = ws.sweep_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.95 * solvers.SWEEP_MAP_BYTES < T.nbytes + t.nbytes <= solvers.SWEEP_MAP_BYTES
    assert peak < 3 * solvers.SWEEP_MAP_BYTES


def test_step_in_a_given_order_composes_only_its_own_order(monkeypatch):
    """A 5-block step in a given order composes, under the rule for n!
    orders, but only its own order: a sweep_table that raises is never
    read, nor on a cyclic step or run, and the step equals that order's
    map. A randomly permuted run of the instance does read the table."""
    rng = np.random.default_rng(66)
    five = mixed_instance(rng, (2,) * 5, 3, ("zero",) * 5)
    cfg = cs.SolverConfig(variant="admm_cyclic_n", R=scaled_identity_R(five, 1.0), tol=1e-8, max_iter=200)

    def refuse(ws):
        raise AssertionError("built the table")

    monkeypatch.setattr(solvers._Workspace, "sweep_table", property(refuse))
    state = cs.IterateState.start(five, x0=rng.standard_normal(10))
    order = (4, 0, 3, 1, 2)
    nxt = cs.step(five, cfg, state, order=order)
    T, t = solvers._Workspace(five, cfg).sweep_map(order)
    assert np.array_equal(np.concatenate([nxt.x, nxt.mu]), T.dot(np.concatenate([state.x, state.mu])) + t)
    cs.step(five, cfg, state)
    cs.run_solver(five, cfg)
    with pytest.raises(AssertionError, match="built the table"):
        cs.run_rp_solver(five, cfg, trials=2)
