"""Block-by-block sweeps as the list of bound numpy calls that a workspace
lays out on first use, on one iterate buffer it keeps: every sweep equals
the whole-vector loop of tests/oracles.py byte for byte, the sign of every
zero included, whatever iterates and workspaces take turns on the buffers;
user code keeps the inputs it was given; and the paths that never sweep
block by block never lay the calls out."""

import dataclasses
import math

import numpy as np

import coupled_splitting as cs
from coupled_splitting import solvers, spectral
from coupled_splitting.prox import prox_eval
from coupled_splitting.rp import permutation_at

from gen import mixed_instance, random_psd, scaled_identity_R
from oracles import engine_sweep, per_block_sweep

SWEEPS = 300

BROADCAST_BOX = cs.ProxFn.box([-0.5], [0.5])
SIGNED_ZERO_BOX = cs.ProxFn.box([-0.0], [0.0])


def _infinite_box(dim):
    """Per-coordinate bounds with infinite sides and pinned coordinates."""
    lo = np.resize([0.2, -np.inf, -1.0, 0.0, -np.inf], dim)
    hi = np.resize([0.2, 1.0, np.inf, 0.0, np.inf], dim)
    return cs.ProxFn.box(lo, hi)


def _instance(rng, theta, m, diagonal=None):
    """A strongly convex instance with the given terms and m constraint rows;
    `diagonal` makes every diagonal block of H that multiple of I and
    couples the blocks weakly, so a scalar R gives each block a ridge."""
    dims = tuple(dim for _, dim in theta)
    d = sum(dims)
    blocks = cs.BlockStructure(dims=dims, m=m)
    if diagonal is None:
        H = random_psd(rng, d) + 0.5 * np.eye(d)
    else:
        H = 0.1 * random_psd(rng, d)
        for i in range(len(dims)):
            sl = blocks.slice_of(i)
            H[sl, sl] = diagonal * np.eye(dims[i])
    A = rng.standard_normal((m, d))
    return cs.ProblemInstance(blocks=blocks, H=H, g=rng.standard_normal(d), A=A,
                              b=A @ rng.standard_normal(d), theta=tuple(f for f, _ in theta))


def _opaque_l1(lam):
    return cs.ProxFn.opaque(lambda r, v: np.sign(v) * np.maximum(np.abs(v) - lam / r, 0.0))


def _prox_cases():
    """(instance, cfg) pairs swept block by block: l1 blocks linearized and
    with a scalar-R ridge; box blocks with scalar-broadcast bounds, with
    per-coordinate infinite bounds and with [-0.0, 0.0]; zero, quadratic and
    opaque terms; gamma != 1; and m = 0."""
    rng = np.random.default_rng(71)
    l1, wide_l1 = cs.ProxFn.l1(0.37), cs.ProxFn.l1(5.0)
    quadratic = cs.ProxFn.quadratic(random_psd(rng, 2), rng.standard_normal(2))
    cases = []
    pair = _instance(rng, [(l1, 5), (BROADCAST_BOX, 4)], 3)
    cases.append((pair, cs.SolverConfig(variant="admm2_linearized", beta=1.1, gamma=1.3)))
    boxes = _instance(rng, [(_infinite_box(5), 5), (SIGNED_ZERO_BOX, 4)], 2)
    cases.append((boxes, cs.SolverConfig(variant="admm2_linearized", beta=0.8, gamma=0.7)))
    free = _instance(rng, [(l1, 3), (_infinite_box(6), 6), (quadratic, 2), (cs.ProxFn.l1(0.0), 4)], 0)
    cases.append((free, cs.SolverConfig(variant="bcpg", gamma=1.4)))
    mixed = _instance(rng, [(wide_l1, 3), (cs.ProxFn.zero(), 2), (BROADCAST_BOX, 4), (quadratic, 2),
                            (_opaque_l1(0.4), 2)], 2)
    cases.append((mixed, cs.SolverConfig(variant="admm_cyclic_n", beta=1.2, gamma=0.8,
                                         R=scaled_identity_R(mixed, 1.2))))
    # scalar R: one-coordinate blocks are scaled identities whatever H is
    ridged = _instance(rng, [(l1, 1), (quadratic, 2), (wide_l1, 1), (SIGNED_ZERO_BOX, 1)], 2)
    cases.append((ridged, cs.SolverConfig(variant="admm_cyclic_n", beta=0.9, gamma=1.5, R=[0.5, None, 0.0, 0.2])))
    scaled = _instance(rng, [(wide_l1, 3), (cs.ProxFn.zero(), 2), (BROADCAST_BOX, 3)], 0, diagonal=2.0)
    cases.append((scaled, cs.SolverConfig(variant="bcd", R=[0.3, None, 0.0])))
    return rng, cases


def test_block_steps_equal_the_whole_vector_loop_bytewise():
    """Over 300 sweeps in random orders from a wide start, the engine's
    sweep of each order leaves the bytes the whole-vector loop leaves, after
    every sweep."""
    rng, cases = _prox_cases()
    for inst, cfg in cases:
        n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
        ws = solvers._Workspace(inst, cfg)
        assert not ws.composed
        got = np.concatenate([5.0 * rng.standard_normal(d), rng.standard_normal(m)])
        want = got.copy()
        zeros = 0
        for k in range(SWEEPS):
            order = tuple(range(n)) if k % 3 == 0 else tuple(int(v) for v in rng.permutation(n))
            engine_sweep(ws, got, order)
            per_block_sweep(ws, want, order)
            assert got.tobytes() == want.tobytes(), (cfg.variant, k)
            zeros += int(np.count_nonzero(got[:d] == 0.0))
        assert zeros > 0, cfg.variant


def _assert_rows_are_whole_vector_sweeps(ws, trace, orders):
    z = np.concatenate(trace.iterates[0])
    for k, (x, mu) in enumerate(trace.iterates[1:]):
        per_block_sweep(ws, z, orders[k])
        assert np.concatenate([x, mu]).tobytes() == z.tobytes(), k


def test_the_shared_buffer_carries_nothing_between_iterates():
    """One workspace that sweeps two iterates in turn, and two workspaces
    of one instance that sweep theirs interleaved, leave the whole-vector
    loop's bytes after every sweep."""
    rng, cases = _prox_cases()
    for inst, cfg in cases:
        n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
        shared = solvers._Workspace(inst, cfg)
        pair = (solvers._Workspace(inst, cfg), solvers._Workspace(inst, cfg))
        ws = shared, shared, *pair
        got = [np.concatenate([5.0 * rng.standard_normal(d), rng.standard_normal(m)]) for _ in ws]
        want = [z.copy() for z in got]
        for k in range(60):
            order = tuple(int(v) for v in rng.permutation(n))
            for j, w in enumerate(ws):
                engine_sweep(w, got[j], order)
                per_block_sweep(w, want[j], order)
                assert got[j].tobytes() == want[j].tobytes(), (cfg.variant, k, j)


def test_cyclic_runs_equal_the_whole_vector_loop_bytewise():
    """Every row of a cyclic run, swept block by block with its order's
    calls laid out once, is the whole-vector loop's, byte for byte, up to
    its stop: 150 sweeps, or an earlier converged row (the run with an
    opaque term stops on its surrogate bound)."""
    rng, cases = _prox_cases()
    for inst, cfg in cases:
        n = inst.blocks.n
        run_cfg = dataclasses.replace(cfg, tol=0.0, max_iter=150)
        trace = cs.run_solver(inst, run_cfg, x0=3.0 * rng.standard_normal(inst.blocks.d), keep_iterates=True)
        assert len(trace) == 151 or trace.status == "converged" and len(trace) > 100, cfg.variant
        ws = solvers._Workspace(inst, run_cfg)
        _assert_rows_are_whole_vector_sweeps(ws, trace, [tuple(range(n))] * (len(trace) - 1))


def test_lockstep_trials_equal_the_whole_vector_loop_bytewise():
    """Randomly permuted trials swept in lockstep, block by block, past the
    map budget (7 blocks) and with prox blocks: every row of every trial is
    the whole-vector loop's, byte for byte."""
    rng = np.random.default_rng(72)
    seven = mixed_instance(rng, (1, 2, 1, 1, 2, 1, 1), 2, ("zero",) * 7)
    prox = _instance(rng, [(cs.ProxFn.l1(0.3), 2), (BROADCAST_BOX, 3), (SIGNED_ZERO_BOX, 2), (cs.ProxFn.zero(), 1)], 2)
    for inst, seed in ((seven, 5), (prox, 6)):
        n = inst.blocks.n
        cfg = cs.SolverConfig(variant="admm_cyclic_n", R=scaled_identity_R(inst, 1.0), tol=0.0, max_iter=150, seed=seed)
        traces, _ = cs.run_rp_solver(inst, cfg, x0=3.0 * rng.standard_normal(inst.blocks.d), trials=3,
                                     keep_iterates=True)
        ws = solvers._Workspace(inst, cfg, n_orders=math.factorial(n))
        assert not ws.composed
        for t, trial in enumerate(traces):
            assert len(trial) == 151
            _assert_rows_are_whole_vector_sweeps(ws, trial, [permutation_at(seed ^ t, k, n) for k in range(150)])


def test_opaque_prox_inputs_stay_as_given():
    """An opaque prox that keeps every input it is given finds each one
    unchanged after all later sweeps, in a run and in steps."""
    kept = []

    def prox(r, v):
        kept.append((v, v.copy()))
        return np.sign(v) * np.maximum(np.abs(v) - 0.4 / r, 0.0)

    rng = np.random.default_rng(73)
    inst = _instance(rng, [(cs.ProxFn.opaque(prox), 3), (cs.ProxFn.l1(0.2), 2), (cs.ProxFn.zero(), 2)], 2)
    cfg = cs.SolverConfig(variant="admm_cyclic_n", R=scaled_identity_R(inst, 1.0), tol=0.0, max_iter=200)
    cs.run_solver(inst, cfg, x0=rng.standard_normal(7))
    state = cs.IterateState.start(inst, x0=rng.standard_normal(7))
    for _ in range(5):
        state = cs.step(inst, cfg, state, order=(2, 0, 1))
    assert len(kept) == 205
    assert len({id(v) for v, _ in kept}) == 205
    for v, snapshot in kept:
        assert v.tobytes() == snapshot.tobytes()


def _recording(monkeypatch, module):
    """Record every _Workspace that `module` builds."""
    built = []

    class Recorded(solvers._Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(module, "_Workspace", Recorded)
    return built


def test_steps_are_laid_out_only_for_block_by_block_sweeps(monkeypatch):
    """Composed workspaces, cyclic and ordered steps of all-direct
    instances, and the sweep-map certificates never lay the per-block steps
    out; a workspace that sweeps block by block lays them out once."""
    rng = np.random.default_rng(74)
    direct = mixed_instance(rng, (2, 3, 2), 2, ("zero", "quadratic", "zero"))
    cfg = cs.SolverConfig(variant="admm_cyclic_n", R=scaled_identity_R(direct, 1.0), tol=1e-10, max_iter=500)
    built = _recording(monkeypatch, solvers)
    trace = cs.run_solver(direct, cfg)
    assert len(trace) > 2
    state = cs.IterateState.start(direct, x0=rng.standard_normal(7))
    cs.step(direct, cfg, state)
    cs.step(direct, cfg, state, order=(2, 0, 1))
    ws = solvers._Workspace(direct, cfg, n_orders=6)
    z = rng.standard_normal(9)
    for order in ((0, 1, 2), (1, 2, 0)):
        engine_sweep(ws, z, order)
    assert len(built) == 4
    assert all(w.composed and "sweep_steps" not in w.__dict__ for w in built)

    built = _recording(monkeypatch, spectral)
    H = random_psd(rng, 5) + np.eye(5)
    cs.bcd_rate_matrices(H, 2)
    spectral.cyclic_update_matrix(mixed_instance(rng, (2, 1, 2), 2, ("zero",) * 3), 1.0)
    assert len(built) == 2
    assert all("sweep_steps" not in w.__dict__ for w in built)

    prox = mixed_instance(rng, (2, 2), 1, ("l1", "box"))
    ws = solvers._Workspace(prox, cs.SolverConfig(variant="admm2_linearized"))
    assert "sweep_steps" not in ws.__dict__
    z = rng.standard_normal(5)
    engine_sweep(ws, z, (0, 1))
    steps = ws.__dict__["sweep_steps"]
    engine_sweep(ws, z, (1, 0))
    assert ws.sweep_steps is steps


def test_cyclic_runs_build_their_surrogate_matrix_once(monkeypatch):
    """A cyclic run builds its order's surrogate matrix once, however many
    blocks of sweeps it observes, also when it takes the surrogate stop test
    after every sweep (an opaque term)."""
    rng = np.random.default_rng(75)
    inst = mixed_instance(rng, (2, 2, 1), 2, ("opaque", "l1", "zero"))
    cfg = cs.SolverConfig(variant="admm_cyclic_n", R=scaled_identity_R(inst, 1.0), tol=0.0, max_iter=200)
    calls = []
    build = solvers._Workspace.surrogate_matrix

    def counted(self, order):
        calls.append(order)
        return build(self, order)

    monkeypatch.setattr(solvers._Workspace, "surrogate_matrix", counted)
    for run_cfg in (cfg, dataclasses.replace(cfg, tol=1e-13, max_iter=5000)):
        calls.clear()
        trace = cs.run_solver(inst, run_cfg)
        assert len(trace) > solvers.SWEEP_BLOCK + 1
        assert calls == [(0, 1, 2)]


def test_l1_calls_equal_prox_eval_bytewise():
    """The l1 prox as bound calls writes prox_eval's bytes on signed zeros,
    values at, just inside and just outside +-cut, infinities and
    subnormals, also at lam = 0; NaN gives NaN."""
    for lam, r in ((0.37, 1.3), (5.0, 0.7), (0.0, 2.0), (1e-310, 1.0)):
        cut = lam / r
        edges = [0.0, cut, np.nextafter(cut, 0.0), np.nextafter(cut, np.inf), 2.0 * cut + 1.0, np.inf,
                 5e-324, 2.2e-308, 1e-300, 3.0]
        v = np.array(edges + [-e for e in edges])
        f = cs.ProxFn.l1(lam)
        want = prox_eval(f, r, v.copy())
        out, scratch = np.empty_like(v), v.copy()
        for call in solvers._prox_calls(f, r, scratch, out):
            call()
        assert out.tobytes() == want.tobytes(), lam
        out, scratch = np.empty(3), np.array([np.nan, -np.nan, 1.0])
        for call in solvers._prox_calls(f, r, scratch, out):
            call()
        assert np.isnan(out[:2]).all() and out[2] == prox_eval(f, r, np.array([1.0]))[0]

