"""Rows observed in blocks after speculative sweeps: every row equals the
per-row recording bit for bit, no row depends on the block size, and no user
code runs past a run's stop."""

import dataclasses
import hashlib
import warnings

import numpy as np

import coupled_splitting as cs
from coupled_splitting import solvers
from coupled_splitting.rp import permutation_at

from gen import mixed_instance, scaled_identity_R
from oracles import recorded_row


def _three_by_three_instance():
    """The 3-block feasibility problem on which the cyclic sweep diverges."""
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=3),
        H=np.zeros((3, 3)), g=np.zeros(3), A=A, b=np.array([1.0, 2.0, 3.0]),
    )


def _row(*cols):
    return np.concatenate([np.atleast_1d(np.asarray(c, dtype=float)) for c in cols])


def _assert_recorded_alone(ws, trace, orders):
    """Every row of a run that kept its iterates against the per-row
    recording in tests/oracles.py: equal values, NaN where NaN, and the same
    sign on every zero."""
    n = trace.n_blocks
    for row, (x, mu) in enumerate(trace.iterates):
        x_prev = trace.iterates[row - 1][0] if row else x
        r_dual, r_feas, surrogate, objective, parts = recorded_row(ws, x, x_prev, mu, orders[row - 1] if row else None)
        want = _row(
            np.full(n, np.nan) if r_dual is None else r_dual, r_feas, surrogate, objective,
            np.full(n, np.inf) if parts is None else parts,
        )
        got = _row(trace.r_dual[row], trace.r_feas[row], trace.surrogate[row], trace.objective[row],
                   trace.surrogate_blocks[row])
        assert np.array_equal(got, want, equal_nan=True), (row, got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (row, got, want)


def _oracle_cases():
    """(instance, cfg) pairs with n = 2..4; l1, box and quadratic terms on a
    middle block; l1 blocks wide enough for ddot to round a strided gather
    differently; gamma != 1; and m = 0."""
    rng = np.random.default_rng(51)
    cases = []
    pair = mixed_instance(rng, (9, 4), 3, ("l1", "box"))
    cases.append((pair, cs.SolverConfig(variant="admm2", beta=1.7, gamma=1.3, R=scaled_identity_R(pair, 1.7))))
    cases.append((pair, cs.SolverConfig(variant="admm2_linearized", beta=0.8, gamma=0.6)))
    for dims, kinds in (((3, 12, 2), ("zero", "l1", "box")), ((2, 3, 4, 2), ("box", "quadratic", "l1", "zero"))):
        inst = mixed_instance(rng, dims, 2, kinds)
        R = scaled_identity_R(inst, 1.2)
        cases.append((inst, cs.SolverConfig(variant="admm_cyclic_n", beta=1.2, gamma=0.8, R=R)))
        cases.append((inst, cs.SolverConfig(variant="admm_cyclic_n", beta=1.2, gamma=1.0, R=R)))
    free = mixed_instance(rng, (4, 10, 3), 0, ("box", "l1", "quadratic"))
    cases.append((free, cs.SolverConfig(variant="bcpg", beta=1.0, gamma=1.4)))
    return rng, cases


def test_rows_equal_the_per_row_recording_bitwise():
    rng, cases = _oracle_cases()
    for inst, cfg in cases:
        run_cfg = dataclasses.replace(cfg, tol=0.0, max_iter=600)
        d, m = inst.blocks.d, inst.blocks.m
        x0, mu0 = 3.0 * rng.standard_normal(d), rng.standard_normal(m)
        trace = cs.run_solver(inst, run_cfg, x0=x0, mu0=mu0, keep_iterates=True)
        assert len(trace) == 601
        _assert_recorded_alone(solvers._Workspace(inst, run_cfg), trace, [tuple(range(inst.blocks.n))] * 600)


def test_random_order_rows_equal_the_per_row_recording_bitwise():
    rng = np.random.default_rng(52)
    inst = mixed_instance(rng, (2, 3, 1, 2), 3, ("zero",) * 4)
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.1, R=[0.5, None, 0.0, 0.3], tol=0.0, max_iter=300, seed=4)
    traces, _ = cs.run_rp_solver(inst, cfg, trials=3, keep_iterates=True)
    ws = solvers._Workspace(inst, cfg)
    for t, trace in enumerate(traces):
        _assert_recorded_alone(ws, trace, [permutation_at(4 ^ t, k, 4) for k in range(300)])


def _assert_same_run(a, b):
    """Same CSV rows, status, final point and iterates. The rows are
    compared line by line, so that a mismatch names its first differing row
    rather than having pytest diff two texts of thousands of lines."""
    rows_a, rows_b = a.csv_rows(), b.csv_rows()
    lines_a, lines_b = rows_a.splitlines(), rows_b.splitlines()
    assert len(lines_a) == len(lines_b)
    first = next((k for k, (la, lb) in enumerate(zip(lines_a, lines_b)) if la != lb), None)
    assert first is None, (first, lines_a[first], lines_b[first])
    assert hashlib.sha256(rows_a.encode()).digest() == hashlib.sha256(rows_b.encode()).digest()
    assert a.status == b.status
    assert np.array_equal(a.x, b.x, equal_nan=True) and np.array_equal(a.mu, b.mu, equal_nan=True)
    assert len(a.iterates) == len(b.iterates)
    for (xa, ma), (xb, mb) in zip(a.iterates, b.iterates):
        assert np.array_equal(xa, xb, equal_nan=True) and np.array_equal(ma, mb, equal_nan=True)


def _at_block_sizes(monkeypatch, run):
    """run() with SWEEP_BLOCK set to 1, 3 and 64 in turn."""
    out = []
    for size in (1, 3, 64):
        monkeypatch.setattr(solvers, "SWEEP_BLOCK", size)
        out.append(run())
    return out


def test_runs_do_not_depend_on_the_sweep_block(monkeypatch):
    """Rows, status, final point and iterates are the same whether sweeps are
    observed one, three or 64 at a time: at a stop inside a block, at a
    max_iter stop on a block edge and one past it, on a diverging run, on a
    NaN start, on a run with an opaque term and on a merit run."""
    rng = np.random.default_rng(53)
    inst = mixed_instance(rng, (2, 3, 2), 2, ("l1", "zero", "box"))
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, R=scaled_identity_R(inst, 1.0), tol=1e-9, max_iter=5000)
    chyy = _three_by_three_instance()
    opaque = mixed_instance(rng, (2, 2, 1), 2, ("opaque", "l1", "zero"))
    pair = mixed_instance(rng, (2, 3), 2, ("zero", "quadratic"))
    pair_cfg = cs.SolverConfig(variant="admm2", beta=1.5, R=scaled_identity_R(pair, 1.5), tol=1e-10, max_iter=5000)
    runs = [
        lambda: cs.run_solver(inst, cfg, keep_iterates=True),
        lambda: cs.run_solver(inst, dataclasses.replace(cfg, tol=0.0, max_iter=64), keep_iterates=True),
        lambda: cs.run_solver(inst, dataclasses.replace(cfg, tol=0.0, max_iter=65), keep_iterates=True),
        lambda: cs.run_solver(chyy, cs.SolverConfig(variant="admm_cyclic_n", max_iter=20_000), keep_iterates=True),
        lambda: cs.run_solver(inst, cfg, mu0=[np.nan, 0.0], keep_iterates=True),
        lambda: cs.run_solver(opaque, dataclasses.replace(cfg, R=scaled_identity_R(opaque, 1.0)), keep_iterates=True),
        lambda: cs.run_solver(pair, pair_cfg, reference=cs.solve_kkt_oracle(pair), keep_iterates=True),
    ]
    statuses = []
    for run in runs:
        first, *rest = _at_block_sizes(monkeypatch, run)
        for other in rest:
            _assert_same_run(first, other)
        statuses.append((first.status, len(first)))
    (converged, rows), edge, past_edge, (diverged, _), (nan_start, nan_rows), opaque_run, merit_run = statuses
    assert converged == "converged" and (rows - 1) % 64 != 0 and rows > 64
    assert edge == ("max_iter", 65) and past_edge == ("max_iter", 66)
    assert diverged == "diverged"
    assert nan_start == "diverged" and nan_rows == 2
    assert opaque_run[0] == merit_run[0] == "converged" and opaque_run[1] > 64 and merit_run[1] > 64


def test_rp_trials_do_not_depend_on_the_sweep_block(monkeypatch):
    """Each trial draws as many orders as a block sweeps, the orders of its
    dropped speculative sweeps among them, from its own generator, so no
    trial and no sample mean moves with the block size, which sets the size
    of every draw."""
    inst = _three_by_three_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, tol=1e-9, max_iter=3000, seed=7)
    results = _at_block_sizes(monkeypatch, lambda: cs.run_rp_solver(inst, cfg, trials=4, keep_iterates=True))
    (want, want_mean), *rest = results
    assert {t.status for t in want} == {"converged"}
    for got, got_mean in rest:
        for a, b in zip(want, got):
            _assert_same_run(a, b)
        assert np.array_equal(want_mean.Ex, got_mean.Ex) and np.array_equal(want_mean.Emu, got_mean.Emu)


def test_opaque_terms_run_no_user_code_past_the_stop():
    """An opaque prox runs once per sweep and its value once per row, as
    when every row was observed before the next sweep: none falls past the
    stop row, at a converged stop or at max_iter."""
    calls = {"prox": 0, "value": 0}

    def prox(r, v):
        calls["prox"] += 1
        return np.sign(v) * np.maximum(np.abs(v) - 0.4 / r, 0.0)

    def value(x):
        calls["value"] += 1
        return 0.4 * float(np.sum(np.abs(x)))

    rng = np.random.default_rng(54)
    base = mixed_instance(rng, (2, 2, 1), 2, ("l1", "l1", "zero"))
    inst = dataclasses.replace(base, theta=(cs.ProxFn.opaque(prox, value=value),) + base.theta[1:])
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, R=scaled_identity_R(inst, 1.0), tol=1e-9, max_iter=5000)
    for run_cfg in (cfg, dataclasses.replace(cfg, tol=0.0, max_iter=70)):
        calls.update(prox=0, value=0)
        trace = cs.run_solver(inst, run_cfg)
        assert trace.status == ("converged" if run_cfg.tol else "max_iter")
        assert calls == {"prox": len(trace) - 1, "value": len(trace)}


def test_opaque_prox_warnings_reach_the_caller():
    """User code runs under numpy's own settings, outside the engine's
    np.errstate: an opaque prox whose arithmetic overflows warns once per
    kept sweep, in a cyclic run and in a stack of randomly permuted trials,
    at a max_iter stop and at a converged one."""

    def prox(r, v):
        np.square(np.float64(1e300))  # overflows, which numpy reports as a RuntimeWarning
        return np.sign(v) * np.maximum(np.abs(v) - 0.4 / r, 0.0)

    rng = np.random.default_rng(56)
    base = mixed_instance(rng, (2, 2, 1), 2, ("l1", "l1", "zero"))
    inst = dataclasses.replace(base, theta=(cs.ProxFn.opaque(prox),) + base.theta[1:])
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, R=scaled_identity_R(inst, 1.0), tol=0.0, max_iter=31)
    for run_cfg in (cfg, dataclasses.replace(cfg, tol=1e-9, max_iter=5000)):
        for run in (lambda: [cs.run_solver(inst, run_cfg)], lambda: cs.run_rp_solver(inst, run_cfg, trials=3)[0]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                traces = run()
            overflows = [w for w in caught if w.category is RuntimeWarning and "overflow" in str(w.message)]
            sweeps = sum(len(t) - 1 for t in traces)
            assert len(overflows) == len(caught) == sweeps, (run_cfg.tol, len(traces))
            assert {t.status for t in traces} == {"max_iter" if run_cfg.tol == 0.0 else "converged"}


def test_fast_divergence_warns_about_no_row_past_the_guard():
    """A linearized run with curvatures far below the blocks' grows a
    millionfold per sweep and passes the guard while finite; sweeps past
    the guard row would overflow."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.ones(2), A=np.array([[1.0, 1.0]]), b=np.array([2.0]),
    )
    cfg = cs.SolverConfig(variant="admm2_linearized", r=[1e-6, 1e-6], tol=1e-9, max_iter=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = cs.run_solver(inst, cfg)
    assert trace.status == "diverged" and len(trace) < 10
    assert np.all(np.isfinite(trace.x)) and np.max(np.abs(trace.x)) > solvers.DIVERGENCE_LIMIT


def test_surrogate_squares_r_feas_as_the_per_row_recording():
    """The per-row recording squared r_feas by Python's float pow, which
    rounds otherwise than r * r (what array ** 2 computes) on a few r in
    ten thousand. Among 200,000 random points, every row whose r_feas is such
    an r equals the per-row recording."""
    rng = np.random.default_rng(55)
    inst = mixed_instance(rng, (1, 2), 1, ("zero", "zero"))
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, R=scaled_identity_R(inst, 1.0))
    ws = solvers._Workspace(inst, cfg)
    Z = rng.standard_normal((200_000, 4))
    X, MU = Z[:, :3], Z[:, 3:]
    X_prev = X + 0.3 * rng.standard_normal(X.shape)
    RES = solvers._gemv(inst.A, X) - inst.b
    cols = ws.observe(Z, RES, X_prev, [(0, 1)] * len(Z))
    r_feas = cols[1].tolist()
    rows = [j for j, r in enumerate(r_feas) if r**2 != r * r]
    r_dual, _, surrogate, objective, _, parts = cols
    for j in rows:
        got = _row(r_dual[j], r_feas[j], surrogate[j], objective[j], parts[j])
        assert np.array_equal(got, _row(*recorded_row(ws, X[j], X_prev[j], MU[j], (0, 1)))), j


def _counted_sweeps(monkeypatch) -> list:
    """Count every block-by-block sweep in calls[0]: each _Workspace.sweep_rows
    call makes one per row after its first."""
    calls = [0]
    sweep_rows = solvers._Workspace.sweep_rows

    def counted(self, rows, *args):
        calls[0] += len(rows) - 1
        sweep_rows(self, rows, *args)

    monkeypatch.setattr(solvers._Workspace, "sweep_rows", counted)
    return calls


def _fixed_block_waste(traces) -> int:
    """The sweeps past each converged run's stop that blocks of a fixed
    SWEEP_BLOCK sweeps would make: the rest of the block holding the stop."""
    assert {t.status for t in traces} == {"converged"}
    return sum(-(len(t) - 1) % solvers.SWEEP_BLOCK for t in traces)


def test_blocks_sized_from_the_decay_make_fewer_speculative_sweeps(monkeypatch):
    """Blocks after the first are sized from the run's observed decay, so a
    converging prox run, and a lockstep stack of prox trials (which takes
    its longest need), make fewer sweeps past their stops than fixed blocks
    of SWEEP_BLOCK sweeps would."""
    calls = _counted_sweeps(monkeypatch)
    rng = np.random.default_rng(53)
    inst = mixed_instance(rng, (2, 3, 2), 2, ("l1", "zero", "box"))
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, R=scaled_identity_R(inst, 1.0), tol=1e-9, max_iter=5000)
    trace = cs.run_solver(inst, cfg)
    assert len(trace) - 1 > solvers.SWEEP_BLOCK
    assert 0 <= calls[0] - (len(trace) - 1) < _fixed_block_waste([trace])
    lasso = mixed_instance(rng, (2, 3, 1), 2, ("l1", "zero", "l1"))
    calls[0] = 0
    traces, _ = cs.run_rp_solver(lasso, dataclasses.replace(cfg, R=scaled_identity_R(lasso, 1.0), seed=5), trials=5)
    assert min(len(t) for t in traces) - 1 > solvers.SWEEP_BLOCK
    assert 0 <= calls[0] - sum(len(t) - 1 for t in traces) < _fixed_block_waste(traces)


def _fast_diverging(theta):
    """The fast-divergence pair with the given terms: curvatures a millionth
    of the blocks' make it grow about a millionfold per sweep."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.ones(2), A=np.array([[1.0, 1.0]]), b=np.array([2.0]), theta=theta,
    )
    return inst, cs.SolverConfig(variant="admm2_linearized", r=[1e-6, 1e-6], tol=1e-9, max_iter=1000)


def test_guard_checked_once_per_block_keeps_the_guard_row(monkeypatch):
    """A block-by-block run whose rows past its guard row overflow to inf
    and NaN within the same block warns about none of them: it keeps its
    guard row, reads diverged, and equals the run observed after every
    sweep. A run with an opaque term, diverging the same way, checks the
    guard after every sweep and calls its prox for no sweep past its guard
    row, and its iterates equal the l1 run's."""
    inst, cfg = _fast_diverging((cs.ProxFn.l1(0.1), cs.ProxFn.zero()))
    ws = solvers._Workspace(inst, cfg)
    assert not ws.composed
    rows = np.zeros((solvers.SWEEP_BLOCK, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        ws.order_sweep((0, 1))(rows)
    assert not np.all(np.isfinite(rows[-1]))
    runs = []
    for size in (64, 1):
        monkeypatch.setattr(solvers, "SWEEP_BLOCK", size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs.append(cs.run_solver(inst, cfg, keep_iterates=True))
    blocked, per_sweep = runs
    _assert_same_run(blocked, per_sweep)
    peaks = np.abs(blocked.path).max(axis=1)
    assert blocked.status == "diverged" and len(blocked) < 10
    assert np.all(peaks[:-1] <= solvers.DIVERGENCE_LIMIT) and solvers.DIVERGENCE_LIMIT < peaks[-1] < np.inf
    monkeypatch.undo()

    calls = [0]

    def prox(r, v):
        calls[0] += 1
        return np.sign(v) * np.maximum(np.abs(v) - 0.1 / r, 0.0)

    inst, cfg = _fast_diverging((cs.ProxFn.opaque(prox), cs.ProxFn.zero()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = cs.run_solver(inst, cfg, keep_iterates=True)
    assert trace.status == "diverged" and calls[0] == len(trace) - 1
    assert np.array_equal(trace.path, blocked.path)
