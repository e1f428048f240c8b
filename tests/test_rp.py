"""Tests for the randomly permuted scheme: order sampling, per-trial
reproducibility, sample means, and the exact expected iteration."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import coupled_splitting as cs
from coupled_splitting import rp, solvers
from coupled_splitting.rp import permutation_at
from coupled_splitting.solvers import _Workspace
from gen import past_guard_instance, random_psd, spectral_instance
from oracles import expectation_text, expected_iteration_rows, uncached_U
from test_acceptance import EXPECT_RUN_TOL, EXPECT_SEGMENT, SPECTRAL_SEED


def _arr(*vals):
    return np.asarray(vals, dtype=float)


def three_by_three_instance():
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=3),
        H=np.zeros((3, 3)), g=np.zeros(3), A=A, b=_arr(1.0, 2.0, 3.0),
    )


def coupled_three_block():
    rng = np.random.default_rng(40)
    W = rng.standard_normal((4, 4))
    H = W @ W.T / 4 + 0.4 * np.eye(4)
    A = rng.standard_normal((2, 4))
    xbar = rng.standard_normal(4)
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 2, 1), m=2),
        H=H, g=rng.standard_normal(4), A=A, b=A @ xbar,
    )


# -- permutation sampling -----------------------------------------------------


def test_permutation_at_is_deterministic():
    for seed, counter, n in [(0, 0, 3), (7, 12, 4), (123456, 3, 6)]:
        a = permutation_at(seed, counter, n)
        b = permutation_at(seed, counter, n)
        assert a == b
        assert sorted(a) == list(range(n))


def test_permutation_at_rejects_a_non_integer_seed_or_counter():
    """A float seed or counter, integral or not, and a negative one are
    UsageErrors rather than truncated; integer calls, numpy integers among
    them, stay pinned."""
    for seed, counter in ((0, 2.5), (1.7, 0), (0, 2.0), (1.0, 0), (-1, 0), (0, -1)):
        with pytest.raises(cs.UsageError):
            permutation_at(seed, counter, 3)
    assert permutation_at(np.int64(0), np.uint8(2), 5) == permutation_at(0, 2, 5) == (0, 2, 3, 4, 1)


def test_permutation_streams_differ_by_seed_and_counter():
    draws = {permutation_at(s, c, 6) for s in range(6) for c in range(6)}
    assert len(draws) > 10  # distinct keys give varied orders


def _draws(seed, n, count):
    """The first count orders of successive default_rng(seed).permutation(n)
    draws, one call each."""
    rng = np.random.default_rng(seed)
    return [tuple(rng.permutation(n).tolist()) for _ in range(count)]


# the sizes of a trial's successive draws in _stream, taken in turn
DRAW_SIZES = (1, 3, 4, 64, 256)


def _stream(seed, n, count):
    """The first count orders of a trial seeded with seed, as tuples of
    Python ints: the rows of its _trial_orders draws of DRAW_SIZES orders
    in turn, concatenated."""
    draw, sizes = rp._trial_orders(seed, n), itertools.cycle(DRAW_SIZES)
    drawn = [draw(next(sizes))]
    while sum(map(len, drawn)) < count:
        drawn.append(draw(next(sizes)))
    return list(map(tuple, np.concatenate(drawn)[:count].tolist()))


def test_permutation_stream_is_pinned():
    """Order k of the stream seeded s, drawn one permutation call at a time,
    is row k of the trial's draws of irregular sizes, entry by entry, as
    Python ints, over seeds up to and past 2**31 and n up to 14; its first
    orders are pinned to numpy's values."""
    for seed in (0, 1, 9, 2**31 - 1, 2**31, 2**31 + 1, 2**32 + 5):
        for n in (1, 2, 3, 7, 14):
            want = _stream(seed, n, 12346)
            for counter in (0, 1, 2, 17, 12345):
                got = permutation_at(seed, counter, n)
                assert got == want[counter], (seed, counter, n)
                assert all(type(v) is int for v in got)
    # numpy's first three orders of 5 blocks seeded 0 (numpy 2.4)
    assert [permutation_at(0, k, 5) for k in range(3)] == [(2, 4, 3, 0, 1), (4, 1, 2, 0, 3), (0, 2, 3, 4, 1)]


def test_trial_orders_match_keyed_stream():
    assert _stream(42, 4, 8) == [permutation_at(42, c, 4) for c in range(8)]


def test_batched_orders_match_keyed_generator():
    """Orders drawn in draws of irregular sizes by _trial_orders, and one at
    a time by permutation_at, are the successive
    default_rng(seed).permutation(n) draws, for seeds of one, two and three
    words and n from 1 to 20."""
    for seed in (0, 2**31 - 1, 2**31 + 1, 2**32 + 5, 2**64 + 7):
        for n in range(1, 21):
            want = _draws(seed, n, 70)
            assert _stream(seed, n, 70) == want, (seed, n)
            assert [permutation_at(seed, k, n) for k in (0, 1, 69)] == [want[0], want[1], want[69]]


def test_trial_orders_cross_draw_boundaries():
    """Orders drawn across draws of 1, 3, 4, 64 and 256 orders are the
    successive generator draws, order by order, and the rows of one draw of
    them all, for n from 1 to 20."""
    seed = 2**31 + 1
    for n in (1, 3, 4, 14, 20):
        orders = _stream(seed, n, 80)
        assert orders == _draws(seed, n, 80)
        assert orders == list(map(tuple, rp._trial_orders(seed, n)(80).tolist()))
        assert all(type(v) is int for order in orders for v in order)
    with pytest.raises(cs.UsageError):
        _stream(seed, 0, 1)


def test_permutation_uniformity_chi_square():
    """All n! orders of 3 blocks occur with equal frequency."""
    cells = {p: 0 for p in itertools.permutations(range(3))}
    for order in _stream(2024, 3, 6000):
        cells[order] += 1
    counts = list(cells.values())
    res = stats.chisquare(counts)
    assert res.pvalue > 1e-3


# -- permuted sweeps ----------------------------------------------------------


def test_rp_sweep_identity_order_matches_cyclic():
    inst = coupled_three_block()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.5, gamma=1.0, tol=0.0, max_iter=1)
    st0 = cs.IterateState.start(inst, x0=np.arange(4.0))
    via_rp = cs.step(inst, cfg, st0, order=(0, 1, 2))
    via_cyc = cs.step(inst, cfg, st0)
    assert np.array_equal(via_rp.x, via_cyc.x)
    assert np.array_equal(via_rp.mu, via_cyc.mu)


def test_rp_sweep_rejects_bad_sigma():
    inst = coupled_three_block()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0)
    with pytest.raises(cs.UsageError):
        cs.step(inst, cfg, cs.IterateState.start(inst), order=(0, 0, 2))


def test_integer_arguments_reject_floats():
    """A block order, max_iter, the trial count and the seed must be
    integers: a float is a UsageError rather than truncated; numpy integers
    pass."""
    inst = coupled_three_block()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, max_iter=5)
    st0 = cs.IterateState.start(inst, x0=np.ones(4))
    for order in ((2.9, 0.2, 1.5), (2.0, 0.0, 1.0)):
        with pytest.raises(cs.UsageError, match="not a permutation"):
            cs.step(inst, cfg, st0, order=order)
    with pytest.raises(cs.UsageError, match="max_iter must be an integer"):
        cs.run_solver(inst, dataclasses.replace(cfg, max_iter=2.5))
    with pytest.raises(cs.UsageError, match="trials must be an integer"):
        cs.run_rp_solver(inst, cfg, trials=1.5)
    for seed in (1.5, None):
        with pytest.raises(cs.UsageError, match="seed must be an integer"):
            cs.run_rp_solver(inst, dataclasses.replace(cfg, seed=seed))
    want = cs.step(inst, cfg, st0, order=(2, 0, 1))
    got = cs.step(inst, cfg, st0, order=np.array([2, 0, 1]))
    assert np.array_equal(got.x, want.x) and np.array_equal(got.mu, want.mu)
    want = cs.run_rp_solver(inst, cfg, trials=2)[0]
    got = cs.run_rp_solver(inst, dataclasses.replace(cfg, max_iter=np.int64(5)), trials=np.int32(2))[0]
    assert [a.csv_rows() for a in got] == [a.csv_rows() for a in want]


def test_order_changes_the_iterate():
    inst = coupled_three_block()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0)
    st0 = cs.IterateState.start(inst, x0=np.ones(4))
    a = cs.step(inst, cfg, st0, order=(0, 1, 2))
    b = cs.step(inst, cfg, st0, order=(2, 1, 0))
    assert not np.allclose(a.x, b.x)


# -- randomly permuted runs ---------------------------------------------------


def test_rp_run_reproducible_and_trialwise_isolated(tmp_path):
    inst = three_by_three_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0, tol=1e-9, max_iter=4000)
    traces_a, mean_a = cs.run_rp_solver(inst, dataclasses.replace(cfg, seed=5), trials=3)
    traces_b, mean_b = cs.run_rp_solver(inst, dataclasses.replace(cfg, seed=5), trials=3)
    for ta, tb in zip(traces_a, traces_b):
        assert ta.ks == tb.ks
        assert np.array_equal(ta.x, tb.x)
        assert np.array_equal(ta.mu, tb.mu)
    assert np.array_equal(mean_a.Ex, mean_b.Ex)
    # trial 2 can be reproduced alone: its orders are seeded with 5 XOR 2
    solo, _ = cs.run_rp_solver(inst, dataclasses.replace(cfg, seed=5 ^ 2), trials=1)
    assert np.array_equal(solo[0].x, traces_a[2].x)
    assert solo[0].ks == traces_a[2].ks
    # CSV determinism
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    traces_a[1].to_csv(p1)
    traces_b[1].to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    first_line = p1.read_text().splitlines()[0]
    assert first_line.split(",")[0] == "trial"


def test_rp_trial_is_a_loop_of_steps_in_sampled_orders():
    """Trial t is cs.step applied in the orders permutation_at(seed XOR t, k,
    n), k = 0, 1, ..., iterate for iterate."""
    inst = coupled_three_block()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.5, gamma=1.0, tol=1e-9, max_iter=500, seed=6)
    x0 = np.linspace(-1.0, 1.0, 4)
    traces, _ = cs.run_rp_solver(inst, cfg, x0=x0, trials=3, keep_iterates=True)
    n = inst.blocks.n
    for t, trace in enumerate(traces):
        state = cs.IterateState.start(inst, x0=x0)
        assert np.array_equal(trace.iterates[0][0], state.x)
        for k in range(1, len(trace)):
            state = cs.step(inst, cfg, state, order=permutation_at(6 ^ t, k - 1, n))
            assert np.array_equal(trace.iterates[k][0], state.x)
            assert np.array_equal(trace.iterates[k][1], state.mu)
        assert np.array_equal(trace.x, state.x)
        assert np.array_equal(trace.mu, state.mu)


def test_rp_trials_do_not_depend_on_how_orders_are_batched(monkeypatch):
    """Trials whose every draw is made of draws of at most 4 orders run
    bitwise as with whole draws."""
    inst = coupled_three_block()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.5, gamma=1.0, tol=1e-9, max_iter=400, seed=12)
    want, want_mean = cs.run_rp_solver(inst, cfg, trials=5, keep_iterates=True)
    trial_orders = rp._trial_orders

    def in_pieces(seed, n):
        draw = trial_orders(seed, n)
        return lambda k: np.concatenate([draw(min(4, k - lo)) for lo in range(0, k, 4)])

    monkeypatch.setattr(rp, "_trial_orders", in_pieces)
    got, got_mean = cs.run_rp_solver(inst, cfg, trials=5, keep_iterates=True)
    for a, b in zip(want, got):
        assert a.ks == b.ks and len(a) > 20
        for (xa, ma), (xb, mb) in zip(a.iterates, b.iterates):
            assert np.array_equal(xa, xb) and np.array_equal(ma, mb)
    assert np.array_equal(want_mean.Ex, got_mean.Ex)


def _four_block_surrogate_case():
    rng = np.random.default_rng(8)
    dims = (1, 2, 1, 2)
    d = sum(dims)
    A = rng.standard_normal((2, d))
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=dims, m=2), H=random_psd(rng, d) + 0.3 * np.eye(d),
        g=rng.standard_normal(d), A=A, b=A @ rng.standard_normal(d),
    )
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.3, R=[0.5, None, 0.2, None])
    return inst, cfg, rng


def test_surrogate_parts_build_each_orders_matrix_within_the_chunk_bound(monkeypatch):
    """Every order's parts equal those of its matrix built entry by entry,
    whether the orders come in one call, one at a time, or in chunks of five
    matrices."""
    inst, cfg, rng = _four_block_surrogate_case()
    d = inst.blocks.d
    orders = list(itertools.permutations(range(4)))
    DX = rng.standard_normal((len(orders), d))
    RES = rng.standard_normal((len(orders), 2))
    ws = _Workspace(inst, cfg)
    want = np.array([
        np.sqrt(np.add.reduceat(v * v, ws.offsets)) for v in (uncached_U(ws, o).dot(dx) for o, dx in zip(orders, DX))
    ])
    assert np.array_equal(ws.surrogate_parts(DX, RES, orders), want)
    for j, order in enumerate(orders):
        assert np.array_equal(ws.surrogate_parts(DX[j : j + 1], RES[j : j + 1], [order]), want[j : j + 1])
    monkeypatch.setattr(solvers, "SURROGATE_CHUNK_BYTES", 5 * d * d * 8)
    assert np.array_equal(ws.surrogate_parts(DX, RES, orders), want)
    assert not hasattr(ws, "U")


def test_surrogate_matrix_zeroes_the_blocks_earlier_in_the_order():
    """surrogate_matrix of each order, alone and in a stack of all orders,
    equals the matrix built entry by entry."""
    inst, cfg, _ = _four_block_surrogate_case()
    ws = _Workspace(inst, cfg)
    orders = list(itertools.permutations(range(4)))
    for order, U in zip(orders, ws.surrogate_matrix(np.array(orders))):
        want = uncached_U(ws, order)
        assert np.array_equal(ws.surrogate_matrix(order), want) and np.array_equal(U, want), order


def test_one_observation_of_many_orders_stays_within_the_chunk_bound():
    """640 rows in distinct orders of 7 blocks of 10 (d = 70): the matrices
    built at a time stay within SURROGATE_CHUNK_BYTES (1 MiB), so the traced
    peak of one observation stays below 4 MiB (3.2 MiB when written), where
    one kept and one stacked matrix per distinct order took 49.7 MiB."""
    rng = np.random.default_rng(19)
    dims = (10,) * 7
    d = sum(dims)
    A = rng.standard_normal((3, d))
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=dims, m=3), H=random_psd(rng, d) + 0.5 * np.eye(d),
        g=rng.standard_normal(d), A=A, b=A @ rng.standard_normal(d),
    )
    ws = _Workspace(inst, cs.SolverConfig(variant="admm_cyclic_n"), random_orders=True)
    orders = list(dict.fromkeys(tuple(rng.permutation(7).tolist()) for _ in range(700)))[:640]
    assert len(orders) == 640
    Z = rng.standard_normal((640, d + 3))
    X_prev = rng.standard_normal((640, d))
    ws.observe(Z[:1], X_prev[:1], orders[:1])  # build the observer
    tracemalloc.start()
    try:
        ws.observe(Z, X_prev, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sample_mean_holds_stopped_trials_at_their_last_iterate():
    inst = three_by_three_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0, tol=1e-6, max_iter=5000, seed=1)
    traces, mean_trace = cs.run_rp_solver(inst, cfg, trials=4, keep_iterates=True)
    lengths = [len(t) for t in traces]
    assert len(set(lengths)) > 1  # the trials stop at different k
    k_len = max(lengths)
    padded = np.array([
        [np.concatenate(t.iterates[min(k, len(t) - 1)]) for k in range(k_len)] for t in traces
    ])
    expected = np.mean(padded, axis=0)
    d = inst.blocks.d
    assert mean_trace.ks == list(range(k_len))
    assert np.array_equal(mean_trace.Ex, expected[:, :d])
    assert np.array_equal(mean_trace.Emu, expected[:, d:])


def test_rp_run_nan_start_trips_divergence_guard():
    inst = three_by_three_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0, tol=1e-9, max_iter=300)
    traces, _ = cs.run_rp_solver(inst, cfg, mu0=_arr(np.nan, 0.0, 0.0), trials=2)
    for t in traces:
        assert t.status == "diverged"
        assert len(t) == 2


def test_rp_run_rejects_a_start_of_the_wrong_length():
    inst = three_by_three_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", tol=1e-9, max_iter=300)
    with pytest.raises(cs.StructuralError, match="x0 has 2 entries, expected 3"):
        cs.run_rp_solver(inst, cfg, x0=[1.0, 2.0], trials=2)
    with pytest.raises(cs.StructuralError, match="mu0 has 4 entries, expected 3"):
        cs.run_rp_solver(inst, cfg, mu0=[0.0] * 4, trials=2)


def test_rp_run_rejects_negative_seed():
    """A negative or missing seed is a usage error, not a TypeError."""
    for seed in (-1, None):
        cfg = cs.SolverConfig(variant="admm_cyclic_n", seed=seed)
        with pytest.raises(cs.UsageError, match="seed"):
            cs.run_rp_solver(three_by_three_instance(), cfg, trials=2)


def test_rp_run_converges_where_cyclic_diverges():
    inst = three_by_three_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0, tol=1e-9, max_iter=20_000)
    cyc = cs.run_solver(inst, cfg)
    assert cyc.status == "diverged"
    traces, _ = cs.run_rp_solver(inst, cfg, trials=5)
    assert all(t.status == "converged" for t in traces)
    for t in traces:
        res = cs.kkt_residual(inst, cs.KKTPoint(x=t.x, mu=t.mu))
        assert res.max_component <= 1e-8


def test_rp_run_accepts_nonsmooth_terms():
    rng = np.random.default_rng(41)
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.array([[1.0, 0.5], [0.5, 1.0]]), g=_arr(1.0, 1.0),
        A=np.array([[1.0, 1.0]]), b=_arr(0.0),
        theta=(cs.ProxFn.l1(1.0), cs.ProxFn.l1(1.0)),
    )
    beta = 2.0
    B = [inst.H_block(i, i) + beta * np.outer(inst.A_block(i), inst.A_block(i)) for i in range(2)]
    R = [float(np.linalg.eigvalsh(Bi)[-1]) * 1.3 * np.eye(1) - Bi for Bi in B]
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=beta, R=R, tol=1e-9, max_iter=50_000, seed=3)
    traces, mean_trace = cs.run_rp_solver(inst, cfg, trials=2)
    assert all(t.status == "converged" for t in traces)
    assert mean_trace.mode == "sample_mean"


# -- expected iteration -------------------------------------------------------


def test_expected_operator_fixed_point_is_stationary():
    inst = coupled_three_block()
    beta = 2.0
    M, c = cs.expected_update_operator(inst, beta)
    d, m = inst.blocks.d, inst.blocks.m
    z = np.linalg.lstsq(np.eye(d + m) - M, c, rcond=None)[0]
    x, mu = z[:d], z[d:]
    assert np.linalg.norm(inst.H @ x + inst.g - inst.A.T @ mu) <= 1e-8
    assert np.linalg.norm(inst.A @ x - inst.b) <= 1e-8


def test_expected_operator_requires_zero_terms():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(1.0),
        theta=(cs.ProxFn.l1(1.0), cs.ProxFn.zero()),
    )
    with pytest.raises(cs.UsageError):
        cs.expected_update_operator(inst, 1.0)


def test_expected_operator_enumeration_guard():
    with pytest.raises(cs.EnumerationLimitError):
        cs.expected_update_operator(past_guard_instance(), 1.0)


def test_expected_iteration_checks_stopping_rule_first():
    # the instance would fail the cost guard; the stopping rule is rejected
    # before any of that work starts
    inst = past_guard_instance()
    for tol in (float("nan"), -1.0):
        with pytest.raises(cs.UsageError, match="tol"):
            cs.run_expected_iteration(inst, 1.0, tol=tol)
    with pytest.raises(cs.UsageError, match="max_iter"):
        cs.run_expected_iteration(inst, 1.0, k_max=0)


def test_expected_iteration_reaches_oracle():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(2.0),
    )
    et = cs.run_expected_iteration(inst, 1.0, tol=1e-12)
    assert et.status == "converged"
    assert et.mode == "exact"
    z = et.Z[-1]
    pt = cs.solve_kkt_oracle(inst)
    assert np.linalg.norm(z[:2] - pt.x) <= 1e-8
    assert np.linalg.norm(z[2:] - pt.mu) <= 1e-8


def test_expected_iteration_handles_non_unique_solutions():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.zeros((2, 2)), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(1.0),
    )
    et = cs.run_expected_iteration(inst, 1.0, tol=1e-12)
    assert et.status == "converged"
    z = et.Z[-1]
    assert abs(z[0] + z[1] - 1.0) <= 1e-10
    assert np.linalg.norm(inst.A.T @ z[2:]) <= 1e-10


def _criterion_7_instance(index):
    """Instance `index` of the acceptance suite's spectral batch (criteria
    5-7) and its penalty."""
    rng = np.random.default_rng(SPECTRAL_SEED)
    for _ in range(index + 1):
        inst = spectral_instance(rng)
    return inst, (0.1, 1.0, 10.0)[index % 3]


def test_expected_iteration_rows_equal_the_per_step_loop():
    """Rows and status equal, bit for bit, the loop that keeps a copy of
    each row and stops on np.linalg.norm: at a converged stop, at max_iter
    stops on both sides of the row array's doublings and of the first
    64-step block, from a start at a fixed point (which stops at row 1),
    and on criterion 7's instance 142, whose stop is decided by a step
    within a factor 1.6 of tol."""
    fixed = _inconsistent_pair(0.0)
    inst_142, beta_142 = _criterion_7_instance(142)
    for inst, beta, k_max, tol in (
        (three_by_three_instance(), 1.5, 100_000, 1e-12),
        (coupled_three_block(), 1.5, 100_000, 1e-13),
        (coupled_three_block(), 1.5, 256, 0.0),
        (three_by_three_instance(), 1.5, 600, 0.0),
        *((coupled_three_block(), 1.5, k_max, 0.0) for k_max in (1, 63, 64, 65)),
        (fixed, 1.5, 100_000, 0.0),
        (inst_142, beta_142, EXPECT_SEGMENT, EXPECT_RUN_TOL),
    ):
        et = cs.run_expected_iteration(inst, beta, k_max=k_max, tol=tol)
        M, c = cs.expected_update_operator(inst, beta)
        Z, status = expected_iteration_rows(M, c, np.zeros(len(c)), k_max, tol)
        assert et.status == status and et.ks == list(range(len(Z)))
        assert np.array_equal(np.hstack([et.Ex, et.Emu]), Z)
        if inst is fixed:
            assert status == "converged" and len(Z) == 2
        elif k_max < 100:
            assert status == "max_iter" and len(Z) == k_max + 1


def test_expected_iteration_rejects_a_start_of_the_wrong_length():
    inst = _inconsistent_pair(1.0)
    for z0 in ([0.0, 0.0, 0.0], [0.0] * 5):
        with pytest.raises(cs.StructuralError, match=f"z0 has {len(z0)} entries, expected 4"):
            cs.run_expected_iteration(inst, 1.0, z0=z0)


def _inconsistent_pair(b2):
    """Two scalar blocks whose two constraint rows A x = (0, b2) have no
    solution: the expected multiplier drifts by about b2 / 2 per step."""
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=2),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0], [1.0, 1.0]]), b=_arr(0.0, b2),
    )


def test_expected_iteration_rejects_a_non_finite_start():
    inst = _inconsistent_pair(1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(cs.UsageError, match="z0"):
            cs.run_expected_iteration(inst, 1.0, z0=[bad, 0.0, 0.0, 0.0], k_max=20_000)


def test_expected_iteration_stops_at_the_first_row_past_the_limit():
    """A drifting trajectory ends at its first row above DIVERGENCE_LIMIT,
    as diverged, and not after k_max steps; so does one whose first step
    already leaves the limit, long before it would overflow to inf and NaN."""
    et = cs.run_expected_iteration(_inconsistent_pair(1e11), 1.0, k_max=20_000)
    rows = np.abs(np.hstack([et.Ex, et.Emu])).max(axis=1)
    assert et.status == "diverged" and len(et.ks) == 21
    assert np.all(rows[:-1] <= solvers.DIVERGENCE_LIMIT) and rows[-1] > solvers.DIVERGENCE_LIMIT
    et = cs.run_expected_iteration(_inconsistent_pair(1e306), 1.0, k_max=10_000_000)
    assert et.status == "diverged" and et.ks == [0, 1]


def test_sample_mean_tracks_exact_expectation():
    """Monte-Carlo mean of the permuted iterates approaches the exact
    expectation at small k, within a five-sigma band."""
    inst = three_by_three_instance()
    beta = 1.0
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=beta, gamma=1.0, tol=0.0, max_iter=10, seed=7)
    trials = 400
    traces, mean_trace = cs.run_rp_solver(inst, cfg, trials=trials, keep_iterates=True)
    exact = cs.run_expected_iteration(inst, beta, k_max=10, tol=0.0)
    k = 6
    samples = np.array([np.concatenate(t.iterates[k]) for t in traces])
    sigma_hat = np.linalg.norm(np.std(samples, axis=0, ddof=1))
    gap = np.linalg.norm(mean_trace.Z[k] - exact.Z[k])
    assert gap <= 5.0 * sigma_hat / np.sqrt(trials)


def test_expectation_trace_csv(tmp_path):
    inst = three_by_three_instance()
    et = cs.run_expected_iteration(inst, 1.0, k_max=50, tol=0.0)
    path = tmp_path / "expect.csv"
    et.to_csv(path, header_lines=["beta=1.0"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# beta=1.0"
    assert lines[1].split(",") == ["k", "Ex_1", "Ex_2", "Ex_3", "Emu_1", "Emu_2", "Emu_3", "mode"]
    assert lines[2].split(",")[-1] == "exact"
    assert lines[-1] == "# status=max_iter"
    # numeric round trip
    row5 = lines[2 + 5].split(",")
    assert int(row5[0]) == 5
    assert np.array_equal(
        np.array([float(v) for v in row5[1:4]]), et.Ex[5]
    )


@pytest.mark.parametrize("m", [2, 0])
def test_expectation_trace_csv_matches_cell_by_cell_format(tmp_path, m):
    """NaN, infinite, signed-zero and subnormal cells, and a trace with no
    multipliers, are written byte for byte as repr(float(v)) writes each cell."""
    edge = np.array([
        [np.nan, np.inf, -np.inf, -0.0],
        [5e-324, 0.0, 1.0 / 3.0, -1e300],
        [0.1, -5e-324, 2.5, 1e-310],
    ])
    for mode in ("exact", "sample_mean"):
        et = rp.ExpectationTrace(mode=mode, ks=[0, 1, 7], Z=edge[:, : 2 + m], d=2, status="converged")
        path = tmp_path / f"{mode}{m}.csv"
        header = ["beta=1.0", "trials=2"]
        et.to_csv(path, header_lines=header)
        assert path.read_text() == expectation_text(et, header)
