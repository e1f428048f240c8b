"""Tests for the certification engine: ordered sweep matrices, the averaged
update, eigenvalue and multiplicity checks, block-order rate comparison, and
non-uniqueness witnesses."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting import solvers
from coupled_splitting._averaging import averaged_bordered_inverse, subset_layers
from coupled_splitting.cli import main as cli_main
from coupled_splitting.solvers import GAMMA_SUP
from coupled_splitting.spectral import (
    build_perm_matrices,
    build_Q_M,
    check_eig_QS,
    check_M_spectrum,
    load_report,
    rank_identity_check,
)
from gen import past_guard_instance, random_psd, spectral_instance, two_block_instance, violating_instance
from oracles import enumerated_average, exact_averaged_inverse


def _arr(*vals):
    return np.asarray(vals, dtype=float)


def pair_instance(H, A=((1.0, 1.0),), b=(0.0,), g=(0.0, 0.0)):
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=len(b)),
        H=np.asarray(H, dtype=float), g=np.asarray(g, dtype=float),
        A=np.asarray(A, dtype=float), b=np.asarray(b, dtype=float),
    )


def three_by_three_instance():
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=3),
        H=np.zeros((3, 3)), g=np.zeros(3), A=A, b=_arr(1.0, 2.0, 3.0),
    )


# -- ordered sweep matrices ---------------------------------------------------


def test_perm_matrices_hand_example():
    inst = pair_instance(2.0 * np.eye(2))
    pm = build_perm_matrices(inst, beta=1.0, sigma=(0, 1))
    assert np.array_equal(pm.L_sigma, np.array([[3.0, 0.0], [1.0, 3.0]]))
    assert np.array_equal(pm.R_sigma, np.array([[0.0, -1.0], [0.0, 0.0]]))
    assert np.array_equal(pm.Lbar[2, :], _arr(1.0, 1.0, 1.0))
    assert np.array_equal(pm.Rbar[:, 2], _arr(1.0, 1.0, 1.0))
    # Lbar @ M_sigma = Rbar by construction
    assert np.allclose(pm.Lbar @ pm.M_sigma, pm.Rbar, atol=1e-14)


def test_reversing_the_order_transposes_the_factor():
    rng = np.random.default_rng(11)
    inst = spectral_instance(rng, n_choices=(3,), d_max=3)
    for sigma in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        fwd = build_perm_matrices(inst, 1.0, sigma)
        rev = build_perm_matrices(inst, 1.0, sigma[::-1])
        assert np.allclose(fwd.L_sigma.T, rev.L_sigma, atol=1e-14)


def test_perm_matrices_input_errors():
    inst = pair_instance(np.eye(2))
    with pytest.raises(cs.UsageError):
        build_perm_matrices(inst, 1.0, (0, 0))
    with pytest.raises(cs.UsageError):
        build_perm_matrices(inst, -1.0, (0, 1))
    singular = pair_instance(np.zeros((2, 2)), A=((1.0, 0.0),))
    with pytest.raises(cs.ConditionError, match="block 1"):
        build_perm_matrices(singular, 1.0, (0, 1))
    with pytest.raises(cs.ConditionError, match="block 1"):
        build_Q_M(singular, 1.0)


def test_update_matrix_agrees_with_one_sweep():
    """The order-sigma matrix reproduces actual sweep iterates: the sweep is
    affine, so differences of iterates transform by M_sigma exactly."""
    rng = np.random.default_rng(12)
    inst = spectral_instance(rng, n_choices=(3,), d_max=2)
    d, m = inst.blocks.d, inst.blocks.m
    sigma = (2, 0, 1)
    pm = build_perm_matrices(inst, 1.0, sigma)
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0)
    za, zb = rng.standard_normal(d + m), rng.standard_normal(d + m)
    outs = []
    for z in (za, zb):
        st = cs.IterateState.start(inst, x0=z[:d], mu0=z[d:])
        nxt = cs.step(inst, cfg, st, order=sigma)
        outs.append(np.concatenate([nxt.x, nxt.mu]))
    lhs = outs[0] - outs[1]
    rhs = pm.M_sigma @ (za - zb)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


# -- averaged update ----------------------------------------------------------


def test_averaged_inverse_hand_example():
    inst = pair_instance(2.0 * np.eye(2))
    report = build_Q_M(inst, beta=1.0)
    assert np.allclose(report.Q, np.array([[1 / 3, -1 / 18], [-1 / 18, 1 / 3]]), atol=1e-15)
    assert np.allclose(np.sort(report.eig_QS), _arr(7 / 9, 10 / 9), atol=1e-12)
    assert report.q_min_eig > 0
    assert report.consistency_defect <= 1e-13


def test_averaged_update_fully_coupled_singular_case():
    inst = pair_instance(np.zeros((2, 2)))
    report = cs.analyze_instance(inst, beta=1.0)
    assert np.allclose(report.Q, np.array([[1.0, -0.5], [-0.5, 1.0]]), atol=1e-15)
    eig = np.sort_complex(report.eig_M)
    assert np.allclose(eig, _arr(0.0, 0.0, 1.0), atol=1e-12)
    assert report.am_one == report.gm_one == 1
    assert report.eig_one_count == 1
    assert report.verdicts["lemma_3_1"] is True
    assert report.verdicts["lemma_3_3"] is True
    assert report.verdicts["lemma_3_4"] is True
    assert report.verdicts["lemma_3_5"] is True
    assert report.verdicts["am_matches_spectrum"] is True
    assert report.verdicts["prop_3_1"] is None  # zero diagonal blocks


def test_averaged_update_powers_stabilize_to_projector():
    """M^k converges; the limit has rank equal to the multiplicity of the
    unit eigenvalue."""
    inst = pair_instance(np.zeros((2, 2)))
    report = build_Q_M(inst, beta=1.0)
    P = np.linalg.matrix_power(report.M, 60)
    P_next = report.M @ P
    assert np.max(np.abs(P_next - P)) <= 1e-12
    assert np.linalg.matrix_rank(P, tol=1e-10) == report.am_one
    assert np.max(np.abs(P @ P - P)) <= 1e-12


def test_order_average_requires_zero_terms():
    """The averaged update is defined only for the purely quadratic model, so
    analyze rejects separable terms instead of certifying another problem."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
        theta=(cs.ProxFn.l1(1.0), cs.ProxFn.box(-1.0, 1.0)),
    )
    for fn in (build_Q_M, cs.analyze_instance):
        with pytest.raises(cs.UsageError, match="separable term"):
            fn(inst, 1.0)


def test_enumeration_guard():
    inst = past_guard_instance()
    work = 2**14 * (14 + inst.blocks.m) ** 2 * 14
    with pytest.raises(cs.EnumerationLimitError, match=re.escape(f"estimated {work:.3g} multiply-adds")):
        build_Q_M(inst, 1.0)


def _pd_instance(rng, dims, m):
    """Zero-term instance with positive definite H and unit constraint rows."""
    d = sum(dims)
    W = rng.standard_normal((d, d))
    H = W @ W.T / d + 0.5 * np.eye(d)
    A = rng.standard_normal((m, d))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=dims, m=m),
        H=0.5 * (H + H.T), g=rng.standard_normal(d), A=A, b=rng.standard_normal(m),
    )


def _hand_block_factor(inst, S, sigma):
    pos = {blk: p for p, blk in enumerate(sigma)}
    L = np.zeros_like(S)
    for p in range(inst.blocks.n):
        for q in range(inst.blocks.n):
            if pos[p] >= pos[q]:
                sp, sq = inst.blocks.slice_of(p), inst.blocks.slice_of(q)
                L[sp, sq] = S[sp, sq]
    return L


def test_enumeration_oracle_matches_per_order_loop_bitwise():
    """The stacked float enumeration of the test oracle gives the same bits
    as a loop of one-order assemblies, whose factors match a hand-built
    block-triangular factor; n = 6 has 720 orders, so a partial last chunk
    is covered."""
    rng = np.random.default_rng(20)
    beta = 0.7
    for n in range(1, 7):
        dims = tuple(1 + (n + i) % 3 for i in range(n))
        d = sum(dims)
        for m in (0, min(d, n + 1)):
            inst = _pd_instance(rng, dims, m)
            S = inst.H + beta * (inst.A.T @ inst.A)
            Q = np.zeros((d, d))
            M_direct = np.zeros((d + m, d + m))
            for sigma in itertools.permutations(range(n)):
                pm = build_perm_matrices(inst, beta, sigma)
                assert np.array_equal(pm.L_sigma, _hand_block_factor(inst, S, sigma))
                inv_L = np.linalg.inv(pm.L_sigma)
                inv_L += inv_L @ (np.eye(d) - pm.L_sigma @ inv_L)
                Q += inv_L
                M_direct += pm.M_sigma
            Q /= math.factorial(n)
            M_direct /= math.factorial(n)
            oracle_Q, _, oracle_M = enumerated_average(inst, beta)
            assert np.array_equal(oracle_Q, Q), (n, m)
            assert np.array_equal(oracle_M, M_direct), (n, m)


def enumeration_rtol(n):
    """Tolerance, relative to max|Q|, for comparing with the float
    enumeration. Its own rounding error grows with the n! inverses it sums:
    against an exact rational enumeration (integer-valued scalar-block S,
    cond about 4) it was 1.6e-14 at n = 6, 7.1e-14 at n = 7 and 9.0e-13 at
    n = 8, while the path DP stayed within 6e-17. 2e-16 n! is about ten
    times the measured error at n = 7 and 8; the 1e-14 floor covers small
    n, where both sides sit at rounding level."""
    return 2e-16 * math.factorial(n) + 1e-14


def test_subset_algorithms_match_float_enumeration():
    """Every n <= 8 with mixed block sizes, without and with constraint
    rows: the path DP's Q, the first-block recursion's averaged bordered
    inverse and the closed-form M each match the enumerated averages, and
    the two subset algorithms agree far more closely with each other."""
    rng = np.random.default_rng(22)
    beta = 0.7
    for n in range(1, 9):
        dims = tuple(1 + (n + i) % 3 for i in range(n))
        d = sum(dims)
        for m in (0, min(d, n + 1)):
            inst = _pd_instance(rng, dims, m)
            Q, Qbar, M_direct = enumerated_average(inst, beta)
            report = build_Q_M(inst, beta)
            tol = enumeration_rtol(n)
            assert np.max(np.abs(report.Q - Q)) <= tol * np.max(np.abs(Q)), (n, m)
            assert np.max(np.abs(report.M - M_direct)) <= tol * max(1.0, np.max(np.abs(M_direct))), (n, m)
            S = inst.H + beta * (inst.A.T @ inst.A)
            blk = np.repeat(np.arange(n), dims)
            Dinv = np.linalg.inv(np.where(blk[:, None] == blk[None, :], S, 0.0))
            C = np.vstack([S, beta * inst.A])
            recursion = averaged_bordered_inverse(C, Dinv, blk, subset_layers(n))
            assert np.max(np.abs(recursion - Qbar)) <= tol * np.max(np.abs(Qbar)), (n, m)
            assert report.consistency_defect <= 1e-14 * max(1.0, np.max(np.abs(report.M))), (n, m)


def _integer_instance(rng, dims, m):
    """Instance whose curvature S = H + A'A (beta = 1) is integer-valued,
    with H diagonally dominant."""
    d = sum(dims)
    B = np.triu(rng.integers(-3, 4, size=(d, d)), 1)
    H = B + B.T
    H += np.diag(np.abs(H).sum(axis=1) + rng.integers(1, 4, size=d))
    A = rng.integers(-2, 3, size=(m, d))
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=dims, m=m),
        H=H.astype(float), g=np.zeros(d), A=A.astype(float), b=np.zeros(m),
    )


def test_path_dp_matches_exact_rational_enumeration():
    """For integer-valued curvature at n <= 5, scalar and mixed 1-2 dimensional
    blocks, the path DP's Q is within 1e-15 of max|Q| of the exact average of
    the order inverses in rationals."""
    rng = np.random.default_rng(23)
    for n in range(1, 6):
        for dims in ((1,) * n, tuple(1 + (i + n) % 2 for i in range(n))):
            for m in (0, 2):
                inst = _integer_instance(rng, dims, m)
                S = inst.H + inst.A.T @ inst.A
                exact = exact_averaged_inverse(S, dims)
                report = build_Q_M(inst, 1.0)
                scale = max(abs(v) for row in exact for v in row)
                worst = max(
                    abs(Fraction(float(q)) - v)
                    for q_row, row in zip(report.Q, exact)
                    for q, v in zip(q_row, row)
                )
                assert worst <= Fraction(1e-15) * scale, (dims, m, float(worst / scale))


def test_build_Q_M_memory_stays_bounded_at_seven_blocks():
    """All 5,040 orders of a 7-block instance with d = 14, m = 6 would take
    about 16 MB per stack of matrices; the subset algorithms hold one layer of
    at most 35 subsets at a time, and the traced peak stays far below that."""
    inst = _pd_instance(np.random.default_rng(21), (2,) * 7, 6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = build_Q_M(inst, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.q_min_eig > 0
    assert peak < 8 * 2**20, peak


def eight_block_probe():
    """Scalar 8-block instance with H = BB'/8 + I/2 and two constraint rows;
    cond(S) = 13.8 at beta = 1. The float enumeration of all 40,320 orders
    missed its own direct average by 2.6e-12 here, so analyze raised
    CertificateError."""
    rng = np.random.default_rng(1)
    B = rng.standard_normal((8, 8))
    H = B @ B.T / 8 + 0.5 * np.eye(8)
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1,) * 8, m=2),
        H=0.5 * (H + H.T), g=rng.standard_normal(8), A=rng.standard_normal((2, 8)), b=rng.standard_normal(2),
    )


def test_eight_block_probe_certifies(tmp_path):
    path = tmp_path / "probe8.json"
    cs.save_instance(eight_block_probe(), path)
    assert cli_main(["analyze", str(path), "--out", str(tmp_path)]) == 0
    report = load_report(tmp_path / "report.json")
    assert report.consistency_defect <= 1e-12
    assert all(v for v in report.verdicts.values() if v is not None), report.verdicts


def test_analyze_beyond_enumeration():
    """n = 7..10 with 1-2 dimensional blocks, rank-deficient H and duplicated
    constraint rows: QS has its eigenvalues in [0, 4/3), and the unit
    eigenvalue multiplicities match rank formulas computed here and agree."""
    rng = np.random.default_rng(24)
    for n in (7, 8, 9, 10):
        for beta in (0.5, 2.0):
            inst = spectral_instance(rng, n_choices=(n,), d_max=2)
            d, m = inst.blocks.d, inst.blocks.m
            report = cs.analyze_instance(inst, beta)
            S = inst.H + beta * (inst.A.T @ inst.A)
            eig_QS = np.linalg.eigvals(report.Q @ S)
            assert np.max(np.abs(eig_QS.imag)) <= 1e-10, (n, beta)
            assert np.all(eig_QS.real >= -1e-10) and np.all(eig_QS.real < 4 / 3 - 1e-12), (n, beta)
            assert report.verdicts["lemma_3_1"], (n, beta)
            Sbar = np.block([[S, -inst.A.T], [beta * inst.A, np.zeros((m, m))]])
            rank = np.linalg.matrix_rank
            am = m + d - rank(beta * (inst.A.T @ inst.A)) - rank(S)
            gm = m + d - rank(Sbar)
            assert (report.am_one, report.gm_one) == (am, gm), (n, beta)
            assert am == gm == report.eig_one_count, (n, beta)
            assert report.verdicts["lemma_3_4"] and report.verdicts["lemma_3_5"], (n, beta)


def test_rank_identity_hand_example():
    inst = pair_instance(np.zeros((2, 2)))
    assert rank_identity_check(inst, 1.0)
    inst2 = pair_instance(2.0 * np.eye(2))
    assert rank_identity_check(inst2, 1.0)


def _batch_shape_instance(rng, j):
    """An instance of the j-th shape of the benchmark's analyze-batch
    workload: 2 to 4 blocks of 1 to 3 coordinates, H of full, one-short,
    half or zero rank, and every other instance with a duplicated
    constraint row; its diagonal sweep blocks are nonsingular."""
    n = 2 + j % 3
    dims = tuple(1 + (j + i) % 3 for i in range(n))
    d = sum(dims)
    duplicate = j % 2 == 1
    m = min(d, max(dims) + 1 + duplicate)
    rank = (d, d - 1, d // 2, 0)[j % 4]
    beta = (0.5, 1.0, 2.0)[(j // 4) % 3]
    while True:
        A = rng.standard_normal((m, d))
        if duplicate and m >= 2:
            A[m - 1] = A[0]
        inst = cs.ProblemInstance(
            blocks=cs.BlockStructure(dims=dims, m=m), H=random_psd(rng, d, rank=rank),
            g=rng.standard_normal(d), A=A, b=A @ rng.standard_normal(d),
        )
        try:
            return inst, beta, cs.analyze_instance(inst, beta)
        except (cs.ConditionError, cs.CertificateError):
            continue


def test_rank_identity_verdict_equals_standalone_check():
    """analyze_instance's lemma_3_3, read off build_Q_M's ranks, is the
    verdict of rank_identity_check, which ranks the matrices anew."""
    rng = np.random.default_rng(48)
    for j in range(48):
        inst, beta, report = _batch_shape_instance(rng, j)
        assert report.verdicts["lemma_3_3"] is rank_identity_check(inst, beta), j
    wide = pair_instance(np.diag([1e11, 1.0]))
    assert cs.analyze_instance(wide, 1.0).verdicts["lemma_3_3"] is rank_identity_check(wide, 1.0) is True


def test_verdict_checks_flag_fabricated_failures():
    inst = pair_instance(2.0 * np.eye(2))
    report = build_Q_M(inst, beta=1.0)
    assert check_eig_QS(report)
    report.eig_QS = _arr(0.5, 4.0 / 3.0)
    assert not check_eig_QS(report)
    report.eig_QS = _arr(-1e-9, 0.5)
    assert not check_eig_QS(report)
    report.eig_QS = _arr(0.5, 1.0)
    report.q_min_eig = 0.0
    assert not check_eig_QS(report)

    report2 = build_Q_M(inst, beta=1.0)
    ok, _ = check_M_spectrum(report2)
    assert ok
    report2.eig_M = np.array([1.0 + 0.0j, 1.0j])
    ok, _ = check_M_spectrum(report2)
    assert not ok
    assert report2.verdicts["lemma_3_4"] is False
    report2.am_one, report2.gm_one = 2, 1
    _, mult_ok = check_M_spectrum(report2)
    assert not mult_ok


def test_analyze_batch_of_random_instances():
    rng = np.random.default_rng(13)
    betas = (0.1, 1.0, 10.0)
    for trial in range(30):
        inst = spectral_instance(rng)
        report = cs.analyze_instance(inst, beta=betas[trial % 3])
        v = report.verdicts
        assert v["lemma_3_1"] and v["lemma_3_3"] and v["lemma_3_4"] and v["lemma_3_5"]
        assert v["am_matches_spectrum"]
        assert report.q_min_eig > 0
        assert report.consistency_defect <= 1e-11


def test_prop_verdict_present_for_pd_two_block():
    rng = np.random.default_rng(14)
    inst = two_block_instance(rng, kinds=("zero",))
    report = cs.analyze_instance(inst, beta=1.0)
    assert report.verdicts["prop_3_1"] is True


def test_report_json_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    inst = spectral_instance(rng, n_choices=(3,))
    report = cs.analyze_instance(inst, beta=0.1)
    path = tmp_path / "report.json"
    cs.save_report(report, path)
    back = load_report(path)
    assert back.verdicts == report.verdicts
    assert np.array_equal(back.Q, report.Q)
    assert np.array_equal(back.M, report.M)
    assert np.array_equal(back.eig_QS, report.eig_QS)
    assert np.array_equal(back.eig_M, report.eig_M)
    assert (back.rank_S, back.rank_penalized_gram, back.rank_stationarity_block) == (
        report.rank_S, report.rank_penalized_gram, report.rank_stationarity_block)
    assert (back.am_one, back.gm_one, back.eig_one_count) == (
        report.am_one, report.gm_one, report.eig_one_count)
    assert back.rho_M == report.rho_M
    assert back.beta == report.beta


# -- fixed-order update and the contrast instance -----------------------------


def test_cyclic_update_matrix_linearity_oracle():
    inst = three_by_three_instance()
    M, rho = cs.cyclic_update_matrix(inst, beta=1.0, gamma=1.0)
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0)
    rng = np.random.default_rng(16)
    za, zb = rng.standard_normal(6), rng.standard_normal(6)
    outs = []
    for z in (za, zb):
        st = cs.step(inst, cfg, cs.IterateState.start(inst, x0=z[:3], mu0=z[3:]))
        outs.append(np.concatenate([st.x, st.mu]))
    assert np.allclose(outs[0] - outs[1], M @ (za - zb), atol=1e-10)
    assert rho > 1.0


def test_contrast_cyclic_diverges_averaged_contracts():
    inst = three_by_three_instance()
    _, rho_cyc = cs.cyclic_update_matrix(inst, beta=1.0)
    report = cs.analyze_instance(inst, beta=1.0)
    assert rho_cyc > 1.0
    assert report.verdicts["lemma_3_4"] and report.verdicts["lemma_3_5"]
    et = cs.run_expected_iteration(inst, 1.0, tol=1e-12)
    assert et.status == "converged"


# the engine's sweep maps against the LU solve (plus one refinement) of
# build_perm_matrices, relative to 1 + the largest magnitude of the map
SWEEP_MAP_TOL = 1e-14


def _assert_same_map(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= SWEEP_MAP_TOL * (1.0 + np.max(np.abs(want)))


def test_cyclic_update_matrix_is_the_bordered_solve():
    """At gamma = 1 the update is build_perm_matrices' M_sigma of the
    identity order; at other gamma, the bordered solve whose multiplier rows
    hold gamma beta A."""
    rng = np.random.default_rng(64)
    for _ in range(20):
        inst = spectral_instance(rng)
        beta = float(rng.uniform(0.2, 3.0))
        pm = build_perm_matrices(inst, beta, tuple(range(inst.blocks.n)))
        _assert_same_map(cs.cyclic_update_matrix(inst, beta)[0], pm.M_sigma)
        gamma = float(rng.uniform(0.1, 1.6))
        Lbar = pm.Lbar.copy()
        Lbar[inst.blocks.d :, : inst.blocks.d] = gamma * beta * inst.A
        want = np.linalg.solve(Lbar, pm.Rbar)
        want += np.linalg.solve(Lbar, pm.Rbar - Lbar @ want)
        _assert_same_map(cs.cyclic_update_matrix(inst, beta, gamma)[0], want)


def test_sweep_map_certificates_build_no_row_observer(monkeypatch):
    """bcd_rate_matrices and cyclic_update_matrix read sweep maps only: with
    the row observer made to raise they return the same matrices."""
    rng = np.random.default_rng(19)
    H = random_psd(rng, 5) + 0.5 * np.eye(5)
    inst = spectral_instance(rng)
    want_bcd = cs.bcd_rate_matrices(H, 2)
    want_cyc = cs.cyclic_update_matrix(inst, 1.3, 0.8)

    def refuse(*args, **kwargs):
        raise AssertionError("row observer built")

    monkeypatch.setattr(solvers, "_Observer", refuse)
    got_bcd = cs.bcd_rate_matrices(H, 2)
    for name in ("M1", "M2", "M3"):
        assert np.array_equal(getattr(got_bcd, name), getattr(want_bcd, name)), name
    got_cyc = cs.cyclic_update_matrix(inst, 1.3, 0.8)
    assert np.array_equal(got_cyc[0], want_cyc[0]) and got_cyc[1] == want_cyc[1]


def test_cyclic_update_matrix_guards():
    inst = three_by_three_instance()
    with pytest.raises(cs.UsageError):
        cs.cyclic_update_matrix(inst, beta=1.0, gamma=GAMMA_SUP)
    with pytest.raises(cs.UsageError):
        cs.cyclic_update_matrix(inst, beta=1.0, gamma=0.0)
    nonsmooth = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(1.0),
        theta=(cs.ProxFn.l1(1.0), cs.ProxFn.zero()),
    )
    with pytest.raises(cs.UsageError):
        cs.cyclic_update_matrix(nonsmooth, beta=1.0)


# -- block-order rate comparison ----------------------------------------------


def test_bcd_rates_normalized_hand_values():
    H = np.array([[1.0, 0.5], [0.5, 1.0]])
    cmp = cs.bcd_rate_matrices(H, d1=1)
    assert abs(cmp.rho1 - 0.25) <= 1e-12
    assert abs(cmp.rho2 - 0.25) <= 1e-12
    assert abs(cmp.rho3 - 0.375) <= 1e-12
    assert abs(cmp.sigma1 - 0.25) <= 1e-12
    assert abs(cmp.rho3_closed_form - 0.375) <= 1e-12

    edge = cs.bcd_rate_matrices(np.array([[1.0, 1.0], [1.0, 1.0]]), d1=1)
    assert abs(edge.sigma1 - 1.0) <= 1e-12
    assert abs(edge.rho3 - 1.0) <= 1e-12
    assert abs(edge.rho3_closed_form - 1.0) <= 1e-12


def test_bcd_rates_random_psd_property():
    """On random positive definite H the fixed orders share one radius and
    the average is never faster; M1 and M2 are the sweeps in the orders
    (0, 1) and (1, 0) of the instance without constraint rows, as
    build_perm_matrices solves them."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        d = d1 + d2
        W = rng.standard_normal((d, d + 1))
        H = W @ W.T / d + np.diag(rng.uniform(0.2, 1.0, size=d))
        cmp = cs.bcd_rate_matrices(H, d1)
        assert abs(cmp.rho1 - cmp.rho2) <= 1e-10
        assert cmp.rho3 >= cmp.rho1 - 1e-10
        assert cmp.sigma1 is None
        assert cmp.rho3_closed_form is None
        inst = cs.ProblemInstance(blocks=cs.BlockStructure(dims=(d1, d2), m=0), H=H, g=np.zeros(d), A=None, b=None)
        _assert_same_map(cmp.M1, build_perm_matrices(inst, 1.0, (0, 1)).M_sigma)
        _assert_same_map(cmp.M2, build_perm_matrices(inst, 1.0, (1, 0)).M_sigma)


def test_bcd_rates_input_errors():
    with pytest.raises(cs.StructuralError):
        cs.bcd_rate_matrices(np.ones((2, 3)), 1)
    with pytest.raises(cs.StructuralError):
        cs.bcd_rate_matrices(np.array([[1.0, 0.2], [0.3, 1.0]]), 1)
    with pytest.raises(cs.UsageError):
        cs.bcd_rate_matrices(np.eye(2), 0)
    with pytest.raises(cs.ConditionError, match="block 0"):
        cs.bcd_rate_matrices(np.diag([0.0, 1.0]), 1)
    with pytest.raises(cs.StructuralError):
        cs.bcd_rate_matrices(np.array(1.0), 1)
    with pytest.raises(cs.UsageError, match="integer"):
        cs.bcd_rate_matrices(np.eye(3), 1.5)


# -- witnesses and oscillation ------------------------------------------------


def witness_instance():
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.diag([0.0, 1.0]), g=np.zeros(2),
        A=np.array([[0.0, 1.0]]), b=_arr(1.0),
    )


def test_witness_found_on_degenerate_instance():
    cert = cs.divergence_witness(witness_instance(), beta=1.0)
    assert cert is not None
    assert abs(abs(cert.ybar[0]) - 1.0) <= 1e-12
    assert abs(cert.ybar[1]) <= 1e-12
    assert cert.min_eigenvalue <= 1e-10
    assert max(cert.checks.values()) <= 1e-10
    doc = cert.to_dict()
    assert set(doc) == {"ybar", "min_eigenvalue", "beta", "checks"}


def test_witness_absent_when_curvature_definite():
    rng = np.random.default_rng(18)
    inst = two_block_instance(rng, kinds=("zero",))
    assert cs.divergence_witness(inst, beta=1.0) is None


def test_witness_on_planted_violations():
    rng = np.random.default_rng(19)
    for _ in range(5):
        inst, ybar = violating_instance(rng)
        cert = cs.divergence_witness(inst, beta=1.0)
        assert cert is not None
        # found direction matches the planted one up to sign
        align = abs(float(cert.ybar @ ybar))
        assert align >= 1.0 - 1e-8


def test_witness_guards():
    inst = three_by_three_instance()
    with pytest.raises(cs.UsageError):
        cs.divergence_witness(inst, beta=1.0)
    with pytest.raises(cs.UsageError):
        cs.divergence_witness(witness_instance(), beta=0.0)


def test_witness_needs_zero_terms():
    """A quadratic term P = [[1]] makes block 1's subproblem strictly convex,
    which the witness does not model, so it refuses the instance."""
    base = witness_instance()
    inst = cs.ProblemInstance(
        blocks=base.blocks, H=np.zeros((2, 2)), g=base.g, A=base.A, b=base.b,
        theta=(cs.ProxFn.quadratic([[1.0]], [0.0]), cs.ProxFn.zero()),
    )
    with pytest.raises(cs.UsageError, match="separable term"):
        cs.divergence_witness(inst, beta=1.0)


def _refuses(inst, variant) -> bool:
    try:
        cs.run_solver(inst, cs.SolverConfig(variant=variant, max_iter=3))
    except cs.ConditionError:
        return True
    return False


def test_witness_exists_exactly_when_the_condition_fails():
    """The witness, the two-block uniqueness condition and both two-block
    sweeps decide singularity by one rule, so they agree on every instance,
    the near-singular H = diag(5e-11, 1) included."""
    rng = np.random.default_rng(23)
    cases = [witness_instance(), pair_instance(np.diag([5e-11, 1.0]), A=((0.0, 1.0),))]
    cases += [two_block_instance(rng, kinds=("zero",)) for _ in range(10)]
    cases += [violating_instance(rng)[0] for _ in range(10)]
    found = []
    for inst in cases:
        absent = cs.divergence_witness(inst, beta=1.0) is None
        assert absent == cs.check_uniqueness_condition(inst).satisfied
        assert absent == (not _refuses(inst, "admm2")) == (not _refuses(inst, "admm_cyclic_n"))
        found.append(not absent)
    assert found[:2] == [True, False]
    assert found[2:12] == [False] * 10
    assert found[12:] == [True] * 10


def test_oscillation_two_legitimate_trajectories():
    inst = witness_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0)
    cert = cs.divergence_witness(inst, beta=1.0)
    res = cs.oscillation_demo(inst, cfg, cert.ybar, k_max=12)
    assert res.max_optimality_defect <= 1e-10
    assert res.gap_persists
    # k_max is even, so the perturbed path ends one witness step off the baseline
    gap = np.linalg.norm(res.perturbed.x - res.baseline.x)
    assert gap >= 0.5 * np.linalg.norm(cert.ybar)
    assert res.perturbed.status != "converged"


def _lstsq_sweeps(inst, R_mats, beta, gamma, x0, mu0, k_max):
    """Oracle for the oscillation baseline: k_max two-block sweeps written out
    block by block, each block the minimum-norm least-squares solution of its
    subproblem, with the consistency of every solve checked."""
    d, m = inst.blocks.d, inst.blocks.m
    x = np.array(x0, dtype=float).reshape(d)
    mu = np.array(mu0, dtype=float).reshape(m)
    xs, mus = [x.copy()], [mu.copy()]
    for _ in range(k_max):
        x = x.copy()
        for i in range(2):
            sl = inst.blocks.slice_of(i)
            xi = x[sl]
            Ai = inst.A_block(i)
            Hii = inst.H_block(i, i)
            T = Hii + beta * (Ai.T @ Ai) + R_mats[i]
            coup = inst.H[sl] @ x - Hii @ xi
            ax_other = inst.A @ x - Ai @ xi
            lin = coup + inst.g[sl] - Ai.T @ mu + beta * (Ai.T @ (ax_other - inst.b)) - R_mats[i] @ xs[-1][sl]
            sol, *_ = np.linalg.lstsq(T, -lin, rcond=None)
            assert np.linalg.norm(T @ sol + lin) <= 1e-8 * (1.0 + np.linalg.norm(lin))
            x[sl] = sol
        mu = mu - gamma * beta * (inst.A @ x - inst.b)
        xs.append(x.copy())
        mus.append(mu.copy())
    return xs, mus


def _within(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b), initial=0.0)) <= rtol * (1.0 + float(np.max(np.abs(b), initial=0.0)))


def test_oscillation_baseline_matches_lstsq_sweeps():
    """The engine's minimum-norm sweeps reproduce the per-step least-squares
    sweeps, with a start point, gamma != 1 and a proximal weight on both
    blocks that leaves the witness in the null space."""
    rng = np.random.default_rng(61)
    beta, gamma, k_max = 1.3, 1.5, 8
    for _ in range(10):
        inst, ybar = violating_instance(rng)
        d1, d2 = inst.blocks.dims
        y1 = ybar[:d1]
        proj = np.eye(d1) - np.outer(y1, y1)
        B1 = proj @ rng.standard_normal((d1, d1))
        B2 = rng.standard_normal((d2, d2))
        # R_1 is zero when block 1 is the witness alone; R_2 never is
        R = [0.5 * (B1 @ B1.T + (B1 @ B1.T).T), B2 @ B2.T]
        x0 = rng.standard_normal(inst.blocks.d)
        mu0 = rng.standard_normal(inst.blocks.m)
        cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=beta, gamma=gamma, R=R)
        xs, mus = _lstsq_sweeps(inst, R, beta, gamma, x0, mu0, k_max)
        # the baseline trace keeps only its last iterate, so each run length
        # pins one more point of the path
        for k in range(2, k_max + 1):
            res = cs.oscillation_demo(inst, cfg, ybar, k_max=k, x0=x0, mu0=mu0)
            assert _within(res.baseline.x, xs[k], 1e-12)
            assert _within(res.baseline.mu, mus[k], 1e-12)
            assert res.max_optimality_defect <= 1e-10
        for row in range(k_max + 1):
            oracle = cs.kkt_residual(inst, cs.KKTPoint(x=xs[row], mu=mus[row]))
            assert _within(res.baseline.r_dual[row], oracle.r_dual, 1e-12)
            assert _within(res.baseline.r_feas[row], oracle.r_feas, 1e-12)
            assert _within(res.baseline.objective[row], inst.objective(xs[row]), 1e-12)


def test_oscillation_rejects_subproblem_unbounded_below():
    # g pushes along the witness direction, where the block subproblem is flat
    base = witness_instance()
    inst = cs.ProblemInstance(blocks=base.blocks, H=base.H, g=_arr(0.5, 0.0), A=base.A, b=base.b)
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0)
    with pytest.raises(cs.UsageError, match="block 0 subproblem is unbounded below"):
        cs.oscillation_demo(inst, cfg, _arr(1.0, 0.0), k_max=6)


def test_oscillation_rejects_invalid_witness():
    inst = witness_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0)
    with pytest.raises(cs.CertificateError):
        cs.oscillation_demo(inst, cfg, _arr(0.0, 1.0), k_max=6)
    with pytest.raises(cs.UsageError):
        cs.oscillation_demo(inst, cfg, _arr(1.0, 0.0), k_max=1)
    nonsmooth = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.diag([0.0, 1.0]), g=np.zeros(2), A=np.array([[0.0, 1.0]]), b=_arr(1.0),
        theta=(cs.ProxFn.l1(1.0), cs.ProxFn.zero()),
    )
    with pytest.raises(cs.UsageError):
        cs.oscillation_demo(nonsmooth, cfg, _arr(1.0, 0.0), k_max=6)
