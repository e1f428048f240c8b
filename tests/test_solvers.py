"""Tests for the sweep solvers: single steps, variant equivalences, runs,
traces, merit values and surrogate residuals."""

import dataclasses

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting.errors import ConditionError, SubproblemStructureError

from gen import (
    proximal_weights_for,
    quadratic_two_block_instance,
    random_prox,
    random_psd,
    two_block_instance,
)


def _arr(*vals):
    return np.asarray(vals, dtype=float)


def scalar_pair_instance(b=2.0):
    """min 0.5 x1^2 + 0.5 x2^2 subject to x1 + x2 = b."""
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(b),
    )


def three_by_three_instance():
    """Pure feasibility problem on a nonsingular 3x3 system, one scalar block
    per column."""
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=3),
        H=np.zeros((3, 3)), g=np.zeros(3), A=A, b=_arr(1.0, 2.0, 3.0),
    )


# -- single steps ------------------------------------------------------------


def test_admm2_step_hand_iteration():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, gamma=1.0)
    st = cs.step(inst, cfg, cs.IterateState.start(inst))
    assert np.allclose(st.x, _arr(1.0, 0.5), atol=1e-15)
    assert np.allclose(st.mu, _arr(0.5), atol=1e-15)
    assert st.k == 1


def test_admm2_step_fixed_point():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, gamma=1.0)
    st = cs.step(inst, cfg, cs.IterateState.start(inst, x0=_arr(1.0, 1.0), mu0=_arr(1.0)))
    assert np.allclose(st.x, _arr(1.0, 1.0), atol=1e-15)
    assert np.allclose(st.mu, _arr(1.0), atol=1e-15)


def test_admm2_step_feasible_zero_objective_point():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.zeros((2, 2)), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(0.0),
    )
    cfg = cs.SolverConfig(variant="admm2", beta=1.0)
    st = cs.step(inst, cfg, cs.IterateState.start(inst, x0=_arr(1.0, -1.0), mu0=_arr(0.0)))
    assert np.allclose(st.x, _arr(1.0, -1.0), atol=1e-15)
    assert np.allclose(st.mu, _arr(0.0), atol=1e-15)


def test_step_default_order_is_cyclic():
    """order=None and the explicit order 0..n-1 give the same iterate, bit
    for bit, for every variant."""
    rng = np.random.default_rng(15)
    two = two_block_instance(rng, kinds=("zero",))
    three = three_by_three_instance()
    unconstrained = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 2, 1), m=0),
        H=random_psd(rng, 4) + np.eye(4), g=rng.standard_normal(4), A=np.zeros((0, 4)), b=np.zeros(0),
    )
    cases = [
        (two, "admm2"), (two, "admm2_linearized"), (three, "admm_cyclic_n"),
        (unconstrained, "bcd"), (unconstrained, "bcpg"),
    ]
    for inst, variant in cases:
        cfg = cs.SolverConfig(variant=variant, beta=1.3, gamma=1.2)
        st0 = cs.IterateState.start(inst, x0=rng.standard_normal(inst.blocks.d), mu0=rng.standard_normal(inst.blocks.m))
        a = cs.step(inst, cfg, st0)
        b = cs.step(inst, cfg, st0, order=tuple(range(inst.blocks.n)))
        assert np.array_equal(a.x, b.x), variant
        assert np.array_equal(a.mu, b.mu), variant
        assert a.k == b.k == 1


def test_step_rejects_non_permutation():
    inst = three_by_three_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n")
    st0 = cs.IterateState.start(inst)
    for order in ((0, 0, 2), (0, 1), (0, 1, 3), (0, 1, 2, 3), (-1, 0, 1)):
        with pytest.raises(cs.UsageError, match="permutation"):
            cs.step(inst, cfg, st0, order=order)


def test_linearized_soft_threshold_composition():
    # theta_1 = |.|: the half-point is soft-thresholded at 1/r_1
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.zeros((2, 2)), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(0.0),
        theta=(cs.ProxFn.l1(1.0), cs.ProxFn.zero()),
    )
    # beta A_1'A_1 = 1 -> r_1 = lambda_max = 1; engineer the half-point:
    # t/r = x1 - (A1'(x2 - b)) with x = (0.3 + x2, x2)? simpler: verify via prox_eval
    r1 = 1.0
    half = 0.3
    assert cs.prox_eval(inst.theta[0], r1, _arr(half))[0] == pytest.approx(max(half - 1.0 / r1, 0.0))
    r1 = 10.0
    assert cs.prox_eval(inst.theta[0], r1, _arr(half))[0] == pytest.approx(max(half - 1.0 / r1, 0.0))


# -- linearization curvatures ------------------------------------------------


def test_linearization_identity_block():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(2,), m=0),
        H=np.eye(2), g=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0),
    )
    pairs = cs.linearization_proximal(inst, 1.0, mode="admm")
    assert pairs[0][0] == pytest.approx(1.0)
    assert np.allclose(pairs[0][1], np.zeros((2, 2)), atol=1e-12)


def test_linearization_eigensolve():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(2,), m=0),
        H=np.array([[2.0, 1.0], [1.0, 2.0]]), g=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0),
    )
    pairs = cs.linearization_proximal(inst, 1.0, mode="admm")
    assert pairs[0][0] == pytest.approx(3.0)
    assert np.allclose(pairs[0][1], np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)


def test_linearization_bcd_diagonal():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(2,), m=0),
        H=np.diag(_arr(4.0, 1.0)), g=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0),
    )
    pairs = cs.linearization_proximal(inst, 1.0, mode="bcd")
    assert pairs[0][0] == pytest.approx(4.0)
    assert np.allclose(pairs[0][1], np.diag(_arr(0.0, 3.0)), atol=1e-12)


# -- variant equivalences ----------------------------------------------------


def test_linearized_equals_proximal_admm():
    """The linearized two-block scheme is the proximal scheme with
    R_i = r_i I - H_ii - beta A_i'A_i, iterate for iterate."""
    rng = np.random.default_rng(10)
    for trial in range(5):
        inst = two_block_instance(rng, kinds=("zero", "l1", "box"))
        beta = float(rng.uniform(0.5, 4.0))
        pairs = cs.linearization_proximal(inst, beta, mode="admm")
        cfg_lin = cs.SolverConfig(variant="admm2_linearized", beta=beta, tol=0.0, max_iter=1)
        cfg_prox = cs.SolverConfig(
            variant="admm2", beta=beta, tol=0.0, max_iter=1, R=[p[1] for p in pairs]
        )
        st_lin = cs.IterateState.start(inst, x0=rng.standard_normal(inst.blocks.d))
        st_prox = cs.IterateState(
            x=st_lin.x.copy(), x_prev=st_lin.x_prev.copy(), mu=st_lin.mu.copy(), k=0
        )
        for _ in range(30):
            st_lin = cs.step(inst, cfg_lin, st_lin)
            st_prox = cs.step(inst, cfg_prox, st_prox)
            scale = 1.0 + np.max(np.abs(st_prox.x))
            assert np.max(np.abs(st_lin.x - st_prox.x)) <= 1e-12 * scale
            assert np.max(np.abs(st_lin.mu - st_prox.mu)) <= 1e-12 * scale


def test_bcpg_equals_proximal_bcd():
    rng = np.random.default_rng(11)
    for trial in range(5):
        inst = two_block_instance(rng, kinds=("zero", "l1", "box"), min_m=1)
        # unconstrained comparison: drop the constraint rows
        inst = cs.ProblemInstance(
            blocks=cs.BlockStructure(dims=inst.blocks.dims, m=0),
            H=inst.H, g=inst.g, A=np.zeros((0, inst.blocks.d)), b=np.zeros(0),
            theta=inst.theta,
        )
        pairs = cs.linearization_proximal(inst, 1.0, mode="bcd")
        cfg_lin = cs.SolverConfig(variant="bcpg", tol=0.0, max_iter=1)
        cfg_prox = cs.SolverConfig(variant="bcd", tol=0.0, max_iter=1, R=[p[1] for p in pairs])
        st_lin = cs.IterateState.start(inst, x0=rng.standard_normal(inst.blocks.d))
        st_prox = cs.IterateState(
            x=st_lin.x.copy(), x_prev=st_lin.x_prev.copy(), mu=st_lin.mu.copy(), k=0
        )
        for _ in range(30):
            st_lin = cs.step(inst, cfg_lin, st_lin)
            st_prox = cs.step(inst, cfg_prox, st_prox)
            scale = 1.0 + np.max(np.abs(st_prox.x))
            assert np.max(np.abs(st_lin.x - st_prox.x)) <= 1e-12 * scale


# -- runs --------------------------------------------------------------------


def test_run_scalar_pair_converges_to_oracle():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, tol=1e-10, max_iter=1000)
    tr = cs.run_solver(inst, cfg)
    assert tr.status == "converged"
    assert tr.ks[-1] < 1000
    pt = cs.solve_kkt_oracle(inst)
    assert np.linalg.norm(tr.x - pt.x) <= 1e-8
    assert np.linalg.norm(tr.mu - pt.mu) <= 1e-8


def test_run_terminates_at_start_when_already_solved():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, tol=1e-10)
    tr = cs.run_solver(inst, cfg, x0=_arr(1.0, 1.0), mu0=_arr(1.0))
    assert tr.status == "converged"
    assert list(tr.ks) == [0]
    assert tr.max_residual(0) == 0.0


def test_run_coupled_lasso_against_grid_oracle():
    """Both blocks l1: the solver's answer must beat a desk-scale grid on the
    augmented objective and pass the subgradient check."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.array([[1.0, 0.5], [0.5, 1.0]]), g=_arr(1.0, 1.0),
        A=np.array([[1.0, 1.0]]), b=_arr(0.0),
        theta=(cs.ProxFn.l1(1.0), cs.ProxFn.l1(1.0)),
    )
    beta = 2.0
    R = proximal_weights_for(inst, beta)
    cfg = cs.SolverConfig(variant="admm2", beta=beta, R=R, tol=1e-10, max_iter=50_000)
    tr = cs.run_solver(inst, cfg)
    assert tr.status == "converged"
    res = cs.kkt_residual(inst, cs.KKTPoint(x=tr.x, mu=tr.mu))
    assert res.max_component <= 1e-9
    # grid oracle on the constraint line x2 = -x1
    ts = np.linspace(-2.0, 2.0, 40001)
    vals = [inst.objective(_arr(t, -t)) for t in ts]
    assert inst.objective(tr.x) <= min(vals) + 1e-8


def test_run_all_catalog_kinds_converge():
    rng = np.random.default_rng(12)
    for kinds in (("zero",), ("l1",), ("box",), ("quadratic",), ("zero", "l1", "box", "quadratic")):
        inst = two_block_instance(rng, kinds=kinds)
        beta = float(rng.uniform(1.0, 6.0))
        cfg = cs.SolverConfig(
            variant="admm2", beta=beta, R=proximal_weights_for(inst, beta, rng),
            tol=1e-8, max_iter=100_000,
        )
        tr = cs.run_solver(inst, cfg)
        assert tr.status == "converged", kinds
        res = cs.kkt_residual(inst, cs.KKTPoint(x=tr.x, mu=tr.mu))
        assert res.max_component <= 1e-8 * (1 + np.linalg.norm(inst.g) + np.linalg.norm(inst.b))


def test_run_gamma_above_one_converges():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, gamma=1.5, tol=1e-10, max_iter=5000)
    tr = cs.run_solver(inst, cfg)
    assert tr.status == "converged"
    pt = cs.solve_kkt_oracle(inst)
    assert np.linalg.norm(tr.x - pt.x) <= 1e-8


def test_gamma_range_is_exclusive():
    inst = scalar_pair_instance()
    sup = (1.0 + np.sqrt(5.0)) / 2.0
    for gamma in (0.0, sup, sup + 0.1, -0.5):
        cfg = cs.SolverConfig(variant="admm2", gamma=gamma)
        with pytest.raises(cs.UsageError):
            cs.run_solver(inst, cfg)


def test_divergence_guard_trips_on_cyclic_three_block():
    inst = three_by_three_instance()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0, tol=1e-8, max_iter=50_000)
    tr = cs.run_solver(inst, cfg)
    assert tr.status == "diverged"
    assert max(np.max(np.abs(tr.x)), np.max(np.abs(tr.mu))) > 1e12


def test_nan_prox_trips_divergence_guard():
    """A prox that returns NaN stops the run at the first sweep instead of
    running to max_iter."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(1.0),
        theta=(cs.ProxFn.opaque(lambda r, v: np.full_like(v, np.nan)), cs.ProxFn.zero()),
    )
    cfg = cs.SolverConfig(variant="admm2_linearized", tol=1e-8, max_iter=300)
    tr = cs.run_solver(inst, cfg)
    assert tr.status == "diverged"
    assert len(tr) == 2
    assert np.isnan(tr.x[0])


def test_two_block_condition_precheck():
    # both H_11 and A column for block 1 vanish
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.diag(_arr(0.0, 1.0)), g=np.zeros(2), A=np.array([[0.0, 1.0]]), b=_arr(1.0),
    )
    cfg = cs.SolverConfig(variant="admm2", beta=1.0)
    with pytest.raises(ConditionError):
        cs.run_solver(inst, cfg)


def test_singular_block_subproblem_is_rejected():
    """A block with no curvature at all (H_ii = 0, A_i = 0, R_i = 0) has no
    unique update, in cyclic and in randomly permuted runs."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=1),
        H=np.diag(_arr(1.0, 0.0, 1.0)), g=np.zeros(3), A=np.array([[1.0, 0.0, 1.0]]), b=_arr(1.0),
    )
    cfg = cs.SolverConfig(variant="admm_cyclic_n")
    with pytest.raises(ConditionError, match="block 1: subproblem matrix is singular"):
        cs.run_solver(inst, cfg)
    with pytest.raises(ConditionError, match="block 1: subproblem matrix is singular"):
        cs.run_rp_solver(inst, cfg, trials=2)
    # a proximal weight on the flat block makes its update unique
    assert len(cs.run_solver(inst, cs.SolverConfig(variant="admm_cyclic_n", R=[0.0, 1.0, 0.0], max_iter=5))) >= 2


def test_prox_block_needs_scaled_identity():
    rng = np.random.default_rng(13)
    inst = two_block_instance(rng, kinds=("l1",), d_max=3)
    cfg = cs.SolverConfig(variant="admm2", beta=2.0)  # no R: curvature is not scalar
    with pytest.raises(SubproblemStructureError, match="linearized"):
        cs.run_solver(inst, cfg)


def test_bcd_requires_explicit_constraint_dropping():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="bcd", tol=1e-10)
    with pytest.raises(cs.UsageError):
        cs.run_solver(inst, cfg)
    tr = cs.run_solver(inst, cfg, ignore_constraints=True)
    assert tr.status == "converged"
    assert np.allclose(tr.x, np.zeros(2), atol=1e-8)  # unconstrained minimum


def test_bcd_converges_on_coupled_quadratic():
    rng = np.random.default_rng(14)
    W = rng.standard_normal((4, 4))
    H = W @ W.T / 4 + 0.7 * np.eye(4)
    g = rng.standard_normal(4)
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(2, 2), m=0),
        H=H, g=g, A=np.zeros((0, 4)), b=np.zeros(0),
    )
    for variant in ("bcd", "bcpg"):
        cfg = cs.SolverConfig(variant=variant, tol=1e-10, max_iter=10_000)
        tr = cs.run_solver(inst, cfg)
        assert tr.status == "converged", variant
        assert np.linalg.norm(H @ tr.x + g) <= 1e-8


def test_low_user_curvature_warns_and_proceeds():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2_linearized", beta=1.0, r=[0.5, 0.5], tol=1e-10, max_iter=50)
    tr = cs.run_solver(inst, cfg)
    assert any("below" in w for w in tr.warnings)


# -- merit function ----------------------------------------------------------


def test_lyapunov_desk_value():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0)
    ref = cs.KKTPoint(x=_arr(1.0, 1.0), mu=_arr(1.0))
    st = cs.IterateState.start(inst)  # (0,0,0), back-difference 0
    assert cs.lyapunov_value(inst, cfg, st, ref) == pytest.approx(13.0 / 4.0, abs=1e-15)


def test_lyapunov_zero_at_reference():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0)
    ref = cs.KKTPoint(x=_arr(1.0, 1.0), mu=_arr(1.0))
    st = cs.IterateState(x=_arr(1.0, 1.0), x_prev=_arr(1.0, 1.0), mu=_arr(1.0), k=3)
    assert cs.lyapunov_value(inst, cfg, st, ref) == 0.0


def test_lyapunov_formula_collapse():
    # H = 0, R = 0, A = [0, 1] so A_2 = 1, beta = 1:
    # value = 0.5 (x2 - xbar2)^2 + 0.5 (mu - mubar)^2
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.zeros((2, 2)), g=np.zeros(2), A=np.array([[0.0, 1.0]]), b=_arr(1.0),
    )
    cfg = cs.SolverConfig(variant="admm2", beta=1.0)
    ref = cs.KKTPoint(x=_arr(0.0, 1.0), mu=_arr(0.0))
    st = cs.IterateState(x=_arr(5.0, 3.0), x_prev=_arr(5.0, 3.0), mu=_arr(2.0), k=1)
    expect = 0.5 * (3.0 - 1.0) ** 2 + 0.5 * (2.0 - 0.0) ** 2
    assert cs.lyapunov_value(inst, cfg, st, ref) == pytest.approx(expect, abs=1e-14)


def test_merit_monotone_with_guaranteed_floor():
    """Unit-scale version of the contraction acceptance check."""
    rng = np.random.default_rng(15)
    inst = quadratic_two_block_instance(rng)
    beta = 3.0
    R = proximal_weights_for(inst, beta, rng)
    ref_pt = cs.solve_kkt_oracle(inst)
    cfg = cs.SolverConfig(variant="admm2", beta=beta, R=R, tol=1e-11, max_iter=20_000)
    tr = cs.run_solver(inst, cfg, reference=ref_pt, keep_iterates=True)
    assert tr.status == "converged"
    vals = tr.lyapunov
    assert all(v is not None and v >= 0 for v in vals)
    # the guaranteed drop starts from the first generated iterate: the
    # inequality at step k uses the optimality condition of the sweep that
    # produced x^k, and the start point was not produced by a sweep
    for row in range(2, len(tr)):
        x_prev, mu_prev = tr.iterates[row - 1]
        x_new, mu_new = tr.iterates[row]
        floor = cs.lyapunov_decrease_floor(
            inst, cfg,
            cs.IterateState(x=x_prev, x_prev=x_prev, mu=mu_prev, k=row - 1),
            cs.IterateState(x=x_new, x_prev=x_prev, mu=mu_new, k=row),
        )
        drop = vals[row - 1] - vals[row]
        assert drop >= floor - 1e-9 * (1.0 + vals[row - 1])
        assert floor >= 0.0


# -- surrogate residual ------------------------------------------------------


def test_surrogate_matches_two_block_formula():
    rng = np.random.default_rng(16)
    inst = quadratic_two_block_instance(rng)
    beta = 2.0
    R = proximal_weights_for(inst, beta, rng)
    cfg = cs.SolverConfig(variant="admm2", beta=beta, R=R, tol=0.0, max_iter=20)
    tr = cs.run_solver(inst, cfg, keep_iterates=True)
    sl1 = inst.blocks.slice_of(0)
    sl2 = inst.blocks.slice_of(1)
    A1, A2 = inst.A_block(0), inst.A_block(1)
    H12 = inst.H_block(0, 1)
    R_mats = cs.normalize_block_matrices(inst, R)
    for row in range(1, len(tr)):
        x_old, _ = tr.iterates[row - 1]
        x_new, _ = tr.iterates[row]
        d1 = x_new[sl1] - x_old[sl1]
        d2 = x_new[sl2] - x_old[sl2]
        s1 = np.linalg.norm(-(R_mats[0] @ d1) + (H12 + beta * (A1.T @ A2)) @ d2)
        s2 = np.linalg.norm(R_mats[1] @ d2)
        feas = np.linalg.norm(inst.A @ x_new - inst.b)
        expect = np.sqrt(s1**2 + s2**2 + feas**2)
        assert tr.surrogate[row] == pytest.approx(expect, rel=1e-12, abs=1e-14)


def test_surrogate_bounds_exact_residual_at_solution():
    """Surrogate going to zero forces the exact residual to zero too."""
    rng = np.random.default_rng(17)
    inst = quadratic_two_block_instance(rng)
    beta = 2.5
    cfg = cs.SolverConfig(
        variant="admm2", beta=beta, R=proximal_weights_for(inst, beta, rng),
        tol=1e-11, max_iter=50_000,
    )
    tr = cs.run_solver(inst, cfg)
    assert tr.status == "converged"
    assert tr.surrogate[-1] <= 1e-9


def test_opaque_terms_use_surrogate_stopping():
    # opaque soft-threshold: same as l1 lam=1 but exposed as a black box
    lam = 1.0
    opaque = cs.ProxFn.opaque(
        lambda r, v: np.sign(v) * np.maximum(np.abs(v) - lam / r, 0.0)
    )
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.array([[1.0, 0.5], [0.5, 1.0]]), g=_arr(1.0, 1.0),
        A=np.array([[1.0, 1.0]]), b=_arr(0.0),
        theta=(opaque, cs.ProxFn.l1(lam)),
    )
    beta = 2.0
    R = proximal_weights_for(inst, beta)
    cfg = cs.SolverConfig(variant="admm2", beta=beta, R=R, tol=1e-10, max_iter=50_000)
    tr = cs.run_solver(inst, cfg)
    assert not tr.exact_residuals
    assert tr.r_dual[1] is None
    assert tr.status == "converged"
    # the same instance with the transparent l1 pair must agree
    inst_l1 = cs.ProblemInstance(
        blocks=inst.blocks, H=inst.H, g=inst.g, A=inst.A, b=inst.b,
        theta=(cs.ProxFn.l1(lam), cs.ProxFn.l1(lam)),
    )
    res = cs.kkt_residual(inst_l1, cs.KKTPoint(x=tr.x, mu=tr.mu))
    assert res.max_component <= 1e-9


# -- trace bookkeeping -------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, tol=1e-9, max_iter=1000)
    tr = cs.run_solver(inst, cfg)
    path = tmp_path / "trace.csv"
    tr.to_csv(path, header_lines=["seed=0"])
    text = path.read_text()
    assert text.startswith("# seed=0\n")
    assert text.rstrip().endswith("# status=converged")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    assert header == ["k", "r_dual_1", "r_dual_2", "r_feas", "surrogate", "objective", "lyapunov"]
    # numeric cells round-trip exactly
    for row, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        assert int(cells[0]) == tr.ks[row]
        assert float(cells[1]) == tr.r_dual[row][0]
        assert float(cells[3]) == tr.r_feas[row]
        assert float(cells[5]) == tr.objective[row]
        assert cells[6] == ""  # no reference given


def test_trace_csv_deterministic_bytes(tmp_path):
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, tol=1e-9, max_iter=1000)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cs.run_solver(inst, cfg).to_csv(p1)
    cs.run_solver(inst, cfg).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_min_kkt_curve_running_minimum():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, tol=0.0, max_iter=50)
    tr = cs.run_solver(inst, cfg)
    curve = cs.min_kkt_sq_curve(tr)
    assert curve[0, 0] == 1
    assert curve[-1, 0] == 50
    mins = curve[:, 1] / curve[:, 0]
    assert np.all(np.diff(mins) <= 1e-300)  # running minimum never increases
    # direct check against the recorded residuals
    best = np.inf
    for row in range(1, len(tr)):
        best = min(best, tr.total_sq(row))
        assert curve[row - 1, 1] == pytest.approx(tr.ks[row] * best, rel=1e-15)


def test_start_state_back_difference_is_zero():
    inst = scalar_pair_instance()
    st = cs.IterateState.start(inst, x0=_arr(3.0, -1.0))
    assert np.array_equal(st.x, st.x_prev)
    assert st.x is not st.x_prev


# -- the sweep engine against the per-block formulas ---------------------------

_CONSTRAINED = ("admm2", "admm2_linearized", "admm_cyclic_n")
_LINEARIZED = ("admm2_linearized", "bcpg")


def _soft_threshold_opaque(lam):
    return cs.ProxFn.opaque(
        lambda r, v: np.sign(v) * np.maximum(np.abs(v) - lam / r, 0.0),
        value=lambda x: lam * float(np.sum(np.abs(x))),
    )


def _mixed_instance(rng, dims, m, kinds):
    """Strongly convex instance with one term per block, of the given kinds
    ("opaque" is a black-box soft threshold); boxes contain a feasible point."""
    d = sum(dims)
    W = rng.standard_normal((d, d))
    H = W @ W.T / d + 0.5 * np.eye(d)
    H = 0.5 * (H + H.T)
    A = rng.standard_normal((m, d))
    x_feas = rng.standard_normal(d)
    blocks = cs.BlockStructure(dims=dims, m=m)
    theta = tuple(
        _soft_threshold_opaque(0.4) if kind == "opaque"
        else random_prox(rng, dims[i], kinds=(kind,), center=x_feas[blocks.slice_of(i)])
        for i, kind in enumerate(kinds)
    )
    return cs.ProblemInstance(blocks=blocks, H=H, g=rng.standard_normal(d), A=A, b=A @ x_feas, theta=theta)


def _block_curvatures(inst, beta):
    """B_i = H_ii + beta A_i'A_i for every block."""
    return [
        inst.H_block(i, i) + beta * (inst.A_block(i).T @ inst.A_block(i)) for i in range(inst.blocks.n)
    ]


def _scaled_identity_R(inst, beta, margin=1.5):
    """R_i = r_i I - B_i with r_i above the top eigenvalue of B_i, so every
    block's subproblem is a scaled identity and prox blocks are solvable."""
    return [
        margin * float(np.linalg.eigvalsh(B)[-1]) * np.eye(B.shape[0]) - B
        for B in _block_curvatures(inst, beta)
    ]


def _oracle_weights(inst, cfg):
    """The penalty the sweep uses, the linearization curvatures r_i (None for
    the proximal variants) and the proximal matrices R_i, derived from cfg."""
    beta = cfg.beta if cfg.variant in _CONSTRAINED else 0.0
    dims = inst.blocks.dims
    if cfg.variant in _LINEARIZED:
        B = _block_curvatures(inst, beta)
        r = [float(v) for v in cfg.r] if cfg.r is not None else [float(np.linalg.eigvalsh(Bi)[-1]) for Bi in B]
        return beta, r, [r[i] * np.eye(dims[i]) - B[i] for i in range(len(dims))]
    R = []
    for i, entry in enumerate(cfg.R if cfg.R is not None else [None] * len(dims)):
        if entry is None:
            entry = 0.0
        entry = np.asarray(entry, dtype=float)
        R.append(float(entry) * np.eye(dims[i]) if entry.ndim == 0 else entry)
    return beta, None, R


def _oracle_step(inst, cfg, state, order):
    """One sweep written block by block: the coupling H_i x - H_ii x_i and
    A x - A_i x_i against the latest values, then the K_i solve, the prox
    of the scaled-identity subproblem, or the prox of the gradient step."""
    H, g, A, b = inst.H, inst.g, inst.A, inst.b
    beta, r, R = _oracle_weights(inst, cfg)
    x = state.x.copy()
    anchor = state.x
    mu = state.mu.copy()
    for i in order:
        sl = inst.blocks.slice_of(i)
        xi = x[sl].copy()
        Hii, Ai = inst.H_block(i, i), inst.A_block(i)
        coup = H[sl] @ x - Hii @ xi
        ax_other = A @ x - Ai @ xi
        f = inst.theta[i]
        if cfg.variant in _LINEARIZED:
            t = r[i] * xi - Hii @ xi - coup - g[sl]
            t = t - beta * (Ai.T @ (Ai @ xi)) - beta * (Ai.T @ (ax_other - b)) + Ai.T @ mu
            x[sl] = cs.prox_eval(f, r[i], t / r[i])
            continue
        lin = coup + g[sl] - R[i] @ anchor[sl] - Ai.T @ mu + beta * (Ai.T @ (ax_other - b))
        K = Hii + R[i] + beta * (Ai.T @ Ai)
        if f.kind == "quadratic":
            x[sl] = np.linalg.solve(K + f.params["P"], -(lin + f.params["q"]))
        elif f.kind == "zero":
            x[sl] = np.linalg.solve(K, -lin)
        else:
            ridge = float(np.trace(K)) / K.shape[0]
            x[sl] = cs.prox_eval(f, ridge, -lin / ridge)
    mu = mu - cfg.gamma * beta * (A @ x - b)
    return x, mu


def _assert_close(got, want, scale):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def _engine_cases():
    """(instance, cfg) pairs covering every variant; the zero, quadratic, l1,
    box and opaque kinds; user R matrices and r overrides, one of them below
    the top curvature so that R_eff is indefinite; m = 0 and m > 0; and
    gamma != 1."""
    rng = np.random.default_rng(41)
    all_kinds = ("zero", "quadratic", "l1", "box", "opaque")
    cases = []
    for kinds in (("l1", "box"), ("zero", "opaque"), ("quadratic", "zero")):
        inst = _mixed_instance(rng, (2, 3), 2, kinds)
        cases.append((inst, cs.SolverConfig(variant="admm2", beta=1.7, gamma=1.3, R=_scaled_identity_R(inst, 1.7))))
        cases.append((inst, cs.SolverConfig(variant="admm2_linearized", beta=0.8, gamma=0.6)))
    direct = _mixed_instance(rng, (3, 2), 3, ("zero", "quadratic"))
    cases.append((direct, cs.SolverConfig(variant="admm2", beta=2.0, R=[random_psd(rng, 3), 0.7])))
    cases.append((direct, cs.SolverConfig(variant="admm2", beta=0.9, gamma=1.5)))
    # a user curvature below the top eigenvalue makes R_eff indefinite
    low = _mixed_instance(rng, (2, 2), 2, ("l1", "zero"))
    top = [float(np.linalg.eigvalsh(B)[-1]) for B in _block_curvatures(low, 1.0)]
    cases.append((low, cs.SolverConfig(variant="admm2_linearized", gamma=1.2, r=[0.8 * top[0], 1.1 * top[1]])))
    five = _mixed_instance(rng, (1, 2, 3, 1, 2), 4, all_kinds)
    cases.append((five, cs.SolverConfig(variant="admm_cyclic_n", beta=1.3, gamma=0.8, R=_scaled_identity_R(five, 1.3))))
    zeros = _mixed_instance(rng, (1, 2, 1), 3, ("zero", "zero", "quadratic"))
    cases.append((zeros, cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.1, R=[None, 0.5, random_psd(rng, 1)])))
    unconstrained = _mixed_instance(rng, (2, 1, 2, 2, 1), 0, all_kinds)
    cases.append((unconstrained, cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, R=_scaled_identity_R(unconstrained, 1.0))))
    cases.append((unconstrained, cs.SolverConfig(variant="bcd", R=_scaled_identity_R(unconstrained, 0.0, 1.2))))
    cases.append((unconstrained, cs.SolverConfig(variant="bcpg", gamma=1.4)))
    cases.append((unconstrained, cs.SolverConfig(variant="bcpg", r=[0.2, 3.0, 1.0, 4.0, 0.5])))
    plain = _mixed_instance(rng, (2, 2, 1), 0, ("zero", "quadratic", "zero"))
    cases.append((plain, cs.SolverConfig(variant="bcd", R=[None, random_psd(rng, 2), 0.3])))
    return rng, cases


def test_step_matches_per_block_formulas():
    """cs.step equals the block-by-block sweep for every variant, term kind,
    weight choice and random block orders."""
    rng, cases = _engine_cases()
    for inst, cfg in cases:
        n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
        state = cs.IterateState.start(inst, x0=rng.standard_normal(d), mu0=rng.standard_normal(m))
        for _ in range(4):
            order = tuple(int(v) for v in rng.permutation(n))
            x, mu = _oracle_step(inst, cfg, state, order)
            new = cs.step(inst, cfg, state, order=order)
            scale = 1.0 + max(np.max(np.abs(x)), np.max(np.abs(mu), initial=0.0))
            _assert_close(new.x, x, scale)
            _assert_close(new.mu, mu, scale)
            assert np.array_equal(new.x_prev, state.x)
            state = new


def _oracle_surrogate(inst, beta, gamma, R, x_old, x_new, order):
    """Per-block shift -R_i dx_i + sum over blocks j after i in the order of
    (H_ij + beta A_i'A_j) dx_j, minus beta (1 - gamma) A_i'(Ax - b), and the
    magnitude of the terms summed."""
    pos = {blk: p for p, blk in enumerate(order)}
    dx = x_new - x_old
    resid = inst.A @ x_new - inst.b
    parts, mag = [], 0.0
    for i in range(inst.blocks.n):
        sl = inst.blocks.slice_of(i)
        Ai = inst.A_block(i)
        v = -(R[i] @ dx[sl])
        size = np.abs(R[i]) @ np.abs(dx[sl])
        for j in range(inst.blocks.n):
            if pos[j] > pos[i]:
                Sij = inst.H_block(i, j) + beta * (Ai.T @ inst.A_block(j))
                v = v + Sij @ dx[inst.blocks.slice_of(j)]
                size = size + np.abs(Sij) @ np.abs(dx[inst.blocks.slice_of(j)])
        v = v - beta * (1.0 - gamma) * (Ai.T @ resid)
        size = size + abs(beta * (1.0 - gamma)) * (np.abs(Ai.T) @ np.abs(resid))
        parts.append(float(np.linalg.norm(v)))
        mag = max(mag, float(np.max(size)))
    return np.asarray(parts), mag


def _check_rows(inst, cfg, trace, orders):
    """Every recorded row against kkt_residual, ||Ax - b||, inst.objective
    and the n-block surrogate formula."""
    beta, _, R = _oracle_weights(inst, cfg)
    H, g, A, b = inst.H, inst.g, inst.A, inst.b
    assert len(trace.iterates) == len(trace)
    for row, (x, mu) in enumerate(trace.iterates):
        resid = A @ x - b
        scale = 1.0 + max(
            float(np.max(np.abs(H) @ np.abs(x) + np.abs(g) + np.abs(A.T) @ np.abs(mu))),
            float(np.max(np.abs(A) @ np.abs(x) + np.abs(b), initial=0.0)),
            0.5 * float(np.abs(x) @ np.abs(H) @ np.abs(x)) + float(np.abs(g) @ np.abs(x)),
        )
        _assert_close(trace.r_feas[row], np.linalg.norm(resid), scale)
        if trace.exact_residuals:
            try:
                want = cs.kkt_residual(inst, cs.KKTPoint(x=x, mu=mu)).r_dual
            except cs.DomainError:
                assert np.any(np.isinf(trace.r_dual[row]))
            else:
                _assert_close(trace.r_dual[row], want, scale)
        else:
            assert trace.r_dual[row] is None
        objective = inst.objective(x)
        if np.isnan(objective):
            assert np.isnan(trace.objective[row])
        else:
            _assert_close(trace.objective[row], objective, scale + abs(objective))
        if row == 0:
            assert trace.surrogate_blocks[0] is None and np.isnan(trace.surrogate[0])
            continue
        parts, mag = _oracle_surrogate(inst, beta, cfg.gamma, R, trace.iterates[row - 1][0], x, orders[row - 1])
        _assert_close(trace.surrogate_blocks[row], parts, 1.0 + mag)
        surrogate = np.sqrt(np.sum(parts**2) + trace.r_feas[row] ** 2)
        _assert_close(trace.surrogate[row], surrogate, 1.0 + mag + scale)


def test_recorded_rows_match_independent_oracles():
    rng, cases = _engine_cases()
    for inst, cfg in cases:
        run_cfg = dataclasses.replace(cfg, tol=0.0, max_iter=12)
        d, m = inst.blocks.d, inst.blocks.m
        trace = cs.run_solver(inst, run_cfg, x0=rng.standard_normal(d), mu0=rng.standard_normal(m), keep_iterates=True)
        assert len(trace) == 13
        _check_rows(inst, run_cfg, trace, [tuple(range(inst.blocks.n))] * 12)


def test_random_order_rows_match_independent_oracles():
    """Randomly permuted trials: the order changes from sweep to sweep."""
    rng = np.random.default_rng(42)
    inst = _mixed_instance(rng, (1, 2, 1, 2), 3, ("zero",) * 4)
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.2, R=[0.5, None, random_psd(rng, 1), 0.0], tol=0.0, max_iter=15)
    traces, _ = cs.run_rp_solver(inst, cfg, seed=9, trials=2, keep_iterates=True)
    for t, trace in enumerate(traces):
        sampler = cs.PermutationSampler(9 ^ t)
        _check_rows(inst, cfg, trace, [sampler.draw(4) for _ in range(15)])
