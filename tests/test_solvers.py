"""Tests for the sweep solvers: single steps, variant equivalences, runs,
traces, merit values and surrogate residuals."""

import dataclasses
import io

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting import model, solvers
from coupled_splitting.errors import ConditionError, SubproblemStructureError
from coupled_splitting.model import normalize_block_matrices
from coupled_splitting.prox import prox_eval, subdiff_distance
from coupled_splitting.rp import permutation_at
from coupled_splitting.solvers import _drop_floor_rows, _merit_weights, linearization_proximal

from gen import (
    drop_rows,
    proximal_weights_for,
    quadratic_two_block_instance,
    random_psd,
    two_block_instance,
)
from gen import block_curvatures as _block_curvatures
from gen import mixed_instance as _mixed_instance
from gen import scaled_identity_R as _scaled_identity_R
from oracles import lyapunov_value


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


def test_step_rejects_an_iterate_of_the_wrong_size():
    """An IterateState whose x or mu has another number of entries than the
    instance is a StructuralError naming the field, as a start point of the
    wrong size is for run_solver."""
    rng = np.random.default_rng(16)
    inst = two_block_instance(rng, kinds=("zero",))
    d, m = inst.blocks.d, inst.blocks.m
    cfg = cs.SolverConfig(variant="admm2")
    st0 = cs.IterateState.start(inst)
    for field, size in (("x", d - 1), ("x", d + 1), ("mu", m + 1)):
        bad = dataclasses.replace(st0, **{field: np.zeros(size)})
        for order in (None, (1, 0)):
            with pytest.raises(cs.StructuralError, match=f"^{field} has {size} entries, expected"):
                cs.step(inst, cfg, bad, order=order)


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
    assert prox_eval(inst.theta[0], r1, _arr(half))[0] == pytest.approx(max(half - 1.0 / r1, 0.0))
    r1 = 10.0
    assert prox_eval(inst.theta[0], r1, _arr(half))[0] == pytest.approx(max(half - 1.0 / r1, 0.0))


# -- linearization curvatures ------------------------------------------------


def test_linearization_identity_block():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(2,), m=0),
        H=np.eye(2), g=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0),
    )
    pairs = linearization_proximal(inst, 1.0)
    assert pairs[0][0] == pytest.approx(1.0)
    assert np.allclose(pairs[0][1], np.zeros((2, 2)), atol=1e-12)


def test_linearization_eigensolve():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(2,), m=0),
        H=np.array([[2.0, 1.0], [1.0, 2.0]]), g=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0),
    )
    pairs = linearization_proximal(inst, 1.0)
    assert pairs[0][0] == pytest.approx(3.0)
    assert np.allclose(pairs[0][1], np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)


def test_linearization_bcd_diagonal():
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(2,), m=0),
        H=np.diag(_arr(4.0, 1.0)), g=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0),
    )
    pairs = linearization_proximal(inst, 1.0)
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
        pairs = linearization_proximal(inst, beta)
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
        inst = drop_rows(inst)
        pairs = linearization_proximal(inst, 1.0)
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


def test_run_rejects_a_start_of_the_wrong_length():
    """x0 and mu0 with too few or too many entries raise StructuralError
    naming the argument and its length; another shape of the same size is
    taken, as reshape takes it."""
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, tol=1e-10)
    for x0, mu0, match in (
        ([1.0], None, "x0 has 1 entries, expected 2"),
        ([1.0, 1.0, 1.0], None, "x0 has 3 entries, expected 2"),
        (None, [1.0, 1.0], "mu0 has 2 entries, expected 1"),
        (None, [], "mu0 has 0 entries, expected 1"),
    ):
        with pytest.raises(cs.StructuralError, match=match):
            cs.run_solver(inst, cfg, x0=x0, mu0=mu0)
    tr = cs.run_solver(inst, cfg, x0=[[1.0], [1.0]], mu0=1.0)
    assert tr.status == "converged" and list(tr.ks) == [0]


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


def test_two_block_condition_on_indefinite_linearized_weights():
    """Curvatures r_i below the block model make R_i = r_i I - H_ii -
    beta A_i'A_i indefinite. Every block update is still defined (the
    linearized variant divides by r_i), so only the two-block condition on
    H_ii + A_i'A_i + R_i = 1 + 1 - 4.5 catches it, in a run and in a single
    step alike."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(1.0),
    )
    cfg = cs.SolverConfig(variant="admm2_linearized", beta=4.0, r=[0.5, 0.5])
    with pytest.raises(ConditionError, match=r"two-block uniqueness condition fails \(min eigenvalue -2\.500e\+00\)"):
        cs.run_solver(inst, cfg)
    with pytest.raises(ConditionError, match=r"two-block uniqueness condition fails \(min eigenvalue -2\.500e\+00\)"):
        cs.step(inst, cfg, cs.IterateState.start(inst))


def test_two_block_condition_counts_quadratic_curvature():
    """A quadratic term's P enters block 0's solve, so it counts in the
    two-block condition: with H = diag(0, 1) and A = [[0, 1]] the term alone
    makes the subproblem unique, and admm2 agrees with admm_cyclic_n."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.diag(_arr(0.0, 1.0)), g=np.zeros(2), A=np.array([[0.0, 1.0]]), b=_arr(1.0),
        theta=(cs.ProxFn.quadratic(np.eye(1), _arr(0.5)), cs.ProxFn.zero()),
    )
    assert cs.check_uniqueness_condition(inst).satisfied
    for variant in ("admm2", "admm_cyclic_n"):
        tr = cs.run_solver(inst, cs.SolverConfig(variant=variant, tol=1e-10, max_iter=1000))
        assert tr.status == "converged", variant
        assert np.allclose(tr.x, _arr(-0.5, 1.0), atol=1e-8), variant


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


def test_structure_error_advice_applies_and_works():
    """The remedy named for a prox block without a closed form is one that
    applies: on 3 blocks with a constraint row neither linearized variant
    does, and the named scalar proximal term R_0 = r I - B_0 runs to
    convergence; admm2_linearized is named on 2 blocks and bcpg without
    rows."""
    rng = np.random.default_rng(48)
    inst = _mixed_instance(rng, (2, 1, 1), 1, ("l1", "zero", "zero"))
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, tol=1e-9, max_iter=20_000)
    with pytest.raises(SubproblemStructureError) as err:
        cs.run_solver(inst, cfg)
    advice = str(err.value)
    assert "R[0] = r I - B_0" in advice and "admm2_linearized" not in advice and "bcpg" not in advice
    r, R0 = linearization_proximal(inst, cfg.beta)[0]
    trace = cs.run_solver(inst, dataclasses.replace(cfg, R=[R0, None, None]))
    assert trace.status == "converged"
    for dims, m, variant, names in (
        ((2, 2), 1, "admm2", ("admm2_linearized",)),
        ((2, 1, 1), 0, "bcd", ("bcpg",)),
        ((2, 2), 0, "admm2", ("admm2_linearized", "bcpg")),
    ):
        inst = _mixed_instance(rng, dims, m, ("l1",) + ("zero",) * (len(dims) - 1))
        with pytest.raises(SubproblemStructureError) as err:
            cs.run_solver(inst, dataclasses.replace(cfg, variant=variant))
        advice = str(err.value)
        assert all(name in advice for name in names) and "R[0]" not in advice
        assert ("bcpg" in advice) == (m == 0) and ("admm2_linearized" in advice) == (len(dims) == 2)


def test_bcd_requires_explicit_constraint_dropping():
    """bcd and bcpg are the sweeps on an instance without constraint rows:
    given rows, the engine refuses them; the caller drops the rows."""
    inst = scalar_pair_instance()
    for variant in ("bcd", "bcpg"):
        cfg = cs.SolverConfig(variant=variant, tol=1e-10)
        with pytest.raises(cs.UsageError, match=f"variant {variant} needs an instance without constraint rows"):
            cs.step(inst, cfg, cs.IterateState.start(inst))
        with pytest.raises(cs.UsageError, match=f"variant {variant} needs an instance without constraint rows"):
            cs.run_solver(inst, cfg)
        tr = cs.run_solver(drop_rows(inst), cfg)
        assert tr.status == "converged", variant
        assert np.allclose(tr.x, np.zeros(2), atol=1e-8), variant  # unconstrained minimum


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


def test_linearization_curvatures_must_be_positive_and_finite():
    """An infinite r_i is refused when the run is configured, instead of
    sweeping to NaN (bcpg) or reporting an infinite eigenvalue."""
    H = np.array([[2.0, 1.0], [1.0, 2.0]])
    free = cs.ProblemInstance(blocks=cs.BlockStructure(dims=(1, 1), m=0), H=H, g=np.ones(2), A=None, b=None)
    rows = scalar_pair_instance()
    message = "^every linearization curvature r_i must be positive and finite$"
    for inst, variant in ((free, "bcpg"), (rows, "admm2_linearized")):
        for r0 in (np.inf, -np.inf, np.nan, 0.0):
            with pytest.raises(cs.UsageError, match=message):
                cs.run_solver(inst, cs.SolverConfig(variant=variant, r=[r0, 3.0]))


# -- merit function ----------------------------------------------------------


def test_lyapunov_desk_value():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0)
    ref = cs.KKTPoint(x=_arr(1.0, 1.0), mu=_arr(1.0))
    st = cs.IterateState.start(inst)  # (0,0,0), back-difference 0
    assert lyapunov_value(inst, cfg, st, ref) == pytest.approx(13.0 / 4.0, abs=1e-15)


def test_lyapunov_zero_at_reference():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0)
    ref = cs.KKTPoint(x=_arr(1.0, 1.0), mu=_arr(1.0))
    st = cs.IterateState(x=_arr(1.0, 1.0), x_prev=_arr(1.0, 1.0), mu=_arr(1.0), k=3)
    assert lyapunov_value(inst, cfg, st, ref) == 0.0


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
    assert lyapunov_value(inst, cfg, st, ref) == pytest.approx(expect, abs=1e-14)


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
    weights = _merit_weights(inst, cfg)
    sl2 = weights["slice2"]
    d = inst.blocks.d
    dZ = np.diff(tr.path[1:], axis=0)
    floors = _drop_floor_rows(beta, weights, dZ[:, :d], dZ[:, d:])
    for row in range(2, len(tr)):
        x_prev, mu_prev = tr.iterates[row - 1]
        x_new, mu_new = tr.iterates[row]
        floor = cs.lyapunov_decrease_floor(
            inst, cfg,
            cs.IterateState(x=x_prev, x_prev=x_prev, mu=mu_prev, k=row - 1),
            cs.IterateState(x=x_new, x_prev=x_prev, mu=mu_new, k=row),
        )
        # the one-step formula, which the batched floor column equals bit for bit
        dx, dmu = x_new - x_prev, mu_new - mu_prev
        want = (
            float(dx @ (weights["drop"] @ dx)) / 16.0
            + float(dx[sl2] @ (weights["drop_b2"] @ dx[sl2])) / 6.0
            + (0.5 / beta) * float(dmu @ dmu)
        )
        assert floor == floors[row - 2] == want
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
    R_mats = normalize_block_matrices(inst, R)
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
    assert np.all(np.isnan(tr.r_dual[1]))
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


def _cell_by_cell_rows(trace) -> str:
    """Trace rows written one _fmt cell at a time."""
    lead = [] if trace.trial is None else [str(trace.trial)]
    out = []
    for row in range(len(trace.ks)):
        dual = trace.r_dual[row]
        cells = lead + [str(trace.ks[row])]
        cells += [solvers._fmt(None if dual is None else dual[i]) for i in range(trace.n_blocks)]
        cols = (trace.r_feas, trace.surrogate, trace.objective, trace.lyapunov)
        cells += [solvers._fmt(v[row]) for v in cols]
        out.append(",".join(cells) + "\n")
    return "".join(out)


def test_trace_rows_match_cell_by_cell_format():
    """Rows with opaque (None) r_dual, NaN and infinite cells, a lyapunov
    column, a signed zero and a trial lead are written byte for byte as
    _fmt writes each cell."""
    rng = np.random.default_rng(47)
    inst = scalar_pair_instance()
    ref = cs.solve_kkt_oracle(inst)
    merit = cs.run_solver(inst, cs.SolverConfig(variant="admm2", tol=0.0, max_iter=30), reference=ref)
    opaque = _mixed_instance(rng, (2, 2, 1), 2, ("opaque", "l1", "zero"))
    opaque_run = cs.run_solver(
        opaque, cs.SolverConfig(variant="admm_cyclic_n", R=_scaled_identity_R(opaque, 1.0), tol=0.0, max_iter=30)
    )
    edge = solvers.Trace(n_blocks=3)
    edge.extend(np.column_stack([
        [[np.nan] * 3, [np.inf, np.nan, -0.0], [1e-300, 2.5, 1.0 / 3.0]],  # r_dual
        [0.0, np.inf, 5e-324], [np.nan, 1e300, 0.1],  # r_feas, surrogate
        [np.inf, -np.inf, -7.0], [np.nan, np.nan, 2.0],  # objective, lyapunov
        np.full((3, 3), np.inf),  # surrogate_blocks
    ]))
    assert np.array_equal(edge.r_dual[1], [np.inf, np.nan, -0.0], equal_nan=True)
    assert edge.lyapunov.tolist()[2] == 2.0 and np.all(np.isinf(edge.surrogate_blocks))
    assert not np.all(np.isnan(merit.lyapunov))
    assert np.all(np.isnan(opaque_run.r_dual))
    for trace in (merit, opaque_run, edge):
        for trial in (None, 3):
            trace.trial = trial
            fh = io.StringIO()
            fh.write(trace.csv_rows())
            assert fh.getvalue() == _cell_by_cell_rows(trace)


def test_min_kkt_curve_running_minimum():
    inst = scalar_pair_instance()
    cfg = cs.SolverConfig(variant="admm2", beta=1.0, tol=0.0, max_iter=50)
    tr = cs.run_solver(inst, cfg)
    curve = cs.min_kkt_sq_curve(tr)
    assert curve[0, 0] == 1
    assert curve[-1, 0] == 50
    mins = curve[:, 1] / curve[:, 0]
    assert np.all(np.diff(mins) <= 1e-300)  # running minimum never increases
    # bitwise against the running minimum of the recorded residuals, also
    # for many blocks and for surrogate (opaque-term) traces
    rng = np.random.default_rng(46)
    nine = _mixed_instance(rng, (1,) * 9, 3, ("l1", "box", "zero") * 3)
    opaque = _mixed_instance(rng, (2, 2, 1), 2, ("opaque", "l1", "zero"))
    for inst, cfg in (
        (inst, cfg),
        (nine, cs.SolverConfig(variant="admm_cyclic_n", R=_scaled_identity_R(nine, 1.0), tol=0.0, max_iter=40)),
        (opaque, cs.SolverConfig(variant="admm_cyclic_n", R=_scaled_identity_R(opaque, 1.0), tol=0.0, max_iter=40)),
    ):
        tr = cs.run_solver(inst, cfg, x0=rng.standard_normal(inst.blocks.d))
        curve = cs.min_kkt_sq_curve(tr)
        best = np.inf
        for row in range(1, len(tr)):
            best = min(best, tr.total_sq(row))
            assert curve[row - 1, 1] == tr.ks[row] * best


def test_start_state_back_difference_is_zero():
    inst = scalar_pair_instance()
    st = cs.IterateState.start(inst, x0=_arr(3.0, -1.0))
    assert np.array_equal(st.x, st.x_prev)
    assert st.x is not st.x_prev


# -- the sweep engine against the per-block formulas ---------------------------

_CONSTRAINED = ("admm2", "admm2_linearized", "admm_cyclic_n")
_LINEARIZED = ("admm2_linearized", "bcpg")


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
            x[sl] = prox_eval(f, r[i], t / r[i])
            continue
        lin = coup + g[sl] - R[i] @ anchor[sl] - Ai.T @ mu + beta * (Ai.T @ (ax_other - b))
        K = Hii + R[i] + beta * (Ai.T @ Ai)
        if f.kind == "quadratic":
            x[sl] = np.linalg.solve(K + f.params["P"], -(lin + f.params["q"]))
        elif f.kind == "zero":
            x[sl] = np.linalg.solve(K, -lin)
        else:
            ridge = float(np.trace(K)) / K.shape[0]
            x[sl] = prox_eval(f, ridge, -lin / ridge)
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


def test_bcd_and_bcpg_are_the_row_free_admm_sweeps():
    """Without constraint rows beta A'A, beta A_i'b and the multiplier step
    are zero, so bcd is admm_cyclic_n and bcpg the linearized sweep, bit for
    bit, at any beta and gamma."""
    rng = np.random.default_rng(46)
    for _ in range(10):
        kinds = tuple(rng.choice(["l1", "box"], size=3))
        inst = _mixed_instance(rng, tuple(int(v) for v in rng.integers(1, 4, size=3)), 0, kinds)
        beta, gamma = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 1.6))
        common = dict(beta=beta, gamma=gamma, tol=1e-9, max_iter=300)
        R = _scaled_identity_R(inst, beta, margin=float(rng.uniform(1.1, 2.0)))
        bcd = cs.run_solver(inst, cs.SolverConfig(variant="bcd", R=R, **common))
        admm = cs.run_solver(inst, cs.SolverConfig(variant="admm_cyclic_n", R=R, **common))
        assert len(bcd) >= 2 and bcd.status == admm.status
        assert bcd.csv_rows() == admm.csv_rows()
        pair = _mixed_instance(rng, tuple(int(v) for v in rng.integers(1, 4, size=2)), 0, kinds[:2])
        bcpg = cs.run_solver(pair, cs.SolverConfig(variant="bcpg", **common))
        lin = cs.run_solver(pair, cs.SolverConfig(variant="admm2_linearized", **common))
        assert len(bcpg) >= 2 and bcpg.status == lin.status
        assert bcpg.csv_rows() == lin.csv_rows()


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


def _oracle_r_dual(inst, x, mu):
    """kkt_residual's per-block violations; where a block has a coordinate
    outside its box its subdifferential is empty, and the block reads inf."""
    try:
        return cs.kkt_residual(inst, cs.KKTPoint(x=x, mu=mu)).r_dual
    except cs.DomainError:
        s = inst.smooth_gradient(x) - inst.A.T @ mu
        out = np.zeros(inst.blocks.n)
        for i, f in enumerate(inst.theta):
            sl = inst.blocks.slice_of(i)
            try:
                out[i] = subdiff_distance(f, x[sl], s[sl])
            except cs.DomainError:
                out[i] = np.inf
        return out


def _row_scale(inst, x, mu):
    """1 plus the magnitude of the terms summed in a row's residuals and
    objective."""
    H, g, A, b = inst.H, inst.g, inst.A, inst.b
    return 1.0 + max(
        float(np.max(np.abs(H) @ np.abs(x) + np.abs(g) + np.abs(A.T) @ np.abs(mu))),
        float(np.max(np.abs(A) @ np.abs(x) + np.abs(b), initial=0.0)),
        0.5 * float(np.abs(x) @ np.abs(H) @ np.abs(x)) + float(np.abs(g) @ np.abs(x)),
    )


def _check_observed(inst, x, mu, exact, r_dual, objective):
    """One row's r_dual and objective against kkt_residual and
    inst.objective; r_dual is None when some term has no oracle."""
    scale = _row_scale(inst, x, mu)
    if exact:
        _assert_close(r_dual, _oracle_r_dual(inst, x, mu), scale)
    else:
        assert np.all(np.isnan(r_dual))
    want = inst.objective(x)
    if np.isnan(want):
        assert np.isnan(objective)
    else:
        _assert_close(objective, want, scale + abs(want))


def _check_rows(inst, cfg, trace, orders):
    """Every recorded row against kkt_residual, ||Ax - b||, inst.objective
    and the n-block surrogate formula."""
    beta, _, R = _oracle_weights(inst, cfg)
    A, b = inst.A, inst.b
    assert len(trace.iterates) == len(trace)
    for row, (x, mu) in enumerate(trace.iterates):
        resid = A @ x - b
        scale = _row_scale(inst, x, mu)
        _assert_close(trace.r_feas[row], np.linalg.norm(resid), scale)
        _check_observed(inst, x, mu, trace.exact_residuals, trace.r_dual[row], trace.objective[row])
        if row == 0:
            assert np.all(np.isinf(trace.surrogate_blocks[0])) and np.isnan(trace.surrogate[0])
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
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.2, R=[0.5, None, random_psd(rng, 1), 0.0], tol=0.0, max_iter=15, seed=9)
    traces, _ = cs.run_rp_solver(inst, cfg, trials=2, keep_iterates=True)
    for t, trace in enumerate(traces):
        _check_rows(inst, cfg, trace, [permutation_at(9 ^ t, k, 4) for k in range(15)])


def _edge_instance(rng, m):
    """Terms at the edges of the whole-vector formulas: scalar box bounds
    broadcast over a block, pinned coordinates (lo == hi) beside one-sided
    infinite bounds, an l1 weight large enough to hold iterates at exactly
    0, and a quadratic term whose P dwarfs H."""
    dims = (3, 4, 2, 2)
    d = sum(dims)
    W = rng.standard_normal((d, d))
    H = W @ W.T / d + 0.5 * np.eye(d)
    theta = (
        cs.ProxFn.box([-0.5], [0.5]),
        cs.ProxFn.box([0.2, -np.inf, -1.0, 0.0], [0.2, 1.0, np.inf, 0.0]),
        cs.ProxFn.l1(50.0),
        cs.ProxFn.quadratic(1e6 * random_psd(rng, 2) + 1e5 * np.eye(2), 1e3 * rng.standard_normal(2)),
    )
    A = rng.standard_normal((m, d))
    x_feas = np.concatenate([[0.1, -0.2, 0.3], [0.2, 0.5, 0.0, 0.0], [0.0, 0.0], rng.standard_normal(2)])
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=dims, m=m), H=0.5 * (H + H.T), g=rng.standard_normal(d),
        A=A, b=A @ x_feas, theta=theta,
    )


def test_recorded_rows_at_term_edges():
    """Rows against the per-block oracles where the formulas branch: a start
    outside a box reads inf in that block's r_dual and in the objective,
    pinned and one-sided bounds, l1 iterates at exactly 0, and P >> H."""
    rng = np.random.default_rng(43)
    constrained = _edge_instance(rng, 3)
    unconstrained = _edge_instance(rng, 0)
    runs = [
        (constrained, cs.SolverConfig(variant="admm_cyclic_n", beta=1.1, gamma=0.9, R=_scaled_identity_R(constrained, 1.1))),
        (unconstrained, cs.SolverConfig(variant="bcpg")),
        (unconstrained, cs.SolverConfig(variant="bcd", R=_scaled_identity_R(unconstrained, 0.0, 1.3))),
    ]
    for inst, cfg in runs:
        run_cfg = dataclasses.replace(cfg, tol=0.0, max_iter=12)
        d, m = inst.blocks.d, inst.blocks.m
        x0 = rng.standard_normal(d)
        x0[0] = 2.0  # outside block 0's box [-0.5, 0.5]
        x0[3:7] = [0.2, 0.5, 0.3, 0.0]  # inside block 1's box
        trace = cs.run_solver(inst, run_cfg, x0=x0, mu0=rng.standard_normal(m), keep_iterates=True)
        assert trace.r_dual[0][0] == np.inf and trace.objective[0] == np.inf
        assert np.all(np.isfinite(trace.r_dual[0][1:]))
        xs = np.array([x for x, _ in trace.iterates[1:]])
        assert np.all(xs[:, 3] == 0.2) and np.all(xs[:, 6] == 0.0)  # pinned
        assert np.all(xs[:, 7:9] == 0.0)  # l1 held at 0
        assert np.all(np.isfinite(trace.objective[1:]))
        _check_rows(inst, run_cfg, trace, [tuple(range(inst.blocks.n))] * 12)


def test_observer_near_box_faces():
    """The row observer against the per-block oracles at points on, within
    rounding of, and just beyond every box face, with l1 coordinates at
    exactly 0 or not."""
    rng = np.random.default_rng(47)
    inst = _edge_instance(rng, 3)
    observer = solvers._Workspace(inst, cs.SolverConfig(variant="admm_cyclic_n", R=_scaled_identity_R(inst, 1.0))).observer
    faces = [(0, (-0.5, 0.5)), (1, (-0.5, 0.5)), (2, (-0.5, 0.5)), (4, (1.0,)), (5, (-1.0,))]
    for _ in range(300):
        x = rng.standard_normal(inst.blocks.d)
        mu = rng.standard_normal(inst.blocks.m)
        for j, bounds in faces:
            x[j] = rng.choice(bounds) + rng.choice([-1e-11, -1e-13, 0.0, 1e-13, 1e-11])
        x[3], x[6] = 0.2, 0.0
        x[7:9] *= rng.random(2) < 0.5
        r_dual, objective = observer.rows(x[None], mu[None])
        _check_observed(inst, x, mu, True, r_dual[0], objective[0])


def test_block_prox_matches_prox_eval_bitwise():
    """The prox calls of the block-by-block sweep, l1 and box with their
    input, output and temporaries bound once, write prox_eval's bits into
    their output, call after call, and leave them there for the next
    block."""
    rng = np.random.default_rng(44)
    terms = [
        cs.ProxFn.l1(0.0),
        cs.ProxFn.l1(0.37),
        cs.ProxFn.l1(5.0),
        cs.ProxFn.box([-0.5], [0.5]),
        cs.ProxFn.box([-0.0], [0.0]),
        cs.ProxFn.box([0.2, -np.inf, -1.0, 0.0, -np.inf], [0.2, 1.0, np.inf, 0.0, np.inf]),
    ]
    for f in terms:
        dim = f.params["lo"].size if f.kind == "box" and f.params["lo"].size > 1 else 5
        for r in (1e-3, 0.7, 1.0, 3.3, 1e4):
            v, outs = np.empty(dim), np.empty((20, dim))
            wants = []
            for out in outs:
                # bound once, on the one input buffer v, and called thrice
                prox = solvers._prox_calls(f, r, v, out)
                for _ in range(3):
                    v[...] = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
                    v[rng.random(dim) < 0.2] = 0.0
                    v[rng.random(dim) < 0.1] = -0.0
                    want = prox_eval(f, r, v)
                    for call in prox:
                        call()
                    assert out.tobytes() == want.tobytes(), (f.kind, r, want)
                wants.append(want)
            assert all(out.tobytes() == want.tobytes() for out, want in zip(outs, wants))


def test_rows_need_no_per_block_oracle(monkeypatch):
    """Sweeps and rows of zero, l1, box and quadratic terms with direct or
    l1/box prox blocks run without the per-block oracles, which stay the
    references only."""

    def refuse(*args, **kwargs):
        raise AssertionError("per-block oracle called on the hot path")

    monkeypatch.setattr(solvers, "subdiff_distance", refuse)
    monkeypatch.setattr(solvers, "prox_eval", refuse)
    monkeypatch.setattr(model, "fn_value", refuse)
    rng = np.random.default_rng(45)
    inst = _mixed_instance(rng, (2, 3, 2, 2), 2, ("l1", "box", "zero", "quadratic"))
    # admm_cyclic_n: the zero and quadratic blocks are direct solves, the l1
    # and box blocks proxes of a scaled-identity subproblem
    R = _scaled_identity_R(inst, 1.0)
    R[2], R[3] = None, 0.5
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, R=R, tol=0.0, max_iter=30)
    trace = cs.run_solver(inst, cfg)
    assert len(trace) == 31 and trace.exact_residuals
    assert all(np.all(np.isfinite(v)) for v in trace.r_dual[1:])
