"""Tests for the problem model: structure validation, uniqueness condition,
KKT oracle and residuals, serialization."""

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting._linalg import psd_sym, singular_sym, sym_part, symmetric
from coupled_splitting.errors import InfeasibleError, StructuralError, UnsupportedOracleError
from coupled_splitting.model import normalize_block_matrices, validate_instance
from coupled_splitting.solvers import merit_weight_matrices

from gen import random_psd, two_block_instance


def _arr(*vals):
    return np.asarray(vals, dtype=float)


def _simple(H, g, A, b, dims, theta=None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=tuple(dims), m=A.shape[0]),
        H=H, g=g, A=A, b=np.atleast_1d(np.asarray(b, dtype=float)), theta=theta,
    )


# -- structure ---------------------------------------------------------------


def test_block_structure_offsets():
    bs = cs.BlockStructure(dims=(2, 3, 1), m=2)
    assert bs.n == 3
    assert bs.d == 6
    assert bs.offsets == (0, 2, 5)
    assert bs.slice_of(1) == slice(2, 5)
    parts = bs.split(np.arange(6.0))
    assert [p.tolist() for p in parts] == [[0, 1], [2, 3, 4], [5]]


def test_instance_shape_mismatch_names_field():
    with pytest.raises(StructuralError, match="A"):
        _simple(np.eye(2), np.zeros(2), np.zeros((1, 3)), [0.0], (1, 1))
    with pytest.raises(StructuralError, match="g"):
        _simple(np.eye(2), np.zeros(3), np.zeros((1, 2)), [0.0], (1, 1))


def test_validate_rejects_asymmetric_h():
    H = np.array([[1.0, 0.5], [0.0, 1.0]])
    inst = _simple(H, np.zeros(2), np.zeros((1, 2)), [0.0], (1, 1))
    with pytest.raises(StructuralError, match="symmetric"):
        validate_instance(inst)


def test_validate_rejects_indefinite_h():
    H = np.array([[1.0, 2.0], [2.0, 1.0]])
    inst = _simple(H, np.zeros(2), np.zeros((1, 2)), [0.0], (1, 1))
    with pytest.raises(StructuralError, match="semidefinite"):
        validate_instance(inst)


def test_validate_rejects_non_finite_data():
    good = dict(H=np.eye(2), g=np.zeros(2), A=np.ones((1, 2)), b=[1.0], dims=(1, 1))
    for field, bad in (
        ("H", np.array([[1.0, np.nan], [np.nan, 1.0]])),
        ("g", _arr(0.0, np.inf)),
        ("A", np.array([[1.0, -np.inf]])),
        ("b", [np.nan]),
    ):
        inst = _simple(**{**good, field: bad})
        with pytest.raises(StructuralError, match=f"^{field} has a non-finite entry"):
            validate_instance(inst)
    # infinite box bounds are legal: they mark unbounded sides
    box = cs.ProxFn.box([-np.inf], [np.inf])
    validate_instance(_simple(**good, theta=(box, box)))


def test_validate_reports_defects():
    inst = _simple(np.eye(2), np.zeros(2), np.ones((1, 2)), [1.0], (1, 1))
    rep = validate_instance(inst)
    assert rep.h_symmetry_defect == 0.0
    assert rep.h_min_eigenvalue == pytest.approx(1.0)
    assert rep.partition_ok


def test_one_rule_per_matrix_property():
    """Symmetry, semidefiniteness and singularity are each decided by one
    rule, relative to the matrix's own scale floored at one."""
    assert symmetric(np.array([[1.0, 1e-13], [0.0, 1.0]]))
    assert not symmetric(np.array([[1.0, 2e-12], [0.0, 1.0]]))
    assert symmetric(np.array([[1e6, 1e-7], [0.0, 1.0]]))
    assert psd_sym(np.diag(_arr(-1e-11, 1.0))) == (True, -1e-11)
    assert not psd_sym(np.diag(_arr(-1e-9, 1.0)))[0]
    assert psd_sym(np.diag(_arr(-1e-3, 1e8)))[0]
    assert singular_sym(np.diag(_arr(1e-13, 1.0))) == (True, 1e-13)
    assert singular_sym(np.diag(_arr(5e-11, 1.0))) == (False, 5e-11)
    assert singular_sym(np.diag(_arr(1e-3, 1e10)))[0]


def test_symmetric_part_of_huge_finite_entries_stays_finite():
    """sym_part halves before it sums, so a finite matrix's symmetric part is
    finite: H = diag(1e308, 1) is semidefinite and a block curvature of
    1e308 is not singular."""
    H = np.diag(_arr(1e308, 1.0))
    assert np.array_equal(sym_part(H), H)
    assert psd_sym(H) == (True, 1.0)
    assert singular_sym(np.array([[1e308]])) == (False, 1e308)
    M = np.array([[1e308, 1.5e308], [0.5e308, 1e308]])
    assert np.array_equal(sym_part(M), np.full((2, 2), 1e308))
    validate_instance(_simple(H, np.zeros(2), np.zeros((1, 2)), [0.0], (1, 1)))


def test_proximal_weights_must_be_finite():
    """A non-finite R_i is named as such before its symmetry is tested."""
    inst = _simple(np.eye(3), np.zeros(3), np.zeros((1, 3)), [0.0], (1, 2))
    for R1 in (np.inf, np.nan, [[1.0, np.inf], [np.inf, 1.0]], [[1.0, np.nan], [0.0, 1.0]]):
        with pytest.raises(StructuralError, match=r"^R\[1\] must be finite$"):
            normalize_block_matrices(inst, [None, R1])
        with pytest.raises(StructuralError, match=r"^R\[1\] must be finite$"):
            cs.run_solver(inst, cs.SolverConfig(variant="admm2", R=[None, R1]))


def test_guards_name_the_matrix_they_reject():
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    indef = np.array([[1.0, 2.0], [2.0, 1.0]])
    inst = _simple(np.eye(2), np.zeros(2), np.zeros((1, 2)), [0.0], (1, 1))
    for H, message in ((asym, "H is not symmetric"), (indef, "H is not positive semidefinite")):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            validate_instance(_simple(H, np.zeros(2), np.zeros((1, 2)), [0.0], (1, 1)))
    with pytest.raises(StructuralError, match=r"^R\[1\] is not symmetric$"):
        normalize_block_matrices(_simple(np.eye(3), np.zeros(3), np.zeros((1, 3)), [0.0], (1, 2)), [None, asym])
    with pytest.raises(StructuralError, match=r"^R\[0\] is not positive semidefinite$"):
        normalize_block_matrices(inst, [-1.0, None])
    with pytest.raises(StructuralError, match="^quadratic term matrix P is not positive semidefinite$"):
        cs.ProxFn.quadratic(indef, np.zeros(2))
    with pytest.raises(StructuralError, match="^sigma is not symmetric$"):
        cs.ProxFn.zero(sigma=asym).validate(2)


def test_block_curvature():
    rng = np.random.default_rng(29)
    inst = two_block_instance(rng, kinds=("zero",))
    for i in range(2):
        Ai = inst.A_block(i)
        assert np.array_equal(inst.block_curvature(i, 2.5), inst.H_block(i, i) + 2.5 * (Ai.T @ Ai))
        assert np.array_equal(inst.block_curvature(i, 0.0), inst.H_block(i, i))
    assert np.array_equal(inst.curvature(2.5), inst.H + 2.5 * (inst.A.T @ inst.A))


def test_instance_arrays_read_only():
    inst = _simple(np.eye(2), np.zeros(2), np.ones((1, 2)), [1.0], (1, 1))
    with pytest.raises(ValueError):
        inst.H[0, 0] = 7.0


def test_objective_includes_terms():
    theta = (cs.ProxFn.l1(2.0), cs.ProxFn.zero())
    inst = _simple(np.eye(2), _arr(1.0, 0.0), np.ones((1, 2)), [1.0], (1, 1), theta)
    x = _arr(1.0, 2.0)
    # 0.5 x'Hx + g'x + 2|x_1| = 2.5 + 1 + 2
    assert inst.objective(x) == pytest.approx(5.5)


# -- uniqueness condition ----------------------------------------------------


def test_condition_two_block_full_detects_violation():
    # both H_11 and A_1 vanish on block 1
    inst = _simple(np.diag(_arr(0.0, 1.0)), np.zeros(2), _arr(0.0, 1.0), [1.0], (1, 1))
    rep = cs.check_uniqueness_condition(inst, mode="two_block_full")
    assert not rep.satisfied
    assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert rep.witness is not None
    assert np.allclose(np.abs(rep.witness), _arr(1.0, 0.0))


def test_condition_two_block_full_satisfied():
    inst = _simple(np.eye(2), np.zeros(2), _arr(1.0, 1.0), [1.0], (1, 1))
    rep = cs.check_uniqueness_condition(inst, mode="two_block_full")
    assert rep.satisfied
    assert rep.witness is None


def test_condition_uses_the_singularity_rule():
    """A block curvature of 5e-11 is small but not singular relative to
    max(1, its largest eigenvalue); 1e-13 is singular."""
    for h00, satisfied in ((5e-11, True), (1e-13, False)):
        inst = _simple(np.diag(_arr(h00, 1.0)), np.zeros(2), _arr(0.0, 1.0), [0.0], (1, 1))
        for mode in ("two_block_full", "nblock_qp"):
            rep = cs.check_uniqueness_condition(inst, mode=mode)
            assert rep.satisfied is satisfied
            assert rep.min_eigenvalue == h00
            assert (rep.witness is None) is satisfied


def test_condition_reports_the_failing_block():
    """The failing block is the one judged singular against its own scale,
    though another block has a smaller eigenvalue."""
    inst = _simple(np.diag(_arr(1e-4, 1e10, 1e-3)), np.zeros(3), np.zeros((1, 3)), [0.0], (1, 2))
    rep = cs.check_uniqueness_condition(inst)
    assert not rep.satisfied
    assert rep.min_eigenvalue == 1e-3
    assert np.array_equal(rep.witness, _arr(0.0, 0.0, 1.0))


def test_condition_r_can_repair():
    inst = _simple(np.diag(_arr(0.0, 1.0)), np.zeros(2), _arr(0.0, 1.0), [1.0], (1, 1))
    rep = cs.check_uniqueness_condition(inst, R=[np.eye(1), None], mode="two_block_full")
    assert rep.satisfied


def test_condition_beta_invariant():
    """The report is about the beta-independent sum, so adding A'A with any
    positive weight cannot flip a violation."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        inst = two_block_instance(rng)
        rep = cs.check_uniqueness_condition(inst, mode="two_block_full")
        assert rep.satisfied  # generator keeps H positive definite


def test_condition_nblock_mode():
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=3),
        H=np.zeros((3, 3)), g=np.zeros(3), A=A, b=np.zeros(3),
    )
    rep = cs.check_uniqueness_condition(inst, mode="nblock_qp")
    assert rep.satisfied
    assert rep.matrix_checked == "nblock_qp"


def test_condition_nblock_needs_zero_terms():
    inst = _simple(np.eye(2), np.zeros(2), _arr(1.0, 1.0), [1.0], (1, 1), (cs.ProxFn.l1(1.0), cs.ProxFn.zero()))
    with pytest.raises(cs.UsageError):
        cs.check_uniqueness_condition(inst, mode="nblock_qp")


def test_condition_two_block_full_needs_two_blocks():
    inst = _simple(np.eye(3), np.zeros(3), _arr(1.0, 1.0, 1.0), [1.0], (1, 1, 1))
    with pytest.raises(cs.UsageError, match="^mode two_block_full needs exactly two blocks$"):
        cs.check_uniqueness_condition(inst)
    assert cs.check_uniqueness_condition(inst, mode="nblock_qp").satisfied


# -- KKT oracle and residual -------------------------------------------------


def test_oracle_symmetric_example():
    inst = _simple(np.eye(2), np.zeros(2), _arr(1.0, 1.0), [1.0], (1, 1))
    pt = cs.solve_kkt_oracle(inst)
    assert np.allclose(pt.x, _arr(0.5, 0.5), atol=1e-12)
    assert np.allclose(pt.mu, _arr(0.5), atol=1e-12)


def test_oracle_with_linear_term():
    inst = _simple(np.eye(2), _arr(-1.0, -1.0), _arr(1.0, 1.0), [1.0], (1, 1))
    pt = cs.solve_kkt_oracle(inst)
    assert np.allclose(pt.x, _arr(0.5, 0.5), atol=1e-12)
    assert np.allclose(pt.mu, _arr(-0.5), atol=1e-12)


def test_oracle_min_norm_on_singular():
    inst = _simple(np.zeros((2, 2)), np.zeros(2), _arr(1.0, 1.0), [1.0], (1, 1))
    pt = cs.solve_kkt_oracle(inst)
    assert np.allclose(pt.x, _arr(0.5, 0.5), atol=1e-12)
    assert np.allclose(pt.mu, _arr(0.0), atol=1e-12)


def test_oracle_folds_quadratic_terms():
    theta = (cs.ProxFn.quadratic(np.eye(1), _arr(0.0)), cs.ProxFn.zero())
    inst = _simple(np.eye(2), np.zeros(2), _arr(1.0, 1.0), [1.0], (1, 1), theta)
    pt = cs.solve_kkt_oracle(inst)
    # block 1 has curvature 2: minimize x1^2 + 0.5 x2^2 s.t. x1 + x2 = 1
    assert np.allclose(pt.x, _arr(1.0 / 3.0, 2.0 / 3.0), atol=1e-12)
    res = cs.kkt_residual(inst, pt)
    assert res.max_component < 1e-12


def test_oracle_rejects_nonsmooth():
    theta = (cs.ProxFn.l1(1.0), cs.ProxFn.zero())
    inst = _simple(np.eye(2), np.zeros(2), _arr(1.0, 1.0), [1.0], (1, 1), theta)
    with pytest.raises(UnsupportedOracleError):
        cs.solve_kkt_oracle(inst)


def test_oracle_reports_infeasible():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    inst = _simple(np.zeros((2, 2)), np.zeros(2), A, _arr(1.0, 2.0), (1, 1))
    with pytest.raises(InfeasibleError):
        cs.solve_kkt_oracle(inst)


def test_residual_at_oracle_point_is_zero():
    rng = np.random.default_rng(6)
    for _ in range(20):
        inst = two_block_instance(rng, kinds=("zero", "quadratic"))
        pt = cs.solve_kkt_oracle(inst)
        res = cs.kkt_residual(inst, pt)
        assert res.max_component < 1e-9 * (1 + np.linalg.norm(inst.g) + np.linalg.norm(inst.b))


def test_residual_hand_example():
    inst = _simple(np.eye(2), np.zeros(2), _arr(1.0, 1.0), [1.0], (1, 1))
    res = cs.kkt_residual(inst, cs.KKTPoint(x=_arr(1.0, 1.0), mu=_arr(0.0)))
    assert np.allclose(res.r_dual, _arr(1.0, 1.0))
    assert res.r_feas == pytest.approx(1.0)
    assert res.max_component == pytest.approx(1.0)
    assert res.total_sq == pytest.approx(3.0)


def test_residual_l1_interval():
    # gradient 0.5 at a zero entry of an l1 block is inside [-1, 1]
    theta = (cs.ProxFn.l1(1.0), cs.ProxFn.zero())
    H = np.zeros((2, 2))
    inst = _simple(H, _arr(0.5, 0.0), np.zeros((1, 2)), [0.0], (1, 1), theta)
    res = cs.kkt_residual(inst, cs.KKTPoint(x=_arr(0.0, 0.0), mu=_arr(0.0)))
    assert res.r_dual[0] == 0.0


# -- merit weights -----------------------------------------------------------


def test_merit_weights_shapes_and_values():
    rng = np.random.default_rng(7)
    inst = two_block_instance(rng, kinds=("zero",))
    beta = 2.5
    R = [random_psd(rng, inst.blocks.dims[0]), random_psd(rng, inst.blocks.dims[1])]
    w = merit_weight_matrices(inst, beta, R)
    d = inst.blocks.d
    sl2 = w["slice2"]
    A2 = inst.A_block(1)
    H22 = inst.H_block(1, 1)
    Rfull = np.zeros((d, d))
    Rfull[inst.blocks.slice_of(0), inst.blocks.slice_of(0)] = R[0]
    Rfull[sl2, sl2] = R[1]
    assert np.allclose(w["level"], inst.H + (4.0 / 7.0) * Rfull)
    assert np.allclose(w["level_b2"], H22 + beta * (A2.T @ A2))
    assert np.allclose(w["drop"], inst.H + 8.0 * Rfull)
    assert np.allclose(w["drop_b2"], H22 + 3.0 * beta * (A2.T @ A2))
    assert np.allclose(w["R2"], R[1])


# -- serialization -----------------------------------------------------------


def test_instance_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    inst = two_block_instance(rng)
    path = tmp_path / "inst.json"
    cs.save_instance(inst, path)
    back = cs.load_instance(path)
    assert back.blocks == inst.blocks
    assert np.array_equal(back.H, inst.H)
    assert np.array_equal(back.g, inst.g)
    assert np.array_equal(back.A, inst.A)
    assert np.array_equal(back.b, inst.b)
    for f, g_ in zip(inst.theta, back.theta):
        assert f.kind == g_.kind


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"blocks": [1, 1]}')
    with pytest.raises(StructuralError, match="missing"):
        cs.load_instance(path)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(StructuralError, match="JSON"):
        cs.load_instance(path)
