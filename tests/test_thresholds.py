"""The decision tolerances: each is named once, in `_linalg`, no other module
holds a threshold literal, README's table lists every one with its value,
and each named threshold decides on the side of its bound that it says.

Each boundary test builds one input at half the tolerance and one at twice
it from the constant itself, so a changed constant moves both inputs."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting import spectral
from coupled_splitting import solvers
from coupled_splitting._linalg import (
    BOX_EDGE_TOL,
    CURVATURE_WARN_RTOL,
    EIG_ONE_TOL,
    IDENTITY_TOL,
    MIN_NORM_RTOL,
    ORACLE_RESIDUAL_RTOL,
    PSD_RTOL,
    QS_LOWER,
    QS_UPPER_GAP,
    RANK_RTOL,
    RATE_TIE_TOL,
    SCALED_IDENTITY_RTOL,
    SINGULAR_RTOL,
    SYMMETRY_RTOL,
    WITNESS_RTOL,
    psd_sym,
    rank_svd,
    singular_sym,
    symmetric,
)
from coupled_splitting.prox import fn_value, subdiff_distance
from coupled_splitting.errors import CertificateError, DomainError, InfeasibleError, SubproblemStructureError, UsageError
from coupled_splitting.spectral import BcdRateComparison, _verified_witness, build_Q_M, check_eig_QS, check_M_spectrum

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coupled_splitting"


def _arr(*vals):
    return np.asarray(vals, dtype=float)


# -- one home for every tolerance ---------------------------------------------


def _small_float(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float and 0 < abs(node.value) < 1e-3


def decision_literals(source: str, home: bool) -> list:
    """(line, column, value) of every float literal below 1e-3 in magnitude
    that can decide something: in the home module, anywhere in a function
    body; in any other module, inside a comparison or a module-level
    assignment. Parameter defaults are starting values, not decisions."""
    tree = ast.parse(source)
    if home:
        roots = [
            stmt
            for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            for stmt in f.body
        ]
    else:
        roots = [n for n in ast.walk(tree) if isinstance(n, ast.Compare)]
        roots += [s.value for s in tree.body if isinstance(s, (ast.Assign, ast.AnnAssign)) and s.value is not None]
    return sorted({(n.lineno, n.col_offset, n.value) for root in roots for n in ast.walk(root) if _small_float(n)})


def named_tolerances() -> dict:
    """The module-level numeric constants of `_linalg`, by name."""
    tree = ast.parse((PACKAGE / "_linalg.py").read_text())
    out = {}
    for s in tree.body:
        if isinstance(s, ast.Assign) and len(s.targets) == 1 and isinstance(s.targets[0], ast.Name):
            try:
                value = ast.literal_eval(s.value)
            except ValueError:
                continue
            if isinstance(value, float):
                out[s.targets[0].id] = value
    return out


def test_literal_scan_flags_decisions_only():
    """The scan sees a threshold in a comparison or a module constant, and
    in the home module one inline in a function, but not a default."""
    source = (
        "LIMIT = -1e-9\n"
        "def f(x, tol=1e-8):\n"
        "    if x > 1e-10 * abs(x) or x < -1e-10:\n"
        "        return 2e-12 * x\n"
        "    return [v for v in x if v < 3e-7]\n"
    )
    outside = [(1, 9, 1e-9), (3, 11, 1e-10), (3, 34, 1e-10), (5, 32, 3e-7)]
    assert decision_literals(source, home=False) == outside
    assert decision_literals(source, home=True) == sorted(outside[1:] + [(4, 15, 2e-12)])


def test_no_threshold_literal_outside_the_named_block():
    flagged = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := decision_literals(path.read_text(), home=path.name == "_linalg.py"))
    }
    assert flagged == {}


def test_readme_threshold_table_lists_every_tolerance():
    names = named_tolerances()
    assert {"EIG_ONE_TOL", "QS_LOWER", "QS_UPPER_GAP", "BOX_EDGE_TOL", "ORACLE_RESIDUAL_RTOL"} <= set(names)
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Numerical thresholds", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", table, flags=re.M)
    assert {name: float(value) for name, value in rows} == names
    assert len(rows) == len(names)


# -- matrix properties --------------------------------------------------------


def test_matrix_rules_decide_at_their_tolerance():
    for factor, inside in ((0.5, True), (2.0, False)):
        assert symmetric(np.array([[1.0, factor * SYMMETRY_RTOL], [0.0, 1.0]])) is inside
        assert psd_sym(np.diag(_arr(-factor * PSD_RTOL, 1.0)))[0] is inside
        assert singular_sym(np.diag(_arr(factor * SINGULAR_RTOL, 1.0)))[0] is inside
        # [[1, 1], [1, 1 + e]] has singular values near 2 and e / 2, before
        # and after balancing
        e = 4.0 * factor * RANK_RTOL
        assert rank_svd(np.array([[1.0, 1.0], [1.0, 1.0 + e]])) == (1 if inside else 2)


# -- spectral verdicts ---------------------------------------------------------


def _pair(H, A=((1.0, 1.0),), b=(0.0,)):
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=len(b)),
        H=np.asarray(H, dtype=float), g=np.zeros(2), A=np.asarray(A, dtype=float), b=np.asarray(b, dtype=float),
    )


@pytest.fixture
def report():
    return build_Q_M(_pair(2.0 * np.eye(2)), beta=1.0)


def test_eig_one_band(report):
    """Within EIG_ONE_TOL of 1+0i an eigenvalue counts as one, and a modulus
    below 1 - EIG_ONE_TOL as inside; between the two, lemma_3_4 fails."""
    cases = (
        (1.0 + 0.5 * EIG_ONE_TOL, True),
        (1.0 + 2.0 * EIG_ONE_TOL, False),
        (1.0 + 0.5j * EIG_ONE_TOL, True),
        (1.0 + 2.0j * EIG_ONE_TOL, False),
        (1j * (1.0 - 2.0 * EIG_ONE_TOL), True),
        (1j * (1.0 - 0.5 * EIG_ONE_TOL), False),
    )
    for value, verdict in cases:
        report.eig_M = np.array([value, 0.5], dtype=complex)
        assert check_M_spectrum(report)[0] is verdict, value


def test_qs_band_edges(report):
    cases = (
        (4.0 / 3.0 - 2.0 * QS_UPPER_GAP, True),
        (4.0 / 3.0 - 0.5 * QS_UPPER_GAP, False),
        (0.5 * QS_LOWER, True),
        (2.0 * QS_LOWER, False),
    )
    for value, verdict in cases:
        report.eig_QS = _arr(value, 1.0)
        assert check_eig_QS(report) is verdict, value


def test_rate_tie_tolerance(monkeypatch):
    """prop_3_1 holds while both orders' radii tie, and the average is no
    smaller, to within RATE_TIE_TOL."""
    inst = _pair(2.0 * np.eye(2))
    for (drho2, drho3), verdict in (
        ((0.5, 0.0), True),
        ((2.0, 0.0), False),
        ((0.0, -0.5), True),
        ((0.0, -2.0), False),
    ):
        rates = BcdRateComparison(
            M1=None, M2=None, M3=None, rho1=0.5, rho2=0.5 + drho2 * RATE_TIE_TOL, rho3=0.5 + drho3 * RATE_TIE_TOL
        )
        monkeypatch.setattr(spectral, "bcd_rate_matrices", lambda H, d1, rates=rates: rates)
        assert cs.analyze_instance(inst, 1.0).verdicts["prop_3_1"] is verdict, (drho2, drho3)


def test_identity_block_tolerance():
    """The closed-form averaged radius is attached when both diagonal blocks
    are the identity to within IDENTITY_TOL."""
    for factor, closed in ((0.5, True), (2.0, False)):
        H = np.array([[1.0 + factor * IDENTITY_TOL, 0.5], [0.5, 1.0]])
        cmp = cs.bcd_rate_matrices(H, d1=1)
        assert (cmp.sigma1 is not None) is closed
        assert (cmp.rho3_closed_form is not None) is closed


def test_witness_tolerance():
    """A direction is a witness while every curvature piece maps it to at
    most WITNESS_RTOL of the data scale, here 1 + max(|H|, |A|) = 2."""
    inst = _pair(np.diag(_arr(0.0, 1.0)), A=((0.0, 1.0),))
    R = [np.zeros((1, 1)), np.zeros((1, 1))]
    scale = 2.0
    _verified_witness(inst, R, _arr(1.0, 0.5 * WITNESS_RTOL * scale), "not a witness")
    with pytest.raises(CertificateError, match="^not a witness: "):
        _verified_witness(inst, R, _arr(1.0, 2.0 * WITNESS_RTOL * scale), "not a witness")


# -- the sweep engine ------------------------------------------------------------


def test_curvature_warning_tolerance():
    """A user curvature warns once it is below the block's top curvature
    (here 2) by more than CURVATURE_WARN_RTOL of it."""
    inst = _pair(np.eye(2), b=(2.0,))
    for factor, warns in ((0.5, False), (2.0, True)):
        r0 = 2.0 * (1.0 - factor * CURVATURE_WARN_RTOL)
        cfg = cs.SolverConfig(variant="admm2_linearized", r=[r0, 2.0], max_iter=3)
        warnings = cs.run_solver(inst, cfg).warnings
        assert any(w.startswith("r[0]=") and "below the block's top curvature" in w for w in warnings) is warns


def test_scaled_identity_tolerance():
    """A prox block's effective quadratic H_00 + R_0 = diag(1, 1 + e) is a
    scaled identity while its distance e / 2 from its mean diagonal stays
    within SCALED_IDENTITY_RTOL of that mean."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(2, 1), m=1),
        H=np.eye(3), g=np.zeros(3), A=np.array([[0.0, 0.0, 1.0]]), b=_arr(1.0),
        theta=[cs.ProxFn.l1(0.1), cs.ProxFn.zero()],
    )
    for factor, ok in ((0.5, True), (2.0, False)):
        e = 2.0 * factor * SCALED_IDENTITY_RTOL
        cfg = cs.SolverConfig(variant="admm2", R=[np.diag(_arr(0.0, e)), None], max_iter=3)
        if ok:
            cs.run_solver(inst, cfg)
        else:
            with pytest.raises(SubproblemStructureError, match="^block 0 .*not a scaled identity"):
                cs.run_solver(inst, cfg)



def test_min_norm_tolerance():
    """A minimum-norm block solve is bounded below while its residual stays
    within MIN_NORM_RTOL * (1 + max|rhs|). Block 0 has no curvature and the
    linear term e, so its subproblem e x_0 leaves the residual e exactly."""
    for factor, bounded in ((0.5, True), (2.0, False)):
        e = factor * MIN_NORM_RTOL / (1.0 - factor * MIN_NORM_RTOL)
        inst = cs.ProblemInstance(
            blocks=cs.BlockStructure(dims=(1, 1), m=1),
            H=np.diag(_arr(0.0, 1.0)), g=_arr(e, 0.0), A=np.array([[0.0, 1.0]]), b=_arr(1.0),
        )
        cfg = cs.SolverConfig(variant="admm_cyclic_n")
        if bounded:
            solvers._Workspace(inst, cfg, min_norm=True)
        else:
            with pytest.raises(UsageError, match="^block 0 subproblem is unbounded below$"):
                solvers._Workspace(inst, cfg, min_norm=True)


# -- the per-block oracles ---------------------------------------------------


def test_box_edge_tolerance():
    """A box coordinate within BOX_EDGE_TOL * (1 + max(|lo|, |hi|)) below lo
    sits on the face: it has a subdifferential and value 0. Past it the point
    is outside the box."""
    f = cs.ProxFn.box(1.0, 3.0)
    edge = BOX_EDGE_TOL * (1.0 + 3.0)
    for factor, inside in ((0.5, True), (2.0, False)):
        x = _arr(1.0 - factor * edge)
        if inside:
            assert np.isfinite(subdiff_distance(f, x, _arr(-1.0)))
            assert fn_value(f, x) == 0.0
        else:
            with pytest.raises(DomainError, match="^point lies outside the box$"):
                subdiff_distance(f, x, _arr(-1.0))
            assert fn_value(f, x) == np.inf


def test_oracle_residual_tolerance():
    """The KKT oracle accepts a least-squares stationarity residual up to
    ORACLE_RESIDUAL_RTOL * (1 + |g| + |b|). Two rows asking x = 0 and x = t
    leave the residual t / sqrt(2)."""
    for factor, consistent in ((0.5, True), (2.0, False)):
        rtol = factor * ORACLE_RESIDUAL_RTOL
        t = rtol / (2.0**-0.5 - rtol)
        inst = cs.ProblemInstance(
            blocks=cs.BlockStructure(dims=(1,), m=2), H=np.zeros((1, 1)), g=np.zeros(1),
            A=np.array([[1.0], [1.0]]), b=_arr(0.0, t),
        )
        if consistent:
            assert cs.solve_kkt_oracle(inst).x[0] == pytest.approx(t / 2.0)
        else:
            with pytest.raises(InfeasibleError, match="^stationarity system inconsistent"):
                cs.solve_kkt_oracle(inst)
