"""Spectral certification of the splitting dynamics.

For instances whose separable terms vanish, one sweep in a fixed block order
is an affine map. This module assembles those maps, averages them over all
block orders, and certifies the properties that make the averaged iteration
convergent: positive definiteness of the averaged inverse, the eigenvalue
band of its product with the curvature matrix, the unit-circle structure of
the averaged update, the agreement of algebraic and geometric multiplicities
of eigenvalue one via rank formulas, block-order rate comparisons for pure
coordinate descent, and explicit non-convergence witnesses when the
uniqueness condition fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from ._linalg import (
    EIG_ONE_TOL,
    GAP_FRACTION,
    IDENTITY_TOL,
    OSCILLATION_RTOL,
    QS_LOWER,
    QS_UPPER_GAP,
    RANK_RTOL,
    RATE_TIE_TOL,
    WITNESS_RTOL,
    max_abs,
    point_vector,
    psd_sqrt,
    rank_svd,
    spectral_radius,
    sym_part,
    symmetric,
)
from .errors import CertificateError, ConditionError, StructuralError, UsageError
from .model import BlockStructure, ProblemInstance, _uniqueness_condition, normalize_block_matrices
from ._averaging import averaged_update, bordered_curvature, check_sweep_blocks
from .solvers import (
    IterateState,
    SolverConfig,
    Trace,
    _Workspace,
    _write_artifact,
    check_beta,
    check_integer,
    check_order,
)


@dataclass
class PermMatrices:
    """The affine pieces of one sweep in the order sigma."""

    sigma: tuple
    L_sigma: np.ndarray
    R_sigma: np.ndarray
    Lbar: np.ndarray
    Rbar: np.ndarray
    M_sigma: np.ndarray


def _order_stacks(inst: ProblemInstance, beta: float, S: np.ndarray, orders: np.ndarray):
    """Sweep pieces for a stack of k block orders (rows of `orders`): the
    ordered curvature factors L (k, d, d), the bordered factors Lbar and
    complements Rbar (k, d+m, d+m), and the one-step updates M = Lbar^-1 Rbar.
    Coordinate j belongs to block blk[j]; L keeps S[j, l] when the block of j
    comes no earlier in the order than the block of l."""
    d, m = inst.blocks.d, inst.blocks.m
    k = orders.shape[0]
    blk = np.repeat(np.arange(inst.blocks.n), inst.blocks.dims)
    pe = np.argsort(orders, axis=1)[:, blk]
    L = np.where(pe[:, :, None] >= pe[:, None, :], S, 0.0)
    A = inst.A
    Lbar = np.zeros((k, d + m, d + m))
    Lbar[:, :d, :d] = L
    Lbar[:, d:, :d] = beta * A
    Lbar[:, d:, d:] = np.eye(m)
    Rbar = np.zeros((k, d + m, d + m))
    Rbar[:, :d, :d] = L - S
    Rbar[:, :d, d:] = A.T
    Rbar[:, d:, d:] = np.eye(m)
    M = np.linalg.solve(Lbar, Rbar)
    # one refinement pass keeps the forward error near machine precision
    # even when the sweep factor is poorly conditioned
    M += np.linalg.solve(Lbar, Rbar - Lbar @ M)
    return L, Lbar, Rbar, M


def build_perm_matrices(inst: ProblemInstance, beta: float, sigma) -> PermMatrices:
    """Assemble the block-triangular sweep matrix for the order sigma, its
    complement, and the full one-step update including the multiplier row."""
    check_beta(beta)
    sigma = check_order(sigma, inst.blocks.n)
    check_sweep_blocks(inst, beta)
    S = inst.curvature(beta)
    L, Lbar, Rbar, M = (a[0] for a in _order_stacks(inst, beta, S, np.array([sigma])))
    d = inst.blocks.d
    return PermMatrices(sigma=sigma, L_sigma=L, R_sigma=Rbar[:d, :d], Lbar=Lbar, Rbar=Rbar, M_sigma=M)


@dataclass
class SpectralReport:
    """Averaged-update data and certification verdicts for one instance."""

    beta: float
    n: int
    d: int
    m: int
    Q: np.ndarray
    M: np.ndarray
    eig_QS: np.ndarray
    eig_M: np.ndarray
    q_min_eig: float
    consistency_defect: float
    rank_S: int
    rank_penalized_gram: int
    rank_stationarity_block: int
    am_one: int
    gm_one: int
    eig_one_count: int
    rho_M: float
    verdicts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "n": self.n,
            "d": self.d,
            "m": self.m,
            "Q": self.Q.tolist(),
            "M": self.M.tolist(),
            "eig_QS": self.eig_QS.tolist(),
            "eig_M": np.stack([self.eig_M.real, self.eig_M.imag], axis=1).tolist(),
            "q_min_eig": self.q_min_eig,
            "consistency_defect": self.consistency_defect,
            "ranks": {
                "S": self.rank_S,
                "penalized_gram": self.rank_penalized_gram,
                "stationarity_block": self.rank_stationarity_block,
            },
            "am_one": self.am_one,
            "gm_one": self.gm_one,
            "eig_one_count": self.eig_one_count,
            "rho_M": self.rho_M,
            "verdicts": dict(self.verdicts),
        }


def _json_text(doc, nl: str = "\n") -> str:
    """json.dumps(doc, indent=2), byte for byte, without json's pure-Python
    indenting encoder; nl is a newline and the indent of doc's level. A list
    of floats that all print finite is one join of their float.__repr__, as
    json prints each; other values take json's type tests in json's order,
    and json prints NaN and infinities. A key that is not a string raises
    TypeError, where json would convert it."""
    if isinstance(doc, (list, tuple)) and doc:
        inner = nl + "  "
        try:
            row = f",{inner}".join(map(float.__repr__, doc))
        except TypeError:  # an item that is not a float
            row = None
        if row is None or "n" in row:  # nan and inf print as NaN and Infinity
            row = f",{inner}".join([_json_text(v, inner) for v in doc])
        return f"[{inner}{row}{nl}]"
    if isinstance(doc, dict) and doc:
        inner = nl + "  "
        items = f",{inner}".join([f"{_json_str(k)}: {_json_text(v, inner)}" for k, v in doc.items()])
        return f"{{{inner}{items}{nl}}}"
    if isinstance(doc, str):
        return _json_str(doc)
    if doc is None or isinstance(doc, bool):  # before int, of which bool is a subclass
        return "null" if doc is None else "true" if doc else "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, float) and math.isfinite(doc):
        return float.__repr__(doc)
    return json.dumps(doc)  # NaN, Infinity, or json's TypeError


def save_report(report: SpectralReport, path) -> None:
    """Write report.to_dict() as json.dumps(..., indent=2) writes it, plus a
    newline: Q, M and the spectra print as every float's repr."""
    _write_artifact(path, _json_text(report.to_dict()) + "\n")


def build_Q_M(inst: ProblemInstance, beta: float) -> SpectralReport:
    """Average the sweep update over all block orders and analyze it.

    Q is the averaged inverse of the ordered curvature factor, built by a DP
    over block paths; M is the full averaged one-step update, assembled in
    closed form from Q and verified to CONSISTENCY_RTOL against the direct
    average of the per-order updates from an independent first-block
    recursion.
    """
    n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
    update = averaged_update(inst, beta)
    S, Q, M, A = update.S, update.Q, update.M, inst.A

    q_eigs = np.linalg.eigvalsh(sym_part(Q))
    q_min = float(q_eigs[0])
    if q_min > 0:
        root = psd_sqrt(Q)
        eig_QS = np.sort(np.linalg.eigvalsh(root @ S @ root))
    else:
        vals = np.linalg.eigvals(Q @ S)
        eig_QS = np.sort(vals.real)

    eig_M = np.linalg.eigvals(M)
    rank_gram = rank_svd(beta * (A.T @ A))
    rank_S = rank_svd(S)
    rank_kkt = rank_svd(update.Sbar)
    am_one = m + d - rank_gram - rank_S
    gm_one = m + d - rank_kkt
    if am_one < gm_one:
        # an eigenvalue's algebraic multiplicity is never below its geometric
        # one, so a thresholded rank is wrong
        raise CertificateError(
            f"rank formulas give am_one={am_one} below gm_one={gm_one}: the ranks are not "
            f"resolved at {RANK_RTOL:g} of each balanced matrix's largest singular value"
        )
    eig_one_count = int(np.sum(np.abs(eig_M - 1.0) <= EIG_ONE_TOL))

    return SpectralReport(
        beta=float(beta),
        n=n,
        d=d,
        m=m,
        Q=Q,
        M=M,
        eig_QS=eig_QS,
        eig_M=eig_M,
        q_min_eig=q_min,
        consistency_defect=update.consistency,
        rank_S=rank_S,
        rank_penalized_gram=rank_gram,
        rank_stationarity_block=rank_kkt,
        am_one=am_one,
        gm_one=gm_one,
        eig_one_count=eig_one_count,
        rho_M=float(np.max(np.abs(eig_M))) if eig_M.size else 0.0,
    )


def check_eig_QS(report: SpectralReport) -> bool:
    """True when the averaged inverse is positive definite and every
    eigenvalue of its product with the curvature matrix lies in
    [QS_LOWER, 4/3 - QS_UPPER_GAP). Stored under verdict key 'lemma_3_1'."""
    q_ok = report.q_min_eig > 0.0
    lo = QS_LOWER
    hi = 4.0 / 3.0 - QS_UPPER_GAP
    band_ok = bool(np.all(report.eig_QS >= lo) and np.all(report.eig_QS < hi))
    verdict = bool(q_ok and band_ok)
    report.verdicts["lemma_3_1"] = verdict
    return verdict


def check_M_spectrum(report: SpectralReport) -> tuple:
    """Certify the averaged update's spectrum.

    First verdict ('lemma_3_4'): every eigenvalue is either within
    EIG_ONE_TOL of one or has modulus below 1 - EIG_ONE_TOL; indeterminate
    values fail. Second verdict ('lemma_3_5'): the rank formulas for the
    algebraic and geometric multiplicity of eigenvalue one agree. A third
    stored verdict ('am_matches_spectrum') requires the count of unit
    eigenvalues to equal the rank-formula multiplicity.
    """
    on_circle = np.abs(report.eig_M - 1.0) <= EIG_ONE_TOL
    inside = np.abs(report.eig_M) < 1.0 - EIG_ONE_TOL
    structure_ok = bool(np.all(on_circle | inside))
    mult_ok = report.am_one == report.gm_one
    report.verdicts["lemma_3_4"] = structure_ok
    report.verdicts["lemma_3_5"] = bool(mult_ok)
    report.verdicts["am_matches_spectrum"] = bool(report.eig_one_count == report.am_one)
    return structure_ok, bool(mult_ok)


def rank_identity_check(inst: ProblemInstance, beta: float) -> bool:
    """True when the bordered curvature block has rank equal to
    rank(S) + rank(beta A'A), with SVD-thresholded ranks. analyze_instance
    reads the same verdict off the ranks build_Q_M counted; this builds and
    ranks the three matrices itself."""
    check_beta(beta)
    S = inst.curvature(beta)
    A = inst.A
    return rank_svd(bordered_curvature(S, A, beta)) == rank_svd(S) + rank_svd(beta * (A.T @ A))


def analyze_instance(inst: ProblemInstance, beta: float) -> SpectralReport:
    """Full certification: averaged update, eigenvalue band, spectrum
    structure, multiplicity identity, rank identity, and (for two-block
    instances with positive definite diagonal curvature) the block-order
    rate comparison."""
    report = build_Q_M(inst, beta)
    check_eig_QS(report)
    check_M_spectrum(report)
    report.verdicts["lemma_3_3"] = report.rank_stationarity_block == report.rank_S + report.rank_penalized_gram
    prop = None
    if inst.blocks.n == 2:
        d1 = inst.blocks.dims[0]
        try:
            cmp = bcd_rate_matrices(inst.H, d1)
        except ConditionError:
            cmp = None
        if cmp is not None:
            prop = bool(
                abs(cmp.rho1 - cmp.rho2) <= RATE_TIE_TOL and cmp.rho3 >= cmp.rho1 - RATE_TIE_TOL
            )
    report.verdicts["prop_3_1"] = prop
    return report


# -- block-order rate comparison -------------------------------------------


@dataclass
class BcdRateComparison:
    """One-sweep update matrices of two-block coordinate descent under the
    two orders and their average, with spectral radii. The closed-form radius
    of the averaged update is attached when both diagonal blocks are the
    identity."""

    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    rho1: float
    rho2: float
    rho3: float
    sigma1: float | None = None
    rho3_closed_form: float | None = None


def bcd_rate_matrices(H, d1: int) -> BcdRateComparison:
    """Update matrices for unconstrained two-block coordinate descent on a
    coupled quadratic: one per sweep order plus their average. The two are
    the sweep maps of the solver engine (variant bcd on the instance without
    constraint rows), so a singular diagonal block raises its
    ConditionError."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise StructuralError("H must be square")
    if not symmetric(H):
        raise StructuralError("H is not symmetric")
    d1 = check_integer(d1, "the split d1", 1)
    d = H.shape[0]
    if not d1 < d:
        raise UsageError("the split must leave both blocks nonempty")
    d2 = d - d1
    inst = ProblemInstance(blocks=BlockStructure(dims=(d1, d2), m=0), H=H, g=np.zeros(d), A=None, b=None)
    ws = _Workspace(inst, SolverConfig(variant="bcd"))
    M1, M2 = ws.sweep_map((0, 1))[0], ws.sweep_map((1, 0))[0]
    H11, H12, H22 = H[:d1, :d1], H[:d1, d1:], H[d1:, d1:]
    M3 = 0.5 * (M1 + M2)
    sigma1 = None
    rho3_closed = None
    if max_abs(H11 - np.eye(d1)) <= IDENTITY_TOL and max_abs(H22 - np.eye(d2)) <= IDENTITY_TOL:
        sigma1 = float(np.linalg.eigvalsh(H12.T @ H12)[-1])
        rho3_closed = 0.5 * (sigma1 + math.sqrt(sigma1))
    return BcdRateComparison(
        M1=M1,
        M2=M2,
        M3=M3,
        rho1=spectral_radius(M1),
        rho2=spectral_radius(M2),
        rho3=spectral_radius(M3),
        sigma1=sigma1,
        rho3_closed_form=rho3_closed,
    )


# -- non-convergence witness ------------------------------------------------


@dataclass
class WitnessCertificate:
    """A unit direction annihilated by every curvature piece of a two-block
    instance, certifying that sweep subproblems are not uniquely solvable and
    that bounded non-convergent trajectories exist."""

    ybar: np.ndarray
    min_eigenvalue: float
    beta: float
    checks: dict

    def to_dict(self) -> dict:
        return {
            "ybar": self.ybar.tolist(),
            "min_eigenvalue": self.min_eigenvalue,
            "beta": self.beta,
            "checks": dict(self.checks),
        }


def _verified_witness(inst: ProblemInstance, R_mats, y: np.ndarray, failure: str) -> dict:
    """Largest image of the unit direction y under every curvature piece of a
    two-block instance; raises CertificateError, led by `failure`, when one
    exceeds WITNESS_RTOL of the data scale."""
    sl1 = inst.blocks.slice_of(0)
    sl2 = inst.blocks.slice_of(1)
    y1, y2 = y[sl1], y[sl2]
    H12 = inst.H_block(0, 1)
    checks = {
        "coupling_full": float(np.max(np.abs(inst.H @ y), initial=0.0)),
        "constraint_block_1": float(np.max(np.abs(inst.A_block(0) @ y1), initial=0.0)),
        "constraint_block_2": float(np.max(np.abs(inst.A_block(1) @ y2), initial=0.0)),
        "proximal_block_1": float(np.max(np.abs(R_mats[0] @ y1), initial=0.0)),
        "proximal_block_2": float(np.max(np.abs(R_mats[1] @ y2), initial=0.0)),
        "cross_block_12": float(np.max(np.abs(H12 @ y2), initial=0.0)),
        "cross_block_21": float(np.max(np.abs(H12.T @ y1), initial=0.0)),
    }
    scale = 1.0 + max(max_abs(inst.H), max_abs(inst.A), *[max_abs(Rm) for Rm in R_mats])
    bad = {k: v for k, v in checks.items() if v > WITNESS_RTOL * scale}
    if bad:
        raise CertificateError(f"{failure}: {bad}")
    return checks


def divergence_witness(inst: ProblemInstance, beta: float, R=None) -> WitnessCertificate | None:
    """The null direction of the two-block uniqueness condition
    (check_uniqueness_condition, mode "two_block_full"), when it fails,
    verified to be annihilated by every individual curvature piece. Every
    separable term must be zero; the condition does not depend on beta.

    Returns None when the condition holds, so exactly when a two-block run
    with the same R may proceed. A found witness whose verification fails
    raises CertificateError.
    """
    inst.require_two_blocks("the witness construction")
    inst.require_zero_terms("the witness construction")
    check_beta(beta)
    R_mats = normalize_block_matrices(inst, R)
    cond = _uniqueness_condition(inst, R_mats, "two_block_full")
    if cond.satisfied:
        return None
    checks = _verified_witness(inst, R_mats, cond.witness, "witness verification failed")
    return WitnessCertificate(ybar=cond.witness, min_eigenvalue=cond.min_eigenvalue, beta=float(beta), checks=checks)


@dataclass
class OscillationResult:
    baseline: Trace
    perturbed: Trace
    max_optimality_defect: float
    gap_persists: bool


def oscillation_demo(
    inst: ProblemInstance,
    cfg: SolverConfig,
    ybar,
    k_max: int,
    x0=None,
    mu0=None,
) -> OscillationResult:
    """Two trajectories from the same start: the sweep iteration with
    minimum-norm subproblem solutions, and the same trajectory with the
    witness direction added at every even step. Both are verified to satisfy
    every subproblem optimality condition, so both are legitimate runs of the
    method; the perturbed one keeps a persistent gap and never converges.

    The baseline is k_max cyclic sweeps of the solver engine (variant
    admm_cyclic_n with cfg's beta, gamma and R) whose blocks take the
    minimum-norm solution of their subproblem; cfg's variant is replaced,
    so it is neither read nor checked. Separable terms must all be zero (the
    construction is for the purely quadratic case)."""
    inst.require_two_blocks("the oscillation construction")
    inst.require_zero_terms("the oscillation construction")
    ws = _Workspace(inst, dataclasses.replace(cfg, variant="admm_cyclic_n"), min_norm=True)
    k_max = check_integer(k_max, "k_max", 2)
    d = inst.blocks.d
    y = point_vector(ybar, d, "ybar")
    ynorm = float(np.linalg.norm(y))
    if ynorm > 0:
        _verified_witness(inst, ws.R_eff, y / ynorm, "ybar is not a valid witness")

    start = IterateState.start(inst, x0, mu0)
    Z = np.empty((k_max + 1, d + inst.blocks.m))
    Z[0, :d], Z[0, d:] = start.x, start.mu
    ws.order_sweep((0, 1))(Z)

    # the perturbed trajectory adds the witness at every even generated step
    # (and 0.0 elsewhere, which turns a -0.0 into 0.0)
    k = np.arange(len(Z))[:, None]
    Z_p = Z.copy()
    Z_p[:, :d] += np.where((k % 2 == 0) & (k >= 2), y, 0.0)
    xs_p, mus_p = Z_p[:, :d], Z_p[:, d:]

    defect = _recheck_steps(inst, ws.R_eff, cfg.beta, cfg.gamma, xs_p, mus_p)
    scale = 1.0 + max(float(np.max(np.abs(np.asarray(xs_p)))), float(np.max(np.abs(np.asarray(mus_p)))) if inst.blocks.m else 0.0)
    if defect > OSCILLATION_RTOL * scale:
        raise CertificateError(
            f"perturbed trajectory fails the optimality recheck: defect {defect:.3e}"
        )

    baseline = _trace_from_path(ws, Z)
    perturbed = _trace_from_path(ws, Z_p)
    gap = False
    if ynorm > 0:
        tail = range(max(1, len(xs_p) - max(2, len(xs_p) // 4)), len(xs_p))
        gap = all(
            float(np.linalg.norm(np.asarray(xs_p[k]) - np.asarray(xs_p[k - 1]))) >= GAP_FRACTION * ynorm
            for k in tail
        )
    return OscillationResult(
        baseline=baseline, perturbed=perturbed, max_optimality_defect=defect, gap_persists=gap
    )


def _recheck_steps(inst, R_mats, beta, gamma, xs, mus) -> float:
    """Largest stationarity or multiplier-update defect over every step of a
    trajectory, treating each point as the output of one sweep from its
    predecessor."""
    worst = 0.0
    for k in range(len(xs) - 1):
        x_old, x_new = xs[k], xs[k + 1]
        mu_old, mu_new = mus[k], mus[k + 1]
        mixed = x_old.copy()
        for i in range(inst.blocks.n):
            sl = inst.blocks.slice_of(i)
            mixed[sl] = x_new[sl]
            Ai = inst.A_block(i)
            grad = (
                inst.H[sl] @ mixed
                + inst.g[sl]
                - Ai.T @ mu_old
                + beta * (Ai.T @ (inst.A @ mixed - inst.b))
                + R_mats[i] @ (x_new[sl] - x_old[sl])
            )
            worst = max(worst, float(np.max(np.abs(grad), initial=0.0)))
        if inst.blocks.m:
            defect = mu_new - (mu_old - gamma * beta * (inst.A @ x_new - inst.b))
            worst = max(worst, float(np.max(np.abs(defect), initial=0.0)))
    return worst


def _trace_from_path(ws, Z) -> Trace:
    """The trace of a trajectory of points z = (x, mu), the rows of Z, each
    row observed as _drive observes a start point: with no sweep, so with no
    surrogate."""
    d = ws.d
    return Trace(ws.observe(Z, Z[:, :d]), "max_iter", Z[-1, :d].copy(), Z[-1, d:].copy(),
                 exact_residuals=ws.observer.exact)


def cyclic_update_matrix(inst: ProblemInstance, beta: float, gamma: float = 1.0):
    """One-step update matrix of the fixed-order sweep (identity order, no
    proximal weights) with dual stepsize gamma, and its spectral radius: the
    solver engine's sweep map of variant admm_cyclic_n."""
    inst.require_zero_terms("the update matrix")
    cfg = SolverConfig(variant="admm_cyclic_n", beta=beta, gamma=gamma)
    M = _Workspace(inst, cfg).sweep_map(tuple(range(inst.blocks.n)))[0]
    return M, spectral_radius(M)
