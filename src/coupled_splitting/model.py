"""Problem data model: block structure, instances, stationarity oracle.

The problem family is

    minimize    sum_i f_i(x_i) + (1/2) x'Hx + g'x
    subject to  sum_i A_i x_i = b

with H symmetric positive semidefinite and each separable f_i drawn from
the prox catalog. A point (x, mu) is stationary when every block satisfies
-(Hx + g)_i + A_i' mu in subdiff f_i(x_i) and the constraint holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    block_diag,
    max_abs,
    quad_form,
    symmetry_defect,
    unit_min_eigvec,
)
from .errors import (
    InfeasibleError,
    StructuralError,
    UnsupportedOracleError,
    UsageError,
)
from .prox import ProxFn, fn_value, prox_fn_from_dict, prox_fn_to_dict, subdiff_distance

H_SYMMETRY_RTOL = 1e-12
H_PSD_RTOL = 1e-10
UNIQUENESS_TOL = 1e-10
ORACLE_RESIDUAL_RTOL = 1e-10

CONDITION_MODES = ("two_block_full", "nblock_qp")


@dataclass(frozen=True)
class BlockStructure:
    """Partition of the primal vector into consecutive blocks, plus the
    constraint row count."""

    dims: tuple
    m: int

    def __post_init__(self):
        dims = tuple(int(v) for v in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "m", int(self.m))
        if len(dims) < 1:
            raise StructuralError("blocks: need at least one block")
        if any(v < 1 for v in dims):
            raise StructuralError("blocks: every block dimension must be >= 1")
        if self.m < 0:
            raise StructuralError("blocks: constraint row count must be >= 0")

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def d(self) -> int:
        return sum(self.dims)

    @property
    def offsets(self) -> tuple:
        out, at = [], 0
        for v in self.dims:
            out.append(at)
            at += v
        return tuple(out)

    def slice_of(self, i: int) -> slice:
        off = self.offsets[i]
        return slice(off, off + self.dims[i])

    def split(self, v: np.ndarray) -> list:
        return [np.asarray(v)[self.slice_of(i)] for i in range(self.n)]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Immutable problem data. Shapes are enforced at construction; numeric
    properties of H (symmetry, semidefiniteness) are checked by
    validate_instance so that malformed data can still be inspected."""

    blocks: BlockStructure
    H: np.ndarray
    g: np.ndarray
    A: np.ndarray
    b: np.ndarray
    theta: tuple = None

    def __post_init__(self):
        d, m, n = self.blocks.d, self.blocks.m, self.blocks.n
        H = np.array(self.H, dtype=float)
        g = np.atleast_1d(np.array(self.g, dtype=float))
        A = np.array(self.A, dtype=float).reshape(m, -1) if m else np.zeros((0, d))
        b = np.atleast_1d(np.array(self.b, dtype=float)) if m else np.zeros(0)
        if H.shape != (d, d):
            raise StructuralError(f"H has shape {H.shape}, expected ({d}, {d})")
        if g.shape != (d,):
            raise StructuralError(f"g has shape {g.shape}, expected ({d},)")
        if A.shape != (m, d):
            raise StructuralError(f"A has shape {A.shape}, expected ({m}, {d})")
        if b.shape != (m,):
            raise StructuralError(f"b has shape {b.shape}, expected ({m},)")
        theta = self.theta
        if theta is None:
            theta = tuple(ProxFn.zero() for _ in range(n))
        theta = tuple(theta)
        if len(theta) != n:
            raise StructuralError(f"theta has {len(theta)} entries, expected {n}")
        for a in (H, g, A, b):
            a.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "theta", theta)

    # -- block accessors ------------------------------------------------

    def A_block(self, i: int) -> np.ndarray:
        return self.A[:, self.blocks.slice_of(i)]

    def H_block(self, i: int, j: int) -> np.ndarray:
        return self.H[self.blocks.slice_of(i), self.blocks.slice_of(j)]

    def sigma_block(self, i: int) -> np.ndarray:
        return self.theta[i].sigma_matrix(self.blocks.dims[i])

    def sigma_full(self) -> np.ndarray:
        return block_diag([self.sigma_block(i) for i in range(self.blocks.n)])

    def smooth_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.H @ x + self.g

    def objective(self, x: np.ndarray, Hx: np.ndarray | None = None) -> float:
        """Full objective value; nan when some term cannot be evaluated.
        Hx, when given, is the precomputed product H @ x."""
        x = np.asarray(x, dtype=float)
        if Hx is None:
            Hx = self.H.dot(x)
        total = 0.5 * float(x.dot(Hx)) + float(self.g.dot(x))
        for i, f in enumerate(self.theta):
            if f.kind != "zero":
                total += fn_value(f, x[self.blocks.slice_of(i)])
        return total


@dataclass(frozen=True)
class ValidationReport:
    h_symmetry_defect: float
    h_min_eigenvalue: float
    partition_ok: bool


def validate_instance(inst: ProblemInstance) -> ValidationReport:
    """Full structural validation. Raises StructuralError on hard violations
    (non-finite data, asymmetric H, indefinite H, malformed term parameters);
    returns a report of the measured quantities otherwise. Never mutates the
    input."""
    for name in ("H", "g", "A", "b"):
        if not np.all(np.isfinite(getattr(inst, name))):
            raise StructuralError(f"{name} has a non-finite entry")
    d = inst.blocks.d
    defect = symmetry_defect(inst.H)
    if defect > H_SYMMETRY_RTOL * max(1.0, max_abs(inst.H)):
        raise StructuralError("H not symmetric")
    w = np.linalg.eigvalsh(0.5 * (inst.H + inst.H.T)) if d else np.zeros(0)
    min_eig = float(w[0]) if d else 0.0
    h_norm = float(np.max(np.abs(w))) if d else 0.0
    if min_eig < -H_PSD_RTOL * max(1.0, h_norm):
        raise StructuralError("H not positive semidefinite")
    for i in range(inst.blocks.n):
        try:
            inst.theta[i].validate(inst.blocks.dims[i])
        except StructuralError as exc:
            raise StructuralError(f"theta[{i}]: {exc}") from exc
    return ValidationReport(
        h_symmetry_defect=defect,
        h_min_eigenvalue=min_eig,
        partition_ok=True,
    )


@dataclass(frozen=True)
class ConditionReport:
    satisfied: bool
    min_eigenvalue: float
    matrix_checked: str
    witness: np.ndarray | None = None


def check_uniqueness_condition(
    inst: ProblemInstance,
    R=None,
    mode: str = "two_block_full",
    tolerance: float = UNIQUENESS_TOL,
) -> ConditionReport:
    """Check the block-diagonal curvature matrix that makes every sweep
    subproblem uniquely solvable.

    mode "two_block_full": blockdiag over i of
        H_ii + Sigma_i + A_i'A_i + R_i, two blocks required.
    mode "nblock_qp": blockdiag of H_ii + A_i'A_i, all terms must be zero.

    Both conditions are invariant to the penalty weight, so none appears here.
    When violated, the report carries a unit null witness embedded in the full
    primal space.
    """
    n = inst.blocks.n
    if mode not in CONDITION_MODES:
        raise UsageError(f"unknown mode {mode!r}; expected one of {CONDITION_MODES}")
    if mode == "two_block_full" and n != 2:
        raise UsageError("mode two_block_full needs exactly two blocks")
    if mode == "nblock_qp" and any(f.kind != "zero" for f in inst.theta):
        raise UsageError("mode nblock_qp applies only when every separable term is zero")
    R_mats = normalize_block_matrices(inst, R)
    best = (np.inf, None, None)
    for i in range(n):
        Ai = inst.A_block(i)
        T = inst.H_block(i, i) + Ai.T @ Ai
        if mode == "two_block_full":
            T = T + inst.sigma_block(i) + R_mats[i]
        lam, v = unit_min_eigvec(T)
        if lam < best[0]:
            best = (lam, i, v)
    lam, i_min, v = best
    satisfied = lam > tolerance
    witness = None
    if not satisfied:
        witness = np.zeros(inst.blocks.d)
        witness[inst.blocks.slice_of(i_min)] = v
    return ConditionReport(
        satisfied=bool(satisfied),
        min_eigenvalue=float(lam),
        matrix_checked=mode,
        witness=witness,
    )


def normalize_block_matrices(inst: ProblemInstance, R) -> list:
    """Per-block proximal weights: None -> zeros, scalar -> scaled identity,
    matrix checked for shape, symmetry, and positive semidefiniteness."""
    from ._linalg import psd_check

    n = inst.blocks.n
    if R is None:
        return [np.zeros((d_i, d_i)) for d_i in inst.blocks.dims]
    if len(R) != n:
        raise StructuralError(f"R has {len(R)} entries, expected {n}")
    out = []
    for i, entry in enumerate(R):
        d_i = inst.blocks.dims[i]
        if entry is None:
            out.append(np.zeros((d_i, d_i)))
            continue
        entry = np.asarray(entry, dtype=float)
        if entry.ndim == 0:
            entry = float(entry) * np.eye(d_i)
        if entry.shape != (d_i, d_i):
            raise StructuralError(f"R[{i}] has shape {entry.shape}, expected ({d_i}, {d_i})")
        if symmetry_defect(entry) > 1e-12 * max(1.0, max_abs(entry)):
            raise StructuralError(f"R[{i}] is not symmetric")
        if not psd_check(entry):
            raise StructuralError(f"R[{i}] is not positive semidefinite")
        out.append(entry)
    return out


@dataclass(frozen=True)
class KKTPoint:
    x: np.ndarray
    mu: np.ndarray


@dataclass(frozen=True)
class KKTResidual:
    """Per-block dual stationarity violations plus primal feasibility.
    exact=False marks values built from the solver's surrogate bound."""

    r_dual: np.ndarray
    r_feas: float
    exact: bool = True

    @property
    def max_component(self) -> float:
        worst = float(np.max(self.r_dual)) if self.r_dual.size else 0.0
        return max(worst, self.r_feas)

    @property
    def total_sq(self) -> float:
        return float(np.sum(self.r_dual**2) + self.r_feas**2)


def solve_kkt_oracle(inst: ProblemInstance) -> KKTPoint:
    """Stationary point of an instance whose terms are all zero or quadratic,
    via the minimum-norm solution of the linear stationarity system.

    Quadratic terms are folded into the coupling: their curvature joins H and
    their linear part joins g. Raises UnsupportedOracleError for any other
    kind and InfeasibleError when the linear system is inconsistent.
    """
    d, m = inst.blocks.d, inst.blocks.m
    H_eff = inst.H.copy()
    g_eff = inst.g.copy()
    for i in range(inst.blocks.n):
        f = inst.theta[i]
        if f.kind == "zero":
            continue
        if f.kind == "quadratic":
            sl = inst.blocks.slice_of(i)
            H_eff[sl, sl] += f.params["P"]
            g_eff[sl] += f.params["q"]
        else:
            raise UnsupportedOracleError(
                f"theta[{i}] has kind {f.kind!r}; the direct oracle handles zero and quadratic terms only"
            )
    K = np.zeros((d + m, d + m))
    K[:d, :d] = H_eff
    K[:d, d:] = -inst.A.T
    K[d:, :d] = inst.A
    rhs = np.concatenate([-g_eff, inst.b])
    z, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    resid = float(np.linalg.norm(K @ z - rhs))
    budget = ORACLE_RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(inst.g)) + float(np.linalg.norm(inst.b)))
    if resid > budget:
        raise InfeasibleError(
            f"stationarity system inconsistent: residual {resid:.3e} exceeds {budget:.3e}"
        )
    return KKTPoint(x=z[:d], mu=z[d:])


def kkt_residual(inst: ProblemInstance, point: KKTPoint) -> KKTResidual:
    """Exact stationarity violation of a point. Every term must support the
    subdifferential oracle; opaque terms raise UnsupportedOracleError (the
    solver's trace records a surrogate for those instead)."""
    x = np.asarray(point.x, dtype=float)
    mu = np.asarray(point.mu, dtype=float)
    grad = inst.smooth_gradient(x)
    r_dual = np.zeros(inst.blocks.n)
    for i in range(inst.blocks.n):
        sl = inst.blocks.slice_of(i)
        s = grad[sl] - inst.A_block(i).T @ mu
        r_dual[i] = subdiff_distance(inst.theta[i], x[sl], s)
    r_feas = float(np.linalg.norm(inst.A @ x - inst.b)) if inst.blocks.m else 0.0
    return KKTResidual(r_dual=r_dual, r_feas=r_feas, exact=True)


# -- instance documents -----------------------------------------------


def instance_to_dict(inst: ProblemInstance) -> dict:
    return {
        "blocks": list(inst.blocks.dims),
        "H": inst.H.tolist(),
        "g": inst.g.tolist(),
        "A": inst.A.tolist(),
        "b": inst.b.tolist(),
        "theta": [prox_fn_to_dict(f) for f in inst.theta],
    }


def instance_from_dict(doc: dict) -> ProblemInstance:
    for key in ("blocks", "H", "g", "A", "b", "theta"):
        if key not in doc:
            raise StructuralError(f"instance document missing field {key!r}")
    dims = tuple(int(v) for v in doc["blocks"])
    b = np.atleast_1d(np.asarray(doc["b"], dtype=float))
    blocks = BlockStructure(dims=dims, m=int(b.shape[0]))
    theta = []
    for i, term in enumerate(doc["theta"]):
        # a term the catalog rejects (a negative l1 weight, an unknown kind)
        # is invalid input, not a misuse of the API
        try:
            theta.append(prox_fn_from_dict(term))
        except UsageError as exc:
            raise StructuralError(f"theta[{i}]: {exc}") from exc
    return ProblemInstance(blocks=blocks, H=doc["H"], g=doc["g"], A=doc["A"], b=b, theta=theta)


def save_instance(inst: ProblemInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"instance file is not valid JSON: {exc}") from exc
    inst = instance_from_dict(doc)
    validate_instance(inst)
    return inst


def merit_weight_matrices(inst: ProblemInstance, beta: float, R_mats) -> dict:
    """Weight matrices used by the two-block merit function and its
    guaranteed per-step decrease."""
    if inst.blocks.n != 2:
        raise UsageError("merit weights are defined for two-block instances")
    sl2 = inst.blocks.slice_of(1)
    A2 = inst.A_block(1)
    sigma = inst.sigma_full()
    R_full = block_diag(R_mats)
    H22 = inst.H_block(1, 1)
    sigma2 = inst.sigma_block(1)
    return {
        "level": inst.H + sigma + (4.0 / 7.0) * R_full,
        "level_b2": H22 + sigma2 + beta * (A2.T @ A2),
        "drop": inst.H + sigma + 8.0 * R_full,
        "drop_b2": H22 + sigma2 + 3.0 * beta * (A2.T @ A2),
        "slice2": sl2,
        "R2": R_mats[1],
    }
