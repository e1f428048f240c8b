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

from ._linalg import ORACLE_RESIDUAL_RTOL, block_diag, point_vector, require_symmetric_psd, singular_direction, symmetry_defect
from .errors import (
    InfeasibleError,
    StructuralError,
    UnsupportedOracleError,
    UsageError,
)
from .prox import ProxFn, _check_finite, fn_value, prox_fn_from_dict, prox_fn_to_dict, subdiff_distance

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

    def curvature(self, beta: float) -> np.ndarray:
        """S = H + beta A'A, the curvature of the augmented Lagrangian at
        penalty beta."""
        return self.H + beta * (self.A.T @ self.A)

    def block_curvature(self, i: int, beta: float) -> np.ndarray:
        """H_ii + beta A_i'A_i, the curvature of block i's sweep subproblem
        at penalty beta."""
        Ai = self.A_block(i)
        return self.H_block(i, i) + beta * (Ai.T @ Ai)

    def require_two_blocks(self, what: str) -> None:
        """Reject an instance without exactly two blocks from `what`."""
        if self.blocks.n != 2:
            raise UsageError(f"{what} needs exactly two blocks")

    def require_zero_terms(self, what: str) -> None:
        """Reject an instance with a nonzero separable term from `what`, which
        is defined only for the purely quadratic model."""
        if any(f.kind != "zero" for f in self.theta):
            raise UsageError(f"{what} is defined only when every separable term is zero")

    def check_point(self, point, name: str) -> tuple:
        """point.x and point.mu through _linalg.point_vector, named name.x and name.mu."""
        return (point_vector(point.x, self.blocks.d, f"{name}.x"),
                point_vector(point.mu, self.blocks.m, f"{name}.mu"))

    def smooth_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.H @ x + self.g

    def objective(self, x: np.ndarray) -> float:
        """Full objective value; nan when some term cannot be evaluated."""
        x = np.asarray(x, dtype=float)
        total = 0.5 * float(x.dot(self.H.dot(x))) + float(self.g.dot(x))
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
    (non-finite data, data whose products A'A or A'b overflow,
    asymmetric H, indefinite H, malformed term parameters);
    returns a report of the measured quantities otherwise. Never mutates the
    input."""
    for name in ("H", "g", "A", "b"):
        if not np.all(np.isfinite(getattr(inst, name))):
            raise StructuralError(f"{name} has a non-finite entry")
    # the solvers and certificates form these products; where one
    # overflows, their subproblem matrices are meaningless
    with np.errstate(over="ignore", invalid="ignore"):
        products = (
            ("A", "A'A", inst.A.T @ inst.A),
            ("A, b", "A'b", inst.A.T @ inst.b),
        )
    for name, label, product in products:
        if not np.all(np.isfinite(product)):
            raise StructuralError(f"{name}: entries too large, {label} overflows")
    min_eig = require_symmetric_psd(inst.H, "H")
    for i in range(inst.blocks.n):
        try:
            inst.theta[i].validate(inst.blocks.dims[i])
        except StructuralError as exc:
            raise StructuralError(f"theta[{i}]: {exc}") from exc
    return ValidationReport(
        h_symmetry_defect=symmetry_defect(inst.H),
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
) -> ConditionReport:
    """Check the block-diagonal curvature matrix that makes every sweep
    subproblem uniquely solvable.

    mode "two_block_full": blockdiag over i of
        H_ii + Sigma_i + A_i'A_i + R_i, two blocks required. Sigma_i is P
        for a quadratic term, whose block solve adds it, and the declared
        sigma (zero when absent) for the others.
    mode "nblock_qp": blockdiag of H_ii + A_i'A_i, all terms must be zero.

    Both conditions are invariant to the penalty weight, so none appears here.
    A block's matrix fails when _linalg.singular_sym calls it singular. The
    report gives the smallest eigenvalue of a failing block, or of all blocks
    when none fails, and when violated carries that block's unit null witness
    embedded in the full primal space.
    """
    if mode not in CONDITION_MODES:
        raise UsageError(f"unknown mode {mode!r}; expected one of {CONDITION_MODES}")
    if mode == "two_block_full":
        inst.require_two_blocks("mode two_block_full")
    else:
        inst.require_zero_terms("mode nblock_qp")
    return _uniqueness_condition(inst, normalize_block_matrices(inst, R), mode)


def _uniqueness_condition(inst: ProblemInstance, R_mats, mode: str) -> ConditionReport:
    """check_uniqueness_condition on per-block matrices R_mats taken as given,
    which may be indefinite."""
    blocks = []
    for i in range(inst.blocks.n):
        T = inst.block_curvature(i, 1.0)
        if mode == "two_block_full":
            f = inst.theta[i]
            T = T + (f.params["P"] if f.kind == "quadratic" else inst.sigma_block(i)) + R_mats[i]
        blocks.append((*singular_direction(T), i))
    # failing blocks first, then by smallest eigenvalue
    singular, lam, v, i_min = min(blocks, key=lambda t: (not t[0], t[1]))
    satisfied = not singular
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
    matrix checked for finiteness, shape, symmetry, and positive
    semidefiniteness."""
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
        _check_finite(f"R[{i}]", entry)
        if entry.ndim == 0:
            entry = float(entry) * np.eye(d_i)
        if entry.shape != (d_i, d_i):
            raise StructuralError(f"R[{i}] has shape {entry.shape}, expected ({d_i}, {d_i})")
        require_symmetric_psd(entry, f"R[{i}]")
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
    x, mu = inst.check_point(point, "point")
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


# what decoding a malformed document raises before a check can name the field;
# a term the catalog rejects (a negative l1 weight, an unknown kind) raises
# UsageError, and it too is invalid input rather than a misuse of the API
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError, UsageError)


def instance_from_dict(doc: dict) -> ProblemInstance:
    """Instance from its document; a malformed field or term raises
    StructuralError naming it."""
    if not isinstance(doc, dict):
        raise StructuralError("instance document must be a JSON object")
    for key in ("blocks", "H", "g", "A", "b", "theta"):
        if key not in doc:
            raise StructuralError(f"instance document missing field {key!r}")
    field = "blocks"
    try:
        dims = tuple(int(v) for v in doc["blocks"])
        arrays = {}
        for field in ("H", "g", "A", "b"):
            arrays[field] = np.asarray(doc[field], dtype=float)
        field = "theta"
        theta = []
        for i, term in enumerate(doc["theta"]):
            field = f"theta[{i}]"
            theta.append(prox_fn_from_dict(term))
        # construction reshapes A to m rows, the one step left that can fail
        field = "A"
        b = np.atleast_1d(arrays.pop("b"))
        blocks = BlockStructure(dims=dims, m=int(b.shape[0]))
        return ProblemInstance(blocks=blocks, b=b, theta=theta, **arrays)
    except _DECODE_ERRORS as exc:
        detail = f"missing parameter {exc}" if isinstance(exc, KeyError) else str(exc)
        raise StructuralError(f"{field}: {detail}") from exc


def save_instance(inst: ProblemInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise StructuralError(f"instance file is not UTF-8 text: {exc}") from exc
        except ValueError as exc:
            raise StructuralError(f"instance file is not valid JSON: {exc}") from exc
    inst = instance_from_dict(doc)
    validate_instance(inst)
    return inst
