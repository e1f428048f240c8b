"""Block-splitting solvers for linearly constrained coupled programs.

One family of sweeps covers every variant: each block in turn minimizes the
augmented Lagrangian in its own coordinates, optionally damped by a proximal
weight matrix, and the multiplier moves against the residual after the sweep.
Variants differ in block order, in whether constraints exist, and in whether
the quadratic model is replaced by a single-curvature linearization.

Variants
--------
admm2             two blocks, cyclic order, proximal matrices R_i
admm2_linearized  two blocks, scalar curvatures r_i, prox after a gradient
                  half-step (equivalent to admm2 with R_i = r_i I - H_ii -
                  beta A_i'A_i)
admm_cyclic_n     n blocks, cyclic order, proximal matrices R_i
bcd               n blocks, no constraints, proximal matrices R_i
bcpg              n blocks, no constraints, scalar curvatures r_i
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import max_abs, quad_form
from .errors import (
    ConditionError,
    DomainError,
    StructuralError,
    SubproblemStructureError,
    UsageError,
)
from .model import (
    KKTPoint,
    ProblemInstance,
    BlockStructure,
    merit_weight_matrices,
    normalize_block_matrices,
)
from .prox import prox_eval, subdiff_distance

VARIANTS = ("admm2", "admm2_linearized", "admm_cyclic_n", "bcd", "bcpg")
GAMMA_SUP = (1.0 + math.sqrt(5.0)) / 2.0
DIVERGENCE_LIMIT = 1e12

_CONSTRAINED = ("admm2", "admm2_linearized", "admm_cyclic_n")
_LINEARIZED = ("admm2_linearized", "bcpg")


def check_beta(beta) -> None:
    """Reject a penalty weight that is not a positive finite number."""
    if not 0.0 < beta < math.inf:
        raise UsageError("beta must be positive and finite")


def check_stopping(tol, max_iter) -> None:
    """Reject a tolerance that is not a nonnegative number (NaN included) and
    an iteration cap below one."""
    if not tol >= 0:
        raise UsageError("tol must be a nonnegative number")
    if int(max_iter) < 1:
        raise UsageError("max_iter must be at least 1")


@dataclass
class SolverConfig:
    """Run parameters.

    R holds one entry per block: a symmetric PSD matrix, a nonnegative
    scalar (meaning that multiple of the identity), or None for zero. The
    linearized variants use scalar curvatures r instead; when r is None they
    are computed as the top eigenvalue of each block's quadratic model.
    """

    variant: str = "admm2"
    beta: float = 1.0
    gamma: float = 1.0
    R: list | None = None
    r: list | None = None
    tol: float = 1e-8
    max_iter: int = 100_000
    seed: int = 0

    def validate(self, inst: ProblemInstance) -> None:
        if self.variant not in VARIANTS:
            raise UsageError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        check_beta(self.beta)
        if not (0.0 < self.gamma < GAMMA_SUP):
            raise UsageError(f"gamma must lie in (0, {GAMMA_SUP}) exclusive")
        check_stopping(self.tol, self.max_iter)
        if self.R is not None:
            normalize_block_matrices(inst, self.R)
        if self.r is not None:
            if len(self.r) != inst.blocks.n:
                raise StructuralError(f"r has {len(self.r)} entries, expected {inst.blocks.n}")
            if any(not float(v) > 0 for v in self.r):
                raise UsageError("every linearization curvature r_i must be positive")
        if self.seed is not None and int(self.seed) < 0:
            raise UsageError("seed must be a nonnegative integer")


@dataclass
class IterateState:
    """One iterate: current primal x, the previous primal (for proximal
    anchors and back-differences), the multiplier, and the step count."""

    x: np.ndarray
    x_prev: np.ndarray
    mu: np.ndarray
    k: int = 0

    @classmethod
    def start(cls, inst: ProblemInstance, x0=None, mu0=None) -> "IterateState":
        d, m = inst.blocks.d, inst.blocks.m
        x = np.zeros(d) if x0 is None else np.array(x0, dtype=float).reshape(d)
        mu = np.zeros(m) if mu0 is None else np.array(mu0, dtype=float).reshape(m)
        # the back-difference term is zero before any step has been taken
        return cls(x=x, x_prev=x.copy(), mu=mu, k=0)


@dataclass
class Trace:
    """Per-iteration records of a run plus its terminal state."""

    n_blocks: int
    ks: list = field(default_factory=list)
    r_dual: list = field(default_factory=list)
    r_feas: list = field(default_factory=list)
    surrogate_blocks: list = field(default_factory=list)
    surrogate: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    lyapunov: list = field(default_factory=list)
    status: str = "max_iter"
    exact_residuals: bool = True
    warnings: list = field(default_factory=list)
    x: np.ndarray | None = None
    mu: np.ndarray | None = None
    trial: int | None = None
    iterates: list | None = None

    def __len__(self) -> int:
        return len(self.ks)

    def max_residual(self, row: int) -> float:
        """Largest violation component at a row, from exact residuals when
        available and from the surrogate bound otherwise."""
        if self.exact_residuals:
            dual = self.r_dual[row]
            worst = float(dual.max()) if dual is not None and dual.size else 0.0
        else:
            blocks = self.surrogate_blocks[row]
            if blocks is None:
                return math.inf
            worst = float(blocks.max()) if blocks.size else 0.0
        return max(worst, self.r_feas[row])

    def total_sq(self, row: int) -> float:
        """Summed squared residual components at a row."""
        if self.exact_residuals:
            dual = self.r_dual[row]
        else:
            dual = self.surrogate_blocks[row]
        if dual is None:
            return math.inf
        return float(np.sum(np.asarray(dual) ** 2) + self.r_feas[row] ** 2)

    def to_csv(self, path, header_lines=()) -> None:
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            for w in self.warnings:
                fh.write(f"# warning: {w}\n")
            fh.write(self.csv_columns())
            self.write_csv_rows(fh)
            fh.write(f"# status={self.status}\n")

    def csv_columns(self) -> str:
        cols = ["k"] if self.trial is None else ["trial", "k"]
        cols += [f"r_dual_{i + 1}" for i in range(self.n_blocks)]
        cols += ["r_feas", "surrogate", "objective", "lyapunov"]
        return ",".join(cols) + "\n"

    def write_csv_rows(self, fh) -> None:
        """One CSV line per recorded row, led by the trial number when set."""
        lead = [] if self.trial is None else [str(self.trial)]
        for row in range(len(self.ks)):
            dual = self.r_dual[row]
            cells = lead + [str(self.ks[row])]
            cells += [_fmt(None if dual is None else dual[i]) for i in range(self.n_blocks)]
            cells += [_fmt(v[row]) for v in (self.r_feas, self.surrogate, self.objective, self.lyapunov)]
            fh.write(",".join(cells) + "\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if math.isnan(f):
        return ""
    return repr(f)


def _block_model(inst: ProblemInstance, beta: float, i: int, constrained: bool) -> np.ndarray:
    """Block i's quadratic model: H_ii + beta A_i'A_i, or H_ii alone."""
    B = inst.H_block(i, i).copy()
    if constrained:
        Ai = inst.A_block(i)
        B += beta * (Ai.T @ Ai)
    return B


def linearization_proximal(inst: ProblemInstance, beta: float, mode: str = "admm") -> list:
    """Per-block scalar curvature r_i and the equivalent proximal matrix
    R_i = r_i I - B_i, where B_i is the block's quadratic model:
    H_ii + beta A_i'A_i in constrained mode, H_ii alone in mode "bcd".

    Returns a list of (r_i, R_i) pairs. A block with no curvature at all
    cannot be linearized and raises ConditionError.
    """
    if mode not in ("admm", "bcd"):
        raise UsageError(f"unknown mode {mode!r}; expected 'admm' or 'bcd'")
    if mode == "admm":
        check_beta(beta)
    out = []
    for i in range(inst.blocks.n):
        B = _block_model(inst, beta, i, mode == "admm")
        w = np.linalg.eigvalsh(0.5 * (B + B.T))
        r = float(w[-1])
        if not r > 0:
            raise ConditionError(f"block {i} has no curvature; linearization is undefined")
        out.append((r, r * np.eye(B.shape[0]) - B))
    return out


def _proximal_matrices(inst: ProblemInstance, cfg: SolverConfig) -> tuple:
    """The proximal matrices R_i that cfg.variant effectively applies, the
    scalar curvatures r_i of the linearized variants (None for the others),
    and warnings about user curvatures below a block's top eigenvalue."""
    if cfg.variant not in _LINEARIZED:
        return None, normalize_block_matrices(inst, cfg.R), []
    constrained = cfg.variant in _CONSTRAINED
    pairs = linearization_proximal(inst, cfg.beta, mode="admm" if constrained else "bcd")
    if cfg.r is None:
        return [p[0] for p in pairs], [p[1] for p in pairs], []
    r = [float(v) for v in cfg.r]
    warnings = [
        f"r[{i}]={r[i]!r} is below the block's top curvature {r_auto!r}; descent guarantees may fail"
        for i, (r_auto, _) in enumerate(pairs)
        if r[i] < r_auto * (1.0 - 1e-12)
    ]
    R_eff = []
    for i in range(inst.blocks.n):
        B = _block_model(inst, cfg.beta, i, constrained)
        R_eff.append(r[i] * np.eye(B.shape[0]) - B)
    return r, R_eff, warnings


class _Workspace:
    """Validated configuration plus the per-run data every sweep shares.

    Write z = (x, mu) and S = H + beta A'A. When block i is updated its value
    still equals its proximal anchor, so the new value is one affine map of
    the current z, v = W_i z + c_i, followed by the prox of the block's term
    for prox blocks (prox_r[i] is the prox weight; None for direct blocks).
    The maps are built here once per run.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig):
        cfg.validate(inst)
        variant = cfg.variant
        constrained = variant in _CONSTRAINED
        if variant in ("admm2", "admm2_linearized") and inst.blocks.n != 2:
            raise UsageError(f"variant {variant} needs exactly two blocks")
        if not constrained and inst.blocks.m:
            raise UsageError(
                "unconstrained variants need an instance without constraint rows; "
                "pass ignore_constraints=True to run_solver to drop them"
            )
        self.inst = inst
        self.cfg = cfg
        self.constrained = constrained
        self.linearized = variant in _LINEARIZED
        self.beta = cfg.beta if constrained else 0.0
        self.gamma = cfg.gamma
        n = inst.blocks.n
        self.n = n
        self.d = inst.blocks.d
        self.slices = [inst.blocks.slice_of(i) for i in range(n)]
        self.offsets = np.asarray(inst.blocks.offsets)
        self.At = np.ascontiguousarray(inst.A.T)
        self.exact_ok = all(f.kind != "opaque" for f in inst.theta)
        # blocks whose stationarity violation needs the term's subdifferential
        self.subdiff_blocks = [i for i in range(n) if inst.theta[i].kind != "zero"]
        self.r, self.R_eff, self.warnings = _proximal_matrices(inst, cfg)
        S = inst.H + self.beta * (inst.A.T @ inst.A)
        self.W, self.c, self.prox_r = zip(*(self._block_update(S, i) for i in range(n)))
        # S with each diagonal block replaced by -R_i; the surrogate's matrix U
        # for a block order keeps the blocks of it at or after the row block
        self.surrogate_base = S.copy()
        for sl, R in zip(self.slices, self.R_eff):
            self.surrogate_base[sl, sl] = -R
        self.block_of = np.repeat(np.arange(n), inst.blocks.dims)
        self.U_order = None
        self.U = None

    def _block_update(self, S: np.ndarray, i: int) -> tuple:
        """W_i, c_i and the prox weight of block i."""
        inst = self.inst
        sl = self.slices[i]
        d_i = inst.blocks.dims[i]
        Ai = inst.A[:, sl]
        # block i's rows of the sweep's linear term in z: S_i x - A_i' mu,
        # plus a constant
        row = np.hstack([S[sl], -Ai.T])
        lin = inst.g[sl] - self.beta * (Ai.T @ inst.b)
        if self.linearized:
            r = self.r[i]
            row[:, sl] -= r * np.eye(d_i)
            return -row / r, -lin / r, r
        row[:, sl] = -self.R_eff[i]
        G = inst.H_block(i, i) + self.R_eff[i] + self.beta * (Ai.T @ Ai)
        f = inst.theta[i]
        if f.kind in ("zero", "quadratic"):
            K = G
            if f.kind == "quadratic":
                K = K + f.params["P"]
                lin = lin + f.params["q"]
            w = np.linalg.eigvalsh(0.5 * (K + K.T))
            if w[0] <= 1e-12 * max(1.0, float(w[-1])):
                raise ConditionError(
                    f"block {i}: subproblem matrix is singular "
                    f"(min eigenvalue {float(w[0]):.3e}); the uniqueness condition fails"
                )
            return -np.linalg.solve(K, row), -np.linalg.solve(K, lin), None
        ridge = float(np.trace(G)) / d_i
        off = max_abs(G - ridge * np.eye(d_i))
        if not ridge > 0 or off > 1e-10 * max(1.0, abs(ridge)):
            raise SubproblemStructureError(
                f"block {i} (kind {f.kind!r}): effective quadratic is not a scaled "
                "identity, so no closed-form subproblem exists; use variant "
                "admm2_linearized (or bcpg for unconstrained runs)"
            )
        return -row / ridge, -lin / ridge, ridge

    # -- sweeps --------------------------------------------------------

    def advance(self, state: IterateState, order) -> tuple:
        """One sweep in `order`, each block against the latest values, then
        the multiplier step. Returns the new state, its concatenated vector
        z = (x, mu), of which the state's x and mu are views, and Ax - b."""
        d = self.d
        theta, W, c, prox_r, slices = self.inst.theta, self.W, self.c, self.prox_r, self.slices
        z = np.concatenate([state.x, state.mu])
        x = z[:d]
        # ndarray.dot rather than @: on vectors this short the matmul
        # ufunc's per-call overhead outweighs the arithmetic
        for i in order:
            v = W[i].dot(z) + c[i]
            r = prox_r[i]
            x[slices[i]] = v if r is None else prox_eval(theta[i], r, v)
        resid = self.inst.A.dot(x) - self.inst.b
        z[d:] -= self.gamma * self.beta * resid
        return IterateState(x=x, x_prev=state.x.copy(), mu=z[d:], k=state.k + 1), z, resid

    # -- residual pieces -------------------------------------------------

    def exact_dual(self, x: np.ndarray, mu: np.ndarray, Hx: np.ndarray) -> np.ndarray:
        """Per-block stationarity violations at (x, mu), given Hx."""
        s = Hx + self.inst.g - self.At.dot(mu)
        out = np.sqrt(np.add.reduceat(s * s, self.offsets))
        for i in self.subdiff_blocks:
            sl = self.slices[i]
            try:
                out[i] = subdiff_distance(self.inst.theta[i], x[sl], s[sl])
            except DomainError:
                # outside dom theta_i the subdifferential is empty; the
                # distance to it is infinite (possible only at the start
                # point, before the first sweep projects the block inside)
                out[i] = math.inf
        return out

    def surrogate_parts(self, dx: np.ndarray, resid: np.ndarray, order) -> np.ndarray:
        """Per-block norms of the exact optimality shift from one sweep that
        moved x by dx: block i is stationary for the new point up to
        -R_i dx_i + sum over later blocks of (H_ij + beta A_i'A_j) dx_j,
        plus a multiplier-stepsize correction when gamma differs from one.
        """
        if order != self.U_order:
            pos = [0] * self.n
            for p, i in enumerate(order):
                pos[i] = p
            pe = np.array(pos)[self.block_of]
            self.U = self.surrogate_base * (pe >= pe[:, None])
            self.U_order = order
        v = self.U.dot(dx)
        if self.gamma != 1.0:
            v -= self.beta * (1.0 - self.gamma) * self.At.dot(resid)
        return np.sqrt(np.add.reduceat(v * v, self.offsets))


def _strip_constraints(inst: ProblemInstance) -> ProblemInstance:
    blocks = BlockStructure(dims=inst.blocks.dims, m=0)
    return ProblemInstance(
        blocks=blocks, H=inst.H, g=inst.g, A=np.zeros((0, inst.blocks.d)), b=np.zeros(0), theta=inst.theta
    )


def step(inst: ProblemInstance, cfg: SolverConfig, state: IterateState, order=None) -> IterateState:
    """One sweep of cfg.variant followed, for the constrained variants, by
    the multiplier update with stepsize gamma * beta.

    The blocks are updated in `order`, a permutation of 0..n-1; None means
    the cyclic order 0, 1, ..., n-1. The randomly permuted scheme is this
    step with variant admm_cyclic_n, gamma 1 and a fresh uniform order per
    sweep.
    """
    ws = _Workspace(inst, cfg)
    n = inst.blocks.n
    order = range(n) if order is None else tuple(int(v) for v in order)
    if sorted(order) != list(range(n)):
        raise UsageError(f"order {order} is not a permutation of 0..{n - 1}")
    return ws.advance(state, order)[0]


# -- full runs -------------------------------------------------------------


def run_solver(
    inst: ProblemInstance,
    cfg: SolverConfig,
    x0=None,
    mu0=None,
    reference: KKTPoint | None = None,
    ignore_constraints: bool = False,
    keep_iterates: bool = False,
) -> Trace:
    """Iterate the configured variant in cyclic block order until the largest
    residual component falls to cfg.tol, the divergence guard trips, or
    cfg.max_iter steps have run.

    The trace records, for every iteration, the exact per-block stationarity
    violations (when every term supports them), the constraint violation, the
    surrogate optimality bound from the sweep, the objective value, and the
    merit value against `reference` when one is given (two-block runs only).
    """
    work = inst
    if cfg.variant in ("bcd", "bcpg") and inst.blocks.m:
        if not ignore_constraints:
            raise UsageError(
                "instance has constraint rows; unconstrained variants need "
                "ignore_constraints=True (constraints are then dropped)"
            )
        work = _strip_constraints(inst)
    ws = _Workspace(work, cfg)
    if cfg.variant in ("admm2", "admm2_linearized"):
        _check_two_block_condition(work, ws.R_eff)
    if reference is not None and work.blocks.n != 2:
        raise UsageError("merit recording needs a two-block instance")
    weights = None if reference is None else merit_weight_matrices(work, cfg.beta, ws.R_eff)
    cyclic = tuple(range(work.blocks.n))
    state = IterateState.start(work, x0, mu0)
    return _drive(ws, state, lambda: cyclic, keep_iterates, weights=weights, reference=reference)


def _drive(ws, state, next_order, keep_iterates, weights=None, reference=None, path=None) -> Trace:
    """The run loop of every variant: record the start point, then sweep in
    the orders that next_order() returns until the largest residual component
    falls to the tolerance, the divergence guard trips, or max_iter sweeps
    have run. `path`, when given, collects every iterate as one concatenated
    (x, mu) vector."""
    trace = Trace(n_blocks=ws.n, exact_residuals=ws.exact_ok)
    trace.warnings.extend(ws.warnings)
    if keep_iterates:
        trace.iterates = []
    z = np.concatenate([state.x, state.mu])
    _record(trace, ws, state, z, ws.inst.A.dot(state.x) - ws.inst.b, None, weights, reference, path)
    tol = ws.cfg.tol
    if ws.exact_ok and trace.max_residual(0) <= tol:
        trace.status = "converged"
    else:
        for _ in range(int(ws.cfg.max_iter)):
            order = next_order()
            state, z, resid = ws.advance(state, order)
            _record(trace, ws, state, z, resid, order, weights, reference, path)
            # written so that NaN iterates count as diverged
            if not max_abs(z) <= DIVERGENCE_LIMIT:
                trace.status = "diverged"
                break
            if trace.max_residual(len(trace) - 1) <= tol:
                trace.status = "converged"
                break
    trace.x = state.x.copy()
    trace.mu = state.mu.copy()
    return trace


def _check_two_block_condition(inst: ProblemInstance, R_eff) -> None:
    # user-override curvatures can make R_eff indefinite; measure directly
    worst = math.inf
    for i in range(2):
        Ai = inst.A_block(i)
        T = inst.H_block(i, i) + inst.sigma_block(i) + Ai.T @ Ai + R_eff[i]
        w = np.linalg.eigvalsh(0.5 * (T + T.T))
        worst = min(worst, float(w[0]))
    if worst <= 1e-10:
        raise ConditionError(
            f"two-block uniqueness condition fails (min eigenvalue {worst:.3e}); "
            "see check_uniqueness_condition"
        )


def _record(trace, ws, state, z, resid, order, weights, reference, path):
    """Append one row for the state whose concatenated vector is z and whose
    constraint residual is resid; order is None for the start point, which
    has no sweep."""
    x = state.x
    Hx = ws.inst.H.dot(x)
    trace.ks.append(state.k)
    trace.r_dual.append(ws.exact_dual(x, state.mu, Hx) if ws.exact_ok else None)
    r_feas = math.sqrt(float(resid.dot(resid)))
    trace.r_feas.append(r_feas)
    if order is None:
        trace.surrogate_blocks.append(None)
        trace.surrogate.append(math.nan)
    else:
        parts = ws.surrogate_parts(x - state.x_prev, resid, order)
        trace.surrogate_blocks.append(parts)
        trace.surrogate.append(math.sqrt(float(parts.dot(parts)) + r_feas**2))
    trace.objective.append(ws.inst.objective(x, Hx))
    if reference is None:
        trace.lyapunov.append(None)
    else:
        trace.lyapunov.append(_merit_from_weights(ws.cfg.beta, weights, state, reference))
    if trace.iterates is not None:
        trace.iterates.append((x.copy(), state.mu.copy()))
    if path is not None:
        path.append(z)


def _merit_from_weights(beta, weights, state, reference) -> float:
    dx = state.x - np.asarray(reference.x, dtype=float)
    sl2 = weights["slice2"]
    dmu = state.mu - np.asarray(reference.mu, dtype=float)
    back = state.x[sl2] - state.x_prev[sl2]
    return (
        0.875 * quad_form(dx, weights["level"])
        + 0.5 * quad_form(dx[sl2], weights["level_b2"])
        + (0.5 / beta) * float(dmu @ dmu)
        + 0.5 * quad_form(back, weights["R2"])
    )


def _merit_weights(inst: ProblemInstance, cfg: SolverConfig) -> dict:
    if inst.blocks.n != 2:
        raise UsageError("the merit function is defined for two-block instances")
    return merit_weight_matrices(inst, cfg.beta, _proximal_matrices(inst, cfg)[1])


def lyapunov_value(inst: ProblemInstance, cfg: SolverConfig, state: IterateState, reference: KKTPoint) -> float:
    """Merit value of a two-block iterate against a stationary reference:
    a weighted squared distance to the reference plus a back-difference term,
    nonincreasing along constrained two-block runs with unit dual stepsize."""
    return _merit_from_weights(cfg.beta, _merit_weights(inst, cfg), state, reference)


def lyapunov_decrease_floor(
    inst: ProblemInstance, cfg: SolverConfig, prev: IterateState, nxt: IterateState
) -> float:
    """Guaranteed minimum drop of the merit value across one step, evaluated
    from the two consecutive iterates."""
    return merit_decrease_floor_from_weights(cfg.beta, _merit_weights(inst, cfg), prev, nxt)


def merit_decrease_floor_from_weights(beta, weights, prev, nxt) -> float:
    dx = nxt.x - prev.x
    sl2 = weights["slice2"]
    dmu = nxt.mu - prev.mu
    return (
        quad_form(dx, weights["drop"]) / 16.0
        + quad_form(dx[sl2], weights["drop_b2"]) / 6.0
        + (0.5 / beta) * float(dmu @ dmu)
    )


def min_kkt_sq_curve(trace: Trace) -> np.ndarray:
    """Series of (k, k * running minimum of the summed squared residual),
    over the generated iterates (k >= 1). The residual triple is exact when
    the trace has exact residuals and the surrogate bound otherwise."""
    rows = [row for row in range(len(trace)) if trace.ks[row] >= 1]
    if not rows:
        raise UsageError("trace has no generated iterates")
    out = np.zeros((len(rows), 2))
    best = math.inf
    for j, row in enumerate(rows):
        best = min(best, trace.total_sq(row))
        k = trace.ks[row]
        out[j, 0] = k
        out[j, 1] = k * best
    return out
