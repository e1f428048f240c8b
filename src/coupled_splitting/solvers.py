"""Block-splitting solvers for linearly constrained coupled programs.

One family of sweeps covers every variant: each block in turn minimizes the
augmented Lagrangian in its own coordinates, optionally damped by a proximal
weight matrix, and the multiplier moves against the residual after the sweep.
Variants differ in block order and in whether the quadratic model is
replaced by a single-curvature linearization. Without constraint rows the
penalty and the multiplier step vanish, and the sweeps are the paper's
cyclic proximal BCD methods.

Variants
--------
admm2             two blocks, cyclic order, proximal matrices R_i
admm2_linearized  two blocks, scalar curvatures r_i, prox after a gradient
                  half-step (equivalent to admm2 with R_i = r_i I - H_ii -
                  beta A_i'A_i)
admm_cyclic_n     n blocks, cyclic order, proximal matrices R_i
bcd               admm_cyclic_n on an instance without constraint rows
bcpg              the linearized sweep, n blocks, on an instance without
                  constraint rows
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._linalg import block_diag, max_abs, quad_form, singular_sym
from .errors import (
    ConditionError,
    StructuralError,
    SubproblemStructureError,
    UsageError,
)
from .model import (
    KKTPoint,
    ProblemInstance,
    _uniqueness_condition,
    normalize_block_matrices,
)
# subdiff_distance is the per-block reference for _Observer's formulas; it
# stays in this namespace, where the solver layer's callers and tracers
# look it up
from .prox import ProxFn, _box_bounds, _box_edge, fn_value, prox_eval, subdiff_distance  # noqa: F401

VARIANTS = ("admm2", "admm2_linearized", "admm_cyclic_n", "bcd", "bcpg")
GAMMA_SUP = (1.0 + math.sqrt(5.0)) / 2.0
DIVERGENCE_LIMIT = 1e12
# bytes of surrogate matrices U a run keeps, one per block order swept
SURROGATE_CACHE_BYTES = 1 << 20

_LINEARIZED = ("admm2_linearized", "bcpg")


def check_beta(beta) -> None:
    """Reject a penalty weight that is not a positive finite number."""
    if not 0.0 < beta < math.inf:
        raise UsageError("beta must be positive and finite")


def check_gamma(gamma) -> None:
    """Reject a dual stepsize outside (0, GAMMA_SUP)."""
    if not 0.0 < gamma < GAMMA_SUP:
        raise UsageError(f"gamma must lie in (0, {GAMMA_SUP}) exclusive")


def check_order(order, n: int) -> tuple:
    """A block order as a tuple of ints; rejects one that is not a
    permutation of 0..n-1."""
    order = tuple(int(v) for v in order)
    if sorted(order) != list(range(n)):
        raise UsageError(f"block order {order} is not a permutation of 0..{n - 1}")
    return order


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
        check_gamma(self.gamma)
        check_stopping(self.tol, self.max_iter)
        if self.R is not None:
            normalize_block_matrices(inst, self.R)
        if self.r is not None:
            if len(self.r) != inst.blocks.n:
                raise StructuralError(f"r has {len(self.r)} entries, expected {inst.blocks.n}")
            if any(not float(v) > 0 for v in self.r):
                raise UsageError("every linearization curvature r_i must be positive")
        if self.seed is None or int(self.seed) < 0:
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
        head = "".join(f"# {line}\n" for line in header_lines)
        head += "".join(f"# warning: {w}\n" for w in self.warnings)
        _write_artifact(path, f"{head}{self.csv_columns()}{self.csv_rows()}# status={self.status}\n")

    def csv_columns(self) -> str:
        cols = ["k"] if self.trial is None else ["trial", "k"]
        cols += [f"r_dual_{i + 1}" for i in range(self.n_blocks)]
        cols += ["r_feas", "surrogate", "objective", "lyapunov"]
        return ",".join(cols) + "\n"

    def csv_rows(self) -> str:
        """One CSV line per recorded row, led by the trial number when set."""
        lead = "" if self.trial is None else f"{self.trial},"
        opaque = [math.nan] * self.n_blocks
        dual = [opaque if v is None else v for v in self.r_dual]
        # float64 columns, None read as NaN; .tolist() gives Python floats,
        # whose repr is _fmt's, and a NaN cell ("nan") is written empty
        rows = np.column_stack([
            np.array(dual, dtype=float),
            np.array([self.r_feas, self.surrogate, self.objective, self.lyapunov], dtype=float).T,
        ]).tolist()
        return "".join(f"{lead}{k},{','.join(map(repr, row)).replace('nan', '')}\n" for k, row in zip(self.ks, rows))


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if math.isnan(f):
        return ""
    return repr(f)


def _write_artifact(path, text: str) -> None:
    """Write an artifact whole: truncate the file and write the text built in
    memory. A rewrite is not atomic."""
    Path(path).write_text(text, encoding="utf-8")


def linearization_proximal(inst: ProblemInstance, beta: float) -> list:
    """Per-block scalar curvature r_i and the equivalent proximal matrix
    R_i = r_i I - B_i, where B_i = H_ii + beta A_i'A_i is the block's
    quadratic model (H_ii alone on an instance without constraint rows).

    Returns a list of (r_i, R_i) pairs. A block with no curvature at all
    cannot be linearized and raises ConditionError.
    """
    check_beta(beta)
    out = []
    for i in range(inst.blocks.n):
        B = inst.block_curvature(i, beta)
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
    pairs = linearization_proximal(inst, cfg.beta)
    if cfg.r is None:
        return [p[0] for p in pairs], [p[1] for p in pairs], []
    r = [float(v) for v in cfg.r]
    warnings = [
        f"r[{i}]={r[i]!r} is below the block's top curvature {r_auto!r}; descent guarantees may fail"
        for i, (r_auto, _) in enumerate(pairs)
        if r[i] < r_auto * (1.0 - 1e-12)
    ]
    R_eff = [r[i] * np.eye(d_i) - inst.block_curvature(i, cfg.beta) for i, d_i in enumerate(inst.blocks.dims)]
    return r, R_eff, warnings


def _block_prox(f: ProxFn, r: float, dim: int):
    """v -> prox_eval(f, r, v) with the term's parameters laid out once:
    None for the identity (a zero term), a soft threshold at lam / r, a clip
    to the broadcast box; other kinds call prox_eval."""
    if f.kind == "zero":
        return None
    if f.kind == "l1":
        cut = f.params["lam"] / r
        return lambda v: np.sign(v) * np.maximum(np.abs(v) - cut, 0.0)
    if f.kind == "box":
        # the broadcast views prox_eval clips against: another memory layout
        # can take another clip loop, which may differ in the sign of a zero
        lo, hi = _box_bounds(f, dim)
        return lambda v: np.clip(v, lo, hi)
    return lambda v: prox_eval(f, r, v)


class _Observer:
    """Exact per-block stationarity violations and the objective at a point,
    from whole-vector formulas laid out once per run.

    Quadratic terms are folded into the smooth part, H' = H + blkdiag(P_i)
    and g' = g + q; l1 weights and box bounds are spread over the full
    vector, with a mask for each kind. The formulas are those of
    prox.subdiff_distance and prox.fn_value, which stay the per-block
    references; only opaque terms are evaluated block by block.
    """

    def __init__(self, inst: ProblemInstance):
        blocks, d = inst.blocks, inst.blocks.d
        self.H = inst.H.copy()
        self.g = inst.g.copy()
        self.At = np.ascontiguousarray(inst.A.T) if blocks.m else None
        self.offsets = np.asarray(blocks.offsets)
        self.lam = np.zeros(d)
        self.l1 = np.zeros(d, dtype=bool)
        lo, hi = np.full(d, -math.inf), np.full(d, math.inf)
        self.box = np.zeros(d, dtype=bool)
        self.opaque = []
        for i, f in enumerate(inst.theta):
            sl = blocks.slice_of(i)
            if f.kind == "quadratic":
                self.H[sl, sl] += f.params["P"]
                self.g[sl] += f.params["q"]
            elif f.kind == "l1":
                self.lam[sl] = f.params["lam"]
                self.l1[sl] = True
            elif f.kind == "box":
                lo[sl], hi[sl] = _box_bounds(f, blocks.dims[i])
                self.box[sl] = True
            elif f.kind == "opaque":
                self.opaque.append((f, sl))
        self.exact = not self.opaque
        self.l1_at = np.flatnonzero(self.l1)
        self.lam_at = self.lam[self.l1_at]
        self.has_box = bool(self.box.any())
        # off the boxes lo = -inf and hi = inf, so no coordinate there lies
        # outside; within edge of a bound x sits on that face
        edge = _box_edge(lo, hi)
        self.out_lo, self.out_hi = lo - edge, hi + edge
        self.face_lo, self.face_hi = lo + edge, hi - edge

    def __call__(self, x: np.ndarray, mu: np.ndarray) -> tuple:
        """(r_dual, objective) at (x, mu). r_dual is None when some term is
        opaque; a block with a coordinate outside its box reads inf, and so
        does the objective."""
        Hx = self.H.dot(x)
        objective = 0.5 * float(x.dot(Hx)) + float(self.g.dot(x))
        if self.l1_at.size:
            objective += float(self.lam_at.dot(np.abs(x[self.l1_at])))
        outside = None
        if self.has_box:
            outside = (x < self.out_lo) | (x > self.out_hi)
            if outside.any():
                objective = math.inf
            else:
                outside = None
        for f, sl in self.opaque:
            objective += fn_value(f, x[sl])
        if not self.exact:
            return None, objective
        s = Hx + self.g
        if self.At is not None:
            s -= self.At.dot(mu)
        # distance from -s to the subdifferential, coordinate by coordinate
        dist = np.abs(s)
        if self.l1_at.size:
            lam = self.lam
            l1 = np.where(x == 0.0, np.maximum(dist - lam, 0.0), np.abs(s + lam * np.sign(x)))
            dist = np.where(self.l1, l1, dist)
        if self.has_box:
            at_lo = x <= self.face_lo
            at_hi = x >= self.face_hi
            # normal cone: {0} inside, a ray on a face, R on a pinned coordinate
            box = np.where(
                at_lo,
                np.where(at_hi, 0.0, np.maximum(-s, 0.0)),
                np.where(at_hi, np.maximum(s, 0.0), dist),
            )
            dist = np.where(self.box, box, dist)
        r_dual = np.sqrt(np.add.reduceat(dist * dist, self.offsets))
        if outside is not None:
            # outside dom theta_i the subdifferential is empty (possible only
            # at the start point, before the first sweep projects the block)
            r_dual[np.logical_or.reduceat(outside, self.offsets)] = math.inf
        return r_dual, objective


class _Workspace:
    """Validated configuration plus the per-run data every sweep shares.

    Write z = (x, mu) and S = H + beta A'A. When block i is updated its value
    still equals its proximal anchor, so the new value is one affine map of
    the current z, v = W_i z + c_i, followed by the prox of the block's term
    for prox blocks (prox[i], None for direct blocks and zero terms). The
    maps, the proxes and the row observer are built here once per run.

    bcd and bcpg need an instance without constraint rows; the two-block
    variants need two blocks and the two-block uniqueness condition.

    With min_norm set, a direct block whose subproblem matrix is singular
    takes the minimum-norm solution instead of raising ConditionError; the
    subproblem must then be bounded below for every z, which is checked once
    here.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, min_norm: bool = False):
        cfg.validate(inst)
        variant = cfg.variant
        two_block = variant in ("admm2", "admm2_linearized")
        if two_block:
            inst.require_two_blocks(f"variant {variant}")
        if variant in ("bcd", "bcpg") and inst.blocks.m:
            raise UsageError(f"variant {variant} needs an instance without constraint rows")
        self.inst = inst
        self.cfg = cfg
        self.min_norm = min_norm
        self.linearized = variant in _LINEARIZED
        self.beta = cfg.beta
        self.gamma = cfg.gamma
        n = inst.blocks.n
        self.n = n
        self.d = inst.blocks.d
        self.slices = [inst.blocks.slice_of(i) for i in range(n)]
        self.offsets = np.asarray(inst.blocks.offsets)
        self.At = np.ascontiguousarray(inst.A.T)
        self.r, self.R_eff, self.warnings = _proximal_matrices(inst, cfg)
        S = inst.H + self.beta * (inst.A.T @ inst.A)
        self.W, self.c, self.prox = zip(*(self._block_update(S, i) for i in range(n)))
        if two_block:
            # measured on the effective R_i, which user curvatures r can make indefinite
            cond = _uniqueness_condition(inst, self.R_eff, "two_block_full")
            if not cond.satisfied:
                raise ConditionError(
                    f"two-block uniqueness condition fails (min eigenvalue {cond.min_eigenvalue:.3e}); "
                    "see check_uniqueness_condition"
                )
        self.observe = _Observer(inst)
        # S with each diagonal block replaced by -R_i; the surrogate's matrix U
        # for a block order keeps the blocks of it at or after the row block
        self.surrogate_base = S.copy()
        for sl, R in zip(self.slices, self.R_eff):
            self.surrogate_base[sl, sl] = -R
        self.block_of = np.repeat(np.arange(n), inst.blocks.dims)
        # each block order's U, built on its first sweep, up to
        # SURROGATE_CACHE_BYTES in all
        self.U = {}

    def _block_update(self, S: np.ndarray, i: int) -> tuple:
        """W_i, c_i and the prox of block i (None for a direct block)."""
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
            return -row / r, -lin / r, _block_prox(inst.theta[i], r, d_i)
        row[:, sl] = -self.R_eff[i]
        G = inst.block_curvature(i, self.beta) + self.R_eff[i]
        f = inst.theta[i]
        if f.kind in ("zero", "quadratic"):
            K = G
            if f.kind == "quadratic":
                K = K + f.params["P"]
                lin = lin + f.params["q"]
            if self.min_norm:
                # minimum-norm solutions of K v = -(row z + lin); they solve it
                # for every z exactly when K W = -row and K c = -lin
                rhs = np.hstack([row, lin[:, None]])
                sol = np.linalg.lstsq(K, -rhs, rcond=None)[0]
                if np.any(np.abs(K @ sol + rhs).max(axis=0) > 1e-8 * (1.0 + np.abs(rhs).max(axis=0))):
                    raise UsageError(f"block {i} subproblem is unbounded below")
                return sol[:, :-1], sol[:, -1], None
            singular, w_min = singular_sym(K)
            if singular:
                raise ConditionError(
                    f"block {i}: subproblem matrix is singular "
                    f"(min eigenvalue {w_min:.3e}); the uniqueness condition fails"
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
        return -row / ridge, -lin / ridge, _block_prox(f, ridge, d_i)

    # -- sweeps --------------------------------------------------------

    def advance(self, state: IterateState, order) -> tuple:
        """One sweep in `order`, each block against the latest values, then
        the multiplier step. Returns the new state, its concatenated vector
        z = (x, mu), of which the state's x and mu are views, and Ax - b."""
        d = self.d
        W, c, prox, slices = self.W, self.c, self.prox, self.slices
        z = np.concatenate([state.x, state.mu])
        x = z[:d]
        # ndarray.dot rather than @: on vectors this short the matmul
        # ufunc's per-call overhead outweighs the arithmetic
        for i in order:
            v = W[i].dot(z) + c[i]
            p = prox[i]
            x[slices[i]] = v if p is None else p(v)
        resid = self.inst.A.dot(x) - self.inst.b
        z[d:] -= self.gamma * self.beta * resid
        return IterateState(x=x, x_prev=state.x.copy(), mu=z[d:], k=state.k + 1), z, resid

    # -- residual pieces -------------------------------------------------

    def surrogate_parts(self, dx: np.ndarray, resid: np.ndarray, order) -> np.ndarray:
        """Per-block norms of the exact optimality shift from one sweep that
        moved x by dx: block i is stationary for the new point up to
        -R_i dx_i + sum over later blocks of (H_ij + beta A_i'A_j) dx_j,
        plus a multiplier-stepsize correction when gamma differs from one.
        """
        U = self.U.get(order)
        if U is None:
            pos = [0] * self.n
            for p, i in enumerate(order):
                pos[i] = p
            pe = np.array(pos)[self.block_of]
            U = self.surrogate_base * (pe >= pe[:, None])
            if (len(self.U) + 1) * U.nbytes <= SURROGATE_CACHE_BYTES:
                self.U[order] = U
        v = U.dot(dx)
        if self.gamma != 1.0:
            v -= self.beta * (1.0 - self.gamma) * self.At.dot(resid)
        return np.sqrt(np.add.reduceat(v * v, self.offsets))


def step(inst: ProblemInstance, cfg: SolverConfig, state: IterateState, order=None) -> IterateState:
    """One sweep of cfg.variant followed by the multiplier update with
    stepsize gamma * beta (nothing to update without constraint rows).

    The blocks are updated in `order`, a permutation of 0..n-1; None means
    the cyclic order 0, 1, ..., n-1. The randomly permuted scheme is this
    step with variant admm_cyclic_n, gamma 1 and a fresh uniform order per
    sweep.
    """
    ws = _Workspace(inst, cfg)
    n = inst.blocks.n
    return ws.advance(state, range(n) if order is None else check_order(order, n))[0]


# -- full runs -------------------------------------------------------------


def run_solver(
    inst: ProblemInstance,
    cfg: SolverConfig,
    x0=None,
    mu0=None,
    reference: KKTPoint | None = None,
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
    ws = _Workspace(inst, cfg)
    weights = None if reference is None else merit_weight_matrices(inst, cfg.beta, ws.R_eff)
    cyclic = tuple(range(inst.blocks.n))
    state = IterateState.start(inst, x0, mu0)
    return _drive(ws, state, lambda: cyclic, keep_iterates, weights=weights, reference=reference)


def _drive(ws, state, next_order, keep_iterates, weights=None, reference=None, path=None) -> Trace:
    """The run loop of every variant: record the start point, then sweep in
    the orders that next_order() returns until the largest residual component
    falls to the tolerance, the divergence guard trips, or max_iter sweeps
    have run. `path`, when given, collects every iterate as one concatenated
    (x, mu) vector."""
    trace = Trace(n_blocks=ws.n, exact_residuals=ws.observe.exact)
    trace.warnings.extend(ws.warnings)
    if keep_iterates:
        trace.iterates = []
    z = np.concatenate([state.x, state.mu])
    _record(trace, ws, state, z, ws.inst.A.dot(state.x) - ws.inst.b, None, weights, reference, path)
    tol = ws.cfg.tol
    if trace.exact_residuals and trace.max_residual(0) <= tol:
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


def _record(trace, ws, state, z, resid, order, weights, reference, path):
    """Append one row for the state whose concatenated vector is z and whose
    constraint residual is resid; order is None for the start point, which
    has no sweep."""
    x = state.x
    r_dual, objective = ws.observe(x, state.mu)
    trace.ks.append(state.k)
    trace.r_dual.append(r_dual)
    r_feas = math.sqrt(float(resid.dot(resid)))
    trace.r_feas.append(r_feas)
    if order is None:
        trace.surrogate_blocks.append(None)
        trace.surrogate.append(math.nan)
    else:
        parts = ws.surrogate_parts(x - state.x_prev, resid, order)
        trace.surrogate_blocks.append(parts)
        trace.surrogate.append(math.sqrt(float(parts.dot(parts)) + r_feas**2))
    trace.objective.append(objective)
    if reference is None:
        trace.lyapunov.append(None)
    else:
        trace.lyapunov.append(_merit_from_weights(ws.cfg.beta, weights, state, reference))
    if trace.iterates is not None:
        trace.iterates.append((x.copy(), state.mu.copy()))
    if path is not None:
        path.append(z)


def merit_weight_matrices(inst: ProblemInstance, beta: float, R_mats) -> dict:
    """Weight matrices used by the two-block merit function and its
    guaranteed per-step decrease."""
    inst.require_two_blocks("the merit function")
    sigma = inst.sigma_full()
    R_full = block_diag(R_mats)
    sigma2 = inst.sigma_block(1)
    return {
        "level": inst.H + sigma + (4.0 / 7.0) * R_full,
        "level_b2": inst.block_curvature(1, beta) + sigma2,
        "drop": inst.H + sigma + 8.0 * R_full,
        "drop_b2": inst.block_curvature(1, 3.0 * beta) + sigma2,
        "slice2": inst.blocks.slice_of(1),
        "R2": R_mats[1],
    }


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
    beta = cfg.beta
    weights = _merit_weights(inst, cfg)
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
    dual = trace.r_dual if trace.exact_residuals else trace.surrogate_blocks
    missing = np.full(trace.n_blocks, math.inf)
    parts = np.array([missing if dual[row] is None else dual[row] for row in rows], dtype=float)
    feas = np.array([trace.r_feas[row] for row in rows], dtype=float)
    # the summed squares of Trace.total_sq, row by row; a NaN row never
    # lowers the running minimum
    total = np.sum(parts**2, axis=1) + feas**2
    best = np.minimum.accumulate(np.where(np.isnan(total), math.inf, total))
    k = np.array([trace.ks[row] for row in rows], dtype=float)
    return np.column_stack([k, k * best])
