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

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._linalg import block_diag, max_abs, singular_sym
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
from ._observe import _dots, _gemv, _Observer, _quad_rows
# subdiff_distance is the per-block reference for _Observer's formulas; it
# stays in this namespace, where the solver layer's callers and tracers
# look it up
from .prox import ProxFn, _box_bounds, prox_eval, subdiff_distance  # noqa: F401

VARIANTS = ("admm2", "admm2_linearized", "admm_cyclic_n", "bcd", "bcpg")
GAMMA_SUP = (1.0 + math.sqrt(5.0)) / 2.0
DIVERGENCE_LIMIT = 1e12
# bytes of surrogate matrices U that surrogate_parts builds at a time, one
# per row of a chunk
SURROGATE_CHUNK_BYTES = 1 << 20
# bytes of composed sweep maps a run keeps, one per block order; see
# _Workspace for the rule that decides whether a run composes
SWEEP_MAP_BYTES = 1 << 20

_LINEARIZED = ("admm2_linearized", "bcpg")


def check_beta(beta) -> None:
    """Reject a penalty weight that is not a positive finite number."""
    if not 0.0 < beta < math.inf:
        raise UsageError("beta must be positive and finite")


def check_gamma(gamma) -> None:
    """Reject a dual stepsize outside (0, GAMMA_SUP)."""
    if not 0.0 < gamma < GAMMA_SUP:
        raise UsageError(f"gamma must lie in (0, {GAMMA_SUP}) exclusive")


def check_integer(value, name: str, least: int) -> int:
    """value as an int when it is a Python or numpy integer of at least
    `least`; a float, integral or not, is rejected rather than truncated."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise UsageError(f"{name} must be an integer of at least {least}, not {value!r}")
    return operator.index(value)


def check_order(order, n: int) -> tuple:
    """A block order as a tuple of ints; rejects one that is not a
    permutation of 0..n-1, such as one with a float entry."""
    order = tuple(order)
    if not all(isinstance(v, numbers.Integral) for v in order) or sorted(order) != list(range(n)):
        raise UsageError(f"block order {order} is not a permutation of 0..{n - 1}")
    return tuple(map(operator.index, order))


def check_stopping(tol, max_iter) -> None:
    """Reject a tolerance that is not a nonnegative number (NaN included) and
    an iteration cap that is not an integer of at least one."""
    if not tol >= 0:
        raise UsageError("tol must be a nonnegative number")
    check_integer(max_iter, "max_iter", 1)


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
        check_integer(self.seed, "seed", 0)


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


class Trace:
    """Per-iteration records of a run, one float column per field, plus its
    terminal state. Row k holds the iterate after k sweeps.

    Columns: r_dual (one per block), r_feas, surrogate, objective, lyapunov
    and surrogate_blocks (one per block). A missing value is NaN: r_dual when
    some term is opaque, lyapunov without a merit reference, and the
    surrogate of a point no sweep produced, whose surrogate_blocks read inf.
    A trace built with the primal dimension d keeps its iterates: each row's
    z = (x, mu) in `path`, listed as (x, mu) pairs by `iterates`.
    """

    def __init__(self, n_blocks: int, exact_residuals: bool = True, d: int | None = None):
        self.n_blocks = n_blocks
        self.exact_residuals = exact_residuals
        self.status = "max_iter"
        self.warnings = []
        self.x = None
        self.mu = None
        self.trial = None
        self._len = 0
        # the columns side by side; the CSV writes the first n_blocks + 4
        self._table = np.empty((0, 2 * n_blocks + 4))
        self._d = d
        self._path = None if d is None else np.empty((0, 0))
        self._iterates = None

    def __len__(self) -> int:
        return self._len

    @property
    def ks(self) -> list:
        return list(range(self._len))

    def _column(self, lo: int, hi: int | None = None) -> np.ndarray:
        return self._table[: self._len, lo if hi is None else slice(lo, hi)]

    r_dual = property(lambda self: self._column(0, self.n_blocks))
    r_feas = property(lambda self: self._column(self.n_blocks))
    surrogate = property(lambda self: self._column(self.n_blocks + 1))
    objective = property(lambda self: self._column(self.n_blocks + 2))
    lyapunov = property(lambda self: self._column(self.n_blocks + 3))
    surrogate_blocks = property(lambda self: self._column(self.n_blocks + 4, 2 * self.n_blocks + 4))
    path = property(lambda self: None if self._path is None else self._path[: self._len])

    @property
    def iterates(self) -> list | None:
        """The kept iterates as (x, mu) pairs, views of `path`."""
        if self._path is None:
            return None
        if self._iterates is None or len(self._iterates) != self._len:
            d = self._d
            self._iterates = [(z[:d], z[d:]) for z in self.path]
        return self._iterates

    def extend(self, r_dual, r_feas, surrogate, objective, lyapunov, surrogate_blocks, path=None) -> None:
        """Append rows: each argument holds one value per row, or one value
        for them all; `path` holds the rows' z = (x, mu) when the trace keeps
        its iterates. The columns double in length when full."""
        n, lo = self.n_blocks, self._len
        hi = lo + np.shape(r_feas)[0]
        if hi > self._table.shape[0]:
            size = max(2 * self._table.shape[0], hi, 16)
            # np.resize copies the rows kept into a new, larger array
            self._table = np.resize(self._table, (size, 2 * n + 4))
            if self._path is not None:
                self._path = np.resize(self._path, (size, np.shape(path)[1]))
        rows = self._table[lo:hi]
        rows[:, :n] = r_dual
        rows[:, n] = r_feas
        rows[:, n + 1] = surrogate
        rows[:, n + 2] = objective
        rows[:, n + 3] = lyapunov
        rows[:, n + 4 :] = surrogate_blocks
        if self._path is not None:
            self._path[lo:hi] = path
        self._len = hi

    def truncate(self, rows: int) -> None:
        """Keep the first `rows` rows."""
        self._len = min(self._len, rows)

    def drop_iterates(self) -> None:
        """Stop keeping the iterates."""
        self._path = None
        self._iterates = None

    def _dual(self) -> np.ndarray:
        return self.r_dual if self.exact_residuals else self.surrogate_blocks

    def max_residual(self, row: int) -> float:
        """Largest violation component at one row index (counted from the end
        when negative), from exact residuals when available and from the
        surrogate bound otherwise."""
        sel = slice(row, row + 1 or None)
        return float(_largest(self._dual()[sel], self.r_feas[sel])[0])

    def total_sq(self, row: int | None = None):
        """Summed squared residual components: a column over every row, or a
        float at one row index."""
        col = np.sum(self._dual() ** 2, axis=1) + self.r_feas**2
        return col if row is None else float(col[row])

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
        # .tolist() gives Python floats, whose repr is _fmt's, and a NaN cell
        # ("nan") is written empty
        rows = self._table[: self._len, : self.n_blocks + 4].tolist()
        return "".join(f"{lead}{k},{','.join(map(repr, row)).replace('nan', '')}\n" for k, row in enumerate(rows))


def _distinct(build, orders) -> tuple:
    """build(order) for each distinct order, in the order of first
    appearance, and for each order the index of its result."""
    index = {o: i for i, o in enumerate(dict.fromkeys(orders))}
    return [build(o) for o in index], list(map(index.__getitem__, orders))


def _largest(dual: np.ndarray, feas: np.ndarray) -> np.ndarray:
    """max(max(dual row), feas) for each row, as Python's max takes it: a
    NaN feas is passed over."""
    worst = dual.max(axis=1)
    return np.where(feas > worst, feas, worst)


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


def _prox_step(f: ProxFn, r: float, dim: int):
    """(v, out) -> None that writes prox_eval(f, r, v) into out, bit for bit,
    with the term's parameters and temporaries laid out once; v is scratch,
    which the step may overwrite. l1 and box terms take in-place ufuncs;
    other kinds call prox_eval on a copy of v, which user code may keep."""
    if f.kind == "l1":
        # prox_eval's sign(v) * max(|v| - lam / r, 0); ufuncs take 0-d array
        # operands faster than Python floats
        cut, zero, t = np.array(f.params["lam"] / r), np.zeros(()), np.empty(dim)

        def soft_threshold(v, out):
            np.abs(v, out=t)
            np.subtract(t, cut, out=t)
            np.maximum(t, zero, out=t)
            np.multiply(np.sign(v, out=v), t, out=out)

        return soft_threshold
    if f.kind == "box":
        # the broadcast views prox_eval clips against: another memory layout
        # can take another clip loop, which may differ in the sign of a zero
        lo, hi = _box_bounds(f, dim)
        return lambda v, out: v.clip(lo, hi, out=out)

    def call(v, out):
        out[...] = prox_eval(f, r, v.copy())

    return call


def check_block_solvable(K: np.ndarray, i: int) -> None:
    """Reject block i's direct subproblem matrix K when it is singular: the
    block's update in an ordered sweep is then not unique."""
    singular, w_min = singular_sym(K)
    if singular:
        raise ConditionError(
            f"block {i}: subproblem matrix is singular (min eigenvalue {w_min:.3e}), "
            "so ordered sweeps are not uniquely solvable"
        )


class _Workspace:
    """Validated configuration plus the per-run data every sweep shares.

    Write z = (x, mu) and S = H + beta A'A. When block i is updated its value
    still equals its proximal anchor, so the new value is one affine map of
    the current z, v = W_i z + c_i, followed for prox blocks by the prox of
    the block's term with weight prox_weight[i] (None for direct blocks and
    zero terms). The maps are built here; the block-by-block sweep steps
    and the row observer on first use.

    bcd and bcpg need an instance without constraint rows; the two-block
    variants need two blocks and the two-block uniqueness condition.

    With min_norm set, a direct block whose subproblem matrix is singular
    takes the minimum-norm solution instead of raising ConditionError; the
    subproblem must then be bounded below for every z, which is checked once
    here.

    When every block is direct, a whole sweep is one affine map of z (see
    sweep_map). It is composed when the maps of all n_orders block orders the
    run can draw (1 for a cyclic run, n! for a randomly permuted one) fit in
    SWEEP_MAP_BYTES, a rule of the instance, the variant and the kind of run
    alone; otherwise, and with any prox block, the blocks are swept one at a
    time.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, min_norm: bool = False, n_orders: int = 1):
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
        S = inst.curvature(self.beta)
        self.W, self.c, self.prox_weight = zip(*(self._block_update(S, i) for i in range(n)))
        if two_block:
            # measured on the effective R_i, which user curvatures r can make indefinite
            cond = _uniqueness_condition(inst, self.R_eff, "two_block_full")
            if not cond.satisfied:
                raise ConditionError(
                    f"two-block uniqueness condition fails (min eigenvalue {cond.min_eigenvalue:.3e}); "
                    "see check_uniqueness_condition"
                )
        # each block order's composed sweep; None when the blocks are swept
        # one at a time
        size = self.d + inst.blocks.m
        composed = all(r is None for r in self.prox_weight) and n_orders * 8 * size * (size + 1) <= SWEEP_MAP_BYTES
        self.maps = {} if composed else None

    def _block_update(self, S: np.ndarray, i: int) -> tuple:
        """W_i, c_i and the weight of block i's prox (None for a direct
        block)."""
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
            return -row / r, -lin / r, None if inst.theta[i].kind == "zero" else r
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
            check_block_solvable(K, i)
            return -np.linalg.solve(K, row), -np.linalg.solve(K, lin), None
        ridge = float(np.trace(G)) / d_i
        off = max_abs(G - ridge * np.eye(d_i))
        if not ridge > 0 or off > 1e-10 * max(1.0, abs(ridge)):
            raise SubproblemStructureError(
                f"block {i} (kind {f.kind!r}): effective quadratic is not a scaled "
                f"identity, so no closed-form subproblem exists; {self._structure_advice(i)}"
            )
        return -row / ridge, -lin / ridge, ridge

    def _structure_advice(self, i: int) -> str:
        """The remedy for block i's subproblem that applies to this instance:
        a linearized variant where one exists, else a scalar proximal term."""
        blocks = self.inst.blocks
        variants = (("admm2_linearized", blocks.n == 2), ("bcpg", blocks.m == 0))
        return " or ".join(f"use variant {v}" for v, fits in variants if fits) or (
            f"set R[{i}] = r I - B_{i}, with B_{i} = H_{i}{i} + beta A_{i}'A_{i} and r at least its top "
            "eigenvalue, as linearization_proximal gives"
        )

    # -- sweeps --------------------------------------------------------

    @functools.cached_property
    def sweep_steps(self) -> tuple:
        """advance's block-by-block sweep, laid out on first use: per block
        (W_i, c_i, its slice, a buffer for v, its prox step or None), then
        a buffer for the multiplier step and its rate gamma * beta."""
        blocks = zip(self.W, self.c, self.slices, self.inst.blocks.dims, self.prox_weight, self.inst.theta)
        steps = tuple(
            (W, c, sl, np.empty(dim), None if r is None else _prox_step(f, r, dim))
            for W, c, sl, dim, r, f in blocks
        )
        return steps, np.empty(self.inst.blocks.m), np.array(self.gamma * self.beta)

    def advance(self, z: np.ndarray, order) -> None:
        """One sweep of z = (x, mu) in place, in `order`, each block against
        the latest values, then the multiplier step: the composed map of the
        order when the run composes, else block by block."""
        # ndarray.dot rather than @: on vectors this short the matmul
        # ufunc's per-call overhead outweighs the arithmetic
        if self.maps is not None:
            T, t = self.sweep_map(order)
            np.add(T.dot(z), t, out=z)
            return
        steps, res, rate = self.sweep_steps
        x = z[: self.d]
        for i in order:
            W, c, sl, v, prox = steps[i]
            W.dot(z, out=v)
            np.add(v, c, out=v)
            if prox is None:
                x[sl] = v
            else:
                prox(v, x[sl])
        if res.size:
            mu = z[self.d :]
            self.inst.A.dot(x, out=res)
            np.subtract(res, self.inst.b, out=res)
            np.multiply(rate, res, out=res)
            np.subtract(mu, res, out=mu)

    def sweep_map(self, order) -> tuple:
        """(T, t) with one all-direct sweep in `order` equal to z -> T z + t:
        each block's rows become W_i times the map so far, plus c_i, and the
        multiplier rows take the step. Kept per order when the run composes,
        whose rule keeps every order it can draw within SWEEP_MAP_BYTES."""
        Tt = None if self.maps is None else self.maps.get(order)
        if Tt is None:
            d, A = self.d, self.inst.A
            T, t = np.eye(d + A.shape[0]), np.zeros(d + A.shape[0])
            for i in order:
                sl = self.slices[i]
                T[sl] = self.W[i] @ T
                t[sl] = self.W[i] @ t + self.c[i]
            step = self.gamma * self.beta
            T[d:] -= step * (A @ T[:d])
            t[d:] -= step * (A @ t[:d] - self.inst.b)
            Tt = (T, t)
            if self.maps is not None:
                self.maps[order] = Tt
        return Tt

    def block_maps(self, orders) -> tuple:
        """(T, t, at) for a block of composed sweeps of a stack of runs, run
        j sweeping in the orders listed in orders[j]: sweep k + 1 of run j
        applies the sweep_map (T[at[k, j]], t[k, j]). The map of each
        distinct order is looked up once; a block swept in one order has at
        None, T its map and t its shift broadcast."""
        nb, runs = len(orders[0]), len(orders)
        maps, at = _distinct(self.sweep_map, [run[k] for k in range(nb) for run in orders])
        if len(maps) == 1:
            T, t = maps[0]
            return T, np.broadcast_to(t, (nb, 1, len(t))), None
        at = np.reshape(at, (nb, runs))
        return np.stack([T for T, _ in maps]), np.stack([t for _, t in maps])[at], at

    # -- rows ------------------------------------------------------------

    @functools.cached_property
    def observer(self) -> _Observer:
        return _Observer(self.inst)

    @functools.cached_property
    def surrogate_base(self) -> np.ndarray:
        """S with each diagonal block replaced by -R_i."""
        base = self.inst.curvature(self.beta)
        for sl, R in zip(self.slices, self.R_eff):
            base[sl, sl] = -R
        return base

    def surrogate_matrix(self, order) -> np.ndarray:
        """The surrogate matrix U of a block order: surrogate_base with the
        blocks that come earlier in the order than the row block zeroed."""
        U = self.surrogate_base.copy()
        for p, i in enumerate(order):
            for j in order[:p]:
                U[self.slices[i], self.slices[j]] = 0.0
        return U

    def surrogate_parts(self, DX: np.ndarray, RES: np.ndarray, orders, U=None) -> np.ndarray:
        """Per-block norms of the exact optimality shift from each sweep, one
        row per sweep: a sweep in orders[j] that moved x by DX[j] leaves block
        i stationary up to -R_i dx_i + sum over later blocks of
        (H_ij + beta A_i'A_j) dx_j, plus a multiplier-stepsize correction in
        RES[j] = Ax - b when gamma differs from one.

        Each row's product is one gemv with its order's U, as U.dot(dx). U,
        when given, is the surrogate_matrix of the one order of every row.
        Otherwise, when all rows share an order its U is built once; else
        each row's U is masked by the blocks' positions pe in its order, in
        chunks of rows whose matrices take at most SURROGATE_CHUNK_BYTES.
        """
        if U is None:
            distinct, at = _distinct(tuple, orders)
            if len(distinct) == 1:
                U = self.surrogate_matrix(distinct[0])
        if U is not None:
            V = _gemv(U, DX)
        else:
            base = self.surrogate_base
            # ndarray methods: np.argsort on a list takes a slow fallback
            pe = np.array(distinct).argsort(axis=1).repeat(self.inst.blocks.dims, axis=1)[at]
            V = np.empty_like(DX)
            step = max(1, SURROGATE_CHUNK_BYTES // base.nbytes)
            for lo in range(0, len(pe), step):
                rows = slice(lo, lo + step)
                U = base * (pe[rows, None, :] >= pe[rows, :, None])
                V[rows] = np.matmul(U, DX[rows, :, None])[:, :, 0]
        if self.gamma != 1.0:
            V -= self.beta * (1.0 - self.gamma) * _gemv(self.At, RES)
        return np.sqrt(np.add.reduceat(V * V, self.offsets, axis=1))

    def observe(self, Z: np.ndarray, RES: np.ndarray, X_prev: np.ndarray, orders=None, merit=None, U=None) -> tuple:
        """Trace.extend's columns for the points z = (x, mu) in the rows of Z,
        with RES holding each row's Ax - b: row j came from x = X_prev[j] by
        one sweep in orders[j], whose surrogate matrix U may be given when
        every row has the same order. Without orders the points came from no
        sweep and have no surrogate. merit, a (weights, reference) pair,
        fills the lyapunov column."""
        d = self.d
        X, MU = Z[:, :d], Z[:, d:]
        r_dual, objective = self.observer.rows(X, MU)
        r_feas = np.sqrt(_dots(RES, RES))
        if orders is None:
            surrogate, parts = math.nan, math.inf
        else:
            parts = self.surrogate_parts(X - X_prev, RES, orders, U)
            # r_feas squared by Python's float pow, which rounds otherwise than
            # r * r (array ** 2) on a few values; the per-row recording in
            # tests/oracles.py pins it
            surrogate = np.sqrt(_dots(parts, parts) + [r**2 for r in r_feas.tolist()])
        lyapunov = math.nan if merit is None else _merit_rows(self.beta, *merit, X, X_prev, MU)
        return r_dual, r_feas, surrogate, objective, lyapunov, parts


def step(inst: ProblemInstance, cfg: SolverConfig, state: IterateState, order=None) -> IterateState:
    """One sweep of cfg.variant followed by the multiplier update with
    stepsize gamma * beta (nothing to update without constraint rows).

    The blocks are updated in `order`, a permutation of 0..n-1; None means
    the cyclic order 0, 1, ..., n-1. The randomly permuted scheme is this
    step with variant admm_cyclic_n, gamma 1 and a fresh uniform order per
    sweep. A step in a given order composes as a randomly permuted run
    does, and one in the cyclic order as run_solver does.
    """
    n, d = inst.blocks.n, inst.blocks.d
    ws = _Workspace(inst, cfg, n_orders=1 if order is None else math.factorial(n))
    z = np.concatenate([state.x, state.mu])
    ws.advance(z, tuple(range(n)) if order is None else check_order(order, n))
    return IterateState(x=z[:d], x_prev=state.x.copy(), mu=z[d:], k=state.k + 1)


# -- full runs -------------------------------------------------------------

# sweeps a run makes before it observes them; private, as the rows it keeps
# do not depend on it
SWEEP_BLOCK = 64


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
    state = IterateState.start(inst, x0, mu0)
    return _drive(ws, [state], None, keep_iterates, reference=reference)[0]


# the square of DIVERGENCE_LIMIT, rounded
_LIMIT_SQ = DIVERGENCE_LIMIT * DIVERGENCE_LIMIT


def _past_limit(Z: np.ndarray):
    """Which rows of Z are NaN or exceed DIVERGENCE_LIMIT in absolute value,
    row by row as `not max_abs(z) <= DIVERGENCE_LIMIT` decides, or None when
    none is.

    One sum of squares of all of Z decides first: it is at least the rounded
    square of each entry, which is at most _LIMIT_SQ only for entries within
    the limit, and a NaN makes it NaN. Only when it exceeds _LIMIT_SQ are the
    rows' largest magnitudes taken. np.vdot, unlike ndarray.dot, warns on no
    overflow, so a row far past the limit raises no new warning.
    """
    if np.vdot(Z, Z) <= _LIMIT_SQ:
        return None
    return ~(np.abs(Z).max(axis=1) <= DIVERGENCE_LIMIT)


def _drive(ws, starts, streams, keep_iterates, reference=None) -> list:
    """The run loop of every variant, for a stack of independent runs that
    share the workspace: run j starts at the IterateState starts[j] and
    sweeps in the orders that the iterator streams[j] yields, or in the
    cyclic order when streams is None, whose surrogate matrix the call then
    builds once. Each run
    observes its start point, then sweeps until its largest residual
    component falls to the tolerance, the divergence guard trips, or
    max_iter sweeps have run. Returns one Trace per run, each bit for bit
    the trace of that run driven alone.

    The runs sweep in lockstep, up to SWEEP_BLOCK sweeps at a time. When the
    workspace composes, one sweep of every run in the stack is one stacked
    product with the maps of the runs' orders (block_maps looks each
    distinct order up once per block); otherwise each run sweeps block by
    block (advance). The divergence guard is checked after every sweep, on
    the whole stack at once (_past_limit), and a run whose row trips it
    leaves the stack at that row, so no run sweeps past a diverging row. A
    run with an opaque term, whose sweeps and objective call user code,
    stops on the surrogate bound, which calls none: it takes that test after
    every sweep and leaves the stack at its stop, so no user code runs past
    any run's stop. The user code of different runs is called interleaved.

    Each block's rows of all runs, those of the runs that left in it
    included, are observed in one call, with stacked products whose rows
    equal the one-row products bit for bit (Ax - b among them). A run keeps
    its rows up to the first that converged and leaves the stack there; the
    sweeps past it were speculative and are dropped, with the orders they
    drew from the run's own stream.
    """
    inst, d = ws.inst, ws.d
    A, rhs = inst.A, inst.b
    U = None
    if streams is None:
        cyclic = tuple(range(ws.n))
        streams, U = [itertools.repeat(cyclic)] * len(starts), ws.surrogate_matrix(cyclic)
    exact = ws.observer.exact
    tol = ws.cfg.tol
    merit = None if reference is None else (merit_weight_matrices(inst, ws.beta, ws.R_eff), reference)
    traces = [Trace(ws.n, exact_residuals=exact, d=d if keep_iterates else None) for _ in starts]
    last = np.array([np.concatenate([state.x, state.mu]) for state in starts])
    cols = ws.observe(last, _gemv(A, last[:, :d]) - rhs, last[:, :d], merit=merit)
    live = []
    for j, trace in enumerate(traces):
        trace.warnings.extend(ws.warnings)
        trace.extend(*_rows(cols, slice(j, j + 1)), path=last[j : j + 1])
        if exact and trace.max_residual(0) <= tol:
            trace.status = "converged"
            _end(trace, last[j], d)
        else:
            live.append(j)
    last = last[live]
    size = last.shape[1]
    left = int(ws.cfg.max_iter)
    while live:
        nb = min(SWEEP_BLOCK, left)
        left -= nb
        orders = [list(itertools.islice(streams[j], nb)) for j in live]
        maps = None if ws.maps is None else ws.block_maps(orders)
        # row 0 holds each run's last point observed, rows 1.. its sweeps since
        Z = np.empty((nb + 1, len(live), size))
        Z[0] = last
        # the runs that leave the stack within the block, as (run, its rows
        # 0..b, its orders, whether row b tripped the guard)
        gone = []
        for b in range(1, nb + 1):
            if maps is not None:
                T, t, at = maps
                np.matmul(T if at is None else T[at[b - 1]], Z[b - 1, :, :, None], out=Z[b, :, :, None])
                Z[b] += t[b - 1]
            else:
                Z[b] = Z[b - 1]
                for z, run in zip(Z[b], orders):
                    ws.advance(z, run[b - 1])
            diverged = leave = _past_limit(Z[b])
            if not exact:
                leave = np.zeros(len(live), dtype=bool) if diverged is None else diverged.copy()
                on = np.flatnonzero(~leave)
                if on.size:
                    X = Z[b, on, :d]
                    res = _gemv(A, X) - rhs
                    parts = ws.surrogate_parts(X - Z[b - 1, on, :d], res, [orders[i][b - 1] for i in on], U)
                    leave[on] = _largest(parts, np.sqrt(_dots(res, res))) <= tol
            if leave is None or not leave.any():
                continue
            for i in np.flatnonzero(leave):
                guard = diverged is not None and bool(diverged[i])
                gone.append((live[i], Z[: b + 1, i].copy(), orders[i][:b], guard))
            keep = np.flatnonzero(~leave)
            live, orders, Z = [live[i] for i in keep], [orders[i] for i in keep], Z[:, keep]
            if not live:
                break
            if maps is not None:
                maps = ws.block_maps(orders)
        block = gone + [(j, Z[:, i], run, False) for i, (j, run) in enumerate(zip(live, orders))]
        # one observation of the block's rows, run by run
        X = np.concatenate([rows[1:] for _, rows, _, _ in block])
        X_prev = np.concatenate([rows[:-1, :d] for _, rows, _, _ in block])
        flat = [order for _, _, run, _ in block for order in run]
        cols = ws.observe(X, _gemv(A, X[:, :d]) - rhs, X_prev, flat, merit, U)
        hit = _largest(cols[0] if exact else cols[5], cols[1]) <= tol
        live, last, lo = [], [], 0
        for k, (j, rows, run, guard) in enumerate(block):
            trace, sel = traces[j], slice(lo, lo + len(run))
            lo += len(run)
            row = len(trace)
            trace.extend(*_rows(cols, sel), path=rows[1:])
            # the guard row stops the run as diverged whatever its residual
            done = np.flatnonzero(hit[sel][: len(run) - guard])
            end = rows[-1]
            if done.size:
                trace.status = "converged"
                trace.truncate(row + int(done[0]) + 1)
                end = rows[int(done[0]) + 1]
            elif guard:
                trace.status = "diverged"
            elif k >= len(gone) and left:
                live.append(j)
                last.append(end)
                continue
            _end(trace, end, d)
    return traces


def _rows(cols, sel) -> list:
    """The rows `sel` of observed columns; a column given as one value for
    every row stays that value."""
    return [c[sel] if np.ndim(c) else c for c in cols]


def _end(trace: Trace, z: np.ndarray, d: int) -> None:
    """Set a stopped run's final point z = (x, mu)."""
    trace.x = z[:d].copy()
    trace.mu = z[d:].copy()


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


def _merit_rows(beta, weights, reference, X, X_prev, MU) -> np.ndarray:
    """The merit value at each row pair (x, mu) of X and MU, reached from
    x = X_prev[j]; each row equals the one-row formula bit for bit."""
    DX = X - np.asarray(reference.x, dtype=float)
    sl2 = weights["slice2"]
    DMU = MU - np.asarray(reference.mu, dtype=float)
    BACK = X[:, sl2] - X_prev[:, sl2]
    return (
        0.875 * _quad_rows(DX, weights["level"])
        + 0.5 * _quad_rows(DX[:, sl2], weights["level_b2"])
        + (0.5 / beta) * _dots(DMU, DMU)
        + 0.5 * _quad_rows(BACK, weights["R2"])
    )


def _drop_floor_rows(beta, weights, DX, DMU) -> np.ndarray:
    """The guaranteed merit drop of each step that moved x by a row of DX
    and mu by the same row of DMU; each row equals the one-row formula bit
    for bit."""
    sl2 = weights["slice2"]
    return (
        _quad_rows(DX, weights["drop"]) / 16.0
        + _quad_rows(DX[:, sl2], weights["drop_b2"]) / 6.0
        + (0.5 / beta) * _dots(DMU, DMU)
    )


def _merit_weights(inst: ProblemInstance, cfg: SolverConfig) -> dict:
    return merit_weight_matrices(inst, cfg.beta, _proximal_matrices(inst, cfg)[1])


def lyapunov_value(inst: ProblemInstance, cfg: SolverConfig, state: IterateState, reference: KKTPoint) -> float:
    """Merit value of a two-block iterate against a stationary reference:
    a weighted squared distance to the reference plus a back-difference term,
    nonincreasing along constrained two-block runs with unit dual stepsize."""
    weights = _merit_weights(inst, cfg)
    return float(_merit_rows(cfg.beta, weights, reference, state.x[None], state.x_prev[None], state.mu[None])[0])


def lyapunov_decrease_floor(
    inst: ProblemInstance, cfg: SolverConfig, prev: IterateState, nxt: IterateState
) -> float:
    """Guaranteed minimum drop of the merit value across one step, evaluated
    from the two consecutive iterates."""
    dx, dmu = nxt.x - prev.x, nxt.mu - prev.mu
    return float(_drop_floor_rows(cfg.beta, _merit_weights(inst, cfg), dx[None], dmu[None])[0])


def min_kkt_sq_curve(trace: Trace) -> np.ndarray:
    """Series of (k, k * running minimum of the summed squared residual),
    over the generated iterates (k >= 1). The residual triple is exact when
    the trace has exact residuals and the surrogate bound otherwise."""
    if len(trace) < 2:
        raise UsageError("trace has no generated iterates")
    # Trace.total_sq's column; a NaN row never lowers the running minimum
    total = trace.total_sq()[1:]
    best = np.minimum.accumulate(np.where(np.isnan(total), math.inf, total))
    k = np.arange(1.0, len(trace))
    return np.column_stack([k, k * best])
