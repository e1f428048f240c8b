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
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

try:  # the ufunc ndarray.clip calls with both bounds, without its wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from ._csvtext import csv_lines
from ._linalg import BETA_MAX, CURVATURE_WARN_RTOL, MIN_NORM_RTOL, SCALED_IDENTITY_RTOL, floored
from ._linalg import block_diag, max_abs, singular_sym, sym_part
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
    """Reject a penalty weight that is not a positive number of at most
    BETA_MAX."""
    if not 0.0 < beta <= BETA_MAX:
        raise UsageError(f"beta must be positive and at most {BETA_MAX!r}, not {beta!r}")


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
            if any(not 0.0 < float(v) < math.inf for v in self.r):
                raise UsageError("every linearization curvature r_i must be positive and finite")
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
        x = _start_vector(x0, inst.blocks.d, "x0")
        mu = _start_vector(mu0, inst.blocks.m, "mu0")
        # the back-difference term is zero before any step has been taken
        return cls(x=x, x_prev=x.copy(), mu=mu, k=0)


def _start_vector(value, size: int, name: str) -> np.ndarray:
    """A start point as a new float vector of `size` entries, zeros when
    value is None; one with another number of entries is a StructuralError
    naming the argument."""
    if value is None:
        return np.zeros(size)
    v = np.array(value, dtype=float)
    if v.size != size:
        raise StructuralError(f"{name} has {v.size} entries, expected {size}")
    return v.reshape(size)


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
        _write_artifact(path, self.csv_text(header_lines))

    def csv_text(self, header_lines=()) -> str:
        """The text of trace.csv: the header lines and warnings as comments,
        the column names, the rows and the status."""
        head = "".join(f"# {line}\n" for line in header_lines)
        head += "".join(f"# warning: {w}\n" for w in self.warnings)
        notes = [(0, head + self.csv_columns()), (self._len, f"# status={self.status}\n")]
        return csv_lines(self.csv_cells(), self._lead(), notes=notes)

    def csv_columns(self) -> str:
        cols = ["k"] if self.trial is None else ["trial", "k"]
        cols += [f"r_dual_{i + 1}" for i in range(self.n_blocks)]
        cols += ["r_feas", "surrogate", "objective", "lyapunov"]
        return ",".join(cols) + "\n"

    def csv_cells(self) -> np.ndarray:
        """The columns the CSV writes, one row per recorded row."""
        return self._table[: self._len, : self.n_blocks + 4]

    def csv_rows(self) -> str:
        """One CSV line per recorded row, led by the trial number when set;
        each cell is its float's repr, and a NaN cell is empty."""
        return csv_lines(self.csv_cells(), self._lead())

    def _lead(self) -> tuple:
        ks = np.arange(self._len)
        return (ks,) if self.trial is None else (np.full(self._len, self.trial), ks)


def _ranks(orders: np.ndarray) -> np.ndarray:
    """The rank of each order along the last axis of an int array, its index
    in itertools.permutations(range(n)): its Lehmer code (how many later
    entries are smaller, position by position) read in factorial base."""
    later = np.triu(orders[..., :, None] > orders[..., None, :], 1).sum(axis=-1)
    return later @ [math.factorial(k) for k in reversed(range(orders.shape[-1]))]


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
    """Write an artifact whole: encode the text built in memory (UTF-8, with
    the undecodable bytes of a file name given back as they were), then
    truncate the file and write the bytes. An encoding error leaves the file
    as it was; a rewrite is not atomic."""
    data = memoryview(text.encode("utf-8", "surrogateescape"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


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
        w = np.linalg.eigvalsh(sym_part(B))
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
        if r[i] < r_auto * (1.0 - CURVATURE_WARN_RTOL)
    ]
    R_eff = [r[i] * np.eye(d_i) - inst.block_curvature(i, cfg.beta) for i, d_i in enumerate(inst.blocks.dims)]
    return r, R_eff, warnings


def _prox_calls(f: ProxFn, r: float, v: np.ndarray, out: np.ndarray) -> tuple:
    """Calls, bound to v, out and temporaries laid out once, that write
    prox_eval(f, r, v) into out bit for bit; v is scratch, which they may
    overwrite. l1 and box terms take in-place ufuncs; other kinds call
    prox_eval on a copy of v, which user code may keep."""
    if f.kind == "l1":
        # prox_eval's sign(v) * max(|v| - cut, 0) as v - clip(v, -cut, cut) with
        # sign(v)'s sign, which signs a zero as prox_eval does; 0-d arrays and
        # positional outs are faster than floats and out=
        cut, s, t = np.array(f.params["lam"] / r), np.empty(len(v)), np.empty(len(v))
        return (partial(np.sign, v, s), partial(_clip, v, -cut, cut, t), partial(np.subtract, v, t, out),
                partial(np.copysign, out, s, out))
    if f.kind == "box":
        # the broadcast views prox_eval clips against: another memory layout
        # can take another clip loop, which may differ in the sign of a zero
        return (partial(_clip, v, *_box_bounds(f, len(v)), out),)
    return (partial(_prox_into, f, r, v, out),)


def _prox_into(f: ProxFn, r: float, v: np.ndarray, out: np.ndarray) -> None:
    out[...] = prox_eval(f, r, v.copy())


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
    zero terms). The maps are built here; the row observer and the
    block-by-block sweep, calls bound to one iterate buffer, on first use.

    bcd and bcpg need an instance without constraint rows; the two-block
    variants need two blocks and the two-block uniqueness condition.

    With min_norm set, a direct block whose subproblem matrix is singular
    takes the minimum-norm solution instead of raising ConditionError; the
    subproblem must then be bounded below for every z, which is checked once
    here.

    When every block is direct, a whole sweep is one affine map of z (see
    sweep_map). It is composed when the maps of all block orders the run can
    draw (n! when random_orders is set, else the one cyclic order) fit in
    SWEEP_MAP_BYTES, a rule of the instance, the variant and the kind of run
    alone; otherwise, and with any prox block, the blocks are swept one at a
    time. A randomly permuted run that composes keeps every order's map in
    one table, sweep_table; nothing else keeps a composed map.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, min_norm: bool = False, random_orders: bool = False):
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
        # whether sweeps are composed maps rather than swept block by block
        size = self.d + inst.blocks.m
        n_orders = math.factorial(n) if random_orders else 1
        self.composed = all(r is None for r in self.prox_weight) and n_orders * 8 * size * (size + 1) <= SWEEP_MAP_BYTES

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
                if np.any(np.abs(K @ sol + rhs).max(axis=0) > MIN_NORM_RTOL * (1.0 + np.abs(rhs).max(axis=0))):
                    raise UsageError(f"block {i} subproblem is unbounded below")
                return sol[:, :-1], sol[:, -1], None
            check_block_solvable(K, i)
            return -np.linalg.solve(K, row), -np.linalg.solve(K, lin), None
        ridge = float(np.trace(G)) / d_i
        off = max_abs(G - ridge * np.eye(d_i))
        if not ridge > 0 or off > floored(SCALED_IDENTITY_RTOL, abs(ridge)):
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
        """(z, each block's calls, the multiplier step's calls): the sweep as
        calls bound to one iterate buffer z = (x, mu), its block views x_i,
        temporaries and 0-d constants; block i's write W_i z + c_i into v_i,
        then v_i or its prox into x_i."""
        d, m = self.d, self.inst.blocks.m
        z, blocks = np.empty(d + m), []
        x, mu = z[:d], z[d:]
        for W, c, sl, r, f in zip(self.W, self.c, self.slices, self.prox_weight, self.inst.theta):
            x_i, v = x[sl], np.empty(sl.stop - sl.start)
            # ndarray.dot rather than @: on vectors this short the matmul
            # ufunc's per-call overhead outweighs the arithmetic
            update = (partial(W.dot, z, v), partial(np.add, v, c, v))
            blocks.append(update + ((partial(np.copyto, x_i, v),) if r is None else _prox_calls(f, r, v, x_i)))
        res, rate = np.empty(m), np.array(self.gamma * self.beta)
        multiplier = (partial(self.inst.A.dot, x, res), partial(np.subtract, res, self.inst.b, res),
                      partial(np.multiply, rate, res, res), partial(np.subtract, mu, res, mu))
        return z, blocks, multiplier if m else ()

    def sweep_calls(self, order) -> list:
        """The calls of one block-by-block sweep in `order`, as one list."""
        _, blocks, multiplier = self.sweep_steps
        return [*itertools.chain(*map(blocks.__getitem__, order)), *multiplier]

    def sweep_rows(self, rows, sweeps) -> None:
        """rows[k] from rows[k - 1] by the block-by-block sweep whose calls
        (a sweep_calls list) sweeps yields k-th, for k = 1, 2, ...: rows[0]
        is loaded into the buffer once, and each sweep runs its calls and is
        stored into its row."""
        z = self.sweep_steps[0]
        np.copyto(z, rows[0])
        for row, calls in zip(rows[1:], sweeps):
            for f in calls:
                f()
            np.copyto(row, z)

    def order_sweep(self, order):
        """The function that fills rows[1:] of a 2-d array from rows[0] by
        sweeps in the one `order`: the order's composed map (_affine_rows)
        when the workspace composes, else its block-by-block calls
        (sweep_rows)."""
        if self.composed:
            return partial(_affine_rows, *self.sweep_map(order))
        calls = self.sweep_calls(order)
        return lambda rows: self.sweep_rows(rows, itertools.repeat(calls))

    def sweep_map(self, order) -> tuple:
        """(T, t) with one all-direct sweep in `order` equal to z -> T z + t:
        the one-order case of _compose, not kept; its bits are those of the
        order's row of sweep_table."""
        T, t = self._compose(np.array([order]))
        return T[0], t[0]

    @functools.cached_property
    def sweep_table(self) -> tuple:
        """(T, t) of shape (n!, d+m, d+m) and (n!, d+m): row r is the
        sweep_map of the order of rank r (_ranks), all composed at once."""
        return self._compose(np.array(list(itertools.permutations(range(self.n)))))

    def _compose(self, orders: np.ndarray) -> tuple:
        """(T, t) of shape (k, d+m, d+m) and (k, d+m) with row r the sweep in
        orders[r], a (k, n) int array, as z -> T z + t. All orders are
        composed at once, position by position: at each position, for each
        block i present there, the rows of i of the orders that put it there
        become W_i times the map so far, plus c_i, in one stacked product;
        then the multiplier rows of all orders take the step in one."""
        d, A = self.d, self.inst.A
        T = np.tile(np.eye(d + A.shape[0]), (len(orders), 1, 1))
        t = np.zeros(T.shape[:2])
        for column in orders.T:  # the block each order sweeps at one position
            present = set(column.tolist())
            for i in present:
                # every order, as a view, when all of them sweep block i here
                here = column == i if len(present) > 1 else slice(None)
                W, sl = self.W[i], self.slices[i]
                T[here, sl] = np.matmul(W, T[here])
                t[here, sl] = _gemv(W, t[here]) + self.c[i]
        step = self.gamma * self.beta
        T[:, d:] -= step * np.matmul(A, T[:, :d])
        t[:, d:] -= step * (_gemv(A, t[:, :d]) - self.inst.b)
        return T, t

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

    def surrogate_matrix(self, orders) -> np.ndarray:
        """The surrogate matrix U of a block order, or a stack of them, one
        per row of a 2-d int array of orders: surrogate_base masked by the
        blocks' positions pe in the order, so that the blocks that come
        earlier in the order than the row block are zero."""
        # ndarray methods: np.argsort on a list takes a slow fallback
        pe = np.asarray(orders).argsort(axis=-1).repeat(self.inst.blocks.dims, axis=-1)
        return self.surrogate_base * (pe[..., None, :] >= pe[..., :, None])

    def surrogate_parts(self, DX: np.ndarray, RES: np.ndarray, orders, U=None) -> np.ndarray:
        """Per-block norms of the exact optimality shift from each sweep, one
        row per sweep: a sweep in orders[j] that moved x by DX[j] leaves block
        i stationary up to -R_i dx_i + sum over later blocks of
        (H_ij + beta A_i'A_j) dx_j, plus a multiplier-stepsize correction in
        RES[j] = Ax - b when gamma differs from one.

        Each row's product is one gemv with its order's U, as U.dot(dx). U,
        when given, is the surrogate_matrix of the one order of every row.
        Otherwise each row's U is built from its order (orders is an int
        array or a list, one order a row), in chunks of rows whose matrices
        take at most SURROGATE_CHUNK_BYTES.
        """
        if U is not None:
            V = _gemv(U, DX)
        else:
            orders = np.asarray(orders)
            V = np.empty_like(DX)
            step = max(1, SURROGATE_CHUNK_BYTES // self.surrogate_base.nbytes)
            for lo in range(0, len(orders), step):
                rows = slice(lo, lo + step)
                V[rows] = np.matmul(self.surrogate_matrix(orders[rows]), DX[rows, :, None])[:, :, 0]
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
    ws = _Workspace(inst, cfg, random_orders=order is not None)
    rows = np.empty((2, d + inst.blocks.m))
    rows[0, :d], rows[0, d:] = _start_vector(state.x, d, "x"), _start_vector(state.mu, inst.blocks.m, "mu")
    ws.order_sweep(tuple(range(n)) if order is None else check_order(order, n))(rows)
    z = rows[1]
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


def _drive(ws, starts, draws, keep_iterates, reference=None) -> list:
    """The run loop of every variant, for a stack of independent runs that
    share the workspace: run j starts at the IterateState starts[j] and
    sweeps in the orders that draws[j](k) returns k at a time, as a (k, n)
    int array, one order a row, or in the cyclic order when draws is None,
    whose surrogate matrix and order_sweep the call then builds once. Each
    run observes its start point, then sweeps until its largest residual
    component falls to the tolerance, the divergence guard trips, or
    max_iter sweeps have run. Returns one Trace per run, each bit for bit
    the trace of that run alone.

    The runs sweep in lockstep, a block of sweeps at a time (_sweep_block),
    and each run draws a block's orders as the block starts. The first
    block is SWEEP_BLOCK sweeps and each later one is sized from the runs'
    own rows (_block_length), never from timing, so no row depends on it.
    A run with an opaque term, whose sweeps and objective call user code,
    sweeps blocks of one sweep and stops on the surrogate bound, so no user
    code runs past any run's stop.

    Each run sweeps its whole block with no test inside it, then checks the
    divergence guard once on all the block's rows and keeps its rows up to
    its first row past the limit. Without an opaque term those sweeps and
    that check run with overflow and invalid operations ignored
    (np.errstate), so neither a kept guard row nor the dropped rows past it
    warn while swept; kept rows warn as usual when observed. With one they
    keep numpy's settings, so user code warns as it would alone.

    Each block's swept rows of all runs are observed in one call, with
    stacked products whose rows equal the one-row products bit for bit
    (Ax - b among them). A run's trace takes its rows up to the first that
    converged or tripped the guard, and the run leaves the stack there; the
    sweeps past it were speculative and are dropped, with the orders they
    drew from the run's own draws.
    """
    inst, d, n = ws.inst, ws.d, ws.n
    A, rhs = inst.A, inst.b
    U = sweep = None
    if draws is None:
        cyclic = tuple(range(n))
        U, sweep = ws.surrogate_matrix(cyclic), ws.order_sweep(cyclic)
        # one read-only view of the cyclic order, k times over
        draws = [lambda k: np.broadcast_to(cyclic, (k, n))] * len(starts)
    exact = ws.observer.exact
    tol = ws.cfg.tol
    merit = None if reference is None else (merit_weight_matrices(inst, ws.beta, ws.R_eff), reference)
    traces = [Trace(n, exact_residuals=exact, d=d if keep_iterates else None) for _ in starts]
    last = np.array([np.concatenate([state.x, state.mu]) for state in starts])
    cols = ws.observe(last, _gemv(A, last[:, :d]) - rhs, last[:, :d], merit=merit)
    # the stop statistic, each row's largest residual component; a start
    # point has no surrogate bound to stop on
    stat = _largest(cols[0], cols[1]) if exact else np.full(len(starts), math.nan)
    live = []
    for j, trace in enumerate(traces):
        trace.warnings.extend(ws.warnings)
        trace.extend(*_rows(cols, slice(j, j + 1)), path=last[j : j + 1])
        if stat[j] <= tol:
            trace.status = "converged"
            _end(trace, last[j], d)
        else:
            live.append(j)
    last, r_last = last[live], stat[live].tolist()
    size = last.shape[1]
    left = int(ws.cfg.max_iter)
    nb = SWEEP_BLOCK if exact else 1
    # np.errstate's settings around the sweeps; none for those that call user code
    quiet = {"over": "ignore", "invalid": "ignore"} if exact else {}
    while live:
        nb = min(nb, left)
        left -= nb
        orders = [draws[j](nb) for j in live]
        # row 0 holds each run's last point observed, rows 1.. its sweeps since
        Z = np.empty((nb + 1, len(live), size))
        Z[0] = last
        with np.errstate(**quiet):
            _sweep_block(ws, Z, orders, sweep)
            ends = _guard_rows(Z[1:]) + 1
        guards = ends <= nb
        ends = np.minimum(ends, nb).tolist()
        # the runs' swept rows, as (run, its rows 0..end, its orders, whether
        # its last row tripped the guard)
        block = [(j, Z[: e + 1, i], orders[i][:e], g) for i, (j, e, g) in enumerate(zip(live, ends, guards))]
        # one observation of the block's rows, run by run
        X = np.concatenate([rows[1:] for _, rows, _, _ in block])
        X_prev = np.concatenate([rows[:-1, :d] for _, rows, _, _ in block])
        flat = np.concatenate([run for _, _, run, _ in block])
        cols = ws.observe(X, _gemv(A, X[:, :d]) - rhs, X_prev, flat, merit, U)
        stat = _largest(cols[0] if exact else cols[5], cols[1])
        hit = stat <= tol
        live, last, decays, lo = [], [], [], 0
        for (j, rows, run, guard), r_prev in zip(block, r_last):
            trace = traces[j]
            # the guard row stops the run as diverged whatever its residual
            done = np.flatnonzero(hit[lo : lo + len(run) - guard])
            keep = int(done[0]) + 1 if done.size else len(run)
            trace.extend(*_rows(cols, slice(lo, lo + keep)), path=rows[1 : keep + 1])
            lo += len(run)
            if done.size:
                trace.status = "converged"
            elif guard:
                trace.status = "diverged"
            elif len(run) == nb and left:
                live.append(j)
                last.append(rows[-1])
                decays.append((r_prev, float(stat[lo - 1])))
                continue
            _end(trace, rows[keep], d)
        r_last = [r for _, r in decays]
        if exact and decays:
            # a stack takes the longest block any live run needs
            nb = max(_block_length(r_prev, r, nb, tol) for r_prev, r in decays)
    return traces


def _sweep_block(ws, Z: np.ndarray, orders, sweep) -> None:
    """Rows 1.. of Z[:, i] from row 0 by the sweeps of run i in the (nb, n)
    int array orders[i]: by `sweep`, the cyclic order's order_sweep, when
    given; else, when the workspace does not compose, block by block, one
    run at a time (sweep_rows on each drawn order's calls); else by one
    stacked product per sweep of the maps gathered from sweep_table by
    rank."""
    if sweep is not None:
        for i in range(Z.shape[1]):
            sweep(Z[:, i])
    elif not ws.composed:
        for i, run in enumerate(orders):
            ws.sweep_rows(Z[:, i], map(ws.sweep_calls, run.tolist()))
    else:
        T, t = ws.sweep_table
        at = _ranks(np.stack(orders, axis=1))
        t = t[at]
        for b in range(1, len(Z)):
            np.matmul(T[at[b - 1]], Z[b - 1, :, :, None], out=Z[b, :, :, None])
            Z[b] += t[b - 1]


def _affine_rows(T: np.ndarray, t: np.ndarray, rows: np.ndarray) -> None:
    """rows[k] = T rows[k - 1] + t for k = 1, 2, ..., each as one gemv into
    the row and one add: the row kernel of every fixed affine map, a cyclic
    run's composed sweep and the expected iteration. Each row equals
    np.add(T.dot(z), t) and T @ z + c bit for bit."""
    for prev, row in zip(rows[:-1], rows[1:]):
        T.dot(prev, out=row)
        np.add(row, t, out=row)


def _guard_rows(Z: np.ndarray) -> np.ndarray:
    """For each run j of a block of rows Z[:, j], the index of its first row
    past the divergence guard (_past_limit), or len(Z) when none is."""
    past = _past_limit(Z.reshape(-1, Z.shape[-1]))
    if past is None:
        return np.full(Z.shape[1], len(Z))
    past = past.reshape(Z.shape[:2])
    return np.where(past.any(axis=0), past.argmax(axis=0), len(Z))


def _block_length(r_prev: float, r_last: float, swept: int, tol: float) -> int:
    """Sweeps the next block of a run takes, from its stop statistic r_last
    at its last row and r_prev `swept` sweeps earlier: enough for the decay
    per sweep seen over those sweeps to reach tol, with a quarter and two
    sweeps to spare, and at most SWEEP_BLOCK; SWEEP_BLOCK when the statistic
    did not fall or tol is zero."""
    ratio = r_last / r_prev
    if not (0.0 < ratio < 1.0 and tol > 0.0):
        return SWEEP_BLOCK
    need = swept * (math.log(tol) - math.log(r_last)) / math.log(ratio)
    return min(SWEEP_BLOCK, math.ceil(1.25 * need) + 2)


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
