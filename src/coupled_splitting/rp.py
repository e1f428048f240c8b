"""Randomly permuted sweeps and their expected iteration.

Each step draws a uniform block order and runs the `solvers.step` sweep of
variant admm_cyclic_n in that order, moving the multiplier with unit dual
stepsize. For instances whose separable terms are all zero the update is
affine, and averaging it over the n! orders gives a deterministic linear
iteration whose trajectory is followed exactly here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import _keystream
from ._averaging import averaged_update
from .errors import UsageError
from .model import ProblemInstance
from .solvers import IterateState, SolverConfig, _drive, _Workspace, _write_artifact, check_stopping


# Orders of a trial drawn in its first block; each later block doubles the
# last, up to MAX_KEYS, the keys drawn in one call. run_rp_solver draws the
# first blocks of as many trials together as MAX_KEYS allows.
FIRST_BLOCK = 256
MAX_KEYS = 4096


def permutation_at(seed: int, counter: int, n: int) -> tuple:
    """The block order drawn with this seed at this counter.
    Identical (seed, counter, n) always reproduce the identical order."""
    if n < 1:
        raise UsageError("need at least one block")
    rng = np.random.default_rng((int(seed), int(counter)))
    return tuple(rng.permutation(n).tolist())


def _order_blocks(seeds, start: int, count: int, n: int) -> np.ndarray:
    """(len(seeds), count, n): row [s, c] is permutation_at(seeds[s],
    start + c, n), from the vectorized stream where it has words enough."""
    if n < 1:
        raise UsageError("need at least one block")
    blocks, ok = _keystream.permutations(seeds, start, count, n)
    for s, c in zip(*np.nonzero(~ok)):
        blocks[s, c] = permutation_at(seeds[s], start + int(c), n)
    return blocks


def _trial_orders(seed: int, n: int, first: np.ndarray):
    """permutation_at(seed, k, n) for k = 0, 1, ...: the rows of first, which
    holds the orders of the first counters, then blocks of consecutive
    counters drawn by _order_blocks, each twice the last, up to MAX_KEYS."""
    block, start = first, 0
    while True:
        yield from map(tuple, block.tolist())
        start += len(block)
        block = _order_blocks([seed], start, min(2 * len(block), MAX_KEYS), n)[0]


def run_rp_solver(
    inst: ProblemInstance,
    cfg: SolverConfig,
    x0=None,
    mu0=None,
    trials: int = 1,
    keep_iterates: bool = False,
):
    """Run `trials` independent randomly permuted runs.

    Each trial runs variant admm_cyclic_n with unit dual stepsize and a fresh
    block order per sweep: trial t sweeps in the orders
    permutation_at(cfg.seed ^ t, k, n) for k = 0, 1, ..., so any single
    trial can be reproduced in isolation as trial 0 of a run seeded
    cfg.seed ^ t.
    Returns the per-trial traces and the sample-mean trajectory across trials
    at matching iteration counts (trials that stop early are held at their
    final iterate).
    """
    cfg.validate(inst)
    if trials < 1:
        raise UsageError("trials must be at least 1")
    seed = int(cfg.seed)
    ws = _Workspace(inst, dataclasses.replace(cfg, variant="admm_cyclic_n", gamma=1.0))
    n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
    traces = []
    paths = []
    # a trial draws at most max_iter orders
    first = min(int(cfg.max_iter), FIRST_BLOCK)
    together = max(1, MAX_KEYS // first)
    for t in range(int(trials)):
        if t % together == 0:
            seeds = [seed ^ u for u in range(t, min(t + together, int(trials)))]
            blocks = _order_blocks(seeds, 0, first, n)
        orders = _trial_orders(seed ^ t, n, blocks[t % together])
        path = []
        trace = _drive(ws, IterateState.start(inst, x0, mu0), orders.__next__, keep_iterates, path=path)
        trace.trial = t
        traces.append(trace)
        paths.append(np.asarray(path))

    k_len = max(p.shape[0] for p in paths)
    mean = np.zeros((k_len, d + m))
    for p in paths:
        if p.shape[0] < k_len:
            pad = np.repeat(p[-1:, :], k_len - p.shape[0], axis=0)
            p = np.vstack([p, pad])
        mean += p
    mean /= len(paths)
    mean_trace = ExpectationTrace(
        mode="sample_mean",
        ks=list(range(k_len)),
        Ex=mean[:, :d],
        Emu=mean[:, d:],
        status="sampled",
        trials=int(trials),
        seed=seed,
    )
    return traces, mean_trace


@dataclass
class ExpectationTrace:
    """Trajectory of per-iteration expected iterates, either computed exactly
    from the averaged affine update or estimated by a sample mean."""

    mode: str
    ks: list
    Ex: np.ndarray
    Emu: np.ndarray
    status: str
    trials: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "sample_mean"):
            raise UsageError("mode must be 'exact' or 'sample_mean'")

    def z(self, row: int) -> np.ndarray:
        return np.concatenate([self.Ex[row], self.Emu[row]])

    def to_csv(self, path, header_lines=()) -> None:
        d = self.Ex.shape[1]
        m = self.Emu.shape[1]
        cols = ["k"] + [f"Ex_{j + 1}" for j in range(d)] + [f"Emu_{j + 1}" for j in range(m)] + ["mode"]
        lines = [f"# {line}\n" for line in header_lines]
        lines.append(",".join(cols) + "\n")
        # .tolist() gives Python floats, whose repr is repr(float(v)) per cell
        rows = np.hstack([self.Ex, self.Emu]).astype(float, copy=False).tolist()
        lines += [",".join((str(k), *map(repr, row), self.mode)) + "\n" for k, row in zip(self.ks, rows)]
        lines.append(f"# status={self.status}\n")
        _write_artifact(path, "".join(lines))


def expected_update_operator(inst: ProblemInstance, beta: float):
    """The averaged affine update (M, c): expected iterates follow
    z -> M z + c. Defined for instances whose separable terms are all zero."""
    if any(f.kind != "zero" for f in inst.theta):
        raise UsageError("the expected iteration is defined only when every separable term is zero")
    update = averaged_update(inst, beta)
    return update.M, update.c


def run_expected_iteration(
    inst: ProblemInstance,
    beta: float,
    z0=None,
    k_max: int = 100_000,
    tol: float = 1e-10,
) -> ExpectationTrace:
    """Follow the exact expected trajectory until successive expected iterates
    differ by at most tol, or k_max steps have run."""
    check_stopping(tol, k_max)
    M, c = expected_update_operator(inst, beta)
    d, m = inst.blocks.d, inst.blocks.m
    z = np.zeros(d + m) if z0 is None else np.array(z0, dtype=float).reshape(d + m)
    ks = [0]
    zs = [z.copy()]
    status = "max_iter"
    for k in range(1, int(k_max) + 1):
        z_new = M @ z + c
        ks.append(k)
        zs.append(z_new.copy())
        if float(np.linalg.norm(z_new - z)) <= tol:
            status = "converged"
            z = z_new
            break
        z = z_new
    Z = np.asarray(zs)
    return ExpectationTrace(mode="exact", ks=ks, Ex=Z[:, :d], Emu=Z[:, d:], status=status)
