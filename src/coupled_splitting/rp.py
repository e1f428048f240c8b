"""Randomly permuted sweeps and their expected iteration.

Each step draws a uniform block order and runs the `solvers.step` sweep of
variant admm_cyclic_n in that order, moving the multiplier with unit dual
stepsize. For instances whose separable terms are all zero the update is
affine, and averaging it over the n! orders gives a deterministic linear
iteration whose trajectory is followed exactly here.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from ._averaging import averaged_update
from .errors import UsageError
from .model import ProblemInstance
from .solvers import IterateState, SolverConfig, _drive, _Workspace, check_stopping


def permutation_at(seed: int, counter: int, n: int) -> tuple:
    """The block order produced by a sampler with this seed at this counter.
    Identical (seed, counter, n) always reproduce the identical order."""
    if n < 1:
        raise UsageError("need at least one block")
    rng = np.random.default_rng((int(seed), int(counter)))
    return tuple(rng.permutation(n).tolist())


@dataclass
class PermutationSampler:
    """Uniform sampler over block orders, reproducible from (seed, counter)."""

    seed: int
    counter: int = 0

    def __post_init__(self):
        if int(self.seed) < 0:
            raise UsageError("seed must be a nonnegative integer")
        self.seed = int(self.seed)
        self.counter = int(self.counter)

    def draw(self, n: int) -> tuple:
        sigma = permutation_at(self.seed, self.counter, n)
        self.counter += 1
        return sigma


def run_rp_solver(
    inst: ProblemInstance,
    cfg: SolverConfig,
    x0=None,
    mu0=None,
    seed: int | None = None,
    trials: int = 1,
    keep_iterates: bool = False,
):
    """Run `trials` independent randomly permuted runs.

    Each trial runs variant admm_cyclic_n with unit dual stepsize and a fresh
    block order per sweep. Trial t draws its orders from a sampler seeded
    with seed XOR t, so any single trial can be reproduced in isolation.
    Returns the per-trial traces and the sample-mean trajectory across trials
    at matching iteration counts (trials that stop early are held at their
    final iterate).
    """
    cfg.validate(inst)
    if trials < 1:
        raise UsageError("trials must be at least 1")
    base_seed = cfg.seed if seed is None else int(seed)
    if base_seed < 0:
        raise UsageError("seed must be a nonnegative integer")
    ws = _Workspace(inst, dataclasses.replace(cfg, variant="admm_cyclic_n", gamma=1.0))
    n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
    traces = []
    paths = []
    for t in range(int(trials)):
        draw = functools.partial(PermutationSampler(base_seed ^ t).draw, n)
        path = []
        trace = _drive(ws, IterateState.start(inst, x0, mu0), draw, keep_iterates, path=path)
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
        seed=base_seed,
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
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write(",".join(cols) + "\n")
            for row, k in enumerate(self.ks):
                cells = [str(k)]
                cells += [repr(float(v)) for v in self.Ex[row]]
                cells += [repr(float(v)) for v in self.Emu[row]]
                cells.append(self.mode)
                fh.write(",".join(cells) + "\n")
            fh.write(f"# status={self.status}\n")


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
