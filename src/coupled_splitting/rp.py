"""Randomly permuted sweeps and their expected iteration.

Each step draws a uniform block order, from one numpy Generator per trial,
and runs the `solvers.step` sweep of variant admm_cyclic_n in that order,
moving the multiplier with unit dual stepsize. For instances whose separable
terms are all zero the update is affine, and averaging it over the n! orders
gives a deterministic linear iteration whose trajectory is followed exactly
here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._averaging import averaged_update
from ._csvtext import csv_lines
from .errors import UsageError
from .model import ProblemInstance
from ._observe import _dots
from .solvers import (
    SWEEP_BLOCK,
    IterateState,
    SolverConfig,
    _affine_rows,
    _drive,
    _guard_rows,
    _start_vector,
    _Workspace,
    _write_artifact,
    check_integer,
    check_stopping,
)


def _order_rng(seed: int, n: int) -> np.random.Generator:
    """The generator of the order stream seeded `seed`, for n blocks."""
    if n < 1:
        raise UsageError("need at least one block")
    return np.random.default_rng(int(seed))


def permutation_at(seed: int, counter: int, n: int) -> tuple:
    """Order number `counter` (from 0) of the stream seeded `seed`: the
    counter-th of successive default_rng(seed).permutation(n) draws, as a
    tuple of Python ints. It draws every earlier order one call at a time,
    in O(counter), and is the reference for _trial_orders. A seed or counter
    that is not an integer of at least 0 is a UsageError."""
    seed = check_integer(seed, "seed", 0)
    counter = check_integer(counter, "counter", 0)
    rng = _order_rng(seed, n)
    for _ in range(counter):
        rng.permutation(n)
    return tuple(rng.permutation(n).tolist())


def _trial_orders(seed: int, n: int):
    """The draw of the trial seeded `seed`: draw(k) returns its next k
    orders as the rows of a (k, n) int array, by Generator.permuted on k
    stacked aranges. Each row is the next rng.permutation(n), so the
    concatenated draws are permutation_at(seed, 0, n), permutation_at(seed,
    1, n), ..., whatever the sizes drawn."""
    rng = _order_rng(seed, n)
    return lambda k: rng.permuted(np.broadcast_to(np.arange(n), (k, n)), axis=1)


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
    block order per sweep: trial t sweeps in the successive orders
    default_rng(cfg.seed ^ t).permutation(n), that is permutation_at(cfg.seed
    ^ t, k, n) for k = 0, 1, ..., so any single trial can be reproduced in
    isolation as trial 0 of a run seeded cfg.seed ^ t, bit for bit. The
    trials sweep in lockstep (see solvers._drive). A trial may draw orders
    past its stop, for sweeps it then drops; it draws them from its own
    generator, so no other trial's orders move. Returns the per-trial traces
    and the sample-mean trajectory across trials at matching iteration
    counts (trials that stop early are held at their final iterate).
    """
    cfg.validate(inst)
    trials = check_integer(trials, "trials", 1)
    seed = int(cfg.seed)
    n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
    ws = _Workspace(inst, dataclasses.replace(cfg, variant="admm_cyclic_n", gamma=1.0), random_orders=True)
    start = IterateState.start(inst, x0, mu0)
    # sweeps past a stop draw orders from that trial's generator only
    traces = _drive(ws, [start] * trials, [_trial_orders(seed ^ t, n) for t in range(trials)], True)
    k_len = max(len(trace) for trace in traces)
    mean = np.zeros((k_len, d + m))
    for t, trace in enumerate(traces):
        trace.trial = t
        # a trial that stopped early is held at its final iterate
        path = trace.path
        mean[: len(path)] += path
        mean[len(path) :] += path[-1]
        if not keep_iterates:
            trace.drop_iterates()
    mean /= trials
    mean_trace = ExpectationTrace(
        mode="sample_mean",
        ks=list(range(k_len)),
        Ex=mean[:, :d],
        Emu=mean[:, d:],
        status="sampled",
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

    def __post_init__(self):
        if self.mode not in ("exact", "sample_mean"):
            raise UsageError("mode must be 'exact' or 'sample_mean'")

    def z(self, row: int) -> np.ndarray:
        return np.concatenate([self.Ex[row], self.Emu[row]])

    def to_csv(self, path, header_lines=()) -> None:
        _write_artifact(path, self.csv_text(header_lines))

    def csv_text(self, header_lines=()) -> str:
        """The CSV text: the header lines as comments, the column names, one
        line per k (its cells the floats' reprs, a NaN cell "nan", then the
        mode) and the status."""
        d = self.Ex.shape[1]
        m = self.Emu.shape[1]
        cols = ["k"] + [f"Ex_{j + 1}" for j in range(d)] + [f"Emu_{j + 1}" for j in range(m)] + ["mode"]
        head = "".join(f"# {line}\n" for line in header_lines) + ",".join(cols) + "\n"
        rows = np.hstack([self.Ex, self.Emu])
        n = min(len(self.ks), len(rows))
        notes = [(0, head), (n, f"# status={self.status}\n")]
        return csv_lines(rows[:n], (np.asarray(self.ks)[:n],), tail=f",{self.mode}\n", nan="nan", notes=notes)


def trials_csv_text(traces: list, header_lines=()) -> str:
    """The text of trials.csv: the header lines as comments, the column
    names, then each trial's rows led by its number and followed by a
    comment with its status."""
    sizes = [len(trace) for trace in traces]
    ends = np.cumsum(sizes)
    lead = (np.repeat([trace.trial for trace in traces], sizes), np.concatenate([np.arange(n) for n in sizes]))
    notes = [(0, "".join(f"# {line}\n" for line in header_lines) + traces[0].csv_columns())]
    notes += [(end, f"# trial={trace.trial} status={trace.status}\n") for end, trace in zip(ends, traces)]
    return csv_lines(np.concatenate([trace.csv_cells() for trace in traces]), lead, notes=notes)


def expected_update_operator(inst: ProblemInstance, beta: float):
    """The averaged affine update (M, c): expected iterates follow
    z -> M z + c. Defined for instances whose separable terms are all zero."""
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
    differ by at most tol, or k_max steps have run. A row that is NaN or
    above DIVERGENCE_LIMIT in absolute value ends the trajectory there, with
    status diverged. z0 must be finite, with d + m entries.

    The rows are stepped SWEEP_BLOCK at a time by solvers._affine_rows into
    an array grown by doubling, and each block's steps and guard are checked
    after it, so up to SWEEP_BLOCK - 1 rows past the stop are computed and
    dropped. Every step runs under np.errstate with overflow and invalid
    operations ignored: neither a kept guard row nor a dropped row warns."""
    check_stopping(tol, k_max)
    d, m = inst.blocks.d, inst.blocks.m
    z = _start_vector(z0, d + m, "z0")
    if not np.all(np.isfinite(z)):
        raise UsageError("z0 must be finite")
    M, c = expected_update_operator(inst, beta)
    Z = np.empty((256, d + m))
    Z[0] = z
    k, status = 0, "max_iter"
    with np.errstate(over="ignore", invalid="ignore"):
        while k < k_max:
            nb = min(SWEEP_BLOCK, k_max - k)
            if k + nb >= len(Z):
                Z = np.resize(Z, (2 * len(Z), d + m))
            rows = Z[k : k + nb + 1]
            _affine_rows(M, c, rows)
            # each step's np.linalg.norm, sqrt(dz.dot(dz)), one ddot per row
            dz = rows[1:] - rows[:-1]
            settled = np.flatnonzero(np.sqrt(_dots(dz, dz)) <= tol)
            past = int(_guard_rows(rows[1:, None])[0])
            # a row past the limit ends the run as diverged, also when its
            # step is within tol
            if past < nb and not (settled.size and settled[0] < past):
                k, status = k + past + 1, "diverged"
                break
            if settled.size:
                k, status = k + int(settled[0]) + 1, "converged"
                break
            k += nb
    Z = Z[: k + 1]
    return ExpectationTrace(mode="exact", ks=list(range(k + 1)), Ex=Z[:, :d], Emu=Z[:, d:], status=status)
