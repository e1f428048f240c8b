"""The four workloads: their instances, their CLI commands, and the check
each command's output must pass.

A workload is built from the seed alone. Its commands run in the same
order in every pass, so every pass attempts the same operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import instances as gen

WORKLOADS = ("solve", "rp-expect", "analyze-enum", "analyze-batch")

SOLVE_TOL = 1e-9
SOLVE_BETA = 1.0
RP_TOL = 1e-10
RP_BETA = 1.0
# sampled trials per rp-expect command: few on the 3-block instance, whose
# trials are long, so that each command stays short
RP_TRIALS = {"chyy3": 4, "qp5": 10}
QP_STEPS = 130           # own expected-iteration steps target of the 5-block QP
CYCLIC_MAX_ITER = 20_000
BATCH_SIZE = 48

# name, generator, CLI variant, own-run sweeps target (see instances.banded)
SOLVE_SET = (
    ("lin20", lambda rng: gen.planted_two_block(rng, "lin20", 10, 10, 4, ("l1", "box")), "admm2_linearized", 464),
    ("lin30", lambda rng: gen.planted_two_block(rng, "lin30", 15, 15, 6, ("box", "l1")), "admm2_linearized", 440),
    ("lin40", lambda rng: gen.planted_two_block(rng, "lin40", 20, 20, 8, ("l1", "box")), "admm2_linearized", 610),
    ("lin50", lambda rng: gen.planted_two_block(rng, "lin50", 25, 25, 10, ("box", "l1")), "admm2_linearized", 594),
    ("quad20", lambda rng: gen.quadratic_two_block(rng, "quad20", 10, 10, 4), "admm2", 180),
    ("bcpg24", lambda rng: gen.unconstrained_l1(rng, "bcpg24", (6, 6, 6, 6)), "bcpg", 84),
)


@dataclass
class Op:
    """One CLI command: its argv, the exit code it must return, and a check
    of its output directory (and of what the library call returned)."""

    label: str
    argv: list
    expected_rc: int
    out: Path
    check: Callable


def _rng(seed: int, workload: str, index: int):
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _write(inst, work: Path) -> str:
    path = work / f"{inst.name}.json"
    inst.write(path)
    return str(path)


def _solve_ops(seed: int, work: Path) -> list:
    ops = []
    for i, (label, make, variant, target) in enumerate(SOLVE_SET):
        rng = _rng(seed, "solve", i)
        inst = gen.banded(lambda: make(rng), target, SOLVE_BETA, SOLVE_TOL, linearized=variant != "admm2")
        out = work / "out" / label
        argv = ["solve", _write(inst, work), "--variant", variant, "--beta", repr(SOLVE_BETA),
                "--tol", repr(SOLVE_TOL), "--max-iter", "100000", "--seed", "0", "--out", str(out)]

        def check(out, result, inst=inst):
            return checks.check_solve(inst, SOLVE_TOL, out / "trace.csv", result.x, result.mu)

        ops.append(Op(label, argv, 0, out, check))
    return ops


def _rp_ops(seed: int, work: Path) -> list:
    """rp-expect on the 3-block instance with a fixed sampler seed (its trial
    lengths vary widely with the seed) and on a seeded 5-block QP, plus the
    cyclic solve of the 3-block instance, which must diverge."""
    chyy = gen.chen_he_ye_yuan("chyy3")
    qp = gen.strongly_convex_qp(_rng(seed, "rp-expect", 1), "qp5", (2, 2, 2, 2, 2), 3, RP_BETA, QP_STEPS, RP_TOL)
    ops = []
    for inst, cli_seed in ((chyy, 0), (qp, int(_rng(seed, "rp-expect", 0).integers(2**31)))):
        out = work / "out" / f"{inst.name}-rp"
        argv = ["rp-expect", _write(inst, work), "--beta", repr(RP_BETA), "--tol", repr(RP_TOL), "--max-iter",
                "100000", "--trials", str(RP_TRIALS[inst.name]), "--seed", str(cli_seed), "--out", str(out)]

        def check(out, _result, inst=inst):
            return (
                checks.check_expectation(inst, out / "expectation.csv", "converged")
                + checks.check_expectation(inst, out / "expectation_sampled.csv", "sampled")
                + checks.check_trials(out / "trials.csv", RP_TRIALS[inst.name])
            )

        ops.append(Op(f"{inst.name}-rp", argv, 0, out, check))
    out = work / "out" / "chyy3-cyclic"
    argv = ["solve", str(work / "chyy3.json"), "--variant", "admm_cyclic_n", "--beta", repr(RP_BETA),
            "--max-iter", str(CYCLIC_MAX_ITER), "--seed", "0", "--out", str(out)]
    ops.append(Op("chyy3-cyclic", argv, 3, out, lambda out, _result: checks.check_diverged(out / "trace.csv")))
    return ops


def _analyze_op(inst, beta: float, work: Path) -> Op:
    out = work / "out" / inst.name
    argv = ["analyze", _write(inst, work), "--beta", repr(beta), "--out", str(out)]

    def check(out, _result):
        return checks.check_report(inst, json.loads((out / "report.json").read_text()))

    return Op(inst.name, argv, 0, out, check)


def _analyze_enum_ops(seed: int, work: Path) -> list:
    """Two 7-block instances (5,040 orders each): scalar blocks with full
    rank H, and 2-dimensional blocks with H of rank 10 of 14."""
    specs = (("enum7x1", (1,) * 7, 4, 7), ("enum7x2", (2,) * 7, 6, 10))
    return [
        _analyze_op(gen.spectral_instance(_rng(seed, "analyze-enum", i), name, dims, m, rank, False, 1.0), 1.0, work)
        for i, (name, dims, m, rank) in enumerate(specs)
    ]


def batch_spec(j: int) -> tuple:
    """Shape of the j-th analyze-batch instance, the same for every seed:
    block dims, constraint rows, rank of H, whether the last constraint row
    duplicates the first, and beta. A quarter of the instances have H = 0
    and half have a duplicated row, so eigenvalue one occurs."""
    n = 2 + j % 3
    dims = tuple(1 + (j + i) % 3 for i in range(n))
    d = sum(dims)
    duplicate = j % 2 == 1
    m = min(d, max(dims) + 1 + duplicate)
    rank = (d, d - 1, d // 2, 0)[j % 4]
    beta = (0.5, 1.0, 2.0)[(j // 4) % 3]
    return dims, m, rank, duplicate and m >= 2, beta


def _analyze_batch_ops(seed: int, work: Path) -> list:
    ops = []
    for j in range(BATCH_SIZE):
        dims, m, rank, duplicate, beta = batch_spec(j)
        inst = gen.spectral_instance(_rng(seed, "analyze-batch", j), f"batch{j:02d}", dims, m, rank, duplicate, beta)
        ops.append(_analyze_op(inst, beta, work))
    ops.append(_analyze_op(gen.desk_instance("desk2x2"), 1.0, work))
    return ops


BUILDERS = {
    "solve": _solve_ops,
    "rp-expect": _rp_ops,
    "analyze-enum": _analyze_enum_ops,
    "analyze-batch": _analyze_batch_ops,
}


def build(workload: str, seed: int, work: Path) -> list:
    """Generate the workload's instances into `work` and return its commands."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, work)
