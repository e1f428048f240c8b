"""Seeded instance generators for the benchmark workloads.

Everything here is plain numpy: the instance documents are written in the
program's JSON format without going through the program, and the reference
values the checks compare against are computed in `reference.py`.
Generators reject-sample, so that every seed yields an instance of the same
family: strongly convex where the family says so, a well-conditioned KKT
system, unambiguous numerical ranks, spectra with a clear margin from the
certificate thresholds, and, for the solver instances, a number of sweeps
to the tolerance inside a fixed band.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from reference import (
    expected_steps,
    kkt_matrix,
    rows_with_singular_values,
    spd_with_spectrum,
    spectral_reference,
    stack,
    sweeps_to_tol,
    sym,
)

# Sweeps (and expected-iteration steps) to --tol are banded to [1 - SWEEP_BAND, 1 + SWEEP_BAND] times a
# target per instance, so that the work of a solve round varies little
# from seed to seed.
SWEEP_BAND = 0.05
BAND_BATCH = 24
MAX_BATCHES = 20
# every other rejection loop gives up after this many draws
MAX_DRAWS = 1000


@dataclass
class Instance:
    """One generated instance: its data, its separable terms (parameters as
    numpy arrays), and whatever reference values its generator knows."""

    name: str
    dims: tuple
    H: np.ndarray
    g: np.ndarray
    A: np.ndarray
    b: np.ndarray
    theta: list
    ref: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return int(sum(self.dims))

    @property
    def m(self) -> int:
        return int(self.b.shape[-1])

    def slices(self) -> list:
        out, at = [], 0
        for v in self.dims:
            out.append(slice(at, at + v))
            at += v
        return out

    def document(self) -> dict:
        theta = [
            {
                "kind": t["kind"],
                "params": {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in t["params"].items()},
                "sigma": None,
            }
            for t in self.theta
        ]
        return {
            "blocks": [int(v) for v in self.dims],
            "H": self.H.tolist(),
            "g": self.g.tolist(),
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "theta": theta,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.document(), fh)
            fh.write("\n")


def term(kind: str, **params) -> dict:
    return {"kind": kind, "params": params}


def zero_terms(n: int) -> list:
    return [term("zero") for _ in range(n)]


# -- solve workload ---------------------------------------------------------


def planted_two_block(rng, name: str, d1: int, d2: int, m: int, kinds) -> Instance:
    """Two blocks with dense coupling H (eigenvalues in [0.5, 2]) and m dense
    constraint rows (singular values in [0.5, 1]), built around a chosen KKT
    point with strict complementarity: an l1 block has half its coordinates
    at zero with subgradients strictly inside [-lam, lam]; a box block has a
    third of its coordinates on each face with a nonzero normal component.
    H is positive definite, so that point, recorded as the reference, is
    the unique solution."""
    d = d1 + d2
    H = spd_with_spectrum(rng, np.linspace(0.5, 2.0, d))
    A = rows_with_singular_values(rng, m, d, np.linspace(0.5, 1.0, m))
    x, v, theta = np.zeros(d), np.zeros(d), []
    for sl, kind in zip((slice(0, d1), slice(d1, d)), kinds):
        k = sl.stop - sl.start
        if kind == "l1":
            lam = 0.5
            free = rng.permutation(k) < k // 2
            sign = rng.choice([-1.0, 1.0], size=k)
            x[sl] = np.where(free, sign * (0.5 + rng.random(k)), 0.0)
            v[sl] = np.where(free, lam * sign, lam * rng.uniform(-0.5, 0.5, k))
            theta.append(term("l1", lam=lam))
        elif kind == "box":
            face = rng.permutation(k) % 3
            center = rng.standard_normal(k)
            lo, hi = center - 1.0, center + 1.0
            x[sl] = np.where(face == 0, lo, np.where(face == 1, hi, center + rng.uniform(-0.5, 0.5, k)))
            v[sl] = np.where(face == 0, -(0.5 + rng.random(k)), np.where(face == 1, 0.5 + rng.random(k), 0.0))
            theta.append(term("box", lo=lo, hi=hi))
        else:
            raise ValueError(kind)
    mu = rng.standard_normal(m)
    # stationarity: -(Hx + g) + A'mu = v with v in the subdifferential at x
    inst = Instance(name, (d1, d2), H, A.T @ mu - H @ x - v, A, A @ x, theta)
    inst.ref = {"x": x, "mu": mu}
    return inst


def quadratic_two_block(rng, name: str, d1: int, d2: int, m: int) -> Instance:
    """Two blocks with quadratic terms, dense coupling and constraint rows.
    Its KKT point, the solution of a linear system, is its reference."""
    d = d1 + d2
    for _ in range(MAX_DRAWS):
        H = spd_with_spectrum(rng, np.linspace(0.5, 2.0, d))
        A = rows_with_singular_values(rng, m, d, np.linspace(0.5, 1.0, m))
        g = rng.standard_normal(d)
        b = A @ rng.standard_normal(d)
        theta = [
            term("quadratic", P=spd_with_spectrum(rng, np.linspace(0.5, 1.5, k)), q=rng.standard_normal(k))
            for k in (d1, d2)
        ]
        inst = Instance(name, (d1, d2), H, g, A, b, theta)
        H_eff, g_eff = H.copy(), g.copy()
        for sl, t in zip(inst.slices(), theta):
            H_eff[sl, sl] += t["params"]["P"]
            g_eff[sl] += t["params"]["q"]
        K = kkt_matrix(H_eff, A)
        if np.linalg.svd(K, compute_uv=False)[-1] > 0.05:
            z = np.linalg.solve(K, np.concatenate([-g_eff, b]))
            inst.ref = {"x": z[:d], "mu": z[d:]}
            return inst
    raise RuntimeError(f"no well-conditioned {name} in {MAX_DRAWS} draws")


def unconstrained_l1(rng, name: str, dims) -> Instance:
    """Unconstrained n-block instance with dense coupling and l1 terms."""
    d = int(sum(dims))
    H = spd_with_spectrum(rng, np.linspace(0.2, 2.0, d))
    theta = [term("l1", lam=0.2 + 0.6 * rng.random()) for _ in dims]
    return Instance(name, tuple(dims), H, 2.0 * rng.standard_normal(d), np.zeros((0, d)), np.zeros(0), theta)


def banded(make, target: int, beta: float, tol: float, linearized: bool = True) -> Instance:
    """Draw instances from `make()`, BAND_BATCH at a time, until the
    benchmark's own run of the same sweeps reaches tol in a number of
    sweeps within SWEEP_BAND of target; return the first such draw."""
    lo, hi = int(target * (1 - SWEEP_BAND)), int(target * (1 + SWEEP_BAND))
    for _ in range(MAX_BATCHES):
        drawn = [make() for _ in range(BAND_BATCH)]
        counts = sweeps_to_tol(stack(drawn), beta, tol, hi, linearized=linearized)
        for inst, sweeps in zip(drawn, counts):
            if lo <= sweeps <= hi:
                inst.ref["sweeps"] = int(sweeps)
                return inst
    raise RuntimeError(f"no instance within {SWEEP_BAND:.0%} of {target} sweeps")


# -- rp-expect workload -----------------------------------------------------


def chen_he_ye_yuan(name: str) -> Instance:
    """The 3-block linear system of Chen, He, Ye & Yuan (Math. Prog. 2016),
    on which the cyclic 3-block sweep diverges. Its KKT point is x = A^-1 b,
    mu = 0."""
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    b = np.array([1.0, 2.0, 3.0])
    inst = Instance(name, (1, 1, 1), np.zeros((3, 3)), np.zeros(3), A, b, zero_terms(3))
    inst.ref = {"x": np.linalg.solve(A, b), "mu": np.zeros(3)}
    return inst


def strongly_convex_qp(rng, name: str, dims, m: int, beta: float, target: int, tol: float) -> Instance:
    """n-block QP with zero separable terms, H positive definite and full
    row rank constraints, built around a chosen KKT point (x, mu):
    g = A'mu - Hx and b = Ax. Rejected unless the benchmark's own expected
    iteration reaches tol in a number of steps within SWEEP_BAND of target
    (the sampled trials take about as many sweeps each)."""
    d = int(sum(dims))
    lo, hi = int(target * (1 - SWEEP_BAND)), int(target * (1 + SWEEP_BAND))
    for _ in range(MAX_DRAWS):
        H = spd_with_spectrum(rng, np.linspace(1.0, 2.0, d))
        A = rows_with_singular_values(rng, m, d, np.linspace(0.5, 1.0, m))
        x, mu = rng.standard_normal(d), rng.standard_normal(m)
        inst = Instance(name, tuple(dims), H, A.T @ mu - H @ x, A, A @ x, zero_terms(len(dims)))
        if lo <= expected_steps(inst, beta, tol, hi):
            inst.ref = {"x": x, "mu": mu}
            return inst
    raise RuntimeError(f"no {name} within {SWEEP_BAND:.0%} of {target} steps in {MAX_DRAWS} draws")


# -- analyze workloads ------------------------------------------------------


def spectral_instance(rng, name: str, dims, m: int, h_rank: int, duplicate_row: bool, beta: float) -> Instance:
    """n-block instance with zero separable terms for `analyze`: H of the
    given rank, unit constraint rows (the last a copy of the first when
    duplicate_row is set), a consistent stationarity system, and positive
    definite per-block sweep curvature. Rejected unless every rank is
    unambiguous and the spectra keep a margin from the certificate
    thresholds; the accepted instance carries its spectral reference."""
    d = int(sum(dims))
    for _ in range(MAX_DRAWS):
        H = spd_with_spectrum(rng, np.concatenate([np.linspace(0.5, 2.0, h_rank), np.zeros(d - h_rank)]))
        A = rng.standard_normal((m, d))
        if duplicate_row:
            A[m - 1] = A[0]
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        x, mu = rng.standard_normal(d), rng.standard_normal(m)
        inst = Instance(name, tuple(dims), H, A.T @ mu - H @ x, A, A @ x, zero_terms(len(dims)))
        if not _blocks_well_posed(inst, beta):
            continue
        spec = spectral_reference(inst, beta)
        if spec["am_one"] is None or spec["am_one"] != spec["gm_one"]:
            continue
        if spec["q_min_eig"] <= 1e-6 or float(spec["eig_QS"][-1]) >= 4.0 / 3.0 - 1e-6:
            continue
        if spec["rho_M"] >= 1.0 - 1e-6:
            continue
        inst.ref = spec
        return inst
    raise RuntimeError(f"no admissible {name} in {MAX_DRAWS} draws")


def _blocks_well_posed(inst: Instance, beta: float) -> bool:
    for sl in inst.slices():
        Ai = inst.A[:, sl]
        w = np.linalg.eigvalsh(sym(inst.H[sl, sl] + beta * (Ai.T @ Ai)))
        if w[0] <= 1e-3 * max(1.0, w[-1]):
            return False
    return True


def desk_instance(name: str) -> Instance:
    """The hand-derived 2x2 instance: H = [[2, 1], [1, 2]], A = I, beta = 1,
    for which the eigenvalues of Q S are exactly 7/9 and 10/9."""
    inst = Instance(name, (1, 1), np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2), np.eye(2), np.zeros(2), zero_terms(2))
    inst.ref = {**spectral_reference(inst, 1.0), "eig_QS_exact": np.array([7.0 / 9.0, 10.0 / 9.0])}
    return inst
