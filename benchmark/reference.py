"""The benchmark's own numerics, written apart from the program.

Instance generators use these to reject-sample and to record reference
values; the checks use them to recompute what the program reports: KKT
residuals, KKT points, the order-averaged inverse Q, the averaged update M,
and numerical ranks.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

BOX_EDGE = 1e-12
CHECK_EVERY = 4


def orthogonal(rng, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def spd_with_spectrum(rng, w) -> np.ndarray:
    """Dense symmetric matrix with eigenvalues w and a random eigenbasis."""
    w = np.asarray(w, dtype=float)
    V = orthogonal(rng, w.shape[0])
    return sym((V * w) @ V.T)


def rows_with_singular_values(rng, m: int, d: int, s) -> np.ndarray:
    """Dense m x d matrix (m <= d) with singular values s."""
    U = orthogonal(rng, m)
    W = orthogonal(rng, d)[:, :m]
    return (U * np.asarray(s, dtype=float)) @ W.T


def kkt_matrix(H, A, beta: float = 1.0) -> np.ndarray:
    """The bordered matrix [[H, -A'], [beta A, 0]]."""
    d, m = H.shape[0], A.shape[0]
    K = np.zeros((d + m, d + m))
    K[:d, :d] = H
    K[:d, d:] = -A.T
    K[d:, :d] = beta * A
    return K


def averaged_inverse(S: np.ndarray, dims) -> np.ndarray:
    """Average over all block orders of the inverse of the block lower
    triangular part of S taken in that order, by batched inversion."""
    n = len(dims)
    blk = np.repeat(np.arange(n), dims)
    perms = np.array(list(itertools.permutations(range(n))))
    total = np.zeros_like(S)
    for chunk in np.array_split(perms, max(1, len(perms) // 720)):
        pos = np.argsort(chunk, axis=1)[:, blk]
        L = S[None, :, :] * (pos[:, :, None] >= pos[:, None, :])
        total += np.linalg.inv(L).sum(axis=0)
    return total / len(perms)


def numerical_rank(M: np.ndarray, gap: tuple = (1e-12, 1e-7)):
    """Rank of M, or None when some singular value lies between the two
    relative thresholds (the rank is then ambiguous)."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    rel = s / s[0]
    if np.any((rel > gap[0]) & (rel < gap[1])):
        return None
    return int(np.sum(rel >= gap[1]))


def averaged_update(Q, S, A, beta) -> np.ndarray:
    """Closed form of the order-averaged one-step update from Q."""
    d, m = S.shape[0], A.shape[0]
    QS = Q @ S
    M = np.zeros((d + m, d + m))
    M[:d, :d] = np.eye(d) - QS
    M[:d, d:] = Q @ A.T
    M[d:, :d] = -beta * A + beta * (A @ QS)
    M[d:, d:] = np.eye(m) - beta * (A @ Q @ A.T)
    return M


def expected_steps(inst, beta: float, tol: float, max_steps: int) -> int:
    """Steps of the order-averaged affine iteration z -> M z + c from zero
    until successive iterates differ by at most tol; 0 past max_steps."""
    d, m, A = inst.d, inst.m, inst.A
    S = inst.H + beta * (A.T @ A)
    Q = averaged_inverse(S, inst.dims)
    M = averaged_update(Q, S, A, beta)
    Qbar = np.eye(d + m)
    Qbar[:d, :d] = Q
    Qbar[d:, :d] = -beta * (A @ Q)
    c = Qbar @ np.concatenate([-inst.g + beta * (A.T @ inst.b), beta * inst.b])
    z = np.zeros(d + m)
    for k in range(1, max_steps + 1):
        z_new = M @ z + c
        if np.linalg.norm(z_new - z) <= tol:
            return k
        z = z_new
    return 0


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(sym(M))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def spectral_reference(inst, beta: float) -> dict:
    """The benchmark's own averaged inverse, update spectrum and rank
    formulas for the multiplicity of eigenvalue one."""
    d, m = inst.d, inst.m
    A = inst.A
    gram = beta * (A.T @ A)
    S = inst.H + gram
    Q = averaged_inverse(S, inst.dims)
    root = psd_sqrt(Q)
    eig_QS = np.linalg.eigvalsh(sym(root @ S @ root))
    eig_M = np.linalg.eigvals(averaged_update(Q, S, A, beta))
    ranks = [numerical_rank(M) for M in (gram, S, kkt_matrix(S, A, beta))]
    am = gm = None
    if None not in ranks:
        am = m + d - ranks[0] - ranks[1]
        gm = m + d - ranks[2]
    return {
        "Q": Q,
        "q_min_eig": float(np.linalg.eigvalsh(sym(Q))[0]),
        "eig_QS": eig_QS,
        "eig_M": eig_M,
        "rho_M": float(np.max(np.abs(eig_M[np.abs(eig_M - 1.0) > 1e-8]), initial=0.0)),
        "am_one": am,
        "gm_one": gm,
    }


# -- stationarity and the own sweeps ------------------------------------------
#
# These take one instance, or a stack of instances of one shape (see stack),
# whose arrays then carry a leading batch axis.


def mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", M, v)


def mtv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ji,...j->...i", M, v)


def stack(insts):
    """Instances of one shape and term kinds as one instance whose arrays
    have a leading batch axis (scalar parameters become (batch, 1))."""
    first = insts[0]
    theta = []
    for i, t in enumerate(first.theta):
        params = {}
        for key in t["params"]:
            arr = np.stack([np.asarray(inst.theta[i]["params"][key], dtype=float) for inst in insts])
            params[key] = arr[:, None] if arr.ndim == 1 and np.ndim(t["params"][key]) == 0 else arr
        theta.append({"kind": t["kind"], "params": params})
    arrays = {key: np.stack([getattr(inst, key) for inst in insts]) for key in ("H", "g", "A", "b")}
    return dataclasses.replace(first, name="stack", theta=theta, ref={}, **arrays)


def term_residual(term: dict, x: np.ndarray, s: np.ndarray):
    """Distance from -s to the subdifferential of one separable term at x."""
    kind, p = term["kind"], term["params"]
    t = -s
    if kind == "zero":
        d = t
    elif kind == "l1":
        lam = p["lam"]
        d = np.where(x == 0.0, np.maximum(np.abs(t) - lam, 0.0), t - lam * np.sign(x))
    elif kind == "box":
        lo, hi = p["lo"], p["hi"]
        edge = BOX_EDGE * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        at_lo, at_hi = x <= lo + edge, x >= hi - edge
        # the normal cone is (-inf, 0] at a lower face and [0, inf) at an upper one
        d = np.where(at_lo, np.maximum(t, 0.0), np.where(at_hi, np.minimum(t, 0.0), t))
        outside = np.any((x < lo - edge) | (x > hi + edge), axis=-1)
        return np.where(outside, np.inf, np.linalg.norm(d, axis=-1))
    elif kind == "quadratic":
        d = mv(p["P"], x) + p["q"] + s
    else:
        raise ValueError(kind)
    return np.linalg.norm(d, axis=-1)


def kkt_residual(inst, x: np.ndarray, mu: np.ndarray):
    """Largest component of the stationarity violation of (x, mu): per-block
    distances to the subdifferential and the norm of Ax - b."""
    s = mv(inst.H, x) + inst.g - mtv(inst.A, mu)
    parts = [term_residual(t, x[..., sl], s[..., sl]) for t, sl in zip(inst.theta, inst.slices())]
    if inst.m:
        parts.append(np.linalg.norm(mv(inst.A, x) - inst.b, axis=-1))
    return np.maximum.reduce(parts)


def prox(term: dict, r, v: np.ndarray) -> np.ndarray:
    """Minimizer of term(x) + (r/2)||x - v||^2."""
    kind, p = term["kind"], term["params"]
    if kind == "zero":
        return v
    if kind == "l1":
        return np.sign(v) * np.maximum(np.abs(v) - p["lam"] / r, 0.0)
    if kind == "box":
        return np.clip(v, p["lo"], p["hi"])
    if kind == "quadratic":
        eye = np.eye(v.shape[-1])
        return mv(np.linalg.inv(p["P"] + np.asarray(r)[..., None] * eye), r * v - p["q"])
    raise ValueError(kind)


def sweeps_to_tol(inst, beta: float, tol: float, max_sweeps: int, linearized: bool = True) -> np.ndarray:
    """Sweeps that cyclic block updates of the augmented Lagrangian take
    until kkt_residual falls to tol (to within CHECK_EVERY sweeps); 0 where
    it does not within max_sweeps. Linearized blocks take a gradient step
    with curvature r_i, the top eigenvalue of H_ii + beta A_i'A_i, then the
    prox of their term; exact blocks minimize over their coordinates (zero
    and quadratic terms only). Without constraint rows this is block
    proximal gradient."""
    batch = inst.H.shape[:-2]
    x, mu = np.zeros(batch + (inst.d,)), np.zeros(batch + (inst.m,))
    A, b = inst.A, inst.b
    blocks = []
    for t, sl in zip(inst.theta, inst.slices()):
        Ai = A[..., :, sl]
        B = inst.H[..., sl, sl] + beta * np.einsum("...ki,...kj->...ij", Ai, Ai)
        if linearized:
            solve = np.linalg.eigvalsh(B)[..., -1:]
        else:
            P = t["params"]["P"] if t["kind"] == "quadratic" else 0.0
            q = t["params"]["q"] if t["kind"] == "quadratic" else 0.0
            solve = (np.linalg.inv(B + P), B, q)
        blocks.append((t, sl, inst.H[..., sl, :], inst.g[..., sl], Ai, solve))
    counts = np.zeros(batch, dtype=int)
    for k in range(1, max_sweeps + 1):
        for t, sl, H_rows, g_i, Ai, solve in blocks:
            grad = mv(H_rows, x) + g_i
            if inst.m:
                grad += mtv(Ai, beta * (mv(A, x) - b) - mu)
            if linearized:
                x[..., sl] = prox(t, solve, x[..., sl] - grad / solve)
            else:
                Kinv, B, q = solve
                x[..., sl] = -mv(Kinv, grad - mv(B, x[..., sl]) + q)
        if inst.m:
            mu = mu - beta * (mv(A, x) - b)
        # checking every CHECK_EVERY sweeps is enough to place a count in a band
        if k % CHECK_EVERY == 0:
            reached = (kkt_residual(inst, x, mu) <= tol) & (counts == 0)
            counts[reached] = k
            if np.all(counts > 0):
                break
    return counts
