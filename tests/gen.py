"""Seeded random-instance generators shared across the test suite."""

import numpy as np

import coupled_splitting as cs
from coupled_splitting._averaging import MAX_SUBSET_WORK


def random_psd(rng, d, rank=None, scale=1.0):
    """Random symmetric PSD matrix, optionally rank-deficient."""
    if d == 0:
        return np.zeros((0, 0))
    k = d if rank is None else max(int(rank), 0)
    if k == 0:
        return np.zeros((d, d))
    G = rng.standard_normal((d, k))
    M = (G @ G.T) * (scale / k)
    return 0.5 * (M + M.T)


def random_prox(rng, dim, kinds=("zero", "l1", "box", "quadratic"), center=None):
    """One random separable term of a requested kind, feasible at `center`."""
    kind = str(rng.choice(list(kinds)))
    if center is None:
        center = np.zeros(dim)
    if kind == "zero":
        return cs.ProxFn.zero()
    if kind == "l1":
        return cs.ProxFn.l1(float(0.1 + rng.random()))
    if kind == "box":
        lo = center - 0.3 - rng.random(dim)
        hi = center + 0.3 + rng.random(dim)
        return cs.ProxFn.box(lo, hi)
    if kind == "quadratic":
        P = random_psd(rng, dim, scale=1.0)
        q = rng.standard_normal(dim)
        sigma = None
        if rng.random() < 0.5:
            w = np.linalg.eigvalsh(P)
            if w[0] > 1e-8:
                sigma = float(w[0]) * np.eye(dim)
        return cs.ProxFn.quadratic(P, q, sigma=sigma)
    raise ValueError(kind)


def soft_threshold_opaque(lam):
    """An l1 term of weight lam exposed as a black box (kind opaque)."""
    return cs.ProxFn.opaque(
        lambda r, v: np.sign(v) * np.maximum(np.abs(v) - lam / r, 0.0),
        value=lambda x: lam * float(np.sum(np.abs(x))),
    )


def mixed_instance(rng, dims, m, kinds):
    """Strongly convex instance with one term per block, of the given kinds
    ("opaque" is a black-box soft threshold); boxes contain a feasible point."""
    d = sum(dims)
    W = rng.standard_normal((d, d))
    H = W @ W.T / d + 0.5 * np.eye(d)
    H = 0.5 * (H + H.T)
    A = rng.standard_normal((m, d))
    x_feas = rng.standard_normal(d)
    blocks = cs.BlockStructure(dims=dims, m=m)
    theta = tuple(
        soft_threshold_opaque(0.4) if kind == "opaque"
        else random_prox(rng, dims[i], kinds=(kind,), center=x_feas[blocks.slice_of(i)])
        for i, kind in enumerate(kinds)
    )
    return cs.ProblemInstance(blocks=blocks, H=H, g=rng.standard_normal(d), A=A, b=A @ x_feas, theta=theta)


def block_curvatures(inst, beta):
    """B_i = H_ii + beta A_i'A_i for every block."""
    return [
        inst.H_block(i, i) + beta * (inst.A_block(i).T @ inst.A_block(i)) for i in range(inst.blocks.n)
    ]


def scaled_identity_R(inst, beta, margin=1.5):
    """R_i = r_i I - B_i with r_i above the top eigenvalue of B_i, so every
    block's subproblem is a scaled identity and prox blocks are solvable."""
    return [
        margin * float(np.linalg.eigvalsh(B)[-1]) * np.eye(B.shape[0]) - B
        for B in block_curvatures(inst, beta)
    ]


def two_block_instance(
    rng,
    kinds=("zero", "l1", "box", "quadratic"),
    d_max=5,
    m_max=4,
    h_shift=(0.5, 1.5),
    h_spread=1.0,
    min_m=1,
):
    """Random strongly convex two-block instance with a feasible interior
    point (box terms are centered on it), suitable for the constrained
    two-block solvers."""
    d1 = int(rng.integers(1, d_max + 1))
    d2 = int(rng.integers(1, d_max + 1))
    d = d1 + d2
    m = int(rng.integers(min_m, min(m_max, d) + 1))
    W = rng.standard_normal((d, d))
    H = (W @ W.T) * (h_spread / d) + float(rng.uniform(*h_shift)) * np.eye(d)
    H = 0.5 * (H + H.T)
    A = rng.standard_normal((m, d))
    x_feas = rng.standard_normal(d)
    b = A @ x_feas
    g = rng.standard_normal(d)
    blocks = cs.BlockStructure(dims=(d1, d2), m=m)
    theta = tuple(
        random_prox(rng, dim, kinds=kinds, center=x_feas[blocks.slice_of(i)])
        for i, dim in enumerate((d1, d2))
    )
    return cs.ProblemInstance(blocks=blocks, H=H, g=g, A=A, b=b, theta=theta)


def drop_rows(inst):
    """The instance without its constraint rows: the objective alone, which
    is the problem bcd and bcpg solve."""
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=inst.blocks.dims, m=0),
        H=inst.H, g=inst.g, A=np.zeros((0, inst.blocks.d)), b=np.zeros(0), theta=inst.theta,
    )


def proximal_weights_for(inst, beta, rng=None, margin_range=(1.2, 2.0)):
    """Per-block proximal weights for the constrained two-block solver:
    every block gets the scaled-identity-inducing choice r_i I - B_i with
    r_i a margin above the top curvature of B_i = H_ii + beta A_i'A_i.
    Nonsmooth blocks need this form; using it everywhere also keeps the
    contraction slow enough that residual trends are observable before the
    floating-point floor."""
    out = []
    for i in range(inst.blocks.n):
        dim = inst.blocks.dims[i]
        B = inst.block_curvature(i, beta)
        margin = margin_range[0] if rng is None else float(rng.uniform(*margin_range))
        r = float(np.linalg.eigvalsh(B)[-1]) * margin
        out.append(r * np.eye(dim) - B)
    return out


def quadratic_two_block_instance(rng, d_max=5, m_max=4, max_inv_norm=100.0, **kw):
    """Two-block instance whose terms are all zero/quadratic, resampled until
    the stationarity system is well conditioned (so direct solutions are
    trustworthy references)."""
    while True:
        inst = two_block_instance(rng, kinds=("zero", "quadratic"), d_max=d_max, m_max=m_max, **kw)
        d, m = inst.blocks.d, inst.blocks.m
        H_eff = inst.H.copy()
        for i in range(2):
            if inst.theta[i].kind == "quadratic":
                sl = inst.blocks.slice_of(i)
                H_eff[sl, sl] += np.asarray(inst.theta[i].params["P"], dtype=float)
        K = np.zeros((d + m, d + m))
        K[:d, :d] = H_eff
        K[:d, d:] = -inst.A.T
        K[d:, :d] = inst.A
        s = np.linalg.svd(K, compute_uv=False)
        if s[-1] > 1.0 / max_inv_norm:
            return inst


def spectral_instance(rng, n_choices=(2, 3, 4), d_max=3, allow_singular=True):
    """Random all-zero-term instance with positive definite per-block sweep
    curvature (H rank may be deficient; constraint rows may be dependent) and
    a consistent stationarity system."""
    while True:
        n = int(rng.choice(list(n_choices)))
        dims = tuple(int(rng.integers(1, d_max + 1)) for _ in range(n))
        d = sum(dims)
        m = int(rng.integers(1, d + 1))
        if allow_singular:
            h_rank = int(rng.integers(0, d + 1))
        else:
            h_rank = d
        H = random_psd(rng, d, rank=h_rank)
        A = rng.standard_normal((m, d))
        if allow_singular and m >= 2 and rng.random() < 0.4:
            # duplicate a constraint row so the penalty Gram loses rank
            A[m - 1] = A[int(rng.integers(0, m - 1))]
        # unit constraint rows keep the penalized curvature well scaled
        # across the tested beta range
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        blocks = cs.BlockStructure(dims=dims, m=m)
        ok = True
        for i in range(n):
            sl = blocks.slice_of(i)
            Ai = A[:, sl]
            B = H[sl, sl] + Ai.T @ Ai
            w = np.linalg.eigvalsh(0.5 * (B + B.T))
            if w[0] <= 1e-6 * max(1.0, w[-1]):
                ok = False
                break
        if not ok:
            continue
        xbar = rng.standard_normal(d)
        mubar = rng.standard_normal(m)
        g = A.T @ mubar - H @ xbar
        b = A @ xbar
        return cs.ProblemInstance(blocks=blocks, H=H, g=g, A=A, b=b)


def violating_instance(rng, d_max=4, m_max=3):
    """Two-block instance with a planted unit direction annihilated by every
    curvature piece (so the subproblem uniqueness condition fails) and a
    stationarity system that remains consistent."""
    d1 = int(rng.integers(1, d_max + 1))
    d2 = int(rng.integers(1, d_max + 1))
    d = d1 + d2
    m = int(rng.integers(1, m_max + 1))
    # plant the null direction inside block 1
    y1 = rng.standard_normal(d1)
    y1 /= np.linalg.norm(y1)
    # orthonormal basis of block 1 starting with the planted direction;
    # all curvature lives on the remaining columns
    Mrand = rng.standard_normal((d1, d1))
    Mrand[:, 0] = y1
    Q1, _ = np.linalg.qr(Mrand)
    P_rest = Q1[:, 1:]
    # H = U C U' with U spanning the complement of the planted direction,
    # so H is PSD with the planted vector exactly in its kernel
    U = np.zeros((d, d - 1))
    if d1 > 1:
        U[:d1, : d1 - 1] = P_rest
    U[d1:, d1 - 1 :] = np.eye(d2)
    C = random_psd(rng, d - 1, scale=1.0) + 0.3 * np.eye(d - 1)
    H = U @ C @ U.T
    H = 0.5 * (H + H.T)
    A1 = (rng.standard_normal((m, d1 - 1)) @ P_rest.T) if d1 > 1 else np.zeros((m, 1))
    A2 = rng.standard_normal((m, d2))
    A = np.hstack([A1, A2])
    xbar = rng.standard_normal(d)
    mubar = rng.standard_normal(m)
    g = A.T @ mubar - H @ xbar
    b = A @ xbar
    blocks = cs.BlockStructure(dims=(d1, d2), m=m)
    ybar = np.concatenate([y1, np.zeros(d2)])
    return cs.ProblemInstance(blocks=blocks, H=H, g=g, A=A, b=b), ybar


def past_guard_instance():
    """The smallest scalar-block instance with 14 blocks that the cost guard
    of the averaged update refuses: one constraint row fewer stays within
    the limit."""
    n = d = 14
    m = next(m for m in range(d) if 2**n * (d + m) ** 2 * d > MAX_SUBSET_WORK)
    assert m > 0
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1,) * n, m=m),
        H=np.eye(n), g=np.zeros(n), A=np.ones((m, n)), b=np.ones(m),
    )
