"""The sweep update averaged over all block orders.

For instances whose separable terms vanish, one sweep in a fixed block order
is an affine map. Its average over the n! orders is computed here without
enumerating them, by two independent algorithms over the 2^n subsets of
blocks: a DP over block paths for the averaged inverse Q, which yields the
averaged update, and a first-block recursion for the averaged bordered
inverse, which yields the direct average of the per-order updates and
checks the first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._linalg import CONSISTENCY_RTOL, floored, max_abs
from .errors import CertificateError, EnumerationLimitError
from .model import ProblemInstance
from .solvers import check_beta, check_block_solvable

# Cost guard of the two subset algorithms, which do about
# 2^n (d+m)^2 d multiply-adds in batched matmuls and hold one layer of
# C(n, k) (d+m) x (d+m) matrices at a time. Instances of up to
# MAX_UNGUARDED_BLOCKS blocks are admitted whatever their size, as when the
# n! orders were enumerated: for them the estimate is at most twice
# n! (d+m)^2 d, less than the enumeration's work, and a layer holds at most
# 70 matrices, about as many as the enumeration's stack of 64 orders. Beyond
# that the estimate must not exceed MAX_SUBSET_WORK. With one BLAS thread on a 2 GHz
# Xeon, builds just under that limit (14 scalar blocks and 3 rows, or 12
# two-dimensional blocks and 2 rows) took at most 0.6 s and 32 MB of traced
# peak memory.
MAX_UNGUARDED_BLOCKS = 8
MAX_SUBSET_WORK = 2**26


def check_sweep_blocks(inst: ProblemInstance, beta: float) -> None:
    for i in range(inst.blocks.n):
        check_block_solvable(inst.block_curvature(i, beta), i)


@functools.lru_cache(maxsize=None)
def subset_layers(n: int) -> tuple:
    """For k = 1..n, an (N_k, n) index array over the k-subsets of the n
    blocks, in increasing order of their bit masks: entry [t, b] is the
    position, among the (k-1)-subsets, of subset t without block b, or
    N_{k-1} (a sentinel for a zero matrix) when b is not in subset t.

    Cached and read-only: they depend on n alone, and the cost guard keeps
    n at most 14, so the cache holds at most 4 MB."""
    masks = np.arange(2**n)
    bits = 1 << np.arange(n)
    member = (masks[:, None] & bits) != 0
    size = member.sum(axis=1)
    order = np.argsort(size, kind="stable")
    counts = np.bincount(size, minlength=n + 1)
    starts = np.cumsum(counts)
    rank = np.empty(2**n, dtype=np.intp)
    rank[order] = np.arange(2**n) - (starts - counts)[size[order]]
    src = np.where(member, rank[masks[:, None] ^ bits], counts[np.maximum(size - 1, 0)][:, None])[order]
    src.setflags(write=False)
    return tuple(src[a:b] for a, b in zip(starts[:-1], starts[1:]))


def _gather_rows(stack: np.ndarray, src: np.ndarray) -> np.ndarray:
    """out[t, r] = stack[src[t, r], r]. The last entry of the stack is the
    zero sentinel."""
    return stack[src, np.arange(stack.shape[1])]


def _sentinel_stack(layer: np.ndarray) -> np.ndarray:
    """A zero stack one entry longer than the layer, in its precision."""
    return np.zeros((len(layer) + 1,) + layer.shape[1:], dtype=layer.dtype)


def averaged_inverse(S: np.ndarray, Dinv: np.ndarray, blk: np.ndarray, layers: tuple) -> np.ndarray:
    """Q = E_sigma[L_sigma^-1] by a DP over simple block paths.

    L_sigma^-1 sums, over block paths i = k_0 <- k_1 <- ... <- k_l = j that
    run backwards through the order, the terms
    (-1)^l D_k0^-1 S_k0k1 D_k1^-1 ... D_kl^-1, and l+1 given blocks fall in
    that relative order with probability 1/(l+1)!. The state of a visited
    set T is a d x d matrix whose row block e holds the paths of T ending at
    e, with the column block recording where each path started; adding a
    new end e' multiplies by -1/|T| D_e'^-1 S_e'e. Q sums every state."""
    G = Dinv @ np.where(blk[:, None] == blk[None, :], 0.0, S)
    layer = np.where(blk[None, :, None] == np.arange(len(layers))[:, None, None], Dinv, 0.0)
    Q = layer.sum(axis=0)
    for k, src in enumerate(layers[1:], start=2):
        ext = _sentinel_stack(layer)
        np.matmul(G, layer, out=ext[:-1])
        layer = _gather_rows(ext, src[:, blk])
        layer *= -1.0 / k
        Q += layer.sum(axis=0)
    return Q


def averaged_bordered_inverse(C: np.ndarray, Dinv: np.ndarray, blk: np.ndarray, layers: tuple) -> np.ndarray:
    """E_sigma[Lbar_sigma^-1] by conditioning on the first block of the order.

    Lbar_sigma is the bordered factor with the multiplier block last and
    coupling C = [S; beta A]. With first block k, the inverse over the blocks
    T is Qbar(T - k) plus column block k, [D_k^-1; -Qbar(T - k) C_k D_k^-1],
    where Qbar(T - k) averages over the orders of the other blocks; Qbar(T)
    averages this over k in T, from Qbar(empty) = I_m. Each Qbar(T) is held
    transposed in a full (d+m) x (d+m) array, so that column block k becomes
    a row block."""
    d = Dinv.shape[0]
    size = C.shape[0]
    ZT = np.zeros((size, size))
    ZT[:d] = (C @ Dinv).T
    DT = np.zeros((size, size))
    DT[:d, :d] = Dinv.T
    # multiplier rows belong to an extra block, which no subset contains
    rows = np.concatenate([blk, np.full(size - d, len(layers))])
    layer = np.zeros((1, size, size))
    layer[0, d:, d:] = np.eye(size - d)
    for k, src in enumerate(layers, start=1):
        # the sentinel sorts last, so the first k columns are the members
        members = np.sort(src, axis=1)[:, :k]
        src = np.concatenate([src, np.full((len(src), 1), len(layer))], axis=1)
        ext = _sentinel_stack(layer)
        np.matmul(-ZT, layer, out=ext[:-1])
        ext[:-1] += DT
        new = _gather_rows(ext, src[:, rows])
        del ext
        for p in range(k):
            new += layer[members[:, p]]
        new /= k
        layer = new
    return layer[0].T


def bordered_curvature(S: np.ndarray, A: np.ndarray, beta) -> np.ndarray:
    """Sbar = [[S, -A'], [beta A, 0]], in the precision of S."""
    d, m = S.shape[0], A.shape[0]
    Sbar = np.zeros((d + m, d + m), dtype=S.dtype)
    Sbar[:d, :d] = S
    Sbar[:d, d:] = -A.T
    Sbar[d:, :d] = beta * A
    return Sbar


@dataclass
class AveragedUpdate:
    """The order-averaged affine sweep update z -> M z + c, with the
    curvature S, the bordered curvature Sbar, the averaged inverse Q, and the
    largest entry of M minus the direct average of the per-order updates."""

    S: np.ndarray
    Sbar: np.ndarray
    Q: np.ndarray
    M: np.ndarray
    c: np.ndarray
    consistency: float


def averaged_update(inst: ProblemInstance, beta: float) -> AveragedUpdate:
    """Average the sweep update over all block orders.

    Q comes from the path DP. With Qbar = [[Q, 0], [-beta A Q, I]] and
    bbar = [-g + beta A'b; beta b], the averaged update is M = I - Qbar Sbar
    and its offset c = Qbar bbar. M and c are assembled from Q in extended
    precision and rounded once: on instances with a multiple unit eigenvalue
    the expected iteration drifts along its eigenvectors by the rounding
    error of M and c, and in double precision that drift can exceed a
    stopping tolerance of 1e-12. M is verified to CONSISTENCY_RTOL against
    the direct average of the per-order updates, I - E[Lbar_sigma^-1] Sbar,
    whose averaged bordered inverse comes from the independent first-block
    recursion.
    """
    inst.require_zero_terms("the order-averaged update")
    n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
    work = 2**n * (d + m) ** 2 * d
    if n > MAX_UNGUARDED_BLOCKS and work > MAX_SUBSET_WORK:
        raise EnumerationLimitError(
            f"averaging over block orders needs an estimated {work:.3g} multiply-adds "
            f"(2^n (d+m)^2 d), above the limit of {MAX_SUBSET_WORK:.3g} "
            f"for more than {MAX_UNGUARDED_BLOCKS} blocks"
        )
    check_beta(beta)
    check_sweep_blocks(inst, beta)
    S = inst.curvature(beta)
    Sbar = bordered_curvature(S, inst.A, beta)
    blk = np.repeat(np.arange(n), inst.blocks.dims)
    # the block-diagonal inverse: elimination never mixes the blocks
    Dinv = np.linalg.inv(np.where(blk[:, None] == blk[None, :], S, 0.0))
    layers = subset_layers(n)
    Q = averaged_inverse(S, Dinv, blk, layers)

    ext = np.longdouble
    A, g, b = (a.astype(ext) for a in (inst.A, inst.g, inst.b))
    beta_x = ext(beta)
    Qbar = np.zeros((d + m, d + m), dtype=ext)
    Qbar[:d, :d] = Q
    Qbar[d:, :d] = -beta_x * (A @ Q)
    Qbar[d:, d:] = np.eye(m)
    Sbar_x = bordered_curvature(inst.H.astype(ext) + beta_x * (A.T @ A), A, beta_x)
    M = (np.eye(d + m) - Qbar @ Sbar_x).astype(float)
    c = (Qbar @ np.concatenate([-g + beta_x * (A.T @ b), beta_x * b])).astype(float)

    M_direct = np.eye(d + m) - averaged_bordered_inverse(Sbar[:, :d], Dinv, blk, layers) @ Sbar
    consistency = max_abs(M - M_direct)
    if consistency > floored(CONSISTENCY_RTOL, max_abs(M)):
        raise CertificateError(
            f"closed-form averaged update disagrees with the direct average by {consistency:.3e}"
        )
    return AveragedUpdate(S=S, Sbar=Sbar, Q=Q, M=M, c=c, consistency=consistency)
