"""Small dense linear-algebra helpers shared across modules, with the one
rule each for whether a matrix is symmetric, semidefinite or singular."""

from __future__ import annotations

import numpy as np

from .errors import StructuralError


def sym_part(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def symmetry_defect(M: np.ndarray) -> float:
    """Max-abs difference between a matrix and its transpose."""
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(M - M.T)))


def max_abs(M: np.ndarray) -> float:
    return float(np.abs(M).max()) if M.size else 0.0


def symmetric(M: np.ndarray) -> bool:
    """Whether M equals its transpose up to 1e-12 of its largest entry
    (floored at one)."""
    return symmetry_defect(M) <= 1e-12 * max(1.0, max_abs(M))


def psd_sym(M: np.ndarray) -> tuple[bool, float]:
    """Whether the symmetric part of M is positive semidefinite up to
    roundoff, its smallest eigenvalue at least -1e-10 times its largest
    eigenvalue magnitude (floored at one), and that smallest eigenvalue.
    An empty matrix counts as positive definite."""
    if M.shape[0] == 0:
        return True, np.inf
    w = np.linalg.eigvalsh(sym_part(M))
    return float(w[0]) >= -1e-10 * max(1.0, abs(float(w[0])), abs(float(w[-1]))), float(w[0])


def require_symmetric_psd(M: np.ndarray, name: str) -> float:
    """Raise StructuralError naming M unless it is symmetric and positive
    semidefinite; returns its smallest eigenvalue."""
    if not symmetric(M):
        raise StructuralError(f"{name} is not symmetric")
    psd, w_min = psd_sym(M)
    if not psd:
        raise StructuralError(f"{name} is not positive semidefinite")
    return w_min


def _singular(w: np.ndarray) -> bool:
    """The singularity rule, on ascending eigenvalues: the smallest is at
    most 1e-12 times the largest, floored at one."""
    return float(w[0]) <= 1e-12 * max(1.0, float(w[-1]))


def singular_sym(M: np.ndarray) -> tuple[bool, float]:
    """Whether the symmetric part of M is singular, and its smallest
    eigenvalue."""
    w = np.linalg.eigvalsh(sym_part(M))
    return _singular(w), float(w[0])


def singular_direction(M: np.ndarray) -> tuple[bool, float, np.ndarray]:
    """singular_sym(M) and a unit eigenvector of the smallest eigenvalue,
    with a deterministic sign: its entry of largest magnitude is positive."""
    w, V = np.linalg.eigh(sym_part(M))
    v = V[:, 0]
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0:
        v = -v
    return _singular(w), float(w[0]), v


def rank_svd(M: np.ndarray) -> int:
    """Rank of a square matrix, counted from singular values above
    1e-10 * sigma_max after scaling it symmetrically by one positive diagonal:
    D^-1 M D^-1 with D = sqrt(row max-abs), zero rows left unscaled. The
    scaling leaves the rank unchanged and keeps entries of a wide dynamic
    range, such as H = diag(1e11, 1), from falling below the cutoff."""
    if M.size == 0:
        return 0
    row = np.abs(M).max(axis=1)
    scale = 1.0 / np.sqrt(np.where(row > 0, row, 1.0))
    s = np.linalg.svd(scale[:, None] * M * scale, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))


def block_diag(blocks) -> np.ndarray:
    blocks = [np.atleast_2d(np.asarray(B, dtype=float)) for B in blocks]
    d = sum(B.shape[0] for B in blocks)
    out = np.zeros((d, d))
    at = 0
    for B in blocks:
        k = B.shape[0]
        out[at:at + k, at:at + k] = B
        at += k
    return out


def spectral_radius(M: np.ndarray) -> float:
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root; tiny negative eigenvalues are clipped to zero."""
    w, V = np.linalg.eigh(sym_part(M))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T
