"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

# Relative SVD cutoff used everywhere a rank is thresholded.
RANK_RTOL = 1e-10


def sym_part(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def symmetry_defect(M: np.ndarray) -> float:
    """Max-abs difference between a matrix and its transpose."""
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(M - M.T)))


def max_abs(M: np.ndarray) -> float:
    return float(np.abs(M).max()) if M.size else 0.0


def min_eig_sym(M: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part. Empty matrices count as PD."""
    if M.shape[0] == 0:
        return np.inf
    return float(np.linalg.eigvalsh(sym_part(M))[0])


def psd_check(M: np.ndarray, rel: float = 1e-10) -> bool:
    """True when min eig >= -rel * ||M||_2, i.e. PSD up to roundoff."""
    if M.shape[0] == 0:
        return True
    w = np.linalg.eigvalsh(sym_part(M))
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1.0)
    return float(w[0]) >= -rel * scale


def rank_svd(M: np.ndarray, rel: float = RANK_RTOL) -> int:
    """Rank counted from singular values above rel * sigma_max."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rel * s[0]))


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


def quad_form(v: np.ndarray, W: np.ndarray) -> float:
    return float(v @ (W @ v))


def unit_min_eigvec(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a symmetric matrix with a deterministic sign:
    the entry of largest magnitude is made positive."""
    w, V = np.linalg.eigh(sym_part(M))
    v = V[:, 0]
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0:
        v = -v
    return float(w[0]), v


def spectral_radius(M: np.ndarray) -> float:
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root; tiny negative eigenvalues are clipped to zero."""
    w, V = np.linalg.eigh(sym_part(M))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T
