"""Small dense linear-algebra helpers shared across modules, with the one
rule each for whether a matrix is symmetric, semidefinite or singular.

This module is also the one home of every tolerance that decides a verdict,
an error or a warning; the other modules import them from here. A floored
bound is rtol * max(1, scale), as `floored` computes it."""

from __future__ import annotations

import numpy as np

from .errors import StructuralError

# -- decision tolerances ----------------------------------------------------

# Matrix properties, each decided by one rule below: symmetric, semidefinite,
# singular, and the rank cutoff.
SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10
SINGULAR_RTOL = 1e-12
RANK_RTOL = 1e-10

# The sweep engine: a user curvature r_i below (1 - CURVATURE_WARN_RTOL) times
# the block's top eigenvalue warns; a minimum-norm block solve whose residual
# exceeds MIN_NORM_RTOL * (1 + max|rhs|) is unbounded below; a non-quadratic
# block's effective quadratic is a scaled identity when it is off by at most
# floored(SCALED_IDENTITY_RTOL, |ridge|).
CURVATURE_WARN_RTOL = 1e-12
MIN_NORM_RTOL = 1e-8
SCALED_IDENTITY_RTOL = 1e-10

# The order-averaged update: the closed-form M may differ from the direct
# average by at most floored(CONSISTENCY_RTOL, max|M|).
CONSISTENCY_RTOL = 1e-12

# Eigenvalue classification bands. A value within EIG_ONE_TOL of 1+0i counts
# as one; a modulus below 1 - EIG_ONE_TOL counts as strictly inside; anything
# between is indeterminate and fails verdicts conservatively. eig(QS) must lie
# in [QS_LOWER, 4/3 - QS_UPPER_GAP).
EIG_ONE_TOL = 1e-8
QS_LOWER = -1e-10
QS_UPPER_GAP = 1e-12

# Two-block coordinate descent: both orders' radii tie, and the averaged one
# is no smaller, to within RATE_TIE_TOL; a diagonal block is the identity to
# within IDENTITY_TOL (max-abs).
RATE_TIE_TOL = 1e-10
IDENTITY_TOL = 1e-12

# Non-uniqueness witnesses: every curvature piece maps the witness to at most
# WITNESS_RTOL times the data scale (one plus its largest entry); every step of
# the perturbed trajectory passes its optimality recheck to OSCILLATION_RTOL
# times the trajectory scale; the gap persists while each tail step moves at
# least GAP_FRACTION of the witness norm.
WITNESS_RTOL = 1e-10
OSCILLATION_RTOL = 1e-10
GAP_FRACTION = 0.5

# A box bound counts as active when x sits within BOX_EDGE_TOL * (1 + |bound|)
# of it; the KKT oracle's stationarity system is inconsistent when its
# residual exceeds ORACLE_RESIDUAL_RTOL * (1 + |g| + |b|).
BOX_EDGE_TOL = 1e-12
ORACLE_RESIDUAL_RTOL = 1e-10


def floored(rtol: float, *scales: float) -> float:
    """rtol * max(1, *scales): a relative bound that is absolute below one.
    max takes the scales in the order given, so a NaN among them counts as
    it does in that call."""
    return rtol * max(1.0, *scales)


def sym_part(M: np.ndarray) -> np.ndarray:
    """(M + M') / 2, halved before the sum so finite entries never overflow."""
    return 0.5 * M + 0.5 * M.T


def symmetry_defect(M: np.ndarray) -> float:
    """Max-abs difference between a matrix and its transpose."""
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(M - M.T)))


def max_abs(M: np.ndarray) -> float:
    return float(np.abs(M).max()) if M.size else 0.0


def symmetric(M: np.ndarray) -> bool:
    """Whether M equals its transpose up to SYMMETRY_RTOL of its largest
    entry (floored at one)."""
    return symmetry_defect(M) <= floored(SYMMETRY_RTOL, max_abs(M))


def psd_sym(M: np.ndarray) -> tuple[bool, float]:
    """Whether the symmetric part of M is positive semidefinite up to
    roundoff, its smallest eigenvalue at least -PSD_RTOL times its largest
    eigenvalue magnitude (floored at one), and that smallest eigenvalue.
    An empty matrix counts as positive definite."""
    if M.shape[0] == 0:
        return True, np.inf
    w = np.linalg.eigvalsh(sym_part(M))
    return float(w[0]) >= -floored(PSD_RTOL, abs(float(w[0])), abs(float(w[-1]))), float(w[0])


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
    most SINGULAR_RTOL times the largest, floored at one."""
    return float(w[0]) <= floored(SINGULAR_RTOL, float(w[-1]))


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
    RANK_RTOL * sigma_max after scaling it symmetrically by one positive diagonal:
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
    return int(np.sum(s > RANK_RTOL * s[0]))


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
