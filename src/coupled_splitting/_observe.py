"""Exact per-block stationarity violations and objective values of many
points at once, for the rows of a solver trace.

Each formula is a stacked numpy product whose rows are the BLAS calls the
same formula makes on one point, so every row equals, bit for bit, the
one-point result (tests/oracles.py keeps the one-point recipe).
"""

from __future__ import annotations

import math

import numpy as np

from .model import ProblemInstance
from .prox import _box_bounds, _box_edge, fn_value


class _Observer:
    """Exact per-block stationarity violations and the objective at many
    points at once, from whole-vector formulas laid out once per run.

    Quadratic terms are folded into the smooth part, H' = H + blkdiag(P_i)
    and g' = g + q; l1 weights and box bounds are spread over the full
    vector, with a mask for each kind. The formulas are those of
    prox.subdiff_distance and prox.fn_value, which stay the per-block
    references; only opaque terms are evaluated block by block.
    """

    def __init__(self, inst: ProblemInstance):
        blocks, d = inst.blocks, inst.blocks.d
        self.H = inst.H.copy()
        self.g = inst.g.copy()
        self.At = np.ascontiguousarray(inst.A.T) if blocks.m else None
        self.offsets = np.asarray(blocks.offsets)
        self.lam = np.zeros(d)
        self.l1 = np.zeros(d, dtype=bool)
        lo, hi = np.full(d, -math.inf), np.full(d, math.inf)
        self.box = np.zeros(d, dtype=bool)
        self.opaque = []
        for i, f in enumerate(inst.theta):
            sl = blocks.slice_of(i)
            if f.kind == "quadratic":
                self.H[sl, sl] += f.params["P"]
                self.g[sl] += f.params["q"]
            elif f.kind == "l1":
                self.lam[sl] = f.params["lam"]
                self.l1[sl] = True
            elif f.kind == "box":
                lo[sl], hi[sl] = _box_bounds(f, blocks.dims[i])
                self.box[sl] = True
            elif f.kind == "opaque":
                self.opaque.append((f, sl))
        self.exact = not self.opaque
        self.l1_at = np.flatnonzero(self.l1)
        self.lam_at = self.lam[self.l1_at]
        self.has_box = bool(self.box.any())
        # off the boxes lo = -inf and hi = inf, so no coordinate there lies
        # outside; within edge of a bound x sits on that face
        edge = _box_edge(lo, hi)
        self.out_lo, self.out_hi = lo - edge, hi + edge
        self.face_lo, self.face_hi = lo + edge, hi - edge

    def rows(self, X: np.ndarray, MU: np.ndarray) -> tuple:
        """(r_dual, objective) at each row pair (x, mu) of X and MU. r_dual
        is NaN when some term is opaque; a block with a coordinate outside its
        box reads inf, and so does the objective. Each row's values equal, bit
        for bit, those of the same formulas on that row alone."""
        HX = _gemv(self.H, X)
        objective = 0.5 * _dots(X, HX) + _dots(X, self.g)
        if self.l1_at.size:
            # gathered C-ordered: a row of X[:, l1_at] is strided, and ddot
            # rounds a strided vector differently
            objective += _dots(np.abs(X[:, self.l1_at], order="C"), self.lam_at)
        outside = None
        if self.has_box:
            outside = (X < self.out_lo) | (X > self.out_hi)
            objective[outside.any(axis=1)] = math.inf
        for f, sl in self.opaque:
            objective += [fn_value(f, x) for x in X[:, sl]]
        if not self.exact:
            return math.nan, objective
        S = HX + self.g
        if self.At is not None:
            S -= _gemv(self.At, MU)
        # distance from -s to the subdifferential, coordinate by coordinate
        dist = np.abs(S)
        if self.l1_at.size:
            lam = self.lam
            l1 = np.where(X == 0.0, np.maximum(dist - lam, 0.0), np.abs(S + lam * np.sign(X)))
            dist = np.where(self.l1, l1, dist)
        if self.has_box:
            at_lo = X <= self.face_lo
            at_hi = X >= self.face_hi
            # normal cone: {0} inside, a ray on a face, R on a pinned coordinate
            box = np.where(
                at_lo,
                np.where(at_hi, 0.0, np.maximum(-S, 0.0)),
                np.where(at_hi, np.maximum(S, 0.0), dist),
            )
            dist = np.where(self.box, box, dist)
        r_dual = np.sqrt(np.add.reduceat(dist * dist, self.offsets, axis=1))
        if outside is not None:
            # outside dom theta_i the subdifferential is empty (possible only
            # at the start point, before the first sweep projects the block)
            r_dual[np.logical_or.reduceat(outside, self.offsets, axis=1)] = math.inf
        return r_dual, objective


def _gemv(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M.dot(x) for each row x of X, by one stacked matmul whose rows are
    gemv calls; X @ M.T is one gemm and rounds differently."""
    return np.matmul(M[None], X[:, :, None])[:, :, 0]


def _dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x.dot(y) for each row x of X and row y of Y (or the one vector Y), by
    one stacked matmul whose rows are ddot calls."""
    return np.matmul(X[:, None, :], Y[..., None])[:, 0, 0]


def _quad_rows(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """v @ (W @ v) for each row v of V."""
    return _dots(V, _gemv(W, V))
