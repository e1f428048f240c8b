"""Catalog of separable terms with closed-form proximal maps.

Each term knows how to evaluate itself, how to solve
min f(x) + (r/2)||x - v||^2 exactly, and the exact Euclidean distance
from a point to its subdifferential. The catalog is closed so those
distances stay exact; arbitrary callables enter only through the
``opaque`` kind, which supports prox evaluation but no exact residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import BOX_EDGE_TOL, block_diag, psd_sym, require_symmetric_psd
from .errors import DomainError, StructuralError, UnsupportedOracleError, UsageError

KINDS = ("zero", "l1", "box", "quadratic", "opaque")


@dataclass(frozen=True, eq=False)
class ProxFn:
    """One separable term: a kind tag, its parameters, and an optional
    declared strong-convexity weight matrix (PSD, defaults to zero)."""

    kind: str
    params: dict = field(default_factory=dict)
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown term kind {self.kind!r}; expected one of {KINDS}")
        if self.sigma is not None:
            object.__setattr__(self, "sigma", _freeze(np.atleast_2d(self.sigma)))
            _check_finite("sigma", self.sigma)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sigma=None) -> "ProxFn":
        """The identically-zero term."""
        return cls("zero", {}, sigma)

    @classmethod
    def l1(cls, lam: float, sigma=None) -> "ProxFn":
        """lam * ||x||_1 with lam >= 0."""
        lam = float(lam)
        _check_finite("l1 weight", lam)
        if lam < 0:
            raise UsageError("l1 weight must be nonnegative")
        return cls("l1", {"lam": lam}, sigma)

    @classmethod
    def box(cls, lo, hi, sigma=None) -> "ProxFn":
        """Indicator of the box [lo, hi]; +-inf entries mark unbounded sides."""
        lo = _freeze(np.atleast_1d(np.asarray(lo, dtype=float)))
        hi = _freeze(np.atleast_1d(np.asarray(hi, dtype=float)))
        if lo.shape != hi.shape:
            raise StructuralError("box bounds must have matching shapes")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise StructuralError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise StructuralError("box requires lo <= hi elementwise")
        return cls("box", {"lo": lo, "hi": hi}, sigma)

    @classmethod
    def quadratic(cls, P, q, sigma=None) -> "ProxFn":
        """(1/2) x'Px + q'x with P symmetric PSD."""
        P = _freeze(np.atleast_2d(np.asarray(P, dtype=float)))
        q = _freeze(np.atleast_1d(np.asarray(q, dtype=float)))
        if P.shape[0] != P.shape[1] or P.shape[0] != q.shape[0]:
            raise StructuralError("quadratic term needs square P matching q")
        _check_finite("quadratic P", P)
        _check_finite("quadratic q", q)
        require_symmetric_psd(P, "quadratic term matrix P")
        return cls("quadratic", {"P": P, "q": q}, sigma)

    @classmethod
    def opaque(cls, prox, value=None, sigma=None) -> "ProxFn":
        """User-supplied prox callable prox(r, v) -> x; exact residuals are
        unavailable for this kind."""
        if not callable(prox):
            raise UsageError("opaque term needs a callable prox(r, v)")
        return cls("opaque", {"prox": prox, "value": value}, sigma)

    # -- helpers -------------------------------------------------------

    def sigma_matrix(self, dim: int) -> np.ndarray:
        if self.sigma is None:
            return np.zeros((dim, dim))
        return np.asarray(self.sigma, dtype=float)

    def validate(self, dim: int) -> None:
        """Check parameter shapes against the block dimension and the
        declared modulus sigma against the term's curvature."""
        if self.sigma is not None:
            s = np.asarray(self.sigma)
            if s.shape != (dim, dim):
                raise StructuralError(f"sigma has shape {s.shape}, block needs ({dim}, {dim})")
            require_symmetric_psd(s, "sigma")
        if self.kind == "box":
            for key in ("lo", "hi"):
                v = self.params[key]
                if v.shape not in ((1,), (dim,)):
                    raise StructuralError(f"box bound {key} has shape {v.shape}, block needs ({dim},)")
        elif self.kind == "quadratic":
            P = self.params["P"]
            if P.shape != (dim, dim):
                raise StructuralError(f"quadratic P has shape {P.shape}, block needs ({dim}, {dim})")
        # sigma may not exceed the curvature, P or zero (opaque terms are not
        # checked); P's semidefinite spectrum joins the test so that P - sigma
        # is judged at the scale of P, where its roundoff lies
        if self.sigma is not None and self.kind != "opaque":
            P = self.params["P"] if self.kind == "quadratic" else np.zeros((dim, dim))
            if not psd_sym(block_diag([P - self.sigma, P]))[0]:
                raise StructuralError(f"sigma exceeds the curvature of the {self.kind} term")


def _check_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise StructuralError(f"{name} must be finite")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _box_bounds(f: ProxFn, dim: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.broadcast_to(f.params["lo"], (dim,))
    hi = np.broadcast_to(f.params["hi"], (dim,))
    return lo, hi


def _box_edge(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-coordinate distance within which x counts as on a bound: the
    iterates handed to residual checks come straight from exact clips."""
    edge = BOX_EDGE_TOL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    return np.where(np.isfinite(edge), edge, BOX_EDGE_TOL)


def prox_eval(f: ProxFn, r: float, v: np.ndarray) -> np.ndarray:
    """Exact minimizer of f(x) + (r/2)||x - v||^2 for r > 0."""
    if not r > 0:
        raise UsageError("prox weight r must be positive")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if f.kind == "zero":
        return v.copy()
    if f.kind == "l1":
        lam = f.params["lam"]
        return np.sign(v) * np.maximum(np.abs(v) - lam / r, 0.0)
    if f.kind == "box":
        lo, hi = _box_bounds(f, v.shape[0])
        return np.clip(v, lo, hi)
    if f.kind == "quadratic":
        P, q = f.params["P"], f.params["q"]
        return np.linalg.solve(P + r * np.eye(P.shape[0]), r * v - q)
    # opaque
    out = np.atleast_1d(np.asarray(f.params["prox"](r, v), dtype=float))
    if out.shape != v.shape:
        raise UsageError("opaque prox returned a vector of the wrong shape")
    return out


def subdiff_distance(f: ProxFn, x: np.ndarray, s: np.ndarray) -> float:
    """Exact Euclidean distance from -s to the subdifferential of f at x.

    This is the per-block stationarity violation when s collects all the
    smooth and multiplier contributions at x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = -s
    if f.kind == "zero":
        return float(np.linalg.norm(t))
    if f.kind == "l1":
        lam = f.params["lam"]
        at_zero = x == 0.0
        d = np.where(
            at_zero,
            np.maximum(np.abs(t) - lam, 0.0),
            np.abs(t - lam * np.sign(x)),
        )
        return float(np.linalg.norm(d))
    if f.kind == "box":
        lo, hi = _box_bounds(f, x.shape[0])
        edge = _box_edge(lo, hi)
        if np.any(x < lo - edge) or np.any(x > hi + edge):
            raise DomainError("point lies outside the box")
        at_lo = x <= lo + edge
        at_hi = x >= hi - edge
        # normal cone per coordinate: {0} inside, a ray on a face, R on a pin
        d = np.abs(t)
        d = np.where(at_lo & ~at_hi, np.maximum(t, 0.0), d)
        d = np.where(at_hi & ~at_lo, np.maximum(-t, 0.0), d)
        d = np.where(at_lo & at_hi, 0.0, d)
        return float(np.linalg.norm(d))
    if f.kind == "quadratic":
        P, q = f.params["P"], f.params["q"]
        return float(np.linalg.norm(P @ x + q + s))
    raise UnsupportedOracleError(
        "opaque terms carry no subdifferential oracle; use the solver's surrogate residual"
    )


def fn_value(f: ProxFn, x: np.ndarray) -> float:
    """Value of the term at x. Opaque terms without a value callable give nan;
    box indicators give +inf outside their domain."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if f.kind == "zero":
        return 0.0
    if f.kind == "l1":
        return float(f.params["lam"] * np.sum(np.abs(x)))
    if f.kind == "box":
        lo, hi = _box_bounds(f, x.shape[0])
        edge = _box_edge(lo, hi)
        inside = np.all(x >= lo - edge) and np.all(x <= hi + edge)
        return 0.0 if inside else float("inf")
    if f.kind == "quadratic":
        P, q = f.params["P"], f.params["q"]
        return float(0.5 * x @ (P @ x) + q @ x)
    value = f.params.get("value")
    if value is None:
        return float("nan")
    return float(value(x))


def prox_fn_to_dict(f: ProxFn) -> dict:
    """JSON-ready form. Opaque terms are not serializable."""
    if f.kind == "opaque":
        raise UsageError("opaque terms cannot be serialized")
    params: dict = {}
    if f.kind == "l1":
        params["lam"] = f.params["lam"]
    elif f.kind == "box":
        params["lo"] = f.params["lo"].tolist()
        params["hi"] = f.params["hi"].tolist()
    elif f.kind == "quadratic":
        params["P"] = f.params["P"].tolist()
        params["q"] = f.params["q"].tolist()
    sigma = None if f.sigma is None else np.asarray(f.sigma).tolist()
    return {"kind": f.kind, "params": params, "sigma": sigma}


def prox_fn_from_dict(doc: dict) -> ProxFn:
    kind = doc.get("kind")
    params = doc.get("params", {}) or {}
    sigma = doc.get("sigma")
    if kind == "zero":
        return ProxFn.zero(sigma)
    if kind == "l1":
        return ProxFn.l1(params["lam"], sigma)
    if kind == "box":
        return ProxFn.box(params["lo"], params["hi"], sigma)
    if kind == "quadratic":
        return ProxFn.quadratic(params["P"], params["q"], sigma)
    if kind == "opaque":
        raise UsageError("opaque terms cannot be loaded from documents")
    raise UsageError(f"unknown term kind {kind!r}")
