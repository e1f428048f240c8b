"""Tests for the separable-term catalog: proximal maps, subdifferential
distances, values, and serialization."""

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting.errors import DomainError, StructuralError, UnsupportedOracleError
from coupled_splitting.prox import (
    fn_value,
    prox_eval,
    prox_fn_from_dict,
    prox_fn_to_dict,
    subdiff_distance,
)


def _arr(*vals):
    return np.asarray(vals, dtype=float)


# -- prox_eval ---------------------------------------------------------------


def test_prox_zero_is_identity():
    f = cs.ProxFn.zero()
    v = _arr(1.5, -2.0, 0.0)
    out = prox_eval(f, 3.7, v)
    assert np.array_equal(out, v)
    assert out is not v


def test_prox_l1_soft_threshold_points():
    f = cs.ProxFn.l1(1.0)
    assert prox_eval(f, 1.0, _arr(2.0))[0] == 1.0
    assert prox_eval(f, 1.0, _arr(-0.5))[0] == 0.0


def test_prox_box_projects():
    f = cs.ProxFn.box(_arr(0.0), _arr(1.0))
    assert prox_eval(f, 3.0, _arr(1.7))[0] == 1.0
    assert prox_eval(f, 3.0, _arr(-0.2))[0] == 0.0
    assert prox_eval(f, 3.0, _arr(0.4))[0] == 0.4


def test_prox_box_idempotent():
    rng = np.random.default_rng(0)
    lo, hi = -rng.random(4), rng.random(4)
    f = cs.ProxFn.box(lo, hi)
    v = rng.standard_normal(4) * 3
    once = prox_eval(f, 2.0, v)
    twice = prox_eval(f, 2.0, once)
    assert np.array_equal(once, twice)


def test_prox_quadratic_matches_linear_solve():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((3, 3))
    P = G @ G.T
    q = rng.standard_normal(3)
    f = cs.ProxFn.quadratic(P, q)
    r, v = 1.7, rng.standard_normal(3)
    out = prox_eval(f, r, v)
    # stationarity: P x + q + r (x - v) = 0
    assert np.linalg.norm(P @ out + q + r * (out - v)) < 1e-12


def test_prox_minimizes_objective():
    """prox(v) beats nearby points on f(x) + (r/2)||x - v||^2."""
    rng = np.random.default_rng(2)
    fns = [
        cs.ProxFn.l1(0.7),
        cs.ProxFn.box(_arr(-0.5, -0.5), _arr(0.5, 1.0)),
        cs.ProxFn.quadratic(np.eye(2) * 2.0, _arr(0.3, -0.1)),
    ]
    for f in fns:
        for _ in range(20):
            r = 0.5 + rng.random()
            v = rng.standard_normal(2)
            x = prox_eval(f, r, v)
            base = fn_value(f, x) + 0.5 * r * np.sum((x - v) ** 2)
            for _ in range(10):
                y = x + 0.1 * rng.standard_normal(2)
                val = fn_value(f, y) + 0.5 * r * np.sum((y - v) ** 2)
                if np.isfinite(val):
                    assert val >= base - 1e-10


def test_prox_opaque_calls_through():
    f = cs.ProxFn.opaque(lambda r, v: np.zeros_like(v))
    assert np.array_equal(prox_eval(f, 1.0, _arr(3.0, 4.0)), _arr(0.0, 0.0))


def test_prox_requires_positive_r():
    with pytest.raises(cs.UsageError):
        prox_eval(cs.ProxFn.zero(), 0.0, _arr(1.0))


# -- subdiff_distance --------------------------------------------------------


def test_subdiff_zero_is_norm():
    f = cs.ProxFn.zero()
    assert subdiff_distance(f, _arr(1.0, 1.0), _arr(3.0, 4.0)) == 5.0


def test_subdiff_l1_interval_at_zero():
    f = cs.ProxFn.l1(1.0)
    # -s must be within [-1, 1] at x = 0
    assert subdiff_distance(f, _arr(0.0), _arr(0.5)) == 0.0
    assert subdiff_distance(f, _arr(0.0), _arr(1.5)) == pytest.approx(0.5)
    # at x > 0 the subgradient is exactly +1
    assert subdiff_distance(f, _arr(2.0), _arr(-1.0)) == 0.0
    assert subdiff_distance(f, _arr(2.0), _arr(1.0)) == pytest.approx(2.0)


def test_subdiff_box_normal_cone():
    f = cs.ProxFn.box(_arr(0.0), _arr(1.0))
    # interior: cone is {0}
    assert subdiff_distance(f, _arr(0.5), _arr(0.3)) == pytest.approx(0.3)
    # at lower edge the cone is (-inf, 0]; -s = -0.4 is inside
    assert subdiff_distance(f, _arr(0.0), _arr(0.4)) == 0.0
    assert subdiff_distance(f, _arr(0.0), _arr(-0.4)) == pytest.approx(0.4)
    # at upper edge the cone is [0, inf)
    assert subdiff_distance(f, _arr(1.0), _arr(-0.4)) == 0.0
    assert subdiff_distance(f, _arr(1.0), _arr(0.4)) == pytest.approx(0.4)


def test_subdiff_box_outside_domain():
    f = cs.ProxFn.box(_arr(0.0), _arr(1.0))
    with pytest.raises(DomainError):
        subdiff_distance(f, _arr(1.5), _arr(0.0))


def test_subdiff_pinned_interval_accepts_everything():
    f = cs.ProxFn.box(_arr(0.5), _arr(0.5))
    assert subdiff_distance(f, _arr(0.5), _arr(123.0)) == 0.0


def test_subdiff_quadratic_gradient():
    P = np.diag(_arr(2.0, 3.0))
    q = _arr(1.0, -1.0)
    f = cs.ProxFn.quadratic(P, q)
    x = _arr(1.0, 1.0)
    s = -(P @ x + q)
    assert subdiff_distance(f, x, s) == 0.0
    assert subdiff_distance(f, x, s + _arr(0.3, -0.4)) == pytest.approx(0.5)


def test_subdiff_opaque_unsupported():
    f = cs.ProxFn.opaque(lambda r, v: v)
    with pytest.raises(UnsupportedOracleError):
        subdiff_distance(f, _arr(0.0), _arr(0.0))


def test_subdiff_consistent_with_prox_fixed_point():
    """x = prox_f(r, v) implies -r(x - v) is a subgradient at x."""
    rng = np.random.default_rng(3)
    fns = [
        cs.ProxFn.l1(0.4),
        cs.ProxFn.box(_arr(-1.0, 0.0, -2.0), _arr(1.0, 0.5, 2.0)),
        cs.ProxFn.quadratic(np.eye(3), _arr(0.0, 1.0, -1.0)),
        cs.ProxFn.zero(),
    ]
    for f in fns:
        for _ in range(25):
            r = 0.2 + 2 * rng.random()
            v = 2 * rng.standard_normal(3)
            x = prox_eval(f, r, v)
            s = r * (x - v)  # dist(-s, subdiff f(x)) must be 0
            assert subdiff_distance(f, x, s) < 1e-12


# -- values, validation, serialization ---------------------------------------


def test_fn_values():
    assert fn_value(cs.ProxFn.zero(), _arr(5.0)) == 0.0
    assert fn_value(cs.ProxFn.l1(2.0), _arr(1.0, -2.0)) == 6.0
    box = cs.ProxFn.box(_arr(0.0), _arr(1.0))
    assert fn_value(box, _arr(0.5)) == 0.0
    assert fn_value(box, _arr(2.0)) == np.inf
    quad = cs.ProxFn.quadratic(np.eye(2), _arr(1.0, 0.0))
    assert fn_value(quad, _arr(1.0, 1.0)) == pytest.approx(2.0)


def test_box_bounds_must_be_ordered():
    with pytest.raises(StructuralError):
        cs.ProxFn.box(_arr(1.0), _arr(0.0))


def test_quadratic_sigma_must_be_dominated():
    f = cs.ProxFn.quadratic(np.eye(2), np.zeros(2), sigma=2.0 * np.eye(2))
    with pytest.raises(StructuralError):
        f.validate(2)


def test_sigma_may_not_exceed_zero_curvature():
    """The zero, l1 and box terms have no curvature, so a positive declared
    modulus is rejected; a zero one is accepted."""
    for make in (cs.ProxFn.zero, lambda sigma: cs.ProxFn.l1(0.5, sigma), lambda sigma: cs.ProxFn.box(-1.0, 1.0, sigma)):
        make(np.zeros((1, 1))).validate(1)
        with pytest.raises(StructuralError, match="sigma exceeds the curvature"):
            make(np.ones((1, 1))).validate(1)


def test_modulus_is_judged_at_the_scale_of_p():
    """A declared modulus one rounding unit above lambda_min(P) = 1e7 is
    accepted, since at the scale of P that is roundoff; one 10 above is not."""
    P = np.diag(_arr(1e7, 1e7 + 5e-4, 1e7 + 1e-3))
    cs.ProxFn.quadratic(P, np.zeros(3), sigma=np.nextafter(1e7, np.inf) * np.eye(3)).validate(3)
    with pytest.raises(StructuralError, match="sigma exceeds the curvature"):
        cs.ProxFn.quadratic(P, np.zeros(3), sigma=(1e7 + 10.0) * np.eye(3)).validate(3)


def test_l1_needs_nonnegative_weight():
    with pytest.raises(cs.UsageError):
        cs.ProxFn.l1(-0.5)


def test_non_finite_parameters_are_rejected():
    nan, inf = float("nan"), float("inf")
    bad = [
        lambda: cs.ProxFn.l1(nan),
        lambda: cs.ProxFn.l1(inf),
        lambda: cs.ProxFn.l1(-inf),
        lambda: cs.ProxFn.box(_arr(nan), _arr(1.0)),
        lambda: cs.ProxFn.box(_arr(0.0), _arr(nan)),
        lambda: cs.ProxFn.quadratic(np.array([[1.0, 0.0], [0.0, nan]]), np.zeros(2)),
        lambda: cs.ProxFn.quadratic(np.eye(2), _arr(inf, 0.0)),
        lambda: cs.ProxFn.zero(sigma=np.array([[nan]])),
        lambda: cs.ProxFn.l1(0.5, sigma=np.array([[inf]])),
    ]
    for make in bad:
        with pytest.raises(StructuralError, match="finite|NaN"):
            make()
    # infinite box bounds mark unbounded sides and stay legal
    f = cs.ProxFn.box(_arr(-inf, 0.0), _arr(1.0, inf))
    assert np.array_equal(prox_eval(f, 1.0, _arr(-5.0, 5.0)), _arr(-5.0, 5.0))


def test_prox_fn_round_trip():
    rng = np.random.default_rng(4)
    G = rng.standard_normal((2, 2))
    fns = [
        cs.ProxFn.zero(),
        cs.ProxFn.l1(0.25),
        cs.ProxFn.box(_arr(-1.0, 0.0), _arr(0.5, 2.0)),
        cs.ProxFn.quadratic(G @ G.T, _arr(1.0, -1.0), sigma=0.1 * np.eye(2)),
    ]
    for f in fns:
        g = prox_fn_from_dict(prox_fn_to_dict(f))
        assert g.kind == f.kind
        v = rng.standard_normal(2 if f.kind != "l1" else 1)
        r = 1.3
        assert np.array_equal(prox_eval(f, r, v[: v.size]), prox_eval(g, r, v[: v.size]))


def test_opaque_not_serializable():
    f = cs.ProxFn.opaque(lambda r, v: v)
    with pytest.raises(cs.UsageError):
        prox_fn_to_dict(f)
