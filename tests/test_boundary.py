"""One guard per input kind, applied once per public entry.

Every point argument passes one vector rule, `_linalg.point_vector`: a
vector of another size is a StructuralError and one with a NaN or infinite
entry a UsageError, each naming the argument. Every run config is validated
once, by the run's `_Workspace`, which also normalizes its R once. The
instances are fixed, so nothing here draws random numbers."""

import collections
import math

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting import model, rp


def _pair():
    """H = [[2, 1], [1, 2]], blocks (1, 1), A = [[1, 1]], b = [1]."""
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.array([[2.0, 1.0], [1.0, 2.0]]), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
    )


def _flat_pair():
    """H = [[1, -1], [-1, 1]], blocks (1, 1), no constraint rows."""
    return cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=0), H=np.array([[1.0, -1.0], [-1.0, 1.0]]), g=np.zeros(2),
        A=None, b=None,
    )


def _state(x, mu):
    return cs.IterateState(x=np.asarray(x, dtype=float), x_prev=np.asarray(x, dtype=float),
                           mu=np.asarray(mu, dtype=float))


# -- points -------------------------------------------------------------------


def test_run_starts_must_be_finite():
    inst = _pair()
    with pytest.raises(cs.UsageError, match="^x0 must be finite$"):
        cs.run_solver(inst, cs.SolverConfig(), x0=[math.nan, 0.0])
    with pytest.raises(cs.UsageError, match="^x0 must be finite$"):
        cs.run_rp_solver(inst, cs.SolverConfig(variant="admm_cyclic_n"), x0=[math.inf, 0.0])


def test_step_checks_its_state():
    inst = _pair()
    with pytest.raises(cs.UsageError, match=r"^state\.x must be finite$"):
        cs.step(inst, cs.SolverConfig(), _state([math.nan, 0.0], [0.0]))
    with pytest.raises(cs.UsageError, match=r"^state\.mu must be finite$"):
        cs.step(inst, cs.SolverConfig(), _state([0.0, 0.0], [math.inf]), order=(1, 0))


def test_oscillation_direction_is_a_finite_vector_of_size_d():
    inst = _flat_pair()
    cfg = cs.SolverConfig(variant="admm_cyclic_n")
    with pytest.raises(cs.UsageError, match="^ybar must be finite$"):
        cs.oscillation_demo(inst, cfg, [math.nan, math.nan], 6)
    with pytest.raises(cs.StructuralError, match="^ybar has 3 entries, expected 2$"):
        cs.oscillation_demo(inst, cfg, [0.0, 0.0, 0.0], 6)


def test_merit_reference_is_a_point_of_the_instance():
    inst = _pair()
    with pytest.raises(cs.StructuralError, match=r"^reference\.x has 1 entries, expected 2$"):
        cs.run_solver(inst, cs.SolverConfig(), reference=cs.KKTPoint(x=[0.5], mu=[0.5]))
    with pytest.raises(cs.UsageError, match=r"^reference\.mu must be finite$"):
        cs.run_solver(inst, cs.SolverConfig(), reference=cs.KKTPoint(x=[0.5, 0.5], mu=[math.nan]))


def test_decrease_floor_checks_both_iterates_and_its_config():
    inst = _pair()
    prev, nxt = _state([0.0, 0.0], [0.0]), _state([0.5, 0.25], [0.5])
    with pytest.raises(cs.StructuralError, match=r"^prev\.x has 1 entries, expected 2$"):
        cs.lyapunov_decrease_floor(inst, cs.SolverConfig(), _state([0.0], [0.0]), nxt)
    with pytest.raises(cs.UsageError, match=r"^nxt\.x must be finite$"):
        cs.lyapunov_decrease_floor(inst, cs.SolverConfig(), prev, _state([math.inf, 0.0], [0.0]))
    for bad in (cs.SolverConfig(beta=-1.0), cs.SolverConfig(beta=math.nan)):
        with pytest.raises(cs.UsageError, match="^beta must be positive"):
            cs.lyapunov_decrease_floor(inst, bad, prev, nxt)
    with pytest.raises(cs.UsageError, match="^unknown variant 'nope'"):
        cs.lyapunov_decrease_floor(inst, cs.SolverConfig(variant="nope"), prev, nxt)
    assert cs.lyapunov_decrease_floor(inst, cs.SolverConfig(), prev, nxt) > 0.0


def test_kkt_residual_checks_its_point():
    inst = _pair()
    with pytest.raises(cs.StructuralError, match=r"^point\.x has 3 entries, expected 2$"):
        cs.kkt_residual(inst, cs.KKTPoint(x=[0.0, 0.0, 0.0], mu=[0.0]))
    with pytest.raises(cs.UsageError, match=r"^point\.mu must be finite$"):
        cs.kkt_residual(inst, cs.KKTPoint(x=[0.0, 0.0], mu=[-math.inf]))


def test_order_stream_block_count_is_a_count():
    """permutation_at's n passes check_integer like its seed and counter."""
    for n in (0, 2.0):
        with pytest.raises(cs.UsageError, match="^n must be an integer of at least 1"):
            rp.permutation_at(0, 0, n)
    assert rp.permutation_at(0, 0, np.int64(3)) == rp.permutation_at(0, 0, 3)


# -- configs ------------------------------------------------------------------


def test_randomly_permuted_runs_ignore_the_gamma_they_replace():
    """The scheme runs at unit dual stepsize whatever cfg.gamma says, so a
    gamma outside (0, GAMMA_SUP) is neither read nor rejected."""
    inst = _pair()
    cfg = cs.SolverConfig(variant="admm_cyclic_n", tol=1e-9, max_iter=2000)
    [want], _ = cs.run_rp_solver(inst, cfg)
    [got], _ = cs.run_rp_solver(inst, cs.SolverConfig(variant="admm_cyclic_n", gamma=1.7, tol=1e-9, max_iter=2000))
    assert got.status == want.status == "converged"
    assert np.array_equal(got.rows, want.rows, equal_nan=True)


@pytest.fixture
def psd_checks(monkeypatch):
    """The names of the matrices require_symmetric_psd checks, counted."""
    seen = collections.Counter()
    check = model.require_symmetric_psd

    def counting(M, name):
        seen[name] += 1
        return check(M, name)

    monkeypatch.setattr(model, "require_symmetric_psd", counting)
    return seen


def test_each_entry_checks_each_R_block_once(psd_checks):
    pair, flat = _pair(), _flat_pair()
    once = {"R[0]": 1, "R[1]": 1}
    entries = [
        lambda: cs.run_solver(pair, cs.SolverConfig(R=[1.0, 1.0])),
        lambda: cs.run_rp_solver(pair, cs.SolverConfig(variant="admm_cyclic_n", R=[1.0, 1.0])),
        lambda: cs.oscillation_demo(flat, cs.SolverConfig(variant="admm_cyclic_n", R=[0.0, 0.0]), [0.0, 0.0], 6),
        lambda: cs.lyapunov_decrease_floor(pair, cs.SolverConfig(R=[1.0, 1.0]), _state([0.0, 0.0], [0.0]),
                                           _state([0.5, 0.25], [0.5])),
    ]
    for entry in entries:
        psd_checks.clear()
        entry()
        assert dict(psd_checks) == once
