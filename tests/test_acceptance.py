"""Acceptance checks: ten end-to-end criteria covering solver convergence,
the merit contraction, the residual rate trend, non-uniqueness witnesses,
the averaged-update certification engine, the expected iteration, block-order
rates, and variant equivalences.

Each test prints exactly one `criterion N: PASS|FAIL` line (visible under
`pytest -s` and in captured output on failure)."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting.cli import main as cli_main
from coupled_splitting.solvers import _drop_floor_rows, _merit_weights
from coupled_splitting.spectral import build_Q_M
from gen import (
    drop_rows,
    proximal_weights_for,
    quadratic_two_block_instance,
    spectral_instance,
    two_block_instance,
    violating_instance,
)

# pinned tolerances and budgets
KKT_TOL = 1e-8              # criteria 1, 7: residual bound at the solution
SOLVE_TOL = 1e-9            # criterion 1 run tolerance (implies KKT_TOL)
SOLVE_MAX_ITER = 100_000
ORACLE_MATCH = 1e-6         # criterion 1: ||x - x*|| for quadratic cases
REF_CERT_TOL = 1e-11        # criterion 2: certified reference residual
MERIT_SLACK = 1e-9          # criterion 2: relative slack on the drop
TREND_FACTOR = 10.0         # criterion 3: required decrease factor
TREND_K_LO, TREND_K_HI = 100, 10_000
WITNESS_TOL = 1e-10         # criterion 4: annihilation and recheck bound
QS_LO = -1e-10              # criterion 5: eigenvalue band
QS_HI = 4.0 / 3.0
DESK_EIG_TOL = 1e-12        # criterion 5: hand-derived eigenvalues
EXPECT_STEP_TOL = 1e-10     # criterion 7: required step bound
EXPECT_RUN_TOL = 1e-12      # criterion 7: actual run tolerance (implies it)
EXPECT_SEGMENT = 100_000    # criterion 7: steps per restart segment
EXPECT_BUDGET = 10_000_000  # criterion 7: total step budget
RATE_EQ_TOL = 1e-10         # criterion 9: rho equality / ordering slack
RATE_FORM_TOL = 1e-12       # criterion 9: closed-form match
EQUIV_TOL = 1e-12           # criterion 10: iterate identity
EQUIV_ITERS = 100

BATCH_SEED = 20260815
SPECTRAL_SEED = 314159
WITNESS_SEED = 271828
RATES_SEED = 424243
EQUIV_SEED = 515151


def _verdict(num: int, failures: list) -> None:
    ok = not failures
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {failures[:5]}"


@dataclass
class BatchEntry:
    inst: cs.ProblemInstance
    beta: float
    R: list
    cfg: cs.SolverConfig
    ref: cs.KKTPoint
    ref_residual: float
    quadratic: bool
    trace: cs.Trace


@pytest.fixture(scope="module")
def two_block_batch():
    """50 two-block instances (criteria 1-3): alternating purely quadratic
    draws (closed-form oracle available) and mixed-term draws, each run to
    convergence against a certified reference."""
    rng = np.random.default_rng(BATCH_SEED)
    entries = []
    for i in range(50):
        inst = quadratic_two_block_instance(rng) if i % 2 == 0 else two_block_instance(rng)
        beta = float(rng.uniform(2.0, 8.0))
        R = proximal_weights_for(inst, beta, rng, margin_range=(2.0, 4.0))
        quadratic = all(f.kind in ("zero", "quadratic") for f in inst.theta)
        if quadratic:
            ref = cs.solve_kkt_oracle(inst)
        else:
            cfg_ref = cs.SolverConfig(variant="admm2", beta=beta, R=R, tol=1e-12, max_iter=200_000)
            tr_ref = cs.run_solver(inst, cfg_ref)
            assert tr_ref.status == "converged", f"reference run {i} did not converge"
            ref = cs.KKTPoint(x=tr_ref.x, mu=tr_ref.mu)
        ref_residual = cs.kkt_residual(inst, ref).max_component
        cfg = cs.SolverConfig(variant="admm2", beta=beta, R=R, tol=SOLVE_TOL, max_iter=SOLVE_MAX_ITER)
        trace = cs.run_solver(inst, cfg, reference=ref, keep_iterates=True)
        entries.append(BatchEntry(
            inst=inst, beta=beta, R=R, cfg=cfg, ref=ref,
            ref_residual=ref_residual, quadratic=quadratic, trace=trace,
        ))
    return entries


@pytest.fixture(scope="module")
def spectral_batch():
    """200 all-zero-term instances (criteria 5-7), n in {2,3,4}, block dims
    up to 3, penalty cycled over {0.1, 1, 10}, each fully analyzed."""
    rng = np.random.default_rng(SPECTRAL_SEED)
    betas = (0.1, 1.0, 10.0)
    out = []
    for i in range(200):
        inst = spectral_instance(rng)
        beta = betas[i % 3]
        out.append((inst, beta, cs.analyze_instance(inst, beta)))
    return out


def test_criterion_1_two_block_convergence(two_block_batch):
    failures = []
    for i, e in enumerate(two_block_batch):
        if e.trace.status != "converged":
            failures.append((i, "status", e.trace.status))
            continue
        last = len(e.trace) - 1
        if e.trace.ks[last] > SOLVE_MAX_ITER:
            failures.append((i, "iterations", e.trace.ks[last]))
        if e.trace.max_residual(last) > KKT_TOL:
            failures.append((i, "residual", e.trace.max_residual(last)))
        if e.quadratic:
            gap = float(np.linalg.norm(e.trace.x - e.ref.x))
            if gap > ORACLE_MATCH:
                failures.append((i, "oracle gap", gap))
    _verdict(1, failures)


def test_criterion_2_merit_contraction(two_block_batch):
    failures = []
    for i, e in enumerate(two_block_batch):
        if e.ref_residual > REF_CERT_TOL:
            failures.append((i, "uncertified reference", e.ref_residual))
            continue
        V = e.trace.lyapunov
        # the inequality holds from the first generated iterate on; the
        # start point was not produced by a sweep. floors[k - 1] is the
        # guaranteed drop from iterate k to k + 1, each row bit for bit what
        # lyapunov_decrease_floor gives for that step
        d = e.inst.blocks.d
        dZ = np.diff(e.trace.path[1:], axis=0)
        floors = _drop_floor_rows(e.cfg.beta, _merit_weights(e.inst, e.cfg), dZ[:, :d], dZ[:, d:]).tolist()
        for k in range(1, len(e.trace) - 1):
            floor = floors[k - 1]
            drop = V[k] - V[k + 1]
            slack = MERIT_SLACK * (1.0 + V[k])
            if floor < 0:
                failures.append((i, k, "negative floor", floor))
                break
            if drop < -slack:
                failures.append((i, k, "merit increased", drop))
                break
            if drop < floor - slack:
                failures.append((i, k, "drop below floor", drop, floor))
                break
    _verdict(2, failures)


def test_criterion_3_residual_rate_trend(two_block_batch):
    failures = []
    for i, e in enumerate(two_block_batch):
        cfg = cs.SolverConfig(
            variant="admm2", beta=e.beta, R=e.R, tol=0.0, max_iter=TREND_K_HI,
        )
        trace = cs.run_solver(e.inst, cfg)
        curve = cs.min_kkt_sq_curve(trace)
        v_lo = float(curve[curve[:, 0] == TREND_K_LO, 1][0])
        v_hi = float(curve[curve[:, 0] == TREND_K_HI, 1][0])
        if not v_hi * TREND_FACTOR <= v_lo:
            failures.append((i, "trend", v_lo, v_hi))
    _verdict(3, failures)


def test_criterion_4_witness_and_oscillation():
    rng = np.random.default_rng(WITNESS_SEED)
    failures = []
    for i in range(20):
        inst, _planted = violating_instance(rng)
        try:
            cert = cs.divergence_witness(inst, beta=1.0)
        except cs.CertificateError as exc:
            failures.append((i, "witness verification", str(exc)))
            continue
        if cert is None:
            failures.append((i, "no witness found"))
            continue
        scale = 1.0 + max(np.max(np.abs(inst.H)), np.max(np.abs(inst.A)))
        if max(cert.checks.values()) > WITNESS_TOL * scale:
            failures.append((i, "annihilation", cert.checks))
            continue
        cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, gamma=1.0)
        try:
            res = cs.oscillation_demo(inst, cfg, cert.ybar, k_max=16)
        except cs.CertificateError as exc:
            failures.append((i, "recheck", str(exc)))
            continue
        if res.max_optimality_defect > WITNESS_TOL:
            failures.append((i, "optimality defect", res.max_optimality_defect))
        if res.perturbed.status == "converged" or not res.gap_persists:
            failures.append((i, "trajectory converged", res.perturbed.status))
    _verdict(4, failures)


def test_criterion_5_averaged_eigenvalue_band(spectral_batch):
    failures = []
    for i, (_inst, beta, report) in enumerate(spectral_batch):
        if not report.q_min_eig > 0.0:
            failures.append((i, beta, "Q not positive definite", report.q_min_eig))
        if not (np.all(report.eig_QS >= QS_LO) and np.all(report.eig_QS < QS_HI)):
            failures.append((i, beta, "eig band", report.eig_QS))
        if not report.verdicts["lemma_3_1"]:
            failures.append((i, beta, "verdict"))
    desk = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=2),
        H=np.array([[2.0, 1.0], [1.0, 2.0]]), g=np.zeros(2),
        A=np.eye(2), b=np.zeros(2),
    )
    desk_report = build_Q_M(desk, beta=1.0)
    if not np.allclose(np.sort(desk_report.eig_QS), [7.0 / 9.0, 10.0 / 9.0], atol=DESK_EIG_TOL):
        failures.append(("desk", desk_report.eig_QS))
    _verdict(5, failures)


def test_criterion_6_rank_and_spectrum_identities(spectral_batch):
    failures = []
    for i, (_inst, beta, report) in enumerate(spectral_batch):
        if not report.verdicts["lemma_3_3"]:
            failures.append((i, beta, "rank identity"))
        if not report.verdicts["lemma_3_4"]:
            failures.append((i, beta, "spectrum structure", report.eig_M))
        if not report.verdicts["lemma_3_5"]:
            failures.append((i, beta, "multiplicity", report.am_one, report.gm_one))
    _verdict(6, failures)


def _expected_limit(inst, beta):
    """Run the expected iteration in restart segments (exact continuation of
    the affine update) until the step falls to EXPECT_RUN_TOL."""
    z = None
    total = 0
    while total < EXPECT_BUDGET:
        et = cs.run_expected_iteration(
            inst, beta, z0=z, k_max=EXPECT_SEGMENT, tol=EXPECT_RUN_TOL,
        )
        rows = len(et.ks)
        total += et.ks[-1]
        step = float(np.linalg.norm(et.Z[-1] - et.Z[-2])) if rows >= 2 else 0.0
        z = et.Z[-1]
        if et.status == "converged":
            return z, step, total, "converged"
    return z, math.inf, total, "budget_exhausted"


def test_criterion_7_expected_iteration_limit(spectral_batch):
    failures = []
    cases = [(inst, beta) for inst, beta, _ in spectral_batch]
    non_unique = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.zeros((2, 2)), g=np.zeros(2),
        A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
    )
    cases.append((non_unique, 1.0))
    for i, (inst, beta) in enumerate(cases):
        z, step, _total, status = _expected_limit(inst, beta)
        if status != "converged" or step > EXPECT_STEP_TOL:
            failures.append((i, "no convergence", status, step))
            continue
        d = inst.blocks.d
        res = cs.kkt_residual(inst, cs.KKTPoint(x=z[:d], mu=z[d:]))
        if res.max_component > KKT_TOL:
            failures.append((i, "limit residual", res.max_component))
    _verdict(7, failures)


def test_criterion_8_cyclic_divergence_contrast(tmp_path):
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=3),
        H=np.zeros((3, 3)), g=np.zeros(3),
        A=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]]),
        b=np.array([1.0, 2.0, 3.0]),
    )
    failures = []
    _M, rho = cs.cyclic_update_matrix(inst, beta=1.0, gamma=1.0)
    if not rho > 1.0:
        failures.append(("cyclic radius", rho))
    path = tmp_path / "c3.json"
    cs.save_instance(inst, path)
    rc = cli_main([
        "solve", str(path), "--variant", "admm_cyclic_n",
        "--max-iter", "20000", "--out", str(tmp_path / "out"),
    ])
    if rc != 3:
        failures.append(("solve exit code", rc))
    report = cs.analyze_instance(inst, beta=1.0)
    v = report.verdicts
    if not (v["lemma_3_3"] and v["lemma_3_4"] and v["lemma_3_5"]):
        failures.append(("averaged verdicts", dict(v)))
    if report.am_one != report.gm_one:
        failures.append(("multiplicity", report.am_one, report.gm_one))
    z, step, _total, status = _expected_limit(inst, 1.0)
    if status != "converged" or step > EXPECT_STEP_TOL:
        failures.append(("expected iteration", status, step))
    else:
        res = cs.kkt_residual(inst, cs.KKTPoint(x=z[:3], mu=z[3:]))
        if res.max_component > KKT_TOL:
            failures.append(("expected limit residual", res.max_component))
    _verdict(8, failures)


def test_criterion_9_block_order_rates():
    rng = np.random.default_rng(RATES_SEED)
    failures = []
    for i in range(100):
        if i < 40:
            c = float(rng.uniform(0.05, 1.0))
            H = np.array([[1.0, c], [c, 1.0]])
            d1 = 1
        else:
            d1 = int(rng.integers(1, 5))
            d2 = int(rng.integers(1, 5))
            d = d1 + d2
            while True:
                if i % 2 == 0:
                    W = rng.standard_normal((d, max(d1, d2)))
                    H = W @ W.T
                else:
                    W = rng.standard_normal((d, d))
                    H = W @ W.T / d + np.diag(np.concatenate([
                        rng.uniform(0.2, 1.0, size=d1), rng.uniform(0.2, 1.0, size=d2)]))
                H = 0.5 * (H + H.T)
                w1 = np.linalg.eigvalsh(H[:d1, :d1])
                w2 = np.linalg.eigvalsh(H[d1:, d1:])
                if min(w1[0], w2[0]) > 1e-8 * max(1.0, w1[-1], w2[-1]):
                    break
        cmp = cs.bcd_rate_matrices(H, d1)
        if abs(cmp.rho1 - cmp.rho2) > RATE_EQ_TOL:
            failures.append((i, "order radii differ", cmp.rho1, cmp.rho2))
        if cmp.rho3 < cmp.rho1 - RATE_EQ_TOL:
            failures.append((i, "averaging faster", cmp.rho3, cmp.rho1))
        if i < 40:
            if cmp.rho3_closed_form is None or abs(cmp.rho3 - cmp.rho3_closed_form) > RATE_FORM_TOL:
                failures.append((i, "closed form", cmp.rho3, cmp.rho3_closed_form))
    for c, want in ((0.5, 0.375), (1.0, 1.0)):
        cmp = cs.bcd_rate_matrices(np.array([[1.0, c], [c, 1.0]]), 1)
        if abs(cmp.rho3 - want) > RATE_FORM_TOL:
            failures.append(("named value", c, cmp.rho3, want))
    _verdict(9, failures)


def _max_iterate_gap(trace_a, trace_b):
    worst = 0.0
    scale = 1.0
    for (xa, mua), (xb, mub) in zip(trace_a.iterates, trace_b.iterates):
        worst = max(
            worst,
            float(np.max(np.abs(xa - xb), initial=0.0)),
            float(np.max(np.abs(mua - mub), initial=0.0)),
        )
        scale = max(scale, float(np.max(np.abs(xa), initial=0.0)))
    return worst, scale


def test_criterion_10_variant_equivalences():
    rng = np.random.default_rng(EQUIV_SEED)
    failures = []
    for i in range(20):
        inst = two_block_instance(rng)
        beta = float(rng.uniform(1.0, 5.0))
        r_vals, R_admm, R_bcd = [], [], []
        for blk in range(2):
            Ab = inst.A_block(blk)
            Hb = inst.H_block(blk, blk)
            B = Hb + beta * (Ab.T @ Ab)
            r = float(rng.uniform(1.1, 1.8)) * float(np.linalg.eigvalsh(B)[-1])
            r_vals.append(r)
            R_admm.append(r * np.eye(B.shape[0]) - B)
            R_bcd.append(r * np.eye(B.shape[0]) - Hb)
        lin = cs.run_solver(inst, cs.SolverConfig(
            variant="admm2_linearized", beta=beta, r=r_vals,
            tol=0.0, max_iter=EQUIV_ITERS), keep_iterates=True)
        prox = cs.run_solver(inst, cs.SolverConfig(
            variant="admm2", beta=beta, R=R_admm,
            tol=0.0, max_iter=EQUIV_ITERS), keep_iterates=True)
        gap, scale = _max_iterate_gap(lin, prox)
        if gap > EQUIV_TOL * scale:
            failures.append((i, "linearized vs proximal", gap))
        # unconstrained pair: proximal-gradient sweep vs proximal descent
        r_u = [float(rng.uniform(1.1, 1.8)) * float(np.linalg.eigvalsh(inst.H_block(b, b))[-1])
               for b in range(2)]
        R_u = [r_u[b] * np.eye(inst.blocks.dims[b]) - inst.H_block(b, b) for b in range(2)]
        bcpg = cs.run_solver(drop_rows(inst), cs.SolverConfig(
            variant="bcpg", beta=beta, r=r_u, tol=0.0, max_iter=EQUIV_ITERS),
            keep_iterates=True)
        bcd = cs.run_solver(drop_rows(inst), cs.SolverConfig(
            variant="bcd", beta=beta, R=R_u, tol=0.0, max_iter=EQUIV_ITERS),
            keep_iterates=True)
        gap_u, scale_u = _max_iterate_gap(bcpg, bcd)
        if gap_u > EQUIV_TOL * scale_u:
            failures.append((i, "bcpg vs proximal bcd", gap_u))
    _verdict(10, failures)
