"""Independent references for the order-averaged update, by enumerating all
n! block orders: one in floats, in stacked solves (the algorithm build_Q_M
used before its subset algorithms), and one in exact rationals. Also the
per-row recording of a solver trace, which the batched observation of
solvers._drive must equal bit for bit; the block-by-block sweep, which
composed sweeps must equal to rounding, and the engine's sweep of one
vector that is compared with it; the expected iteration as a
loop of copied rows; a report read back from report.json; and the merit
value of one two-block iterate."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from coupled_splitting.prox import fn_value, prox_eval
from coupled_splitting.solvers import _merit_rows, _merit_weights
from coupled_splitting.spectral import SpectralReport, _order_stacks

# block orders per stacked solve: memory stays bounded at any n
ORDER_CHUNK = 64


def enumerated_average(inst, beta):
    """Averages over all block orders, each order's inverse refined once:
    Q = E[L_sigma^-1], Qbar = E[Lbar_sigma^-1] and the direct average of the
    per-order one-step updates. Orders are summed one at a time in
    itertools.permutations order."""
    n, d, m = inst.blocks.n, inst.blocks.d, inst.blocks.m
    S = inst.H + beta * (inst.A.T @ inst.A)
    Q = np.zeros((d, d))
    Qbar = np.zeros((d + m, d + m))
    M_direct = np.zeros((d + m, d + m))
    eye_d, eye_dm = np.eye(d), np.eye(d + m)
    orders = itertools.permutations(range(n))
    while chunk := list(itertools.islice(orders, ORDER_CHUNK)):
        L, Lbar, _, M_sigma = _order_stacks(inst, beta, S, np.array(chunk))
        inv_L = np.linalg.inv(L)
        inv_L += inv_L @ (eye_d - L @ inv_L)
        inv_Lbar = np.linalg.inv(Lbar)
        inv_Lbar += inv_Lbar @ (eye_dm - Lbar @ inv_Lbar)
        for inv_one, inv_bar, M_one in zip(inv_L, inv_Lbar, M_sigma):
            Q += inv_one
            Qbar += inv_bar
            M_direct += M_one
    count = math.factorial(n)
    return Q / count, Qbar / count, M_direct / count


def _exact_inverse(rows):
    """Gauss-Jordan inverse of a nonsingular matrix of Fractions."""
    d = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(d)] for i, r in enumerate(rows)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def exact_averaged_inverse(S, dims):
    """E[L_sigma^-1] in exact rationals for an integer-valued curvature
    matrix S with the given block sizes; entry (j, l) of L_sigma keeps S[j, l]
    when the block of j comes no earlier in the order than the block of l."""
    S = np.asarray(S, dtype=float)
    assert np.array_equal(S, np.round(S)), "S must be integer-valued"
    S = [[Fraction(int(v)) for v in row] for row in S]
    d, n = len(S), len(dims)
    blk = [b for b, size in enumerate(dims) for _ in range(size)]
    total = [[Fraction(0)] * d for _ in range(d)]
    for sigma in itertools.permutations(range(n)):
        pos = {b: p for p, b in enumerate(sigma)}
        L = [[S[j][l] if pos[blk[j]] >= pos[blk[l]] else Fraction(0) for l in range(d)] for j in range(d)]
        for row, inv_row in zip(total, _exact_inverse(L)):
            for c in range(d):
                row[c] += inv_row[c]
    count = math.factorial(n)
    return [[v / count for v in row] for row in total]


def observed_row(observer, x, mu):
    """(r_dual, objective) at one point (x, mu), one whole-vector formula at a
    time on the observer's laid-out terms: the per-row recipe that the
    batched solvers._Observer.rows must equal bit for bit. r_dual is None
    when some term is opaque."""
    x, mu = np.array(x), np.array(mu)
    Hx = observer.H.dot(x)
    objective = 0.5 * float(x.dot(Hx)) + float(observer.g.dot(x))
    if observer.l1_at.size:
        objective += float(observer.lam_at.dot(np.abs(x[observer.l1_at])))
    outside = None
    if observer.has_box:
        outside = (x < observer.out_lo) | (x > observer.out_hi)
        if outside.any():
            objective = math.inf
        else:
            outside = None
    for f, sl in observer.opaque:
        objective += fn_value(f, x[sl])
    if not observer.exact:
        return None, objective
    s = Hx + observer.g
    if observer.At is not None:
        s -= observer.At.dot(mu)
    dist = np.abs(s)
    if observer.l1_at.size:
        lam = observer.lam
        l1 = np.where(x == 0.0, np.maximum(dist - lam, 0.0), np.abs(s + lam * np.sign(x)))
        dist = np.where(observer.l1, l1, dist)
    if observer.has_box:
        at_lo = x <= observer.face_lo
        at_hi = x >= observer.face_hi
        box = np.where(
            at_lo,
            np.where(at_hi, 0.0, np.maximum(-s, 0.0)),
            np.where(at_hi, np.maximum(s, 0.0), dist),
        )
        dist = np.where(observer.box, box, dist)
    r_dual = np.sqrt(np.add.reduceat(dist * dist, observer.offsets))
    if outside is not None:
        r_dual[np.logical_or.reduceat(outside, observer.offsets)] = math.inf
    return r_dual, objective


def uncached_U(ws, order):
    """The surrogate matrix of a block order built entry by entry: block
    (i, j) of surrogate_base where block j comes at or after block i in the
    order, zero elsewhere."""
    pos = {blk: p for p, blk in enumerate(order)}
    U = np.zeros_like(ws.surrogate_base)
    for i, si in enumerate(ws.slices):
        for j, sj in enumerate(ws.slices):
            if pos[j] >= pos[i]:
                U[si, sj] = ws.surrogate_base[si, sj]
    return U


def recorded_row(ws, x, x_prev, mu, order):
    """One trace row of a solvers._Workspace run, recorded alone: (r_dual,
    r_feas, surrogate, objective, surrogate_blocks) at (x, mu), reached from
    x_prev by a sweep in `order` (None for a point no sweep produced, which
    has no surrogate)."""
    x = np.array(x)
    r_dual, objective = observed_row(ws.observer, x, mu)
    resid = ws.inst.A.dot(x) - ws.inst.b
    r_feas = math.sqrt(float(resid.dot(resid)))
    if order is None:
        return r_dual, r_feas, math.nan, objective, None
    v = uncached_U(ws, order).dot(x - x_prev)
    if ws.gamma != 1.0:
        v -= ws.beta * (1.0 - ws.gamma) * ws.At.dot(resid)
    parts = np.sqrt(np.add.reduceat(v * v, ws.offsets))
    return r_dual, r_feas, math.sqrt(float(parts.dot(parts)) + r_feas**2), objective, parts


def per_block_sweep(ws, z, order):
    """One sweep of z = (x, mu) in place, block by block: each block's map
    W_i z + c_i against the latest values, then prox_eval of its term for
    prox blocks, then the multiplier step, each a whole-vector expression
    into a fresh array. The engine's block-by-block sweep, a list of numpy
    calls bound to the workspace's own iterate buffer and preallocated
    temporaries (solvers._Workspace.sweep_steps, run by sweep_rows), equals
    it bit for bit; the engine's order_sweep equals it to rounding when it
    applies an order's composed map (engine_sweep runs either on one
    vector)."""
    d = ws.d
    x = z[:d]
    for i in order:
        v = ws.W[i].dot(z) + ws.c[i]
        r = ws.prox_weight[i]
        x[ws.slices[i]] = v if r is None else prox_eval(ws.inst.theta[i], r, v)
    z[d:] -= ws.gamma * ws.beta * (ws.inst.A.dot(x) - ws.inst.b)


def engine_sweep(ws, z, order):
    """One sweep of z = (x, mu) in place by the engine: the workspace's
    order_sweep of `order` on the two rows (z, its sweep)."""
    rows = np.array([z, z])
    ws.order_sweep(order)(rows)
    z[:] = rows[1]


def expected_iteration_rows(M, c, z0, k_max, tol):
    """The expected iteration z -> M z + c as a loop that keeps a copy of
    each row and stops once a step's np.linalg.norm is at most tol: the rows
    and the status that rp.run_expected_iteration must give bit for bit on
    a trajectory that stays finite and within the divergence limit."""
    z = np.array(z0, dtype=float)
    zs = [z.copy()]
    status = "max_iter"
    for _ in range(int(k_max)):
        z_new = M @ z + c
        zs.append(z_new.copy())
        if float(np.linalg.norm(z_new - z)) <= tol:
            status = "converged"
            break
        z = z_new
    return np.asarray(zs), status


def load_report(path):
    """The SpectralReport that spectral.save_report wrote to path."""
    with open(path) as fh:
        doc = json.load(fh)
    ranks = doc["ranks"]
    return SpectralReport(
        beta=float(doc["beta"]),
        n=int(doc["n"]),
        d=int(doc["d"]),
        m=int(doc["m"]),
        Q=np.asarray(doc["Q"], dtype=float),
        M=np.asarray(doc["M"], dtype=float),
        eig_QS=np.asarray(doc["eig_QS"], dtype=float),
        eig_M=np.asarray([complex(re, im) for re, im in doc["eig_M"]]),
        q_min_eig=float(doc["q_min_eig"]),
        consistency_defect=float(doc["consistency_defect"]),
        rank_S=int(ranks["S"]),
        rank_penalized_gram=int(ranks["penalized_gram"]),
        rank_stationarity_block=int(ranks["stationarity_block"]),
        am_one=int(doc["am_one"]),
        gm_one=int(doc["gm_one"]),
        eig_one_count=int(doc["eig_one_count"]),
        rho_M=float(doc["rho_M"]),
        verdicts=dict(doc["verdicts"]),
    )


def lyapunov_value(inst, cfg, state, reference):
    """Merit value of a two-block iterate against a stationary reference:
    a weighted squared distance to the reference plus a back-difference term,
    nonincreasing along constrained two-block runs with unit dual stepsize.
    One row of the merit the solver records."""
    weights = _merit_weights(inst, cfg)
    return float(_merit_rows(cfg.beta, weights, reference, state.x[None], state.x_prev[None], state.mu[None])[0])
