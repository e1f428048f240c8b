"""Randomizing the block order rescues a diverging cyclic sweep.

On a 3x3 linear system split into three scalar blocks, the fixed-order
sweep has an update matrix with spectral radius above one and blows up.
Drawing a fresh uniform block order each sweep converges in every trial,
and the exact expected trajectory (computed from the averaged affine
update rather than by sampling) converges as well. The sample mean over
many trials tracks the exact expectation at matching iteration counts.
"""

import dataclasses

import numpy as np

import coupled_splitting as cs


def main():
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    b = np.array([1.0, 2.0, 3.0])
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=3),
        H=np.zeros((3, 3)), g=np.zeros(3), A=A, b=b,
    )
    xbar = np.linalg.solve(A, b)
    beta = 1.0

    _, rho = cs.cyclic_update_matrix(inst, beta)
    print(f"fixed-order update matrix spectral radius: {rho:.4f}")

    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=beta, gamma=1.0,
                          tol=1e-9, max_iter=20_000)
    cyc = cs.run_solver(inst, cfg)
    print(f"fixed-order sweep: status={cyc.status} after {len(cyc.ks) - 1} sweeps")

    traces, mean_trace = cs.run_rp_solver(inst, cfg, trials=5)
    print("\nrandom-order trials:")
    for t in traces:
        res = cs.kkt_residual(inst, cs.KKTPoint(x=t.x, mu=t.mu))
        print(f"  trial {t.trial}: status={t.status:<9s} sweeps={len(t.ks) - 1:>5d} "
              f"kkt={res.max_component:.2e}")
    print(f"sample-mean trajectory mode: {mean_trace.mode} over {len(traces)} trials")

    et = cs.run_expected_iteration(inst, beta, k_max=5_000, tol=1e-12)
    print(f"\nexact expected iteration: status={et.status} after {et.ks[-1]} steps")
    print(f"  expected limit x:  {np.round(et.Ex[-1], 6)}")
    print(f"  solution A x = b:  {np.round(xbar, 6)}")
    print(f"  gap to solution:   {np.linalg.norm(et.Ex[-1] - xbar):.2e}")

    _, mean_many = cs.run_rp_solver(inst, dataclasses.replace(cfg, seed=1), trials=400)
    print("\nsample mean (400 trials) vs exact expectation, first component of x:")
    print(f"  {'k':>3s} {'sample mean':>12s} {'exact':>12s} {'difference':>11s}")
    for k in (1, 2, 4, 6, 8):
        s = mean_many.Ex[k][0]
        e = et.Ex[k][0]
        print(f"  {k:>3d} {s:>12.6f} {e:>12.6f} {abs(s - e):>11.2e}")


if __name__ == "__main__":
    main()
