"""The benchmark's own tests: every checker accepts a correct hand-built
case and rejects a corrupted one, so that no check is vacuous.

    python3 -m pytest benchmark/test_checks.py

They need numpy and pytest only; the program is not imported.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import checks
import instances as gen
import reference
import run
import tracing
from workloads import Op

TOL = 1e-9


def _trace_csv(path, status="converged", residual=1e-10):
    path.write_text(
        "# command=solve\n"
        "k,r_dual_1,r_dual_2,r_feas,surrogate,objective,lyapunov\n"
        "0,1.0,1.0,1.0,,0.5,\n"
        f"7,{residual!r},{residual!r},{residual!r},1e-10,0.25,\n"
        f"# status={status}\n"
    )
    return path


@pytest.fixture
def planted():
    return gen.planted_two_block(np.random.default_rng(3), "p", 3, 4, 2, ("l1", "box"))


def test_kkt_residual_vanishes_only_at_the_planted_point(planted):
    x, mu = planted.ref["x"], planted.ref["mu"]
    assert reference.kkt_residual(planted, x, mu) < 1e-12
    assert reference.kkt_residual(planted, x + 1e-4, mu) > 1e-5
    assert reference.kkt_residual(planted, x, mu + 1e-4) > 1e-5


def test_stacked_residual_matches_each_instance():
    insts = [gen.planted_two_block(np.random.default_rng(s), "p", 3, 4, 2, ("box", "l1")) for s in range(3)]
    xs = [inst.ref["x"] + 0.01 * s for s, inst in enumerate(insts)]
    mus = [inst.ref["mu"] for inst in insts]
    stacked = reference.kkt_residual(reference.stack(insts), np.stack(xs), np.stack(mus))
    single = [reference.kkt_residual(inst, x, mu) for inst, x, mu in zip(insts, xs, mus)]
    assert np.allclose(stacked, single, rtol=1e-12, atol=0.0)


def test_check_solve_accepts_the_solution(planted, tmp_path):
    trace = _trace_csv(tmp_path / "trace.csv")
    assert checks.check_solve(planted, TOL, trace, planted.ref["x"], planted.ref["mu"]) == []


def test_check_solve_rejects_a_perturbed_x(planted, tmp_path):
    trace = _trace_csv(tmp_path / "trace.csv")
    x = planted.ref["x"].copy()
    x[0] += 1e-6
    problems = checks.check_solve(planted, TOL, trace, x, planted.ref["mu"])
    assert any("recomputed KKT residual" in p for p in problems)


def test_check_solve_rejects_an_unconverged_trace(planted, tmp_path):
    x, mu = planted.ref["x"], planted.ref["mu"]
    assert checks.check_solve(planted, TOL, _trace_csv(tmp_path / "a.csv", status="max_iter"), x, mu)
    assert checks.check_solve(planted, TOL, _trace_csv(tmp_path / "b.csv", residual=1e-8), x, mu)


def test_check_solve_matches_the_quadratic_solution(tmp_path):
    inst = gen.quadratic_two_block(np.random.default_rng(5), "q", 3, 3, 2)
    trace = _trace_csv(tmp_path / "trace.csv")
    assert checks.check_solve(inst, TOL, trace, inst.ref["x"], inst.ref["mu"]) == []
    problems = checks.check_solve(inst, TOL, trace, inst.ref["x"] + 1e-5, inst.ref["mu"])
    assert any("known solution" in p for p in problems)


def _report(inst, beta=1.0):
    spec = inst.ref
    return {
        "beta": beta,
        "Q": spec["Q"].tolist(),
        "M": reference.averaged_update(spec["Q"], inst.H + beta * inst.A.T @ inst.A, inst.A, beta).tolist(),
        "eig_QS": sorted(spec["eig_QS"].tolist()),
        "am_one": spec["am_one"],
        "gm_one": spec["gm_one"],
        "verdicts": {key: True for key in checks.LEMMAS},
    }


def test_check_report_accepts_the_hand_derived_instance():
    desk = gen.desk_instance("desk")
    assert checks.check_report(desk, _report(desk)) == []


def test_check_report_accepts_an_instance_with_unit_eigenvalues():
    inst = gen.spectral_instance(np.random.default_rng(2), "s", (2, 1, 2), 4, 0, True, 1.0)
    assert inst.ref["am_one"] > 0
    assert checks.check_report(inst, _report(inst)) == []


def test_check_report_rejects_a_sign_flip_in_Q():
    desk = gen.desk_instance("desk")
    report = _report(desk)
    report["Q"][0][1] = -report["Q"][0][1]
    problems = checks.check_report(desk, report)
    assert any("symmetric" in p for p in problems)
    assert any("own average" in p for p in problems)


def test_check_report_rejects_wrong_verdicts_multiplicities_and_eigenvalues():
    desk = gen.desk_instance("desk")
    report = _report(desk)
    report["verdicts"]["lemma_3_4"] = False
    report["am_one"] = 1
    report["eig_QS"] = [0.75, 10.0 / 9.0]
    problems = checks.check_report(desk, report)
    assert any("lemma_3_4" in p for p in problems)
    assert any(p.startswith("am_one=") for p in problems)
    assert any("7/9" in p for p in problems)


def _trials_csv(path, statuses):
    lines = ["# command=rp-expect", "trial,k,r_dual_1,r_feas,surrogate,objective,lyapunov"]
    for t, status in enumerate(statuses):
        lines += [f"{t},0,1.0,1.0,,0.0,", f"# trial={t} status={status}"]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_check_trials(tmp_path):
    assert checks.check_trials(_trials_csv(tmp_path / "ok.csv", ["converged"] * 3), 3) == []
    assert checks.check_trials(_trials_csv(tmp_path / "bad.csv", ["converged", "max_iter", "converged"]), 3)
    assert checks.check_trials(_trials_csv(tmp_path / "short.csv", ["converged"] * 2), 3)


def _expectation_csv(path, x, mu, status="converged"):
    cols = ["k"] + [f"Ex_{j + 1}" for j in range(len(x))] + [f"Emu_{j + 1}" for j in range(len(mu))] + ["mode"]
    row = ["9"] + [repr(float(v)) for v in x] + [repr(float(v)) for v in mu] + ["exact"]
    path.write_text(",".join(cols) + "\n" + ",".join(row) + f"\n# status={status}\n")
    return path


def test_check_expectation(tmp_path):
    chyy = gen.chen_he_ye_yuan("c")
    x, mu = chyy.ref["x"], chyy.ref["mu"]
    assert checks.check_expectation(chyy, _expectation_csv(tmp_path / "a.csv", x, mu), "converged") == []
    assert checks.check_expectation(chyy, _expectation_csv(tmp_path / "b.csv", x + 1e-3, mu), "converged")
    assert checks.check_expectation(chyy, _expectation_csv(tmp_path / "c.csv", x, mu, "max_iter"), "converged")


def test_check_exit_and_divergence(tmp_path):
    assert checks.check_exit(0, 0) == []
    assert checks.check_exit(3, 0) and checks.check_exit(0, 3)
    assert checks.check_diverged(_trace_csv(tmp_path / "d.csv", status="diverged")) == []
    assert checks.check_diverged(_trace_csv(tmp_path / "c.csv"))


def _fake_cli(codes):
    """A stand-in for the CLI module: main() writes one artifact and returns
    the next exit code from `codes`."""
    calls = iter(codes)

    def main(argv):
        out = argv[-1]
        (out / "out.txt").write_text(f"{next(calls)}\n")
        return int((out / "out.txt").read_text())

    return SimpleNamespace(main=main, run_solver=lambda *a, **k: None)


def test_runner_fails_a_wrong_exit_code(tmp_path):
    tmp_path.joinpath("o").mkdir()
    op = Op("op", [tmp_path / "o"], 0, tmp_path / "o", lambda out, result: [])
    runner = run.Runner(_fake_cli([0, 3]), [op])
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert any("exit code 3" in p for p in runner.problems[0][1])


def test_runner_fails_artifacts_that_change_between_passes(tmp_path):
    tmp_path.joinpath("o").mkdir()
    op = Op("op", [tmp_path / "o"], 0, tmp_path / "o", lambda out, result: [])
    runner = run.Runner(_fake_cli([0, 0, 0]), [op])
    runner.run_pass()
    runner.run_pass()
    assert runner.failed == 0
    (tmp_path / "o" / "extra.txt").write_text("x")
    runner.run_pass()
    assert runner.failed == 1


def test_tracer_self_time_excludes_children():
    def inner(n):
        return sum(range(n))

    space = SimpleNamespace(inner=inner)

    def outer():
        return space.inner(200_000) + space.inner(100_000)

    space.outer = outer
    tracer = tracing.Tracer()
    tracer.install([(space, "outer", "outer", None), (space, "inner", "inner", lambda r: ("sums", 1))])
    lo = tracer.mark()
    space.outer()
    tracer.uninstall()
    spans = tracer.summarize(lo, tracer.mark())
    assert space.inner is inner and space.outer is outer
    assert spans["inner"]["calls"] == 2 and spans["outer"]["calls"] == 1
    assert tracer.counts == {"sums": 2}
    assert spans["outer"]["self"] == pytest.approx(spans["outer"]["total"] - spans["inner"]["total"], abs=1e-12)
    assert spans["inner"]["self"] == spans["inner"]["total"]
