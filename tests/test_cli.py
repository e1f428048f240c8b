"""End-to-end tests of the command line: artifacts, exit codes, headers,
and determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting._averaging import MAX_SUBSET_WORK, MAX_UNGUARDED_BLOCKS
from coupled_splitting._linalg import BETA_MAX
from coupled_splitting import cli
from coupled_splitting.cli import build_parser, main
from coupled_splitting.solvers import _write_artifact

from oracles import load_report


def _arr(*vals):
    return np.asarray(vals, dtype=float)


@pytest.fixture
def pair_file(tmp_path):
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(2.0),
    )
    path = tmp_path / "pair.json"
    cs.save_instance(inst, path)
    return path


@pytest.fixture
def singular_pair_file(tmp_path):
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.zeros((2, 2)), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(0.0),
    )
    path = tmp_path / "singular.json"
    cs.save_instance(inst, path)
    return path


@pytest.fixture
def cyclic3_file(tmp_path):
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=3),
        H=np.zeros((3, 3)), g=np.zeros(3),
        A=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]]),
        b=_arr(1.0, 2.0, 3.0),
    )
    path = tmp_path / "c3.json"
    cs.save_instance(inst, path)
    return path


# -- solve ---------------------------------------------------------------------


def test_solve_writes_trace_and_reports_convergence(pair_file, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", str(pair_file), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "status=converged" in stdout
    lines = (out / "trace.csv").read_text().splitlines()
    headers = [ln[2:] for ln in lines if ln.startswith("# ")]
    assert "command=solve" in headers
    assert "variant=admm2" in headers
    assert "seed=0" in headers
    assert "status=converged" in headers
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0].split(",")[0] == "k"
    final = body[-1].split(",")
    assert max(float(v) for v in final[1:4] if v) <= 1e-8


def test_solve_divergence_exit_code(cyclic3_file, tmp_path, capsys):
    out = tmp_path / "div"
    rc = main([
        "solve", str(cyclic3_file), "--variant", "admm_cyclic_n",
        "--max-iter", "20000", "--out", str(out),
    ])
    assert rc == 3
    assert "status=diverged" in capsys.readouterr().out
    assert (out / "trace.csv").exists()


def test_solve_is_byte_identical_across_runs(pair_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    inst_args = ["solve", str(pair_file), "--beta", "1.5", "--gamma", "1.2"]
    assert main(inst_args + ["--out", str(out1)]) == 0
    assert main(inst_args + ["--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_solve_validation_exit_code(tmp_path):
    doc = {
        "blocks": [1, 1],
        "H": [[1.0, 0.2], [0.3, 1.0]],  # asymmetric
        "g": [0.0, 0.0],
        "A": [[1.0, 1.0]],
        "b": [1.0],
        "theta": [{"kind": "zero"}, {"kind": "zero"}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2


def test_solve_rejects_nan_in_instance(tmp_path, capsys):
    doc = {
        "blocks": [1, 1],
        "H": [[2.0, float("nan")], [1.0, 2.0]],
        "g": [0.0, 0.0],
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "b": [1.0, 1.0],
        "theta": [{"kind": "zero"}, {"kind": "zero"}],
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_solve_rejects_nan_term_parameter(tmp_path, capsys):
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(2.0),
        theta=(cs.ProxFn.l1(0.5), cs.ProxFn.zero()),
    )
    path = tmp_path / "l1.json"
    cs.save_instance(inst, path)
    doc = json.loads(path.read_text())
    doc["theta"][0]["params"]["lam"] = float("nan")
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--variant", "admm2_linearized", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "term, message",
    [({"kind": "l1", "params": {"lam": -0.5}}, "nonnegative"), ({"kind": "huber", "params": {}}, "unknown")],
)
def test_solve_rejects_invalid_term_document(tmp_path, capsys, term, message):
    """A term the catalog rejects is invalid input (exit 2), not a usage
    error (exit 64)."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(2.0),
        theta=(cs.ProxFn.l1(0.5), cs.ProxFn.zero()),
    )
    path = tmp_path / "bad_term.json"
    cs.save_instance(inst, path)
    doc = json.loads(path.read_text())
    doc["theta"][0] = term
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--variant", "admm2_linearized", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "theta[0]" in err and message in err
    assert not (out / "trace.csv").exists()


def test_missing_instance_file_is_validation_error(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2


def _pair_doc(**fields):
    doc = {
        "blocks": [1, 1], "H": [[1.0, 0.0], [0.0, 1.0]], "g": [0.0, 0.0], "A": [[1.0, 1.0]], "b": [2.0],
        "theta": [{"kind": "zero", "params": {}, "sigma": None}] * 2,
    }
    doc.update(fields)
    return doc


def _term0(term):
    return _pair_doc(theta=[term, {"kind": "zero", "params": {}, "sigma": None}])


_MALFORMED = {
    "H_string": (_pair_doc(H="x"), "error: H: "),
    "H_ragged": (_pair_doc(H=[[1.0, 0.0], [0.0]]), "error: H: "),
    "blocks_string": (_pair_doc(blocks="x"), "error: blocks: "),
    "l1_without_lam": (_term0({"kind": "l1", "params": {}}), "theta[0]: missing parameter 'lam'"),
    "box_without_hi": (_term0({"kind": "box", "params": {"lo": [0.0]}}), "theta[0]: missing parameter 'hi'"),
    "quadratic_without_q": (_term0({"kind": "quadratic", "params": {"P": [[1.0]]}}), "theta[0]: missing parameter 'q'"),
    "params_list": (_term0({"kind": "l1", "params": [1]}), "theta[0]"),
    "sigma_string": (_term0({"kind": "zero", "params": {}, "sigma": "x"}), "theta[0]"),
    "lam_string": (_term0({"kind": "l1", "params": {"lam": "a"}}), "theta[0]"),
    "theta_string": (_pair_doc(theta="zero"), "theta[0]"),
    "theta_entry_string": (_pair_doc(theta=["zero", {"kind": "zero"}]), "theta[0]"),
    "document_not_object": ([1, 2], "JSON object"),
}

_SUBCOMMANDS = (["solve"], ["analyze"], ["compare-bcd"], ["rp-expect", "--max-iter", "5"], ["witness"])


@pytest.mark.parametrize(
    "case", list(_MALFORMED) + ["instance_is_directory", "instance_not_utf8", "out_is_a_file"]
)
def test_malformed_input_exits_2_without_traceback(case, tmp_path, capsys):
    """Every subcommand turns a malformed document or an unreadable path into
    exit 2 with a one-line error, never an uncaught exception."""
    out = tmp_path / "out"
    path = tmp_path / "inst.json"
    expect = None
    if case in _MALFORMED:
        doc, expect = _MALFORMED[case]
        path.write_text(json.dumps(doc))
    elif case == "instance_is_directory":
        path.mkdir()
    elif case == "instance_not_utf8":
        path.write_bytes(b'{"blocks": [1, 1], "H": "\xff\xfe"}')
        expect = "not UTF-8"
    else:
        path.write_text(json.dumps(_pair_doc()))
        out.write_text("a file, not a directory")
    for cmd in _SUBCOMMANDS:
        assert main([cmd[0], str(path), *cmd[1:], "--out", str(out)]) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert expect is None or expect in err, err


_OVERFLOWING = {
    # A'A is inf: solve used to call the subproblem matrix singular with
    # "min eigenvalue inf"
    "A_huge": (_pair_doc(A=[[1e300, 1.0]]), "error: A: entries too large, A'A overflows"),
    "Ab_huge": (_pair_doc(A=[[1e100, 1.0]], b=[1e250]), "error: A, b: entries too large, A'b overflows"),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING))
def test_overflowing_finite_data_exits_2(case, tmp_path, capsys):
    """Finite entries whose products overflow are invalid input for every
    subcommand: exit 2 with one error line that names the field."""
    doc, expect = _OVERFLOWING[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    for cmd in _SUBCOMMANDS:
        assert main([cmd[0], str(path), *cmd[1:], "--out", str(tmp_path / "out")]) == 2, cmd
        err = capsys.readouterr().err
        assert err == expect + "\n", err


@pytest.mark.parametrize("h00", [1e300, 1e11])
def test_wide_dynamic_range_keeps_ranks(h00, tmp_path, capsys):
    """H = diag(h00, 1) with A = [1, 1] is valid input. Its ranks survive
    the 1e-10 relative threshold once each matrix is balanced by a positive
    diagonal: am_one = gm_one = 0, every verdict holds, and every subcommand
    runs."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_pair_doc(H=[[h00, 0.0], [0.0, 1.0]])))
    for cmd in _SUBCOMMANDS:
        rc = main([cmd[0], str(path), *cmd[1:], "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 0, (cmd, err)
    report = load_report(tmp_path / "out" / "report.json")
    assert (report.am_one, report.gm_one) == (0, 0)
    assert (report.rank_S, report.rank_penalized_gram, report.rank_stationarity_block) == (2, 1, 3)
    assert all(report.verdicts.values()), report.verdicts


def test_huge_finite_h_is_valid_input(tmp_path, capsys):
    """H = diag(1e308, 1) is finite, semidefinite and overflows none of the
    input checks: every subcommand runs without a warning, and witness
    finds none."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_pair_doc(H=[[1e308, 0.0], [0.0, 1.0]])))
    for cmd in _SUBCOMMANDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([cmd[0], str(path), *cmd[1:], "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 0, (cmd, err)
    assert "witness: none" in out


def test_large_blocks_within_block_limit(tmp_path, capsys):
    """Two 150-dimensional blocks: the averaging's cost estimate is above
    MAX_SUBSET_WORK, but instances of up to MAX_UNGUARDED_BLOCKS blocks are
    admitted whatever their size, as when the block orders were enumerated."""
    rng = np.random.default_rng(3)
    n, d = 2, 300
    assert n <= MAX_UNGUARDED_BLOCKS and 2**n * d**3 > MAX_SUBSET_WORK
    B = rng.standard_normal((d, d))
    H = B @ B.T / d + 0.5 * np.eye(d)
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(150, 150), m=0),
        H=0.5 * (H + H.T), g=rng.standard_normal(d), A=np.zeros((0, d)), b=np.zeros(0),
    )
    path = tmp_path / "big.json"
    cs.save_instance(inst, path)
    assert main(["analyze", str(path), "--out", str(tmp_path / "an")]) == 0
    report = load_report(tmp_path / "an" / "report.json")
    assert report.consistency_defect <= 1e-12 * max(1.0, np.max(np.abs(report.M)))
    assert report.verdicts["lemma_3_1"] and report.am_one == report.gm_one == 0
    assert main(["rp-expect", str(path), "--max-iter", "5", "--out", str(tmp_path / "rp")]) == 0
    capsys.readouterr()


def test_usage_errors_exit_64(pair_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(pair_file), "--beta", "notafloat"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", str(pair_file)])
    assert exc.value.code == 64
    capsys.readouterr()
    # semantic usage errors return 64 without raising
    assert main(["solve", str(pair_file), "--beta", "-1"]) == 64
    assert main(["solve", str(pair_file), "--gamma", "1.7"]) == 64


def test_solve_rejects_nan_tol(pair_file, tmp_path, capsys):
    assert main(["solve", str(pair_file), "--tol", "nan", "--out", str(tmp_path)]) == 64
    assert "tol" in capsys.readouterr().err


def test_analyze_rejects_infinite_beta(tmp_path, capsys):
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=2),
        H=np.array([[2.0, 1.0], [1.0, 2.0]]), g=np.zeros(2), A=np.eye(2), b=_arr(1.0, 1.0),
    )
    path = tmp_path / "pair2.json"
    cs.save_instance(inst, path)
    assert main(["analyze", str(path), "--beta", "inf", "--out", str(tmp_path)]) == 64
    assert "beta" in capsys.readouterr().err


def test_seed_from_environment(pair_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "env"
    monkeypatch.setenv("COUPLED_SPLITTING_SEED", "7")
    assert main(["solve", str(pair_file), "--out", str(out)]) == 0
    assert "# seed=7" in (out / "trace.csv").read_text().splitlines()
    monkeypatch.setenv("COUPLED_SPLITTING_SEED", "abc")
    assert main(["solve", str(pair_file), "--out", str(out)]) == 64
    capsys.readouterr()


def test_negative_seed_on_command_line_exits_64_before_writing(pair_file, cyclic3_file, tmp_path, capsys):
    """A negative --seed is rejected like a negative $COUPLED_SPLITTING_SEED,
    before any artifact is written."""
    cases = (
        ["solve", str(pair_file)],
        ["rp-expect", str(cyclic3_file)],
        ["rp-expect", str(cyclic3_file), "--trials", "2"],
    )
    for i, argv in enumerate(cases):
        out = tmp_path / f"neg{i}"
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 64, argv
        assert "seed" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir()), argv


# -- analyze -------------------------------------------------------------------


def test_analyze_report_round_trip(singular_pair_file, tmp_path, capsys):
    out = tmp_path / "an"
    rc = main(["analyze", str(singular_pair_file), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "lemma_3_1=True" in stdout
    assert "lemma_3_4=True" in stdout
    assert "am_one=1 gm_one=1" in stdout
    report = load_report(out / "report.json")
    eig = np.sort_complex(report.eig_M)
    assert np.allclose(eig, _arr(0.0, 0.0, 1.0), atol=1e-12)
    assert report.verdicts["lemma_3_5"] is True
    assert report.verdicts["prop_3_1"] is None


def test_analyze_rejects_separable_terms(tmp_path, capsys):
    """analyze on an instance with l1 and box terms is a usage error, like
    rp-expect on it, and writes no report."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(1.0),
        theta=(cs.ProxFn.l1(1.0), cs.ProxFn.box(-1.0, 1.0)),
    )
    path = tmp_path / "terms.json"
    cs.save_instance(inst, path)
    for cmd in ("analyze", "rp-expect"):
        out = tmp_path / cmd
        assert main([cmd, str(path), "--out", str(out)]) == 64, cmd
        assert "separable term" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir()), cmd


def test_separable_terms_are_a_usage_error_before_any_output(tmp_path, capsys):
    """Every command defined only for zero terms exits 64 on an instance with
    l1 and box terms and creates no output directory; witness exits 64 on a
    quadratic term too."""
    blocks = cs.BlockStructure(dims=(1, 1), m=1)
    nonsmooth = cs.ProblemInstance(
        blocks=blocks, H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(1.0),
        theta=(cs.ProxFn.l1(1.0), cs.ProxFn.box(-1.0, 1.0)),
    )
    quadratic = cs.ProblemInstance(
        blocks=blocks, H=np.zeros((2, 2)), g=np.zeros(2), A=np.array([[0.0, 1.0]]), b=_arr(1.0),
        theta=(cs.ProxFn.quadratic([[1.0]], [0.0]), cs.ProxFn.zero()),
    )
    runs = [(nonsmooth, cmd) for cmd in ("analyze", "rp-expect", "witness", "compare-bcd")]
    runs.append((quadratic, "witness"))
    for k, (inst, cmd) in enumerate(runs):
        path = tmp_path / f"terms{k}.json"
        cs.save_instance(inst, path)
        out = tmp_path / f"out{k}"
        assert main([cmd, str(path), "--out", str(out)]) == 64, cmd
        assert "separable term" in capsys.readouterr().err, cmd
        assert not out.exists(), cmd


def test_near_singular_block_gets_one_verdict_from_every_command(tmp_path, capsys):
    """With H = diag(h, 1) and A = [[0, 1]], block 1's curvature is h. At
    h = 5e-11 it is not singular relative to max(1, h), so analyze certifies,
    both two-block sweeps run and no witness exists; at h = 0 analyze and
    both sweeps refuse with exit 2, and the witness exists."""
    for h, singular in ((5e-11, False), (0.0, True)):
        inst = cs.ProblemInstance(
            blocks=cs.BlockStructure(dims=(1, 1), m=1),
            H=np.diag([h, 1.0]), g=np.zeros(2), A=np.array([[0.0, 1.0]]), b=_arr(0.0),
        )
        path = tmp_path / f"near{h!r}.json"
        cs.save_instance(inst, path)
        out = tmp_path / f"out{h!r}"
        refused = 2 if singular else 0
        assert main(["analyze", str(path), "--out", str(out)]) == refused
        for variant in ("admm2", "admm_cyclic_n"):
            assert main(["solve", str(path), "--variant", variant, "--out", str(out)]) == refused, variant
        assert main(["witness", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "witness.json").read_text())["found"] is singular


def test_singular_sweep_block_reads_the_same_from_every_command(tmp_path, capsys):
    """analyze and rp-expect (through the order-averaged update) and solve
    (through the sweep engine) refuse the same singular block with exit 2
    and one error line."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1, 1), m=1),
        H=np.diag([1.0, 0.0, 2.0]), g=np.zeros(3), A=np.array([[1.0, 0.0, 1.0]]), b=_arr(1.0),
    )
    path = tmp_path / "sing.json"
    cs.save_instance(inst, path)
    lines = []
    for argv in (["analyze"], ["rp-expect"], ["solve", "--variant", "admm_cyclic_n"]):
        assert main([argv[0], str(path), *argv[1:], "--out", str(tmp_path / "out")]) == 2, argv
        lines.append(capsys.readouterr().err)
    assert lines == [
        "error: block 1: subproblem matrix is singular (min eigenvalue 0.000e+00), "
        "so ordered sweeps are not uniquely solvable\n"
    ] * 3


# -- compare-bcd ---------------------------------------------------------------


def test_compare_bcd_artifact(tmp_path, capsys):
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.array([[1.0, 0.5], [0.5, 1.0]]), g=np.zeros(2),
        A=np.array([[1.0, 1.0]]), b=_arr(0.0),
    )
    path = tmp_path / "norm.json"
    cs.save_instance(inst, path)
    out = tmp_path / "cmp"
    assert main(["compare-bcd", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "compare_bcd.csv").read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "rho1,rho2,rho3,sigma1,rho3_closed_form"
    vals = body[1].split(",")
    assert abs(float(vals[0]) - 0.25) <= 1e-12
    assert abs(float(vals[2]) - 0.375) <= 1e-12
    assert abs(float(vals[4]) - 0.375) <= 1e-12


def test_compare_bcd_requires_two_blocks(cyclic3_file, capsys):
    assert main(["compare-bcd", str(cyclic3_file)]) == 64
    capsys.readouterr()


# -- rp-expect -------------------------------------------------------------------


def test_rp_expect_exact_only(cyclic3_file, tmp_path, capsys):
    out = tmp_path / "rp"
    rc = main(["rp-expect", str(cyclic3_file), "--out", str(out)])
    assert rc == 0
    assert "expected_status=converged" in capsys.readouterr().out
    assert (out / "expectation.csv").exists()
    assert not (out / "expectation_sampled.csv").exists()
    assert not (out / "trials.csv").exists()


def test_rp_expect_with_trials(cyclic3_file, tmp_path, capsys):
    out = tmp_path / "rpt"
    rc = main([
        "rp-expect", str(cyclic3_file), "--out", str(out),
        "--trials", "3", "--seed", "11", "--tol", "1e-9", "--max-iter", "20000",
    ])
    assert rc == 0
    capsys.readouterr()
    sampled = (out / "expectation_sampled.csv").read_text().splitlines()
    assert any(ln == "# trials=3" for ln in sampled)
    assert sampled[-1].startswith("# status=")
    trials = (out / "trials.csv").read_text().splitlines()
    footers = [ln for ln in trials if ln.startswith("# trial=")]
    assert len(footers) == 3
    assert all("status=converged" in ln for ln in footers)
    trial_ids = {ln.split(",")[0] for ln in trials if not ln.startswith(("#", "trial"))}
    assert trial_ids == {"0", "1", "2"}


def test_rp_expect_exits_3_when_the_expected_iteration_diverges(tmp_path, capsys):
    """Constraint rows with no solution make the expected multiplier drift
    past the divergence limit: the trajectory is written up to that row."""
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=2),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0], [1.0, 1.0]]), b=_arr(0.0, 1e11),
    )
    path = tmp_path / "drift.json"
    cs.save_instance(inst, path)
    out = tmp_path / "rp"
    assert main(["rp-expect", str(path), "--out", str(out)]) == 3
    assert "expected_status=diverged steps=20" in capsys.readouterr().out
    assert (out / "expectation.csv").read_text().splitlines()[-1] == "# status=diverged"


def test_rp_expect_rejects_nan_tol_before_writing(cyclic3_file, tmp_path, capsys):
    for extra in ([], ["--trials", "2"]):
        out = tmp_path / f"nan{len(extra)}"
        rc = main(["rp-expect", str(cyclic3_file), "--out", str(out), "--tol", "nan", *extra])
        assert rc == 64
        assert "tol" in capsys.readouterr().err
        assert not (out / "expectation.csv").exists()


def test_rp_expect_rejects_negative_trials(cyclic3_file, tmp_path, capsys):
    """A negative --trials is a usage error, raised before anything is
    written; --trials 0 runs the expected iteration alone."""
    out = tmp_path / "neg"
    assert main(["rp-expect", str(cyclic3_file), "--out", str(out), "--trials", "-2"]) == 64
    assert "trials" in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "zero"
    assert main(["rp-expect", str(cyclic3_file), "--out", str(out), "--trials", "0"]) == 0
    capsys.readouterr()
    assert (out / "expectation.csv").exists()
    assert "# trials=0" in (out / "expectation.csv").read_text().splitlines()
    assert not (out / "trials.csv").exists()


def test_rp_expect_without_trials_leaves_no_earlier_trials(cyclic3_file, tmp_path, capsys):
    """A run without --trials into a directory that holds a run with trials
    leaves the files of the same run in an empty directory, byte for byte."""
    run = ["rp-expect", str(cyclic3_file), "--max-iter", "200"]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main([*run, "--trials", "3", "--out", str(reused)]) == 0
    assert main([*run, "--out", str(reused)]) == 0
    assert main([*run, "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert _artifacts(reused) == _artifacts(fresh)
    assert list(_artifacts(fresh)) == ["expectation.csv"]


# -- witness ---------------------------------------------------------------------


def test_witness_found_and_absent(tmp_path, capsys):
    degen = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.diag([0.0, 1.0]), g=np.zeros(2),
        A=np.array([[0.0, 1.0]]), b=_arr(1.0),
    )
    dpath = tmp_path / "degen.json"
    cs.save_instance(degen, dpath)
    out = tmp_path / "wit"
    assert main(["witness", str(dpath), "--out", str(out)]) == 0
    assert "witness: found" in capsys.readouterr().out
    doc = json.loads((out / "witness.json").read_text())
    assert doc["found"] is True
    assert abs(abs(doc["ybar"][0]) - 1.0) <= 1e-12

    pd_inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1, 1), m=1),
        H=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 1.0]]), b=_arr(2.0),
    )
    ppath = tmp_path / "pd.json"
    cs.save_instance(pd_inst, ppath)
    out2 = tmp_path / "wit2"
    assert main(["witness", str(ppath), "--out", str(out2)]) == 0
    capsys.readouterr()
    doc2 = json.loads((out2 / "witness.json").read_text())
    assert doc2["found"] is False


# -- artifacts written whole ------------------------------------------------------


def test_write_artifact_cuts_a_longer_file_to_the_new_text(tmp_path):
    path = tmp_path / "a.csv"
    _write_artifact(path, "0123456789," * 1000 + "\n")
    _write_artifact(path, "k,v\n1,2\n")
    assert path.read_bytes() == b"k,v\n1,2\n"


def test_write_artifact_creates_a_fresh_file(tmp_path):
    path = tmp_path / "fresh.csv"
    assert not path.exists()
    _write_artifact(path, "k,v\n")
    assert path.read_bytes() == b"k,v\n"


def test_write_artifact_writes_through_a_symlink_to_dev_null(tmp_path):
    path = tmp_path / "null.csv"
    path.symlink_to(os.devnull)
    _write_artifact(path, "k,v\n" * 100)
    assert path.is_symlink()


def test_instance_name_that_is_not_utf8_is_written_back_raw(pair_file, tmp_path, capsys):
    """An instance file whose name holds a byte that is not UTF-8 (decoded
    with surrogateescape, as sys.argv gives it) solves with exit 0, and the
    trace header holds the name's raw bytes; a rerun writes the same bytes
    over the first trace."""
    name = os.fsdecode(b"inst-\xff.json")
    inst = tmp_path / name
    inst.write_bytes(pair_file.read_bytes())
    out = tmp_path / "out"
    traces = []
    for _ in range(2):
        assert main(["solve", str(inst), "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert b"# instance=inst-\xff.json\n" in traces[0]
    assert traces[0] == traces[1] and traces[0].endswith(b"# status=converged\n")
    capsys.readouterr()


def _save(tmp_path, name, H, A, b):
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(1,) * len(H), m=len(b)), H=np.asarray(H, dtype=float),
        g=np.zeros(len(H)), A=np.asarray(A, dtype=float), b=np.asarray(b, dtype=float),
    )
    path = tmp_path / name
    cs.save_instance(inst, path)
    return str(path)


def _rerun_cases(tmp_path, pair_file, cyclic3_file):
    """Per subcommand: a run that writes longer artifacts, then a run that
    writes shorter ones under the same names."""
    pair, c3 = str(pair_file), str(cyclic3_file)
    norm = _save(tmp_path, "norm.json", [[1.0, 0.5], [0.5, 1.0]], [[1.0, 1.0]], [0.0])
    degen = _save(tmp_path, "degen.json", [[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0]], [1.0])
    return {
        "solve": (["solve", pair, "--tol", "0", "--max-iter", "50"], ["solve", pair, "--tol", "0", "--max-iter", "5"]),
        "analyze": (["analyze", c3], ["analyze", pair]),
        "compare-bcd": (["compare-bcd", norm], ["compare-bcd", pair]),
        "rp-expect": (
            ["rp-expect", c3, "--max-iter", "200", "--trials", "3"],
            ["rp-expect", c3, "--max-iter", "20", "--trials", "1"],
        ),
        "witness": (["witness", degen], ["witness", pair]),
    }


def _artifacts(out) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["solve", "analyze", "compare-bcd", "rp-expect", "witness"])
def test_rerun_over_longer_artifacts_matches_fresh_run(command, pair_file, cyclic3_file, tmp_path, capsys):
    """Artifacts rewritten over a longer run's are byte-identical to
    the same run's artifacts in an empty directory: no stale tail is left."""
    longer, shorter = _rerun_cases(tmp_path, pair_file, cyclic3_file)[command]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main([*longer, "--out", str(reused)]) == 0
    before = _artifacts(reused)
    assert main([*shorter, "--out", str(reused)]) == 0
    assert main([*shorter, "--out", str(fresh)]) == 0
    capsys.readouterr()
    after = _artifacts(fresh)
    assert after == _artifacts(reused)
    assert before.keys() == after.keys()
    assert all(len(before[name]) > len(after[name]) for name in after)


@pytest.mark.parametrize(
    "cmd, artifact",
    [
        (["solve"], "trace.csv"),
        (["analyze"], "report.json"),
        (["compare-bcd"], "compare_bcd.csv"),
        (["rp-expect", "--max-iter", "5"], "expectation.csv"),
        (["witness"], "witness.json"),
    ],
)
def test_artifact_path_that_is_a_directory_exits_2(cmd, artifact, pair_file, tmp_path, capsys):
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main([cmd[0], str(pair_file), *cmd[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and artifact in err, err


# -- one parser per process ----------------------------------------------------------


def _header(path, key) -> str:
    return next(ln for ln in path.read_text().splitlines() if ln.startswith(f"# {key}="))


def test_main_keeps_no_argument_between_calls(pair_file, cyclic3_file, tmp_path, monkeypatch, capsys):
    """main reuses one parser, yet a flag given to one call is not seen by the
    next: an omitted --seed reads $COUPLED_SPLITTING_SEED, then 0."""
    out = tmp_path / "seq"
    trace, expect = out / "trace.csv", out / "expectation.csv"
    monkeypatch.setenv("COUPLED_SPLITTING_SEED", "5")
    assert main(["solve", str(pair_file), "--seed", "11", "--beta", "2", "--out", str(out)]) == 0
    assert (_header(trace, "seed"), _header(trace, "beta")) == ("# seed=11", "# beta=2.0")
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(pair_file), "--seed", "x"])
    assert exc.value.code == 64
    assert main(["rp-expect", str(cyclic3_file), "--max-iter", "5", "--out", str(out)]) == 0
    assert (_header(expect, "seed"), _header(expect, "beta")) == ("# seed=5", "# beta=1.0")
    assert main(["solve", str(pair_file), "--out", str(out)]) == 0
    assert (_header(trace, "seed"), _header(trace, "beta")) == ("# seed=5", "# beta=1.0")
    assert main(["rp-expect", str(cyclic3_file), "--max-iter", "5", "--seed", "3", "--out", str(out)]) == 0
    assert _header(expect, "seed") == "# seed=3"
    monkeypatch.delenv("COUPLED_SPLITTING_SEED")
    assert main(["analyze", str(pair_file), "--beta", "3", "--out", str(out)]) == 0
    assert main(["solve", str(pair_file), "--out", str(out)]) == 0
    assert _header(trace, "seed") == "# seed=0"
    assert main(["rp-expect", str(cyclic3_file), "--max-iter", "5", "--out", str(out)]) == 0
    assert (_header(expect, "seed"), _header(expect, "beta")) == ("# seed=0", "# beta=1.0")
    capsys.readouterr()


def test_build_parser_returns_a_new_parser_each_call():
    first = build_parser()
    assert build_parser() is not first
    assert first.parse_args(["witness", "x.json"]).beta == 1.0


# -- console entry point -----------------------------------------------------------


def test_module_invocation(pair_file, tmp_path):
    out = tmp_path / "proc"
    proc = subprocess.run(
        [sys.executable, "-m", "coupled_splitting.cli",
         "solve", str(pair_file), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "status=converged" in proc.stdout
    assert (out / "trace.csv").exists()


@pytest.mark.parametrize("cmd", _SUBCOMMANDS[:2] + _SUBCOMMANDS[3:] + (["solve", "--variant", "admm2_linearized"],))
def test_beta_past_its_limit_is_a_usage_error(cmd, tmp_path, capsys):
    """beta = 1e308 overflows the sweeps and the averaged update. Every
    command that takes a beta rejects it, and any beta above BETA_MAX, at
    the boundary: exit 64, one error line naming beta, no warning and no
    artifact; BETA_MAX itself is accepted."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_pair_doc(H=[[2.0, 1.0], [1.0, 2.0]], b=[1.0])))
    for beta, rc_want in ((1e308, 64), (2.0 * BETA_MAX, 64), (BETA_MAX, None)):
        out = tmp_path / f"out{beta!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([cmd[0], str(path), *cmd[1:], "--beta", repr(beta), "--out", str(out)])
        err = capsys.readouterr().err
        if rc_want is None:
            assert rc != 64, (cmd, err)
            continue
        assert rc == rc_want, (cmd, err)
        assert err == f"error: beta must be positive and at most {BETA_MAX!r}, not {beta!r}\n"
        assert not out.exists() or not any(out.iterdir())


def test_rp_expect_writes_nothing_when_its_trials_fail(tmp_path, capsys, monkeypatch):
    """rp-expect builds all three texts before it writes a file: when the
    trials raise, the command exits 2 and the files of the earlier run keep
    their bytes."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_pair_doc(H=[[2.0, 1.0], [1.0, 2.0]], b=[1.0])))
    out = tmp_path / "out"
    argv = ["rp-expect", str(path), "--trials", "2", "--max-iter", "50", "--out", str(out)]
    assert main(argv) == 0
    names = ("expectation.csv", "expectation_sampled.csv", "trials.csv")
    before = {name: (out / name).read_bytes() for name in names}

    def fail(*_args, **_kwargs):
        raise cs.ConditionError("trials failed")

    monkeypatch.setattr(cli, "run_rp_solver", fail)
    capsys.readouterr()
    assert main([*argv[:-4], "--max-iter", "60", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: trials failed\n")
    assert {name: (out / name).read_bytes() for name in names} == before
