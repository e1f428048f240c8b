"""End-to-end tests of the command line: artifacts, exit codes, headers,
and determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting.cli import main


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


# -- analyze -------------------------------------------------------------------


def test_analyze_report_round_trip(singular_pair_file, tmp_path, capsys):
    out = tmp_path / "an"
    rc = main(["analyze", str(singular_pair_file), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "lemma_3_1=True" in stdout
    assert "lemma_3_4=True" in stdout
    assert "am_one=1 gm_one=1" in stdout
    report = cs.load_report(out / "report.json")
    eig = np.sort_complex(report.eig_M)
    assert np.allclose(eig, _arr(0.0, 0.0, 1.0), atol=1e-12)
    assert report.verdicts["lemma_3_5"] is True
    assert report.verdicts["prop_3_1"] is None


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


def test_rp_expect_rejects_nan_tol_before_writing(cyclic3_file, tmp_path, capsys):
    for extra in ([], ["--trials", "2"]):
        out = tmp_path / f"nan{len(extra)}"
        rc = main(["rp-expect", str(cyclic3_file), "--out", str(out), "--tol", "nan", *extra])
        assert rc == 64
        assert "tol" in capsys.readouterr().err
        assert not (out / "expectation.csv").exists()


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
