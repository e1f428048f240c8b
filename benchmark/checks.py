"""Independent checks of the program's outputs.

Each checker takes what a command produced (its exit code, its artifacts,
or the value returned by the library call it made) together with the
benchmark's own reference data, and returns a list of problems; an empty
list means the output is correct. Nothing here imports the program: every
reference is recomputed with numpy from the instance data, or is a property
the paper proves.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from reference import kkt_residual, psd_sqrt, sym

KKT_FACTOR = 10.0         # own KKT residual may exceed --tol by this factor
ORACLE_MATCH = 1e-6       # x against a known solution
EXPECT_MATCH = 1e-6       # final expected iterates against the KKT point
Q_MATCH = 1e-10           # Q against the benchmark's own average
DESK_MATCH = 1e-12        # eigenvalues of the hand-derived 2x2 instance
QS_LOWER = -1e-10         # band of eig(Q^1/2 S Q^1/2): [0, 4/3)
QS_UPPER = 4.0 / 3.0
UNIT_EIG_TOL = 1e-7       # an eigenvalue of M within this of 1 counts as one
SYMMETRY_RTOL = 1e-10
LEMMAS = ("lemma_3_1", "lemma_3_3", "lemma_3_4", "lemma_3_5")


# -- artifacts ----------------------------------------------------------------


def read_csv(path):
    """Header comment lines, column names and data rows of a program CSV."""
    comments, cols, rows = [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, cols or [], rows


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _number(cell: str) -> float:
    return float(cell) if cell else float("nan")


# -- solve ----------------------------------------------------------------------


def check_solve(inst, tol: float, trace_csv, x, mu) -> list:
    """A converged `solve`: trace.csv ends converged with its last residual
    row within tol, (x, mu) returned by the run is stationary to within a
    small multiple of tol by the benchmark's own residual, and x matches the
    instance's known solution when it has one."""
    problems = []
    comments, cols, rows = read_csv(trace_csv)
    if not comments or comments[-1] != "status=converged":
        problems.append(f"trace status line is {comments[-1] if comments else None!r}")
    if not rows:
        return problems + ["trace has no rows"]
    last = dict(zip(cols, rows[-1]))
    reported = max(_number(v) for k, v in last.items() if k.startswith("r_dual_") or k == "r_feas")
    if not reported <= tol:
        problems.append(f"reported final residual {reported!r} exceeds tol {tol!r}")
    own = float(kkt_residual(inst, np.asarray(x), np.asarray(mu)))
    if not own <= KKT_FACTOR * tol:
        problems.append(f"recomputed KKT residual {own!r} exceeds {KKT_FACTOR} * tol")
    if "x" in inst.ref:
        gap = float(np.max(np.abs(np.asarray(x) - inst.ref["x"])))
        if not gap <= ORACLE_MATCH:
            problems.append(f"x is {gap!r} from the known solution")
    return problems


def check_diverged(trace_csv) -> list:
    comments, _cols, _rows = read_csv(trace_csv)
    if not comments or comments[-1] != "status=diverged":
        return [f"trace status line is {comments[-1] if comments else None!r}"]
    return []


# -- rp-expect --------------------------------------------------------------------


def check_expectation(inst, csv_path, want_status: str) -> list:
    """The last row of an expectation CSV matches the instance's KKT point."""
    comments, cols, rows = read_csv(csv_path)
    problems = []
    if not comments or comments[-1] != f"status={want_status}":
        problems.append(f"{Path(csv_path).name}: status line is {comments[-1] if comments else None!r}")
    if not rows:
        return problems + [f"{Path(csv_path).name}: no rows"]
    last = dict(zip(cols, rows[-1]))
    x = np.array([_number(last.get(f"Ex_{j + 1}", "")) for j in range(inst.d)])
    mu = np.array([_number(last.get(f"Emu_{j + 1}", "")) for j in range(inst.m)])
    gap = max(float(np.max(np.abs(x - inst.ref["x"]))), float(np.max(np.abs(mu - inst.ref["mu"]), initial=0.0)))
    if not gap <= EXPECT_MATCH:
        problems.append(f"{Path(csv_path).name}: final row is {gap!r} from the KKT point")
    return problems


def check_trials(trials_csv, trials: int) -> list:
    """Every trial in trials.csv ends with status=converged."""
    comments, _cols, _rows = read_csv(trials_csv)
    ends = [c for c in comments if c.startswith("trial=")]
    want = [f"trial={t} status=converged" for t in range(trials)]
    if ends != want:
        bad = [e for e in ends if e not in want]
        return [f"trial end lines differ from {trials} converged trials: {len(ends)} lines, e.g. {bad[:2]}"]
    return []


# -- analyze ---------------------------------------------------------------------


def check_report(inst, report: dict) -> list:
    """A report.json: the four lemma verdicts hold; Q is symmetric positive
    definite with eig(Q^1/2 S Q^1/2) in [0, 4/3); am_one and gm_one equal the
    benchmark's own rank formulas and its own count of unit eigenvalues of M;
    Q equals the benchmark's own order average; the 2x2 instance has its
    hand-derived eigenvalues."""
    problems = []
    verdicts = report.get("verdicts", {})
    for key in LEMMAS:
        if verdicts.get(key) is not True:
            problems.append(f"verdict {key} is {verdicts.get(key)!r}")
    beta = float(report["beta"])
    Q = np.asarray(report["Q"], dtype=float)
    M = np.asarray(report["M"], dtype=float)
    if Q.shape != (inst.d, inst.d) or M.shape != (inst.d + inst.m, inst.d + inst.m):
        return problems + [f"Q has shape {Q.shape}, M has shape {M.shape}"]
    scale = max(1.0, float(np.max(np.abs(Q))))
    if float(np.max(np.abs(Q - Q.T))) > SYMMETRY_RTOL * scale:
        problems.append("Q is not symmetric")
    w = np.linalg.eigvalsh(sym(Q))
    if not w[0] > 0.0:
        problems.append(f"Q is not positive definite (min eigenvalue {w[0]!r})")
    else:
        S = inst.H + beta * (inst.A.T @ inst.A)
        root = psd_sqrt(Q)
        eig = np.linalg.eigvalsh(sym(root @ S @ root))
        if not (eig[0] >= QS_LOWER and eig[-1] < QS_UPPER):
            problems.append(f"eig(Q^1/2 S Q^1/2) spans [{eig[0]!r}, {eig[-1]!r}], outside [0, 4/3)")
    ref = inst.ref
    unit = int(np.sum(np.abs(np.linalg.eigvals(M) - 1.0) <= UNIT_EIG_TOL))
    for key in ("am_one", "gm_one"):
        if not report.get(key) == ref[key] == unit:
            problems.append(f"{key}={report.get(key)!r}, own rank formula {ref[key]}, own unit count {unit}")
    gap = float(np.max(np.abs(Q - ref["Q"])))
    if not gap <= Q_MATCH:
        problems.append(f"Q is {gap!r} from the own average over all orders")
    if "eig_QS_exact" in ref:
        got = np.sort(np.asarray(report["eig_QS"], dtype=float))
        if got.shape != ref["eig_QS_exact"].shape or float(np.max(np.abs(got - ref["eig_QS_exact"]))) > DESK_MATCH:
            problems.append(f"eig_QS is {got.tolist()}, expected [7/9, 10/9]")
    return problems


def check_exit(rc, expected: int) -> list:
    return [] if rc == expected else [f"exit code {rc!r}, expected {expected}"]

