"""The CSV kernel against float.__repr__, and each CSV emitter against its
one-f-string-per-row oracle in tests/oracles.py.

Everything here is derandomized (fixed seeds). The kernel is checked on
well over 10**6 values per run; the whole module takes about 10 s on one
core (most of it in the repr reference), and the value sets are not to be
cut to save time.
"""

import numpy as np
import pytest

import coupled_splitting as cs
from coupled_splitting import _csvtext, rp, solvers
from coupled_splitting._csvtext import csv_lines

from oracles import csv_lines_text, expectation_text, trace_rows_text, trials_text

U64 = np.uint64
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max]


def _assert_reprs(values: np.ndarray) -> int:
    """csv_lines writes each value as repr(float(v)), 8 cells to a line."""
    values = np.concatenate([values, np.zeros(-values.size % 8)])
    table = values.reshape(-1, 8)
    got = csv_lines(table, nan="nan").splitlines()
    want = csv_lines_text(table, nan="nan").splitlines()
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:3]
    return values.size


def _from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=U64).view(np.float64)


def test_kernel_equals_repr_on_over_a_million_values():
    rng = np.random.default_rng(20281)
    checked = 0
    # random bit patterns: both signs, NaNs and infinities among them
    checked += _assert_reprs(_from_bits(rng.integers(0, 2**64, 400_000, dtype=U64, endpoint=False)))
    # every binary exponent, subnormals (exponent 0) included, each with
    # random mantissas
    exps = np.arange(2047, dtype=U64)[:, None]
    man = rng.integers(0, 2**52, (2047, 150), dtype=U64)
    checked += _assert_reprs(_from_bits(((exps << U64(52)) | man).ravel()))
    # mantissas with one to three set bits, which take Ryu's trailing-zero
    # branch (powers of two such as 2**-52 among them), at every exponent
    few = np.zeros((2047, 120), dtype=U64)
    for _ in range(3):
        bits = rng.integers(0, 52, (2047, 120)).astype(U64)
        few |= np.where(rng.random((2047, 120)) < 0.7, U64(1) << bits, U64(0))
    checked += _assert_reprs(_from_bits(((exps << U64(52)) | few).ravel()))
    # the notation's and the fallback's edges, each with its neighbours
    centres = np.array([1e-5, 1e-4, 1e15, 1e16, 2.0**53, 2.0**54, 1e22, 0.1, 1.0, 5e-324])
    offsets = np.arange(-3000, 3001, dtype=np.int64)
    near = (centres.view(np.int64)[:, None] + offsets).ravel()
    near = near[near >= 0].view(np.float64)
    checked += _assert_reprs(np.concatenate([near, -near]))
    # round decimals, short and long
    short = rng.integers(1, 10**6, 100_000) * 10.0 ** rng.integers(-30, 30, 100_000)
    checked += _assert_reprs(np.concatenate([short, -short]))
    checked += _assert_reprs(np.array(EDGES))
    assert checked >= 10**6


def test_kernel_tables_match_their_definitions():
    limbs = _csvtext._pow5_limbs()
    for i in (0, 1, 27, 100, 325):
        v = sum(int(limb[i]) << (32 * t) for t, limb in enumerate(limbs))
        assert v.bit_length() == 125
        assert v == (5**i << (125 - (5**i).bit_length()) if (5**i).bit_length() <= 125 else 5**i >> ((5**i).bit_length() - 125))
    assert [bytes(_csvtext._quads()[t : t + 1].view(np.uint8)) for t in (0, 7, 1234, 9999)] == [b"0000", b"0007", b"1234", b"9999"]


def _edge_table(rows: int, cols: int, seed: int) -> np.ndarray:
    """A table whose every column holds NaN, inf, -inf and -0.0 (when it has
    the rows), among random values of many magnitudes."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 20, (rows, cols))
    for c in range(cols):
        for r, v in zip(rng.permutation(rows)[:4], (np.nan, np.inf, -np.inf, -0.0)):
            table[r, c] = v
    return table


@pytest.mark.parametrize("rows", [0, 1, 2, 41])
@pytest.mark.parametrize("lead", [0, 1, 2])
@pytest.mark.parametrize("tail, nan", [("\n", ""), (",exact\n", "nan"), (",sample_mean\n", "nan")])
def test_csv_lines_matches_its_oracle(rows, lead, tail, nan):
    table = _edge_table(rows, 5, rows * 10 + lead)
    cols = [np.full(rows, 3), np.arange(rows) * 97 - 40][:lead]
    assert csv_lines(table, cols, tail, nan) == csv_lines_text(table, cols, tail, nan)


def test_csv_lines_across_chunk_boundaries(monkeypatch):
    """Chunks of a few rows, with notes before, inside and after them."""
    table = _edge_table(50, 4, 7)
    lead = [np.arange(50)]
    want = csv_lines_text(table, lead).splitlines(keepends=True)
    notes = [(0, "# a\n"), (3, "# b\n"), (7, "# c\n"), (7, "# d\n"), (30, "# e\n"), (50, "# f\n")]
    for row, note in reversed(notes):
        want.insert(row, note)
    for chunk in (1, 200, 700, 1 << 20):
        monkeypatch.setattr(_csvtext, "CSV_CHUNK_BYTES", chunk)
        assert csv_lines(table, lead, notes=notes) == "".join(want)


def test_csv_lines_rejects_a_fractional_lead():
    with pytest.raises(TypeError):
        csv_lines(np.zeros((2, 1)), [np.array([0.0, 1.5])])
    # a lead column of another length than the table
    with pytest.raises(ValueError, match="^a lead column has 441 entries for 10 rows$"):
        csv_lines(np.zeros((10, 1)), (np.arange(441),))


def test_expectation_text_rejects_ks_of_another_length():
    for ks in ([0, 1], [0, 1, 2, 3]):
        et = rp.ExpectationTrace(mode="exact", ks=ks, Z=np.zeros((3, 2)), d=1, status="converged")
        with pytest.raises(ValueError, match=f"has {len(ks)} entries for 3 rows"):
            et.csv_text()


def _edge_trace(rows: int, n_blocks: int, seed: int) -> solvers.Trace:
    table = _edge_table(rows, 2 * n_blocks + 4, seed)
    trace = solvers.Trace(n_blocks)
    trace.extend(table)
    return trace


@pytest.mark.parametrize("rows", [0, 1, 2, 300])
def test_trace_rows_match_the_oracle(rows, monkeypatch):
    monkeypatch.setattr(_csvtext, "CSV_CHUNK_BYTES", 4096)
    trace = _edge_trace(rows, 3, rows)
    for trial in (None, 0, 12):
        trace.trial = trial
        assert trace.csv_rows() == trace_rows_text(trace)


def test_trials_text_matches_the_oracle(monkeypatch):
    traces = []
    for t, rows in enumerate((1, 2, 0, 140, 3)):
        trace = _edge_trace(rows, 2, 100 + t)
        trace.trial, trace.status = t, ("converged", "max_iter", "diverged")[t % 3]
        traces.append(trace)
    for chunk in (512, 1 << 18):
        monkeypatch.setattr(_csvtext, "CSV_CHUNK_BYTES", chunk)
        assert rp.trials_csv_text(traces, ["beta=1.0"]) == trials_text(traces, ["beta=1.0"])


@pytest.mark.parametrize("rows", [0, 1, 2, 90])
def test_expectation_text_matches_the_oracle(rows):
    table = _edge_table(rows, 5, rows)
    for mode, m in (("exact", 2), ("sample_mean", 0)):
        et = rp.ExpectationTrace(mode=mode, ks=list(range(0, 3 * rows, 3)), Z=table[:, : 3 + m], d=3, status="converged")
        assert et.csv_text(["trials=2"]) == expectation_text(et, ["trials=2"])


def test_run_artifacts_match_the_oracles():
    """A real randomly permuted run: its trials and both expectation files."""
    rng = np.random.default_rng(5)
    B = rng.standard_normal((6, 6))
    inst = cs.ProblemInstance(
        blocks=cs.BlockStructure(dims=(2, 2, 2), m=2),
        H=B @ B.T / 6 + np.eye(6), g=rng.standard_normal(6), A=rng.standard_normal((2, 6)), b=rng.standard_normal(2),
    )
    cfg = cs.SolverConfig(variant="admm_cyclic_n", beta=1.0, tol=1e-10, max_iter=400, seed=3)
    traces, mean = cs.run_rp_solver(inst, cfg, trials=3)
    assert rp.trials_csv_text(traces) == trials_text(traces)
    assert mean.csv_text() == expectation_text(mean)
    exact = cs.run_expected_iteration(inst, 1.0, k_max=400, tol=1e-10)
    assert exact.csv_text(["x=1"]) == expectation_text(exact, ["x=1"])
