"""JSON artifacts are json.dumps(doc, indent=2)'s text, byte for byte: the
emitter that writes them, on drawn documents of every value json takes, and
report.json and witness.json as the CLI writes them."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coupled_splitting as cs
from coupled_splitting.cli import main
from coupled_splitting.spectral import _json_text, analyze_instance, divergence_witness

from gen import spectral_instance, violating_instance

EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-05)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats().map(np.float64))
ints = st.one_of(st.integers(), st.sampled_from((0, -1, 2**53 + 1, -(2**64), 10**40)))
scalars = st.one_of(floats, ints, st.booleans(), st.none(), st.text())
keys = st.one_of(st.text(), st.text(alphabet='ab"\\/\n\t\x00\x7fé 中\U0001f600', max_size=6))
# lists of scalars: all floats (one join when every one is finite), floats
# and ints, bools next to ints, and the empty list
rows = st.one_of(st.lists(floats, max_size=6), st.lists(st.one_of(floats, ints), max_size=4),
                 st.lists(st.one_of(st.booleans(), ints), max_size=4))
documents = st.recursive(
    st.one_of(scalars, rows, st.lists(rows, max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(documents)
def test_emitter_prints_as_json_dumps_indent_2(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_emitter_prints_edge_rows_as_json_dumps():
    """The rows the joined form must hand to json, and nesting at depth;
    keys that are not strings raise, as does what json cannot print."""
    for doc in ([math.nan, 1.0], [1.0, -math.inf], [1.0, 2], [True, 1, 0, False], [[1.0, 2.0], [math.inf]],
                {"a": [[0.0, -0.0]], "b": {"c": [5e-324]}}, [[[]], [{}], ()]):
        assert _json_text(doc) == json.dumps(doc, indent=2), doc
    for doc in ({1: 2.0}, [{"k": {None: 1}}], [object()]):
        with pytest.raises(TypeError):
            _json_text(doc)


def _reference_report_dict(report):
    """report.to_dict() with the spectra taken one float() at a time."""
    doc = report.to_dict()
    doc["eig_QS"] = [float(v) for v in report.eig_QS]
    doc["eig_M"] = [[float(v.real), float(v.imag)] for v in report.eig_M]
    return doc


def test_report_json_is_json_dumps_of_the_report(tmp_path):
    rng = np.random.default_rng(241)
    for k in range(4):
        inst = spectral_instance(rng)
        path, out = tmp_path / f"inst{k}.json", tmp_path / f"out{k}"
        cs.save_instance(inst, path)
        beta = (0.5, 1.0, 3.0, 1.0)[k]
        assert main(["analyze", str(path), "--beta", repr(beta), "--out", str(out)]) == 0
        doc = _reference_report_dict(analyze_instance(inst, beta))
        assert (out / "report.json").read_text() == json.dumps(doc, indent=2) + "\n"


def test_witness_json_is_json_dumps_of_the_document(tmp_path):
    """A found witness and one that is not found."""
    rng = np.random.default_rng(242)
    found, _ = violating_instance(rng)
    absent = cs.ProblemInstance(blocks=cs.BlockStructure(dims=(1, 1), m=1), H=np.eye(2), g=np.zeros(2),
                                A=np.array([[1.0, 1.0]]), b=np.array([2.0]))
    for name, inst in (("found", found), ("absent", absent)):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        cs.save_instance(inst, path)
        assert main(["witness", str(path), "--out", str(out)]) == 0
        cert = divergence_witness(inst, 1.0)
        doc = {"found": cert is not None}
        if cert is not None:
            doc.update(cert.to_dict())
        assert doc["found"] is (name == "found")
        assert (out / "witness.json").read_text() == json.dumps(doc, indent=2) + "\n"
