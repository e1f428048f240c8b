"""Property test of the input boundary: a mutated instance document or flag
makes every subcommand finish with one of the documented exit codes, never
an uncaught exception, and a document whose products overflow is invalid
input."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings, strategies as st

from coupled_splitting.cli import build_parser, main
from coupled_splitting.model import instance_from_dict

EXIT_CODES = {0, 2, 3, 64}

_ZERO = {"kind": "zero", "params": {}, "sigma": None}

# small valid documents: a coupled pair, a nonsmooth pair with a
# strong-convexity certificate, a constrained three-block instance, and a
# pair whose first block's curvature, 5e-11, is near singular
BASES = (
    {
        "blocks": [1, 1], "H": [[2.0, 1.0], [1.0, 2.0]], "g": [0.5, -0.5], "A": [[1.0, 1.0]], "b": [1.0],
        "theta": [_ZERO, _ZERO],
    },
    {
        "blocks": [2, 1], "H": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]], "g": [0.0, 1.0, -1.0],
        "A": [[1.0, 0.0, 1.0]], "b": [0.5],
        "theta": [
            {"kind": "l1", "params": {"lam": 0.1}, "sigma": None},
            {"kind": "box", "params": {"lo": [-1.0], "hi": [1.0]}, "sigma": [[0.0]]},
        ],
    },
    {
        "blocks": [1, 1, 1], "H": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "g": [0.0, 0.0, 0.0],
        "A": [[1.0, 1.0, 1.0], [1.0, 2.0, 0.0]], "b": [1.0, 0.0],
        "theta": [
            _ZERO,
            {"kind": "quadratic", "params": {"P": [[1.0]], "q": [0.5]}, "sigma": None},
            _ZERO,
        ],
    },
    {
        "blocks": [1, 1], "H": [[5e-11, 0.0], [0.0, 1.0]], "g": [0.0, 0.0], "A": [[0.0, 1.0]], "b": [0.0],
        "theta": [_ZERO, _ZERO],
    },
    # no constraint rows: the only base on which bcd and bcpg run
    {
        "blocks": [1, 1], "H": [[2.0, 1.0], [1.0, 2.0]], "g": [0.5, -0.5], "A": [], "b": [],
        "theta": [_ZERO, _ZERO],
    },
)

NUMBERS = st.sampled_from([0.0, -1.0, 1e300, -1e300, math.nan, math.inf, -math.inf])
WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3), NUMBERS,
    st.just([]), st.just([[]]), st.just({}), st.just([1.0, "x"]), st.just({"lam": 1.0}),
)


def _paths(node, at=()):
    """Every location in a JSON tree, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield at + (key,)
        yield from _paths(child, at + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _parent(doc, path), path[-1]
        kind = draw(st.sampled_from(["drop", "retype", "number", "shorten", "extend", "nest", "dims"]))
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = draw(WRONG_TYPES)
        elif kind == "number":
            parent[key] = draw(NUMBERS)
        elif kind == "dims":
            doc["blocks"] = draw(st.lists(st.integers(-1, 3), max_size=4))
        elif isinstance(parent[key], list) and kind == "shorten":
            parent[key] = parent[key][:-1]
        elif isinstance(parent[key], list) and kind == "extend":
            parent[key] = parent[key] + parent[key][-1:]
        elif kind == "nest":
            parent[key] = [parent[key]]
    return doc


# flag values: zero, negative, NaN and infinite, plus valid ones; iteration
# and trial counts stay small so that no example starts a long run
REALS = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "0.5", "1", "1.5"])
ITERS = st.sampled_from(["0", "-2", "nan", "inf", "1", "40"])
TRIALS = st.sampled_from(["0", "-2", "nan", "inf", "1", "2"])
COMMANDS = {
    "solve": {
        "--variant": st.sampled_from(["admm2", "admm2_linearized", "admm_cyclic_n", "bcd", "bcpg"]),
        "--beta": REALS, "--gamma": REALS, "--tol": REALS, "--seed": st.sampled_from(["0", "-1", "3"]),
    },
    "analyze": {"--beta": REALS},
    "compare-bcd": {},
    "rp-expect": {"--beta": REALS, "--tol": REALS, "--trials": TRIALS},
    "witness": {"--beta": REALS},
}


@st.composite
def command_lines(draw):
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [cmd]
    for flag, values in COMMANDS[cmd].items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if cmd in ("solve", "rp-expect"):
        argv += ["--max-iter", draw(ITERS)]
    return argv


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _parses(argv) -> bool:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            return False
    return True


def _products_overflow(doc) -> bool:
    """Whether the document decodes to an instance with a non-finite A'A or
    A'b, as when a 1e300 entry is multiplied."""
    try:
        inst = instance_from_dict(doc)
    except Exception:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        products = (inst.A.T @ inst.A, inst.A.T @ inst.b)
    return not all(np.all(np.isfinite(p)) for p in products)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(doc=st.one_of(documents(), st.sampled_from(BASES)), argv=command_lines())
def test_mutated_input_gets_a_documented_exit_code(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(doc))
        full = [argv[0], str(path), *argv[1:], "--out", str(Path(tmp) / "out")]
        code = _exit_code(full)
    event(f"exit {code}")
    assert code in EXIT_CODES, (code, argv, doc)
    if _products_overflow(doc) and _parses(full):
        event("products overflow")
        assert code == 2, (code, argv, doc)
