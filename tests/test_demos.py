"""The demo scripts use only names the package exports, and the fast ones
run to completion."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coupled_splitting as cs

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# the expected-trajectory demo takes about two minutes; it is checked by
# the name scan only
SLOW = {"random_permutation_expectation.py"}


def _package_names(tree) -> set:
    """Every attribute looked up on the `cs` alias in a parsed script."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cs"
    }


def test_demos_use_exported_names():
    scripts = sorted(DEMOS.glob("*.py"))
    assert len(scripts) == 6
    for script in scripts:
        names = _package_names(ast.parse(script.read_text(), filename=str(script)))
        assert names, script.name
        missing = sorted(n for n in names if not hasattr(cs, n))
        assert not missing, f"{script.name} uses missing names {missing}"


@pytest.mark.parametrize(
    "script", sorted(p.name for p in DEMOS.glob("*.py") if p.name not in SLOW)
)
def test_fast_demo_runs(script, tmp_path):
    src = str(Path(cs.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
