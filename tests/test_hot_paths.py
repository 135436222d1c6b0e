"""No contraction-path search on a call path: an ``einsum`` under
``src/switchlab/`` either runs without ``optimize`` or is given a path that
was searched for once (see ``process._hs_plan``)."""

import ast
from pathlib import Path

import switchlab

SRC = Path(switchlab.__file__).parent


def _path_searches(source):
    """Line numbers of the einsum calls in `source` whose ``optimize`` is a
    literal search request (True, "greedy" or "optimal"), which numpy
    answers by searching for a path on every call."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum":
            continue
        for kw in node.keywords:
            if kw.arg == "optimize" and isinstance(kw.value, ast.Constant) and kw.value.value is not False:
                yield node.lineno


def test_no_einsum_searches_for_its_path_per_call():
    # The walker sees both spellings, and leaves a precomputed path alone.
    assert list(_path_searches("np.einsum('ij->', a, optimize=True)")) == [1]
    assert list(_path_searches("from numpy import einsum\neinsum('ij->', a, optimize='greedy')")) == [2]
    assert not list(_path_searches("np.einsum('ij->', a, optimize=path)"))
    files = sorted(SRC.glob("*.py"))
    assert SRC / "process.py" in files
    offenders = {f.name: lines for f in files if (lines := list(_path_searches(f.read_text(encoding="utf-8"))))}
    assert not offenders
