"""``src/repro/gist/`` holds one best-first traversal, not several.

A priority queue is what a best-first search is made of, so counting
the modules that import ``heapq`` counts the traversals: the kernel in
:mod:`repro.gist.nn` and nothing else.  The modules that used to hold
the other copies must stay gone, or a stale import would quietly bring
a second implementation back.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro.gist

GIST_DIR = Path(repro.gist.__file__).parent


def _imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_exactly_one_module_imports_heapq():
    users = sorted(path.name for path in GIST_DIR.glob("*.py")
                   if "heapq" in _imports(path))
    assert users == ["nn.py"]


@pytest.mark.parametrize("name", ["repro.gist.cursor",
                                  "repro.gist.expanding"])
def test_the_copies_no_longer_import(name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(name)


def test_no_reference_implementation_is_left_under_src():
    from repro.gist import GiST, batch
    for gone in ("knn_expanding", "_read_query_many"):
        assert not hasattr(GiST, gone)
    for gone in ("_QueryState", "_NodeRun", "_LeafRun"):
        assert not hasattr(batch, gone)
