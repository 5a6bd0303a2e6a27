"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` looks each binding up with ``owner.__dict__[attr]``
and replaces ``Graph.distance_matrix`` with a fresh ``cached_property``, so
renaming or deleting one of those names fails every traced op.  Some names
(``decompose.connected_components`` among them) are bound only for it.
"""

import ast
import importlib.util
from functools import cached_property
from pathlib import Path

from localmrf.core import Graph

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_is_bound():
    patches = load_tracing().PATCHES
    assert patches
    for owner, attr, name, _ in patches:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} (span {name})"


def test_every_keep_alive_import_is_wrapped():
    # an import kept only for the tracer (``# noqa: F401``) must name a
    # binding it wraps, so retiring that binding leaves no dead import
    wrapped = {(owner.__name__, attr) for owner, attr, _, _ in load_tracing().PATCHES}
    kept = []
    for path in sorted((ROOT / "src" / "localmrf").glob("*.py")):
        module = "localmrf" if path.stem == "__init__" else f"localmrf.{path.stem}"
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and any(
                "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
            ):
                kept += [(module, alias.asname or alias.name) for alias in node.names]
    assert kept
    for binding in kept:
        assert binding in wrapped, f"{binding} is imported for the tracer, which does not wrap it"


def test_distance_matrix_is_a_cached_property():
    assert isinstance(Graph.__dict__["distance_matrix"], cached_property)
