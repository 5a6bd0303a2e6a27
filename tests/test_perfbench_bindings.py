"""The benchmark still finds every name it wraps and every output it checks.

``perfbench/tracing.py`` looks each binding up with ``owner.__dict__[attr]``
and replaces ``Graph.distance_matrix`` with a fresh ``cached_property``, so
renaming or deleting one of those names fails every traced op.  Some names
(``decompose.connected_components`` among them) are bound only for it.
``perfbench/workloads.py`` checks each op's output through the public API
(``graph.edges``, ``edge_range_sum``, record fields), so a change there
fails every op of the benchmark; its toy-sized workloads run here.
"""

import ast
import importlib.util
import sys
from functools import cached_property
from pathlib import Path

import pytest

from localmrf.core import Graph

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve a class's module through sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def load_tracing():
    return load(TRACING, "perfbench_tracing")


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


TINY = load(WORKLOADS, "perfbench_workloads").TINY


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name):
    workload = TINY[name]
    inputs = workload.make_inputs(1)
    for item in workload.items(inputs):
        workload.check(inputs, item, workload.op(workload.prepare(inputs, item)))
