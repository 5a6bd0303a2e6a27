"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` looks each binding up with ``owner.__dict__[attr]``
and replaces ``Graph.distance_matrix`` with a fresh ``cached_property``, so
renaming or deleting one of those names fails every traced op.  Some names
(``decompose.connected_components`` among them) are bound only for it.
"""

import importlib.util
from functools import cached_property
from pathlib import Path

from localmrf.core import Graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def test_distance_matrix_is_a_cached_property():
    assert isinstance(Graph.__dict__["distance_matrix"], cached_property)
