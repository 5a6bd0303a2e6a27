"""Spans around the public functions of each ``localmrf`` layer.

The traced run wraps, from the benchmark's side, the bindings that the
consumer modules actually call (``inference.component_solve`` rather than
``exact.component_solve``, ``bench.minor_edge`` for the harness, ...), plus
two ``PairwiseMrf`` methods and the cached ``Graph.distance_matrix``.  Spans
(name, start, end, parent) stay in memory until the run ends.  A layer
metric ``<layer>.<function>.s`` is the span's self time: its duration minus
the time covered by its direct child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property, wraps

from localmrf import bench, core, decompose, exact, inference, saw

def _count_decomposition(counts, args, dec):
    graph = args[0]
    counts["decompose.components"] += len(dec.components)
    counts["decompose.max_component"] = max(
        counts["decompose.max_component"], dec.max_component
    )
    counts["decompose.removed_frac"] += len(dec.removed_edges) / max(1, len(graph.edges))
    counts["decompose.eps_target"] += dec.eps_target


def _count_states(counts, args, result):
    mrf = args[0]
    counts["exact.states_enumerated"] += mrf.q**mrf.n


def _count_sequences(counts, args, result):
    counts["saw.sequences"] += sum(result.sequences_per_origin.values())


def _count_tree(counts, args, tree):
    counts["saw.tree_nodes"] += tree.node_count


def _count_trial(counts, args, result):
    counts["bench.trials"] += 1


# (owner, attribute, span name, counter); several bindings may share a name
PATCHES = (
    (core, "parse_mrf_text", "core.parse_mrf_text", None),
    (core.PairwiseMrf, "induced", "core.induced", None),
    (core.PairwiseMrf, "without_edges", "core.without_edges", None),
    (decompose, "bfs_depths", "core.bfs_depths", None),
    (decompose, "connected_components", "core.connected_components", None),
    (saw, "connected_components", "core.connected_components", None),
    (decompose, "minor_edge", "decompose.minor_edge", _count_decomposition),
    (bench, "minor_edge", "decompose.minor_edge", _count_decomposition),
    (decompose, "db_dim_edge", "decompose.db_dim_edge", _count_decomposition),
    (decompose, "line_graph", "decompose.line_graph", None),
    (inference, "component_solve", "exact.component_solve", None),
    (exact, "brute_log_z", "exact.brute_log_z", _count_states),
    (exact, "brute_map", "exact.brute_map", _count_states),
    (bench, "grid_transfer_log_z", "exact.grid_transfer_log_z", None),
    (bench, "grid_transfer_map", "exact.grid_transfer_map", None),
    (inference, "log_partition_bounds", "inference.log_partition_bounds", None),
    (bench, "log_partition_bounds", "inference.log_partition_bounds", None),
    (inference, "mode_estimate", "inference.mode_estimate", None),
    (bench, "mode_estimate", "inference.mode_estimate", None),
    (saw, "msg_pass_mode", "saw.msg_pass_mode", _count_sequences),
    (saw, "saw_component_map", "saw.saw_component_map", None),
    (saw, "build_saw_tree", "saw.build_saw_tree", _count_tree),
    (saw, "saw_max_ratio", "saw.saw_max_ratio", None),
    (bench, "run_trial", "bench.run_trial", _count_trial),
    (bench, "sample_potentials", "bench.sample_potentials", None),
)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        # span id -> (name, start, end, parent span id or -1, op index)
        self.spans: list[tuple | None] = []
        self.op_counts: list[Counter] = []
        self._stack: list[int] = []

    @contextmanager
    def _span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, len(self.op_counts) - 1)

    def _wrap(self, name, fn, counter=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.op_counts[-1], args, result)
            return result

        return traced

    @contextmanager
    def op(self):
        """Install every wrapper around one op, under a root span."""
        self.op_counts.append(Counter())
        saved = []
        try:
            for owner, attr, name, counter in PATCHES:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr], counter))
            original = core.Graph.__dict__["distance_matrix"]
            saved.append((core.Graph, "distance_matrix", original))
            # a fresh cached_property under the same attribute name keeps
            # the per-instance caching of the original
            dm = cached_property(self._wrap("core.distance_matrix", original.func))
            dm.__set_name__(core.Graph, "distance_matrix")
            core.Graph.distance_matrix = dm
            with self._span("op"):
                yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def per_op(self) -> list[dict[str, float]]:
        """For each traced op: self seconds and calls per span name, plus counts."""
        out = [defaultdict(float, counts) for counts in self.op_counts]
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][name + ".s"] += (end - start) - child_time[sid]
            out[op][name + ".calls"] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
