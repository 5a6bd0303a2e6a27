"""The benchmark workloads: inputs from a seed, one timed op, output checks.

Each workload object answers the same questions for the runner:

* ``make_inputs(seed)`` builds the generated inputs (the only thing the
  program receives); the same seed gives the same inputs;
* ``items(inputs)`` lists the ops of one round (one op, or one harness sweep);
* ``prepare(inputs, item)`` builds fresh program objects for one op, untimed;
* ``op(args)`` is the timed call into ``localmrf``;
* ``check(inputs, item, result)`` raises ``CheckFailed`` on a wrong output;
* ``fingerprint(result)`` is what must match between traced and untraced ops;
* ``gap(result)`` is the certified UB - LB of the op (0 for exact answers).

Every op parses its model from text or rebuilds its ``Graph``, so values that
``Graph`` and ``PairwiseMrf`` cache (``distance_matrix``, ``edge_list``,
``edge_min``/``edge_max``) never carry over from one op to the next.

The ops call ``localmrf`` through module attributes (``core.parse_mrf_text``,
``decompose.minor_edge``, ...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from localmrf import bench, core, decompose, inference, saw

ALPHA = 1.0
# Decompositions use a fixed seed, so the component structure, and with it
# the work of an op, is the same for every --seed; --seed draws the potentials.
DECOMP_SEED = 0
TOL = 1e-9
# walk-tree MAP checks skip nodes whose max-marginal ratio is this close to a tie
RATIO_MARGIN = 1e-9
ROOTS_CHECKED = 3


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's checks."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def check_partition(graph: core.Graph, dec) -> None:
    """Components partition V, removed edges are edges, kept edges are internal.

    Checked from outside the program: ``localmrf`` accepts decompositions
    that leave a crossing edge neither removed nor inside a component.
    """
    comp_of: dict[int, int] = {}
    for i, comp in enumerate(dec.components):
        for v in comp:
            _require(v not in comp_of, f"node {v} lies in two components")
            comp_of[v] = i
    _require(
        comp_of.keys() == set(range(graph.n)), "components do not partition V"
    )
    _require(dec.removed_edges <= graph.edges, "removed set holds non-edges")
    for u, v in sorted(graph.edges - dec.removed_edges):
        _require(
            comp_of[u] == comp_of[v],
            f"kept edge ({u},{v}) crosses two components",
        )


def check_certificate(mrf, dec, bounds, estimate) -> None:
    """The certified bracket and MAP of one decomposition are consistent."""
    _require(bounds.log_z_lb <= bounds.log_z_ub, "LB > UB")
    _require(
        _close(bounds.gap, mrf.edge_range_sum(dec.removed_edges)),
        "gap differs from the removed edges' range sum",
    )
    _require(
        _close(core.energy(mrf, estimate.assignment), estimate.energy),
        "MAP energy differs from the energy of its assignment",
    )
    _require(
        _close(estimate.guarantee_gap, bounds.gap),
        "MAP guarantee gap differs from the bracket gap",
    )
    check_partition(mrf.graph, dec)


@dataclass(frozen=True)
class Certify:
    """parse -> decompose -> log_partition_bounds -> mode_estimate on a lattice."""

    name: str
    side: int
    decomposer: Callable  # Graph -> EdgeDecomposition

    def make_inputs(self, seed: int) -> str:
        graph = core.grid_graph(self.side)
        mrf = bench.sample_potentials(graph, bench.VARYING_INTERACTION, ALPHA, seed)
        return core.write_mrf_text(mrf)

    def nodes(self, inputs) -> int:
        return self.side * self.side

    def items(self, inputs):
        return (None,)

    def prepare(self, inputs, item):
        return inputs

    def op(self, text):
        mrf = core.parse_mrf_text(text)
        dec = self.decomposer(mrf.graph)
        bounds = inference.log_partition_bounds(mrf, dec)
        estimate = inference.mode_estimate(mrf, dec)
        return mrf, dec, bounds, estimate

    def check(self, inputs, item, result) -> None:
        check_certificate(*result)

    def fingerprint(self, result):
        _, dec, bounds, estimate = result
        return (
            bounds.log_z_lb,
            bounds.log_z_ub,
            bounds.gap,
            bounds.component_log_z,
            estimate,
            dec.components,
        )

    def gap(self, result) -> float:
        return result[2].gap


@dataclass(frozen=True)
class Harness:
    """One ``run_trial`` per op over the cells of a fixed experiment sweep.

    The sweep (its spec seed included) is fixed, because which cells get
    large components depends on the spec seed and sets the op-time tail;
    --seed sets the order in which the cells run.
    """

    name: str
    spec: bench.ExperimentSpec

    def make_inputs(self, seed: int):
        spec = self.spec
        cells = [
            (alpha, param, trial)
            for alpha in spec.alphas
            for param in spec.params_grid()
            for trial in range(spec.trials)
        ]
        random.Random(seed).shuffle(cells)
        return cells

    def nodes(self, inputs) -> int:
        return self.spec.build_graph().n

    def items(self, inputs):
        return inputs

    def prepare(self, inputs, cell):
        return self.spec.build_graph(), cell

    def op(self, args):
        graph, (alpha, param, trial) = args
        return bench.run_trial(self.spec, graph, alpha, param, trial)

    def check(self, inputs, cell, rec) -> None:
        alpha, param, trial = cell
        _require(
            rec.exact_logz is not None and rec.h_star is not None,
            "record has no exact oracle values",
        )
        tol = TOL * max(1.0, abs(rec.ub))
        _require(rec.lb <= rec.ub, "LB > UB")
        _require(
            rec.lb - tol <= rec.exact_logz <= rec.ub + tol,
            "exact log Z outside [LB, UB]",
        )
        _require(
            rec.h_hat - tol <= rec.h_star <= rec.h_hat + rec.gap + tol,
            "H* outside [H(x_hat), H(x_hat) + gap]",
        )
        graph = self.spec.build_graph()
        mrf = bench.sample_potentials(graph, self.spec.mode, alpha, rec.model_seed)
        dec = decompose.minor_edge(graph, self.spec.r, param, rec.decomp_seed)
        check_partition(graph, dec)
        _require(
            rec.removed == len(dec.removed_edges)
            and rec.max_component == dec.max_component,
            "record does not match its decomposition",
        )
        _require(
            _close(rec.gap, mrf.edge_range_sum(dec.removed_edges)),
            "gap differs from the removed edges' range sum",
        )

    def fingerprint(self, rec):
        return {k: v for k, v in vars(rec).items() if k != "wall_time"}

    def gap(self, rec) -> float:
        return rec.gap


@dataclass(frozen=True)
class WalkTree:
    """``msg_pass_mode`` + ``saw_component_map`` on a chorded ring."""

    name: str
    ring: int
    chords: int

    def make_inputs(self, seed: int):
        graph = saw.size_lower_bound_family(self.ring, self.chords)
        mrf = bench.sample_potentials(graph, bench.VARYING_INTERACTION, ALPHA, seed)
        roots = sorted(random.Random(seed).sample(range(graph.n), ROOTS_CHECKED))
        return core.write_mrf_text(mrf), roots

    def nodes(self, inputs) -> int:
        return self.ring

    def items(self, inputs):
        return (None,)

    def prepare(self, inputs, item):
        return core.parse_mrf_text(inputs[0])

    def op(self, mrf):
        return mrf, saw.msg_pass_mode(mrf), saw.saw_component_map(mrf)

    def check(self, inputs, item, result) -> None:
        mrf, sched, x = result
        for v in inputs[1]:
            tree = saw.build_saw_tree(mrf, v)
            _require(
                saw.saw_max_ratio(tree) == sched.ratios[v],
                f"schedule ratio of node {v} differs from its walk-tree sweep",
            )
            _require(
                sched.sequences_per_origin[v] == tree.edge_count,
                f"sequences from node {v} differ from its walk-tree edge count",
            )
        _require(len(x) == mrf.n and set(x) <= {0, 1}, "MAP is not a binary assignment")
        # a clear max-marginal ratio fixes the node's state in the unique MAP
        for v, pair in sched.ratios.items():
            r = pair.log_ratio()
            if abs(r) > RATIO_MARGIN:
                _require(x[v] == (r > 0), f"MAP state of node {v} contradicts its ratio")

    def fingerprint(self, result):
        _, sched, x = result
        return sched.ratios, sched.sequences_per_origin, x

    def gap(self, result) -> float:
        return 0.0


def _registry(*workloads):
    return {w.name: w for w in workloads}


WORKLOADS = _registry(
    Certify("lattice-100", 100, lambda g: decompose.minor_edge(g, 3, 5, DECOMP_SEED)),
    Harness(
        "harness-7",
        bench.ExperimentSpec(topology="grid", n=7, lambdas=(3, 4, 5), trials=4, seed=0),
    ),
    Certify("ballcarve-15", 15, lambda g: decompose.db_dim_edge(g, 0.5, 3, DECOMP_SEED)),
    WalkTree("sawtree-ring40", 40, 8),
)

# Same names and code paths at toy sizes, for the benchmark's self-test.
TINY = _registry(
    Certify("lattice-100", 10, lambda g: decompose.minor_edge(g, 3, 5, DECOMP_SEED)),
    Harness(
        "harness-7",
        bench.ExperimentSpec(
            topology="grid", n=5, alphas=(1.0,), lambdas=(3,), trials=4, seed=0
        ),
    ),
    Certify("ballcarve-15", 6, lambda g: decompose.db_dim_edge(g, 0.5, 3, DECOMP_SEED)),
    WalkTree("sawtree-ring40", 12, 3),
)
