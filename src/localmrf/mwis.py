"""MAP over a discrete factor model as maximum-weight independent set.

The conflict-graph construction: one node per (factor, joint assignment of
its domain), an edge between every pair of nodes whose partial assignments
disagree on a shared variable, and node weight c + theta so all weights are
at least 1.  A consistent global assignment picks one node per factor and
forms an independent set; a maximum-weight independent set conversely picks
exactly one node per factor and decodes to a MAP assignment.

A second bridge turns any weighted independent-set instance into a binary
pairwise model whose MAP assignments are exactly the maximum-weight
independent sets (a finite edge penalty larger than the total weight keeps
all tables non-negative; the encoding is exact for MAP only, the penalized
partition function is not the hard-core one).

Includes a small exact branch-and-bound solver used as the test oracle;
it is exponential and intended for small instances only.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .core import CapExceeded, FormatError, Graph, PairwiseMrf, _numbers, _rows


@dataclass(frozen=True)
class FactorModel:
    """Variables with finite domains and factors with exponent tables.

    ``factors[i] = (vars, table)`` where ``table`` is an ndarray whose axes
    follow ``vars`` in order.  The model's score of a global assignment is
    the sum of the factor table entries it selects.
    """

    domain_sizes: tuple[int, ...]
    factors: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    def __post_init__(self):
        covered = set()
        for vars_, table in self.factors:
            if len(set(vars_)) != len(vars_):
                raise ValueError(f"factor lists a variable twice: {vars_}")
            if not all(0 <= v < len(self.domain_sizes) for v in vars_):
                raise ValueError(f"factor variable out of range: {vars_}")
            expect = tuple(self.domain_sizes[v] for v in vars_)
            if table.shape != expect:
                raise ValueError(f"table shape {table.shape} != domains {expect}")
            if not np.isfinite(table).all():
                raise ValueError("factor tables must be finite")
            covered.update(vars_)
        missing = set(range(len(self.domain_sizes))) - covered
        if missing:
            raise ValueError(f"variables not covered by any factor: {sorted(missing)}")

    def score(self, y) -> float:
        total = 0.0
        for vars_, table in self.factors:
            total += float(table[tuple(y[v] for v in vars_)])
        return total

    def assignments(self):
        return itertools.product(*(range(d) for d in self.domain_sizes))


@dataclass(frozen=True)
class MwisInstance:
    """Conflict graph with positive node weights and (factor, assignment) labels."""

    graph: Graph
    weights: tuple[float, ...]
    labels: tuple[tuple[int, tuple[int, ...]], ...]
    factor_vars: tuple[tuple[int, ...], ...]
    n_vars: int
    shift_c: float


def factor_to_mwis(model: FactorModel, cap: int = 50_000) -> MwisInstance:
    """Conflict-graph encoding of the factor model's MAP problem."""
    labels: list[tuple[int, tuple[int, ...]]] = []
    weights_raw: list[float] = []
    # per variable, the labels that give it each value
    holders: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for fi, (vars_, table) in enumerate(model.factors):
        domains = [range(model.domain_sizes[v]) for v in vars_]
        for joint in itertools.product(*domains):
            for v, val in zip(vars_, joint):
                holders[v][val].append(len(labels))
            labels.append((fi, joint))
            weights_raw.append(float(table[joint]))
            if len(labels) > cap:
                raise CapExceeded(f"conflict graph exceeds {cap} nodes")
    c = 1.0 + max(0.0, -min(weights_raw, default=0.0))
    # two labels conflict when they give a shared variable different values
    edges = []
    for by_value in holders.values():
        for xs, ys in itertools.combinations(by_value.values(), 2):
            edges += itertools.product(xs, ys)
    weights = tuple(c + w for w in weights_raw)
    return MwisInstance(
        graph=Graph(len(labels), edges),
        weights=weights,
        labels=tuple(labels),
        factor_vars=tuple(vars_ for vars_, _ in model.factors),
        n_vars=len(model.domain_sizes),
        shift_c=c,
    )


def mwis_to_assignment(inst: MwisInstance, chosen) -> tuple[int, ...]:
    """Decode an independent set with one node per factor into an assignment.

    Raises ``ValueError`` when the selection misses a factor, doubles one
    up, or disagrees on a shared variable; maximum-weight selections never
    do any of these.
    """
    per_factor: dict[int, tuple[int, ...]] = {}
    for node in chosen:
        fi, joint = inst.labels[node]
        if fi in per_factor:
            raise ValueError(f"two selected nodes for factor {fi}")
        per_factor[fi] = joint
    missing = set(range(len(inst.factor_vars))) - per_factor.keys()
    if missing:
        raise ValueError(f"no selected node for factors {sorted(missing)}")
    var_values: dict[int, int] = {}
    for fi, joint in per_factor.items():
        for var, val in zip(inst.factor_vars[fi], joint):
            if var_values.setdefault(var, val) != val:
                raise ValueError(f"selected nodes disagree on variable {var}")
    if len(var_values) != inst.n_vars:
        raise ValueError("selection leaves variables unassigned")
    return tuple(var_values[v] for v in range(inst.n_vars))


def mwis_as_binary_mrf(inst: MwisInstance) -> PairwiseMrf:
    """Binary pairwise model whose MAP assignments are exactly the MWIS.

    State 1 means "in the set".  Node tables are (0, weight); every edge
    table pays a penalty M = 1 + total weight except on (1, 1), where it
    pays nothing, so any assignment violating independence loses more than
    the whole weight budget could recover.
    """
    m = 1.0 + float(sum(inst.weights))
    phi = [(0.0, w) for w in inst.weights]
    psi = {e: [[m, m], [m, 0.0]] for e in inst.graph.edge_list}
    return PairwiseMrf(inst.graph, 2, phi, psi)


def max_weight_independent_set(
    graph: Graph, weights, cap: int = 200
) -> tuple[frozenset[int], float]:
    """Exact MWIS by branch and bound over bitsets (small instances only).

    Deterministic: nodes are branched in descending weight order and the
    first optimum found is kept.
    """
    n = graph.n
    if n > cap:
        raise CapExceeded(f"exact MWIS refused for n={n} > cap={cap}")
    w = [float(x) for x in weights]
    if len(w) != n:
        raise ValueError("need one weight per node")
    closed = [1 << v for v in range(n)]  # each node and its neighbours
    for u, v in graph.ends.tolist():
        closed[u] |= 1 << v
        closed[v] |= 1 << u

    order = sorted(range(n), key=lambda v: (-w[v], v))
    best_w = -float("inf")
    best_set: tuple[int, ...] = ()

    def dfs(avail: int, cur_w: float, chosen: list[int]):
        nonlocal best_w, best_set
        ub = cur_w + sum(w[v] for v in order if avail >> v & 1 and w[v] > 0)
        if ub <= best_w:
            return
        v = next((u for u in order if avail >> u & 1), None)
        if v is None:
            if cur_w > best_w:
                best_w, best_set = cur_w, tuple(sorted(chosen))
            return
        chosen.append(v)
        dfs(avail & ~closed[v], cur_w + w[v], chosen)
        chosen.pop()
        dfs(avail & ~(1 << v), cur_w, chosen)

    dfs((1 << n) - 1 if n else 0, 0.0, [])
    return frozenset(best_set), best_w


def nodes_for_assignment(inst: MwisInstance, y) -> frozenset[int]:
    """Conflict-graph nodes selected by a consistent global assignment."""
    index = {label: i for i, label in enumerate(inst.labels)}
    picked = []
    for fi, vars_ in enumerate(inst.factor_vars):
        joint = tuple(y[v] for v in vars_)
        picked.append(index[(fi, joint)])
    return frozenset(picked)


# ---------------------------------------------------------------------------
# Factor-model text format
# ---------------------------------------------------------------------------
#
#   factors <nvars> <dom_1> ... <dom_nvars>
#   factor <arity> <var ids...> <table row-major>      one line per factor


def write_factor_model(model: FactorModel) -> str:
    head = "factors {} {}".format(
        len(model.domain_sizes), " ".join(map(str, model.domain_sizes))
    )
    lines = [head]
    for vars_, table in model.factors:
        vals = " ".join(format(x, ".17g") for x in np.asarray(table).ravel())
        lines.append(f"factor {len(vars_)} {' '.join(map(str, vars_))} {vals}")
    return "\n".join(lines) + "\n"


def parse_factor_model(text: str) -> FactorModel:
    """Parse the factor format; a malformed line raises ``FormatError`` naming it.

    Bad or non-finite numbers, short header or factor lines, domain sizes
    below 1, out-of-range or repeated factor variables and tables of the
    wrong size are all rejected, as is a variable that no factor covers.
    """
    rows = _rows(text)
    no, header = next(rows, (0, [None]))
    if header[0] != "factors" or len(header) < 2:
        raise FormatError("expected header: factors <nvars> <domains...>")
    nvars, *domains = _numbers(no, header[1:], int)
    if len(domains) != nvars:
        raise FormatError(f"line {no}: header needs {nvars} domain sizes, got {len(domains)}")
    if any(d < 1 for d in domains):
        raise FormatError(f"line {no}: domain sizes must be >= 1")
    factors = []
    for no, row in rows:
        if row[0] != "factor":
            raise FormatError(f"line {no}: unknown line kind: {row[0]}")
        if len(row) < 2:
            raise FormatError(f"line {no}: factor line needs an arity")
        (arity,) = _numbers(no, row[1:2], int)
        if not 0 <= arity <= len(row) - 2:
            raise FormatError(f"line {no}: arity {arity} is negative or exceeds the ids given")
        vars_ = tuple(_numbers(no, row[2 : 2 + arity], int))
        if any(not 0 <= v < nvars for v in vars_):
            raise FormatError(f"line {no}: factor variable out of range: {vars_}")
        if len(set(vars_)) != arity:
            raise FormatError(f"line {no}: repeated factor variable: {vars_}")
        shape = tuple(domains[v] for v in vars_)
        vals = _numbers(no, row[2 + arity :])
        if len(vals) != math.prod(shape):
            raise FormatError(
                f"line {no}: factor table needs {math.prod(shape)} values, got {len(vals)}"
            )
        factors.append((vars_, np.array(vals).reshape(shape)))
    try:
        return FactorModel(tuple(domains), tuple(factors))
    except ValueError as exc:  # a variable no factor covers
        raise FormatError(str(exc)) from None
