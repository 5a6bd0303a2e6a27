"""Randomized graph decompositions with removal-probability certificates.

Three schemes, each flagging a removed set B in a node or edge mask
(``_carve`` then sweeps once for the components of what survives and lists
B in ascending id order):

* random ball carving driven by a truncated geometric radius, suited to
  graphs whose metric balls grow polynomially (low doubling dimension);
* iterated BFS-layer cutting, suited to minor-excluded graphs (r rounds,
  layers taken modulo a stride Lambda; each round is one BFS sweep of the
  graph, ``core.sweep``, with the nodes or edges cut so far as masks);
* the deterministic axis-aligned slab cut of an n x n lattice.

Every scheme is reproducible: all randomness comes from numpy PCG64
generators keyed by the caller's 64-bit seed.  Layer cutting draws one
stream per (seed, round, component-index) triple so components of a round
could be processed concurrently without changing the output.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .core import Edge, Graph, bfs_depths, grid_graph, sweep
from .core import connected_components  # noqa: F401  the perfbench tracer wraps this name


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(key)))


@dataclass(frozen=True)
class Decomposition:
    """Removed nodes or edges plus the components of what survives.

    A scheme fills the removed set it cuts and leaves the other empty; the
    components are the connected components of the graph without both.
    The removed sets are built in ascending id order, which fixes their
    iteration order and so the repr.
    """

    alg: str
    n: int
    components: tuple[tuple[int, ...], ...]
    eps_target: float
    seed: int | None
    removed_nodes: frozenset[int] = frozenset()
    removed_edges: frozenset[Edge] = frozenset()

    @property
    def max_component(self) -> int:
        return max((len(c) for c in self.components), default=0)


def _carve(
    graph: Graph, alg: str, eps_target: float, seed: int | None, dead=None, cut=None
) -> Decomposition:
    """The record of removing from ``graph`` the nodes flagged in ``dead``
    and the edges flagged in ``cut`` (masks as in ``core.sweep``).

    Every scheme builds its record here, with one sweep, so the components
    are always the connected components of what is left.
    """
    nodes = frozenset(compress(range(graph.n), dead or ()))
    edges = frozenset(compress(graph.edge_list, cut or ()))
    comps = sweep(graph, dead, cut)[0]
    return Decomposition(alg, graph.n, comps, eps_target, seed, nodes, edges)


def component_labels(dec: Decomposition) -> list[int]:
    """Each node's index in ``dec.components``; raises ``ValueError``
    unless the components partition ``0..dec.n-1``."""
    comp_of = [-1] * dec.n
    for i, comp in enumerate(dec.components):
        for v in comp:
            if not 0 <= v < dec.n or comp_of[v] != -1:
                raise ValueError(f"components do not partition the nodes (node {v})")
            comp_of[v] = i
    if -1 in comp_of:
        raise ValueError(f"components do not cover node {comp_of.index(-1)}")
    return comp_of


def empty_edge_decomposition(graph: Graph) -> Decomposition:
    """No removal: one component per connected component of the graph."""
    return _carve(graph, "none", 0.0, None)


# ---------------------------------------------------------------------------
# Ball carving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusLaw:
    """Truncated geometric radius: P(i) = eps(1-eps)^(i-1), tail mass at K.

    The last point mass is the exact complement, so the pmf sums to 1.
    """

    eps: float
    K: int

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0,1)")
        if self.K < 1:
            raise ValueError("K must be >= 1")

    def pmf(self) -> np.ndarray:
        i = np.arange(1, self.K + 1)
        p = self.eps * (1.0 - self.eps) ** (i - 1.0)
        p[-1] = (1.0 - self.eps) ** (self.K - 1.0)
        return p

    def sample(self, rng: np.random.Generator) -> int:
        """Inverse-CDF draw from one uniform; truncates at K."""
        u = rng.random()
        i = int(math.log1p(-u) / math.log1p(-self.eps)) + 1
        return min(max(i, 1), self.K)


def k_param(eps: float, rho: float) -> int:
    """Truncation level matched to a doubling dimension: the ceiling of
    (12 rho / eps) * ln(24 rho / eps), never below 3."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    if rho < 1.0:
        raise ValueError("rho must be >= 1")
    value = (12.0 * rho / eps) * math.log(24.0 * rho / eps)
    return max(3, math.ceil(value))


def db_dim_vertex(graph: Graph, eps: float, K: int, seed: int) -> Decomposition:
    """Random ball carving on the shortest-path metric.

    Repeatedly picks a uniform random still-white node u, draws a radius Q
    from the truncated geometric law, removes (colors blue) the white nodes
    at distance exactly Q from u and settles (colors red) the white nodes
    closer than Q.  Distances always refer to the original graph metric.

    Draw order per iteration, on one PCG64 stream keyed by ``seed``: first
    the index of u in the ascending list of white nodes via
    ``rng.integers(len(white))``, then the radius via one uniform.
    Every surviving component sits inside a ball of radius K around one of
    the chosen centers.

    Each ball is a BFS from u over the whole graph that stops at depth Q,
    so a run costs the sum of its ball sizes, not an all-pairs distance
    matrix.
    """
    return _carve(graph, "dbdim-v", 2.0 * eps, seed, dead=_ball_cut(graph, eps, K, seed))


def _ball_cut(graph: Graph, eps: float, K: int, seed: int) -> bytearray:
    """The blue-node mask of one ball-carving run (see ``db_dim_vertex``)."""
    law = RadiusLaw(eps, K)
    rng = _rng(seed)
    white = list(range(graph.n))  # ascending
    blue = bytearray(graph.n)
    while white:
        u = white[int(rng.integers(len(white)))]
        radius = law.sample(rng)
        for w, d in bfs_depths(graph, u, max_depth=radius).items():
            # only a node that is still white can turn blue
            i = bisect_left(white, w)
            if i < len(white) and white[i] == w:
                del white[i]
                if d == radius:
                    blue[w] = 1
    return blue


def line_graph(graph: Graph) -> Graph:
    """Graph on the edges; adjacency iff two edges share an endpoint.

    Line-graph node i corresponds to ``graph.edge_list[i]``.
    """
    meta = set()
    for ids in graph.edge_ids:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                meta.add((ids[a], ids[b]))
    return Graph(len(graph.edge_list), meta)


def db_dim_edge(graph: Graph, eps: float, K: int, seed: int) -> Decomposition:
    """Ball carving on the line graph, mapped back to an edge removal: line
    graph node i is edge i, so its blue mask is the edge mask."""
    return _carve(graph, "dbdim", 2.0 * eps, seed, cut=_ball_cut(line_graph(graph), eps, K, seed))


# ---------------------------------------------------------------------------
# BFS-layer cutting
# ---------------------------------------------------------------------------


def _layer_levels(graph, r, lam, seed, choose_level, dead=None, cut=None):
    """Check the layer-cutting arguments, then yield ``(depth, comp_of,
    order, levels)`` per round: one ``core.sweep`` of the graph without the
    nodes flagged in ``dead`` and the edges flagged in ``cut`` (the BFS
    depths inside each component from its lowest-id node, each node's
    component index and the visit order), and the drawn (or chosen) level
    of each component, in component order.

    The caller flags each round's cut in the masks before taking the next
    item.
    """
    if r < 1 or lam < 1:
        raise ValueError("need r >= 1 and lam >= 1")
    if choose_level is None:
        if seed is None:
            raise ValueError("give a seed or an explicit choose_level")

        def choose_level(i, j):
            return int(_rng(seed, i, j).integers(lam))

    for i in range(r):
        comps, depth, comp_of, order = sweep(graph, dead, cut)
        levels = []
        for j in range(len(comps)):
            level = choose_level(i, j)
            if not 0 <= level < lam:
                raise ValueError(f"level {level} outside 0..{lam - 1}")
            levels.append(level)
        yield depth, comp_of, order, levels


def minor_vertex(
    graph: Graph,
    r: int,
    lam: int,
    seed: int | None = None,
    choose_level=None,
) -> Decomposition:
    """r rounds of BFS-layer node removal with stride ``lam``.

    Per round and per surviving component: BFS from the lowest-id node,
    draw L uniform in {0..lam-1} (stream keyed by (seed, round, component
    index)), and remove every node whose BFS depth is congruent to L mod
    lam.  ``choose_level(round, comp_index)`` overrides the random draw,
    which is how traces are replayed in tests.
    """
    dead = bytearray(graph.n)
    for depth, comp_of, order, levels in _layer_levels(
        graph, r, lam, seed, choose_level, dead=dead
    ):
        for v in order:
            if depth[v] % lam == levels[comp_of[v]]:
                dead[v] = 1
    return _carve(graph, "minorv", r / lam, seed, dead=dead)


def minor_edge(
    graph: Graph,
    r: int,
    lam: int,
    seed: int | None = None,
    choose_level=None,
) -> Decomposition:
    """r rounds of BFS-layer edge removal with stride ``lam``.

    The edges cut in a round are those whose lower-BFS-depth endpoint has
    depth congruent to L mod lam; that rule also severs non-tree edges
    between equal-depth nodes' layers correctly.
    """
    adj, ids = graph.adjacency, graph.edge_ids
    cut = bytearray(len(graph.edge_list))
    for depth, comp_of, order, levels in _layer_levels(
        graph, r, lam, seed, choose_level, cut=cut
    ):
        # an edge is cut from its lower-depth endpoint u, in a cut layer
        for u in order:
            d = depth[u]
            if d % lam == levels[comp_of[u]]:
                for w, e in zip(adj[u], ids[u]):
                    if depth[w] >= d:
                        cut[e] = 1
    return _carve(graph, "minore", r / lam, seed, cut=cut)


# ---------------------------------------------------------------------------
# Grid slab cut
# ---------------------------------------------------------------------------


def grid_decomp(n: int, k: int, l1: int, l2: int) -> Decomposition:
    """Deterministic slab cut of the n x n lattice into <= k*k blocks.

    Removes every horizontal edge whose smaller-column endpoint is in a
    column congruent to l1 mod k, and every vertical edge whose smaller-row
    endpoint is in a row congruent to l2 mod k.  Averaged over the k^2
    offsets, each edge is removed in exactly a 1/k fraction of the choices.
    """
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    if not (0 <= l1 < k and 0 <= l2 < k):
        raise ValueError("offsets must lie in 0..k-1")
    graph = grid_graph(n)
    # horizontal (u, u + 1) by u's column, vertical (u, u + n) by u's row
    cut = bytes(
        (u % n) % k == l1 if v == u + 1 else (u // n) % k == l2
        for u, v in graph.edge_list
    )
    return _carve(graph, "grid", 1.0 / k, None, cut=cut)


def criscross_decomposition(cc_graph: Graph, grid_dec: Decomposition) -> Decomposition:
    """Lift a grid-subgraph edge decomposition to the cris-cross graph.

    Keeps the grid removals and additionally removes every edge whose
    endpoints land in different grid components, so the cris-cross
    components coincide with the grid ones.  Such a grid edge is already
    among the removals, so only diagonals are added.  Each diagonal's
    removal probability is at most twice the grid edges', hence the
    doubled target.
    A record that removes nodes, that decomposes another graph (another
    node count, or a removed edge the graph does not have), or whose
    components do not partition the nodes has no such lift and raises
    ``ValueError``.
    """
    if grid_dec.removed_nodes:
        raise ValueError("cannot lift a node-removing decomposition to cris-cross")
    if grid_dec.n != cc_graph.n:
        raise ValueError(f"decomposition has {grid_dec.n} nodes, the graph {cc_graph.n}")
    if not grid_dec.removed_edges <= cc_graph.edges:
        stray = sorted(grid_dec.removed_edges - cc_graph.edges)
        raise ValueError(f"removed edges not in the graph: {stray}")
    comp_of, removed = component_labels(grid_dec), grid_dec.removed_edges
    cut = bytes(
        comp_of[u] != comp_of[v] or (u, v) in removed for u, v in cc_graph.edge_list
    )
    eps_target = min(1.0, 2.0 * grid_dec.eps_target)
    return _carve(cc_graph, grid_dec.alg + "+diag", eps_target, grid_dec.seed, cut=cut)


def db_dim_target_eps(eps: float, rho: float, offset: int = 3) -> float:
    """Carving parameter that turns a requested relative error ``eps`` into
    the ball-carving eps: ``eps * 2**(-rho - offset)``.  The offset is
    exposed because 3 is the conservative choice and 2 already suffices."""
    return eps * 2.0 ** (-rho - offset)
