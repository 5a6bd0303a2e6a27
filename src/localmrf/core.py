"""Graphs and pairwise Markov random fields.

The data model shared by every other module: simple undirected graphs with
ascending-id adjacency (the one neighbor ordering used everywhere, including
self-avoiding-walk construction), potential tables in exponent form, the
shortest-path metric with ball queries, and an exact (exponential-time,
tiny-instance) doubling-dimension computation.

A graph is arrays: its sorted edge ends and their compressed sparse rows.
``sweep`` masks the rows with numpy before its walk, the other walks read
them as cached lists, ``Graph.edge_rows`` is the one edge lookup, the
tuple views (``adjacency``, ``edge_list``, ``edges``) are built on first
use, and the lattice functions, the parser and induced sub-models build
graphs from checked arrays without a second check.

A model over states ``{0..q-1}`` assigns probability proportional to
``exp(sum_v phi_v(x_v) + sum_{(u,v)} psi_uv(x_u, x_v))``; all potential
tables here are those exponents.  Node potentials may contain ``-inf`` to
force a state off (used for conditioning); everything else must be finite.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property, lru_cache
from numbers import Integral
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

Edge = tuple[int, int]


class CapExceeded(RuntimeError):
    """An operation refused to run because it would be exponentially large."""


class FormatError(ValueError):
    """Malformed text input for one of the file formats."""


def _canon_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _node_id(v):
    """``v`` itself if it is an integer (numpy's included), else a
    ``ValueError`` naming it."""
    if not isinstance(v, Integral):
        raise ValueError(f"node {v!r} is not an integer id")
    return v


def _node_of(graph: "Graph", v):
    """``v`` if it is a node of ``graph``, else a ``ValueError`` naming it."""
    if not 0 <= _node_id(v) < graph.n:
        raise ValueError(f"node {v} out of range")
    return v


@lru_cache(maxsize=2)
def _int_objects(count: int) -> np.ndarray:
    """The ints ``0..count-1`` as a read-only object array, kept for the
    last two counts asked; production asks only for a graph's node count."""
    ints = np.arange(count).astype(object)
    ints.setflags(write=False)
    return ints


def _shared(ids: np.ndarray, count: int) -> list:
    """``ids.tolist()`` (values below ``count``), with one int object per
    value rather than one per entry.  A node's id is listed once per
    neighbour, and the views of a large graph are mostly these ints; graphs
    of one size share them, and so do the components of the records carved
    on them, which outlive their graph."""
    return _int_objects(count)[ids].tolist()


class Graph:
    """Simple undirected graph on nodes ``0..n-1``.

    Immutable after construction, and kept as arrays.  ``ends`` is the
    read-only ``(m, 2)`` array of the edges' endpoints, ``u < v``, sorted
    ascending: the canonical edge indexing.  ``indptr``, ``nbr`` and
    ``nbr_edge`` are its compressed sparse rows: node ``v``'s neighbours,
    ascending, are ``nbr[indptr[v]:indptr[v + 1]]`` and ``nbr_edge`` holds
    the index of the edge to each.  This neighbour ordering is canonical
    and relied upon by the decomposition and self-avoiding-walk code.

    ``edge_rows`` finds edges by their ends, and the tuple views
    ``adjacency``, ``edge_list`` and ``edges`` are built on first use and
    cached; equality, hashing, ``repr`` and degrees read the arrays only.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not isinstance(n, Integral) or n < 0:
            raise ValueError("node count must be an integer >= 0")
        pairs: list[int] = []
        for u, v in edges:
            u, v = _node_id(u), _node_id(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            pairs += _canon_edge(u, v)
        ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        ends = ends[np.lexsort(ends.T[::-1])]
        # a pair given twice, in either orientation, is one edge
        fresh = np.ones(len(ends), dtype=bool)
        fresh[1:] = (ends[1:] != ends[:-1]).any(axis=1)
        self._build(n, ends[fresh])

    @classmethod
    def _from_ends(cls, n: int, ends: np.ndarray) -> "Graph":
        """The graph of ``ends``, already sorted, distinct, ``u < v < n``
        rows of ``intp``, unchecked: for callers that checked them as arrays."""
        graph = cls.__new__(cls)
        graph._build(n, ends)
        return graph

    def _build(self, n: int, ends: np.ndarray) -> None:
        self.n = n
        self.ends = ends
        m = len(ends)
        # every edge once from each end, from the upper end first: a stable
        # sort by node then lists each node's lower neighbours, ascending
        # in edge order, before its higher ones
        at = ends[:, ::-1].T.ravel()
        order = np.argsort(at, kind="stable")
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(at, minlength=n), out=self.indptr[1:])
        self.nbr = ends.T.ravel()[order]
        self.nbr_edge = order % max(m, 1)
        for a in (ends, self.indptr, self.nbr, self.nbr_edge):
            a.setflags(write=False)

    @cached_property
    def _csr_lists(self) -> tuple[list, list, list]:
        """``indptr``, ``nbr`` (ints from ``_shared``) and ``nbr_edge`` as lists."""
        return self.indptr.tolist(), _shared(self.nbr, self.n), self.nbr_edge.tolist()

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per node, its neighbours in ascending order."""
        ptr, nbr, _ = self._csr_lists
        return tuple(map(tuple(nbr).__getitem__, map(slice, ptr, ptr[1:])))

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """The rows of ``ends`` as ``(u, v)`` tuples."""
        return tuple(zip(*_shared(self.ends.T, self.n)))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.edge_list)

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        """The keys ``u * n + v`` of ``ends``, ascending, then ``n**2``: a
        last key above every pair's, so each search lands on a key."""
        keys = np.append(self.ends[:, 0] * self.n + self.ends[:, 1], self.n**2)
        keys.setflags(write=False)
        return keys

    def edge_rows(self, pairs) -> np.ndarray:
        """The row of ``ends`` holding each ``(u, v)`` of the ``(k, 2)``
        array-like ``pairs``, or -1 where none does (``u >= v`` included):
        a ``searchsorted`` over the ascending keys ``u * n + v`` of ``ends``.
        Only ids below n are cast to ``intp``, so a huge id is no row rather
        than an overflow, and a float such as 1.5, cast to 1, is no id."""
        u, v = np.asarray(pairs).reshape(len(pairs), 2).T
        at = np.flatnonzero((0 <= u) & (u < v) & (v < self.n))
        a, b = u[at].astype(np.intp), v[at].astype(np.intp)
        keys = self._edge_keys
        found = keys.searchsorted(a * self.n + b)
        hit = (keys[found] == a * self.n + b) & (a == u[at]) & (b == v[at])
        rows = np.full(len(u), -1, dtype=np.intp)
        rows[at[hit]] = found[hit]
        return rows

    def degree(self, v: int) -> int:
        v = _node_of(self, v)
        return int(self.indptr[v + 1] - self.indptr[v])

    @cached_property
    def max_degree(self) -> int:
        return int(np.diff(self.indptr).max(initial=0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.ends, other.ends)
        )

    def __hash__(self):
        return hash((self.n, self.ends.tobytes()))

    def __reduce__(self):
        return Graph._from_ends, (self.n, self.ends)

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.ends)})"

    def distances(self, v: int) -> np.ndarray:
        """Shortest-path distances from ``v``; ``inf`` across components."""
        d = np.full(self.n, np.inf)
        depth = bfs_depths(self, v)
        d[list(depth)] = list(depth.values())
        return d

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances, one BFS per row (cached)."""
        return np.array([self.distances(s) for s in range(self.n)]).reshape(
            self.n, self.n
        )

    @cached_property
    def diameter(self) -> int:
        """Largest finite pairwise distance (0 for edgeless graphs)."""
        d = self.distance_matrix[np.isfinite(self.distance_matrix)]
        return int(d.max()) if d.size else 0


def shortest_path_ball(graph: Graph, v: int, r: float) -> frozenset[int]:
    """Nodes at distance strictly less than ``r`` from ``v``.

    A BFS from ``v`` that stops below depth ``r``: it visits the ball only.
    """
    _node_of(graph, v)
    if not r > 0:
        return frozenset()
    max_depth = None if math.isinf(r) else math.ceil(r) - 1
    return frozenset(bfs_depths(graph, v, max_depth=max_depth))


def bfs_depths(graph: Graph, root: int, max_depth: int | None = None) -> dict[int, int]:
    """BFS depth of every node reachable from ``root``, exploring neighbors
    ascending; the dict lists the nodes in visit order.

    ``max_depth`` stops the search there: only nodes at depth <= max_depth
    are visited and returned.  A root that is no node of the graph raises
    ``ValueError``.
    """
    root = _node_of(graph, root)
    ptr, nbr, _ = graph._csr_lists
    depth = {root: 0}
    frontier = [root]
    level = 0
    while frontier and level != max_depth:
        level += 1
        nxt = []
        for u in frontier:
            for w in nbr[ptr[u] : ptr[u + 1]]:
                if w not in depth:
                    depth[w] = level
                    nxt.append(w)
        frontier = nxt
    return depth


def sweep(graph: Graph, dead=None, cut=None):
    """Components and BFS depths of ``graph`` without the nodes flagged in
    ``dead`` (a boolean array over ``0..n-1``) and the edges flagged in
    ``cut`` (a boolean array over ``ends``); a mask left None removes
    nothing.

    The CSR rows are masked once, with numpy: a slot stays when its edge is
    not cut and its neighbour is not dead (the walk would skip a dead
    neighbour anyway, but the gather costs less than its visits).  Then a
    BFS, with one queue, starts from each live node not yet visited, in
    ascending order, so it starts from its component's lowest id and the
    components are numbered by their smallest member; it reads the kept
    neighbours only, O(n + m) in all.  Returns ``(comp_of, depth,
    count)``: each node's component index and its depth from its
    component's lowest id as ``intp`` arrays (-1 and -1 for a removed
    node), and the number of components.
    """
    n = graph.n
    keep = np.ones(len(graph.nbr), dtype=bool) if cut is None else ~cut[graph.nbr_edge]
    if dead is None:
        comp_of = [-2] * n  # -2: not yet visited
    else:
        keep &= ~dead[graph.nbr]
        comp_of = np.where(dead, -1, -2).tolist()
    kept = np.flatnonzero(keep)
    ptr, nbr = kept.searchsorted(graph.indptr).tolist(), graph.nbr[kept].tolist()
    depth = [-1] * n
    count = 0
    for s in range(n):
        if comp_of[s] != -2:
            continue
        comp_of[s], depth[s] = count, 0
        queue = [s]
        for u in queue:
            d = depth[u] + 1
            for w in nbr[ptr[u] : ptr[u + 1]]:
                if comp_of[w] == -2:
                    comp_of[w], depth[w] = count, d
                    queue.append(w)
        count += 1
    return np.array(comp_of, dtype=np.intp), np.array(depth, dtype=np.intp), count


def _members(comp_of: np.ndarray, count: int) -> tuple[tuple[int, ...], ...]:
    """The nodes of each component ``0..count-1`` of the ``intp`` labels
    ``comp_of``, as ascending tuples; a node labelled -1 lies in none."""
    order = np.argsort(comp_of, kind="stable")
    cuts = np.searchsorted(comp_of, np.arange(count + 1), sorter=order).tolist()
    return tuple(map(tuple(_shared(order, len(comp_of))).__getitem__, map(slice, cuts, cuts[1:])))


def connected_components(
    graph: Graph,
    removed_nodes: Iterable[int] = (),
    removed_edges: Iterable[Edge] = (),
) -> tuple[tuple[int, ...], ...]:
    """Connected components after optional node/edge removal.

    Components are returned as ascending node tuples, ordered by their
    smallest member, so output is deterministic.  Removed ids outside the
    graph and removed pairs that are not edges (in either orientation) are
    ignored; a removed node that is no integer raises ``ValueError``.
    """
    n = graph.n
    dead = np.zeros(n, dtype=bool)
    dead[[int(v) for v in map(_node_id, removed_nodes) if 0 <= v < n]] = True
    pairs = [_canon_edge(u, v) for u, v in removed_edges]
    rows = graph.edge_rows(pairs) if pairs else np.empty(0, dtype=np.intp)
    cut = np.bincount(rows[rows >= 0], minlength=len(graph.ends)) > 0
    comp_of, _, count = sweep(graph, dead, cut)
    return _members(comp_of, count)


# ---------------------------------------------------------------------------
# Doubling dimension (exact, tiny instances only)
# ---------------------------------------------------------------------------


def _min_cover_size(target: int, candidates: list[int]) -> int:
    """Exact minimum number of candidate bitmasks whose union covers target."""
    sets = sorted({c & target for c in candidates if c & target}, reverse=True)
    # drop sets dominated by a superset
    kept: list[int] = []
    for s in sets:
        if not any(s & k == s for k in kept):
            kept.append(s)
    if not kept:
        raise ValueError("target not coverable")

    # greedy solution gives the initial upper bound
    best = 0
    rem = target
    pool = kept
    while rem:
        s = max(pool, key=lambda x: (x & rem).bit_count())
        if not s & rem:
            raise ValueError("target not coverable")
        rem &= ~s
        best += 1

    max_size = max(s.bit_count() for s in kept)

    def dfs(rem: int, used: int):
        nonlocal best
        if rem == 0:
            best = min(best, used)
            return
        if used + math.ceil(rem.bit_count() / max_size) >= best:
            return
        # branch on the lowest uncovered element
        low = rem & -rem
        options = [s for s in kept if s & low]
        options.sort(key=lambda s: -(s & rem).bit_count())
        for s in options:
            dfs(rem & ~s, used + 1)

    dfs(target, 0)
    return best


def doubling_dimension_exact(graph: Graph, cap: int = 12) -> float:
    """log2 of the worst-case half-radius covering number of any ball.

    For every center ``v`` and every radius ``r`` in half-integer steps up
    to diameter+1, finds the minimum number of radius ``r/2`` balls (with
    centers anywhere) covering the ball of radius ``r`` around ``v``, by
    exhaustive set cover.  Returns the log2 of the largest such number.
    """
    if graph.n > cap:
        raise CapExceeded(
            f"doubling dimension is an exponential operation; n={graph.n} "
            f"exceeds cap={cap}"
        )
    if graph.n == 0:
        return 0.0
    dist = graph.distance_matrix
    worst = 1
    radii = [i / 2 for i in range(1, 2 * (graph.diameter + 1) + 1)]
    for r in radii:
        inner_masks = []
        for u in range(graph.n):
            mask = 0
            for w in np.flatnonzero(dist[u] < r / 2).tolist():
                mask |= 1 << w
            inner_masks.append(mask)
        for v in range(graph.n):
            target = 0
            for w in np.flatnonzero(dist[v] < r).tolist():
                target |= 1 << w
            worst = max(worst, _min_cover_size(target, inner_masks))
    return math.log2(worst)


# ---------------------------------------------------------------------------
# Pairwise MRF
# ---------------------------------------------------------------------------


class PairwiseMrf:
    """Finite-alphabet pairwise MRF in exponent form.

    ``node_potential[v]`` is a length-``q`` table and each edge carries a
    ``q x q`` table stored once, indexed ``(x_u, x_v)`` for the canonical
    ``u < v`` orientation.  Instances are immutable and copy the tables given.
    """

    def __init__(
        self,
        graph: Graph,
        alphabet_size: int,
        node_potentials,
        edge_potentials,
    ):
        if not isinstance(alphabet_size, Integral) or alphabet_size < 2:
            raise ValueError("alphabet size must be an integer >= 2")
        self.graph = graph
        self.q = alphabet_size
        self.phi = np.array(node_potentials, dtype=float)
        if self.phi.shape != (graph.n, alphabet_size):
            raise ValueError(
                f"node potentials must have shape ({graph.n},{alphabet_size})"
            )
        if np.isnan(self.phi).any() or (self.phi == np.inf).any():
            raise ValueError("node potential contains nan or +inf")
        self.phi.setflags(write=False)

        m = len(graph.ends)
        if isinstance(edge_potentials, Mapping):
            psi = np.empty((m, alphabet_size, alphabet_size))
            tables = dict(edge_potentials)
            for i, (u, v) in enumerate(graph.edge_list):
                if (u, v) in tables:
                    psi[i] = np.asarray(tables.pop((u, v)), dtype=float)
                elif (v, u) in tables:
                    psi[i] = np.asarray(tables.pop((v, u)), dtype=float).T
                else:
                    raise ValueError(f"missing edge potential for ({u},{v})")
            if tables:
                raise ValueError(f"potentials for non-edges: {sorted(tables)}")
        else:
            psi = np.array(edge_potentials, dtype=float, order="C")
            if psi.shape != (m, alphabet_size, alphabet_size):
                raise ValueError("edge potential array has wrong shape")
        if not np.isfinite(psi).all():
            raise ValueError("edge potentials must be finite")
        self.psi = psi
        self.psi.setflags(write=False)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_list(self) -> tuple[Edge, ...]:
        return self.graph.edge_list

    def _rows(self, edges: Iterable[Edge]) -> np.ndarray:
        """The ``psi`` row of each edge, given in either orientation; a
        non-edge raises ``ValueError`` naming the first."""
        pairs = [(u, v) for u, v in edges]
        rows = self.graph.edge_rows([_canon_edge(u, v) for u, v in pairs])
        if (rows < 0).any():
            u, v = pairs[np.argmax(rows < 0)]
            raise ValueError(f"({u}, {v}) is not an edge of this model")
        return rows

    def edge_table(self, u: int, v: int) -> np.ndarray:
        """Edge table oriented so it can be indexed ``[x_u, x_v]``; a non-edge
        raises ``ValueError``."""
        t = self.psi[self._rows([(u, v)])[0]]
        return t if u < v else t.T

    @cached_property
    def edge_min(self) -> np.ndarray:
        """Per-edge table minimum, aligned with ``edge_list``."""
        return self.psi.min(axis=(1, 2))

    @cached_property
    def edge_max(self) -> np.ndarray:
        """Per-edge table maximum, aligned with ``edge_list``."""
        return self.psi.max(axis=(1, 2))

    def edge_range_sum(self, edges: Iterable[Edge]) -> float:
        """Sum of (max - min) over the given edges, in either orientation, in
        ascending edge order; an edge listed twice counts twice."""
        rows = np.sort(self._rows(edges))
        return left_sum(self.edge_max[rows] - self.edge_min[rows])

    def without_edges(self, edges: Iterable[Edge]) -> "PairwiseMrf":
        """Copy with the given edges (and their tables) deleted."""
        drop = [_canon_edge(u, v) for u, v in edges]
        rows = self.graph.edge_rows(drop)
        missing = {e for e, row in zip(drop, rows.tolist()) if row < 0}
        if missing:
            raise ValueError(f"not edges of this model: {sorted(missing)}")
        graph = Graph._from_ends(self.n, np.delete(self.graph.ends, rows, axis=0))
        return PairwiseMrf(graph, self.q, self.phi, np.delete(self.psi, rows, axis=0))

    def induced(self, nodes: Sequence[int]) -> tuple["PairwiseMrf", tuple[int, ...]]:
        """Sub-MRF on ``nodes`` (sorted) with induced edges only.

        Returns the sub-model and the tuple mapping its node ids back to
        the original ids.  Walks only the CSR rows of ``nodes``, so it costs
        O(k + sum of their degrees) for k nodes, and the induced sub-models
        of a partition of V cost O(n + m) together.  A node listed twice or
        outside ``0..n-1`` or that is no integer raises ``ValueError``.
        """
        order = tuple(sorted(map(_node_id, nodes)))  # every id checked before a comparison
        if order and not (0 <= order[0] and order[-1] < self.n):
            bad = order[0] if order[0] < 0 else order[-1]
            raise ValueError(f"node {bad} out of range for n={self.n}")
        pos = {g: i for i, g in enumerate(order)}
        if len(pos) < len(order):
            dup = next(a for a, b in zip(order, order[1:]) if a == b)
            raise ValueError(f"node {dup} listed twice")
        ptr, nbr, ids = self.graph._csr_lists
        sub_ends: list[int] = []
        rows = []
        for u in order:
            for v, e in zip(nbr[ptr[u] : ptr[u + 1]], ids[ptr[u] : ptr[u + 1]]):
                if v > u and v in pos:
                    sub_ends += (pos[u], pos[v])
                    rows.append(e)
        # u and then v ascending, so the pairs come out in edge_list order
        ends = np.array(sub_ends, dtype=np.intp).reshape(-1, 2)
        sub = PairwiseMrf(
            Graph._from_ends(len(order), ends),
            self.q,
            self.phi[list(order)],
            self.psi[rows],
        )
        return sub, order

    def __reduce__(self):
        return PairwiseMrf, (self.graph, self.q, self.phi, self.psi)

    def __repr__(self):
        return f"PairwiseMrf(n={self.n}, m={len(self.psi)}, q={self.q})"


def left_sum(terms: np.ndarray) -> float:
    """``0.0 + terms[0] + terms[1] + ...`` in that order: the double a Python
    loop accumulating the terms gives, computed by a sequential cumsum."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def energy(mrf: PairwiseMrf, x: Sequence[int]) -> float:
    """Total exponent ``sum phi_v(x_v) + sum psi_uv(x_u, x_v)`` of ``x``, one
    integer state in ``0..q-1`` per node (any other raises ``ValueError``).

    Nodes are summed in ascending id order and edges in ascending edge
    order, so the result is deterministic.
    """
    if len(x) != mrf.n:
        raise ValueError(f"assignment length {len(x)} != n={mrf.n}")
    a = np.asarray(x)
    if a.dtype.kind not in "biu" or a.ndim != 1:  # 0.5, 1.0 and "1" are no states
        a = np.array([s if isinstance(s, Integral) else -1 for s in x], dtype=object)
    bad = np.flatnonzero(np.logical_not((0 <= a) & (a < mrf.q)))
    if len(bad):
        raise ValueError(f"state {x[bad[0]]} at node {bad[0]} out of range")
    x = a.astype(np.intp, copy=False)
    u, w = mrf.graph.ends.T
    return left_sum(np.concatenate((
        mrf.phi[np.arange(mrf.n), x],
        mrf.psi[np.arange(len(u)), x[u], x[w]],
    )))


def affine_shift(mrf: PairwiseMrf) -> tuple[PairwiseMrf, float]:
    """Shift every table to be non-negative; returns (model, total shift).

    Each node table gets ``max(0, -min)`` added, each edge table likewise.
    The distribution is unchanged; energies grow by exactly the returned
    total, which callers need to de-shift energies.
    """
    if not np.isfinite(mrf.phi).all():
        raise ValueError("affine shift requires finite tables")
    node_shifts = np.maximum(0.0, -mrf.phi.min(axis=1))
    phi = mrf.phi + node_shifts[:, None]
    edge_shifts = np.maximum(0.0, -mrf.psi.min(axis=(1, 2)))
    psi = mrf.psi + edge_shifts[:, None, None]
    total = float(node_shifts.sum() + edge_shifts.sum())
    return PairwiseMrf(mrf.graph, mrf.q, phi, psi), total


# ---------------------------------------------------------------------------
# Grid topologies (shared by decomposition and experiment code)
# ---------------------------------------------------------------------------


def _lattice(rows: int, cols: int | None, diagonals: bool) -> Graph:
    cols = rows if cols is None else cols
    if not all(isinstance(s, Integral) and s >= 0 for s in (rows, cols)):
        raise ValueError(f"grid sides must be non-negative, got {rows} x {cols}")
    r, c = np.indices((rows, cols), dtype=np.intp).reshape(2, -1)
    right, down = c + 1 < cols, r + 1 < rows
    # each node's steps to its higher neighbours and where each is taken,
    # in ascending order of step; two equal steps (1 with one column, or
    # the right and anti-diagonal steps with two) are never both taken
    steps, taken = (1, cols), [right, down]
    if diagonals:
        steps, taken = (1, cols - 1, cols, cols + 1), [right, down & (c > 0), down, down & right]
    keep = np.stack(taken, axis=1)
    v = np.arange(rows * cols, dtype=np.intp)[:, None]
    u = np.broadcast_to(v, keep.shape)[keep]
    w = (v + np.array(steps, dtype=np.intp))[keep]
    # row-major order over (node, step) is edge_list order
    return Graph._from_ends(rows * cols, np.stack((u, w), axis=1))


def grid_graph(rows: int, cols: int | None = None) -> Graph:
    """Axis-aligned lattice; node (r, c) has id ``r * cols + c``."""
    return _lattice(rows, cols, False)


def criscross_graph(rows: int, cols: int | None = None) -> Graph:
    """Grid plus both diagonals of every unit cell."""
    return _lattice(rows, cols, True)


# ---------------------------------------------------------------------------
# MRF text format v1
# ---------------------------------------------------------------------------
#
# Line oriented, '#' starts a comment, floats written with 17 significant
# digits (exact round trip):
#
#   mrf <n> <sigma>
#   node <id> <phi_0> ... <phi_{sigma-1}>          one line per node
#   edge <u> <v> <psi_00> ... <psi_{qq-1}>         u < v, row-major (x_u, x_v)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_mrf_text(mrf: PairwiseMrf) -> str:
    if not np.isfinite(mrf.phi).all():
        raise ValueError("text format requires finite tables")
    q = mrf.q
    node, edge = "node %d" + " %.17g" * q, "edge %d %d" + " %.17g" * (q * q)
    lines = [f"mrf {mrf.n} {q}"]
    lines += [node % (v, *row) for v, row in enumerate(mrf.phi.tolist())]
    tables = mrf.psi.reshape(len(mrf.psi), q * q).tolist()
    lines += [edge % (*e, *t) for e, t in zip(mrf.graph.ends.tolist(), tables)]
    return "\n".join(lines) + "\n"


def _numbers(no: int, tokens: list[str], kind=float) -> list:
    """Tokens of line ``no`` as ints or finite floats, else ``FormatError``;
    digits are ASCII and unseparated (no ``1_0``), as numpy's reader has them."""
    try:
        if not all(t.isascii() and "_" not in t for t in tokens):
            raise ValueError
        values = [kind(t) for t in tokens]
    except ValueError:
        raise FormatError(f"line {no}: not a number in: {' '.join(tokens)}") from None
    if kind is float and not all(map(math.isfinite, values)):
        raise FormatError(f"line {no}: values must be finite: {' '.join(tokens)}")
    return values


def _rows(lines: Iterable[str]):
    """(line number, tokens) of each line that is not blank or a comment."""
    for no, raw in enumerate(lines, 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield no, tokens


_WIDEST = 2**27  # values in a line: numpy's reader needs a row to fit in 2**31 bytes


def _raise_first_bad_line(text: str, n: int, q: int) -> NoReturn:
    """Raise the ``FormatError`` of the first malformed line after the header;
    a node line holds one id and ``q`` values, an edge line two ids and ``q^2``."""
    rows, seen = _rows(text.splitlines()), set()
    next(rows)
    for no, row in rows:
        kind = row[0]
        k = {"node": 1, "edge": 2}.get(kind)
        if k is None:
            raise FormatError(f"line {no}: unknown line kind: {kind}")
        if len(row) != 1 + k + q**k:
            raise FormatError(f"line {no}: {kind} line needs {q**k} values")
        if q**k > _WIDEST:
            raise FormatError(f"line {no}: {kind} line of {q**k} values is too wide to read")
        ids = tuple(_numbers(no, row[1 : 1 + k], int))
        if k == 1 and not 0 <= ids[0] < n:
            raise FormatError(f"line {no}: node id {ids[0]} out of range")
        if k == 2 and not 0 <= ids[0] < ids[1] < n:
            raise FormatError(f"line {no}: edge must be written u < v < n, got {ids[0]} {ids[1]}")
        if (kind, ids) in seen:
            raise FormatError(f"line {no}: duplicate {kind} {' '.join(map(str, ids))}")
        seen.add((kind, ids))
        _numbers(no, row[1 + k :])
    raise AssertionError("a bulk check failed on well-formed lines")


def _read(lines: list[str], k: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids, ``(k, len(lines))``, and the flat values of lines of one kind,
    read by numpy's C text reader, which also counts each line's tokens; a
    bad line raises ``ValueError`` or a ``Warning`` that does not name it."""
    if not lines:  # no dtype: a header sigma may be too large for one
        return np.empty((k, 0), np.int64), np.empty(0)
    if width > _WIDEST:
        raise ValueError(width)
    # the kind token is not checked: the caller grouped the lines by it
    row = np.dtype([("kind", "U4"), ("ids", np.int64, (k,)), ("x", float, (width,))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy 1.x reads an id such as 1.0 as 1, and warns
        rows = np.loadtxt(lines, row, ndmin=1)
    return rows["ids"].T.copy(), rows["x"].ravel()


def parse_mrf_text(text: str) -> PairwiseMrf:
    """Parse format v1; a malformed line raises ``FormatError`` naming it.

    Bad tokens, non-finite values, ids out of range and duplicate node or
    edge lines are all rejected.  The lines are grouped by kind, by their
    first five characters or else their first token, each group is read by
    one ``np.loadtxt`` call, and the ids and values are checked as arrays.
    Only when a read or a check fails are the lines walked, in file order,
    to name the first bad one.
    """
    lines = text.splitlines()
    no, header = next(_rows(lines), (0, [None]))
    if header[0] != "mrf" or len(header) != 3:
        raise FormatError("expected header: mrf <n> <sigma>")
    n, q = _numbers(no, header[1:], int)
    if n < 0 or q < 2:
        raise FormatError(f"line {no}: need n >= 0 and sigma >= 2")
    if n > np.iinfo(np.int64).max:
        raise FormatError(f"line {no}: n {n} does not fit a 64-bit id")
    body = lines[no:]
    nodes, edges = ([s for s in body if s[:5] == kind] for kind in ("node ", "edge "))
    if len(nodes) + len(edges) < len(body):  # comments, blank lines or indentation
        kinds = [s.split("#", 1)[0].split()[:1] for s in body]
        if any(t not in ([], ["node"], ["edge"]) for t in kinds):
            _raise_first_bad_line(text, n, q)
        nodes, edges = ([s for s, t in zip(body, kinds) if t == [k]] for k in ("node", "edge"))
    try:
        (v,), node_values = _read(nodes, 1, q)
        (u, w), edge_values = _read(edges, 2, q * q)
    except (ValueError, Warning):
        _raise_first_bad_line(text, n, q)
    del lines, body, nodes, edges  # else the line strings set the parse's peak memory
    order = np.lexsort((w, u))  # edge_list order
    u, w = u[order], w[order]
    # nothing is sized by the header alone: a huge n or q fails here, on
    # the lines that are there, before any table is allocated
    ids = np.sort(v)
    if not (
        np.isfinite(node_values).all() and np.isfinite(edge_values).all()
        and ((0 <= v) & (v < n)).all()
        and (ids[1:] != ids[:-1]).all()
        and ((0 <= u) & (u < w) & (w < n)).all()
        and ((u[1:] != u[:-1]) | (w[1:] != w[:-1])).all()
    ):
        _raise_first_bad_line(text, n, q)
    if len(v) < n:
        # ids is ascending and duplicate-free, so it starts 0, 1, ... up to
        # the first missing id
        first = np.count_nonzero(ids == np.arange(len(ids)))
        raise FormatError(f"missing node lines for {n - len(v)} of {n} nodes, first node {first}")
    if q * q * edge_values.itemsize > np.iinfo(np.intp).max:
        # not even an empty (0, q, q) edge table has a numpy shape
        raise FormatError(f"line {no}: sigma {q} is too large for an edge table")
    phi = np.empty((n, q))
    phi[v] = node_values.reshape(n, q)
    psi = edge_values.reshape(-1, q, q)[order]
    graph = Graph._from_ends(n, np.stack((u, w), axis=1, dtype=np.intp))
    return PairwiseMrf(graph, q, phi, psi)


def load_mrf(path) -> PairwiseMrf:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mrf_text(fh.read())


def dump_mrf(mrf: PairwiseMrf, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_mrf_text(mrf))
