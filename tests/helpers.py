"""Shared generators and independent oracles for the test suite.

The oracles here deliberately re-derive quantities through different code
paths (union-find, combination-search set cover, reversed enumeration) so
that agreement with the package is meaningful.
"""

import copy
import itertools
import math
import pickle

import numpy as np

from localmrf import (
    Decomposition,
    Graph,
    PairwiseMrf,
    RadiusLaw,
    build_saw_tree,
    connected_components,
    line_graph,
    saw_max_ratio,
)
from localmrf.core import FormatError, sweep

# the two ways to copy a value whole
COPIES = {"deepcopy": copy.deepcopy, "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}


def random_connected_graph(rng, n: int, extra_edges: int) -> Graph:
    """Random tree plus ``extra_edges`` distinct chords."""
    edges = set()
    for v in range(1, n):
        parent = int(rng.integers(v))
        edges.add((parent, v))
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    take = min(extra_edges, len(pool))
    if take:
        for i in rng.choice(len(pool), size=take, replace=False):
            edges.add(pool[int(i)])
    return Graph(n, edges)


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_mrf(rng, graph: Graph, q: int = 2, lo: float = 0.0, hi: float = 2.0) -> PairwiseMrf:
    phi = rng.uniform(lo, hi, size=(graph.n, q))
    psi = rng.uniform(lo, hi, size=(len(graph.edge_list), q, q))
    return PairwiseMrf(graph, q, phi, psi)


def labels_of(components, n: int) -> np.ndarray:
    """Each node's index in ``components``, or -1 for a node in none: the
    labels ``solve_components`` reads."""
    labels = np.full(n, -1, dtype=np.intp)
    for c, comp in enumerate(components):
        labels[list(comp)] = c
    return labels


def edge_cut_by_loop(graph: Graph, dec) -> tuple[list[int], list[bool]]:
    """``decompose.edge_cut`` as the loop over the record's fields that the
    stored arrays replaced: each node's index in ``dec.components`` and,
    per row of ``graph.ends``, whether the record removes that edge."""
    if dec.n != graph.n or dec.removed_nodes or not dec.removed_edges <= graph.edges:
        raise ValueError("not an edge decomposition of this graph")
    comp_of = [-1] * dec.n
    for i, comp in enumerate(dec.components):
        for v in comp:
            if not 0 <= v < dec.n or comp_of[v] != -1:
                raise ValueError(f"components do not partition the nodes (node {v})")
            comp_of[v] = i
    if -1 in comp_of:
        raise ValueError(f"components do not cover node {comp_of.index(-1)}")
    return comp_of, [e in dec.removed_edges for e in graph.edge_list]


def with_forced_node(mrf: PairwiseMrf, v: int, state: int) -> PairwiseMrf:
    """Copy of ``mrf`` with node ``v`` conditioned to ``state`` (its other
    states get -inf); it shares the model's graph and edge tables."""
    phi = np.array(mrf.phi)
    keep = phi[v, state]
    phi[v, :] = -np.inf
    phi[v, state] = keep
    phi.setflags(write=False)
    # not copy.copy: a copy of a model rebuilds it, tables included
    forced = object.__new__(PairwiseMrf)
    vars(forced).update(vars(mrf), phi=phi)
    return forced


def union_find_components(graph: Graph) -> set[frozenset[int]]:
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, set[int]] = {}
    for v in range(graph.n):
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


def cover_number_oracle(graph: Graph) -> int:
    """Worst half-radius covering number by combination search (independent
    of the branch-and-bound implementation in the package)."""
    dist = graph.distance_matrix
    n = graph.n
    worst = 1
    for r_twice in range(1, 2 * (graph.diameter + 1) + 1):
        r = r_twice / 2
        half_balls = [frozenset(np.flatnonzero(dist[u] < r / 2).tolist()) for u in range(n)]
        for v in range(n):
            target = frozenset(np.flatnonzero(dist[v] < r).tolist())
            for size in range(1, n + 1):
                hit = False
                for combo in itertools.combinations(range(n), size):
                    union = set()
                    for u in combo:
                        union |= half_balls[u]
                    if target <= union:
                        hit = True
                        break
                if hit:
                    worst = max(worst, size)
                    break
    return worst


def enumerate_energies(mrf: PairwiseMrf):
    """(assignment, energy) pairs by plain nested iteration (no numpy)."""
    for x in itertools.product(range(mrf.q), repeat=mrf.n):
        total = 0.0
        for v in range(mrf.n):
            total += float(mrf.phi[v, x[v]])
        for u, v in mrf.edge_list:
            total += float(mrf.edge_table(u, v)[x[u], x[v]])
        yield x, total


def oracle_log_z(mrf: PairwiseMrf) -> float:
    energies = [e for _, e in enumerate_energies(mrf)]
    hi = max(energies)
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(sum(math.exp(e - hi) for e in energies))


def oracle_map_reversed(mrf: PairwiseMrf):
    """Argmax by iterating assignments in reversed order, preferring the
    lexicographically smaller assignment on exact ties."""
    best_x, best_e = None, -math.inf
    for x, e in reversed(list(enumerate_energies(mrf))):
        if e > best_e or (e == best_e and (best_x is None or x < best_x)):
            best_x, best_e = x, e
    return best_x, best_e


def oracle_max_marginal(mrf: PairwiseMrf, v: int):
    best = [-math.inf, -math.inf]
    for x, e in enumerate_energies(mrf):
        best[x[v]] = max(best[x[v]], e)
    return best[0], best[1]


def saw_map_by_trees(mrf: PairwiseMrf, trees=None):
    """MAP by conditioning, with one reduced model and one built walk tree
    per node.  Fixing v deletes it: the model of root v is the one induced
    on v..n-1, whose node potentials carry the edge rows of every fixed
    neighbour's chosen state, added in ascending order of the fixed nodes.
    Each tree is appended to ``trees`` when a list is given."""
    phi = mrf.phi.tolist()
    states = []
    for v in range(mrf.n):
        sub, _ = mrf.induced(range(v, mrf.n))
        tree = build_saw_tree(PairwiseMrf(sub.graph, 2, phi[v:], sub.psi), 0)
        if trees is not None:
            trees.append(tree)
        state = 1 if saw_max_ratio(tree).log_ratio() > 0.0 else 0
        states.append(state)
        for w in mrf.graph.adjacency[v]:
            if w > v:
                row = mrf.edge_table(v, w)[state]
                phi[w] = [phi[w][0] + float(row[0]), phi[w][1] + float(row[1])]
    return tuple(states)


def three_sigma_binomial(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


def induced_by_edge_scan(mrf: PairwiseMrf, nodes):
    """Induced sub-model built by scanning every edge of the model (the
    construction ``PairwiseMrf.induced`` replaced)."""
    order = tuple(sorted(nodes))
    pos = {g: i for i, g in enumerate(order)}
    sub_edges = []
    tables = {}
    for u, v in mrf.edge_list:
        if u in pos and v in pos:
            sub_edges.append((pos[u], pos[v]))
            tables[(pos[u], pos[v])] = mrf.edge_table(u, v)
    sub = PairwiseMrf(Graph(len(order), sub_edges), mrf.q, mrf.phi[list(order)], tables)
    return sub, order


def distances_by_floyd(graph: Graph) -> np.ndarray:
    """All-pairs shortest-path distances by Floyd-Warshall (no BFS)."""
    d = np.full((graph.n, graph.n), math.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in graph.edges:
        d[u, v] = d[v, u] = 1.0
    for k in range(graph.n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def db_dim_vertex_by_matrix(graph: Graph, eps: float, K: int, seed: int):
    """Ball carving read off the all-pairs distance matrix (the construction
    that the truncated-BFS carving replaced): same draws, same record."""
    law = RadiusLaw(eps, K)
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    dist = distances_by_floyd(graph)
    white = list(range(graph.n))
    blue = set()
    while white:
        u = white[int(rng.integers(len(white)))]
        radius = law.sample(rng)
        blue.update(w for w in white if dist[u, w] == radius)
        white = [w for w in white if dist[u, w] > radius]
    comps = connected_components(graph, removed_nodes=blue)
    return Decomposition(
        "dbdim-v", graph.n, comps, 2.0 * eps, seed, removed_nodes=frozenset(blue)
    )


def db_dim_edge_by_matrix(graph: Graph, eps: float, K: int, seed: int):
    """``db_dim_vertex_by_matrix`` on the line graph, mapped back to edges."""
    vdec = db_dim_vertex_by_matrix(line_graph(graph), eps, K, seed)
    removed = frozenset(graph.edge_list[i] for i in vdec.removed_nodes)
    comps = connected_components(graph, removed_edges=removed)
    return Decomposition("dbdim", graph.n, comps, 2.0 * eps, seed, removed_edges=removed)


def lattice_by_pairs(rows: int, cols: int, diagonals: bool) -> Graph:
    """The lattice through the checking constructor, one pair per edge (the
    construction that the array version replaced)."""
    edges = []
    for r in range(rows):
        end = (r + 1) * cols
        for v in range(r * cols, end):
            if v + 1 < end:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
                if diagonals and v + 1 < end:
                    edges += ((v, v + cols + 1), (v + 1, v + cols))
    return Graph(rows * cols, edges)


def edge_index(graph: Graph) -> dict:
    """Each edge's position in ``edge_list``, as a dict (the lookup that
    ``Graph.edge_rows`` replaced)."""
    return {e: i for i, e in enumerate(graph.edge_list)}


def edge_ids(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Per node, the ``edge_list`` index of the edge to each of its
    ``adjacency`` neighbours, in the same order, found by ``edge_index``."""
    index = edge_index(graph)
    return tuple(
        tuple(index[min(v, w), max(v, w)] for w in adj) for v, adj in enumerate(graph.adjacency)
    )


def line_graph_by_pairs(graph: Graph) -> Graph:
    """The line graph from every pair of edges at each node (the
    construction that the array version replaced)."""
    meta = set()
    for ids in edge_ids(graph):
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                meta.add((ids[a], ids[b]))
    return Graph(len(graph.edge_list), meta)


def layer_cut_by_nodes(graph: Graph, r: int, lam: int, seed=None, choose_level=None, edges=True):
    """``minor_edge`` (or, without ``edges``, ``minor_vertex``) with each
    round's cut flagged node by node (the loop that the array cut replaced): a node in its component's cut layer is
    removed, or cuts each of its edges to a node at the same or a greater
    depth.  Same draws, same record."""
    if choose_level is None:
        def choose_level(i, j):
            return int(np.random.default_rng(np.random.SeedSequence((seed, i, j))).integers(lam))
    adj, ids = graph.adjacency, edge_ids(graph)
    dead, cut = np.zeros(graph.n, dtype=bool), np.zeros(len(graph.edge_list), dtype=bool)
    for i in range(r):
        comp_of, depth, count = sweep(graph, dead, cut)
        levels = [choose_level(i, j) for j in range(count)]
        for u in np.flatnonzero(comp_of >= 0).tolist():
            d = int(depth[u])
            if d % lam != levels[comp_of[u]]:
                continue
            if not edges:
                dead[u] = True
                continue
            for w, e in zip(adj[u], ids[u]):
                if depth[w] >= d:
                    cut[e] = True
    nodes = frozenset(v for v in range(graph.n) if dead[v])
    removed = frozenset(e for e, c in zip(graph.edge_list, cut) if c)
    comps = connected_components(graph, nodes, removed)
    alg = "minore" if edges else "minorv"
    return Decomposition(alg, graph.n, comps, r / lam, seed, nodes, removed)


def write_mrf_by_format(mrf: PairwiseMrf) -> str:
    """``write_mrf_text`` as one ``format(x, ".17g")`` call per value."""
    lines = [f"mrf {mrf.n} {mrf.q}"]
    for v in range(mrf.n):
        lines.append(f"node {v} " + " ".join(format(x, ".17g") for x in mrf.phi[v]))
    for (u, v), table in zip(mrf.graph.ends.tolist(), mrf.psi):
        lines.append(f"edge {u} {v} " + " ".join(format(x, ".17g") for x in table.ravel()))
    return "\n".join(lines) + "\n"


def parse_mrf_by_lines(text: str):
    """Format v1 read one line at a time, every token through Python's
    ``int`` and ``float``: the ``(phi, psi, ends)`` that ``parse_mrf_text``
    must build, or the ``FormatError`` it must raise, with its message."""

    def numbers(no, tokens, kind=float):
        # the format's digits are ASCII and unseparated
        if not all(t.isascii() and "_" not in t for t in tokens):
            raise FormatError(f"line {no}: not a number in: {' '.join(tokens)}")
        try:
            values = [kind(t) for t in tokens]
        except ValueError:
            raise FormatError(f"line {no}: not a number in: {' '.join(tokens)}") from None
        if kind is float and not all(map(math.isfinite, values)):
            raise FormatError(f"line {no}: values must be finite: {' '.join(tokens)}")
        return values

    rows = [
        (no, tokens)
        for no, line in enumerate(text.splitlines(), 1)
        if (tokens := line.split("#", 1)[0].split())
    ]
    if not rows or rows[0][1][0] != "mrf" or len(rows[0][1]) != 3:
        raise FormatError("expected header: mrf <n> <sigma>")
    (no, header), *body = rows
    n, q = numbers(no, header[1:], int)
    if n < 0 or q < 2:
        raise FormatError(f"line {no}: need n >= 0 and sigma >= 2")
    if n >= 2**63:
        raise FormatError(f"line {no}: n {n} does not fit a 64-bit id")
    tables = {"node": {}, "edge": {}}
    for no, (kind, *tokens) in body:
        k = {"node": 1, "edge": 2}.get(kind)
        if k is None:
            raise FormatError(f"line {no}: unknown line kind: {kind}")
        if len(tokens) != k + q**k:
            raise FormatError(f"line {no}: {kind} line needs {q**k} values")
        if q**k > 2**27:
            raise FormatError(f"line {no}: {kind} line of {q**k} values is too wide to read")
        ids = tuple(numbers(no, tokens[:k], int))
        if k == 1 and not 0 <= ids[0] < n:
            raise FormatError(f"line {no}: node id {ids[0]} out of range")
        if k == 2 and not 0 <= ids[0] < ids[1] < n:
            raise FormatError(f"line {no}: edge must be written u < v < n, got {ids[0]} {ids[1]}")
        if ids in tables[kind]:
            raise FormatError(f"line {no}: duplicate {kind} {' '.join(map(str, ids))}")
        tables[kind][ids] = numbers(no, tokens[k:])
    nodes, edges = tables["node"], tables["edge"]
    if len(nodes) < n:
        first = next(v for v in itertools.count() if (v,) not in nodes)
        raise FormatError(f"missing node lines for {n - len(nodes)} of {n} nodes, first node {first}")
    if q * q * 8 > np.iinfo(np.intp).max:
        raise FormatError(f"line {rows[0][0]}: sigma {q} is too large for an edge table")
    keys = sorted(edges)
    phi = np.array([nodes[(v,)] for v in range(n)], dtype=float).reshape(n, q)
    psi = np.array([edges[e] for e in keys], dtype=float).reshape(len(keys), q, q)
    return phi, psi, np.array(keys, dtype=np.intp).reshape(len(keys), 2)
