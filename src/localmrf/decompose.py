"""Randomized graph decompositions with removal-probability certificates.

Three schemes, each flagging a removed set B in a boolean array over the
nodes or the edges (``_carve`` then sweeps once for the components of what
survives and lists B in ascending id order):

* random ball carving driven by a truncated geometric radius, suited to
  graphs whose metric balls grow polynomially (low doubling dimension;
  each ball is a BFS cut off at its radius, edge balls run on the graph
  itself rather than on its line graph, and the uncarved ids sit in a
  Fenwick tree, so a run costs its ball sizes times O(log n));
* iterated BFS-layer cutting, suited to minor-excluded graphs (r rounds,
  layers taken modulo a stride Lambda; ``_layer_cut`` owns one mask of the
  nodes or edges cut so far, and each round is one BFS sweep of the graph
  without them, ``core.sweep``, and one array expression over the sweep's
  depths that ORs the round's cut into the mask);
* the deterministic axis-aligned slab cut of an n x n lattice.

``scheme`` turns a scheme's name into its decomposition as a function of
the seed; the command line and the experiment harness both call it.
``edge_cut``, the one check of a record against a graph, serves the
certificate (``inference``) and the cris-cross lift.  A record is stored as
its arrays, a label per node and the removed pairs, and checked when built.

Every scheme is reproducible: all randomness comes from numpy PCG64
generators keyed by the caller's 64-bit seed.  Layer cutting draws one
stream per (seed, round, component-index) triple so components of a round
could be processed concurrently without changing the output; a round of
``_BATCH_FROM`` components or more computes its streams' first draws
together, as arrays, bit for bit equal to numpy's (``_batched_levels``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from .core import Edge, Graph, _members, _node_id, bfs_depths, criscross_graph, grid_graph, sweep
from .core import connected_components  # noqa: F401  the perfbench tracer wraps this name

_INTP = np.iinfo(np.intp)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(key)))


@dataclass(frozen=True)
class Decomposition:
    """Removed nodes or edges plus the components of what survives.

    A scheme fills the removed set it cuts and leaves the other empty; the
    components are the connected components of the graph without both.

    A record is stored as read-only ``intp`` arrays: ``comp_of`` (each
    node's component, -1 if removed), ``removed_ends`` (removed pairs, rows
    ascending) and ``n_components``.  The tuple fields, which alone make
    equality, the hash, the repr and ``replace``, are views built ascending
    on first read.  A record built from its fields is checked once.
    """

    alg: str
    n: int
    components: tuple[tuple[int, ...], ...]
    eps_target: float
    seed: int | None
    removed_nodes: frozenset[int] = field(default_factory=frozenset)
    removed_edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        # label 0 marks the removed nodes, label i + 1 component i
        labels = [-1] * self.n
        for i, nodes in enumerate((self.removed_nodes, *self.components)):
            for v in map(_node_id, nodes):
                if not 0 <= v < self.n or labels[v] != -1:
                    raise ValueError(f"components do not partition the nodes (node {v})")
                labels[v] = i
        if -1 in labels:
            raise ValueError(f"components do not cover node {labels.index(-1)}")
        # a removed edge of any graph is a pair of intp ids
        stray = [e for e in self.removed_edges if not (isinstance(e, tuple) and len(e) == 2 and all(
            isinstance(v, Integral) and _INTP.min <= v <= _INTP.max for v in e))]
        if stray:
            raise ValueError(f"removed edges not in the graph: {sorted(stray, key=repr)}")
        ends = np.array(list(self.removed_edges), dtype=np.intp).reshape(-1, 2)
        _hold(self, np.array(labels, dtype=np.intp) - 1, np.unique(ends, axis=0), len(self.components))

    def __getattr__(self, name):
        if name not in _VIEWS:  # only a view not yet built is missing from the instance
            raise AttributeError(name)
        view = vars(self)[name] = _VIEWS[name](self)
        return view

    def __getstate__(self):  # a copy is rebuilt from its arrays and fields, with no view
        return {k: v for k, v in vars(self).items() if k not in _VIEWS}

    def __setstate__(self, state):
        _hold(self, **state)

    @property
    def max_component(self) -> int:
        return int(np.bincount(self.comp_of + 1, minlength=self.n_components + 1)[1:].max(initial=0))


_VIEWS = {
    "components": lambda dec: _members(dec.comp_of, dec.n_components),
    "removed_nodes": lambda dec: frozenset(np.flatnonzero(dec.comp_of < 0).tolist()),
    "removed_edges": lambda dec: frozenset(zip(*dec.removed_ends.T.tolist())),
}


def _hold(dec: Decomposition, comp_of, removed_ends, n_components: int, **fields) -> Decomposition:
    """Store ``dec`` as its arrays, made read-only, in place of its views."""
    state = vars(dec)
    for name in _VIEWS:
        state.pop(name, None)
    state.update(fields, comp_of=_frozen(comp_of), removed_ends=_frozen(removed_ends),
                 n_components=n_components)
    return dec


def _carve(
    graph: Graph, alg: str, eps_target: float, seed: int | None, dead=None, cut=None
) -> Decomposition:
    """The record of removing from ``graph`` the nodes flagged in ``dead``
    and the edges flagged in ``cut`` (masks as in ``core.sweep``).

    Every scheme builds its record here, with one sweep, so the components
    are always the connected components of what is left.
    """
    comp_of, _, count = sweep(graph, dead, cut)
    removed = np.empty((0, 2), dtype=np.intp) if cut is None else graph.ends[cut]
    return _hold(object.__new__(Decomposition), comp_of, removed, count,  # no fields to convert
                 alg=alg, n=graph.n, eps_target=eps_target, seed=seed)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def edge_cut(graph: Graph, dec: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """Each node's index in ``dec.components`` and the removed edges as a
    boolean mask over ``graph.ends`` (read-only arrays); raises
    ``ValueError`` unless ``dec`` has the graph's node count and removes
    only edges of the graph, found by one ``Graph.edge_rows`` lookup.
    """
    if dec.n != graph.n:
        raise ValueError(f"decomposition has {dec.n} nodes, the graph {graph.n}")
    if dec.comp_of.min(initial=0) < 0:
        raise ValueError(f"node-removing decomposition {dec.alg}: it removes nodes, not edges")
    rows = graph.edge_rows(dec.removed_ends)
    if (rows < 0).any():
        stray = list(zip(*dec.removed_ends[rows < 0].T.tolist()))
        raise ValueError(f"removed edges not in the graph: {stray}")
    return dec.comp_of, _frozen(np.bincount(rows, minlength=len(graph.ends)) > 0)


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
        if not isinstance(self.K, Integral) or self.K < 1:
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
    ``rng.integers(<number of white nodes>)``, then the radius via one
    uniform.
    Every surviving component sits inside a ball of radius K around one of
    the chosen centers.

    Each ball is a BFS from u over the whole graph that stops at depth Q,
    and the white nodes are kept in a Fenwick tree (``_WhiteIds``), so a
    run costs the sum of its ball sizes times O(log n), not an all-pairs
    distance matrix.
    """

    def ball(u, radius):
        return bfs_depths(graph, u, max_depth=radius).items()

    dead = _ball_cut(graph.n, ball, eps, K, seed)
    return _carve(graph, "dbdim-v", 2.0 * eps, seed, dead=dead)


def db_dim_edge(graph: Graph, eps: float, K: int, seed: int) -> Decomposition:
    """``db_dim_vertex`` on the line graph, mapped back to an edge removal:
    line-graph node i is edge i, so its blue mask is the edge mask.

    The balls are found on ``graph`` itself; no line graph is built.  For a
    centre edge e = (a, b), e is at distance 0 and any other edge at 1 +
    the smaller BFS depth of its endpoints from {a, b}.  So a ball of
    radius Q is a BFS from {a, b} to depth Q-1 that scans each frontier
    node's CSR row level by level, which meets every edge first at its
    own distance.
    """
    (ptr, nbr, ids), ends = graph._csr_lists, graph.ends.tolist()

    def ball(e, radius):
        a, b = ends[e]
        dist, seen, frontier = {e: 0}, {a, b}, [a, b]
        for d in range(1, radius + 1):
            nxt = []
            for u in frontier:
                for i in range(ptr[u], ptr[u + 1]):
                    f = ids[i]
                    # an edge met before was met from its far end, so that is seen
                    if f not in dist:
                        dist[f] = d
                        w = nbr[i]
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
            frontier = nxt
        return dist.items()

    cut = _ball_cut(len(graph.ends), ball, eps, K, seed)
    return _carve(graph, "dbdim", 2.0 * eps, seed, cut=cut)


class _WhiteIds:
    """Ids ``0..n-1`` still white, indexable as their ascending list.

    A Fenwick tree over 0/1 presence counts: the k-th white id and the
    removal of an id each cost O(log n).
    """

    def __init__(self, n: int):
        self.count = n
        self.present = bytearray([1]) * n
        self.tree = [i & -i for i in range(n + 1)]
        self.top = 1 << n.bit_length()

    def kth(self, k: int) -> int:
        """The k-th (from 0) white id in ascending order."""
        tree, size, pos, step = self.tree, len(self.tree), 0, self.top
        while step:
            nxt = pos + step
            if nxt < size and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return pos

    def discard(self, v: int) -> bool:
        """Remove ``v``; False if it was not white."""
        if not self.present[v]:
            return False
        self.present[v] = 0
        self.count -= 1
        tree, size, i = self.tree, len(self.tree), v + 1
        while i < size:
            tree[i] -= 1
            i += i & -i
        return True


def _ball_cut(n: int, ball, eps: float, K: int, seed: int) -> np.ndarray:
    """The blue mask of one ball-carving run over ids ``0..n-1`` (see
    ``db_dim_vertex``); ``ball(u, radius)`` lists the (id, distance) pairs
    within ``radius`` of ``u``."""
    law = RadiusLaw(eps, K)
    rng = _rng(seed)
    white = _WhiteIds(n)
    blue = np.zeros(n, dtype=bool)
    while white.count:
        u = white.kth(int(rng.integers(white.count)))
        radius = law.sample(rng)
        for w, d in ball(u, radius):
            # only an id that is still white can turn blue
            if white.discard(w) and d == radius:
                blue[w] = True
    return blue


def line_graph(graph: Graph) -> Graph:
    """Graph on the edges; adjacency iff two edges share an endpoint.

    Line-graph node i corresponds to ``graph.edge_list[i]``.  No production
    path builds one (``db_dim_edge`` measures line-graph distances on
    ``graph``); it is the tests' oracle for that metric.  Built from the
    CSR arrays: round k pairs each node's incident edge at slot p with the
    one at slot p + k, so the work is the number of pairs.
    """
    ids = graph.nbr_edge
    last = np.repeat(graph.indptr[1:], np.diff(graph.indptr))  # slot ends
    slots = np.arange(len(ids))
    pairs = [np.empty((0, 2), dtype=np.intp)]
    k = 1
    while True:
        slots = slots[slots + k < last[slots]]
        if not len(slots):
            break
        # a node's edge ids ascend, and two edges share at most one node
        pairs.append(np.stack((ids[slots], ids[slots + k]), axis=1))
        k += 1
    ends = np.concatenate(pairs)
    return Graph._from_ends(len(graph.ends), ends[np.lexsort(ends.T[::-1])])


# ---------------------------------------------------------------------------
# BFS-layer cutting
# ---------------------------------------------------------------------------


def _check_layers(r: int, lam: int) -> None:
    if not all(isinstance(s, Integral) and s >= 1 for s in (r, lam)):
        raise ValueError("need r >= 1 and lam >= 1")


_M32 = 0xFFFFFFFF
# SeedSequence's hash constants, and PCG64's multiplier as its two words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# from this many components a round draws its levels as arrays: below it,
# numpy's per-key streams cost less than the batch's fixed numpy calls
_BATCH_FROM = 8


def _levels(seed, i: int, count: int, lam: int) -> np.ndarray:
    """``default_rng(SeedSequence((seed, i, j))).integers(lam)`` for each
    component ``j`` in ``0..count-1`` of round ``i``, as ``intp``.

    From ``_BATCH_FROM`` components on, a non-negative int seed and
    ``2 <= lam < 2**32`` are drawn together by ``_batched_levels``; any
    other round runs numpy's own streams, which stay the tests' oracle.
    """
    if (count < _BATCH_FROM or not 2 <= lam <= _M32
            or not isinstance(seed, (int, np.integer)) or seed < 0):
        return np.array([_rng(seed, i, j).integers(lam) for j in range(count)], dtype=np.intp)
    return _batched_levels(int(seed), i, count, int(lam))


def _words(x: int) -> list[int]:
    """SeedSequence's 32-bit words of the int ``x >= 0``, low word first."""
    words = [x & _M32]
    while x := x >> 32:
        words.append(x & _M32)
    return words


def _hash_steps(start: int, mult: int, count: int) -> np.ndarray:
    """The xor and the multiply constants of ``count`` successive
    SeedSequence hash steps, as a ``(2, count, 1)`` uint32 array."""
    steps = []
    for _ in range(count):
        steps.append((start, start := start * mult & _M32))
    return np.array(steps, dtype=np.uint32).T[..., None]


@lru_cache(maxsize=4)
def _mix_steps(words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SeedSequence's hash steps for a key of ``words`` 32-bit words: the
    pool's four, each pool word's into the other three (at ``[:, src,
    dst]``, none on the diagonal), and each later key word's into all four."""
    steps = _hash_steps(_INIT_A, _MULT_A, 16 + 4 * max(0, words - 4))
    cross = np.zeros((2, 4, 4, 1), dtype=np.uint32)
    cross[:, ~np.eye(4, dtype=bool)] = steps[:, 4:16]
    return steps[:, :4], cross, steps[:, 16:].reshape(2, -1, 4, 1)


_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 8)  # generate_state's, eight words


def _hash(values, steps):
    """SeedSequence's ``hashmix`` of uint32 ``values``, one step a row."""
    values = (values ^ steps[0]) * steps[1]
    return values ^ (values >> np.uint32(16))


def _mix(x, y):
    """SeedSequence's ``mix`` of the uint32 arrays ``x`` and ``y``."""
    x = _MIX_L * x - _MIX_R * y
    return x ^ (x >> np.uint32(16))


def _lcg(hi, lo, inc_hi, inc_lo):
    """One PCG64 step ``state * multiplier + inc`` mod 2**128, on the
    states' high and low uint64 words; the low words' full product is
    summed from their 32-bit halves."""
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1 = lo & m32, lo >> s32
    b0, b1 = np.uint64(_PCG_LO & _M32), np.uint64(_PCG_LO >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    hi = (a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
          + hi * np.uint64(_PCG_LO) + lo * np.uint64(_PCG_HI))
    return _add(hi, (mid << s32) | (p00 & m32), inc_hi, inc_lo)


def _add(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _batched_levels(seed: int, i: int, count: int, lam: int) -> np.ndarray:
    """``_levels`` for an int ``seed >= 0`` and ``2 <= lam < 2**32``,
    with one numpy expression per step over all ``count`` keys.

    The steps are numpy's: SeedSequence's hashing of the key's 32-bit
    words into a pool of four, ``generate_state(4, np.uint64)``, PCG64's
    seeding (two LCG steps) and first outputs, each split into two 32-bit
    draws low half first, and ``Generator.integers``' 32-bit Lemire draw,
    which rejects a draw whose low product word is below ``2**32 % lam``.
    """
    entropy = [np.full(count, w, dtype=np.uint32) for w in _words(seed) + _words(i)]
    entropy.append(np.arange(count, dtype=np.uint32))
    first, cross, later = _mix_steps(len(entropy))
    pool = _hash(np.stack((entropy + [np.zeros(count, dtype=np.uint32)])[:4]), first)
    for src in range(4):  # each pool word into the other three, in turn
        mixed = _mix(pool, _hash(pool[src], cross[:, src]))
        mixed[src] = pool[src]
        pool = mixed
    for k, word in enumerate(entropy[4:]):  # key words past the pool's four
        pool = _mix(pool, _hash(word, later[:, k]))
    state = _hash(np.concatenate((pool, pool)), _STATE_STEPS).astype(np.uint64)
    s_hi, s_lo, q_hi, q_lo = state[0::2] | (state[1::2] << np.uint64(32))
    one = np.uint64(1)
    inc_hi, inc_lo = (q_hi << one) | (q_lo >> np.uint64(63)), (q_lo << one) | one
    hi, lo = _lcg(*_add(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)
    levels = np.empty(count, dtype=np.intp)
    todo = np.arange(count)
    threshold = np.uint64((1 << 32) % lam)
    for draw in itertools.count():
        if draw % 2 == 0:  # the next output, XSL-RR: its words xored, rotated by its top six bits
            hi, lo = _lcg(hi, lo, inc_hi, inc_lo)
            x, rot = hi ^ lo, hi >> np.uint64(58)
            out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
            bits = out & np.uint64(_M32)
        else:
            bits = out >> np.uint64(32)
        product = bits * np.uint64(lam)
        ok = (product & np.uint64(_M32)) >= threshold
        levels[todo[ok]] = product[ok] >> np.uint64(32)
        if ok.all():
            return levels
        todo, hi, lo, inc_hi, inc_lo, out = (a[~ok] for a in (todo, hi, lo, inc_hi, inc_lo, out))


def _layer_cut(graph: Graph, alg: str, r: int, lam: int, seed, choose_level) -> Decomposition:
    """``minor_vertex`` (``alg`` "minorv") or ``minor_edge`` ("minore").

    One boolean mask holds the nodes or edges cut so far.  Each round
    sweeps the graph without them (``core.sweep``: each node's BFS depth
    inside its component from the component's lowest-id node), draws (or
    asks ``choose_level`` for) each component's level, and ORs the round's
    layer, the nodes whose depth is congruent to their component's level,
    into the mask, or for edges those whose lower-depth end is in it.
    """
    _check_layers(r, lam)
    if choose_level is None and seed is None:
        raise ValueError("give a seed or an explicit choose_level")
    edges = alg == "minore"
    u, w = graph.ends.T
    mask = np.zeros(len(graph.ends) if edges else graph.n, dtype=bool)
    dead, cut = (None, mask) if edges else (mask, None)
    for i in range(r):
        comp_of, depth, count = sweep(graph, dead, cut)
        if choose_level is None:
            levels = _levels(seed, i, count, lam)
        else:
            levels = []
            for j in range(count):
                level = choose_level(i, j)
                if not 0 <= level < lam:
                    raise ValueError(f"level {level} outside 0..{lam - 1}")
                levels.append(level)
        # a removed node (component -1, depth -1) reads level -1: no layer
        layer = depth % lam == np.append(np.asarray(levels, dtype=np.intp), -1)[comp_of]
        # the two ends of an edge not yet cut share a component, and at
        # equal depths a layer, so its lower-depth end decides
        mask |= layer[np.where(depth[u] <= depth[w], u, w)] if edges else layer
    return _carve(graph, alg, r / lam, seed, dead, cut)


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
    return _layer_cut(graph, "minorv", r, lam, seed, choose_level)


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
    between equal-depth nodes' layers correctly.  Each round flags its cut
    with one array expression over ``graph.ends``.
    """
    return _layer_cut(graph, "minore", r, lam, seed, choose_level)


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
    if not (isinstance(k, Integral) and 1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    return _slab(grid_graph(n), n, k, l1, l2)


def _check_offsets(k: int, l1: int, l2: int) -> None:
    if not all(isinstance(o, Integral) and 0 <= o < k for o in (l1, l2)):
        raise ValueError("offsets must lie in 0..k-1")


def _slab(grid: Graph, n: int, k: int, l1: int, l2: int) -> Decomposition:
    """``grid_decomp`` on ``grid``, the already built ``grid_graph(n)``."""
    _check_offsets(k, l1, l2)
    # horizontal (u, u + 1) by u's column, vertical (u, u + n) by u's row
    u, v = grid.ends.T
    cut = np.where(v == u + 1, u % n % k == l1, u // n % k == l2)
    return _carve(grid, "grid", 1.0 / k, None, cut=cut)


def criscross_decomposition(cc_graph: Graph, grid_dec: Decomposition) -> Decomposition:
    """Lift a grid-subgraph edge decomposition to the cris-cross graph.

    Keeps the grid removals and additionally removes every edge whose
    endpoints land in different grid components, so the cris-cross
    components coincide with the grid ones.  Such a grid edge is already
    among the removals, so only diagonals are added.  Each diagonal's
    removal probability is at most twice the grid edges', hence the
    doubled target.  ``edge_cut`` rejects a record that has no such lift.
    """
    comp_of, cut = edge_cut(cc_graph, grid_dec)
    u, v = cc_graph.ends.T
    cut = cut | (comp_of[u] != comp_of[v])
    eps_target = min(1.0, 2.0 * grid_dec.eps_target)
    return _carve(cc_graph, grid_dec.alg + "+diag", eps_target, grid_dec.seed, cut=cut)


SCHEMES = ("dbdim", "dbdim-v", "minorv", "minore", "grid", "none")  # the names scheme() takes
EDGE_SCHEMES = ("dbdim", "minore", "grid", "none")  # the schemes the certificate takes


def scheme(graph: Graph, name: str, eps: float, K: int, r: int, lam: int, k: int,
           offsets: tuple[int, int] | None = None):
    """The decomposition of ``graph`` named ``name``, as a function of its seed.

    ``grid``, the width-``k`` slab cut of a square or cris-cross lattice,
    cuts at ``offsets`` (l1, l2), or else at two drawn from each seed.  The
    name and the scheme's parameters are checked here, before any draw.
    """
    if name not in SCHEMES:
        raise ValueError(f"unknown decomposition {name}")
    if name in ("dbdim", "dbdim-v"):
        RadiusLaw(eps, K)  # raises on a bad eps or K
        carve = db_dim_edge if name == "dbdim" else db_dim_vertex
        return lambda seed: carve(graph, eps, K, seed)
    if name in ("minorv", "minore"):
        _check_layers(r, lam)
        layers = minor_edge if name == "minore" else minor_vertex
        return lambda seed: layers(graph, r, lam, seed)
    if name == "none":
        return lambda seed: empty_edge_decomposition(graph)
    side = math.isqrt(graph.n)
    grid = grid_graph(side)
    lift = graph != grid
    if lift and graph != criscross_graph(side):
        raise ValueError(
            "grid decomposition needs a square grid or cris-cross lattice, got"
            f" {graph.n} nodes and {len(graph.ends)} edges"
        )
    if not (isinstance(k, Integral) and 1 <= k <= side):
        raise ValueError("need 1 <= k <= n")
    if offsets is not None:
        _check_offsets(k, *offsets)

    def slab(seed):
        if offsets is None:
            rng = _rng(seed, 17)
            dec = _slab(grid, side, k, int(rng.integers(k)), int(rng.integers(k)))
        else:
            dec = _slab(grid, side, k, *offsets)
        return criscross_decomposition(graph, dec) if lift else dec

    return slab


def db_dim_target_eps(eps: float, rho: float, offset: int = 3) -> float:
    """Carving parameter that turns a requested relative error ``eps`` into
    the ball-carving eps: ``eps * 2**(-rho - offset)``.  The offset is
    exposed because 3 is the conservative choice and 2 already suffices."""
    return eps * 2.0 ** (-rho - offset)
