"""Self-avoiding-walk trees for binary pairwise models.

A walk tree rooted at v contains every non-backtracking walk from v,
truncated when it revisits a node of its own path; the revisited copy stays
in the tree as a marked leaf.  A leaf closing the cycle (w, v_1, ..., v_k, w)
is marked Green when id(v_k) < id(v_1) and Red otherwise (neighbor order is
ascending node id everywhere).  Green forces the leaf copy to state 1, Red
to state 0, realized by a -inf entry in the leaf's node potential; the
surviving state carries weight one, which leaves every ratio unchanged and
keeps trees of models with -inf node entries well defined.

A leaf-to-root max-product sweep over this tree yields the exact
max-marginal ratio of the root in the original model.  The same computation
also runs as a message-passing schedule (`msg_pass_mode`): nodes flood path
sequences outward and answer with computation sequences carrying
normalized message pairs.  Origins run in ascending id, and each origin's
sequences are explored depth first: a sequence floods all its receivers
and then waits for their answers.  The schedule and `saw_component_map`
walk the tree depth first without building it (`_walk`); the walk and the
tree sweep share their numeric kernel, `_send` on the summed incoming
pair, and agree bit for bit.  `saw_component_map` conditions on a fixed
node by deleting it and adding its edge rows to its free neighbours' node
potentials, so each later root walks the tree of the shrinking free graph.

All of them read the model as plain Python floats, copied once per call
into each node's potential pair and its ascending list of (neighbour, edge
potential) pairs, so their inner loops touch no numpy objects.  A walk
step is a few list and dict reads: each path node keeps running sums of
its incoming messages, and a cycle-closing leaf's answer, which depends
only on its directed edge and mark, is computed once per call.

Walk trees repeat themselves: on the 40-node ring with 8 chords the 40
root walks take 169,188 steps but hold a few thousand distinct subtrees.
The subtree under a path tip z entered from u depends only on z, u, z's
region (its component in the graph without the other path nodes, a
bitmask) and the path successor of each path node bordering that region,
the one node the Green/Red rule reads.  A root walk keys its subtrees by
these and sums each distinct one once (`_shared`), in a dict that lives
for that root's walk only; the sums are the unshared walk's, in the same
order, so ratios and counts stay bit-identical.  Regions that cannot
repeat a subtree often enough to pay for its key walk every sequence as
before (`_subtree`): those with fewer than two independent cycles (rings,
paths and trees), and components whose keys have not saved the steps
they cost.  A traced run walks every
sequence, and `build_saw_tree` and `saw_max_ratio` stay the unshared
oracle.

Ratios are kept as log-domain pairs rather than quotients so that 0 and
infinity are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass, field

from .core import CapExceeded, Graph, PairwiseMrf, _members, sweep
from .core import connected_components  # noqa: F401  the perfbench tracer wraps this name

DEFAULT_SAW_CAP = 2**20
"""Largest walk tree, in edges, that the walk-tree routines accept.  It
bounds the tree, by ``saw_size_upper`` of each component, not the work:
walks that share repeated subtrees could afford larger trees, but a model
passes or fails the cap as the paper's bound says."""

GREEN = "green"
RED = "red"


def saw_size_upper(n: int, k: int) -> int:
    """Edge-count bound (n + k - 1) * 2^(k+1) for a connected graph with
    n nodes and n - 1 + k edges."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return (n + k - 1) * 2 ** (k + 1)


def size_lower_bound_family(n: int, k: int) -> Graph:
    """Sparse family whose walk trees have at least n * 2^(k-2) edges.

    A line of n nodes closed into a cycle by the edge (0, n-1), plus the
    k - 1 chords (1,3), (3,5), ...  Needs 1 <= k <= n/2.
    """
    if not 1 <= k <= n / 2:
        raise ValueError("need 1 <= k <= n/2")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    for i in range(1, k):
        edges.append((2 * i - 1, 2 * i + 1))
    return Graph(n, edges)


@dataclass(frozen=True)
class RatioPair:
    """Unnormalized max-belief pair in log domain: (log q(1), log q(0))."""

    log_num: float
    log_den: float

    def log_ratio(self) -> float:
        if self.log_num == -math.inf and self.log_den == -math.inf:
            return math.nan
        return self.log_num - self.log_den


def log_ratio_difference(a: RatioPair, b: RatioPair) -> float:
    """Cross-difference of two ratios; 0.0 when both hit the same infinity."""
    ra, rb = a.log_ratio(), b.log_ratio()
    if math.isinf(ra) or math.isinf(rb):
        return 0.0 if ra == rb else math.inf
    if math.isnan(ra) or math.isnan(rb):
        return 0.0 if math.isnan(ra) and math.isnan(rb) else math.inf
    return abs(ra - rb)


# ---------------------------------------------------------------------------
# Shared numeric kernels (used by both the tree sweep and the schedule)
# ---------------------------------------------------------------------------


def _send(psi, in0, in1) -> tuple[float, float]:
    """Message toward a parent: max over the sender's state of
    psi[state][parent_state] + in[state], normalized so that its
    linear-domain sum is 1.  ``in0, in1`` are the sender's node potential
    plus its child messages, summed in ascending child order.

    The hot path of both walk-tree routines, so the two ``max`` calls are
    spelled out inline, with the same tie rule (the first argument wins
    unless the second is larger).
    """
    (p00, p01), (p10, p11) = psi
    m0, m1 = p00 + in0, p01 + in0
    a, b = p10 + in1, p11 + in1
    if a > m0:
        m0 = a
    if b > m1:
        m1 = b
    if m0 == -math.inf and m1 == -math.inf:
        return m0, m1
    hi = m1 if m1 > m0 else m0
    lse = hi + math.log(math.exp(m0 - hi) + math.exp(m1 - hi))
    return m0 - lse, m1 - lse


def _belief(in0, in1) -> RatioPair:
    """The root's max-belief pair from its summed ``in0, in1``, normalized
    as ``_send`` normalizes a message."""
    if in0 == -math.inf and in1 == -math.inf:
        return RatioPair(log_num=in1, log_den=in0)
    hi = in1 if in1 > in0 else in0
    lse = hi + math.log(math.exp(in0 - hi) + math.exp(in1 - hi))
    return RatioPair(log_num=in1 - lse, log_den=in0 - lse)


def _tables(mrf: PairwiseMrf):
    """Plain-float node pairs of a binary model and each node z's ascending
    list of (neighbour w, psi[w, z]) pairs, the edge potential indexed
    [w_state][z_state]."""
    nbrs = [[] for _ in range(mrf.n)]
    # in edge order each node meets its neighbours ascending
    for (u, v), ((a, b), (c, d)) in zip(mrf.graph.ends.tolist(), mrf.psi.tolist()):
        nbrs[u].append((v, ((a, c), (b, d))))
        nbrs[v].append((u, ((a, b), (c, d))))
    return list(map(tuple, mrf.phi.tolist())), nbrs


# ---------------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------------


@dataclass
class SawTree:
    """Rooted walk tree.

    Ids are BFS order and the children of a node are consecutive ids in
    ascending original id, so a node's child messages form one slice of an
    id-indexed list.  ``psi_to_parent`` entries are the model's edge
    potentials indexed [child_state][parent_state].
    """

    root: int
    orig: list[int]
    parent: list[int]
    depth: list[int]
    mark: list[str | None]
    children: list[list[int]]
    phi: list[tuple[float, float]]        # effective, after Green/Red forcing
    psi_to_parent: list[tuple | None]     # [child_state][parent_state]
    mark_count: dict = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.orig)

    @property
    def edge_count(self) -> int:
        return len(self.orig) - 1


def _binary_tables(mrf: PairwiseMrf, cap: int, root: int | None = None):
    """``_tables`` of a binary model whose walk trees, in ``root``'s
    component or else in every component, have at most ``cap`` edges; the
    first component in order over the cap raises ``CapExceeded``.  One
    sweep labels the components, and an edge counts in its lower end's;
    the components, each node's component and their edge counts come
    along."""
    if mrf.q != 2:
        raise ValueError("walk trees are defined for binary models only")
    if root is not None and not 0 <= root < mrf.n:
        raise ValueError(f"node {root} out of range for n={mrf.n}")
    labels, _, count = sweep(mrf.graph)
    comps, comp_of = _members(labels, count), labels.tolist()
    inner = Counter(comp_of[u] for u in mrf.graph.ends[:, 0].tolist())
    for c in range(len(comps)) if root is None else (comp_of[root],):
        n, k = len(comps[c]), inner[c] - len(comps[c]) + 1
        bound = saw_size_upper(n, max(0, k))
        if bound > cap:
            raise CapExceeded(
                f"walk tree may have up to {bound} edges "
                f"(n={n}, extra edges k={k}), cap={cap}"
            )
    return (*_tables(mrf), (comps, comp_of, inner))


def build_saw_tree(
    mrf: PairwiseMrf, root: int, cap: int = DEFAULT_SAW_CAP
) -> SawTree:
    """Walk tree of the root's component, with marked-leaf potentials set."""
    phi, nbrs, _ = _binary_tables(mrf, cap, root)

    orig, parent, depth, mark, children = [root], [-1], [0], [None], [[]]
    tree_phi, psi_to_parent = [phi[root]], [None]
    mark_count = {GREEN: 0, RED: 0}
    # each frontier entry carries its original-id path from the root
    queue = deque([(0, (root,))])
    while queue:
        t, path = queue.popleft()
        u, d = path[-1], len(path)
        parent_orig = path[-2] if d > 1 else None
        kids = children[t]
        for z, psi_zu in nbrs[u]:
            if z == parent_orig:
                continue
            child_id = len(orig)
            orig.append(z)
            parent.append(t)
            depth.append(d)
            children.append([])
            kids.append(child_id)
            psi_to_parent.append(psi_zu)
            if z in path:
                m = GREEN if u < path[path.index(z) + 1] else RED
                mark.append(m)
                mark_count[m] += 1
                # the forced state carries unit weight: the leaf's own node
                # potential would multiply every configuration of the tree
                # and cancel in the root ratio, and dropping it keeps trees
                # of conditioned models (phi with -inf entries) well defined
                tree_phi.append((-math.inf, 0.0) if m == GREEN else (0.0, -math.inf))
            else:
                mark.append(None)
                tree_phi.append(phi[z])
                queue.append((child_id, path + (z,)))
    return SawTree(
        root, orig, parent, depth, mark, children, tree_phi, psi_to_parent, mark_count
    )


def saw_max_ratio(tree: SawTree) -> RatioPair:
    """Leaf-to-root max-product sweep; returns the root's max-belief pair."""
    messages: list = [None] * tree.node_count
    children, psi, phi = tree.children, tree.psi_to_parent, tree.phi
    for t in range(tree.node_count - 1, -1, -1):
        in0, in1 = phi[t]
        kids = children[t]
        if kids:
            for c0, c1 in messages[kids[0] : kids[-1] + 1]:
                in0 += c0
                in1 += c1
        if t:
            messages[t] = _send(psi[t], in0, in1)
    return _belief(in0, in1)


# ---------------------------------------------------------------------------
# Distributed schedule
# ---------------------------------------------------------------------------


def _subtree(phi, nbrs, path, pos, leaves, trace=None) -> tuple[float, float, int]:
    """The summed incoming pair ``in0, in1`` of the path tip ``path[-1]``
    and the edge count of its subtree, by a depth-first sweep of the walk
    tree that builds no tree.

    ``nbrs`` holds each node's (neighbour, psi[neighbour, node]) pairs in
    ascending id, so each tree edge costs a few list and dict reads.  The
    caller owns ``path`` and ``pos``, each node's depth on the path or -1,
    set for the path it passes; the sweep resets what it adds as it
    unwinds.  It also owns ``leaves``, the cycle-closing answers by (leaf,
    parent, Green mark), computed on first use.

    The current node's frame lives in locals, and the frames of the path
    nodes above it on an explicit stack, not in recursion: a path can span
    a component.  Each frame keeps running sums ``in0, in1``, which start
    at the node's potential and gain the child answers in ascending child
    order, the additions ``saw_max_ratio`` makes, so both agree bit for
    bit.  A sequence traces its path lines when it floods and its comp line
    when it answers; the tip's own comp line is the caller's.
    """
    u = path[-1]
    parent = path[-2] if len(path) > 1 else -1
    stack, edges, up, rest = [], 0, None, iter(nbrs[u])
    in0, in1 = phi[u]
    if trace is not None:
        prefix = " ".join(map(str, path))
        trace.extend(f"path {prefix} {w}" for w, _ in nbrs[u] if w != parent)
    while True:
        for z, t in rest:
            if z == parent:
                continue
            edges += 1
            k = pos[z]
            if k < 0:
                stack.append((u, parent, up, rest, in0, in1))
                pos[z] = len(path)
                path.append(z)
                u, parent, up, rest = z, u, t, iter(nbrs[z])
                in0, in1 = phi[z]
                if trace is not None:
                    prefix = " ".join(map(str, path))
                    trace.extend(f"path {prefix} {w}" for w, _ in nbrs[z] if w != parent)
                break
            # cycle closed: answer as a unit-weight forced copy of z
            key = (z, u, u < path[k + 1])
            msg = leaves.get(key)
            if msg is None:
                msg = _send(t, -math.inf, 0.0) if key[2] else _send(t, 0.0, -math.inf)
                leaves[key] = msg
            in0 += msg[0]
            in1 += msg[1]
            if trace is not None:
                trace.append(f"comp {' '.join(map(str, path))} {z} {msg[0]:.17g} {msg[1]:.17g}")
        else:
            if not stack:
                return in0, in1, edges
            pos[u] = -1
            m0, m1 = _send(up, in0, in1)
            if trace is not None:
                trace.append(f"comp {' '.join(map(str, path))} {m0:.17g} {m1:.17g}")
            path.pop()
            u, parent, up, rest, in0, in1 = stack.pop()
            in0 += m0
            in1 += m1


# A region can repeat a subtree only if it holds two independent cycles; a
# component walks every sequence once its keys have saved, on average, fewer
# walk steps than a key costs (about _KEY_PAYS; BENCH_pr26.json's
# `sharing_rules` times 16 against 8 and 0).
_KEY_PAYS = 16


def _shares(nodes: int, edges: int) -> bool:
    """Whether a connected region holds two independent cycles."""
    return edges - nodes + 1 >= 2


@dataclass
class _Component:
    """One component's bitmasks, for one call: bit i stands for
    ``members[i]``, ``adj`` holds each member's neighbour mask; ``saved``
    counts the walk steps that repeated subtrees saved and ``keys`` the
    subtrees keyed, over the call's walks so far."""

    members: tuple
    bit: dict
    adj: dict
    saved: int = 0
    keys: int = 0

    @classmethod
    def of(cls, nbrs, members):
        bit = {x: 1 << i for i, x in enumerate(members)}
        return cls(members, bit, {x: sum(bit[w] for w, _ in nbrs[x]) for x in members})


def _flood(seed, within, adj, members):
    """The component of the bit ``seed`` in the mask ``within``."""
    comp = front = seed
    while front:
        front = _grow(front, adj, members) & within & ~comp
        comp |= front
    return comp


def _grow(front, adj, members):
    """The neighbours of the bits in ``front``."""
    grown = 0
    while front:
        b = front & -front
        grown |= adj[members[b.bit_length() - 1]]
        front ^= b
    return grown


def _edge_count(region, adj, members) -> int:
    """The number of edges with both ends in ``region``."""
    total, rest = 0, region
    while rest:
        b = rest & -rest
        total += (adj[members[b.bit_length() - 1]] & region).bit_count()
        rest ^= b
    return total // 2


def _regions(z, region, edges, border, comp):
    """The regions of the tip z's free neighbours, the components of
    ``region`` minus z, each with its edge count, its border (the path
    nodes next to it, ascending) and whether the step to it lost a node
    besides z or a border node; without such a loss a child's key
    determines its parent's, so it cannot repeat.

    A flood grows from each free neighbour in turn, one level at a time,
    and floods merge as they meet.  The last one still growing gets what
    the others leave, so a cut costs its smaller sides only."""
    adj, members = comp.adj, comp.members
    rest = region & ~comp.bit[z]
    seeds = adj[z] & rest
    growing, closed = [], []
    while seeds:
        b = seeds & -seeds
        growing.append((b, b))
        seeds ^= b
    while len(growing) > 1:
        grown = []
        for part, front in growing:
            front = _grow(front, adj, members) & rest & ~part
            part |= front
            for other in [g for g in grown if g[0] & part]:
                grown.remove(other)
                part |= other[0]
                front |= other[1]
            (grown if front else closed).append((part, front))
        growing = grown
    parts = [(part, _edge_count(part, adj, members)) for part, _ in closed]
    if growing:
        last = rest
        for part, _ in closed:
            last &= ~part
        edges -= (adj[z] & rest).bit_count() + sum(e for _, e in parts)
        parts.append((last, edges))
    out = []
    for part, e in parts:
        border_w = [p for p in border if adj[p] & part]
        insort(border_w, z)
        out.append((part, e, border_w, len(parts) > 1 or len(border_w) <= len(border)))
    return out


def _shared(phi, nbrs, path, pos, leaves, memo, comp, region, edges_in):
    """``_subtree`` of the root ``path[0]`` whose region is worth keying:
    each distinct subtree is swept once and its answer kept in ``memo``.

    The subtree under a tip z entered from u depends only on z, u, z's
    region (its component in the graph without the other path nodes) and
    the path successor of each path node bordering that region, the one
    node the Green/Red rule reads: those form its key.  Each tip splits
    its region among its children (``_regions``), and a child's key is
    looked up only after a step that lost a node.  A region not worth
    keying is swept by ``_subtree``, its answer kept under its own key.
    Answers are the sums ``_subtree`` would make, in the same order, so
    both agree bit for bit.  Frames live on an explicit stack, as in
    ``_subtree``.
    """
    bit, saved = comp.bit, 0
    z, u, up, key, start = path[-1], -1, None, None, 0
    regions = _regions(z, region, edges_in, [], comp)
    stack, edges, kids = [], 0, iter(nbrs[z])
    in0, in1 = phi[z]
    while True:
        for w, t in kids:
            if w == u:
                continue
            edges += 1
            k = pos[w]
            if k >= 0:
                leaf = (w, z, z < path[k + 1])
                msg = leaves.get(leaf)
                if msg is None:
                    msg = _send(t, -math.inf, 0.0) if leaf[2] else _send(t, 0.0, -math.inf)
                    leaves[leaf] = msg
                in0 += msg[0]
                in1 += msg[1]
                continue
            bw = bit[w]
            region_w, edges_w, border_w, lossy = next(r for r in regions if r[0] & bw)
            pos[w] = len(path)
            path.append(w)
            key_w = (w, z, region_w, tuple([path[pos[p] + 1] for p in border_w])) if lossy else None
            msg = memo.get(key_w)
            if msg is None:
                if _shares(region_w.bit_count(), edges_w):
                    stack.append((z, u, up, kids, in0, in1, key, start, regions))
                    z, u, up, key, start = w, z, t, key_w, edges
                    regions = _regions(z, region_w, edges_w, border_w, comp)
                    kids = iter(nbrs[z])
                    in0, in1 = phi[z]
                    break
                s0, s1, e = _subtree(phi, nbrs, path, pos, leaves)
                msg = (*_send(t, s0, s1), e)
                if key_w is not None:
                    memo[key_w] = msg
            else:
                saved += msg[2]
            path.pop()
            pos[w] = -1
            in0 += msg[0]
            in1 += msg[1]
            edges += msg[2]
        else:
            if not stack:
                comp.saved += saved
                comp.keys += len(memo)
                return in0, in1, edges
            msg = _send(up, in0, in1)
            if key is not None:
                memo[key] = (*msg, edges - start)
            path.pop()
            pos[z] = -1
            z, u, up, kids, in0, in1, key, start, regions = stack.pop()
            in0 += msg[0]
            in1 += msg[1]


def _walk(phi, nbrs, root, pos, leaves, share=None, trace=None) -> tuple[RatioPair, int]:
    """The root's max-belief pair and walk-tree edge count, by a depth-first
    walk of its tree that builds no tree.

    ``share`` is None, to sweep every sequence (``_subtree``; a ``trace``
    then lists each one), or ``_share``'s (memo, ``_Component``, region,
    edge count) for the root: the walk then sums each distinct subtree,
    keyed by (tip, parent, region, border successors), once, in ``memo``,
    a dict that lives for this root's walk (``_shared``).  ``pos`` and
    ``leaves`` are the caller's, as ``_subtree`` describes."""
    path = [root]
    pos[root] = 0
    if share is None:
        in0, in1, edges = _subtree(phi, nbrs, path, pos, leaves, trace)
    else:
        in0, in1, edges = _shared(phi, nbrs, path, pos, leaves, *share)
    pos[root] = -1
    return _belief(in0, in1), edges


def _share(v, nbrs, parts, keyed, low):
    """``_walk``'s ``share`` for the root v, or None when its region is not
    worth keying or its component's keys have not paid.  The region is v's
    component among the ids at or above ``low``: 0 for all of it, v for
    the free graph of ``saw_component_map``.  ``keyed`` holds the call's
    ``_Component`` records."""
    comps, comp_of, inner = parts
    c = comp_of[v]
    if not _shares(len(comps[c]), inner[c]):
        return None
    if c not in keyed:
        keyed[c] = _Component.of(nbrs, comps[c])
    comp = keyed[c]
    if comp.saved < _KEY_PAYS * comp.keys:
        return None
    # members ascend, so the ids at or above low hold the bits from its index up
    within = -(1 << bisect_left(comp.members, low))
    region = _flood(comp.bit[v], within, comp.adj, comp.members)
    edges = _edge_count(region, comp.adj, comp.members)
    return ({}, comp, region, edges) if _shares(region.bit_count(), edges) else None


@dataclass
class MsgPassResult:
    ratios: dict[int, RatioPair]
    sequences_per_origin: dict[int, int]
    trace: list[str] | None = None


def msg_pass_mode(
    mrf: PairwiseMrf, cap: int = DEFAULT_SAW_CAP, keep_trace: bool = False
) -> MsgPassResult:
    """Walk-tree exploration computing every node's max-belief.

    Every origin floods path sequences outward; leaves and cycle-closing
    revisits answer with computation sequences whose message pairs are
    normalized to linear-domain sum 1; interior nodes combine sibling
    messages and pass the result back.  Origins run in ascending id, and
    each origin's sequences are explored depth first: a sequence floods all
    its receivers, in ascending id, and then waits for their answers, so
    the schedule is deterministic.  Per origin, the number of path
    sequences and of computation sequences each equal the walk-tree edge
    count.

    Each origin's walk sums each distinct subtree once and reuses its
    answer where the tree repeats it (see ``_shared``); the counts still
    report every sequence of the schedule.  With ``keep_trace`` the walk
    sends every sequence, so the trace lists each one in schedule order.
    """
    phi, nbrs, parts = _binary_tables(mrf, cap)
    pos, leaves, keyed = [-1] * mrf.n, {}, {}
    trace: list[str] | None = [] if keep_trace else None
    ratios: dict[int, RatioPair] = {}
    counts: dict[int, int] = {}
    for v in range(mrf.n):
        share = None if keep_trace else _share(v, nbrs, parts, keyed, 0)
        ratios[v], counts[v] = _walk(phi, nbrs, v, pos, leaves, share, trace)
    return MsgPassResult(ratios=ratios, sequences_per_origin=counts, trace=trace)


# ---------------------------------------------------------------------------
# MAP by sequential conditioning
# ---------------------------------------------------------------------------


def saw_component_map(
    mrf: PairwiseMrf, cap: int = DEFAULT_SAW_CAP
) -> tuple[int, ...]:
    """Exact MAP of a binary model via walk-tree max-marginal conditioning.

    Fixes nodes in ascending id order: each node's max-marginal ratio is
    computed on the current conditioned model, the node is fixed to 1 when
    the ratio exceeds 1 and to 0 otherwise.  Conditioning deletes the node
    and adds its edge rows for the chosen state to its free neighbours'
    node potentials, so each later root walks the tree of the shrinking
    free graph only.

    The result is an energy-optimal assignment, up to the rounding of the
    ratios: exactly optimal when distinct energies differ by more than that
    rounding, as with integer tables.  On ties it need not be the
    lexicographically smallest optimum that the brute-force solvers return,
    because the messages are normalized by log-sum-exp, whose rounding can
    turn an exact tie into a ratio just above 1; either state of a tied
    node extends to an optimum.
    """
    phi, nbrs, parts = _binary_tables(mrf, cap)
    pos, leaves, keyed = [-1] * mrf.n, {}, {}
    states: list[int] = []
    for v in range(mrf.n):
        share = _share(v, nbrs, parts, keyed, v)
        r = _walk(phi, nbrs, v, pos, leaves, share)[0].log_ratio()
        state = 1 if r > 0.0 else 0
        states.append(state)
        for w, _ in nbrs[v]:
            # v is the smallest free id, so (v, psi[v, w]) heads w's list
            row0, row1 = nbrs[w][0][1][state]
            phi0, phi1 = phi[w]
            phi[w] = (phi0 + row0, phi1 + row1)
            del nbrs[w][0]
    return tuple(states)
