"""Self-avoiding-walk trees for binary pairwise models.

A walk tree rooted at v contains every non-backtracking walk from v,
truncated when it revisits a node of its own path; the revisited copy stays
in the tree as a marked leaf.  A leaf closing the cycle (w, v_1, ..., v_k, w)
is marked Green when id(v_k) < id(v_1) and Red otherwise (neighbor order is
ascending node id everywhere).  Green forces the leaf copy to state 1, Red
to state 0, realized by a -inf entry in the leaf's node potential; the
surviving state carries weight one, which leaves every ratio unchanged and
keeps trees of conditioned models well defined.

A leaf-to-root max-product sweep over this tree yields the exact
max-marginal ratio of the root in the original model.  The same computation
also runs as a distributed message-passing schedule (`msg_pass_mode`): nodes
flood path sequences outward and answer with computation sequences carrying
normalized message pairs; the two implementations share their numeric
kernels and agree bit for bit.

Ratios are kept as log-domain pairs rather than quotients so that 0 and
infinity are exact.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .core import CapExceeded, Graph, PairwiseMrf, connected_components

DEFAULT_SAW_CAP = 2**20

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


def _norm_pair(m0: float, m1: float) -> tuple[float, float]:
    """Normalize a log-domain pair so the linear-domain sum is 1."""
    if m0 == -math.inf and m1 == -math.inf:
        return m0, m1
    hi = max(m0, m1)
    lse = hi + math.log(math.exp(m0 - hi) + math.exp(m1 - hi))
    return m0 - lse, m1 - lse


def _send(psi, phi0: float, phi1: float, children) -> tuple[float, float]:
    """Message toward a parent: max over the sender's state of
    psi[state][parent_state] + phi[state] + sum of child messages."""
    in0, in1 = phi0, phi1
    for c0, c1 in children:
        in0 += c0
        in1 += c1
    m0 = max(psi[0][0] + in0, psi[1][0] + in1)
    m1 = max(psi[0][1] + in0, psi[1][1] + in1)
    return _norm_pair(m0, m1)


def _belief(phi0: float, phi1: float, children) -> RatioPair:
    b0, b1 = phi0, phi1
    for c0, c1 in children:
        b0 += c0
        b1 += c1
    b0, b1 = _norm_pair(b0, b1)
    return RatioPair(log_num=b1, log_den=b0)


# ---------------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------------


@dataclass
class SawTree:
    """Rooted walk tree; ids are BFS order, children ascend by original id."""

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


def _component_cap_check(mrf: PairwiseMrf, members, cap: int) -> None:
    inner = sum(
        1
        for (u, v) in mrf.edge_list
        if u in members and v in members
    )
    k = inner - len(members) + 1
    bound = saw_size_upper(len(members), max(0, k))
    if bound > cap:
        raise CapExceeded(
            f"walk tree may have up to {bound} edges "
            f"(n={len(members)}, extra edges k={k}), cap={cap}"
        )


def build_saw_tree(
    mrf: PairwiseMrf, root: int, cap: int = DEFAULT_SAW_CAP
) -> SawTree:
    """Walk tree of the root's component, with marked-leaf potentials set."""
    if mrf.q != 2:
        raise ValueError("walk trees are defined for binary models only")
    graph = mrf.graph
    members = None
    for comp in connected_components(graph):
        if root in comp:
            members = frozenset(comp)
            break
    _component_cap_check(mrf, members, cap)

    tree = SawTree(
        root=root,
        orig=[root],
        parent=[-1],
        depth=[0],
        mark=[None],
        children=[[]],
        phi=[(float(mrf.phi[root, 0]), float(mrf.phi[root, 1]))],
        psi_to_parent=[None],
        mark_count={GREEN: 0, RED: 0},
    )
    queue = deque([0])
    while queue:
        t = queue.popleft()
        u = tree.orig[t]
        parent_orig = tree.orig[tree.parent[t]] if tree.parent[t] >= 0 else None
        # original-id path from root to t, for revisit detection
        path = []
        walk = t
        while walk >= 0:
            path.append(tree.orig[walk])
            walk = tree.parent[walk]
        path.reverse()
        on_path = {node: i for i, node in enumerate(path)}
        for z in graph.adjacency[u]:
            if z == parent_orig:
                continue
            child_id = len(tree.orig)
            tree.orig.append(z)
            tree.parent.append(t)
            tree.depth.append(tree.depth[t] + 1)
            tree.children.append([])
            tree.children[t].append(child_id)
            table = mrf.edge_table(z, u)  # [child_state][parent_state]
            tree.psi_to_parent.append(
                (
                    (float(table[0, 0]), float(table[0, 1])),
                    (float(table[1, 0]), float(table[1, 1])),
                )
            )
            if z in on_path:
                first_successor = path[on_path[z] + 1]
                mark = GREEN if u < first_successor else RED
                tree.mark.append(mark)
                tree.mark_count[mark] += 1
                # the forced state carries unit weight: the leaf's own node
                # potential would multiply every configuration of the tree
                # and cancel in the root ratio, and dropping it keeps trees
                # of conditioned models (phi with -inf entries) well defined
                if mark == GREEN:
                    tree.phi.append((-math.inf, 0.0))
                else:
                    tree.phi.append((0.0, -math.inf))
            else:
                tree.mark.append(None)
                tree.phi.append((float(mrf.phi[z, 0]), float(mrf.phi[z, 1])))
                queue.append(child_id)
    return tree


def saw_max_ratio(tree: SawTree) -> RatioPair:
    """Leaf-to-root max-product sweep; returns the root's max-belief pair."""
    messages: dict[int, tuple[float, float]] = {}
    for t in range(tree.node_count - 1, 0, -1):
        child_msgs = [messages[c] for c in tree.children[t]]
        messages[t] = _send(
            tree.psi_to_parent[t], tree.phi[t][0], tree.phi[t][1], child_msgs
        )
    root_children = [messages[c] for c in tree.children[0]]
    return _belief(tree.phi[0][0], tree.phi[0][1], root_children)


# ---------------------------------------------------------------------------
# Distributed schedule
# ---------------------------------------------------------------------------


@dataclass
class MsgPassResult:
    ratios: dict[int, RatioPair]
    sequences_per_origin: dict[int, int]
    trace: list[str] | None = None


def msg_pass_mode(
    mrf: PairwiseMrf, cap: int = DEFAULT_SAW_CAP, keep_trace: bool = False
) -> MsgPassResult:
    """Event-driven walk-tree exploration computing every node's max-belief.

    Phase one floods path sequences outward from every origin; leaves and
    cycle-closing revisits answer with computation sequences whose message
    pairs are normalized to linear-domain sum 1; interior nodes combine
    sibling messages and pass the result back.  The event loop is a single
    FIFO queue, so the schedule is deterministic.  Per origin, the number
    of computation sequences emitted equals the walk-tree edge count.
    """
    if mrf.q != 2:
        raise ValueError("the schedule is defined for binary models only")
    graph = mrf.graph
    for comp in connected_components(graph):
        _component_cap_check(mrf, frozenset(comp), cap)

    phi = [(float(mrf.phi[v, 0]), float(mrf.phi[v, 1])) for v in range(graph.n)]

    def psi_pair(child: int, parent: int):
        t = mrf.edge_table(child, parent)
        return (
            (float(t[0, 0]), float(t[0, 1])),
            (float(t[1, 0]), float(t[1, 1])),
        )

    trace: list[str] | None = [] if keep_trace else None
    counts = {v: 0 for v in range(graph.n)}
    ratios: dict[int, RatioPair] = {}
    pending: dict[tuple[int, ...], dict[int, tuple[float, float]]] = {}
    queue: deque = deque()

    def emit_path(path: tuple[int, ...], to: int):
        if trace is not None:
            trace.append("path " + " ".join(map(str, path + (to,))))
        queue.append(("path", path, to))

    def emit_comp(path: tuple[int, ...], msg: tuple[float, float], to: int):
        counts[path[0]] += 1
        if trace is not None:
            trace.append(
                "comp "
                + " ".join(map(str, path))
                + f" {msg[0]:.17g} {msg[1]:.17g}"
            )
        queue.append(("comp", path, msg, to))

    for v in range(graph.n):
        if not graph.adjacency[v]:
            ratios[v] = _belief(phi[v][0], phi[v][1], [])
            continue
        for w in graph.adjacency[v]:
            emit_path((v,), w)

    while queue:
        kind, path, *rest = queue.popleft()
        if kind == "path":
            (to,) = rest
            u, sender = to, path[-1]
            if u in path:
                # cycle closed: answer as a unit-weight forced copy of u
                pos = path.index(u)
                if sender < path[pos + 1]:
                    f0, f1 = -math.inf, 0.0
                else:
                    f0, f1 = 0.0, -math.inf
                msg = _send(psi_pair(u, sender), f0, f1, [])
                emit_comp(path + (u,), msg, sender)
            elif len(graph.adjacency[u]) == 1:
                msg = _send(psi_pair(u, sender), phi[u][0], phi[u][1], [])
                emit_comp(path + (u,), msg, sender)
            else:
                for w in graph.adjacency[u]:
                    if w != sender:
                        emit_path(path + (u,), w)
        else:
            msg, to = rest
            child = path[-1]
            prefix = path[:-1]
            u = prefix[-1]
            assert u == to
            slot = pending.setdefault(prefix, {})
            slot[child] = msg
            if len(prefix) >= 2:
                needed = [w for w in graph.adjacency[u] if w != prefix[-2]]
            else:
                needed = list(graph.adjacency[u])
            if all(w in slot for w in needed):
                child_msgs = [slot[w] for w in needed]  # ascending id order
                del pending[prefix]
                if len(prefix) >= 2:
                    out = _send(
                        psi_pair(u, prefix[-2]), phi[u][0], phi[u][1], child_msgs
                    )
                    emit_comp(prefix, out, prefix[-2])
                else:
                    ratios[u] = _belief(phi[u][0], phi[u][1], child_msgs)

    assert len(ratios) == graph.n and not pending
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
    the ratio exceeds 1 and to 0 otherwise.  Conditioning is a -inf entry
    in the node potential.

    The result is an energy-optimal assignment, up to the rounding of the
    ratios: exactly optimal when distinct energies differ by more than that
    rounding, as with integer tables.  On ties it need not be the
    lexicographically smallest optimum that the brute-force solvers return,
    because the messages are normalized by log-sum-exp, whose rounding can
    turn an exact tie into a ratio just above 1; either state of a tied
    node extends to an optimum.
    """
    current = mrf
    states: list[int] = []
    for v in range(mrf.n):
        ratio = saw_max_ratio(build_saw_tree(current, v, cap))
        r = ratio.log_ratio()
        state = 1 if r > 0.0 else 0
        states.append(state)
        current = current.with_forced_node(v, state)
    return tuple(states)
