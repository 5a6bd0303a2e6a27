"""Exact solvers: the elimination engine and the brute-force oracle.

* ``solve_components`` is the one exact engine.  It reads the components
  as one label per node, as ``core.sweep`` and ``decompose.edge_cut`` give
  them, groups them by shape in a few array passes over the graph's
  ``ends`` (no walk per node) and runs one batched variable-elimination
  sweep per group, which eliminates the nodes in descending id order and
  yields log Z and the MAP together.  Each shape's elimination is compiled
  once into a plan of index tuples (``_plan``, keyed by the shape's node
  count and the bytes of its local edge ends), kept across calls for the
  last ``_PLAN_SHAPES`` shapes used, so a sweep does only table
  arithmetic.  It returns each component's log Z and one assignment over
  all nodes that stitches the components' maximizers.
  ``component_solve`` (one component) and ``solve_model`` (a whole model,
  one connected component at a time; also through ``grid_transfer_map``)
  read those arrays and call ``energy`` for the MAP's energy, and
  ``grid_transfer_log_z`` runs the engine for log Z alone, building no MAP
  table.
* ``brute_log_z``, ``brute_map`` and ``brute_max_marginal`` enumerate
  through per-digit index gathers, independently of it, and serve only as
  its test oracle.

Every routine has an explicit cap: exceeding it raises ``CapExceeded``
instead of silently truncating.  The engine's cap bounds its widest table,
``q`` to the number of nodes open at once (about ``q^(n+1)`` on an n x n
lattice), per component; the oracle's cap bounds the ``q^n`` assignments it
enumerates.  Assignments are enumerated in lexicographic order (node 0 is
the most significant digit), so first-maximum selection yields the
lexicographically smallest maximizer; the engine decodes node 0 first and
takes each node's first maximizing state, which gives the same maximizer.
The engine and the oracle both break MAP ties that way; the walk-tree
``saw_component_map`` promises only an energy-optimal MAP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import CapExceeded, PairwiseMrf, energy, left_sum, sweep

DEFAULT_CAP = 2**24
_CHUNK = 2**18
# distinct component shapes whose compiled elimination stays cached
_PLAN_SHAPES = 256
_ALL = slice(None)


@dataclass(frozen=True)
class ExactResult:
    """Exact log-partition value and MAP of one component or a whole model."""

    log_z: float
    map_assignment: tuple[int, ...]
    map_energy: float
    nodes: tuple[int, ...]


def _state_count(mrf: PairwiseMrf, cap: int) -> int:
    total = mrf.q**mrf.n
    if total > cap:
        raise CapExceeded(
            f"enumeration of {mrf.q}^{mrf.n} assignments exceeds cap={cap}"
        )
    return total


def _chunk_energies(mrf: PairwiseMrf, idx: np.ndarray) -> np.ndarray:
    """Energies of the assignments with the given lexicographic indices."""
    q, n = mrf.q, mrf.n
    digits = [(idx // q ** (n - 1 - v)) % q for v in range(n)]
    e = np.zeros(len(idx))
    for v in range(n):
        e += mrf.phi[v][digits[v]]
    for i, (u, v) in enumerate(mrf.edge_list):
        e += mrf.psi[i].ravel()[digits[u] * q + digits[v]]
    return e


def _iter_energy_chunks(mrf: PairwiseMrf, total: int):
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield start, _chunk_energies(mrf, idx)


def _index_to_assignment(mrf: PairwiseMrf, idx: int) -> tuple[int, ...]:
    q, n = mrf.q, mrf.n
    return tuple((idx // q ** (n - 1 - v)) % q for v in range(n))


def brute_log_z(mrf: PairwiseMrf, cap: int = DEFAULT_CAP) -> float:
    """log of the sum of exp(energy) over all assignments (log-sum-exp)."""
    total = _state_count(mrf, cap)
    m = -np.inf
    s = 0.0
    for _, e in _iter_energy_chunks(mrf, total):
        cm = float(e.max())
        if cm == -np.inf:
            continue
        if cm > m:
            s = s * np.exp(m - cm) + float(np.exp(e - cm).sum())
            m = cm
        else:
            s += float(np.exp(e - m).sum())
    if m == -np.inf:
        return -np.inf
    return m + float(np.log(s))


def brute_map(
    mrf: PairwiseMrf, cap: int = DEFAULT_CAP
) -> tuple[tuple[int, ...], float]:
    """Lexicographically smallest energy maximizer and its energy."""
    total = _state_count(mrf, cap)
    best = -np.inf
    best_idx = 0
    for start, e in _iter_energy_chunks(mrf, total):
        i = int(np.argmax(e))
        if e[i] > best:
            best = float(e[i])
            best_idx = start + i
    return _index_to_assignment(mrf, best_idx), best


def brute_max_marginal(
    mrf: PairwiseMrf, v: int, cap: int = DEFAULT_CAP
) -> tuple[float, float]:
    """(max energy with x_v=0, max energy with x_v=1); binary models only."""
    if mrf.q != 2:
        raise ValueError("max-marginals are computed for binary models only")
    total = _state_count(mrf, cap)
    best = [-np.inf, -np.inf]
    shift = mrf.n - 1 - v
    for start, e in _iter_energy_chunks(mrf, total):
        idx = np.arange(start, start + len(e), dtype=np.int64)
        bit = (idx >> shift) & 1
        for g in (0, 1):
            sel = e[bit == g]
            if len(sel):
                best[g] = max(best[g], float(sel.max()))
    return best[0], best[1]


@functools.lru_cache(maxsize=_PLAN_SHAPES)
def _plan(k: int, pairs: bytes) -> tuple[int, tuple]:
    """The elimination of one component shape, compiled into its steps.

    A shape is its node count ``k`` and its edges' local ``(lower, upper)``
    ends as ``intp`` bytes, ordered by upper node, then lower node; from
    them ``lower[v]`` lists ``v``'s lower neighbours, ascending.  Nodes are
    eliminated in the order ``k-1, ..., 0``; a node opens when it or a
    higher neighbour is reached, and the open nodes, ascending after the
    batch axis, are a table's axes, so the node eliminated is the last.
    Returns the most nodes open at once and the steps.  Step ``(v, at,
    terms, grow, axes)``: ``at`` places ``phi[:, v]`` on the step's open
    nodes and each of ``terms`` one lower edge's ``psi[:, j]`` (edges
    numbered as in ``_eliminate``), ``grow`` opens the carried tables' new
    axes (None when none opens), and ``axes`` are the nodes still open
    after ``v``.
    """
    lower: list[list[int]] = [[] for _ in range(k)]
    for u, v in np.frombuffer(pairs, np.intp).reshape(-1, 2).tolist():
        lower[v].append(u)
    j = sum(map(len, lower))
    steps = []
    opened: list[int] = []
    most = 0
    for v in range(k - 1, -1, -1):
        nodes = sorted(set(opened).union([v], lower[v]))
        width = len(nodes)
        most = max(most, width)
        pad = (None,) * (width - 1)
        terms = []
        j -= len(lower[v])
        for i, u in enumerate(lower[v], j):
            a = nodes.index(u)
            terms.append((_ALL, i) + pad[:a] + (_ALL,) + pad[a + 1 :] + (_ALL,))
        grow = None
        if len(opened) < width:
            grow = (_ALL,) + tuple(_ALL if w in opened else None for w in nodes)
        opened = nodes[:-1]
        at = (_ALL, v) + pad + (_ALL,)
        steps.append((v, at, tuple(terms), grow, tuple(opened)))
    return most, tuple(steps)


def _eliminate(phi, psi, plan, q: int, with_map: bool):
    """One fused elimination over a batch of components of one shape.

    ``phi`` is ``(B, k, q)`` and ``psi`` ``(B, m, q, q)``.  Local edges are
    numbered by upper node, then by lower neighbour, both ascending:
    ``psi[:, j]`` is the table of the ``j``-th pair ``(u, v)``, ``u < v``,
    in that order, with ``x_u`` on its first axis.  ``plan`` is the steps
    of the shape's ``_plan``.  Each node's ``phi_v`` and lower edges'
    ``psi`` form one local table, added to a log-sum-exp table and a max
    table over the open nodes, both with a leading batch axis; the max
    table keeps each node's first argmax.  Decoding then runs in ascending
    id order, so each node takes the smallest state with a maximizing
    completion of the states already chosen: the lexicographically
    smallest maximizer.  A component whose maximum is ``-inf`` decodes to
    all zeros, brute's first maximizer.

    Returns log Z per component and the ``(B, k)`` MAP assignments; without
    ``with_map`` only the log-sum-exp table is kept and the MAP is None.
    """
    batch, k = phi.shape[:2]
    choice_dtype = np.min_scalar_type(q - 1)
    lse = np.zeros(batch)
    mx = np.zeros(batch)
    choices = []
    for v, at, terms, grow, axes in plan:
        local = phi[at]
        for idx in terms:
            local = local + psi[idx]
        if grow is None:
            lse += local
        else:
            lse = lse[grow] + local
        # reduce the last axis one state at a time: numpy reduces a short
        # last axis far more slowly than it adds two slices
        lse = functools.reduce(np.logaddexp, (lse[..., s] for s in range(q)))
        if not with_map:
            continue
        if grow is None:
            mx += local
        else:
            mx = mx[grow] + local
        best = mx[..., 0]
        choice = np.zeros(best.shape, dtype=choice_dtype)
        for s in range(1, q):
            np.copyto(choice, s, where=mx[..., s] > best)
            best = np.maximum(best, mx[..., s])
        choices.append((v, axes, choice))
        mx = best
    if not with_map:
        return lse, None
    rows = np.arange(batch)
    x = np.zeros((batch, k), dtype=np.intp)
    for v, axes, choice in reversed(choices):
        x[:, v] = choice[(rows, *(x[:, u] for u in axes))]
    x[mx == -np.inf] = 0
    return lse, x


def solve_components(
    mrf: PairwiseMrf, labels, cap: int = DEFAULT_CAP,
    cut=None, with_map: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact log Z and MAP of the sub-MRF induced on each set of a labelling.

    ``labels`` holds one integer per node: the index of the node's set, or
    -1 for a node in no set.  Only edges with both endpoints in one set
    contribute, less the edges flagged in ``cut`` (a boolean mask over
    ``graph.ends``; None removes nothing): the results are those of the
    pruned model.  Returns ``(log_z, x)``: ``log_z`` holds one float per set
    ``0..labels.max()`` (its memory grows with that, not ``n``), 0.0 for a
    set no node carries, and ``x`` is one assignment over all ``n`` nodes
    that holds each set's lexicographically smallest maximizer on that
    set's nodes and 0 on nodes in no set.  Without ``with_map`` no MAP
    table is built and ``x`` is None.  Labels that are not ``n`` integers
    of at least -1 raise ``ValueError``.

    Sets are grouped by shape (their nodes relabelled ``0..k-1`` in
    ascending order, with each node's lower neighbours) in array passes
    over ``graph.ends``: one stable ``argsort`` of the labels lays the
    sets' nodes out set after set, each ascending, the kept edges are
    ordered by upper and lower node in that layout with one ``lexsort``,
    and a set's shape is its node count and the bytes of its slice of their
    local ends.  Groups keep the order of their first set, and each runs
    one batched elimination of its nodes in descending order along the
    shape's cached ``_plan``; see ``_eliminate``.  A set whose widest table
    holds more than ``cap`` entries raises ``CapExceeded`` before any table
    is built; a group's batch is split so that no batched table holds more
    than ``cap`` entries.
    """
    n, q = mrf.n, mrf.q
    labels = np.asarray(labels)
    if not (labels.dtype.kind in "iu" and np.can_cast(labels.dtype, np.intp)
            and labels.shape == (n,) and (labels >= -1).all()):
        raise ValueError(f"labels must be {n} integers, each a set index or -1")
    labels = labels.astype(np.intp, copy=False)
    # slots: the nodes in no set, then the sets' nodes, set after set, each
    # set ascending; set c holds slots offsets[c] to offsets[c + 1] - 1
    nodes = np.argsort(labels, kind="stable")
    offsets = np.cumsum(np.bincount(labels + 1, minlength=1))
    sizes = np.diff(offsets).tolist()
    slot = np.empty(n, dtype=np.intp)
    slot[nodes] = np.arange(n)
    # an edge is kept when both ends lie in one set, unless it is cut
    sets = labels[mrf.graph.ends.T]
    keep = (sets[0] == sets[1]) & (sets[0] >= 0)
    if cut is not None:
        keep &= np.logical_not(cut)
    rows = keep.nonzero()[0]
    ends = slot[mrf.graph.ends[rows].T]
    # by upper slot, then lower slot: by set first, since slots run set after set
    by_slot = np.lexsort(ends)
    rows, ends = rows[by_slot], ends[:, by_slot]
    first_row = ends[1].searchsorted(offsets)  # each set's first kept edge
    # each edge's local (lower, upper) ends, one pair after the other
    blob = (ends - offsets[sets[0, rows]]).tobytes(order="F")
    pair = 2 * ends.itemsize
    bounds = first_row.tolist()
    groups: dict[tuple, list[int]] = {}
    for c, k in enumerate(sizes):
        key = (k, blob[bounds[c] * pair : bounds[c + 1] * pair])
        groups.setdefault(key, []).append(c)
    plans = []
    for (k, pairs), members in groups.items():
        width, plan = _plan(k, pairs)
        if q**width > cap:
            raise CapExceeded(
                f"component of {k} nodes needs an elimination table "
                f"of {q}^{width} entries (cap={cap})"
            )
        plans.append((plan, cap // q**width, members, k, len(pairs) // pair))
    log_z = np.zeros(len(sizes))
    x = np.zeros(n, dtype=np.intp) if with_map else None
    at = np.arange(max(n, len(rows)))
    for plan, step, members, k, m in plans:
        for s in range(0, len(members), step):
            idx = np.array(members[s : s + step], dtype=np.intp)
            orders = nodes[offsets[idx][:, None] + at[:k]]
            psi = mrf.psi[rows[first_row[idx][:, None] + at[:m]]]
            z, xs = _eliminate(mrf.phi[orders], psi, plan, q, with_map)
            log_z[idx] = z
            if with_map:
                x[orders] = xs
    return log_z, x


def component_solve(
    mrf: PairwiseMrf, nodes, cap: int = DEFAULT_CAP
) -> ExactResult:
    """Exact log Z and MAP of the sub-MRF induced on ``nodes``.

    Only edges with both endpoints inside ``nodes`` contribute.  One
    elimination sweep of ``solve_components`` gives the log Z and the
    lexicographically smallest maximizer together; ``map_energy`` is
    ``energy`` on the induced sub-model.  A widest elimination table of
    more than ``cap`` entries raises ``CapExceeded``.
    """
    sub, order = mrf.induced(nodes)
    labels = np.full(mrf.n, -1, dtype=np.intp)
    labels[list(order)] = 0
    log_z, x = solve_components(mrf, labels, cap)
    assignment = tuple(x[list(order)].tolist())
    z = float(log_z[0]) if order else 0.0  # no nodes label no set
    return ExactResult(z, assignment, energy(sub, assignment), order)


def solve_model(mrf: PairwiseMrf, cap: int = DEFAULT_CAP) -> ExactResult:
    """Exact log Z and MAP of a whole model, one connected component at a time.

    log Z is the sum of the components' values and the MAP stitches their
    maximizers; when a component has no feasible state every assignment
    has energy ``-inf``, and the MAP is all zeros, brute's first maximizer.
    """
    log_z, x = solve_components(mrf, sweep(mrf.graph)[0], cap)
    total = left_sum(log_z)
    if total == -np.inf:
        x[:] = 0
    return ExactResult(total, tuple(x.tolist()), energy(mrf, x), tuple(range(mrf.n)))


def grid_transfer_log_z(mrf: PairwiseMrf, cap: int = DEFAULT_CAP) -> float:
    """Exact log Z of a whole model, summed over its connected components as
    ``solve_model`` sums it, but with no MAP table built."""
    return left_sum(solve_components(mrf, sweep(mrf.graph)[0], cap, with_map=False)[0])


def grid_transfer_map(
    mrf: PairwiseMrf, cap: int = DEFAULT_CAP
) -> tuple[tuple[int, ...], float]:
    """Exact MAP of a whole model (lexicographically smallest) and its energy."""
    res = solve_model(mrf, cap)
    return res.map_assignment, res.map_energy
