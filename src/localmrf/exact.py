"""Exact solvers: the component engine and two oracles.

* ``component_solve`` is the production engine of the certified bounds: one
  broadcast sweep per component gives its log Z and MAP together.
* ``brute_log_z``, ``brute_map`` and ``brute_max_marginal`` enumerate
  through per-digit index gathers, independently of the engine, and serve
  as its test oracle and as the exact reference on small whole models.
* ``grid_transfer_log_z`` and ``grid_transfer_map`` sweep the rows of a
  grid or cris-cross model, exact far beyond enumeration range.

Every routine has an explicit cap: exceeding it raises ``CapExceeded``
instead of silently truncating.  Assignments are enumerated in lexicographic
order (node 0 is the most significant digit), so first-maximum selection
yields the lexicographically smallest maximizer; the component engine and
the brute-force and transfer oracles all break MAP ties that way.  The
walk-tree ``saw_component_map`` promises only an energy-optimal MAP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import CapExceeded, Graph, PairwiseMrf, check_assignment, energy

DEFAULT_CAP = 2**24
_CHUNK = 2**18


@dataclass(frozen=True)
class ExactResult:
    """Exact log-partition value and MAP for (a sub-model of) an MRF."""

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


def _axes_shape(width: int, q: int, *axes: int) -> tuple[int, ...]:
    shape = [1] * width
    for a in axes:
        shape[a] = q
    return tuple(shape)


def _block_energies(mrf: PairwiseMrf, lead: tuple[int, ...]) -> np.ndarray:
    """Energies of the assignments whose leading digits are ``lead``.

    The trailing ``n - len(lead)`` nodes span the block's axes in
    lexicographic order.  Every state receives its node terms in node order
    and then its edge terms in edge order, each as one broadcast addition,
    so each energy equals ``_chunk_energies``' bit for bit.
    """
    q, k = mrf.q, len(lead)
    width = mrf.n - k
    e = np.zeros((q,) * width)
    for v in range(mrf.n):
        if v < k:
            e += mrf.phi[v, lead[v]]
        else:
            e += mrf.phi[v].reshape(_axes_shape(width, q, v - k))
    for i, (u, v) in enumerate(mrf.edge_list):
        t = mrf.psi[i]
        if v < k:
            e += t[lead[u], lead[v]]
        elif u < k:
            e += t[lead[u]].reshape(_axes_shape(width, q, v - k))
        else:
            e += t.reshape(_axes_shape(width, q, u - k, v - k))
    return e.ravel()


def component_solve(
    mrf: PairwiseMrf, nodes, cap: int = DEFAULT_CAP
) -> ExactResult:
    """Exact log Z and MAP of the sub-MRF induced on ``nodes``.

    Only edges with both endpoints inside ``nodes`` contribute.  One sweep
    over the ``q^k`` assignments of the ``k`` component nodes yields the
    log-sum-exp and the first maximizer together.  The sweep runs in blocks:
    a block fixes the leading digits and spans the trailing ``c`` nodes,
    with ``c`` the largest width such that ``q^c <= 2^18``; blocks run in
    lexicographic order, so the first maximum found is the lexicographically
    smallest maximizer.  Energies equal ``brute_map``'s bit for bit, and for
    q = 2 the blocks are ``brute_log_z``'s chunks, so log Z is bit-identical
    too.  More than ``cap`` assignments raise ``CapExceeded``, which usually
    means a decomposition produced an oversized component.
    """
    sub, order = mrf.induced(nodes)
    q, k = sub.q, sub.n
    if q**k > cap:
        raise CapExceeded(
            f"component of {k} nodes needs {q}^{k} states (cap={cap})"
        )
    width = k
    while q**width > _CHUNK:
        width -= 1
    # m is the running maximum energy and s the sum of exp(energy - m)
    m = -np.inf
    s = 0.0
    best_idx = 0
    for b, lead in enumerate(itertools.product(range(q), repeat=k - width)):
        e = _block_energies(sub, lead)
        i = int(np.argmax(e))
        cm = float(e[i])
        if cm > m:
            s = s * np.exp(m - cm) + float(np.exp(e - cm).sum())
            m = cm
            best_idx = b * q**width + i
        elif cm > -np.inf:
            s += float(np.exp(e - m).sum())
    log_z = -np.inf if m == -np.inf else m + float(np.log(s))
    return ExactResult(log_z, _index_to_assignment(sub, best_idx), m, order)


# ---------------------------------------------------------------------------
# Transfer-matrix sweep for grid / cris-cross models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridShape:
    rows: int
    cols: int
    criscross: bool


def detect_grid(graph: Graph) -> GridShape:
    """Recognize a row-major grid or cris-cross layout of the node ids.

    Tries every factorization rows*cols = n and matches the edge set
    exactly; raises ``ValueError`` when nothing matches.
    """
    from .core import criscross_graph, grid_graph

    n = graph.n
    if n == 0:
        raise ValueError("empty graph")
    # widest-rows first, so a path matches as n x 1 (cheap row states)
    for rows in range(n, 0, -1):
        if n % rows:
            continue
        cols = n // rows
        if graph.edges == grid_graph(rows, cols).edges:
            return GridShape(rows, cols, False)
        if (
            rows > 1
            and cols > 1
            and graph.edges == criscross_graph(rows, cols).edges
        ):
            return GridShape(rows, cols, True)
    raise ValueError("graph is not a row-major grid or cris-cross lattice")


def _row_tables(mrf: PairwiseMrf, shape: GridShape):
    """Per-row state energies and row-to-row transition matrices.

    States of a row are the q^cols assignments of its nodes, indexed with
    the leftmost column as the most significant digit, so state order equals
    lexicographic order of the row tuple.
    """
    rows, cols = shape.rows, shape.cols
    q = mrf.q
    s_count = q**cols
    digits = np.empty((s_count, cols), dtype=np.int64)
    idx = np.arange(s_count, dtype=np.int64)
    for c in range(cols):
        digits[:, c] = (idx // q ** (cols - 1 - c)) % q

    def node(r, c):
        return r * cols + c

    intra = []
    for r in range(rows):
        w = np.zeros(s_count)
        for c in range(cols):
            w += mrf.phi[node(r, c)][digits[:, c]]
        for c in range(cols - 1):
            t = mrf.edge_table(node(r, c), node(r, c + 1))
            w += t[digits[:, c], digits[:, c + 1]]
        intra.append(w)

    trans = []
    for r in range(rows - 1):
        t = np.zeros((s_count, s_count))
        for c in range(cols):
            tab = mrf.edge_table(node(r, c), node(r + 1, c))
            t += tab[digits[:, c][:, None], digits[:, c][None, :]]
        if shape.criscross:
            for c in range(cols - 1):
                tab = mrf.edge_table(node(r, c), node(r + 1, c + 1))
                t += tab[digits[:, c][:, None], digits[:, c + 1][None, :]]
                tab = mrf.edge_table(node(r, c + 1), node(r + 1, c))
                t += tab[digits[:, c + 1][:, None], digits[:, c][None, :]]
        trans.append(t)
    return digits, intra, trans


def _transfer_budget(mrf: PairwiseMrf, shape: GridShape, cap: int) -> None:
    states = mrf.q**shape.cols
    if states * states * max(1, shape.rows) > cap:
        raise CapExceeded(
            f"transfer sweep needs {states}^2 x {shape.rows} table entries (cap={cap})"
        )


def grid_transfer_log_z(mrf: PairwiseMrf, cap: int = 2**28) -> float:
    """Exact log Z of a grid/cris-cross model by a row-sweep in log domain."""
    shape = detect_grid(mrf.graph)
    _transfer_budget(mrf, shape, cap)
    _, intra, trans = _row_tables(mrf, shape)
    alpha = intra[0]
    for r in range(shape.rows - 1):
        stacked = alpha[:, None] + trans[r]
        m = stacked.max(axis=0)
        alpha = m + np.log(np.exp(stacked - m[None, :]).sum(axis=0)) + intra[r + 1]
    m = float(alpha.max())
    return m + float(np.log(np.exp(alpha - m).sum()))


def grid_transfer_map(
    mrf: PairwiseMrf, cap: int = 2**28
) -> tuple[tuple[int, ...], float]:
    """Exact MAP of a grid/cris-cross model (lexicographically smallest).

    Backward max-sweep over rows followed by a greedy forward selection
    that always picks the smallest row state achieving the maximum; with
    the big-endian row-state indexing that yields the lexicographically
    smallest global maximizer.
    """
    shape = detect_grid(mrf.graph)
    _transfer_budget(mrf, shape, cap)
    digits, intra, trans = _row_tables(mrf, shape)
    rows, cols = shape.rows, shape.cols

    beta = [None] * rows
    beta[rows - 1] = intra[rows - 1]
    for r in range(rows - 2, -1, -1):
        beta[r] = intra[r] + (trans[r] + beta[r + 1][None, :]).max(axis=1)

    states = []
    s = int(np.argmax(beta[0]))
    states.append(s)
    for r in range(rows - 1):
        s = int(np.argmax(trans[r][s] + beta[r + 1]))
        states.append(s)

    x = np.empty(mrf.n, dtype=int)
    for r, s in enumerate(states):
        x[r * cols : (r + 1) * cols] = digits[s]
    assignment = tuple(int(v) for v in x)
    check_assignment(mrf, assignment)
    return assignment, energy(mrf, assignment)
