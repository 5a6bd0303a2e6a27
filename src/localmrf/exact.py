"""Exact solvers: the component engine, the transfer sweep and the oracle.

* ``component_solve`` is the production engine of the certified bounds: one
  broadcast sweep per component gives its log Z and MAP together.
* ``grid_transfer_log_z`` and ``grid_transfer_map`` are the exact
  whole-model values on production paths: one sweep eliminates the nodes
  one at a time in descending id order, on any graph, and costs ``q`` to
  the number of nodes open at once (about ``q^(n+1)`` on an n x n lattice).
* ``brute_log_z``, ``brute_map`` and ``brute_max_marginal`` enumerate
  through per-digit index gathers, independently of both, and serve only
  as their test oracle.

Every routine has an explicit cap: exceeding it raises ``CapExceeded``
instead of silently truncating.  Assignments are enumerated in lexicographic
order (node 0 is the most significant digit), so first-maximum selection
yields the lexicographically smallest maximizer; the transfer sweep decodes
node 0 first and takes each node's first maximizing state, which gives the
same maximizer.  The component engine, the transfer sweep and the
brute-force oracle all break MAP ties that way; the walk-tree
``saw_component_map`` promises only an energy-optimal MAP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import CapExceeded, PairwiseMrf, energy

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
# Node-by-node transfer sweep for whole models
# ---------------------------------------------------------------------------


def _sweep(mrf: PairwiseMrf, cap: int, maximize: bool):
    """Eliminate nodes ``n-1, ..., 0`` into one table over the open nodes.

    A node opens when it or a higher neighbour is reached; the table's axes
    are the open nodes in ascending order, so the node being eliminated is
    always the last axis.  Reaching ``v`` adds ``phi_v`` and the tables of
    ``v``'s edges to lower neighbours, then reduces ``v``'s axis by
    log-sum-exp or, when ``maximize``, by max, keeping the first argmax over
    ``v`` per state of the remaining open nodes.  On a row-major lattice
    this is the row transfer-matrix sweep taken one node at a time.

    Returns the eliminated value (log Z, or the maximum energy) and the
    argmax tables as ``(v, axes, table)`` in elimination order.  A table
    over more than ``cap`` entries raises ``CapExceeded``.
    """
    q = mrf.q
    lower: list[list[tuple[int, int]]] = [[] for _ in range(mrf.n)]
    for i, (u, v) in enumerate(mrf.edge_list):
        lower[v].append((u, i))
    # the open nodes before and while each node is eliminated, checked
    # against the cap before any table is built
    schedule = []
    opened: list[int] = []
    for v in range(mrf.n - 1, -1, -1):
        merged = sorted(set(opened).union([v], (u for u, _ in lower[v])))
        if q ** len(merged) > cap:
            raise CapExceeded(
                f"transfer sweep needs a table of {q}^{len(merged)} entries (cap={cap})"
            )
        schedule.append((v, opened, merged))
        opened = merged[:-1]
    choice_dtype = np.min_scalar_type(q - 1)
    table = np.zeros(())
    choices = []
    for v, before, nodes in schedule:
        table = np.expand_dims(
            table, tuple(a for a, w in enumerate(nodes) if w not in before)
        )
        width = len(nodes)
        table = table + mrf.phi[v].reshape(_axes_shape(width, q, width - 1))
        for u, i in lower[v]:
            shape = _axes_shape(width, q, nodes.index(u), width - 1)
            table = table + mrf.psi[i].reshape(shape)
        if maximize:
            choice = table.argmax(axis=-1).astype(choice_dtype)
            choices.append((v, tuple(nodes[:-1]), choice))
            table = table.max(axis=-1)
        else:
            m = table.max(axis=-1, keepdims=True)
            m[m == -np.inf] = 0.0
            with np.errstate(divide="ignore"):
                table = np.log(np.exp(table - m).sum(axis=-1)) + m[..., 0]
    return float(table), choices


def grid_transfer_log_z(mrf: PairwiseMrf, cap: int = DEFAULT_CAP) -> float:
    """Exact log Z of a whole model by the node-by-node transfer sweep.

    Works on any graph; the cost is set by the widest table, ``q`` to the
    number of open nodes, which on an n x n lattice is about ``q^(n+1)``.
    """
    return _sweep(mrf, cap, maximize=False)[0]


def grid_transfer_map(
    mrf: PairwiseMrf, cap: int = DEFAULT_CAP
) -> tuple[tuple[int, ...], float]:
    """Exact MAP of a whole model (lexicographically smallest) and its energy.

    Decodes nodes in ascending id order from the sweep's first-argmax
    tables: each node takes the smallest state with a maximizing completion
    of the states already chosen, which yields the lexicographically
    smallest maximizer.
    """
    _, choices = _sweep(mrf, cap, maximize=True)
    x = [0] * mrf.n
    for v, axes, table in reversed(choices):
        x[v] = int(table[tuple(x[u] for u in axes)])
    assignment = tuple(x)
    return assignment, energy(mrf, assignment)
