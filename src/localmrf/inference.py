"""Certified bounds on log Z and MAP estimates with a computable gap.

``certify`` checks an edge decomposition (``decompose.edge_cut`` looks up
its removed pairs, and no kept edge may cross two components), solves each
component it labels exactly once, and accounts for each removed edge by
its table minimum and maximum, so the gap is the removed edges' range sum
and the true quantity lies inside the bracket.  ``mode_estimate`` is its
MAP and ``log_partition_bounds`` its bracket, from a solve with no MAP tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .core import PairwiseMrf, energy, left_sum
from .decompose import Decomposition, edge_cut
from .exact import DEFAULT_CAP, solve_components
from .exact import component_solve  # noqa: F401  the perfbench tracer wraps this name


def _check_decomposition(mrf: PairwiseMrf, decomp: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """Reject a decomposition the certificate does not cover, in O(n + m):
    ``edge_cut``'s checks, and no kept edge may cross two components (it
    would be dropped from both the component solves and the bracket).
    Returns ``edge_cut``'s arrays: each node's component index and the
    removed edges as a boolean mask over ``graph.ends``."""
    comp_of, cut = edge_cut(mrf.graph, decomp)
    u, v = mrf.graph.ends.T
    crossing = np.flatnonzero((comp_of[u] != comp_of[v]) & ~cut)
    if len(crossing):
        a, b = mrf.graph.ends[crossing[0]].tolist()
        raise ValueError(f"kept edge ({a},{b}) crosses two components")
    return comp_of, cut


@dataclass(frozen=True)
class InferenceBounds:
    log_z_lb: float
    log_z_ub: float
    gap: float
    component_log_z: tuple[tuple[tuple[int, ...], float], ...]


@dataclass(frozen=True)
class MapEstimate:
    assignment: tuple[int, ...]
    energy: float
    guarantee_gap: float


@dataclass(frozen=True)
class ErrorCertificate:
    """Achieved error certificate of one run plus the a-priori bound.

    ``relative_gap`` is gap / lower bound; when the lower bound is not
    positive the certificate degrades to an absolute one and
    ``absolute_only`` is set.
    """

    relative_gap: float
    absolute_gap: float
    apriori_bound: float
    absolute_only: bool


def _bracket(mrf: PairwiseMrf, decomp: Decomposition, cap: int, with_map: bool):
    """Check ``decomp``, solve its components and bracket log Z: (bounds, x)."""
    comp_of, cut = _check_decomposition(mrf, decomp)
    log_z, x = solve_components(mrf, comp_of, cap, cut, with_map)
    total = left_sum(log_z)
    rows = np.flatnonzero(cut)
    lo, hi = mrf.edge_min[rows], mrf.edge_max[rows]
    bounds = InferenceBounds(
        log_z_lb=total + left_sum(lo),
        log_z_ub=total + left_sum(hi),
        gap=left_sum(hi - lo),  # edge_range_sum's terms and order: the same double
        # trailing empty components carry no label, so no log_z entry: 0.0 each
        component_log_z=tuple(zip_longest(decomp.components, log_z.tolist(), fillvalue=0.0)),
    )
    return bounds, x


def log_partition_bounds(
    mrf: PairwiseMrf, decomp: Decomposition, cap: int = DEFAULT_CAP
) -> InferenceBounds:
    """Lower and upper bounds on log Z from exact component solves.

    LB adds each removed edge's table minimum on top of the component
    log-partition sum, UB its maximum; LB <= log Z <= UB always holds.

    Components are solved as on the edge-pruned model: a removed edge whose
    endpoints stay connected through another path must not contribute its
    table inside the component, only its scalar minimum/maximum.  The
    solver skips the removed edges, so no pruned copy is built.
    """
    return _bracket(mrf, decomp, cap, with_map=False)[0]


def certify(
    mrf: PairwiseMrf, decomp: Decomposition, cap: int = DEFAULT_CAP
) -> tuple[InferenceBounds, MapEstimate]:
    """``log_partition_bounds`` and ``mode_estimate`` bit for bit, from one
    check and one fused solve per component, whose log Z is the same double."""
    bounds, x = _bracket(mrf, decomp, cap, with_map=True)
    assignment = tuple(x.tolist())
    return bounds, MapEstimate(assignment, energy(mrf, assignment), bounds.gap)


def mode_estimate(
    mrf: PairwiseMrf, decomp: Decomposition, cap: int = DEFAULT_CAP
) -> MapEstimate:
    """Stitch per-component exact MAPs into one global assignment.

    The result's energy is within the removed edges' range sum of the true
    optimum: H(x*) - gap <= H(estimate) <= H(x*).  The reported energy is
    the full model's, removed edges included.
    """
    return certify(mrf, decomp, cap)[1]


def relative_error_bound(
    mrf: PairwiseMrf,
    decomp: Decomposition,
    bounds: InferenceBounds | None = None,
    cap: int = DEFAULT_CAP,
) -> ErrorCertificate:
    """Certified relative error of a run and the a-priori expectation bound.

    The a-priori bound is eps * (max degree + 1) with eps the decomposition's
    removal-probability target; it bounds the expected relative gap for both
    the log-partition and the MAP estimate on non-negative models.
    """
    if bounds is None:
        bounds = log_partition_bounds(mrf, decomp, cap)
    apriori = decomp.eps_target * (mrf.graph.max_degree + 1)
    if bounds.log_z_lb > 0.0:
        return ErrorCertificate(
            relative_gap=bounds.gap / max(bounds.log_z_lb, 1e-300),
            absolute_gap=bounds.gap,
            apriori_bound=apriori,
            absolute_only=False,
        )
    return ErrorCertificate(
        relative_gap=float("inf"),
        absolute_gap=bounds.gap,
        apriori_bound=apriori,
        absolute_only=True,
    )
