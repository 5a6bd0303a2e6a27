"""Certified local inference on pairwise Markov random fields.

Bounds the log-partition function from both sides and estimates the MAP
assignment with a computable error gap, by decomposing the graph into small
components (random ball carving, BFS-layer cutting, or deterministic grid
slabs), solving each component exactly, and charging every removed edge its
potential-table range.  Also includes self-avoiding-walk-tree max-marginal
machinery with a distributed message-passing schedule, a factor-graph to
maximum-weight-independent-set reduction, exact oracles, and an experiment
harness.
"""

from .core import (
    CapExceeded,
    FormatError,
    Graph,
    PairwiseMrf,
    affine_shift,
    connected_components,
    criscross_graph,
    doubling_dimension_exact,
    dump_mrf,
    energy,
    grid_graph,
    load_mrf,
    parse_mrf_text,
    shortest_path_ball,
    write_mrf_text,
)
from .decompose import (
    Decomposition,
    RadiusLaw,
    criscross_decomposition,
    db_dim_edge,
    db_dim_target_eps,
    db_dim_vertex,
    empty_edge_decomposition,
    grid_decomp,
    k_param,
    line_graph,
    minor_edge,
    minor_vertex,
)
from .exact import (
    ExactResult,
    brute_log_z,
    brute_map,
    brute_max_marginal,
    component_solve,
    grid_transfer_log_z,
    grid_transfer_map,
    solve_components,
    solve_model,
)
from .inference import (
    InferenceBounds,
    MapEstimate,
    certify,
    log_partition_bounds,
    mode_estimate,
)
from .mwis import (
    FactorModel,
    MwisInstance,
    factor_to_mwis,
    max_weight_independent_set,
    mwis_as_binary_mrf,
    mwis_to_assignment,
)
from .saw import (
    RatioPair,
    SawTree,
    build_saw_tree,
    msg_pass_mode,
    saw_component_map,
    saw_max_ratio,
    saw_size_upper,
    size_lower_bound_family,
)

__version__ = "0.1.0"
