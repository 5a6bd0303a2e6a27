"""Experiment harness: model generators, trial runner, analytic bound curves,
and the normalized free-energy sequence.

Models are binary lattice fields in the usual product form: node exponent
theta_i * x_i, edge exponent theta_ij * x_i * x_j, with the thetas drawn
uniformly from intervals controlled by a strength parameter; an affine
shift makes every table non-negative before inference runs.  Trials are
reproducible from (seed, alpha, trial index) and results serialize to CSV
with exact float round-tripping.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    CapExceeded,
    FormatError,
    Graph,
    PairwiseMrf,
    _numbers,
    _rows,
    affine_shift,
    criscross_graph,
    grid_graph,
)
from .decompose import _rng, criscross_decomposition, grid_decomp, scheme
from .decompose import minor_edge  # noqa: F401  the perfbench tracer wraps this name
from .exact import grid_transfer_log_z, solve_model
from .exact import grid_transfer_map  # noqa: F401  the perfbench tracer wraps this name
from .inference import certify, log_partition_bounds
from .inference import mode_estimate  # noqa: F401  the perfbench tracer wraps this name
from .saw import size_lower_bound_family

VARYING_INTERACTION = "varying-interaction"
VARYING_FIELD = "varying-field"
FIELD_HALF_WIDTH = 0.05     # theta_i range in the varying-interaction mode
INTERACTION_HALF_WIDTH = 0.5  # theta_ij range in the varying-field mode


def _half_widths(mode: str, alpha: float) -> tuple[float, float]:
    """The (theta_i, theta_ij) half widths of ``sample_potentials``."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if mode == VARYING_INTERACTION:
        return FIELD_HALF_WIDTH, alpha
    if mode == VARYING_FIELD:
        return alpha, INTERACTION_HALF_WIDTH
    raise ValueError(f"unknown mode: {mode}")


def sample_potentials(
    graph: Graph, mode: str, alpha: float, seed: int
) -> PairwiseMrf:
    """Random product-form tables, affine-shifted to be non-negative.

    varying-interaction: theta_i ~ U[-0.05, 0.05], theta_ij ~ U[-alpha, alpha].
    varying-field:       theta_i ~ U[-alpha, alpha], theta_ij ~ U[-0.5, 0.5].
    """
    field_w, inter_w = _half_widths(mode, alpha)
    rng = _rng(seed)
    theta_node = rng.uniform(-field_w, field_w, size=graph.n)
    theta_edge = rng.uniform(-inter_w, inter_w, size=len(graph.ends))
    phi = np.zeros((graph.n, 2))
    phi[:, 1] = theta_node
    psi = np.zeros((len(graph.ends), 2, 2))
    psi[:, 1, 1] = theta_edge
    raw = PairwiseMrf(graph, 2, phi, psi)
    shifted, _ = affine_shift(raw)
    return shifted


# ---------------------------------------------------------------------------
# Experiment specification and trial records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: topology x potential mode x strength grid x decomposition grid.

    Topologies: ``grid`` and ``criscross`` are n x n lattices;
    ``linechords`` is the chordal ring with ``chords_k`` extra edges;
    ``random`` draws one Erdos-Renyi graph with edge probability ``p`` from
    the sweep seed.  With ``oracle="transfer"`` every topology gets its
    exact comparison from the exact engine, run on each connected
    component; a record whose model has a component too wide for the
    engine's cap keeps its exact fields empty.
    """

    topology: str = "grid"          # grid | criscross | linechords | random
    n: int = 7
    mode: str = VARYING_INTERACTION
    alphas: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    decomp: str = "minore"          # minore | grid | dbdim | none
    r: int = 3
    lambdas: tuple[int, ...] = (3, 4, 5)
    ks: tuple[int, ...] = (2,)
    eps: float = 0.25
    K: int = 40
    chords_k: int = 2
    p: float = 0.3
    trials: int = 40
    seed: int = 0
    oracle: str = "transfer"        # transfer | none

    def params_grid(self) -> tuple[int, ...]:
        if self.decomp == "minore":
            return self.lambdas
        if self.decomp == "grid":
            return self.ks
        return (0,)

    def validate(self) -> None:
        if self.topology not in ("grid", "criscross", "linechords", "random"):
            raise ValueError(f"unknown topology {self.topology}")
        if self.topology in ("grid", "criscross") and self.n < 2:
            raise ValueError("need n >= 2")
        if self.decomp not in ("minore", "grid", "dbdim", "none"):
            raise ValueError(f"unknown decomposition {self.decomp}")
        if self.decomp == "grid" and self.topology in ("linechords", "random"):
            raise ValueError("slab decomposition needs a lattice topology")
        if not self.alphas or not self.params_grid():
            raise ValueError("parameter grids must be non-empty")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.oracle not in ("transfer", "none"):
            raise ValueError(f"unknown oracle {self.oracle}")
        for alpha in self.alphas:
            _half_widths(self.mode, alpha)
        # only the slab cut reads the graph; it cuts a cris-cross's grid
        grid = grid_graph(self.n) if self.decomp == "grid" else None
        for param in self.params_grid():
            scheme(grid, self.decomp, self.eps, self.K, self.r, param, param)

    def build_graph(self) -> Graph:
        if self.topology == "grid":
            return grid_graph(self.n)
        if self.topology == "criscross":
            return criscross_graph(self.n)
        if self.topology == "linechords":
            return size_lower_bound_family(self.n, self.chords_k)
        rng = _rng(self.seed, 97)
        edges = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if rng.random() < self.p
        ]
        return Graph(self.n, edges)


def parse_experiment_spec(text: str) -> ExperimentSpec:
    """Flat key=value lines; '#' comments; lists comma-separated.

    A malformed line (no '=', unknown or repeated key, bad or non-finite
    number, empty value) raises ``FormatError`` naming it.
    """
    values: dict[str, object] = {}
    for no, tokens in _rows(text):
        line = " ".join(tokens)
        if "=" not in line:
            raise FormatError(f"line {no}: expected key=value, got: {line}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in values:
            raise FormatError(f"line {no}: duplicate key {key}")
        if key in ("n", "r", "trials", "seed", "K", "chords_k"):
            (values[key],) = _numbers(no, [val], int)
        elif key in ("eps", "p"):
            (values[key],) = _numbers(no, [val])
        elif key == "alphas":
            values[key] = tuple(_numbers(no, val.split(",")))
        elif key in ("lambdas", "ks"):
            values[key] = tuple(_numbers(no, val.split(","), int))
        elif key in ("topology", "mode", "decomp", "oracle"):
            values[key] = val
        else:
            raise FormatError(f"line {no}: unknown spec key: {key}")
    spec = ExperimentSpec(**values)
    spec.validate()
    return spec


@dataclass
class TrialRecord:
    topology: str
    n: int
    mode: str
    alpha: float
    decomp: str
    param: int
    trial: int
    model_seed: int
    decomp_seed: int
    lb: float
    ub: float
    gap: float
    exact_logz: float | None
    err_logz: float | None
    h_hat: float
    h_star: float | None
    err_map: float | None
    removed: int
    max_component: int
    wall_time: float


_FLOATISH = {"alpha", "lb", "ub", "gap", "exact_logz", "err_logz",
             "h_hat", "h_star", "err_map", "wall_time"}
_OPTIONAL = {"exact_logz", "err_logz", "h_star", "err_map"}


def records_to_csv(records) -> str:
    out = io.StringIO()
    names = [f.name for f in fields(TrialRecord)]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for rec in records:
        row = []
        for name in names:
            val = getattr(rec, name)
            if val is None:
                row.append("")
            elif name in _FLOATISH:
                row.append(format(val, ".17g"))
            else:
                row.append(str(val))
        writer.writerow(row)
    return out.getvalue()


def records_from_csv(text: str) -> list[TrialRecord]:
    """Parse ``records_to_csv`` output; a wrong header, a row with the wrong
    number of fields or a bad number raises ``FormatError`` naming the line."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    names = [f.name for f in fields(TrialRecord)]
    if header != names:
        raise FormatError("line 1: unexpected CSV header")
    records = []
    for row in reader:
        no = reader.line_num
        if len(row) != len(names):
            raise FormatError(f"line {no}: expected {len(names)} fields, got {len(row)}")
        kwargs = {}
        for name, val in zip(names, row):
            if val == "" and name in _OPTIONAL:
                kwargs[name] = None
            elif name in ("topology", "mode", "decomp"):
                kwargs[name] = val
            else:
                kind = float if name in _FLOATISH else int
                try:
                    kwargs[name] = kind(val)
                except ValueError:
                    raise FormatError(f"line {no}: {name} is not a number: {val!r}") from None
        records.append(TrialRecord(**kwargs))
    return records


# ---------------------------------------------------------------------------
# Trial runner
# ---------------------------------------------------------------------------


def _trial_scheme(spec: ExperimentSpec, graph: Graph, param: int):
    """``decompose.scheme`` at one swept parameter; a cris-cross lattice is
    decomposed through its grid, then lifted."""
    base = grid_graph(spec.n) if spec.topology == "criscross" else graph
    draw = scheme(base, spec.decomp, spec.eps, spec.K, spec.r, param, param)
    return draw if base is graph else lambda seed: criscross_decomposition(graph, draw(seed))


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(tuple(key)).generate_state(1)[0])


def run_trial(
    spec: ExperimentSpec, graph: Graph, alpha: float, param: int, trial: int
) -> TrialRecord:
    alpha_key = int(round(alpha * 10**6))
    model_seed = _derived_seed(spec.seed, alpha_key, trial)
    decomp_seed = _derived_seed(spec.seed, alpha_key, trial, param, 1)
    mrf = sample_potentials(graph, spec.mode, alpha, model_seed)
    start = time.perf_counter()
    dec = _trial_scheme(spec, graph, param)(decomp_seed)
    bounds, estimate = certify(mrf, dec)
    wall = time.perf_counter() - start

    # a model too wide for the exact engine carries no exact fields
    exact_logz = err_logz = h_star = err_map = None
    if spec.oracle == "transfer":
        try:
            exact = solve_model(mrf)
            exact_logz, h_star = exact.log_z, exact.map_energy
        except CapExceeded:
            pass
    if exact_logz is not None:
        mid = 0.5 * (bounds.log_z_lb + bounds.log_z_ub)
        err_logz = abs(mid - exact_logz) / graph.n
        err_map = (h_star - estimate.energy) / graph.n
    return TrialRecord(
        topology=spec.topology,
        n=spec.n,
        mode=spec.mode,
        alpha=alpha,
        decomp=spec.decomp,
        param=param,
        trial=trial,
        model_seed=model_seed,
        decomp_seed=decomp_seed,
        lb=bounds.log_z_lb,
        ub=bounds.log_z_ub,
        gap=bounds.gap,
        exact_logz=exact_logz,
        err_logz=err_logz,
        h_hat=estimate.energy,
        h_star=h_star,
        err_map=err_map,
        removed=len(dec.removed_edges),
        max_component=dec.max_component,
        wall_time=wall,
    )


def run_experiment(spec: ExperimentSpec) -> list[TrialRecord]:
    """All (alpha, decomposition parameter, trial) cells of the sweep.

    Models are keyed by (seed, alpha, trial) only, so different
    decomposition parameters run against the same sampled models; that
    makes cross-parameter error comparisons less noisy.
    """
    spec.validate()
    graph = spec.build_graph()
    records = []
    for alpha in spec.alphas:
        for param in spec.params_grid():
            for trial in range(spec.trials):
                records.append(run_trial(spec, graph, alpha, param, trial))
    return records


# ---------------------------------------------------------------------------
# Analytic bound curves
# ---------------------------------------------------------------------------


def edge_profile(topology: str, n: int) -> tuple[int, int]:
    """(axis-aligned edge count, diagonal edge count) of the lattice."""
    if topology == "grid":
        return 2 * n * (n - 1), 0
    if topology == "criscross":
        return 2 * n * (n - 1), 2 * (n - 1) * (n - 1)
    raise ValueError(f"unknown topology {topology}")


def expected_range(mode: str, alpha: float) -> float:
    """Mean of max-min over one random edge table of the sampled models.

    The table is zero except the (1,1) entry theta, so the range is |theta|
    and its mean is half the interval width; it depends on the interaction
    strength only, never on the field strength.  An unknown mode or a
    negative alpha raises ``sample_potentials``' ``ValueError``; alpha = 0
    is allowed, as the limit of a vanishing strength.
    """
    _half_widths(mode, alpha or 1.0)
    half_width = alpha if mode == VARYING_INTERACTION else INTERACTION_HALF_WIDTH
    return half_width / 2.0


def bound_curve_value(
    topology: str, n: int, mode: str, alpha: float, eps_edge: float
) -> float:
    """A-priori E[gap] / n^2 for a removal-probability-eps decomposition.

    Diagonal edges of the cris-cross count with twice the grid eps because
    the lifted decomposition cuts a diagonal whenever either of its two
    grid slab boundaries is cut.
    """
    axis, diag = edge_profile(topology, n)
    rng_mean = expected_range(mode, alpha)
    return (axis * eps_edge + diag * min(1.0, 2.0 * eps_edge)) * rng_mean / n**2


def bound_curves(
    topology: str,
    n: int,
    mode: str,
    alphas,
    decomp: str,
    params,
    r: int = 3,
) -> list[tuple[float, int, float]]:
    """Rows (alpha, parameter, bound) over a [alpha x parameter] grid."""
    rows = []
    for alpha in alphas:
        for p in params:
            if decomp == "minore":
                eps = r / p
            elif decomp == "grid":
                eps = 1.0 / p
            else:
                raise ValueError("bound curves cover minore and grid schemes")
            rows.append((alpha, p, bound_curve_value(topology, n, mode, alpha, eps)))
    return rows


# ---------------------------------------------------------------------------
# Free-energy sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeEnergyPoint:
    n: int
    log_z: float
    a_n: float            # log_z / n^2
    slab_lb: float | None
    slab_ub: float | None


def homogeneous_grid_mrf(phi_table, psi_table, n: int) -> PairwiseMrf:
    """n x n lattice with one shared node table and one shared edge table."""
    phi = np.asarray(phi_table, dtype=float)
    psi = np.asarray(psi_table, dtype=float)
    q = len(phi)
    graph = grid_graph(n)
    return PairwiseMrf(
        graph,
        q,
        np.tile(phi, (graph.n, 1)),
        np.tile(psi, (len(graph.ends), 1, 1)),
    )


def free_energy_sequence(
    phi_table, psi_table, n_list, slab_k: int | None = None
) -> list[FreeEnergyPoint]:
    """Exact a_n = log Z_n / n^2 per grid side n, with optional slab bounds.

    When ``slab_k`` is given, each n also gets the certified bracket from
    the deterministic slab decomposition with offsets (0, 0), normalized
    by n^2.  A side below 1 raises ``ValueError`` before anything is solved.
    """
    n_list = list(n_list)
    if any(n < 1 for n in n_list):
        raise ValueError(f"grid sides must be at least 1, got {min(n_list)}")
    points = []
    for n in n_list:
        mrf = homogeneous_grid_mrf(phi_table, psi_table, n)
        log_z = grid_transfer_log_z(mrf)
        lb = ub = None
        if slab_k is not None:
            dec = grid_decomp(n, min(slab_k, n), 0, 0)
            b = log_partition_bounds(mrf, dec)
            lb, ub = b.log_z_lb / n**2, b.log_z_ub / n**2
        points.append(FreeEnergyPoint(n, log_z, log_z / n**2, lb, ub))
    return points


def free_energy_envelope(phi_table, psi_table) -> tuple[float, float]:
    """(lower, upper) bounds on a_n for any n: ln 2 and
    ln 2 + max phi + 4 max psi, valid for non-negative tables."""
    phi = np.asarray(phi_table, dtype=float)
    psi = np.asarray(psi_table, dtype=float)
    if phi.min() < 0 or psi.min() < 0:
        raise ValueError("envelope requires non-negative tables")
    return math.log(2.0), math.log(2.0) + float(phi.max()) + 4.0 * float(psi.max())
