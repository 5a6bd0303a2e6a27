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
import typing
from dataclasses import dataclass, fields
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .core import (
    CapExceeded,
    FormatError,
    Graph,
    PairwiseMrf,
    _fmt,
    _numbers,
    _rows,
    affine_shift,
    criscross_graph,
    grid_graph,
)
from .decompose import EDGE_SCHEMES, _rng, criscross_decomposition, grid_decomp, scheme
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


def _random_graph(spec: ExperimentSpec) -> Graph:
    if not 0 <= spec.p <= 1:
        raise ValueError("p must be in [0, 1]")
    # one uniform per pair (u, v), u < v, in row-major order, a row at a time
    rng, edges = _rng(spec.seed, 97), []
    for u in range(spec.n):
        row = np.flatnonzero(rng.random(spec.n - u - 1) < spec.p) + (u + 1)
        edges += zip([u] * len(row), row.tolist())
    return Graph(spec.n, edges)


# each topology's graph from the spec; each builder checks its parameters
TOPOLOGIES = {
    "grid": lambda spec: grid_graph(spec.n),
    "criscross": lambda spec: criscross_graph(spec.n),
    "linechords": lambda spec: size_lower_bound_family(spec.n, spec.chords_k),
    "random": _random_graph,
}
LATTICES = ("grid", "criscross")  # the topologies the slab cut takes


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: topology x potential mode x strength grid x decomposition grid.

    Topologies (``TOPOLOGIES``): ``grid`` and ``criscross`` are n x n
    lattices; ``linechords`` is the chordal ring with ``chords_k`` extra
    edges; ``random`` draws one Erdos-Renyi graph with edge probability
    ``p`` from the sweep seed.  ``decomp`` is one of
    ``decompose.EDGE_SCHEMES``.  With ``oracle="transfer"`` every topology
    gets its exact comparison from the exact engine, run on each connected
    component; a record whose model has a component too wide for the
    engine's cap keeps its exact fields empty.
    """

    topology: str = "grid"
    n: int = 7
    mode: str = VARYING_INTERACTION
    alphas: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    decomp: str = "minore"
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
        """The swept parameter: ``lambdas`` for ``minore``, ``ks`` for the
        slab cut, one unused 0 for the other schemes."""
        return {"minore": self.lambdas, "grid": self.ks}.get(self.decomp, (0,))

    def validate(self) -> Graph:
        """Return the sweep's graph, or raise ``ValueError`` if the sweep
        cannot run; building the graph runs the topology's checks too.  A
        spec builds and checks its graph once: parsing a spec validates it,
        and running the parsed spec reuses that graph."""
        return self._checked_graph

    @cached_property
    def _checked_graph(self) -> Graph:
        if self.topology in LATTICES and self.n < 2:
            raise ValueError("need n >= 2")
        graph = self.build_graph()
        if self.decomp not in EDGE_SCHEMES:
            raise ValueError(f"unknown decomposition {self.decomp}")
        if self.decomp == "grid" and self.topology not in LATTICES:
            raise ValueError("slab decomposition needs a lattice topology")
        if not self.alphas or not self.params_grid():
            raise ValueError("parameter grids must be non-empty")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.oracle not in ("transfer", "none"):
            raise ValueError(f"unknown oracle {self.oracle}")
        for alpha in self.alphas:
            _half_widths(self.mode, alpha)
        for param in self.params_grid():
            scheme(graph, self.decomp, self.eps, self.K, self.r, param, param)
        return graph

    def build_graph(self) -> Graph:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology}")
        return TOPOLOGIES[self.topology](self)


def parse_experiment_spec(text: str) -> ExperimentSpec:
    """Flat key=value lines; '#' comments; lists comma-separated.

    Each key is an ``ExperimentSpec`` field and its value is read as the
    field's type.  A malformed line (no '=', unknown or repeated key, bad or
    non-finite number, empty value) raises ``FormatError`` naming it.
    """
    kinds = typing.get_type_hints(ExperimentSpec)
    values: dict[str, object] = {}
    for no, tokens in _rows(text):
        line = " ".join(tokens)
        if "=" not in line:
            raise FormatError(f"line {no}: expected key=value, got: {line}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in values:
            raise FormatError(f"line {no}: duplicate key {key}")
        kind = kinds.get(key)
        if kind is None:
            raise FormatError(f"line {no}: unknown spec key: {key}")
        if kind is str:
            values[key] = val
        elif typing.get_origin(kind) is tuple:
            values[key] = tuple(_numbers(no, val.split(","), typing.get_args(kind)[0]))
        else:
            (values[key],) = _numbers(no, [val], kind)
    spec = ExperimentSpec(**values)
    spec.validate()
    return spec


@dataclass
class TrialRecord:
    """One cell of a sweep; a CSV column per field, read as the field's type."""

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


def csv_text(header, rows) -> str:
    """CSV of a header and rows, lines ended by "\\n"; a float has 17
    significant digits, an exact round trip, and None is an empty cell."""
    lines: list[str] = []
    # the writer quotes a cell that holds a character of its terminator, so
    # "\r\n" quotes a lone "\r" too; each row's terminator then becomes "\n"
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
    return "".join(line[:-2] + "\n" for line in lines)


# how a CSV cell is read for each field type; an empty optional cell is None
_CELL = {str: str, int: int, float: float, float | None: lambda s: float(s) if s else None}


def records_to_csv(records, cls=TrialRecord) -> str:
    """CSV of dataclass records, a column per field of ``cls``."""
    names = [f.name for f in fields(cls)]
    return csv_text(names, ([getattr(rec, name) for name in names] for rec in records))


def records_from_csv(text: str) -> list[TrialRecord]:
    """Parse ``records_to_csv`` output; text that is not CSV, a wrong header,
    a row with the wrong number of fields or a bad number raises
    ``FormatError`` naming the first bad line."""
    reader = csv.reader(io.StringIO(text))
    kinds = typing.get_type_hints(TrialRecord)  # in field order
    names, readers = list(kinds), [_CELL[kind] for kind in kinds.values()]
    records = []
    try:
        if next(reader, None) != names:
            raise FormatError("line 1: unexpected CSV header")
        for row in reader:
            no = reader.line_num
            if len(row) != len(names):
                raise FormatError(f"line {no}: expected {len(names)} fields, got {len(row)}")
            kwargs = {}
            for name, read, val in zip(names, readers, row):
                try:
                    kwargs[name] = read(val)
                except ValueError:
                    raise FormatError(f"line {no}: {name} is not a number: {val!r}") from None
            records.append(TrialRecord(**kwargs))
    except csv.Error as e:
        raise FormatError(f"line {reader.line_num}: not valid CSV: {e}") from None
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
    graph = spec.validate()
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
    if topology not in LATTICES:
        raise ValueError(f"unknown topology {topology}")
    return 2 * n * (n - 1), 2 * (n - 1) * (n - 1) if topology == "criscross" else 0


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
