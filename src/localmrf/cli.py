"""Command-line front end.

Subcommands: decompose, exact, logz, map, saw, reduce, experiment, limit.
Graphs and models travel in the line-oriented MRF text format; trial tables
come out as CSV.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bench
from .core import CapExceeded, criscross_graph, dump_mrf, grid_graph, load_mrf
from .decompose import (
    criscross_decomposition,
    db_dim_edge,
    db_dim_vertex,
    empty_edge_decomposition,
    grid_decomp,
    minor_edge,
    minor_vertex,
)
from .exact import solve_model
from .inference import certify, log_partition_bounds
from .mwis import factor_to_mwis, mwis_as_binary_mrf, parse_factor_model
from .saw import build_saw_tree, msg_pass_mode, saw_max_ratio


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout for ``-``."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_decomposition(dec, out) -> None:
    lines = [
        f"# decomposition alg={dec.alg} n={dec.n} eps_target={dec.eps_target:.17g}"
        f" max_component={dec.max_component} seed={dec.seed}"
    ]
    lines += [f"removed_node {v}" for v in sorted(dec.removed_nodes)]
    lines += [f"removed_edge {u} {v}" for u, v in sorted(dec.removed_edges)]
    for comp in dec.components:
        lines.append("component " + " ".join(map(str, comp)))
    _write(out, "\n".join(lines) + "\n")


def _grid_decomposition(graph, k: int):
    """Slab cut of a square grid as a function of its offsets, lifted when
    the input is cris-cross; the lattice and k are checked once, up front."""
    side = math.isqrt(graph.n)
    lift = graph != grid_graph(side)
    if lift and graph != criscross_graph(side):
        raise ValueError(
            "grid decomposition needs a square grid or cris-cross lattice, got"
            f" {graph.n} nodes and {len(graph.edges)} edges"
        )
    if not 1 <= k <= side:
        raise ValueError("need 1 <= k <= n")
    if lift:
        return lambda l1, l2: criscross_decomposition(graph, grid_decomp(side, k, l1, l2))
    return lambda l1, l2: grid_decomp(side, k, l1, l2)


def _cmd_decompose(args) -> int:
    graph = load_mrf(args.graph).graph
    if args.alg == "dbdim":
        dec = db_dim_edge(graph, args.eps, args.K, args.seed)
    elif args.alg == "dbdim-v":
        dec = db_dim_vertex(graph, args.eps, args.K, args.seed)
    elif args.alg == "minorv":
        dec = minor_vertex(graph, args.r, args.lam, args.seed)
    elif args.alg == "minore":
        dec = minor_edge(graph, args.r, args.lam, args.seed)
    else:
        dec = _grid_decomposition(graph, args.k)(args.l1, args.l2)
    _write_decomposition(dec, args.out)
    return 0


def _cmd_exact(args) -> int:
    mrf = load_mrf(args.graph)
    res = solve_model(mrf)
    if args.mode in ("logz", "both"):
        print(f"log_z {res.log_z:.17g}")
    if args.mode in ("map", "both"):
        print("map " + " ".join(map(str, res.map_assignment)))
        print(f"map_energy {res.map_energy:.17g}")
    return 0


def _decomp_for_args(graph, args, seed, slab):
    if args.decomp == "dbdim":
        return db_dim_edge(graph, args.eps, args.K, seed)
    if args.decomp == "minore":
        return minor_edge(graph, args.r, args.lam, seed)
    if args.decomp == "grid":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
        return slab(int(rng.integers(args.k)), int(rng.integers(args.k)))
    return empty_edge_decomposition(graph)


def _cmd_bounds(args, want_map: bool) -> int:
    mrf = load_mrf(args.graph)
    rows = ["seed,lb,ub,gap,exact,h_hat,h_star"]
    exact_logz = h_star = ""
    if args.exact:
        # a model too wide for the exact engine leaves the exact columns empty
        try:
            res = solve_model(mrf)
            exact_logz, h_star = f"{res.log_z:.17g}", f"{res.map_energy:.17g}"
        except CapExceeded as exc:
            print(f"exact values skipped: {exc}", file=sys.stderr)
    slab = _grid_decomposition(mrf.graph, args.k) if args.decomp == "grid" else None
    for t in range(args.trials):
        seed = args.seed + t
        dec = _decomp_for_args(mrf.graph, args, seed, slab)
        b, est = certify(mrf, dec) if want_map else (log_partition_bounds(mrf, dec), None)
        h_hat = f"{est.energy:.17g}" if want_map else ""
        rows.append(
            f"{seed},{b.log_z_lb:.17g},{b.log_z_ub:.17g},{b.gap:.17g},"
            f"{exact_logz},{h_hat},{h_star}"
        )
    _write(args.csv, "\n".join(rows) + "\n")
    return 0


def _cmd_saw(args) -> int:
    mrf = load_mrf(args.graph)
    if args.trace is not None and not args.msgpass:
        raise SystemExit("--trace records the schedule; combine it with --msgpass")
    if args.msgpass:
        result = msg_pass_mode(mrf, keep_trace=args.trace is not None)
        for v in range(mrf.n):
            r = result.ratios[v]
            print(f"node {v} log_q1 {r.log_num:.17g} log_q0 {r.log_den:.17g} "
                  f"log_ratio {r.log_ratio():.17g}")
        if args.trace is not None:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write("\n".join(result.trace) + "\n")
    else:
        tree = build_saw_tree(mrf, args.root)
        r = saw_max_ratio(tree)
        print(f"tree_nodes {tree.node_count} green {tree.mark_count['green']} "
              f"red {tree.mark_count['red']}")
        print(f"node {args.root} log_q1 {r.log_num:.17g} log_q0 {r.log_den:.17g} "
              f"log_ratio {r.log_ratio():.17g}")
    return 0


def _cmd_reduce(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        model = parse_factor_model(fh.read())
    inst = factor_to_mwis(model)
    dump_mrf(mwis_as_binary_mrf(inst), args.out)
    return 0


def _cmd_experiment(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = bench.parse_experiment_spec(fh.read())
    _write(args.csv, bench.records_to_csv(bench.run_experiment(spec)))
    return 0


def _cmd_limit(args) -> int:
    q = len(args.phi)
    if len(args.psi) != q * q:
        raise SystemExit(f"psi needs {q * q} values for a {q}-state table")
    psi = np.array(args.psi).reshape(q, q)
    n_list = range(args.nmin, args.nmax + 1)
    points = bench.free_energy_sequence(args.phi, psi, n_list, slab_k=args.k)
    rows = ["n,log_z,a_n,slab_lb,slab_ub"]
    for p in points:
        lb = "" if p.slab_lb is None else f"{p.slab_lb:.17g}"
        ub = "" if p.slab_ub is None else f"{p.slab_ub:.17g}"
        rows.append(f"{p.n},{p.log_z:.17g},{p.a_n:.17g},{lb},{ub}")
    _write(args.csv, "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localmrf",
        description="certified local inference on pairwise MRFs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run a graph decomposition")
    p.add_argument("--alg", required=True,
                   choices=["dbdim", "dbdim-v", "minorv", "minore", "grid"])
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--K", type=int, default=40)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l1", type=int, default=0)
    p.add_argument("--l2", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("exact", help="exact log Z / MAP of a model")
    p.add_argument("--mode", choices=["logz", "map", "both"], default="both")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_exact)

    for name, want_map in (("logz", False), ("map", True)):
        p = sub.add_parser(name, help=f"decomposition-based {name} runs")
        p.add_argument("--graph", required=True)
        p.add_argument("--decomp", choices=["dbdim", "minore", "grid", "none"],
                       default="minore")
        p.add_argument("--eps", type=float, default=0.25)
        p.add_argument("--K", type=int, default=40)
        p.add_argument("--r", type=int, default=3)
        p.add_argument("--lambda", dest="lam", type=int, default=4)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--csv", default="-")
        p.add_argument("--exact", action="store_true",
                       help="also compute the exact values; left empty when "
                            "too wide for the exact engine")
        p.set_defaults(func=lambda a, w=want_map: _cmd_bounds(a, w))

    p = sub.add_parser("saw", help="walk-tree max-marginal ratios")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--msgpass", action="store_true",
                   help="run the distributed schedule for every node")
    p.add_argument("--trace",
                   help="write every emitted sequence to this file")
    p.set_defaults(func=_cmd_saw)

    p = sub.add_parser("reduce", help="factor model -> independent-set MRF")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("experiment", help="run a sweep from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--csv", default="-")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("limit", help="normalized free-energy sequence")
    p.add_argument("--phi", type=float, nargs="+", required=True)
    p.add_argument("--psi", type=float, nargs="+", required=True)
    p.add_argument("--nmin", type=int, default=3)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="slab width for the certified bracket columns")
    p.add_argument("--csv", default="-")
    p.set_defaults(func=_cmd_limit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapExceeded, OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
