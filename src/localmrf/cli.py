"""Command-line front end.

Subcommands: decompose, exact, logz, map, saw, reduce, experiment, limit.
Graphs and models travel in the line-oriented MRF text format; trial tables
come out as CSV.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from . import bench, decompose
from .core import CapExceeded, _members, dump_mrf, load_mrf
from .exact import grid_transfer_log_z, solve_model
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
    lines += [f"removed_node {v}" for v in np.flatnonzero(dec.comp_of < 0).tolist()]
    lines += [f"removed_edge {u} {v}" for u, v in dec.removed_ends.tolist()]
    for comp in _members(dec.comp_of, dec.n_components):
        lines.append("component " + " ".join(map(str, comp)))
    _write(out, "\n".join(lines) + "\n")


def _scheme(graph, name: str, args, offsets=None):
    """``decompose.scheme`` with the scheme flags in ``args``."""
    return decompose.scheme(graph, name, args.eps, args.K, args.r, args.lam, args.k, offsets)


def _cmd_decompose(args) -> int:
    graph = load_mrf(args.graph).graph
    _write_decomposition(_scheme(graph, args.alg, args, (args.l1, args.l2))(args.seed), args.out)
    return 0


def _cmd_exact(args) -> int:
    mrf = load_mrf(args.graph)
    if args.mode == "logz":  # prints no MAP, so builds no MAP table
        print(f"log_z {grid_transfer_log_z(mrf):.17g}")
        return 0
    res = solve_model(mrf)
    if args.mode == "both":
        print(f"log_z {res.log_z:.17g}")
    print("map " + " ".join(map(str, res.map_assignment)))
    print(f"map_energy {res.map_energy:.17g}")
    return 0


def _cmd_bounds(args, want_map: bool) -> int:
    mrf = load_mrf(args.graph)
    rows, exact_logz, h_star = [], None, None
    if args.exact:
        # a model too wide for the exact engine leaves the exact columns empty
        try:
            res = solve_model(mrf)
            exact_logz, h_star = res.log_z, res.map_energy
        except CapExceeded as exc:
            print(f"exact values skipped: {exc}", file=sys.stderr)
    scheme = _scheme(mrf.graph, args.decomp, args)
    for seed in range(args.seed, args.seed + args.trials):
        dec = scheme(seed)
        b, est = certify(mrf, dec) if want_map else (log_partition_bounds(mrf, dec), None)
        h_hat = est.energy if want_map else None
        rows.append((seed, b.log_z_lb, b.log_z_ub, b.gap, exact_logz, h_hat, h_star))
    _write(args.csv, bench.csv_text("seed,lb,ub,gap,exact,h_hat,h_star".split(","), rows))
    return 0


def _cmd_saw(args) -> int:
    mrf = load_mrf(args.graph)
    if args.trace is not None and not args.msgpass:
        raise SystemExit("--trace records the schedule; combine it with --msgpass")
    if args.msgpass:
        keep = args.trace is not None
        # the trace file opens first, so a bad path fails before the schedule runs
        with open(args.trace, "w", encoding="utf-8") if keep else nullcontext() as fh:
            result = msg_pass_mode(mrf, keep_trace=keep)
            if keep:
                fh.write("\n".join(result.trace) + "\n")
        ratios = result.ratios
    else:
        tree = build_saw_tree(mrf, args.root)
        print(f"tree_nodes {tree.node_count} green {tree.mark_count['green']} "
              f"red {tree.mark_count['red']}")
        ratios = {args.root: saw_max_ratio(tree)}
    for v, r in sorted(ratios.items()):
        print(f"node {v} log_q1 {r.log_num:.17g} log_q0 {r.log_den:.17g} "
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
    _write(args.csv, bench.records_to_csv(points, bench.FreeEnergyPoint))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localmrf",
        description="certified local inference on pairwise MRFs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the model file, scheme parameters and seed of decompose, logz and map
    scheme = argparse.ArgumentParser(add_help=False)
    scheme.add_argument("--graph", required=True)
    scheme.add_argument("--eps", type=float, default=0.25)
    scheme.add_argument("--K", type=int, default=40)
    scheme.add_argument("--r", type=int, default=3)
    scheme.add_argument("--lambda", dest="lam", type=int, default=4)
    scheme.add_argument("--k", type=int, default=2)
    scheme.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("decompose", parents=[scheme], help="run a graph decomposition")
    p.add_argument("--alg", required=True, choices=decompose.SCHEMES)
    p.add_argument("--out", default="-")
    p.add_argument("--l1", type=int, default=0)
    p.add_argument("--l2", type=int, default=0)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("exact", help="exact log Z / MAP of a model")
    p.add_argument("--mode", choices=["logz", "map", "both"], default="both")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_exact)

    for name, want_map in (("logz", False), ("map", True)):
        p = sub.add_parser(name, parents=[scheme], help=f"decomposition-based {name} runs")
        p.add_argument("--decomp", choices=decompose.EDGE_SCHEMES, default="minore")
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
