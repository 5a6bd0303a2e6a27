"""Benchmark of the localmrf package on four seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lattice-100 --seed 1 --seconds 20 --trace 0

The benchmark imports ``localmrf`` from the checkout's ``src/`` directory (and
refuses to run without it), builds the workload's inputs from ``--seed``, then
runs ops back to back in one closed loop (one client, no think time) until
``--seconds`` have passed, finishing the round in progress.  Every op's
output is checked; a failed check or an exception counts as a failed op.

``--trace 0`` reports the end-to-end metrics.  The gated timings are in
reference seconds: wall seconds times ``PROBE_REF_S`` over the median time
of a fixed probe loop, timed in the bursts just before and after the round.
The speed of the machine the benchmark was built on drifts by a fifth and
more, for seconds to minutes at a time; the probe slows with it, so the
ratio holds where the wall time does not.  ``setup_s`` is the median
reference time of fresh processes that only import ``localmrf`` and build
the inputs, started one before each round.
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics from the traced ops, the tracing overhead, and counts every traced
op whose outputs differ from its untraced twin as failed.  Spans go to
``.perfbench/spans-<workload>-<seed>.tsv`` under the checkout.

A human-readable table comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
PROBE_LOOP = 20_000
PROBES = 20  # probe loops per burst, one burst between rounds
# the probe loop's time on the reference machine: an op's reference time is
# its wall time times PROBE_REF_S / (median probe time around its round)
PROBE_REF_S = 0.001

# (name, unit): BENCHMARK.json's end_to_end metrics, then metrics printed in
# the table only.  op_s.p90 has ten samples beyond it only on harness-7 (about
# five ops per run elsewhere); fail_frac and gap_per_node can be 0, and
# fail_frac is also carried by the "failed"/"attempted" fields.  The wall.*
# metrics are the same timings in wall seconds, and probe_s.p50 the median
# probe time that converts between the two.
END_TO_END = (
    ("op_s.p50", "s"),
    ("nodes_per_s", "nodes/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
TABLE_ONLY = (
    ("op_s.p90", "s"),
    ("fail_frac", "1"),
    ("gap_per_node", "1/node"),
    ("wall.op_s.p50", "s"),
    ("wall.op_s.p90", "s"),
    ("wall.setup_s", "s"),
    ("probe_s.p50", "s"),
)

PER_LAYER = (
    ("core.parse_mrf_text.s", "s"),
    ("core.induced.s", "s"),
    ("core.induced.calls", "count"),
    ("core.without_edges.s", "s"),
    ("core.distance_matrix.s", "s"),
    ("core.bfs_depths.s", "s"),
    ("core.bfs_depths.calls", "count"),
    ("core.connected_components.s", "s"),
    ("core.connected_components.calls", "count"),
    ("decompose.minor_edge.s", "s"),
    ("decompose.db_dim_edge.s", "s"),
    ("decompose.line_graph.s", "s"),
    ("decompose.components", "count"),
    ("decompose.max_component", "count"),
    ("decompose.removed_frac", "1"),
    ("decompose.eps_target", "1"),
    ("exact.component_solve.s", "s"),
    ("exact.component_solve.calls", "count"),
    ("exact.brute_log_z.s", "s"),
    ("exact.brute_map.s", "s"),
    ("exact.states_enumerated", "count"),
    ("exact.grid_transfer_log_z.s", "s"),
    ("exact.grid_transfer_map.s", "s"),
    ("inference.log_partition_bounds.s", "s"),
    ("inference.mode_estimate.s", "s"),
    ("inference.gap_per_node", "1/node"),
    ("saw.msg_pass_mode.s", "s"),
    ("saw.saw_component_map.s", "s"),
    ("saw.build_saw_tree.s", "s"),
    ("saw.build_saw_tree.calls", "count"),
    ("saw.saw_max_ratio.s", "s"),
    ("saw.sequences", "count"),
    ("saw.tree_nodes", "count"),
    ("bench.run_trial.s", "s"),
    ("bench.sample_potentials.s", "s"),
    ("bench.trials", "count"),
    ("trace.overhead_s", "s"),
    ("trace.ops", "count"),
)


def use_checkout_source() -> bool:
    """Put the checkout's ``src/`` first on the import path, if it holds localmrf."""
    src = CHECKOUT / "src"
    if not (src / "localmrf" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import localmrf

    return Path(localmrf.__file__).resolve().is_relative_to(src.resolve())


@dataclass
class Op:
    seconds: float | None  # None when the op raised
    failed: bool
    gap: float = math.nan
    fingerprint: object = None
    layer: dict = field(default_factory=dict)


def run_op(workload, inputs, item, tracer=None) -> Op:
    args = workload.prepare(inputs, item)
    try:
        with tracer.op() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            result = workload.op(args)
            seconds = time.perf_counter() - start
    except Exception:  # a failing op is counted, and the run goes on
        traceback.print_exc()
        return Op(None, True)
    from workloads import CheckFailed

    try:
        workload.check(inputs, item, result)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return Op(seconds, True)
    return Op(seconds, False, workload.gap(result), workload.fingerprint(result))


def run_rounds(workload, inputs, seconds: float, tracers, between=None) -> list[list[Op]]:
    """Rounds of every item, cycling through ``tracers`` (None = untraced).

    Time is checked between cycles, so each mode runs equally often.
    ``between()``, if given, runs before each cycle.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        if between is not None:
            between()
        for tracer in tracers:
            gc.collect()
            rounds.append(
                [run_op(workload, inputs, item, tracer) for item in workload.items(inputs)]
            )
        if time.perf_counter() - start >= seconds:
            return rounds


def set_up_once(argv: list[str]) -> float:
    """Wall time of a fresh process from its start to its inputs being built."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__, *argv, "--setup-only"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(proc.stdout.splitlines()[-1]) - start


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return time.perf_counter() - start


def op_times(ops: list[Op]) -> list[float]:
    return [op.seconds for op in ops if op.seconds is not None]


def p50_p90(times: list[float]) -> tuple[float, float]:
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    return statistics.median(times), p90


def end_to_end(rounds: list[list[Op]], nodes: int, setups: list[float], bursts):
    """``bursts[k]`` and ``bursts[k + 1]`` are the probe times around round k."""
    ops = [op for r in rounds for op in r]
    gaps = [op.gap for op in ops if not op.failed]
    probe_s = statistics.median(p for burst in bursts for p in burst)
    ref_times = []
    for r, before, after in zip(rounds, bursts, bursts[1:]):
        scale = PROBE_REF_S / statistics.median(before + after)
        ref_times.extend(seconds * scale for seconds in op_times(r))
    wall = dict(zip(("op_s.p50", "op_s.p90"), p50_p90(op_times(ops))))
    wall["setup_s"] = statistics.median(setups)
    ref = dict(zip(("op_s.p50", "op_s.p90"), p50_p90(ref_times)))
    ref["setup_s"] = wall["setup_s"] * PROBE_REF_S / probe_s
    return {
        **ref,
        "nodes_per_s": nodes / ref["op_s.p50"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": sum(op.failed for op in ops) / len(ops),
        "gap_per_node": statistics.fmean(gaps) / nodes if gaps else math.nan,
        **{f"wall.{name}": seconds for name, seconds in wall.items()},
        "probe_s.p50": probe_s,
    }


def traced_run(workload, inputs, seconds: float, spans_path: Path):
    from tracing import Tracer

    tracer = Tracer()
    rounds = run_rounds(workload, inputs, seconds, (None, tracer))
    plain = [op for r in rounds[0::2] for op in r]
    traced = [op for r in rounds[1::2] for op in r]
    # an op whose traced outputs differ from the untraced ones is failed
    for a, b in zip(plain, traced):
        if not (a.failed or b.failed) and a.fingerprint != b.fingerprint:
            print("traced outputs differ from untraced outputs", file=sys.stderr)
            b.failed = True
    for op, layer in zip(traced, tracer.per_op()):
        op.layer = layer
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)

    nodes = workload.nodes(inputs)
    ok = [op for op in traced if not op.failed]
    metrics = {}
    for name, _ in PER_LAYER:
        values = [op.layer.get(name, 0.0) for op in ok]
        metrics[name] = statistics.median(values) if values else math.nan
    metrics["inference.gap_per_node"] = (
        statistics.median(op.gap / nodes for op in ok) if ok else math.nan
    )
    # each traced op runs one round after its untraced twin, so slow drift
    # of the machine's speed cancels in the difference
    overheads = [
        b.seconds - a.seconds
        for a, b in zip(plain, traced)
        if a.seconds is not None and b.seconds is not None
    ]
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else math.nan
    metrics["trace.ops"] = len(traced)
    return plain + traced, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="span file of the traced run")
    p.add_argument("--tiny", action="store_true",
                   help="toy-sized workloads of the self-test (workloads.TINY)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None, setup_repeats: int = SETUP_REPEATS) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not use_checkout_source():
        print(f"localmrf sources not found under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    registry = workloads.TINY if args.tiny else workloads.WORKLOADS
    if args.workload not in registry:
        print(f"unknown workload {args.workload!r}; one of {sorted(registry)}",
              file=sys.stderr)
        return 2
    workload = registry[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.setup_only:
        print(time.perf_counter())
        return 0

    if args.trace:
        spans = args.spans or CHECKOUT / ".perfbench" / f"spans-{workload.name}-{args.seed}.tsv"
        ops, metrics = traced_run(workload, inputs, args.seconds, spans)
        reported = shown = PER_LAYER
    else:
        # a probe burst between rounds, and one set-up before each round
        # (the rest after the last), so that both meet the machine's spells
        # as the ops do
        setups, bursts = [], []

        def between():
            gc.collect()  # so that the last round's garbage does not slow the probe
            bursts.append([probe() for _ in range(PROBES)])
            if len(setups) < setup_repeats:
                setups.append(set_up_once(argv))

        rounds = run_rounds(workload, inputs, args.seconds, (None,), between)
        gc.collect()
        bursts.append([probe() for _ in range(PROBES)])
        while len(setups) < setup_repeats:
            setups.append(set_up_once(argv))
        ops = [op for r in rounds for op in r]
        if not op_times(ops):
            print("every op raised; nothing to report", file=sys.stderr)
            return 1
        metrics = end_to_end(rounds, workload.nodes(inputs), setups, bursts)
        reported, shown = END_TO_END, END_TO_END + TABLE_ONLY

    failed = sum(op.failed for op in ops)
    mode = "traced" if args.trace else "untraced"
    print(f"# {workload.name} seed={args.seed} {mode} ops={len(ops)} failed={failed}")
    for name, unit in shown:
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
