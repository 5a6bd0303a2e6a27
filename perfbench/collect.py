"""Run the benchmark once per seed on each workload and summarise the spread.

    python3 perfbench/collect.py --runs 10 [--trace 0] [--out FILE]

Reads the workloads, metrics, bounds and run length from BENCHMARK.json,
runs ``run.py`` in a child process per (seed, workload), seeds outermost so
that slow spells of the machine spread over all workloads, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, next to the metric's bound.
``--out`` writes the same summary, with every value, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    config = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    names = [w["name"] for w in config["workloads"]]
    metrics = config["per_layer"] if args.trace else config["end_to_end"]
    results = {name: [] for name in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            results[name].append(run_once(name, seed, config["run_seconds"], args.trace))
            print(f"done {name} seed {seed}", file=sys.stderr, flush=True)

    summary = {}
    for name, runs in results.items():
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        print(f"# {name}: {len(runs)} runs, attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        for m in metrics:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            entry["metrics"][m["name"]] = dict(unit=m["unit"], **s)
            bound = m.get("bound")
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"{m['name']:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
        summary[name] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
