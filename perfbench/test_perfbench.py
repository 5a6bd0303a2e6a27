"""Self-test of the benchmark on toy-sized versions of its four workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

assert run.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
from localmrf import core, decompose  # noqa: E402

CONFIG = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_prints_every_metric_by_name_and_unit(name, trace, tmp_path, capsys):
    spans = tmp_path / "spans.tsv"
    argv = ["--workload", name, "--seed", "5", "--seconds", "0",
            "--trace", str(trace), "--spans", str(spans), "--tiny"]
    assert run.main(argv, setup_repeats=1) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    table = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    shown = run.PER_LAYER if trace else run.END_TO_END + run.TABLE_ONLY
    assert table == dict(shown)
    if trace:
        assert len(spans.read_text().splitlines()) > 1


def test_crossing_edge_counts_as_failed_op():
    def leaky(graph):
        dec = decompose.grid_decomp(4, 2, 0, 0)
        # keep one cut edge without merging the two components it joins
        return dataclasses.replace(dec, removed_edges=dec.removed_edges - {(0, 1)})

    workload = workloads.Certify("leaky", 4, leaky)
    inputs = workload.make_inputs(0)
    # the program accepts this decomposition; only the benchmark's check flags it
    workload.op(inputs)
    op = run.run_op(workload, inputs, None)
    assert op.failed and op.seconds is not None


def test_tracer_restores_bindings_when_an_op_raises():
    before = [owner.__dict__[attr] for owner, attr, *_ in tracing.PATCHES]
    distance_matrix = core.Graph.__dict__["distance_matrix"]
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().op():
            1 / 0
    assert [owner.__dict__[attr] for owner, attr, *_ in tracing.PATCHES] == before
    assert core.Graph.__dict__["distance_matrix"] is distance_matrix


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.CHECKOUT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice-100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
