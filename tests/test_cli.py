"""Command-line surface: every subcommand's happy path plus file formats."""

import hashlib
import math

import numpy as np
import pytest

from localmrf import (
    Graph,
    brute_log_z,
    brute_map,
    criscross_graph,
    dump_mrf,
    empty_edge_decomposition,
    grid_decomp,
    grid_graph,
    load_mrf,
)
from localmrf.bench import sample_potentials, VARYING_INTERACTION
from localmrf import cli, decompose
from localmrf.cli import build_parser, main
from localmrf.mwis import write_factor_model, FactorModel

from helpers import random_graph, random_mrf


@pytest.fixture
def grid_model_file(tmp_path):
    m = sample_potentials(grid_graph(4), VARYING_INTERACTION, 1.0, seed=5)
    path = tmp_path / "grid4.mrf"
    dump_mrf(m, path)
    return str(path)


def test_decompose_minore(grid_model_file, tmp_path, capsys):
    out = tmp_path / "dec.txt"
    assert main([
        "decompose", "--alg", "minore", "--graph", grid_model_file,
        "--r", "3", "--lambda", "4", "--seed", "1", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# decomposition alg=minore")
    assert any(line.startswith("removed_edge") for line in lines)
    assert any(line.startswith("component") for line in lines)
    # components partition the nodes
    seen = []
    for line in lines:
        if line.startswith("component"):
            seen += [int(x) for x in line.split()[1:]]
    assert sorted(seen) == list(range(16))


def test_decompose_grid_and_dbdim(grid_model_file, tmp_path):
    out = tmp_path / "dec.txt"
    assert main([
        "decompose", "--alg", "grid", "--graph", grid_model_file,
        "--k", "2", "--l1", "0", "--l2", "1", "--out", str(out),
    ]) == 0
    assert "alg=grid" in out.read_text()
    assert main([
        "decompose", "--alg", "dbdim", "--graph", grid_model_file,
        "--eps", "0.3", "--K", "6", "--seed", "2", "--out", str(out),
    ]) == 0
    assert "alg=dbdim" in out.read_text()
    assert main([
        "decompose", "--alg", "dbdim-v", "--graph", grid_model_file,
        "--eps", "0.3", "--K", "6", "--seed", "2", "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert "alg=dbdim-v" in text and "removed_node" in text
    assert main([
        "decompose", "--alg", "minorv", "--graph", grid_model_file,
        "--r", "2", "--lambda", "3", "--seed", "3", "--out", str(out),
    ]) == 0
    assert "removed_node" in out.read_text()


SCHEME_DEFAULTS = {"eps": 0.25, "K": 40, "r": 3, "lam": 4, "k": 2, "seed": 0}


def test_scheme_flags_shared():
    parser = build_parser()
    heads = (["decompose", "--alg", "minore"], ["logz"], ["map"])
    for head in heads:
        args = vars(parser.parse_args([*head, "--graph", "m.mrf"]))
        assert {key: args[key] for key in SCHEME_DEFAULTS} == SCHEME_DEFAULTS
        flags = ["--eps", "0.5", "--K", "7", "--r", "2", "--lambda", "9",
                 "--k", "3", "--seed", "11"]
        args = vars(parser.parse_args([*head, "--graph", "m.mrf", *flags]))
        assert {key: args[key] for key in SCHEME_DEFAULTS} == {
            "eps": 0.5, "K": 7, "r": 2, "lam": 9, "k": 3, "seed": 11}
    # each subcommand keeps its own scheme names and extra flags
    args = parser.parse_args(["decompose", "--alg", "grid", "--graph", "m.mrf"])
    assert (args.l1, args.l2, args.out) == (0, 0, "-")
    args = parser.parse_args(["map", "--graph", "m.mrf"])
    assert (args.decomp, args.trials, args.csv, args.exact) == ("minore", 1, "-", False)
    assert "l1" not in args
    for head in (["decompose", "--alg", "bogus"], ["logz", "--decomp", "minorv"]):
        with pytest.raises(SystemExit):
            parser.parse_args([*head, "--graph", "m.mrf"])


def test_decomp_choices_are_the_edge_schemes():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for name in ("logz", "map"):
        (decomp,) = (a for a in sub.choices[name]._actions if a.dest == "decomp")
        assert tuple(decomp.choices) == decompose.EDGE_SCHEMES


def test_alg_choices_are_the_scheme_names():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    (alg,) = (a for a in sub.choices["decompose"]._actions if a.dest == "alg")
    assert tuple(alg.choices) == decompose.SCHEMES


def test_decompose_none_prints_the_empty_removal(grid_model_file, capsys):
    assert main(["decompose", "--alg", "none", "--graph", grid_model_file]) == 0
    dec = empty_edge_decomposition(grid_graph(4))
    assert capsys.readouterr().out == (
        f"# decomposition alg={dec.alg} n=16 eps_target=0 max_component=16 seed=None\n"
        "component " + " ".join(map(str, range(16))) + "\n"
    )


def test_decompose_grid_takes_given_offsets(grid_model_file, tmp_path):
    out = tmp_path / "dec.txt"
    for l1, l2 in ((0, 1), (1, 0), (1, 1)):
        assert main([
            "decompose", "--alg", "grid", "--graph", grid_model_file, "--k", "2",
            "--l1", str(l1), "--l2", str(l2), "--seed", "5", "--out", str(out),
        ]) == 0
        removed = [tuple(map(int, line.split()[1:])) for line in out.read_text().splitlines()
                   if line.startswith("removed_edge")]
        assert removed == sorted(grid_decomp(4, 2, l1, l2).removed_edges)


def test_exact_modes(grid_model_file, tmp_path, capsys, monkeypatch):
    assert main(["exact", "--mode", "both", "--graph", grid_model_file]) == 0
    plain = capsys.readouterr().out
    assert plain.startswith("log_z ")
    assert "map " in plain and "map_energy " in plain
    # a non-lattice, three-state model against the brute-force oracle
    rng = np.random.default_rng(3)
    m = random_mrf(rng, random_graph(rng, 9, 0.4), q=3, lo=-1.0, hi=1.0)
    path = tmp_path / "random9.mrf"
    dump_mrf(m, path)
    assert main(["exact", "--mode", "both", "--graph", str(path)]) == 0
    log_z, x, h = capsys.readouterr().out.splitlines()
    m = load_mrf(path)
    assert float(log_z.split()[1]) == pytest.approx(brute_log_z(m), rel=1e-12)
    assert (tuple(map(int, x.split()[1:])), float(h.split()[1])) == brute_map(m)
    assert main(["exact", "--mode", "map", "--graph", str(path)]) == 0
    assert capsys.readouterr().out == x + "\n" + h + "\n"
    # --mode logz prints the same double from a solve that builds no MAP table
    monkeypatch.setattr(cli, "solve_model", None)
    assert main(["exact", "--mode", "logz", "--graph", str(path)]) == 0
    assert capsys.readouterr().out == log_z + "\n"


def test_logz_map_csv(grid_model_file, tmp_path):
    out = tmp_path / "runs.csv"
    assert main([
        "logz", "--graph", grid_model_file, "--decomp", "minore",
        "--r", "3", "--lambda", "4", "--seed", "0", "--trials", "3",
        "--csv", str(out), "--exact",
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,lb,ub,gap,exact,h_hat,h_star"
    assert len(lines) == 4
    for line in lines[1:]:
        seed, lb, ub, gap, exact, h_hat, h_star = line.split(",")
        assert float(lb) <= float(exact) <= float(ub)
        assert h_hat == ""

    assert main([
        "map", "--graph", grid_model_file, "--decomp", "grid",
        "--k", "2", "--seed", "0", "--trials", "2", "--csv", str(out),
        "--exact",
    ]) == 0
    for line in out.read_text().splitlines()[1:]:
        seed, lb, ub, gap, exact, h_hat, h_star = line.split(",")
        assert float(h_star) - float(gap) <= float(h_hat) <= float(h_star) + 1e-12


def test_exact_columns_empty_when_too_wide(tmp_path, capsys):
    # a 30x30 lattice needs a 2^31-entry exact table: the bracket and the
    # MAP rows are still written, with empty exact columns
    m = sample_potentials(grid_graph(30), VARYING_INTERACTION, 1.0, seed=5)
    path = tmp_path / "grid30.mrf"
    dump_mrf(m, path)
    for cmd in ("logz", "map"):
        assert main([
            cmd, "--graph", str(path), "--decomp", "minore", "--seed", "0",
            "--trials", "2", "--exact",
        ]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            seed, lb, ub, gap, exact, h_hat, h_star = line.split(",")
            assert exact == h_star == ""
            assert float(lb) < float(ub)
            assert (h_hat != "") == (cmd == "map")
        assert "exact values skipped" in captured.err


def test_grid_decomp_lifted_on_criscross(tmp_path):
    m = sample_potentials(criscross_graph(4), VARYING_INTERACTION, 1.0, 3)
    path = tmp_path / "cc4.mrf"
    dump_mrf(m, path)
    out = tmp_path / "runs.csv"
    assert main([
        "logz", "--graph", str(path), "--decomp", "grid", "--k", "2",
        "--seed", "0", "--trials", "4", "--csv", str(out), "--exact",
    ]) == 0
    for line in out.read_text().splitlines()[1:]:
        seed, lb, ub, gap, exact, h_hat, h_star = line.split(",")
        assert float(lb) <= float(exact) <= float(ub)
    dec = tmp_path / "dec.txt"
    assert main(["decompose", "--alg", "grid", "--graph", str(path),
                 "--out", str(dec)]) == 0
    assert "alg=grid+diag" in dec.read_text()


def test_slab_lattice_built_once_per_command(grid_model_file, tmp_path, monkeypatch):
    # the slab scheme cuts the lattice it built for its check, on every draw
    built = []
    real = decompose.grid_graph
    monkeypatch.setattr(decompose, "grid_graph", lambda *a: built.append(a) or real(*a))
    out = tmp_path / "runs.csv"
    for cmd in ("logz", "map"):
        built.clear()
        assert main([
            cmd, "--graph", grid_model_file, "--decomp", "grid", "--trials", "3",
            "--csv", str(out),
        ]) == 0
        assert built == [(4,)]
        assert len(out.read_text().splitlines()) == 4


# sha256 of the CSV of ``map --exact`` over four seeds, as the code gave it
# when the bracket and the MAP came from two separate certificate passes
MAP_CSV_DIGESTS = [
    ("grid7", ["--decomp", "minore", "--lambda", "3"],
     "32fe38e8cfdcf269463388c73202a701f44990c29e395e71272fdb5064bf5a98"),
    ("grid7", ["--decomp", "grid", "--k", "3"],
     "07986bb6bae25a1c76396798ea68edd5dd8cc56bb111eb3dff29c237000eb935"),
    ("criscross4", ["--decomp", "grid", "--k", "2"],
     "7c92f4820c3db54f36bd4b612b194e95963949c5094b1c958c7c10b7ef233025"),
    ("criscross4", ["--decomp", "minore"],
     "3d1ac22b0e98b9e8717dd4729452a97ba40d862eaf0993153a994742abec4f69"),
]


@pytest.mark.parametrize(
    "lattice, params, digest", MAP_CSV_DIGESTS,
    ids=[f"{lattice}-{params[1]}" for lattice, params, _ in MAP_CSV_DIGESTS],
)
def test_map_csv_digest(tmp_path, lattice, params, digest):
    graph = grid_graph(7) if lattice == "grid7" else criscross_graph(4)
    path = tmp_path / "model.mrf"
    dump_mrf(sample_potentials(graph, VARYING_INTERACTION, 1.0, seed=5), path)
    out = tmp_path / "runs.csv"
    assert main([
        "map", "--graph", str(path), *params,
        "--seed", "0", "--trials", "4", "--exact", "--csv", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_bad_inputs_are_errors_not_tracebacks(tmp_path):
    rect = tmp_path / "rect.mrf"
    dump_mrf(sample_potentials(grid_graph(2, 3), VARYING_INTERACTION, 1.0, 0), rect)
    with pytest.raises(SystemExit, match="^error: grid decomposition needs a square"):
        main(["logz", "--graph", str(rect), "--decomp", "grid"])
    with pytest.raises(SystemExit, match="^error: grid decomposition needs a square"):
        main(["decompose", "--alg", "grid", "--graph", str(rect)])
    square = tmp_path / "square.mrf"
    dump_mrf(sample_potentials(grid_graph(3), VARYING_INTERACTION, 1.0, 0), square)
    for cmd in ("logz", "map"):
        for k in ("0", "-1", "4"):
            with pytest.raises(SystemExit, match=r"^error: need 1 <= k <= n$"):
                main([cmd, "--graph", str(square), "--decomp", "grid", "--k", k])
    bad = tmp_path / "bad.mrf"
    bad.write_text("mrf 1 2\nnode 0 0 x\n")
    with pytest.raises(SystemExit, match="^error: line 2: "):
        main(["logz", "--graph", str(bad)])
    missing = str(tmp_path / "missing.mrf")
    for argv in (["logz", "--graph", missing], ["experiment", "--spec", missing],
                 ["reduce", "--in", missing, "--out", str(tmp_path / "out.mrf")],
                 ["decompose", "--alg", "minore", "--graph", str(square),
                  "--out", str(tmp_path / "no-dir" / "dec.txt")]):
        with pytest.raises(SystemExit, match=r"^error: \[Errno 2\] "):
            main(argv)
    for nmin in ("0", "-1"):
        with pytest.raises(SystemExit, match="^error: grid sides must be at least 1"):
            main(["limit", "--phi", "0", "0", "--psi", "0", "0", "0", "1",
                  "--nmin", nmin, "--nmax", "1"])


def test_limit_needs_a_full_psi_table():
    for psi in (["0", "0", "0"], ["0"] * 5):
        with pytest.raises(SystemExit, match="^psi needs 4 values for a 2-state table$"):
            main(["limit", "--phi", "0", "0", "--psi", *psi, "--nmax", "3"])


def test_huge_header_is_an_error_not_a_traceback(tmp_path):
    huge = tmp_path / "huge.mrf"
    huge.write_text("mrf 10000000000000 2\n")
    with pytest.raises(SystemExit, match="^error: missing node lines for 10000000000000 of "):
        main(["logz", "--graph", str(huge)])


def test_saw_commands(tmp_path, capsys):
    m = random_mrf(np.random.default_rng(0), Graph(3, [(0, 1), (0, 2), (1, 2)]))
    path = tmp_path / "tri.mrf"
    dump_mrf(m, path)
    assert main(["saw", "--graph", str(path), "--root", "0"]) == 0
    out = capsys.readouterr().out
    assert "tree_nodes 7" in out and "green 1" in out and "red 1" in out

    trace = tmp_path / "trace.txt"
    assert main(["saw", "--graph", str(path), "--msgpass",
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out.count("log_ratio") == 3
    assert trace.read_text().startswith("path 0 1")

    with pytest.raises(SystemExit):
        main(["saw", "--graph", str(path), "--trace", str(trace)])


def test_saw_empty_trace_path_is_an_error(tmp_path):
    path = tmp_path / "tri.mrf"
    dump_mrf(random_mrf(np.random.default_rng(0), Graph(3, [(0, 1), (0, 2), (1, 2)])), path)
    with pytest.raises(SystemExit, match=r"^error: \[Errno 2\] "):
        main(["saw", "--graph", str(path), "--msgpass", "--trace", ""])
    with pytest.raises(SystemExit, match="^--trace records the schedule"):
        main(["saw", "--graph", str(path), "--trace", ""])


def test_saw_trace_path_checked_before_the_schedule(tmp_path, monkeypatch):
    path = tmp_path / "tri.mrf"
    dump_mrf(random_mrf(np.random.default_rng(0), Graph(3, [(0, 1), (0, 2), (1, 2)])), path)
    calls = []
    monkeypatch.setattr(cli, "msg_pass_mode", lambda *a, **kw: calls.append(a))
    with pytest.raises(SystemExit, match=r"^error: \[Errno 2\] "):
        main(["saw", "--graph", str(path), "--msgpass",
              "--trace", str(tmp_path / "no-dir" / "trace.txt")])
    assert calls == []


def test_saw_rejects_out_of_range_root(tmp_path):
    path = tmp_path / "tri.mrf"
    dump_mrf(random_mrf(np.random.default_rng(0), Graph(3, [(0, 1), (0, 2), (1, 2)])), path)
    with pytest.raises(SystemExit, match="^error: node 3 out of range"):
        main(["saw", "--graph", str(path), "--root", "3"])


def test_reduce_round_trip(tmp_path):
    model = FactorModel(
        (2, 2),
        (
            ((0,), np.array([0.0, 1.0])),
            ((1,), np.array([0.0, 2.0])),
            ((0, 1), np.array([[0.0, 0.0], [0.0, 3.0]])),
        ),
    )
    fin = tmp_path / "model.fac"
    fin.write_text(write_factor_model(model))
    fout = tmp_path / "model.mrf"
    assert main(["reduce", "--in", str(fin), "--out", str(fout)]) == 0
    mrf = load_mrf(fout)
    assert mrf.q == 2 and mrf.n == 8
    # penalty encoding: brute MAP support decodes the all-ones assignment
    from localmrf import brute_map

    x, _ = brute_map(mrf)
    assert sum(x) == 3


def test_experiment_command(tmp_path):
    spec = tmp_path / "sweep.spec"
    spec.write_text(
        "topology=grid\nn=4\nmode=varying-interaction\nalphas=0.5\n"
        "decomp=minore\nr=2\nlambdas=3\ntrials=2\nseed=1\noracle=transfer\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["experiment", "--spec", str(spec), "--csv", str(out)]) == 0
    from localmrf.bench import records_from_csv

    records = records_from_csv(out.read_text())
    assert len(records) == 2
    assert all(r.lb <= r.exact_logz <= r.ub for r in records)


def test_experiment_builds_its_graph_once(tmp_path, monkeypatch):
    # parsing validates the spec, building the graph and checking the scheme
    # at each parameter; the run reuses that graph and those checks
    from localmrf import bench

    builds, schemes = [], []
    grid, scheme = bench.TOPOLOGIES["grid"], bench.scheme
    monkeypatch.setitem(bench.TOPOLOGIES, "grid", lambda spec: builds.append(spec) or grid(spec))
    monkeypatch.setattr(bench, "scheme", lambda *args: schemes.append(args) or scheme(*args))
    spec = tmp_path / "sweep.spec"
    spec.write_text("topology=grid\nn=4\nalphas=0.5\nr=2\nlambdas=3,4\ntrials=2\n")
    out = tmp_path / "sweep.csv"
    assert main(["experiment", "--spec", str(spec), "--csv", str(out)]) == 0
    assert len(builds) == 1
    assert len(schemes) == 2 + 4  # one check per lambda, one draw per cell


def test_limit_command(tmp_path):
    out = tmp_path / "limit.csv"
    assert main([
        "limit", "--phi", "0", "0.2", "--psi", "0.3", "0", "0", "0.3",
        "--nmin", "3", "--nmax", "5", "--k", "2", "--csv", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,log_z,a_n,slab_lb,slab_ub"
    assert len(lines) == 4
    for line in lines[1:]:
        n, log_z, a_n, lb, ub = line.split(",")
        assert float(lb) <= float(a_n) <= float(ub)
        assert float(a_n) >= math.log(2) - 1e-12
