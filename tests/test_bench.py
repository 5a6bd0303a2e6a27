"""Experiment harness: generators, trial invariants, curves, free energy."""

import dataclasses
import hashlib
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmrf import (
    FormatError,
    brute_log_z,
    connected_components,
    criscross_graph,
    grid_decomp,
    grid_graph,
    minor_vertex,
)
from localmrf import bench, decompose
from localmrf.bench import (
    ExperimentSpec,
    TrialRecord,
    bound_curve_value,
    bound_curves,
    criscross_decomposition,
    expected_range,
    free_energy_envelope,
    free_energy_sequence,
    homogeneous_grid_mrf,
    parse_experiment_spec,
    records_from_csv,
    records_to_csv,
    run_experiment,
    sample_potentials,
    VARYING_FIELD,
    VARYING_INTERACTION,
)


class TestGenerators:
    def test_grid_counts(self):
        assert grid_graph(2).n == 4 and len(grid_graph(2).edges) == 4
        assert len(grid_graph(4).edges) == 24  # 2n(n-1)

    def test_criscross_counts(self):
        assert len(criscross_graph(2).edges) == 6
        assert len(criscross_graph(4).edges) == 24 + 18  # + 2(n-1)^2

    def test_criscross_interior_degree(self):
        g = criscross_graph(4)
        # interior nodes gain exactly four diagonal neighbors
        assert g.degree(5) == 8
        assert g.degree(0) == 3


class TestSamplePotentials:
    def test_varying_interaction_ranges(self):
        g = grid_graph(4)
        m = sample_potentials(g, VARYING_INTERACTION, alpha=0.2, seed=1)
        # after the shift the table range still equals |theta|
        assert float((m.edge_max - m.edge_min).max()) <= 0.2
        phi_range = (m.phi.max(axis=1) - m.phi.min(axis=1)).max()
        assert float(phi_range) <= 0.05
        assert float(m.phi.min()) >= 0.0 and float(m.psi.min()) >= 0.0

    def test_varying_field_ranges(self):
        g = grid_graph(4)
        m = sample_potentials(g, VARYING_FIELD, alpha=2.0, seed=2)
        assert float((m.edge_max - m.edge_min).max()) <= 0.5
        phi_range = (m.phi.max(axis=1) - m.phi.min(axis=1)).max()
        assert float(phi_range) <= 2.0

    def test_deterministic(self):
        g = grid_graph(3)
        a = sample_potentials(g, VARYING_INTERACTION, 1.0, seed=7)
        b = sample_potentials(g, VARYING_INTERACTION, 1.0, seed=7)
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.psi, b.psi)


class TestCriscrossLift:
    def test_components_match_grid_blocks(self):
        cc = criscross_graph(4)
        base = grid_decomp(4, 2, 1, 0)
        lifted = criscross_decomposition(cc, base)
        assert lifted.components == base.components
        assert lifted.components == connected_components(
            cc, removed_edges=lifted.removed_edges
        )

    def test_only_crossing_diagonals_removed(self):
        cc = criscross_graph(4)
        base = grid_decomp(4, 2, 1, 1)
        lifted = criscross_decomposition(cc, base)
        comp_of = {}
        for i, comp in enumerate(base.components):
            for v in comp:
                comp_of[v] = i
        grid_edges = grid_graph(4).edges
        for (u, v) in cc.edge_list:
            if (u, v) in grid_edges:
                continue
            removed = (u, v) in lifted.removed_edges
            assert removed == (comp_of[u] != comp_of[v])

    def test_rejects_node_removal(self):
        dec = minor_vertex(grid_graph(4), 1, 2, 0)
        assert dec.removed_nodes
        with pytest.raises(ValueError, match="node-removing"):
            criscross_decomposition(criscross_graph(4), dec)

    def test_rejects_decomposition_of_another_graph(self):
        base = grid_decomp(4, 2, 1, 0)
        with pytest.raises(ValueError, match="16 nodes, the graph 25"):
            criscross_decomposition(criscross_graph(5), base)
        # a 9-node record whose removed edges are not all edges of the graph
        other = dataclasses.replace(grid_decomp(3, 2, 1, 0), removed_edges=base.removed_edges)
        with pytest.raises(ValueError, match="removed edges not in the graph"):
            criscross_decomposition(criscross_graph(3), other)

    def test_rejects_components_that_do_not_partition(self):
        cc, base = criscross_graph(4), grid_decomp(4, 2, 1, 0)
        # such a record is not built, so it never reaches the lift
        with pytest.raises(ValueError, match="components do not cover node 0"):
            criscross_decomposition(cc, dataclasses.replace(base, components=base.components[1:]))
        with pytest.raises(ValueError, match=r"do not partition the nodes \(node 0\)"):
            criscross_decomposition(cc, dataclasses.replace(base, components=base.components + ((0,),)))
        with pytest.raises(ValueError, match=r"do not partition the nodes \(node 16\)"):
            criscross_decomposition(cc, dataclasses.replace(base, components=base.components + ((16,),)))


class TestRunExperiment:
    def test_no_removal_zero_error(self):
        spec = ExperimentSpec(
            topology="grid", n=4, alphas=(0.5,), decomp="none",
            trials=3, seed=0, oracle="transfer",
        )
        for rec in run_experiment(spec):
            assert rec.gap == 0.0
            assert abs(rec.err_logz) <= 1e-9

    def test_trial_invariants_and_oracle(self):
        spec = ExperimentSpec(
            topology="grid", n=5, alphas=(0.6, 1.2), decomp="minore",
            r=3, lambdas=(4,), trials=3, seed=1, oracle="transfer",
        )
        records = run_experiment(spec)
        assert len(records) == 2 * 1 * 3
        for rec in records:
            assert rec.lb <= rec.exact_logz <= rec.ub
            assert rec.gap == pytest.approx(rec.ub - rec.lb, rel=1e-12)
            assert rec.h_hat <= rec.h_star + 1e-12
            assert rec.h_star - rec.gap <= rec.h_hat + 1e-12

    def test_criscross_trials(self):
        spec = ExperimentSpec(
            topology="criscross", n=4, alphas=(0.5,), decomp="grid",
            ks=(2,), trials=2, seed=2, oracle="transfer",
        )
        for rec in run_experiment(spec):
            assert rec.lb <= rec.exact_logz <= rec.ub

    def test_linechords_topology_with_brute_oracle(self):
        spec = ExperimentSpec(
            topology="linechords", n=10, chords_k=2, alphas=(0.8,),
            decomp="minore", r=2, lambdas=(3,), trials=3, seed=5,
            oracle="transfer",
        )
        for rec in run_experiment(spec):
            assert rec.exact_logz is not None  # the transfer sweep ran
            assert rec.lb <= rec.exact_logz <= rec.ub

    def test_random_topology_infeasible_oracle_flagged(self):
        # the 30x30 lattice is one connected component whose sweep needs a
        # table of 2^31 entries, beyond the 2^24 cap; the bounds still run
        spec = ExperimentSpec(
            topology="grid", n=30, alphas=(0.5,), decomp="minore", r=3,
            lambdas=(4,), trials=2, seed=6, oracle="transfer",
        )
        records = run_experiment(spec)
        for rec in records:
            assert rec.exact_logz is None and rec.err_logz is None
            assert rec.h_star is None and rec.err_map is None
            assert rec.lb < rec.ub
        # records with empty exact fields still round-trip
        assert records_from_csv(records_to_csv(records)) == records
        # no component of these 200 nodes exceeds 8 nodes: solved one
        # connected component at a time, the oracle is exact, and with no
        # edge removed the bracket closes on it
        spec = ExperimentSpec(
            topology="random", n=200, p=0.004, alphas=(0.5,),
            decomp="none", trials=2, seed=6, oracle="transfer",
        )
        for rec in run_experiment(spec):
            assert rec.gap == 0.0
            assert rec.lb == rec.exact_logz == rec.ub
            assert rec.h_hat == rec.h_star
        # 2^22 states, beyond brute enumeration: the sweep solves it
        spec = ExperimentSpec(
            topology="random", n=22, p=0.15, alphas=(0.5,),
            decomp="minore", r=2, lambdas=(4,), trials=2, seed=6,
            oracle="transfer",
        )
        for rec in run_experiment(spec):
            assert rec.lb <= rec.exact_logz <= rec.ub
            assert rec.h_hat <= rec.h_star + 1e-12
            assert rec.h_star - rec.gap <= rec.h_hat + 1e-12

    def test_grid_decomp_rejected_off_lattice(self):
        with pytest.raises(ValueError):
            ExperimentSpec(topology="random", decomp="grid").validate()

    def test_zero_slab_width_rejected(self):
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            ExperimentSpec(decomp="grid", ks=(2, 0)).validate()
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            parse_experiment_spec("decomp=grid\nks=0\n")
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            parse_experiment_spec("n=7\ndecomp=grid\nks=2,9\n")

    def test_harness_sweep_digest(self):
        # sha256 of the benchmark's 120-trial 7x7 sweep as CSV, wall times
        # blanked, as the code gave it when the bracket and the MAP came from
        # two separate certificate passes
        spec = ExperimentSpec(topology="grid", n=7, lambdas=(3, 4, 5), trials=4, seed=0)
        records = [dataclasses.replace(rec, wall_time=None) for rec in run_experiment(spec)]
        digest = hashlib.sha256(records_to_csv(records).encode()).hexdigest()
        assert digest == "920c5f17731d62616f197cfbb77979b0c597fa7a075631b40f282115269333ee"

    def test_every_scheme_path_digest(self):
        # sha256 of the CSVs of 14 sweeps, one per (topology, decomp) pair the
        # harness runs, wall times blanked, as the code gave it when each front
        # end turned the scheme name into a decomposition with its own code
        parts, count = [], 0
        for topology, n in (("grid", 5), ("criscross", 4), ("linechords", 12), ("random", 10)):
            for decomp in ("minore", "grid", "dbdim", "none"):
                if decomp == "grid" and topology not in ("grid", "criscross"):
                    continue
                spec = ExperimentSpec(
                    topology=topology, n=n, decomp=decomp, alphas=(0.5, 1.5),
                    lambdas=(3, 4), ks=(2, 3), K=4, trials=3, seed=7,
                )
                records = [dataclasses.replace(rec, wall_time=None)
                           for rec in run_experiment(spec)]
                count += len(records)
                parts.append(records_to_csv(records))
        assert count == 120
        digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        assert digest == "e2db6952404e7d990a5db8f59c4fa36169f40c46a084818f9ecde97b6d45bdf8"

    @pytest.mark.parametrize("spec, message", [
        (ExperimentSpec(n=7, decomp="grid", ks=(2, 9), alphas=(1.0,), trials=20),
         "need 1 <= k <= n"),
        (ExperimentSpec(n=7, decomp="minore", lambdas=(3, 0), alphas=(1.0,), trials=20),
         "need r >= 1 and lam >= 1"),
        (ExperimentSpec(n=7, alphas=(1.0, -1.0), trials=20), "alpha must be positive"),
        (ExperimentSpec(n=7, mode="bogus", alphas=(1.0,), trials=20), "unknown mode: bogus"),
    ])
    def test_bad_parameter_fails_before_first_trial(self, monkeypatch, spec, message):
        calls, certify = [], bench.certify
        monkeypatch.setattr(bench, "certify", lambda *a: calls.append(a) or certify(*a))
        with pytest.raises(ValueError, match=message):
            spec.validate()
        with pytest.raises(ValueError, match=message):
            run_experiment(spec)
        assert calls == []

    def test_shared_models_across_params(self):
        spec = ExperimentSpec(
            topology="grid", n=4, alphas=(1.0,), decomp="minore",
            r=3, lambdas=(3, 5), trials=2, seed=3, oracle="none",
        )
        records = run_experiment(spec)
        by_param = {}
        for rec in records:
            by_param.setdefault(rec.param, []).append(rec.model_seed)
        assert by_param[3] == by_param[5]


class TestCsvRoundTrip:
    def test_exact_round_trip(self):
        spec = ExperimentSpec(
            topology="grid", n=4, alphas=(0.7,), decomp="minore",
            r=2, lambdas=(3,), trials=2, seed=4, oracle="transfer",
        )
        records = run_experiment(spec)
        back = records_from_csv(records_to_csv(records))
        assert back == records

    def test_none_fields_round_trip(self):
        rec = TrialRecord(
            "grid", 4, VARYING_INTERACTION, 0.5, "minore", 3, 0, 1, 2,
            1.5, 2.5, 1.0, None, None, 2.0, None, None, 4, 6, 0.25,
        )
        assert records_from_csv(records_to_csv([rec])) == [rec]

    def test_malformed_rows_named(self):
        rec = TrialRecord(
            "grid", 4, VARYING_INTERACTION, 0.5, "minore", 3, 0, 1, 2,
            1.5, 2.5, 1.0, None, None, 2.0, None, None, 4, 6, 0.25,
        )
        header, row = records_to_csv([rec]).splitlines()
        for text, message in [
            (f"{header}\n{row}\n{row[: row.rindex(',')]}\n", "line 3: expected 20 fields, got 19"),
            (f"{header}\n{row},7\n", "line 2: expected 20 fields, got 21"),
            (f"{header}\n{row.replace(',4,', ',four,', 1)}\n", "line 2: n is not a number"),
            (f"{header}\n{row.replace('0.5', 'half', 1)}\n", "line 2: alpha is not a number"),
            (f"{header.replace('alpha', 'beta')}\n{row}\n", "line 1: unexpected CSV header"),
            ("", "line 1: unexpected CSV header"),
            # text that is not CSV, named by its line, and only after the
            # bad lines before it
            (f"{header}\n{row}\na\rb,1\n", "line 3: not valid CSV: new-line character seen"),
            (f"{header}\n{row},7\na\rb,1\n", "line 2: expected 20 fields, got 21"),
            ("a\rb\n", "line 1: not valid CSV: "),
        ]:
            with pytest.raises(FormatError, match=f"^{message}"):
                records_from_csv(text)


class TestSpecFile:
    def test_parse(self):
        text = """
        # sweep
        topology=grid
        n=7
        mode=varying-interaction
        alphas=0.2,0.4
        decomp=minore
        r=3
        lambdas=3,4,5
        trials=40
        seed=11
        oracle=transfer
        """
        spec = parse_experiment_spec(text)
        assert spec.n == 7 and spec.lambdas == (3, 4, 5)
        assert spec.alphas == (0.2, 0.4)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_experiment_spec("foo=1\n")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            parse_experiment_spec("alphas=\n")

    def test_lattice_side_checked_at_parse_time(self):
        for text in ("n=1\n", "topology=criscross\nn=0\n"):
            with pytest.raises(ValueError, match="^need n >= 2$"):
                parse_experiment_spec(text)
        assert parse_experiment_spec("n=2\n").build_graph() == grid_graph(2)

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle brute"):
            parse_experiment_spec("oracle=brute\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("n=7\ntopology grid\n", 2),
            ("# sweep\nn=seven\n", 2),
            ("n=7.5\n", 1),
            ("n=\n", 1),
            ("eps=nan\n", 1),
            ("n=7\np=inf\n", 2),
            ("alphas=0.2,-inf\n", 1),
            ("alphas=0.2,,0.4\n", 1),
            ("lambdas=3,x\n", 1),
            ("n=7\n\nn=8\n", 3),
            ("foo=1\n", 1),
        ],
    )
    def test_bad_line_named(self, text, line):
        with pytest.raises(FormatError, match=f"^line {line}: "):
            parse_experiment_spec(text)

    @pytest.mark.parametrize("text, message", [
        ("topology=linechords\nn=7\nchords_k=9\n", "need 1 <= k <= n/2"),
        ("topology=random\nn=-3\n", "node count must be an integer >= 0"),
        ("topology=random\np=1.7\n", r"p must be in \[0, 1\]"),
        ("topology=random\np=-0.5\n", r"p must be in \[0, 1\]"),
    ])
    def test_graph_checked_at_parse_time(self, text, message):
        # the topology's builder runs at parse time, before any trial
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_experiment_spec(text)

    def test_validate_takes_exactly_the_edge_schemes(self):
        for name in (*decompose.EDGE_SCHEMES, "dbdim-v", "minorv", "bogus"):
            spec = ExperimentSpec(n=4, decomp=name)
            if name in decompose.EDGE_SCHEMES:
                spec.validate()
            else:
                with pytest.raises(ValueError, match=f"^unknown decomposition {name}$"):
                    spec.validate()

    @pytest.mark.parametrize("spec, message", [
        (ExperimentSpec(n=4, trials=0), "need at least one trial"),
        (ExperimentSpec(n=4, alphas=()), "parameter grids must be non-empty"),
        (ExperimentSpec(n=4, decomp="minore", lambdas=()), "parameter grids must be non-empty"),
        (ExperimentSpec(n=4, decomp="grid", ks=()), "parameter grids must be non-empty"),
        (ExperimentSpec(n=4, topology="torus"), "unknown topology torus"),
    ])
    def test_spec_rejected(self, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec.validate()


def _spec_text(spec: ExperimentSpec) -> str:
    """Every field of ``spec`` as a key=value line."""
    lines = []
    for f in dataclasses.fields(spec):
        val = getattr(spec, f.name)
        lines.append(f"{f.name}={','.join(map(repr, val)) if isinstance(val, tuple) else val}")
    return "\n".join(lines) + "\n"


@st.composite
def _valid_specs(draw):
    topology = draw(st.sampled_from(sorted(bench.TOPOLOGIES)))
    n = draw(st.integers(2, 6))
    schemes = decompose.EDGE_SCHEMES
    if topology not in bench.LATTICES:
        schemes = tuple(name for name in schemes if name != "grid")
    return ExperimentSpec(
        topology=topology,
        n=n,
        mode=draw(st.sampled_from([VARYING_INTERACTION, VARYING_FIELD])),
        alphas=tuple(draw(st.lists(st.floats(0, 1e6, exclude_min=True), min_size=1, max_size=3))),
        decomp=draw(st.sampled_from(schemes)),
        r=draw(st.integers(1, 5)),
        lambdas=tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))),
        ks=tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=3))),
        eps=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        K=draw(st.integers(1, 100)),
        chords_k=draw(st.integers(1, n // 2)),
        p=draw(st.floats(0, 1)),
        trials=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        oracle=draw(st.sampled_from(["transfer", "none"])),
    )


# any value of each TrialRecord field type: None, +-inf and 17-digit floats
_FIELD_VALUES = {
    str: st.text(),
    int: st.integers(),
    float: st.floats(allow_nan=False),
    float | None: st.none() | st.floats(allow_nan=False),
}


class TestSingleSchema:
    @given(_valid_specs())
    @settings(max_examples=80, deadline=None)
    def test_spec_text_round_trip(self, spec):
        # by repr too, so an int read back as a float does not pass
        back = parse_experiment_spec(_spec_text(spec))
        assert back == spec and repr(back) == repr(spec)

    @given(st.lists(st.builds(TrialRecord, **{
        name: _FIELD_VALUES[kind] for name, kind in typing.get_type_hints(TrialRecord).items()
    }), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_csv_round_trip(self, records):
        back = records_from_csv(records_to_csv(records))
        assert back == records and repr(back) == repr(records)


class TestBoundCurves:
    def test_zero_interaction_zero_bound(self):
        assert bound_curve_value("grid", 100, VARYING_INTERACTION, 0.0, 0.5) == 0.0

    def test_doubling_k_halves_grid_bound(self):
        rows = dict()
        for _, k, val in bound_curves("grid", 100, VARYING_INTERACTION, (1.0,),
                                      "grid", (2, 4)):
            rows[k] = val
        assert rows[4] == pytest.approx(rows[2] / 2.0)

    def test_varying_field_curve_is_flat(self):
        vals = [
            bound_curve_value("grid", 100, VARYING_FIELD, a, 0.75)
            for a in (0.2, 1.0, 2.0)
        ]
        assert vals[0] == vals[1] == vals[2]

    def test_scale_free_up_to_boundary_term(self):
        per_edge = lambda n: bound_curve_value(
            "grid", n, VARYING_INTERACTION, 1.0, 0.5
        ) * n**2 / (2 * n * (n - 1))
        assert per_edge(100) == pytest.approx(per_edge(1000), rel=1e-12)

    def test_criscross_triples_grid_asymptotically(self):
        g = bound_curve_value("grid", 1000, VARYING_INTERACTION, 1.0, 0.25)
        c = bound_curve_value("criscross", 1000, VARYING_INTERACTION, 1.0, 0.25)
        assert c / g == pytest.approx(3.0, rel=5e-3)

    def test_expected_range_independent_of_field(self):
        assert expected_range(VARYING_FIELD, 0.2) == expected_range(VARYING_FIELD, 2.0)

    def test_unknown_mode_and_negative_alpha_rejected(self):
        # the messages sample_potentials gives for the same mode and alpha
        with pytest.raises(ValueError, match="^unknown mode: bogus$"):
            expected_range("bogus", 1.0)
        with pytest.raises(ValueError, match="^unknown mode: bogus$"):
            bound_curves("grid", 10, "bogus", (1.0,), "minore", (3,))
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            expected_range(VARYING_INTERACTION, -2.0)
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            bound_curve_value("grid", 10, VARYING_FIELD, -1.0, 0.5)
        with pytest.raises(ValueError, match="^unknown mode: bogus$"):
            expected_range("bogus", 0.0)

    def test_unknown_scheme_and_topology_rejected(self):
        for name in ("dbdim", "none", "bogus"):
            with pytest.raises(ValueError, match="^bound curves cover minore and grid schemes$"):
                bound_curves("grid", 10, VARYING_INTERACTION, (1.0,), name, (3,))
        for topology in ("random", "linechords", "bogus"):
            with pytest.raises(ValueError, match=f"^unknown topology {topology}$"):
                bench.edge_profile(topology, 5)


class TestFreeEnergy:
    def test_trivial_tables_give_log2(self):
        points = free_energy_sequence([0.0, 0.0], [[0.0] * 2] * 2, range(2, 6))
        for p in points:
            assert p.a_n == pytest.approx(math.log(2), rel=1e-12)

    def test_matches_brute_small(self):
        phi = [0.1, 0.3]
        psi = [[0.4, 0.0], [0.0, 0.4]]
        m = homogeneous_grid_mrf(phi, psi, 3)
        pts = free_energy_sequence(phi, psi, [3])
        assert pts[0].log_z == pytest.approx(brute_log_z(m), rel=1e-10)

    def test_envelope_and_slab_bounds(self):
        phi = [0.0, 0.2]
        psi = [[0.3, 0.0], [0.0, 0.3]]
        lo, hi = free_energy_envelope(phi, psi)
        points = free_energy_sequence(phi, psi, range(3, 7), slab_k=2)
        for p in points:
            assert lo <= p.a_n <= hi
            assert p.slab_lb <= p.a_n <= p.slab_ub

    def test_envelope_rejects_negative(self):
        with pytest.raises(ValueError):
            free_energy_envelope([-0.1, 0.0], [[0.0] * 2] * 2)
