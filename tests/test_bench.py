"""Experiment harness: generators, trial invariants, curves, free energy."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from localmrf import (
    FormatError,
    brute_log_z,
    connected_components,
    criscross_graph,
    grid_decomp,
    grid_graph,
    minor_vertex,
)
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
        missing = dataclasses.replace(base, components=base.components[1:])
        with pytest.raises(ValueError, match="components do not cover node 0"):
            criscross_decomposition(cc, missing)
        twice = dataclasses.replace(base, components=base.components + ((0,),))
        with pytest.raises(ValueError, match=r"do not partition the nodes \(node 0\)"):
            criscross_decomposition(cc, twice)
        outside = dataclasses.replace(base, components=base.components + ((16,),))
        with pytest.raises(ValueError, match=r"do not partition the nodes \(node 16\)"):
            criscross_decomposition(cc, outside)


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
        with pytest.raises(ValueError, match="ks must be >= 1"):
            ExperimentSpec(decomp="grid", ks=(2, 0)).validate()
        with pytest.raises(ValueError, match="ks must be >= 1"):
            parse_experiment_spec("decomp=grid\nks=0\n")

    def test_harness_sweep_digest(self):
        # sha256 of the benchmark's 120-trial 7x7 sweep as CSV, wall times
        # blanked, as the code gave it when the bracket and the MAP came from
        # two separate certificate passes
        spec = ExperimentSpec(topology="grid", n=7, lambdas=(3, 4, 5), trials=4, seed=0)
        records = [dataclasses.replace(rec, wall_time=None) for rec in run_experiment(spec)]
        digest = hashlib.sha256(records_to_csv(records).encode()).hexdigest()
        assert digest == "920c5f17731d62616f197cfbb77979b0c597fa7a075631b40f282115269333ee"

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
