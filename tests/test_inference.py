"""Log-partition bounds and MAP estimates against exact oracles."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmrf import (
    Graph,
    criscross_graph,
    PairwiseMrf,
    db_dim_edge,
    brute_log_z,
    brute_map,
    certify,
    criscross_decomposition,
    empty_edge_decomposition,
    energy,
    grid_decomp,
    grid_graph,
    grid_transfer_log_z,
    log_partition_bounds,
    minor_edge,
    minor_vertex,
    mode_estimate,
    parse_mrf_text,
    write_mrf_text,
)
from localmrf.bench import VARYING_INTERACTION, sample_potentials
from localmrf.decompose import EDGE_SCHEMES, Decomposition, edge_cut, scheme
from localmrf.exact import solve_components
from localmrf.inference import InferenceBounds, MapEstimate
from localmrf.core import connected_components

from helpers import COPIES, edge_cut_by_loop, labels_of, random_graph, random_mrf


def coupled_pair():
    return PairwiseMrf(
        Graph(2, [(0, 1)]), 2, [[0, 0], [0, 0]], {(0, 1): [[0, 0], [0, 1]]}
    )


def cut_decomposition(graph, removed):
    removed = frozenset(removed)
    return Decomposition(
        "manual",
        graph.n,
        connected_components(graph, removed_edges=removed),
        0.0,
        None,
        removed_edges=removed,
    )


class TestLogPartitionBounds:
    def test_empty_removal_is_exact(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 7, 0.4)
        m = random_mrf(rng, g)
        b = log_partition_bounds(m, empty_edge_decomposition(g))
        assert b.gap == 0.0
        assert b.log_z_lb == pytest.approx(brute_log_z(m), rel=1e-12)
        assert b.log_z_lb == b.log_z_ub

    def test_two_node_worked_example(self):
        m = coupled_pair()
        b = log_partition_bounds(m, cut_decomposition(m.graph, [(0, 1)]))
        assert b.log_z_lb == pytest.approx(math.log(4))
        assert b.log_z_ub == pytest.approx(math.log(4) + 1)
        true = math.log(3 + math.e)
        assert b.log_z_lb <= true <= b.log_z_ub
        assert list(b.component_log_z) == pytest.approx(
            [math.log(2), math.log(2)]
        )

    def test_bracket_on_grid_against_transfer(self):
        rng = np.random.default_rng(1)
        g = grid_graph(5)
        m = random_mrf(rng, g, lo=0.0, hi=1.0)
        exact = grid_transfer_log_z(m)
        for seed in range(50):
            dec = minor_edge(g, 3, 4, seed=seed)
            b = log_partition_bounds(m, dec)
            assert b.log_z_lb <= exact + 1e-9 * abs(exact)
            assert exact <= b.log_z_ub + 1e-9 * abs(exact)

    def test_gap_identity(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 9, 0.35)
        m = random_mrf(rng, g, lo=-2.0, hi=2.0)
        for seed in range(20):
            dec = minor_edge(g, 2, 3, seed=seed)
            b = log_partition_bounds(m, dec)
            expected = m.edge_range_sum(dec.removed_edges)
            assert b.gap == mode_estimate(m, dec).guarantee_gap == expected

    def test_gap_with_infeasible_component(self):
        # a component with log Z = -inf makes UB - LB nan; the gap is still
        # the removed edges' range sum
        g = grid_graph(3)
        rng = np.random.default_rng(21)
        phi = np.zeros((9, 2))
        phi[4] = -np.inf
        psi = rng.integers(0, 7, size=(len(g.edge_list), 2, 2)).astype(float)
        m = PairwiseMrf(g, 2, phi, psi)
        dec = minor_edge(g, 1, 2, 0)
        b = log_partition_bounds(m, dec)
        assert b.log_z_lb == b.log_z_ub == -math.inf
        expected = m.edge_range_sum(dec.removed_edges)
        assert expected > 0.0
        assert b.gap == mode_estimate(m, dec).guarantee_gap == expected

    def test_removed_edge_inside_surviving_component(self):
        # cutting one triangle edge leaves its endpoints connected through
        # the third node; the cut edge must count only via its min/max
        rng = np.random.default_rng(12)
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        m = random_mrf(rng, g, lo=-1.0, hi=1.0)
        dec = cut_decomposition(g, [(0, 1)])
        assert dec.components == ((0, 1, 2),)
        b = log_partition_bounds(m, dec)
        z = brute_log_z(m)
        assert b.log_z_lb <= z <= b.log_z_ub
        lo, hi = float(m.edge_min[0]), float(m.edge_max[0])
        assert b.gap == pytest.approx(hi - lo, rel=1e-12)
        est = mode_estimate(m, dec)
        _, h_star = brute_map(m)
        assert h_star - est.guarantee_gap <= est.energy <= h_star + 1e-12

    def test_rejects_mismatched_decomposition(self):
        m = coupled_pair()
        alien = cut_decomposition(Graph(3, [(0, 1)]), [])
        with pytest.raises(ValueError):
            log_partition_bounds(m, alien)

    def test_rejects_unlifted_grid_cut_of_criscross(self):
        # the slab cut keeps the diagonals that cross its blocks, which
        # would be solved nowhere: UB 21.09 < log Z 22.14 if accepted
        m = sample_potentials(criscross_graph(4), VARYING_INTERACTION, 1.0, 3)
        dec = grid_decomp(4, 2, 0, 0)
        for run in (log_partition_bounds, mode_estimate, certify):
            with pytest.raises(ValueError, match="crosses two components"):
                run(m, dec)

    def test_rejects_components_not_covering_nodes(self):
        # accepted, it would certify UB 6.84 < log Z 9.81 on
        # sample_potentials(grid_graph(3), VARYING_INTERACTION, 1.0, 1)
        g = grid_graph(3)
        with pytest.raises(ValueError, match="do not cover node 2"):
            Decomposition("manual", 9, ((0,), (1,)), 0.0, None, removed_edges=g.edges)

    def test_rejects_overlapping_components(self):
        g = grid_graph(2)
        with pytest.raises(ValueError, match="do not partition"):
            Decomposition("manual", 4, ((0, 1), (1, 2), (3,)), 0.0, None, removed_edges=g.edges)

    def test_rejects_node_removal(self):
        g = grid_graph(3)
        m = random_mrf(np.random.default_rng(2), g)
        dec = minor_vertex(g, r=1, lam=2, seed=0)
        assert dec.removed_nodes
        for run in (log_partition_bounds, mode_estimate, certify):
            with pytest.raises(ValueError, match="removes nodes"):
                run(m, dec)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_accepted_iff_certificate_covers_every_edge(self, seed, n, parts):
        # random labelling into parts, the crossing edges removed plus some
        # internal ones; dropping one crossing edge from B must be rejected
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, 0.5)
        m = random_mrf(rng, g, lo=-1.0, hi=1.0)
        label = rng.integers(parts, size=n)
        comps = tuple(
            tuple(int(v) for v in np.flatnonzero(label == i))
            for i in range(parts)
            if (label == i).any()
        )
        crossing = {(u, v) for u, v in g.edge_list if label[u] != label[v]}
        internal = [e for e in g.edge_list if e not in crossing]
        removed = crossing | {e for e in internal if rng.random() < 0.3}
        dec = Decomposition("manual", n, comps, 0.0, None, removed_edges=frozenset(removed))
        b = log_partition_bounds(m, dec)
        z = brute_log_z(m)
        assert b.log_z_lb <= z + 1e-9 and z <= b.log_z_ub + 1e-9
        _, h_star = brute_map(m)
        est = mode_estimate(m, dec)
        assert h_star - est.guarantee_gap - 1e-9 <= est.energy <= h_star + 1e-9
        assert repr(certify(m, dec)) == repr((b, est))
        if crossing:
            kept = min(crossing)
            leaky = Decomposition(
                "manual", n, comps, 0.0, None, removed_edges=frozenset(removed - {kept})
            )
            for run in (log_partition_bounds, certify):
                with pytest.raises(ValueError):
                    run(m, leaky)


_SLAB = grid_decomp(4, 2, 1, 0)


@pytest.mark.parametrize("record, message", [
    (grid_decomp(3, 2, 1, 0), "decomposition has 9 nodes, the graph 16"),
    (minor_vertex(grid_graph(4), 1, 2, 0), "node-removing decomposition minorv"),
    (replace(_SLAB, removed_edges=_SLAB.removed_edges | {(0, 15)}),
     r"removed edges not in the graph: \[\(0, 15\)\]"),
], ids=["node-count", "node-removing", "stray-edge"])
def test_certify_and_lift_reject_a_malformed_record_alike(record, message):
    cc = criscross_graph(4)
    m = sample_potentials(cc, VARYING_INTERACTION, 1.0, 0)
    with pytest.raises(ValueError, match=message) as lift:
        criscross_decomposition(cc, record)
    with pytest.raises(ValueError) as cert:
        certify(m, record)
    assert str(cert.value) == str(lift.value)


@pytest.mark.parametrize("components, message", [
    (_SLAB.components[1:], "components do not cover node 0"),
    (_SLAB.components + ((0,),), r"do not partition the nodes \(node 0\)"),
    (_SLAB.components + ((16,),), r"do not partition the nodes \(node 16\)"),
    (((0.0, 1),) + _SLAB.components[1:], r"^node 0\.0 is not an integer id$"),
    ((("0", 1),) + _SLAB.components[1:], r"^node '0' is not an integer id$"),
], ids=["missing", "doubled", "out-of-range", "float-id", "str-id"])
def test_a_record_that_does_not_partition_is_not_built(components, message):
    # the check needs no graph, so it runs where the record is built
    with pytest.raises(ValueError, match=message):
        replace(_SLAB, components=components)


def test_numpy_integer_ids_are_ids():
    m = sample_potentials(grid_graph(4), VARYING_INTERACTION, 1.0, 0)
    ids = replace(_SLAB, components=tuple(tuple(map(np.int64, c)) for c in _SLAB.components))
    assert certify(m, ids) == certify(m, _SLAB)


@pytest.mark.parametrize("at", [1, 2])
def test_empty_component_reads_zero(at):
    # an empty component carries no node, so no label when it comes last,
    # yet it keeps its place in component_log_z with log Z 0.0
    m = sample_potentials(grid_graph(2), VARYING_INTERACTION, 1.0, 3)
    dec = cut_decomposition(m.graph, [(0, 2), (1, 3)])
    assert dec.components == ((0, 1), (2, 3))
    comps = dec.components[:at] + ((),) + dec.components[at:]
    bounds, estimate = certify(m, replace(dec, components=comps))
    ref_bounds, ref_estimate = certify(m, dec)
    log_z = list(ref_bounds.component_log_z)
    log_z.insert(at, 0.0)
    assert repr(bounds) == repr(replace(ref_bounds, component_log_z=tuple(log_z)))
    assert repr(estimate) == repr(ref_estimate)
    assert log_partition_bounds(m, replace(dec, components=comps)) == bounds


def left_fold(terms):
    total = 0.0
    for t in terms:
        total += float(t)
    return total


def spy_edge_rows(monkeypatch) -> list:
    """The graphs that ``Graph.edge_rows`` is called on from now on, in order."""
    calls, lookup = [], Graph.edge_rows
    monkeypatch.setattr(Graph, "edge_rows", lambda graph, pairs: calls.append(graph) or lookup(graph, pairs))
    return calls


class TestCarvedRecord:
    """A record is its arrays, however it was built, and ``edge_cut`` checks
    every record against the graph it is given."""

    @pytest.mark.parametrize("name", ["minore", "dbdim", "grid"])
    def test_parsed_model_builds_no_tuple_views(self, name):
        text = write_mrf_text(sample_potentials(grid_graph(30), VARYING_INTERACTION, 1.0, 4))
        m = parse_mrf_text(text)
        dec = scheme(m.graph, name, eps=0.5, K=3, r=3, lam=5, k=5)(0)
        bounds, estimate = certify(m, dec)
        assert log_partition_bounds(m, dec) == bounds and mode_estimate(m, dec) == estimate
        assert {"adjacency", "edge_list", "edges"}.isdisjoint(vars(m.graph))

    def test_carried_arrays_equal_the_full_check(self):
        rng = np.random.default_rng(8)
        graphs = [grid_graph(6), criscross_graph(5), Graph(0, []), Graph(4, []),
                  *(random_graph(rng, n, 0.3) for n in (5, 9, 14))]
        for g in graphs:
            for dec in (minor_edge(g, 2, 3, 1), db_dim_edge(g, 0.5, 3, 1), empty_edge_decomposition(g)):
                comp_of, cut = edge_cut(g, dec)
                checked = edge_cut(Graph(g.n, g.edge_list), dec)
                assert comp_of.tolist() == checked[0].tolist() and cut.tolist() == checked[1].tolist()
                for labels, mask in ((comp_of, cut), checked):
                    assert labels.dtype == np.intp and mask.dtype == bool
                    assert not (labels.flags.writeable or mask.flags.writeable)

    @pytest.mark.parametrize("solve", [certify, log_partition_bounds, mode_estimate])
    def test_certificate_builds_no_record_view(self, solve):
        # the bracket keeps one log Z per component; the record keeps the nodes
        m = sample_potentials(grid_graph(12), VARYING_INTERACTION, 1.0, 5)
        dec = minor_edge(m.graph, 3, 4, 0)
        solve(m, dec)
        assert {"components", "removed_nodes", "removed_edges"}.isdisjoint(vars(dec))

    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize("carve", [minor_edge, minor_vertex])
    def test_copy_is_rebuilt_from_its_arrays(self, how, carve):
        dec = carve(grid_graph(6), 2, 3, 1)
        dec.components, dec.removed_nodes, dec.removed_edges  # cache the views
        c = COPIES[how](dec)
        assert {"components", "removed_nodes", "removed_edges"}.isdisjoint(vars(c))
        for a, b in ((c.comp_of, dec.comp_of), (c.removed_ends, dec.removed_ends)):
            assert np.array_equal(a, b) and a.dtype == np.intp and not a.flags.writeable
        assert c.n_components == dec.n_components
        assert c == dec and hash(c) == hash(dec) and repr(c) == repr(dec)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_record_is_its_arrays(self, data):
        name = data.draw(st.sampled_from(EDGE_SCHEMES))
        if name == "grid":  # a square or cris-cross lattice
            lattice = data.draw(st.sampled_from([grid_graph, criscross_graph]))
            g = lattice(data.draw(st.integers(1, 5)))
        else:
            n = data.draw(st.integers(0, 14))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else [])
        twin = Graph(g.n, g.edge_list[::-1])  # equal to g, built apart
        side = max(1, math.isqrt(g.n))
        dec = scheme(g, name, eps=data.draw(st.sampled_from([0.2, 0.5])), K=data.draw(st.integers(2, 5)),
                     r=data.draw(st.integers(1, 3)), lam=data.draw(st.integers(1, 4)),
                     k=data.draw(st.integers(1, side)))(data.draw(st.integers(0, 2**32)))
        # a carved record holds its arrays and no tuple view
        assert {"components", "removed_nodes", "removed_edges"}.isdisjoint(vars(dec))
        fields = [getattr(dec, f) for f in Decomposition.__dataclass_fields__]
        for other in (Decomposition(*fields), replace(dec)):
            assert other == dec and hash(other) == hash(dec) and repr(other) == repr(dec)
        reference = edge_cut_by_loop(g, dec)
        for graph in (g, twin):
            comp_of, cut = edge_cut(graph, dec)
            assert comp_of.tolist() == reference[0] and cut.tolist() == reference[1]
        assert dec.max_component == max(map(len, dec.components), default=0)

    def test_record_is_its_fields(self):
        g = grid_graph(4)
        dec = minor_edge(g, 2, 3, 5)
        twin = Decomposition(*(getattr(dec, f) for f in Decomposition.__dataclass_fields__))
        assert dec == twin and hash(dec) == hash(twin) and repr(dec) == repr(twin)
        assert replace(dec) == dec
        m = sample_potentials(g, VARYING_INTERACTION, 1.0, 2)
        assert certify(m, twin) == certify(m, dec) == certify(m, replace(dec))

    def test_carving_graph_is_checked_too(self, monkeypatch):
        g, twin = grid_graph(5), grid_graph(5)
        m = sample_potentials(twin, VARYING_INTERACTION, 1.0, 6)
        dec = minor_edge(g, 2, 3, 7)
        looked_up = spy_edge_rows(monkeypatch)
        assert certify(m, dec) == certify(sample_potentials(g, VARYING_INTERACTION, 1.0, 6), dec)
        # the twin is equal to g, so identity tells which was checked
        assert [id(graph) for graph in looked_up] == [id(twin), id(g)]

    def test_replaced_record_is_checked(self):
        dec = minor_edge(grid_graph(4), 2, 3, 1)
        node = dec.components[0][0]
        with pytest.raises(ValueError, match=rf"^components do not partition the nodes \(node {node}\)$"):
            replace(dec, components=dec.components[:1] * 2 + dec.components[1:])

    def test_hand_built_stray_edge_is_checked(self):
        g = grid_graph(3)
        m = sample_potentials(g, VARYING_INTERACTION, 1.0, 3)
        stray = Decomposition("manual", 9, (tuple(range(9)),), 0.0, None,
                              removed_edges=frozenset({(0, 1), (0, 4)}))
        for run in (log_partition_bounds, mode_estimate, certify):
            with pytest.raises(ValueError, match=r"^removed edges not in the graph: \[\(0, 4\)\]$"):
                run(m, stray)

    @pytest.mark.parametrize("pair", [(1, 0), (-1, 0), (2**70, 0), (0, 0), (0, 1, 2)])
    def test_hostile_removed_pair_is_named(self, pair):
        # a reversed pair, a negative id, an id beyond intp, a self pair and
        # a 3-tuple are each named as the full check named them before; the
        # last two are no pair of intp ids, so the record is not built
        g, cc = grid_graph(3), criscross_graph(3)
        m = sample_potentials(g, VARYING_INTERACTION, 1.0, 3)
        carved = grid_decomp(3, 2, 0, 0)

        def hand():
            return Decomposition("manual", 9, (tuple(range(9)),), 0.0, None,
                                 removed_edges=frozenset({(0, 1), pair}))

        def grown():
            return replace(carved, removed_edges=carved.removed_edges | {pair})

        runs = (lambda: certify(m, hand()), lambda: criscross_decomposition(cc, hand()),
                lambda: criscross_decomposition(cc, grown()))
        for run in (hand, grown) if pair in ((2**70, 0), (0, 1, 2)) else runs:
            with pytest.raises(ValueError, match=f"^{re.escape(f'removed edges not in the graph: [{pair}]')}$"):
                run()

    def test_lift_checks_its_input(self, monkeypatch):
        cc = criscross_graph(4)
        carved = minor_edge(cc, 2, 3, 1)
        with pytest.raises(ValueError, match=r"^removed edges not in the graph: "):
            criscross_decomposition(grid_graph(4), carved)
        looked_up = spy_edge_rows(monkeypatch)
        lifted = criscross_decomposition(cc, grid_decomp(4, 2, 0, 1))
        assert [id(graph) for graph in looked_up] == [id(cc)]
        assert edge_cut(cc, lifted)[1].sum() == len(lifted.removed_edges)


class TestPrunedReference:
    """Bounds and MAPs equal a reference built on the pruned model, bit for bit."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 4),
        st.sampled_from([2, 3]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_without_edges_reference(self, seed, n, groups, q, forced):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
        m = random_mrf(rng, g, q=q, lo=-2.0, hi=2.0)
        if forced:
            phi = np.array(m.phi)
            phi[rng.integers(n), rng.integers(q)] = -math.inf
            m = PairwiseMrf(g, q, phi, m.psi)
        # components need not be connected; every crossing edge is removed,
        # and so are some edges inside a component
        label = rng.integers(0, groups, size=n)
        comps = tuple(
            tuple(int(v) for v in rng.permutation(np.flatnonzero(label == c)))
            for c in range(groups) if (label == c).any()
        )
        removed = frozenset(
            (u, v) for u, v in g.edge_list if label[u] != label[v] or rng.random() < 0.3
        )
        dec = Decomposition("manual", n, comps, 0.0, None, removed_edges=removed)
        # a component is a node set: it reads back ascending
        assert dec.components == tuple(tuple(sorted(c)) for c in comps)

        ref_z, ref_x = solve_components(m.without_edges(removed), labels_of(comps, n))
        rows = [g.edge_list.index(e) for e in sorted(removed)]
        lo, hi = m.edge_min[rows], m.edge_max[rows]
        total = left_fold(ref_z)
        gap = left_fold(hi - lo)
        b = log_partition_bounds(m, dec)
        assert repr(b) == repr(InferenceBounds(
            total + left_fold(lo),
            total + left_fold(hi),
            gap,
            tuple(ref_z.tolist()),  # entry i is the log Z of dec.components[i]
            0.0 * (g.max_degree + 1),  # the record's eps_target times (max degree + 1)
        ))
        x = [int(s) for s in ref_x]
        h = left_fold([m.phi[v, x[v]] for v in range(n)]
                      + [m.edge_table(u, v)[x[u], x[v]] for u, v in g.edge_list])
        est = mode_estimate(m, dec)
        assert repr(est) == repr(MapEstimate(tuple(x), h, gap))
        assert repr(certify(m, dec)) == repr((b, est))


class TestModeEstimate:
    def test_empty_removal_matches_brute(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 7, 0.4)
        m = random_mrf(rng, g)
        est = mode_estimate(m, empty_edge_decomposition(g))
        x, h = brute_map(m)
        assert est.assignment == x
        assert est.energy == h
        assert est.guarantee_gap == 0.0

    def test_single_edge_cut_sandwich(self):
        m = coupled_pair()
        est = mode_estimate(m, cut_decomposition(m.graph, [(0, 1)]))
        # per-node argmax ties resolve to 0, so the stitched answer is (0,0)
        assert est.assignment == (0, 0)
        assert est.energy == 0.0
        x, h_star = brute_map(m)
        assert h_star == 1.0
        assert h_star - est.guarantee_gap <= est.energy <= h_star

    def test_energy_is_true_model_energy(self):
        rng = np.random.default_rng(4)
        g = grid_graph(4)
        m = random_mrf(rng, g)
        dec = minor_edge(g, 3, 3, seed=11)
        est = mode_estimate(m, dec)
        assert est.energy == energy(m, est.assignment)

    def test_criscross_slab_sandwich_all_offsets(self):
        from localmrf.bench import criscross_decomposition
        from localmrf import criscross_graph, grid_decomp

        rng = np.random.default_rng(10)
        cc = criscross_graph(4)
        m = random_mrf(rng, cc, lo=-0.8, hi=0.8)
        _, h_star = brute_map(m)
        z = brute_log_z(m)
        for l1 in range(2):
            for l2 in range(2):
                dec = criscross_decomposition(cc, grid_decomp(4, 2, l1, l2))
                est = mode_estimate(m, dec)
                assert h_star - est.guarantee_gap <= est.energy <= h_star + 1e-12
                b = log_partition_bounds(m, dec)
                assert b.log_z_lb <= z <= b.log_z_ub

    def test_sandwich_random_cuts(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            g = random_graph(rng, 8, 0.4)
            m = random_mrf(rng, g, lo=-1.0, hi=1.0)
            edges = list(g.edge_list)
            removed = [e for e in edges if rng.random() < 0.4]
            dec = cut_decomposition(g, removed)
            est = mode_estimate(m, dec)
            _, h_star = brute_map(m)
            assert est.energy <= h_star + 1e-12
            assert h_star - est.guarantee_gap <= est.energy + 1e-12


class TestRelativeErrorBound:
    def test_zero_gap(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 5, 0.5)
        m = random_mrf(rng, g)
        b = log_partition_bounds(m, empty_edge_decomposition(g))
        assert b.relative_gap == 0.0
        assert b.log_z_lb > 0.0

    def test_two_node_value(self):
        m = coupled_pair()
        b = log_partition_bounds(m, cut_decomposition(m.graph, [(0, 1)]))
        assert b.relative_gap == pytest.approx(1.0 / math.log(4))
        assert b.relative_gap == b.gap / b.log_z_lb
        assert b.gap == pytest.approx(1.0)

    def test_absolute_only_flag(self):
        # strongly negative tables push the certified lower bound below zero
        m = PairwiseMrf(Graph(1, []), 2, [[-10.0, -10.0]], {})
        b = log_partition_bounds(m, empty_edge_decomposition(m.graph))
        assert b.log_z_lb <= 0.0
        assert b.relative_gap == math.inf
        assert b.gap == 0.0  # the absolute certificate stands

    def test_apriori_bound_value(self):
        g = grid_graph(4)
        rng = np.random.default_rng(7)
        m = random_mrf(rng, g)
        dec = minor_edge(g, 3, 4, seed=0)
        b = log_partition_bounds(m, dec)
        assert b.apriori_bound == pytest.approx((3 / 4) * (g.max_degree + 1))
        assert b.apriori_bound == dec.eps_target * (g.max_degree + 1)
        # the certificate carries the same bracket, a-priori bound included
        assert certify(m, dec)[0] == b

    def test_extreme_table_magnitudes(self):
        # log-domain accumulation keeps the bracket sound at +-50 exponents
        rng = np.random.default_rng(11)
        g = random_graph(rng, 8, 0.4)
        m = random_mrf(rng, g, lo=-50.0, hi=50.0)
        z = brute_log_z(m)
        dec = minor_edge(
            Graph(8, g.edges), 2, 3, seed=1
        ) if g.edges else empty_edge_decomposition(g)
        b = log_partition_bounds(m, dec)
        assert b.log_z_lb <= z + 1e-9 * abs(z)
        assert z <= b.log_z_ub + 1e-9 * abs(z)

    def test_outputs_deterministic(self):
        rng = np.random.default_rng(9)
        g = grid_graph(4)
        m = random_mrf(rng, g)
        dec = minor_edge(g, 3, 4, seed=5)
        a = log_partition_bounds(m, dec)
        b = log_partition_bounds(m, dec)
        assert (a.log_z_lb, a.log_z_ub, a.gap) == (b.log_z_lb, b.log_z_ub, b.gap)
        assert mode_estimate(m, dec) == mode_estimate(m, dec)

    def test_mean_gap_shrinks_with_lambda(self):
        rng = np.random.default_rng(8)
        g = grid_graph(5)
        m = random_mrf(rng, g, lo=0.0, hi=1.0)
        means = []
        for lam in (3, 4, 5):
            gaps = [
                log_partition_bounds(m, minor_edge(g, 3, lam, seed=s)).gap
                for s in range(60)
            ]
            means.append(float(np.mean(gaps)))
        assert means[0] > means[1] > means[2]
