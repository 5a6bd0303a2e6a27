"""Brute-force solvers and the elimination engine, per component and whole."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmrf import (
    Graph,
    PairwiseMrf,
    brute_log_z,
    brute_map,
    brute_max_marginal,
    component_solve,
    criscross_graph,
    energy,
    grid_graph,
    grid_transfer_log_z,
    grid_transfer_map,
    solve_components,
    solve_model,
)
from localmrf import exact
from localmrf.core import CapExceeded
from localmrf.exact import DEFAULT_CAP
from localmrf.inference import certify, log_partition_bounds

from helpers import (
    labels_of,
    oracle_log_z,
    oracle_map_reversed,
    oracle_max_marginal,
    random_graph,
    random_mrf,
    with_forced_node,
)


def single_node(phi):
    return PairwiseMrf(Graph(1, []), len(phi), [phi], {})


def coupled_pair(psi11=1.0):
    table = [[0.0, 0.0], [0.0, psi11]]
    return PairwiseMrf(Graph(2, [(0, 1)]), 2, [[0, 0], [0, 0]], {(0, 1): table})


class TestBruteLogZ:
    def test_uniform_node(self):
        assert brute_log_z(single_node([0.0, 0.0])) == pytest.approx(math.log(2))

    def test_biased_node(self):
        assert brute_log_z(single_node([0.0, 1.0])) == pytest.approx(
            math.log(1 + math.e)
        )

    def test_coupled_pair(self):
        assert brute_log_z(coupled_pair()) == pytest.approx(math.log(3 + math.e))

    def test_matches_plain_oracle(self):
        rng = np.random.default_rng(0)
        for q in (2, 3):
            m = random_mrf(rng, random_graph(rng, 5, 0.5), q=q, lo=-1, hi=1)
            assert brute_log_z(m) == pytest.approx(oracle_log_z(m), rel=1e-12)

    def test_cap(self):
        m = random_mrf(np.random.default_rng(1), grid_graph(3), q=2)
        with pytest.raises(CapExceeded):
            brute_log_z(m, cap=100)


class TestBruteMap:
    def test_single_node(self):
        assert brute_map(single_node([0.0, 2.0])) == ((1,), 2.0)

    def test_all_ties_lexicographic(self):
        m = PairwiseMrf(
            Graph(2, [(0, 1)]), 2, [[0, 0], [0, 0]], {(0, 1): [[0, 0], [0, 0]]}
        )
        assert brute_map(m) == ((0, 0), 0.0)

    def test_matches_reversed_oracle(self):
        rng = np.random.default_rng(2)
        m = random_mrf(rng, grid_graph(3))
        x, h = brute_map(m)
        ox, oh = oracle_map_reversed(m)
        assert x == ox and h == oh

    def test_forced_potentials(self):
        m = PairwiseMrf(Graph(1, []), 2, [[-math.inf, 1.0]], {})
        assert brute_map(m) == ((1,), 1.0)


class TestBruteMaxMarginal:
    def test_flat_single_node(self):
        assert brute_max_marginal(single_node([0.5, 0.5]), 0) == (0.5, 0.5)

    def test_single_edge(self):
        m = coupled_pair(psi11=2.0)
        assert brute_max_marginal(m, 0) == (0.0, 2.0)

    def test_consistent_with_map(self):
        rng = np.random.default_rng(3)
        tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
        m = random_mrf(rng, tri)
        _, h_star = brute_map(m)
        for v in range(3):
            pair = brute_max_marginal(m, v)
            assert max(pair) == pytest.approx(h_star, rel=1e-12)
            assert pair == oracle_max_marginal(m, v)

    def test_rejects_non_binary(self):
        m = single_node([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            brute_max_marginal(m, 0)


class TestComponentSolve:
    def test_singleton(self):
        m = random_mrf(np.random.default_rng(4), Graph(3, [(0, 1)]))
        res = component_solve(m, (2,))
        assert res.log_z == pytest.approx(
            math.log(math.exp(m.phi[2, 0]) + math.exp(m.phi[2, 1]))
        )
        assert res.map_assignment == (int(np.argmax(m.phi[2])),)

    def test_pair_matches_brute_on_induced(self):
        rng = np.random.default_rng(5)
        m = random_mrf(rng, Graph(4, [(0, 1), (1, 2), (2, 3)]))
        res = component_solve(m, (1, 2))
        sub, order = m.induced((1, 2))
        assert order == (1, 2)
        assert res.log_z == pytest.approx(brute_log_z(sub), rel=1e-12)
        assert res.map_assignment == brute_map(sub)[0]
        assert res.map_energy == energy(sub, res.map_assignment)

    def test_only_induced_edges_count(self):
        # solving two halves of an edgeless split ignores the cut edge
        rng = np.random.default_rng(6)
        m = random_mrf(rng, Graph(2, [(0, 1)]))
        a = component_solve(m, (0,))
        b = component_solve(m, (1,))
        whole = brute_log_z(m)
        lo, hi = float(m.edge_min[0]), float(m.edge_max[0])
        assert a.log_z + b.log_z + lo <= whole + 1e-12
        assert whole <= a.log_z + b.log_z + hi + 1e-12

    def test_cap_signals_oversize(self):
        # the cap bounds the widest elimination table, not the q^k states:
        # a 3x3 grid opens at most four nodes at once, K10 all ten
        m = random_mrf(np.random.default_rng(7), grid_graph(3))
        res = component_solve(m, tuple(range(9)), cap=16)
        assert res.map_assignment == brute_map(m)[0]
        k10 = Graph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
        m = random_mrf(np.random.default_rng(8), k10)
        component_solve(m, tuple(range(10)), cap=2**10)
        with pytest.raises(CapExceeded):
            component_solve(m, tuple(range(10)), cap=2**10 - 1)


def _assert_solve_matches_brute(m, nodes):
    res = component_solve(m, nodes)
    sub, order = m.induced(nodes)
    x, h = brute_map(sub)
    assert res.nodes == order
    assert res.log_z == pytest.approx(brute_log_z(sub), rel=1e-12)
    assert res.map_assignment == x
    assert res.map_energy == h


class TestComponentSolveProperties:
    """The elimination engine against the brute-force oracle."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.integers(1, 11),
        st.integers(0, 3),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_brute_on_induced(self, seed, q, k, extra, forced):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, k + extra, float(rng.uniform(0.1, 0.7)))
        m = random_mrf(rng, g, q=q, lo=-1.0, hi=1.0)
        if forced:
            m = with_forced_node(m, int(rng.integers(g.n)), int(rng.integers(q)))
        nodes = tuple(int(v) for v in rng.choice(g.n, size=k, replace=False))
        _assert_solve_matches_brute(m, nodes)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_integer_tables_tie_rule(self, seed, k):
        # integer tables tie often; the first maximizer in lexicographic
        # order must win, as in the reversed-order oracle
        rng = np.random.default_rng(seed)
        g = random_graph(rng, k, 0.5)
        phi = rng.integers(0, 2, size=(k, 2)).astype(float)
        psi = rng.integers(0, 2, size=(len(g.edge_list), 2, 2)).astype(float)
        m = PairwiseMrf(g, 2, phi, psi)
        res = component_solve(m, range(k))
        assert (res.map_assignment, res.map_energy) == oracle_map_reversed(m)

    def test_multi_block_binary_component(self):
        # 2^20 states: four of the brute oracle's chunks
        rng = np.random.default_rng(21)
        m = random_mrf(rng, random_graph(rng, 22, 0.2), lo=-1.0, hi=1.0)
        m = with_forced_node(m, 19, 1)
        _assert_solve_matches_brute(m, tuple(range(1, 21)))

    def test_multi_block_three_states(self):
        # 3^12 states in several brute chunks; elimination sums in another
        # order, so the log-sum-exp may round differently, energies and MAP not
        rng = np.random.default_rng(22)
        m = random_mrf(rng, random_graph(rng, 12, 0.3), q=3, lo=-1.0, hi=1.0)
        res = component_solve(m, range(12))
        x, h = brute_map(m)
        assert res.log_z == pytest.approx(brute_log_z(m), rel=1e-12)
        assert (res.map_assignment, res.map_energy) == (x, h)

    def test_all_states_forbidden(self):
        m = single_node([-math.inf, -math.inf])
        res = component_solve(m, (0,))
        assert res.log_z == brute_log_z(m) == -math.inf
        assert (res.map_assignment, res.map_energy) == brute_map(m)


class TestSolveComponents:
    """Batched solves equal one-component solves, field for field."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 6),
        st.sampled_from(["none", "forced", "infeasible"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_single_solves(self, seed, q, copies, k, extra, minus_inf, small_cap):
        rng = np.random.default_rng(seed)
        # copies of one graph on interleaved ids share a shape; the extra
        # nodes and the chords between them form other components
        shape = random_graph(rng, k, float(rng.uniform(0.2, 0.9)))
        n = copies * k + extra
        edges = [(u * copies + c, v * copies + c)
                 for c in range(copies) for u, v in shape.edge_list]
        edges += [(u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < 0.1 and (u, v) not in edges]
        m = random_mrf(rng, Graph(n, edges), q=q, lo=-1.0, hi=1.0)
        phi = np.array(m.phi)
        v = int(rng.integers(n))
        if minus_inf == "forced":
            phi[v, np.arange(q) != rng.integers(q)] = -math.inf
        elif minus_inf == "infeasible":
            phi[v] = -math.inf
        m = PairwiseMrf(m.graph, q, phi, m.psi)
        comps = [tuple(u * copies + c for u in range(k)) for c in range(copies)]
        labels = rng.integers(0, 3, size=extra)
        comps += [tuple(copies * k + int(u) for u in np.flatnonzero(labels == lab))
                  for lab in set(labels.tolist())]
        comps = [comps[i] for i in rng.permutation(len(comps))]
        sets = labels_of(comps, n)
        cap = DEFAULT_CAP
        if small_cap:
            # the smallest cap that solves splits the widest group's batch
            # into single components, and any smaller one is refused
            cap = 1
            while True:
                try:
                    solve_components(m, sets, cap)
                    break
                except CapExceeded:
                    cap *= q
        singles = [component_solve(m, comp) for comp in comps]
        log_z, x = solve_components(m, sets, cap)
        assert log_z.tolist() == [r.log_z for r in singles]
        assert [tuple(x[list(r.nodes)].tolist()) for r in singles] == [
            r.map_assignment for r in singles
        ]
        assert [r.nodes for r in singles] == [tuple(sorted(c)) for c in comps]
        z_only, no_map = solve_components(m, sets, cap, with_map=False)
        assert z_only.tolist() == log_z.tolist() and no_map is None

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.integers(0, 9),
        st.integers(1, 4),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_disjoint_sets_equal_brute_on_pruned_model(self, seed, q, n, parts, with_cut):
        # labels no node carries, singletons and nodes in no set, a random
        # cut and -inf node entries: each set's log Z and MAP are brute's on
        # the sub-model the set induces in the pruned model
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
        m = random_mrf(rng, g, q=q, lo=-1.0, hi=1.0)
        phi = np.array(m.phi)
        phi[rng.random((n, q)) < 0.15] = -math.inf
        m = PairwiseMrf(g, q, phi, m.psi)
        label = rng.integers(-1, parts, size=n)  # -1: in no set
        cut = None
        if with_cut:
            cut = rng.random(len(g.edge_list)) < 0.4
        pruned = m if cut is None else m.without_edges(
            [e for e, flag in zip(g.edge_list, cut) if flag])
        log_z, x = solve_components(m, label, DEFAULT_CAP, cut)
        assert solve_components(m, label, DEFAULT_CAP, cut, False)[0].tolist() == log_z.tolist()
        assert len(log_z) == label.max(initial=-1) + 1
        for c, z in enumerate(log_z.tolist()):
            sub, order = pruned.induced(np.flatnonzero(label == c).tolist())
            ref = brute_log_z(sub)
            assert z == ref or z == pytest.approx(ref, rel=1e-12)
            assert tuple(x[list(order)].tolist()) == brute_map(sub)[0]
        assert not x[label == -1].any()

    def test_overlapping_sets_rejected(self):
        # labels that are not one integer set index (or -1) per node: floats,
        # node sets (the parent read [(0, 1.5)] as the set {0, 1}), a wrong
        # length, a value below -1 and booleans
        m = random_mrf(np.random.default_rng(22), grid_graph(2))
        for labels in ([0, 1.5, -1, -1], np.zeros(4), [(0, 1.5)], [("0", 1)], [(0, 1), (2, 3)],
                       [0, 0, 1], np.zeros(5, dtype=np.intp), [0, -2, 1, 1],
                       np.array([True, False, True, True]), np.zeros(4, dtype=np.uint64)):
            with pytest.raises(ValueError, match="^labels must be 4 integers, each a set index or -1$"):
                solve_components(m, labels)
        # a negative id would index from the end, one of n or more past it;
        # an id that is no integer is named, and numpy integers are ids
        for bad in (-1, 4):
            for solve in (m.induced, lambda nodes: component_solve(m, nodes)):
                with pytest.raises(ValueError, match=f"^node {bad} out of range for n=4$"):
                    solve((0, bad))
        for solve in (m.induced, lambda nodes: component_solve(m, nodes)):
            for nodes, bad in (([0, 1.5], "1.5"), ([0.0, 1], "0.0"), (["0", 1], "'0'")):
                with pytest.raises(ValueError, match=f"^node {bad} is not an integer id$"):
                    solve(nodes)
        assert component_solve(m, [np.int64(0), 1]) == component_solve(m, [0, 1])
        # nodes in no set read 0
        log_z, x = solve_components(m, labels_of([(3,)], 4))
        assert x.tolist() == [0, 0, 0, int(np.argmax(m.phi[3]))]
        assert log_z.tolist() == [component_solve(m, (3,)).log_z]


def _plan_cases():
    """Seeded (model, labels, cap, cut) cases for the plan cache.

    Each model holds three copies of one random shape on interleaved ids
    (one shape repeated inside a call) and a few other components; the
    shape is drawn from a seed shared by two models, so it also repeats
    across calls.  Node tables get ``-inf`` entries, integer tables make
    ties (at q >= 3 the choice's ``s >= 2`` branch), and every other case
    solves under the smallest cap, which splits each widest batch into
    single components.
    """
    cases = []
    for seed in range(24):
        q = (2, 3, 4)[seed % 3]
        rng = np.random.default_rng(seed)
        shape = random_graph(np.random.default_rng(seed // 2), 5, 0.6)
        copies, extra = 3, int(rng.integers(0, 5))
        n = copies * shape.n + extra
        edges = [(u * copies + c, v * copies + c)
                 for c in range(copies) for u, v in shape.edge_list]
        edges += [(u, v) for u in range(copies * shape.n, n)
                  for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        if seed % 4 == 3:
            phi = rng.integers(0, 2, size=(n, q)).astype(float)
            psi = rng.integers(0, 2, size=(len(g.edge_list), q, q)).astype(float)
        else:
            phi = rng.uniform(-1.0, 1.0, size=(n, q))
            psi = rng.uniform(-1.0, 1.0, size=(len(g.edge_list), q, q))
        phi[rng.integers(n), rng.integers(q)] = -math.inf
        if seed % 6 == 5:
            phi[rng.integers(n)] = -math.inf
        m = PairwiseMrf(g, q, phi, psi)
        comps = [tuple(u * copies + c for u in range(shape.n)) for c in range(copies)]
        comps += [tuple(range(copies * shape.n, n))] if extra else []
        labels = labels_of(comps, n)
        cut = None
        if seed % 5 == 4:
            cut = rng.random(len(g.edge_list)) < 0.3
        cap = DEFAULT_CAP
        if seed % 2:
            cap = 1
            while True:
                try:
                    solve_components(m, labels, cap, cut)
                    break
                except CapExceeded:
                    cap *= q
        cases.append((m, labels, cap, cut))
    return cases


def _exactly(result):
    """A solve's log Z and MAP as text that tells every double apart."""
    log_z, x = result
    return repr((log_z.tolist(), x.tolist()))


class TestPlanCache:
    """A shape's compiled elimination is built once and reused across calls."""

    def test_reuse_is_bit_identical(self):
        cases = _plan_cases()
        exact._plan.cache_clear()
        cold = [_exactly(solve_components(*case)) for case in cases]
        assert exact._plan.cache_info().hits > 0
        warm = [_exactly(solve_components(*case)) for case in cases[::-1]]
        assert warm[::-1] == cold
        for m, labels, cap, cut in cases:
            log_z, x = solve_components(m, labels, cap, cut)
            pruned = m if cut is None else m.without_edges(
                [e for e, flag in zip(m.edge_list, cut) if flag])
            for c, z in enumerate(log_z.tolist()):
                sub, order = pruned.induced(np.flatnonzero(labels == c).tolist())
                assert z == pytest.approx(brute_log_z(sub), rel=1e-12)
                assert tuple(x[list(order)].tolist()) == brute_map(sub)[0]

    def test_cache_stays_bounded(self):
        # 300 distinct six-node shapes, one per edge subset of K6, in one call
        k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        edges = [(6 * c + u, 6 * c + v) for c in range(300)
                 for i, (u, v) in enumerate(k6) if c >> i & 1]
        m = random_mrf(np.random.default_rng(30), Graph(1800, edges))
        comps = [tuple(range(6 * c, 6 * c + 6)) for c in range(300)]
        exact._plan.cache_clear()
        first = _exactly(solve_components(m, labels_of(comps, m.n)))
        info = exact._plan.cache_info()
        assert info.maxsize == exact._PLAN_SHAPES < 300
        assert info.misses == 300 and info.currsize <= info.maxsize
        assert _exactly(solve_components(m, labels_of(comps, m.n))) == first
        assert exact._plan.cache_info().currsize <= info.maxsize

    def test_public_signatures_unchanged(self):
        def params(f):
            return [(p.name, p.default) for p in inspect.signature(f).parameters.values()]

        empty = inspect.Parameter.empty
        assert params(solve_components) == [
            ("mrf", empty), ("labels", empty), ("cap", DEFAULT_CAP),
            ("cut", None), ("with_map", True),
        ]
        assert params(solve_model) == [("mrf", empty), ("cap", DEFAULT_CAP)]
        for f in (certify, log_partition_bounds):
            assert params(f) == [("mrf", empty), ("decomp", empty), ("cap", DEFAULT_CAP)]


class TestDegreeLowerBounds:
    """Matching-based lower bounds that hold for non-negative tables."""

    def test_log_z_exceeds_range_sum_over_degree(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            g = random_graph(rng, 7, 0.45)
            m = random_mrf(rng, g, lo=0.0, hi=2.0)
            d_star = g.max_degree
            total_range = float((m.edge_max - m.edge_min).sum())
            assert brute_log_z(m) >= total_range / (d_star + 1) - 1e-9

    def test_map_energy_exceeds_max_sum_over_degree(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            g = random_graph(rng, 7, 0.45)
            m = random_mrf(rng, g, lo=0.0, hi=2.0)
            d_star = g.max_degree
            total_max = float(m.edge_max.sum())
            _, h_star = brute_map(m)
            assert h_star >= total_max / (d_star + 1) - 1e-9


class TestTransferMatrix:
    def test_2x2_matches_brute(self):
        rng = np.random.default_rng(8)
        m = random_mrf(rng, grid_graph(2), lo=-1, hi=1)
        assert grid_transfer_log_z(m) == pytest.approx(brute_log_z(m), rel=1e-10)

    def test_independent_columns(self):
        rng = np.random.default_rng(9)
        g = grid_graph(4)
        phi = rng.uniform(0, 1, size=(16, 2))
        psi = {e: [[0.0, 0.0], [0.0, 0.0]] for e in g.edge_list}
        m = PairwiseMrf(g, 2, phi, psi)
        expected = sum(
            math.log(math.exp(phi[v, 0]) + math.exp(phi[v, 1])) for v in range(16)
        )
        assert grid_transfer_log_z(m) == pytest.approx(expected, rel=1e-12)

    def test_criscross_4x4_matches_brute(self):
        rng = np.random.default_rng(10)
        m = random_mrf(rng, criscross_graph(4), lo=-0.7, hi=0.7)
        assert grid_transfer_log_z(m) == pytest.approx(brute_log_z(m), rel=1e-10)

    def test_rectangular(self):
        rng = np.random.default_rng(11)
        m = random_mrf(rng, grid_graph(2, 5))
        assert grid_transfer_log_z(m) == pytest.approx(brute_log_z(m), rel=1e-10)

    def test_path_detected_as_single_column(self):
        rng = np.random.default_rng(15)
        m = random_mrf(rng, Graph(6, [(i, i + 1) for i in range(5)]))
        assert grid_transfer_log_z(m) == pytest.approx(brute_log_z(m), rel=1e-10)
        assert grid_transfer_map(m) == brute_map(m)

    def test_map_matches_brute(self):
        rng = np.random.default_rng(12)
        for graph in (grid_graph(3), grid_graph(3, 4), criscross_graph(3)):
            m = random_mrf(rng, graph)
            assert grid_transfer_map(m) == brute_map(m)

    def test_map_tie_break_lexicographic(self):
        g = grid_graph(2)
        m = PairwiseMrf(
            g, 2, np.zeros((4, 2)), {e: [[0, 0], [0, 0]] for e in g.edge_list}
        )
        x, h = grid_transfer_map(m)
        assert x == (0, 0, 0, 0) and h == 0.0

    def test_three_states(self):
        rng = np.random.default_rng(13)
        m = random_mrf(rng, grid_graph(2, 3), q=3)
        assert grid_transfer_log_z(m) == pytest.approx(brute_log_z(m), rel=1e-10)
        assert grid_transfer_map(m) == brute_map(m)

    def test_log_z_lower_bounded_by_map(self):
        rng = np.random.default_rng(14)
        m = random_mrf(rng, grid_graph(3))
        _, h = grid_transfer_map(m)
        assert grid_transfer_log_z(m) >= h

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.integers(1, 10),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_brute_on_random_graphs(self, seed, q, n, forced):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.8)))
        m = random_mrf(rng, g, q=q, lo=-1.0, hi=1.0)
        if forced:
            m = with_forced_node(m, int(rng.integers(n)), int(rng.integers(q)))
        assert grid_transfer_log_z(m) == pytest.approx(brute_log_z(m), rel=1e-12)
        assert grid_transfer_map(m) == brute_map(m)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_integer_tables_tie_rule(self, seed, q, n):
        # integer tables tie often; the sweep must return brute's first
        # (lexicographically smallest) maximizer
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, 0.5)
        phi = rng.integers(0, 2, size=(n, q)).astype(float)
        psi = rng.integers(0, 2, size=(len(g.edge_list), q, q)).astype(float)
        m = PairwiseMrf(g, q, phi, psi)
        assert grid_transfer_map(m) == brute_map(m)

    def test_all_states_forbidden(self):
        m = single_node([-math.inf, -math.inf])
        assert grid_transfer_log_z(m) == brute_log_z(m) == -math.inf
        assert grid_transfer_map(m) == brute_map(m)

    def test_infeasible_component_zeroes_the_map(self):
        # one component without a feasible state makes every energy -inf;
        # the feasible components' maximizers must not leak into the MAP
        rng = np.random.default_rng(17)
        m = random_mrf(rng, Graph(6, [(0, 1), (1, 2), (3, 4)]), lo=-1.0, hi=1.0)
        phi = np.array(m.phi)
        phi[4] = -math.inf
        m = PairwiseMrf(m.graph, 2, phi, m.psi)
        assert grid_transfer_log_z(m) == brute_log_z(m) == -math.inf
        assert grid_transfer_map(m) == brute_map(m) == ((0,) * 6, -math.inf)

    def test_components_solved_separately(self):
        # 40 disjoint triangles on interleaved ids (i, i+40, i+80): one sweep
        # over all nodes in id order would keep 41 nodes open, while each
        # component's widest table holds 2^3 entries
        tri_nodes = [(i, i + 40, i + 80) for i in range(40)]
        edges = [(t[a], t[b]) for t in tri_nodes for a, b in ((0, 1), (0, 2), (1, 2))]
        m = random_mrf(np.random.default_rng(18), Graph(120, edges), lo=-1.0, hi=1.0)
        x, h = grid_transfer_map(m, cap=8)
        tri = [component_solve(m, t) for t in tri_nodes]
        for t, r in zip(tri_nodes, tri):
            assert tuple(x[v] for v in t) == r.map_assignment
        assert h == energy(m, x)
        assert grid_transfer_log_z(m, cap=8) == pytest.approx(
            math.fsum(r.log_z for r in tri), rel=1e-12
        )

    def test_log_z_only_builds_no_map_tables(self):
        # log Z alone keeps one table of the open nodes; the MAP also keeps
        # one argmax table per node
        m = random_mrf(np.random.default_rng(19), grid_graph(14), lo=-1.0, hi=1.0)
        peaks = []
        for solve in (solve_model, grid_transfer_log_z):
            tracemalloc.start()
            try:
                solve(m)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert grid_transfer_log_z(m) == solve_model(m).log_z
        assert peaks[1] < peaks[0] / 2

    def test_cap_signals_too_wide(self):
        # on K10 node 9 opens all ten nodes at once: a 2^10-entry table
        k10 = Graph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
        m = random_mrf(np.random.default_rng(16), k10)
        assert grid_transfer_log_z(m, cap=2**10) == pytest.approx(
            brute_log_z(m), rel=1e-12
        )
        with pytest.raises(CapExceeded):
            grid_transfer_log_z(m, cap=2**10 - 1)
        with pytest.raises(CapExceeded):
            grid_transfer_map(m, cap=2**10 - 1)
