"""Walk trees, max-marginal ratios, the distributed schedule, conditioning."""

import hashlib
import inspect
import math
import sys
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmrf import (
    Graph,
    PairwiseMrf,
    brute_map,
    brute_max_marginal,
    build_saw_tree,
    component_solve,
    energy,
    msg_pass_mode,
    saw_component_map,
    saw_max_ratio,
    saw_size_upper,
    size_lower_bound_family,
)
from localmrf import core, saw
from localmrf.bench import VARYING_INTERACTION, sample_potentials
from localmrf.core import CapExceeded
from localmrf.saw import GREEN, RED, RatioPair, log_ratio_difference

from helpers import random_connected_graph, random_mrf, saw_map_by_trees, with_forced_node


def triangle_mrf(rng=None):
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    rng = rng or np.random.default_rng(0)
    return random_mrf(rng, g)


def ratios_match(mrf, v, tol=1e-9):
    pair = saw_max_ratio(build_saw_tree(mrf, v))
    h0, h1 = brute_max_marginal(mrf, v)
    brute = RatioPair(log_num=h1, log_den=h0)
    return log_ratio_difference(pair, brute) <= tol


# the complete schedule on the triangle-plus-pendant with integer tables:
# event order, sequences and every message digit are pinned
PENDANT_TRACE = """\
path 0 1
path 0 2
path 0 1 2
path 0 1 2 0
path 0 1 2 3
comp 0 1 2 0 -1.3132616875182228 -0.31326168751822281
comp 0 1 2 3 -3.0485873515737421 -0.048587351573742055
comp 0 1 2 -0.69314718055994518 -0.69314718055994518
comp 0 1 -0.31326168751822303 -1.3132616875182228
path 0 2 1
path 0 2 3
path 0 2 1 0
comp 0 2 1 0 -2.1269280110429727 -0.12692801104297269
comp 0 2 1 -0.12692801104297269 -2.1269280110429727
comp 0 2 3 -3.0485873515737421 -0.048587351573742055
comp 0 2 -0.31326168751822286 -1.3132616875182228
path 1 0
path 1 2
path 1 0 2
path 1 0 2 1
path 1 0 2 3
comp 1 0 2 1 -0.12692801104297269 -2.1269280110429727
comp 1 0 2 3 -3.0485873515737421 -0.048587351573742055
comp 1 0 2 -0.31326168751822286 -1.3132616875182228
comp 1 0 -1.3132616875182228 -0.31326168751822281
path 1 2 0
path 1 2 3
path 1 2 0 1
comp 1 2 0 1 -2.1269280110429727 -0.12692801104297269
comp 1 2 0 -0.31326168751822303 -1.313261687518223
comp 1 2 3 -3.0485873515737421 -0.048587351573742055
comp 1 2 -0.69314718055994529 -0.69314718055994529
path 2 0
path 2 1
path 2 3
path 2 0 1
path 2 0 1 2
comp 2 0 1 2 -0.12692801104297269 -2.1269280110429727
comp 2 0 1 -0.31326168751822303 -1.313261687518223
comp 2 0 -0.6931471805599454 -0.6931471805599454
path 2 1 0
path 2 1 0 2
comp 2 1 0 2 -0.31326168751822281 -1.3132616875182228
comp 2 1 0 -1.3132616875182228 -0.31326168751822281
comp 2 1 -0.12692801104297269 -2.1269280110429731
comp 2 3 -3.0485873515737421 -0.048587351573742055
path 3 2
path 3 2 0
path 3 2 1
path 3 2 0 1
path 3 2 0 1 2
comp 3 2 0 1 2 -0.12692801104297269 -2.1269280110429727
comp 3 2 0 1 -0.31326168751822303 -1.313261687518223
comp 3 2 0 -0.6931471805599454 -0.6931471805599454
path 3 2 1 0
path 3 2 1 0 2
comp 3 2 1 0 2 -0.31326168751822281 -1.3132616875182228
comp 3 2 1 0 -1.3132616875182228 -0.31326168751822281
comp 3 2 1 -0.12692801104297269 -2.1269280110429731
comp 3 2 -1.3132616875182226 -0.31326168751822303
"""

# the same schedule run from one FIFO queue over all origins: the same
# events with the same message bits, in breadth-first order
PENDANT_TRACE_FIFO = """\
path 0 1
path 0 2
path 1 0
path 1 2
path 2 0
path 2 1
path 2 3
path 3 2
path 0 1 2
path 0 2 1
path 0 2 3
path 1 0 2
path 1 2 0
path 1 2 3
path 2 0 1
path 2 1 0
comp 2 3 -3.0485873515737421 -0.048587351573742055
path 3 2 0
path 3 2 1
path 0 1 2 0
path 0 1 2 3
path 0 2 1 0
comp 0 2 3 -3.0485873515737421 -0.048587351573742055
path 1 0 2 1
path 1 0 2 3
path 1 2 0 1
comp 1 2 3 -3.0485873515737421 -0.048587351573742055
path 2 0 1 2
path 2 1 0 2
path 3 2 0 1
path 3 2 1 0
comp 0 1 2 0 -1.3132616875182228 -0.31326168751822281
comp 0 1 2 3 -3.0485873515737421 -0.048587351573742055
comp 0 2 1 0 -2.1269280110429727 -0.12692801104297269
comp 1 0 2 1 -0.12692801104297269 -2.1269280110429727
comp 1 0 2 3 -3.0485873515737421 -0.048587351573742055
comp 1 2 0 1 -2.1269280110429727 -0.12692801104297269
comp 2 0 1 2 -0.12692801104297269 -2.1269280110429727
comp 2 1 0 2 -0.31326168751822281 -1.3132616875182228
path 3 2 0 1 2
path 3 2 1 0 2
comp 0 1 2 -0.69314718055994518 -0.69314718055994518
comp 0 2 1 -0.12692801104297269 -2.1269280110429727
comp 1 0 2 -0.31326168751822286 -1.3132616875182228
comp 1 2 0 -0.31326168751822303 -1.313261687518223
comp 2 0 1 -0.31326168751822303 -1.313261687518223
comp 2 1 0 -1.3132616875182228 -0.31326168751822281
comp 3 2 0 1 2 -0.12692801104297269 -2.1269280110429727
comp 3 2 1 0 2 -0.31326168751822281 -1.3132616875182228
comp 0 1 -0.31326168751822303 -1.3132616875182228
comp 0 2 -0.31326168751822286 -1.3132616875182228
comp 1 0 -1.3132616875182228 -0.31326168751822281
comp 1 2 -0.69314718055994529 -0.69314718055994529
comp 2 0 -0.6931471805599454 -0.6931471805599454
comp 2 1 -0.12692801104297269 -2.1269280110429731
comp 3 2 0 1 -0.31326168751822303 -1.313261687518223
comp 3 2 1 0 -1.3132616875182228 -0.31326168751822281
comp 3 2 0 -0.6931471805599454 -0.6931471805599454
comp 3 2 1 -0.12692801104297269 -2.1269280110429731
comp 3 2 -1.3132616875182226 -0.31326168751822303
"""


def pendant_mrf():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    return PairwiseMrf(
        g,
        2,
        [[0, 1], [2, 0], [1, 1], [0, 2]],
        [[[1, 0], [0, 2]], [[0, 1], [1, 0]], [[2, 0], [0, 0]], [[0, 0], [1, 3]]],
    )


def components_mrf(seed, sizes, extra, forced, integer=False):
    """Disjoint random components (size 1 is an isolated node), some
    nodes conditioned to one state; integer tables in {0, 1, 2} tie often."""
    rng = np.random.default_rng(seed)
    edges, n = [], 0
    for size in sizes:
        sub = random_connected_graph(rng, size, extra)
        edges += [(u + n, v + n) for u, v in sub.edge_list]
        n += size
    m = random_mrf(rng, Graph(n, edges), lo=-1.5, hi=1.5)
    if integer:
        m = PairwiseMrf(m.graph, 2, np.round(m.phi) + 1, np.round(m.psi) + 1)
    for v, state in forced:
        m = with_forced_node(m, v % n, state)
    return m


class TestBuildTree:
    def test_tree_input_has_no_marks(self):
        g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        m = random_mrf(np.random.default_rng(1), g)
        tree = build_saw_tree(m, 0)
        assert tree.node_count == 5
        assert tree.mark_count == {GREEN: 0, RED: 0}
        # BFS tree shape: depths match graph distances
        for t in range(tree.node_count):
            assert tree.depth[t] == g.distances(0)[tree.orig[t]]

    def test_triangle_structure_and_marks(self):
        m = triangle_mrf()
        tree = build_saw_tree(m, 0)
        assert tree.node_count == 7
        assert tree.mark_count == {GREEN: 1, RED: 1}
        # branch 0 -> 1 -> 2 -> copy-of-0 closes (0,1,2,0): red
        # branch 0 -> 2 -> 1 -> copy-of-0 closes (0,2,1,0): green
        for t in range(tree.node_count):
            if tree.mark[t] is None:
                continue
            path = []
            walk = t
            while walk >= 0:
                path.append(tree.orig[walk])
                walk = tree.parent[walk]
            path.reverse()
            if path == [0, 1, 2, 0]:
                assert tree.mark[t] == RED
                assert tree.phi[t] == (0.0, -math.inf)
            elif path == [0, 2, 1, 0]:
                assert tree.mark[t] == GREEN
                assert tree.phi[t] == (-math.inf, 0.0)
            else:
                pytest.fail(f"unexpected marked path {path}")

    def test_one_loop_graph_shape(self):
        # 4 nodes, one triangle plus a pendant: rooted at 0 the tree has 9
        # nodes with one green and one red leaf
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        m = random_mrf(np.random.default_rng(2), g)
        tree = build_saw_tree(m, 0)
        assert tree.node_count == 9
        assert tree.mark_count == {GREEN: 1, RED: 1}

    def test_children_ascend_by_original_id(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        m = random_mrf(np.random.default_rng(3), g)
        tree = build_saw_tree(m, 0)
        childs = [tree.orig[c] for c in tree.children[0]]
        assert childs == sorted(childs) == [1, 2, 3]

    def test_children_are_consecutive_ids(self):
        g = size_lower_bound_family(8, 3)
        m = random_mrf(np.random.default_rng(3), g)
        for v in range(g.n):
            tree = build_saw_tree(m, v)
            for kids in tree.children:
                if kids:
                    assert kids == list(range(kids[0], kids[-1] + 1))
                    origs = [tree.orig[c] for c in kids]
                    assert origs == sorted(origs)

    def test_rejects_out_of_range_root(self):
        m = triangle_mrf()
        for root in (3, -1):
            with pytest.raises(ValueError, match=f"node {root} out of range"):
                build_saw_tree(m, root)

    def test_cap_preflight_reports_bound(self):
        g = random_connected_graph(np.random.default_rng(4), 8, 3)
        m = random_mrf(np.random.default_rng(5), g)
        with pytest.raises(CapExceeded) as err:
            build_saw_tree(m, 0, cap=4)
        assert str(saw_size_upper(8, 3)) in str(err.value)

    @pytest.mark.parametrize("root", [1.0, "1", None])
    def test_rejects_non_integer_root(self, root):
        with pytest.raises(ValueError, match=f"node {root!r} is not an integer id"):
            build_saw_tree(triangle_mrf(), root)

    def test_numpy_integer_root(self):
        m = triangle_mrf()
        tree = build_saw_tree(m, np.int64(1))
        assert repr(saw_max_ratio(tree)) == repr(saw_max_ratio(build_saw_tree(m, 1)))

    def test_rejects_non_binary(self):
        m = random_mrf(np.random.default_rng(6), Graph(2, [(0, 1)]), q=3)
        with pytest.raises(ValueError):
            build_saw_tree(m, 0)


class TestSizeBounds:
    def test_tree_bound(self):
        assert saw_size_upper(7, 0) == 12  # 2(n-1)

    @pytest.mark.parametrize("n, k", [(-3, 1), (0, 0)])
    def test_bound_needs_a_node(self, n, k):
        with pytest.raises(ValueError, match="n must be >= 1"):
            saw_size_upper(n, k)

    def test_bound_needs_k_at_least_zero(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            saw_size_upper(5, -1)

    def test_triangle_bound_vs_actual(self):
        assert saw_size_upper(3, 1) == 12
        tree = build_saw_tree(triangle_mrf(), 0)
        assert tree.edge_count == 6

    def test_upper_bound_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(0, 5))
            g = random_connected_graph(rng, n, k)
            k_actual = len(g.edges) - n + 1
            m = random_mrf(rng, g)
            for v in range(n):
                tree = build_saw_tree(m, v)
                assert tree.edge_count <= saw_size_upper(n, k_actual)

    def test_lower_bound_family(self):
        rng = np.random.default_rng(8)
        for n, k in [(8, 2), (8, 3), (10, 4), (12, 4)]:
            g = size_lower_bound_family(n, k)
            assert len(g.edges) == n - 1 + k
            m = random_mrf(rng, g)
            for v in range(n):
                tree = build_saw_tree(m, v)
                assert tree.edge_count >= n * 2 ** (k - 2)


class TestMaxRatio:
    def test_nan_ratio_difference(self):
        # both log-values -inf make the ratio NaN
        nan, one = RatioPair(-math.inf, -math.inf), RatioPair(0.0, 1.0)
        assert math.isnan(nan.log_ratio())
        assert log_ratio_difference(nan, nan) == 0.0
        assert log_ratio_difference(nan, one) == log_ratio_difference(one, nan) == math.inf

    def test_flat_single_node(self):
        m = PairwiseMrf(Graph(1, []), 2, [[0.7, 0.7]], {})
        pair = saw_max_ratio(build_saw_tree(m, 0))
        assert pair.log_ratio() == 0.0

    def test_triangle_matches_brute(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = triangle_mrf(rng)
            for v in range(3):
                assert ratios_match(m, v)

    def test_small_sweep_matches_brute(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            g = random_connected_graph(rng, n, int(rng.integers(0, 4)))
            m = random_mrf(rng, g, lo=-1.5, hi=1.5)
            for v in range(n):
                assert ratios_match(m, v)

    def test_forced_zero_and_infinity(self):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng, 5, 1)
        base = random_mrf(rng, g)
        for v in range(5):
            for state in (0, 1):
                m = with_forced_node(base, v, state)
                pair = saw_max_ratio(build_saw_tree(m, v))
                assert pair.log_ratio() == (math.inf if state else -math.inf)
                assert ratios_match(m, v)


class TestMsgPass:
    def test_path3_leaf_messages(self):
        g = Graph(3, [(0, 1), (1, 2)])
        rng = np.random.default_rng(12)
        m = random_mrf(rng, g)
        result = msg_pass_mode(m, keep_trace=True)
        # hand-compute the leaf answer from 2 to the path (0, 1)
        t = m.edge_table(2, 1)
        m0 = max(t[0, 0] + m.phi[2, 0], t[1, 0] + m.phi[2, 1])
        m1 = max(t[0, 1] + m.phi[2, 0], t[1, 1] + m.phi[2, 1])
        norm = math.log(math.exp(m0) + math.exp(m1))
        line = f"comp 0 1 2 {m0 - norm:.17g} {m1 - norm:.17g}"
        assert line in result.trace

    def test_golden_trace(self):
        result = msg_pass_mode(pendant_mrf(), keep_trace=True)
        assert result.trace == PENDANT_TRACE.splitlines()
        assert sorted(result.trace) == sorted(PENDANT_TRACE_FIFO.splitlines())

    def test_overlapping_cycles_trace_digest(self):
        # the chords' cycles overlap, so the same directed edge closes a
        # cycle many times, with either mark: 224 leaf answers, 32 distinct;
        # the digest was taken before the walk kept its leaf answers
        m = sample_potentials(size_lower_bound_family(12, 3), VARYING_INTERACTION, 1.0, seed=3)
        result = msg_pass_mode(m, keep_trace=True)
        h, leaves = hashlib.sha256(), Counter()
        for line in result.trace:
            h.update(f"{line}\n".encode())
            kind, *ids = line.split()
            if kind == "comp" and ids[-3] in ids[:-3]:  # a cycle-closing leaf
                path, z, u = ids[:-3], ids[-3], ids[-4]
                leaves[z, u, int(u) < int(path[path.index(z) + 1])] += 1
        for v in range(m.n):
            r = result.ratios[v]
            h.update(f"{v} {r.log_num!r} {r.log_den!r} {result.sequences_per_origin[v]}\n".encode())
        assert h.hexdigest() == "7df8d2e3cb1c3abe0879a73346c5ca2c66bb726568df60950866e6625d4763c1"
        assert sum(leaves.values()) == 224 and len(leaves) == 32
        assert len({(z, u) for z, u, _ in leaves}) == 28  # 4 edges close with both marks

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 6), min_size=1, max_size=3),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(0, 17), st.integers(0, 1)), max_size=3),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_centralized_exactly(self, seed, sizes, extra, forced, integer):
        m = components_mrf(seed, sizes, extra, forced, integer)
        result = msg_pass_mode(m)
        for v in range(m.n):
            tree = build_saw_tree(m, v)
            assert result.ratios[v] == saw_max_ratio(tree)  # bit-exact
            assert result.sequences_per_origin[v] == tree.edge_count
        traced = msg_pass_mode(m, keep_trace=True)
        assert traced.ratios == result.ratios
        assert traced.sequences_per_origin == result.sequences_per_origin
        # per origin one path and one comp line per walk-tree edge, and each
        # comp line after its own sequence's path line
        flooded, paths, comps = set(), Counter(), Counter()
        for line in traced.trace:
            kind, *ids = line.split()
            if kind == "path":
                assert tuple(ids) not in flooded
                flooded.add(tuple(ids))
                paths[int(ids[0])] += 1
            else:
                assert tuple(ids[:-2]) in flooded
                comps[int(ids[0])] += 1
        assert paths == comps == Counter(result.sequences_per_origin)
        assert saw_component_map(m) == saw_map_by_trees(m)  # bit-exact

    def test_long_path_needs_no_recursion(self):
        # a walk runs along the whole path: 300 nested calls would overflow
        m = random_mrf(np.random.default_rng(13), Graph(300, [(i, i + 1) for i in range(299)]))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            result = msg_pass_mode(m)
            x = saw_component_map(m)
        finally:
            sys.setrecursionlimit(limit)
        assert set(result.sequences_per_origin.values()) == {299}
        assert x == component_solve(m, range(300)).map_assignment

    def test_sequence_counts_equal_tree_edges(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(rng, 7, 3)
        m = random_mrf(rng, g)
        result = msg_pass_mode(m)
        k = len(g.edges) - g.n + 1
        for v in range(g.n):
            tree = build_saw_tree(m, v)
            assert result.sequences_per_origin[v] == tree.edge_count
            assert result.sequences_per_origin[v] <= saw_size_upper(g.n, k)

    def test_disconnected_and_isolated(self):
        g = Graph(4, [(0, 1)])
        m = random_mrf(np.random.default_rng(15), g)
        result = msg_pass_mode(m)
        for v in range(4):
            h0, h1 = brute_max_marginal(m, v)
            assert log_ratio_difference(
                result.ratios[v], RatioPair(h1, h0)
            ) <= 1e-9


class TestComponentMap:
    def test_single_edge_pulls_both_up(self):
        m = PairwiseMrf(
            Graph(2, [(0, 1)]), 2, [[0, 0], [0, 0]], {(0, 1): [[0, 0], [0, 2]]}
        )
        assert saw_component_map(m) == (1, 1)
        assert saw_component_map(m) == brute_map(m)[0]

    def test_decoupled_argmax_with_ties_to_zero(self):
        g = Graph(3, [(0, 1), (1, 2)])
        m = PairwiseMrf(
            g,
            2,
            [[0.0, 1.0], [0.5, 0.5], [1.0, 0.2]],
            {e: [[0, 0], [0, 0]] for e in g.edge_list},
        )
        assert saw_component_map(m) == (1, 0, 0)

    def test_random_sweep_matches_brute_energy(self):
        rng = np.random.default_rng(16)
        from localmrf import energy

        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_connected_graph(rng, n, int(rng.integers(0, 4)))
            m = random_mrf(rng, g)
            x = saw_component_map(m)
            _, h_star = brute_map(m)
            assert energy(m, x) == h_star

    def test_matches_component_solver(self):
        rng = np.random.default_rng(17)
        g = random_connected_graph(rng, 7, 2)
        m = random_mrf(rng, g)
        res = component_solve(m, tuple(range(7)))
        x = saw_component_map(m)
        assert res.map_energy == pytest.approx(
            sum(
                float(m.phi[v, x[v]]) for v in range(7)
            )
            + sum(float(m.edge_table(u, v)[x[u], x[v]]) for u, v in m.edge_list),
            rel=1e-12,
        )

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 4), st.integers(1, 2)
    )
    @settings(max_examples=150, deadline=None)
    def test_energy_optimal_on_integer_ties(self, seed, n, extra, top):
        # integer tables in {0..top} tie often; the result must be an optimum,
        # though not always the lexicographically smallest one
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        m = PairwiseMrf(
            g,
            2,
            rng.integers(0, top + 1, size=(n, 2)).astype(float),
            rng.integers(0, top + 1, size=(len(g.edge_list), 2, 2)).astype(float),
        )
        x = saw_component_map(m)
        assert energy(m, x) == brute_map(m)[1]
        assert x == saw_map_by_trees(m)  # bit-exact

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(0, 4),
        st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from([(0,), (1,), (0, 1)])), max_size=4
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_energy_optimal_with_infeasible_entries(self, seed, n, extra, blocked):
        # -inf node entries, sometimes both of one node's: conditioning adds
        # edge rows onto them and the walks meet infinite messages
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        m = random_mrf(rng, g, lo=-1.5, hi=1.5)
        phi = np.array(m.phi)
        for v, states in blocked:
            phi[v % n, list(states)] = -np.inf
        m = PairwiseMrf(g, 2, phi, m.psi)
        assert energy(m, saw_component_map(m)) == brute_map(m)[1]

    @pytest.mark.parametrize("hub", [0, 8])
    def test_star_conditions_on_the_hub_list(self, hub):
        # fixing the leaves one by one deletes each from the hub's list: from
        # its head when the hub has the highest id, after the hub is fixed
        # and absorbed into every leaf when it has id 0
        g = Graph(9, [(hub, v) for v in range(9) if v != hub])
        rng = np.random.default_rng(19 + hub)
        for case in range(12):
            m = random_mrf(rng, g, lo=-1.5, hi=1.5)
            if case % 3:
                phi = np.array(m.phi)
                for v in rng.choice(9, size=case % 3 + 1, replace=False):
                    phi[v, int(rng.integers(2))] = -np.inf
                m = PairwiseMrf(g, 2, phi, m.psi)
            x = saw_component_map(m)
            assert energy(m, x) == brute_map(m)[1]
            assert x == saw_map_by_trees(m)  # bit-exact

    def test_walks_only_the_free_graph(self, monkeypatch):
        # each root walks the tree of the model with the fixed nodes deleted:
        # 16,531 edges over the 40 roots, where the full trees have 169,188
        m = random_mrf(np.random.default_rng(18), size_lower_bound_family(40, 8))
        walk, walked = saw._walk, []

        def counting_walk(*args):
            pair, edges = walk(*args)
            walked.append(edges)
            return pair, edges

        monkeypatch.setattr(saw, "_walk", counting_walk)
        x = saw_component_map(m)
        trees = []
        assert x == saw_map_by_trees(m, trees)
        assert walked == [tree.edge_count for tree in trees]
        assert sum(walked) == 16531


@st.composite
def split_region_mrfs(draw):
    """Binary models on 12-24 nodes whose walk regions split: cycles that
    share a cut vertex or hang off a bridge, pendant paths, separate
    components (a ring, chorded at times), then up to 6 extra edges and
    shuffled ids; some node entries -inf, tables integer at times."""
    n_target = draw(st.integers(12, 24))
    edges, n = set(), 0
    while n < n_target:
        kind = draw(st.sampled_from(["cut", "bridge", "pendant", "apart"])) if n else "apart"
        size = min(draw(st.integers(3, 7)), n_target - n)
        new = list(range(n, n + size))
        anchor = draw(st.integers(0, n - 1)) if n else None
        if kind == "pendant" or size < 3:
            chain = [anchor, *new] if n else new
        elif kind == "cut":
            chain = [anchor, *new, anchor]
        else:
            chain = [*new, new[0]]
            if kind == "bridge":
                edges.add((anchor, new[0]))
            elif size > 3 and draw(st.booleans()):
                edges.add((new[0], new[2]))
        edges.update(zip(chain, chain[1:]))
        n += size
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        if u != v:
            edges.add((u, v))
    ids = draw(st.permutations(range(n)))
    g = Graph(n, sorted({tuple(sorted((ids[u], ids[v]))) for u, v in edges}))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_mrf(rng, g, lo=-1.5, hi=1.5)
    phi, psi = np.array(m.phi), np.array(m.psi)
    if draw(st.booleans()):
        phi, psi = np.round(phi) + 1, np.round(psi) + 1
    for v, state in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1)), max_size=3)):
        phi[v, state] = -np.inf
    return PairwiseMrf(g, 2, phi, psi)


class TestSharedSubtrees:
    """The walks sum each distinct subtree once (``saw._shared``); every
    answer must stay the unshared tree sweep's, bit for bit."""

    @given(split_region_mrfs(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_tree_sweep_exactly(self, m, everywhere):
        # everywhere: keep keying the subtrees of every region with two
        # cycles, whether or not the keys pay, so the keyed path runs often
        with patch.object(saw, "_KEY_PAYS", 0 if everywhere else saw._KEY_PAYS):
            result = msg_pass_mode(m)
            traced = msg_pass_mode(m, keep_trace=True)
            x = saw_component_map(m)
        for v in range(m.n):
            tree = build_saw_tree(m, v)
            assert result.ratios[v] == saw_max_ratio(tree)  # bit-exact
            assert result.sequences_per_origin[v] == tree.edge_count
        assert traced.ratios == result.ratios
        assert traced.sequences_per_origin == result.sequences_per_origin
        assert x == saw_map_by_trees(m)  # bit-exact

    def test_dense_graphs_match_exactly(self):
        # small dense graphs reach one region by paths that leave a border
        # node through different successors, whose leaves' marks then differ
        rng = np.random.default_rng(21)
        with patch.object(saw, "_KEY_PAYS", 0):
            for _ in range(150):
                g = random_connected_graph(rng, int(rng.integers(5, 10)), int(rng.integers(2, 6)))
                m = random_mrf(rng, g, lo=-1.5, hi=1.5)
                result = msg_pass_mode(m)
                for v in range(m.n):
                    assert result.ratios[v] == saw_max_ratio(build_saw_tree(m, v))
                assert saw_component_map(m) == saw_map_by_trees(m)

    def test_large_component_matches_exactly(self):
        # a 150-node component keys its regions on masks of 150 bits
        m = sample_potentials(size_lower_bound_family(150, 4), VARYING_INTERACTION, 1.0, seed=2)
        with patch.object(saw, "_KEY_PAYS", 0):
            result = msg_pass_mode(m)
            x = saw_component_map(m)
        for v in range(m.n):
            assert result.ratios[v] == saw_max_ratio(build_saw_tree(m, v))
        assert x == saw_map_by_trees(m)

    @staticmethod
    def _count_work(monkeypatch):
        """Per call of ``_walk``, the memo of the component it keyed in, or
        None for a walk that keyed nothing; and the messages sent, one per
        subtree node swept."""
        walk, send, memos, sent = saw._walk, saw._send, [], [0]

        def counting_walk(*args):
            share = args[5] if len(args) > 5 else None
            memos.append(None if share is None else share[0].memo)
            return walk(*args)

        def counting_send(*args):
            sent[0] += 1
            return send(*args)

        monkeypatch.setattr(saw, "_walk", counting_walk)
        monkeypatch.setattr(saw, "_send", counting_send)
        return memos, sent

    def test_chorded_ring_walks_share_subtrees(self, monkeypatch):
        # the 40 root walks take 169,188 steps but hold a few thousand
        # distinct subtrees; unshared, they send 140,414 messages, and the
        # MAP's walks 15,063
        m = sample_potentials(size_lower_bound_family(40, 8), VARYING_INTERACTION, 1.0, seed=1)
        memos, sent = self._count_work(monkeypatch)
        result = msg_pass_mode(m)
        assert sum(result.sequences_per_origin.values()) == 169188
        # every walk keys in the one memo of the call
        assert len(memos) == 40 and all(memo is memos[0] for memo in memos)
        assert 0 < len(memos[0]) <= 3000
        assert sent[0] <= 9000
        sent[0] = 0
        saw_component_map(m)
        assert sent[0] <= 1000

    def test_ring_keys_nothing(self, monkeypatch):
        # one cycle: no subtree can repeat, so every walk sweeps as before
        m = random_mrf(np.random.default_rng(20), Graph(300, [(i, (i + 1) % 300) for i in range(300)]))
        memos, sent = self._count_work(monkeypatch)
        result = msg_pass_mode(m)
        x = saw_component_map(m)
        assert set(result.sequences_per_origin.values()) == {600}
        assert memos == [None] * 600
        assert x == component_solve(m, range(300)).map_assignment

    @given(split_region_mrfs())
    @settings(max_examples=60, deadline=None)
    def test_map_roots_match_their_trees_exactly(self, m):
        # every MAP root reads the subtrees that earlier roots keyed, yet
        # its ratio is the sweep of its own conditioned tree, bit for bit
        walk, ratios, trees = saw._walk, [], []

        def recording_walk(*args):
            pair, edges = walk(*args)
            ratios.append(repr(pair))
            return pair, edges

        with patch.object(saw, "_KEY_PAYS", 0), patch.object(saw, "_walk", recording_walk):
            x = saw_component_map(m)
        assert x == saw_map_by_trees(m, trees)
        assert ratios == [repr(saw_max_ratio(tree)) for tree in trees]

    def test_map_walks_hit_earlier_roots_keys(self, monkeypatch):
        walk, hits = saw._walk, []

        class Recording(dict):
            """A memo that counts the lookups finding a key stored before
            the current walk began."""

            def __init__(self, stored):
                super().__init__(stored)
                self.earlier, self.hits = set(stored), 0

            def get(self, key, default=None):
                self.hits += key in self.earlier
                return super().get(key, default)

        def recording_walk(*args):
            share = args[5] if len(args) > 5 else None
            if share is None:
                return walk(*args)
            comp = share[0]
            comp.memo = Recording(comp.memo)
            out = walk(*args)
            hits.append(comp.memo.hits)
            return out

        monkeypatch.setattr(saw, "_walk", recording_walk)
        m = sample_potentials(size_lower_bound_family(40, 8), VARYING_INTERACTION, 1.0, seed=1)
        assert saw_component_map(m) == saw_map_by_trees(m)
        assert hits[0] == 0 and max(hits) > 0

    @pytest.mark.parametrize("run", [msg_pass_mode, saw_component_map])
    def test_cap_bounds_the_tree_not_the_work(self, run):
        # the shared walks of the chorded ring send about a tenth of the
        # messages, yet the cap still refuses by the tree-size bound
        m = sample_potentials(size_lower_bound_family(40, 8), VARYING_INTERACTION, 1.0, seed=1)
        bound = saw_size_upper(40, 8)
        assert bound == 24064
        with pytest.raises(CapExceeded) as err:
            run(m, cap=bound - 1)
        assert str(err.value) == "walk tree may have up to 24064 edges (n=40, extra edges k=8), cap=24063"
        run(m, cap=bound)


def test_walk_trees_build_no_member_tuples(monkeypatch):
    # the cap check reads two counts per component, and a keyed component
    # its members, from the sweep's labels
    calls, members = [], core._members

    def counting_members(*args):
        calls.append(args)
        return members(*args)

    monkeypatch.setattr(core, "_members", counting_members)
    monkeypatch.setattr(saw, "_members", counting_members, raising=False)
    m = sample_potentials(size_lower_bound_family(40, 8), VARYING_INTERACTION, 1.0, seed=1)
    msg_pass_mode(m), saw_component_map(m), build_saw_tree(m, 0)
    assert calls == []
