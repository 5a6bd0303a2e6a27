"""Graph/MRF data model, metric queries, doubling dimension, text format."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmrf import (
    Graph,
    PairwiseMrf,
    affine_shift,
    component_solve,
    connected_components,
    criscross_graph,
    doubling_dimension_exact,
    energy,
    grid_graph,
    parse_mrf_text,
    shortest_path_ball,
    write_mrf_text,
)
from localmrf import core
from localmrf.bench import parse_experiment_spec
from localmrf.core import CapExceeded, FormatError, _members, bfs_depths, sweep
from localmrf.mwis import parse_factor_model

from helpers import (
    COPIES,
    distances_by_floyd,
    edge_ids,
    edge_index,
    induced_by_edge_scan,
    lattice_by_pairs,
    oracle_log_z,
    parse_mrf_by_lines,
    random_graph,
    random_mrf,
    union_find_components,
    cover_number_oracle,
    with_forced_node,
    write_mrf_by_format,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


@st.composite
def written_models(draw, min_n=0):
    """Models of 0-7 nodes whose tables survive the 17-digit text format."""
    n = draw(st.integers(min_n, 7))
    q = draw(st.integers(2, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    value = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 5e-324])
    phi = draw(st.lists(value, min_size=n * q, max_size=n * q))
    psi = draw(st.lists(value, min_size=len(edges) * q * q, max_size=len(edges) * q * q))
    graph = Graph(n, edges)
    return PairwiseMrf(
        graph, q, np.reshape(phi, (n, q)), np.reshape(psi, (len(edges), q, q))
    )


@st.composite
def corruptions(draw, lines, i, clean):
    """One malformed version of ``lines[i]`` and the error text it must raise."""
    kind, *tokens = lines[i].split()
    ids = 1 if kind == "node" else 2
    earlier = [j for j in clean if j < i and lines[j].startswith(kind)]
    options = ["token", "finite", "range", "count", "kind"] + ["duplicate"] * bool(earlier)
    how = draw(st.sampled_from(options))
    if how == "token":
        k = draw(st.integers(0, len(tokens) - 1))
        tokens[k] = draw(st.sampled_from(["x", "1.5.0", "--2", "0x1f", ""])) + "z"
        return " ".join([kind, *tokens]), "not a number in: "
    if how == "finite":
        k = draw(st.integers(ids, len(tokens) - 1))
        tokens[k] = draw(st.sampled_from(["nan", "inf", "-inf", "-Infinity"]))
        return " ".join([kind, *tokens]), "values must be finite: "
    if how == "range":
        if kind == "node":
            tokens[0] = draw(st.sampled_from(["-1", "7", "99999999999999999999999"]))
            return " ".join([kind, *tokens]), "node id -?[0-9]+ out of range"
        tokens[0], tokens[1] = tokens[1], draw(st.sampled_from([tokens[0], "8", "-3"]))
        return " ".join([kind, *tokens]), "edge must be written u < v < n"
    if how == "count":
        tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["0"]
        return " ".join([kind, *tokens]), f"{kind} line needs "
    if how == "kind":
        return " ".join([kind.upper(), *tokens]), "unknown line kind: "
    return lines[draw(st.sampled_from(earlier))], f"duplicate {kind} "


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        # (-1) x (-1) would pass as one node
        with pytest.raises(ValueError, match="non-negative"):
            grid_graph(-1)

    def test_dedupes_and_sorts_adjacency(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges == frozenset({(0, 2), (0, 1)})
        assert g.adjacency[0] == (1, 2)

    def test_distances_inf_across_components(self):
        g = Graph(3, [(0, 1)])
        assert g.distances(0)[2] == math.inf
        assert g.distances(0)[1] == 1.0

    def test_distance_is_a_metric(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 9, 0.3)
        d = g.distance_matrix
        assert (np.diag(d) == 0).all()
        assert np.array_equal(d, d.T)
        for i in range(9):
            for j in range(9):
                for k in range(9):
                    assert d[i, j] <= d[i, k] + d[k, j]


TUPLE_VIEWS = ("adjacency", "edge_list", "edges")


def same_views(g, ref):
    assert g == ref and hash(g) == hash(ref) and repr(g) == repr(ref)
    assert g.ends.dtype == ref.ends.dtype == np.intp and g.ends.shape == ref.ends.shape
    for view in ("n", "max_degree", *TUPLE_VIEWS):
        assert getattr(g, view) == getattr(ref, view), view


class TestGraphArrays:
    """The graph is its edge array and the CSR rows built from it; the
    tuple views are built from those on first use."""

    @pytest.mark.parametrize("diagonals", [False, True])
    @pytest.mark.parametrize(
        "rows, cols",
        [(0, 0), (0, 4), (4, 0), (1, 1), (1, 2), (1, 7), (7, 1), (2, 1), (2, 2), (2, 5),
         (5, 2), (3, 3), (3, 8), (8, 3), (7, 7)],
    )
    def test_lattices_equal_checked_graph(self, rows, cols, diagonals):
        make = criscross_graph if diagonals else grid_graph
        g = make(rows, cols)
        same_views(g, lattice_by_pairs(rows, cols, diagonals))
        if rows == cols:
            assert make(rows) == g
        for a in (g.ends, g.indptr, g.nbr, g.nbr_edge):
            assert not a.flags.writeable

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_csr_rows_are_the_views(self, data):
        m = data.draw(written_models())
        g = m.graph
        assert g.indptr.tolist() == [0, *np.cumsum([len(a) for a in g.adjacency]).tolist()]
        assert g.nbr.tolist() == [w for a in g.adjacency for w in a]
        assert g.nbr_edge.tolist() == [e for ids in edge_ids(g) for e in ids]
        for v in range(g.n):
            assert g.adjacency[v] == tuple(sorted(g.adjacency[v]))
            assert g.degree(v) == len(g.adjacency[v])
            for w, e in zip(g.adjacency[v], edge_ids(g)[v]):
                assert g.edge_list[e] == (min(v, w), max(v, w))
        assert g.max_degree == max(map(len, g.adjacency), default=0)

    def test_equal_graphs_from_every_constructor(self):
        # the checking constructor, the unchecked one, the parse and the
        # lattice function give equal graphs with equal hashes
        ref = Graph(12, [(v + 4, v) for v in range(8)] + [(v, v + 1) for v in range(11) if v % 4 != 3])
        mrf = random_mrf(np.random.default_rng(3), ref)
        graphs = [ref, Graph(12, reversed(ref.edge_list)), Graph._from_ends(12, ref.ends.copy()),
                  parse_mrf_text(write_mrf_text(mrf)).graph, grid_graph(3, 4)]
        for g in graphs:
            same_views(g, ref)
        assert len(set(graphs)) == 1
        for other in (Graph(13, ref.edge_list), Graph(12, ref.edge_list[1:]), grid_graph(4, 3)):
            assert other != ref

    def test_comparisons_build_no_tuple_view(self):
        a, b = grid_graph(6), Graph._from_ends(36, grid_graph(6).ends.copy())
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != grid_graph(6, 5) and a != criscross_graph(6)
        assert repr(a) == "Graph(n=36, m=60)"
        assert [a.degree(v) for v in (0, 1, 7)] == [2, 3, 4] and a.max_degree == 4
        for g in (a, b):
            assert set(TUPLE_VIEWS).isdisjoint(vars(g))

    def test_views_hold_one_int_per_id(self):
        # a node id listed once per neighbour is one object, shared by
        # graphs of one size, so records kept from many runs stay small
        g, h = grid_graph(30), grid_graph(30)
        nodes = [w for a in g.adjacency for w in a]
        assert len({id(w) for w in nodes}) == len(set(nodes)) == 900
        assert all(x is y for x, y in zip(nodes, (w for a in h.adjacency for w in a)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_edge_rows_equal_the_dict_lookup(self, data):
        # empty and edgeless graphs included; the pairs come in any
        # orientation, out of range, and far beyond what intp holds
        n = data.draw(st.integers(0, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
        ids = st.integers(-2, n + 2) | st.sampled_from([2**70, -(2**70), 2**63])
        queries = data.draw(st.lists(st.tuples(ids, ids), max_size=12))
        queries += data.draw(st.lists(st.sampled_from(g.edge_list), max_size=4)) if g.edge_list else []
        index = edge_index(g)
        rows = g.edge_rows(queries)
        assert rows.dtype == np.intp
        assert rows.tolist() == [index.get(q, -1) for q in queries]
        small = [q for q in queries if all(abs(x) < 2**62 for x in q)]
        assert g.edge_rows(np.array(small, dtype=np.intp).reshape(-1, 2)).tolist() == [
            index.get(q, -1) for q in small
        ]

    def test_edge_rows_of_floats_are_whole_ids_only(self):
        g = grid_graph(3)
        # as the dict of tuples read them: 1.0 is the id 1, and 1.5 no id
        assert g.edge_rows([(0.0, 1.0), (0.5, 1.0), (1e-20, 1.0), (1.0, 2.0)]).tolist() == [0, -1, -1, 2]
        assert g.edge_rows([(np.inf, 1), (0, np.nan)]).tolist() == [-1, -1]

    def test_edge_rows_build_their_keys_once(self, monkeypatch):
        # a one-edge lookup costs O(log m), not a key array of O(m)
        g = grid_graph(100)
        built, append = [], np.append
        monkeypatch.setattr(np, "append", lambda *a, **k: built.append(a) or append(*a, **k))
        assert g.edge_rows([(0, 1)]).tolist() == [0]
        assert g.edge_rows([(0, 100), (5, 7)]).tolist() == [1, -1]
        assert len(built) == 1

    def test_degree_of_a_non_node(self):
        g = grid_graph(2)
        for v in (-1, 4):
            with pytest.raises(ValueError, match=f"node {v} out of range"):
                g.degree(v)


class TestBall:
    def test_radius_one_is_singleton(self):
        g = path_graph(4)
        for v in range(4):
            assert shortest_path_ball(g, v, 1) == {v}

    def test_path_strict_radius(self):
        g = path_graph(3)
        assert shortest_path_ball(g, 0, 2) == {0, 1}

    def test_grid_center_diamond(self):
        g = grid_graph(5)
        ball = shortest_path_ball(g, 12, 3)
        # independent BFS count of nodes with distance <= 2
        frontier, seen = {12}, {12}
        for _ in range(2):
            frontier = {
                w for u in frontier for w in g.adjacency[u] if w not in seen
            }
            seen |= frontier
        assert ball == seen
        assert len(ball) == 13

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.0, 0.6))
    @settings(max_examples=60, deadline=None)
    def test_balls_and_distances_match_floyd(self, seed, n, p):
        g = random_graph(np.random.default_rng(seed), n, p)
        d = distances_by_floyd(g)
        assert np.array_equal(g.distance_matrix, d)
        for v in range(n):
            assert np.array_equal(g.distances(v), d[v])
            for r in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.2, math.inf):
                expect = frozenset(np.flatnonzero(d[v] < r).tolist())
                assert shortest_path_ball(g, v, r) == expect

    @pytest.mark.parametrize("root, message", [
        (-1, "node -1 out of range"),  # read node 8 at distance 0, the rest at inf
        (9, "node 9 out of range"),  # raised a bare IndexError
        (1.5, "node 1.5 is not an integer id"),
        ("0", "node '0' is not an integer id"),
    ])
    def test_non_node_root_is_rejected(self, root, message):
        g = grid_graph(3)
        for search in (g.distances, lambda v: bfs_depths(g, v), lambda v: shortest_path_ball(g, v, 2)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                search(root)

    def test_ball_does_not_build_distance_matrix(self):
        g = grid_graph(6)
        assert shortest_path_ball(g, 14, 2) == {8, 13, 14, 15, 20}
        assert "distance_matrix" not in g.__dict__


class TestEnergy:
    def test_single_node(self):
        m = PairwiseMrf(Graph(1, []), 2, [[0.0, 2.0]], {})
        assert energy(m, (1,)) == 2.0

    def test_product_edge(self):
        m = PairwiseMrf(
            Graph(2, [(0, 1)]), 2, [[0, 0], [0, 0]], {(0, 1): [[0, 0], [0, 1]]}
        )
        assert energy(m, (1, 1)) == 1.0
        assert energy(m, (1, 0)) == 0.0

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(3)
        m = random_mrf(rng, grid_graph(3))
        x = tuple(rng.integers(2, size=9).tolist())
        total = 0.0
        for v in range(9):
            total += float(m.phi[v, x[v]])
        for u, v in m.edge_list:
            total += float(m.edge_table(v, u)[x[v], x[u]])  # transposed access
        assert energy(m, x) == total

    def test_shuffled_resummation(self):
        rng = np.random.default_rng(4)
        m = random_mrf(rng, random_graph(rng, 8, 0.4))
        x = tuple(rng.integers(2, size=8).tolist())
        terms = [float(m.phi[v, x[v]]) for v in range(8)]
        terms += [float(m.edge_table(u, v)[x[u], x[v]]) for u, v in m.edge_list]
        rng.shuffle(terms)
        assert energy(m, x) == pytest.approx(math.fsum(terms), rel=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.sampled_from([2, 3]))
    @settings(max_examples=80, deadline=None)
    def test_energy_and_range_sum_are_left_folds(self, seed, n, q):
        rng = np.random.default_rng(seed)
        m = random_mrf(rng, random_graph(rng, n, 0.5), q=q, lo=-1e3, hi=1e3)
        phi = np.array(m.phi)
        phi[rng.random((n, q)) < 0.2] = -math.inf
        m = PairwiseMrf(m.graph, q, phi, m.psi)
        x = tuple(rng.integers(q, size=n).tolist())
        total = 0.0
        for v in range(n):
            total += float(m.phi[v, x[v]])
        for u, v in m.edge_list:
            total += float(m.edge_table(u, v)[x[u], x[v]])
        assert repr(energy(m, x)) == repr(total)
        # edges in either orientation, some twice, in a shuffled order
        edges = [e[::-1] if rng.random() < 0.5 else e for e in m.edge_list
                 for _ in range(int(rng.integers(0, 3)))]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        total = 0.0
        for u, v in sorted(tuple(sorted(e)) for e in edges):
            table = m.edge_table(u, v)
            total += float(table.max()) - float(table.min())
        assert repr(m.edge_range_sum(edges)) == repr(total)

    def test_rejects_bad_assignment(self):
        m = PairwiseMrf(Graph(1, []), 2, [[0.0, 0.0]], {})
        with pytest.raises(ValueError):
            energy(m, (2,))
        # the first bad node is named, with its state as given
        m = PairwiseMrf(Graph(4, [(0, 1)]), 3, np.zeros((4, 3)), np.zeros((1, 3, 3)))
        for x, message in (
            ((0, 3, -1, 0), "state 3 at node 1 out of range"),
            ((0, 1, -1, 5), "state -1 at node 2 out of range"),
            ((0, 1, 2, math.nan), "state nan at node 3 out of range"),
            ((2**70, 0, 0, 0), f"state {2**70} at node 0 out of range"),
            # a state is an integer: no float is truncated, no string read
            ((0.5, 1.9, 0, 1), "state 0.5 at node 0 out of range"),
            ((0, 1.0, 0, 0), r"state 1\.0 at node 1 out of range"),
            ((0, 0, "1", 0), "state 1 at node 2 out of range"),
            (np.zeros(4), r"state 0\.0 at node 0 out of range"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                energy(m, x)
        with pytest.raises(ValueError, match="^assignment length 3 != n=4$"):
            energy(m, (0, 0, 0))

    def test_integer_and_bool_states_agree(self):
        m = random_mrf(np.random.default_rng(15), grid_graph(2))
        x = (1, 0, 1, 1)
        h = energy(m, x)
        for same in (list(x), np.array(x, dtype=np.uint8), np.array(x, dtype=bool),
                     np.array(x, dtype=object), tuple(map(np.int64, x)), (True, False, 1, True)):
            assert repr(energy(m, same)) == repr(h)


class TestAffineShift:
    def test_single_table(self):
        m = PairwiseMrf(Graph(1, []), 2, [[-1.0, 2.0]], {})
        shifted, total = affine_shift(m)
        assert shifted.phi[0].tolist() == [0.0, 3.0]
        assert total == 1.0

    def test_identity_when_nonnegative(self):
        rng = np.random.default_rng(5)
        m = random_mrf(rng, path_graph(3), lo=0.0, hi=1.0)
        shifted, total = affine_shift(m)
        assert total == 0.0
        assert np.array_equal(shifted.phi, m.phi)
        assert np.array_equal(shifted.psi, m.psi)

    def test_preserves_argmax_and_distribution(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 5, 0.5)
        m = random_mrf(rng, g, lo=-2.0, hi=2.0)
        shifted, total = affine_shift(m)
        assert float(shifted.phi.min()) >= 0.0
        if len(shifted.psi):
            assert float(shifted.psi.min()) >= 0.0
        # brute-force distributions agree after normalization
        import itertools

        raw = np.array(
            [energy(m, x) for x in itertools.product(range(2), repeat=5)]
        )
        new = np.array(
            [energy(shifted, x) for x in itertools.product(range(2), repeat=5)]
        )
        np.testing.assert_allclose(new - raw, total, atol=1e-12)
        p_raw = np.exp(raw - raw.max())
        p_new = np.exp(new - new.max())
        np.testing.assert_allclose(
            p_raw / p_raw.sum(), p_new / p_new.sum(), rtol=1e-12
        )
        assert int(np.argmax(raw)) == int(np.argmax(new))

    def test_rejects_non_finite(self):
        m = PairwiseMrf(Graph(1, []), 2, [[-math.inf, 0.0]], {})
        with pytest.raises(ValueError):
            affine_shift(m)

    @pytest.mark.parametrize("q", [2, 3])
    def test_edgeless(self, q):
        # numpy reduces an empty (0, q, q) stack to an empty float array
        phi = np.arange(3 * q, dtype=float).reshape(3, q) - 4.0
        m = PairwiseMrf(Graph(3, []), q, phi, np.zeros((0, q, q)))
        for table in (m.edge_min, m.edge_max):
            assert table.shape == (0,) and table.dtype == float
        shifted, total = affine_shift(m)
        assert shifted.psi.shape == (0, q, q)
        assert total == {2: 4.0 + 2.0, 3: 4.0 + 1.0}[q]  # the node shifts' sum

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_shift_property(self, table):
        m = PairwiseMrf(Graph(1, []), len(table), [table], {})
        shifted, total = affine_shift(m)
        assert float(shifted.phi.min()) >= 0.0
        assert total == max(0.0, -min(table))


class TestDoublingDimension:
    def test_single_node(self):
        assert doubling_dimension_exact(Graph(1, [])) == 0.0

    def test_empty_graph(self):
        assert doubling_dimension_exact(Graph(0, [])) == 0.0

    def test_complete_graph_k4(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert doubling_dimension_exact(k4) == 2.0

    def test_path8_matches_cover_oracle(self):
        g = path_graph(8)
        rho = doubling_dimension_exact(g)
        assert rho == math.log2(cover_number_oracle(g))

    def test_small_random_matches_cover_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_graph(rng, 6, 0.4)
            assert doubling_dimension_exact(g) == math.log2(cover_number_oracle(g))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            doubling_dimension_exact(grid_graph(4))

    def test_ball_growth_bound(self):
        # |ball(v, 2^r)| <= C^r where C is the worst covering number
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = random_graph(rng, 7, 0.35)
            c = 2.0 ** doubling_dimension_exact(g)
            for v in range(g.n):
                for r in range(0, 4):
                    assert len(shortest_path_ball(g, v, 2.0**r)) <= c**r + 1e-9


# the mask forms ``sweep`` takes: none, or a boolean array (every caller
# that removes anything passes one)
MASK_FORMS = (None, lambda flags: np.array(flags, dtype=bool))


class TestComponents:
    def test_edgeless(self):
        assert connected_components(Graph(3, [])) == ((0,), (1,), (2,))

    def test_path_single_component(self):
        assert connected_components(path_graph(3)) == ((0, 1, 2),)

    def test_matches_union_find(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_graph(rng, 12, 0.15)
            ours = {frozenset(c) for c in connected_components(g)}
            assert ours == union_find_components(g)

    def test_removed_edges_and_nodes(self):
        g = path_graph(5)
        assert connected_components(g, removed_edges={(1, 2)}) == ((0, 1), (2, 3, 4))
        assert connected_components(g, removed_nodes={2}) == ((0, 1), (3, 4))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sweep_matches_union_find_and_bfs(self, data):
        # long paths through the nodes in a drawn order, broken at drawn
        # points, and a few chords
        n = data.draw(st.integers(0, 40))
        order = data.draw(st.permutations(range(n)))
        breaks = data.draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=4))
        edges = [(u, v) for k, (u, v) in enumerate(zip(order, order[1:]), 1) if k not in breaks]
        if n > 1:
            edges += data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]), max_size=n // 4))
        g = Graph(n, edges)
        # each mask in a form a caller passes; None removes nothing
        dead_form, cut_form = data.draw(st.tuples(*[st.sampled_from(MASK_FORMS)] * 2))
        dead = data.draw(st.sets(st.integers(0, n - 1))) if n and dead_form else set()
        chosen = data.draw(st.lists(st.sampled_from(g.edge_list))) if g.edge_list and cut_form else []
        # removed pairs also come reversed, and as arbitrary pairs: those
        # that are not edges in either orientation are ignored
        removed = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in chosen]
        if cut_form:
            removed += data.draw(st.lists(st.tuples(st.integers(0, 41), st.integers(0, 41)), max_size=4))
        cut = {(min(p), max(p)) for p in removed} & g.edges
        kept = [(u, v) for u, v in g.edge_list if (u, v) not in cut and not {u, v} & dead]
        pruned = Graph(n, kept)

        comps = connected_components(g, removed_nodes=dead, removed_edges=removed)
        assert {frozenset(c) for c in comps} == {
            c for c in union_find_components(pruned) if not c <= dead
        }
        assert all(list(c) == sorted(c) for c in comps)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)

        dead_mask = dead_form([v in dead for v in range(n)]) if dead_form else None
        cut_mask = cut_form([e in cut for e in g.edge_list]) if cut_form else None
        comp_of, depth, count = sweep(g, dead_mask, cut_mask)
        assert comp_of.dtype == depth.dtype == np.intp and count == len(comps)
        assert _members(comp_of, count) == comps
        for j, comp in enumerate(comps):
            # depths from the component's lowest id
            reference = bfs_depths(pruned, comp[0])
            assert sorted(reference) == list(comp)
            for v in comp:
                assert depth[v] == reference[v]
                assert comp_of[v] == j
        for v in dead:
            assert depth[v] == -1 and comp_of[v] == -1
        assert "_csr_lists" not in vars(g)

    @pytest.mark.parametrize("build, bad", [
        (lambda: Graph(3, [(0, 1.5)]), "1.5"),
        (lambda: Graph(3, [("0", 1)]), "'0'"),
        (lambda: connected_components(path_graph(3), removed_nodes=[1.5]), "1.5"),
    ], ids=["float-end", "str-end", "float-removed-node"])
    def test_non_integer_id_is_rejected(self, build, bad):
        with pytest.raises(ValueError, match=f"^node {re.escape(bad)} is not an integer id$"):
            build()


# pairs that are no edge as written: reversed, a negative id, an id beyond
# intp, a self pair
REVERSED, NEGATIVE, HUGE, SELF = (1, 0), (-1, 0), (2**70, 0), (0, 0)


class TestHostileEdges:
    """Every caller of ``Graph.edge_rows`` on pairs that are no edge gives the
    result, or the exception type and message, of the dict lookup it replaced:
    a ``ValueError`` or a pair ignored, never an ``OverflowError`` or a pair
    misread."""

    @pytest.fixture
    def m(self):
        return random_mrf(np.random.default_rng(14), grid_graph(3))

    def test_edge_table(self, m):
        assert np.array_equal(m.edge_table(*REVERSED), m.edge_table(0, 1).T)
        for u, v in (NEGATIVE, HUGE, SELF, (0, 2**70), (0, -1)):
            with pytest.raises(ValueError, match=rf"^\({u}, {v}\) is not an edge of this model$"):
                m.edge_table(u, v)

    def test_edge_range_sum(self, m):
        one = m.edge_range_sum([(0, 1)])
        assert m.edge_range_sum([REVERSED]) == one
        # a duplicate counts twice, in either orientation
        assert m.edge_range_sum([(0, 1), REVERSED]) == m.edge_range_sum([(0, 1)] * 2) == one + one
        assert m.edge_range_sum([]) == 0.0
        for u, v in (NEGATIVE, HUGE, SELF):
            with pytest.raises(ValueError, match=rf"^\({u}, {v}\) is not an edge of this model$"):
                m.edge_range_sum([(0, 1), (u, v), (1, 2)])
        with pytest.raises(ValueError, match=r"^too many values to unpack \(expected 2\)$"):
            m.edge_range_sum([(0, 1), (0, 1, 2)])

    def test_without_edges(self, m):
        pruned = m.without_edges([REVERSED])
        assert pruned.graph == Graph(9, set(m.edge_list) - {(0, 1)})
        assert np.array_equal(pruned.psi, m.psi[1:])
        assert m.without_edges([(0, 1), REVERSED, (0, 1)]).graph == pruned.graph
        assert m.without_edges([]).graph == m.graph
        # the message names each pair once, ascending, as (min, max)
        for pairs, named in (([NEGATIVE], "(-1, 0)"), ([(0, -1)], "(-1, 0)"), ([HUGE], f"(0, {2**70})"),
                             ([SELF], "(0, 0)"), ([(2**70, 1), (0, 4), (0, 4)], f"(0, 4), (1, {2**70})")):
            with pytest.raises(ValueError, match=f"^{re.escape(f'not edges of this model: [{named}]')}$"):
                m.without_edges([(0, 1), *pairs])
        with pytest.raises(ValueError, match=r"^too many values to unpack \(expected 2\)$"):
            m.without_edges([(0, 1), (0, 1, 2)])

    def test_connected_components(self):
        g = path_graph(4)
        assert connected_components(g, removed_edges=[(2, 1)]) == ((0, 1), (2, 3))
        for pair in (NEGATIVE, HUGE, SELF, (0, 2**70), (3, 4)):
            assert connected_components(g, removed_edges=[pair]) == ((0, 1, 2, 3),)
        with pytest.raises(ValueError, match=r"^too many values to unpack \(expected 2\)$"):
            connected_components(g, removed_edges=[(0, 1, 2)])


class TestModelEdits:
    def test_without_edges_drops_tables(self):
        rng = np.random.default_rng(12)
        m = random_mrf(rng, Graph(3, [(0, 1), (0, 2), (1, 2)]))
        pruned = m.without_edges([(1, 0)])
        assert pruned.graph.edges == frozenset({(0, 2), (1, 2)})
        assert np.array_equal(pruned.edge_table(0, 2), m.edge_table(0, 2))
        # both orientations name the same edge
        assert m.without_edges([(0, 1), (1, 0)]).graph.edges == pruned.graph.edges
        with pytest.raises(ValueError):
            m.without_edges([(0, 3)])

    def test_non_edge_named(self):
        m = random_mrf(np.random.default_rng(14), grid_graph(3))
        for lookup in (lambda: m.edge_range_sum([(0, 1), (0, 4)]),
                       lambda: m.edge_table(0, 4), lambda: m.edge_table(4, 0)):
            with pytest.raises(ValueError, match=r"\((0, 4|4, 0)\) is not an edge"):
                lookup()

    def test_forced_node_keeps_state_value(self):
        rng = np.random.default_rng(13)
        m = random_mrf(rng, Graph(2, [(0, 1)]))
        forced = with_forced_node(m, 0, 1)
        assert forced.phi[0, 0] == -math.inf
        assert forced.phi[0, 1] == m.phi[0, 1]
        assert m.phi[0, 0] != -math.inf
        # the copy shares the graph and edge tables
        assert forced.graph is m.graph and forced.psi is m.psi

    @pytest.mark.parametrize("tables", ["arrays", "dict"])
    def test_model_copies_the_tables_given(self, tables):
        g = Graph(2, [(0, 1)])
        phi, psi = np.zeros((2, 2)), np.ones((1, 2, 2))
        m = PairwiseMrf(g, 2, phi, psi if tables == "arrays" else {(0, 1): psi[0]})
        assert phi.flags.writeable and psi.flags.writeable
        phi[0, 0] = psi[0, 0, 0] = 5.0
        assert m.phi[0, 0] == 0.0 and m.psi[0, 0, 0] == 1.0
        assert not (m.phi.flags.writeable or m.psi.flags.writeable)


class TestModelChecks:
    """Each rejection in ``PairwiseMrf.__init__``, with its message."""

    G = Graph(2, [(0, 1)])
    PHI = [[0.0, 0.0], [0.0, 0.0]]
    PSI = [[0.0, 1.0], [2.0, 3.0]]

    @pytest.mark.parametrize("q, phi, psi, message", [
        (1, [[0.0], [0.0]], {(0, 1): [[0.0]]}, "alphabet size must be an integer >= 2"),
        (2.0, PHI, {(0, 1): PSI}, "alphabet size must be an integer >= 2"),
        (2, [[0.0, 0.0]], {(0, 1): PSI}, r"node potentials must have shape \(2,2\)"),
        (2, [[0.0, math.nan], [0.0, 0.0]], {(0, 1): PSI}, r"node potential contains nan or \+inf"),
        (2, [[0.0, 0.0], [math.inf, 0.0]], {(0, 1): PSI}, r"node potential contains nan or \+inf"),
        (2, PHI, {}, r"missing edge potential for \(0,1\)"),
        (2, PHI, {(0, 1): PSI, (1, 2): PSI}, r"potentials for non-edges: \[\(1, 2\)\]"),
        (2, PHI, np.zeros((2, 2, 2)), "edge potential array has wrong shape"),
        (2, PHI, {(0, 1): [[0.0, -math.inf], [0.0, 0.0]]}, "edge potentials must be finite"),
    ])
    def test_rejected(self, q, phi, psi, message):
        with pytest.raises(ValueError, match=message):
            PairwiseMrf(self.G, q, phi, psi)

    def test_repr(self):
        assert repr(PairwiseMrf(self.G, 2, self.PHI, {(0, 1): self.PSI})) == "PairwiseMrf(n=2, m=1, q=2)"

    def test_reversed_key_is_stored_transposed(self):
        m = PairwiseMrf(self.G, 2, self.PHI, {(1, 0): self.PSI})
        assert m.psi[0].tolist() == np.transpose(self.PSI).tolist()
        assert m.edge_table(0, 1).tolist() == [[0.0, 2.0], [1.0, 3.0]]

    def test_numpy_integer_alphabet_accepted(self):
        m = PairwiseMrf(self.G, np.int64(2), self.PHI, {(0, 1): self.PSI})
        assert m.psi.tolist() == PairwiseMrf(self.G, 2, self.PHI, {(0, 1): self.PSI}).psi.tolist()

    def test_text_format_rejects_minus_inf_node_entry(self):
        m = PairwiseMrf(self.G, 2, [[0.0, -math.inf], [0.0, 0.0]], {(0, 1): self.PSI})
        with pytest.raises(ValueError, match="text format requires finite tables"):
            write_mrf_text(m)

    def test_ball_rejects_out_of_range_node(self):
        for v in (-1, 2):
            with pytest.raises(ValueError, match=f"node {v} out of range"):
                shortest_path_ball(self.G, v, 1.0)


class TestIntegerSizes:
    """A node count or lattice side that is no integer is rejected with the
    message of the range check; numpy integers pass."""

    @pytest.mark.parametrize("make, message", [
        (lambda: Graph(3.5, []), "node count must be an integer >= 0"),
        (lambda: grid_graph(2.5), "grid sides must be non-negative"),
        (lambda: criscross_graph(3, 2.0), "grid sides must be non-negative"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_numpy_integers_accepted(self):
        assert Graph(np.int64(3), [(0, 2)]) == Graph(3, [(0, 2)])
        assert grid_graph(np.int64(3), np.int64(4)) == grid_graph(3, 4)


class TestCopies:
    """A copied graph or model is rebuilt from copies of its arrays: equal,
    read-only, and with none of the views cached on the original."""

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_graph(self, how):
        g = criscross_graph(4)
        g.adjacency, g.edges, g.edge_rows([(0, 1)])  # cache the views
        c = COPIES[how](g)
        assert {"_csr_lists", "adjacency", "edge_list", "edges", "_edge_keys"}.isdisjoint(vars(c))
        for a, b in ((c.ends, g.ends), (c.indptr, g.indptr), (c.nbr, g.nbr), (c.nbr_edge, g.nbr_edge)):
            assert np.array_equal(a, b) and a.dtype == b.dtype and not a.flags.writeable
        assert c == g and c.adjacency == g.adjacency

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_model(self, how):
        m = with_forced_node(random_mrf(np.random.default_rng(16), grid_graph(3)), 4, 1)
        m.edge_min, m.edge_max, m.graph.adjacency  # cache the views
        c = COPIES[how](m)
        assert {"edge_min", "edge_max"}.isdisjoint(vars(c)) and "adjacency" not in vars(c.graph)
        assert c.graph == m.graph and c.q == m.q
        for a, b in ((c.phi, m.phi), (c.psi, m.psi), (c.graph.ends, m.graph.ends)):
            assert np.array_equal(a, b) and not a.flags.writeable
        assert repr(energy(c, (1,) * 9)) == repr(energy(m, (1,) * 9))


class TestInduced:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 14),
        st.floats(0.0, 1.0),
        st.sampled_from([2, 3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_edge_scan(self, seed, n, p, q):
        rng = np.random.default_rng(seed)
        m = random_mrf(rng, random_graph(rng, n, p), q=q)
        k = int(rng.integers(1, n + 1))
        nodes = [int(v) for v in rng.choice(n, size=k, replace=False)]
        sub, order = m.induced(nodes)
        ref, ref_order = induced_by_edge_scan(m, nodes)
        assert order == ref_order
        assert sub.graph.edge_list == ref.graph.edge_list
        assert np.array_equal(sub.psi, ref.psi)
        assert np.array_equal(sub.phi, ref.phi)

    def test_repeated_node_rejected(self):
        # a node listed twice would become two sub-model nodes both standing for it
        m = random_mrf(np.random.default_rng(4), grid_graph(2))
        for nodes in ([1, 1], [3, 0, 2, 0]):
            with pytest.raises(ValueError, match=f"^node {min(nodes)} listed twice$"):
                m.induced(nodes)
            with pytest.raises(ValueError, match=f"^node {min(nodes)} listed twice$"):
                component_solve(m, nodes)


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(10)
        m = random_mrf(rng, random_graph(rng, 6, 0.5), q=3, lo=-1.7, hi=2.3)
        back = parse_mrf_text(write_mrf_text(m))
        assert back.graph == m.graph
        assert back.q == m.q
        assert np.array_equal(back.phi, m.phi)
        assert np.array_equal(back.psi, m.psi)

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\nmrf 1 2\n\nnode 0 0.5 1 # trailing\n"
        m = parse_mrf_text(text)
        assert m.phi[0].tolist() == [0.5, 1.0]

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_mrf_text("node 0 1 2\n")
        with pytest.raises(FormatError):
            parse_mrf_text("mrf 2 2\nnode 0 0 0\n")  # node 1 missing
        with pytest.raises(FormatError):
            parse_mrf_text("mrf 2 2\nnode 0 0 0\nnode 1 0 0\nedge 1 0 1 2 3 4\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("mrf 2 2\nnode 0 0 0\nnode 1 0 0\nnode 0 1 1\n", 4),
            ("mrf 2 2\nnode 0 0 0\nnode 1 0 0\nedge 0 1 1 2 3 4\n"
             "edge 0 1 1 2 3 4\n", 5),
            ("mrf 1 2\nnode 0 0 x\n", 2),
            ("mrf 1 2\n# comment\nnode x 0 0\n", 3),
            ("mrf 1 2\nnode 0 0 nan\n", 2),
            ("mrf 1 2\nnode 0 0 -inf\n", 2),
            ("mrf 2 2\nnode 0 0 0\nnode 1 0 0\nedge 0 1 1 2 inf 4\n", 4),
            ("mrf 2 2\nnode 0 0 0\nnode 1 0 0\nedge 0 2 1 2 3 4\n", 4),
            ("mrf -1 2\n", 1),
            ("mrf 2 1.5\n", 1),
        ],
    )
    def test_bad_line_named(self, text, line):
        with pytest.raises(FormatError, match=f"^line {line}: "):
            parse_mrf_text(text)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_shuffled_lines_parse_back_bit_exact(self, data):
        m = data.draw(written_models())
        header, *body = write_mrf_text(m).splitlines()
        body = data.draw(st.permutations(body))
        lines = [header]
        for line in body:
            lines += data.draw(st.lists(st.sampled_from(["", "  ", "# note"]), max_size=2))
            lines.append(line + data.draw(st.sampled_from(["", " ", "  # trailing"])))
        back = parse_mrf_text("\n".join(lines))
        assert back.graph == m.graph and back.q == m.q
        assert back.phi.tobytes() == m.phi.tobytes()
        assert back.psi.tobytes() == m.psi.tobytes()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_parsed_graph_equals_checked_graph(self, data):
        # the parse builds its graph from its own checked arrays; every view
        # must equal the one the checking constructor builds
        m = data.draw(written_models())
        header, *body = write_mrf_text(m).splitlines()
        g = parse_mrf_text("\n".join([header, *data.draw(st.permutations(body))])).graph
        ref = Graph(m.n, m.edge_list)
        assert g == ref
        assert g.ends.dtype == ref.ends.dtype == np.intp
        assert g.ends.tobytes() == ref.ends.tobytes() and g.ends.shape == (len(ref.edge_list), 2)
        for view in TUPLE_VIEWS:
            assert getattr(g, view) == getattr(ref, view)
        for rows in ("indptr", "nbr", "nbr_edge"):
            assert getattr(g, rows).tolist() == getattr(ref, rows).tolist()
        assert g.ends.tolist() == [list(e) for e in ref.edge_list]
        for ends in (g.ends, ref.ends):
            assert not ends.flags.writeable
            with pytest.raises(ValueError):
                ends[:1] = 0

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupted_line_named(self, data):
        m = data.draw(written_models(min_n=2))
        lines = write_mrf_text(m).splitlines()
        count = data.draw(st.integers(1, 2))
        picks = sorted(data.draw(
            st.lists(st.integers(1, len(lines) - 1), min_size=count, max_size=count, unique=True)
        ))
        clean = [i for i in range(1, len(lines)) if i not in picks]
        expected = []
        for i in picks:
            lines[i], message = data.draw(corruptions(lines, i, clean))
            expected.append(message)
        # the first malformed line in file order is the one named
        with pytest.raises(FormatError, match=f"^line {picks[0] + 1}: {expected[0]}"):
            parse_mrf_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mrf 10000000000000 2\n", "missing node lines for 10000000000000 of 10000000000000 nodes, first node 0"),
            ("mrf 10000000000000 2\nnode 0 1 2\nnode 2 1 2\n", "missing node lines for 9999999999998 of 10000000000000 nodes, first node 1"),
            ("mrf 1 10000000000000\n", "missing node lines for 1 of 1 nodes, first node 0"),
            ("mrf 1 10000000000000\nnode 0 1 2\n", "line 2: node line needs 10000000000000 values"),
            ("mrf 0 10000000000000\n", "line 1: sigma 10000000000000 is too large for an edge table"),
        ],
    )
    def test_huge_header_allocates_nothing(self, text, message):
        # sizes where a table sized by the header alone cannot be allocated
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_mrf_text(text)

    def test_ids_beyond_64_bits_are_named(self):
        # an id past int64 is read by no array, so a header n past it is
        # refused on its line, and any id past int64 is out of range
        with pytest.raises(FormatError, match="^line 1: n 100000000000000000000 does not fit a 64-bit id$"):
            parse_mrf_text("mrf 100000000000000000000 2\nnode 9223372036854775808 0 0\n")
        top = "mrf 9223372036854775807 2\n"
        with pytest.raises(FormatError, match="^line 2: node id 9223372036854775808 out of range$"):
            parse_mrf_text(top + "node 9223372036854775808 0 0\n")
        with pytest.raises(FormatError, match="^line 2: edge must be written u < v < n, got -9223372036854775809 0$"):
            parse_mrf_text(top + "edge -9223372036854775809 0 1 2 3 4\n")
        with pytest.raises(FormatError, match="^missing node lines for 9223372036854775806 of "):
            parse_mrf_text(top + "node 9223372036854775806 0 0\n")

    # a token in each place a number is read: the header's n, a node id and
    # value, an edge end and value
    NUMBER_PLACES = [(1, 1), (2, 1), (2, 3), (4, 2), (4, 6)]

    def _with_token(self, line, k, token):
        lines = "mrf 2 2\nnode 0 1 2\nnode 1 3 4\nedge 0 1 1 2 3 4".split("\n")
        tokens = lines[line - 1].split()
        tokens[k] = token
        lines[line - 1] = " ".join(tokens)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("line, k", NUMBER_PLACES)
    @pytest.mark.parametrize("token", ["1_0", "0_1", "1_0.5"])
    def test_digit_separators_are_not_numbers(self, line, k, token):
        # Python's int and float read 1_0 as 10; the format does not
        with pytest.raises(FormatError, match=f"^line {line}: not a number in: "):
            parse_mrf_text(self._with_token(line, k, token))

    @pytest.mark.parametrize("line, k", NUMBER_PLACES)
    @pytest.mark.parametrize("token", ["\u0661", "\uff11", "1\u0661", "\u0661.\u0665"])
    def test_non_ascii_digits_are_not_numbers(self, line, k, token):
        # Python's int and float read Arabic-Indic and full-width digits
        with pytest.raises(FormatError, match=f"^line {line}: not a number in: "):
            parse_mrf_text(self._with_token(line, k, token))

    def test_line_too_wide_to_read_is_named(self, monkeypatch):
        monkeypatch.setattr(core, "_WIDEST", 3)
        text = "mrf 2 2\nnode 0 1 2\nnode 1 1 2\n# 4 values\nedge 0 1 1 2 3 4\n"
        with pytest.raises(FormatError, match="^line 5: edge line of 4 values is too wide to read$"):
            parse_mrf_text(text)
        with pytest.raises(FormatError, match="^line 3: node line needs 2 values$"):
            parse_mrf_text(text.replace("node 1 1 2", "node 1 1"))

    def test_reader_warning_is_a_bad_line(self, monkeypatch):
        # numpy 1.x reads the id 1.0 as 1 and warns; the warning sends the
        # parse to the line walker, which refuses the token
        real = np.loadtxt

        def loadtxt(lines, *args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return real(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with pytest.raises(FormatError, match="^line 3: not a number in: 1.0$"):
            parse_mrf_text("mrf 2 2\nnode 0 1 2\nnode 1.0 1 2\n")

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_laid_out_text_parses_as_reference(self, data):
        m = data.draw(written_models())
        header, *body = write_mrf_text(m).splitlines()
        filler = st.lists(st.sampled_from(["", "  ", "\t", "# note", " # 1 2 x"]), max_size=2)

        def lay(line):
            sep = data.draw(st.sampled_from([" ", "  ", "\t", "\xa0", " \t"]))
            pad = data.draw(st.sampled_from(["", " ", "\t", "\xa0"]))
            tail = data.draw(st.sampled_from(["", " ", "\t", "# trailing", " #x # y"]))
            return pad + sep.join(line.split(" ")) + tail

        lines = data.draw(filler) + [lay(header)]
        for line in data.draw(st.permutations(body)):
            lines += data.draw(filler) + [lay(line)]
        text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))
        phi, psi, ends = parse_mrf_by_lines(text)
        got = parse_mrf_text(text)
        assert got.phi.tobytes() == phi.tobytes() == m.phi.tobytes()
        assert got.psi.tobytes() == psi.tobytes() == m.psi.tobytes()
        assert got.graph.ends.tobytes() == ends.tobytes() == m.graph.ends.tobytes()
        assert got.psi.shape == psi.shape and got.graph.ends.shape == ends.shape

    MUTANT_TOKENS = [
        "", "0", "1", "2", "-1", "7", "+1", "007", "-0", "1.0", "1.5", ".5", "5.", "1e3",
        "1E-3", "1e400", "-1e400", "1e-400", "nan", "-nan", "inf", "-Infinity", "INF", "x",
        "0x1f", "1e", "--2", "1_0", "\u0661", "\uff11", "\x00", "2\x00", "#", "1#", "node",
        "edge", "mrf", "nodes", "9223372036854775807", "9223372036854775808",
        "-9223372036854775809", "99999999999999999999",
    ]
    # first tokens: the line kinds and what a reader could take for one
    KIND_TOKENS = ["", "#", "node", "edge", "mrf", "nodes", "Node", "node\x00", "edge\x00", "0"]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_text_parses_or_fails_as_reference(self, data):
        # one token replaced, dropped or added anywhere, the header included:
        # the same arrays as the line-by-line reference, or its FormatError
        m = data.draw(written_models())
        lines = write_mrf_text(m).splitlines()
        if data.draw(st.booleans()):
            lines[1:] = data.draw(st.permutations(lines[1:]))
        i = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        k = data.draw(st.just(0) | st.integers(0, len(tokens)))
        token = data.draw(st.sampled_from(self.KIND_TOKENS if k == 0 else self.MUTANT_TOKENS))
        if k == len(tokens) or data.draw(st.booleans()):
            tokens.insert(k, token)
        else:
            tokens[k] = token
        lines[i] = " ".join(tokens)
        text = "\n".join(lines) + "\n"
        try:
            phi, psi, ends = parse_mrf_by_lines(text)
        except FormatError as want:
            with pytest.raises(FormatError) as got:
                parse_mrf_text(text)
            assert str(got.value) == str(want)
            return
        got = parse_mrf_text(text)
        assert got.phi.tobytes() == phi.tobytes() and got.phi.shape == phi.shape
        assert got.psi.tobytes() == psi.tobytes() and got.psi.shape == psi.shape
        assert got.graph.ends.tobytes() == ends.tobytes() and got.graph.ends.shape == ends.shape

    def test_writer_matches_per_value_format(self):
        # the extremes of the 17-digit format: signed zero, subnormals, the
        # largest doubles
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e16]
        g = path_graph(4)
        phi = np.resize(special, (4, 3))
        psi = np.resize(special[::-1], (3, 3, 3))
        m = PairwiseMrf(g, 3, phi, psi)
        text = write_mrf_text(m)
        assert text == write_mrf_by_format(m)
        assert "-0 " in text and "4.9406564584124654e-324" in text and "1e+308" in text
        assert parse_mrf_text(text).phi.tobytes() == m.phi.tobytes()

    @given(written_models())
    @settings(max_examples=60, deadline=None)
    def test_writer_matches_per_value_format_on_models(self, m):
        assert write_mrf_text(m) == write_mrf_by_format(m)

    def test_distribution_survives_round_trip(self):
        rng = np.random.default_rng(11)
        m = random_mrf(rng, path_graph(4), lo=-3.0, hi=3.0)
        back = parse_mrf_text(write_mrf_text(m))
        assert oracle_log_z(back) == oracle_log_z(m)


def _relaid(text, layout):
    """The same lines under another layout; returns the text and the line shift."""
    lines = text.splitlines()
    if layout == "crlf":
        return "\r\n".join(lines) + "\r\n", 0
    if layout == "indented":
        return "".join(f" \t {line}\t \n" for line in lines), 0
    if layout == "commented":
        return "".join(f"{line} # note\n" for line in lines), 0
    if layout == "preamble":
        return "# about this file\n\n   \n" + text, 3
    return "\n".join(lines), 0  # no final newline


class TestLineReader:
    """The three text readers share one line reader, so a malformed line is
    named the same way whatever its whitespace, comments or line endings."""

    CASES = [
        (parse_mrf_text, "mrf 2 2\nnode 0 1 2\nnode 1 1\n", 3),
        (parse_mrf_text, "mrf 2 2\nnode 0 1 2\nnode 1 1 2\nedge 0 1 1 2 3 x\n", 4),
        (parse_mrf_text, "mrf 2 2\nnode 0 1 2\nnode 1 1_0 2\n", 3),
        (parse_factor_model, "factors x 2\n", 1),
        (parse_factor_model, "factors 1 2\n# comment\nfactor 2 0\n", 3),
        (parse_factor_model, "factors 1 2\nfactor 1 0 1 nan\n", 2),
        (parse_factor_model, "factors 1 2\nfactr 1 0 1 2\n", 2),
        (parse_factor_model, "factors 1 2\nfactor 1 0 1 \u0662\n", 2),
        (parse_experiment_spec, "n=7\ntopology grid\n", 2),
        (parse_experiment_spec, "# sweep\nn=seven\n", 2),
        (parse_experiment_spec, "alphas=0.2,,0.4\n", 1),
        (parse_experiment_spec, "n=7\n\nn=8\n", 3),
        (parse_experiment_spec, "n=\n", 1),
        (parse_experiment_spec, "n=1_0\n", 1),
    ]

    @pytest.mark.parametrize("layout", ["crlf", "indented", "commented", "preamble", "open"])
    @pytest.mark.parametrize("parse, text, line", CASES)
    def test_same_line_named(self, parse, text, line, layout):
        with pytest.raises(FormatError, match=f"^line {line}: ") as plain:
            parse(text)
        relaid, shift = _relaid(text, layout)
        with pytest.raises(FormatError) as got:
            parse(relaid)
        message = str(plain.value).replace(f"line {line}:", f"line {line + shift}:", 1)
        assert str(got.value) == message
