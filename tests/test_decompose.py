"""Decomposition schemes: traces, certificates, Monte Carlo frequencies."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmrf import (
    Graph,
    RadiusLaw,
    connected_components,
    criscross_decomposition,
    criscross_graph,
    db_dim_edge,
    db_dim_vertex,
    doubling_dimension_exact,
    empty_edge_decomposition,
    grid_decomp,
    grid_graph,
    k_param,
    line_graph,
    minor_edge,
    minor_vertex,
    shortest_path_ball,
)
from localmrf import decompose

from helpers import (
    db_dim_edge_by_matrix,
    db_dim_vertex_by_matrix,
    layer_cut_by_nodes,
    line_graph_by_pairs,
    random_graph,
    three_sigma_binomial,
)


@st.composite
def carving_graphs(draw, max_n=12):
    """Random graphs on up to ``max_n`` nodes (often disconnected or
    edgeless), lattices, and a lattice beside a second piece.

    Lattices matter: a ball there is often reached only through nodes an
    earlier ball already took, which is where a carving that measured
    distances among white nodes alone would go wrong.
    """
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lattice = grid_graph(rows, cols)
    kind = draw(st.sampled_from(("random", "lattice", "both")))
    if kind == "random":
        return Graph(n, chosen)
    if kind == "lattice":
        return lattice
    shifted = [(u + lattice.n, v + lattice.n) for u, v in chosen]
    return Graph(lattice.n + n, list(lattice.edges) + shifted)


# eps near 0 draws radii at the truncation K, eps near 1 almost always 1
CARVING_EPS = st.one_of(
    st.floats(1e-9, 1e-3), st.floats(1e-3, 0.999), st.floats(0.999, 1 - 1e-9)
)
CARVING_K = st.one_of(st.just(1), st.integers(2, 6), st.integers(50, 10**6))


def same_record(a, b):
    for f in dataclasses.fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestRadiusLaw:
    def test_pmf_sums_to_one_exactly(self):
        for eps, K in [(0.3, 5), (0.25, 40), (0.9, 2)]:
            law = RadiusLaw(eps, K)
            p = law.pmf()
            # the tail point mass is the exact complement
            assert p[-1] == (1 - eps) ** (K - 1)
            assert math.fsum(p) == pytest.approx(1.0, abs=1e-15)

    def test_k_equals_one_always_one(self):
        law = RadiusLaw(0.5, 1)
        rng = np.random.default_rng(0)
        assert all(law.sample(rng) == 1 for _ in range(100))

    def test_monte_carlo_matches_pmf(self):
        law = RadiusLaw(0.3, 5)
        rng = np.random.default_rng(1)
        draws = np.array([law.sample(rng) for _ in range(100_000)])
        freq1 = float(np.mean(draws == 1))
        freq5 = float(np.mean(draws == 5))
        assert abs(freq1 - 0.3) <= three_sigma_binomial(0.3, 100_000)
        assert abs(freq5 - 0.7**4) <= three_sigma_binomial(0.7**4, 100_000)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RadiusLaw(0.0, 3)
        with pytest.raises(ValueError):
            RadiusLaw(0.5, 0)

    @given(st.floats(0.01, 0.99), st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_pmf_and_sample_properties(self, eps, K, seed):
        law = RadiusLaw(eps, K)
        p = law.pmf()
        assert (p >= 0).all()
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-9)
        q = law.sample(np.random.default_rng(seed))
        assert 1 <= q <= K


class TestKParam:
    def test_near_one_eps(self):
        assert k_param(1 - 1e-9, 1.0) == 39

    def test_half_eps(self):
        assert k_param(0.5, 1.0) == 93

    def test_monotone_in_eps(self):
        values = [k_param(eps, 1.5) for eps in (0.9, 0.6, 0.3, 0.1, 0.05)]
        assert values == sorted(values)

    def test_floor_at_three(self):
        assert k_param(1 - 1e-12, 1.0) >= 3

    def test_domain(self):
        with pytest.raises(ValueError):
            k_param(0.0, 1.0)
        with pytest.raises(ValueError):
            k_param(0.5, 0.5)


def line_metric_graphs():
    """25 graphs for the seeded edge-carving cases: lattices, cris-cross
    lattices, the empty graph, edgeless graphs, disconnected graphs and
    random graphs (often with isolated nodes)."""
    yield from (Graph(0, []), Graph(1, []), Graph(6, []), Graph(2, [(0, 1)]))
    yield from (grid_graph(2), grid_graph(1, 7), grid_graph(3, 5), grid_graph(6))
    yield from (criscross_graph(3), criscross_graph(5))
    lattice, m = grid_graph(3), grid_graph(3).n
    # a lattice, a path beside it and an isolated node
    yield Graph(m + 5, list(lattice.edges) + [(m + i, m + i + 1) for i in range(3)])
    yield Graph(9, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7)])
    yield Graph(10, [(0, 9), (9, 1), (2, 8), (8, 3), (3, 2)])
    rng = np.random.default_rng(11)
    for n, p in ((5, 0.5), (8, 0.3), (10, 0.2), (12, 0.4), (15, 0.15), (20, 0.1),
                 (20, 0.25), (25, 0.08), (30, 0.1), (35, 0.05), (40, 0.06), (40, 0.03)):
        yield random_graph(rng, n, p)


SPECIAL_SIZES = [0, 1] + [2**k + d for k in range(1, 10) for d in (-1, 0, 1)]


class TestWhiteIds:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_kth_and_discard_match_a_sorted_list(self, data):
        n = data.draw(st.one_of(st.sampled_from(SPECIAL_SIZES), st.integers(0, 300)))
        white, ref = decompose._WhiteIds(n), list(range(n))
        ids = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
        for v in ids:
            assert white.discard(v) == (v in ref)
            if v in ref:
                ref.remove(v)
            assert white.count == len(ref)
            if ref:
                k = data.draw(st.integers(0, len(ref) - 1))
                assert white.kth(k) == ref[k]
        assert [white.kth(k) for k in range(white.count)] == ref

    @pytest.mark.parametrize("n", SPECIAL_SIZES)
    def test_drain_in_random_order(self, n):
        rng = np.random.default_rng(n)
        white, ref = decompose._WhiteIds(n), list(range(n))
        for v in rng.permutation(n).tolist():
            assert white.discard(v) and not white.discard(v)
            ref.remove(v)
            assert white.count == len(ref)
            for k in {0, len(ref) // 3, len(ref) // 2, len(ref) - 1} if ref else ():
                assert white.kth(k) == ref[k]
        assert white.count == 0


class TestDbDimVertex:
    def test_single_node_empty_removal(self):
        dec = db_dim_vertex(Graph(1, []), 0.5, 3, seed=7)
        assert dec.removed_nodes == frozenset()
        assert dec.components == ((0,),)

    def test_complete_graph_trace(self):
        # replay the documented draw order: one uniform node index, then one
        # radius; K_m either loses everything but the center or nothing
        m = 6
        km = Graph(m, [(u, v) for u in range(m) for v in range(u + 1, m)])
        for seed in range(30):
            rng = np.random.default_rng(np.random.SeedSequence((seed,)))
            u0 = int(rng.integers(m))
            q0 = RadiusLaw(0.4, 4).sample(rng)
            dec = db_dim_vertex(km, 0.4, 4, seed=seed)
            if q0 == 1:
                assert dec.removed_nodes == frozenset(set(range(m)) - {u0})
                assert dec.components == ((u0,),)
            else:
                assert dec.removed_nodes == frozenset()
                assert dec.components == (tuple(range(m)),)

    def test_determinism(self):
        g = grid_graph(4)
        a = db_dim_vertex(g, 0.3, 10, seed=42)
        b = db_dim_vertex(g, 0.3, 10, seed=42)
        assert a.removed_nodes == b.removed_nodes
        assert a.components == b.components

    def test_components_match_oracle_and_ball_containment(self):
        g = grid_graph(4)
        for seed in range(25):
            dec = db_dim_vertex(g, 0.3, 8, seed=seed)
            assert dec.components == connected_components(
                g, removed_nodes=dec.removed_nodes
            )
            for comp in dec.components:
                balls = [
                    shortest_path_ball(g, u, 9) for u in range(g.n)
                ]
                assert any(set(comp) <= b for b in balls)

    def test_grid_membership_frequency_and_size(self):
        g = grid_graph(3)
        rho = doubling_dimension_exact(g)
        eps = 0.3
        K = k_param(eps, rho)
        trials = 2000
        hits = np.zeros(g.n)
        for seed in range(trials):
            dec = db_dim_vertex(g, eps, K, seed=seed)
            assert dec.max_component <= K ** (2 * rho)
            for v in dec.removed_nodes:
                hits[v] += 1
        bound = 2 * eps + three_sigma_binomial(2 * eps, trials)
        assert (hits / trials <= bound).all()

    @given(carving_graphs(), CARVING_EPS, CARVING_K, st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_distance_matrix_carving(self, g, eps, K, seed):
        same_record(db_dim_vertex(g, eps, K, seed), db_dim_vertex_by_matrix(g, eps, K, seed))

    def test_matches_distance_matrix_carving_on_lattices(self):
        for g in (grid_graph(5), grid_graph(4, 7)):
            for seed in range(40):
                for eps, K in ((0.3, 4), (0.6, 3)):
                    same_record(
                        db_dim_vertex(g, eps, K, seed),
                        db_dim_vertex_by_matrix(g, eps, K, seed),
                    )

    def test_builds_no_distance_matrix(self, monkeypatch):
        g = grid_graph(6)
        db_dim_vertex(g, 0.3, 8, seed=1)
        shortest_path_ball(g, 14, 3)
        assert "distance_matrix" not in g.__dict__

        def no_line_graph(graph):
            raise AssertionError("db_dim_edge built a line graph")

        # edge balls are measured on g itself
        monkeypatch.setattr(decompose, "line_graph", no_line_graph)
        db_dim_edge(g, 0.3, 8, seed=1)
        assert "distance_matrix" not in g.__dict__


class TestLineGraph:
    def test_path3(self):
        lg = line_graph(path_graph(3))
        assert lg.n == 2 and lg.edges == frozenset({(0, 1)})

    def test_triangle_is_triangle(self):
        lg = line_graph(Graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert lg.n == 3 and len(lg.edges) == 3

    def test_star_three_leaves(self):
        lg = line_graph(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert lg.n == 3 and len(lg.edges) == 3

    def test_adjacency_iff_shared_endpoint(self):
        g = random_graph(np.random.default_rng(2), 7, 0.4)
        lg = line_graph(g)
        edges = g.edge_list
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                shared = bool(set(edges[i]) & set(edges[j]))
                assert ((i, j) in lg.edges) == shared

    def test_matches_pairwise_construction(self):
        stars = (Graph(9, [(0, v) for v in range(1, 9)]), Graph(7, [(v, 6) for v in range(6)]))
        for g in (*line_metric_graphs(), *stars):
            lg, ref = line_graph(g), line_graph_by_pairs(g)
            assert lg == ref and hash(lg) == hash(ref)
            assert lg.ends.dtype == np.intp and lg.ends.shape == ref.ends.shape
            for view in ("edge_list", "adjacency"):
                assert getattr(lg, view) == getattr(ref, view)
            assert lg.nbr_edge.tolist() == ref.nbr_edge.tolist()


class TestDbDimEdge:
    def test_tree_smoke(self):
        dec = db_dim_edge(path_graph(5), 0.9, 3, seed=0)
        assert dec.alg == "dbdim"
        assert dec.eps_target == pytest.approx(1.8)
        assert dec.components == connected_components(
            path_graph(5), removed_edges=dec.removed_edges
        )

    def test_path9_edge_frequency(self):
        g = path_graph(9)
        eps = 0.3
        trials = 3000
        hits = {e: 0 for e in g.edge_list}
        for seed in range(trials):
            dec = db_dim_edge(g, eps, 6, seed=seed)
            for e in dec.removed_edges:
                hits[e] += 1
        bound = 2 * eps + three_sigma_binomial(2 * eps, trials)
        assert all(h / trials <= bound for h in hits.values())

    def test_component_diameter_in_line_metric(self):
        g = grid_graph(5)
        K = 6
        lg = line_graph(g)
        index = {e: i for i, e in enumerate(g.edge_list)}
        for seed in range(20):
            dec = db_dim_edge(g, 0.3, K, seed=seed)
            for comp in dec.components:
                members = set(comp)
                inner = [
                    index[e]
                    for e in g.edge_list
                    if e[0] in members and e[1] in members
                    and e not in dec.removed_edges
                ]
                for a in inner:
                    for b in inner:
                        assert lg.distance_matrix[a, b] < 2 * K

    @given(carving_graphs(max_n=8), CARVING_EPS, CARVING_K, st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_distance_matrix_carving(self, g, eps, K, seed):
        same_record(db_dim_edge(g, eps, K, seed), db_dim_edge_by_matrix(g, eps, K, seed))

    def test_matches_line_graph_carving_on_seeded_cases(self):
        # 25 graphs x 3 (eps, K) x 4 seeds = 300 cases
        cases = 0
        for g in line_metric_graphs():
            lg = line_graph(g)
            for eps, K in ((0.5, 3), (0.25, 6), (0.1, 14)):
                for seed in range(4):
                    dec = db_dim_edge(g, eps, K, seed)
                    vdec = db_dim_vertex(lg, eps, K, seed)
                    removed = frozenset(g.edge_list[i] for i in sorted(vdec.removed_nodes))
                    comps = connected_components(g, removed_edges=removed)
                    mapped = decompose.Decomposition(
                        "dbdim", g.n, comps, 2.0 * eps, seed, removed_edges=removed
                    )
                    assert repr(dec) == repr(mapped)
                    same_record(dec, db_dim_edge_by_matrix(g, eps, K, seed))
                    cases += 1
        assert cases >= 300


class TestMinorVertex:
    def test_line9_forced_trace(self):
        g = path_graph(9)
        dec = minor_vertex(
            g, r=2, lam=3, choose_level=lambda i, j: 1 if i == 0 else 0
        )
        # round 1 from root 0 removes depths 1, 4, 7
        assert {1, 4, 7} <= dec.removed_nodes
        # the remaining pieces {0},{2,3},{5,6},{8} then lose their depth-0 node
        assert dec.removed_nodes == frozenset({1, 4, 7, 0, 2, 5, 8})
        assert dec.components == ((3,), (6,))

    def test_lambda_one_removes_everything(self):
        g = random_graph(np.random.default_rng(3), 8, 0.3)
        dec = minor_vertex(g, r=1, lam=1, seed=0)
        assert dec.removed_nodes == frozenset(range(8))
        assert dec.components == ()

    def test_membership_frequency(self):
        g = grid_graph(5)
        r, lam = 3, 5
        trials = 2000
        hits = np.zeros(g.n)
        for seed in range(trials):
            dec = minor_vertex(g, r, lam, seed=seed)
            for v in dec.removed_nodes:
                hits[v] += 1
        bound = r / lam + three_sigma_binomial(r / lam, trials)
        assert (hits / trials <= bound).all()


class TestMinorEdge:
    def test_line9_forced_trace_round1(self):
        g = path_graph(9)
        dec = minor_edge(g, r=1, lam=3, choose_level=lambda i, j: 1)
        assert sorted(dec.removed_edges) == [(1, 2), (4, 5), (7, 8)]
        assert dec.components == ((0, 1), (2, 3, 4), (5, 6, 7), (8,))
        assert dec.max_component == 3

    def test_triangle_lambda1(self):
        tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
        dec = minor_edge(tri, r=1, lam=1, seed=5)
        assert dec.removed_edges == tri.edges

    def test_non_tree_edges_cut(self):
        # cycle of 4: BFS from 0 gives depths 0,1,1,2; the non-tree edge is
        # (1,2)? no: edges (0,1),(0,3),(1,2),(2,3); depths: 0:0, 1:1, 3:1, 2:2
        cyc = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        dec = minor_edge(cyc, r=1, lam=3, choose_level=lambda i, j: 1)
        # edges with min-depth 1: (1,2) and (2,3)? (2,3): depths 2 and 1 -> 1
        assert dec.removed_edges == frozenset({(1, 2), (2, 3)})

    def test_edge_frequency_7x7(self):
        g = grid_graph(7)
        r, lam = 3, 4
        trials = 1500
        hits = {e: 0 for e in g.edge_list}
        for seed in range(trials):
            dec = minor_edge(g, r, lam, seed=seed)
            assert dec.components == connected_components(
                g, removed_edges=dec.removed_edges
            )
            for e in dec.removed_edges:
                hits[e] += 1
        bound = r / lam + three_sigma_binomial(r / lam, trials)
        assert all(h / trials <= bound for h in hits.values())

    def test_determinism(self):
        g = grid_graph(6)
        assert (
            minor_edge(g, 3, 4, seed=9).removed_edges
            == minor_edge(g, 3, 4, seed=9).removed_edges
        )


@st.composite
def layer_cases(draw):
    """A graph (random, lattice, empty or edgeless), r, lambda, and either
    a seed or an explicit level rule."""
    g = draw(st.one_of(carving_graphs(max_n=14), st.sampled_from(
        [Graph(0, []), Graph(1, []), Graph(7, []), grid_graph(1, 6), criscross_graph(4)]
    )))
    r, lam = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return g, r, lam, draw(st.integers(0, 2**32 - 1)), None
    a, b, c = draw(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)))
    return g, r, lam, None, lambda i, j: (a * i + b * j + c) % lam


class TestLayerCutArrays:
    """Each round's cut, flagged with one array expression, against the
    per-node loop it replaced."""

    @given(layer_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_node_loop(self, case):
        g, r, lam, seed, choose = case
        for layers, edges in ((minor_edge, True), (minor_vertex, False)):
            dec = layers(g, r, lam, seed, choose_level=choose)
            ref = layer_cut_by_nodes(g, r, lam, seed, choose, edges=edges)
            assert repr(dec) == repr(ref)

    def test_bad_level_still_named(self):
        with pytest.raises(ValueError, match=r"level 3 outside 0\.\.2"):
            minor_edge(grid_graph(3), 2, 3, choose_level=lambda i, j: 3)


class TestGridDecomp:
    def test_k1_removes_all(self):
        dec = grid_decomp(3, 1, 0, 0)
        assert dec.removed_edges == grid_graph(3).edges
        assert dec.max_component == 1

    def test_n4_k2_blocks(self):
        # columns split {0},{1,2},{3} and rows likewise, giving 3x3 blocks
        # of the four shapes 1x1, 1x2, 2x1 and 2x2
        dec = grid_decomp(4, 2, 0, 0)
        sizes = sorted(len(c) for c in dec.components)
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 4]
        assert dec.max_component == 4

    def test_exact_edge_fraction(self):
        for n, k in [(4, 2), (6, 3), (5, 4)]:
            g = grid_graph(n)
            counts = {e: 0 for e in g.edge_list}
            for l1 in range(k):
                for l2 in range(k):
                    dec = grid_decomp(n, k, l1, l2)
                    assert dec.max_component <= k * k
                    for e in dec.removed_edges:
                        counts[e] += 1
            assert all(c / k**2 <= 1 / k + 1e-15 for c in counts.values())

    def test_components_are_rectangles(self):
        n, k = 6, 3
        dec = grid_decomp(n, k, 1, 2)
        for comp in dec.components:
            rows = sorted({v // n for v in comp})
            cols = sorted({v % n for v in comp})
            assert len(comp) == len(rows) * len(cols)
            assert rows == list(range(rows[0], rows[-1] + 1))
            assert cols == list(range(cols[0], cols[-1] + 1))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            grid_decomp(4, 5, 0, 0)
        with pytest.raises(ValueError):
            grid_decomp(4, 2, 2, 0)


class TestScheme:
    ARGS = dict(eps=0.25, K=5, r=2, lam=3, k=2)

    def test_unknown_name_rejected(self):
        for name in ("slab", "Grid", "", "minor"):
            with pytest.raises(ValueError, match="unknown decomposition"):
                decompose.scheme(grid_graph(4), name, **self.ARGS)

    def test_each_name_draws_its_scheme(self):
        g, cc = grid_graph(4), criscross_graph(4)
        a = self.ARGS
        draws = {
            "dbdim": db_dim_edge(g, a["eps"], a["K"], 3),
            "dbdim-v": db_dim_vertex(g, a["eps"], a["K"], 3),
            "minorv": minor_vertex(g, a["r"], a["lam"], 3),
            "minore": minor_edge(g, a["r"], a["lam"], 3),
            "none": empty_edge_decomposition(g),
        }
        for name, dec in draws.items():
            assert repr(decompose.scheme(g, name, **a)(3)) == repr(dec)
        slab = grid_decomp(4, 2, 1, 0)
        assert decompose.scheme(g, "grid", **a, offsets=(1, 0))(3) == slab
        lifted = decompose.scheme(cc, "grid", **a, offsets=(1, 0))(3)
        assert lifted == criscross_decomposition(cc, slab)

    def test_parameters_checked_before_any_draw(self):
        # scheme() itself raises: no seed is ever drawn for a bad parameter
        cases = [
            ("dbdim", grid_graph(4), {"eps": 1.5}, "eps must be in"),
            ("dbdim-v", grid_graph(4), {"K": 0}, "K must be >= 1"),
            ("minorv", grid_graph(4), {"lam": 0}, "need r >= 1 and lam >= 1"),
            ("minore", grid_graph(4), {"r": 0}, "need r >= 1 and lam >= 1"),
            ("grid", grid_graph(4), {"k": 5}, "need 1 <= k <= n"),
            ("grid", criscross_graph(3), {"k": 0}, "need 1 <= k <= n"),
            ("grid", grid_graph(2, 3), {}, "needs a square grid or cris-cross"),
        ]
        for name, graph, bad, message in cases:
            with pytest.raises(ValueError, match=message):
                decompose.scheme(graph, name, **{**self.ARGS, **bad})
        # a parameter another scheme uses is not checked
        decompose.scheme(grid_graph(4), "minore", **{**self.ARGS, "eps": 1.5, "k": 9})

    def test_lattice_check_builds_no_tuple_views(self, monkeypatch):
        # the input is compared with the lattices by their edge arrays
        built = []
        for name in ("grid_graph", "criscross_graph"):
            make = getattr(decompose, name)
            monkeypatch.setattr(decompose, name, lambda *a, make=make: built.append(make(*a)) or built[-1])
        grid, cc = grid_graph(5), criscross_graph(5)
        decompose.scheme(cc, "grid", **self.ARGS)
        slab = decompose.scheme(grid, "grid", **self.ARGS)
        # and the slab cuts the lattice by its edge arrays
        slab(0), slab(1)
        assert len(built) == 3
        for graph in (grid, cc, *built):
            assert {"adjacency", "edges", "edge_list"}.isdisjoint(vars(graph))


class TestIntegerSizes:
    """A size, stride or offset that is no integer is rejected where the
    range check already stands, with its message; numpy integers pass."""

    @pytest.mark.parametrize("make, message", [
        # cut 32 of 112 edges yet reported eps_target 0.4
        (lambda: grid_decomp(8, 2.5, 0, 0), "need 1 <= k <= n"),
        (lambda: grid_decomp(4, 2, 0.5, 0), "offsets must lie in 0..k-1"),
        (lambda: grid_decomp(4, 2, 0, 1.0), "offsets must lie in 0..k-1"),
        # reported eps_target 0.8
        (lambda: minor_edge(grid_graph(8), 2, 2.5, 0), "need r >= 1 and lam >= 1"),
        (lambda: minor_vertex(grid_graph(8), 2.0, 3, 0), "need r >= 1 and lam >= 1"),
        # no ball stopped at radius 2.5: one component held 53 of 64 nodes
        (lambda: db_dim_vertex(grid_graph(8), 0.5, 2.5, 0), "K must be >= 1"),
        # its pmf summed to 1.1036
        (lambda: RadiusLaw(0.5, 2.5), "K must be >= 1"),
        (lambda: decompose.scheme(grid_graph(4), "grid", 0.25, 5, 2, 3, 2.0), "need 1 <= k <= n"),
        (lambda: decompose.scheme(grid_graph(4), "grid", 0.25, 5, 2, 3, 2, (0, 0.5))(0),
         "offsets must lie in 0..k-1"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_numpy_integers_accepted(self):
        i = np.int64
        g = grid_graph(6)
        assert grid_decomp(i(6), i(3), i(1), i(2)) == grid_decomp(6, 3, 1, 2)
        assert decompose.scheme(g, "grid", 0.25, 5, 2, 3, i(3), (i(1), i(2)))(0) == grid_decomp(6, 3, 1, 2)
        same_record(minor_edge(g, i(2), i(3), 4), minor_edge(g, 2, 3, 4))
        same_record(db_dim_vertex(g, 0.5, i(3), 4), db_dim_vertex(g, 0.5, 3, 4))
        assert RadiusLaw(0.5, i(3)).pmf().tolist() == RadiusLaw(0.5, 3).pmf().tolist()


class TestTargetEps:
    def test_default_offset_is_conservative(self):
        from localmrf.decompose import db_dim_target_eps

        assert db_dim_target_eps(0.5, 2.0) == 0.5 * 2.0 ** (-5)
        assert db_dim_target_eps(0.5, 2.0, offset=2) == 0.5 * 2.0 ** (-4)


def golden_graphs():
    """The graphs of the golden layer-cutting records: lattices, a
    cris-cross, and sparse random graphs with isolated nodes and several
    components whose ids interleave."""
    graphs = {"grid7": grid_graph(7), "grid12": grid_graph(12), "criscross6": criscross_graph(6)}
    for s in range(3):
        graphs[f"random{s}"] = random_graph(np.random.default_rng(100 + s), 40, 0.05)
    return graphs


def record_digest(records) -> str:
    """sha256 of the records' reprs, one per line."""
    return hashlib.sha256("".join(repr(rec) + "\n" for rec in records).encode()).hexdigest()


def content_digest(records) -> str:
    """sha256 of the records' fields with the removed sets sorted, one per
    line: what a record says, whatever order its sets iterate in."""
    lines = (
        repr((
            rec.alg, rec.n, rec.components, rec.eps_target, rec.seed,
            sorted(rec.removed_nodes), sorted(rec.removed_edges),
        )) + "\n"
        for rec in records
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def seeded_records(scheme, graph):
    return [
        scheme(graph, r, lam, seed=seed)
        for r in (1, 2, 3)
        for lam in (1, 2, 3, 5)
        for seed in range(10)
    ]


# content_digest of seeded_records (and of the replay below), pinned from
# the layer-cutting code before its schemes flagged masks for _carve
GOLDEN_CONTENT_DIGESTS = {
    "grid7/minor_vertex": "f51f1aab86b8673435759fd41be5681584cc752ad77238c1946dc0d988a30bc4",
    "grid7/minor_edge": "c78da53e3d2113fa0edcaff002d1452f4c0404001f99add51f1e1e3908117163",
    "grid12/minor_vertex": "306daa3b48b705fe927a20cd7cd4dd32570afaa7e09b10739f9f6c5dbe646f8d",
    "grid12/minor_edge": "15fe591295636ba1090ac069b81660be29e943474e40dc6c3e65f7b5f6c66c45",
    "criscross6/minor_vertex": "4809db2b05a8c03071034b4ee3b027a35c01c4b073e4a08f53430071b81520a9",
    "criscross6/minor_edge": "82637ae023f350ebd02caf643e94b9d17337619b1a6e17029600c6b73e36a74b",
    "random0/minor_vertex": "5adafdcb10318d64aa1bf045b1d5e85e763a3227686ff4f0bea07731c41eff7d",
    "random0/minor_edge": "c64d10732be3050bd90b5bb2ddc13965f164b8df0a6975264f90bbc326e6417d",
    "random1/minor_vertex": "b5adf636ea7bcd9e520fd8de93ba632765158063cc4658a5c9ba965decba633f",
    "random1/minor_edge": "a1892aeb4a13558c4e06f2aa787813ab9eb82c00fa450621ca2331e5de5ccfab",
    "random2/minor_vertex": "ac7cf16051c05a226e41a748fd1a16343ddd85a026b9112dbf194b103d6fcfe0",
    "random2/minor_edge": "976784030bf99eed6b05b5edb0f03e00ecbd5fff3d72b8715c8a6ce3f4bad21b",
    "grid12/replay": "982a92cc726939a31dab81e86dc3868f935c444bb81e98bf1d34a813194afed0",
}

# record_digest of the same records; a repr also shows the removed sets'
# iteration order, which follows ascending ids (see TestRemovedSetOrder)
GOLDEN_DIGESTS = {
    "grid7/minor_vertex": "99f312859037a1fefd9cb2121c1763848a7a207c9aad9fb45ce21552e3e65688",
    "grid7/minor_edge": "83aed848b571eddde4b76964e190346db00e2fb2b26f6f463de4b9f863eb2893",
    "grid12/minor_vertex": "2e8d96f5619892de27135c5952bf1589a19ead4aa0db7a94111c87c1d0c5450b",
    "grid12/minor_edge": "048b40bd857628e35795eef3872514b4add9c6196e495eff826a19bceb3e976c",
    "criscross6/minor_vertex": "1b66fcfa05e13b73f15ffb7470ccaf0da5ef75001e0c465091f64a5dd1f60255",
    "criscross6/minor_edge": "4fe7892b5a843b953774199fe67be22de3aa36d89e948f0169dbf78ba6f2ca77",
    "random0/minor_vertex": "8d22d720b67b7cbca385460dd766143e46e2f795922f8e9237bcdced890333c0",
    "random0/minor_edge": "4415848e1117a419e82255d535e7c65a03b5767655084b37192576b06a3a9eaf",
    "random1/minor_vertex": "2081a985354a82decd8f3e8e4bd5f7dd3b20a3ee8856cacb18f3c05dc09236de",
    "random1/minor_edge": "f333bbb2ed579018dda744b7c8b78b0bc97238fb8a1a1fb8552460e550837231",
    "random2/minor_vertex": "d5be39817313edacbcf30a45274a2435ab5b610e00860eb17f88858c86ed5c25",
    "random2/minor_edge": "1883427722b0f43c9f760972fc7fed219f54a4899b32438c91b1928ee6a85d9b",
    "grid12/replay": "81806d7897b7e6b6738006c49a9abc86e96f0cf9590a0ab325d5cfc0630a8535",
}


def carving_records(carve, graph):
    return [
        carve(graph, eps, K, seed)
        for eps, K in ((0.5, 3), (0.25, 6), (0.1, 14))
        for seed in range(10)
    ]


# record_digest of carving_records, pinned from the carving that still
# built the line graph and kept the white ids in a sorted list
GOLDEN_CARVING_DIGESTS = {
    "grid7/db_dim_vertex": "865f2aea23ecdd8d2b0d75d408f160fb8db642e2fcc5b0f513e6363fd6e3dbdd",
    "grid7/db_dim_edge": "bd2d6f7b8dc53c55aeb8a7f9700aa831a27036def08a09083bac36d349340fb4",
    "grid12/db_dim_vertex": "d039acb35745828cdaa4d5842ab990988f9bf5b3b06ed4031b8a3c0f56b604f3",
    "grid12/db_dim_edge": "ce453ded655039ecc623b9481ad0a211bf60adbcce979003657af63d6243f4c4",
    "criscross6/db_dim_vertex": "82197f3aa5bf88154854b40535f32fbe848dda0c07038caed0991d5f7d6dcc55",
    "criscross6/db_dim_edge": "518b573df1105d85a6d98f896bcbb57ccfbc1057d5a18b2792e25ba2d9cbfab9",
    "random0/db_dim_vertex": "ed57e80ac60572f7be968e157d5fd71846a085c94c6a759143ab413e7e2faf88",
    "random0/db_dim_edge": "64e14f87f360d8e996eed56b26f3b5e2820254c88c73f75a82426f656b90cac4",
    "random1/db_dim_vertex": "de9616afa8d08745fc9212887633d1e12e17f6f66c924a40f51ac120c8276938",
    "random1/db_dim_edge": "ac373c9459cff35c037dfde001f9c27c6d34e5d83adc08f6b0c080e66861e0a1",
    "random2/db_dim_vertex": "2711694490318ebc9a2689a145ced2b66c792b06ef03c54843e32cff1b7a11b0",
    "random2/db_dim_edge": "64daa12e3d88e2ce55c5e9af232befe5bff95794d3ee779cf1adf521b112c8ba",
}


class TestGoldenBallCarving:
    @pytest.mark.parametrize("carve", [db_dim_vertex, db_dim_edge], ids=["dbdim-v", "dbdim"])
    def test_seeded_records_match_digests(self, carve):
        for name, g in golden_graphs().items():
            key = f"{name}/{carve.__name__}"
            assert record_digest(carving_records(carve, g)) == GOLDEN_CARVING_DIGESTS[key], key


class TestGoldenLayerCutting:
    def test_random_graphs_have_isolated_nodes_and_several_components(self):
        for name, g in golden_graphs().items():
            if name.startswith("random"):
                comps = connected_components(g)
                assert len(comps) >= 3
                assert any(len(c) == 1 for c in comps)
                assert any(len(c) > 2 for c in comps)

    @pytest.mark.parametrize("scheme", [minor_vertex, minor_edge], ids=["minorv", "minore"])
    def test_seeded_records_match_digests(self, scheme):
        for name, g in golden_graphs().items():
            key = f"{name}/{scheme.__name__}"
            assert record_digest(seeded_records(scheme, g)) == GOLDEN_DIGESTS[key], key

    @pytest.mark.parametrize("scheme", [minor_vertex, minor_edge], ids=["minorv", "minore"])
    def test_seeded_records_match_content_digests(self, scheme):
        for name, g in golden_graphs().items():
            key = f"{name}/{scheme.__name__}"
            assert content_digest(seeded_records(scheme, g)) == GOLDEN_CONTENT_DIGESTS[key], key

    def test_choose_level_replay_matches_digest(self):
        g = grid_graph(12)

        def level(i, j):
            return (3 * i + j) % 5

        records = [minor_vertex(g, 3, 5, choose_level=level), minor_edge(g, 3, 5, choose_level=level)]
        assert content_digest(records) == GOLDEN_CONTENT_DIGESTS["grid12/replay"]
        assert record_digest(records) == GOLDEN_DIGESTS["grid12/replay"]


def sorted_sets_record(dec):
    """``dec`` with its removed sets rebuilt from sorted ids."""
    return dataclasses.replace(
        dec,
        removed_nodes=frozenset(sorted(dec.removed_nodes)),
        removed_edges=frozenset(sorted(dec.removed_edges)),
    )


def order_contract_records():
    """Seeded records of every builder on 1x1, 2x2, empty, edgeless,
    disconnected and larger graphs, and lifts of slab and layer-cutting
    records."""
    rng = np.random.default_rng(7)
    graphs = [grid_graph(1), grid_graph(2), Graph(0, []), Graph(5, []), grid_graph(6)]
    graphs += [criscross_graph(5), random_graph(rng, 30, 0.08), random_graph(rng, 40, 0.05)]
    for g in graphs:
        yield empty_edge_decomposition(g)
        for seed in range(3):
            for r, lam in ((1, 1), (2, 3), (3, 5)):
                yield minor_vertex(g, r, lam, seed=seed)
                yield minor_edge(g, r, lam, seed=seed)
            for eps, K in ((0.5, 3), (0.2, 6)):
                yield db_dim_vertex(g, eps, K, seed)
                yield db_dim_edge(g, eps, K, seed)
    for n in (1, 2, 4, 6):
        cc = criscross_graph(n)
        for k in range(1, n + 1):
            for l1 in range(k):
                slab = grid_decomp(n, k, l1, (l1 + 1) % k)
                yield slab
                yield criscross_decomposition(cc, slab)
        for seed in range(3):
            yield criscross_decomposition(cc, minor_edge(grid_graph(n), 2, 3, seed=seed))


class TestRemovedSetOrder:
    def test_removed_sets_iterate_in_ascending_id_order(self):
        records = list(order_contract_records())
        assert any(dec.removed_nodes for dec in records)
        assert any(dec.removed_edges for dec in records)
        for dec in records:
            assert repr(dec) == repr(sorted_sets_record(dec)), dec.alg
