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
    criscross_graph,
    db_dim_edge,
    db_dim_vertex,
    doubling_dimension_exact,
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
        built = []

        def recording_line_graph(graph):
            built.append(line_graph(graph))
            return built[-1]

        monkeypatch.setattr(decompose, "line_graph", recording_line_graph)
        db_dim_edge(g, 0.3, 8, seed=1)
        assert len(built) == 1 and "distance_matrix" not in built[0].__dict__
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


def seeded_records(scheme, graph):
    return [
        scheme(graph, r, lam, seed=seed)
        for r in (1, 2, 3)
        for lam in (1, 2, 3, 5)
        for seed in range(10)
    ]


# sha256 of the reprs of seeded_records (and of the replay below) as the
# layer-cutting code gave them before it moved to one sweep per round; the
# reprs include the removed sets' iteration order
GOLDEN_DIGESTS = {
    "grid7/minor_vertex": "3a26bea44697f5dac5548be763af483fba579598322a0688f34f1721516cadbf",
    "grid7/minor_edge": "266b3f815231b8dc0134df40e8c3acf19d025bd0485cff6c7f8717375fb84974",
    "grid12/minor_vertex": "7eff461a4db86103c54480b7f505792fdad6456ef3a0d33aa216008104b4e5fc",
    "grid12/minor_edge": "72fdc8f96c97df30e7fad07d0a7d3592b8aeef55c415e7d0bf9a53b452f97c42",
    "criscross6/minor_vertex": "a86d035b708f723326529c6b9f743bfac5fe795be9e7ef8205d090ff90912f1c",
    "criscross6/minor_edge": "b6292d806d2f6f162ae90e39839cbb13dd0a36d99cfb82a768f8aab2dafc7979",
    "random0/minor_vertex": "35400ae13f55cf633857b0dee211d8d38076cc2bf0e2111751e1171aa0d917db",
    "random0/minor_edge": "75ca6162ce3df57b77a1bb6ec2a169f110d4368bd92aeeb52841c56753844ad0",
    "random1/minor_vertex": "820aaba756749c5ddc32adb936486fdf2e340a811157cadf189b38a1bdfb5638",
    "random1/minor_edge": "f915e061a4d58fec147fe25b19138fc546a0748154661b5df4c0576db34c28e0",
    "random2/minor_vertex": "636c4d5e1efeb119aee94fc5e291b04d43934d47ce90f91867daff4857420893",
    "random2/minor_edge": "abde2f381253fb20db28f9aa9a0aa316a0322329cf9625c4765ab51294bbd8d9",
    "grid12/replay": "2705b57e6132c03da40d1b5699ae1f346f1865a70ae794a2bcf2d4698102693b",
}


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

    def test_choose_level_replay_matches_digest(self):
        g = grid_graph(12)

        def level(i, j):
            return (3 * i + j) % 5

        records = [minor_vertex(g, 3, 5, choose_level=level), minor_edge(g, 3, 5, choose_level=level)]
        assert record_digest(records) == GOLDEN_DIGESTS["grid12/replay"]
