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
