"""Factor-model to conflict-graph transform and the independent-set bridge."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from localmrf import (
    FactorModel,
    Graph,
    brute_map,
    energy,
    factor_to_mwis,
    grid_graph,
    max_weight_independent_set,
    mwis_as_binary_mrf,
    mwis_to_assignment,
)
from localmrf.core import CapExceeded, FormatError
from localmrf.mwis import (
    nodes_for_assignment,
    parse_factor_model,
    write_factor_model,
)


def two_var_model(t1=1.0, t2=2.0, t12=3.0):
    """Two binary variables with unary factors and one pairwise factor."""
    return FactorModel(
        (2, 2),
        (
            ((0,), np.array([0.0, t1])),
            ((1,), np.array([0.0, t2])),
            ((0, 1), np.array([[0.0, 0.0], [0.0, t12]])),
        ),
    )


def random_factor_model(rng):
    nvars = int(rng.integers(1, 4))
    domains = tuple(int(rng.integers(2, 4)) for _ in range(nvars))
    nfactors = int(rng.integers(1, 5))
    factors = []
    covered = set()
    for _ in range(nfactors):
        arity = int(rng.integers(1, nvars + 1))
        vars_ = tuple(sorted(rng.choice(nvars, size=arity, replace=False).tolist()))
        covered.update(vars_)
        shape = tuple(domains[v] for v in vars_)
        factors.append((vars_, rng.uniform(-2, 2, size=shape)))
    for v in set(range(nvars)) - covered:
        factors.append(((v,), rng.uniform(-2, 2, size=(domains[v],))))
    return FactorModel(domains, tuple(factors))


def brute_mwis_oracle(graph, weights):
    """Subset enumeration; usable up to ~16 nodes."""
    best_w, best = -1.0, frozenset()
    for size in range(graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            s = set(combo)
            if any(u in s and v in s for u, v in graph.edges):
                continue
            w = sum(weights[v] for v in combo)
            if w > best_w:
                best_w, best = w, frozenset(combo)
    return best, best_w


class TestFactorToMwis:
    def test_two_var_example(self):
        model = two_var_model()
        inst = factor_to_mwis(model)
        assert inst.graph.n == 8  # 2 + 2 + 4 assignments
        assert inst.shift_c == 1.0  # all tables non-negative
        by_label = dict(zip(inst.labels, inst.weights))
        assert by_label[(0, (1,))] == 1.0 + 1.0
        assert by_label[(1, (1,))] == 2.0 + 1.0
        assert by_label[(2, (1, 1))] == 3.0 + 1.0
        assert by_label[(0, (0,))] == 1.0

    def test_single_unary_binary_factor(self):
        model = FactorModel((2,), (((0,), np.array([0.5, 1.5])),))
        inst = factor_to_mwis(model)
        assert inst.graph.n == 2
        assert inst.graph.edges == frozenset({(0, 1)})

    def test_rejects_repeated_variable(self):
        # read as (y0, y0), the table scores at most 1; its off-diagonal 5
        # would give the reduction an optimum no assignment reaches
        table = np.array([[0.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="twice"):
            FactorModel((2,), (((0, 0), table),))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_rejects_variable_out_of_range(self, bad):
        # a -1 would wrap to the last variable in the score while the
        # reduction keys it as -1, so decoding its optimum fails
        unary = np.array([0.0, 3.0])
        factors = (((0,), unary), ((1,), unary), ((bad,), unary))
        with pytest.raises(ValueError, match="out of range"):
            FactorModel((2, 2), factors)

    def test_rejects_wrong_table_shape(self):
        with pytest.raises(ValueError, match=r"table shape \(3,\) != domains \(2,\)"):
            FactorModel((2,), (((0,), np.zeros(3)),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_table(self, bad):
        with pytest.raises(ValueError, match="factor tables must be finite"):
            FactorModel((2,), (((0,), np.array([0.0, bad])),))

    def test_cap(self):
        # three binary pairwise factors list 12 labels
        model = FactorModel((2, 2), tuple(((0, 1), np.zeros((2, 2))) for _ in range(3)))
        with pytest.raises(CapExceeded, match="conflict graph exceeds 11 nodes"):
            factor_to_mwis(model, cap=11)
        assert factor_to_mwis(model, cap=12).graph.n == 12

    def test_conflicts_match_pairwise_rule(self):
        # every pair of labels that disagrees on a shared variable, and no other
        def pairwise_edges(inst):
            values = [dict(zip(inst.factor_vars[fi], joint)) for fi, joint in inst.labels]
            return {
                (a, b)
                for a, b in itertools.combinations(range(len(values)), 2)
                if any(values[a][v] != values[b].get(v, values[a][v]) for v in values[a])
            }

        rng = np.random.default_rng(5)
        models = [random_factor_model(rng) for _ in range(300)]
        # a 6x6 binary lattice with unary factors, and a factor over no variable
        edges = grid_graph(6).edge_list
        models.append(FactorModel(
            (2,) * 36,
            tuple(((v,), rng.uniform(-1, 1, 2)) for v in range(36))
            + tuple(((u, v), rng.uniform(-1, 1, (2, 2))) for u, v in edges)
            + (((), np.array(0.5)),),
        ))
        for model in models:
            inst = factor_to_mwis(model)
            assert inst.graph.edges == pairwise_edges(inst)

    def test_weights_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = factor_to_mwis(random_factor_model(rng))
            assert min(inst.weights) >= 1.0

    def test_consistent_selections_are_independent(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            model = random_factor_model(rng)
            inst = factor_to_mwis(model)
            for y in model.assignments():
                chosen = nodes_for_assignment(inst, y)
                assert len(chosen) == len(model.factors)
                assert not any(
                    u in chosen and v in chosen for u, v in inst.graph.edges
                )


class TestMwisToAssignment:
    def test_round_trip_two_var(self):
        model = two_var_model()
        inst = factor_to_mwis(model)
        chosen, _ = max_weight_independent_set(inst.graph, inst.weights)
        assert mwis_to_assignment(inst, chosen) == (1, 1)

    def test_missing_factor_errors(self):
        inst = factor_to_mwis(two_var_model())
        with pytest.raises(ValueError):
            mwis_to_assignment(inst, [0])

    def test_inconsistent_selection_errors(self):
        inst = factor_to_mwis(two_var_model())
        index = {lab: i for i, lab in enumerate(inst.labels)}
        bad = [index[(0, (0,))], index[(1, (1,))], index[(2, (1, 1))]]
        with pytest.raises(ValueError):
            mwis_to_assignment(inst, bad)

    def test_two_nodes_for_one_factor(self):
        inst = factor_to_mwis(two_var_model())
        index = {lab: i for i, lab in enumerate(inst.labels)}
        with pytest.raises(ValueError, match="two selected nodes for factor 0"):
            mwis_to_assignment(inst, [index[(0, (0,))], index[(0, (1,))]])

    def test_unassigned_variable(self):
        # every factor has its node, yet no factor holds the third variable
        inst = dataclasses.replace(factor_to_mwis(two_var_model()), n_vars=3)
        index = {lab: i for i, lab in enumerate(inst.labels)}
        chosen = [index[(0, (1,))], index[(1, (1,))], index[(2, (1, 1))]]
        with pytest.raises(ValueError, match="selection leaves variables unassigned"):
            mwis_to_assignment(inst, chosen)

    def test_round_trip_random_models(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            model = random_factor_model(rng)
            inst = factor_to_mwis(model)
            chosen, w = max_weight_independent_set(inst.graph, inst.weights)
            y = mwis_to_assignment(inst, chosen)
            best_score = max(model.score(z) for z in model.assignments())
            assert model.score(y) == pytest.approx(best_score, rel=1e-12, abs=1e-12)
            # and the MWIS weight equals shift * factors + best score
            assert w == pytest.approx(
                inst.shift_c * len(model.factors) + best_score, rel=1e-12
            )

    def test_map_assignments_are_mwis(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            model = random_factor_model(rng)
            inst = factor_to_mwis(model)
            _, w = max_weight_independent_set(inst.graph, inst.weights)
            best = max(model.assignments(), key=model.score)
            chosen = nodes_for_assignment(inst, best)
            assert not any(
                u in chosen and v in chosen for u, v in inst.graph.edges
            )
            assert sum(inst.weights[v] for v in chosen) == pytest.approx(w, rel=1e-12)


class TestMwisSolver:
    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = int(rng.integers(2, 12))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.35
            ]
            g = Graph(n, edges)
            weights = rng.uniform(0.5, 3.0, size=n).tolist()
            s, w = max_weight_independent_set(g, weights)
            os_, ow = brute_mwis_oracle(g, weights)
            assert w == pytest.approx(ow, rel=1e-12)
            assert not any(u in s and v in s for u, v in g.edges)

    def test_cap(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(CapExceeded, match="exact MWIS refused for n=3 > cap=2"):
            max_weight_independent_set(g, [1.0, 1.0, 1.0], cap=2)
        assert max_weight_independent_set(g, [1.0, 1.0, 1.0], cap=3)[1] == 2.0

    def test_one_weight_per_node(self):
        for weights in ([1.0, 1.0], [1.0] * 4):
            with pytest.raises(ValueError, match="need one weight per node"):
                max_weight_independent_set(Graph(3, [(0, 1)]), weights)

    def test_deterministic(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        w = [1.0, 1.0, 1.0, 1.0]
        assert max_weight_independent_set(g, w) == max_weight_independent_set(g, w)


class TestBinaryMrfBridge:
    def test_two_nodes_one_edge(self):
        inst_graph = Graph(2, [(0, 1)])
        from localmrf.mwis import MwisInstance

        inst = MwisInstance(inst_graph, (3.0, 5.0), ((0, (0,)), (1, (0,))), ((0,), (1,)), 2, 1.0)
        m = mwis_as_binary_mrf(inst)
        x, h = brute_map(m)
        assert x == (0, 1)

    def test_edgeless_all_ones(self):
        from localmrf.mwis import MwisInstance

        inst = MwisInstance(Graph(3, []), (1.0, 2.0, 3.0),
                            ((0, (0,)), (1, (0,)), (2, (0,))), ((0,), (1,), (2,)), 3, 1.0)
        m = mwis_as_binary_mrf(inst)
        assert brute_map(m)[0] == (1, 1, 1)

    def test_map_support_is_mwis(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = Graph(n, edges)
            weights = tuple(rng.uniform(0.5, 2.5, size=n).tolist())
            from localmrf.mwis import MwisInstance

            inst = MwisInstance(
                g, weights, tuple((i, (0,)) for i in range(n)),
                tuple((i,) for i in range(n)), n, 1.0
            )
            m = mwis_as_binary_mrf(inst)
            x, _ = brute_map(m)
            support = frozenset(v for v in range(n) if x[v] == 1)
            # support is independent and of maximum weight
            assert not any(u in support and v in support for u, v in g.edges)
            _, best_w = max_weight_independent_set(g, weights)
            assert sum(weights[v] for v in support) == pytest.approx(best_w, rel=1e-12)

    def test_penalty_soundness(self):
        # every energy maximizer is an independent set
        rng = np.random.default_rng(6)
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        from localmrf.mwis import MwisInstance

        inst = MwisInstance(
            g, (1.0, 1.0, 1.0, 1.0), tuple((i, (0,)) for i in range(4)),
            tuple((i,) for i in range(4)), 4, 1.0
        )
        m = mwis_as_binary_mrf(inst)
        _, h_star = brute_map(m)
        for x in itertools.product((0, 1), repeat=4):
            if energy(m, x) == h_star:
                chosen = {v for v in range(4) if x[v] == 1}
                assert not any(u in chosen and v in chosen for u, v in g.edges)


class TestFactorFormat:
    def test_round_trip(self):
        model = two_var_model(0.25, -1.5, 2.0)
        back = parse_factor_model(write_factor_model(model))
        assert back.domain_sizes == model.domain_sizes
        for (va, ta), (vb, tb) in zip(back.factors, model.factors):
            assert va == vb
            assert np.array_equal(ta, tb)

    def test_parse_errors(self):
        with pytest.raises(Exception):
            parse_factor_model("factor 1 0 1 2\n")
        with pytest.raises(Exception):
            parse_factor_model("factors 1 2\nfactor 1 0 1\n")  # short table

    @pytest.mark.parametrize(
        "text, line",
        [
            ("factors\n", None),  # no variable count
            ("factors 2 2\nfactor 1 0 1 2\n", 1),  # one domain for two variables
            ("factors x 2\n", 1),
            ("factors 1 2.5\n", 1),
            ("factors 2 2 0\nfactor 1 0 1 2\n", 1),
            ("factors 1 -2\n", 1),
            ("factors 1 2\nfactor\n", 2),
            ("factors 1 2\n# comment\nfactor 2 0\n", 3),
            ("factors 1 2\nfactor -1 0 1 2\n", 2),
            ("factors 1 2\nfactor y 0 1 2\n", 2),
            ("factors 1 2\nfactor 1 0 1 z\n", 2),
            ("factors 1 2\nfactor 1 0 1 nan\n", 2),
            ("factors 1 2\nfactor 1 0 inf 2\n", 2),
            ("factors 1 2\nfactor 1 3 1 2\n", 2),
            ("factors 2 2 2\nfactor 2 1 1 1 2 3 4\n", 2),
            ("factors 1 2\nfactor 1 0 1 2 3\n", 2),
            ("factors 1 2\nfactr 1 0 1 2\n", 2),
            ("factors 2 2 2\nfactor 1 0 1 2\n", None),  # variable 1 uncovered
        ],
    )
    def test_bad_line_named(self, text, line):
        match = "^expected header|^variables not" if line is None else f"^line {line}: "
        with pytest.raises(FormatError, match=match):
            parse_factor_model(text)
