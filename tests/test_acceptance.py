"""Acceptance suite: every guarantee the package claims, at its tolerance.

Each criterion is one test that prints a single [PASS]/[FAIL] line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Oracles are brute
enumeration wherever feasible and the transfer-matrix sweep (itself checked
against brute enumeration here) where enumeration cannot reach.
"""

import math
import time

import numpy as np
import pytest

from localmrf import (
    Graph,
    brute_log_z,
    brute_map,
    brute_max_marginal,
    build_saw_tree,
    criscross_graph,
    db_dim_edge,
    db_dim_vertex,
    doubling_dimension_exact,
    factor_to_mwis,
    grid_decomp,
    grid_graph,
    grid_transfer_log_z,
    grid_transfer_map,
    k_param,
    log_partition_bounds,
    max_weight_independent_set,
    minor_edge,
    mode_estimate,
    msg_pass_mode,
    mwis_to_assignment,
    saw_max_ratio,
    saw_size_upper,
    size_lower_bound_family,
)
from localmrf.bench import (
    ExperimentSpec,
    run_experiment,
    sample_potentials,
    VARYING_INTERACTION,
)
from localmrf.mwis import nodes_for_assignment
from localmrf.saw import RatioPair, log_ratio_difference

from helpers import random_connected_graph, random_mrf, three_sigma_binomial, with_forced_node
from test_mwis import random_factor_model


def report(name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({time.perf_counter() - started:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared instance pools
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bracket_suite():
    """500 random binary models, each with a random decomposition of one of
    the three kinds, plus brute-force log Z and MAP."""
    rng = np.random.default_rng(20260811)
    suite = []
    for i in range(500):
        kind = ("grid", "dbdim", "minore")[i % 3]
        if kind == "grid":
            g = grid_graph(3)
            k = int(rng.integers(1, 4))
            dec = grid_decomp(3, k, int(rng.integers(k)), int(rng.integers(k)))
        else:
            n = int(rng.integers(4, 13))
            g = random_connected_graph(rng, n, int(rng.integers(0, n)))
            seed = int(rng.integers(2**31))
            if kind == "dbdim":
                dec = db_dim_edge(g, float(rng.uniform(0.2, 0.6)), 5, seed)
            else:
                dec = minor_edge(
                    g, int(rng.integers(1, 4)), int(rng.integers(2, 6)), seed
                )
        lo = 0.0 if i % 2 else -1.5
        m = random_mrf(rng, g, lo=lo, hi=1.5)
        suite.append((m, dec, brute_log_z(m), brute_map(m)))
    return suite


@pytest.fixture(scope="module")
def saw_suite():
    """300 random connected binary models (sparse: at most 4 extra edges),
    every tenth one carrying a hard-forced node."""
    rng = np.random.default_rng(31415)
    suite = []
    for i in range(300):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(rng, n, int(rng.integers(0, 5)))
        m = random_mrf(rng, g, lo=-1.5, hi=1.5)
        if i % 10 == 0:
            m = with_forced_node(m, int(rng.integers(n)), int(rng.integers(2)))
        suite.append(m)
    return suite


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_c01_bracket_soundness(bracket_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for m, dec, log_z, _ in bracket_suite:
        b = log_partition_bounds(m, dec)
        slack = 1e-9 * max(1.0, abs(log_z))
        ok = b.log_z_lb <= log_z + slack and log_z <= b.log_z_ub + slack
        worst = max(worst, b.log_z_lb - log_z, log_z - b.log_z_ub)
        if not ok:
            report("criterion-01 bracket-soundness", False,
                   f"violated by {worst:.3e}", t0)
    report("criterion-01 bracket-soundness", True,
           f"500 instances, worst slack {worst:.3e}", t0)


def test_c02_gap_identity(bracket_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for m, dec, _, _ in bracket_suite:
        b = log_partition_bounds(m, dec)
        expected = m.edge_range_sum(dec.removed_edges)
        err = abs(b.gap - expected) / max(1.0, abs(expected))
        worst = max(worst, err)
    report("criterion-02 gap-identity", worst <= 1e-12,
           f"500 instances, worst relative deviation {worst:.3e}", t0)


def test_c03_map_sandwich(bracket_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for m, dec, _, (x_star, h_star) in bracket_suite:
        est = mode_estimate(m, dec)
        tol = 1e-12 * max(1.0, abs(h_star), est.guarantee_gap)
        upper_ok = est.energy <= h_star + tol
        lower_ok = h_star - est.guarantee_gap <= est.energy + tol
        worst = max(worst, est.energy - h_star,
                    (h_star - est.guarantee_gap) - est.energy)
        if not (upper_ok and lower_ok):
            report("criterion-03 map-sandwich", False,
                   f"violated by {worst:.3e}", t0)
    report("criterion-03 map-sandwich", True,
           f"500 instances, worst slack {worst:.3e}", t0)


def test_c04_ball_carving_certificate():
    t0 = time.perf_counter()
    g = grid_graph(6)
    rho = doubling_dimension_exact(g, cap=36)
    eps = 0.25
    K = k_param(eps, rho)
    trials = 10_000
    hits = np.zeros(g.n)
    hard_bound = K ** (2 * rho)
    worst_comp = 0
    for seed in range(trials):
        dec = db_dim_vertex(g, eps, K, seed)
        worst_comp = max(worst_comp, dec.max_component)
        for v in dec.removed_nodes:
            hits[v] += 1
    freq_bound = 2 * eps + three_sigma_binomial(2 * eps, trials)
    freq_ok = bool((hits / trials <= freq_bound).all())
    size_ok = worst_comp <= hard_bound
    report(
        "criterion-04 ball-carving-certificate",
        freq_ok and size_ok,
        f"rho={rho:.3f} K={K}; max component {worst_comp} <= {hard_bound:.3g}; "
        f"worst node frequency {float(hits.max()) / trials:.3f} <= {freq_bound:.3f}",
        t0,
    )


def test_c05_layer_cutting_certificate():
    t0 = time.perf_counter()
    g = grid_graph(7)
    r, trials = 3, 10_000
    details = []
    ok = True
    for lam in (3, 4, 5):
        hits = {e: 0 for e in g.edge_list}
        worst_comp = 0
        worst_diam = 0  # recorded on a subsample, not asserted
        for seed in range(trials):
            dec = minor_edge(g, r, lam, seed)
            worst_comp = max(worst_comp, dec.max_component)
            for e in dec.removed_edges:
                hits[e] += 1
            if seed < 200:
                for comp in dec.components:
                    sub = Graph(
                        len(comp),
                        [
                            (comp.index(u), comp.index(v))
                            for (u, v) in g.edge_list
                            if u in comp and v in comp
                            and (u, v) not in dec.removed_edges
                        ],
                    )
                    worst_diam = max(worst_diam, sub.diameter)
        bound = min(1.0, r / lam) + three_sigma_binomial(min(1.0, r / lam), trials)
        worst_freq = max(hits.values()) / trials
        ok = ok and worst_freq <= bound and worst_comp <= g.n
        details.append(f"lam={lam}: freq {worst_freq:.3f}<={bound:.3f}, "
                       f"max comp {worst_comp}, diam<={worst_diam} (~{worst_diam/lam:.1f}*lam)")
    report("criterion-05 layer-cutting-certificate", ok, "; ".join(details), t0)


def test_c06_grid_slab_exhaustive():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 11):
        for k in range(1, min(4, n) + 1):
            g = grid_graph(n)
            counts = {e: 0 for e in g.edge_list}
            for l1 in range(k):
                for l2 in range(k):
                    dec = grid_decomp(n, k, l1, l2)
                    ok = ok and dec.max_component <= k * k
                    for e in dec.removed_edges:
                        counts[e] += 1
            ok = ok and all(c / k**2 <= 1 / k + 1e-15 for c in counts.values())
    report("criterion-06 grid-slab-exhaustive", ok,
           "n in 2..10, k in 1..4, all offsets", t0)


def test_c07_walk_tree_equivalence(saw_suite):
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for m in saw_suite:
        for v in range(m.n):
            pair = saw_max_ratio(build_saw_tree(m, v))
            h0, h1 = brute_max_marginal(m, v)
            d = log_ratio_difference(pair, RatioPair(h1, h0))
            worst = max(worst, d)
            checked += 1
    report("criterion-07 walk-tree-equivalence", worst <= 1e-9,
           f"{checked} (instance, root) pairs, worst log-ratio diff {worst:.3e}",
           t0)


def test_c08_walk_tree_size_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    upper_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(0, 5))
        g = random_connected_graph(rng, n, k)
        k_actual = len(g.edges) - n + 1
        m = random_mrf(rng, g)
        bound = saw_size_upper(n, k_actual)
        for v in range(n):
            upper_ok = upper_ok and build_saw_tree(m, v).edge_count <= bound
    lower_ok = True
    for n, k in [(8, 2), (8, 3), (10, 4), (9, 3)]:
        g = size_lower_bound_family(n, k)
        m = random_mrf(rng, g)
        need = n * 2 ** (k - 2)
        for v in range(n):
            lower_ok = lower_ok and build_saw_tree(m, v).edge_count >= need
    report("criterion-08 walk-tree-size-bounds", upper_ok and lower_ok,
           "200 random graphs upper; chordal-ring family lower", t0)


def test_c09_schedule_fidelity(saw_suite):
    t0 = time.perf_counter()
    exact_match = True
    counts_ok = True
    for m in saw_suite:
        result = msg_pass_mode(m)
        k = len(m.graph.edges) - m.n + 1
        bound = saw_size_upper(m.n, max(0, k))
        for v in range(m.n):
            tree = build_saw_tree(m, v)
            if result.ratios[v] != saw_max_ratio(tree):
                exact_match = False
            if not (result.sequences_per_origin[v] == tree.edge_count
                    and result.sequences_per_origin[v] <= bound):
                counts_ok = False
    report("criterion-09 schedule-fidelity", exact_match and counts_ok,
           f"{len(saw_suite)} instances, bitwise ratio equality and "
           "sequence counts within bound", t0)


def test_c10_mwis_transform():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1618)
    ok = True
    for _ in range(200):
        model = random_factor_model(rng)
        inst = factor_to_mwis(model)
        chosen, w = max_weight_independent_set(inst.graph, inst.weights)
        y = mwis_to_assignment(inst, chosen)
        best = max(model.score(z) for z in model.assignments())
        tol = 1e-9 * max(1.0, abs(best))
        ok = ok and abs(model.score(y) - best) <= tol
        # reverse direction: the best assignment's node set is an MWIS
        y_star = max(model.assignments(), key=model.score)
        nodes = nodes_for_assignment(inst, y_star)
        independent = not any(
            u in nodes and v in nodes for u, v in inst.graph.edges
        )
        ok = ok and independent
        ok = ok and abs(sum(inst.weights[v] for v in nodes) - w) <= tol
    report("criterion-10 mwis-transform", ok,
           "200 factor models, both decode directions", t0)


def test_c11_transfer_matrix_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    for rows in (2, 3, 4):
        for cols in (2, 3, 4):
            for make in (grid_graph, criscross_graph):
                m = random_mrf(rng, make(rows, cols), lo=-1.0, hi=1.0)
                z_brute = brute_log_z(m)
                err = abs(grid_transfer_log_z(m) - z_brute) / max(1.0, abs(z_brute))
                worst = max(worst, err)
                # MAP agreement comes for free at these sizes
                assert grid_transfer_map(m) == brute_map(m)
    report("criterion-11 transfer-matrix-oracle", worst <= 1e-10,
           f"2x2..4x4 grids and cris-crosses, worst relative error {worst:.3e}",
           t0)


def test_c12_expectation_bounds():
    t0 = time.perf_counter()
    g = grid_graph(6)
    m = sample_potentials(g, VARYING_INTERACTION, alpha=1.0, seed=66)
    log_z = grid_transfer_log_z(m)
    _, h_star = grid_transfer_map(m)
    r, lam, trials = 3, 4, 1000
    eps = r / lam
    d_star = g.max_degree
    gaps = np.empty(trials)
    map_losses = np.empty(trials)
    for seed in range(trials):
        dec = minor_edge(g, r, lam, seed)
        b = log_partition_bounds(m, dec)
        gaps[seed] = b.gap
        map_losses[seed] = h_star - mode_estimate(m, dec).energy
    gap_bound = eps * (d_star + 1) * log_z + 3 * gaps.std() / math.sqrt(trials)
    map_bound = eps * (d_star + 1) * h_star + 3 * map_losses.std() / math.sqrt(trials)
    ok = gaps.mean() <= gap_bound and map_losses.mean() <= map_bound
    report(
        "criterion-12 expectation-bounds",
        ok,
        f"mean gap {gaps.mean():.2f} <= {gap_bound:.2f}; "
        f"mean MAP loss {map_losses.mean():.2f} <= {map_bound:.2f}",
        t0,
    )


def test_c13_experiment_harness():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        topology="grid",
        n=7,
        mode=VARYING_INTERACTION,
        alphas=(0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
        decomp="minore",
        r=3,
        lambdas=(3, 4, 5),
        trials=40,
        seed=20260811,
        oracle="transfer",
    )
    records = run_experiment(spec)
    invariants = True
    for rec in records:
        invariants = invariants and rec.lb <= rec.exact_logz <= rec.ub
        invariants = invariants and abs(rec.gap - (rec.ub - rec.lb)) <= 1e-9
        invariants = invariants and rec.h_hat <= rec.h_star + 1e-12
        invariants = invariants and rec.h_star - rec.gap <= rec.h_hat + 1e-12
    # certified error curves (normalized gap) and realized MAP error curves
    # must be non-increasing in the cut stride, per strength value
    trend = True
    for alpha in spec.alphas:
        for metric in ("gap", "err_map"):
            means = []
            for lam in spec.lambdas:
                vals = [
                    getattr(rec, metric)
                    for rec in records
                    if rec.alpha == alpha and rec.param == lam
                ]
                means.append(float(np.mean(vals)))
            trend = trend and means[0] >= means[1] >= means[2]
    report(
        "criterion-13 experiment-harness",
        invariants and trend,
        f"{len(records)} trials; invariants {'ok' if invariants else 'BROKEN'}; "
        f"error curves monotone in stride: {trend}",
        t0,
    )


def test_c14_free_energy_sequence():
    t0 = time.perf_counter()
    from localmrf.bench import free_energy_envelope, free_energy_sequence

    phi = [0.0, 0.1]
    psi = [[0.3, 0.0], [0.0, 0.3]]
    lo, hi = free_energy_envelope(phi, psi)
    points = free_energy_sequence(phi, psi, range(3, 11), slab_k=3)
    sandwich = all(lo <= p.a_n <= hi for p in points)
    bracket = all(p.slab_lb <= p.a_n <= p.slab_ub for p in points)
    a = [p.a_n for p in points]
    diffs = [abs(a[i + 1] - a[i]) for i in range(len(a) - 1)]
    decreasing = all(diffs[i + 1] <= diffs[i] for i in range(len(diffs) - 1))
    report(
        "criterion-14 free-energy-sequence",
        sandwich and bracket and decreasing,
        f"n=3..10, lo={lo:.3f} hi={hi:.3f}, "
        f"diffs {['%.1e' % d for d in diffs]}",
        t0,
    )
