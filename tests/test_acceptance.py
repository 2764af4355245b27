"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. All seeds are fixed and
documented inline; tolerances are stated next to each assertion.
"""

import itertools
import time

import numpy as np
import pytest

from orientprob import (
    ExactEngine,
    EventExpr,
    GridSpec,
    SourceSetPolicy,
    alm_linusson_covariance,
    brute_force_prob,
    build_grid,
    build_proof_quadruple,
    check_four_functions,
    complete_graph,
    estimate_event,
    exact_connection_prob,
    exact_joint_prob,
    find_nonmonotonicity_witness,
    grid_reach_stats,
    out_neighborhood_distribution,
    random_graph,
    verify_mcdiarmid,
    verify_theorem_1,
    verify_theorem_2,
)
from orientprob.graphs import RandomStream
from orientprob.inequalities import alm_linusson_covariance as _alm  # noqa: F401

SUITE_SEED = 2026  # master seed for every random-instance family below
WITNESS_SEED = 0  # documented seed for the 8x7 witness search


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def _random_suite_graph(index: int, max_edges: int = 12, max_n: int = 7):
    meta = RandomStream(SUITE_SEED, index)
    u = meta.uniforms(2)
    n = 2 + int(u[0] * (max_n - 1))  # 2..max_n
    cap = min(max_edges, n * (n - 1) // 2)
    m = int(u[1] * (cap + 1))  # 0..cap
    return random_graph(n, edge_count=m, biases="uniform", seed=SUITE_SEED, index=index)


def test_criterion_1_oracle_equivalence():
    """200 seeded random graphs; recursion vs enumeration <= 1e-9 on every
    tested single-source and set-source connection and joint query."""
    t0 = time.time()
    worst = 0.0
    queries = 0
    for i in range(200):
        g = _random_suite_graph(i)
        n = g.vertex_count
        engine = ExactEngine(g)
        meta = RandomStream(SUITE_SEED, 10_000 + i)
        # single-source connection: all ordered pairs
        for s, t in itertools.product(range(n), repeat=2):
            rec = engine.connection([s], t)
            enum = brute_force_prob(g, EventExpr.connection(s, t)).probability
            worst = max(worst, abs(rec - enum))
            queries += 1
        # set-source connection: 4 random subsets x 3 random targets
        u = meta.uniforms(20)
        for k in range(4):
            size = 2 + int(u[k] * min(2, n - 1))
            members = frozenset(int(x * n) for x in meta.uniforms(size))
            for j in range(3):
                t = int(u[4 + 3 * k + j] * n)
                rec = engine.connection(members, t)
                enum = brute_force_prob(g, EventExpr.connection(members, t)).probability
                worst = max(worst, abs(rec - enum))
                queries += 1
        # joint queries: single and set sources
        for s, a, b in itertools.islice(itertools.product(range(n), repeat=3), 0, None, max(1, n**3 // 8)):
            rec = engine.joint([s], a, b)
            ev = EventExpr.connection(s, a) & EventExpr.connection(s, b)
            enum = brute_force_prob(g, ev).probability
            worst = max(worst, abs(rec - enum))
            queries += 1
        src = frozenset({0, n - 1})
        rec = engine.joint(src, n // 2, n - 1)
        ev = EventExpr.connection(src, n // 2) & EventExpr.connection(src, n - 1)
        worst = max(worst, abs(rec - brute_force_prob(g, ev).probability))
        queries += 1
    elapsed = time.time() - t0
    _report(
        "1 oracle-equivalence",
        worst <= 1e-9 and elapsed < 60,
        f"(200 graphs, {queries} queries, worst diff {worst:.3e}, {elapsed:.1f}s)",
    )


def test_criterion_2_theorem_sweeps():
    """Exact slack >= -1e-9 for all ordered triples on 200 graphs, and for
    all source sets of size <= 3."""
    t0 = time.time()
    min_slack = 0.0
    for i in range(200):
        g = _random_suite_graph(i)
        rep1 = verify_theorem_1(g, mode="exact", tolerance=1e-9)
        rep2 = verify_theorem_2(g, SourceSetPolicy.up_to_size(3), tolerance=1e-9)
        assert rep1.ok, f"graph {i}: {rep1.worst_instance}"
        assert rep2.ok, f"graph {i}: {rep2.worst_instance}"
        min_slack = min(min_slack, rep1.min_slack, rep2.min_slack)
    elapsed = time.time() - t0
    _report(
        "2 theorem-sweeps",
        min_slack >= -1e-9 and elapsed < 300,
        f"(min slack {min_slack:.3e}, {elapsed:.1f}s)",
    )


def test_criterion_3_triangle_fixed_points(triangle):
    """P({0}->1) = 0.625 and P({0}->1 and {0}->2) = 0.5 within 1e-12 by both
    engines (values from the 8-orientation enumeration)."""
    ev1 = EventExpr.connection(0, 1)
    ev12 = ev1 & EventExpr.connection(0, 2)
    values = {
        "enum single": brute_force_prob(triangle, ev1).probability,
        "rec single": exact_connection_prob(triangle, 0, 1).probability,
        "enum joint": brute_force_prob(triangle, ev12).probability,
        "rec joint": exact_joint_prob(triangle, 0, 1, 2).probability,
    }
    ok = (
        abs(values["enum single"] - 0.625) <= 1e-12
        and abs(values["rec single"] - 0.625) <= 1e-12
        and abs(values["enum joint"] - 0.5) <= 1e-12
        and abs(values["rec joint"] - 0.5) <= 1e-12
    )
    _report("3 triangle-fixed-points", ok, f"({values})")


def test_criterion_4_proof_machinery():
    """50 seeded instances: quadruple passes the pairwise condition at 1e-12,
    subset sums match the exact engine, and the product identity holds."""
    built = 0
    index = 0
    worst_pair_slack = 0.0
    while built < 50:
        g = _random_suite_graph(index, max_edges=12, max_n=7)
        index += 1
        n = g.vertex_count
        if n < 3:
            continue
        meta = RandomStream(SUITE_SEED, 20_000 + index)
        u = meta.uniforms(3)
        src = frozenset({int(u[0] * n)})
        rest = [v for v in range(n) if v not in src]
        a, b = rest[int(u[1] * len(rest))], rest[int(u[2] * len(rest))]
        dist = out_neighborhood_distribution(g, src)
        assert len(dist.ground) <= 6
        quad = build_proof_quadruple(g, src, a, b)
        rep = check_four_functions(quad, tolerance=1e-12)
        assert rep.ok, f"instance {index}: {rep.worst_instance}"
        worst_pair_slack = min(worst_pair_slack, rep.min_slack)
        engine = ExactEngine(g)
        assert abs(quad.delta.sum() - 1.0) <= 1e-12
        assert abs(quad.alpha.sum() - engine.connection(src, a)) <= 1e-9
        assert abs(quad.beta.sum() - engine.connection(src, b)) <= 1e-9
        assert abs(quad.gamma.sum() - engine.joint(src, a, b)) <= 1e-9
        size = 1 << len(dist.ground)
        for x1 in range(size):
            for x2 in range(size):
                lhs = dist.mass[x1] * dist.mass[x2]
                rhs = dist.mass[x1 | x2] * dist.mass[x1 & x2]
                assert abs(lhs - rhs) <= 1e-12
        built += 1
    _report("4 proof-machinery", True, f"(50 instances, min pair slack {worst_pair_slack:.3e})")


def test_criterion_5_mcdiarmid_coupling():
    """TV distance <= 1e-9 between unbiased reach law and density-1/2
    percolation cluster law on 50 seeded graphs with m <= 14."""
    t0 = time.time()
    worst = 0.0
    for i in range(50):
        meta = RandomStream(SUITE_SEED, 30_000 + i)
        u = meta.uniforms(3)
        n = 2 + int(u[0] * 7)  # 2..8
        cap = min(14, n * (n - 1) // 2)
        m = int(u[1] * (cap + 1))
        g = random_graph(n, edge_count=m, biases="uniform", seed=SUITE_SEED, index=30_000 + i)
        root = int(u[2] * n)
        worst = max(worst, verify_mcdiarmid(g, root))
    elapsed = time.time() - t0
    _report(
        "5 percolation-coupling",
        worst <= 1e-9 and elapsed < 120,
        f"(50 graphs, worst TV {worst:.3e}, {elapsed:.1f}s)",
    )


def test_criterion_6_montecarlo_calibration(triangle):
    """Triangle estimate within 0.006 of 0.625 for >= 95 of 100 seeds;
    identical seeds give bit-identical reports at each stream count."""
    ev = EventExpr.connection(0, 1)
    close = sum(
        abs(estimate_event(triangle, ev, 100_000, seed=seed).estimate - 0.625) <= 0.006
        for seed in range(100)
    )
    deterministic = all(
        estimate_event(triangle, ev, 100_000, seed=11, streams=k)
        == estimate_event(triangle, ev, 100_000, seed=11, streams=k)
        for k in (1, 4, 8)
    )
    _report(
        "6 montecarlo-calibration",
        close >= 95 and deterministic,
        f"({close}/100 seeds within 0.006, repeat-run determinism {deterministic})",
    )


def test_criterion_7_alm_linusson():
    """K3 covariance equals -1/64 within 1e-12; K4-K6 exact values match
    Monte Carlo within four standard errors."""
    k3 = alm_linusson_covariance(3).covariance
    ok = abs(k3 - (-1 / 64)) <= 1e-12
    details = [f"K3 {k3:.6f}"]
    for n, samples in ((4, 1_000_000), (5, 400_000), (6, 400_000)):
        exact = alm_linusson_covariance(n).covariance
        mc = alm_linusson_covariance(n, mode="montecarlo", samples=samples, seed=SUITE_SEED, streams=4)
        gap = abs(mc.covariance - exact)
        ok = ok and mc.std_error > 0 and gap <= 4 * mc.std_error
        details.append(f"K{n} gap {gap:.2e} vs 4se {4 * mc.std_error:.2e}")
    _report("7 alm-linusson", ok, "(" + ", ".join(details) + ")")


def test_criterion_8_witness_search():
    """8x7 grid, a=(0,2), b=(7,4), rightward flips: re-verified witness within
    1e6 attempts at the documented seed; the 2x2 case with b right of a,
    where a rightward flip only opens a -> b, returns not-found."""
    spec = GridSpec(8, 7, 0.5)
    grid = build_grid(spec)
    a, b = grid.id_of(0, 2), grid.id_of(7, 4)
    res = find_nonmonotonicity_witness(grid, a, b, "toward-high", budget=1_000_000, seed=WITNESS_SEED)
    found_ok = res.found and res.attempts <= 1_000_000 and res.witness.verify(grid.graph)
    res2 = find_nonmonotonicity_witness(
        build_grid(GridSpec(2, 2, 0.5)), 0, 1, "toward-high", budget=1_000, seed=0
    )
    _report(
        "8 witness-search",
        found_ok and not res2.found,
        f"(found at attempt {res.attempts} with seed {WITNESS_SEED}; 2x2 not-found)",
    )


def test_criterion_9_grid_determinism():
    """p=1 reaches the full box and p=0 only the origin, on every tested size."""
    ok = True
    for w, h in ((1, 1), (2, 2), (3, 5), (8, 7), (8, 8)):
        full = grid_reach_stats(build_grid(GridSpec(w, h, 1.0)), 0, samples=100, seed=SUITE_SEED)
        ok = ok and full.mean_reach == w * h and full.max_reach == w * h and full.boundary_frac == 1.0
        trapped = grid_reach_stats(build_grid(GridSpec(w, h, 0.0)), 0, samples=100, seed=SUITE_SEED)
        ok = ok and trapped.mean_reach == 1.0 and trapped.max_radius == 0
        if w > 1 and h > 1:
            ok = ok and trapped.boundary_frac == 0.0
    _report("9 grid-determinism", ok, "(boxes 1x1, 2x2, 3x5, 8x7, 8x8)")
