import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from orientprob import (
    AlmLinussonResult,
    EventExpr,
    ExactEngine,
    GridSpec,
    InputError,
    ResourceLimitError,
    SetFunctionQuadruple,
    SourceSetPolicy,
    alm_linusson_covariance,
    brute_force_prob,
    build_grid,
    build_proof_quadruple,
    check_four_functions,
    complete_graph,
    make_graph,
    merge_reports,
    percolation_cluster_distribution,
    random_graph,
    reachable_set_distribution,
    total_variation,
    verify_mcdiarmid,
    verify_theorem_1,
    verify_theorem_2,
)
from orientprob import exact, inequalities
from conftest import oracle_event_prob


def quad_of_arrays(ground, a, b, c, d):
    return SetFunctionQuadruple(ground, np.array(a, float), np.array(b, float),
                                np.array(c, float), np.array(d, float))


class TestCheckFourFunctions:
    def test_constant_one_holds_with_equality(self):
        ones = [1.0] * 4
        rep = check_four_functions(quad_of_arrays((0, 1), ones, ones, ones, ones), 1e-12)
        assert rep.ok
        assert rep.min_slack == 0.0
        assert rep.instances_checked == 17  # 16 ordered pairs plus the conclusion

    def test_zero_gamma_violates_at_empty_pair(self):
        ones = [1.0] * 4
        zeros = [0.0] * 4
        rep = check_four_functions(quad_of_arrays((0, 1), ones, ones, zeros, ones), 1e-12)
        assert not rep.ok
        assert any(v["kind"] == "hypothesis" and v["x1"] == 0 and v["x2"] == 0 for v in rep.violations)
        assert rep.min_slack < -1e-12

    def test_negative_values_rejected(self):
        with pytest.raises(InputError):
            quad_of_arrays((0,), [1, -1], [1, 1], [1, 1], [1, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InputError):
            quad_of_arrays((0,), [1, bad], [1, 1], [1, 1], [1, 1])
        quad = quad_of_arrays((0,), [1, 1], [1, 1], [1, 1], [1, 1])
        quad.delta[0] = bad  # the arrays stay mutable after construction
        with pytest.raises(InputError):
            check_four_functions(quad)

    def test_report_order_across_a_block_boundary(self):
        # alpha > 1 on the last row of one block and the first of the next;
        # gamma at a set above neither row brings the conclusion's slack to -0.5
        g = 8
        size = 1 << g
        last = (inequalities._FOUR_FUNCTION_BLOCK_PAIRS >> g) - 1
        top = 1 << (g - 1)
        assert 0 < last < top - 1
        ones = np.ones(size)
        for below, above, worst_row in ((2.0, 2.0, last), (2.0, 3.0, last + 1)):
            alpha, gamma = ones.copy(), ones.copy()
            alpha[last], alpha[last + 1] = below, above
            gamma[top] += below + above - 2.0 - 1.0 / 512
            rep = check_four_functions(SetFunctionQuadruple(tuple(range(g)), alpha, ones, gamma, ones))
            assert rep.instances_checked == size * size + 1
            # a tie keeps the first pair in row-major order, across blocks too
            assert (rep.min_slack, rep.worst_instance) == (1.0 - above, f"pair (X1={worst_row:#x}, X2=0x0)")
            hyp = rep.violations[:-1]
            assert [(v["x1"], v["x2"]) for v in hyp] == [(x1, x2) for x1 in (last, last + 1) for x2 in range(size)]
            assert [v["slack"] for v in hyp] == [1.0 - below] * size + [1.0 - above] * size
            assert all(v["kind"] == "hypothesis" for v in hyp)
            assert rep.violations[-1] == {"kind": "conclusion", "lhs": alpha.sum() * size,
                                          "rhs": gamma.sum() * size, "slack": -0.5}

    def test_overflowed_products_are_violations(self):
        # every product overflows to inf, so every slack is inf - inf = NaN
        big = [1e200] * 2
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_four_functions(quad_of_arrays((0,), big, big, big, big))
        assert not rep.ok
        assert rep.instances_checked == 5
        assert [v.get("x1") for v in rep.violations] == [0, 0, 1, 1, None]
        assert all(math.isnan(v["slack"]) for v in rep.violations)
        assert (rep.min_slack, rep.worst_instance) == (0.0, "")  # nothing is ranked
        d = json.loads(json.dumps(rep.as_dict(), allow_nan=False))
        assert d["violations"][0] == {"kind": "hypothesis", "x1": 0, "x2": 0, "lhs": None, "rhs": None, "slack": None}

    def test_nan_slack_does_not_hide_the_least_slack(self):
        # pair (0, 0) overflows to NaN and comes first; the least slack is at (0, 1)
        big, half = [1e200, 1.0], [1e200, 0.5]
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_four_functions(quad_of_arrays((0,), big, big, half, big))
        assert (rep.min_slack, rep.worst_instance) == (0.5e200 - 1e200, "pair (X1=0x0, X2=0x1)")
        flagged = [(v["kind"], v.get("x1"), v.get("x2")) for v in rep.violations]
        assert flagged == [("hypothesis", x1, x2) for x1 in (0, 1) for x2 in (0, 1)] + [("conclusion", None, None)]

    def test_violations_iff_min_slack_below_tolerance(self):
        ones = [1.0] * 4
        nearly = [1.0, 1.0, 1.0, 1.0 - 1e-13]
        rep = check_four_functions(quad_of_arrays((0, 1), ones, ones, nearly, ones), 1e-12)
        assert rep.min_slack < 0
        assert rep.ok  # inside tolerance


class TestProofQuadruple:
    def test_triangle_passes_all_pairs(self, triangle):
        quad = build_proof_quadruple(triangle, [0], 1, 2)
        rep = check_four_functions(quad, 1e-12)
        assert rep.ok

    def test_triangle_delta_is_uniform(self, triangle):
        quad = build_proof_quadruple(triangle, [0], 1, 2)
        assert np.allclose(quad.delta, 0.25, atol=1e-15)

    def test_triangle_gamma_sums_to_joint(self, triangle):
        quad = build_proof_quadruple(triangle, [0], 1, 2)
        assert quad.gamma.sum() == pytest.approx(0.5, abs=1e-9)

    def test_gamma_empty_set_is_zero(self, triangle):
        quad = build_proof_quadruple(triangle, [0], 1, 2)
        assert quad.gamma[0] == 0.0
        assert quad.alpha[0] == 0.0

    def test_sums_recover_event_probabilities(self):
        for i in range(10):
            g = random_graph(6, edge_count=9, biases="uniform", seed=55, index=i)
            engine = ExactEngine(g)
            src = {0}
            quad = build_proof_quadruple(g, src, 1, 2)
            assert quad.delta.sum() == pytest.approx(1.0, abs=1e-12)
            assert quad.alpha.sum() == pytest.approx(engine.connection(src, 1), abs=1e-9)
            assert quad.beta.sum() == pytest.approx(engine.connection(src, 2), abs=1e-9)
            assert quad.gamma.sum() == pytest.approx(engine.joint(src, 1, 2), abs=1e-9)

    def test_hypothesis_holds_on_random_instances(self):
        for i in range(10):
            g = random_graph(6, edge_count=9, biases="uniform", seed=56, index=i)
            quad = build_proof_quadruple(g, {0, 3}, 1, 2)
            assert check_four_functions(quad, 1e-12).ok

    def test_target_inside_sources_rejected(self, triangle):
        with pytest.raises(InputError):
            build_proof_quadruple(triangle, [0], 0, 1)


class TestTheoremSweeps:
    def test_triangle_slack_value(self, triangle):
        engine = ExactEngine(triangle)
        slack = engine.joint([0], 1, 2) - engine.connection([0], 1) * engine.connection([0], 2)
        assert slack == pytest.approx(0.109375, abs=1e-12)

    def test_coincident_source_target_has_zero_slack(self, triangle):
        engine = ExactEngine(triangle)
        slack = engine.joint([0], 0, 1) - engine.connection([0], 0) * engine.connection([0], 1)
        assert slack == 0.0

    def test_disconnected_target_has_zero_slack(self):
        g = make_graph(3, [(0, 1, 0.5)])
        engine = ExactEngine(g)
        slack = engine.joint([0], 2, 1) - engine.connection([0], 2) * engine.connection([0], 1)
        assert slack == 0.0

    def test_worst_instance_has_both_targets_outside_the_sources(self):
        # every triple with a or b in S has slack 0; on this path the closest
        # other triple is the middle vertex's two independent branches
        rep = verify_theorem_1(make_graph(3, [(0, 1, 0.3), (1, 2, 0.6)]), mode="exact")
        assert rep.instances_checked == 27
        assert (rep.min_slack, rep.worst_instance) == (0.0, "(S=[1], a=0, b=2)")
        rep = verify_theorem_1(make_graph(2, [(0, 1, 0.5)]), mode="exact")
        assert (rep.min_slack, rep.worst_instance) == (0.25, "(S=[0], a=1, b=1)")
        rep = verify_theorem_1(make_graph(1, []), mode="exact")
        assert (rep.instances_checked, rep.min_slack, rep.worst_instance) == (1, 0.0, "")

    def test_block_without_ranked_triple_beside_positive_blocks(self):
        # S=[0,1] has no target outside it, so its block ranks nothing
        rep = verify_theorem_2(make_graph(2, [(0, 1, 0.5)]), SourceSetPolicy.up_to_size(2))
        assert (rep.instances_checked, rep.min_slack, rep.worst_instance) == (12, 0.25, "(S=[0], a=1, b=1)")

    def test_violation_records_follow_sweep_order(self):
        g = make_graph(3, [(0, 1, 0.3), (1, 2, 0.6)])
        rep = verify_theorem_1(g, mode="exact", tolerance=-1.0)  # every triple is flagged
        engine = ExactEngine(g)
        expected = []
        for s, a, b in itertools.product(range(3), repeat=3):
            joint, p_a, p_b = engine.joint([s], a, b), engine.connection([s], a), engine.connection([s], b)
            expected.append({"instance": f"(S=[{s}], a={a}, b={b})", "slack": joint - p_a * p_b,
                             "joint": joint, "p_a": p_a, "p_b": p_b})
        assert rep.violations == expected
        assert (rep.min_slack, rep.worst_instance) == (0.0, "(S=[1], a=0, b=2)")

    def test_montecarlo_sweep_ranks_only_targets_outside_the_source(self):
        g = complete_graph(4, 0.5)
        rep = verify_theorem_1(g, mode="montecarlo", samples=20_000, seed=5)
        assert rep.instances_checked == 64 and rep.ok
        assert rep.worst_instance.startswith("(s=1, a=0, b=2) slack ")
        exact = verify_theorem_1(g, mode="exact")
        assert (exact.min_slack, exact.worst_instance) == (0.09375, "(S=[0], a=1, b=2)")
        assert rep.min_slack == pytest.approx(exact.min_slack, abs=0.01)

    def test_exact_sweep_on_random_graphs(self):
        for i in range(6):
            g = random_graph(6, edge_count=8, biases="uniform", seed=91, index=i)
            rep = verify_theorem_1(g, mode="exact", tolerance=1e-9)
            assert rep.ok
            assert rep.min_slack >= -1e-9
            assert rep.instances_checked == 6 ** 3

    def test_set_sweep_source_covering_all(self, triangle):
        rep = verify_theorem_2(triangle, SourceSetPolicy.up_to_size(3), 1e-9)
        assert rep.ok
        assert rep.min_slack >= -1e-9

    def test_random_policy_is_seeded(self):
        p = SourceSetPolicy.random(5, seed=3)
        a = list(p.source_sets(6))
        b = list(p.source_sets(6))
        assert a == b
        assert all(s for s in a)

    @pytest.mark.parametrize("n", [20, 60])
    def test_random_policy_gives_each_vertex_half_the_sets(self, n):
        # one 53-bit uniform per set once left vertices 1-6 out of every set at n = 60
        sets = list(SourceSetPolicy.random(2000, seed=1).source_sets(n))
        shares = [sum(v in s for s in sets) for v in range(n)]
        assert all(s for s in sets)
        assert 850 <= min(shares) and max(shares) <= 1150, shares

    def test_random_policy_on_no_vertices_gives_no_set(self):
        # no nonempty set exists, so the sweep checks nothing, as it does
        # for the sets up to any size
        assert list(SourceSetPolicy.random(2, seed=1).source_sets(0)) == []
        empty = make_graph(0, [])
        assert verify_theorem_2(empty, SourceSetPolicy.random(2, seed=1)) == \
            verify_theorem_2(empty, SourceSetPolicy.up_to_size(3))

    def test_montecarlo_sweep_reports_no_false_violations(self, triangle):
        rep = verify_theorem_1(triangle, mode="montecarlo", samples=20_000, seed=5, streams=4)
        assert rep.ok
        assert rep.instances_checked == 27

    def test_sweep_within_a_tight_memo_cap_reports_as_with_the_default(self, monkeypatch):
        # K10 oriented low to high but for two fair coins: the first frontier
        # table of a source set has up to 2^9 entries, more than the sweep's
        # whole memo, so under a cap of that memo's size the engine's tables
        # are emptied and rebuilt
        n = 10
        coins = {(2, 5), (6, 8)}
        g = make_graph(n, [(u, v, 0.5 if (u, v) in coins else 1.0) for u in range(n) for v in range(u + 1, n)])
        engine = ExactEngine(g)
        target_sets = [(t,) for t in range(n)] + [(a, b) for a in range(n) for b in range(n)]
        for s in range(n):
            engine.probabilities([s], target_sets)
        cap = len(engine._memo)
        builds = []
        table = exact._subset_table
        monkeypatch.setattr(exact, "_subset_table", lambda *args: builds.append(1) or table(*args))

        def sweep(memo_cap):
            builds.clear()
            rep = verify_theorem_1(g, mode="exact", tolerance=-1.0, memo_cap=memo_cap)  # records every triple
            return rep, len(builds)

        default, default_builds = sweep(exact.DEFAULT_MEMO_CAP)
        tight, tight_builds = sweep(cap)
        assert tight == default
        assert tight_builds > default_builds
        with pytest.raises(ResourceLimitError, match="memo"):
            sweep(cap - 1)

    def test_merge_reports(self):
        r1 = verify_theorem_1(make_graph(2, [(0, 1, 0.5)]), mode="exact")
        r2 = verify_theorem_1(make_graph(2, [(0, 1, 0.25)]), mode="exact")
        merged = merge_reports([r1, r2])
        assert merged.instances_checked == r1.instances_checked + r2.instances_checked
        assert merged.min_slack == min(r1.min_slack, r2.min_slack)


class TestPercolation:
    def test_isolated_root(self):
        g = make_graph(3, [(1, 2, 0.5)])
        d = percolation_cluster_distribution(g, 0, 0.5)
        assert d.prob_of({0}) == pytest.approx(1.0, abs=1e-15)

    def test_density_one_gives_full_component(self, triangle):
        d = percolation_cluster_distribution(triangle, 0, 1.0)
        assert d.prob_of({0, 1, 2}) == pytest.approx(1.0, abs=1e-15)

    def test_path_cluster_law(self, path3):
        d = percolation_cluster_distribution(path3, 0, 0.5)
        assert d.prob_of({0}) == pytest.approx(0.5, abs=1e-15)
        assert d.prob_of({0, 1}) == pytest.approx(0.25, abs=1e-15)
        assert d.prob_of({0, 1, 2}) == pytest.approx(0.25, abs=1e-15)

    def test_total_variation_requires_same_ground(self, triangle, path3):
        d1 = percolation_cluster_distribution(triangle, 0, 0.5)
        d2 = percolation_cluster_distribution(path3, 0, 0.5)
        assert 0.0 <= total_variation(d1, d2) <= 1.0
        assert total_variation(d1, d1) == 0.0
        with pytest.raises(InputError):
            total_variation(d1, percolation_cluster_distribution(make_graph(2, [(0, 1, 0.5)]), 0, 0.5))


class TestMcDiarmidCoupling:
    def test_single_vertex(self):
        assert verify_mcdiarmid(make_graph(1, []), 0) == 0.0

    def test_path(self, path3):
        assert verify_mcdiarmid(path3, 0) <= 1e-12

    def test_triangle(self, triangle):
        assert verify_mcdiarmid(triangle, 0) <= 1e-12

    def test_biases_are_forced_to_half(self):
        g = make_graph(3, [(0, 1, 0.9), (1, 2, 0.1)])
        assert verify_mcdiarmid(g, 0) <= 1e-12

    def test_random_graphs(self):
        for i in range(8):
            g = random_graph(6, edge_count=9, biases="uniform", seed=71, index=i)
            assert verify_mcdiarmid(g, i % 6) <= 1e-9


class TestOnePassChecks:
    """verify_mcdiarmid and exact alm_linusson_covariance read every law and
    event from one enumeration, equal bit for bit to separate passes."""

    # (chunk_bits or None for the default, n, m, seed): row codes of one
    # byte, two bytes and np.unique (17, 19, 8); m = 19-21 runs 2-8 blocks;
    # the root's component is cut from the graph at (17, 20, 6), where the
    # root is isolated, and at (5, 3, 2), (9, 5, 3), (17, 9, 4) and (70, 6, 5)
    MCDIARMID_CASES = [(None, 1, 0, 0), (None, 3, 1, 1), (None, 6, 5, 2), (None, 9, 10, 3), (None, 8, 18, 4),
                       (None, 9, 19, 5), (None, 17, 20, 6), (None, 8, 21, 7), (None, 17, 19, 8)] + [
                      (bits, n, m, seed) for bits in (2, 3)
                      for n, m, seed in [(1, 0, 0), (3, 1, 1), (5, 3, 2), (9, 5, 3), (17, 9, 4), (70, 6, 5)]]

    @pytest.mark.parametrize("chunk_bits, n, m, seed", MCDIARMID_CASES)
    def test_mcdiarmid_laws_equal_separate_passes(self, monkeypatch, chunk_bits, n, m, seed):
        if chunk_bits is not None:
            monkeypatch.setattr(exact, "_CHUNK_BITS", chunk_bits)
        g = random_graph(n, edge_count=m, seed=seed)
        root = seed % n
        unbiased = make_graph(n, [(u, v, 0.5) for u, v, _ in g.edges])
        reach = reachable_set_distribution(unbiased, root)
        cluster = percolation_cluster_distribution(g, root, 0.5)
        assert verify_mcdiarmid(g, root) == total_variation(reach, cluster)
        readers = [exact._reach_rows(unbiased, root), inequalities._cluster_rows(unbiased, root)]
        laws = exact._enumerated_law(unbiased, exact.DEFAULT_ENUM_CAP, readers, [root])
        assert [list(law.mass.items()) for law in laws] == [list(reach.mass.items()), list(cluster.mass.items())]

    @pytest.mark.parametrize("chunk_bits, n", [(None, 3), (None, 4), (None, 5), (None, 6), (2, 3), (2, 4), (2, 5),
                                               (3, 3), (3, 4), (3, 5)])
    def test_alm_linusson_fields_equal_separate_passes(self, monkeypatch, chunk_bits, n):
        if chunk_bits is not None:
            monkeypatch.setattr(exact, "_CHUNK_BITS", chunk_bits)
        g = complete_graph(n)
        a_to_s, s_to_b = EventExpr.connection(1, 0), EventExpr.connection(0, 2)
        p_a, p_b, p_ab = (brute_force_prob(g, ev).probability for ev in (a_to_s, s_to_b, a_to_s & s_to_b))
        r = alm_linusson_covariance(n, "exact")
        assert (r.p_a_to_s, r.p_s_to_b, r.p_joint, r.covariance) == (p_a, p_b, p_ab, p_ab - p_a * p_b)

    def test_each_check_enumerates_once(self, monkeypatch):
        calls = []
        chunks = exact._enumeration_chunks

        def counted(*args, **kwargs):
            calls.append(args[0].edge_count)
            return chunks(*args, **kwargs)

        monkeypatch.setattr(exact, "_enumeration_chunks", counted)
        verify_mcdiarmid(random_graph(9, edge_count=12, seed=3), 4)
        assert calls == [12]
        alm_linusson_covariance(5, "exact")
        assert calls == [12, 10]

    def test_mcdiarmid_checks_the_root_before_the_cap(self):
        with pytest.raises(InputError, match="vertex 9 out of range"):
            verify_mcdiarmid(complete_graph(7), 9, enum_cap=5)
        with pytest.raises(ResourceLimitError, match="exceeds cap 5"):
            verify_mcdiarmid(complete_graph(7), 0, enum_cap=5)


class TestAlmLinusson:
    def test_k3_exact_value(self):
        r = alm_linusson_covariance(3)
        assert r.covariance == pytest.approx(-1 / 64, abs=1e-12)
        assert r.p_a_to_s == pytest.approx(0.625, abs=1e-12)
        assert r.p_s_to_b == pytest.approx(0.625, abs=1e-12)

    def test_k3_against_independent_oracle(self):
        g = complete_graph(3, 0.5)
        p_joint = oracle_event_prob(g, [({1}, 0), ({0}, 2)])
        r = alm_linusson_covariance(3)
        assert r.p_joint == pytest.approx(p_joint, abs=1e-12)

    def test_invariant_under_vertex_relabeling(self):
        g = complete_graph(4, 0.5)
        covs = []
        for s, a, b in [(0, 1, 2), (3, 1, 0), (2, 3, 1)]:
            ev_a = EventExpr.connection(a, s)
            ev_b = EventExpr.connection(s, b)
            p_a = brute_force_prob(g, ev_a).probability
            p_b = brute_force_prob(g, ev_b).probability
            p_ab = brute_force_prob(g, ev_a & ev_b).probability
            covs.append(p_ab - p_a * p_b)
        assert covs[0] == pytest.approx(covs[1], abs=1e-12)
        assert covs[0] == pytest.approx(covs[2], abs=1e-12)

    def test_k4_montecarlo_matches_exact(self):
        exact = alm_linusson_covariance(4).covariance
        mc = alm_linusson_covariance(4, mode="montecarlo", samples=200_000, seed=17, streams=4)
        assert mc.std_error is not None and mc.std_error > 0
        assert abs(mc.covariance - exact) <= 4 * mc.std_error

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            alm_linusson_covariance(2)

    def test_record_output_is_pinned(self):
        exact_fields = {"n": 3, "covariance": -0.015625, "p_a_to_s": 0.625, "p_s_to_b": 0.625,
                        "p_joint": 0.375, "method": "exact"}
        d = AlmLinussonResult(3, -0.015625, 0.625, 0.625, 0.375, "exact").as_dict()
        assert d == exact_fields
        assert list(d) == ["n", "covariance", "p_a_to_s", "p_s_to_b", "p_joint", "method"]
        d = AlmLinussonResult(5, 0.004, 0.7, 0.7, 0.494, "montecarlo", 2000, 0.01, 9).as_dict()
        assert d == {"n": 5, "covariance": 0.004, "p_a_to_s": 0.7, "p_s_to_b": 0.7, "p_joint": 0.494,
                     "method": "montecarlo", "samples": 2000, "std_error": 0.01, "seed": 9}
        assert list(d) == ["n", "covariance", "p_a_to_s", "p_s_to_b", "p_joint", "method", "samples",
                           "std_error", "seed"]
        assert alm_linusson_covariance(3).as_dict() == exact_fields


class TestReportSerialization:
    def test_as_dict_round_trip_fields(self, triangle):
        rep = verify_theorem_1(triangle, mode="exact")
        d = rep.as_dict()
        assert set(d) == {"instances_checked", "min_slack", "worst_instance", "violations"}
        assert isinstance(d["violations"], list)
        assert math.isfinite(d["min_slack"])


def _report_digest(report):
    return hashlib.sha256(json.dumps(report.as_dict(), sort_keys=True).encode()).hexdigest()


class TestPinnedSweeps:
    """Exact sweep reports pinned bit for bit: a change in the order in which
    the recursion sums its terms moves min_slack, and moves the digest of the
    report that records every triple's joint, p_a, p_b and slack."""

    @pytest.mark.parametrize("index, min_slack, worst, digest", [
        (0, 0.0006627701942677477, "(S=[0], a=1, b=4)",
         "a86f4655090dcae3c2e45b6612e0e8f18bed5b8f59b770cdc4063b2e290c95e4"),
        (1, 0.007809990123626709, "(S=[0], a=1, b=5)",
         "be5cf2368f8ede887e85903d6c59a51ebd1efa7daa805845128e715fbc9eaa72"),
        (2, 0.000283439975449995, "(S=[5], a=3, b=4)",
         "220968485babaead8bf654f5cd49bdd51fb0e91244449fd0355262db31cb7b1d"),
    ])
    def test_theorem_1_on_random_graphs(self, index, min_slack, worst, digest):
        g = random_graph(6, edge_count=10, biases="uniform", seed=2024, index=index)
        rep = verify_theorem_1(g, mode="exact")
        assert rep.as_dict() == {"instances_checked": 216, "min_slack": min_slack, "worst_instance": worst,
                                 "violations": []}
        assert _report_digest(verify_theorem_1(g, mode="exact", tolerance=-1.0)) == digest

    def test_theorem_1_on_unbiased_k6(self):
        g = complete_graph(6, 0.5)
        rep = verify_theorem_1(g, mode="exact")
        assert rep.as_dict() == {"instances_checked": 216, "min_slack": 0.036518990993499756,
                                 "worst_instance": "(S=[0], a=1, b=2)", "violations": []}
        digest = "cac1b2eba084c18c07b46a7279ee86abe9fecf56ea19a9e289372526b4afb1d2"
        assert _report_digest(verify_theorem_1(g, mode="exact", tolerance=-1.0)) == digest

    def test_theorem_2_on_a_box(self):
        g = build_grid(GridSpec(3, 3, 0.3)).graph
        policy = SourceSetPolicy.up_to_size(2)
        rep = verify_theorem_2(g, policy)
        assert rep.as_dict() == {"instances_checked": 3645, "min_slack": 0.0,
                                 "worst_instance": "(S=[1, 3], a=0, b=2)", "violations": []}
        digest = "4dc4682ced95e03bf670cc032465a29ffb0a39a9dd187d64a749c312b7648997"
        assert _report_digest(verify_theorem_2(g, policy, tolerance=-1.0)) == digest


class TestTotalVariationSum:
    """total_variation is exactly rounded, so it does not depend on the order
    in which the masses were inserted."""

    @pytest.fixture
    def laws(self):
        g = random_graph(11, edge_count=13, biases="uniform", seed=40, index=0)
        d1 = exact.reachable_set_distribution(g, 0)
        d2 = percolation_cluster_distribution(g, 0, 0.5)
        assert d1.mass != d2.mass
        return d1, d2

    def test_insertion_order_does_not_change_the_value(self, laws):
        d1, d2 = laws
        rng = np.random.default_rng(3)
        for _ in range(3):
            shuffled = []
            for d in (d1, d2):
                items = list(d.mass.items())
                rng.shuffle(items)
                shuffled.append(exact.SubsetDistribution(d.ground, dict(items)))
            assert total_variation(*shuffled) == total_variation(d1, d2)
            assert total_variation(shuffled[1], shuffled[0]) == total_variation(d1, d2)

    def test_matches_an_fsum_reference(self, laws):
        d1, d2 = laws
        keys = sorted(set(d1.mass) | set(d2.mass))
        expected = 0.5 * math.fsum(abs(d1.mass.get(k, 0.0) - d2.mass.get(k, 0.0)) for k in keys)
        assert 0.0 < total_variation(d1, d2) == expected
