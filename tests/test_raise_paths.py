"""Library input checks called directly: each rejected input raises the
package's own error, and the accepted edge cases behave as documented."""

import numpy as np
import pytest

from orientprob import (
    Edge,
    EventExpr,
    Graph,
    GridSpec,
    InputError,
    Orientation,
    PackedBatch,
    RandomStream,
    ResourceLimitError,
    SetFunctionQuadruple,
    SourceSetPolicy,
    SubsetDistribution,
    alm_linusson_covariance,
    build_grid,
    build_proof_quadruple,
    check_four_functions,
    complete_graph,
    exact_connection_prob,
    exact_joint_prob,
    find_nonmonotonicity_witness,
    grid_reach_stats,
    make_graph,
    out_neighborhood_distribution,
    parse_graph,
    random_graph,
    reach_many,
    reachable_set_distribution,
    verify_theorem_1,
    verify_theorem_2,
)
from orientprob.graphs import event_indicator_many


class TestRandomGraph:
    def test_edge_prob_keeps_pairs_by_probability(self):
        pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        assert random_graph(6, edge_prob=0.0, seed=3).edge_count == 0
        full = random_graph(6, edge_prob=1.0, seed=3)
        assert [(e.low, e.high) for e in full.edges] == pairs
        half = random_graph(6, edge_prob=0.5, seed=3)
        assert half == random_graph(6, edge_prob=0.5, seed=3)
        assert set((e.low, e.high) for e in half.edges) <= set(pairs)

    def test_constant_bias(self):
        g = random_graph(6, edge_count=7, biases=0.3, seed=1)
        assert g.edge_count == 7
        assert all(e.bias == 0.3 for e in g.edges)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=-1, edge_count=0), "nonnegative"),
        (dict(n=5, edge_count=3, edge_prob=0.5), "exactly one"),
        (dict(n=5), "exactly one"),
        (dict(n=5, edge_count=11), "outside"),
        (dict(n=5, edge_count=-1), "outside"),
        (dict(n=5, edge_prob=1.5), "outside"),
        (dict(n=5, edge_prob=-0.1), "outside"),
        (dict(n=5, edge_count=3, biases="bogus"), "bias policy"),
    ])
    def test_rejected_arguments(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            random_graph(**kwargs)


class TestGraphRecords:
    @pytest.mark.parametrize("n, edges, message", [
        (-1, (), "nonnegative"),
        (3, (Edge(1, 1, 0.5),), "self-loop"),
        (3, (Edge(0, 5, 0.5),), "out of range"),
        (3, (Edge(0, 1, 0.5), Edge(0, 1, 0.5)), "duplicate"),
        (2, (Edge(0, 1, 1.5),), "outside"),
    ])
    def test_graph_built_directly(self, n, edges, message):
        with pytest.raises(InputError, match=message):
            Graph(n, edges)

    @pytest.mark.parametrize("text, message", [
        ("n\n", "header must read"),
        ("n x\n", "not an integer"),
        ("n -1\n", "nonnegative"),
        ("0 1 x\n", "not a number"),
        ("-1 2 0.5\n", "negative vertex id"),
    ])
    def test_parse_graph_lines(self, text, message):
        with pytest.raises(InputError, match=f"line 1: .*{message}"):
            parse_graph(text)

    def test_orientation_event_and_stream(self, triangle):
        with pytest.raises(InputError, match="0 or 1"):
            Orientation((2,))
        with pytest.raises(InputError, match="at least one atom"):
            EventExpr(())
        with pytest.raises(InputError, match="nonnegative"):
            RandomStream(-1)
        with pytest.raises(InputError, match="width"):
            reach_many(triangle, PackedBatch.pack(np.zeros((2, 2), dtype=bool)), 0)

    @pytest.mark.parametrize(
        "bits", [np.zeros(3, dtype=bool), np.zeros((2, 3)), [[True] * 3], np.zeros((2, 3), dtype=bool)]
    )
    def test_reach_many_and_event_indicator_many_take_only_a_packed_batch(self, triangle, bits):
        with pytest.raises(InputError, match="must be a PackedBatch"):
            reach_many(triangle, bits, 0)
        with pytest.raises(InputError, match="must be a PackedBatch"):
            event_indicator_many(triangle, bits, [EventExpr.connection(0, 1)])


class TestSubsetDistribution:
    @pytest.mark.parametrize("mass, message", [
        ({2: 1.0}, "not a subset"),
        ({0: -0.5, 1: 1.5}, "negative mass"),
        ({0: 0.5}, "sum to"),
    ])
    def test_rejected_masses(self, mass, message):
        with pytest.raises(InputError, match=message):
            SubsetDistribution((7,), mass)

    @pytest.mark.parametrize("law, vertex, ground", [
        (out_neighborhood_distribution, 0, r"\(1, 2, 3\)"),  # a source is outside its out-neighbourhood's ground
        (reachable_set_distribution, 7, r"\(0, 1, 2, 3\)"),  # not a vertex of the graph
    ], ids=["out-neighbourhood", "reachable-set"])
    def test_a_vertex_outside_the_ground_set(self, law, vertex, ground):
        d = law(complete_graph(4), 0)
        with pytest.raises(InputError, match=rf"vertex {vertex} is not in the ground set {ground}"):
            d.prob_of([vertex])
        with pytest.raises(InputError, match=rf"vertex {vertex}"):
            d.mask_of([1, vertex])


class TestGridChecks:
    def test_rejected_inputs(self):
        with pytest.raises(InputError, match="bias"):
            GridSpec(2, 2, 1.5)
        for width, height in ((2.5, 2), (2, 2.0), ("3", 2)):
            with pytest.raises(InputError, match="integers"):
                GridSpec(width, height, 0.5)
        assert build_grid(GridSpec(np.int64(2), 3, 0.5)).graph == build_grid(GridSpec(2, 3, 0.5)).graph
        grid = build_grid(GridSpec(2, 2, 0.5))
        with pytest.raises(InputError, match="vertex 99 out of range"):
            grid_reach_stats(grid, 99, 10, 0)
        with pytest.raises(InputError, match="budget"):
            find_nonmonotonicity_witness(grid, 0, 3, "toward-high", 0, 0)
        for a, b in ((-1, 3), (0, 4)):
            with pytest.raises(InputError, match="out of range"):
                find_nonmonotonicity_witness(grid, a, b, "toward-high", 10, 0)


class TestInequalityChecks:
    def test_wrong_length_array(self):
        with pytest.raises(InputError, match="one value per subset"):
            SetFunctionQuadruple((0,), np.ones(2), np.ones(3), np.ones(2), np.ones(2))

    def test_four_function_check_cap(self):
        size = 1 << 17
        q = SetFunctionQuadruple(tuple(range(17)), *(np.zeros(size) for _ in range(4)))
        with pytest.raises(ResourceLimitError, match="17"):
            check_four_functions(q)

    def test_unknown_modes_and_policy(self, triangle):
        with pytest.raises(InputError, match="unknown mode"):
            verify_theorem_1(triangle, mode="bogus")
        with pytest.raises(InputError, match="unknown mode"):
            alm_linusson_covariance(4, mode="bogus")
        with pytest.raises(InputError, match="samples must be >= 2"):  # batch means need two samples
            alm_linusson_covariance(4, mode="montecarlo", samples=1)
        with pytest.raises(InputError, match="unknown source set policy"):
            list(SourceSetPolicy(kind="bogus").source_sets(3))

    def test_a_nan_tolerance_is_refused_before_any_query(self, monkeypatch):
        # slack < -nan is never true, and ~(slack >= -nan) always is
        monkeypatch.setattr("orientprob.inequalities.ExactEngine._batch", lambda *a: pytest.fail("queried"))
        g = complete_graph(4, 0.5)
        q = SetFunctionQuadruple((0,), *(np.ones(2) for _ in range(4)))
        for check in (lambda: verify_theorem_1(g, tolerance=np.nan),
                      lambda: verify_theorem_1(g, mode="montecarlo", tolerance=np.nan, samples=10),
                      lambda: verify_theorem_2(g, SourceSetPolicy.up_to_size(2), tolerance=np.nan),
                      lambda: check_four_functions(q, tolerance=np.nan)):
            with pytest.raises(InputError, match="tolerance must be a number, got nan"):
                check()

    def test_quadruple_with_a_certain_frontier_vertex(self):
        # edge 0 -> 1 has bias 1, so every out-neighbourhood of 0 holds 1 and
        # the subsets without it have mass 0 and are skipped
        g = make_graph(4, [(0, 1, 1.0), (0, 2, 0.5), (1, 3, 0.3), (2, 3, 0.6)])
        q = build_proof_quadruple(g, 0, 3, 2)
        assert q.ground == (1, 2)
        for xbits in (0b00, 0b10):
            assert q.alpha[xbits] == q.beta[xbits] == q.gamma[xbits] == q.delta[xbits] == 0.0
        assert q.delta.sum() == pytest.approx(1.0, abs=1e-15)
        assert q.alpha.sum() == pytest.approx(exact_connection_prob(g, 0, 3).probability, abs=1e-12)
        assert q.beta.sum() == pytest.approx(exact_connection_prob(g, 0, 2).probability, abs=1e-12)
        assert q.gamma.sum() == pytest.approx(exact_joint_prob(g, 0, 3, 2).probability, abs=1e-12)
        assert check_four_functions(q).ok
