import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientprob import (
    EventExpr,
    ExactEngine,
    GridSpec,
    InputError,
    ResourceLimitError,
    brute_force_prob,
    build_grid,
    build_proof_quadruple,
    complete_graph,
    exact_connection_prob,
    exact_joint_prob,
    make_graph,
    out_neighborhood_distribution,
    path_graph,
    percolation_cluster_distribution,
    random_graph,
    reachable_set_distribution,
)
from orientprob import InternalError, exact, inequalities, verify_mcdiarmid
from orientprob.exact import _accumulate_row_masses, _enumeration_chunks, _frontier, _neighbors_of
from orientprob.graphs import Orientation, PackedBatch, reachable_set
from conftest import oracle_event_prob
from test_graphs import graph_with_isolated_vertices


def conn(s, t):
    return EventExpr.connection(s, t)


class TestBruteForce:
    def test_single_edge(self):
        g = make_graph(2, [(0, 1, 0.7)])
        r = brute_force_prob(g, conn(0, 1))
        assert r.probability == pytest.approx(0.7, abs=1e-15)
        assert r.method == "enumeration"
        assert r.states_visited == 2

    def test_triangle_connection(self, triangle):
        # direct edge (1/2) plus detour 0->2->1 (1/8)
        assert brute_force_prob(triangle, conn(0, 1)).probability == pytest.approx(0.625, abs=1e-15)

    def test_triangle_joint(self, triangle):
        ev = conn(0, 1) & conn(0, 2)
        assert brute_force_prob(triangle, ev).probability == pytest.approx(0.5, abs=1e-15)

    def test_cap_exceeded_names_m_and_cap(self):
        g = complete_graph(8, 0.5)  # 28 edges
        with pytest.raises(ResourceLimitError, match="m=28.*24"):
            brute_force_prob(g, conn(0, 1))

    def test_matches_independent_oracle(self):
        for i in range(12):
            g = random_graph(5, edge_count=7, biases="uniform", seed=300, index=i)
            for s, t in [(0, 4), (2, 1)]:
                expected = oracle_event_prob(g, [({s}, t)])
                got = brute_force_prob(g, conn(s, t)).probability
                assert got == pytest.approx(expected, abs=1e-12)
            expected = oracle_event_prob(g, [({0, 1}, 3), ({0, 1}, 4)])
            ev = conn({0, 1}, 3) & conn({0, 1}, 4)
            assert brute_force_prob(g, ev).probability == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 64])
def test_accumulate_row_masses_matches_plain_loop(n):
    rng = np.random.default_rng(n)
    rows = rng.random((500, n)) < rng.random(n)
    rows[:, 0] = False
    rows[0] = True  # the full mask occurs only here, with weight 0
    rows[1:3] = False
    weights = rng.random(500)
    weights[::5] = 0.0
    expected: dict[int, float] = {}
    for row, w in zip(rows.tolist(), weights.tolist()):
        mask = sum(1 << j for j, bit in enumerate(row) if bit)
        expected[mask] = expected.get(mask, 0.0) + w
    got: dict[int, float] = {}
    _accumulate_row_masses(PackedBatch.pack(rows), weights, got)
    assert got == expected
    assert got[(1 << n) - 1] == 0.0


def test_accumulate_row_masses_refuses_more_than_64_nonzero_columns():
    rows = PackedBatch((0,) + (1,) * 65, 1)
    with pytest.raises(InternalError, match="65 nonzero columns"):
        _accumulate_row_masses(rows, np.ones(1), {})


class TestEnumerationBlocks:
    """Small block sizes, so that small graphs run the multi-block path."""

    @pytest.mark.parametrize("chunk_bits", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 9])
    def test_blocks_match_a_per_orientation_construction(self, monkeypatch, chunk_bits, m):
        monkeypatch.setattr(exact, "_CHUNK_BITS", chunk_bits)
        pairs = list(itertools.combinations(range(5), 2))[:m]
        g = make_graph(5, [(u, v, 0.1 + 0.08 * i) for i, (u, v) in enumerate(pairs)])
        # the weights buffer is reused between blocks, so each is copied before the next
        chunks = _enumeration_chunks(g, exact.DEFAULT_ENUM_CAP, 0b11111)
        blocks = [(batch, weights.copy()) for batch, weights in chunks]
        k = 1 << min(m, chunk_bits)
        assert len(blocks) == (1 << m) // k
        for j, (batch, weights) in enumerate(blocks):
            assert batch.shape == (k, m) and all(0 <= c < 1 << k for c in batch.columns)
            bits = batch.unpack()
            for i in range(k):
                row = j * k + i
                w = 1.0
                for e, (_, _, p) in enumerate(g.edges):
                    w *= p if (row >> e) & 1 else 1.0 - p
                assert bits[i].tolist() == [bool((row >> e) & 1) for e in range(m)]
                assert weights[i] == w

    @pytest.mark.parametrize("low", [0, 1, 5, 18])
    def test_low_weights_equal_a_concatenation_bit_for_bit(self, low):
        pairs = list(itertools.combinations(range(7), 2))[:low]
        rng = random.Random(low)
        g = make_graph(7, [(u, v, rng.random()) for u, v in pairs])
        expected = np.ones(1)
        for _, _, p in g.edges:
            expected = np.concatenate((expected * (1.0 - p), expected * p))
        _, weights = next(_enumeration_chunks(g, exact.DEFAULT_ENUM_CAP, 0b1111111))
        assert weights.tobytes() == expected.tobytes()

    def test_one_block_yields_its_low_weights_without_a_second_buffer(self):
        pairs = list(itertools.combinations(range(7), 2))[:18]
        g = make_graph(7, [(u, v, 0.3) for u, v in pairs])
        tracemalloc.start()
        try:
            _, weights = next(_enumeration_chunks(g, exact.DEFAULT_ENUM_CAP, 0b1111111))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 2 MiB of weights and 18 columns of 32 KiB; a copy would take 2 MiB more
        assert weights.nbytes == 8 << 18 and peak < 1.5 * weights.nbytes

    @pytest.mark.parametrize("chunk_bits", [2, 3])
    def test_oracle_results_do_not_depend_on_the_block_size(self, monkeypatch, chunk_bits):
        # dyadic biases keep every product and sum exact, so a difference can
        # only come from a wrong row or weight, never from summation order
        g = make_graph(5, [(0, 1, 0.5), (0, 2, 0.25), (1, 2, 0.75), (1, 3, 0.5),
                           (2, 4, 0.125), (3, 4, 0.625), (0, 4, 0.375)])

        def results():
            return (
                brute_force_prob(g, conn(0, 3) & conn(0, 4)).probability,
                reachable_set_distribution(g, 0).mass,
                percolation_cluster_distribution(g, 1, 0.25).mass,
            )

        default = results()
        monkeypatch.setattr(exact, "_CHUNK_BITS", chunk_bits)
        assert results() == default


class TestPinnedOracle:
    """The enumeration oracle on non-dyadic biases, pinned bit for bit: a
    change to how reach rows are built or coded may not move a float."""

    # (event, value in 2^6-row blocks, value in one block)
    CASES = [
        (conn(0, 5), "0x1.610f9e49cfb72p-1", "0x1.610f9e49cfb73p-1"),
        (conn(0, 5) & conn(0, 3), "0x1.5fb3935b50cb7p-1", "0x1.5fb3935b50cb6p-1"),
        (conn({1, 4}, 2) & conn(3, 0), "0x1.56810fef09d65p-1", "0x1.56810fef09d65p-1"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=["single", "joint", "set-source"])
    def test_brute_force_prob(self, monkeypatch, case):
        event, blocked, whole = case
        g = random_graph(6, edge_count=10, seed=11)
        assert brute_force_prob(g, event).probability.hex() == whole
        monkeypatch.setattr(exact, "_CHUNK_BITS", 6)  # 16 blocks
        assert brute_force_prob(g, event).probability.hex() == blocked

    # nine vertices, so each row's code is a 16-bit integer and the masses are summed in a dense bincount
    LAW_GRAPH = dict(n=9, edge_count=9, seed=4)

    def test_reachable_set_distribution(self):
        g = random_graph(**self.LAW_GRAPH)
        law = reachable_set_distribution(g, {0, 5})
        assert {k: v.hex() for k, v in law.mass.items()} == {
            0x021: '0x1.8815d996611c8p-15', 0x025: '0x1.d1e76d2615bcep-11', 0x029: '0x1.100c8d213d199p-18',
            0x02d: '0x1.4c231abf214fbp-12', 0x031: '0x1.54e7197060202p-11', 0x035: '0x1.9515cbc0ae744p-7',
            0x039: '0x1.d9125ffff53fep-15', 0x03d: '0x1.20c7b5cb5831cp-8', 0x069: '0x1.def149a3fa208p-13',
            0x06d: '0x1.245d2471d2770p-6', 0x079: '0x1.a06bef3c47b70p-9', 0x07d: '0x1.fc65cacd5526bp-3',
            0x0a9: '0x1.bd795a573a832p-18', 0x0ad: '0x1.0feef716c41f3p-11', 0x0b9: '0x1.8352741aaa4b6p-14',
            0x0bd: '0x1.d8deed573eddfp-8', 0x0e9: '0x1.8820f22daac9dp-12', 0x0ed: '0x1.debd338917fa0p-6',
            0x0f9: '0x1.54f0bf387ce12p-8', 0x0fd: '0x1.a03ea5c1f4f64p-2', 0x1a9: '0x1.04872ebd222d1p-18',
            0x1ad: '0x1.3e124d47725a5p-12', 0x1b9: '0x1.c509a7dc98578p-15', 0x1bd: '0x1.148cf4563dcf1p-8',
            0x1e9: '0x1.caa8ebf4a2051p-13', 0x1ed: '0x1.17fb88d12ce7ep-6', 0x1f9: '0x1.8ec96098aab90p-9',
            0x1fd: '0x1.e6de182560532p-3',
        }

    def test_percolation_cluster_distribution(self):
        g = random_graph(**self.LAW_GRAPH)
        law = percolation_cluster_distribution(g, 8, 0.3)
        assert {k: v.hex() for k, v in law.mass.items()} == {
            0x100: '0x1.666666666666cp-1', 0x180: '0x1.ae147ae147ad5p-3', 0x188: '0x1.620ab71327240p-6',
            0x189: '0x1.a8d9a87d622b4p-8', 0x18c: '0x1.a8d9a87d622b2p-8', 0x18d: '0x1.fdd1fd63429a4p-10',
            0x1a8: '0x1.a05a6ccccbb9bp-9', 0x1a9: '0x1.31e464d527f63p-8', 0x1ac: '0x1.31e464d527f62p-8',
            0x1ad: '0x1.8ad9c0d9ad0d6p-8', 0x1b8: '0x1.64dfcaf8ae9f2p-10', 0x1b9: '0x1.06317affd91c2p-9',
            0x1bc: '0x1.06317affd91c2p-9', 0x1bd: '0x1.527180ba9454bp-9', 0x1c8: '0x1.2f76e6106ab11p-7',
            0x1c9: '0x1.6c284746e66e2p-9', 0x1cc: '0x1.6c284746e66e2p-9', 0x1cd: '0x1.b4fd225514844p-11',
            0x1e8: '0x1.64dfcaf8ae9f2p-10', 0x1e9: '0x1.06317affd91c2p-9', 0x1ec: '0x1.06317affd91c2p-9',
            0x1ed: '0x1.527180ba9454bp-9', 0x1f8: '0x1.31e464d527f62p-11', 0x1f9: '0x1.c17965244f9e0p-11',
            0x1fc: '0x1.c17965244f9dfp-11', 0x1fd: '0x1.2218253235ff8p-10',
        }


class TestEnumerationCheckOrder:
    """On a graph over the enumeration cap, each entry point reports the
    check it makes first: the vertices before the cap for the set laws, the
    cap before the event for brute_force_prob."""

    def test_reachable_set_distribution_checks_the_sources_first(self, triangle):
        with pytest.raises(InputError):
            reachable_set_distribution(triangle, [9], enum_cap=2)

    def test_percolation_cluster_distribution_checks_root_and_density_first(self, triangle):
        for root, density in ((9, 0.5), (0, 1.5)):
            with pytest.raises(InputError):
                percolation_cluster_distribution(triangle, root, density, enum_cap=2)

    def test_brute_force_prob_checks_the_cap_first(self, triangle):
        with pytest.raises(ResourceLimitError, match="m=3.*2"):
            brute_force_prob(triangle, conn(0, 9), enum_cap=2)


def _scalar_law(graph, reach):
    """The law of the vertex set reach(bits) over all orientations bits of
    the graph, one orientation at a time."""
    law = {}
    for bits in itertools.product((0, 1), repeat=graph.edge_count):
        w = 1.0
        for bit, (_, _, p) in zip(bits, graph.edges):
            w *= p if bit else 1.0 - p
        mask = sum(1 << v for v in reach(bits))
        law[mask] = law.get(mask, 0.0) + w
    return law


def _cluster(graph, bits, root):
    """The root's component when bit e tells whether edge e is open."""
    seen, stack = {root}, [root]
    while stack:
        x = stack.pop()
        for bit, (u, v, _) in zip(bits, graph.edges):
            y = v if x == u else u if x == v else None
            if bit and y is not None and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


class TestEnumerationCut:
    """Enumeration sums only the orientations of the edges of the components
    that hold the sources; every other edge's two weights sum to 1."""

    @pytest.mark.parametrize("n, m, root, edges", [(70, 20, 7, 0), (40, 24, 3, 9)])
    def test_mcdiarmid_enumerates_the_roots_component_only(self, monkeypatch, n, m, root, edges):
        rows = []
        chunks = exact._enumeration_chunks

        def counted(*args):
            for batch, weights in chunks(*args):
                rows.append(batch.k)
                yield batch, weights

        monkeypatch.setattr(exact, "_enumeration_chunks", counted)
        assert verify_mcdiarmid(random_graph(n, edge_count=m, seed=0), root) == 0.0
        assert rows == [1 << edges]

    def test_blocks_of_a_part_hold_zero_columns_and_unit_factors_elsewhere(self, monkeypatch):
        monkeypatch.setattr(exact, "_CHUNK_BITS", 2)
        # edges 0, 2 and 4 join the part {0, 1, 2, 3}; edges 1 and 3 join 4, 5 and 6
        g = make_graph(7, [(0, 1, 0.2), (4, 5, 0.3), (1, 2, 0.4), (5, 6, 0.6), (2, 3, 0.7)])
        part_edges = [0, 2, 4]
        blocks = [(batch, weights.copy()) for batch, weights in _enumeration_chunks(g, 3, 0b1111)]
        assert len(blocks) == 2
        for j, (batch, weights) in enumerate(blocks):
            bits = batch.unpack()
            assert batch.shape == (4, 5) and batch.columns[1] == batch.columns[3] == 0
            for i in range(4):
                row = 4 * j + i
                w = 1.0
                for b, e in enumerate(part_edges):
                    w *= g.edges[e].bias if (row >> b) & 1 else 1.0 - g.edges[e].bias
                assert [bits[i, e] for e in part_edges] == [bool((row >> b) & 1) for b in range(3)]
                assert weights[i] == w
        with pytest.raises(ResourceLimitError, match="m=3.*2"):
            _enumeration_chunks(g, 2, 0b1111)

    def test_states_visited_counts_the_orientations_enumerated(self):
        g = make_graph(6, [(0, 1, 0.3), (1, 2, 0.6), (3, 4, 0.5), (4, 5, 0.5)])
        assert brute_force_prob(g, conn(0, 2)).states_visited == 4
        assert brute_force_prob(g, conn(0, 2) & conn(3, 5)).states_visited == 16
        assert brute_force_prob(g, conn(0, 4)).probability == 0.0
        # the cap counts the edges enumerated, not the graph's
        assert brute_force_prob(g, conn(0, 2), enum_cap=2).probability == 0.3 * 0.6

    @settings(max_examples=60, deadline=None)
    @given(g=graph_with_isolated_vertices(max_edges=9), data=st.data())
    def test_cut_enumeration_agrees_with_the_oracle_and_the_scalar_path(self, g, data):
        biases = data.draw(st.lists(st.floats(0.0, 1.0), min_size=g.edge_count, max_size=g.edge_count))
        g = make_graph(g.vertex_count, [(u, v, p) for (u, v, _), p in zip(g.edges, biases)])
        s, t, a, b = (data.draw(st.integers(0, g.vertex_count - 1)) for _ in range(4))
        expected = oracle_event_prob(g, [({s}, t), ({s, a}, b)])
        got = brute_force_prob(g, conn(s, t) & conn({s, a}, b)).probability
        assert got == pytest.approx(expected, abs=1e-12)
        at_density = make_graph(g.vertex_count, [(u, v, 0.3) for u, v, _ in g.edges])
        for law, scalar in [
            (reachable_set_distribution(g, {s, a}),
             _scalar_law(g, lambda bits: reachable_set(g, Orientation(bits), {s, a}))),
            (percolation_cluster_distribution(g, s, 0.3),
             _scalar_law(at_density, lambda bits: _cluster(g, bits, s))),
        ]:
            assert set(law.mass) <= set(scalar)
            for mask, mass in scalar.items():
                assert law.mass.get(mask, 0.0) == pytest.approx(mass, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(g=graph_with_isolated_vertices(max_edges=12), data=st.data())
    def test_unbiased_laws_equal_the_uncut_laws_exactly(self, g, data):
        n = g.vertex_count
        root = data.draw(st.integers(0, n - 1))
        readers = [exact._reach_rows(g, root), inequalities._cluster_rows(g, root)]
        cut = exact._enumerated_law(g, exact.DEFAULT_ENUM_CAP, readers, [root])
        uncut = exact._enumerated_law(g, exact.DEFAULT_ENUM_CAP, readers, range(n))
        assert [law.mass for law in cut] == [law.mass for law in uncut]
        assert verify_mcdiarmid(g, root) == 0.0


class TestLawRefusal:
    """A set law is coded in 64 bits a row, so sources whose components hold
    more than 64 vertices are refused before the first block."""

    def test_a_65_vertex_path_is_refused_at_once(self):
        path = path_graph(65)
        with pytest.raises(ResourceLimitError, match="65 vertices"):
            reachable_set_distribution(path, 0, enum_cap=64)
        with pytest.raises(ResourceLimitError, match="65 vertices"):
            percolation_cluster_distribution(path, 64, 0.5, enum_cap=64)
        with pytest.raises(ResourceLimitError, match="65 vertices"):
            verify_mcdiarmid(path, 0, enum_cap=64)
        with pytest.raises(ResourceLimitError, match="m=64.*24"):
            verify_mcdiarmid(path, 0)

    def test_65_isolated_sources_are_refused(self):
        with pytest.raises(ResourceLimitError, match="65 vertices"):
            reachable_set_distribution(make_graph(65, []), range(65))
        law = reachable_set_distribution(make_graph(70, []), range(64))
        assert law.mass == {(1 << 64) - 1: 1.0}


class TestOutNeighborhood:
    def test_two_independent_coins(self):
        g = make_graph(3, [(0, 1, 0.7), (0, 2, 0.5)])
        d = out_neighborhood_distribution(g, 0)
        assert d.ground == (1, 2)
        assert d.prob_of({1, 2}) == pytest.approx(0.35, abs=1e-15)
        assert d.prob_of({1}) == pytest.approx(0.35, abs=1e-15)
        assert d.prob_of({2}) == pytest.approx(0.15, abs=1e-15)
        assert d.prob_of(()) == pytest.approx(0.15, abs=1e-15)

    def test_two_edges_one_target(self):
        g = make_graph(3, [(0, 2, 0.5), (1, 2, 0.5)])
        d = out_neighborhood_distribution(g, [0, 1])
        assert d.prob_of({2}) == pytest.approx(0.75, abs=1e-15)

    def test_isolated_sources(self):
        g = make_graph(4, [(2, 3, 0.5)])
        d = out_neighborhood_distribution(g, [0, 1])
        assert d.ground == ()
        assert d.mass == {0: 1.0}

    def test_masses_sum_to_one(self):
        for i in range(10):
            g = random_graph(7, edge_count=10, biases="uniform", seed=41, index=i)
            d = out_neighborhood_distribution(g, {0, 1})
            assert abs(sum(d.mass.values()) - 1.0) <= 1e-12

    def test_masses_equal_the_plain_product_loop(self):
        # the doubling table multiplies each mass's factors in ground order
        for i in range(5):
            g = random_graph(7, edge_count=12, biases="uniform", seed=43, index=i)
            d = out_neighborhood_distribution(g, {0, 1})
            ground, pv = _frontier(g, _neighbors_of(g, 0b11) & ~0b11, 0b11)
            assert d.ground == tuple(ground)
            expected = {}
            for xbits in range(1 << len(pv)):
                m = 1.0
                for j in range(len(pv)):
                    m *= pv[j] if (xbits >> j) & 1 else 1.0 - pv[j]
                expected[xbits] = m
            assert list(d.mass.items()) == list(expected.items())

    def test_lattice_product_identity(self):
        # mass(X1) mass(X2) == mass(X1 | X2) mass(X1 & X2), a product identity
        for i in range(10):
            g = random_graph(7, edge_count=11, biases="uniform", seed=42, index=i)
            d = out_neighborhood_distribution(g, {0})
            size = 1 << len(d.ground)
            for x1 in range(size):
                for x2 in range(size):
                    lhs = d.mass[x1] * d.mass[x2]
                    rhs = d.mass[x1 | x2] * d.mass[x1 & x2]
                    assert abs(lhs - rhs) <= 1e-12


class TestRecursion:
    def test_target_in_sources(self, triangle):
        r = exact_connection_prob(triangle, {1, 2}, 1)
        assert r.probability == 1.0
        assert r.method == "recursion"

    def test_triangle_matches_oracle(self, triangle):
        assert exact_connection_prob(triangle, 0, 1).probability == pytest.approx(0.625, abs=1e-12)

    def test_isolated_target(self):
        g = make_graph(4, [(0, 1, 0.8)])
        assert exact_connection_prob(g, 0, 3).probability == 0.0

    def test_joint_both_targets_in_sources(self, triangle):
        assert exact_joint_prob(triangle, {1, 2}, 1, 2).probability == 1.0

    def test_joint_one_target_in_sources_reduces(self, triangle):
        joint = exact_joint_prob(triangle, 0, 0, 1).probability
        single = exact_connection_prob(triangle, 0, 1).probability
        assert joint == pytest.approx(single, abs=1e-12)

    def test_triangle_joint(self, triangle):
        assert exact_joint_prob(triangle, 0, 1, 2).probability == pytest.approx(0.5, abs=1e-12)

    def test_path_joint_vs_product(self, path3):
        joint = exact_joint_prob(path3, 0, 1, 2).probability
        assert joint == pytest.approx(0.25, abs=1e-12)
        p1 = exact_connection_prob(path3, 0, 1).probability
        p2 = exact_connection_prob(path3, 0, 2).probability
        assert p1 * p2 == pytest.approx(0.125, abs=1e-12)
        assert joint >= p1 * p2

    def test_memo_cap(self):
        g = complete_graph(6, 0.5)
        with pytest.raises(ResourceLimitError, match="memo"):
            exact_connection_prob(g, 0, 5, memo_cap=2)

    def test_a_query_that_succeeds_stays_within_the_memo_cap(self):
        g = build_grid(GridSpec(4, 5, 0.6)).graph
        entries = len(_joint_engine(g, exact.DEFAULT_MEMO_CAP)._memo)
        engine = _joint_engine(g, entries)  # the cap counts alias entries too
        assert len(engine._memo) <= engine.memo_cap
        assert engine.states_visited < len(engine._memo)  # aliases are present

    def test_a_cap_below_the_entry_count_stops_at_the_cap(self):
        g = build_grid(GridSpec(4, 5, 0.6)).graph
        entries = len(_joint_engine(g, exact.DEFAULT_MEMO_CAP)._memo)
        engine = ExactEngine(g, entries - 1)
        with pytest.raises(ResourceLimitError, match="memo"):
            engine.joint([0], 19, 3)
        assert len(engine._memo) == entries - 1

    def test_every_cap_bounds_the_memo(self):
        g = build_grid(GridSpec(3, 3, 0.6)).graph
        entries = len(_joint_engine(g, exact.DEFAULT_MEMO_CAP, 8, 2)._memo)
        for cap in range(entries):
            engine = ExactEngine(g, cap)
            with pytest.raises(ResourceLimitError, match="memo"):
                engine.joint([0], 8, 2)
            assert len(engine._memo) <= cap
        assert len(_joint_engine(g, entries, 8, 2)._memo) == entries

    def test_deep_recursion_is_a_resource_limit(self):
        g = path_graph(2000)
        with pytest.raises(ResourceLimitError, match="recursion"):
            exact_connection_prob(g, 0, 1999)
        with pytest.raises(ResourceLimitError, match="recursion"):
            exact_joint_prob(g, 0, 1, 1999)

    def test_states_visited_positive(self, triangle):
        assert exact_connection_prob(triangle, 0, 1).states_visited > 0

    def test_pendant_leaves_are_pruned(self):
        path = [(i, i + 1, 0.5) for i in range(5)]
        leaves = [(0, 6, 0.5), (0, 7, 0.5), (0, 8, 0.5), (3, 9, 0.5), (3, 10, 0.5), (3, 11, 0.5)]
        bare = exact_connection_prob(make_graph(6, path), 0, 5)
        hung = exact_connection_prob(make_graph(12, path + leaves), 0, 5)
        assert bare.states_visited == 5
        assert hung.states_visited == bare.states_visited
        assert hung.probability == bare.probability


def _joint_engine(graph, memo_cap, a=19, b=3):
    engine = ExactEngine(graph, memo_cap)
    engine.joint([0], a, b)
    return engine


def _batch_corpus():
    """Seeded graphs with n <= 7, plus unbiased K6 and an unbiased star, whose
    leaves are twins."""
    for n in range(1, 8):
        pairs = n * (n - 1) // 2
        for i in range(3):
            yield random_graph(n, edge_count=min(pairs, n - 1 + 2 * i), biases="uniform", seed=17, index=i)
    yield complete_graph(6, 0.5)
    yield make_graph(7, [(0, leaf, 0.5) for leaf in range(1, 7)])


def _batch_queries(graph, rng):
    """(sources, target sets, within) triples: every target and ordered pair,
    targets inside the sources, a repeated vertex, the empty set, sets of
    three vertices, and repeated sets."""
    n = graph.vertex_count
    vertices = range(n)
    sets = [(t,) for t in vertices] + [(a, b) for a in vertices for b in vertices] + [()]
    sets += [tuple(rng.choices(vertices, k=3)) for _ in range(4)]
    sets += sets[: n + 3]
    for _ in range(2):
        src = set(rng.sample(vertices, rng.randint(1, min(n, 3))))
        yield src, sets, None
        yield src, sets, src | set(rng.sample(vertices, rng.randint(0, n)))


def _one_by_one(engine, src, target_sets, within):
    """Each target set asked alone: connection and joint where they apply,
    else a probabilities call with that one set."""
    values = []
    for ts in target_sets:
        if len(ts) == 1:
            values.append(engine.connection(src, ts[0], within=within))
        elif len(ts) == 2:
            values.append(engine.joint(src, *ts, within=within))
        else:
            values.append(engine.probabilities(src, [ts], within=within)[0])
    return values


def _assert_tables_within_the_cap(engine):
    """The weight of the engine's table cache is the size of the tables it
    holds, and within memo_cap."""
    held = sum(len(masks) for masks, _ in engine._tables.held.values())
    assert engine._tables.weight == held <= engine._tables.cap == engine.memo_cap


class TestBatch:
    """probabilities() changes no value, no state count and no memo entry
    against the same target sets asked one by one; the frontier tables are
    the engine's, kept across calls within memo_cap."""

    def test_batch_is_bit_identical_to_single_queries(self):
        rng = random.Random(5)
        for graph in _batch_corpus():
            batched, single = ExactEngine(graph), ExactEngine(graph)
            for src, target_sets, within in _batch_queries(graph, rng):
                values = batched.probabilities(src, target_sets, within=within)
                _assert_tables_within_the_cap(batched)
                assert values == _one_by_one(single, src, target_sets, within)
                assert batched.states_visited == single.states_visited
                assert list(batched._memo.items()) == list(single._memo.items())

    def test_input_checks(self, triangle):
        engine = ExactEngine(triangle)
        for sources, target_sets, within in (
            ([], [(1,)], None),
            ([0], [(1,), (1, 3)], None),
            ([0], [(-1,)], None),
            ([0, 2], [(1,)], [0, 1]),
            ([0], [(1,)], [0, 5]),
        ):
            with pytest.raises(InputError):
                engine.probabilities(sources, target_sets, within=within)
        assert not engine._tables.held and not engine._memo
        assert engine.probabilities(0, []) == []

    def test_one_target_set_keeps_the_tables_of_single_queries(self):
        # connection, joint and one-set probabilities calls, asked in the same
        # order of two engines, agree bit for bit and keep the same tables
        rng = random.Random(6)
        for graph in _batch_corpus():
            single, one_set = ExactEngine(graph), ExactEngine(graph)
            for src, target_sets, within in _batch_queries(graph, rng):
                for ts in target_sets:
                    if len(ts) == 1:
                        value = single.connection(src, ts[0], within=within)
                    elif len(ts) == 2:
                        value = single.joint(src, *ts, within=within)
                    else:
                        continue
                    assert one_set.probabilities(src, [ts], within=within) == [value]
                    assert one_set.states_visited == single.states_visited
                assert list(one_set._memo.items()) == list(single._memo.items())
                assert list(one_set._tables.held.items()) == list(single._tables.held.items())
                _assert_tables_within_the_cap(one_set)
            assert single._tables.held or not single.states_visited

    def test_tables_within_a_memo_cap_that_raised(self):
        g = build_grid(GridSpec(3, 3, 0.6)).graph
        engine = ExactEngine(g, 20)
        with pytest.raises(ResourceLimitError, match="memo"):
            engine.probabilities([0], [(t,) for t in range(9)])
        assert engine._tables.held
        _assert_tables_within_the_cap(engine)

    def test_tables_within_the_cap_after_the_depth_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(500)
        try:
            engine = ExactEngine(path_graph(600))
            with pytest.raises(ResourceLimitError, match="recursion"):
                engine.probabilities([0], [(1,), (599,)])
        finally:
            sys.setrecursionlimit(limit)
        assert engine._tables.held
        _assert_tables_within_the_cap(engine)


class TestPinnedStates:
    """states_visited counts distinct subproblems expanded, each once under
    its canonical key; the probabilities are pinned bit for bit."""

    def test_grid_4x5(self):
        g = build_grid(GridSpec(4, 5, 0.6)).graph
        conn_r = exact_connection_prob(g, 0, 19)
        joint_r = exact_joint_prob(g, 0, 19, 3)
        assert (conn_r.probability, conn_r.states_visited) == (0.37871217834504634, 5973)
        assert (joint_r.probability, joint_r.states_visited) == (0.21391531130911384, 8717)

    def test_complete_10(self):
        # K10 at bias 1/2 is one twin class, so states are counted up to twin swaps
        g = complete_graph(10, 0.5)
        conn_r = exact_connection_prob(g, 0, 1)
        joint_r = exact_joint_prob(g, 0, 1, 2)
        assert (conn_r.probability, conn_r.states_visited) == (0.9959624525508843, 37)
        assert (joint_r.probability, joint_r.states_visited) == (0.9939567121828077, 65)
        assert (conn_r.probability, joint_r.probability) == pytest.approx(_complete_unbiased(10), abs=1e-12)


def _quadruple_cases():
    """(graph, sources, a, b): one and two sources with targets outside them
    on the batch corpus, and K10 as in the benchmark's fourfunc jobs."""
    for graph in _batch_corpus():
        n = graph.vertex_count
        for src in ([0], [0, n - 1]):
            rest = [v for v in range(n) if v not in src]
            if rest:
                yield graph, src, rest[0], rest[-1]
    for src in ([0], [0, 3]):
        yield complete_graph(10, 0.5), src, 1, 2


class TestProofQuadruplePinned:
    """build_proof_quadruple is the out-neighbourhood law times the recursion's
    values, bit for bit."""

    @pytest.mark.parametrize("case", list(_quadruple_cases()), ids=lambda c: f"n{c[0].vertex_count}-S{c[1]}")
    def test_quadruple_equals_law_times_values(self, case):
        g, src, a, b = case
        quad = build_proof_quadruple(g, src, a, b)
        law = out_neighborhood_distribution(g, src)
        assert quad.ground == law.ground
        rest = [v for v in range(g.vertex_count) if v not in src]
        for i in range(1 << len(law.ground)):
            mass = law.mass[i]
            assert quad.delta[i] == mass
            x = law.vertices_of(i)
            values = ExactEngine(g).probabilities(x, [(a,), (b,), (a, b)], within=rest) if x else [0.0] * 3
            assert [quad.alpha[i], quad.beta[i], quad.gamma[i]] == [mass * p for p in values]


def _complete_unbiased(n):
    """(P(s->t), P(s->a and s->b)) on unbiased K_n, in exact rationals.

    The reachable set from s is a given set A exactly when every edge
    between A and the rest points into A and s reaches all of A inside A;
    f[k] is the chance of the latter for |A| = k.
    """
    half = Fraction(1, 2)
    f = [Fraction(0)] * (n + 1)
    f[1] = Fraction(1)
    for k in range(2, n + 1):
        f[k] = 1 - sum(comb(k - 1, j - 1) * f[j] * half ** (j * (k - j)) for j in range(1, k))
    miss_one = sum(comb(n - 2, j - 1) * f[j] * half ** (j * (n - j)) for j in range(1, n))
    miss_two = sum(comb(n - 3, j - 1) * f[j] * half ** (j * (n - j)) for j in range(1, n - 1))
    return float(1 - miss_one), float(1 - 2 * miss_one + miss_two)


@pytest.mark.parametrize("n", [10, 20, 30])
def test_unbiased_complete_graph_matches_the_closed_form(n):
    g = complete_graph(n, 0.5)
    conn_p, joint_p = _complete_unbiased(n)
    assert exact_connection_prob(g, 0, 1).probability == pytest.approx(conn_p, abs=1e-12)
    assert exact_joint_prob(g, 0, 1, 2).probability == pytest.approx(joint_p, abs=1e-12)
    # any labelling of the source and targets gives the same values
    engine = ExactEngine(g)
    assert engine.connection([n - 1], n // 2) == pytest.approx(conn_p, abs=1e-12)
    assert engine.joint([n // 2], n - 1, 0) == pytest.approx(joint_p, abs=1e-12)


@pytest.mark.parametrize("first, image", [
    (([0], [5]), ([2], [3])),
    (([0, 1], [4, 5]), ([3, 5], [0, 2])),
    (([0], [1, 2]), ([5], [4, 3])),
])
def test_a_twin_image_of_an_earlier_query_expands_no_new_state(first, image):
    engine = ExactEngine(complete_graph(6, 0.5))  # one twin class
    p = engine.probabilities(first[0], [first[1]])[0]
    states, entries = engine.states_visited, len(engine._memo)
    assert engine.probabilities(image[0], [image[1]])[0].hex() == p.hex()
    assert engine.states_visited == states
    assert len(engine._memo) - entries <= 1  # the image's own key, as an alias
    assert engine.probabilities(image[0], [image[1]])[0].hex() == p.hex()  # now a plain hit
    assert len(engine._memo) - entries <= 1


@st.composite
def planted_twin_graph(draw):
    """(graph, planted classes) with n <= 6, labels shuffled so that a
    class's members interleave with the other vertices.

    A class is an independent set or a clique with bias 1/2 inside. Two
    classes are joined completely or not at all, with one probability
    r = P(class i -> class j) from the dyadic biases, so the rows of twins
    hold equal floats and every planted class is a twin class exactly.
    """
    family = draw(st.sampled_from(["complete", "bipartite", "star", "planted"]))
    if family == "complete":
        sizes, cliques, joined = [draw(st.integers(2, 6))], [True], {}
    elif family == "bipartite":
        sizes = [draw(st.integers(1, 3)), draw(st.integers(2, 3))]
        cliques, joined = [False, False], {(0, 1): True}
    elif family == "star":
        sizes, cliques, joined = [1, draw(st.integers(2, 5))], [False, False], {(0, 1): True}
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda z: sum(z) <= 6))
        cliques = [draw(st.booleans()) for _ in sizes]
        joined = {(i, j): draw(st.booleans()) for i, j in itertools.combinations(range(len(sizes)), 2)}
    n = sum(sizes)
    labels = draw(st.permutations(range(n)))
    classes, start = [], 0
    for c in sizes:
        classes.append(sorted(labels[start:start + c]))
        start += c
    dyadic = st.sampled_from([k / 8 for k in range(9)])
    edges = []
    for i, members in enumerate(classes):
        if cliques[i]:
            edges += [(u, v, 0.5) for u, v in itertools.combinations(members, 2)]
    for (i, j), on in joined.items():
        if on:
            r = draw(dyadic)
            edges += [(u, w, r if u < w else 1.0 - r) for u in classes[i] for w in classes[j]]
    return make_graph(n, edges), classes


@settings(max_examples=150, deadline=None)
@given(planted=planted_twin_graph(), data=st.data())
def test_twin_quotient_matches_enumeration(planted, data):
    g, classes = planted
    found = {v: set(members) for members in g.twin_classes for v in members}
    for members in classes:
        assert set(members) <= found[members[0]]
    vertex = st.integers(0, g.vertex_count - 1)
    src = data.draw(st.sets(vertex, min_size=1, max_size=3))
    # targets in a source's class, or anywhere
    a = data.draw(st.sampled_from(sorted(found[min(src)])) | vertex)
    b = data.draw(vertex)
    within = data.draw(st.none() | st.sets(vertex).map(lambda w: w | src))
    kept = g if within is None else make_graph(
        g.vertex_count, [(u, v, p) for u, v, p in g.edges if u in within and v in within]
    )
    engine = ExactEngine(g)
    joint = engine.joint(src, a, b, within=within)
    assert abs(joint - brute_force_prob(kept, conn(src, a) & conn(src, b)).probability) <= 1e-9
    for t in (a, b):
        expected = brute_force_prob(kept, conn(src, t)).probability
        assert abs(engine.connection(src, t, within=within) - expected) <= 1e-9


def _frontier_by_source(graph, remaining, src_mask):
    """The frontier built source by source: walk each source's edges in edge
    order, multiply into a dict, then sort."""
    inward = [[] for _ in range(graph.vertex_count)]
    for u, v, p in graph.edges:
        inward[u].append((v, 1.0 - p))
        inward[v].append((u, 1.0 - (1.0 - p)))
    stay_in = {}
    outside = remaining & ~src_mask
    for u in range(graph.vertex_count):
        if (src_mask >> u) & 1:
            for other, p_in in inward[u]:
                if (outside >> other) & 1:
                    stay_in[other] = stay_in.get(other, 1.0) * p_in
    t = sorted(stay_in)
    return t, [1.0 - stay_in[v] for v in t]


def _assert_frontier_matches_the_per_source_loop(g, remaining, src_mask):
    vertices, probs = _frontier(g, _neighbors_of(g, src_mask) & remaining & ~src_mask, src_mask)
    expected_vertices, expected_probs = _frontier_by_source(g, remaining, src_mask)
    assert vertices == expected_vertices
    assert [p.hex() for p in probs] == [p.hex() for p in expected_probs]  # bit for bit


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_frontier_matches_the_per_source_loop(data):
    g = data.draw(biased_graph(max_vertices=9, max_edges=20))
    n = g.vertex_count
    src_mask = data.draw(st.integers(1, (1 << n) - 1))
    remaining = data.draw(st.integers(0, (1 << n) - 1))  # may cut through any neighbourhood
    _assert_frontier_matches_the_per_source_loop(g, remaining, src_mask)


def test_frontier_matches_the_per_source_loop_on_dense_graphs():
    # many sources per frontier vertex, so the order of the factors shows, and
    # decimal biases, whose complements round (1 - (1 - p) != p for some)
    rng = np.random.default_rng(5)
    for i in range(20):
        shape = random_graph(9, edge_count=30, seed=44, index=i)
        g = make_graph(9, [(u, v, int(rng.integers(0, 1001)) / 1000) for u, v, _ in shape.edges])
        for src_mask, remaining in rng.integers(1, 1 << 9, size=(20, 2)).tolist():
            _assert_frontier_matches_the_per_source_loop(g, remaining, src_mask)


class TestOracleEquivalence:
    def test_connection_and_joint_agree_with_enumeration(self):
        for i in range(25):
            g = random_graph(6, edge_count=9, biases="uniform", seed=77, index=i)
            engine = ExactEngine(g)
            for s, t in itertools.product(range(6), repeat=2):
                rec = engine.connection([s], t)
                enum = brute_force_prob(g, conn(s, t)).probability
                assert abs(rec - enum) <= 1e-9
            for s, a, b in [(0, 1, 2), (3, 4, 5), (5, 0, 3)]:
                rec = engine.joint([s], a, b)
                enum = brute_force_prob(g, conn(s, a) & conn(s, b)).probability
                assert abs(rec - enum) <= 1e-9
            for src in [{0, 1}, {2, 5}, {0, 3, 4}]:
                rec = engine.connection(src, 2)
                enum = brute_force_prob(g, conn(src, 2)).probability
                assert abs(rec - enum) <= 1e-9


@st.composite
def biased_graph(draw, max_vertices=7, max_edges=10):
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)) if pairs else []
    bias = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return make_graph(n, [(u, v, draw(bias)) for u, v in chosen])


@settings(max_examples=150, deadline=None)
@given(g=biased_graph(), data=st.data())
def test_recursion_matches_independent_oracle(g, data):
    vertex = st.integers(0, g.vertex_count - 1)
    src = data.draw(st.sets(vertex, min_size=1, max_size=3))
    a = data.draw(vertex)
    b = data.draw(vertex)
    within = data.draw(st.none() | st.sets(vertex).map(lambda w: w | src))
    # restricting to `within` is the same as deleting the edges that leave it
    kept = g if within is None else make_graph(
        g.vertex_count, [(u, v, p) for u, v, p in g.edges if u in within and v in within]
    )
    engine = ExactEngine(g)
    # the joint query runs first, so the single-target queries read states it memoized
    joint = engine.joint(src, a, b, within=within)
    assert abs(joint - oracle_event_prob(kept, [(src, a), (src, b)])) <= 1e-9
    for t in (a, b):
        assert abs(engine.connection(src, t, within=within) - oracle_event_prob(kept, [(src, t)])) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_cached_component_equals_a_fresh_search(data):
    g = data.draw(biased_graph(max_vertices=9, max_edges=16))
    vertex = st.integers(0, g.vertex_count - 1)
    engine = ExactEngine(g)
    for _ in range(3):
        src = data.draw(st.sets(vertex, min_size=1, max_size=3))
        targets = data.draw(st.lists(st.lists(vertex, max_size=3), min_size=1, max_size=4))
        engine.probabilities(src, targets)
    assert engine._components.held or not engine.states_visited
    for (rest, seed), comp in engine._components.held.items():
        assert seed.bit_count() == 1 and seed & comp and not comp & ~rest
        assert comp == engine._component(rest, seed)


def _table_from_frontier(engine, comp, src_mask, wanted):
    """(key, table) for the frontier of the sources in comp, built afresh:
    _subset_table of _frontier, its twins grouped by (first twin, side of
    the target set) when the graph has twin classes."""
    near = _neighbors_of(engine.graph, src_mask) & comp & ~src_mask
    vertices, probs = _frontier(engine.graph, near, src_mask)
    if not engine._classes:
        return (src_mask, near), exact._subset_table(vertices, probs)
    groups = {}
    for v, p in zip(vertices, probs):
        groups.setdefault((engine._leader[v], wanted >> v & 1), (p, []))[1].append(v)
    return (src_mask, near, wanted & near), exact._subset_table([], [], groups.values())


@settings(max_examples=150, deadline=None)
@given(
    g=st.sampled_from(list(_batch_corpus())) | planted_twin_graph().map(lambda planted: planted[0]),
    data=st.data(),
)
def test_every_stored_table_equals_a_fresh_build_for_each_component_of_its_key(g, data):
    vertex = st.integers(0, g.vertex_count - 1)
    engine = ExactEngine(g)
    asked = []
    build = engine._table

    def table(comp, src_mask, wanted):
        asked.append((comp, src_mask, wanted))
        return build(comp, src_mask, wanted)

    engine._table = table
    for _ in range(3):
        src = data.draw(st.sets(vertex, min_size=1, max_size=3))
        targets = data.draw(st.lists(st.lists(vertex, max_size=3), min_size=1, max_size=4))
        within = data.draw(st.none() | st.sets(vertex).map(lambda w: w | src))
        engine.probabilities(src, targets, within=within)
    keys = set()
    for comp, src_mask, wanted in asked:
        key, (masks, masses) = _table_from_frontier(engine, comp, src_mask, wanted)
        stored_masks, stored_masses = engine._tables.held[key]  # nothing is emptied below the default cap
        assert stored_masks == masks
        assert [m.hex() for m in stored_masses] == [m.hex() for m in masses]  # bit for bit
        keys.add(key)
    assert keys == set(engine._tables.held)


class _WatchedCache(exact._Bounded):
    """A bounded cache that records its largest weight and, in its dict, how
    often it was emptied."""

    class _Held(dict):
        clears = 0

        def clear(self):
            self.clears += 1
            super().clear()

    def __init__(self, cap):
        super().__init__(cap)
        self.held = self._Held()
        self.peak = 0

    def keep(self, key, value, weight=1):
        super().keep(key, value, weight)
        self.peak = max(self.peak, self.weight)


def _spider(legs, length):
    """Paths of `length` edges hung from vertex 0, with distinct biases so no
    two vertices are twins; returns the graph and the far end of each leg."""
    edges, ends, nxt = [], [], 1
    for leg in range(legs):
        prev = 0
        for j in range(length):
            edges.append((prev, nxt, round(0.3 + 0.05 * leg + 0.01 * j, 3)))
            prev, nxt = nxt, nxt + 1
        ends.append(prev)
    return make_graph(nxt, edges), ends


_SPIDER = _spider(6, 3)


class TestCacheBounds:
    """Each of the engine's caches (components, N(S), frontier tables) is
    bounded by memo_cap in weight, the tables weighing their entries; it is
    emptied when a new value would take it past the cap, and changes no
    value, no state count and no memo entry."""

    @pytest.mark.parametrize("cache", ["_components", "_near", "_tables"])
    @pytest.mark.parametrize("graph, sources, target_sets", [
        (_SPIDER[0], [0], [tuple(_SPIDER[1])]),  # six components at the first state, lone vertices in each table
        (complete_graph(6, 0.5), [0], [(1, 2), (3,)]),  # one twin class
    ], ids=["spider", "K6"])
    def test_a_tight_cap_reports_as_the_default(self, cache, graph, sources, target_sets):
        # each cache gets its own cap, down to 0, under the default memo cap:
        # through memo_cap alone N(S) is never emptied in a run the memo fits,
        # as it holds at most one entry per expanded state
        default = ExactEngine(graph)
        values = default.probabilities(sources, target_sets)
        uncapped = getattr(default, cache).weight
        assert uncapped > 0
        for cap in range(uncapped + 2):
            engine = ExactEngine(graph)
            watched = _WatchedCache(cap)
            setattr(engine, cache, watched)
            assert engine.probabilities(sources, target_sets) == values
            assert engine.states_visited == default.states_visited
            assert list(engine._memo.items()) == list(default._memo.items())
            held = watched.held.values()
            assert watched.weight == (sum(len(masks) for masks, _ in held) if cache == "_tables" else len(held))
            assert watched.peak <= cap
            assert (watched.held.clears > 0) == (cap < uncapped)
            assert getattr(ExactEngine(graph, cap), cache).cap == cap

    def test_tables_emptied_under_a_memo_cap_the_memo_fits(self):
        # K10's joint holds 304 memo entries and tables of 516 entries
        graph = complete_graph(10, 0.5)
        default = ExactEngine(graph)
        value = default.joint(0, 1, 2)
        assert len(default._memo) == 304 and default._tables.weight == 516
        for cap in (304, 305):
            engine = ExactEngine(graph, cap)
            assert engine.joint(0, 1, 2) == value
            assert engine.states_visited == default.states_visited
            assert list(engine._memo.items()) == list(default._memo.items())
            _assert_tables_within_the_cap(engine)
        with pytest.raises(ResourceLimitError, match="memo"):
            ExactEngine(graph, 303).joint(0, 1, 2)

    def test_a_cap_of_zero_keeps_nothing(self):
        engine = ExactEngine(build_grid(GridSpec(3, 3, 0.6)).graph, 0)
        with pytest.raises(ResourceLimitError, match="memo"):
            engine.joint([0], 8, 2)
        for cache in (engine._components, engine._near, engine._tables):
            assert not cache.held and not cache.weight


def _fan(g):
    """Source 0 and hub g + 1, each joined to every one of the g middle
    vertices at that vertex's own bias, so no two vertices are twins: the
    first state's frontier is all g middle vertices, a table of 2^g entries."""
    edges = []
    for v in range(1, g + 1):
        bias = 0.2 + 0.5 * v / g
        edges += [(0, v, bias), (v, g + 1, bias)]
    return make_graph(g + 2, edges)


class TestTableLimit:
    """A frontier table of more than max(memo_cap, DEFAULT_MEMO_CAP) entries
    is refused before it is built: its size is counted first."""

    def test_a_table_past_the_limit_is_refused_before_it_is_built(self):
        for memo_cap in (exact.DEFAULT_MEMO_CAP, 10):  # a small cap keeps the default limit
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match="frontier table of 8388608 entries"):
                    ExactEngine(_fan(23), memo_cap).connection(0, 24)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 24  # the table's lists alone would take hundreds of MiB

    def test_the_size_counts_lone_vertices_and_group_counts(self):
        # 2^2 subsets of the lone vertices times (2+1)(1+1) group counts
        args = ([1, 2], [0.5, 0.25], [(0.5, [3, 4]), (0.5, [5])])
        masks, masses = exact._subset_table(*args, 24)
        assert len(masks) == len(masses) == 24
        with pytest.raises(ResourceLimitError, match="24 entries exceeds the limit of 23"):
            exact._subset_table(*args, 23)

    def test_out_neighborhood_law_of_a_wide_star(self):
        star = make_graph(24, [(0, v, 0.2 + 0.5 * v / 23) for v in range(1, 24)])
        assert all(len(members) == 1 for members in star.twin_classes)
        with pytest.raises(ResourceLimitError, match="frontier table"):
            out_neighborhood_distribution(star, 0)


class TestNegativeCaps:
    """A negative cap is an input error, found before any other check; a cap
    of 0 is still an exhausted resource."""

    def test_negative_memo_cap(self, triangle):
        with pytest.raises(InputError, match="memo_cap"):
            ExactEngine(triangle, -1)
        with pytest.raises(InputError, match="memo_cap"):
            exact_connection_prob(triangle, 9, 1, memo_cap=-1)
        with pytest.raises(ResourceLimitError, match="memo"):
            exact_connection_prob(triangle, 0, 1, memo_cap=0)

    def test_negative_enum_cap(self, triangle):
        with pytest.raises(InputError, match="enum_cap"):
            _enumeration_chunks(triangle, -1, 0b111)
        with pytest.raises(InputError, match="enum_cap"):
            brute_force_prob(triangle, conn(0, 9), enum_cap=-1)
        with pytest.raises(ResourceLimitError, match="cap 0"):
            brute_force_prob(triangle, conn(0, 1), enum_cap=0)


class TestStructuralInvariants:
    def test_source_monotonicity(self):
        for i in range(8):
            g = random_graph(6, edge_count=8, biases="uniform", seed=88, index=i)
            engine = ExactEngine(g)
            small = {0}
            for extra in ({1}, {1, 2}, {3, 4}):
                big = small | extra
                for t in range(6):
                    assert engine.connection(small, t) <= engine.connection(big, t) + 1e-12

    def test_edges_inside_sources_are_irrelevant(self):
        g = make_graph(4, [(0, 2, 0.6), (1, 3, 0.3), (2, 3, 0.5)])
        g_extra = make_graph(4, [(0, 1, 0.9), (0, 2, 0.6), (1, 3, 0.3), (2, 3, 0.5)])
        for t in (2, 3):
            p = exact_connection_prob(g, {0, 1}, t).probability
            q = exact_connection_prob(g_extra, {0, 1}, t).probability
            assert abs(p - q) <= 1e-12

    def test_probability_clamped_to_unit_interval(self):
        for i in range(6):
            g = random_graph(5, edge_count=8, biases="uniform", seed=13, index=i)
            for s, t in itertools.product(range(5), repeat=2):
                p = exact_connection_prob(g, s, t).probability
                assert 0.0 <= p <= 1.0

    def test_empty_graph(self):
        g = make_graph(3, [])
        assert exact_connection_prob(g, 0, 0).probability == 1.0
        assert exact_connection_prob(g, 0, 1).probability == 0.0

    def test_invalid_ids_rejected(self, triangle):
        with pytest.raises(InputError):
            exact_connection_prob(triangle, 0, 9)
        with pytest.raises(InputError):
            exact_connection_prob(triangle, {0, 9}, 1)
