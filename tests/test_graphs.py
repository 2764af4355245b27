import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientprob import (
    EventExpr,
    GridSpec,
    InputError,
    Orientation,
    RandomStream,
    build_grid,
    complete_graph,
    holds,
    make_graph,
    parse_graph,
    path_graph,
    percolation_cluster_distribution,
    random_graph,
    reach_many,
    reachable_set,
    sample_orientation,
)
from orientprob.graphs import PackedBatch, event_indicator_many
from orientprob.montecarlo import draw_orientations


class TestParseGraph:
    def test_single_edge(self):
        g = parse_graph("0 1 0.7")
        assert g.vertex_count == 2
        assert g.edges == make_graph(2, [(0, 1, 0.7)]).edges

    def test_endpoints_canonicalized_bias_kept(self):
        # bias still refers to the low -> high direction
        g = parse_graph("1 0 0.7")
        assert g.edges[0] == (0, 1, 0.7)

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(InputError, match="line 1"):
            parse_graph("0 0 0.5")

    def test_comments_blanks_and_header(self):
        g = parse_graph("# a comment\n\nn 5\n0 1 0.5\n# mid comment\n2 3 0.25\n")
        assert g.vertex_count == 5
        assert g.edge_count == 2

    def test_vertex_count_inferred_without_header(self):
        assert parse_graph("0 4 0.5").vertex_count == 5

    def test_id_out_of_header_range(self):
        with pytest.raises(InputError, match="line 2"):
            parse_graph("n 3\n0 3 0.5")

    def test_duplicate_edge(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_graph("0 1 0.5\n1 0 0.25")

    def test_bias_out_of_range(self):
        with pytest.raises(InputError, match="line 1"):
            parse_graph("0 1 1.5")

    def test_malformed_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_graph("0 1 0.5\n0 1")

    def test_non_numeric(self):
        with pytest.raises(InputError, match="line 1"):
            parse_graph("0 x 0.5")

    def test_header_after_edges_rejected(self):
        with pytest.raises(InputError, match="header"):
            parse_graph("0 1 0.5\nn 4")

    def test_edge_order_is_file_order(self):
        g = parse_graph("2 3 0.5\n0 1 0.5")
        assert [(e.low, e.high) for e in g.edges] == [(2, 3), (0, 1)]


class TestSampling:
    def test_all_biases_one_gives_all_forward(self):
        g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        o = sample_orientation(g, RandomStream(0))
        assert o.bits == (1, 1)

    def test_all_biases_zero_gives_all_backward(self):
        g = make_graph(3, [(0, 1, 0.0), (1, 2, 0.0)])
        o = sample_orientation(g, RandomStream(0))
        assert o.bits == (0, 0)

    def test_same_seed_and_index_repeat_identically(self):
        g = random_graph(6, edge_count=9, seed=5, index=0)
        o1 = sample_orientation(g, RandomStream(123, 4))
        o2 = sample_orientation(g, RandomStream(123, 4))
        assert o1 == o2

    def test_different_indices_differ(self):
        g = random_graph(6, edge_count=9, seed=5, index=0)
        samples = {sample_orientation(g, RandomStream(123, k)).bits for k in range(8)}
        assert len(samples) > 1

    def test_bit_frequencies_match_biases(self):
        g = make_graph(4, [(0, 1, 0.9), (0, 2, 0.31), (1, 3, 0.5), (2, 3, 1.0)])
        n = 10_000
        stream = RandomStream(2024, 0)
        counts = np.zeros(g.edge_count)
        for _ in range(n):
            counts += np.array(sample_orientation(g, stream).bits)
        for e, (_, _, bias) in enumerate(g.edges):
            se = math.sqrt(bias * (1 - bias) / n)
            assert abs(counts[e] / n - bias) <= 5 * se + 1e-12


class TestReachability:
    def test_one_step(self):
        g = make_graph(2, [(0, 1, 0.5)])
        assert reachable_set(g, Orientation((1,)), {0}) == {0, 1}

    def test_no_backward_traversal(self):
        g = make_graph(2, [(0, 1, 0.5)])
        assert reachable_set(g, Orientation((1,)), {1}) == {1}

    def test_directed_cycle(self, triangle):
        # 0->1, 1->2, 2->0: bits (1, 0, 1) over edges (0,1), (0,2), (1,2)
        o = Orientation((1, 0, 1))
        assert reachable_set(triangle, o, {0}) == {0, 1, 2}

    def test_invalid_id(self, triangle):
        with pytest.raises(InputError):
            reachable_set(triangle, Orientation((1, 1, 1)), {3})

    def test_wrong_orientation_length(self, triangle):
        with pytest.raises(InputError):
            reachable_set(triangle, Orientation((1, 1)), {0})


class TestHolds:
    def test_self_connection_always_holds(self, triangle):
        ev = EventExpr.connection(0, 0)
        for bits in [(0, 0, 0), (1, 1, 1), (1, 0, 1)]:
            assert holds(triangle, Orientation(bits), ev)

    def test_backward_edge_fails(self):
        g = make_graph(2, [(0, 1, 0.5)])
        assert not holds(g, Orientation((0,)), EventExpr.connection(0, 1))

    def test_conjunction_along_cycle(self, triangle):
        o = Orientation((1, 0, 1))  # 0->1->2->0
        ev = EventExpr.connection(0, 2) & EventExpr.connection(1, 0)
        assert holds(triangle, o, ev)

    def test_empty_atom_rejected(self):
        with pytest.raises(InputError):
            EventExpr(atoms=((frozenset(), 1),))


@st.composite
def graph_and_orientation(draw):
    n = draw(st.integers(2, 7))
    max_edges = n * (n - 1) // 2
    m = draw(st.integers(0, min(10, max_edges)))
    seed = draw(st.integers(0, 10_000))
    g = random_graph(n, edge_count=m, seed=seed)
    bits = tuple(draw(st.integers(0, 1)) for _ in range(m))
    return g, Orientation(bits)


@settings(max_examples=60, deadline=None)
@given(data=graph_and_orientation(), seta=st.sets(st.integers(0, 6), min_size=1, max_size=4))
def test_reachability_monotone_in_sources(data, seta):
    g, o = data
    a = {v % g.vertex_count for v in seta}
    b = a | {min(a) ^ 1 if (min(a) ^ 1) < g.vertex_count else min(a)}
    ra = reachable_set(g, o, a)
    rb = reachable_set(g, o, b)
    assert a <= ra
    assert ra <= rb


@settings(max_examples=60, deadline=None)
@given(data=graph_and_orientation(), seta=st.sets(st.integers(0, 6), min_size=1, max_size=4))
def test_reachability_idempotent(data, seta):
    g, o = data
    a = {v % g.vertex_count for v in seta}
    r = reachable_set(g, o, a)
    assert reachable_set(g, o, r) == r


def test_reach_many_matches_single_bfs():
    g = random_graph(7, edge_count=11, seed=99)
    stream = RandomStream(8, 0)
    bits = stream.uniforms((64, g.edge_count)) < g.bias_array
    matrix = reach_many(g, PackedBatch.pack(bits), {0, 3}).unpack()
    for i in range(64):
        single = reachable_set(g, Orientation(tuple(int(b) for b in bits[i])), {0, 3})
        assert {int(v) for v in np.nonzero(matrix[i])[0]} == single


@st.composite
def graph_with_isolated_vertices(draw, max_edges):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)) if pairs else []
    return make_graph(n, [(u, v, 0.5) for u, v in chosen])


@settings(max_examples=80, deadline=None)
@given(
    g=graph_with_isolated_vertices(max_edges=20),
    k=st.sampled_from([0, 1, 7, 8, 63, 64, 65, 130]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_reach_many_equals_scalar_reach_on_every_row(g, k, seed, data):
    sources = data.draw(st.sets(st.integers(0, g.vertex_count - 1), min_size=1, max_size=3))
    rng = np.random.default_rng(seed)
    bits = rng.random((k, g.edge_count)) < rng.random()
    matrix = reach_many(g, PackedBatch.pack(bits), sources).unpack()
    assert matrix.shape == (k, g.vertex_count) and matrix.dtype == bool
    for i in range(k):
        single = reachable_set(g, Orientation(tuple(int(b) for b in bits[i])), sources)
        assert set(np.flatnonzero(matrix[i]).tolist()) == single


@settings(max_examples=80, deadline=None)
@given(
    g=graph_with_isolated_vertices(max_edges=20),
    k=st.sampled_from([0, 1, 7, 8, 63, 64, 65, 130]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_reach_many_on_a_packed_batch_equals_its_bool_matrix(g, k, seed, data):
    sources = data.draw(st.sets(st.integers(0, g.vertex_count - 1), min_size=1, max_size=3))
    rng = np.random.default_rng(seed)
    bits = rng.random((k, g.edge_count)) < rng.random()
    packed = PackedBatch.pack(bits)
    assert packed.shape == bits.shape and np.array_equal(packed.unpack(), bits)
    drawn = draw_orientations(g, [(RandomStream(seed, 1), k)])
    assert PackedBatch.pack(drawn.unpack()) == drawn
    # the vertex columns, left packed, read one at a time as they unpack
    columns = reach_many(g, packed, sources)
    assert isinstance(columns, PackedBatch) and columns.shape == (k, g.vertex_count)
    assert all(0 <= c < 1 << k for c in columns.columns)
    matrix = columns.unpack()
    for v in range(g.vertex_count):
        assert np.array_equal(columns.column(v), matrix[:, v])


@settings(max_examples=60, deadline=None)
@given(
    g=graph_with_isolated_vertices(max_edges=12),
    k=st.sampled_from([0, 1, 7, 9, 64]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_event_indicator_many_equals_holds_on_every_row(g, k, seed, data):
    vertex = st.integers(0, g.vertex_count - 1)
    source_sets = data.draw(st.lists(st.frozensets(vertex, min_size=1, max_size=3), min_size=1, max_size=3))
    atoms = st.lists(st.tuples(st.sampled_from(source_sets), vertex), min_size=1, max_size=3)
    events = [EventExpr(tuple(a)) for a in data.draw(st.lists(atoms, max_size=4))]
    src = source_sets[0]
    events.append(EventExpr(((src, 0), (src, g.vertex_count - 1))))  # one source set in two atoms
    rng = np.random.default_rng(seed)
    bits = rng.random((k, g.edge_count)) < rng.random()
    ind = event_indicator_many(g, PackedBatch.pack(bits), events)
    assert ind.shape == (k, len(events)) and ind.dtype == bool
    for i in range(k):
        orientation = Orientation(tuple(int(b) for b in bits[i]))
        assert ind[i].tolist() == [holds(g, orientation, event) for event in events]
    assert event_indicator_many(g, PackedBatch.pack(bits), []).shape == (k, 0)


def _open_cluster(g, open_bits, root):
    adj = {v: [] for v in range(g.vertex_count)}
    for is_open, (u, v, _) in zip(open_bits, g.edges):
        if is_open:
            adj[u].append(v)
            adj[v].append(u)
    seen = {root}
    stack = [root]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


@settings(max_examples=40, deadline=None)
@given(
    g=graph_with_isolated_vertices(max_edges=10),
    density=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    data=st.data(),
)
def test_percolation_cluster_law_matches_scalar_bfs(g, density, data):
    root = data.draw(st.integers(0, g.vertex_count - 1))
    expected: dict[int, float] = {}
    for open_bits in itertools.product((0, 1), repeat=g.edge_count):
        w = math.prod(density if b else 1.0 - density for b in open_bits)
        mask = sum(1 << v for v in _open_cluster(g, open_bits, root))
        expected[mask] = expected.get(mask, 0.0) + w
    law = percolation_cluster_distribution(g, root, density)
    assert law.mass.keys() == expected.keys()
    for mask, w in expected.items():
        assert law.mass[mask] == pytest.approx(w, abs=1e-12)


class TestTwinClasses:
    def test_unbiased_complete_graph_is_one_class(self):
        assert complete_graph(7, 0.5).twin_classes == (tuple(range(7)),)

    def test_a_bias_other_than_one_half_leaves_singletons(self):
        # the label order breaks the symmetry: P(u -> w) depends on u < w
        for g in (complete_graph(7, 0.6), build_grid(GridSpec(4, 5, 0.6)).graph):
            assert g.twin_classes == tuple((v,) for v in range(g.vertex_count))

    def test_path_ends_are_false_twins_at_bias_one_half(self):
        assert path_graph(3, 0.5).twin_classes == ((0, 2), (1,))
        # at 0.6, P(0 -> 1) = 0.6 but P(2 -> 1) = 0.4
        assert path_graph(3, 0.6).twin_classes == ((0,), (1,), (2,))

    def test_box_2x2_has_two_diagonal_classes(self):
        assert build_grid(GridSpec(2, 2, 0.5)).graph.twin_classes == ((0, 3), (1, 2))

    def test_isolated_vertices_form_one_class(self):
        g = make_graph(6, [(1, 2, 0.3), (2, 5, 0.5)])
        assert g.twin_classes == ((0, 3, 4), (1,), (2,), (5,))

    def test_true_twins_need_bias_one_half_between_them(self):
        # 0 and 1 are adjacent and see 2 alike; only the 0-1 bias decides
        shared = [(0, 2, 0.25), (1, 2, 0.25)]
        assert make_graph(3, shared + [(0, 1, 0.5)]).twin_classes == ((0, 1), (2,))
        assert make_graph(3, shared + [(0, 1, 0.75)]).twin_classes == ((0,), (1,), (2,))
