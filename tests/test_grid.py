import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orientprob.grid as grid_module
from orientprob import (
    GridReachStats,
    GridSpec,
    InputError,
    Orientation,
    Witness,
    WitnessSearchResult,
    build_grid,
    find_nonmonotonicity_witness,
    grid_reach_stats,
    reachable_set,
)
from orientprob.graphs import PackedBatch, reach_many
from orientprob.montecarlo import _sampled_blocks

# documented fixed seed for the 8x7 witness search
WITNESS_SEED = 0


class TestBuildGrid:
    def test_two_by_two_counts(self):
        g = build_grid(GridSpec(2, 2, 0.5)).graph
        assert g.vertex_count == 4
        assert g.edge_count == 4

    def test_eight_by_seven_counts(self):
        g = build_grid(GridSpec(8, 7, 0.5)).graph
        assert g.vertex_count == 56
        assert g.edge_count == 8 * 6 + 7 * 7  # vertical + horizontal

    def test_rightward_is_low_to_high(self):
        grid = build_grid(GridSpec(3, 2, 0.7))
        lo = grid.id_of(0, 0)
        hi = grid.id_of(1, 0)
        assert (lo, hi, 0.7) in [tuple(e) for e in grid.graph.edges]

    def test_upward_is_low_to_high(self):
        grid = build_grid(GridSpec(3, 2, 0.7))
        assert grid.id_of(0, 1) > grid.id_of(0, 0)

    def test_degree_bounds(self):
        g = build_grid(GridSpec(5, 4, 0.5)).graph
        deg = [0] * g.vertex_count
        for u, v, _ in g.edges:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= 4
        grid = build_grid(GridSpec(5, 4, 0.5))
        for x, y in [(0, 0), (4, 0), (0, 3), (4, 3)]:
            assert deg[grid.id_of(x, y)] == 2

    def test_zero_dimension_rejected(self):
        with pytest.raises(InputError):
            GridSpec(0, 3, 0.5)

    def test_grid_points_are_placed_by_the_spec_alone(self):
        spec = GridSpec(5, 4, 0.5)
        grid = build_grid(spec)
        for x, y in [(0, 0), (4, 0), (2, 1), (4, 3)]:
            assert spec.id_of(x, y) == grid.id_of(x, y)
            assert spec.xy_of(spec.id_of(x, y)) == (x, y)
        for x, y in [(5, 0), (0, 4), (-1, 0), (0, -1)]:
            with pytest.raises(InputError, match=rf"coordinate \({x},{y}\) outside 5x4"):
                spec.id_of(x, y)


class TestReachStats:
    @pytest.mark.parametrize("w,h", [(1, 1), (2, 2), (5, 3), (8, 7)])
    def test_bias_one_fills_grid(self, w, h):
        st = grid_reach_stats(build_grid(GridSpec(w, h, 1.0)), 0, samples=50, seed=4)
        assert st.mean_reach == w * h
        assert st.max_reach == w * h
        assert st.boundary_frac == 1.0

    @pytest.mark.parametrize("w,h", [(2, 2), (5, 3), (8, 7)])
    def test_bias_zero_traps_origin(self, w, h):
        st = grid_reach_stats(build_grid(GridSpec(w, h, 0.0)), 0, samples=50, seed=4)
        assert st.mean_reach == 1.0
        assert st.max_radius == 0
        assert st.boundary_frac == 0.0

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 7), st.integers(1, 7)) | st.sampled_from([(257, 1), (1, 300)]),
           bias=st.floats(0.0, 1.0), origin=st.integers(0, 10**6), samples=st.integers(1, 200),
           seed=st.integers(0, 2**32), streams=st.integers(1, 3))
    def test_radii_equal_the_int64_products(self, dims, bias, origin, samples, seed, streams):
        grid = build_grid(GridSpec(*dims, bias))
        origin %= grid.graph.vertex_count
        dist = grid.chebyshev_distances(origin)
        radii = np.concatenate([(reach_many(grid.graph, batch, origin).unpack() * dist).max(axis=1)
                                for _, batch in _sampled_blocks(grid.graph, samples, seed, streams)])
        got = grid_reach_stats(grid, origin, samples, seed, streams)
        assert (got.mean_radius, got.max_radius) == (int(radii.sum()) / samples, int(radii.max()))

    def test_one_block_holds_no_int64_matrix(self):
        grid = build_grid(GridSpec(16, 16, 0.5))
        grid_reach_stats(grid, 0, samples=64, seed=1)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            grid_reach_stats(grid, 0, samples=1 << 16, seed=1)  # one block of 65,536 rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three bytes per (row, vertex): the bool reach matrix, its one-byte
        # products with the distances and room for the packed columns; an
        # int64 product matrix alone takes eight
        assert peak < 3 * (1 << 16) * 256

    def test_one_block_peaks_below_two_bytes_per_row_and_vertex(self):
        grid = build_grid(GridSpec(16, 16, 0.5))
        grid_reach_stats(grid, 0, samples=64, seed=1)
        tracemalloc.start()
        try:
            grid_reach_stats(grid, 0, samples=1 << 16, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # radii and boundary hits come from the packed columns; only the
        # sizes unpack the bool reach matrix, one byte per (row, vertex)
        assert peak < 2 * (1 << 16) * 256

    def test_deterministic_given_seed(self):
        a = grid_reach_stats(build_grid(GridSpec(6, 6, 0.5)), 0, samples=2_000, seed=9, streams=4)
        b = grid_reach_stats(build_grid(GridSpec(6, 6, 0.5)), 0, samples=2_000, seed=9, streams=4)
        assert a == b

    def test_record_output_is_pinned(self):
        st = GridReachStats(p=0.3, width=8, height=6, samples=2000, seed=4, streams=3, mean_reach=5.5,
                            max_reach=17, mean_radius=1.25, max_radius=4, boundary_frac=0.125)
        d = st.as_dict()
        assert d == {"p": 0.3, "width": 8, "height": 6, "samples": 2000, "seed": 4, "streams": 3,
                     "mean_reach": 5.5, "max_reach": 17, "mean_radius": 1.25, "max_radius": 4,
                     "boundary_frac": 0.125}
        assert list(d) == ["p", "width", "height", "samples", "seed", "streams", "mean_reach", "max_reach",
                           "mean_radius", "max_radius", "boundary_frac"]
        assert st.csv_row() == "0.3,8,6,2000,4,3,5.5,17,1.25,4,0.125"
        assert GridReachStats.CSV_HEADER == ",".join(d)

    def test_csv_row_matches_header(self):
        st = grid_reach_stats(build_grid(GridSpec(3, 3, 0.5)), 0, samples=100, seed=1, streams=3)
        row = dict(zip(st.CSV_HEADER.split(","), st.csv_row().split(",")))
        assert len(row) == len(st.csv_row().split(","))
        assert (float(row["p"]), row["streams"]) == (0.5, "3")

    def test_mean_reach_matches_percolation_cluster_mean(self):
        # unbiased orientation reach should match density-1/2 cluster sizes;
        # independent cluster sampler: open edges + BFS, plain python
        w = h = 8
        spec = GridSpec(w, h, 0.5)
        samples = 20_000
        grid = build_grid(spec)
        st = grid_reach_stats(grid, 0, samples=samples, seed=77)

        graph = grid.graph
        rng = np.random.default_rng(123456)
        sizes = np.empty(samples)
        edges = [(u, v) for u, v, _ in graph.edges]
        for i in range(samples):
            open_e = rng.random(len(edges)) < 0.5
            adj = {v: [] for v in range(graph.vertex_count)}
            for is_open, (u, v) in zip(open_e, edges):
                if is_open:
                    adj[u].append(v)
                    adj[v].append(u)
            seen = {0}
            stack = [0]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            sizes[i] = len(seen)
        se = np.sqrt(sizes.var(ddof=1) / samples) * 2  # both sides fluctuate
        assert abs(st.mean_reach - sizes.mean()) <= 4 * se

    def test_boundary_fraction_trend_in_bias(self):
        # sanity trend, not a theorem: fraction should not decrease with p
        fractions = []
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            st = grid_reach_stats(build_grid(GridSpec(8, 8, p)), 0, samples=20_000, seed=50)
            fractions.append(st.boundary_frac)
        se = 4 / np.sqrt(20_000)
        for lo, hi in zip(fractions, fractions[1:]):
            assert hi >= lo - se


class TestWitnessSearch:
    def test_found_on_wide_box_and_self_certifies(self):
        spec = GridSpec(8, 7, 0.5)
        grid = build_grid(spec)
        a = grid.id_of(0, 2)
        b = grid.id_of(7, 4)
        res = find_nonmonotonicity_witness(grid, a, b, "toward-high", budget=1_000_000, seed=WITNESS_SEED)
        assert res.found
        assert res.attempts <= 1_000_000
        w = res.witness
        assert w.verify(grid.graph)
        u, v, _ = grid.graph.edges[w.edge_index]
        assert u // spec.width == v // spec.width  # a horizontal (rightward) flip
        assert w.orientation.bits[w.edge_index] == 0  # currently leftward

    def test_single_edge_box_witness_flips_its_one_edge(self):
        # a -> b holds only while the one edge points right; a leftward flip breaks it
        res = find_nonmonotonicity_witness(
            build_grid(GridSpec(2, 1, 0.5)), 0, 1, "toward-low", budget=1_000, seed=0
        )
        assert res.found
        assert res.witness.edge_index == 0 and res.witness.orientation.bits == (1,)

    def test_leftward_flips_also_break_connections(self):
        grid = build_grid(GridSpec(8, 7, 0.5))
        res = find_nonmonotonicity_witness(
            grid, grid.id_of(0, 2), grid.id_of(7, 4), "toward-low", budget=100_000, seed=1
        )
        assert res.found
        assert res.witness.verify(grid.graph)

    def test_search_is_deterministic(self):
        grid = build_grid(GridSpec(8, 7, 0.5))
        a, b = grid.id_of(0, 2), grid.id_of(7, 4)
        r1 = find_nonmonotonicity_witness(grid, a, b, "toward-high", budget=10_000, seed=3)
        r2 = find_nonmonotonicity_witness(grid, a, b, "toward-high", budget=10_000, seed=3)
        assert r1 == r2

    # 1 cell: blocks of one word and one lane per chunk; 25,000 cells: on
    # the 8x7 box blocks of 64, 128 and then 256 rows, split into chunks of
    # 257 lanes; None: the default budget
    @pytest.mark.parametrize("cells", [1, 25_000, None])
    @pytest.mark.parametrize("case", [
        (8, 7, 0.5, (0, 2), (7, 4), "toward-high", 0, True),
        (8, 7, 0.5, (0, 2), (7, 4), "toward-low", 1, True),
        (5, 4, 0.6, (0, 1), (4, 2), "toward-high", 2, True),
        (5, 4, 0.4, (0, 3), (4, 0), "toward-low", 3, True),
        (3, 3, 0.5, (0, 0), (2, 2), "toward-high", 4, True),
        (2, 1, 0.5, (0, 0), (1, 0), "toward-low", 5, True),  # the first connected orientation is the witness
        (2, 2, 0.5, (0, 0), (1, 0), "toward-high", 6, False),  # a rightward flip only opens a -> b: never lost
        (8, 1, 0.5, (0, 0), (7, 0), "toward-low", 7, True),  # most blocks hold no connected orientation
        (8, 7, 0.5, (0, 2), (7, 4), "toward-high", 24, True),  # attempt 332, in the third block
    ])
    def test_batched_flips_equal_a_scalar_scan(self, monkeypatch, cells, case):
        width, height, bias, a_xy, b_xy, flip, seed, found = case
        if cells is not None:
            monkeypatch.setattr(grid_module, "_SEARCH_CELLS", cells)
        grid = build_grid(GridSpec(width, height, bias))
        graph = grid.graph
        a, b = a_xy[1] * width + a_xy[0], b_xy[1] * width + b_xy[0]
        budget = 3_000
        desired = 1 if flip == "toward-high" else 0
        horizontal = [e for e, (u, v, _) in enumerate(graph.edges) if v == u + 1 and u // width == v // width]

        def scalar_scan():
            # one reachable_set per flip, over the same orientations in the same
            # order, drawn as one block; each draw's slice expanded into the
            # global index of every sample
            for rows, batch in _sampled_blocks(graph, budget, seed, 1):
                indices = [i for run in rows for i in range(run.start, run.stop, run.step)]
                for r, row in zip(indices, batch.unpack()):
                    orientation = Orientation(tuple(int(x) for x in row))
                    if b not in reachable_set(graph, orientation, a):
                        continue
                    for e in horizontal:
                        if orientation.bits[e] != desired and b not in reachable_set(
                            graph, orientation.with_flipped(e), a
                        ):
                            return WitnessSearchResult(Witness(orientation, e, flip, a, b), int(r) + 1, budget, seed)
            return WitnessSearchResult(None, budget, budget, seed)

        expected = scalar_scan()
        assert find_nonmonotonicity_witness(grid, a, b, flip, budget, seed) == expected
        assert expected.found == found

    def test_no_block_or_lanes_matrix_exceeds_the_cell_budget(self, monkeypatch):
        # the largest bool matrices the search builds are the blocks it unpacks and the lanes it packs
        sizes = []
        pack, unpack = PackedBatch.pack, PackedBatch.unpack

        def spy_pack(bits):
            sizes.append(bits.size)
            return pack(bits)

        def spy_unpack(batch):
            sizes.append(batch.k * len(batch.columns))
            return unpack(batch)

        monkeypatch.setattr(PackedBatch, "pack", staticmethod(spy_pack))
        monkeypatch.setattr(PackedBatch, "unpack", spy_unpack)
        grid = build_grid(GridSpec(30, 30, 0.5))
        res = find_nonmonotonicity_witness(grid, grid.id_of(0, 15), grid.id_of(29, 15), "toward-high", 100_000, 3)
        assert res.found and res.attempts == 5
        assert sizes and max(sizes) <= grid_module._SEARCH_CELLS

    def test_bad_direction_rejected(self):
        with pytest.raises(InputError):
            find_nonmonotonicity_witness(
                build_grid(GridSpec(2, 2, 0.5)), 0, 3, "sideways", budget=10, seed=0
            )

    @pytest.mark.parametrize("width, height, a, b, message", [
        (4, 4, 5, 5, "same vertex"),
        (1, 6, 0, 5, "no horizontal edge"),
        (1, 1, 0, 0, "same vertex"),
    ])
    def test_a_search_with_no_possible_witness_is_refused_before_any_draw(
        self, monkeypatch, width, height, a, b, message
    ):
        def fail(*args, **kwargs):
            pytest.fail("the search drew orientations")

        monkeypatch.setattr(grid_module, "draw_orientations", fail)
        with pytest.raises(InputError, match=message):
            find_nonmonotonicity_witness(build_grid(GridSpec(width, height, 0.5)), a, b, "toward-low", 10, 0)

    @pytest.mark.parametrize("width, a, b, flip, side", [
        (12, 0, 5, "toward-high", "right"),
        (6, 5, 0, "toward-low", "left"),
        (2, 0, 1, "toward-high", "right"),
        (2, 1, 0, "toward-low", "left"),
    ])
    def test_a_flip_toward_b_on_a_one_row_box_is_refused_before_any_draw(self, monkeypatch, width, a, b, flip, side):
        # the row is the only a -> b path, and while a -> b holds its edges already point toward b
        def fail(*args, **kwargs):
            pytest.fail("the search drew orientations")

        monkeypatch.setattr(grid_module, "draw_orientations", fail)
        message = f"on a {width}x1 box with b {side} of a, a {flip} flip never breaks a -> b"
        with pytest.raises(InputError, match=message):
            find_nonmonotonicity_witness(build_grid(GridSpec(width, 1, 0.5)), a, b, flip, 10, 0)

    @pytest.mark.parametrize("width, a, b, flip, attempts", [
        (12, 0, 5, "toward-low", 18),
        (6, 5, 0, "toward-high", 28),
    ])
    def test_a_flip_away_from_b_on_a_one_row_box_finds_a_witness(self, width, a, b, flip, attempts):
        grid = build_grid(GridSpec(width, 1, 0.5))
        res = find_nonmonotonicity_witness(grid, a, b, flip, budget=1_000_000, seed=0)
        assert res.found and res.attempts == attempts
        assert res.witness.verify(grid.graph)
        assert min(a, b) <= res.witness.edge_index < max(a, b)  # edge i joins x = i and x = i + 1

    def test_bad_vertex_rejected(self):
        with pytest.raises(InputError):
            find_nonmonotonicity_witness(
                build_grid(GridSpec(2, 2, 0.5)), 0, 99, "toward-high", budget=10, seed=0
            )
