import math
from fractions import Fraction

import numpy as np
import pytest

from orientprob import (
    EstimateReport,
    EventExpr,
    GridSpec,
    InputError,
    RandomStream,
    build_grid,
    estimate_event,
    estimate_slack,
    exact_connection_prob,
    find_nonmonotonicity_witness,
    grid_reach_stats,
    make_graph,
    random_graph,
)
from orientprob.graphs import event_indicator_many
from orientprob.montecarlo import (
    _compare_planes,
    _plane_counts,
    _thresholds,
    draw_orientations,
    paired_slacks,
    sampled_counts,
    stream_sample_counts,
)


def conn(s, t):
    return EventExpr.connection(s, t)


def stream_counts(graph, events, samples, seed, streams):
    """The sum over streams t of x_t.T @ x_t, where x_t is the indicator
    matrix of stream t's samples drawn alone."""
    total = np.zeros((len(events), len(events)))
    for t, n_t in enumerate(stream_sample_counts(samples, streams)):
        x = event_indicator_many(graph, draw_orientations(graph, [(RandomStream(seed, t), n_t)]), events)
        total += x.T.astype(np.int64) @ x.astype(np.int64)
    return total


class TestStreamCounts:
    def test_partition_sums_to_samples(self):
        for samples in (1, 7, 100, 12345):
            for streams in (1, 3, 8):
                counts = stream_sample_counts(samples, streams)
                assert sum(counts) == samples
                assert max(counts) - min(counts) <= 1

    def test_streams_past_the_last_sample_are_not_listed(self, triangle):
        assert len(stream_sample_counts(5, 10**6)) == 5
        events = [conn(0, 1), conn(0, 1) & conn(0, 2)]
        (at_samples,) = sampled_counts(triangle, [events], 37, seed=4, streams=37)
        (at_million,) = sampled_counts(triangle, [events], 37, seed=4, streams=10**6)
        assert np.array_equal(at_million, at_samples)
        assert np.array_equal(at_samples, stream_counts(triangle, events, 37, 4, 37))


class TestEstimateEvent:
    def test_record_output_is_pinned(self):
        d = EstimateReport(0.625, 1000, 0.015, (0.5956, 0.6544), 42, 8).as_dict()
        assert d == {"estimate": 0.625, "samples": 1000, "std_error": 0.015, "ci95": [0.5956, 0.6544],
                     "seed": 42, "streams": 8}
        assert list(d) == ["estimate", "samples", "std_error", "ci95", "seed", "streams"]
        assert type(d["ci95"]) is list

    def test_certain_event(self):
        g = make_graph(2, [(0, 1, 1.0)])
        r = estimate_event(g, conn(0, 1), samples=500, seed=1)
        assert r.estimate == 1.0
        assert r.std_error == 0.0
        assert r.ci95 == (1.0, 1.0)

    def test_triangle_close_to_exact(self, triangle):
        r = estimate_event(triangle, conn(0, 1), samples=100_000, seed=31)
        assert abs(r.estimate - 0.625) <= 0.006  # about four standard errors

    def test_repeat_runs_bit_identical(self, triangle):
        a = estimate_event(triangle, conn(0, 1), samples=50_000, seed=9, streams=4)
        b = estimate_event(triangle, conn(0, 1), samples=50_000, seed=9, streams=4)
        assert a == b

    def test_deterministic_for_each_stream_count(self, triangle):
        for streams in (1, 4, 8):
            a = estimate_event(triangle, conn(0, 1), samples=20_000, seed=9, streams=streams)
            b = estimate_event(triangle, conn(0, 1), samples=20_000, seed=9, streams=streams)
            assert a == b

    def test_chunk_boundaries_do_not_change_results(self, triangle):
        # 100k samples on one stream crosses the internal chunk size
        a = estimate_event(triangle, conn(0, 1), samples=100_000, seed=12, streams=1)
        import orientprob.montecarlo as mc

        assert 100_000 > mc._CHUNK_ROWS
        assert 0.6 < a.estimate < 0.65

    def test_uniform_cap_does_not_change_samples(self, monkeypatch):
        import orientprob.grid as grid
        import orientprob.montecarlo as mc

        g = random_graph(6, edge_count=9, biases="uniform", seed=5)
        events = [conn(0, 5), conn({1, 2}, 4) & conn({1, 2}, 3)]
        box = build_grid(GridSpec(8, 7, 0.5))
        a, b = box.id_of(0, 2), box.id_of(7, 4)

        def run():
            counts = sampled_counts(g, [events], 500, seed=3, streams=3)
            return (counts, grid_reach_stats(build_grid(GridSpec(4, 3, 0.6)), 0, 500, seed=3, streams=2),
                    [find_nonmonotonicity_witness(box, a, b, "toward-high", budget=10_000, seed=s) for s in (3, 24)])

        counts, stats, witnesses = run()
        assert all(w.found for w in witnesses)
        assert witnesses[1].attempts == 332  # past the blocks of 64 and 128 rows
        for cap in (1, 1000, 2000):  # from one word of 64 samples per block to several
            monkeypatch.setattr(mc, "_CHUNK_WORDS", cap)
            capped_counts, capped_stats, capped_witnesses = run()
            assert np.array_equal(capped_counts, counts)
            assert capped_stats == stats
            assert capped_witnesses == witnesses
        monkeypatch.undo()
        # search blocks capped at one word and at seven, whole words either
        # way, and chunks of 64 lanes, 448 lanes and one lane
        m = box.graph.edge_count
        for cells in (64 * m, 448 * m, 1):
            monkeypatch.setattr(grid, "_SEARCH_CELLS", cells)
            assert run()[2] == witnesses

    def test_ci_contains_estimate(self, triangle):
        r = estimate_event(triangle, conn(0, 1), samples=10_000, seed=2)
        assert r.ci95[0] <= r.estimate <= r.ci95[1]

    def test_bad_arguments(self, triangle):
        with pytest.raises(InputError):
            estimate_event(triangle, conn(0, 1), samples=0, seed=1)
        with pytest.raises(InputError):
            estimate_event(triangle, conn(0, 1), samples=10, seed=1, streams=0)

    def test_coverage_calibration(self, triangle):
        hits = 0
        for seed in range(200):
            r = estimate_event(triangle, conn(0, 1), samples=10_000, seed=seed)
            if r.ci95[0] <= 0.625 <= r.ci95[1]:
                hits += 1
        assert hits >= 180


class TestEstimateSlack:
    def test_source_equals_target_is_exactly_zero(self, triangle):
        slack, se = estimate_slack(triangle, [0], 0, 1, samples=5_000, seed=3)
        assert slack == 0.0
        assert se == 0.0

    def test_disconnected_target_is_exactly_zero(self):
        g = make_graph(3, [(0, 1, 0.5)])
        slack, se = estimate_slack(g, [0], 2, 1, samples=5_000, seed=3)
        assert slack == 0.0

    def test_triangle_slack_within_four_standard_errors(self, triangle):
        slack, se = estimate_slack(triangle, [0], 1, 2, samples=100_000, seed=21, streams=4)
        assert se > 0
        assert abs(slack - 0.109375) <= 4 * se

    def test_paired_estimator_accuracy_on_random_graph(self):
        g = random_graph(6, edge_count=9, biases="uniform", seed=303, index=0)
        from orientprob import exact_joint_prob

        exact = (
            exact_joint_prob(g, 0, 3, 4).probability
            - exact_connection_prob(g, 0, 3).probability
            * exact_connection_prob(g, 0, 4).probability
        )
        slack, se = estimate_slack(g, [0], 3, 4, samples=100_000, seed=22)
        assert abs(slack - exact) <= 4 * max(se, 1e-4)

    def test_needs_two_samples(self, triangle):
        with pytest.raises(InputError):
            estimate_slack(triangle, [0], 1, 2, samples=1, seed=1)

    def test_within_four_standard_errors_for_most_seeds(self, triangle):
        exact = 0.109375
        hits = sum(
            abs(slack - exact) <= 4 * se
            for slack, se in (
                estimate_slack(triangle, [0], 1, 2, samples=10_000, seed=seed)
                for seed in range(40)
            )
        )
        assert hits >= 38  # at least 95 percent of seeded runs

    def test_small_runs_have_honest_standard_errors(self, triangle):
        # every sample counts toward the standard error, so 50 samples give
        # intervals that cover the exact slack about 95 percent of the time
        runs = [estimate_slack(triangle, [0], 1, 2, samples=50, seed=seed) for seed in range(200)]
        assert all(se > 0 for _, se in runs)
        assert sum(abs(slack - 0.109375) <= 1.96 * se for slack, se in runs) >= 170


@pytest.mark.parametrize("samples", [1, 7, 250, 1001, 999])
def test_paired_slacks_match_a_scalar_loop(samples):
    rng = np.random.default_rng(samples)
    cols = rng.random((samples, 4)) < [0.0, 0.3, 0.8, 1.0]
    x = cols.astype(np.float64)
    joint, est, se = paired_slacks(x.T @ x, samples)
    for i in range(4):
        for j in range(4):
            ci, cj = cols[:, i], cols[:, j]
            cij = ci & cj
            p_i, p_j = int(ci.sum()) / samples, int(cj.sum()) / samples
            assert joint[i, j] == int(cij.sum()) / samples
            assert est[i, j] == int(cij.sum()) / samples - p_i * p_j
            uv = (ci - p_i) * (cj - p_j)
            assert math.isclose(se[i, j], np.std(uv) / math.sqrt(samples), rel_tol=1e-9, abs_tol=0.0)


class TestSampledCounts:
    def test_stream_zero_alone_is_streams_one(self, triangle):
        # sample i comes from stream (i mod streams) at counter (i div streams):
        # on 4 streams, stream 0's 10 samples are the first 10 of streams=1
        (counts4,) = sampled_counts(triangle, [[conn(0, 1)]], 40, seed=5, streams=4)
        (counts_single,) = sampled_counts(triangle, [[conn(0, 1)]], 10, seed=5, streams=1)
        assert np.array_equal(counts4, stream_counts(triangle, [conn(0, 1)], 40, 5, 4))
        assert np.array_equal(counts_single, stream_counts(triangle, [conn(0, 1)], 10, 5, 1))

    @pytest.mark.parametrize("samples, streams, block_words", [
        (1000, 1, None),
        (1000, 3, None),
        (1000, 3, 4),  # blocks of 256 rows, one joining the end of stream 0 to the start of stream 1
        (500, 70, None),  # a stream count that is not a multiple of 64, under one word per stream
        (5, 8, None),  # streams 5-7 come after the last sample and draw none
        (70_001, 2, None),  # past the first block of 65,536 rows
    ])
    def test_counts_are_the_sum_over_streams(self, monkeypatch, samples, streams, block_words):
        # each group's counts are the sum of x_t.T @ x_t over the streams t,
        # x_t read from stream t drawn alone
        import orientprob.montecarlo as mc

        g = random_graph(6, edge_count=9, biases="uniform", seed=5)
        events = [conn(0, 5), conn({1, 2}, 4) & conn({1, 2}, 3), conn(3, 0)]
        if block_words is not None:
            planes = int(_plane_counts(_thresholds(g.bias_array)).sum())
            monkeypatch.setattr(mc, "_CHUNK_WORDS", block_words * max(planes, g.edge_count))
        groups = [events, events[1:], [conn(4, 2)]]
        counts = sampled_counts(g, groups, samples, seed=11, streams=streams)
        for group, got in zip(groups, counts):
            assert np.array_equal(got, stream_counts(g, group, samples, 11, streams))
        # the blocks hold the streams' draws one after another, in order
        blocks = list(mc._sampled_blocks(g, samples, 11, streams))
        alone = [draw_orientations(g, [(RandomStream(11, t), n_t)]).unpack()
                 for t, n_t in enumerate(stream_sample_counts(samples, streams))]
        assert np.array_equal(np.concatenate([batch.unpack() for batch in blocks]), np.concatenate(alone))
        if 1 < streams < samples:
            # some block holds the draws of two streams
            ends = np.cumsum([batch.k for batch in blocks])
            stream_ends = np.cumsum([len(rows) for rows in alone])[:-1]
            assert any(lo < end < hi for lo, hi in zip([0, *ends[:-1]], ends) for end in stream_ends)


DRAW_BIASES = [0.0, 1.0, 0.5, 0.25, 0.75, 0.1, 1 / 3, 0.6, 2.0**-60, 1 - 2.0**-53]


def _expected_threshold(p):
    """ceil(p * 2^53) in exact rational arithmetic, and its count of binary
    digits after the point up to the last 1 (0 for the constant edges)."""
    q = min(math.ceil(Fraction(p) * 2**53), 2**53)
    if q in (0, 2**53):
        return q, 0
    return q, 53 - ((q & -q).bit_length() - 1)


def _plane_words(prefixes, count):
    """(W, 1, count) plane words for lanes whose uniforms start with the
    given count-bit prefixes, most significant plane first; W words hold
    the lanes 64 to a word, the unused lanes of the last word being 0."""
    words = -(-len(prefixes) // 64)
    lanes = np.zeros((count, 64 * words), dtype=bool)
    for i in range(count):
        lanes[i, : len(prefixes)] = (np.asarray(prefixes) >> (count - 1 - i)) & 1
    packed = np.packbits(lanes, axis=1, bitorder="little").view("<u8")
    return np.ascontiguousarray(packed.T)[:, None, :]


def _lane_bits(words, lanes):
    return np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")[:lanes].astype(bool)


class TestPlaneDraw:
    @pytest.mark.parametrize("p", DRAW_BIASES)
    def test_plane_comparison_keeps_the_law_of_each_bias(self, p):
        q, count = _expected_threshold(p)
        thresholds = _thresholds(np.array([p]))
        assert (int(thresholds[0]), int(_plane_counts(thresholds)[0])) == (q, count)
        if count <= 12:
            # every pattern of the compared planes, once: the lanes that come
            # out true must weigh exactly q / 2^53
            lanes = 1 << count
            out = _compare_planes(_plane_words(list(range(lanes)), count), np.array([q]))
            assert int(_lane_bits(out[:, 0], lanes).sum()) << (53 - count) == q
            return
        top = q >> (53 - count)  # the compared bits: q / 2^53 to `count` binary digits
        assert format(top, f"0{count}b") == format(q, "053b")[:count]
        rng = np.random.default_rng(count)
        draws = [int(x) for x in rng.integers(0, 1 << count, size=300, dtype=np.uint64)]
        prefixes = [x for x in draws + [top - 1, top, top + 1, 0, (1 << count) - 1] if 0 <= x < 1 << count]
        out = _compare_planes(_plane_words(prefixes, count), np.array([q]))
        assert _lane_bits(out[:, 0], len(prefixes)).tolist() == [x < top for x in prefixes]

    @pytest.mark.parametrize("p", DRAW_BIASES + [0.3, 0.999, 1e-300, 5e-324])
    def test_threshold_is_the_law_of_a_double_uniform(self, p):
        # Generator.random() is (raw >> 11) / 2^53, so it lies below p exactly
        # when the 53-bit integer j = raw >> 11 lies below q
        q = int(_thresholds(np.array([p]))[0])
        rng = np.random.default_rng(7)
        js = [int(j) for j in rng.integers(0, 2**53, size=200)] + [0, q - 1, q, q + 1, 2**53 - 1]
        for j in js:
            if 0 <= j < 2**53:
                assert (j * 2.0**-53 < p) == (j < q)

    def test_draw_reads_words_by_sample_word_then_edge_then_plane(self):
        biases = [0.5, 0.0, 0.3, 0.25, 1.0, 0.6]
        g = make_graph(7, [(e, e + 1, p) for e, p in enumerate(biases)])
        count = 150  # two whole words of samples and part of a third
        batch = draw_orientations(g, [(RandomStream(11, 2), count)])
        assert batch.shape == (count, len(biases))
        plan = [_expected_threshold(p) for p in biases]
        raw = iter(RandomStream(11, 2).words(3 * sum(c for _, c in plan)).tolist())
        expected = np.zeros((3 * 64, len(biases)), dtype=bool)
        for w in range(3):
            for e, (q, c) in enumerate(plan):
                planes = [next(raw) for _ in range(c)]
                for lane in range(64):
                    prefix = 0
                    for word in planes:
                        prefix = 2 * prefix + ((word >> lane) & 1)
                    expected[64 * w + lane, e] = q == 2**53 or prefix < q >> (53 - c)
        assert np.array_equal(batch.unpack(), expected[:count])
        assert all(0 <= col < 1 << count for col in batch.columns)

    def test_joined_draws_stack_the_separate_draws(self):
        g = random_graph(6, edge_count=9, biases="uniform", seed=5)
        counts = [50, 64, 70, 1, 130, 3]
        joined = draw_orientations(g, [(RandomStream(9, t), c) for t, c in enumerate(counts)])
        separate = [draw_orientations(g, [(RandomStream(9, t), c)]).unpack() for t, c in enumerate(counts)]
        assert joined.shape == (sum(counts), g.edge_count)
        assert np.array_equal(joined.unpack(), np.vstack(separate))
        assert all(0 <= col < 1 << sum(counts) for col in joined.columns)
        # whole words continue a stream's sequence
        stream = RandomStream(9, 0)
        assert draw_orientations(g, [(stream, 128), (stream, 70)]) == draw_orientations(g, [(RandomStream(9, 0), 198)])

    def test_drawn_frequencies_match_the_biases(self):
        g = make_graph(6, [(0, e + 1, p) for e, p in enumerate([0.5, 0.1, 1 / 3, 0.6, 0.999])])
        freq = draw_orientations(g, [(RandomStream(4), 200_000)]).unpack().mean(axis=0)
        assert np.all(np.abs(freq - g.bias_array) <= 5 * np.sqrt(g.bias_array * (1 - g.bias_array) / 200_000))
