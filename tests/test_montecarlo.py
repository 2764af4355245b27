import numpy as np
import pytest

from orientprob import (
    EventExpr,
    GridSpec,
    InputError,
    build_grid,
    estimate_event,
    estimate_slack,
    exact_connection_prob,
    find_nonmonotonicity_witness,
    grid_reach_stats,
    make_graph,
    random_graph,
)
from orientprob.montecarlo import (
    batch_means_std_error,
    paired_slacks,
    sampled_event_columns,
    stream_sample_counts,
)


def conn(s, t):
    return EventExpr.connection(s, t)


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
        at_samples = sampled_event_columns(triangle, events, 37, seed=4, streams=37)
        at_million = sampled_event_columns(triangle, events, 37, seed=4, streams=10**6)
        assert np.array_equal(at_million, at_samples)


class TestEstimateEvent:
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
        box = GridSpec(8, 7, 0.5)
        box_grid = build_grid(box)
        a, b = box_grid.id_of(0, 2), box_grid.id_of(7, 4)

        def run():
            cols = sampled_event_columns(g, events, 500, seed=3, streams=3)
            return (cols, grid_reach_stats(GridSpec(4, 3, 0.6), 0, 500, seed=3, streams=2),
                    find_nonmonotonicity_witness(box, a, b, "toward-high", budget=10_000, seed=3))

        cols, stats, witness = run()
        assert witness.found
        for cap in (1, 20, 1000):  # from one row per chunk to dozens
            monkeypatch.setattr(mc, "_CHUNK_UNIFORMS", cap)
            capped_cols, capped_stats, capped_witness = run()
            assert np.array_equal(capped_cols, cols)
            assert capped_stats == stats
            assert capped_witness == witness
        monkeypatch.undo()
        for block in (1, 7):
            monkeypatch.setattr(grid, "_SEARCH_BLOCK", block)
            assert run()[2] == witness

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


@pytest.mark.parametrize("samples, batches", [(1, 100), (7, 100), (250, 100), (1001, 100), (999, 7)])
def test_paired_slacks_match_the_scalar_batch_loop(samples, batches):
    rng = np.random.default_rng(samples)
    cols = rng.random((samples, 4)) < [0.0, 0.3, 0.8, 1.0]
    est, se = paired_slacks(cols, batches)
    b = min(batches, samples)
    bounds = [i * samples // b for i in range(b + 1)]
    for i in range(4):
        for j in range(4):
            ci, cj = cols[:, i], cols[:, j]
            cij = ci & cj
            expected = int(cij.sum()) / samples - (int(ci.sum()) / samples) * (int(cj.sum()) / samples)
            batch_slacks = np.empty(b)
            for k in range(b):
                lo, hi = bounds[k], bounds[k + 1]
                nk = hi - lo
                batch_slacks[k] = (
                    int(cij[lo:hi].sum()) / nk
                    - (int(ci[lo:hi].sum()) / nk) * (int(cj[lo:hi].sum()) / nk)
                )
            assert est[i, j] == expected
            assert se[i, j] == batch_means_std_error(batch_slacks)


class TestSampledColumns:
    def test_global_order_is_stream_independent_per_contract(self, triangle):
        # sample i comes from stream (i mod streams) at counter (i div streams):
        # the first samples of each stream appear interleaved at the start
        cols4 = sampled_event_columns(triangle, [conn(0, 1)], 40, seed=5, streams=4)
        cols_single = [
            sampled_event_columns(triangle, [conn(0, 1)], 10, seed=5, streams=1)
            for _ in range(1)
        ]
        # stream 0's own sequence (streams=1 uses only stream 0)
        assert (cols4[0::4, 0] == cols_single[0][:, 0]).all()
