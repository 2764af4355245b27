"""Seeded Monte Carlo estimation of event probabilities and correlation slacks.

Sample i is drawn from stream (i mod streams) at counter (i div streams), so
results are bit-identical for a fixed (seed, samples, streams) no matter how
the streams are scheduled physically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError
from .graphs import EventExpr, Graph, RandomStream, event_indicator_many
from .graphs import reach_many  # noqa: F401 -- perfbench's tracing test reads montecarlo.reach_many

_CHUNK_ROWS = 1 << 16
_CHUNK_UNIFORMS = 1 << 22  # float64 draws held at once: 32 MiB


def _chunk_rows(row_cap: int, edge_count: int) -> int:
    """Rows per sampling chunk: at most row_cap, and few enough that the
    chunk draws at most _CHUNK_UNIFORMS uniforms. Streams are consumed in C
    order, so the chunk size never changes the samples."""
    return max(1, min(row_cap, _CHUNK_UNIFORMS // max(edge_count, 1)))


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    samples: int
    std_error: float
    ci95: tuple[float, float]
    seed: int
    streams: int

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "samples": self.samples,
            "std_error": self.std_error,
            "ci95": [self.ci95[0], self.ci95[1]],
            "seed": self.seed,
            "streams": self.streams,
        }


def stream_sample_counts(samples: int, streams: int) -> list[int]:
    """How many of the `samples` global indices land on each stream, for the
    first min(samples, streams) streams; any stream past those draws none."""
    return [(samples - t + streams - 1) // streams for t in range(min(samples, streams))]


def _sampled_blocks(
    graph: Graph, samples: int, seed: int, streams: int, row_cap: int = _CHUNK_ROWS
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The seeded orientations as blocks (rows, bits): the global indices of
    the block's samples and their (len(rows), m) direction bits. Sample i is
    drawn from stream i mod streams at counter i div streams; blocks run
    stream by stream and hold at most _chunk_rows(row_cap, m) rows.

    The counts are checked on the call, not on the first block, so a bad
    count is reported before a caller sizes anything by it.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if streams < 1:
        raise InputError("streams must be >= 1")
    m = graph.edge_count
    biases = graph.bias_array
    rows_per_chunk = _chunk_rows(row_cap, m)

    def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for t, n_t in enumerate(stream_sample_counts(samples, streams)):
            stream = RandomStream(seed, t)
            for done in range(0, n_t, rows_per_chunk):
                c = min(rows_per_chunk, n_t - done)
                yield t + np.arange(done, done + c) * streams, stream.uniforms((c, m)) < biases

    return blocks()


def sampled_event_columns(
    graph: Graph,
    events: Iterable[EventExpr],
    samples: int,
    seed: int,
    streams: int = 1,
) -> np.ndarray:
    """Indicator matrix of shape (samples, len(events)), rows in global
    sample order. All events are evaluated on the same orientations."""
    events = list(events)
    blocks = _sampled_blocks(graph, samples, seed, streams)
    for ev in events:
        ev.validate_for(graph)
    out = np.zeros((samples, len(events)), dtype=bool)
    for rows, bits in blocks:
        out[rows] = event_indicator_many(graph, bits, events)
    return out


def estimate_event(
    graph: Graph, event: EventExpr, samples: int, seed: int, streams: int = 1
) -> EstimateReport:
    """Mean of the event indicator over seeded sampled orientations."""
    cols = sampled_event_columns(graph, [event], samples, seed, streams)
    hits = int(cols[:, 0].sum())
    est = hits / samples
    se = math.sqrt(est * (1.0 - est) / samples)
    ci = (est - 1.96 * se, est + 1.96 * se)
    return EstimateReport(est, samples, se, ci, seed, streams)


def batch_means_std_error(batch_values: np.ndarray) -> float:
    """Standard error of the mean from nonoverlapping batch means."""
    b = len(batch_values)
    if b < 2:
        return 0.0
    return float(np.std(batch_values, ddof=1) / math.sqrt(b))


def paired_slacks(cols: np.ndarray, batches: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Paired estimates of P(i and j) - P(i)P(j) for every pair of columns of
    a (samples, k) indicator matrix, all events read on the same samples.

    Returns two (k, k) arrays: the estimates, and their standard errors from
    the same slack computed on min(batches, samples) nonoverlapping batches.
    Counts are exact integers in float64, so every estimate is the same
    float as the scalar expression count_ij/n - (count_i/n)(count_j/n).
    """
    samples = cols.shape[0]
    x = cols.astype(np.float64)
    p = x.sum(axis=0) / samples
    est = (x.T @ x) / samples - p[:, None] * p[None, :]
    b = min(batches, samples)
    bounds = [i * samples // b for i in range(b + 1)]
    sizes = np.diff(bounds)[:, None]
    batch_p = np.add.reduceat(x, bounds[:-1], axis=0) / sizes
    batch_joint = np.stack([x[lo:hi].T @ x[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    batch_slacks = batch_joint / sizes[:, :, None] - batch_p[:, :, None] * batch_p[:, None, :]
    per_pair = np.ascontiguousarray(batch_slacks.transpose(1, 2, 0))
    se = np.array([[batch_means_std_error(vals) for vals in row] for row in per_pair])
    return est, se


def estimate_slack(
    graph: Graph,
    sources: Iterable[int] | int,
    target_a: int,
    target_b: int,
    samples: int,
    seed: int,
    streams: int = 1,
    batches: int = 100,
) -> tuple[float, float]:
    """Paired estimate of P(S->a and S->b) - P(S->a)P(S->b).

    All three indicators come from the same sampled orientations. The
    standard error is computed from nonoverlapping batch means.
    """
    if samples < 2:
        raise InputError("slack estimation needs samples >= 2")
    ev_a = EventExpr.connection(sources, target_a)
    ev_b = EventExpr.connection(sources, target_b)
    cols = sampled_event_columns(graph, [ev_a, ev_b], samples, seed, streams)
    est, se = paired_slacks(cols, batches)
    return float(est[0, 1]), float(se[0, 1])
