"""Seeded Monte Carlo estimation of event probabilities and correlation slacks.

Sample i is drawn from stream (i mod streams) at counter (i div streams), so
results are bit-identical for a fixed (seed, samples, streams) no matter how
the streams are scheduled physically.

Orientations are drawn as packed columns, 64 samples to a word. An edge of
bias p is low -> high exactly when a 53-bit uniform j lies below
q = ceil(p * 2^53), the law of a double uniform j / 2^53 compared with p.
For each word of samples the edge reads as many raw Philox words (bit
planes) as q / 2^53 has binary digits, and compares them with those digits,
most significant first: bias 1/2 costs one bit per sample, biases 0 and 1
none. A stream's words go word of samples, then edge, then plane, and every
draw from a stream but its last covers whole words of samples, so the block
size never changes the samples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .graphs import EventExpr, Graph, PackedBatch, RandomStream, event_indicator_many
from .graphs import reach_many  # noqa: F401 -- perfbench's tracing test reads montecarlo.reach_many

_CHUNK_ROWS = 1 << 16
_CHUNK_WORDS = 1 << 20  # raw words, and words of packed lanes, held per block: 8 MiB each
_WORD_BITS = 64
_UNIFORM_BITS = 53  # bits of a double uniform in [0, 1)
_ONE = 1 << _UNIFORM_BITS
_ALL_LANES = np.uint64((1 << _WORD_BITS) - 1)


def _thresholds(biases: np.ndarray) -> np.ndarray:
    """q = ceil(p * 2^53) per edge, as int64: p * 2^53 is exact, so a 53-bit
    uniform j is below q exactly when j / 2^53 < p."""
    return np.minimum(np.ceil(biases * float(_ONE)), float(_ONE)).astype(np.int64)


def _plane_counts(q: np.ndarray) -> np.ndarray:
    """Bit planes read per word of samples: the binary digits of q / 2^53
    up to its last 1, so 53 minus the trailing zeros of q; 0 for q = 0 and
    q = 2^53, whose edges are constant."""
    trailing_zeros = np.frexp((q & -q).astype(np.float64))[1] - 1
    return np.where((q == 0) | (q == _ONE), 0, _UNIFORM_BITS - trailing_zeros)


def _compare_planes(planes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Bit-sliced comparison of 64 uniforms per word with thresholds.

    planes has shape (W, G, L): for word w of lanes and edge g, plane i holds
    bit 52 - i of each lane's uniform j, most significant first. Each q[g]
    is 2^53 or a multiple of 2^(53 - L), so the first L bits decide j < q.
    Returns (W, G) words with a lane's bit set when j < q[g].
    """
    words, _, count = planes.shape
    if count == 0:
        return np.where(q == _ONE, _ALL_LANES, np.uint64(0))[None, :].repeat(words, axis=0)
    # the last compared digit of q is a 1 and the bits after it decide nothing
    out = ~planes[:, :, count - 1]
    for i in reversed(range(count - 1)):
        r = planes[:, :, i]
        # a digit 1 of q: j < q if j's bit is 0, else decided by later bits;
        # a digit 0: j >= q if j's bit is 1, else decided by later bits
        out = np.where(((q >> (_UNIFORM_BITS - 1 - i)) & 1) == 1, ~r | out, ~r & out)
    return out


def draw_orientations(graph: Graph, draws: Sequence[tuple[RandomStream, int]]) -> PackedBatch:
    """The next `count` orientations of each (stream, count) of draws, one
    draw after another, as packed columns: bit i of column e is the
    direction of edge e in the i-th, 1 with probability bias_e,
    independently.

    A draw reads ceil(count / 64) whole words of samples from its stream and
    drops the unused lanes of the last, so a stream's draws continue one
    sequence only while each holds a multiple of 64 samples.
    """
    q = _thresholds(graph.bias_array)
    counts = _plane_counts(q)
    offsets = np.cumsum(counts) - counts
    planes_per_word = int(counts.sum())
    # not np.unique, whose first call in a process imports numpy.ma
    groups = [(c, np.flatnonzero(counts == c)) for c in sorted(set(counts.tolist()))]
    total = sum(count for _, count in draws)
    words_total = -(-total // _WORD_BITS)
    lanes = np.zeros((words_total + 1, graph.edge_count), dtype=np.uint64)  # a spare word for the carry
    start = 0
    for stream, count in draws:
        words = -(-count // _WORD_BITS)
        raw = stream.words(words * planes_per_word).reshape(words, planes_per_word)
        drawn = np.empty((words, graph.edge_count), dtype=np.uint64)
        for c, edges in groups:
            drawn[:, edges] = _compare_planes(raw[:, offsets[edges, None] + np.arange(c)], q[edges])
        if count % _WORD_BITS:
            drawn[-1] &= np.uint64((1 << count % _WORD_BITS) - 1)
        word, shift = divmod(start, _WORD_BITS)
        lanes[word : word + words] |= drawn << np.uint64(shift)
        if shift:
            lanes[word + 1 : word + words + 1] |= drawn >> np.uint64(_WORD_BITS - shift)
        start += count
    data = np.ascontiguousarray(lanes[:words_total].T).astype("<u8", copy=False).tobytes()
    step = 8 * words_total
    columns = tuple(int.from_bytes(data[e * step : (e + 1) * step], "little") for e in range(graph.edge_count))
    return PackedBatch(columns, total)


def _check_sample_counts(samples: int, streams: int, minimum: int = 1) -> None:
    if samples < minimum:
        raise InputError(f"samples must be >= {minimum}")
    if streams < 1:
        raise InputError("streams must be >= 1")


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    samples: int
    std_error: float
    ci95: tuple[float, float]
    seed: int
    streams: int

    def as_dict(self) -> dict:
        return {**asdict(self), "ci95": list(self.ci95)}


def stream_sample_counts(samples: int, streams: int) -> list[int]:
    """How many of the `samples` global indices land on each stream, for the
    first min(samples, streams) streams; any stream past those draws none."""
    return [(samples - t + streams - 1) // streams for t in range(min(samples, streams))]


def _sampled_blocks(graph: Graph, samples: int, seed: int, streams: int) -> Iterator[PackedBatch]:
    """The seeded orientations as packed blocks, the streams in order: sample
    i is drawn from stream i mod streams at counter i div streams, and a
    block may join the end of one stream to the start of the next. A block
    holds at most _CHUNK_ROWS rows, and no more than _CHUNK_WORDS raw words
    or words of lanes, but at least one word of samples. Every draw but a
    stream's last holds whole words, so the block size never changes the
    samples. grid._doubling_blocks draws stream 0 by the same rules in
    doubling blocks for the witness search; a change to the order here must
    change it there too.

    The counts are checked on the call, not on the first block, so a bad
    count is reported before a caller sizes anything by it.
    """
    _check_sample_counts(samples, streams)
    planes = int(_plane_counts(_thresholds(graph.bias_array)).sum())
    words_per_sample_word = max(planes, graph.edge_count, 1)
    rows_per_chunk = _WORD_BITS * max(1, min(_CHUNK_ROWS // _WORD_BITS, _CHUNK_WORDS // words_per_sample_word))

    def blocks() -> Iterator[PackedBatch]:
        draws: list[tuple[RandomStream, int]] = []
        room = rows_per_chunk
        for t, n_t in enumerate(stream_sample_counts(samples, streams)):
            stream = RandomStream(seed, t)
            done = 0
            while done < n_t:
                c = min(room, n_t - done)
                if c < n_t - done:
                    c -= c % _WORD_BITS  # the stream goes on after this draw
                if c:
                    draws.append((stream, c))
                    done += c
                    room -= c
                if not c or not room:
                    yield draw_orientations(graph, draws)
                    draws, room = [], rows_per_chunk
        if draws:
            yield draw_orientations(graph, draws)

    return blocks()


def sampled_counts(
    graph: Graph,
    groups: Sequence[Sequence[EventExpr]],
    samples: int,
    seed: int,
    streams: int = 1,
) -> list[np.ndarray]:
    """For each group of k events, the (k, k) counts of the samples in which
    both events i and j hold, with each event's own count on the diagonal.
    Every group is read on the same orientations, drawn once. The counts are
    exact integers in float64, far below 2^53, so neither the block size nor
    the block order changes them."""
    blocks = _sampled_blocks(graph, samples, seed, streams)
    for group in groups:
        for ev in group:
            ev.validate_for(graph)
    counts = [np.zeros((len(group), len(group))) for group in groups]
    for batch in blocks:
        for group, total in zip(groups, counts):
            x = event_indicator_many(graph, batch, group).astype(np.float64)
            total += x.T @ x
    return counts


def estimate_event(
    graph: Graph, event: EventExpr, samples: int, seed: int, streams: int = 1
) -> EstimateReport:
    """Mean of the event indicator over seeded sampled orientations."""
    (counts,) = sampled_counts(graph, [[event]], samples, seed, streams)
    est = int(counts[0, 0]) / samples
    se = math.sqrt(est * (1.0 - est) / samples)
    ci = (est - 1.96 * se, est + 1.96 * se)
    return EstimateReport(est, samples, se, ci, seed, streams)


def _slack(joint: np.ndarray) -> np.ndarray:
    """P(i and j) - P(i)P(j) from joint matrices in the last two axes, each P(i) on the diagonal."""
    p = np.diagonal(joint, axis1=-2, axis2=-1)
    return joint - p[..., :, None] * p[..., None, :]


def paired_slacks(counts: np.ndarray, samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paired estimates of P(i and j) - P(i)P(j) for every pair of events
    from their (k, k) joint counts over the same samples.

    Returns three (k, k) arrays: the joint count_ij/n, with each P(i) on its
    diagonal; the slacks read from it, each the same float as the scalar
    count_ij/n - (count_i/n)(count_j/n); and their standard errors
    sqrt(Var(uv) / n), where u = x_i - P(i) and v = x_j - P(j) on a sample
    and E[uv] is the slack. E[(uv)^2] is summed over the four cells of the
    pair's 2x2 table, so a constant event gives exactly 0.
    """
    joint = counts / samples
    est = _slack(joint)
    p = np.diagonal(joint)
    pi, pj = p[:, None], p[None, :]
    qi, qj = 1.0 - pi, 1.0 - pj
    p10, p01 = pi - joint, pj - joint
    p00 = qi - p01
    mean_square = joint * (qi * qj) ** 2 + p10 * (qi * pj) ** 2 + p01 * (pi * qj) ** 2 + p00 * (pi * pj) ** 2
    return joint, est, np.sqrt(np.maximum(mean_square - est**2, 0.0) / samples)


def estimate_slack(
    graph: Graph,
    sources: Iterable[int] | int,
    target_a: int,
    target_b: int,
    samples: int,
    seed: int,
    streams: int = 1,
) -> tuple[float, float]:
    """Paired estimate of P(S->a and S->b) - P(S->a)P(S->b) and its standard
    error, all three indicators read on the same sampled orientations."""
    _check_sample_counts(samples, streams, minimum=2)
    ev_a = EventExpr.connection(sources, target_a)
    ev_b = EventExpr.connection(sources, target_b)
    (counts,) = sampled_counts(graph, [[ev_a, ev_b]], samples, seed, streams)
    _, est, se = paired_slacks(counts, samples)
    return float(est[0, 1]), float(se[0, 1])
