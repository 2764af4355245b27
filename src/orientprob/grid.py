"""Finite boxes of the square lattice with a single right/up bias, reach
statistics under sampling, and a randomized search for orientations where
flipping one edge in a fixed direction destroys a connection."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property, reduce
from numbers import Integral
from operator import or_
from typing import Iterator

import numpy as np

from .errors import InputError, InternalError
from .graphs import (
    Graph,
    Orientation,
    PackedBatch,
    RandomStream,
    _check_bias,
    _check_vertex,
    make_graph,
    reach_many,
    reachable_set,
)
from .montecarlo import _WORD_BITS, _plane_counts, _sampled_blocks, _thresholds, draw_orientations

TOWARD_HIGH = "toward-high"
TOWARD_LOW = "toward-low"

# entries of any bool matrix the witness search builds (block rows or flipped
# lanes, times edges) and bits of any raw draw (rows times bit planes)
_SEARCH_CELLS = 1 << 22


@dataclass(frozen=True)
class GridSpec:
    """width x height box; vertex (x, y) has id y*width + x, so rightward and
    upward are always the low -> high direction and one bias covers both."""

    width: int
    height: int
    bias: float

    def __post_init__(self) -> None:
        if not (isinstance(self.width, Integral) and isinstance(self.height, Integral)):
            raise InputError(f"grid dimensions must be integers, got {self.width!r}x{self.height!r}")
        if self.width < 1 or self.height < 1:
            raise InputError("grid dimensions must be >= 1")
        _check_bias(self.bias)

    def id_of(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise InputError(f"coordinate ({x},{y}) outside {self.width}x{self.height}")
        return y * self.width + x

    def xy_of(self, vertex: int) -> tuple[int, int]:
        return vertex % self.width, vertex // self.width


@dataclass(frozen=True)
class Grid:
    spec: GridSpec
    graph: Graph

    def id_of(self, x: int, y: int) -> int:
        return self.spec.id_of(x, y)

    @cached_property
    def far_boundary(self) -> tuple[int, ...]:
        """Vertices on the right or top edge of the box."""
        w, h = self.spec.width, self.spec.height
        return tuple(
            self.id_of(x, y)
            for y in range(h)
            for x in range(w)
            if x == w - 1 or y == h - 1
        )

    def chebyshev_distances(self, origin: int) -> np.ndarray:
        ox, oy = self.spec.xy_of(origin)
        n = self.spec.width * self.spec.height
        return np.array(
            [max(abs(v % self.spec.width - ox), abs(v // self.spec.width - oy)) for v in range(n)],
            dtype=np.int64,
        )


def build_grid(spec: GridSpec) -> Grid:
    """Box graph with rightward and upward edges at the spec bias."""
    w, h = spec.width, spec.height
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1, spec.bias))
            if y + 1 < h:
                edges.append((v, v + w, spec.bias))
    return Grid(spec, make_graph(w * h, edges))


@dataclass(frozen=True)
class GridReachStats:
    p: float
    width: int
    height: int
    samples: int
    seed: int
    streams: int
    mean_reach: float
    max_reach: int
    mean_radius: float
    max_radius: int
    boundary_frac: float

    def csv_row(self) -> str:
        """The record's fields in CSV_HEADER's order."""
        return ",".join(str(value) for value in asdict(self).values())

    def as_dict(self) -> dict:
        return asdict(self)


GridReachStats.CSV_HEADER = ",".join(f.name for f in fields(GridReachStats))


def grid_reach_stats(
    grid: Grid,
    origin: int,
    samples: int,
    seed: int,
    streams: int = 1,
) -> GridReachStats:
    """Sampled statistics of the set reachable from the origin: size, escape
    radius (Chebyshev), and how often the right/top boundary is touched.

    Radii and boundary hits are read from the packed reach columns. Ring d
    holds the vertices at distance d >= 1. A reach set is connected and
    holds the origin, and a grid step moves the distance by at most 1, so a
    row's radius is the number of rings it touches: the radii sum to the
    rows touching each ring, and the largest is the count of rings touched."""
    spec, graph = grid.spec, grid.graph
    blocks = _sampled_blocks(graph, samples, seed, streams)
    _check_vertex(graph, origin)
    dist = grid.chebyshev_distances(origin)
    rings = [np.flatnonzero(dist == d).tolist() for d in range(1, int(dist.max()) + 1)]

    tot_size = 0
    max_size = 0
    tot_radius = 0
    max_radius = 0
    boundary_hits = 0
    for batch in blocks:
        reach = reach_many(graph, batch, origin)
        sizes = reach.unpack().sum(axis=1)
        tot_size += int(sizes.sum())
        max_size = max(max_size, int(sizes.max()))
        # a vertex set's k-bit int marks the rows that reach any of it
        ring_hits = [reduce(or_, (reach.columns[v] for v in ring), 0).bit_count() for ring in rings]
        tot_radius += sum(ring_hits)
        max_radius = max(max_radius, sum(1 for hits in ring_hits if hits))
        boundary_hits += reduce(or_, (reach.columns[v] for v in grid.far_boundary), 0).bit_count()
    return GridReachStats(
        p=spec.bias,
        width=spec.width,
        height=spec.height,
        samples=samples,
        seed=seed,
        streams=streams,
        mean_reach=tot_size / samples,
        max_reach=max_size,
        mean_radius=tot_radius / samples,
        max_radius=max_radius,
        boundary_frac=boundary_hits / samples,
    )


def _check_witness_pair(spec: GridSpec, a: int, b: int, flip_direction: str) -> None:
    """Refuse a search that no orientation can end: a vertex always reaches
    itself, and a box one column wide has no horizontal edge to flip. On a
    box one row high the only a -> b path is the row between them, all of
    whose edges point toward b while a -> b holds, so a flip toward b can
    only turn an edge off that path."""
    if a == b:
        raise InputError("a and b are the same vertex, which every orientation connects")
    if spec.width < 2:
        raise InputError(f"a {spec.width}x{spec.height} box has no horizontal edge to flip")
    if spec.height == 1 and (b > a) == (flip_direction == TOWARD_HIGH):
        side = "right" if b > a else "left"
        raise InputError(
            f"on a {spec.width}x1 box with b {side} of a, a {flip_direction} flip never breaks a -> b"
        )


@dataclass(frozen=True)
class Witness:
    """An orientation where a -> b holds but fails after flipping one edge in
    the stated direction. Self-certifying via verify()."""

    orientation: Orientation
    edge_index: int
    flip_direction: str
    a: int
    b: int

    def flipped(self) -> Orientation:
        return self.orientation.with_flipped(self.edge_index)

    def verify(self, graph: Graph) -> bool:
        before = self.b in reachable_set(graph, self.orientation, self.a)
        after = self.b in reachable_set(graph, self.flipped(), self.a)
        return before and not after


@dataclass(frozen=True)
class WitnessSearchResult:
    witness: Witness | None
    attempts: int
    budget: int
    seed: int

    @property
    def found(self) -> bool:
        return self.witness is not None


def _rows_within(cells_per_row: int) -> int:
    """The most rows, in whole words of samples, whose cells fit in
    _SEARCH_CELLS; at least one word."""
    return _WORD_BITS * max(1, _SEARCH_CELLS // (_WORD_BITS * max(cells_per_row, 1)))


def _doubling_blocks(graph: Graph, budget: int, seed: int) -> Iterator[tuple[int, PackedBatch]]:
    """Stream 0's first `budget` orientations as (first row, batch) blocks
    of 64, 128, 256, ... rows, up to the most whose bool rows and raw bit
    planes fit _SEARCH_CELLS. It keeps the stream order and whole-word draws
    of montecarlo._sampled_blocks, with a block size that doubles."""
    planes = int(_plane_counts(_thresholds(graph.bias_array)).sum())
    cap = _rows_within(max(graph.edge_count, planes))
    stream = RandomStream(seed, 0)
    start, size = 0, _WORD_BITS
    while start < budget:
        count = min(size, budget - start)
        yield start, draw_orientations(graph, [(stream, count)])
        start += count
        size = min(2 * size, cap)


def _lane_chunks(wrong: np.ndarray, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (row, column) indices of wrong's true entries in row-major order,
    in runs of at most `size`. A run searches only the rows it touches, so
    no index array holds more than size plus two rows' worth of entries."""
    ends = np.cumsum(wrong.sum(axis=1))
    for start in range(0, int(ends[-1]), size):
        first = int(np.searchsorted(ends, start, side="right"))
        last = int(np.searchsorted(ends, start + size, side="left"))
        rows, cols = np.nonzero(wrong[first : last + 1])
        skip = start - (int(ends[first - 1]) if first else 0)
        yield rows[skip : skip + size] + first, cols[skip : skip + size]


def find_nonmonotonicity_witness(
    grid: Grid,
    a: int,
    b: int,
    flip_direction: str,
    budget: int,
    seed: int,
) -> WitnessSearchResult:
    """Randomized search: sample orientations where a -> b holds, then scan
    the horizontal edges in index order for one whose flip in the given
    direction destroys the connection (toward-high is rightward, toward-low
    is leftward). Returns the first witness, re-verified, or a not-found
    report once the budget is exhausted.

    Orientations are drawn from stream 0 in order, in blocks of 64, 128,
    256, ... rows, so an early witness pays for one small block and a long
    search draws few large ones. The flips of a block are one lane per
    (connected orientation, horizontal edge not yet pointing that way),
    tested in orientation-then-edge order in chunks, and the search stops at
    the first chunk with a lane that loses a -> b: that lane is the witness
    a scan of the flips one by one would find first. _SEARCH_CELLS caps a
    block's rows and a chunk's lanes, times the edges. Every draw but the
    last holds whole words of samples, so neither the block nor the chunk
    sizes change the result."""
    if budget < 1:
        raise InputError("budget must be >= 1")
    if flip_direction not in (TOWARD_HIGH, TOWARD_LOW):
        raise InputError(f"flip_direction must be {TOWARD_HIGH!r} or {TOWARD_LOW!r}")
    spec, graph = grid.spec, grid.graph
    _check_vertex(graph, a)
    _check_vertex(graph, b)
    _check_witness_pair(spec, a, b, flip_direction)
    desired = 1 if flip_direction == TOWARD_HIGH else 0
    horizontal = np.array(
        [e for e, (u, v, _) in enumerate(graph.edges) if u // spec.width == v // spec.width], dtype=np.intp
    )
    lanes_per_chunk = max(1, _SEARCH_CELLS // graph.edge_count)
    for start, batch in _doubling_blocks(graph, budget, seed):
        connected = np.flatnonzero(reach_many(graph, batch, a).column(b))
        if not len(connected):
            continue
        bits = batch.unpack()[connected]
        for lane_row, lane_edge in _lane_chunks(bits[:, horizontal] != desired, lanes_per_chunk):
            lane_edge = horizontal[lane_edge]
            lanes = bits[lane_row]
            lanes[np.arange(len(lane_row)), lane_edge] ^= True
            lost = np.flatnonzero(~reach_many(graph, PackedBatch.pack(lanes), a).column(b))
            if len(lost):
                r, e = lane_row[lost[0]], int(lane_edge[lost[0]])
                witness = Witness(Orientation(tuple(int(x) for x in bits[r])), e, flip_direction, a, b)
                if not witness.verify(graph):
                    raise InternalError("witness failed re-verification")
                return WitnessSearchResult(witness, start + int(connected[r]) + 1, budget, seed)
    return WitnessSearchResult(None, budget, budget, seed)
