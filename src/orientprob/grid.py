"""Finite boxes of the square lattice with a single right/up bias, reach
statistics under sampling, and a randomized search for orientations where
flipping one edge in a fixed direction destroys a connection."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property, reduce
from numbers import Integral
from operator import or_

import numpy as np

from .errors import InputError, InternalError
from .graphs import Graph, Orientation, PackedBatch, _check_bias, _check_vertex, make_graph, reach_many, reachable_set
from .montecarlo import _sampled_blocks

TOWARD_HIGH = "toward-high"
TOWARD_LOW = "toward-low"

_SEARCH_BLOCK = 256


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
    for _, batch in blocks:
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

    The flips of a block are tested in one kernel call, one lane per
    (connected orientation, horizontal edge not yet pointing that way) in
    orientation-then-edge order; the first lane that loses a -> b is the
    witness a scan of the flips one by one would find first."""
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
    for rows, batch in _sampled_blocks(graph, budget, seed, 1, row_cap=_SEARCH_BLOCK):
        connected = np.flatnonzero(reach_many(graph, batch, a).column(b))
        if not len(connected):
            continue
        bits = batch.unpack()[connected]
        lane_row, lane_edge = np.nonzero(bits[:, horizontal] != desired)
        lane_edge = horizontal[lane_edge]
        lanes = bits[lane_row]
        lanes[np.arange(len(lane_row)), lane_edge] ^= True
        lost = np.flatnonzero(~reach_many(graph, PackedBatch.pack(lanes), a).column(b))
        if len(lost):
            r, e = lane_row[lost[0]], int(lane_edge[lost[0]])
            witness = Witness(Orientation(tuple(int(x) for x in bits[r])), e, flip_direction, a, b)
            if not witness.verify(graph):
                raise InternalError("witness failed re-verification")
            return WitnessSearchResult(witness, int(rows[connected[r]]) + 1, budget, seed)
    return WitnessSearchResult(None, budget, budget, seed)
