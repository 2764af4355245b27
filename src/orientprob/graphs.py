"""Undirected graphs with per-edge orientation biases, random orientations,
and directed reachability.

Vertices are the integers 0..n-1. Every edge is stored canonically as
(low, high, bias) with low < high; an orientation assigns one bit per edge,
bit 1 meaning low -> high. The bias is always the probability of the
low -> high direction, regardless of how an input line ordered the
endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import InputError

_SEED_LIMIT = 1 << 64  # a Philox key word
_PACK_BLOCK_BITS = 1 << 18


class Edge(NamedTuple):
    low: int
    high: int
    bias: float


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with an ordered, canonically oriented edge list.

    The edge list order is the bit order for orientations.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise InputError("vertex_count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if e.low == e.high:
                raise InputError(f"self-loop at vertex {e.low}")
            if not (0 <= e.low < e.high < n):
                raise InputError(f"edge ({e.low},{e.high}) out of range for vertex_count={n}")
            if (e.low, e.high) in seen:
                raise InputError(f"duplicate edge ({e.low},{e.high})")
            seen.add((e.low, e.high))
            if not (0.0 <= e.bias <= 1.0):
                raise InputError(f"bias {e.bias} outside [0,1] on edge ({e.low},{e.high})")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def bias_array(self) -> np.ndarray:
        arr = np.array([e.bias for e in self.edges], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of adjacent vertices (undirected)."""
        masks = [0] * self.vertex_count
        for u, v, _ in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def arc_probabilities(self) -> tuple[dict[int, float], ...]:
        """Per-vertex row: arc_probabilities[v][u] is the probability that
        the edge between v and its neighbour u is oriented v -> u."""
        rows: list[dict[int, float]] = [{} for _ in range(self.vertex_count)]
        for u, v, p in self.edges:
            rows[u][v] = 1.0 - (1.0 - p)  # not p: the rounding of 1 - P(v -> u) is kept
            rows[v][u] = 1.0 - p
        return tuple(rows)

    @cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """The vertices partitioned into twin classes, each in increasing
        order, the classes ordered by their first member.

        Two vertices are twins when they have the same neighbours apart from
        each other, equal arc_probabilities entries to every other vertex
        and, if adjacent, an edge of bias 1/2 between them, so swapping them
        is an automorphism of the biased graph. False (non-adjacent) twins
        share their open neighbourhood and row; true (adjacent) twins share
        their closed neighbourhood and their row with a 0.5 entry added for
        the vertex itself. An open key never equals a closed one, and no
        vertex has both a false and a true twin, so the groups of more than
        one vertex are disjoint. Rows compare by float equality: they are
        the floats the exact recursion multiplies.
        """
        groups: dict[tuple, list[int]] = {}
        for v, (nbr, row) in enumerate(zip(self.neighbor_masks, self.arc_probabilities)):
            groups.setdefault((nbr, tuple(sorted(row.items()))), []).append(v)
            groups.setdefault((nbr | 1 << v, tuple(sorted({**row, v: 0.5}.items()))), []).append(v)
        twins = [tuple(group) for group in groups.values() if len(group) > 1]
        paired = {v for group in twins for v in group}
        return tuple(sorted(twins + [(v,) for v in range(self.vertex_count) if v not in paired]))


@dataclass(frozen=True)
class Orientation:
    """One direction bit per edge, aligned with Graph.edges; 1 = low -> high."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise InputError("orientation bits must be 0 or 1")

    def with_flipped(self, edge_index: int) -> "Orientation":
        bits = list(self.bits)
        bits[edge_index] ^= 1
        return Orientation(tuple(bits))


@dataclass(frozen=True)
class EventExpr:
    """Conjunction of connection atoms; each atom (A, b) reads "some vertex of
    A reaches b by a directed path"."""

    atoms: tuple[tuple[frozenset[int], int], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise InputError("event must have at least one atom")
        for sources, _ in self.atoms:
            if not sources:
                raise InputError("atom source set must be nonempty")

    @staticmethod
    def connection(sources: Iterable[int] | int, target: int) -> "EventExpr":
        return EventExpr(atoms=((_as_source_set(sources), int(target)),))

    def __and__(self, other: "EventExpr") -> "EventExpr":
        return EventExpr(atoms=self.atoms + other.atoms)

    def validate_for(self, graph: Graph) -> None:
        for sources, target in self.atoms:
            for v in (target, *sources):
                _check_vertex(graph, v)


def _as_source_set(sources: Iterable[int] | int) -> frozenset[int]:
    if isinstance(sources, int):
        return frozenset((sources,))
    return frozenset(int(s) for s in sources)


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int, float]]) -> Graph:
    """Build a Graph, canonicalizing each endpoint pair to (low, high).

    The bias refers to the low -> high direction even when the raw pair was
    given high-first.
    """
    canon = []
    for u, v, p in edges:
        u, v = int(u), int(v)
        lo, hi = (u, v) if u <= v else (v, u)
        canon.append(Edge(lo, hi, float(p)))
    return Graph(vertex_count=int(vertex_count), edges=tuple(canon))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: '#' comments, optional leading header
    "n <vertex_count>", then one edge per line "u v p". Without a header,
    vertex_count is 1 + the largest id seen."""
    header_n: int | None = None
    saw_edge = False
    seen: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int, float]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if saw_edge or header_n is not None:
                raise InputError(f"line {lineno}: header must be the first non-comment line")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: header must read 'n <vertex_count>'")
            try:
                header_n = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: vertex count {parts[1]!r} is not an integer") from None
            if header_n < 0:
                raise InputError(f"line {lineno}: vertex count must be nonnegative")
            continue
        if len(parts) != 3:
            raise InputError(f"line {lineno}: expected 'u v p', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: endpoints must be integers") from None
        try:
            p = float(parts[2])
        except ValueError:
            raise InputError(f"line {lineno}: bias {parts[2]!r} is not a number") from None
        if not (0.0 <= p <= 1.0):
            raise InputError(f"line {lineno}: bias {p} outside [0,1]")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise InputError(f"line {lineno}: negative vertex id")
        lo, hi = (u, v) if u < v else (v, u)
        if (lo, hi) in seen:
            raise InputError(f"line {lineno}: duplicate edge ({lo},{hi}), first seen at line {seen[(lo, hi)]}")
        if header_n is not None and hi >= header_n:
            raise InputError(f"line {lineno}: vertex id {hi} out of range for n={header_n}")
        seen[(lo, hi)] = lineno
        saw_edge = True
        max_id = max(max_id, hi)
        edges.append((u, v, p))
    n = header_n if header_n is not None else max_id + 1
    return make_graph(n, edges)


class RandomStream:
    """Counter-based random stream; (seed, index) fully determine the draw
    sequence, so independent streams are obtained by varying the index.
    No global state is involved."""

    def __init__(self, seed: int, index: int = 0):
        if seed < 0 or index < 0:
            raise InputError("seed and stream index must be nonnegative")
        if seed >= _SEED_LIMIT or index >= _SEED_LIMIT:
            raise InputError(f"seed and stream index must be below 2^64, got {seed} and {index}")
        self.seed = seed
        self.index = index
        key = np.array([seed, index], dtype=np.uint64)
        self._gen = Generator(Philox(key=key))

    def uniforms(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Next uniforms in [0,1), consumed in C order."""
        return self._gen.random(shape)

    def words(self, count: int) -> np.ndarray:
        """Next count raw 64-bit Philox words, as uint64."""
        return self._gen.bit_generator.random_raw(count)


def sample_orientation(graph: Graph, stream: RandomStream) -> Orientation:
    """Draw one orientation: bit e is 1 with probability bias_e, independently."""
    u = stream.uniforms(graph.edge_count)
    return Orientation(tuple(int(b) for b in (u < graph.bias_array)))


def _check_bias(p: float) -> None:
    """The range rule for one bias shared by a whole graph (a box, K_n)."""
    if not (0.0 <= p <= 1.0):
        raise InputError(f"bias {p} outside [0,1]")


def _check_vertex(graph: Graph, v: int) -> int:
    if not (0 <= v < graph.vertex_count):
        raise InputError(f"vertex {v} out of range for vertex_count={graph.vertex_count}")
    return v


def _check_sources(graph: Graph, sources: Iterable[int] | int) -> frozenset[int]:
    src = _as_source_set(sources)
    if not src:
        raise InputError("source set must be nonempty")
    for s in src:
        _check_vertex(graph, s)
    return src


def _check_orientation(graph: Graph, orientation: Orientation) -> None:
    if len(orientation.bits) != graph.edge_count:
        raise InputError(
            f"orientation has {len(orientation.bits)} bits, graph has {graph.edge_count} edges"
        )


def _check_batch(bits: object) -> None:
    if not isinstance(bits, PackedBatch):
        raise InputError(f"bits must be a PackedBatch, not {type(bits).__name__}")


def reachable_set(graph: Graph, orientation: Orientation, sources: Iterable[int] | int) -> set[int]:
    """Vertices reachable by directed paths (length >= 0) from any source."""
    src = _check_sources(graph, sources)
    _check_orientation(graph, orientation)
    adj: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for bit, (u, v, _) in zip(orientation.bits, graph.edges):
        if bit:
            adj[u].append(v)
        else:
            adj[v].append(u)
    seen = set(src)
    stack = list(src)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def holds(graph: Graph, orientation: Orientation, event: EventExpr) -> bool:
    """Whether every atom's target is reachable from its source set."""
    event.validate_for(graph)
    _check_orientation(graph, orientation)
    cache: dict[frozenset[int], set[int]] = {}
    for sources, target in event.atoms:
        if sources not in cache:
            cache[sources] = reachable_set(graph, orientation, sources)
        if target not in cache[sources]:
            return False
    return True


@dataclass(frozen=True)
class PackedBatch:
    """A (k, c) bool matrix stored by column: bit i of columns[j] is entry
    [i, j]. As a batch of k orientations, what reach_many takes, the columns
    are the edges, bit i of columns[e] the direction of edge e in row i
    (1 = low -> high); as reach_many returns it, the columns are the
    vertices, bit i of columns[v] telling whether row i reaches v."""

    columns: tuple[int, ...]
    k: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k, len(self.columns))

    @staticmethod
    def pack(bits: np.ndarray) -> "PackedBatch":
        """Pack a (k, m) bit matrix, row i becoming bit i of every column.

        Rows are transposed and packed in blocks of about _PACK_BLOCK_BITS
        bits, a multiple of 8 rows each, so no full transposed copy of bits is
        held.
        """
        k, m = bits.shape
        step = 8 * max(1, _PACK_BLOCK_BITS // (8 * max(m, 1)))
        blocks = [
            np.packbits(np.ascontiguousarray(bits[i : i + step].T), axis=1, bitorder="little")
            for i in range(0, k, step)
        ]
        columns = tuple(
            int.from_bytes(b"".join(block[e].tobytes() for block in blocks), "little")
            for e in range(m)
        )
        return PackedBatch(columns, k)

    def unpack(self) -> np.ndarray:
        """The (k, c) bool matrix: entry [i, j] is bit i of columns[j]."""
        return _unpack_columns(self.columns, self.k)

    def column(self, j: int) -> np.ndarray:
        """Column j alone as a length-k bool vector, unpack()[:, j]."""
        return _unpack_columns((self.columns[j],), self.k)[:, 0]


def _unpack_columns(columns: Sequence[int], k: int) -> np.ndarray:
    """(k, len(columns)) bool matrix whose column j holds the k low bits of columns[j]."""
    nbytes = (k + 7) // 8
    packed = np.frombuffer(b"".join(c.to_bytes(nbytes, "little") for c in columns), dtype=np.uint8)
    byte_rows = np.ascontiguousarray(packed.reshape(len(columns), nbytes).T)
    return np.unpackbits(byte_rows, axis=0, count=k, bitorder="little").view(bool)


def reach_many(graph: Graph, bits: PackedBatch, sources: Iterable[int] | int) -> PackedBatch:
    """Reachable sets for many orientations at once: bits packs k
    orientations of the m edges, and the result packs the (k, n) reach
    matrix by vertex, bit i of column v set when row i reaches v.

    Bit-sliced: each edge's column of k direction bits is one k-bit int, and
    so is each vertex's reach column. Sweeps run over the edge list forwards
    and backwards in alternation until a sweep changes nothing, so a
    directed path costs one sweep per run of rising or falling edge indices
    along it, where forward-only sweeps would cost one per falling step.
    Cost O(sweeps * m) big-int ops over k bits.
    """
    src = _check_sources(graph, sources)
    _check_batch(bits)
    if len(bits.columns) != graph.edge_count:
        raise InputError("bits matrix width must equal the edge count")
    full = (1 << bits.k) - 1
    return _reach_packed(graph, bits.columns, [full ^ f for f in bits.columns], src, bits.k)


def _reach_packed(
    graph: Graph, fwd: list[int], bwd: list[int], sources: Iterable[int], k: int
) -> PackedBatch:
    """Fixed point of the sliced sweep, packed: bit i of column v is set when
    v is reached from the sources in row i, where edge e can be crossed
    low -> high when bit i of fwd[e] is set, and high -> low when bit i of
    bwd[e] is. The columns stay k-bit ints; nothing is unpacked here."""
    reach = [0] * graph.vertex_count
    for s in sources:
        reach[s] = (1 << k) - 1
    steps = [(u, v, f, b) for (u, v, _), f, b in zip(graph.edges, fwd, bwd)]
    while True:
        before = reach.copy()
        for u, v, f, b in steps:
            reach[v] |= reach[u] & f
            reach[u] |= reach[v] & b
        if reach == before:
            break
        steps.reverse()
    return PackedBatch(tuple(reach), k)


def event_indicator_many(graph: Graph, bits: PackedBatch, events: Iterable[EventExpr]) -> np.ndarray:
    """Boolean matrix of shape (k, len(events)): entry [i, j] tells whether
    event j holds in row i of the PackedBatch bits. Each distinct source
    set is swept once for all the events; an event's column is the AND of
    its atoms' packed reach columns, and only those columns are unpacked."""
    _check_batch(bits)
    events = list(events)
    for event in events:
        event.validate_for(graph)
    k = bits.k
    cache: dict[frozenset[int], tuple[int, ...]] = {}
    columns = []
    for event in events:
        column = (1 << k) - 1
        for sources, target in event.atoms:
            if sources not in cache:
                cache[sources] = reach_many(graph, bits, sources).columns
            column &= cache[sources][target]
        columns.append(column)
    return _unpack_columns(columns, k)
