"""Exact probabilities of connection events.

Two routes are provided: enumeration of the orientations (the oracle), and a
recursion that conditions on the random set of vertices that receive an edge
oriented out of the current source set, then recurses on the graph with the
sources deleted. The two must agree to 1e-9 on any instance small enough for
both.

The recursion is memoized under a canonical key per subproblem (the
sources, the target mask, and the sources together with the components of
the rest that hold a target), so a subproblem met under different regions
is expanded once, and subproblems that differ by a swap of twin vertices
share one key (see ExactEngine). The engine also keeps three caches for its
lifetime, components, N(S) and frontier tables, each emptied when full.

Enumeration sums the 2^m orientations of the m edges that the sources'
components hold, and no others: an event or law read from the sources never
crosses another edge, and the two directions of such an edge have weights
that sum to 1, so it takes the constant column 0 and the weight factor 1.
The enumerated orientations run in blocks of up to 2^_CHUNK_BITS through the
bit-sliced kernel `reach_many`, as packed edge columns, vertices keeping
their ids. The low edge columns and their weights are the same in every
block and are built once; a block only picks the constant high columns and
scales the weights by their factors. The packed vertex columns the kernel
returns stay packed until read: an event's indicator is the AND of its
atoms' k-bit reach columns, unpacked once, and a set law codes each row from
its nonzero vertex columns, so no (k, n) bool matrix of reach rows is made.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from math import comb
from typing import Callable, Collection, Iterable, Iterator

import numpy as np

from .errors import InputError, InternalError, ResourceLimitError
from .graphs import (
    EventExpr,
    Graph,
    PackedBatch,
    _check_sources,
    _check_vertex,
    event_indicator_many,
    reach_many,
)

DEFAULT_ENUM_CAP = 24
DEFAULT_MEMO_CAP = 1 << 22
_CHUNK_BITS = 18

PROBABILITY_BAND = 1e-12  # pre-clamp tolerance on accumulated sums


@dataclass(frozen=True)
class ExactResult:
    probability: float
    method: str  # "enumeration" | "recursion"
    states_visited: int

    def as_dict(self) -> dict:
        d = asdict(self)
        return {"prob": d.pop("probability"), **d}


@dataclass(frozen=True)
class SubsetDistribution:
    """Probability mass over subsets of an ordered ground set.

    Keys are bit patterns over the ground order: bit j set means ground[j]
    is in the subset.
    """

    ground: tuple[int, ...]
    mass: dict[int, float]

    def __post_init__(self) -> None:
        full = (1 << len(self.ground)) - 1
        total = 0.0
        for key, m in self.mass.items():
            if key & ~full:
                raise InputError(f"mass key {key:#x} is not a subset of the ground set")
            if m < 0.0:
                raise InputError(f"negative mass {m} at key {key:#x}")
            total += m
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"masses sum to {total!r}, expected 1 within 1e-12")

    def mask_of(self, vertices: Iterable[int]) -> int:
        pos = {v: j for j, v in enumerate(self.ground)}
        mask = 0
        for v in vertices:
            if v not in pos:
                raise InputError(f"vertex {v} is not in the ground set {self.ground}")
            mask |= 1 << pos[v]
        return mask

    def vertices_of(self, mask: int) -> frozenset[int]:
        return frozenset(self.ground[j] for j in range(len(self.ground)) if (mask >> j) & 1)

    def prob_of(self, vertices: Iterable[int]) -> float:
        return self.mass.get(self.mask_of(vertices), 0.0)


def _clamp01(p: float) -> float:
    if p < -PROBABILITY_BAND or p > 1.0 + PROBABILITY_BAND:
        raise InternalError(f"probability {p!r} outside the accumulation tolerance band")
    return min(1.0, max(0.0, p))


def _enumeration_chunks(graph: Graph, enum_cap: int, part: int) -> Iterator[tuple[PackedBatch, np.ndarray]]:
    """All 2^m orientations of the m edges of `part`, a vertex mask closed
    under neighbours, with their probabilities, in packed blocks of
    k = 2^min(m, _CHUNK_BITS) rows. A block has one column per edge of the
    graph, in graph order: row i of the block at `start` gives the part's
    j-th edge bit j of start + i as its direction, and every other edge the
    constant 0 with weight factor 1.

    The low columns j < log2 k hold bit j of the row index, the same in every
    block: periodic ints, 2^j zeros then 2^j ones over and over. The high
    columns hold the constant bit j of `start`, 0 or all ones. The low
    columns and their weights are built once; each block only picks the high
    columns and writes the low weights times the high factors into one
    buffer. Weights are doubled column by column, so every row multiplies
    its factors in edge order, as a per-orientation product would.

    The weights are read-only and their buffer is reused: each block
    overwrites the previous one (a single block yields the low weights
    themselves), so a caller must finish with a block before asking for the
    next. A negative enum_cap raises InputError on the call, and a part of
    more than enum_cap edges ResourceLimitError.
    """
    if enum_cap < 0:
        raise InputError(f"enum_cap must be >= 0, got {enum_cap}")
    edges = [e for e, (u, _, _) in enumerate(graph.edges) if part >> u & 1]
    m = len(edges)
    if m > enum_cap:
        raise ResourceLimitError(f"enumeration over m={m} edges exceeds cap {enum_cap}")
    low = min(m, _CHUNK_BITS)
    k = 1 << low
    full = (1 << k) - 1
    biases = graph.bias_array[edges]

    def blocks() -> Iterator[tuple[PackedBatch, np.ndarray]]:
        columns = [0] * graph.edge_count
        for j in range(low):
            run = 1 << j
            column, period = ((1 << run) - 1) << run, 2 * run
            while period < k:
                column |= column << period
                period *= 2
            columns[edges[j]] = column
        low_weights = np.empty(k, dtype=np.float64)
        low_weights[0] = 1.0
        for j in range(low):
            run = 1 << j
            np.multiply(low_weights[:run], biases[j], out=low_weights[run:2 * run])
            low_weights[:run] *= 1.0 - biases[j]
        if m == low:
            yield PackedBatch(tuple(columns), k), low_weights
            return
        weights = np.empty(k, dtype=np.float64)
        for start in range(0, 1 << m, k):
            high = [(start >> j) & 1 for j in range(low, m)]
            factors = [biases[j] if b else 1.0 - biases[j] for j, b in enumerate(high, start=low)]
            np.multiply(low_weights, factors[0], out=weights)
            for f in factors[1:]:
                weights *= f
            for e, b in zip(edges[low:], high):
                columns[e] = full if b else 0
            yield PackedBatch(tuple(columns), k), weights

    return blocks()


def _part_of(graph: Graph, src_mask: int) -> int:
    """Mask of the vertices of the components that hold the sources."""
    part, new = 0, src_mask
    while new:
        part |= new
        new = _neighbors_of(graph, new) & ~part
    return part


def brute_force_prob(graph: Graph, event: EventExpr, enum_cap: int = DEFAULT_ENUM_CAP) -> ExactResult:
    """Exact event probability by summing over the 2^m orientations of the m
    edges of the components that hold the event's sources."""
    (p,), rows = _enumerated_probs(graph, [event], enum_cap)
    return ExactResult(p, "enumeration", rows)


def _enumerated_probs(graph: Graph, events: list[EventExpr], enum_cap: int) -> tuple[list[float], int]:
    """Exact probability of each event, all read from one enumeration of
    the components that hold the events' in-range sources, with the number
    of orientations summed: each block's indicator matrix is built once,
    sweeping each source set once, and event j sums the weights of its rows
    block by block. The cap is checked before the events' vertices."""
    n = graph.vertex_count
    in_range = {s for event in events for sources, _ in event.atoms for s in sources if 0 <= s < n}
    blocks = _enumeration_chunks(graph, enum_cap, _part_of(graph, _vertex_mask(graph, in_range)))
    for event in events:
        event.validate_for(graph)
    totals = [0.0] * len(events)
    rows = 0
    for batch, weights in blocks:
        ind = event_indicator_many(graph, batch, events)
        for j in range(len(events)):
            totals[j] += float(weights[ind[:, j]].sum())
        rows += batch.k
    return [_clamp01(total) for total in totals], rows


def reachable_set_distribution(
    graph: Graph, sources: Iterable[int] | int, enum_cap: int = DEFAULT_ENUM_CAP
) -> SubsetDistribution:
    """Exact law of the reachable set from the sources, over all vertices."""
    src = _check_sources(graph, sources)
    (law,) = _enumerated_law(graph, enum_cap, [_reach_rows(graph, src)], src)
    return law


def _reach_rows(graph: Graph, sources: Iterable[int] | int) -> Callable[[PackedBatch], PackedBatch]:
    """The reader of the sources' reach set in each row, sources checked."""
    src = _check_sources(graph, sources)
    return lambda batch: reach_many(graph, batch, src)


def _enumerated_law(
    graph: Graph, enum_cap: int, readers: list[Callable[[PackedBatch], PackedBatch]], sources: Iterable[int]
) -> list[SubsetDistribution]:
    """For each reader, the law of the vertex set that reader(block) marks in
    each orientation's row, over the orientations of the components that
    hold the sources, whose vertices are the only ones a reader may mark.
    All laws are read from one enumeration, and each sums its blocks in
    block order, as a pass of its own would. As a row is coded in 64 bits,
    components of more than 64 vertices in all raise ResourceLimitError
    before the first block."""
    part = _part_of(graph, _vertex_mask(graph, sources))
    blocks = _enumeration_chunks(graph, enum_cap, part)
    if part.bit_count() > 64:
        raise ResourceLimitError(f"a set law over {part.bit_count()} vertices exceeds 64")
    accs: list[dict[int, float]] = [{} for _ in readers]
    for batch, weights in blocks:
        for rows, acc in zip(readers, accs):
            _accumulate_row_masses(rows(batch), weights, acc)
    ground = tuple(range(graph.vertex_count))
    return [SubsetDistribution(ground, acc) for acc in accs]


def _accumulate_row_masses(rows: PackedBatch, weights: np.ndarray, acc: dict[int, float]) -> None:
    """Add row i's weight to acc[mask], bit j of mask set when bit i of
    rows.columns[j] is. Only the h <= 64 nonzero columns are coded (more
    raise InternalError): bit c of row i's code is bit i of the c-th of
    them. Codes of up to 16 bits are summed in a dense bincount, wider ones
    through a 1-D np.unique, each code summing its rows' weights in row
    order. Each code is then lifted to its mask, bit c to bit j of the c-th
    nonzero column, one byte at a time; the lift keeps the codes' order, and
    is the identity when those columns are 0..h-1."""
    live = [j for j, column in enumerate(rows.columns) if column]
    h = len(live)
    if h > 64:
        raise InternalError(f"{h} nonzero columns do not fit a 64-bit row code")
    dtype = np.uint8 if h <= 8 else np.uint16 if h <= 16 else np.uint64
    code = np.zeros(rows.k, dtype=dtype)
    for c, j in enumerate(live):
        code |= rows.column(j).view(np.uint8).astype(dtype, copy=False) << c
    if h <= 16:
        present = np.flatnonzero(np.bincount(code, minlength=256))
        sums = np.bincount(code, weights=weights, minlength=256)[present]
        masks = present.tolist()
    else:
        uniq, inv = np.unique(code, return_inverse=True)
        sums = np.bincount(inv, weights=weights, minlength=len(uniq))
        masks = uniq.tolist()
    if live != list(range(h)):
        tables = [[0] for _ in range(0, h, 8)]  # tables[b][x]: the mask of the code byte b holding x
        for c, j in enumerate(live):
            tables[c >> 3] += [t | 1 << j for t in tables[c >> 3]]
        masks = [sum(table[c >> 8 * b & 255] for b, table in enumerate(tables)) for c in masks]
    for mask, s in zip(masks, sums.tolist()):
        acc[mask] = acc.get(mask, 0.0) + s


class _Bounded:
    """A cache in the plain dict `held`, whose values weigh `weight` in
    total, at most `cap`: a value that would take the weight past the cap
    empties the cache and is not kept. It holds only what can be computed
    again, so it never raises. Callers read `held` directly, as a hit on a
    dict subclass costs more."""

    def __init__(self, cap: int):
        self.cap = cap
        self.weight = 0
        self.held: dict = {}

    def keep(self, key, value, weight: int = 1) -> None:
        if self.weight + weight > self.cap:
            self.held.clear()
            self.weight = 0
        else:
            self.held[key] = value
            self.weight += weight


class ExactEngine:
    """Memoized recursive evaluator for connection probabilities.

    One recursion serves every query: the probability that the source set S
    reaches every vertex of a target set T inside a region of the graph.
    Queries on one engine share the memo, so a joint query reuses the
    single-target states it passes through.

    At each state the vertices R = region - S split into the undirected
    components of G[R]. Only components holding an unreached target matter:
    frontier vertices elsewhere are dropped, as their coins marginalise out.
    Targets in different components depend on disjoint edges and on
    independent frontier coins, so the state's value is a product over
    components C of the sum, over subsets X of the frontier in C, of
    P(X is the out-neighbourhood of S in C) * value(C, X, T & C - X).

    The value depends on the region only through the components that hold a
    target, so a subproblem's canonical key is (S | those components, S, T).
    Each subproblem is expanded once, under its canonical key; the key it was
    reached by, (region, S, T), is stored beside it as an alias. A parent
    looks its children up by (C, X, T & C - X): C is connected and X is a
    nonempty part of it, so the child key needs no search of the graph, and
    a repeated child costs one dict probe. `states_visited` counts the
    subproblems expanded.

    States are also taken up to twin swaps (see Graph.twin_classes): inside
    each class of more than one vertex, a state is moved to the image that
    lists the class's sources first, then its targets, then the rest of the
    region. Frontier vertices of one class on one side of the target set
    share their probability p, so the frontier sum runs over how many of
    them are hit, c + 1 terms in place of 2^c, each count represented by the
    first members. On a graph whose classes are all singletons nothing of
    this runs, and every value is computed as without it.

    Three caches live as long as the engine: the component of R = region - S
    that holds the lowest pending target, keyed by (R, that target's bit);
    N(S) per source mask; and the frontier table of the sources in a
    component C, keyed by S and near = N(S) & C (and the targets in near
    when there are twin classes, since the frontier groups split by target).

    `memo_cap` bounds the memo in entries, aliases included: a store past it
    raises ResourceLimitError. It bounds each cache too, the tables in table
    entries, but a cache is emptied instead (see _Bounded), which changes no
    value, no state count and no memo entry. A frontier table of more than
    max(memo_cap, DEFAULT_MEMO_CAP) entries raises ResourceLimitError before
    it is built; the floor leaves a small cap to fail in the memo. A
    negative cap raises InputError.
    """

    def __init__(self, graph: Graph, memo_cap: int = DEFAULT_MEMO_CAP):
        if memo_cap < 0:
            raise InputError(f"memo_cap must be >= 0, got {memo_cap}")
        self.graph = graph
        self.memo_cap = memo_cap
        self.states_visited = 0
        self._full_mask = (1 << graph.vertex_count) - 1
        self._memo: dict[tuple[int, int, int], float] = {}
        self._components = _Bounded(memo_cap)  # (rest, seed bit) -> the seed's component in rest
        self._near = _Bounded(memo_cap)  # S -> the union of its neighbor masks
        self._tables = _Bounded(memo_cap)  # (S, near) or (S, near, targets in near) -> frontier table
        # per twin class of more than one vertex: its mask and the masks of
        # its first k members, k = 0..size; and each vertex's first twin
        self._classes: list[tuple[int, list[int]]] = []
        self._leader = list(range(graph.vertex_count))
        for members in graph.twin_classes:
            if len(members) > 1:
                prefixes = [0]
                for v in members:
                    self._leader[v] = members[0]
                    prefixes.append(prefixes[-1] | 1 << v)
                self._classes.append((prefixes[-1], prefixes))

    def connection(
        self, sources: Iterable[int] | int, target: int, within: Iterable[int] | None = None
    ) -> float:
        return self.probabilities(sources, [(target,)], within)[0]

    def joint(
        self,
        sources: Iterable[int] | int,
        target_a: int,
        target_b: int,
        within: Iterable[int] | None = None,
    ) -> float:
        return self.probabilities(sources, [(target_a, target_b)], within)[0]

    def probabilities(
        self,
        sources: Iterable[int] | int,
        target_sets: Iterable[Iterable[int]],
        within: Iterable[int] | None = None,
    ) -> list[float]:
        """Entry i is P(the sources reach every vertex of target_sets[i])
        inside `within`; the target sets are evaluated in order."""
        src_mask = _vertex_mask(self.graph, _check_sources(self.graph, sources))
        masks = [_vertex_mask(self.graph, targets) for targets in target_sets]
        region = self._full_mask if within is None else _vertex_mask(self.graph, within)
        if src_mask & ~region:
            raise InputError("sources must lie inside the restricted vertex set")
        return self._batch(src_mask, masks, region)

    def _batch(self, src_mask: int, masks: list[int], region: int) -> list[float]:
        """probabilities() on checked masks: the sources, each target set and
        a region that holds the sources. A target set less the sources is
        probed by its own key (region, S, T); _reach_all computes a miss."""
        memo = self._memo
        values = []
        try:
            for mask in masks:
                targets = mask & ~src_mask
                if not targets or targets & ~region:
                    values.append(0.0 if targets else 1.0)
                else:
                    p = memo.get((region, src_mask, targets))
                    values.append(self._reach_all(region, src_mask, targets) if p is None else p)
            return values
        except RecursionError:
            raise ResourceLimitError(
                f"recursion deeper than the interpreter stack limit ({sys.getrecursionlimit()} frames)"
            ) from None

    def _component(self, remaining: int, seed_mask: int) -> int:
        """Undirected component of the seed vertices inside `remaining`."""
        nbr = self.graph.neighbor_masks
        comp = seed_mask & remaining
        frontier = comp
        while frontier:
            grow = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                grow |= nbr[v]
            frontier = grow & remaining & ~comp
            comp |= frontier
        return comp

    def _canonical(self, region: int, src_mask: int, targets: int) -> tuple[int, int, int]:
        """The twin-swap image of (region, S, T) in which each nontrivial twin
        class lists its sources first, then its targets, then the rest of
        the region. Twin swaps are automorphisms, so the value is the same."""
        for cmask, prefixes in self._classes:
            s = (src_mask & cmask).bit_count()
            st = s + (targets & cmask).bit_count()
            src_mask = src_mask & ~cmask | prefixes[s]
            targets = targets & ~cmask | prefixes[st] & ~prefixes[s]
            region = region & ~cmask | prefixes[(region & cmask).bit_count()]
        return region, src_mask, targets

    def _table(self, comp: int, src_mask: int, wanted: int) -> tuple[list[int], list[float]]:
        """_subset_table of the frontier near = N(S) & comp of the sources in
        `comp`, whose targets are `wanted`, kept under (S, near), or
        (S, near, wanted & near) with twin classes (see the class
        docstring): the vertices come in ascending order and their
        probabilities from their edges to S. Twins are grouped by (first
        twin, side of the target set), in the order of first members."""
        near = self._near.held.get(src_mask)
        if near is None:
            near = _neighbors_of(self.graph, src_mask)
            self._near.keep(src_mask, near)
        near &= comp
        key = (src_mask, near, wanted & near) if self._classes else (src_mask, near)
        table = self._tables.held.get(key)
        if table is not None:
            return table
        vertices, probs = _frontier(self.graph, near, src_mask)
        limit = max(self.memo_cap, DEFAULT_MEMO_CAP)  # a floor, so a small cap still fails in the memo
        if self._classes:
            groups: dict[tuple[int, int], tuple[float, list[int]]] = {}
            for v, p in zip(vertices, probs):
                groups.setdefault((self._leader[v], wanted >> v & 1), (p, []))[1].append(v)
            table = _subset_table([], [], groups.values(), limit)
        else:
            table = _subset_table(vertices, probs, (), limit)  # every group a lone vertex
        self._tables.keep(key, table, len(table[0]))
        return table

    def _reach_all(self, region: int, src_mask: int, targets: int) -> float:
        """P(the sources reach every target) inside G[region], for a key the
        memo does not hold. `targets` is nonempty, disjoint from the sources,
        and inside `region`.

        The value depends only on the sources and the components of
        G[region - S] that hold a target, up to twin swaps, so it is looked
        up, and on a miss computed, under the canonical key (S | those
        components, S, targets) of the twin-canonical state, and then also
        stored under the given key. A frontier is summed over the member
        counts of its groups, each count represented by a group's first
        members."""
        memo = self._memo
        probe = (region, src_mask, targets)
        if self._classes:
            region, src_mask, targets = self._canonical(region, src_mask, targets)
        rest = region & ~src_mask
        found = self._components.held
        comps: list[int] = []
        covered = src_mask
        pending = targets
        while pending:
            key = (rest, pending & -pending)
            comp = found.get(key)
            if comp is None:
                comp = self._component(*key)
                self._components.keep(key, comp)
            pending &= ~comp
            comps.append(comp)
            covered |= comp
        canonical = (covered, src_mask, targets)
        total = memo.get(canonical)
        if total is None:
            self.states_visited += 1
            total = 1.0
            for comp in comps:
                wanted = targets & comp
                masks, masses = self._table(comp, src_mask, wanted)
                part = 0.0
                for i in range(1, len(masks)):  # entry 0, the empty set, reaches nothing
                    mass = masses[i]
                    if mass == 0.0:
                        continue
                    x = masks[i]
                    left = wanted & ~x
                    if left:
                        p = memo.get((comp, x, left))
                        if p is None:
                            p = self._reach_all(comp, x, left)
                        part += mass * p
                    else:
                        part += mass
                total *= part
                if not total:
                    break
            stores = (canonical,) if probe == canonical else (canonical, probe)
        else:
            stores = (probe,)  # the memo missed the probe, so it is not the canonical key
        for key in stores:
            if len(memo) >= self.memo_cap:
                raise ResourceLimitError(f"memo table reached {len(memo)} entries, cap {self.memo_cap}")
            memo[key] = total
        return total


def _vertex_mask(graph: Graph, vertices: Iterable[int]) -> int:
    """Bit v set for each vertex v, each checked to be a vertex of the graph."""
    mask = 0
    for v in vertices:
        mask |= 1 << _check_vertex(graph, v)
    return mask


def _neighbors_of(graph: Graph, src_mask: int) -> int:
    """Mask of every neighbor of the sources, sources included when they
    neighbor each other."""
    nbr = graph.neighbor_masks
    near = 0
    while src_mask:
        low = src_mask & -src_mask
        src_mask ^= low
        near |= nbr[low.bit_length() - 1]
    return near


def _frontier(graph: Graph, near: int, src_mask: int) -> tuple[list[int], list[float]]:
    """The vertices of `near`, neighbors of the sources outside them, in
    increasing order, with their probabilities of receiving an edge
    oriented out of the sources.

    For each neighbor v, 1 minus the product over S-v edges of the
    probability that the edge points into S, multiplied in increasing order
    of the source. Edges inside S are ignored.
    """
    nbr = graph.neighbor_masks
    arcs = graph.arc_probabilities
    vertices: list[int] = []
    probs: list[float] = []
    while near:
        low = near & -near
        near ^= low
        v = low.bit_length() - 1
        row = arcs[v]
        stay_in = 1.0
        s = nbr[v] & src_mask
        while s:
            low = s & -s
            s ^= low
            stay_in *= row[low.bit_length() - 1]
        vertices.append(v)
        probs.append(1.0 - stay_in)
    return vertices, probs


def _subset_table(
    vertices: list[int],
    probs: list[float],
    groups: Collection[tuple[float, list[int]]] = (),
    limit: int = DEFAULT_MEMO_CAP,
) -> tuple[list[int], list[float]]:
    """Vertex mask and mass of every subset of `vertices`, each vertex
    included independently with its probability, and of every vector of
    member counts over `groups` of interchangeable vertices. A table of more
    than `limit` entries raises ResourceLimitError before any is built.

    For the vertices, entry i holds vertices[j] exactly when bit j of i is
    set. A group (p, members) of c members then multiplies the table
    (c+1)-fold: count j has mass C(c, j) p^j q^(c-j) and is represented by
    the first j members. A lone vertex is the case c = 1, whose weights are
    exactly (q, p); it is kept as a plain doubling because every graph
    without twins runs it at every state. Each mass is its factors
    multiplied in that order.
    """
    size = 1 << len(vertices)
    for _, members in groups:
        size *= len(members) + 1
    if size > limit:
        raise ResourceLimitError(f"frontier table of {size} entries exceeds the limit of {limit}")
    if vertices:  # the first vertex alone, as its doubling of [1.0] gives
        masks = [0, 1 << vertices[0]]
        masses = [1.0 - probs[0], probs[0]]
    else:
        masks = [0]
        masses = [1.0]
    for i in range(1, len(vertices)):
        bit = 1 << vertices[i]
        p = probs[i]
        q = 1.0 - p
        masses = [m * q for m in masses] + [m * p for m in masses]
        masks += [x | bit for x in masks]
    for p, members in groups:
        q = 1.0 - p
        c = len(members)
        weights = [comb(c, j) * p**j * q ** (c - j) for j in range(c + 1)]
        prefixes = [0]
        for v in members:
            prefixes.append(prefixes[-1] | 1 << v)
        masses = [m * w for w in weights for m in masses]
        masks = [x | b for b in prefixes for x in masks]
    return masks, masses


def out_neighborhood_distribution(graph: Graph, sources: Iterable[int] | int) -> SubsetDistribution:
    """Law of the set of outside vertices receiving an edge oriented out of
    the sources. Each outside neighbor v is included independently with its
    own probability, so the mass is a product over the ground set. A ground
    set of more than log2(DEFAULT_MEMO_CAP) vertices raises
    ResourceLimitError."""
    src_mask = _vertex_mask(graph, _check_sources(graph, sources))
    ground, probs = _frontier(graph, _neighbors_of(graph, src_mask) & ~src_mask, src_mask)
    _, masses = _subset_table(ground, probs)
    return SubsetDistribution(tuple(ground), dict(enumerate(masses)))


def exact_connection_prob(
    graph: Graph,
    sources: Iterable[int] | int,
    target: int,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> ExactResult:
    """P(sources -> target) via the out-neighborhood recursion."""
    engine = ExactEngine(graph, memo_cap)
    p = engine.connection(sources, target)
    return ExactResult(_clamp01(p), "recursion", engine.states_visited)


def exact_joint_prob(
    graph: Graph,
    sources: Iterable[int] | int,
    target_a: int,
    target_b: int,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> ExactResult:
    """P(sources -> a and sources -> b) via the same recursion with two targets."""
    engine = ExactEngine(graph, memo_cap)
    p = engine.joint(sources, target_a, target_b)
    return ExactResult(_clamp01(p), "recursion", engine.states_visited)
