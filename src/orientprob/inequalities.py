"""Correlation-inequality verification on concrete instances.

Covers the generic four-function condition of Ahlswede and Daykin, the
quadruple of set functions obtained by conditioning a pair of connection
events on the random out-neighborhood of the source set, exhaustive slack
sweeps, the unbiased-orientation/percolation coupling, and the complete-graph
covariance experiment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InputError, ResourceLimitError
from .generators import complete_graph
from .graphs import (
    EventExpr,
    Graph,
    PackedBatch,
    RandomStream,
    _check_sources,
    _check_vertex,
    _reach_packed,
    make_graph,
)
from .montecarlo import _check_sample_counts, _slack, paired_slacks, sampled_counts
from .exact import (
    DEFAULT_ENUM_CAP,
    DEFAULT_MEMO_CAP,
    ExactEngine,
    SubsetDistribution,
    _enumerated_law,
    _enumerated_probs,
    _frontier,
    _neighbors_of,
    _reach_rows,
    _subset_table,
    _vertex_mask,
)

HYPOTHESIS_TOL = 1e-12  # pure products of stored values
PROBABILITY_TOL = 1e-9  # accumulated summation error

_FOUR_FUNCTION_CHECK_CAP = 16
_FOUR_FUNCTION_BLOCK_PAIRS = 1 << 14  # subset pairs per block of X1 rows, at least one row


@dataclass(frozen=True)
class SetFunctionQuadruple:
    """Four finite nonnegative functions on the subsets of an ordered ground set.

    Each array has length 2^len(ground) and is indexed by subset bit pattern
    over the ground order.
    """

    ground: tuple[int, ...]
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        _check_arrays(self)


def _check_arrays(q: SetFunctionQuadruple) -> None:
    size = 1 << len(q.ground)
    for name in ("alpha", "beta", "gamma", "delta"):
        arr = getattr(q, name)
        if arr.shape != (size,):
            raise InputError(f"{name} must have one value per subset ({size})")
        if not np.all((arr >= 0.0) & (arr < math.inf)):  # false at NaN too
            raise InputError(f"{name} has negative or non-finite values")


@dataclass(frozen=True)
class VerificationReport:
    instances_checked: int
    min_slack: float
    worst_instance: str
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        """The report as JSON-ready values; a non-finite number in a
        violation record, such as the NaN slack of an overflowed product,
        is written as None, so the dict stays valid JSON."""
        d = asdict(self)
        d["violations"] = [{k: _finite_or_none(v) for k, v in rec.items()} for rec in self.violations]
        return d


def _finite_or_none(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def merge_reports(reports: Iterable[VerificationReport]) -> VerificationReport:
    """Fold reports in order: the least min_slack with the worst_instance of
    the first report that attains it, and the violations concatenated in
    input order. A min_slack of inf never ranks; with nothing ranked the
    result is 0.0 and ""."""
    total = 0
    min_slack = math.inf
    worst = ""
    violations: list[dict] = []
    for r in reports:
        total += r.instances_checked
        if r.min_slack < min_slack:
            min_slack = r.min_slack
            worst = r.worst_instance
        violations.extend(r.violations)
    if not math.isfinite(min_slack):
        min_slack = 0.0
    return VerificationReport(total, min_slack, worst, violations)


def _slack_block(
    ranked: np.ndarray, flagged: np.ndarray | None, label: Callable[..., str], record: Callable[..., dict] | None
) -> VerificationReport:
    """One report for a 2-d block of slacks: the least entry of ranked, the
    first in C order on a tie, named by label(row, column), and
    record(row, column) for each flagged entry in C order; flagged None
    flags nothing. An entry ranked inf or NaN is never the worst."""
    width = ranked.shape[1]
    hits = [] if flagged is None else flagged.ravel().nonzero()[0].tolist()  # np.nonzero is slow on a 2-d mask
    violations = [record(*divmod(k, width)) for k in hits]
    k = int(ranked.argmin())
    if math.isnan(ranked.flat[k]):  # argmin takes the first NaN over any number
        ranked = np.where(np.isnan(ranked), math.inf, ranked)
        k = int(ranked.argmin())
    least = float(ranked.flat[k])
    return VerificationReport(ranked.size, least, label(*divmod(k, width)) if least < math.inf else "", violations)


def _check_tolerance(tolerance: float) -> None:
    """A NaN tolerance would pass every slack or flag every one; a negative
    one is allowed and flags the slacks below it."""
    if math.isnan(tolerance):
        raise InputError("tolerance must be a number, got nan")


def check_four_functions(q: SetFunctionQuadruple, tolerance: float = HYPOTHESIS_TOL) -> VerificationReport:
    """Check alpha(X1)*beta(X2) <= gamma(X1|X2)*delta(X1&X2) for every ordered
    subset pair, and the product-of-sums conclusion. A slack that is NaN,
    as when both sides overflow to inf, is a violation and is not ranked."""
    _check_tolerance(tolerance)
    g = len(q.ground)
    if g > _FOUR_FUNCTION_CHECK_CAP:
        raise ResourceLimitError(f"ground set of size {g} exceeds check cap {_FOUR_FUNCTION_CHECK_CAP}")
    _check_arrays(q)  # the arrays are mutable
    # the blocks are built in this frame, so a profile charges them here, not to the fold
    return merge_reports(list(_four_function_blocks(q, tolerance)))


def _four_function_blocks(q: SetFunctionQuadruple, tolerance: float) -> Iterator[VerificationReport]:
    size = 1 << len(q.ground)
    all_idx = np.arange(size)
    rows = max(1, _FOUR_FUNCTION_BLOCK_PAIRS // size)
    for first in range(0, size, rows):
        x1 = all_idx[first:first + rows, None]
        lhs = q.alpha[x1] * q.beta
        rhs = q.gamma[x1 | all_idx] * q.delta[x1 & all_idx]
        slack = rhs - lhs
        yield _slack_block(
            slack, ~(slack >= -tolerance), lambda i, j: f"pair (X1={first + i:#x}, X2={j:#x})",
            lambda i, j: {"kind": "hypothesis", "x1": first + i, "x2": j, "lhs": float(lhs[i, j]),
                          "rhs": float(rhs[i, j]), "slack": float(slack[i, j])},
        )
    sums = [float(arr.sum()) for arr in (q.alpha, q.beta, q.gamma, q.delta)]
    lhs, rhs = sums[0] * sums[1], sums[2] * sums[3]
    slack = np.array([[rhs - lhs]])
    yield _slack_block(
        slack, ~(slack >= -tolerance), lambda i, j: "conclusion (products of sums)",
        lambda i, j: {"kind": "conclusion", "lhs": lhs, "rhs": rhs, "slack": rhs - lhs},
    )


def build_proof_quadruple(
    graph: Graph,
    sources: Iterable[int] | int,
    target_a: int,
    target_b: int,
) -> SetFunctionQuadruple:
    """Quadruple splitting P(S->a), P(S->b) and their joint over the law of
    the out-neighborhood of S, evaluated on the graph with S deleted.

    The four subset sums recover P(S->a), P(S->b), the joint probability,
    and 1. Entry i of each array is for the out-neighbourhood with key i in
    out_neighborhood_distribution(graph, sources).
    """
    src = _check_sources(graph, sources)
    _check_vertex(graph, target_a)
    _check_vertex(graph, target_b)
    if target_a in src or target_b in src:
        raise InputError("targets must lie outside the source set")
    src_mask = _vertex_mask(graph, src)
    rest = ((1 << graph.vertex_count) - 1) & ~src_mask
    ground, probs = _frontier(graph, _neighbors_of(graph, src_mask) & rest, src_mask)
    if len(ground) > _FOUR_FUNCTION_CHECK_CAP:  # before 2^g subsets are built and queried
        raise ResourceLimitError(f"ground set of size {len(ground)} exceeds check cap {_FOUR_FUNCTION_CHECK_CAP}")
    masks, masses = _subset_table(ground, probs)
    engine = ExactEngine(graph)
    a, b = 1 << target_a, 1 << target_b
    delta = np.array(masses)
    values = np.zeros((len(masses), 3))  # P(X -> a), P(X -> b) and their joint, off S
    for i, (x, mass) in enumerate(zip(masks, masses)):
        if mass and x:  # the empty source set reaches nothing outside S
            values[i] = engine._batch(x, [a, b, a | b], rest)
    alpha, beta, gamma = (delta * column for column in values.T)
    return SetFunctionQuadruple(tuple(ground), alpha, beta, gamma, delta)


def verify_theorem_1(
    graph: Graph,
    mode: str = "exact",
    tolerance: float = PROBABILITY_TOL,
    samples: int = 100_000,
    seed: int = 0,
    streams: int = 1,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> VerificationReport:
    """Slack check P(s->a and s->b) - P(s->a)P(s->b) >= -tolerance over all
    ordered vertex triples. Monte Carlo mode ranks estimated slacks and
    flags none: an estimate certifies no violation."""
    _check_tolerance(tolerance)
    if mode == "exact":
        sources = (frozenset((s,)) for s in range(graph.vertex_count))
        return merge_reports(list(_verify_triples_exact(graph, sources, tolerance, memo_cap)))
    if mode == "montecarlo":
        _check_sample_counts(samples, streams, minimum=2)
        return merge_reports(list(_verify_triples_montecarlo(graph, samples, seed, streams)))
    raise InputError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class SourceSetPolicy:
    """Which source sets a set-source sweep visits."""

    kind: str  # "up_to_size" | "random"
    max_size: int = 3
    count: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_size < 0:
            raise InputError(f"maximum source set size must be >= 0, got {self.max_size}")
        if self.count < 0:
            raise InputError(f"random source set count must be >= 0, got {self.count}")

    @staticmethod
    def up_to_size(k: int) -> "SourceSetPolicy":
        return SourceSetPolicy(kind="up_to_size", max_size=k)

    @staticmethod
    def random(count: int, seed: int) -> "SourceSetPolicy":
        return SourceSetPolicy(kind="random", count=count, seed=seed)

    def source_sets(self, vertex_count: int) -> Iterator[frozenset[int]]:
        if self.kind == "up_to_size":
            for k in range(1, min(self.max_size, vertex_count) + 1):
                for combo in itertools.combinations(range(vertex_count), k):
                    yield frozenset(combo)
        elif self.kind == "random":
            # nonempty subsets sampled with replacement, each equally likely;
            # a graph with no vertices has none
            stream = RandomStream(self.seed, 0)
            full = (1 << vertex_count) - 1
            for _ in range(self.count if vertex_count else 0):
                mask = _nonempty_mask(stream, full)
                yield frozenset(v for v in range(vertex_count) if (mask >> v) & 1)
        else:
            raise InputError(f"unknown source set policy {self.kind!r}")


def _nonempty_mask(stream: RandomStream, full: int) -> int:
    """A uniform nonempty subset of full's bits: whole 64-bit words cut to
    full, drawn again when empty."""
    words = -(-full.bit_length() // 64)
    mask = 0
    while not mask:
        mask = sum(int(w) << (64 * i) for i, w in enumerate(stream.words(words))) & full
    return mask


def verify_theorem_2(
    graph: Graph,
    policy: SourceSetPolicy,
    tolerance: float = PROBABILITY_TOL,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> VerificationReport:
    """Exact slack check with set sources drawn from the policy."""
    _check_tolerance(tolerance)
    sources = policy.source_sets(graph.vertex_count)
    return merge_reports(list(_verify_triples_exact(graph, sources, tolerance, memo_cap)))


def _verify_triples_exact(
    graph: Graph, source_sets: Iterable[frozenset[int]], tolerance: float, memo_cap: int
) -> Iterator[VerificationReport]:
    """One block per source set S, over every triple (S, a, b). Only triples
    with a and b outside S are ranked: the others have slack 0 exactly."""
    engine = ExactEngine(graph, memo_cap)
    n = graph.vertex_count
    full = (1 << n) - 1
    bits = [1 << t for t in range(n)]
    target_masks = [a | b for a in bits for b in bits]  # a | a is the single target a
    for src in source_sets:
        src_mask = _vertex_mask(graph, _check_sources(graph, src))
        joint = np.array(engine._batch(src_mask, target_masks, full)).reshape(n, n)
        p, slack = joint.diagonal(), _slack(joint)
        yield _slack_block(
            _outside(slack, src), slack < -tolerance, lambda a, b: _triple_label(src, a, b),
            lambda a, b: {"instance": _triple_label(src, a, b), "slack": float(slack[a, b]),
                          "joint": float(joint[a, b]), "p_a": float(p[a]), "p_b": float(p[b])},
        )


def _outside(slack: np.ndarray, inside: Iterable[int]) -> np.ndarray:
    """A copy of slack that ranks every triple with a or b in inside as inf."""
    ranked = slack.copy()
    for v in inside:
        ranked[v] = ranked[:, v] = math.inf
    return ranked


def _triple_label(src: frozenset[int], a: int, b: int) -> str:
    return f"(S={sorted(src)}, a={a}, b={b})"


def _verify_triples_montecarlo(
    graph: Graph, samples: int, seed: int, streams: int
) -> Iterator[VerificationReport]:
    """One block per source vertex s of paired slack estimates, ranked like
    the exact blocks, every source read on the same orientations. An
    estimate certifies nothing, so none is flagged."""
    n = graph.vertex_count
    groups = [[EventExpr.connection(s, t) for t in range(n)] for s in range(n)]
    for s, counts in enumerate(sampled_counts(graph, groups, samples, seed, streams)):
        _, est, se = paired_slacks(counts, samples)
        yield _slack_block(
            _outside(est, (s,)), None,
            lambda a, b: f"(s={s}, a={a}, b={b}) slack {est[a, b]:.6f} +- {1.96 * se[a, b]:.6f}", None,
        )


def percolation_cluster_distribution(
    graph: Graph, root: int, density: float, enum_cap: int = DEFAULT_ENUM_CAP
) -> SubsetDistribution:
    """Exact law of the root's connected component when each edge is open
    independently with the given density."""
    _check_vertex(graph, root)
    if not (0.0 <= density <= 1.0):
        raise InputError(f"density {density} outside [0,1]")
    uniform = make_graph(graph.vertex_count, [(u, v, density) for u, v, _ in graph.edges])
    (law,) = _enumerated_law(uniform, enum_cap, [_cluster_rows(graph, root)], [root])
    return law


def _cluster_rows(graph: Graph, root: int) -> Callable[[PackedBatch], PackedBatch]:
    """The reader of the root's cluster in each row, whose bit e tells
    whether edge e is open: a cluster is the reach set when every open edge
    can be crossed both ways."""
    return lambda is_open: _reach_packed(graph, is_open.columns, is_open.columns, (root,), is_open.k)


def total_variation(d1: SubsetDistribution, d2: SubsetDistribution) -> float:
    """Half the L1 distance between two mass functions on the same ground set."""
    if d1.ground != d2.ground:
        raise InputError("distributions have different ground sets")
    keys = set(d1.mass) | set(d2.mass)
    return 0.5 * math.fsum(abs(d1.mass.get(k, 0.0) - d2.mass.get(k, 0.0)) for k in keys)


def verify_mcdiarmid(graph: Graph, root: int, enum_cap: int = DEFAULT_ENUM_CAP) -> float:
    """Total variation distance between the law of the reachable set from the
    root under an unbiased orientation and the law of the root's percolation
    cluster at density 1/2. Expected to be 0.

    Both laws are read from one enumeration of the root's component in the
    unbiased copy of the graph: a block's rows are orientations for the one
    law and open-edge sets for the other, each of weight 2^-m for the m
    edges of the component."""
    unbiased = make_graph(graph.vertex_count, [(u, v, 0.5) for u, v, _ in graph.edges])
    readers = [_reach_rows(unbiased, root), _cluster_rows(unbiased, root)]  # root checked before the cap
    reach_law, cluster_law = _enumerated_law(unbiased, enum_cap, readers, [root])
    return total_variation(reach_law, cluster_law)


@dataclass(frozen=True)
class AlmLinussonResult:
    n: int
    covariance: float
    p_a_to_s: float
    p_s_to_b: float
    p_joint: float
    method: str
    samples: int | None = None
    std_error: float | None = None
    seed: int | None = None

    def as_dict(self) -> dict:
        d = asdict(self)
        if self.method != "montecarlo":
            del d["samples"], d["std_error"], d["seed"]
        return d


def _check_alm_linusson_n(n: int) -> None:
    if n < 3:
        raise InputError("need n >= 3 for three distinct vertices")


def alm_linusson_covariance(
    n: int,
    mode: str = "exact",
    samples: int = 1_000_000,
    seed: int = 0,
    streams: int = 1,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> AlmLinussonResult:
    """Covariance of the events a->s and s->b on an unbiased complete graph,
    for three distinct labeled vertices (s, a, b) = (0, 1, 2); any labeling
    gives the same value by symmetry. Exploratory: the sign is reported, not
    asserted."""
    _check_alm_linusson_n(n)
    graph = complete_graph(n, bias=0.5)
    s, a, b = 0, 1, 2
    ev_a = EventExpr.connection(a, s)  # a -> s
    ev_b = EventExpr.connection(s, b)  # s -> b
    if mode == "exact":
        (p_a, p_b, p_ab), _ = _enumerated_probs(graph, [ev_a, ev_b, ev_a & ev_b], enum_cap)
        return AlmLinussonResult(n, p_ab - p_a * p_b, p_a, p_b, p_ab, "exact")
    if mode == "montecarlo":
        _check_sample_counts(samples, streams, minimum=2)
        (counts,) = sampled_counts(graph, [[ev_a, ev_b]], samples, seed, streams)
        joint, est, se = paired_slacks(counts, samples)
        p_a, p_b, p_ab = float(joint[0, 0]), float(joint[1, 1]), float(joint[0, 1])
        return AlmLinussonResult(n, float(est[0, 1]), p_a, p_b, p_ab, "montecarlo", samples, float(se[0, 1]), seed)
    raise InputError(f"unknown mode {mode!r}")
