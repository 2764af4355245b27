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
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError, ResourceLimitError
from .generators import complete_graph
from .graphs import (
    EventExpr,
    Graph,
    RandomStream,
    _check_sources,
    _check_vertex,
    _reach_packed,
    make_graph,
)
from .montecarlo import _check_sample_counts, paired_slacks, sampled_event_columns
from . import exact as _exact
from .exact import (
    DEFAULT_ENUM_CAP,
    ExactEngine,
    SubsetDistribution,
    _accumulate_row_masses,
    _enumeration_chunks,
    out_neighborhood_distribution,
    reachable_set_distribution,
)

HYPOTHESIS_TOL = 1e-12  # pure products of stored values
PROBABILITY_TOL = 1e-9  # accumulated summation error

_FOUR_FUNCTION_CHECK_CAP = 16


@dataclass(frozen=True)
class SetFunctionQuadruple:
    """Four nonnegative functions on the subsets of an ordered ground set.

    Each array has length 2^len(ground) and is indexed by subset bit pattern
    over the ground order.
    """

    ground: tuple[int, ...]
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        size = 1 << len(self.ground)
        for name in ("alpha", "beta", "gamma", "delta"):
            arr = getattr(self, name)
            if arr.shape != (size,):
                raise InputError(f"{name} must have one value per subset ({size})")
            if np.any(arr < 0.0):
                raise InputError(f"{name} has negative values")


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
        return {
            "instances_checked": self.instances_checked,
            "min_slack": self.min_slack,
            "worst_instance": self.worst_instance,
            "violations": self.violations,
        }


def merge_reports(reports: Iterable[VerificationReport]) -> VerificationReport:
    """Order-independent merge: minimum slack, concatenated violations."""
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


def check_four_functions(q: SetFunctionQuadruple, tolerance: float = HYPOTHESIS_TOL) -> VerificationReport:
    """Check alpha(X1)*beta(X2) <= gamma(X1|X2)*delta(X1&X2) for every ordered
    subset pair, and the product-of-sums conclusion."""
    g = len(q.ground)
    if g > _FOUR_FUNCTION_CHECK_CAP:
        raise ResourceLimitError(f"ground set of size {g} exceeds check cap {_FOUR_FUNCTION_CHECK_CAP}")
    for name in ("alpha", "beta", "gamma", "delta"):
        if np.any(getattr(q, name) < 0.0):
            raise InputError(f"{name} has negative values")
    size = 1 << g
    all_idx = np.arange(size)
    min_slack = math.inf
    worst = ""
    violations: list[dict] = []
    for x1 in range(size):
        lhs = q.alpha[x1] * q.beta
        rhs = q.gamma[x1 | all_idx] * q.delta[x1 & all_idx]
        slack = rhs - lhs
        j = int(np.argmin(slack))
        if slack[j] < min_slack:
            min_slack = float(slack[j])
            worst = f"pair (X1={x1:#x}, X2={j:#x})"
        for x2 in np.nonzero(slack < -tolerance)[0]:
            violations.append(
                {
                    "kind": "hypothesis",
                    "x1": int(x1),
                    "x2": int(x2),
                    "lhs": float(lhs[x2]),
                    "rhs": float(rhs[x2]),
                    "slack": float(slack[x2]),
                }
            )
    sums = [float(arr.sum()) for arr in (q.alpha, q.beta, q.gamma, q.delta)]
    conclusion_slack = sums[2] * sums[3] - sums[0] * sums[1]
    if conclusion_slack < min_slack:
        min_slack = conclusion_slack
        worst = "conclusion (products of sums)"
    if conclusion_slack < -tolerance:
        violations.append(
            {
                "kind": "conclusion",
                "lhs": sums[0] * sums[1],
                "rhs": sums[2] * sums[3],
                "slack": conclusion_slack,
            }
        )
    return VerificationReport(size * size + 1, min_slack, worst, violations)


def build_proof_quadruple(
    graph: Graph,
    sources: Iterable[int] | int,
    target_a: int,
    target_b: int,
) -> SetFunctionQuadruple:
    """Quadruple splitting P(S->a), P(S->b) and their joint over the law of
    the out-neighborhood of S, evaluated on the graph with S deleted.

    The four subset sums recover P(S->a), P(S->b), the joint probability,
    and 1.
    """
    src = _check_sources(graph, sources)
    _check_vertex(graph, target_a)
    _check_vertex(graph, target_b)
    if target_a in src or target_b in src:
        raise InputError("targets must lie outside the source set")
    src_mask = near = 0
    for s in src:
        src_mask |= 1 << s
        near |= graph.neighbor_masks[s]
    g = (near & ~src_mask).bit_count()  # the size of the out-neighbourhood's ground set
    if g > _FOUR_FUNCTION_CHECK_CAP:  # checked before 2^g subsets are built and queried
        raise ResourceLimitError(f"ground set of size {g} exceeds check cap {_FOUR_FUNCTION_CHECK_CAP}")
    dist = out_neighborhood_distribution(graph, src)
    ground = dist.ground
    size = 1 << len(ground)
    engine = ExactEngine(graph)
    rest = [v for v in range(graph.vertex_count) if v not in src]
    alpha = np.zeros(size)
    beta = np.zeros(size)
    gamma = np.zeros(size)
    delta = np.zeros(size)
    for xbits in range(size):
        mass = dist.mass[xbits]
        delta[xbits] = mass
        if mass == 0.0:
            continue
        x = dist.vertices_of(xbits)
        if not x:
            continue  # empty source set reaches nothing outside S
        alpha[xbits] = mass * engine.connection(x, target_a, within=rest)
        beta[xbits] = mass * engine.connection(x, target_b, within=rest)
        gamma[xbits] = mass * engine.joint(x, target_a, target_b, within=rest)
    return SetFunctionQuadruple(ground, alpha, beta, gamma, delta)


def verify_theorem_1(
    graph: Graph,
    mode: str = "exact",
    tolerance: float = PROBABILITY_TOL,
    samples: int = 100_000,
    seed: int = 0,
    streams: int = 1,
    memo_cap: int = _exact.DEFAULT_MEMO_CAP,
) -> VerificationReport:
    """Slack check P(s->a and s->b) - P(s->a)P(s->b) >= -tolerance over all
    ordered vertex triples. Monte Carlo mode reports estimated slacks and
    flags only negatives at least four standard errors below zero."""
    if mode == "exact":
        return _verify_triples_exact(graph, _single_vertex_sources(graph), tolerance, memo_cap)
    if mode == "montecarlo":
        return _verify_triples_montecarlo(graph, samples, seed, streams)
    raise InputError(f"unknown mode {mode!r}")


def _single_vertex_sources(graph: Graph) -> list[frozenset[int]]:
    return [frozenset((s,)) for s in range(graph.vertex_count)]


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
            # nonempty subsets sampled with replacement
            stream = RandomStream(self.seed, 0)
            full = (1 << vertex_count) - 1
            for u in stream.uniforms(self.count):
                mask = 1 + int(u * full)
                yield frozenset(v for v in range(vertex_count) if (mask >> v) & 1)
        else:
            raise InputError(f"unknown source set policy {self.kind!r}")


def verify_theorem_2(
    graph: Graph,
    policy: SourceSetPolicy,
    tolerance: float = PROBABILITY_TOL,
    memo_cap: int = _exact.DEFAULT_MEMO_CAP,
) -> VerificationReport:
    """Exact slack check with set sources drawn from the policy."""
    return _verify_triples_exact(graph, policy.source_sets(graph.vertex_count), tolerance, memo_cap)


def _verify_triples_exact(
    graph: Graph,
    source_sets: Iterable[frozenset[int]],
    tolerance: float,
    memo_cap: int = _exact.DEFAULT_MEMO_CAP,
) -> VerificationReport:
    """Check every triple (S, a, b); min_slack and worst_instance range over
    the triples with a and b outside S only, since the others have slack 0
    exactly. With no such triple they are 0.0 and ""."""
    engine = ExactEngine(graph, memo_cap)
    n = graph.vertex_count
    checked = 0
    min_slack = math.inf
    worst = ""
    violations: list[dict] = []
    for src in source_sets:
        p = [engine.connection(src, t) for t in range(n)]
        for a in range(n):
            p_a = p[a]
            for b in range(n):
                p_b = p[b]
                joint = engine.joint(src, a, b)
                slack = joint - p_a * p_b
                checked += 1
                if slack < min_slack and a not in src and b not in src:
                    min_slack = slack
                    worst = _triple_label(src, a, b)
                if slack < -tolerance:
                    violations.append(
                        {"instance": _triple_label(src, a, b), "slack": slack, "joint": joint,
                         "p_a": p_a, "p_b": p_b}
                    )
    if not math.isfinite(min_slack):
        min_slack = 0.0
    return VerificationReport(checked, min_slack, worst, violations)


def _triple_label(src: frozenset[int], a: int, b: int) -> str:
    return f"(S={sorted(src)}, a={a}, b={b})"


def _verify_triples_montecarlo(
    graph: Graph, samples: int, seed: int, streams: int
) -> VerificationReport:
    _check_sample_counts(samples, streams, minimum=2)
    n = graph.vertex_count
    checked = 0
    min_slack = math.inf
    worst = ""
    violations: list[dict] = []
    for s in range(n):
        events = [EventExpr.connection(s, t) for t in range(n)]
        est, se = paired_slacks(sampled_event_columns(graph, events, samples, seed, streams))
        for a in range(n):
            for t in range(n):
                slack, std_error = float(est[a, t]), float(se[a, t])
                checked += 1
                label = f"(s={s}, a={a}, b={t}) slack {slack:.6f} +- {1.96 * std_error:.6f}"
                if slack < min_slack:
                    min_slack = slack
                    worst = label
                # a zero standard error (every batch of one sample) proves nothing
                if std_error > 0.0 and slack <= -4.0 * std_error:
                    violations.append({"instance": label, "slack": slack, "std_error": std_error})
    if not math.isfinite(min_slack):
        min_slack = 0.0
    return VerificationReport(checked, min_slack, worst, violations)


def percolation_cluster_distribution(
    graph: Graph, root: int, density: float, enum_cap: int = DEFAULT_ENUM_CAP
) -> SubsetDistribution:
    """Exact law of the root's connected component when each edge is open
    independently with the given density."""
    _check_vertex(graph, root)
    if not (0.0 <= density <= 1.0):
        raise InputError(f"density {density} outside [0,1]")
    m = graph.edge_count
    if m > enum_cap:
        raise ResourceLimitError(f"enumeration over m={m} edges exceeds cap {enum_cap}")
    uniform = make_graph(graph.vertex_count, [(u, v, density) for u, v, _ in graph.edges])
    acc: dict[int, float] = {}
    for is_open, weights in _enumeration_chunks(uniform):
        # a cluster is the reach set when every open edge can be crossed both ways
        comp = _reach_packed(graph, is_open.columns, is_open.columns, (root,), is_open.k)
        _accumulate_row_masses(comp, weights, acc)
    return SubsetDistribution(tuple(range(graph.vertex_count)), acc)


def total_variation(d1: SubsetDistribution, d2: SubsetDistribution) -> float:
    """Half the L1 distance between two mass functions on the same ground set."""
    if d1.ground != d2.ground:
        raise InputError("distributions have different ground sets")
    keys = set(d1.mass) | set(d2.mass)
    return 0.5 * sum(abs(d1.mass.get(k, 0.0) - d2.mass.get(k, 0.0)) for k in keys)


def verify_mcdiarmid(graph: Graph, root: int, enum_cap: int = DEFAULT_ENUM_CAP) -> float:
    """Total variation distance between the law of the reachable set from the
    root under an unbiased orientation and the law of the root's percolation
    cluster at density 1/2. Expected to be 0."""
    _check_vertex(graph, root)
    unbiased = make_graph(graph.vertex_count, [(u, v, 0.5) for u, v, _ in graph.edges])
    reach_law = reachable_set_distribution(unbiased, root, enum_cap)
    cluster_law = percolation_cluster_distribution(graph, root, 0.5, enum_cap)
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
        d = {
            "n": self.n,
            "covariance": self.covariance,
            "p_a_to_s": self.p_a_to_s,
            "p_s_to_b": self.p_s_to_b,
            "p_joint": self.p_joint,
            "method": self.method,
        }
        if self.method == "montecarlo":
            d["samples"] = self.samples
            d["std_error"] = self.std_error
            d["seed"] = self.seed
        return d


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
    if n < 3:
        raise InputError("need n >= 3 for three distinct vertices")
    graph = complete_graph(n, bias=0.5)
    s, a, b = 0, 1, 2
    ev_a = EventExpr.connection(a, s)  # a -> s
    ev_b = EventExpr.connection(s, b)  # s -> b
    if mode == "exact":
        p_a = _exact.brute_force_prob(graph, ev_a, enum_cap).probability
        p_b = _exact.brute_force_prob(graph, ev_b, enum_cap).probability
        p_ab = _exact.brute_force_prob(graph, ev_a & ev_b, enum_cap).probability
        return AlmLinussonResult(n, p_ab - p_a * p_b, p_a, p_b, p_ab, "exact")
    if mode == "montecarlo":
        cols = sampled_event_columns(graph, [ev_a, ev_b], samples, seed, streams)
        ca, cb = cols[:, 0], cols[:, 1]
        cab = ca & cb
        p_a = int(ca.sum()) / samples
        p_b = int(cb.sum()) / samples
        p_ab = int(cab.sum()) / samples
        cov = p_ab - p_a * p_b
        se = float(paired_slacks(cols)[1][0, 1])
        return AlmLinussonResult(n, cov, p_a, p_b, p_ab, "montecarlo", samples, se, seed)
    raise InputError(f"unknown mode {mode!r}")
