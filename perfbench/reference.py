"""Independent references for the benchmark's output checks.

Nothing here imports orientprob: closed forms for unbiased complete graphs,
a plain seeded sampler of reachable sets, and z-tests that compare a Monte
Carlo figure with an exact value or with an independent estimate. The tests
do not depend on the program's random stream, so a change of sample stream
is not a failure; only an estimate more than Z standard errors off is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np

Z = 5.0  # standard errors allowed between an estimate and its reference


def complete_unbiased(n: int) -> tuple[float, float]:
    """(P(s->t), P(s->a and s->b)) on K_n with unbiased orientations.

    The reachable set R from s is a given set A exactly when every edge
    between A and the rest points into A and s reaches all of A inside A.
    By symmetry the second factor depends only on |A|; f[k] is its value.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    half = Fraction(1, 2)
    f = [Fraction(0)] * (n + 1)
    f[1] = Fraction(1)
    for k in range(2, n + 1):
        f[k] = 1 - sum(comb(k - 1, j - 1) * f[j] * half ** (j * (k - j)) for j in range(1, k))
    miss_one = sum(comb(n - 2, j - 1) * f[j] * half ** (j * (n - j)) for j in range(1, n))
    miss_two = sum(comb(n - 3, j - 1) * f[j] * half ** (j * (n - j)) for j in range(1, n - 1))
    return float(1 - miss_one), float(1 - 2 * miss_one + miss_two)


def grid_edges(width: int, height: int, bias: float) -> list[tuple[int, int, float]]:
    """Box edges with vertex (x, y) = y*width + x; bias is the right/up direction."""
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1, bias))
            if y + 1 < height:
                edges.append((v, v + width, bias))
    return edges


def complete_edges(n: int, bias: float = 0.5) -> list[tuple[int, int, float]]:
    return [(u, v, bias) for u in range(n) for v in range(u + 1, n)]


def sample_reach(
    n: int, edges: list[tuple[int, int, float]], sources: list[int], samples: int, seed: int
) -> np.ndarray:
    """(n, samples) boolean matrix: column i is the set reached from the
    sources in sample i. Edge (u, v, p) points u -> v with probability p.
    Sweeps the edges forwards and backwards in turn until nothing changes."""
    rng = np.random.default_rng(seed)
    bias = np.array([p for _, _, p in edges], dtype=np.float64)
    fwd = rng.random((len(edges), samples)) < bias[:, None]
    bwd = ~fwd
    reach = np.zeros((n, samples), dtype=bool)
    reach[list(sources)] = True
    order = list(range(len(edges)))
    count = int(reach.sum())
    while True:
        for e in order:
            u, v, _ = edges[e]
            reach[v] |= reach[u] & fwd[e]
            reach[u] |= reach[v] & bwd[e]
        new = int(reach.sum())
        if new == count:
            return reach
        count = new
        order.reverse()


def reaches(n: int, arcs: list[tuple[int, int]], a: int, b: int) -> bool:
    """Whether a reaches b along the directed arcs (plain depth-first search)."""
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
    seen = {a}
    stack = [a]
    while stack:
        for y in out[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return b in seen


def proportion_matches(p_hat: float, samples: int, p: float) -> bool:
    """p_hat, a mean of `samples` indicators, is within Z standard errors of p."""
    var = max(p * (1.0 - p), 1.0 / samples)
    return abs(p_hat - p) <= Z * math.sqrt(var / samples)


def proportions_agree(p1: float, n1: int, p2: float, n2: int) -> bool:
    """Two independent indicator means agree within Z pooled standard errors."""
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    var = max(pooled * (1.0 - pooled), 1.0 / (n1 + n2))
    return abs(p1 - p2) <= Z * math.sqrt(var * (1.0 / n1 + 1.0 / n2))


def means_agree(m1: float, n1: int, ref: np.ndarray) -> bool:
    """A mean of n1 draws agrees with the reference draws within Z standard
    errors, using the reference's spread for both."""
    sd = float(np.std(ref, ddof=1)) if len(ref) > 1 else 0.0
    return abs(m1 - float(np.mean(ref))) <= Z * sd * math.sqrt(1.0 / n1 + 1.0 / len(ref)) + 1e-9
