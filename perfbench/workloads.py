"""The benchmark's workloads: seeded inputs, CLI argument lists and checks.

Each workload is a list of jobs. A job is one `orientprob` command line,
expected to exit 0, and a check that reads the command's standard output
and returns None when it is right, or the reason it is wrong. Checks run outside the timed region
and may use the package (passed in as `op`) and the references in
`reference.py`. Every input, including each `--seed` given to the program,
comes from the benchmark seed.

Why each workload exists, and which layers it should move, is in README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("sampled", "exact", "enumeration")

# Sizes for the measured runs ("full") and for the smoke tests ("tiny").
SIZES = {
    "full": {
        "mc_grids": ((16, 1000), (24, 400)),
        "mc_streams": (1, 8),
        "stats_grid": 16,
        "stats_samples": 1000,
        "stats_biases": (0.25, 0.5, 0.75),
        # (width, height, a, b); the first is the acceptance instance
        "witness_boxes": ((8, 7, (0, 2), (7, 4)), (12, 10, (0, 3), (11, 6)), (16, 12, (0, 4), (15, 7))),
        "slack_n": 10,
        "slack_samples": 100_000,
        "alm_mc_n": 12,
        "alm_mc_samples": 100_000,
        "t1_mc_n": 7,
        "t1_mc_samples": 20_000,
        "ref_samples": 20_000,
        "ref_grid_samples": 4_000,
        "exact_complete": 10,
        "exact_grid": (4, 5, 0.6),
        "sparse": (12, 16, 4),  # n, m, graphs
        "t1_random": (6, 10, 50),  # n, m, trials
        "t2": (6, 3),  # complete n, max set size
        "fourfunc_n": 10,
        "enum_n": 8,
        "enum_conn_m": 20,
        "enum_joint_m": 21,
        "mcdiarmid": (8, 18),
    },
    "tiny": {
        "mc_grids": ((4, 200),),
        "mc_streams": (1, 3),
        "stats_grid": 4,
        "stats_samples": 200,
        "stats_biases": (0.5,),
        "witness_boxes": ((8, 7, (0, 2), (7, 4)),),
        "slack_n": 5,
        "slack_samples": 2_000,
        "alm_mc_n": 5,
        "alm_mc_samples": 2_000,
        "t1_mc_n": 4,
        "t1_mc_samples": 1_000,
        "ref_samples": 2_000,
        "ref_grid_samples": 1_000,
        "exact_complete": 6,
        "exact_grid": (3, 3, 0.6),
        "sparse": (7, 9, 1),
        "t1_random": (5, 7, 3),
        "t2": (4, 2),
        "fourfunc_n": 6,
        "enum_n": 6,
        "enum_conn_m": 10,
        "enum_joint_m": 11,
        "mcdiarmid": (6, 9),
    },
}


@dataclass(frozen=True)
class Job:
    argv: list[str]
    check: Callable[[str, object], str | None]


def build(workload: str, seed: int, workdir: Path, size: str = "full") -> list[Job]:
    """The workload's jobs for this seed; graph files are written to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    builders = {"sampled": _sampled, "exact": _exact, "enumeration": _enumeration}
    return builders[workload](rng, SIZES[size], workdir)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _connected_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int, float]]:
    """Random spanning tree plus random extra pairs; biases uniform in [0.05, 0.95]."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    rest = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - pairs)
    pairs |= set(rng.sample(rest, m - len(pairs)))
    return [(u, v, rng.uniform(0.05, 0.95)) for u, v in sorted(pairs)]


def _write_graph(workdir: Path, name: str, n: int, edges: list[tuple[int, int, float]]) -> str:
    path = workdir / f"{name}.edges"
    lines = [f"n {n}"] + [f"{u} {v} {p!r}" for u, v, p in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _once(fn: Callable[[], object]) -> Callable[[], object]:
    """Compute a reference on first use; jobs that share it pay once."""
    box: list = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# ----------------------------------------------------------------- sampled


def _sampled(rng: random.Random, s: dict, workdir: Path) -> list[Job]:
    jobs: list[Job] = []
    for w, samples in s["mc_grids"]:
        n = w * w
        edges = ref.grid_edges(w, w, 0.5)
        reach = _once(lambda n=n, edges=edges, rs=_seed(rng):
                      ref.sample_reach(n, edges, [0], s["ref_grid_samples"], rs))
        for streams in s["mc_streams"]:
            argv = ["mc", "--grid", f"{w}x{w}", "--bias", "0.5", "--source", "0", "--target", str(n - 1),
                    "--samples", str(samples), "--seed", str(_seed(rng)), "--streams", str(streams)]
            jobs.append(Job(argv, _check_estimate(reach, n - 1)))

    w = s["stats_grid"]
    biases = s["stats_biases"]
    refs = {p: _once(lambda p=p, rs=_seed(rng):
                     ref.sample_reach(w * w, ref.grid_edges(w, w, p), [0], s["ref_grid_samples"], rs))
            for p in biases}
    argv = ["grid-stats", "--grid", f"{w}x{w}", "--bias", ",".join(map(str, biases)),
            "--samples", str(s["stats_samples"]), "--seed", str(_seed(rng))]
    jobs.append(Job(argv, _check_grid_stats(w, refs)))

    for width, height, a, b in s["witness_boxes"]:
        for flip in ("toward-high", "toward-low"):
            argv = ["witness", "--grid", f"{width}x{height}", "--a", f"{a[0]},{a[1]}", "--b", f"{b[0]},{b[1]}",
                    "--flip", flip, "--budget", "1000000", "--seed", str(_seed(rng))]
            jobs.append(Job(argv, _check_witness(width, height, a, b, flip)))

    n = s["slack_n"]
    argv = ["mc-slack", "--complete", str(n), "--source", "0", "--a", "1", "--b", "2",
            "--samples", str(s["slack_samples"]), "--seed", str(_seed(rng))]
    jobs.append(Job(argv, _check_slack(n)))

    n = s["alm_mc_n"]
    ref_joint = _once(lambda n=n, rs=_seed(rng): _alm_joint_reference(n, s["ref_samples"], rs))
    argv = ["alm-linusson", "--n", str(n), "--mode", "montecarlo", "--samples", str(s["alm_mc_samples"]),
            "--seed", str(_seed(rng)), "--streams", "8"]
    jobs.append(Job(argv, _check_alm(n, ref_joint, s["ref_samples"])))

    n = s["t1_mc_n"]
    argv = ["verify-t1", "--complete", str(n), "--mode", "montecarlo", "--samples", str(s["t1_mc_samples"]),
            "--seed", str(_seed(rng))]
    jobs.append(Job(argv, _check_report(n ** 3)))
    return jobs


def _check_estimate(reach: Callable[[], np.ndarray], target: int):
    def check(out: str, op) -> str | None:
        d = json.loads(out)
        est, n1 = d["estimate"], d["samples"]
        if abs(d["std_error"] - math.sqrt(est * (1.0 - est) / n1)) > 1e-12:
            return f"std_error {d['std_error']} does not match estimate {est}"
        col = reach()[target]
        if not ref.proportions_agree(est, n1, float(col.mean()), len(col)):
            return f"estimate {est} vs independent reference {col.mean()} ({len(col)} samples)"
        return None

    return check


def _check_grid_stats(w: int, refs: dict):
    xs = np.arange(w * w) % w
    ys = np.arange(w * w) // w
    far = (xs == w - 1) | (ys == w - 1)
    radius = np.maximum(xs, ys)

    def check(out: str, op) -> str | None:
        rows = list(csv.DictReader(io.StringIO(out)))
        if [float(r["p"]) for r in rows] != list(refs):
            return "rows do not match the requested biases"
        for r in rows:
            reach = refs[float(r["p"])]()
            n1 = int(r["samples"])
            sizes = reach.sum(axis=0)
            radii = np.where(reach, radius[:, None], 0).max(axis=0)
            hits = reach[far].any(axis=0)
            if not (1 <= float(r["mean_reach"]) <= int(r["max_reach"]) <= w * w):
                return f"reach sizes out of range in row {r}"
            if int(r["max_radius"]) > w - 1:
                return f"radius out of range in row {r}"
            if not ref.means_agree(float(r["mean_reach"]), n1, sizes):
                return f"mean_reach {r['mean_reach']} vs reference {sizes.mean()} at p={r['p']}"
            if not ref.means_agree(float(r["mean_radius"]), n1, radii):
                return f"mean_radius {r['mean_radius']} vs reference {radii.mean()} at p={r['p']}"
            if not ref.proportions_agree(float(r["boundary_frac"]), n1, float(hits.mean()), len(hits)):
                return f"boundary_frac {r['boundary_frac']} vs reference {hits.mean()} at p={r['p']}"
        return None

    return check


def _check_witness(width: int, height: int, a: tuple[int, int], b: tuple[int, int], flip: str):
    def check(out: str, op) -> str | None:
        d = json.loads(out)
        graph = op.build_grid(op.GridSpec(width, height, 0.5)).graph
        a_id, b_id = a[1] * width + a[0], b[1] * width + b[0]
        if not d["found"] or (d["a"], d["b"], d["flip_direction"]) != (a_id, b_id, flip):
            return f"unexpected witness header {d}"
        bits = d["orientation_bits"]
        e = d["edge_index"]
        low, high = graph.edges[e].low, graph.edges[e].high
        if len(bits) != graph.edge_count or d["edge"] != [low, high] or high != low + 1:
            return "witness edge is not the stated horizontal edge"
        if bits[e] == (1 if flip == "toward-high" else 0):
            return "flipped edge already points the stated way"
        witness = op.Witness(op.Orientation(tuple(bits)), e, flip, a_id, b_id)
        if not witness.verify(graph):
            return "Witness.verify rejects the witness"
        arcs = [(u, v) if bit else (v, u) for bit, (u, v, _) in zip(bits, graph.edges)]
        flipped = list(arcs)
        flipped[e] = arcs[e][::-1]
        n = graph.vertex_count
        if not ref.reaches(n, arcs, a_id, b_id) or ref.reaches(n, flipped, a_id, b_id):
            return "independent search disagrees with the witness"
        return None

    return check


def _check_slack(n: int):
    def check(out: str, op) -> str | None:
        d = json.loads(out)
        p, joint = ref.complete_unbiased(n)
        exact = joint - p * p
        if not abs(d["slack"] - exact) <= ref.Z * d["std_error"]:
            return f"slack {d['slack']} +- {d['std_error']} vs exact {exact}"
        return None

    return check


def _alm_joint_reference(n: int, samples: int, seed: int) -> float:
    """Independent estimate of P(1 -> 0 and 0 -> 2) on unbiased K_n."""
    edges = ref.complete_edges(n)
    from_a = ref.sample_reach(n, edges, [1], samples, seed)
    from_s = ref.sample_reach(n, edges, [0], samples, seed)  # same seed: same orientations
    return float((from_a[0] & from_s[2]).mean())


def _check_alm(n: int, ref_joint: Callable[[], float], ref_samples: int):
    def check(out: str, op) -> str | None:
        d = json.loads(out)
        p, _ = ref.complete_unbiased(n)
        if abs(d["covariance"] - (d["p_joint"] - d["p_a_to_s"] * d["p_s_to_b"])) > 1e-12:
            return "covariance is not p_joint - p_a_to_s * p_s_to_b"
        samples = d["samples"]
        for key in ("p_a_to_s", "p_s_to_b"):
            if not ref.proportion_matches(d[key], samples, p):
                return f"{key} {d[key]} vs exact {p}"
        if not ref.proportions_agree(d["p_joint"], samples, ref_joint(), ref_samples):
            return f"p_joint {d['p_joint']} vs independent estimate {ref_joint()}"
        return None

    return check


def _check_report(instances: int):
    def check(out: str, op) -> str | None:
        d = json.loads(out)
        if d["violations"] or d["instances_checked"] != instances:
            return f"{d['instances_checked']} instances (expected {instances}), {len(d['violations'])} violations"
        return None

    return check


# ------------------------------------------------------------------- exact


def _exact(rng: random.Random, s: dict, workdir: Path) -> list[Job]:
    jobs: list[Job] = []
    n = s["exact_complete"]
    base = ["exact", "--complete", str(n), "--source", "0", "--target", "1"]
    jobs.append(Job(base, _check_prob(lambda op, n=n: ref.complete_unbiased(n)[0])))
    jobs.append(Job(base + ["--target2", "2"], _check_prob(lambda op, n=n: ref.complete_unbiased(n)[1])))

    w, h, bias = s["exact_grid"]
    reach = _once(lambda w=w, h=h, bias=bias, rs=_seed(rng):
                  ref.sample_reach(w * h, ref.grid_edges(w, h, bias), [0], s["ref_samples"], rs))
    far, corner = w * h - 1, w - 1
    base = ["exact", "--grid", f"{w}x{h}", "--bias", str(bias), "--source", "0", "--target", str(far)]
    jobs.append(Job(base, _check_sampled_prob(lambda: reach()[far])))
    jobs.append(Job(base + ["--target2", str(corner)], _check_sampled_prob(lambda: reach()[far] & reach()[corner])))

    n, m, count = s["sparse"]
    for i in range(count):
        path = _write_graph(workdir, f"sparse{i}", n, _connected_graph(rng, n, m))
        t, t2 = rng.sample(range(1, n), 2)
        base = ["exact", "--graph", path, "--source", "0", "--target", str(t)]
        jobs.append(Job(base, _check_prob(_oracle(path, [t]))))
        jobs.append(Job(base + ["--target2", str(t2)], _check_prob(_oracle(path, [t, t2]))))

    n, m, trials = s["t1_random"]
    argv = ["verify-t1", "--random", f"n={n},m={m}", "--trials", str(trials), "--seed", str(_seed(rng)),
            "--mode", "exact"]
    jobs.append(Job(argv, _check_report(trials * n ** 3)))

    n, k = s["t2"]
    argv = ["verify-t2", "--complete", str(n), "--max-set-size", str(k)]
    jobs.append(Job(argv, _check_report(sum(math.comb(n, j) for j in range(1, k + 1)) * n * n)))

    n = s["fourfunc_n"]
    s1, s2, a, b = rng.sample(range(n), 4)
    for sources in ([s1], [s1, s2]):
        argv = ["fourfunc", "--complete", str(n), "--source", ",".join(map(str, sources)), "--a", str(a),
                "--b", str(b)]
        jobs.append(Job(argv, _check_report(4 ** (n - len(sources)) + 1)))
    return jobs


def _oracle(path: str, targets: list[int]):
    """The package's enumeration oracle for 0 -> targets on the graph file."""

    def value(op) -> float:
        graph = op.parse_graph(Path(path).read_text(encoding="utf-8"))
        event = op.EventExpr.connection(0, targets[0])
        for t in targets[1:]:
            event = event & op.EventExpr.connection(0, t)
        return op.brute_force_prob(graph, event).probability

    return value


def _check_prob(expected: Callable[[object], float], method: str = "recursion"):
    def check(out: str, op) -> str | None:
        d = json.loads(out)
        want = expected(op)
        if d["method"] != method or abs(d["prob"] - want) > 1e-9:
            return f"{d['method']} prob {d['prob']} vs reference {want}"
        return None

    return check


def _check_sampled_prob(column: Callable[[], np.ndarray]):
    def check(out: str, op) -> str | None:
        d = json.loads(out)
        col = column()
        if d["method"] != "recursion" or not ref.proportion_matches(float(col.mean()), len(col), d["prob"]):
            return f"prob {d['prob']} vs independent estimate {col.mean()} ({len(col)} samples)"
        return None

    return check


# ------------------------------------------------------------- enumeration


def _enumeration(rng: random.Random, s: dict, workdir: Path) -> list[Job]:
    jobs: list[Job] = []
    n = s["enum_n"]
    path = _write_graph(workdir, "enum_conn", n, _connected_graph(rng, n, s["enum_conn_m"]))
    t = rng.randrange(1, n)
    argv = ["exact", "--graph", path, "--source", "0", "--target", str(t), "--method", "enumeration"]
    jobs.append(Job(argv, _check_prob(_recursion(path, [t]), method="enumeration")))

    path = _write_graph(workdir, "enum_joint", n, _connected_graph(rng, n, s["enum_joint_m"]))
    t, t2 = rng.sample(range(1, n), 2)
    argv = ["exact", "--graph", path, "--source", "0", "--target", str(t), "--target2", str(t2),
            "--method", "enumeration"]
    jobs.append(Job(argv, _check_prob(_recursion(path, [t, t2]), method="enumeration")))

    n, m = s["mcdiarmid"]
    path = _write_graph(workdir, "mcdiarmid", n, _connected_graph(rng, n, m))
    argv = ["mcdiarmid", "--graph", path, "--root", str(rng.randrange(n))]
    jobs.append(Job(argv, _check_mcdiarmid(m)))
    return jobs


def _recursion(path: str, targets: list[int]):
    """The package's recursion for 0 -> targets, to check the enumeration against."""

    def value(op) -> float:
        graph = op.parse_graph(Path(path).read_text(encoding="utf-8"))
        if len(targets) == 1:
            return op.exact_connection_prob(graph, 0, targets[0]).probability
        return op.exact_joint_prob(graph, 0, targets[0], targets[1]).probability

    return value


def _check_mcdiarmid(m: int):
    def check(out: str, op) -> str | None:
        d = json.loads(out)
        if not d["tv_distance"] <= 1e-9 or d["edge_count"] != m:
            return f"total variation {d['tv_distance']} on {d['edge_count']} edges"
        return None

    return check
