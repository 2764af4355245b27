"""Per-layer tracing from outside the package.

`Tracer.install` replaces every public function of the seven layer modules,
and the named methods below, with a wrapper that records a span, then
`Tracer.uninstall` puts the originals back. A function imported into
another module by name is replaced there too, so calls between modules are
seen. Each span charges its self time (its duration minus that of the
wrapped spans it caused) to one bucket; the buckets and the root span of
each pass add up to the traced wall time. Nothing inside the package
changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "graphs", "montecarlo", "grid", "exact", "inequalities", "generators")

# Methods traced besides the public module-level functions.
METHODS = (("graphs", "RandomStream", "uniforms"), ("exact", "ExactEngine", "connection"),
           ("exact", "ExactEngine", "joint"))

# Self-time bucket of each traced name; any other public function of a
# layer goes to DEFAULT_BUCKET[layer].
BUCKET = {
    "graphs.parse_graph": "graphs.parse_s",
    "graphs.RandomStream.uniforms": "graphs.draw_s",
    "graphs.reach_many": "graphs.reach_many_s",
    "graphs.reachable_set": "graphs.reachable_set_s",
    "montecarlo.sampled_event_columns": "montecarlo.columns_self_s",
    "montecarlo.estimate_slack": "montecarlo.slack_self_s",
    "grid.grid_reach_stats": "grid.reach_stats_self_s",
    "grid.find_nonmonotonicity_witness": "grid.witness_self_s",
    "exact.ExactEngine.connection": "exact.recursion_s",
    "exact.ExactEngine.joint": "exact.recursion_s",
    "exact.brute_force_prob": "exact.enum_self_s",
    "exact.reachable_set_distribution": "exact.reach_law_self_s",
    "inequalities.check_four_functions": "inequalities.fourfunc_check_s",
    "inequalities.build_proof_quadruple": "inequalities.quadruple_self_s",
    "inequalities.verify_theorem_1": "inequalities.sweep_self_s",
    "inequalities.verify_theorem_2": "inequalities.sweep_self_s",
    "inequalities.percolation_cluster_distribution": "inequalities.cluster_law_s",
}
DEFAULT_BUCKET = {
    "cli": "cli.self_s",
    "graphs": "graphs.other_self_s",
    "montecarlo": "montecarlo.other_self_s",
    "grid": "grid.other_self_s",
    "exact": "exact.other_self_s",
    "inequalities": "inequalities.other_self_s",
    "generators": "generators.build_s",
}
ROOT_BUCKET = "bench.harness_self_s"
SELF_BUCKETS = tuple(sorted(set(BUCKET.values()) | set(DEFAULT_BUCKET.values()) | {ROOT_BUCKET}))

COMMANDS = ("mc", "mc_slack", "grid_stats", "witness", "alm_linusson", "verify_t1", "verify_t2", "exact",
            "fourfunc", "mcdiarmid")
COUNTS = ("cli.jobs", "graphs.draw_values", "graphs.reach_many_calls", "graphs.reach_many_row_edges",
          "graphs.reachable_set_calls", "montecarlo.samples", "grid.witness_attempts", "grid.witness_searches",
          "grid.witness_found", "exact.recursion_queries", "exact.recursion_states", "exact.memo_reuse_queries",
          "exact.enum_orientations", "inequalities.fourfunc_pairs", "inequalities.triples_checked")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counts for one run; install around traced passes only."""

    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.command_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [bucket, time of wrapped children]
        self._saved: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans

    def _enter(self, bucket: str) -> float:
        self._stack.append([bucket, 0.0])
        return time.perf_counter()

    def _exit(self, start: float) -> float:
        duration = time.perf_counter() - start
        bucket, children = self._stack.pop()
        self.self_time[bucket] += duration - children
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def run_pass(self, fn):
        """Run fn() as the root span of one traced pass; returns (result, wall)."""
        start = self._enter(ROOT_BUCKET)
        try:
            result = fn()
        finally:
            wall = self._exit(start)
        return result, wall

    # ------------------------------------------------------- wrapping

    def install(self, package: str = "orientprob") -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[package]] + [sys.modules[f"{package}.{layer}"] for layer in LAYERS]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{name}", layer)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._saved.append((owner, attr, fn))
                            setattr(owner, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}", layer))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, qualname: str, layer: str):
        bucket = BUCKET.get(qualname, DEFAULT_BUCKET[layer])
        count = _COUNTERS.get(qualname)
        tracer = self

        if qualname == "graphs.RandomStream.uniforms":
            # Draws made while generating a graph are graph building, not
            # orientation draws.
            @functools.wraps(fn)
            def draw(*args, **kwargs):
                parent = tracer._stack[-1][0] if tracer._stack else None
                own = "generators.build_s" if parent == "generators.build_s" else bucket
                start = tracer._enter(own)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(start)
                if own == bucket:
                    tracer.counts["graphs.draw_values"] += result.size
                return result

            return draw

        if qualname in ("exact.ExactEngine.connection", "exact.ExactEngine.joint"):
            @functools.wraps(fn)
            def query(engine, *args, **kwargs):
                before = engine.states_visited
                start = tracer._enter(bucket)
                try:
                    return fn(engine, *args, **kwargs)
                finally:
                    tracer._exit(start)
                    added = engine.states_visited - before
                    tracer.counts["exact.recursion_queries"] += 1
                    tracer.counts["exact.recursion_states"] += added
                    tracer.counts["exact.memo_reuse_queries"] += added == 0

            return query

        if qualname == "cli.main":
            @functools.wraps(fn)
            def main(argv=None):
                start = tracer._enter(bucket)
                try:
                    return fn(argv)
                finally:
                    duration = tracer._exit(start)
                    tracer.command_time[argv[0].replace("-", "_")] += duration
                    tracer.counts["cli.jobs"] += 1

            return main

        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = tracer._enter(bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(start)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return span

    # -------------------------------------------------------- metrics

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass figures: self times, command times, counts and ratios."""
        per = 1.0 / passes
        c = {k: self.counts[k] * per for k in COUNTS}
        out = {b: self.self_time[b] * per for b in SELF_BUCKETS}
        out.update({f"cli.{cmd}_s": self.command_time[cmd] * per for cmd in COMMANDS})
        out.update({k: c[k] for k in COUNTS if k not in _INTERNAL_COUNTS})
        out["graphs.reach_many_ns_per_row_edge"] = _ratio(out["graphs.reach_many_s"] * 1e9,
                                                          c["graphs.reach_many_row_edges"])
        out["grid.witness_found_ratio"] = _ratio(c["grid.witness_found"], c["grid.witness_searches"])
        out["exact.states_per_s"] = _ratio(c["exact.recursion_states"], out["exact.recursion_s"])
        out["exact.memo_reuse_ratio"] = _ratio(c["exact.memo_reuse_queries"], c["exact.recursion_queries"])
        return out


_INTERNAL_COUNTS = ("grid.witness_searches", "grid.witness_found", "exact.memo_reuse_queries")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_reach_many(counts, args, kwargs, result):
    bits = _arg(args, kwargs, 1, "bits")
    counts["graphs.reach_many_calls"] += 1
    counts["graphs.reach_many_row_edges"] += bits.shape[0] * bits.shape[1]


def _count_reachable_set(counts, args, kwargs, result):
    counts["graphs.reachable_set_calls"] += 1


def _count_columns(counts, args, kwargs, result):
    counts["montecarlo.samples"] += _arg(args, kwargs, 2, "samples")


def _count_witness(counts, args, kwargs, result):
    counts["grid.witness_searches"] += 1
    counts["grid.witness_found"] += result.found
    counts["grid.witness_attempts"] += result.attempts


def _count_enumeration(counts, args, kwargs, result):
    counts["exact.enum_orientations"] += 1 << _arg(args, kwargs, 0, "graph").edge_count


def _count_four_functions(counts, args, kwargs, result):
    size = 1 << len(_arg(args, kwargs, 0, "q").ground)
    counts["inequalities.fourfunc_pairs"] += size * size


def _count_triples(counts, args, kwargs, result):
    counts["inequalities.triples_checked"] += result.instances_checked


_COUNTERS = {
    "graphs.reach_many": _count_reach_many,
    "graphs.reachable_set": _count_reachable_set,
    "montecarlo.sampled_event_columns": _count_columns,
    "grid.find_nonmonotonicity_witness": _count_witness,
    "exact.brute_force_prob": _count_enumeration,
    "inequalities.check_four_functions": _count_four_functions,
    "inequalities.verify_theorem_1": _count_triples,
    "inequalities.verify_theorem_2": _count_triples,
}
