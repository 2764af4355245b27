"""Command-line surface.

Exit codes: 0 success or verified, 1 verification violation, 2 usage error,
3 input error, 4 budget or cap exhausted without a result, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .errors import InputError, InternalError, ResourceLimitError
from .exact import (
    DEFAULT_ENUM_CAP,
    DEFAULT_MEMO_CAP,
    brute_force_prob,
    exact_connection_prob,
    exact_joint_prob,
)
from .generators import complete_graph, random_graph
from .graphs import _SEED_LIMIT, EventExpr, Graph, _check_bias, parse_graph
from .grid import GridSpec, GridReachStats, _check_witness_pair, build_grid, find_nonmonotonicity_witness, grid_reach_stats
from .inequalities import (
    HYPOTHESIS_TOL,
    PROBABILITY_TOL,
    SourceSetPolicy,
    _check_alm_linusson_n,
    alm_linusson_covariance,
    build_proof_quadruple,
    check_four_functions,
    merge_reports,
    verify_mcdiarmid,
    verify_theorem_1,
    verify_theorem_2,
)
from .montecarlo import _check_sample_counts, estimate_event, estimate_slack

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_EXHAUSTED = 4
EXIT_INTERNAL = 5


class UsageError(Exception):
    """Flag combination errors: wrong flags for the chosen subcommand."""


class _Given(argparse.Action):
    """Store the value, and add the flag's dest to args.given, so a placement
    rule can tell a given flag from its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {*getattr(namespace, "given", ()), self.dest}


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}") from None


def _parse_xy(text: str) -> tuple[int, int]:
    parts = _parse_int_list(text)
    if len(parts) != 2:
        raise InputError(f"expected 'x,y', got {text!r}")
    return parts[0], parts[1]


def _parse_grid_dims(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise InputError(f"expected WIDTHxHEIGHT, got {text!r}") from None


def _parse_biases(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"--bias must be a comma-separated list of numbers, got {text!r}") from None


def _parse_random_spec(text: str) -> dict:
    fields = {"n": ("n", int), "m": ("edge_count", int), "p": ("edge_prob", float)}
    spec: dict = {}
    for item in text.split(","):
        if "=" not in item:
            raise InputError(f"random spec items must look like n=5, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in fields:
            raise InputError(f"unknown random spec key {key!r}")
        name, kind = fields[key]
        if name in spec:
            raise InputError(f"random spec key {key!r} is given twice")
        try:
            spec[name] = kind(value)
        except ValueError:
            raise InputError(f"random spec {key}={value!r} is not {'an integer' if kind is int else 'a number'}") from None
    if "n" not in spec:
        raise InputError("random spec needs n=<vertices>")
    if ("edge_count" in spec) == ("edge_prob" in spec):
        raise InputError("random spec needs exactly one of m=<edges> or p=<probability>")
    return spec


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="PATH", help="edge-list file")
    group.add_argument("--grid", metavar="WxH", help="grid box, bias from --bias")
    group.add_argument("--complete", type=int, metavar="N", help="complete graph, bias from --bias")
    group.add_argument("--random", metavar="SPEC", help="seeded random graph, e.g. n=5,m=8 or n=5,p=0.4")
    parser.add_argument("--bias", type=float, default=0.5, action=_Given, help="edge bias for --grid/--complete "
                        "(default 0.5); given with --random, every edge's bias, else uniforms in [0,1]")


def _graphs_from_args(args: argparse.Namespace, trials: int | None = None) -> list[Graph]:
    if args.graph is not None:
        text = Path(args.graph).read_text(encoding="utf-8")
        return [parse_graph(text)]
    if args.grid is not None:
        return [build_grid(spec).graph for spec in args.grid]
    if args.complete is not None:
        return [complete_graph(args.complete, args.bias)]
    spec = _parse_random_spec(args.random)
    biases = args.bias if "bias" in args.given else "uniform"
    return [
        random_graph(spec["n"], spec.get("edge_count"), spec.get("edge_prob"),
                     biases=biases, seed=args.seed, index=i)
        for i in range(1 if trials is None else trials)
    ]


def _check_output(path: str | None) -> None:
    """Reject an --output path that cannot be written, before any work: a
    directory, or a file whose directory is missing or not writable. The
    file itself is written only once the result exists."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        raise InputError(f"--output {path!r} is a directory")
    folder = target.parent
    if not folder.is_dir():
        raise InputError(f"--output {path!r}: {str(folder)!r} is not an existing directory")
    if not os.access(folder, os.W_OK):
        raise InputError(f"--output {path!r}: directory {str(folder)!r} is not writable")


def _check_args(args: argparse.Namespace) -> None:
    """Decide every flag rule that needs no graph, before any file is read or
    any graph is built. Value rules come first (exit 3), so a bad value is
    reported whatever else is wrong; then one table refuses a missing
    --seed and any flag the run would not read (exit 2). A flag whose text
    must be parsed is parsed here, once, and stored back on args: the
    --source list, --grid as one GridSpec per bias, the grid points as
    vertex ids and verify-t2's source-set policy (args.policy). Only a
    --random spec is parsed later, as a graph is built."""
    def at_least_zero(*names: str) -> None:
        for name in names:
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise InputError(f"--{name.replace('_', '-')} must be >= 0, got {value}")

    _check_output(args.output)
    at_least_zero("memo_cap", "enum_cap")
    if not getattr(args, "tolerance", 0.0) >= 0.0:  # NaN fails every comparison
        raise InputError(f"--tolerance must be a number >= 0, got {args.tolerance}")
    at_least_zero("seed", "trials")
    if args.seed is not None and args.seed >= _SEED_LIMIT:  # RandomStream's rule: a seed is one 64-bit key word
        raise InputError(f"--seed must be below 2^64, got {args.seed}")
    if args.command == "verify-t2":  # --random-sets when given, else --max-set-size, with the policy's message
        args.policy = (SourceSetPolicy.random(args.random_sets, args.seed) if args.random_sets is not None
                       else SourceSetPolicy.up_to_size(args.max_set_size))
    sampled = args.command in ("mc", "mc-slack", "grid-stats") or getattr(args, "mode", None) == "montecarlo"
    if sampled:
        # one sample gives every slack 0 and its standard error 0
        slack = args.command in ("mc-slack", "verify-t1", "alm-linusson")
        _check_sample_counts(args.samples, args.streams, minimum=2 if slack else 1)
    if args.command == "witness" and args.budget < 1:
        raise InputError("budget must be >= 1")
    given = args.given = getattr(args, "given", set())
    if getattr(args, "grid", None) is not None:  # grid-stats reads a list of biases, one box each
        w, h = _parse_grid_dims(args.grid)
        biases = _parse_biases(args.bias) if args.command == "grid-stats" else [args.bias]
        args.grid = [GridSpec(w, h, p) for p in biases]
    elif "bias" in given:  # GridSpec's rule, for any other graph source
        _check_bias(args.bias)
    if getattr(args, "complete", None) is not None:
        Graph(args.complete, ())  # the library's vertex-count rule, before any edge is built
    if args.command == "alm-linusson":
        _check_alm_linusson_n(args.n)
    if getattr(args, "source", None) is not None:
        args.source = _parse_int_list(args.source)
    if args.command == "grid-stats":  # grid points become vertex ids, each checked against the box
        args.origin = args.grid[0].id_of(*_parse_xy(args.origin))
    if args.command == "witness":
        a, b = _parse_xy(args.a), _parse_xy(args.b)
        args.a, args.b = args.grid[0].id_of(*a), args.grid[0].id_of(*b)
        _check_witness_pair(args.grid[0], args.a, args.b, args.flip)
    command, random, random_sets = args.command, getattr(args, "random", None), getattr(args, "random_sets", None)
    draws = sampled or command == "witness" or random is not None or random_sets is not None
    enumerates = getattr(args, "method", None) == "enumeration" or command in ("mcdiarmid", "alm-linusson")
    # Each flag some run leaves unread: whether this run reads it, and the
    # message when it is given but unread. A run that reads --seed needs it.
    reads = {
        "seed": (draws, "--seed applies only to runs that draw: samples, witness, --random, --random-sets"),
        "trials": (random is not None, "--trials applies to --random graphs only"),
        "samples": (sampled, "--samples applies to --mode montecarlo only"),
        "streams": (sampled, "--streams applies to --mode montecarlo only"),
        "max_set_size": (random_sets is None, "--max-set-size does not apply with --random-sets"),
        "memo_cap": (not (enumerates or sampled), "--memo-cap applies to the exact recursion only"),
        "enum_cap": (enumerates and not sampled, "--enum-cap applies to enumeration only"),
        "tolerance": (command != "verify-t1" or not sampled, "--tolerance does not apply with --mode montecarlo"),
        "bias": (command != "mcdiarmid" and getattr(args, "graph", None) is None,
                 "--bias does not apply to a --graph file or to mcdiarmid, whose coins are unbiased"),
    }
    if args.seed is None and draws:
        raise UsageError("--random requires --seed" if random is not None
                         else "this subcommand is randomized; --seed is required")
    for flag, (read, message) in reads.items():
        if flag in given and not read:
            raise UsageError(message)


def _emit(args: argparse.Namespace, payload: dict | str) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader has gone; send the interpreter's final flush to
            # devnull so the run still ends with its own exit code.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _event(args: argparse.Namespace) -> EventExpr:
    """--source -> --target, and --source -> --target2 too when it is given."""
    event = EventExpr.connection(args.source, args.target)
    if args.target2 is not None:
        event = event & EventExpr.connection(args.source, args.target2)
    return event


# Each command reads the flags _check_args parsed and returns its payload,
# a dict for JSON or the text itself, with the exit code; main emits it.


def _cmd_exact(args: argparse.Namespace) -> tuple[dict, int]:
    graph = _graphs_from_args(args)[0]
    if args.method == "enumeration":
        result = brute_force_prob(graph, _event(args), enum_cap=args.enum_cap)
    elif args.target2 is not None:
        result = exact_joint_prob(graph, args.source, args.target, args.target2, memo_cap=args.memo_cap)
    else:
        result = exact_connection_prob(graph, args.source, args.target, memo_cap=args.memo_cap)
    return result.as_dict(), EXIT_OK


def _cmd_mc(args: argparse.Namespace) -> tuple[dict, int]:
    graph = _graphs_from_args(args)[0]
    return estimate_event(graph, _event(args), args.samples, args.seed, args.streams).as_dict(), EXIT_OK


def _cmd_mc_slack(args: argparse.Namespace) -> tuple[dict, int]:
    graph = _graphs_from_args(args)[0]
    slack, se = estimate_slack(graph, args.source, args.a, args.b, args.samples, args.seed, args.streams)
    return {"slack": slack, "std_error": se, "samples": args.samples,
            "seed": args.seed, "streams": args.streams}, EXIT_OK


def _cmd_verify_t1(args: argparse.Namespace) -> tuple[dict, int]:
    graphs = _graphs_from_args(args, trials=args.trials)
    reports = [
        verify_theorem_1(
            g,
            mode=args.mode,
            tolerance=args.tolerance,
            samples=args.samples,
            seed=args.seed,
            streams=args.streams,
            memo_cap=args.memo_cap,
        )
        for g in graphs
    ]
    merged = merge_reports(reports)
    return merged.as_dict(), EXIT_OK if merged.ok else EXIT_VIOLATION


def _cmd_verify_t2(args: argparse.Namespace) -> tuple[dict, int]:
    graphs = _graphs_from_args(args, trials=args.trials)
    merged = merge_reports(
        verify_theorem_2(g, args.policy, args.tolerance, memo_cap=args.memo_cap) for g in graphs
    )
    return merged.as_dict(), EXIT_OK if merged.ok else EXIT_VIOLATION


def _cmd_fourfunc(args: argparse.Namespace) -> tuple[dict, int]:
    graph = _graphs_from_args(args)[0]
    quad = build_proof_quadruple(graph, args.source, args.a, args.b)
    report = check_four_functions(quad, tolerance=args.tolerance)
    return report.as_dict(), EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_mcdiarmid(args: argparse.Namespace) -> tuple[dict, int]:
    graph = _graphs_from_args(args)[0]
    tv = verify_mcdiarmid(graph, args.root, enum_cap=args.enum_cap)
    return {"tv_distance": tv, "root": args.root, "edge_count": graph.edge_count,
            "tolerance": args.tolerance}, EXIT_OK if tv <= args.tolerance else EXIT_VIOLATION


def _cmd_alm_linusson(args: argparse.Namespace) -> tuple[dict, int]:
    result = alm_linusson_covariance(
        args.n,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        streams=args.streams,
        enum_cap=args.enum_cap,
    )
    return result.as_dict(), EXIT_OK


def _cmd_grid_stats(args: argparse.Namespace) -> tuple[dict | str, int]:
    rows = [
        grid_reach_stats(grid, args.origin, args.samples, args.seed, args.streams)
        for grid in map(build_grid, args.grid)
    ]
    if args.format == "csv":
        return "\n".join([GridReachStats.CSV_HEADER] + [r.csv_row() for r in rows]), EXIT_OK
    return {"rows": [r.as_dict() for r in rows]}, EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> tuple[dict, int]:
    grid = build_grid(args.grid[0])
    result = find_nonmonotonicity_witness(grid, args.a, args.b, args.flip, args.budget, args.seed)
    if not result.found:
        return {"found": False, "attempts": result.attempts, "budget": result.budget}, EXIT_EXHAUSTED
    w = result.witness
    edge = grid.graph.edges[w.edge_index]
    return {
        "found": True,
        "attempts": result.attempts,
        "edge_index": w.edge_index,
        "edge": [edge.low, edge.high],
        "flip_direction": w.flip_direction,
        "a": w.a,
        "b": w.b,
        "orientation_bits": list(w.orientation.bits),
    }, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orientprob",
        description="Connection probabilities in randomly oriented graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that several subcommands take, each declared once in a parent
    # parser. Every subcommand built from a parent shares its actions, so
    # their defaults are set here only: a subcommand's set_defaults on one
    # of them would change it for all.
    def shared(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    graph = shared()
    _add_graph_source(graph)
    streams = shared()
    streams.add_argument("--streams", type=int, default=1, action=_Given)
    memo_cap = shared()
    memo_cap.add_argument("--memo-cap", type=int, default=DEFAULT_MEMO_CAP, action=_Given)
    enum_cap = shared()
    enum_cap.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP, action=_Given)
    seed_output = shared()
    seed_output.add_argument("--seed", type=int, action=_Given,
                             help="seed of every random draw (samples, --random, --random-sets)")
    seed_output.add_argument("--output", metavar="PATH", help="write machine output to a file instead of stdout")
    source = shared()  # nested in targets and pair: one --source action for all four
    source.add_argument("--source", required=True, help="comma-separated source vertex ids")
    targets = shared(source)
    targets.add_argument("--target", type=int, required=True)
    targets.add_argument("--target2", type=int, help="second target for a joint event")
    pair = shared(source)
    pair.add_argument("--a", type=int, required=True)
    pair.add_argument("--b", type=int, required=True)
    tolerance = shared()
    tolerance.add_argument("--tolerance", type=float, default=PROBABILITY_TOL, action=_Given)
    sweep = shared(tolerance)
    sweep.add_argument("--trials", type=int, action=_Given, help="number of --random graphs to sweep (default 1)")
    mode = shared()
    mode.add_argument("--mode", choices=["exact", "montecarlo"], default="exact")
    box = shared()
    box.add_argument("--grid", required=True, metavar="WxH")

    def command(name: str, func: Callable[[argparse.Namespace], tuple[dict | str, int]], summary: str,
                *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[*parents, seed_output])
        p.set_defaults(func=func)
        return p

    p = command("exact", _cmd_exact, "exact connection or joint probability", graph, targets, memo_cap, enum_cap)
    p.add_argument("--method", choices=["recursion", "enumeration"], default="recursion")

    p = command("mc", _cmd_mc, "Monte Carlo event estimate", graph, targets, streams)
    p.add_argument("--samples", type=int, required=True)

    p = command("mc-slack", _cmd_mc_slack, "paired Monte Carlo slack estimate", graph, pair, streams)
    p.add_argument("--samples", type=int, required=True)

    p = command("verify-t1", _cmd_verify_t1, "slack sweep over all ordered vertex triples",
                graph, sweep, mode, streams, memo_cap)
    p.add_argument("--samples", type=int, default=100_000, action=_Given)

    p = command("verify-t2", _cmd_verify_t2, "slack sweep with set sources", graph, sweep, memo_cap)
    p.add_argument("--max-set-size", type=int, default=3, action=_Given)
    p.add_argument("--random-sets", type=int, help="sample this many source sets instead")

    p = command("fourfunc", _cmd_fourfunc, "build and check the conditioned quadruple", graph, pair)
    p.add_argument("--tolerance", type=float, default=HYPOTHESIS_TOL)

    p = command("mcdiarmid", _cmd_mcdiarmid, "orientation reach law vs percolation cluster law",
                graph, tolerance, enum_cap)
    p.add_argument("--root", type=int, required=True)

    p = command("alm-linusson", _cmd_alm_linusson, "covariance of a->s and s->b on an unbiased complete graph",
                mode, streams, enum_cap)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1_000_000, action=_Given)

    p = command("grid-stats", _cmd_grid_stats, "sampled reach statistics on a grid box", box, streams)
    p.add_argument("--bias", default="0.5", help="comma-separated list of biases, one CSV row each")
    p.add_argument("--origin", default="0,0", metavar="x,y")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = command("witness", _cmd_witness, "search for a connection-breaking single-edge flip", box)
    p.add_argument("--bias", type=float, default=0.5)
    p.add_argument("--a", required=True, metavar="x,y")
    p.add_argument("--b", required=True, metavar="x,y")
    p.add_argument("--flip", choices=["toward-high", "toward-low"], default="toward-high")
    p.add_argument("--budget", type=int, default=1_000_000)

    return parser


_PARSER: argparse.ArgumentParser | None = None  # built by the first main call, reused by the rest


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        _check_args(args)
        payload, code = args.func(args)
        _emit(args, payload)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError, UnicodeDecodeError) as exc:  # OSError, UnicodeDecodeError: an unusable file
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
