"""The command-line contract: every flag of every subcommand, defaults that
differ between subcommands, --help, and one parser per process."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orientprob
from orientprob import cli
from orientprob.cli import build_parser, main

# option string -> (dest, default, type, choices, required)
GRAPH_SOURCE = {
    "--graph": ("graph", None, None, None, False),
    "--grid": ("grid", None, None, None, False),
    "--complete": ("complete", None, "int", None, False),
    "--random": ("random", None, None, None, False),
    "--bias": ("bias", 0.5, "float", None, False),
}
GRAPH_SOURCE_GROUP = [(("--complete", "--graph", "--grid", "--random"), True)]
SEED_OUTPUT = {
    "--seed": ("seed", None, "int", None, False),
    "--output": ("output", None, None, None, False),
}
STREAMS = {"--streams": ("streams", 1, "int", None, False)}
MEMO_CAP = {"--memo-cap": ("memo_cap", 4194304, "int", None, False)}
ENUM_CAP = {"--enum-cap": ("enum_cap", 24, "int", None, False)}

# subcommand -> (flags, mutually exclusive groups as (sorted option strings, required))
FLAG_TABLE = {
    "exact": ({
        **GRAPH_SOURCE, **SEED_OUTPUT, **MEMO_CAP, **ENUM_CAP,
        "--source": ("source", None, None, None, True),
        "--target": ("target", None, "int", None, True),
        "--target2": ("target2", None, "int", None, False),
        "--method": ("method", "recursion", None, ("recursion", "enumeration"), False),
    }, GRAPH_SOURCE_GROUP),
    "mc": ({
        **GRAPH_SOURCE, **SEED_OUTPUT, **STREAMS,
        "--source": ("source", None, None, None, True),
        "--target": ("target", None, "int", None, True),
        "--target2": ("target2", None, "int", None, False),
        "--samples": ("samples", None, "int", None, True),
    }, GRAPH_SOURCE_GROUP),
    "mc-slack": ({
        **GRAPH_SOURCE, **SEED_OUTPUT, **STREAMS,
        "--source": ("source", None, None, None, True),
        "--a": ("a", None, "int", None, True),
        "--b": ("b", None, "int", None, True),
        "--samples": ("samples", None, "int", None, True),
    }, GRAPH_SOURCE_GROUP),
    "verify-t1": ({
        **GRAPH_SOURCE, **SEED_OUTPUT, **STREAMS, **MEMO_CAP,
        "--trials": ("trials", None, "int", None, False),
        "--mode": ("mode", "exact", None, ("exact", "montecarlo"), False),
        "--tolerance": ("tolerance", 1e-09, "float", None, False),
        "--samples": ("samples", 100000, "int", None, False),
    }, GRAPH_SOURCE_GROUP),
    "verify-t2": ({
        **GRAPH_SOURCE, **SEED_OUTPUT, **MEMO_CAP,
        "--trials": ("trials", None, "int", None, False),
        "--max-set-size": ("max_set_size", 3, "int", None, False),
        "--random-sets": ("random_sets", None, "int", None, False),
        "--tolerance": ("tolerance", 1e-09, "float", None, False),
    }, GRAPH_SOURCE_GROUP),
    "fourfunc": ({
        **GRAPH_SOURCE, **SEED_OUTPUT,
        "--source": ("source", None, None, None, True),
        "--a": ("a", None, "int", None, True),
        "--b": ("b", None, "int", None, True),
        "--tolerance": ("tolerance", 1e-12, "float", None, False),
    }, GRAPH_SOURCE_GROUP),
    "mcdiarmid": ({
        **GRAPH_SOURCE, **SEED_OUTPUT, **ENUM_CAP,
        "--root": ("root", None, "int", None, True),
        "--tolerance": ("tolerance", 1e-09, "float", None, False),
    }, GRAPH_SOURCE_GROUP),
    "alm-linusson": ({
        **SEED_OUTPUT, **STREAMS, **ENUM_CAP,
        "--n": ("n", None, "int", None, True),
        "--mode": ("mode", "exact", None, ("exact", "montecarlo"), False),
        "--samples": ("samples", 1000000, "int", None, False),
    }, []),
    "grid-stats": ({
        **SEED_OUTPUT, **STREAMS,
        "--grid": ("grid", None, None, None, True),
        "--bias": ("bias", "0.5", None, None, False),
        "--origin": ("origin", "0,0", None, None, False),
        "--samples": ("samples", None, "int", None, True),
        "--format": ("format", "csv", None, ("csv", "json"), False),
    }, []),
    "witness": ({
        **SEED_OUTPUT,
        "--grid": ("grid", None, None, None, True),
        "--bias": ("bias", 0.5, "float", None, False),
        "--a": ("a", None, None, None, True),
        "--b": ("b", None, None, None, True),
        "--flip": ("flip", "toward-high", None, ("toward-high", "toward-low"), False),
        "--budget": ("budget", 1000000, "int", None, False),
    }, []),
}


def _subcommands(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _flag_table(parser: argparse.ArgumentParser) -> tuple[dict, list]:
    flags = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = "/".join(action.option_strings)
        assert key not in flags, f"{key} declared twice"
        flags[key] = (
            action.dest,
            action.default,
            getattr(action.type, "__name__", action.type),
            tuple(action.choices) if action.choices else None,
            action.required,
        )
    groups = sorted(
        (tuple(sorted("/".join(a.option_strings) for a in g._group_actions)), g.required)
        for g in parser._mutually_exclusive_groups
    )
    return flags, groups


def test_the_subcommands_are_pinned():
    sub = _subcommands(build_parser())
    assert sub.required
    assert sorted(sub.choices) == sorted(FLAG_TABLE)


@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
def test_flag_table_is_pinned(command):
    assert _flag_table(_subcommands(build_parser()).choices[command]) == FLAG_TABLE[command]


@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
def test_subcommand_help(capsys, command):
    assert main([command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: orientprob {command} ")
    assert captured.err == ""


def _spy(monkeypatch, name: str, seen: list) -> None:
    real = getattr(cli, name)

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)


def test_interleaved_calls_keep_their_own_samples_default(capsys, monkeypatch):
    seen: list = []
    _spy(monkeypatch, "verify_theorem_1", seen)
    _spy(monkeypatch, "alm_linusson_covariance", seen)
    for argv in (["verify-t1", "--complete", "3"], ["alm-linusson", "--n", "3"],
                 ["verify-t1", "--complete", "3"], ["alm-linusson", "--n", "3"]):
        assert main(argv) == 0
    assert [kw["samples"] for kw in seen] == [100_000, 1_000_000, 100_000, 1_000_000]


def test_interleaved_calls_keep_their_own_tolerance_default(capsys, monkeypatch, tmp_path):
    graph = tmp_path / "tri.edges"
    graph.write_text("0 1 0.5\n0 2 0.5\n1 2 0.5\n")
    seen: list = []
    _spy(monkeypatch, "check_four_functions", seen)
    fourfunc = ["fourfunc", "--graph", str(graph), "--source", "0", "--a", "1", "--b", "2"]
    mcdiarmid = ["mcdiarmid", "--graph", str(graph), "--root", "0"]
    tolerances = []
    for argv in (fourfunc, mcdiarmid, fourfunc, mcdiarmid):
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        if argv is mcdiarmid:
            tolerances.append(out["tolerance"])
    assert [kw["tolerance"] for kw in seen] == [1e-12, 1e-12]
    assert tolerances == [1e-9, 1e-9]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    monkeypatch.setattr(cli, "_PARSER", None)
    assert main(["exact", "--complete", "3", "--source", "0", "--target", "1"]) == 0
    assert main(["mc", "--complete", "3", "--source", "0", "--target", "1", "--samples", "10", "--seed", "0"]) == 0
    assert main(["alm-linusson", "--n", "3"]) == 0
    assert main(["exact", "--complete", "3"]) == 2
    assert len(builds) == 1


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import orientprob.cli\n"
        "print(len(built))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(orientprob.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
