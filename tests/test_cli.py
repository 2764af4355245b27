import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orientprob
from orientprob import ExactEngine, GridSpec, Witness, build_grid
from orientprob import cli
from orientprob.cli import build_parser, main

TRIANGLE = "0 1 0.5\n0 2 0.5\n1 2 0.5\n"


@pytest.fixture
def tri_path(tmp_path):
    p = tmp_path / "tri.edges"
    p.write_text(TRIANGLE)
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExact:
    def test_connection(self, capsys, tri_path):
        code, out = run_json(capsys, ["exact", "--graph", tri_path, "--source", "0", "--target", "1"])
        assert code == 0
        assert out["prob"] == pytest.approx(0.625, abs=1e-12)
        assert out["method"] == "recursion"

    def test_joint(self, capsys, tri_path):
        code, out = run_json(
            capsys, ["exact", "--graph", tri_path, "--source", "0", "--target", "1", "--target2", "2"]
        )
        assert code == 0
        assert out["prob"] == pytest.approx(0.5, abs=1e-12)

    def test_enumeration_method(self, capsys, tri_path):
        code, out = run_json(
            capsys,
            ["exact", "--graph", tri_path, "--source", "0", "--target", "1", "--method", "enumeration"],
        )
        assert code == 0
        assert out["prob"] == pytest.approx(0.625, abs=1e-12)
        assert out["method"] == "enumeration"

    def test_missing_target_is_usage_error(self, capsys, tri_path):
        assert main(["exact", "--graph", tri_path, "--source", "0"]) == 2

    def test_missing_graph_file_is_input_error(self, capsys):
        assert main(["exact", "--graph", "/nonexistent.edges", "--source", "0", "--target", "1"]) == 3

    def test_malformed_graph_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("0 0 0.5\n")
        assert main(["exact", "--graph", str(p), "--source", "0", "--target", "1"]) == 3

    def test_enumeration_cap_is_exhaustion(self, capsys):
        code = main(
            ["exact", "--complete", "8", "--source", "0", "--target", "1", "--method", "enumeration"]
        )
        assert code == 4

    def test_deep_recursion_is_exhaustion_without_traceback(self, capsys, tmp_path):
        p = tmp_path / "path.edges"
        p.write_text("".join(f"{i} {i + 1} 0.5\n" for i in range(1999)))
        assert main(["exact", "--graph", str(p), "--source", "0", "--target", "1999"]) == 4
        err = capsys.readouterr().err
        assert "resource limit" in err
        assert "Traceback" not in err


class TestVerify:
    def test_t1_random_graphs(self, capsys):
        code, out = run_json(
            capsys,
            ["verify-t1", "--random", "n=5,m=8", "--trials", "20", "--seed", "7", "--mode", "exact"],
        )
        assert code == 0
        assert out["min_slack"] >= -1e-9
        assert out["violations"] == []
        assert out["instances_checked"] == 20 * 125

    def test_t1_json_round_trip(self, capsys):
        code, out = run_json(
            capsys, ["verify-t1", "--random", "n=4,m=4", "--trials", "3", "--seed", "1"]
        )
        assert code == 0
        assert json.loads(json.dumps(out)) == out

    def test_t1_random_requires_seed(self, capsys):
        assert main(["verify-t1", "--random", "n=4,m=4"]) == 2

    @pytest.mark.parametrize("command", ["verify-t1", "verify-t2"])
    @pytest.mark.parametrize("source", [["--complete", "4"], ["--grid", "2x2"]])
    def test_trials_without_random_is_usage_error(self, capsys, command, source):
        assert main([command, *source, "--trials", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --trials applies to --random graphs only\n"

    def test_t2_complete_graph(self, capsys):
        code, out = run_json(capsys, ["verify-t2", "--complete", "4", "--max-set-size", "2"])
        assert code == 0
        assert out["min_slack"] >= -1e-9

    def test_t2_on_no_vertices_checks_nothing_with_either_policy(self, capsys):
        # a graph with no vertices has no nonempty source set to draw or list
        random = run_json(capsys, "verify-t2 --complete 0 --random-sets 2 --seed 1".split())
        assert random == run_json(capsys, "verify-t2 --complete 0 --max-set-size 3".split())
        assert random[0] == 0 and random[1]["instances_checked"] == 0

    def test_fourfunc(self, capsys, tri_path):
        code, out = run_json(
            capsys, ["fourfunc", "--graph", tri_path, "--source", "0", "--a", "1", "--b", "2"]
        )
        assert code == 0
        assert out["violations"] == []

    @pytest.mark.parametrize("graph", ["star", "complete"])
    def test_fourfunc_size_cap_is_checked_before_any_query(self, capsys, monkeypatch, tmp_path, graph):
        def no_query(*args, **kwargs):
            raise AssertionError("an exact query ran before the size cap was checked")

        for method in ("connection", "joint", "probabilities"):
            monkeypatch.setattr(ExactEngine, method, no_query)
        if graph == "star":
            path = tmp_path / "star.edges"
            path.write_text("".join(f"0 {leaf} 0.5\n" for leaf in range(1, 19)))
            source = ["--graph", str(path)]
        else:
            source = ["--complete", "18"]
        assert main(["fourfunc", *source, "--source", "0", "--a", "1", "--b", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        size = 18 if graph == "star" else 17
        assert captured.err == f"resource limit: ground set of size {size} exceeds check cap 16\n"

    @pytest.mark.parametrize("argv", [
        ["verify-t1", "--random", "n=4,m=4", "--trials", "-1", "--seed", "1"],
        ["verify-t2", "--random", "n=4,m=4", "--trials", "-1", "--seed", "1"],
        ["verify-t2", "--complete", "4", "--max-set-size", "-1"],
    ])
    def test_negative_counts_are_input_errors(self, capsys, argv):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1

    def test_t1_montecarlo_never_reports_a_violation(self, capsys):
        # with at most 100 samples every batch holds one sample, so every
        # standard error is 0; a negative estimate proves nothing at any
        # sample size, and the sampled sweep reports none
        min_slacks = []
        for seed in range(10):
            for samples in (2, 5, 50, 100):
                code, out = run_json(capsys, ["verify-t1", "--complete", "4", "--mode", "montecarlo",
                                              "--samples", str(samples), "--seed", str(seed)])
                assert code == 0 and out["violations"] == [], (seed, samples, out)
                min_slacks.append(out["min_slack"])
        assert min(min_slacks) < 0.0  # estimates below zero were seen, and not flagged

    def test_t1_montecarlo_on_the_unbiased_star_exits_0_at_every_seed(self, capsys, tmp_path):
        # Theorem 1 holds here, and 870 ordered leaf pairs have slack exactly
        # 0, so many estimates fall below zero; none may be reported
        star = tmp_path / "star.edges"
        star.write_text("".join(f"0 {v} 0.5\n" for v in range(1, 31)))
        flagged = []
        for seed in range(40):
            code, out = run_json(capsys, ["verify-t1", "--graph", str(star), "--mode", "montecarlo",
                                          "--samples", "200", "--seed", str(seed)])
            if code != 0 or out["violations"] != []:
                flagged.append(seed)
            assert out["instances_checked"] == 31 ** 3
        assert flagged == []

    @pytest.mark.parametrize("flags", [["--samples", "-1"], ["--samples", "1"], ["--streams", "0"],
                                       ["--seed", "-1"]])
    def test_t1_montecarlo_arguments_are_checked_with_no_trial(self, capsys, flags):
        argv = ["verify-t1", "--random", "n=4,m=4", "--seed", "1", "--trials", "0", "--mode", "montecarlo"]
        assert main(argv + flags) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")

    def test_mcdiarmid(self, capsys, tri_path):
        code, out = run_json(capsys, ["mcdiarmid", "--graph", tri_path, "--root", "0"])
        assert code == 0
        assert out["tv_distance"] <= 1e-9


class TestEnumerationCheckOrder:
    """An input that fails both the enumeration cap and a vertex check gets
    the exit code of the check its command makes first."""

    def test_exact_enumeration_checks_the_cap_before_the_event(self, capsys, tri_path):
        argv = ["exact", "--graph", tri_path, "--source", "0", "--target", "9", "--method", "enumeration",
                "--enum-cap", "2"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "m=3" in captured.err

    def test_mcdiarmid_checks_the_root_before_the_cap(self, capsys, tri_path):
        assert main(["mcdiarmid", "--graph", tri_path, "--root", "9", "--enum-cap", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")


class TestEnumerationCut:
    """mcdiarmid enumerates the root's component only, and refuses a law
    over more than 64 vertices before the first block."""

    def test_an_isolated_root_of_a_70_vertex_graph(self, capsys):
        code, out = run_json(capsys, ["mcdiarmid", "--random", "n=70,m=20", "--seed", "0", "--root", "7"])
        assert code == 0
        assert out["tv_distance"] == 0.0 and out["edge_count"] == 20

    def test_a_65_vertex_path_exits_4(self, capsys, tmp_path):
        path = tmp_path / "path65.edges"
        path.write_text("".join(f"{i} {i + 1} 0.5\n" for i in range(64)))
        assert main(["mcdiarmid", "--graph", str(path), "--root", "0", "--enum-cap", "64"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit: ") and "65 vertices" in captured.err


class TestMonteCarlo:
    def test_estimate_and_determinism(self, capsys, tri_path):
        argv = [
            "mc", "--graph", tri_path, "--source", "0", "--target", "1",
            "--samples", "20000", "--seed", "3", "--streams", "4",
        ]
        code1, out1 = run_json(capsys, argv)
        code2, out2 = run_json(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert abs(out1["estimate"] - 0.625) < 0.02

    def test_seed_required(self, capsys, tri_path):
        assert main(["mc", "--graph", tri_path, "--source", "0", "--target", "1", "--samples", "10"]) == 2

    def test_slack(self, capsys, tri_path):
        code, out = run_json(
            capsys,
            ["mc-slack", "--graph", tri_path, "--source", "0", "--a", "1", "--b", "2",
             "--samples", "20000", "--seed", "3"],
        )
        assert code == 0
        assert abs(out["slack"] - 0.109375) <= 4 * max(out["std_error"], 1e-3)

    def test_small_runs_report_a_positive_standard_error(self, capsys):
        code, out = run_json(capsys, "mc-slack --complete 6 --source 0 --a 1 --b 2 --samples 50 --seed 7".split())
        assert code == 0 and out["slack"] != 0.0 and out["std_error"] > 0.0
        code, out = run_json(capsys, "alm-linusson --n 5 --mode montecarlo --samples 60 --seed 2".split())
        assert code == 0 and out["covariance"] != 0.0 and out["std_error"] > 0.0


class TestAlmLinusson:
    def test_exact_k3(self, capsys):
        code, out = run_json(capsys, ["alm-linusson", "--n", "3"])
        assert code == 0
        assert out["covariance"] == pytest.approx(-1 / 64, abs=1e-12)

    def test_montecarlo_requires_seed(self, capsys):
        assert main(["alm-linusson", "--n", "3", "--mode", "montecarlo"]) == 2


class TestGridCommands:
    def test_grid_stats_csv(self, capsys):
        code = main(
            ["grid-stats", "--grid", "4x4", "--bias", "0,1", "--samples", "100", "--seed", "2"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "p,width,height,samples,seed,streams,mean_reach,max_reach,mean_radius,max_radius,boundary_frac"
        assert len(out) == 3
        row_p0 = dict(zip(out[0].split(","), out[1].split(",")))
        assert (row_p0["streams"], float(row_p0["mean_reach"])) == ("1", 1.0)  # mean reach at p=0

    def test_grid_stats_json(self, capsys):
        code, out = run_json(
            capsys,
            ["grid-stats", "--grid", "3x3", "--bias", "0.5", "--samples", "50", "--seed", "2",
             "--format", "json"],
        )
        assert code == 0
        assert len(out["rows"]) == 1

    def test_witness_found(self, capsys):
        code, out = run_json(
            capsys,
            ["witness", "--grid", "8x7", "--a", "0,2", "--b", "7,4", "--flip", "toward-high",
             "--budget", "1000000", "--seed", "0"],
        )
        assert code == 0
        assert out["found"] is True
        assert out["attempts"] <= 1_000_000

    @pytest.mark.parametrize("argv, message", [
        ("witness --grid 4x4 --a 1,1 --b 1,1 --seed 0", "a and b are the same vertex, which every orientation connects"),
        ("witness --grid 16x12 --a 0,4 --b 0,4 --seed 0 --budget 100000",
         "a and b are the same vertex, which every orientation connects"),
        ("witness --grid 1x6 --a 0,0 --b 0,5 --seed 0", "a 1x6 box has no horizontal edge to flip"),
        ("witness --grid 12x1 --a 0,0 --b 5,0 --seed 0",
         "on a 12x1 box with b right of a, a toward-high flip never breaks a -> b"),
        ("witness --grid 6x1 --a 5,0 --b 0,0 --flip toward-low --seed 0",
         "on a 6x1 box with b left of a, a toward-low flip never breaks a -> b"),
    ])
    def test_a_search_with_no_possible_witness_exits_3_before_any_draw(self, capsys, monkeypatch, argv, message):
        def fail(*args, **kwargs):
            pytest.fail("the search drew orientations")

        monkeypatch.setattr("orientprob.grid.draw_orientations", fail)
        assert main(argv.split()) == 3
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    def test_witness_not_found_is_exhaustion(self, capsys):
        code, out = run_json(
            capsys,
            ["witness", "--grid", "2x2", "--a", "0,0", "--b", "1,0", "--budget", "500", "--seed", "0"],
        )
        assert code == 4
        assert out["found"] is False

    def test_output_file(self, capsys, tmp_path, tri_path):
        out_path = tmp_path / "report.json"
        code = main(
            ["exact", "--graph", tri_path, "--source", "0", "--target", "1", "--output", str(out_path)]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["prob"] == pytest.approx(0.625, abs=1e-12)


class TestClosedStdout:
    """A reader that closed the pipe does not turn the verdict into a traceback."""

    @pytest.mark.parametrize("argv, verdict", [
        (["exact", "--complete", "4", "--source", "0", "--target", "1"], 0),
        (["witness", "--grid", "2x2", "--a", "0,0", "--b", "1,0", "--budget", "10", "--seed", "0"], 4),
    ])
    def test_closed_pipe_keeps_the_exit_code(self, argv, verdict):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(orientprob.__file__).parents[1])}
        try:
            proc = subprocess.run([sys.executable, "-m", "orientprob.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == verdict, proc.stderr
        assert b"Traceback" not in proc.stderr


class TestFirstSamplingRun:
    """A one-shot sampling run does not import numpy.ma, which np.unique's
    first call in a process loads at a cost of about 10 ms."""

    @pytest.mark.parametrize("command", [
        "mc --grid 5x4 --source 0 --target 19 --samples 1000 --seed 1",
        "mc-slack --complete 5 --source 0 --a 1 --b 2 --samples 1000 --seed 1",
        "grid-stats --grid 5x4 --bias 0.3,0.5 --samples 1000 --seed 1",
        "witness --grid 5x4 --a 0,1 --b 4,2 --seed 18",
        "verify-t1 --complete 4 --mode montecarlo --samples 1000 --seed 1",
        "alm-linusson --n 4 --mode montecarlo --samples 1000 --seed 1",
    ])
    def test_imports_no_numpy_ma(self, command):
        code = (
            "import sys\n"
            "from orientprob.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(rc, 'numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(orientprob.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, *command.split()],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == 2

    def test_two_graph_sources_rejected(self, capsys, tri_path):
        assert main(["exact", "--graph", tri_path, "--complete", "3", "--source", "0", "--target", "1"]) == 2


class TestInternalErrors:
    """A failed self-check exits 5 with one stderr line, never 1 with a traceback."""

    def test_probability_outside_the_band(self, capsys, monkeypatch, tri_path):
        monkeypatch.setattr(ExactEngine, "connection", lambda self, sources, target, within=None: 1.5)
        assert main(["exact", "--graph", tri_path, "--source", "0", "--target", "1"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: probability 1.5")
        assert "Traceback" not in captured.err

    def test_witness_failing_reverification(self, capsys, monkeypatch):
        monkeypatch.setattr(Witness, "verify", lambda self, graph: False)
        code = main(["witness", "--grid", "8x7", "--a", "0,2", "--b", "7,4", "--budget", "1000000",
                     "--seed", "0"])
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: witness failed re-verification\n"


def _small_graph_file(draw, path):
    """Write a graph with n <= 6 and m <= 8 to path; return n, m and a
    strategy for vertex ids, which may be out of range."""
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    bias = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    Path(path).write_text(f"n {n}\n" + "".join(f"{u} {v} {draw(bias)!r}\n" for u, v in chosen))
    return n, len(chosen), st.sampled_from([-1, n] + list(range(n)) * 4)


@st.composite
def enumeration_argv(draw, path):
    """argv for an enumeration entry point on a small graph file, with caps
    below and above its edge count and vertex ids that may be out of range."""
    n, m, vertex = _small_graph_file(draw, path)
    cap = ["--enum-cap", str(draw(st.integers(-1, m + 2)))]
    command = draw(st.sampled_from(["exact", "mcdiarmid", "alm-linusson"]))
    if command == "exact":
        argv = ["exact", "--graph", path, "--method", "enumeration",
                "--source", ",".join(map(str, draw(st.lists(vertex, max_size=3)))),
                "--target", str(draw(vertex))]
        if draw(st.booleans()):
            argv += ["--target2", str(draw(vertex))]
    elif command == "mcdiarmid":
        argv = ["mcdiarmid", "--graph", path, "--root", str(draw(vertex))]
    else:
        argv = ["alm-linusson", "--n", str(n), "--mode", "exact"]
    return argv + cap


@st.composite
def recursion_argv(draw, path):
    """argv for an entry point of the exact recursion on a small graph file,
    with memo caps from none at all to ample and vertex ids that may be out
    of range."""
    _, _, vertex = _small_graph_file(draw, path)
    sources = ",".join(map(str, draw(st.lists(vertex, max_size=3))))
    cap = ["--memo-cap", str(draw(st.integers(-1, 40)))] if draw(st.booleans()) else []
    trials = ["--trials", str(draw(st.integers(-1, 2)))] if draw(st.booleans()) else []
    command = draw(st.sampled_from(["exact", "verify-t1", "verify-t2", "fourfunc"]))
    if command == "exact":
        argv = ["exact", "--graph", path, "--source", sources, "--target", str(draw(vertex))] + cap
        if draw(st.booleans()):
            argv += ["--target2", str(draw(vertex))]
    elif command == "verify-t1":
        argv = ["verify-t1", "--graph", path, "--mode", "exact"] + cap + trials
    elif command == "verify-t2":
        sets = draw(st.integers(-1, 3))
        if draw(st.booleans()):
            argv = ["verify-t2", "--graph", path, "--max-set-size", str(sets)] + cap + trials
        else:
            argv = ["verify-t2", "--graph", path, "--random-sets", str(sets), "--seed", "1"] + cap + trials
    else:
        argv = ["fourfunc", "--graph", path, "--source", sources,
                "--a", str(draw(vertex)), "--b", str(draw(vertex))]
    return argv


@st.composite
def sampled_argv(draw, path):
    """argv for an entry point that draws samples, on a small graph file, a
    box up to 4x4, K_n up to n = 6 or up to two random graphs, with counts
    from -1 up, streams up to 10^6, seeds from -1 and vertex ids that may be
    out of range. A list that may start with "-" is joined to its flag by
    "=", as argparse needs."""
    _, _, vertex = _small_graph_file(draw, path)
    sources = ",".join(map(str, draw(st.lists(vertex, max_size=3))))
    samples = ["--samples", str(draw(st.integers(-1, 50)))]
    streams = ["--streams", str(draw(st.integers(-1, 8) | st.just(10**6)))]
    seed = ["--seed", draw(st.sampled_from(["-1"] + ["0", "1", "2", "3"] * 3))]
    width, height = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    box = f"{width}x{height}"
    xy = st.builds("{},{}".format, st.sampled_from([-1, width] + list(range(width)) * 4),
                   st.sampled_from([-1, height] + list(range(height)) * 4))
    bias = st.sampled_from(["0", "0.5", "1", "0.7"] * 3 + ["-0.5", "1.5"])
    command = draw(st.sampled_from(["mc", "mc-slack", "grid-stats", "witness", "verify-t1", "alm-linusson"]))
    if command == "mc":
        argv = ["mc", "--graph", path, f"--source={sources}", "--target", str(draw(vertex))]
        if draw(st.booleans()):
            argv += ["--target2", str(draw(vertex))]
        argv += samples + streams
    elif command == "mc-slack":
        argv = ["mc-slack", "--graph", path, f"--source={sources}",
                "--a", str(draw(vertex)), "--b", str(draw(vertex))] + samples + streams
    elif command == "grid-stats":
        biases = ",".join(draw(st.lists(bias, min_size=1, max_size=3)))
        argv = ["grid-stats", "--grid", box, f"--bias={biases}", f"--origin={draw(xy)}",
                "--format", "json"] + samples + streams
    elif command == "witness":
        argv = ["witness", "--grid", box, f"--bias={draw(bias)}", f"--a={draw(xy)}", f"--b={draw(xy)}",
                "--flip", draw(st.sampled_from(["toward-high", "toward-low"])),
                "--budget", str(draw(st.integers(-1, 50)))]
    elif command == "verify-t1":
        if draw(st.booleans()):
            graphs = ["--graph", path]
        else:
            graphs = ["--random", "n=4,m=4", "--trials", str(draw(st.integers(-1, 2)))]
        argv = ["verify-t1", *graphs, "--mode", "montecarlo"] + samples + streams
    else:
        argv = ["alm-linusson", "--n", str(draw(st.integers(0, 6))), "--mode", "montecarlo"] + samples + streams
    return argv + seed


_COUNT_FLAGS = ("--trials", "--max-set-size", "--random-sets", "--samples", "--streams", "--budget")


def _assert_exits_cleanly(argv_strategy, data, reported=(0,)):
    """Exit 0, 2, 3, 4 or a code in `reported` without a traceback, and 3 on
    a negative count; stdout holds the JSON report on an exit in `reported`
    and nothing on any other. Returns the argv and the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(argv_strategy(str(Path(tmp) / "g.edges")))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4) + tuple(reported), (argv, code, err.getvalue())
    if any(flag in _COUNT_FLAGS and int(value) < 0 for flag, value in zip(argv, argv[1:])):
        assert code == 3, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in reported:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
    return argv, code


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_enumeration_entry_points_exit_cleanly(data):
    _assert_exits_cleanly(enumeration_argv, data)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_recursion_entry_points_exit_cleanly(data):
    _assert_exits_cleanly(recursion_argv, data)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sampled_entry_points_exit_cleanly(data):
    # An exhausted witness search reports its attempts (exit 4). No sweep
    # here reports a violation (exit 1): with at most 100 samples every
    # batch holds one sample, so no standard error is positive.
    argv, code = _assert_exits_cleanly(sampled_argv, data, reported=(0, 4))
    assert code != 4 or argv[0] == "witness", argv
    assert argv[argv.index("--seed") + 1] != "-1" or code == 3, argv


def _non_utf8_file(directory):
    path = directory / "latin1.edges"
    path.write_bytes("# caf\xe9\n0 1 0.5\n".encode("latin-1"))
    return path


class TestInProcessExitCodes:
    """Inputs run through main in this process: a failure exits with its
    documented code and writes nothing to stdout."""

    @pytest.mark.parametrize("argv", [
        "exact --complete 4 --source 0,x --target 1",
        "witness --grid 8x7 --a 0 --b 7,4 --seed 0",
        "grid-stats --grid 8 --samples 10 --seed 1",
        "grid-stats --grid 8x8 --bias 0.2,abc --samples 10 --seed 1",
        "exact --random n=5,q=3 --seed 1 --source 0 --target 1",
        "exact --random n5 --seed 1 --source 0 --target 1",
        "exact --random m=4 --seed 1 --source 0 --target 1",
        "exact --random n=5,m=4,p=0.3 --seed 1 --source 0 --target 1",
        "exact --random n=x,m=3 --seed 1 --source 0 --target 1",
        "exact --random n=5,m=y --seed 1 --source 0 --target 1",
        "exact --random n=5,p=z --seed 1 --source 0 --target 1",
        "exact --random n=5,n=7,m=3 --seed 1 --source 0 --target 6",
        "exact --random n=5,m=3,m=4 --seed 1 --source 0 --target 1",
        "fourfunc --complete 4 --source 0 --a 1 --b 2 --tolerance nan",
        "fourfunc --complete 4 --source 0 --a 1 --b 2 --tolerance=-1e-9",
        "mcdiarmid --complete 4 --root 0 --tolerance -1",
        "mcdiarmid --complete 4 --root 0 --tolerance nan",
        "verify-t1 --complete 4 --tolerance nan",
        "verify-t1 --complete 4 --mode montecarlo --samples 100 --seed 1 --tolerance -1",
        "verify-t2 --complete 4 --tolerance -0.5",
        "verify-t2 --complete 4 --tolerance nan",
        "exact --complete 4 --source 0 --target 1 --memo-cap -1",
        "exact --complete 4 --source 0 --target 9 --memo-cap -1",
        "exact --complete 4 --source 0 --target 1 --method enumeration --enum-cap -1",
        "verify-t1 --complete 4 --memo-cap -1",
        "verify-t2 --complete 4 --memo-cap -1",
        "mcdiarmid --complete 4 --root 0 --enum-cap -1",
        "alm-linusson --n 4 --enum-cap -1",
        # caps the run would never use are checked too
        "verify-t1 --random n=4,m=4 --seed 1 --trials 0 --memo-cap -1",
        "exact --complete 4 --source 0 --target 1 --enum-cap -1",
        "exact --complete 4 --source 0 --target 1 --method enumeration --memo-cap -1",
    ])
    def test_input_errors(self, capsys, argv):
        assert main(argv.split()) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("make_argv", [
        lambda tmp: ["exact", "--graph", str(tmp), "--source", "0", "--target", "1"],
        lambda tmp: ["exact", "--graph", str(_non_utf8_file(tmp)), "--source", "0", "--target", "1"],
        lambda tmp: ["exact", "--complete", "3", "--source", "0", "--target", "1", "--output", str(tmp)],
    ], ids=["directory-graph", "non-utf8-graph", "directory-output"])
    def test_unreadable_or_unwritable_files(self, capsys, tmp_path, make_argv):
        assert main(make_argv(tmp_path)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        "exact --complete 4 --source 0 --target 1 --memo-cap 0",
        "exact --complete 4 --source 0 --target 1 --method enumeration --enum-cap 0",
    ])
    def test_a_cap_of_zero_is_still_exhaustion(self, capsys, argv):
        assert main(argv.split()) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit: ")

    @pytest.mark.parametrize("make_output", [
        lambda tmp: tmp,
        lambda tmp: tmp / "missing" / "report.json",
        lambda tmp: tmp / "a-file" / "report.json",
    ], ids=["directory", "missing-directory", "file-as-directory"])
    def test_output_is_checked_before_any_work(self, capsys, monkeypatch, tmp_path, make_output):
        (tmp_path / "a-file").write_text("")
        monkeypatch.setattr("orientprob.cli.verify_theorem_1", lambda *args, **kwargs: pytest.fail("work ran"))
        argv = ["verify-t1", "--complete", "4", "--output", str(make_output(tmp_path))]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: --output ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not (tmp_path / "missing").exists()

    def test_an_unwritable_output_directory_is_an_input_error(self, capsys, monkeypatch, tmp_path):
        # a root user may write anywhere, so the permission answer is stubbed
        monkeypatch.setattr("orientprob.cli.os.access", lambda path, mode: False)
        monkeypatch.setattr("orientprob.cli.verify_theorem_1", lambda *args, **kwargs: pytest.fail("work ran"))
        argv = ["verify-t1", "--complete", "4", "--output", str(tmp_path / "report.json")]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: --output ") and "is not writable" in captured.err
        assert not (tmp_path / "report.json").exists()

    def test_output_is_not_touched_when_the_run_fails(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        out_path.write_text("earlier report\n")
        argv = ["exact", "--complete", "4", "--source", "0", "--target", "9", "--output", str(out_path)]
        assert main(argv) == 3
        assert out_path.read_text() == "earlier report\n"
        fresh = tmp_path / "fresh.json"
        argv = ["exact", "--complete", "4", "--source", "0", "--target", "1", "--memo-cap", "0",
                "--output", str(fresh)]
        assert main(argv) == 4
        assert not fresh.exists()
        assert capsys.readouterr().out == ""

    def test_event_vertex_message_is_the_same_for_both_methods(self, capsys):
        errors = []
        for method in ("recursion", "enumeration"):
            assert main(f"exact --complete 6 --source 0 --target 9 --method {method}".split()) == 3
            errors.append(capsys.readouterr().err)
        assert errors == ["input error: vertex 9 out of range for vertex_count=6\n"] * 2

    def test_random_graph_without_seed_is_usage_error(self, capsys):
        assert main("mc --random n=5,m=4 --source 0 --target 1 --samples 10".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --random requires --seed\n"

    def test_exact_on_a_grid(self, capsys):
        code, out = run_json(capsys, "exact --grid 3x3 --bias 0.6 --source 0 --target 8".split())
        assert code == 0
        expected = orientprob.exact_connection_prob(build_grid(GridSpec(3, 3, 0.6)).graph, 0, 8)
        assert out["prob"] == expected.probability

    def test_exact_on_a_random_graph_with_constant_bias(self, capsys):
        argv = "exact --random n=5,p=0.6 --bias 0.3 --seed 2 --source 0 --target 4"
        code, out = run_json(capsys, argv.split())
        assert code == 0
        graph = orientprob.random_graph(5, edge_prob=0.6, biases=0.3, seed=2)
        assert out["prob"] == orientprob.exact_connection_prob(graph, 0, 4).probability


class TestFlagDeclarations:
    # Option strings that name a different flag on some subcommands, with the
    # number of distinct declarations: --samples is required or has its own
    # default per subcommand; --bias is the graph bias, grid-stats' list and
    # witness's box bias; fourfunc's --tolerance has the hypothesis default;
    # --grid is both a graph source and the box of grid-stats and witness;
    # witness's --a and --b are grid points, not vertex ids.
    DECLARATIONS = {"--samples": 5, "--bias": 3, "--tolerance": 2, "--grid": 2, "--a": 2, "--b": 2}

    def test_each_shared_flag_is_one_action(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        actions: dict[str, dict[int, argparse.Action]] = {}
        users: dict[str, set[str]] = {}
        for name, parser in subparsers.choices.items():
            for action in parser._actions:
                for option in action.option_strings:
                    if option not in ("-h", "--help"):
                        actions.setdefault(option, {})[id(action)] = action
                        users.setdefault(option, set()).add(name)
        shared = {option: len(found) for option, found in actions.items() if len(users[option]) > 1}
        assert {option for option, count in shared.items() if count > 1} == set(self.DECLARATIONS)
        assert {option: shared[option] for option in self.DECLARATIONS} == self.DECLARATIONS
        assert len(users["--tolerance"]) == 4 and len(users["--source"]) == 4


def _flag_rule_cases():
    """(argv, exit code) for each rule of the check pass in main, on every
    subcommand. No case carries --seed unless it is negative, so every value
    fault below also lacks a seed its run needs, and must still exit 3."""
    drawing = {
        "exact": "exact --random n=4,m=4 --source 0 --target 1",
        "mc": "mc --complete 4 --source 0 --target 1 --samples 10",
        "mc-slack": "mc-slack --complete 4 --source 0 --a 1 --b 2 --samples 10",
        "verify-t1": "verify-t1 --complete 4 --mode montecarlo --samples 10",
        "verify-t2": "verify-t2 --complete 4 --random-sets 2",
        "fourfunc": "fourfunc --random n=4,m=4 --source 0 --a 1 --b 2",
        "mcdiarmid": "mcdiarmid --random n=4,m=4 --root 0",
        "alm-linusson": "alm-linusson --n 4 --mode montecarlo --samples 10",
        "grid-stats": "grid-stats --grid 4x4 --samples 10",
        "witness": "witness --grid 4x4 --a 0,0 --b 1,1",
    }
    bad_values = {  # a later flag replaces the one in the argv above
        "exact": ["--memo-cap -1", "--enum-cap -1", "--source 0,x"],
        "mc": ["--samples 0", "--streams 0", "--source x"],
        "mc-slack": ["--samples 1", "--streams 0", "--source x"],
        "verify-t1": ["--samples 1", "--streams 0", "--memo-cap -1", "--tolerance nan", "--trials -1"],
        "verify-t2": ["--trials -1", "--random-sets -1", "--tolerance nan"],  # --max-set-size is unread here
        "fourfunc": ["--tolerance nan", "--source x"],
        "mcdiarmid": ["--enum-cap -1", "--tolerance nan"],
        "alm-linusson": ["--samples 0", "--samples 1", "--streams 0", "--enum-cap -1"],
        "grid-stats": ["--samples 0", "--streams 0", "--grid 4", "--grid 0x4", "--bias 0.5,1.5", "--bias 0.5,x",
                       "--origin 0"],
        "witness": ["--budget 0", "--grid 4", "--bias 1.5", "--a 0", "--b 1,y"],
    }
    cases = []
    for command, argv in drawing.items():
        cases.append((argv, 2))
        cases.append((argv + " --seed -1", 3))
        cases += [(f"{argv} {flags}", 3) for flags in bad_values[command]]
    return cases


class TestFlagRules:
    """The check pass in main decides every rule that needs no graph, before
    any graph is built, so these runs never reach one."""

    @pytest.fixture(autouse=True)
    def no_graph(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("a graph was built before the flags were checked")

        monkeypatch.setattr(cli, "_graphs_from_args", fail)
        monkeypatch.setattr(cli, "build_grid", fail)

    @pytest.mark.parametrize("argv, code", _flag_rule_cases())
    def test_value_rules_come_before_presence_rules(self, capsys, argv, code):
        assert main(argv.split()) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: " if code == 3 else "usage error: ")
        assert captured.err.count("\n") == 1

    # inputs whose exit code or message changed when the rules moved to main,
    # and when every flag's text came to be parsed there
    @pytest.mark.parametrize("argv, code, message", [
        ("grid-stats --grid 4x4 --bias 1.5 --samples 10", 3, "input error: bias 1.5 outside [0,1]"),
        ("grid-stats --grid 4 --samples 10", 3, "input error: expected WIDTHxHEIGHT, got '4'"),
        ("grid-stats --grid 4x4 --origin x --samples 10", 3,
         "input error: expected comma-separated integers, got 'x'"),
        ("mc --graph g.edges --source x --target 1 --samples 10", 3,
         "input error: expected comma-separated integers, got 'x'"),
        ("mc-slack --graph g.edges --source x --a 1 --b 2 --samples 10", 3,
         "input error: expected comma-separated integers, got 'x'"),
        ("exact --random n=4,m=4 --source x --target 1", 3, "input error: expected comma-separated integers, got 'x'"),
        ("mc --grid 0x3 --source 0 --target 1 --samples 10", 3, "input error: grid dimensions must be >= 1"),
        ("verify-t1 --grid 2x2 --bias -1 --trials 2", 3, "input error: bias -1.0 outside [0,1]"),
        ("witness --grid 4x4 --bias 2 --a 0,0 --b 1,1", 3, "input error: bias 2.0 outside [0,1]"),
        ("witness --grid 4x4 --a 0 --b 1,1", 3, "input error: expected 'x,y', got '0'"),
        # a bad --source is found before the graph is read or drawn
        ("exact --graph missing.edges --source x --target 1", 3,
         "input error: expected comma-separated integers, got 'x'"),
        ("exact --random n=x,m=3 --seed 1 --source x --target 1", 3,
         "input error: expected comma-separated integers, got 'x'"),
        # both witness points are parsed before either is placed in the box
        ("witness --grid 4x4 --a 9,9 --b x --seed 0", 3, "input error: expected comma-separated integers, got 'x'"),
        ("mc --graph missing.edges --source 0 --target 1 --samples 10", 2,
         "usage error: this subcommand is randomized; --seed is required"),
        ("mc-slack --graph missing.edges --source 0 --a 1 --b 2 --samples 10", 2,
         "usage error: this subcommand is randomized; --seed is required"),
        ("exact --random n=x,m=3 --source 0 --target 1", 2, "usage error: --random requires --seed"),
        ("verify-t1 --random n=4,m=4", 2, "usage error: --random requires --seed"),
        ("witness --grid 4x4 --a 0,0 --b 1,1 --budget 0", 3, "input error: budget must be >= 1"),
        ("alm-linusson --n 4 --mode montecarlo --samples 0", 3, "input error: samples must be >= 2"),
        ("alm-linusson --n 4 --mode montecarlo --samples 1", 3, "input error: samples must be >= 2"),
        ("verify-t2 --complete 4 --random-sets -1", 3,
         "input error: random source set count must be >= 0, got -1"),
        ("verify-t2 --complete 4 --max-set-size -1", 3, "input error: maximum source set size must be >= 0, got -1"),
        ("exact --random n=4,m=3 --seed -1 --source 0 --target 1", 3, "input error: --seed must be >= 0, got -1"),
        ("mc --random n=5,m=4 --source 0 --target 1 --samples 10 --seed -1", 3,
         "input error: --seed must be >= 0, got -1"),
        ("verify-t1 --complete 4 --seed -1", 3, "input error: --seed must be >= 0, got -1"),
        ("exact --complete 4 --source 0 --target 1 --seed -1", 3, "input error: --seed must be >= 0, got -1"),
        ("fourfunc --complete 4 --source 0 --a 1 --b 2 --seed -1", 3, "input error: --seed must be >= 0, got -1"),
        ("mcdiarmid --complete 4 --root 0 --seed -1", 3, "input error: --seed must be >= 0, got -1"),
        ("alm-linusson --n 4 --seed -1", 3, "input error: --seed must be >= 0, got -1"),
        # a seed is one 64-bit key word, so 2^64 would draw what seed 0 draws
        ("mc --complete 5 --source 0 --target 1 --samples 1000 --seed 18446744073709551616", 3,
         "input error: --seed must be below 2^64, got 18446744073709551616"),
        ("verify-t2 --complete 4 --random-sets 2 --seed 18446744073709551616", 3,
         "input error: --seed must be below 2^64, got 18446744073709551616"),
        # flags the run would not read
        ("verify-t1 --complete 4 --samples 0", 2, "usage error: --samples applies to --mode montecarlo only"),
        ("verify-t1 --complete 4 --streams 0", 2, "usage error: --streams applies to --mode montecarlo only"),
        ("alm-linusson --n 4 --samples 0", 2, "usage error: --samples applies to --mode montecarlo only"),
        ("alm-linusson --n 4 --streams 0", 2, "usage error: --streams applies to --mode montecarlo only"),
        ("verify-t2 --complete 4 --random-sets 2 --max-set-size 5 --seed 1", 2,
         "usage error: --max-set-size does not apply with --random-sets"),
        ("verify-t2 --complete 4 --random-sets 2 --max-set-size -1 --seed 1", 2,
         "usage error: --max-set-size does not apply with --random-sets"),
        # values that need no graph, decided with the other value rules; the
        # flags now refused where unread are pinned in TestEveryFlagIsReadOrRefused
        ("witness --grid 4x4 --a 9,9 --b 1,1", 3, "input error: coordinate (9,9) outside 4x4"),
        ("witness --grid 4x4 --a 0,0 --b 1,4 --seed 0", 3, "input error: coordinate (1,4) outside 4x4"),
        ("grid-stats --grid 4x4 --origin 9,9 --samples 10", 3, "input error: coordinate (9,9) outside 4x4"),
        ("mc --complete 4 --bias 2 --source 0 --target 1 --samples 10", 3, "input error: bias 2.0 outside [0,1]"),
        ("exact --random n=4,m=4 --bias -0.5 --source 0 --target 1", 3, "input error: bias -0.5 outside [0,1]"),
        ("exact --complete 1 --bias 2 --source 0 --target 0", 3, "input error: bias 2.0 outside [0,1]"),
        ("exact --graph g.edges --bias nan --source 0 --target 1", 3, "input error: bias nan outside [0,1]"),
        ("mc --complete -1 --source 0 --target 1 --samples 10", 3, "input error: vertex_count must be nonnegative"),
        ("alm-linusson --n 2 --mode montecarlo --samples 10", 3,
         "input error: need n >= 3 for three distinct vertices"),
    ])
    def test_announced_outcomes(self, capsys, tmp_path, monkeypatch, argv, code, message):
        monkeypatch.chdir(tmp_path)  # missing.edges does not exist
        (tmp_path / "g.edges").write_text(TRIANGLE)
        assert main(argv.split()) == code
        assert capsys.readouterr() == ("", message + "\n")


class TestEveryFlagIsReadOrRefused:
    """A flag given on a run that would not read it exits 2 before any work;
    the same flag on a run that reads it is accepted."""

    # (a run that leaves the flag unread, the message, a run that reads it)
    CASES = [
        ("exact --complete 4 --source 0 --target 1 --method enumeration --memo-cap 1000",
         "--memo-cap applies to the exact recursion only", "exact --complete 4 --source 0 --target 1 --memo-cap 1000"),
        ("verify-t1 --complete 4 --mode montecarlo --samples 10 --seed 1 --memo-cap 1000",
         "--memo-cap applies to the exact recursion only", "verify-t1 --complete 4 --memo-cap 1000"),
        ("exact --complete 4 --source 0 --target 1 --enum-cap 10", "--enum-cap applies to enumeration only",
         "exact --complete 4 --source 0 --target 1 --method enumeration --enum-cap 10"),
        ("alm-linusson --n 4 --mode montecarlo --samples 10 --seed 1 --enum-cap 10",
         "--enum-cap applies to enumeration only", "alm-linusson --n 4 --enum-cap 10"),
        ("verify-t1 --complete 4 --mode montecarlo --samples 10 --seed 1 --tolerance 0.1",
         "--tolerance does not apply with --mode montecarlo", "verify-t1 --complete 4 --tolerance 0.1"),
        ("exact --graph g.edges --source 0 --target 1 --bias 0.3", "--bias does not apply to a --graph file or to "
         "mcdiarmid, whose coins are unbiased", "exact --complete 4 --source 0 --target 1 --bias 0.3"),
        ("mc --graph g.edges --source 0 --target 1 --samples 10 --seed 1 --bias 0.3", "--bias does not apply to a "
         "--graph file or to mcdiarmid, whose coins are unbiased",
         "mc --grid 2x2 --source 0 --target 3 --samples 10 --seed 1 --bias 0.3"),
        ("verify-t2 --graph g.edges --bias 0.3", "--bias does not apply to a --graph file or to mcdiarmid, whose "
         "coins are unbiased", "verify-t2 --random n=4,m=4 --seed 1 --bias 0.3"),
        ("mcdiarmid --complete 4 --root 0 --bias 0.9", "--bias does not apply to a --graph file or to mcdiarmid, "
         "whose coins are unbiased", "fourfunc --complete 4 --source 0 --a 1 --b 2 --bias 0.9"),
        ("mcdiarmid --random n=4,m=4 --seed 1 --root 0 --bias 0.5", "--bias does not apply to a --graph file or to "
         "mcdiarmid, whose coins are unbiased", "verify-t1 --random n=4,m=4 --seed 1 --bias 0.5"),
        ("exact --complete 4 --source 0 --target 1 --seed 1",
         "--seed applies only to runs that draw: samples, witness, --random, --random-sets",
         "exact --random n=4,m=4 --source 0 --target 1 --seed 1"),
        ("verify-t1 --complete 4 --seed 1",
         "--seed applies only to runs that draw: samples, witness, --random, --random-sets",
         "verify-t1 --complete 4 --mode montecarlo --samples 10 --seed 1"),
        ("verify-t2 --complete 4 --seed 1",
         "--seed applies only to runs that draw: samples, witness, --random, --random-sets",
         "verify-t2 --complete 4 --random-sets 2 --seed 1"),
        ("fourfunc --complete 4 --source 0 --a 1 --b 2 --seed 1",
         "--seed applies only to runs that draw: samples, witness, --random, --random-sets",
         "fourfunc --random n=4,m=4 --source 0 --a 1 --b 2 --seed 1"),
        ("mcdiarmid --complete 4 --root 0 --seed 1",
         "--seed applies only to runs that draw: samples, witness, --random, --random-sets",
         "mcdiarmid --random n=4,m=4 --root 0 --seed 1"),
        ("alm-linusson --n 4 --seed 1",
         "--seed applies only to runs that draw: samples, witness, --random, --random-sets",
         "alm-linusson --n 4 --mode montecarlo --samples 10 --seed 1"),
    ]

    @pytest.mark.parametrize("unread, message, read", CASES)
    def test_an_unread_flag_exits_2(self, capsys, monkeypatch, tmp_path, unread, message, read):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.edges").write_text(TRIANGLE)
        assert main(unread.split()) == 2
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert main(read.split()) == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    def test_bias_policy_is_gone(self, capsys):
        assert main("exact --complete 4 --source 0 --target 1 --bias-policy constant".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --bias-policy constant" in captured.err

    def test_a_given_bias_with_random_is_every_edge_bias(self, capsys):
        argv = "exact --random n=5,p=0.6 --seed 2 --source 0 --target 4".split()
        uniform, constant = run_json(capsys, argv)[1], run_json(capsys, argv + ["--bias", "0.3"])[1]
        assert uniform["prob"] == orientprob.exact_connection_prob(
            orientprob.random_graph(5, edge_prob=0.6, seed=2), 0, 4).probability
        assert constant["prob"] == orientprob.exact_connection_prob(
            orientprob.random_graph(5, edge_prob=0.6, biases=0.3, seed=2), 0, 4).probability
        assert uniform["prob"] != constant["prob"]


class TestOneOutputPath:
    """Commands compute and return their payload; main writes it, once."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        calls = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda args, payload: calls.append(payload) or emit(args, payload))
        return calls

    @pytest.mark.parametrize("argv, code", [
        ("exact --complete 4 --source 0 --target 1", 0),
        ("exact --complete 4 --source 0 --target 1 --target2 2 --method enumeration", 0),
        ("mc --complete 4 --source 0 --target 1 --samples 100 --seed 1", 0),
        ("mc-slack --complete 4 --source 0 --a 1 --b 2 --samples 100 --seed 1", 0),
        ("verify-t1 --complete 4", 0),
        ("verify-t2 --complete 4 --max-set-size 2", 0),
        ("fourfunc --complete 4 --source 0 --a 1 --b 2", 0),
        ("mcdiarmid --complete 4 --root 0", 0),
        ("alm-linusson --n 4", 0),
        ("grid-stats --grid 3x3 --bias 0.3,0.6 --samples 50 --seed 1", 0),
        ("witness --grid 2x2 --a 0,0 --b 1,0 --budget 10 --seed 0", 4),
    ])
    def test_main_emits_each_result_once(self, capsys, emitted, argv, code):
        assert main(argv.split()) == code
        out = capsys.readouterr().out
        assert len(emitted) == 1
        text = emitted[0] if isinstance(emitted[0], str) else json.dumps(emitted[0], indent=2)
        assert out == text + "\n"

    @pytest.mark.parametrize("argv, code", [
        ("exact --complete 4 --source 0 --target 9", 3),
        ("exact --complete 4 --source 0 --target 1 --memo-cap 0", 4),
        ("mc --complete 4 --source 0 --target 1 --samples 100", 2),
    ])
    def test_a_failed_run_emits_nothing(self, capsys, emitted, argv, code):
        assert main(argv.split()) == code
        assert emitted == [] and capsys.readouterr().out == ""

    def test_a_bad_bias_late_in_the_list_stops_the_run_before_any_row(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "grid_reach_stats", lambda *args, **kwargs: pytest.fail("a row was sampled"))
        assert main("grid-stats --grid 4x4 --bias 0.5,1.5 --samples 10 --seed 1".split()) == 3
        assert capsys.readouterr() == ("", "input error: bias 1.5 outside [0,1]\n")

    def test_a_bad_source_is_found_before_the_graph_file_is_read(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_graphs_from_args", lambda *args, **kwargs: pytest.fail("a graph was read"))
        argv = ["exact", "--graph", str(tmp_path / "missing.edges"), "--source", "x", "--target", "1"]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "input error: expected comma-separated integers, got 'x'\n")

    def test_a_frontier_table_past_the_limit_exits_4_before_it_is_built(self, capsys, tmp_path):
        # source 0 and hub 24 joined to 23 middle vertices, each at its own
        # bias: the first frontier table would hold 2^23 entries
        lines = [f"{u} {v} {0.2 + 0.01 * i}" for i in range(1, 24) for u, v in ((0, i), (i, 24))]
        path = tmp_path / "fan.edges"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            assert main(["exact", "--graph", str(path), "--source", "0", "--target", "24"]) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource limit: frontier table of 8388608 entries exceeds the limit of 4194304\n"
        assert peak < 1 << 24
