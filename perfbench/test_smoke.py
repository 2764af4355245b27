"""Smoke tests for the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def tiny_runs(request):
    """(workload, untraced result, traced result) at tiny sizes, one pass each."""
    plain, _ = run.run(request.param, seed=3, seconds=0, trace=False, size="tiny")
    traced, _ = run.run(request.param, seed=3, seconds=0, trace=True, size="tiny")
    return request.param, plain, traced


def _values(result: dict) -> dict[str, float]:
    return {k: m["value"] for k, m in result["metrics"].items()}


def test_every_workload_runs_without_failures(tiny_runs):
    _, plain, traced = tiny_runs
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_every_named_metric_is_emitted_with_its_unit(tiny_runs):
    _, plain, traced = tiny_runs
    for result, listed in ((plain, CONFIG["end_to_end"]), (traced, CONFIG["per_layer"])):
        assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(v > 0 for v in _values(plain).values())


def test_self_times_are_nonnegative_and_sum_to_traced_wall(tiny_runs):
    _, _, traced = tiny_runs
    v = _values(traced)
    parts = [v[b] for b in tracing.SELF_BUCKETS]
    assert min(parts) >= 0.0
    assert sum(parts) == pytest.approx(v["trace.wall_s"], rel=1e-9)


def test_workloads_isolate_their_layers(tiny_runs):
    workload, _, traced = tiny_runs
    v = _values(traced)
    if workload == "exact":
        assert v["graphs.draw_values"] == 0 and v["graphs.reach_many_calls"] == 0
        assert v["exact.recursion_states"] > 0
    else:
        assert v["exact.recursion_states"] == 0 and v["graphs.reach_many_calls"] > 0


def test_wrappers_are_restored():
    run.run("sampled", seed=0, seconds=0, trace=True, size="tiny")
    mods = [sys.modules["orientprob"]] + [sys.modules[f"orientprob.{layer}"] for layer in tracing.LAYERS]
    classes = [getattr(sys.modules[f"orientprob.{layer}"], cls) for layer, cls, _ in tracing.METHODS]
    before = {(id(o), k): v for o in mods + classes for k, v in vars(o).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        graphs, montecarlo = sys.modules["orientprob.graphs"], sys.modules["orientprob.montecarlo"]
        assert hasattr(graphs.reach_many, "__wrapped__")
        assert montecarlo.reach_many is graphs.reach_many  # imported names are wrapped too
    finally:
        tracer.uninstall()
    after = {(id(o), k): v for o in mods + classes for k, v in vars(o).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__wrapped__") for v in after.values() if callable(v))


def test_times_are_scaled_by_the_calibrations_either_side(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 4 * run.CALIBRATION_REF_S)
    calibrations = [2 * run.CALIBRATION_REF_S]  # made just before the call
    result, took, scaled = run.timed(lambda: "done", calibrations)
    assert result == "done" and calibrations == [2 * run.CALIBRATION_REF_S, 4 * run.CALIBRATION_REF_S]
    assert scaled == pytest.approx(took / 3)


def test_a_job_that_raises_is_counted_and_the_run_goes_on():
    class FakeCli:
        @staticmethod
        def main(argv):
            if argv[0] == "boom":
                raise RuntimeError("probability outside the accumulation tolerance band")
            print('{"ok": true}')
            return 0

    jobs = [workloads.Job(["boom"], lambda out, op: None), workloads.Job(["fine"], lambda out, op: None),
            workloads.Job(["fine"], lambda out, op: "wrong answer")]
    outcomes = run.run_jobs(jobs, FakeCli)
    assert [o.rc for o in outcomes] == [None, 0, 0]
    failures = run.check_outcomes(jobs, [(False, outcomes)], op=None)
    assert [(p, argv) for p, argv, _ in failures] == [(0, "boom"), (0, "fine")]
    assert "RuntimeError" in failures[0][2] and failures[1][2] == "wrong answer"


def test_inputs_follow_the_seed():
    work = HERE.parent / ".perfbench_work"

    def inputs(workload: str, seed: int, name: str) -> tuple[list[str], list[str]]:
        (work / name).mkdir(parents=True)
        jobs = workloads.build(workload, seed, work / name, "tiny")
        files = sorted(p.read_text() for p in (work / name).glob("*.edges"))
        return [" ".join(j.argv).replace(str(work / name), "") for j in jobs], files

    try:
        first = inputs("exact", 5, "a")
        assert first == inputs("exact", 5, "b")
        assert first != inputs("exact", 6, "c")
        assert inputs("sampled", 5, "d") != inputs("sampled", 6, "e")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_to_run_without_the_program():
    bare = HERE.parent / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sampled", "--seed", "0",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=120)
    finally:
        shutil.rmtree(HERE.parent / ".perfbench_work", ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
