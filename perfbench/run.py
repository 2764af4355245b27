#!/usr/bin/env python3
"""Benchmark for orientprob: runs one workload through the public CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sampled --seed 0 --trace 0

One process and one thread call `orientprob.cli.main(argv)` in-process on
the workload's jobs, pass after pass, for about --seconds seconds (by
default BENCHMARK.json's run_seconds), and
capture each job's output. Outputs are checked after the timed passes. A
job fails if it exits with an unexpected code, raises past `main`, or fails
its check; a failure is counted and the run carries on.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, wall_s, peak_rss_mb). Both times are given
at a fixed reference speed of the machine: a short pure-Python loop is
timed between set-ups and between jobs, and each one's time is scaled by
how much slower than CALIBRATION_REF_S that loop ran around it (see
calibrate()). With --trace 1 untraced and traced passes alternate and the
metrics are the per-layer figures of the traced passes (see tracing.py),
plus the tracing overhead. The lines before it record the environment,
the failure count and its base.
README.md in this directory lists the workloads and every metric.
"""

import os

# One thread per run: pin the BLAS pools before numpy is first imported
# (verify-t1 --mode montecarlo does a matrix product).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import numpy.random  # noqa: E402,F401  loaded by the harness, so set-up times orientprob alone

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS_PER_PASS = 4
# On a shared host the interpreter's speed drifts by up to 2x over seconds
# to minutes, with CPU time drifting as much as wall time. calibrate() reads
# bytes of an 8 MiB buffer in pseudo-random order, so it slows both when the
# core and when the shared cache is busy. CALIBRATION_REF_S is about the
# time it takes on a 2-core VM in its fast phases.
CALIBRATION_LOOPS = 60_000
CALIBRATION_BUFFER = bytearray(range(256)) * (1 << 15)
CALIBRATION_REF_S = 0.013
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot run here: the program source is missing."""


@dataclass(frozen=True)
class Outcome:
    rc: int | None
    stdout: str
    error: str | None  # traceback of an exception that escaped main


def _purge_package() -> None:
    for name in list(sys.modules):
        if name == "orientprob" or name.startswith("orientprob."):
            del sys.modules[name]


def set_up(workload: str, seed: int, workdir: Path, size: str):
    """Import orientprob afresh and build the run's inputs; returns (cli module, jobs)."""
    _purge_package()
    cli = importlib.import_module("orientprob.cli")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return cli, workloads.build(workload, seed, workdir, size)


def run_jobs(jobs: list, cli) -> list[Outcome]:
    outcomes = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job.argv)
        except Exception:  # a job that raises past main is a failure; the run goes on
            outcomes.append(Outcome(None, out.getvalue(), traceback.format_exc()))
        else:
            outcomes.append(Outcome(rc, out.getvalue(), None))
    return outcomes


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    buf, mask = CALIBRATION_BUFFER, len(CALIBRATION_BUFFER) - 1
    start = time.perf_counter()
    total, j = 0, 1
    for _ in range(CALIBRATION_LOOPS):
        j = (j * 1103515245 + 12345) & mask
        total += buf[j]
    return time.perf_counter() - start


def timed(fn, calibrations: list[float]):
    """Call fn(), then calibrate. calibrations[-1] is the calibration made
    just before the call; the one after it is appended. Returns (fn's
    result, seconds, seconds at the reference speed): the time multiplied
    by CALIBRATION_REF_S over the mean of the two calibrations."""
    start = time.perf_counter()
    result = fn()
    took = time.perf_counter() - start
    calibrations.append(calibrate())
    return result, took, took * CALIBRATION_REF_S / statistics.fmean(calibrations[-2:])


@dataclass
class Timings:
    """Seconds measured in a run; the scaled ones are at the reference speed."""
    setups: list[float] = field(default_factory=list)
    scaled_setups: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)  # untraced passes: the sum of their job times
    scaled_walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)


def check_outcomes(jobs: list, passes: list, op) -> list[tuple[int, str, str]]:
    """(pass, argv, reason) for each failed job. An output already verified
    for the same job is not checked again."""
    failures = []
    verified: list[set[str]] = [set() for _ in jobs]
    for p, (_, outcomes) in enumerate(passes):
        for j, (job, o) in enumerate(zip(jobs, outcomes)):
            if o.error is not None:
                reason = "raised " + o.error.strip().splitlines()[-1]
            elif o.rc != 0:
                reason = f"exit code {o.rc}"
            elif o.stdout in verified[j]:
                reason = None
            else:
                try:
                    reason = job.check(o.stdout, op)
                except Exception as exc:  # malformed output is a failed check
                    reason = f"check raised {exc!r}"
                if reason is None:
                    verified[j].add(o.stdout)
            if reason is not None:
                failures.append((p, " ".join(job.argv), reason))
    return failures


def measure(setup, seconds: float, tracer):
    """Timed passes until the next one would end after `seconds`. Each pass
    runs the jobs of the last of SETUPS_PER_PASS fresh set-ups made just
    before it, so set-up is timed across the whole run, as the passes are,
    and not in one burst. Each set-up and each job of an untraced pass is
    timed between two calibrations. With a tracer, untraced and traced
    passes alternate. Returns (passes, Timings, jobs); passes are (traced,
    outcomes)."""
    passes, t = [], Timings()
    start = time.perf_counter()
    last = 0.0
    while not t.walls or (tracer and not t.traced_walls) or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        t.calibrations.append(calibrate())
        for _ in range(SETUPS_PER_PASS):
            (cli, jobs), took, scaled = timed(setup, t.calibrations)
            t.setups.append(took)
            t.scaled_setups.append(scaled)
        traced = tracer is not None and len(t.traced_walls) < len(t.walls)
        if traced:
            tracer.install()
            try:
                outcomes, wall = tracer.run_pass(lambda: run_jobs(jobs, cli))
            finally:
                tracer.uninstall()
            t.traced_walls.append(wall)
        else:
            outcomes, wall, scaled = [], 0.0, 0.0
            for job in jobs:
                done, took, took_scaled = timed(lambda: run_jobs([job], cli), t.calibrations)
                outcomes += done
                wall += took
                scaled += took_scaled
            t.walls.append(wall)
            t.scaled_walls.append(scaled)
        passes.append((traced, outcomes))
        last = time.perf_counter() - begin
    return passes, t, jobs


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():  # an exported tree: do not report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (result object, details for the log lines)."""
    if not (SRC / "orientprob" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'orientprob'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        tracer = tracing.Tracer() if trace else None
        passes, t, jobs = measure(lambda: set_up(workload, seed, workdir, size), seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op = sys.modules["orientprob"]
        if not Path(op.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"orientprob was imported from {op.__file__}, not from {SRC}")
        failures = check_outcomes(jobs, passes, op)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    attempted = len(jobs) * len(passes)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(t.scaled_setups),
            "wall_s": statistics.median(t.scaled_walls),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced = [p for p, (is_traced, _) in enumerate(passes) if is_traced]
        metrics = tracer.metrics(len(t.traced_walls))
        metrics["cli.jobs_failed"] = sum(1 for p, _, _ in failures if p in traced) / len(t.traced_walls)
        metrics["error_rate"] = len(failures) / attempted
        metrics["trace.wall_s"] = statistics.fmean(t.traced_walls)
        metrics["trace.untraced_wall_s"] = statistics.fmean(t.walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    details = {"passes": len(passes), "jobs": len(jobs), "failures": failures, "timings": t}
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=CONFIG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for p, argv_text, reason in details["failures"]:
        print(f"FAILED pass {p}: {argv_text}: {reason}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {details['passes']} passes "
          f"of {details['jobs']} jobs")
    for name, m in result["metrics"].items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    if args.trace:
        largest = max(tracing.SELF_BUCKETS, key=lambda b: result["metrics"][b]["value"])
        print(f"# largest self time {largest}")
    t = details["timings"]
    print("# untraced pass walls " + " ".join(f"{w:.3f}" for w in t.walls))
    print("# the same at the reference speed " + " ".join(f"{w:.3f}" for w in t.scaled_walls))
    print("# set-ups " + " ".join(f"{s:.4f}" for s in t.setups))
    print("# the same at the reference speed " + " ".join(f"{s:.4f}" for s in t.scaled_setups))
    print(f"# calibration median {statistics.median(t.calibrations):.5f} s "
          f"(reference {CALIBRATION_REF_S} s, {len(t.calibrations)} calibrations)")
    print(f"# error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} jobs attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
