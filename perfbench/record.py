#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the results.

Usage, from the root of a checkout:

    python3 perfbench/record.py --label baseline --seeds 0,1 --trace 0,1
    python3 perfbench/record.py --label spread --seeds 0-9 --workloads sampled

Each run is `perfbench/run.py` in its own process, one after another, for
BENCHMARK.json's run_seconds. The file written, perfbench/results/<label>.json,
holds every run's result and environment lines, and for each workload and metric
the median, the quartiles and the spread: the distance between the first
and third quartile as a share of the median, as statistics.quantiles gives
them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    env = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")), None)
    return {"workload": workload, "seed": seed, "trace": trace, "env": env, "result": json.loads(lines[-1]),
            "log": [line for line in lines[:-1] if not line.startswith("# env ")], "stderr": proc.stderr}


def summarize(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,1,5")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", default="0", help="0, 1 or 0,1")
    args = parser.parse_args()
    runs = []
    for workload in args.workloads.split(","):
        for trace in [int(t) for t in args.trace.split(",")]:
            for seed in _seeds(args.seeds):
                r = run_once(workload, seed, config["run_seconds"], trace)
                runs.append(r)
                res = r["result"]
                shown = ", ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items()
                                  if k in ("setup_s", "wall_s", "peak_rss_mb", "trace.wall_s"))
                print(f"{workload} trace={trace} seed={seed}: {shown}, error_rate="
                      f"{res['failed'] / res['attempted']:.4g} ({res['failed']} failed of {res['attempted']} jobs)",
                      flush=True)
    summary: dict = {}
    for r in runs:
        per = summary.setdefault(f"{r['workload']} trace={r['trace']}", {})
        for name, m in r["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    summary = {key: {name: summarize(v) for name, v in per.items()} for key, per in summary.items()}
    for key, per in summary.items():
        if key.endswith("trace=0"):
            for name, s in per.items():
                print(f"{key} {name}: median {s['median']:.4g} spread {s.get('spread')}")
    out = HERE / "results" / f"{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"label": args.label, "seconds": config["run_seconds"], "summary": summary,
                               "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
