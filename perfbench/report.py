"""Run every workload over several seeds and summarise the benchmark.

    python3 perfbench/report.py [--seeds 0 1 ...] [--trace] [--json FILE] [--compare FILE]

Run it from the root of a hopflab checkout. For each workload and seed it
runs `run.py` once with BENCHMARK.json's `run_seconds`, then prints every
end-to-end metric with its unit, sample count, median, quartiles
(`statistics.quantiles(n=4)`) and spread, (q3 - q1) / median, and
`fail_frac`, the commands that failed a correctness check over those
attempted. `--trace` adds one traced run per workload at the default seed
and prints its per-layer metrics. `--json` writes all of it with a
description of the machine; `--compare` checks each median against such a
file, within BENCHMARK.json's bound for the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def machine() -> dict:
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"machine": machine(), "run_seconds": spec["run_seconds"],
               "seeds": args.seeds, "workloads": {}}
    reference = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    worse = []
    for name in WORKLOADS:
        results = [run(name, seed, spec["run_seconds"], 0) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
                 "end_to_end": {}}
        print(f"\n{name}  ({len(results)} runs, fail_frac {failed}/{attempted} "
              f"= {failed / attempted:g})")
        print(f"  {'metric':14s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s}")
        for metric, first in results[0]["metrics"].items():
            s = summarise([r["metrics"][metric]["value"] for r in results])
            s["unit"] = first["unit"]
            entry["end_to_end"][metric] = s
            line = (f"  {metric:14s} {s['unit']:6s} {s['n']:3d} {s['median']:12.6g} "
                    f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:7.3f}")
            ref = reference.get(name, {}).get("end_to_end", {}).get(metric)
            if ref:
                change = s["median"] / ref["median"] - 1.0
                ok = change <= bounds[metric]
                line += f"  vs reference {change:+.3f} (bound {bounds[metric]}) " \
                        f"{'ok' if ok else 'WORSE'}"
                if not ok:
                    worse.append((name, metric))
            print(line)
        if args.trace:
            traced = run(name, DEFAULT_SEED, spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_failed"] = traced["failed"]
            print(f"  per layer, seed {DEFAULT_SEED} (failed {traced['failed']}):")
            for k, v in traced["metrics"].items():
                print(f"    {k:40s} {v['value']:12.6g} {v['unit']}")
        summary["workloads"][name] = entry

    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    if worse:
        print(f"\nworse than the reference beyond the bound: {worse}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
