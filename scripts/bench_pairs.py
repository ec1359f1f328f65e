#!/usr/bin/env python3
"""Alternating benchmark pairs: two hopflab checkouts, seed by seed.

    python3 scripts/bench_pairs.py PARENT CHANGE --seeds 150 151 ... --json FILE
        [--workloads NAME ...] [--seconds S] [--trace]

For every workload and seed it runs `perfbench/run.py` in both checkouts
back to back, the parent first on even seeds and the change first on odd
ones, so a drift of the machine's speed falls on both sides alike. Each run
uses its own checkout's `perfbench/run.py` and `src/`. `--trace` adds one
traced run per side and workload at the default seed, parent first.

FILE gets `perfbench/report.py`'s summary of each side (machine, run
seconds, seeds, the order above, and per workload the attempted and failed
commands, every end-to-end metric's median / quartiles / spread, and the
traced per-layer metrics), plus `pairs`: per workload and metric, both
sides' values seed by seed and the number of seeds where the change read
lower. A short table of medians goes to stdout, progress to stderr.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from report import machine, summarise  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SIDES = ("parent", "change")
ORDER = ("alternating pairs: for each seed both checkouts run back to back, "
         "parent first on even seeds, change first on odd seeds")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """report.summarise, or the one value itself for a single seed."""
    if len(values) > 1:
        return summarise(values)
    return {"n": 1, "median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    result = {side: {"machine": machine(), "run_seconds": args.seconds, "seeds": args.seeds,
                     "order": ORDER, "workloads": {}} for side in SIDES}
    result["pairs"] = {}
    for name in args.workloads:
        runs = {side: [] for side in SIDES}
        for seed in args.seeds:
            for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                print(f"{name} seed {seed} {side}", file=sys.stderr, flush=True)
                runs[side].append(run(checkouts[side], name, seed, args.seconds, 0))
        pairs = result["pairs"][name] = {}
        for side in SIDES:
            attempted = sum(r["attempted"] for r in runs[side])
            failed = sum(r["failed"] for r in runs[side])
            entry = {"attempted": attempted, "failed": failed,
                     "fail_frac": failed / attempted, "end_to_end": {}}
            for metric, first in runs[side][0]["metrics"].items():
                values = [r["metrics"][metric]["value"] for r in runs[side]]
                entry["end_to_end"][metric] = dict(summary(values), unit=first["unit"])
                pairs.setdefault(metric, {})[side] = values
            result[side]["workloads"][name] = entry
        for metric, both in pairs.items():
            both["change_lower_in"] = sum(c < p for p, c in zip(both["parent"], both["change"]))
        if args.trace:
            for side in SIDES:
                print(f"{name} traced {side}", file=sys.stderr, flush=True)
                traced = run(checkouts[side], name, DEFAULT_SEED, args.seconds, 1)
                entry = result[side]["workloads"][name]
                entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
                entry["traced_failed"] = traced["failed"]

    args.json.write_text(json.dumps(result, indent=1) + "\n")
    print(f"{'workload':18s} {'metric':13s} {'parent':>10s} {'change':>10s} {'change':>8s} "
          f"{'lower in':>9s} {'parent IQR':>10s}")
    for name, pairs in result["pairs"].items():
        for metric, both in pairs.items():
            p, c = (result[side]["workloads"][name]["end_to_end"][metric] for side in SIDES)
            rel = c["median"] / p["median"] - 1.0 if p["median"] else 0.0
            print(f"{name:18s} {metric:13s} {p['median']:10.4g} {c['median']:10.4g} "
                  f"{rel:+8.1%} {both['change_lower_in']:4d}/{len(both['parent']):<4d} "
                  f"{p['q3'] - p['q1']:10.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
