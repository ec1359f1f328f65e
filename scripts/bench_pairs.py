#!/usr/bin/env python3
"""Alternating benchmark pairs: two hopflab checkouts, seed by seed.

    python3 scripts/bench_pairs.py PARENT CHANGE --seeds 150 151 ... --json FILE
        [--workloads NAME ...] [--seconds S] [--imports N] [--trace]

For every workload and seed it runs `perfbench/run.py` in both checkouts
back to back, the parent first on even seeds and the change first on odd
ones, so a drift of the machine's speed falls on both sides alike. Each run
uses its own checkout's `perfbench/run.py` and `src/`. After each pair it
times `import hopflab.cli` in fresh interpreters, N times per checkout
(`--imports`, default 20), in ABBA order (parent, change, change, parent,
...), so the two sides of `setup_s` are read in the same minute. `--trace`
adds one traced run per side and workload at the default seed, parent
first.

FILE gets `perfbench/report.py`'s summary of each side (machine, run
seconds, seeds, the order above, and per workload the attempted and failed
commands, every end-to-end metric's median / quartiles / spread, and the
traced per-layer metrics), plus `pairs`: per workload and metric, both
sides' values seed by seed and the number of seeds where the change read
lower. `imports` holds, per workload and seed, both sides' import times,
the pair's change/parent ratio of their medians, and each side's
`-X importtime` total of the `hopflab.*` modules (self times, in
microseconds; the median of five more interpreters per side), plus the
median ratio over the seeds. A short table of medians goes to stdout,
progress to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from report import machine, summarise  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SIDES = ("parent", "change")
IMPORTTIME_SAMPLES = 5      # `-X importtime` interpreters per side and pair
ORDER = ("alternating pairs: for each seed both checkouts run back to back, "
         "parent first on even seeds, change first on odd seeds")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def importer(checkout: Path, *flags: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports hopflab.cli from checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", "import hopflab.cli"], cwd=checkout,
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=True)


def hopflab_import_us(checkout: Path) -> int:
    """The `-X importtime` self times of the hopflab.* modules, summed (us)."""
    total = 0
    for line in importer(checkout, "-X", "importtime").stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().split(".")[0] == "hopflab":
            total += int(fields[0])
    return total


def import_pair(checkouts: dict, n: int) -> dict:
    """n import timings per side, their median ratio, and each side's
    hopflab.* import time (the median of IMPORTTIME_SAMPLES more
    interpreters), both in ABBA order."""
    abba = [SIDES if k % 2 == 0 else SIDES[::-1] for k in range(max(n, IMPORTTIME_SAMPLES))]
    times = {side: [] for side in SIDES}
    for order in abba[:n]:
        for side in order:
            start = time.perf_counter()
            importer(checkouts[side])
            times[side].append(time.perf_counter() - start)
    hopflab_us = {side: [] for side in SIDES}
    for order in abba[:IMPORTTIME_SAMPLES]:
        for side in order:
            hopflab_us[side].append(hopflab_import_us(checkouts[side]))
    ratio = statistics.median(times["change"]) / statistics.median(times["parent"])
    return dict(times, ratio=ratio,
                hopflab_us={side: statistics.median(us) for side, us in hopflab_us.items()})


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
    ap.add_argument("--imports", type=int, default=20)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    result = {side: {"machine": machine(), "run_seconds": args.seconds, "seeds": args.seeds,
                     "order": ORDER, "workloads": {}} for side in SIDES}
    result["pairs"], result["imports"] = {}, {}
    for name in args.workloads:
        runs = {side: [] for side in SIDES}
        imports = result["imports"][name] = {"seeds": {}}
        for seed in args.seeds:
            for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                print(f"{name} seed {seed} {side}", file=sys.stderr, flush=True)
                runs[side].append(run(checkouts[side], name, seed, args.seconds, 0))
            print(f"{name} seed {seed} imports", file=sys.stderr, flush=True)
            imports["seeds"][seed] = import_pair(checkouts, args.imports)
        imports["ratio_median"] = statistics.median(
            pair["ratio"] for pair in imports["seeds"].values())
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
        ratio = result["imports"][name]["ratio_median"]
        print(f"{name:18s} {'imports':13s} {'':10s} {'':10s} {ratio - 1.0:+8.1%}   "
              "(median change/parent ratio of the ABBA import pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
