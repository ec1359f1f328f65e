#!/usr/bin/env python3
"""Alternating `hopflab solve` pairs: two hopflab checkouts, config by config.

    python3 scripts/solve_pairs.py PARENT CHANGE [--configs FILE ...] [--pairs N]

For every INI config it runs `hopflab solve` N times in each checkout, each
run in a fresh interpreter on that checkout's `src/`, the parent first in
even pairs and the change first in odd ones, so a drift of the machine's
speed falls on both sides alike. Per config and side it prints the median
wall time of the runs, their exit code, and the `levels` and `linear` lines
of the last run's `solve_report.txt` (grids, Newton iterates, Jacobian
factorisations and GMRES iterations; see the README). Progress goes to
stderr.

With no `--configs` it runs the four harder 257 rings of `HARD_RINGS`:
laws strong enough that a factor held from an earlier Newton step can miss
its GMRES tolerance.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def _config(p: float, geometry: str) -> str:
    return (f"[function]\nkind = power\np = {p}\n\n[geometry]\n{geometry}\n"
            "[grid]\nresolution = 257\n")


ANNULUS = "kind = annulus\nr1 = 1.0\nr2 = 2.0\n"
CAP = "kind = dini_cap\nr_d = 0.25\nring = {}\n\n[modulus]\nkind = {}\n{}\n"
HARD_RINGS = {
    "annulus-p5-257": _config(5.0, ANNULUS),
    "annulus-p1.3-257": _config(1.3, ANNULUS),
    "cap-inner-logpower-p1.3-257": _config(1.3, CAP.format("inner", "logpower", "q = 2.0")),
    "cap-outer-p5-257": _config(5.0, CAP.format("outer", "power", "a = 0.5")),
}


def solve(checkout: Path, config: Path, out: Path) -> tuple[float, int]:
    """(wall seconds, exit code) of one `hopflab solve` on checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "hopflab.cli", "solve", "--config", str(config),
            "--out", str(out)]
    start = time.perf_counter()
    code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode
    return time.perf_counter() - start, code


def report_lines(out: Path) -> list[str]:
    """The levels and linear lines of the solve report in out."""
    report = out / "solve_report.txt"
    lines = report.read_text().splitlines() if report.exists() else []
    return [line for line in lines if line.split()[:1] in (["levels"], ["linear"])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--configs", type=Path, nargs="+")
    ap.add_argument("--pairs", type=int, default=5)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if args.configs:
            configs = {path.stem: path.resolve() for path in args.configs}
        else:
            configs = {}
            for name, text in HARD_RINGS.items():
                configs[name] = tmp / f"{name}.ini"
                configs[name].write_text(text)
        for name, config in configs.items():
            times = {side: [] for side in SIDES}
            codes = {side: set() for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    print(f"{name} pair {pair} {side}", file=sys.stderr, flush=True)
                    seconds, code = solve(checkouts[side], config, tmp / name / side)
                    times[side].append(seconds)
                    codes[side].add(code)
            print(name)
            for side in SIDES:
                exits = "/".join(map(str, sorted(codes[side])))
                print(f"  {side:6s} median {statistics.median(times[side]):.2f} s over "
                      f"{args.pairs} runs, exit {exits}: "
                      + " | ".join(report_lines(tmp / name / side)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
