"""hopflab benchmark: closed-loop `check -> solve -> verify` pipelines.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a hopflab checkout. One client runs one CLI command
at a time, each in a fresh interpreter that imports hopflab from the
checkout's `src/`, as users run them; the next pipeline starts only after
the previous one has ended. A run starts another pipeline only while the
last one would still fit in `--seconds` (at least one pipeline runs).
Every pipeline gets a fresh `--out` directory under `.perfbench_work/`,
and every command is checked (see `Gate`).

--trace 0 reports the end-to-end metrics: the median over the run's
pipelines of each command's wall time, their sum, the largest per-command
peak RSS and the Newton iterate count, plus `setup_s`, the median time a
fresh interpreter takes to import `hopflab.cli`.

--trace 1 runs the same untraced pipelines, then one more pipeline through
`tracer.py` and reports the per-layer metrics of each command as
`<command>.<layer>.<metric>`. Its artifacts must match the untraced ones
byte for byte.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` (commands) and `metrics`. Progress goes to stderr.

Workloads (see workloads.py):
  annulus-p3-257    solver-bound: the solve does 10 sparse LU factorisations;
                    exact disk distances, so no polyline distance work.
  cap-outer-p3-257  geometry-bound: verify spends most of its time in the
                    brute-force distance to the inner cap polyline.
  annulus-p1.5-513  singular law at 513: superlinear LU fill, 12
                    factorisations, and 8 MB of grid files written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, oracle_error, seeded

COMMANDS = ("check", "solve", "verify")
WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0     # every command is killed once the run has taken this long
TRACER = Path(__file__).resolve().with_name("tracer.py")


def spawn(argv, env, log: Path, deadline: float):
    """Run argv to completion; (exit code, wall seconds, peak RSS in MB).

    The peak RSS is this child's alone, read with wait4: RUSAGE_CHILDREN
    would report the largest of every child so far.
    """
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def hash_dir(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def read_lines(path: Path) -> list[str]:
    try:
        return path.read_text().splitlines()
    except FileNotFoundError:
        return []


class Gate:
    """Correctness of each command run; counts feed `attempted` / `failed`.

    A command fails when it exits non-zero, when `solve_report.txt` does not
    say `converged True`, when `verify_summary.txt` does not say
    `verify pass True`, when the potential is further from the closed-form
    annulus oracle than acceptance criterion 02 allows, or when the
    artifacts it wrote differ from those of the run's first pipeline.
    """

    def __init__(self, wl):
        self.wl = wl
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.oracle_errs: list[float] = []

    def judge(self, cmd: str, code: int, out: Path, artifacts: dict):
        why = [f"exit code {code}"] if code != 0 else []
        if cmd == "solve":
            if "converged True" not in read_lines(out / "solve_report.txt"):
                why.append("solve_report.txt does not say converged True")
            if self.wl.oracle_tol is not None and (out / "potential.grid").exists():
                err = oracle_error(self.wl, out / "potential.grid")
                self.oracle_errs.append(err)
                if not err <= self.wl.oracle_tol:
                    why.append(f"oracle error {err!r} above {self.wl.oracle_tol!r}")
        if cmd == "verify" and read_lines(out / "verify_summary.txt")[:1] != ["verify pass True"]:
            why.append("verify_summary.txt does not say verify pass True")
        if self.reference.setdefault(cmd, artifacts) != artifacts:
            why.append("artifacts differ from the first pipeline's")
        self.attempted += 1
        if why:
            self.failed += 1
            print(f"FAILED {cmd} in {out}: {'; '.join(why)}", file=sys.stderr)


def untraced(cmd: str) -> list[str]:
    return [sys.executable, "-m", "hopflab.cli"]


def run_pipeline(prefix, cfg: Path, out: Path, env, gate: Gate, deadline: float) -> dict:
    """check, solve and verify into a fresh `out`, each in its own process."""
    out.mkdir(parents=True)
    rec, rss, before = {}, [], {}
    for cmd in COMMANDS:
        argv = prefix(cmd) + [cmd, "--config", str(cfg), "--out", str(out)]
        code, wall, peak = spawn(argv, env, out.with_name(f"{out.name}.{cmd}.log"), deadline)
        after = hash_dir(out)
        gate.judge(cmd, code, out, {k: v for k, v in after.items() if before.get(k) != v})
        before = after
        rec[f"{cmd}_s"] = wall
        rss.append(peak)
    rec["pipeline_s"] = sum(rec[f"{cmd}_s"] for cmd in COMMANDS)
    rec["peak_rss_mb"] = max(rss)
    rec["newton_iters"] = max(len(read_lines(out / "convergence.csv")) - 1, 0)
    print(f"{out.name}: " + " ".join(f"{k}={v:.4g}" for k, v in rec.items()), file=sys.stderr)
    return rec


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_probe(env, root: Path, work: Path, deadline: float):
    """Fail unless a fresh interpreter imports hopflab from this checkout.

    The probe also compiles the checkout's bytecode, which users pay once,
    not on every command, so it stays out of `setup_s`."""
    log = work / "probe.log"
    code, _, _ = spawn([sys.executable, "-c", "import hopflab.cli; print(hopflab.__file__)"],
                       env, log, deadline)
    where = log.read_text().strip()
    if code != 0 or Path(where).resolve().parent != (root / "src" / "hopflab").resolve():
        sys.exit(f"hopflab does not import from {root / 'src'}: {where}")


def setup_s(env, work: Path, deadline: float) -> float:
    times = [spawn([sys.executable, "-c", "import hopflab.cli"], env, work / "setup.log",
                   deadline)[1] for _ in range(SETUP_SAMPLES)]
    return statistics.median(times)


def traced_metrics(cfg, work, env, gate, untraced, deadline) -> dict:
    """One traced pipeline; per-layer metrics as `<command>.<layer>.<metric>`."""
    spans = {cmd: work / f"spans.{cmd}.json" for cmd in COMMANDS}
    out = work / "traced"
    rec = run_pipeline(lambda cmd: [sys.executable, str(TRACER), str(spans[cmd])],
                       cfg, out, env, gate, deadline)
    metrics = {}
    for cmd in COMMANDS:
        layers = layer_metrics(json.loads(spans[cmd].read_text()))
        layers["trace.overhead_s"] = rec[f"{cmd}_s"] - statistics.median(
            r[f"{cmd}_s"] for r in untraced)
        metrics.update({f"{cmd}.{k}": v for k, v in layers.items()})
    for line in read_lines(out / "subsolution.txt"):
        words = line.split()
        if words[:1] in (["check_residual"], ["check_pointwise"], ["check_zeta"]):
            margin = float(words[words.index("worst_margin") + 1])
            tol = float(words[words.index("tol") + 1])
            metrics[f"verify.barrier.margin_{words[0][6:]}"] = margin / tol
    metrics["solve.oracle_err"] = gate.oracle_errs[-1] if gate.oracle_errs else 0.0
    return metrics


UNITS = {"setup_s": "s", "check_s": "s", "solve_s": "s", "verify_s": "s",
         "pipeline_s": "s", "peak_rss_mb": "MB", "newton_iters": "count"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_calls", "_count", "_builds", "_solves")):
        return "count"
    return "1"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "hopflab" / "cli.py").is_file():
        sys.exit(f"{root} is not a hopflab checkout: src/hopflab/cli.py is missing")
    wl = seeded(WORKLOADS[args.workload], args.seed)
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "run.ini"
    cfg.write_text(wl.config_text())
    env = child_env(root)
    import_probe(env, root, work, deadline)

    gate = Gate(wl)
    setup = None if args.trace else setup_s(env, work, deadline)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start + runs[-1]["pipeline_s"] <= args.seconds:
        runs.append(run_pipeline(untraced, cfg, work / f"iter{len(runs)}", env, gate, deadline))
    if args.trace:
        metrics = traced_metrics(cfg, work, env, gate, runs, deadline)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {"setup_s": setup}
        metrics.update({k: statistics.median(r[k] for r in runs) for k in runs[0]})
        units = UNITS
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
