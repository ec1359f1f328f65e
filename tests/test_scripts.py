"""The scripts run end to end, each in a fresh interpreter on this checkout's src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=300)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_benchmark_tracer_installs():
    # the benchmark's tracer wraps each of its FUNCTIONS (and ConvexRing.sdf)
    # by name, so a traced command exits 1 once any of them is gone
    code = (f"import importlib, sys\nsys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "import tracer\ntracer.install(tracer.Tracer('t'))\n"
            "for name in tracer.FUNCTIONS:\n"
            "    mod, attr = name.split('.')\n"
            "    assert callable(getattr(importlib.import_module('hopflab.' + mod), attr))\n")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr


def test_cap_pipeline_script():
    run = run_script("cap_pipeline.py", "--resolution", "97", "--p", "3.0")
    assert run.returncode == 0, run.stderr
    assert "subsolution pass" in run.stdout
    assert "comparison pass" in run.stdout


def test_annulus_benchmark_script():
    run = run_script("annulus_benchmark.py", "--resolutions", "65", "--p", "3.0")
    assert run.returncode == 0, run.stderr
    assert "gradient bounds" in run.stdout


def test_bench_pairs_script(tmp_path):
    # this checkout against itself: one seed, one short run per side
    out = tmp_path / "pairs.json"
    run = run_script("bench_pairs.py", str(ROOT), str(ROOT), "--seeds", "1",
                     "--seconds", "1", "--workloads", "annulus-p3-257", "--imports", "2",
                     "--json", str(out))
    assert run.returncode == 0, run.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"parent", "change", "pairs", "imports"}
    metrics = {"setup_s", "check_s", "solve_s", "verify_s", "pipeline_s", "peak_rss_mb",
               "newton_iters"}
    for side in ("parent", "change"):
        assert set(result[side]) == {"machine", "run_seconds", "seeds", "order", "workloads"}
        assert result[side]["seeds"] == [1]
        entry = result[side]["workloads"]["annulus-p3-257"]
        assert entry["failed"] == 0 and entry["attempted"] >= 3
        assert set(entry["end_to_end"]) == metrics
        assert set(entry["end_to_end"]["solve_s"]) == {"n", "median", "q1", "q3", "spread",
                                                      "unit"}
    pairs = result["pairs"]["annulus-p3-257"]
    assert set(pairs) == metrics
    assert all(len(pairs[m]["parent"]) == len(pairs[m]["change"]) == 1 for m in metrics)
    assert all(0 <= pairs[m]["change_lower_in"] <= 1 for m in metrics)
    # two ABBA import timings per side, their ratio, and hopflab's own
    # import time in each side (the same checkout: equal up to noise)
    imports = result["imports"]["annulus-p3-257"]
    pair = imports["seeds"]["1"]
    assert set(pair) == {"parent", "change", "ratio", "hopflab_us"}
    assert len(pair["parent"]) == len(pair["change"]) == 2
    assert pair["ratio"] > 0 and imports["ratio_median"] == pair["ratio"]
    assert all(us > 0 for us in pair["hopflab_us"].values())


def test_solve_pairs_script(tmp_path):
    # this checkout against itself: one pair on the 65 annulus
    config = tmp_path / "annulus65.ini"
    config.write_text("[function]\nkind = power\np = 3.0\n\n[geometry]\nkind = annulus\n"
                      "r1 = 1.0\nr2 = 2.0\n\n[grid]\nresolution = 65\n")
    run = run_script("solve_pairs.py", str(ROOT), str(ROOT), "--configs", str(config),
                     "--pairs", "1")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "annulus65"
    for side, line in zip(("parent", "change"), lines[1:]):
        assert line.split()[0] == side and "over 1 runs, exit 0: " in line
        assert ": levels 65:" in line and " | linear 65:1:" in line
