"""The scripts run end to end, each in a fresh interpreter on this checkout's src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_cap_pipeline_script():
    run = run_script("cap_pipeline.py", "--resolution", "97", "--p", "3.0")
    assert run.returncode == 0, run.stderr
    assert "subsolution pass" in run.stdout
    assert "comparison pass" in run.stdout


def test_annulus_benchmark_script():
    run = run_script("annulus_benchmark.py", "--resolutions", "65", "--p", "3.0")
    assert run.returncode == 0, run.stderr
    assert "gradient bounds" in run.stdout
