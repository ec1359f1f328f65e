"""Self-test of the benchmark's span tracer on the annulus with p=3 at grid 65."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMANDS = ("check", "solve", "verify")


@pytest.fixture(scope="module")
def spans(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    cfg = work / "run.ini"
    cfg.write_text(replace(WORKLOADS["annulus-p3-257"], resolution=65).config_text())
    src = str(BENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = {}
    for cmd in COMMANDS:
        path = work / f"{cmd}.json"
        subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(path), cmd,
                        "--config", str(cfg), "--out", str(work / "out")],
                       env=env, check=True, timeout=300, stdout=subprocess.DEVNULL)
        out[cmd] = json.loads(path.read_text())
    return out


def test_spans_nest_inside_their_parents(spans):
    for cmd in COMMANDS:
        roots = [s for s in spans[cmd] if s["parent"] is None]
        assert [s["name"] for s in roots] == ["cli.main"]
        for s in spans[cmd]:
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                parent = spans[cmd][s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_solve_factorises_more_than_once(spans):
    assert layer_metrics(spans["solve"])["solver.lu_count"] >= 2


def test_verify_solves_only_the_tolerance_benchmark(spans):
    m = layer_metrics(spans["verify"])
    assert m["solver.harmonic_solves"] == 1
    assert m["hopf.tol_benchmark_s"] > 0


def test_annulus_needs_no_polyline_distance(spans):
    for cmd in COMMANDS:
        assert layer_metrics(spans[cmd])["geometry.sdf_s"] == 0
