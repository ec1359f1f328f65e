"""Per-layer spans for one hopflab CLI command, recorded from outside the program.

    python perfbench/tracer.py SPANS.json check|solve|verify --config C --out D

wraps the public functions of each hopflab layer (and scipy's `splu`) with
span recorders, runs `hopflab.cli.main` on the remaining arguments, writes
the spans as JSON and exits with the command's exit code. Spans stay in
memory until the command ends. `layer_metrics` turns one command's spans
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# "<module>.<function>" of each hopflab function wrapped in a span of that name
FUNCTIONS = (
    "cli.main", "orlicz.check_conditions", "orlicz.check_condition_R",
    "geometry.make_annulus", "geometry.make_rings", "geometry.make_ring",
    "geometry.dini_report", "geometry.build_dini_cap", "solver.solve_harmonic",
    "solver.solve_h_potential", "solver.level_diagnostics", "solver.gradient_bounds",
    "solver.operator_residual", "barrier.zeta_from_field", "barrier.zeta_from_modulus",
    "barrier.tune_m", "barrier.build_barrier", "barrier.verify_subsolution",
    "hopf.hopf_constant", "hopf.comparison_check", "hopf.discretization_benchmark",
    "hopf.outer_lipschitz_check", "gridio.write_grid_file", "gridio.read_grid_file",
)


class Tracer:
    """Records (name, start, end, parent) spans; parents follow the call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, file_arg: bool = False):
        """fn wrapped in a span; file_arg records the size of the file named
        by the first argument once the call returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if file_arg:
                span["bytes"] = os.path.getsize(args[0])
            return result
        return traced


class _TracedLU:
    """A SuperLU factor whose solve calls are spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer):
    """Wrap every binding the program calls through, in every hopflab module."""
    import importlib

    import scipy.sparse.linalg as spla

    layers = sorted({name.split(".")[0] for name in FUNCTIONS})
    mods = [importlib.import_module(f"hopflab.{m}") for m in layers]
    mods.append(importlib.import_module("hopflab"))
    for name in FUNCTIONS:
        mod, attr = name.split(".")
        orig = getattr(importlib.import_module(f"hopflab.{mod}"), attr)
        traced = tracer.wrap(name, orig, file_arg=mod == "gridio")
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)

    geometry = importlib.import_module("hopflab.geometry")
    for cls in vars(geometry).values():
        if isinstance(cls, type) and issubclass(cls, geometry.ConvexDomain):
            for meth in ("level", "boundary"):
                if meth in vars(cls):
                    setattr(cls, meth, tracer.wrap(f"geometry.{meth}", vars(cls)[meth]))
    ring = geometry.ConvexRing
    ring.sdf = tracer.wrap("geometry.sdf", ring.sdf)

    splu = spla.splu

    def traced_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        return _TracedLU(lu, tracer.wrap("solver.lu_solve", lu.solve))
    spla.splu = tracer.wrap("solver.splu", traced_splu)


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def _dur(s):
    return s["end"] - s["start"]


def _outermost(spans, names):
    """Spans named in `names` that have no ancestor named in `names`."""
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] not in names:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def _busy(spans, *names):
    top = _outermost(spans, set(names))
    return len(top), sum(_dur(s) for s in top)


def _self_time(spans, names):
    """Sum over spans named in `names` of duration minus direct children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + _dur(s)
    return sum(_dur(s) - child.get(i, 0.0)
               for i, s in enumerate(spans) if s["name"] in names)


def _inside(spans, names, ancestors):
    """Total duration of spans in `names` below a span in `ancestors`."""
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] not in ancestors:
            p = spans[p]["parent"]
        if p is not None:
            total += _dur(s)
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced command, keyed "<layer>.<metric>"."""
    m = {}
    m["cli.main_s"] = _busy(spans, "cli.main")[1]
    m["cli.self_s"] = _self_time(spans, {"cli.main"})
    m["orlicz.conditions_s"] = _busy(spans, "orlicz.check_conditions",
                                     "orlicz.check_condition_R")[1]
    m["geometry.ring_builds"] = _busy(spans, "geometry.make_ring")[0]
    m["geometry.ring_build_s"] = _busy(spans, "geometry.make_annulus", "geometry.make_rings",
                                       "geometry.make_ring")[1]
    m["geometry.make_ring_self_s"] = _self_time(spans, {"geometry.make_ring"})
    m["geometry.level_calls"], m["geometry.level_s"] = _busy(spans, "geometry.level")
    m["geometry.boundary_s"] = _busy(spans, "geometry.boundary")[1]
    m["geometry.sdf_s"] = _busy(spans, "geometry.sdf")[1]
    m["geometry.dini_s"] = _busy(spans, "geometry.dini_report", "geometry.build_dini_cap")[1]
    m["solver.potential_s"] = _busy(spans, "solver.solve_h_potential")[1]
    m["solver.harmonic_solves"], m["solver.harmonic_s"] = _busy(spans, "solver.solve_harmonic")
    m["solver.lu_count"], m["solver.lu_s"] = _busy(spans, "solver.splu")
    m["solver.lu_solve_s"] = _busy(spans, "solver.lu_solve")[1]
    m["solver.newton_self_s"] = m["solver.potential_s"] - _inside(
        spans, {"solver.splu", "solver.lu_solve"}, {"solver.solve_h_potential"})
    m["solver.diag_s"] = _busy(spans, "solver.level_diagnostics")[1]
    m["solver.gradient_bounds_s"] = _busy(spans, "solver.gradient_bounds")[1]
    m["solver.residual_calls"], m["solver.residual_s"] = _busy(spans, "solver.operator_residual")
    m["barrier.zeta_s"] = _busy(spans, "barrier.zeta_from_field", "barrier.zeta_from_modulus")[1]
    m["barrier.tune_s"] = _busy(spans, "barrier.tune_m")[1]
    m["barrier.build_calls"] = _busy(spans, "barrier.build_barrier")[0]
    m["barrier.verify_s"] = _busy(spans, "barrier.verify_subsolution")[1]
    m["hopf.hopf_s"] = _busy(spans, "hopf.hopf_constant")[1]
    m["hopf.comparison_s"] = _busy(spans, "hopf.comparison_check")[1]
    m["hopf.tol_benchmark_s"] = _busy(spans, "hopf.discretization_benchmark")[1]
    m["hopf.lipschitz_s"] = _busy(spans, "hopf.outer_lipschitz_check")[1]
    for kind, size in (("write", "bytes_written"), ("read", "bytes_read")):
        top = _outermost(spans, {f"gridio.{kind}_grid_file"})
        m[f"gridio.{kind}_s"] = sum(_dur(s) for s in top)
        m[f"gridio.{size}"] = sum(s.get("bytes", 0) for s in top)
    return m


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import hopflab.cli

    tracer = Tracer(run_id=f"{cli_args[0]}:{os.getpid()}")
    install(tracer)
    try:
        code = hopflab.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
