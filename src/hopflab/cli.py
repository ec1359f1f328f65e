"""Batch front-end: check -> solve -> verify pipelines driven by a config file.

Exit codes: 0 ok, 1 usage/config/missing artifacts, 2 verification failure,
3 solver non-convergence. All emitted files use full round-trip float
precision and contain no timestamps, so identical configs reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import barrier as barrier_mod
from . import geometry, gridio, hopf, orlicz, solver
from .errors import (ConfigError, HopflabError, MissingArtifact, NonMonotone,
                     NotIntegrable, OutOfRange)


@dataclass
class RunConfig:
    function_kind: str = "power"
    p: float = 2.0
    t_max: float | None = None
    table_path: str | None = None
    modulus_kind: str = "power"
    modulus_a: float = 0.5
    modulus_q: float = 1.0
    modulus_t_cap: float | None = None
    geometry_kind: str = "annulus"
    r1: float = 1.0
    r2: float = 2.0
    r_d: float = 0.25
    ring_side: str = "inner"
    resolution: int = 129
    extent: float | None = None
    delta_schedule: tuple = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    tol: float = 1e-8
    max_iter: int = 60
    zeta_source: str = "field"
    c_d: float = 1.0
    target: str = "min_inner_u"
    alpha: str = "auto"
    beta: str = "auto"
    hopf_point: tuple | None = None
    hopf_radii: tuple | None = None


def _numbers(text):
    """Numbers separated by whitespace; None (keep the default) when empty."""
    return tuple(float(x) for x in text.split()) or None


def _whole(text):
    """A whole number: 257 and 257.0 parse, 100.7 is refused."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


# every config key: (section, key) -> (RunConfig field, reader of its text);
# keys are read in this order, and anything else in the file is refused
_KEYS = {
    ("function", "kind"): ("function_kind", str),
    ("function", "p"): ("p", float),
    ("function", "t_max"): ("t_max", float),
    ("function", "table"): ("table_path", str),
    ("modulus", "kind"): ("modulus_kind", str),
    ("modulus", "a"): ("modulus_a", float),
    ("modulus", "q"): ("modulus_q", float),
    ("modulus", "t_cap"): ("modulus_t_cap", float),
    ("geometry", "kind"): ("geometry_kind", str),
    ("geometry", "r1"): ("r1", float),
    ("geometry", "r2"): ("r2", float),
    ("geometry", "r_d"): ("r_d", float),
    ("geometry", "ring"): ("ring_side", str),
    ("grid", "resolution"): ("resolution", _whole),
    ("grid", "extent"): ("extent", float),
    ("solver", "delta_schedule"): ("delta_schedule", _numbers),
    ("solver", "tol"): ("tol", float),
    ("solver", "max_iter"): ("max_iter", _whole),
    ("barrier", "zeta"): ("zeta_source", str),
    ("barrier", "c_d"): ("c_d", float),
    ("barrier", "target"): ("target", str),
    ("barrier", "alpha"): ("alpha", str),
    ("barrier", "beta"): ("beta", str),
    ("hopf", "point"): ("hopf_point", _numbers),
    ("hopf", "radii"): ("hopf_radii", _numbers),
}


def parse_config(path, grid_override=None, p_override=None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        for (sec, key), (name, read) in _KEYS.items():
            if parser.has_option(sec, key):
                try:
                    value = read(parser.get(sec, key).strip())
                except ValueError as exc:
                    raise ConfigError(f"[{sec}] {key}: {exc}") from exc
                if value is not None:
                    setattr(cfg, name, value)
        known = {sec for sec, _ in _KEYS}
        for sec in parser.sections():
            if sec not in known:
                raise ConfigError(f"unknown config section [{sec}]")
        for sec in parser:       # [DEFAULT] first; its keys reach every section
            for key in parser[sec]:
                if (sec, key) not in _KEYS:
                    raise ConfigError(f"unknown config key [{sec}] {key}")

    if grid_override is not None:
        cfg.resolution = int(grid_override)
    if p_override is not None:
        cfg.p = float(p_override)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.resolution < 33:
        raise ConfigError("grid resolution must be at least 33")
    if cfg.function_kind not in ("power", "custom"):
        raise ConfigError(f"unknown function kind {cfg.function_kind!r}")
    if cfg.function_kind == "custom":
        if not cfg.table_path:
            raise ConfigError("custom function needs a table path")
        if not Path(cfg.table_path).exists():
            raise ConfigError(f"table file {cfg.table_path!r} does not exist")
    if cfg.geometry_kind not in ("annulus", "dini_cap"):
        raise ConfigError(f"unknown geometry {cfg.geometry_kind!r}")
    if cfg.modulus_kind not in ("power", "logpower"):
        raise ConfigError(f"unknown modulus {cfg.modulus_kind!r}")
    if cfg.ring_side not in ("inner", "outer"):
        raise ConfigError(f"ring must be inner or outer, got {cfg.ring_side!r}")
    try:
        _solve_options(cfg)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc
    if cfg.hopf_point is not None and not (len(cfg.hopf_point) == 2
                                           and np.all(np.isfinite(cfg.hopf_point))):
        raise ConfigError(f"[hopf] point: need two finite numbers, got {cfg.hopf_point!r}")
    if cfg.hopf_radii is not None and not all(r > 0 for r in cfg.hopf_radii):
        raise ConfigError(f"[hopf] radii: need positive numbers, got {cfg.hopf_radii!r}")
    if cfg.zeta_source not in ("field", "modulus"):
        raise ConfigError(f"[barrier] zeta: need field or modulus, got {cfg.zeta_source!r}")
    for key, word in (("alpha", "auto"), ("beta", "auto"), ("target", "min_inner_u")):
        text = getattr(cfg, key)
        if text != word and not _positive_number(text):
            raise ConfigError(f"[barrier] {key}: need {word} or a positive finite "
                              f"number, got {text!r}")
    if not _positive_number(cfg.c_d):
        raise ConfigError(f"[barrier] c_d: need a positive finite number, got {cfg.c_d!r}")
    _checked("function", _build_function, cfg)
    eps = _checked("modulus", _build_modulus, cfg)
    if cfg.geometry_kind == "dini_cap":
        if not 0 < cfg.r_d <= eps.t_cap:
            raise ConfigError(f"[geometry] r_d: need 0 < r_d <= t_cap = {eps.t_cap!r}, "
                              f"got {cfg.r_d!r}")
    elif not 0 < cfg.r1 < cfg.r2 < math.inf:
        raise ConfigError(f"[geometry] r1 {cfg.r1!r} and r2 {cfg.r2!r}: "
                          f"need 0 < r1 < r2, both finite")
    elif cfg.extent is not None and not cfg.r2 <= cfg.extent < math.inf:
        raise ConfigError(f"[grid] extent: need a finite extent >= r2 = {cfg.r2!r}, "
                          f"got {cfg.extent!r}")


def _checked(section: str, build, cfg: RunConfig):
    """build(cfg), with an OutOfRange or NonMonotone from the built object's
    own checks turned into a ConfigError naming the section."""
    try:
        return build(cfg)
    except (OutOfRange, NonMonotone) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _positive_number(text) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value > 0


# --------------------------------------------------------------------------
# shared construction
# --------------------------------------------------------------------------

def _build_function(cfg: RunConfig) -> orlicz.OrliczFunction:
    if cfg.function_kind == "power":
        return orlicz.power(cfg.p, t_max=1e6 if cfg.t_max is None else cfg.t_max)
    ts, hs = _law_table(cfg.table_path)
    return orlicz.custom(table=(ts, hs), t_max=cfg.t_max)


def _law_table(path):
    """The (t, h) columns of a custom law's table: a header line, then one
    row per line of at least two comma-separated cells, the first two finite
    numbers; a ConfigError naming `[function] table` (and the line) if not."""
    lines = Path(path).read_text().splitlines()
    rows = [(k, line.split(",")) for k, line in enumerate(lines[1:], start=2) if line]
    if not rows:
        raise ConfigError(f"[function] table: {path} has no rows below a header line")
    ts, hs = [], []
    for k, cells in rows:
        if len(cells) < 2:
            raise ConfigError(f"[function] table: line {k} of {path}: need two cells "
                              f"t,h, got {len(cells)}")
        for column, text in zip((ts, hs), cells):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(f"[function] table: line {k} of {path}: "
                                  f"{text.strip()!r} is not a finite number")
            column.append(value)
    return np.array(ts), np.array(hs)


def _build_modulus(cfg: RunConfig) -> geometry.DiniModulus:
    t_cap = cfg.modulus_t_cap
    if cfg.modulus_kind == "power":
        return geometry.PowerModulus(cfg.modulus_a, t_cap=1.0 if t_cap is None else t_cap)
    return geometry.LogPowerModulus(cfg.modulus_q, t_cap=0.5 if t_cap is None else t_cap)


def _build_ring(cfg: RunConfig) -> geometry.ConvexRing:
    if cfg.geometry_kind == "annulus":
        return geometry.make_annulus(cfg.r1, cfg.r2, resolution=cfg.resolution,
                                     extent=cfg.extent)
    eps = _build_modulus(cfg)
    cap = geometry.build_dini_cap(cfg.r_d, eps)
    return geometry.make_cap_ring(cap, cfg.ring_side, resolution=cfg.resolution)


def _solve_options(cfg: RunConfig) -> solver.SolveOptions:
    return solver.SolveOptions(delta_schedule=cfg.delta_schedule, tol=cfg.tol,
                               max_iter=cfg.max_iter)


def _hopf_defaults(cfg: RunConfig):
    if cfg.geometry_kind == "annulus":
        point = cfg.hopf_point or (cfg.r2, 0.0)
        radii = cfg.hopf_radii or (0.2 * cfg.r2, 0.1 * cfg.r2, 0.05 * cfg.r2,
                                   0.025 * cfg.r2)
    else:
        point = cfg.hopf_point or (0.0, 0.0)
        radii = cfg.hopf_radii or (0.4 * cfg.r_d, 0.2 * cfg.r_d, 0.1 * cfg.r_d)
    return point, radii


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    of = _build_function(cfg)
    p_guess = cfg.p if cfg.function_kind == "power" else 2.0
    reports = orlicz.check_conditions(of, p_guess)
    coer = next(r for r in reports if r.condition_id == "Coercivity")
    c_lo = max(coer.constants.get("c", 0.5), 1e-6)
    c_hi = max(coer.constants.get("C", 2.0), 2 * c_lo)
    samples = [orlicz.WeightSample.constant(c_lo),
               orlicz.WeightSample.constant(c_hi),
               orlicz.WeightSample.ramp(c_lo, c_hi, (0.05, 5.0))]
    reports.append(orlicz.check_condition_R(of, samples, (0.05, 5.0)))

    eps = _build_modulus(cfg)
    dini = geometry.dini_report(eps, min(1.0, eps.t_cap))

    (out / "conditions.txt").write_text("".join(r.to_text() for r in reports))
    (out / "dini_report.txt").write_text(dini.to_text())
    ok = all(r.passed for r in reports) and dini.converges and dini.convex_dini
    print(f"check: {'pass' if ok else 'FAIL'} "
          f"({sum(r.passed for r in reports)}/{len(reports)} conditions, "
          f"dini converges={dini.converges})")
    return 0 if ok else 2


def cmd_solve(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    of = _build_function(cfg)
    ring = _build_ring(cfg)
    opts = _solve_options(cfg)
    outer_data = 0.0 if cfg.ring_side == "inner" or cfg.geometry_kind == "annulus" \
        else 1.0
    inner_data = 1.0 - outer_data
    w = solver.solve_harmonic(ring, opts, inner_value=1.0, outer_value=0.0)
    u = solver.solve_h_potential(ring, of, opts, inner_value=inner_data,
                                 outer_value=outer_data)

    gridio.write_grid_file(out / "harmonic.grid", ring.grid, w.values, w.mask)
    gridio.write_grid_file(out / "potential.grid", ring.grid, u.values, u.mask)
    gridio.write_table(out / "convergence.csv",
                       ["iteration", "delta", "energy", "residual"],
                       [(i, d, e, r) for (i, d, e, r) in u.meta["log"]])
    gb = solver.gradient_bounds(w)
    lines = ["solve report",
             ring.descriptor().rstrip(),
             f"harmonic_residual {w.meta['residual']!r}",
             f"potential_residual {u.meta['residual']!r}",
             f"potential_energy {u.meta['energy']!r}",
             f"converged {u.meta['converged']}",
             f"gradient_c {gb.c!r}",
             f"gradient_C {gb.C!r}",
             f"inner_value {u.meta['inner_value']!r}",
             f"outer_value {u.meta['outer_value']!r}",
             f"delta_final {u.meta['delta_final']!r}",
             "levels " + " ".join(f"{n}:{k}" for n, k, _, _ in u.meta["levels"]),
             "linear " + " ".join(f"{n}:{f}:{m}" for n, _, f, m in u.meta["levels"])]
    (out / "solve_report.txt").write_text("\n".join(lines) + "\n")
    print(f"solve: converged={u.meta['converged']} "
          f"residual={u.meta['residual']:.3e}")
    return 0 if u.meta["converged"] and w.meta["converged"] else 3


_SOLVED_KEYS = ("inner_value", "outer_value", "delta_final")


def _read_solved(out: Path, name: str, ring: geometry.ConvexRing) -> solver.ScalarField:
    """A field written by solve on this ring (its grid and node mask), with
    the boundary data and final delta of its solve_report.txt."""
    path = out / name
    rep = out / "solve_report.txt"
    for need in (path, rep):
        if not need.exists():
            raise MissingArtifact(f"{need} not found; run solve first")
    try:
        grid, values, mask = gridio.read_grid_file(path)
    except ValueError as exc:
        raise MissingArtifact(f"{exc}; run solve again") from None
    if mask is None:
        raise MissingArtifact(f"{path} has no mask block; run solve again")
    if (grid.nx, grid.ny) != (ring.grid.nx, ring.grid.ny):
        raise MissingArtifact(f"{path} was produced on a different grid")
    if not np.array_equal(mask, ring.mask):
        raise MissingArtifact(f"{path} was produced on a different ring")
    meta = {}
    for number, line in enumerate(rep.read_text().splitlines(), 1):
        parts = line.split()
        if len(parts) == 2 and parts[0] in _SOLVED_KEYS:
            try:
                meta[parts[0]] = float(parts[1])
            except ValueError:
                raise MissingArtifact(f"{rep} line {number} is not a number: {line!r}; "
                                      "run solve again") from None
    missing = [key for key in _SOLVED_KEYS if key not in meta]
    if missing:
        raise MissingArtifact(f"{rep} has no {' / '.join(missing)} line; run solve again")
    return solver.ScalarField(ring.grid, values, mask, ring, meta)


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    of = _build_function(cfg)
    ring = _build_ring(cfg)
    w = _read_solved(out, "harmonic.grid", ring)
    u = _read_solved(out, "potential.grid", ring)
    w.meta["inner_value"], w.meta["outer_value"] = 1.0, 0.0
    w.meta["delta_final"] = 0.0

    diag = solver.level_diagnostics(w)
    C_meas = float(np.max(diag.grad_norm[diag.trusted]))

    if cfg.zeta_source == "modulus":
        gb = solver.gradient_bounds(w)
        zeta = barrier_mod.zeta_from_modulus(_build_modulus(cfg), gb.c, gb.C, cfg.c_d)
    else:
        zeta = barrier_mod.zeta_from_field(w, diag=diag)

    alpha = 1.0 if cfg.alpha == "auto" else float(cfg.alpha)
    beta = C_meas if cfg.beta == "auto" else float(cfg.beta)
    outer_mode = cfg.geometry_kind == "dini_cap" and cfg.ring_side == "outer"
    if cfg.target != "min_inner_u":
        target = float(cfg.target)
    elif outer_mode:
        # super-solution barrier: its top value must dominate the outer data
        target = float(u.meta["outer_value"]) * (1 + 1e-5)
    else:
        target = float(u.meta["inner_value"])

    prof = barrier_mod.tune_m(of, zeta, alpha, beta, target)
    sub = barrier_mod.verify_subsolution(w, prof, of, zeta=zeta, diag=diag)
    point, radii = _hopf_defaults(cfg)
    hopf_rep = hopf.hopf_constant(u, point, radii)

    out.mkdir(parents=True, exist_ok=True)
    if outer_mode:
        cmp_rep = hopf.outer_lipschitz_check(u, ring, of, cfg.r_d, y=(0.0, 0.0),
                                             barrier=(w, prof))
        (out / "lipschitz.txt").write_text(cmp_rep.to_text())
    else:
        v = barrier_mod.compose_barrier(w, prof)
        cmp_rep = hopf.comparison_check(u, v, of)
        (out / "comparison.txt").write_text(cmp_rep.to_text())
    (out / "barrier.csv").write_text(prof.to_table())
    (out / "zeta.txt").write_text(zeta.to_text())
    (out / "subsolution.txt").write_text(sub.to_text())
    (out / "hopf.txt").write_text(hopf_rep.to_text())
    gridio.write_table(out / "hopf_radii.csv", ["radius", "ratio"],
                       hopf_rep.table_rows())
    ok = sub.all_pass and cmp_rep.passed and hopf_rep.passed
    summary = [f"verify pass {ok}",
               f"subsolution {sub.all_pass}",
               f"comparison {cmp_rep.passed}",
               f"hopf {hopf_rep.passed}",
               f"alpha {alpha!r}", f"beta {beta!r}",
               f"f1 {prof.f1!r}", f"m {prof.m!r}"]
    (out / "verify_summary.txt").write_text("\n".join(summary) + "\n")
    print(f"verify: {'pass' if ok else 'FAIL'} (subsolution={sub.all_pass} "
          f"comparison={cmp_rep.passed} hopf={hopf_rep.passed})")
    return 0 if ok else 2


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = _Parser(prog="hopflab",
                     description="H-potential laboratory pipelines")
    parser.add_argument("command", choices=["check", "solve", "verify"])
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--out", type=str, required=True)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--p", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, grid_override=args.grid, p_override=args.p)
        out = Path(args.out)
        if args.command == "check":
            return cmd_check(cfg, out)
        if args.command == "solve":
            return cmd_solve(cfg, out)
        return cmd_verify(cfg, out)
    except (ConfigError, MissingArtifact) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotIntegrable as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except HopflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
