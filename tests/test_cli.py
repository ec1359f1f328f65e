import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hopflab import PowerModulus, build_dini_cap, geometry, make_rings, solver
from hopflab.cli import _build_ring, _read_solved, main, parse_config


def write_config(path, text):
    Path(path).write_text(text)
    return str(path)


ANNULUS_65 = """
[function]
kind = power
p = 3.0

[geometry]
kind = annulus
r1 = 1.0
r2 = 2.0

[grid]
resolution = 65

[hopf]
point = 2.0 0.0
radii = 0.4 0.25
"""

CAP_97 = """
[function]
kind = power
p = 3.0

[modulus]
kind = power
a = 0.5

[geometry]
kind = dini_cap
r_d = 0.25
ring = inner

[grid]
resolution = 97
"""


def test_check_power_passes(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "conditions.txt").exists()
    assert (tmp_path / "out" / "dini_report.txt").exists()


def test_check_minimal_surface_fails(tmp_path):
    ts = np.linspace(0.0, 100.0, 2001)
    hs = ts / np.sqrt(1 + ts ** 2)
    table = tmp_path / "minsurf.csv"
    lines = ["t,h"] + [f"{float(t)!r},{float(h)!r}" for t, h in zip(ts, hs)]
    table.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "run.ini", f"""
[function]
kind = custom
table = {table}
""")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    text = (tmp_path / "out" / "conditions.txt").read_text()
    assert "condition Coercivity\npass False" in text


def test_check_custom_law_reads_p(tmp_path):
    # the table of h = t^2 is the p = 3 law, so it is coercive against p = 3
    ts = np.linspace(0.0, 50.0, 2001)
    table = tmp_path / "law.csv"
    table.write_text("t,h\n" + "".join(f"{t!r},{t * t!r}\n" for t in ts.tolist()))
    cfg = write_config(tmp_path / "run.ini", f"""
[function]
kind = custom
table = {table}
p = 3.0
""")
    main(["check", "--config", cfg, "--out", str(tmp_path / "out")])
    text = (tmp_path / "out" / "conditions.txt").read_text()
    coercivity = text.split("condition Coercivity\n")[1].split("condition ")[0]
    assert coercivity.startswith("pass True\n") and "constant p 3.0\n" in coercivity


def test_check_missing_table_exit_1(tmp_path):
    cfg = write_config(tmp_path / "run.ini", """
[function]
kind = custom
table = /nonexistent/table.csv
""")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_custom_law_t_max_above_table_exit_1(tmp_path, capsys):
    ts = np.geomspace(1e-3, 100.0, 200)
    table = tmp_path / "law.csv"
    table.write_text("t,h\n" + "".join(f"{t!r},{2 * t!r}\n" for t in ts.tolist()))
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65.replace(
        "kind = power\np = 3.0", f"kind = custom\ntable = {table}\nt_max = 1000"))
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "[function] t_max" in err and "np.float64" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("text, words", [
    ("", "has no rows below a header line"),
    ("t,h\n", "has no rows below a header line"),
    ("t,h\n0.5,1.0\n1.0\n", "line 3 of"),
    ("t,h\n0.5,1.0\n1.0,two\n", "line 3 of"),
    ("t,h\n0.5,nan\n", "line 2 of"),
    ("t,h\n0.5,1.0\n1.0,0.5\n", "must increase"),
], ids=["empty", "header_only", "one_cell", "not_a_number", "not_finite", "decreasing"])
def test_malformed_law_table_exit_1(tmp_path, capsys, command, text, words):
    table = tmp_path / "law.csv"
    table.write_text(text)
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65.replace(
        "kind = power\np = 3.0", f"kind = custom\ntable = {table}"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [function] table") and words in err
    assert not (tmp_path / "out").exists()


def test_bad_resolution_exit_1(tmp_path):
    cfg = write_config(tmp_path / "run.ini", "[grid]\nresolution = 9\n")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--out", "/tmp/x"])
    assert exc.value.code == 1


def test_solve_and_verify_annulus(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    for name in ("potential.grid", "harmonic.grid", "convergence.csv",
                 "solve_report.txt"):
        assert (tmp_path / "out" / name).exists()
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    for name in ("barrier.csv", "subsolution.txt", "comparison.txt",
                 "hopf.txt", "hopf_radii.csv", "verify_summary.txt"):
        assert (tmp_path / "out" / name).exists()


def test_solve_report_linear_line(tmp_path):
    # 257 annulus: the half grid runs all six stages, this grid the last two.
    # Each grid factorises once, for its first Newton step: the half grid
    # that step's Jacobian, this grid the Galerkin operator of that Jacobian
    # on the half grid. The factor preconditions GMRES on every step of its
    # grid, the first too, on this grid inside the two-level cycle
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65.replace(
        "resolution = 65", "resolution = 257"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "solve_report.txt").read_text().splitlines()
    levels = [line.split()[1:] for line in report if line.startswith("levels ")][0]
    linear = [line.split()[1:] for line in report if line.startswith("linear ")][0]
    assert [lv.split(":")[0] for lv in levels] == ["129", "257"]
    for lv, lin, stages in zip(levels, linear, (6, 2)):
        n, logged = map(int, lv.split(":"))
        n_lin, factorised, krylov = map(int, lin.split(":"))
        reused = logged - stages - 1
        assert (n_lin, factorised) == (n, 1)
        assert reused + 1 <= krylov <= (reused + solver.KRYLOV_CYCLES) * solver.KRYLOV_MAX
    ring = _build_ring(parse_config(cfg))
    meta = _read_solved(out, "potential.grid", ring).meta
    assert set(meta) == {"inner_value", "outer_value", "delta_final"}


def test_verify_before_solve_exit_1(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "empty")]) == 1


@pytest.mark.parametrize("text", [ANNULUS_65, CAP_97.replace("ring = inner", "ring = outer")],
                         ids=["annulus", "cap_outer"])
def test_verify_needs_the_solve_report(tmp_path, capsys, text):
    cfg = write_config(tmp_path / "run.ini", text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = out / "solve_report.txt"
    lines = report.read_text().splitlines()
    report.unlink()
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert "solve_report.txt not found" in capsys.readouterr().err
    for key in ("inner_value", "outer_value", "delta_final"):
        report.write_text("".join(f"{line}\n" for line in lines
                                  if not line.startswith(key + " ")))
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        assert f"no {key} line" in capsys.readouterr().err
    assert not (out / "verify_summary.txt").exists()


@pytest.fixture(scope="module")
def solved65(tmp_path_factory):
    """A config and the out directory of one solve of the 65 annulus."""
    root = tmp_path_factory.mktemp("solved65")
    cfg = write_config(root / "run.ini", ANNULUS_65)
    assert main(["solve", "--config", cfg, "--out", str(root / "out")]) == 0
    return cfg, root / "out"


def _non_number(text):
    lines = text.splitlines(keepends=True)
    row = lines[10].split(" ")
    lines[10] = " ".join(row[:3] + ["x"] + row[4:])
    return "".join(lines)


def _no_mask(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:5] + ["blocks values\n"] + lines[6:6 + 65])


def _bad_report_value(text):
    return "".join("delta_final abc\n" if line.startswith("delta_final ") else line
                   for line in text.splitlines(keepends=True))


@pytest.mark.parametrize("name, damage, words", [
    ("harmonic.grid", lambda text: text[:300], "harmonic.grid: the values block is not"),
    ("harmonic.grid", lambda text: text[:30], "harmonic.grid has a malformed header"),
    ("potential.grid", lambda text: "garbage\n", "potential.grid is not a grid file"),
    ("potential.grid", _non_number, "potential.grid: the values block is not 65 rows"),
    ("potential.grid", _no_mask, "potential.grid has no mask block"),
    ("solve_report.txt", _bad_report_value, "solve_report.txt line"),
], ids=["cut_harmonic", "cut_header", "garbage_potential", "non_number_cell", "no_mask",
        "report_value"])
def test_verify_damaged_artifact_exit_1(solved65, tmp_path, capsys, name, damage, words):
    cfg, solved = solved65
    out = tmp_path / "out"
    shutil.copytree(solved, out)
    (out / name).write_text(damage((out / name).read_text()))
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err and "Traceback" not in err
    assert not (out / "verify_summary.txt").exists()


def test_verify_on_another_grid_exit_1(solved65, tmp_path, capsys):
    cfg, solved = solved65
    out = tmp_path / "out"
    shutil.copytree(solved, out)
    assert main(["verify", "--config", cfg, "--out", str(out), "--grid", "67"]) == 1
    assert "produced on a different grid" in capsys.readouterr().err
    assert not (out / "verify_summary.txt").exists()


def test_verify_on_another_ring_exit_1(solved65, tmp_path, capsys):
    # the same grid with another inner radius: only the node mask differs
    _, solved = solved65
    out = tmp_path / "out"
    shutil.copytree(solved, out)
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65.replace("r1 = 1.0", "r1 = 1.1"))
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert "produced on a different ring" in capsys.readouterr().err
    assert not (out / "verify_summary.txt").exists()


def test_solve_max_iter_one_exit_3(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65 + """
[solver]
max_iter = 1
""")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 3
    assert (tmp_path / "out" / "potential.grid").exists()


def test_solve_stall_exit_3_writes_last_iterate(tmp_path):
    # a tolerance below the rounding floor stalls the line search; the stall
    # is recorded, not raised
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65 + """
[solver]
tol = 1e-16
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert (out / "potential.grid").exists()
    assert "converged False" in (out / "solve_report.txt").read_text().splitlines()


@pytest.mark.parametrize("text, named", [
    ("[solver]\ntoll = 1e-3\n", "[solver] toll"),
    ("[solvr]\ntol = 1e-3\n", "[solvr]"),
    ("[solvr]\n", "[solvr]"),
    ("[run]\nseed = 7\n", "unknown config section [run]"),
], ids=["key", "section", "empty_section", "run_seed"])
def test_unknown_config_entry_exit_1(tmp_path, capsys, text, named):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65 + text)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, named", [
    (ANNULUS_65.replace("resolution = 65", "resolution = 100.7"), "[grid] resolution"),
    (ANNULUS_65 + "[solver]\nmax_iter = 2.9\n", "[solver] max_iter"),
], ids=["resolution", "max_iter"])
def test_fractional_count_exit_1(tmp_path, capsys, text, named):
    cfg = write_config(tmp_path / "run.ini", text)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, named", [
    (ANNULUS_65 + "[solver]\ndelta_schedule = 1e-1 1e-9\n", "[solver] delta_schedule"),
    (ANNULUS_65 + "[solver]\ndelta_schedule = 1e-1 1e-2 x\n", "[solver] delta_schedule"),
    (ANNULUS_65 + "[solver]\ndelta_schedule = 1e-2 1e-1\n", "[solver] delta_schedule"),
    (ANNULUS_65 + "[solver]\ndelta_schedule = 1e-1 nan\n", "[solver] delta_schedule"),
    (ANNULUS_65 + "[solver]\ntol = -1\n", "[solver] tol"),
    (ANNULUS_65 + "[solver]\nmax_iter = 0\n", "[solver] max_iter"),
    (ANNULUS_65.replace("point = 2.0 0.0", "point = 2.0 zero"), "[hopf] point"),
    (ANNULUS_65.replace("radii = 0.4 0.25", "radii = 0.4 0,25"), "[hopf] radii"),
    (ANNULUS_65.replace("point = 2.0 0.0", "point = 2.0"), "[hopf] point"),
    (ANNULUS_65.replace("radii = 0.4 0.25", "radii = 0.4 -0.25"), "[hopf] radii"),
    (ANNULUS_65 + "[barrier]\nalpha = abc\n", "[barrier] alpha"),
    (ANNULUS_65 + "[barrier]\nalpha = 0\n", "[barrier] alpha"),
    (ANNULUS_65 + "[barrier]\nbeta = -1\n", "[barrier] beta"),
    (ANNULUS_65 + "[barrier]\nbeta = inf\n", "[barrier] beta"),
    (ANNULUS_65 + "[barrier]\ntarget = xyz\n", "[barrier] target"),
    (ANNULUS_65 + "[barrier]\ntarget = nan\n", "[barrier] target"),
    (ANNULUS_65 + "[barrier]\nzeta = feild\n", "[barrier] zeta"),
    (ANNULUS_65 + "[barrier]\nc_d = 0\n", "[barrier] c_d"),
    (ANNULUS_65 + "[barrier]\nc_d = -2\n", "[barrier] c_d"),
    (ANNULUS_65.replace("p = 3.0", "p = 3.0\nt_max = 0"), "[function] t_max"),
    (ANNULUS_65.replace("p = 3.0", "p = 3.0\nt_max = -5"), "[function] t_max"),
    (ANNULUS_65.replace("p = 3.0", "p = 0.5"), "[function] p"),
    (ANNULUS_65 + "[modulus]\nt_cap = 0\n", "[modulus] t_cap"),
    (ANNULUS_65 + "[modulus]\na = 2\n", "[modulus] a"),
    (ANNULUS_65 + "[modulus]\nkind = logpower\nq = 0\n", "[modulus] q"),
    (ANNULUS_65.replace("r1 = 1.0", "r1 = 3.0"), "[geometry] r1"),
    (ANNULUS_65.replace("resolution = 65", "resolution = 65\nextent = -1"),
     "[grid] extent"),
    (ANNULUS_65.replace("resolution = 65", "resolution = 65\nextent = 1.5"),
     "[grid] extent"),
    (CAP_97.replace("a = 0.5", "a = 0.5\nt_cap = 0.2"), "[geometry] r_d"),
    (CAP_97.replace("r_d = 0.25", "r_d = 0"), "[geometry] r_d"),
    ("[function\nkind = power\n", "cannot parse"),
    (ANNULUS_65.replace("kind = power", "kind = powr"), "unknown function kind 'powr'"),
    (ANNULUS_65.replace("kind = annulus", "kind = square"), "unknown geometry 'square'"),
    (CAP_97.replace("kind = power\na", "kind = holder\na"), "unknown modulus 'holder'"),
    (CAP_97.replace("ring = inner", "ring = middle"), "ring must be inner or outer"),
    (ANNULUS_65.replace("kind = power", "kind = custom"), "custom function needs a table"),
], ids=["delta_below_1e-8", "delta_token", "delta_increasing", "delta_nan",
        "tol", "max_iter", "point_token", "radii_token", "point_one_number",
        "radii_negative", "alpha_token", "alpha_zero", "beta_negative", "beta_inf",
        "target_token", "target_nan", "zeta_typo", "c_d_zero", "c_d_negative",
        "t_max_zero", "t_max_negative", "p_below_1", "t_cap_zero", "a_above_1",
        "q_zero", "r1_above_r2", "extent_negative", "extent_cuts_ring",
        "r_d_above_t_cap", "r_d_zero", "unparsable", "function_kind", "geometry_kind",
        "modulus_kind", "ring_middle", "custom_without_table"])
def test_bad_value_exit_1_before_any_work(tmp_path, capsys, text, named):
    cfg = write_config(tmp_path / "run.ini", text)
    for command in ("check", "solve"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, named", [
    (["--config", "missing.ini"], "missing.ini does not exist"),
    (["--config", "run.ini", "--p", "0.5"], "[function] p"),
], ids=["missing_config", "p_flag_below_1"])
def test_bad_command_line_exit_1(tmp_path, capsys, monkeypatch, args, named):
    monkeypatch.chdir(tmp_path)
    write_config("run.ini", ANNULUS_65)
    for command in ("check", "solve"):
        assert main([command, *args, "--out", "out"]) == 1
        assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_BARRIER = {"alpha": "abc", "beta": "-1", "target": "xyz", "zeta": "feild",
               "c_d": "0"}


def test_verify_refuses_bad_barrier_value_before_any_work(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path / "run.ini", ANNULUS_65),
                 "--out", str(out)]) == 0
    solved = {p.name: p.read_bytes() for p in out.iterdir()}
    for key, value in BAD_BARRIER.items():
        cfg = write_config(tmp_path / "bad.ini", f"{ANNULUS_65}[barrier]\n{key} = {value}\n")
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        assert f"[barrier] {key}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == solved


def test_whole_counts_parse(tmp_path):
    cfg = parse_config(write_config(tmp_path / "run.ini", ANNULUS_65.replace(
        "resolution = 65", "resolution = 257") + "[solver]\nmax_iter = 40.0\n"))
    assert (cfg.resolution, cfg.max_iter) == (257, 40)
    assert type(cfg.resolution) is int and type(cfg.max_iter) is int


def test_readme_config_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write_config(tmp_path / "run.ini", block))
    assert (cfg.geometry_kind, cfg.ring_side, cfg.resolution) == ("dini_cap", "inner", 257)
    assert cfg.tol == 1e-8


def test_verify_non_dini_modulus_exit_2(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65 + """
[modulus]
kind = logpower
q = 1.0

[barrier]
zeta = modulus
""")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--config", cfg, "--out", out]) == 2


def test_verify_typed_error_exit_2(tmp_path, capsys):
    # no m gives a barrier whose f(1) could reach this target
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65 + "[barrier]\ntarget = 1e300\n")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert "error: no evaluable m at all" in capsys.readouterr().err


def test_full_cap_pipeline(tmp_path):
    cfg = write_config(tmp_path / "run.ini", CAP_97)
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--config", cfg, "--out", out]) == 0


def test_annulus_modulus_zeta_pipeline(tmp_path):
    # zeta from the modulus and the harmonic's gradient bounds; the profile's
    # modulus parameter is not a number and stays out of zeta.txt
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65 + "[barrier]\nzeta = modulus\n")
    out = str(tmp_path / "out")
    for command in ("check", "solve", "verify"):
        assert main([command, "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "out" / "zeta.txt").read_text().splitlines()
    assert lines[0] == "zeta kind modulus"
    assert [line.split()[1] for line in lines if line.startswith("param ")] == ["C", "C_D", "c"]


def test_solve_logpower_cap(tmp_path):
    cfg = write_config(tmp_path / "run.ini", CAP_97.replace(
        "kind = power\na = 0.5", "kind = logpower\nq = 2"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "solve_report.txt").read_text().splitlines()
    outer = next(line for line in report if line.startswith("outer domain"))
    assert outer.endswith("modulus logpower q 2.0 t_cap 0.5")


def test_outer_ring_pipeline(tmp_path):
    cfg = write_config(tmp_path / "run.ini", CAP_97.replace("ring = inner",
                                                            "ring = outer"))
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "lipschitz.txt").exists()


@pytest.mark.parametrize("side", ["inner", "outer"])
def test_cap_ring_built_once(tmp_path, monkeypatch, side):
    cfg = parse_config(write_config(tmp_path / "run.ini",
                                    CAP_97.replace("ring = inner", f"ring = {side}")))
    built = []
    make_ring = geometry.make_ring

    def counting_make_ring(*args, **kwargs):
        built.append(args)
        return make_ring(*args, **kwargs)

    monkeypatch.setattr(geometry, "make_ring", counting_make_ring)
    ring = _build_ring(cfg)
    assert len(built) == 1
    monkeypatch.undo()
    rings = make_rings(build_dini_cap(0.25, PowerModulus(0.5)), resolution=97)
    expected = rings.inner_ring if side == "inner" else rings.outer_ring
    assert ring.descriptor() == expected.descriptor()
    assert np.array_equal(ring.mask, expected.mask)


def test_grid_override(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--grid", "65"]) == 0
    head = (tmp_path / "out" / "potential.grid").read_text().splitlines()[:3]
    assert head[1] == "nx 65"


def test_idempotent_rerun(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65)
    out = tmp_path / "out"
    main(["solve", "--config", cfg, "--out", str(out)])
    main(["verify", "--config", cfg, "--out", str(out)])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    main(["verify", "--config", cfg, "--out", str(out)])
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


# --- import budget: scipy loads only where a command uses it ------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def _scipy_modules_after(code, *args):
    """scipy modules in sys.modules of a fresh interpreter after it runs code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted("
                    "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


_RUN_MAIN = "import sys\nfrom hopflab.cli import main\nassert main(sys.argv[1:]) == 0"


def test_import_cli_loads_no_scipy():
    assert _scipy_modules_after("import hopflab.cli") == []


def test_check_power_law_loads_no_scipy(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65)
    assert _scipy_modules_after(_RUN_MAIN, "check", "--config", cfg,
                                "--out", str(tmp_path / "out")) == []


def test_solve_annulus_loads_no_scipy_interpolate(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65)
    loaded = _scipy_modules_after(_RUN_MAIN, "solve", "--config", cfg,
                                  "--out", str(tmp_path / "out"))
    assert "scipy.sparse.linalg" in loaded
    assert [m for m in loaded if m.startswith("scipy.interpolate")] == []


def _custom_law_config(tmp_path):
    """ANNULUS_65 with a tabulated flow law h(t) = t (2 + t / (1 + t))."""
    ts = np.geomspace(1e-3, 100.0, 200)
    hs = ts * (2 + ts / (1 + ts))
    table = tmp_path / "law.csv"
    table.write_text("t,h\n" + "".join(f"{t!r},{h!r}\n" for t, h in zip(ts.tolist(),
                                                                      hs.tolist())))
    return write_config(tmp_path / "run.ini", ANNULUS_65.replace(
        "kind = power\np = 3.0", f"kind = custom\ntable = {table}"))


def test_verify_annulus_loads_no_scipy_interpolate(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    loaded = _scipy_modules_after(_RUN_MAIN, "verify", "--config", cfg, "--out", out)
    assert "scipy.sparse" in loaded
    assert [m for m in loaded if m.startswith("scipy.interpolate")] == []


def test_check_custom_law_loads_no_scipy(tmp_path):
    cfg = _custom_law_config(tmp_path)
    assert _scipy_modules_after(_RUN_MAIN, "check", "--config", cfg,
                                "--out", str(tmp_path / "out")) == []


def test_verify_custom_law_loads_no_scipy_interpolate(tmp_path):
    cfg = _custom_law_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    loaded = _scipy_modules_after(_RUN_MAIN, "verify", "--config", cfg, "--out", out)
    assert "scipy.sparse" in loaded
    assert [m for m in loaded if m.startswith("scipy.interpolate")] == []


# --- determinism: the same bytes whatever BLAS's thread count -----------------

def test_solve_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # a 129 solve's vectors are too short for BLAS to split its sums across
    # threads, so this needs a 257 ring
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65.replace(
        "resolution = 65", "resolution = 257"))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", _RUN_MAIN, "solve", "--config", cfg,
                        "--out", str(out)], env=env, check=True)
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(written[0]) == sorted(written[1])
    assert written[0] == written[1]
