from pathlib import Path

import numpy as np
import pytest

from hopflab import PowerModulus, build_dini_cap, geometry, make_rings
from hopflab.cli import _build_ring, main, parse_config


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


def test_check_missing_table_exit_1(tmp_path):
    cfg = write_config(tmp_path / "run.ini", """
[function]
kind = custom
table = /nonexistent/table.csv
""")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


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


def test_verify_before_solve_exit_1(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "empty")]) == 1


def test_solve_max_iter_one_exit_3(tmp_path):
    cfg = write_config(tmp_path / "run.ini", ANNULUS_65 + """
[solver]
max_iter = 1
""")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 3
    assert (tmp_path / "out" / "potential.grid").exists()


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


def test_full_cap_pipeline(tmp_path):
    cfg = write_config(tmp_path / "run.ini", CAP_97)
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--config", cfg, "--out", out]) == 0


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
    rings = make_rings(build_dini_cap(0.25, PowerModulus(0.5)), 0.25, resolution=97)
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
