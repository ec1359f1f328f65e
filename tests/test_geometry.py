import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hopflab import (DiniCap, Disk, Grid, LogPowerModulus, Mask, Polygon,
                     PowerModulus, Reflected, TableModulus, build_dini_cap,
                     dini_report, make_annulus, make_cap_ring, make_ring, make_rings,
                     rasterize)
from hopflab.geometry import _distance_to_polyline, convexity_midpoint_check
from hopflab.gridio import read_grid_file, write_grid_file
from hopflab.errors import (BadRadii, ContainmentViolated, GapTooSmall,
                            GridTooSmall, TableTooCoarse)


# --- Dini moduli ------------------------------------------------------------

def test_log_power_cap_ring_builds_without_warnings():
    # the cap's level evaluates the modulus at t = 0, where eps(0) = 0
    eps = LogPowerModulus(2.0)
    assert eps.eval(np.array([0.0]))[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in ("inner", "outer"):
            make_cap_ring(build_dini_cap(0.25, eps), side, resolution=65)


def test_dini_power_half_integral():
    rep = dini_report(PowerModulus(0.5), 1.0)
    assert rep.converges
    assert rep.integral == pytest.approx(2.0, abs=1e-6)


def test_dini_log_divergent():
    rep = dini_report(LogPowerModulus(1.0), 0.5)
    assert not rep.converges
    assert not rep.convex_dini


@pytest.mark.parametrize("q,expect", [(0.5, False), (1.0, False),
                                      (1.5, True), (2.0, True)])
def test_dini_dichotomy(q, expect):
    assert dini_report(LogPowerModulus(q), 0.5).converges is expect


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.8, 1.0])
def test_power_families_convex_dini(a):
    rep = dini_report(PowerModulus(a), 1.0)
    assert rep.converges and rep.convex_dini


def test_table_modulus_fine_enough():
    ts = np.geomspace(1e-12, 1.0, 400)
    rep = dini_report(TableModulus(ts, ts ** 0.5), 1.0)
    assert rep.converges
    assert rep.integral == pytest.approx(2.0, rel=1e-3)


def test_table_modulus_too_coarse():
    ts = np.geomspace(1e-2, 1.0, 40)
    with pytest.raises(TableTooCoarse):
        dini_report(TableModulus(ts, ts ** 0.5), 1.0)


# --- cap construction -------------------------------------------------------

def test_cap_contains_three_quarter_ball():
    cap = build_dini_cap(0.25, PowerModulus(0.5))
    poly = cap.boundary(4096)
    d = np.hypot(poly[:, 0], poly[:, 1] - 0.25).min()
    assert d > 0.75 * 0.25
    # origin sits on the boundary up to the fillet width
    assert abs(float(cap.level(np.array([0.0, 0.0])))) < 2 * cap.smoothing


def test_cap_containment_violated_for_flat_modulus():
    # a slowly decaying modulus cuts deep into the ball
    with pytest.raises(ContainmentViolated):
        build_dini_cap(0.9, PowerModulus(0.05, t_cap=1.0))


def test_cap_convex_parabolic_cut():
    # eps(t) = t gives the cut y > 2 x^2; intersection with the disk is convex
    cap = build_dini_cap(0.2, PowerModulus(1.0))
    grid = Grid.square(0.25, 129, center=(0.0, 0.2))
    mask, _ = rasterize(cap, grid)
    assert convexity_midpoint_check(mask, grid, rng=np.random.default_rng(3))


def test_cap_normal_at_origin():
    cap = build_dini_cap(0.25, PowerModulus(0.5))
    h = 0.25 / 128
    sd = cap.signed_distance(np.array([[0.0, 2 * h], [h, 2 * h], [-h, 2 * h],
                                       [0.0, 3 * h]]), smoothing=h)
    gx = (sd[1] - sd[2]) / (2 * h)
    gy = (sd[3] - sd[0]) / h
    outward = np.array([gx, gy]) / np.hypot(gx, gy)   # sd grows outward
    angle = np.degrees(np.arccos(np.clip(-outward[1], -1, 1)))
    assert angle < 5.0


def test_cap_convexity_midpoints():
    cap = build_dini_cap(0.25, PowerModulus(0.5))
    grid = Grid.square(0.3, 257, center=(0.0, 0.25))
    mask, _ = rasterize(cap, grid)
    assert convexity_midpoint_check(mask, grid, rng=np.random.default_rng(7))


# --- distance to a polyline ---------------------------------------------------

def brute_distance_to_polyline(pts, poly):
    """Reference: the minimum over every segment of the closed polyline."""
    p = pts.reshape(-1, 2)
    a = poly
    ab = np.roll(poly, -1, axis=0) - a
    ab2 = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    ap = p[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("kij,ij->ki", ap, ab) / ab2, 0.0, 1.0)
    d2 = np.sum((ap - t[..., None] * ab[None, :, :]) ** 2, axis=-1)
    return np.sqrt(d2.min(axis=1)).reshape(pts.shape[:-1])


def _boundary_polyline(kind, size, n, rng):
    if kind == "disk":
        return Disk(rng.uniform(-1.0, 1.0, 2), size).boundary(n)
    if kind == "polygon":
        # points of an ellipse at sorted angles form a convex ccw polygon
        ang = np.sort(rng.permutation(np.linspace(0.0, 2 * np.pi, 24, endpoint=False))
                      [:rng.integers(3, 12)])
        verts = np.stack([size * np.cos(ang), 0.5 * size * np.sin(ang)], axis=-1)
        return Polygon(verts).boundary(n)
    r_d = 0.5 * size    # within the modulus validity range (0, 1]
    cap = DiniCap(r_d, PowerModulus(rng.uniform(0.3, 1.0)), smoothing=r_d / 256)
    return cap.boundary(n, smoothing=r_d / 256)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["disk", "polygon", "cap"]),
       size=st.floats(0.05, 2.0), n=st.integers(3, 600),
       seed=st.integers(0, 2 ** 32 - 1))
def test_polyline_distance_matches_brute_force(kind, size, n, seed):
    rng = np.random.default_rng(seed)
    poly = _boundary_polyline(kind, size, n, rng)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    span = float(np.max(hi - lo))
    pick = rng.integers(0, len(poly), 40)
    # convex combinations of three vertices lie inside the convex boundary
    inside = np.einsum("kj,kji->ki", rng.dirichlet(np.ones(3), 40),
                       poly[rng.integers(0, len(poly), (40, 3))])
    pts = np.concatenate([
        poly[pick] + rng.normal(scale=1e-3 * span, size=(40, 2)),   # near
        rng.uniform(lo - 3 * span, hi + 3 * span, size=(40, 2)),     # far
        inside,
        poly[pick],                                                  # on vertices
    ])
    got = _distance_to_polyline(pts, poly)
    assert np.array_equal(got, brute_distance_to_polyline(pts, poly))
    assert np.all(got[-40:] == 0.0)


def test_polyline_distance_falls_back_past_a_long_edge():
    # a long bottom edge under a dense elliptic top: the four vertices nearest
    # the query all sit on the top, so the bottom edge is never a candidate
    t = np.linspace(0.0, np.pi, 2001)[1:-1]
    top = np.stack([10.0 * np.cos(t), np.sin(t)], axis=-1)
    poly = np.concatenate([[(10.0, 0.0)], top, [(-10.0, 0.0)]])
    q = np.array([[0.0, -0.5]])
    _, near = cKDTree(poly).query(q, k=4)
    assert np.all(poly[near[0], 1] > 0.5)
    got = _distance_to_polyline(q, poly)
    assert got[0] == 0.5
    assert np.array_equal(got, brute_distance_to_polyline(q, poly))


# --- rings ------------------------------------------------------------------

def test_make_rings_valid():
    cap = build_dini_cap(0.25, PowerModulus(0.5))
    rings = make_rings(cap, resolution=257)
    for ring in (rings.inner_ring, rings.outer_ring):
        assert ring.gap >= 2 * ring.grid.h
        assert ring.interior().any()
        assert np.all(ring.ghosts.theta >= 0.15)


def test_make_rings_degenerate_grid():
    cap = build_dini_cap(0.25, PowerModulus(0.5))
    with pytest.raises(GapTooSmall):
        make_rings(cap, resolution=9)


def test_reflected_cap_touches_origin():
    cap = build_dini_cap(0.25, PowerModulus(0.5))
    neg = Reflected(cap)
    sd = float(neg.signed_distance(np.array([0.0, 0.0]), smoothing=cap.smoothing))
    assert abs(sd) < 2 * cap.smoothing
    (x0, x1), (y0, y1) = neg.bbox()
    assert y1 <= 1e-12   # sits below the origin


def test_annulus_bad_radii():
    with pytest.raises(BadRadii):
        make_annulus(2.0, 1.0)


def test_grid_that_cuts_the_ring_is_refused():
    # the 1.5 half-width grid ends inside the r2 = 2 disk
    with pytest.raises(GridTooSmall, match="cuts the ring"):
        make_annulus(1.0, 2.0, resolution=65, extent=1.5)


def test_annulus_gap_too_small():
    with pytest.raises(GapTooSmall):
        make_annulus(1.0, 1.01, resolution=33)


def test_annulus_masks_nested(annulus129):
    ring = annulus129
    inner_nodes = ring.mask == Mask.INNER_BOUNDARY
    outer_nodes = ring.mask == Mask.OUTER_BOUNDARY
    assert inner_nodes.any() and outer_nodes.any()
    pts = ring.grid.points()
    r = np.hypot(pts[..., 0], pts[..., 1])
    assert np.all(r[inner_nodes] < 1.5)
    assert np.all(r[outer_nodes] > 1.5)


# --- rasterize --------------------------------------------------------------

def test_rasterize_disk_area():
    grid = Grid.square(2.0, 129)
    mask, sd = rasterize(Disk((0.0, 0.0), 1.0), grid)
    area = mask.sum() * grid.h ** 2
    assert area == pytest.approx(np.pi, rel=0.02)


def test_rasterize_disk_center_distance():
    grid = Grid.square(2.0, 65)
    _, sd = rasterize(Disk((0.0, 0.0), 1.0), grid)
    j = i = 32
    assert sd[j, i] == pytest.approx(-1.0, abs=1e-12)


def test_rasterize_grid_too_small():
    from hopflab.errors import GridTooSmall
    grid = Grid.square(0.5, 33)
    with pytest.raises(GridTooSmall):
        rasterize(Disk((0.0, 0.0), 1.0), grid)


def test_rasterize_polygon():
    dx, dy = 0.011, 0.007   # avoid grid-aligned edges
    square = Polygon([(-1 + dx, -1 + dy), (1 + dx, -1 + dy),
                      (1 + dx, 1 + dy), (-1 + dx, 1 + dy)])
    grid = Grid.square(2.0, 129)
    mask, sd = rasterize(square, grid)
    assert mask.sum() * grid.h ** 2 == pytest.approx(4.0, rel=0.02)
    assert convexity_midpoint_check(mask, grid, rng=np.random.default_rng(11))


def test_polygon_descriptor_lists_plain_float_vertices():
    tri = Polygon([(0.0, 0.0), (1.0, 0.0), (0.25, 0.5)])
    assert tri.descriptor() == "domain polygon n 3 vertices 0.0 0.0 1.0 0.0 0.25 0.5"


def test_polygon_rejects_nonconvex():
    with pytest.raises(Exception):
        Polygon([(0, 0), (2, 0), (1, 0.2), (2, 2), (0, 2)])


# --- grid file round trip ---------------------------------------------------

def test_grid_file_roundtrip(tmp_path):
    grid = Grid(-1.0, -0.5, 17, 9, 0.125)
    rng = np.random.default_rng(5)
    values = rng.standard_normal((9, 17))
    mask = rng.integers(0, 4, size=(9, 17)).astype(np.uint8)
    path = tmp_path / "field.grid"
    write_grid_file(path, grid, values, mask)
    g2, v2, m2 = read_grid_file(path)
    assert g2 == grid
    assert np.array_equal(v2, values)
    assert np.array_equal(m2, mask)


def _write_grid_per_value(path, grid, values, mask):
    """Reference writer: one repr(float(v)) / str(int(v)) per value."""
    lines = ["gridfield 1", f"nx {grid.nx}", f"ny {grid.ny}",
             f"origin {grid.x0!r} {grid.y0!r}", f"spacing {grid.h!r}", "blocks values mask"]
    for row in np.asarray(values, dtype=float):
        lines.append(" ".join(repr(float(v)) for v in row))
    for row in np.asarray(mask):
        lines.append(" ".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_blocks_per_token(path, ny):
    """Reference reader of the values and mask blocks: float()/int() per token."""
    raw = Path(path).read_text().splitlines()[6:]
    values = np.array([[float(v) for v in raw[j].split()] for j in range(ny)])
    mask = np.array([[int(v) for v in raw[ny + j].split()] for j in range(ny)],
                    dtype=np.uint8)
    return values, mask


@pytest.mark.parametrize("shape", [(9, 17), (1, 6), (5, 1)])
def test_grid_file_same_bytes_and_bits_as_per_value_io(tmp_path, shape):
    ny, nx = shape
    grid = Grid(-1.0, -0.5, nx, ny, 0.125)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    specials = [-0.0, 5e-324, 2.2250738585072e-310, np.nan, np.inf, -np.inf, 1 / 3]
    values.flat[:len(specials)] = specials[:values.size]
    mask = rng.integers(0, 4, size=shape).astype(np.uint8)
    ref, new = tmp_path / "ref.grid", tmp_path / "new.grid"
    _write_grid_per_value(ref, grid, values, mask)
    write_grid_file(new, grid, values, mask)
    assert new.read_bytes() == ref.read_bytes()

    v_ref, m_ref = _read_blocks_per_token(ref, ny)
    g2, v2, m2 = read_grid_file(ref)
    assert g2 == grid
    assert v2.shape == v_ref.shape and v2.dtype == v_ref.dtype
    assert np.array_equal(v2.view(np.uint64), v_ref.view(np.uint64))
    assert np.array_equal(v2.view(np.uint64), values.view(np.uint64))
    assert m2.dtype == np.uint8 and np.array_equal(m2, m_ref)
