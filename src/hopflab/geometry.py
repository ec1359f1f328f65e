"""Dini moduli, convex 2-D domains, the boundary cap, and rasterized convex rings.

Everything is two dimensional: points are (x, y) with y playing the role of
the distinguished coordinate of the cap construction. Domains expose an
analytic inside test plus an accurate signed distance through a sampled
boundary polyline; the distance to a polyline is an exact nearest-segment
query over a KD-tree of its vertices, certified per point and falling back
to all segments where the certificate fails. Rings carry node masks and the
ghost-layer geometry the solver needs for curved Dirichlet boundaries.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

# scipy.spatial is imported inside the function that uses it, so commands that
# measure no distance to a polyline do not pay for loading it.

from .errors import (BadRadii, ContainmentViolated, GapTooSmall, GridTooSmall,
                     OutOfRange, TableTooCoarse)
from .quadrature import EndpointIntegral, bisect, integral_to_zero


class Mask(IntEnum):
    OUTSIDE = 0
    INTERIOR = 1
    INNER_BOUNDARY = 2
    OUTER_BOUNDARY = 3


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform node grid; node (i, j) sits at (x0 + i*h, y0 + j*h)."""
    x0: float
    y0: float
    nx: int
    ny: int
    h: float

    @classmethod
    def square(cls, half_extent: float, n: int, center=(0.0, 0.0)) -> "Grid":
        h = 2.0 * half_extent / (n - 1)
        return cls(center[0] - half_extent, center[1] - half_extent, n, n, h)

    @classmethod
    def from_box(cls, x_lo, x_hi, y_lo, y_hi, n: int) -> "Grid":
        span = max(x_hi - x_lo, y_hi - y_lo)
        h = span / (n - 1)
        nx = int(round((x_hi - x_lo) / h)) + 1
        ny = int(round((y_hi - y_lo) / h)) + 1
        return cls(x_lo, y_lo, nx, ny, h)

    def xs(self):
        return self.x0 + self.h * np.arange(self.nx)

    def ys(self):
        return self.y0 + self.h * np.arange(self.ny)

    def points(self):
        """All node coordinates, shape (ny, nx, 2)."""
        return self._points

    @cached_property
    def _points(self):
        X, Y = np.meshgrid(self.xs(), self.ys(), indexing="xy")
        return np.stack([X, Y], axis=-1)

    def cell_corners(self, pts):
        """Each point's cell: its four corners as (j, i) index pairs, their
        bilinear weights in the same order, and whether the point lies on
        the grid (a point off it gets the nearest edge cell)."""
        p = np.asarray(pts, dtype=float)
        fx = (p[..., 0] - self.x0) / self.h
        fy = (p[..., 1] - self.y0) / self.h
        i0 = np.clip(np.floor(fx).astype(int), 0, self.nx - 2)
        j0 = np.clip(np.floor(fy).astype(int), 0, self.ny - 2)
        tx = fx - i0
        ty = fy - j0
        inside = (fx >= 0) & (fx <= self.nx - 1) & (fy >= 0) & (fy <= self.ny - 1)
        corners = ((j0, i0), (j0, i0 + 1), (j0 + 1, i0), (j0 + 1, i0 + 1))
        weights = ((1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty)
        return corners, weights, inside

    def descriptor(self) -> str:
        return (f"grid nx {self.nx} ny {self.ny} origin {self.x0!r} {self.y0!r} "
                f"spacing {self.h!r}")


# --------------------------------------------------------------------------
# Dini moduli
# --------------------------------------------------------------------------

class DiniModulus:
    """A modulus eps(t), decreasing to 0 as t -> 0, defined on (0, t_cap]."""

    kind = "custom"

    def __init__(self, t_cap: float):
        if not 0 < t_cap < np.inf:
            raise OutOfRange(f"t_cap = {t_cap!r}: need a positive finite number")
        self.t_cap = float(t_cap)

    def eval(self, t):
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError


class PowerModulus(DiniModulus):
    """eps(t) = t^a with a in (0, 1]; the C^{1,alpha} scale."""

    kind = "power"

    def __init__(self, a: float, t_cap: float = 1.0):
        if not (0 < a <= 1):
            raise OutOfRange(f"a = {a!r}: a power modulus needs a in (0, 1]")
        super().__init__(t_cap)
        self.a = float(a)

    def eval(self, t):
        return np.asarray(t, dtype=float) ** self.a

    def descriptor(self):
        return f"modulus power a {self.a!r} t_cap {self.t_cap!r}"


class LogPowerModulus(DiniModulus):
    """eps(t) = (log(1/t))^-q; Dini exactly when q > 1."""

    kind = "logpower"

    def __init__(self, q: float, t_cap: float = 0.5):
        if not q > 0:
            raise OutOfRange(f"q = {q!r}: a log-power modulus needs q > 0")
        if not t_cap < 1.0:
            raise OutOfRange(f"t_cap = {t_cap!r}: a log-power modulus needs t_cap < 1")
        super().__init__(t_cap)
        self.q = float(q)

    def eval(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.t_cap)
        with np.errstate(divide="ignore"):      # log(0) = -inf gives eps(0) = 0
            return (-np.log(t)) ** (-self.q)

    def descriptor(self):
        return f"modulus logpower q {self.q!r} t_cap {self.t_cap!r}"


class TableModulus(DiniModulus):
    """Sampled modulus with monotone linear interpolation."""

    kind = "table"

    def __init__(self, ts, vals):
        ts = np.asarray(ts, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if np.any(np.diff(ts) <= 0) or ts[0] <= 0:
            raise OutOfRange("table abscissae must be positive and increasing")
        if np.any(np.diff(vals) < 0):
            raise OutOfRange("modulus table must be non-decreasing in t")
        super().__init__(float(ts[-1]))
        self.ts = ts
        self.vals = vals
        self.t_floor = float(ts[0])

    def eval(self, t):
        return np.interp(np.asarray(t, dtype=float), self.ts, self.vals)

    def descriptor(self):
        return f"modulus table n {len(self.ts)} t_cap {self.t_cap!r}"


@dataclass(frozen=True)
class DiniReport:
    integral: float
    converges: bool
    convex_dini: bool
    t1: float
    detail: EndpointIntegral

    def to_text(self) -> str:
        return (f"dini integral {self.integral!r}\n"
                f"converges {self.converges}\n"
                f"convex_dini {self.convex_dini}\n"
                f"t1 {self.t1!r}\n"
                f"classification {self.detail.classification}\n")


def dini_report(eps: DiniModulus, t1: float) -> DiniReport:
    """Integral of eps(t)/t over (0, t1] plus the convexity certificate.

    convex_dini certifies the full definition: the modulus is Dini *and*
    t*eps(t) has nonnegative second differences on a log-spaced grid.
    """
    if not (0 < t1 <= eps.t_cap * (1 + 1e-12)):
        raise OutOfRange("need 0 < t1 <= t_cap")
    floor = getattr(eps, "t_floor", 0.0)
    detail = integral_to_zero(lambda t: eps.eval(t) / t, t1, t_floor=floor)
    if detail.classification == "floored":
        # a stable geometric tail extrapolates reliably past the table end;
        # anything else leaves material unresolved mass
        bad = (not detail.converges or not np.isfinite(detail.tail)
               or detail.tail > 0.05 * max(abs(detail.partial), 1e-300))
        if bad:
            raise TableTooCoarse("modulus table does not resolve the integrand near 0")

    ts = np.geomspace(max(floor, eps.t_cap * 1e-8), eps.t_cap, 200)
    y = ts * eps.eval(ts)
    slopes = np.diff(y) / np.diff(ts)
    convex = bool(np.all(np.diff(slopes) >= -1e-10 * max(1.0, float(np.max(np.abs(slopes))))))
    return DiniReport(detail.value, detail.converges, convex and detail.converges,
                      t1, detail)


# --------------------------------------------------------------------------
# convex domains
# --------------------------------------------------------------------------

def _smooth_max(a, b, s: float):
    """Smooth, convexity-preserving max with transition width s."""
    if s <= 0.0:
        return np.maximum(a, b)
    return 0.5 * (a + b + np.sqrt((a - b) ** 2 + s * s))


SDF_BOUNDARY_POINTS = 4096    # polyline vertices behind a signed distance


class ConvexDomain:
    """Convex region given by a convex level function G (negative inside)."""

    def level(self, pts, smoothing: float = 0.0):
        """Convex function, negative inside; not a distance in general."""
        raise NotImplementedError

    def inside(self, pts, smoothing: float = 0.0):
        return self.level(pts, smoothing) < 0.0

    def bbox(self):
        raise NotImplementedError

    def boundary(self, n: int = 2048, smoothing: float = 0.0):
        """Boundary polyline of n vertices, counterclockwise."""
        raise NotImplementedError

    def signed_distance(self, pts, smoothing: float = 0.0):
        """Accurate signed distance via the boundary polyline of
        SDF_BOUNDARY_POINTS vertices."""
        poly = self.boundary(SDF_BOUNDARY_POINTS, smoothing)
        d = _distance_to_polyline(np.asarray(pts, dtype=float), poly)
        sign = np.where(self.inside(pts, smoothing), -1.0, 1.0)
        return sign * d

    def descriptor(self) -> str:
        raise NotImplementedError


# nearest polyline vertices whose adjacent segments are evaluated per point
_K_NEAREST = 4


def _distance_to_polyline(pts, poly):
    """Min distance from points (..., 2) to the closed polyline poly (m, 2).

    Exact: a KD-tree on the vertices gives each point its k nearest
    vertices, and only the 2k segments touching them are evaluated. Every
    other segment has both ends at least r_k away, so it lies at least
    sqrt(r_k^2 - (L_max/2)^2) away; a point whose best evaluated distance d
    satisfies r_k^2 >= d^2 + (L_max/2)^2 (with a relative slack far above
    rounding) is certified, and the rest fall back to all segments. Both
    paths use the same per-segment arithmetic, so results are bit-equal to
    the all-segments minimum.
    """
    shape = pts.shape[:-1]
    p = pts.reshape(-1, 2)
    m = len(poly)
    a = poly
    ab = np.roll(poly, -1, axis=0) - a
    ab2 = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    if m <= _K_NEAREST:
        return np.sqrt(_all_segments_d2(p, a, ab, ab2)).reshape(shape)

    from scipy.spatial import cKDTree
    r, near = cKDTree(poly).query(p, k=_K_NEAREST)
    seg = np.concatenate([near, (near - 1) % m], axis=1)
    ap = p[:, None, :] - a[seg]
    t = np.clip(np.einsum("kij,kij->ki", ap, ab[seg]) / ab2[seg], 0.0, 1.0)
    d2 = np.sum((ap - t[..., None] * ab[seg]) ** 2, axis=-1).min(axis=1)

    half_len2 = 0.25 * float(ab2.max())
    unsure = r[:, -1] ** 2 < (d2 + half_len2) * (1.0 + 1e-9)
    if unsure.any():
        d2[unsure] = _all_segments_d2(p[unsure], a, ab, ab2)
    return np.sqrt(d2).reshape(shape)


def _all_segments_d2(p, a, ab, ab2):
    """Squared distance from points (n, 2) to the nearest of all segments."""
    out = np.empty(p.shape[0])
    chunk = max(1, int(4e6) // len(a))
    for s in range(0, p.shape[0], chunk):
        ap = p[s:s + chunk, None, :] - a[None, :, :]
        t = np.clip(np.einsum("kij,ij->ki", ap, ab) / ab2, 0.0, 1.0)
        d2 = np.sum((ap - t[..., None] * ab[None, :, :]) ** 2, axis=-1)
        out[s:s + chunk] = d2.min(axis=1)
    return out


class Disk(ConvexDomain):
    def __init__(self, center, radius: float):
        if radius <= 0:
            raise BadRadii("disk radius must be positive")
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)

    def level(self, pts, smoothing: float = 0.0):
        p = np.asarray(pts, dtype=float)
        return np.hypot(p[..., 0] - self.center[0], p[..., 1] - self.center[1]) - self.radius

    def signed_distance(self, pts, smoothing: float = 0.0):
        return self.level(pts)

    def bbox(self):
        cx, cy = self.center
        r = self.radius
        return (cx - r, cx + r), (cy - r, cy + r)

    def boundary(self, n: int = 2048, smoothing: float = 0.0):
        ang = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        return np.stack([self.center[0] + self.radius * np.cos(ang),
                         self.center[1] + self.radius * np.sin(ang)], axis=-1)

    def descriptor(self):
        return (f"domain disk center {self.center[0]!r} {self.center[1]!r} "
                f"radius {self.radius!r}")


class Polygon(ConvexDomain):
    """Convex polygon with counterclockwise vertices."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if len(v) < 3:
            raise OutOfRange("polygon needs at least 3 vertices")
        e = np.roll(v, -1, axis=0) - v
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(cross < -1e-12 * np.max(np.abs(v))):
            raise OutOfRange("vertices must describe a convex ccw polygon")
        self.vertices = v
        # outward half-plane normals
        self._normals = np.stack([e[:, 1], -e[:, 0]], axis=-1)
        self._normals /= np.linalg.norm(self._normals, axis=1, keepdims=True)

    def level(self, pts, smoothing: float = 0.0):
        # max over edge half-plane distances; exact for convex polygons
        p = np.asarray(pts, dtype=float)
        d = np.einsum("...k,ik->...i", p, self._normals) - \
            np.einsum("ik,ik->i", self.vertices, self._normals)
        return np.max(d, axis=-1)

    def signed_distance(self, pts, smoothing: float = 0.0):
        p = np.asarray(pts, dtype=float)
        lev = self.level(p)
        d_out = _distance_to_polyline(p, self.vertices)
        return np.where(lev < 0, lev, d_out)

    def bbox(self):
        v = self.vertices
        return (float(v[:, 0].min()), float(v[:, 0].max())), \
               (float(v[:, 1].min()), float(v[:, 1].max()))

    def boundary(self, n: int = 2048, smoothing: float = 0.0):
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(e, axis=1)
        per_edge = np.maximum((n * lengths / lengths.sum()).astype(int), 2)
        pts = [v[i] + np.linspace(0, 1, m, endpoint=False)[:, None] * e[i]
               for i, m in enumerate(per_edge)]
        return np.concatenate(pts, axis=0)

    def descriptor(self):
        vs = " ".join(f"{x!r} {y!r}" for x, y in self.vertices.tolist())
        return f"domain polygon n {len(self.vertices)} vertices {vs}"


class DiniCap(ConvexDomain):
    """Cap K: the disk B_rd((0, rd)) cut by y > 2|x| eps(|x|).

    The origin lies on the boundary with outward normal (0, -1); the two
    transversal corners where the cut curve meets the circle are rounded by
    a smooth max over one smoothing length (convexity is preserved because
    both level functions are convex when t*eps(t) is convex).
    """

    def __init__(self, r_d: float, eps: DiniModulus, smoothing: float = 0.0):
        if r_d <= 0:
            raise BadRadii("cap radius must be positive")
        if r_d > eps.t_cap:
            raise OutOfRange("cap radius exceeds the modulus validity range")
        self.r_d = float(r_d)
        self.eps = eps
        self.smoothing = float(smoothing)

    def level(self, pts, smoothing: float | None = None):
        s = self.smoothing if smoothing in (None, 0.0) else smoothing
        p = np.asarray(pts, dtype=float)
        x = p[..., 0]
        y = p[..., 1]
        disk = np.hypot(x, y - self.r_d) - self.r_d
        t = np.abs(x)
        cut = 2.0 * t * self.eps.eval(np.minimum(t, self.eps.t_cap)) - y
        return _smooth_max(disk, cut, s)

    def bbox(self):
        return (-self.r_d, self.r_d), (0.0, 2 * self.r_d)

    def boundary(self, n: int = 2048, smoothing: float = 0.0):
        """Boundary polyline by radial bisection from the disk centre (0, r_d),
        out to twice the bounding box's side plus one."""
        angles = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        center = np.array([0.0, self.r_d])
        # ~(level >= 0) rather than level < 0: a NaN level counts as inside
        r = bisect(lambda mid: ~(self.level(center + mid[:, None] * dirs, smoothing) >= 0.0),
                   np.zeros(n), np.full(n, 4.0 * self.r_d + 1.0), 60)
        return center + r[:, None] * dirs

    def descriptor(self):
        return (f"domain dini_cap r_d {self.r_d!r} smoothing {self.smoothing!r} "
                f"{self.eps.descriptor()}")


class Reflected(ConvexDomain):
    """Point reflection through the origin: -K."""

    def __init__(self, base: ConvexDomain):
        self.base = base

    def level(self, pts, smoothing: float = 0.0):
        return self.base.level(-np.asarray(pts, dtype=float), smoothing)

    def bbox(self):
        (x0, x1), (y0, y1) = self.base.bbox()
        return (-x1, -x0), (-y1, -y0)

    def boundary(self, n: int = 2048, smoothing: float = 0.0):
        return -self.base.boundary(n, smoothing)

    def descriptor(self):
        return f"domain reflected {self.base.descriptor()}"


CAP_SMOOTHING = 1.0 / 256.0   # corner smoothing per unit of cap radius: about a cell


def build_dini_cap(r_d: float, eps: DiniModulus) -> DiniCap:
    """Construct the cap, smoothed over r_d * CAP_SMOOTHING, and verify the
    3/4-ball containment; raises ContainmentViolated when r_d is too large
    for this modulus.
    """
    rep = dini_report(eps, min(r_d, eps.t_cap))
    if not rep.convex_dini:
        raise OutOfRange("cap construction needs a convex-Dini modulus")
    cap = DiniCap(r_d, eps, smoothing=r_d * CAP_SMOOTHING)
    poly = cap.boundary(4096)
    dist = np.hypot(poly[:, 0], poly[:, 1] - r_d).min()
    if dist <= 0.75 * r_d * (1 + 1e-9):
        raise ContainmentViolated(
            f"3/4-ball clearance {dist!r} vs needed {0.75 * r_d!r}; reduce r_d")
    return cap


# --------------------------------------------------------------------------
# rings
# --------------------------------------------------------------------------

_STENCIL = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
RING_BOUNDARY_POINTS = 2048   # polyline vertices per domain for the ring gap
PAD_CELLS = 6                 # empty cells around a cap ring's outer domain


@dataclass
class GhostLayer:
    """Per-ghost-node closure geometry for curved Dirichlet boundaries."""
    index: np.ndarray      # flat node index of the ghost
    partner: np.ndarray    # flat node index of the paired interior node
    theta: np.ndarray      # boundary cut fraction along partner -> ghost, in (0, 1]
    side: np.ndarray       # Mask.INNER_BOUNDARY or Mask.OUTER_BOUNDARY


@dataclass
class ConvexRing:
    inner: ConvexDomain
    outer: ConvexDomain
    grid: Grid
    mask: np.ndarray
    ghosts: GhostLayer
    gap: float
    _cache: dict = field(default_factory=dict, repr=False)

    def cached(self, key: str, build):
        """The value stored under key, computed as build(self) on first use;
        per-ring derived data (distances, trusted nodes, assembly) lives here."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    def interior(self):
        return self.mask == Mask.INTERIOR

    def sdf(self, which: str):
        """Signed distance field to the inner or outer domain boundary."""
        dom = self.inner if which == "inner" else self.outer
        return self.cached(which, lambda r: dom.signed_distance(r.grid.points(),
                                                                smoothing=r.grid.h))

    def trusted(self):
        """Interior nodes whose eight neighbours are all interior: every
        stencil the certificates use there sees interior nodes only."""
        return self.cached("trusted", lambda r: r.interior() & ~_dilate8(~r.interior()))

    def descriptor(self) -> str:
        out = io.StringIO()
        out.write("ring\n")
        out.write("inner " + self.inner.descriptor() + "\n")
        out.write("outer " + self.outer.descriptor() + "\n")
        out.write(self.grid.descriptor() + "\n")
        out.write(f"gap {self.gap!r}\n")
        return out.getvalue()


def _shift(arr: np.ndarray, dj: int, di: int, fill):
    """out[j, i] = arr[j + dj, i + di], and fill where that leaves the array."""
    out = np.full(arr.shape, fill, dtype=np.result_type(arr, fill))
    ny, nx = arr.shape
    js = slice(max(dj, 0), ny + min(dj, 0))
    jt = slice(max(-dj, 0), ny + min(-dj, 0))
    is_ = slice(max(di, 0), nx + min(di, 0))
    it = slice(max(-di, 0), nx + min(-di, 0))
    out[jt, it] = arr[js, is_]
    return out


def _dilate8(m):
    """m grown by one node into all eight neighbours."""
    out = m.copy()
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            out |= _shift(m, dj, di, False)
    return out


def make_ring(inner: ConvexDomain, outer: ConvexDomain, grid: Grid) -> ConvexRing:
    """Classify grid nodes against the ring and build the ghost layer.

    The ring gap is measured between boundary polylines of
    RING_BOUNDARY_POINTS vertices. Raises GridTooSmall when an interior
    node lies on the border of the grid: the grid then cuts the ring."""
    pts = grid.points()
    s = grid.h
    lev_in = np.asarray(inner.level(pts, smoothing=s), dtype=float)
    lev_out = np.asarray(outer.level(pts, smoothing=s), dtype=float)
    in_inner = lev_in < 0.0
    in_outer = lev_out < 0.0
    if np.any(in_inner & ~in_outer):
        raise GapTooSmall("inner domain not contained in outer domain on this grid")

    b1 = inner.boundary(RING_BOUNDARY_POINTS, smoothing=s)
    b2 = outer.boundary(RING_BOUNDARY_POINTS, smoothing=s)
    gap = float(_distance_to_polyline(b1, b2).min())
    if gap < 2.0 * grid.h:
        raise GapTooSmall(f"ring gap {gap!r} below two cells ({2 * grid.h!r})")

    # shrink by a level margin so no interior node hugs the boundary; this
    # bounds the ghost extrapolation factor (level functions are Lipschitz
    # with constant near 1, so the margin is close to a true distance)
    margin = 0.25 * s
    interior = (lev_out < -margin) & (lev_in > margin)
    if not interior.any():
        raise GridTooSmall("no interior nodes")
    if (interior[0].any() or interior[-1].any() or interior[:, 0].any()
            or interior[:, -1].any()):
        raise GridTooSmall("the grid cuts the ring: an interior node lies on its border")
    if int(np.count_nonzero(in_inner)) >= int(np.count_nonzero(in_outer)):
        raise GapTooSmall("masks not strictly nested")

    ghost = np.zeros_like(interior)
    for dj, di in _STENCIL:
        ghost |= _shift(interior, dj, di, False)
    ghost &= ~interior

    mask = np.full(interior.shape, int(Mask.OUTSIDE), dtype=np.uint8)
    mask[interior] = int(Mask.INTERIOR)
    near_inner = ghost & (lev_in <= margin)
    mask[near_inner] = int(Mask.INNER_BOUNDARY)
    mask[ghost & ~near_inner] = int(Mask.OUTER_BOUNDARY)

    ghosts = _build_ghost_layer(inner, outer, grid, mask, lev_in, lev_out)
    return ConvexRing(inner, outer, grid, mask, ghosts, gap)


def _build_ghost_layer(inner, outer, grid, mask, lev_in, lev_out) -> GhostLayer:
    """Pair every ghost node with the interior neighbour giving the deepest
    boundary cut, then locate all cut points by vectorized bisection."""
    ny, nx = mask.shape
    interior = mask == Mask.INTERIOR
    pts = grid.points().reshape(-1, 2)
    steps = np.array(_STENCIL)

    all_idx, all_partner, all_theta, all_side = [], [], [], []
    for side_code, dom, lev, sign in ((int(Mask.INNER_BOUNDARY), inner, lev_in, 1.0),
                                      (int(Mask.OUTER_BOUNDARY), outer, lev_out, -1.0)):
        gmask = mask == side_code
        if not gmask.any():
            continue
        gj, gi = np.nonzero(gmask)
        # score the six candidate partners of every ghost, one row per
        # _STENCIL step, by how far inside the ring they sit (inner ghosts
        # want max lev_in, outer ghosts min lev_out). Non-interior candidates
        # score -inf (a NaN level is never interior); clipping sends off-grid
        # ones to the border, where no node is interior. argmax takes the
        # first best, and every ghost has an interior candidate, since the
        # layer is built from them
        pj = np.clip(gj + steps[:, :1], 0, ny - 1)
        pi = np.clip(gi + steps[:, 1:], 0, nx - 1)
        best = np.argmax(np.where(interior[pj, pi], sign * lev[pj, pi], -np.inf), axis=0)
        g_flat = gj * nx + gi
        p_flat = (pj * nx + pi)[best, np.arange(len(gj))]
        a = pts[p_flat]
        b = pts[g_flat]
        # the cut may sit beyond the ghost (ghosts can be slightly inside the
        # ring after the margin shrink), so bracket out to 4 segment lengths
        far = 4.0
        f_a = np.asarray(dom.level(a, smoothing=grid.h), dtype=float)
        f_far = np.asarray(dom.level(a + far * (b - a), smoothing=grid.h), dtype=float)
        crossed = f_a * f_far < 0
        def same_side(mid):
            fm = dom.level(a + mid[:, None] * (b - a), smoothing=grid.h)
            return np.asarray(fm, dtype=float) * f_a > 0
        cut = bisect(same_side, np.zeros(len(gj)), np.full(len(gj), far), 52)
        theta = np.where(crossed, cut, far)
        theta = np.clip(theta, 0.15, far)
        all_idx.append(g_flat)
        all_partner.append(p_flat)
        all_theta.append(theta)
        all_side.append(np.full(len(gj), side_code, dtype=np.uint8))

    return GhostLayer(np.concatenate(all_idx).astype(np.int64),
                      np.concatenate(all_partner).astype(np.int64),
                      np.concatenate(all_theta).astype(float),
                      np.concatenate(all_side))


def make_annulus(r1: float, r2: float, resolution: int = 257,
                 extent: float | None = None) -> ConvexRing:
    """Concentric-disk ring; the canonical benchmark geometry."""
    if not (0 < r1 < r2):
        raise BadRadii(f"need 0 < R1 < R2, got {r1!r}, {r2!r}")
    if extent is None:
        extent = 1.025 * r2
    grid = Grid.square(extent, resolution)
    return make_ring(Disk((0.0, 0.0), r1), Disk((0.0, 0.0), r2), grid)


@dataclass(frozen=True)
class RingPair:
    inner_ring: ConvexRing
    outer_ring: ConvexRing


def make_cap_ring(cap: DiniCap, side: str, resolution: int = 257) -> ConvexRing:
    """One of the two barrier rings carried by a cap domain K, on a grid
    that leaves PAD_CELLS empty cells around the outer domain.

    inner: K minus the half-radius ball at (0, r_d);
    outer: the 3 r_d ball at (0, -r_d) minus the point reflection -K.
    """
    r_d = cap.r_d
    if side == "inner":
        inner, outer = Disk((0.0, r_d), r_d / 2), cap
    elif side == "outer":
        inner, outer = Reflected(cap), Disk((0.0, -r_d), 3.0 * r_d)
    else:
        raise OutOfRange(f"ring side must be inner or outer, got {side!r}")

    # both outer domains have square bounding boxes, so the x span is the span
    (x0, x1), (y0, y1) = outer.bbox()
    h_est = (x1 - x0) / max(resolution - 2 * PAD_CELLS - 1, 1)
    pad = PAD_CELLS * h_est
    grid = Grid.from_box(x0 - pad, x1 + pad, y0 - pad, y1 + pad, resolution)
    return make_ring(inner, outer, grid)


def make_rings(cap: DiniCap, resolution: int = 257) -> RingPair:
    """Both barrier rings carried by a cap domain K (see make_cap_ring)."""
    return RingPair(make_cap_ring(cap, "inner", resolution),
                    make_cap_ring(cap, "outer", resolution))


def rasterize(dom: ConvexDomain, grid: Grid):
    """Inside mask and signed distance on grid nodes.

    Distance comes from the exact formula for disks and polygons and from a
    boundary polyline of SDF_BOUNDARY_POINTS vertices otherwise (error well
    below a cell diagonal).
    """
    pts = grid.points()
    (x0, x1), (y0, y1) = dom.bbox()
    if x0 < grid.x0 - grid.h or x1 > grid.x0 + (grid.nx - 1) * grid.h + grid.h \
            or y0 < grid.y0 - grid.h or y1 > grid.y0 + (grid.ny - 1) * grid.h + grid.h:
        raise GridTooSmall("grid does not cover the domain")
    mask = dom.inside(pts, smoothing=grid.h)
    sdf = dom.signed_distance(pts, smoothing=grid.h)
    return mask, sdf


def convexity_midpoint_check(inside_mask: np.ndarray, grid: Grid, n_pairs: int = 10_000,
                             rng: np.random.Generator | None = None) -> bool:
    """Random interior point pairs must have interior midpoints (one-cell slack)."""
    rng = rng or np.random.default_rng(0)
    jj, ii = np.nonzero(inside_mask)
    if len(jj) < 2:
        return True
    a = rng.integers(0, len(jj), size=n_pairs)
    b = rng.integers(0, len(jj), size=n_pairs)
    mj = 0.5 * (jj[a] + jj[b])
    mi = 0.5 * (ii[a] + ii[b])
    ok = np.zeros(n_pairs, dtype=bool)
    for dj in (np.floor(mj), np.ceil(mj)):
        for di in (np.floor(mi), np.ceil(mi)):
            ok |= inside_mask[dj.astype(int), di.astype(int)]
    # one-cell tolerance: any corner of the midpoint cell inside
    return bool(np.all(ok))
