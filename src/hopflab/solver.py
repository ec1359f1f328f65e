"""Energy-based potentials on convex rings and their differential diagnostics.

Discretization: P1 elements on the criss-cross right-triangle mesh over grid
nodes (each cell split along its SW-NE diagonal), with the discrete energy

    J(v) = sum_T F(sqrt(|grad v|_T^2 + delta^2)) * area_T.

For the quadratic law the stationarity rows reproduce the 5-point Laplacian
exactly. Curved Dirichlet boundaries enter through a ghost layer: each ghost
value is the linear extrapolation of its paired interior node through the
boundary cut point, the classical second-order embedded-boundary closure.
The solver drives the stationarity rows at interior nodes to zero (Newton on
the flux-divergence residual with the ghost closure substituted in), with
continuation over the regularization delta; the energy J is tracked along
accepted iterates.

The residual reported everywhere is that same conservative flux-divergence
form of div(H(|grad u|) grad u), assembled from triangle fluxes and divided
by cell area, so a solved field has residual below the solver tolerance
(relative to the ring's flux scale) at every interior node.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# scipy.sparse is imported inside the functions that use it, so commands that
# solve nothing, such as `hopflab check`, do not pay for loading it.

from .errors import DegenerateGradient, GapTooSmall, GridTooSmall, StagnationPoint
from .geometry import ConvexRing, Grid, Mask, _shift, make_ring
from .orlicz import COERCIVITY_RATIO_MAX, OrliczFunction, power

_G_LOWER = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])   # slots (A, B, C)
_G_UPPER = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])   # slots (A, C, D)
_QUADRATIC = power(2.0)                                      # the Laplacian's law
_LEAF = 24                # dissection boxes of at most this many nodes stay whole
GRADIENT_FLOOR = 10.0     # gradients below this many delta_final count as vanishing
MAX_FLOW_STEPS = 200_000  # midpoint steps trace_flow_line takes in each direction
COARSEST = 129            # least nodes a side of a half grid that serves a finer one
TAIL = 2                  # last deltas of the schedule run on the finer grid
KRYLOV_MAX = 12           # GMRES iterations between restarts
KRYLOV_TOL = 1e-6         # relative linear residual a GMRES direction must reach
KRYLOV_CYCLES = 3         # GMRES restarts a Newton direction gets after a refresh
HARMONIC_TOL = 1e-13      # relative linear residual of a Laplace solve
HARMONIC_CYCLES = 4       # GMRES restarts a Laplace solve gets
JACOBI = 0.7              # damping of the two-level cycle's Jacobi sweeps
RESIDUAL_MARGIN = 1e-3    # certificate residual tolerances, relative to flux_scale


@dataclass
class ScalarField:
    """Values on the nodes of one ring; boundary (ghost) nodes hold Dirichlet
    closures. The grid and the node mask are the ring's."""
    ring: ConvexRing
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.ring.grid

    @property
    def mask(self) -> np.ndarray:
        return self.ring.mask

    def interior_mask(self):
        return self.mask == Mask.INTERIOR

    def valid_mask(self):
        return self.mask != Mask.OUTSIDE

    def interior_values(self):
        return self.values[self.interior_mask()]

    def copy_with(self, values, meta=None):
        return ScalarField(self.ring, np.asarray(values, dtype=float),
                           dict(self.meta if meta is None else meta))

    def interp(self, pts):
        """Bilinear interpolation; NaN where any stencil corner lacks a value."""
        return _bilinear(self.grid, self.valid_mask(), (self.values,), pts)[0]


def _bilinear(grid: Grid, valid: np.ndarray, arrays, pts):
    """Bilinear interpolation of each array from one cell lookup; NaN off the
    grid and where any cell corner is not valid."""
    corners, weights, inside = grid.cell_corners(pts)
    ok = inside
    for jc in corners:
        ok = ok & valid[jc]
    out = []
    for v in arrays:
        a, b, c, d = (wgt * v[jc] for wgt, jc in zip(weights, corners))
        out.append(np.where(ok, a + b + c + d, np.nan))
    return out


@dataclass(frozen=True)
class SolveOptions:
    """Continuation and stopping rule of the Newton solve.

    delta_schedule: strictly decreasing regularizations, the last >= 1e-8;
    tol: the residual max-norm relative to the ring's flux scale (see
    `flux_scale`), so one setting covers mild and strongly degenerate laws;
    max_iter: Newton iterates per delta stage.

    The Laplace solve runs once per ring and serves any boundary data,
    including the harmonic warm start of the Newton solve. It and every
    Newton step are solved by GMRES with the ring's `_preconditioner`: a
    V-cycle over the ring's hierarchy, so only operators of the coarsest
    ring are factorised, in nested-dissection order. Each grid's Newton
    steps reach a relative linear residual of KRYLOV_TOL with a held coarse
    solve that the grid's first step, and any step where GMRES misses,
    builds from its own Jacobian (see `_Directions`)."""
    delta_schedule: tuple = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    tol: float = 1e-8
    max_iter: int = 60

    def __post_init__(self):
        sched = tuple(self.delta_schedule)
        if not sched or not all(np.isfinite(sched)):
            raise ValueError(f"delta_schedule {sched!r} is not a list of finite numbers")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError(f"delta_schedule {sched!r} does not decrease strictly")
        if sched[-1] < 1e-8:
            raise ValueError(f"delta_schedule ends at {sched[-1]!r}, below 1e-8")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol {self.tol!r} is not a positive number")
        if self.max_iter < 1:
            raise ValueError(f"max_iter {self.max_iter!r} is below 1")


def flux_scale(q, of: OrliczFunction, gap: float) -> float:
    """Median flux h(q) over gradient magnitudes q, divided by the ring gap:
    the natural size of the discrete operator, which scales every residual
    tolerance."""
    flux = np.asarray(of.h(np.minimum(q, of.t_max)), dtype=float)
    return float(np.median(flux)) / max(gap, 1e-12)


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------

class _Assembly:
    """Triangle lists, the ghost closure, and energy/gradient/Hessian kernels.

    The unknown numbering and the Jacobian pattern are built on first use,
    so an assembly that only evaluates residuals (`operator_residual`) pays
    for neither. Nothing here refers back to the ring, which caches it."""

    def __init__(self, ring: ConvexRing):
        self.gap = ring.gap
        grid = ring.grid
        self.h = grid.h
        ny, nx = grid.ny, grid.nx
        self.nx = nx
        self.n_nodes = ny * nx
        mask_flat = ring.mask.ravel()
        valid = mask_flat > 0
        interior = mask_flat == Mask.INTERIOR

        idx = np.arange(self.n_nodes).reshape(ny, nx)
        A = idx[:-1, :-1].ravel()
        B = A + 1
        D = A + nx
        C = D + 1
        low_ok = valid[A] & valid[B] & valid[C] & (interior[A] | interior[B] | interior[C])
        up_ok = valid[A] & valid[C] & valid[D] & (interior[A] | interior[C] | interior[D])
        self.tris = (np.stack([A[low_ok], B[low_ok], C[low_ok]], axis=1),
                     np.stack([A[up_ok], C[up_ok], D[up_ok]], axis=1))
        self.gmats = (_G_LOWER / self.h, _G_UPPER / self.h)
        self.area = 0.5 * self.h * self.h

        self._interior = interior
        self.n_unknown = int(np.count_nonzero(interior))
        gh = ring.ghosts
        self._ghost_index = gh.index
        self._ghost_partner = gh.partner
        self._ghost_side = gh.side
        self._ghost_theta = gh.theta
        self._ghost_weight = 1.0 - 1.0 / gh.theta   # d ghost value / d partner value

    @cached_property
    def interior_ids(self):
        """Interior node indices in unknown order (nested dissection)."""
        ids = np.flatnonzero(self._interior)
        rows_j, cols_i = np.divmod(ids, self.nx)
        return ids[_dissection_order(cols_i, rows_j)]

    @cached_property
    def _ghost_column(self):
        """Unknown index of each ghost's partner."""
        return self._unknown_of()[self._ghost_partner]

    def _unknown_of(self):
        """Unknown index of every node; -1 off the interior."""
        unk = np.full(self.n_nodes, -1, dtype=np.int64)
        unk[self.interior_ids] = np.arange(self.n_unknown)
        return unk

    def closure_offset(self, inner_value: float, outer_value: float):
        q0 = np.zeros(self.n_nodes)
        data = np.where(self._ghost_side == Mask.INNER_BOUNDARY,
                        inner_value, outer_value)
        q0[self._ghost_index] = data / self._ghost_theta
        return q0

    def full_values(self, u: np.ndarray, q0: np.ndarray):
        """Node values: u on the interior, the ghost closure on ghosts."""
        v = q0.copy()
        v[self.interior_ids] += u
        v[self._ghost_index] += self._ghost_weight * u[self._ghost_column]
        return v

    def _faces(self, v_full, delta: float):
        """Per triangle list: (triangles, G, face gradients g of shape (n, 2),
        regularised |g| = sqrt(|g|^2 + delta^2))."""
        for tri, G in zip(self.tris, self.gmats):
            g = v_full[tri] @ G.T
            yield tri, G, g, np.sqrt(g[:, 0] ** 2 + g[:, 1] ** 2 + delta * delta)

    def energy(self, v_full, of: OrliczFunction, delta: float) -> float:
        total = 0.0
        for _, _, _, q in self._faces(v_full, delta):
            total += float(np.sum(of.F(np.minimum(q, of.t_max)))) * self.area
        return total

    def gradient_full(self, v_full, of: OrliczFunction, delta: float):
        grad = np.zeros(self.n_nodes)
        for tri, G, g, q in self._faces(v_full, delta):
            qs = np.maximum(q, 1e-30)
            Hq = of.h(np.minimum(qs, of.t_max)) / qs
            contrib = (self.area * Hq)[:, None] * (g @ G)
            np.add.at(grad, tri.ravel(), contrib.ravel())
        return grad

    def _stencil(self, v_full, of: OrliczFunction, delta: float):
        """The node Hessian of the energy in stencil form, flattened: entry
        k * n_nodes + m is node m's coupling k of _COUPLINGS (self, E, N,
        NE), and one last entry is zero. A W, S or SW coupling is the E, N
        or NE coupling of that neighbour, since the Hessian is symmetric."""
        S = np.zeros(len(_COUPLINGS) * self.n_nodes + 1)
        rows = S[:-1].reshape(len(_COUPLINGS), self.n_nodes)
        for (tri, G, g, q), pairs in zip(self._faces(v_full, delta), _TRIANGLE_PAIRS):
            nodes = tri.T                   # (3, n): slot-major
            qs = np.minimum(np.maximum(q, 1e-30), of.t_max)
            hv = of.h(qs)
            hp = of.h_prime(qs)
            aHq = self.area * (hv / qs)
            aDq = self.area * ((hp * qs - hv) / qs ** 3)
            a = (g @ G).T                   # (3, n): per-slot directional terms
            base = G.T @ G                  # (3, 3)
            for k, s, t in pairs:
                np.add.at(rows[k], nodes[s], aHq * base[s, t] + aDq * a[t] * a[s])
        return S

    @cached_property
    def _pattern(self):
        return _JacobianPattern.build(self)

    def residual_rows(self, v_full, of, delta):
        """Stationarity rows at interior nodes (ghosts already substituted)."""
        return self.gradient_full(v_full, of, delta)[self.interior_ids]

    def flux_scale(self, v_full, of, delta) -> float:
        """flux_scale over the face gradients of both triangle lists."""
        q = np.concatenate([q for _, _, _, q in self._faces(v_full, delta)])
        return flux_scale(q, of, self.gap)

    def jacobian_rows(self, v_full, of, delta):
        """d residual_rows / d u as a CSC matrix in unknown order, exact
        zeros dropped."""
        import scipy.sparse as sp
        pat = self._pattern
        S = self._stencil(v_full, of, delta)
        data = S[pat.source]
        np.add.at(data, pat.ghost_slot, S[pat.ghost_source] * pat.ghost_weight)
        indices, indptr = pat.indices, pat.indptr
        keep = data != 0.0
        if not keep.all():
            kept = np.zeros(len(keep) + 1, dtype=np.int32)
            np.cumsum(keep, out=kept[1:])
            data, indices, indptr = data[keep], indices[keep], kept[indptr]
        return sp.csc_matrix((data, indices, indptr),
                             shape=(self.n_unknown, self.n_unknown))


# the couplings stored per node, self, E, N and NE, as (row, column) steps
_COUPLINGS = ((0, 0), (0, 1), (1, 0), (1, 1))
# per triangle list, (coupling, row slot, column slot): lower (A, B, C),
# upper (A, C, D), with B = A + E, C = A + NE, D = A + N
_TRIANGLE_PAIRS = (((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 1, 2), (3, 0, 2)),
                   ((0, 0, 0), (0, 1, 1), (0, 2, 2), (3, 0, 1), (2, 0, 2), (1, 2, 1)))


@dataclass(frozen=True)
class _JacobianPattern:
    """Fixed CSC pattern of the reduced Jacobian of one ring.

    Slot s holds stencil entry source[s] (the zero slot where a coupling
    reaches the column only through the ghost closure). Each ghost entry
    adds stencil entry ghost_source times ghost_weight, the closure's
    1 - 1/theta, into ghost_slot: the row's coupling to a ghost moves to
    the ghost's partner column."""
    indices: np.ndarray         # int32 row of each slot
    indptr: np.ndarray          # int32 column starts
    source: np.ndarray          # int32 index into _Assembly._stencil
    ghost_slot: np.ndarray
    ghost_source: np.ndarray
    ghost_weight: np.ndarray

    @classmethod
    def build(cls, asm: _Assembly) -> _JacobianPattern:
        n, n_unknown, ids = asm.n_nodes, asm.n_unknown, asm.interior_ids
        unknown = asm._unknown_of()
        ghost_of = np.full(n, -1, dtype=np.int64)
        ghost_of[asm._ghost_index] = np.arange(len(asm._ghost_index))
        rows, cols, srcs, ghosts = [], [], [], []
        for k, (dj, di) in enumerate(_COUPLINGS):
            step = dj * asm.nx + di
            for nb in (ids + step, ids - step) if step else (ids,):
                r = np.flatnonzero((nb >= 0) & (nb < n))
                nb = nb[r]
                g = ghost_of[nb]
                col = np.where(g >= 0, asm._ghost_column[g], unknown[nb])
                keep = col >= 0
                rows.append(r[keep])
                cols.append(col[keep])
                srcs.append(k * n + np.minimum(ids[r], nb)[keep])
                ghosts.append(g[keep])
        rows, cols, srcs, ghosts = map(np.concatenate, (rows, cols, srcs, ghosts))
        keys, slot = np.unique(cols * n_unknown + rows, return_inverse=True)
        direct = ghosts < 0
        source = np.full(len(keys), len(_COUPLINGS) * n, dtype=np.int32)
        source[slot[direct]] = srcs[direct]
        indptr = np.zeros(n_unknown + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n_unknown, minlength=n_unknown), out=indptr[1:])
        return cls((keys % n_unknown).astype(np.int32), indptr, source,
                   slot[~direct].astype(np.int32), srcs[~direct].astype(np.int32),
                   asm._ghost_weight[ghosts[~direct]])


def _dissection_order(i, j):
    """Nested-dissection numbering of the nodes at columns i, rows j
    (A. George, "Nested dissection of a regular finite element mesh",
    SIAM J. Numer. Anal. 10, 1973): indices into i and j.

    A box of more than _LEAF nodes splits at the middle line of its longer
    side; both sides are numbered first, recursively, and the line last. One
    line separates because the criss-cross stencil couples a node only to
    its E, W, N, S and SW-NE diagonal neighbours. Boxes of at most _LEAF
    nodes keep the given order."""
    def split(idx):
        if len(idx) <= _LEAF:
            return [idx]
        ci, cj = i[idx], j[idx]
        i0, i1, j0, j1 = ci.min(), ci.max(), cj.min(), cj.max()
        coord, line = (ci, (i0 + i1) // 2) if i1 - i0 >= j1 - j0 else (cj, (j0 + j1) // 2)
        return split(idx[coord < line]) + split(idx[coord > line]) + [idx[coord == line]]
    return np.concatenate(split(np.arange(len(i))))


def _lu(A):
    """SuperLU factor of an operator of the coarsest ring: a Jacobian, or a
    finer ring's Jacobian carried down by Galerkin products (see
    `_preconditioner`). Its unknowns are already numbered in nested-dissection
    order, so SuperLU keeps the column order as given."""
    import scipy.sparse.linalg as spla
    return spla.splu(A, permc_spec="NATURAL")


# --------------------------------------------------------------------------
# the level hierarchy and the V-cycle
# --------------------------------------------------------------------------

def _half_ring(ring: ConvexRing):
    """The same ring over every second node of its grid, built once per ring;
    None where that grid has fewer than COARSEST nodes a side or the ring
    cannot be built on it. Each level keeps make_ring's smoothing of one of
    its own cells."""
    g = ring.grid
    if min(g.nx + 1, g.ny + 1) // 2 < COARSEST:
        return None

    def build(r):
        try:
            return make_ring(r.inner, r.outer,
                             Grid(g.x0, g.y0, (g.nx + 1) // 2, (g.ny + 1) // 2, 2 * g.h))
        except (GapTooSmall, GridTooSmall):
            return None
    return ring.cached("half", build)


def _prolongation(ring: ConvexRing):
    """The bilinear prolongation P from the interior unknowns of the half ring
    to those of ring, as a CSR matrix built once per ring. Fine node (2J, 2I)
    takes coarse node (J, I), and a fine node between two or four coarse
    nodes their mean. Weights on coarse nodes that are not unknowns are
    dropped, so rows next to the boundary sum to less than one."""
    def build(r):
        import scipy.sparse as sp
        asm, half = _assembly(r), _half_ring(r)
        casm, cg = _assembly(half), half.grid
        coarse = casm._unknown_of()
        j, i = np.divmod(asm.interior_ids, asm.nx)
        rows, cols, weights = [], [], []
        for dj in (0, 1):
            for di in (0, 1):
                w = np.where(j % 2, 0.5, 1.0 - dj) * np.where(i % 2, 0.5, 1.0 - di)
                J, I = j // 2 + dj, i // 2 + di
                col = np.full(len(j), -1)
                on = (w > 0) & (J < cg.ny) & (I < cg.nx)
                col[on] = coarse[J[on] * cg.nx + I[on]]
                keep = np.flatnonzero(col >= 0)
                rows.append(keep)
                cols.append(col[keep])
                weights.append(w[keep])
        return sp.csr_matrix((np.concatenate(weights),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=(asm.n_unknown, casm.n_unknown))
    return ring.cached("prolongation", build)


def _galerkin(A, P):
    """The Galerkin operator P^T A P of A on the half grid, in CSC form."""
    return (P.T @ (A @ P)).tocsc()


def _two_level(A, P, coarse_solve):
    """The two-level cycle for A x = r, as a map r -> x (Brandt, Math. Comp.
    31, 1977; Trottenberg, Oosterlee & Schueller, *Multigrid*, 2001): from
    x = 0, two Jacobi sweeps damped by JACOBI with A's diagonal, the coarse
    correction x += P coarse_solve(P^T (r - A x)), and two more sweeps.
    coarse_solve approximates the inverse of the Galerkin operator of A or
    of an earlier Jacobian (see `_preconditioner`). The map is linear and
    fixed, so it right-preconditions GMRES."""
    d = JACOBI / A.diagonal()

    def cycle(r):
        x = d * r
        x += d * (r - A @ x)
        x += P @ coarse_solve(P.T @ (r - A @ x))
        x += d * (r - A @ x)
        x += d * (r - A @ x)
        return x
    return cycle


def _preconditioner(ring: ConvexRing, A):
    """The preconditioner of an operator A on ring's unknowns, as a map
    r -> x: the LU solve on a ring with no half ring, and on any other ring
    the two-level cycle whose coarse solve is this preconditioner of the
    Galerkin operator on the half ring. So the cycles nest into a V-cycle,
    and only the coarsest ring's operators are factorised."""
    half = _half_ring(ring)
    if half is None:
        return _lu(A).solve
    P = _prolongation(ring)
    return _two_level(A, P, _preconditioner(half, _galerkin(A, P)))


# --------------------------------------------------------------------------
# solvers
# --------------------------------------------------------------------------

def _harmonic_unknowns(ring: ConvexRing, inner_value: float, outer_value: float):
    """Interior unknowns of the Laplace solve with data inner/outer value.

    One solve with data (1, 0) per ring, cached on the ring as w; any other
    data give outer + (inner - outer) * w, exactly in exact arithmetic
    because the ghost closure reproduces constants, and bitwise w itself
    for (1, 0). The solve is GMRES with the ring's `_preconditioner`, to a
    relative residual of HARMONIC_TOL."""
    def solve(r):
        asm = _assembly(r)
        v = asm.full_values(np.zeros(asm.n_unknown), asm.closure_offset(1.0, 0.0))
        A = asm.jacobian_rows(v, _QUADRATIC, 0.0)
        b = -asm.residual_rows(v, _QUADRATIC, 0.0)
        return _gmres(A, _preconditioner(r, A), b, HARMONIC_TOL, HARMONIC_CYCLES,
                      last=True)[0]
    w = ring.cached("harmonic", solve)
    return outer_value + (inner_value - outer_value) * w


def solve_harmonic(ring: ConvexRing, opts: SolveOptions | None = None,
                   inner_value: float = 1.0, outer_value: float = 0.0) -> ScalarField:
    """Discrete Laplace solve (5-point rows with the ghost closure); one
    solve per ring serves every boundary data."""
    opts = opts or SolveOptions()
    fld = _solved_field(ring, _harmonic_unknowns(ring, inner_value, outer_value),
                        _QUADRATIC, 0.0, inner_value, outer_value)
    scale = max(1.0, _assembly(ring).flux_scale(fld.values.ravel(), _QUADRATIC, 0.0))
    fld.meta["converged"] = fld.meta["residual"] < max(opts.tol, 1e-7) * scale
    return fld


def solve_h_potential(ring: ConvexRing, of: OrliczFunction,
                      opts: SolveOptions | None = None,
                      inner_value: float = 1.0, outer_value: float = 0.0) -> ScalarField:
    """Minimize the ring energy of F with data inner_value/outer_value.

    Continuation over the delta schedule regularizes the degenerate or
    singular gradient law; each stage runs damped Newton on the convex
    discrete energy. On grids of at least 2 * COARSEST - 1 nodes a side the
    schedule first runs on the half grid (see `_continuation`); meta["log"]
    holds the iterates on this ring's grid, meta["levels"] the iterates,
    factorisations and GMRES iterations per grid. Each factorisation is an
    LU on the coarsest ring: of a Jacobian there, or of a finer grid's
    Jacobian carried down to it by Galerkin products. Non-convergence is
    recorded on meta, not raised.
    """
    opts = opts or SolveOptions()
    _coercivity_warning(of)
    u, J, converged, log, levels = _continuation(ring, of, opts, inner_value, outer_value)
    fld = _solved_field(ring, u, of, opts.delta_schedule[-1], inner_value, outer_value)
    fld.meta.update(converged=converged, energy=J, log=log, levels=levels)
    return fld


def _solved_field(ring, u, of, delta, inner_value, outer_value) -> ScalarField:
    """The field of interior unknowns u on ring, with the ghost closure of the
    data; meta holds the residual max-norm over h^2 at this delta, the data
    and delta_final."""
    asm = _assembly(ring)
    v = asm.full_values(u, asm.closure_offset(inner_value, outer_value))
    res = float(np.max(np.abs(asm.residual_rows(v, of, delta)))) / asm.h ** 2
    meta = {"residual": res, "delta_final": delta,
            "inner_value": inner_value, "outer_value": outer_value}
    return ScalarField(ring, v.reshape(ring.grid.ny, ring.grid.nx), meta)


def _continuation(ring, of, opts, inner_value, outer_value):
    """Newton continuation on ring: (interior unknowns, energy, converged,
    log, levels).

    The rings of a solve form a hierarchy: each ring with a half ring (see
    `_half_ring`) holds it, and the prolongation P from it (see
    `_prolongation`), in its cache, so every solve of that ring shares them.
    Nested iteration (Brandt, Math. Comp. 31, 1977): when the half ring
    solves the whole schedule (see `_coarse_start`), the last TAIL stages
    here start from this ring's harmonic plus P times the coarse solution's
    difference from the half ring's harmonic, so a node with no coarse
    weight keeps the harmonic; otherwise the whole schedule runs here from
    the harmonic. The Newton directions run GMRES preconditioned by the
    V-cycle (see `_Directions`). The log holds this grid's iterates
    only; levels lists (nodes a side, logged iterates, factorisations,
    GMRES iterations) of each grid whose solution fed this one, coarsest
    first, this grid last."""
    start = _coarse_start(ring, of, opts, inner_value, outer_value)
    u = _harmonic_unknowns(ring, inner_value, outer_value)
    P = None if _half_ring(ring) is None else _prolongation(ring)
    if start is None:
        levels, schedule = [], opts.delta_schedule
    else:
        (coarse_u, levels), schedule = start, opts.delta_schedule[-TAIL:]
        coarse_w = _harmonic_unknowns(_half_ring(ring), inner_value, outer_value)
        u = u + P @ (coarse_u - coarse_w)
    asm = _assembly(ring)
    q0 = asm.closure_offset(inner_value, outer_value)
    directions = _Directions(ring)  # holds the newest coarse solve across the stages
    log = []
    converged = True
    J = None
    for delta in schedule:
        u, J, stage_ok, stage_log = _newton_stage(asm, of, q0, u, delta, opts, directions)
        log += [(len(log) + k, delta) + entry for k, entry in enumerate(stage_log)]
        if not stage_ok:
            converged = False
            break
    return u, J, converged, log, levels + [
        (ring.grid.nx, len(log), directions.factorisations, directions.krylov)]


def _coarse_start(ring, of, opts, inner_value, outer_value):
    """(interior unknowns, levels) of the whole schedule solved on the half
    ring; None where the ring has none, the schedule has at most TAIL
    deltas, or the coarse solve does not converge."""
    half = _half_ring(ring)
    if half is None or len(opts.delta_schedule) <= TAIL:
        return None
    u, _, ok, _, levels = _continuation(half, of, opts, inner_value, outer_value)
    return (u, levels) if ok else None


def _newton_stage(asm, of, q0, u, delta, opts, directions):
    """Damped Newton on the stationarity rows; merit is the squared residual.

    Each direction du solves the Jacobian system A du = -G to a relative
    residual eta < 1 (see `_Directions`): to eta <= KRYLOV_TOL by GMRES, or
    to the eta of GMRES's last iterate, below 1 unless GMRES stalls, where a
    step misses even with a new coarse solve. Since
    G.A du = -|G|^2 + G.(A du + G) <= -(1 - eta)|G|^2 < 0, every direction
    descends on the merit |G|^2 (the inexact Newton condition of Dembo,
    Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982); a failed
    backtracking line search therefore means the residual assembly has
    reached its floating-point floor. Near the tolerance that counts as
    converged; far from it the stage reports failure with its last accepted
    iterate.
    """
    v = asm.full_values(u, q0)
    G = asm.residual_rows(v, of, delta)
    phi = _dot(G, G)
    scale = max(1.0, asm.flux_scale(v, of, delta))
    stage_log = []
    for _ in range(opts.max_iter):
        res = float(np.max(np.abs(G))) / asm.h ** 2
        J = asm.energy(v, of, delta)
        stage_log.append((J, res))
        if res < opts.tol * scale:
            return u, J, True, stage_log
        du = directions.solve(asm.jacobian_rows(v, of, delta), G)
        step = 1.0
        accepted = False
        for _ in range(40):
            u_try = u + step * du
            v_try = asm.full_values(u_try, q0)
            G_try = asm.residual_rows(v_try, of, delta)
            phi_try = _dot(G_try, G_try)
            if phi_try <= (1.0 - 2e-4 * step) * phi:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # rounding floor of the flux cancellation: close enough, or a stall
            return u, J, res < 100.0 * opts.tol * scale, stage_log
        u, v, G, phi = u_try, v_try, G_try, phi_try
    return u, asm.energy(v, of, delta), False, stage_log


class _Directions:
    """The Newton directions of one grid, A du = -G, by GMRES with a held
    coarse solve.

    The coarse solve is the `_preconditioner` of a Jacobian on the coarsest
    grid, and on a finer grid that of the Jacobian's Galerkin operator
    P^T A P on the half ring, used inside the two-level cycle of each step's
    own Jacobian (see `_two_level`). The first step builds it. Each later
    step makes one `_gmres` try with the held coarse solve; if that misses
    KRYLOV_TOL within KRYLOV_MAX iterations, the step builds a new one from
    its own Jacobian and holds that instead. After a build the step runs
    GMRES with up to KRYLOV_CYCLES restarts and takes its last iterate
    should that still miss (see `_newton_stage`). Nested iteration starts
    each grid next to its solution, so a held coarse solve stays close to
    the later Jacobians, across delta stages, and no grid builds more often
    than it takes Newton steps. Counts the builds, one LU each, and the
    GMRES iterations."""

    def __init__(self, ring: ConvexRing):
        half = _half_ring(ring)
        self.coarse_ring = ring if half is None else half
        self.P = None if half is None else _prolongation(ring)
        self.coarse = None
        self.factorisations = 0
        self.krylov = 0

    def solve(self, A, G):
        if self.coarse is not None:
            du, iterations = _gmres(A, self._precondition(A), -G)
            self.krylov += iterations
            if du is not None:
                return du
        self.coarse = None              # no second factor alive while _lu runs
        self.coarse = _preconditioner(self.coarse_ring,
                                      A if self.P is None else _galerkin(A, self.P))
        self.factorisations += 1
        du, iterations = _gmres(A, self._precondition(A), -G, KRYLOV_TOL, KRYLOV_CYCLES,
                                last=True)
        self.krylov += iterations
        return du

    def _precondition(self, A):
        return self.coarse if self.P is None else _two_level(A, self.P, self.coarse)


def _dot(a, b) -> float:
    """a . b summed by numpy's own loop, not by BLAS, whose sums depend on
    its thread count; so the solves give the same bits under any count."""
    return float(np.einsum("i,i", a, b))


def _gmres(A, precondition, b, tol=KRYLOV_TOL, cycles=1, last=False):
    """GMRES for A x = b, right-preconditioned, restarted every KRYLOV_MAX
    iterations from the true residual (Saad & Schultz, SIAM J. Sci. Stat.
    Comput. 7, 1986): (x, iterations), with x None when |A x - b| <= tol |b|
    is not met within `cycles` restarts, or the last iterate if `last`.
    Modified Gram-Schmidt and Givens rotations in a fixed order, and every
    inner product through `_dot`, so reruns repeat x bit for bit."""
    beta = np.sqrt(_dot(b, b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    V = np.zeros((KRYLOV_MAX + 1, len(b)))
    H = np.zeros((KRYLOV_MAX + 1, KRYLOV_MAX))
    cs, sn = np.zeros(KRYLOV_MAX), np.zeros(KRYLOV_MAX)
    g = np.zeros(KRYLOV_MAX + 1)
    x, r, r_norm, iterations = None, b, beta, 0
    for attempt in range(cycles):
        g[:] = 0.0
        V[0], g[0] = r / r_norm, r_norm
        for k in range(KRYLOV_MAX):
            iterations += 1
            w = A @ precondition(V[k])
            for i in range(k + 1):
                H[i, k] = _dot(w, V[i])
                w -= H[i, k] * V[i]
            H[k + 1, k] = np.sqrt(_dot(w, w))
            V[k + 1] = w / H[k + 1, k] if H[k + 1, k] > 0.0 else 0.0
            for i in range(k):
                H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                        cs[i] * H[i + 1, k] - sn[i] * H[i, k])
            rot = np.hypot(H[k, k], H[k + 1, k])
            cs[k], sn[k] = H[k, k] / rot, H[k + 1, k] / rot
            H[k, k], H[k + 1, k] = rot, 0.0
            g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
            restart = k == KRYLOV_MAX - 1 and (last or attempt < cycles - 1)
            if abs(g[k + 1]) <= tol * beta or restart:
                # the rotated residual is the true one only up to rounding
                dx = precondition(np.linalg.solve(H[:k + 1, :k + 1], g[:k + 1]) @ V[:k + 1])
                x_try = dx if x is None else x + dx
                r = b - A @ x_try
                r_norm = np.sqrt(_dot(r, r))
                if r_norm <= tol * beta:
                    return x_try, iterations
                if restart:
                    x = x_try
    return (x if last else None), iterations


def _coercivity_warning(of: OrliczFunction):
    if of.kind != "custom":
        return
    # from the table's first positive knot: on the interval below it, the
    # PCHIP of an exact power law is far from that law
    ts = np.geomspace(of._table[0][1], of.t_max / 2, 64)
    hs = of.h(ts)
    slope = np.polyfit(np.log(ts), np.log(np.maximum(hs, 1e-300)), 1)[0]
    ratio = hs / ts ** slope
    if float(np.max(ratio) / max(np.min(ratio), 1e-300)) > COERCIVITY_RATIO_MAX:
        warnings.warn("flow law failed a quick coercivity screen; "
                      "the minimization may be ill-posed", stacklevel=3)


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

def operator_residual(fld: ScalarField, of: OrliczFunction,
                      delta: float = 0.0) -> ScalarField:
    """Conservative flux-divergence residual of div(H(|grad u|) grad u).

    Assembled from the same triangle fluxes the solver drives to zero, so a
    solved field has residual below the solver tolerance (relative to the
    ring's flux scale) at every interior node.
    """
    asm = _assembly(fld.ring)
    grad = asm.gradient_full(fld.values.ravel(), of, delta)
    res = np.zeros_like(grad)
    interior = fld.mask.ravel() == Mask.INTERIOR
    res[interior] = -grad[interior] / asm.h ** 2
    return fld.copy_with(res.reshape(fld.values.shape), meta={})


def _assembly(ring: ConvexRing) -> _Assembly:
    return ring.cached("assembly", _Assembly)


@dataclass
class LevelDiagnostics:
    grad_norm: np.ndarray
    inf_lap: np.ndarray
    curvature: np.ndarray
    laplacian: np.ndarray
    trusted: np.ndarray        # ring.trusted() minus vanishing gradients


def central_gradient(values: np.ndarray, h: float):
    """Central differences (gx, gy); NaN where the stencil leaves the array."""
    gx = np.full(values.shape, np.nan)
    gy = np.full(values.shape, np.nan)
    gx[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2 * h)
    gy[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2 * h)
    return gx, gy


def node_gradients(values: np.ndarray, usable: np.ndarray, h: float):
    """(gx, gy) on the usable nodes. Per axis: central differences where both
    neighbours are usable, else the second-order forward formula, else the
    backward one; NaN where none applies and off the usable nodes."""
    out = []
    for g, (dj, di) in zip(central_gradient(values, h), ((0, 1), (1, 0))):
        at = {k: _shift(values, k * dj, k * di, np.nan) for k in (-2, -1, 1, 2)}
        ok = {k: _shift(usable, k * dj, k * di, False) for k in at}
        fwd = (-3 * values + 4 * at[1] - at[2]) / (2 * h)
        bwd = -((-3 * values + 4 * at[-1] - at[-2]) / (2 * h))
        g = np.select([ok[1] & ok[-1], ok[1] & ok[2], ok[-1] & ok[-2]], [g, fwd, bwd],
                      np.nan)
        g[~usable] = np.nan
        out.append(g)
    return tuple(out)


def _gradient_floor(fld: ScalarField) -> float:
    """GRADIENT_FLOOR times the field's final delta (1e-6 if unrecorded, >= 1e-12)."""
    return GRADIENT_FLOOR * max(fld.meta.get("delta_final", 1e-6), 1e-12)


def level_diagnostics(fld: ScalarField) -> LevelDiagnostics:
    """Central-difference gradient, infinity-Laplacian and level-set curvature.

    curvature is positive where superlevel sets are convex; for a harmonic
    field the identity inf_lap = curvature * |grad|^3 (two dimensions) holds
    up to the discrete Laplacian defect. Nodes with |grad| below
    `_gradient_floor` are vanishing and left out of the trusted nodes.
    """
    v = fld.values
    h = fld.grid.h
    vE, vW = _shift(v, 0, 1, np.nan), _shift(v, 0, -1, np.nan)
    vN, vS = _shift(v, 1, 0, np.nan), _shift(v, -1, 0, np.nan)
    vNE, vSW = _shift(v, 1, 1, np.nan), _shift(v, -1, -1, np.nan)
    vNW, vSE = _shift(v, 1, -1, np.nan), _shift(v, -1, 1, np.nan)

    wx, wy = central_gradient(v, h)
    wxx = (vE - 2 * v + vW) / h ** 2
    wyy = (vN - 2 * v + vS) / h ** 2
    wxy = (vNE + vSW - vNW - vSE) / (4 * h ** 2)
    gn = np.hypot(wx, wy)

    trusted = fld.ring.trusted() & ~(gn < _gradient_floor(fld))

    inf_lap = wx ** 2 * wxx + 2 * wx * wy * wxy + wy ** 2 * wyy
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = -(wxx * wy ** 2 - 2 * wx * wy * wxy + wyy * wx ** 2) / gn ** 3
    lap = wxx + wyy
    return LevelDiagnostics(gn, inf_lap, kappa, lap, trusted)


@dataclass(frozen=True)
class GradientBounds:
    c: float
    C: float
    n_core: int
    n_near: int


def gradient_bounds(fld: ScalarField) -> GradientBounds:
    """Bounds 0 < c < |grad w| < C from `node_gradients` over the interior
    of the field's ring: central differences on trusted nodes, and every
    other interior node whose two components are estimable."""
    ring = fld.ring
    interior = ring.interior()
    core = ring.trusted()
    gx, gy = node_gradients(fld.values, interior, fld.grid.h)
    gn = np.hypot(gx, gy)
    gn_core = gn[core]
    gn_core = gn_core[np.isfinite(gn_core)]
    gn_near = gn[interior & ~core & np.isfinite(gx) & np.isfinite(gy)]

    allg = np.concatenate([gn_core, gn_near])
    if allg.size == 0:
        raise DegenerateGradient("no cells with measurable gradient")
    c = float(np.min(allg))
    C = float(np.max(allg))
    if c < max(1e-8, 1e-3 * C):
        raise DegenerateGradient(f"lower gradient bound {c!r} is numerically zero")
    return GradientBounds(c, C, int(gn_core.size), int(gn_near.size))


def trace_flow_line(fld: ScalarField, x0):
    """Gradient flow line through x0 parametrized by the level value.

    Integrates dx/ds = grad w / |grad w|^2 in both directions with midpoint
    steps capped at half a cell, at most MAX_FLOW_STEPS each way, returning
    monotone (w, |grad w|) samples; a gradient below `_gradient_floor` stops
    the trace.
    """
    grad_floor = _gradient_floor(fld)
    valid = fld.valid_mask()
    h = fld.grid.h
    arrays = (fld.values, *node_gradients(fld.values, valid, h))

    def sample(x):
        return tuple(float(s) for s in _bilinear(fld.grid, valid, arrays, x))

    def trace(direction):
        out = []
        x = np.asarray(x0, dtype=float).copy()
        for _ in range(MAX_FLOW_STEPS):
            w, cx, cy = sample(x)
            if not np.isfinite(w) or not np.isfinite(cx):
                break
            gn = float(np.hypot(cx, cy))
            if gn < grad_floor:
                if 0.05 < w < 0.95:
                    raise StagnationPoint(f"gradient {gn!r} below floor at {x!r}")
                break
            out.append((w, gn))
            if (direction > 0 and w >= 1.0) or (direction < 0 and w <= 0.0):
                break
            dw = direction * min(1e-2, 0.5 * h * gn)
            xm = x + 0.5 * dw * np.array([cx, cy]) / gn ** 2
            wm, mx, my = sample(xm)
            if not np.isfinite(mx):
                x = x + dw * np.array([cx, cy]) / gn ** 2
                continue
            mn = float(np.hypot(mx, my))
            if mn < grad_floor:
                break
            x = x + dw * np.array([mx, my]) / mn ** 2
        return out

    w0, cx0, cy0 = sample(np.asarray(x0, dtype=float))
    if not np.isfinite(w0) or np.hypot(cx0, cy0) < grad_floor:
        raise StagnationPoint(f"no usable gradient at the seed {x0!r}")
    down = trace(-1.0)
    up = trace(+1.0)
    pts = list(reversed(down)) + up
    # enforce strict monotonicity in w (also drops the duplicated seed sample)
    cleaned = []
    last = -np.inf
    for w, gn in pts:
        if w > last:
            cleaned.append((float(w), float(gn)))
            last = w
    return cleaned

