import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import erode8, radial_potential
from hopflab import (Mask, ScalarField, SolveOptions, custom, gradient_bounds,
                     level_diagnostics, make_annulus, operator_residual, power,
                     solve_h_potential, solve_harmonic, solver, trace_flow_line)
from hopflab.geometry import convexity_midpoint_check
from hopflab.solver import GradientBounds, _dissection_order, node_gradients
from hopflab.errors import DegenerateGradient, StagnationPoint


def annulus_radius(ring):
    pts = ring.grid.points()
    return np.hypot(pts[..., 0], pts[..., 1])


# --- oracles ----------------------------------------------------------------

def test_harmonic_annulus_oracle(annulus129, harmonic129):
    r = annulus_radius(annulus129)
    err = np.abs(harmonic129.values - radial_potential(r, 2.0))
    assert float(err[harmonic129.interior_mask()].max()) < 1e-3


def test_p3_annulus_oracle(annulus129):
    u = solve_h_potential(annulus129, power(3.0))
    assert u.meta["converged"]
    r = annulus_radius(annulus129)
    err = np.abs(u.values - radial_potential(r, 3.0))
    assert float(err[u.interior_mask()].max()) < 2e-3


def test_harmonic_matches_p2_potential(annulus129, harmonic129):
    u = solve_h_potential(annulus129, power(2.0))
    diff = np.abs(u.values - harmonic129.values)[u.interior_mask()]
    assert float(diff.max()) < 1e-6


def test_grid_convergence_order():
    errs = []
    for n in (65, 129):
        ring = make_annulus(1.0, 2.0, resolution=n)
        w = solve_harmonic(ring)
        r = annulus_radius(ring)
        err = np.abs(w.values - radial_potential(r, 2.0))
        errs.append(float(err[w.interior_mask()].max()))
    assert errs[0] / errs[1] >= 3.0


# --- structural solver properties --------------------------------------------

def test_constant_data_constant_solution(annulus129):
    u = solve_h_potential(annulus129, power(2.0), inner_value=1.0, outer_value=1.0)
    assert np.allclose(u.values[u.valid_mask()], 1.0, atol=1e-9)
    assert u.meta["energy"] < 1e-9


def test_maximum_principle(annulus129):
    u = solve_h_potential(annulus129, power(3.0), inner_value=0.7, outer_value=0.2)
    vals = u.values[u.interior_mask()]
    assert vals.min() >= 0.2 - 1e-8
    assert vals.max() <= 0.7 + 1e-8


def test_ordered_data_ordered_solutions(annulus129):
    lo = solve_h_potential(annulus129, power(3.0), inner_value=0.9, outer_value=0.0)
    hi = solve_h_potential(annulus129, power(3.0), inner_value=1.0, outer_value=0.05)
    interior = lo.interior_mask()
    assert float((lo.values - hi.values)[interior].max()) <= 1e-10


def test_energy_monotone_within_stage(annulus129):
    # the solver drives the stationarity rows; near the root the energy may
    # wobble at the level of the boundary-closure asymmetry, nothing more
    u = solve_h_potential(annulus129, power(3.0))
    log = u.meta["log"]
    by_delta = {}
    for (_, delta, energy, _) in log:
        by_delta.setdefault(delta, []).append(energy)
    for energies in by_delta.values():
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-6 * max(abs(energies[0]), 1.0))


def test_restart_determinism(annulus129):
    a = solve_h_potential(annulus129, power(3.0))
    b = solve_h_potential(annulus129, power(3.0))
    assert np.array_equal(a.values, b.values)
    assert abs(a.meta["energy"] - b.meta["energy"]) <= 1e-8 * abs(a.meta["energy"])


def test_nonconvergence_flagged(annulus129):
    opts = SolveOptions(max_iter=1)
    u = solve_h_potential(annulus129, power(3.0), opts)
    assert not u.meta["converged"]
    assert np.isfinite(u.values[u.interior_mask()]).all()


# --- residual ---------------------------------------------------------------

def test_residual_affine_field(annulus129):
    ring = annulus129
    pts = ring.grid.points()
    vals = 0.3 * pts[..., 0] - 0.7 * pts[..., 1] + 0.1
    fld = ScalarField(ring, vals)
    for of in (power(2.0), power(3.0)):
        res = operator_residual(fld, of)
        assert float(np.abs(res.values[res.interior_mask()]).max()) < 1e-10


def test_residual_is_five_point_laplacian_for_p2(annulus129):
    ring = annulus129
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((ring.grid.ny, ring.grid.nx))
    fld = ScalarField(ring, vals)
    res = operator_residual(fld, power(2.0))
    h = ring.grid.h
    lap = np.zeros_like(vals)
    lap[1:-1, 1:-1] = (vals[1:-1, 2:] + vals[1:-1, :-2] + vals[2:, 1:-1]
                       + vals[:-2, 1:-1] - 4 * vals[1:-1, 1:-1]) / h ** 2
    deep = ring.trusted()
    diff = np.abs(res.values - lap)[deep]
    assert float(diff.max()) < 1e-9 * max(1.0, float(np.abs(lap[deep]).max()))


def test_solved_field_residual_below_tol(annulus129):
    u = solve_h_potential(annulus129, power(3.0))
    res = operator_residual(u, power(3.0), delta=u.meta["delta_final"])
    assert float(np.abs(res.values[u.interior_mask()]).max()) < 1e-7


# --- diagnostics ------------------------------------------------------------

def test_curvature_radial(annulus129, harmonic129):
    diag = level_diagnostics(harmonic129)
    r = annulus_radius(annulus129)
    cells = diag.trusted & erode8(annulus129.trusted())
    rel = np.abs(diag.curvature[cells] * r[cells] - 1.0)
    assert float(rel.max()) < 0.02


def test_inf_laplacian_identity(harmonic129):
    diag = level_diagnostics(harmonic129)
    cells = diag.trusted
    lhs = diag.inf_lap[cells]
    rhs = diag.curvature[cells] * diag.grad_norm[cells] ** 3
    rel = np.abs(lhs - rhs) / np.abs(rhs)
    assert float(rel.max()) < 0.05


def test_linear_field_flat_diagnostics(annulus129):
    ring = annulus129
    pts = ring.grid.points()
    fld = ScalarField(ring, pts[..., 0].copy(), {"delta_final": 1e-6})
    diag = level_diagnostics(fld)
    assert float(np.abs(diag.curvature[diag.trusted]).max()) < 1e-8
    assert float(np.abs(diag.inf_lap[diag.trusted]).max()) < 1e-8


def test_superlevel_sets_convex(annulus129, harmonic129):
    # the convex region is the superlevel band together with the inner hole;
    # ghost nodes carry extrapolated values and close the one-node seam
    rng = np.random.default_rng(12)
    hole = annulus129.inner.inside(annulus129.grid.points())
    for s in np.arange(0.1, 0.95, 0.1):
        mask = ((harmonic129.values > s) & harmonic129.valid_mask()) | hole
        assert convexity_midpoint_check(mask, annulus129.grid, n_pairs=2000, rng=rng)


# --- gradient bounds ---------------------------------------------------------

def test_gradient_bounds_annulus(annulus129, harmonic129):
    gb = gradient_bounds(harmonic129)
    assert gb.c == pytest.approx(1 / (2 * np.log(2)), rel=0.05)
    assert gb.C == pytest.approx(1 / np.log(2), rel=0.05)


def _reference_gradient_bounds(fld, ring):
    """The per-node formulation of gradient_bounds, kept as the reference the
    array code must match bit for bit."""
    v = fld.values
    h = fld.grid.h
    interior = ring.mask == Mask.INTERIOR
    ny, nx = v.shape
    core = erode8(interior)
    gx = np.full_like(v, np.nan)
    gy = np.full_like(v, np.nan)
    gx[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
    gy[1:-1, :] = (v[2:, :] - v[:-2, :]) / (2 * h)
    core_ok = core.copy()
    core_ok[:, 0] = core_ok[:, -1] = False
    core_ok[0, :] = core_ok[-1, :] = False
    gn_core = np.hypot(gx, gy)[core_ok]
    gn_core = gn_core[np.isfinite(gn_core)]
    vals = []
    for j, i in zip(*np.nonzero(interior & ~core)):
        comps = []
        for axis in (0, 1):
            best = None
            if axis == 1:
                cand = [((0, 1), (0, 2), "f"), ((0, -1), (0, -2), "b")]
                cent = ((0, 1), (0, -1))
            else:
                cand = [((1, 0), (2, 0), "f"), ((-1, 0), (-2, 0), "b")]
                cent = ((1, 0), (-1, 0))
            (dj1, di1), (dj2, di2) = cent
            if (0 <= j + dj1 < ny and 0 <= j + dj2 < ny and 0 <= i + di1 < nx
                    and 0 <= i + di2 < nx and interior[j + dj1, i + di1]
                    and interior[j + dj2, i + di2]):
                best = (v[j + dj1, i + di1] - v[j + dj2, i + di2]) / (2 * h)
            else:
                for (dj1, di1), (dj2, di2), kind in cand:
                    j1, i1, j2, i2 = j + dj1, i + di1, j + dj2, i + di2
                    if (0 <= j1 < ny and 0 <= j2 < ny and 0 <= i1 < nx and 0 <= i2 < nx
                            and interior[j1, i1] and interior[j2, i2]):
                        d = (-3 * v[j, i] + 4 * v[j1, i1] - v[j2, i2]) / (2 * h)
                        best = d if kind == "f" else -d
                        break
            if best is None:
                comps = None
                break
            comps.append(best)
        if comps is not None:
            vals.append(np.hypot(comps[0], comps[1]))
    gn_near = np.asarray(vals)
    allg = np.concatenate([gn_core, gn_near]) if len(gn_near) else gn_core
    return GradientBounds(float(np.min(allg)), float(np.max(allg)),
                          int(gn_core.size), int(gn_near.size))


@pytest.fixture(scope="module")
def cap_outer_harmonic257(cap_rings257):
    return solve_harmonic(cap_rings257.outer_ring)


@pytest.fixture(scope="module")
def thin_harmonic65():
    # a band about two cells wide: no trusted nodes, and some first-layer
    # nodes have no usable stencil along an axis
    return solve_harmonic(make_annulus(1.0, 1.1, resolution=65))


@pytest.mark.parametrize("name", ["harmonic129", "cap_harmonic257",
                                  "cap_outer_harmonic257", "thin_harmonic65"])
def test_gradient_bounds_match_per_node_reference(name, request):
    # the cap rings put central stencils against ghost nodes on curved
    # boundaries, where the stencil choice matters
    w = request.getfixturevalue(name)
    got = gradient_bounds(w)
    ref = _reference_gradient_bounds(w, w.ring)
    assert ref.n_near > 0
    for key in ("c", "C", "n_core", "n_near"):
        assert getattr(got, key) == getattr(ref, key), key


def test_node_gradients_central_then_one_sided(cap_harmonic257):
    w = cap_harmonic257
    v, h, valid = w.values, w.grid.h, w.valid_mask()
    gx, gy = node_gradients(v, valid, h)
    for g, axis in ((gx, 1), (gy, 0)):
        for j, i in zip(*np.nonzero(valid)):
            step = (0, 1) if axis == 1 else (1, 0)
            nb = {}
            for s in (2, 1, -1, -2):
                jj, ii = j + s * step[0], i + s * step[1]
                inside = 0 <= jj < v.shape[0] and 0 <= ii < v.shape[1]
                nb[s] = v[jj, ii] if inside and valid[jj, ii] else None
            if nb[1] is not None and nb[-1] is not None:
                expect = (nb[1] - nb[-1]) / (2 * h)
            elif nb[1] is not None and nb[2] is not None:
                expect = (-3 * v[j, i] + 4 * nb[1] - nb[2]) / (2 * h)
            elif nb[-1] is not None and nb[-2] is not None:
                expect = -((-3 * v[j, i] + 4 * nb[-1] - nb[-2]) / (2 * h))
            else:
                expect = np.nan
            assert g[j, i] == expect or (np.isnan(expect) and np.isnan(g[j, i]))
    assert np.isnan(gx[~valid]).all() and np.isnan(gy[~valid]).all()


def test_ring_caches_die_with_the_ring():
    # per-ring derived data (the solver assembly, depth, distances) is cached
    # on the ring itself, so nothing outside keeps a dropped ring alive
    ring = make_annulus(1.0, 2.0, resolution=65)
    w = solve_harmonic(ring)
    operator_residual(w, power(3.0))
    ref = weakref.ref(ring)
    del ring, w
    gc.collect()
    assert ref() is None


# --- unknown ordering and the shared Laplace solve ----------------------------

def _ring(name, request):
    if name == "annulus257":
        return request.getfixturevalue("annulus257")
    rings = request.getfixturevalue("cap_rings257")
    return rings.inner_ring if name == "cap_inner257" else rings.outer_ring


def _laplace_jacobian(ring):
    asm = solver._assembly(ring)
    v = asm.full_values(np.zeros(asm.n_unknown), asm.closure_offset(1.0, 0.0))
    return asm.jacobian_rows(v, power(2.0), 0.0)


@pytest.mark.parametrize("name", ["annulus257", "cap_inner257", "cap_outer257"])
def test_dissection_order_numbers_separator_last(name, request):
    ring = _ring(name, request)
    ids = np.flatnonzero(ring.interior())
    j, i = np.divmod(ids, ring.grid.nx)
    order = _dissection_order(i, j)
    n = ids.size
    assert np.array_equal(np.sort(order), np.arange(n))
    assert np.array_equal(solver._assembly(ring).interior_ids, ids[order])
    # top level: the shortest grid line, along either axis, with at least
    # 35 % of the nodes on each side
    lines = [(np.count_nonzero(coord == c), axis, c)
             for axis, coord in enumerate((i, j)) for c in np.unique(coord)
             if min(np.count_nonzero(coord < c), np.count_nonzero(coord > c)) >= 0.35 * n]
    shortest = min(lines)[0]
    last = np.zeros(n, dtype=bool)
    last[order[n - shortest:]] = True
    found = [(axis, c) for size, axis, c in lines
             if size == shortest and np.array_equal((i, j)[axis] == c, last)]
    assert len(found) == 1
    coord, mid = (i, j)[found[0][0]], found[0][1]
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    line = coord == mid
    assert (coord < mid).any() and (coord > mid).any()
    assert position[line].min() > position[~line].max()
    # and the line separates: no Jacobian entry, ghost closure included,
    # couples the two sides
    side = np.sign(coord - mid)[order]          # in unknown numbering
    A = _laplace_jacobian(ring).tocoo()
    assert not np.any(side[A.row] * side[A.col] < 0)


@pytest.mark.parametrize("name, limit", [("annulus257", 2.3e6), ("cap_inner257", 1.8e6),
                                         ("cap_outer257", 2.9e6)])
def test_dissection_fill_bounded(name, limit, request):
    lu = solver._lu(_laplace_jacobian(_ring(name, request)))
    assert lu.L.nnz + lu.U.nnz <= limit


def test_dissection_factor_sparser_than_colamd(annulus257):
    A = _laplace_jacobian(annulus257)
    fill = [lu.L.nnz + lu.U.nnz for lu in (solver._lu(A), spla.splu(A))]
    assert fill[0] < fill[1]


# --- the Newton Jacobian -------------------------------------------------------

def _coo_spgemm_jacobian(asm, v_full, of, delta):
    """Reference assembly: the full node Hessian as per-triangle COO entries,
    reduced to the unknowns by the ghost-closure matrix P (one unit entry per
    interior node, 1 - 1/theta from each ghost to its partner) as H[int, :] @ P."""
    import scipy.sparse as sp
    rows, cols, vals = [], [], []
    for tri, G in zip(asm.tris, asm.gmats):
        g = v_full[tri] @ G.T
        q = np.sqrt(g[:, 0] ** 2 + g[:, 1] ** 2 + delta * delta)
        qs = np.minimum(np.maximum(q, 1e-30), of.t_max)
        hv = of.h(qs)
        hp = of.h_prime(qs)
        Hq = hv / qs
        Dq = (hp * qs - hv) / qs ** 3
        a = g @ G
        base = G.T @ G
        e = (asm.area * Hq)[:, None, None] * base[None, :, :] \
            + (asm.area * Dq)[:, None, None] * a[:, None, :] * a[:, :, None]
        rows.append(np.repeat(tri, 3, axis=1).ravel())
        cols.append(np.tile(tri, (1, 3)).ravel())
        vals.append(e.ravel())
    H = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(asm.n_nodes, asm.n_nodes)).tocsr()
    unknown = np.full(asm.n_nodes, -1)
    unknown[asm.interior_ids] = np.arange(asm.n_unknown)
    gh_rows = np.concatenate([asm.interior_ids, asm._ghost_index])
    gh_cols = np.concatenate([np.arange(asm.n_unknown), unknown[asm._ghost_partner]])
    gh_vals = np.concatenate([np.ones(asm.n_unknown), 1.0 - 1.0 / asm._ghost_theta])
    P = sp.csr_matrix((gh_vals, (gh_rows, gh_cols)), shape=(asm.n_nodes, asm.n_unknown))
    return (H[asm.interior_ids, :] @ P).tocsc()


def _tabulated_law():
    ts = np.linspace(0.01, 20.0, 400)
    return custom(table=(ts, ts ** 1.5 + 0.5 * ts))


_LAWS = {"quadratic": (lambda: power(2.0), 0.0), "p1.5": (lambda: power(1.5), 1e-3),
         "p3": (lambda: power(3.0), 1e-2), "tabulated": (_tabulated_law, 1e-3)}


def _jacobian_case(ring, law):
    """An assembly, a perturbed iterate u with its node values, and a law."""
    asm = solver._assembly(ring)
    of, delta = _LAWS[law][0](), _LAWS[law][1]
    q0 = asm.closure_offset(1.0, 0.0)
    u = solver._harmonic_unknowns(ring, 1.0, 0.0)
    u = u + 0.01 * np.random.default_rng(7).standard_normal(u.size)
    return asm, q0, u, asm.full_values(u, q0), of, delta


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("name", ["annulus129", "cap_inner257", "cap_outer257"])
def test_jacobian_matches_coo_spgemm_reference(name, law, request):
    ring = (request.getfixturevalue(name) if name == "annulus129"
            else _ring(name, request))
    asm, _, _, v, of, delta = _jacobian_case(ring, law)
    got = asm.jacobian_rows(v, of, delta)
    want = _coo_spgemm_jacobian(asm, v, of, delta)
    want.sort_indices()
    assert got.has_sorted_indices
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    scale = np.max(np.abs(want.data))
    assert np.max(np.abs(got.data - want.data)) <= 1e-13 * scale
    # exact zeros are dropped: the Laplacian stays 5-point
    assert np.all(got.data != 0)
    if law == "quadratic":
        assert got.nnz <= 5 * asm.n_unknown


@pytest.mark.parametrize("law", sorted(_LAWS))
def test_jacobian_is_the_derivative_of_the_residual(annulus129, law):
    asm, q0, u, v, of, delta = _jacobian_case(annulus129, law)
    d = np.random.default_rng(3).standard_normal(u.size)
    eps = 1e-6
    plus = asm.residual_rows(asm.full_values(u + eps * d, q0), of, delta)
    minus = asm.residual_rows(asm.full_values(u - eps * d, q0), of, delta)
    fd = (plus - minus) / (2 * eps)
    Jd = asm.jacobian_rows(v, of, delta) @ d
    assert np.max(np.abs(Jd - fd)) <= 1e-6 * np.max(np.abs(Jd))


def test_jacobian_pattern_built_once_per_ring_and_lean(monkeypatch):
    ring = make_annulus(1.0, 2.0, resolution=65)
    builds = []
    build = solver._JacobianPattern.build
    monkeypatch.setattr(solver._JacobianPattern, "build",
                        classmethod(lambda cls, asm: builds.append(1) or build(asm)))
    u = solve_h_potential(ring, power(3.0))
    assert u.meta["converged"] and len(builds) == 1
    solve_harmonic(ring)
    assert len(builds) == 1
    pat = solver._assembly(ring)._pattern
    nbytes = sum(getattr(pat, f.name).nbytes for f in dataclasses.fields(pat))
    assert nbytes <= 10 * pat.indices.size


def test_residual_only_assembly_builds_no_numbering(annulus129):
    # operator_residual needs neither the unknown numbering nor the pattern
    ring = dataclasses.replace(annulus129, _cache={})
    w = solve_harmonic(annulus129)
    operator_residual(dataclasses.replace(w, ring=ring), power(3.0))
    assert not {"interior_ids", "_pattern"} & set(vars(solver._assembly(ring)))


def _reference_solve(ring, solve):
    """solve on a fresh copy of ring with the unknowns in row-major node
    order and SuperLU's default COLAMD column ordering."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_dissection_order", lambda i, j: np.arange(len(i)))
        m.setattr(solver, "_lu", lambda A: spla.splu(A))
        return solve(dataclasses.replace(ring, _cache={}))


def test_dissection_solves_match_natural_order_colamd(annulus129, cap_outer_harmonic257):
    of = power(1.5)
    u = solve_h_potential(annulus129, of)
    ref = _reference_solve(annulus129, lambda r: solve_h_potential(r, of))
    assert len(u.meta["log"]) == len(ref.meta["log"])
    w = cap_outer_harmonic257
    ref_w = _reference_solve(w.ring, solve_harmonic)
    for got, want in ((u, ref), (w, ref_w)):
        assert float(np.max(np.abs(got.values - want.values))) < 1e-12


def _count_factorisations(monkeypatch):
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


def test_laplace_factorised_once_per_ring(monkeypatch):
    ring = make_annulus(1.0, 2.0, resolution=65)
    calls = _count_factorisations(monkeypatch)
    w10 = solve_harmonic(ring)
    w01 = solve_harmonic(ring, inner_value=0.0, outer_value=1.0)
    assert len(calls) == 1
    monkeypatch.undo()
    # direct solve with data (0, 1)
    asm = solver._assembly(ring)
    q0 = asm.closure_offset(0.0, 1.0)
    v = asm.full_values(np.zeros(asm.n_unknown), q0)
    u = spla.splu(_laplace_jacobian(ring)).solve(-asm.residual_rows(v, power(2.0), 0.0))
    ref = asm.full_values(u, q0).reshape(w01.values.shape)
    assert float(np.max(np.abs(w01.values - ref))) < 1e-13
    assert w01.meta["converged"] and w10.meta["converged"]


def test_potential_factorises_once_per_grid(monkeypatch):
    ring = make_annulus(1.0, 2.0, resolution=65)
    calls = _count_factorisations(monkeypatch)
    solve_harmonic(ring)
    opts = SolveOptions()
    u = solve_h_potential(ring, power(3.0), opts)
    assert u.meta["converged"]
    # every logged iterate but the last of each stage took a Newton step; the
    # first factorised, the others reused its factor, and the Laplace solve
    # shared by the warm start took one more factorisation
    steps = len(u.meta["log"]) - len(opts.delta_schedule)
    assert steps > 1 and len(calls) == 2
    (n, logged, factorised, krylov), = u.meta["levels"]
    assert (n, logged, factorised) == (65, len(u.meta["log"]), 1)
    assert steps - 1 <= krylov <= (steps - 1) * solver.KRYLOV_MAX


def test_every_missed_reuse_factorises_that_step(monkeypatch):
    ring = make_annulus(1.0, 2.0, resolution=65)
    solve_harmonic(ring)
    opts = SolveOptions()
    of = power(3.0)
    with monkeypatch.context() as m:
        # the reference factorises every Newton step's Jacobian
        m.setattr(solver._Directions, "solve", lambda self, A, G: solver._lu(A).solve(-G))
        ref = solve_h_potential(ring, of, opts)
    attempts = []
    monkeypatch.setattr(solver, "_gmres", lambda A, precondition, b:
                        attempts.append(len(b)) or (None, solver.KRYLOV_MAX))
    calls = _count_factorisations(monkeypatch)
    u = solve_h_potential(ring, of, opts)
    # every step after the first makes one capped attempt, misses, and
    # factorises its own Jacobian, so the iterates are those of ref
    steps = len(u.meta["log"]) - len(opts.delta_schedule)
    assert len(attempts) == steps - 1 and len(calls) == steps
    assert u.meta["levels"] == [(65, len(u.meta["log"]), steps,
                                 (steps - 1) * solver.KRYLOV_MAX)]
    assert u.meta["log"] == ref.meta["log"] and np.array_equal(u.values, ref.values)


def test_later_steps_reuse_the_factor_of_a_missed_step(monkeypatch):
    ring = make_annulus(1.0, 2.0, resolution=65)
    solve_harmonic(ring)
    gmres = solver._gmres
    factors = []

    def miss_the_second(A, precondition, b):
        factors.append(precondition.__self__)
        if len(factors) == 2:
            return None, solver.KRYLOV_MAX
        return gmres(A, precondition, b)

    monkeypatch.setattr(solver, "_gmres", miss_the_second)
    calls = _count_factorisations(monkeypatch)
    u = solve_h_potential(ring, power(3.0))
    assert u.meta["converged"] and len(factors) > 2
    # the miss factorised its step, and every later attempt used that factor;
    # the Laplacian was factorised before the count began
    (n, logged, factorised, krylov), = u.meta["levels"]
    assert factorised == 2 and len(calls) == 2
    assert factors[0] is factors[1] and factors[2] is not factors[1]
    assert all(f is factors[2] for f in factors[2:])


@pytest.fixture(scope="module")
def laplacian65():
    return _laplace_jacobian(make_annulus(1.0, 2.0, resolution=65))


def test_gmres_with_an_exact_factor_takes_one_iteration(laplacian65):
    A = laplacian65
    b = np.sin(np.arange(A.shape[0], dtype=float))
    x, iterations = solver._gmres(A, spla.splu(A).solve, b)
    assert iterations == 1
    assert np.linalg.norm(A @ x - b) <= solver.KRYLOV_TOL * np.linalg.norm(b)


def test_gmres_of_a_zero_right_hand_side_is_zero(laplacian65):
    A = laplacian65
    x, iterations = solver._gmres(A, spla.splu(A).solve, np.zeros(A.shape[0]))
    assert iterations == 0 and not np.any(x)


def test_gmres_fails_with_a_poor_preconditioner(laplacian65):
    # unpreconditioned, the Laplacian's condition number keeps GMRES far
    # from KRYLOV_TOL within KRYLOV_MAX iterations
    A = laplacian65
    b = np.sin(np.arange(A.shape[0], dtype=float))
    assert solver._gmres(A, lambda r: r.copy(), b) == (None, solver.KRYLOV_MAX)


# --- nested iteration ----------------------------------------------------------

def _single_level(monkeypatch, solve):
    """solve() with every grid solving the whole schedule on its own."""
    with monkeypatch.context() as m:
        m.setattr(solver, "COARSEST", 10 ** 9)
        return solve()


@pytest.mark.parametrize("name", ["annulus257", "cap_outer257"])
def test_multilevel_solve_matches_single_level(name, request, monkeypatch):
    ring = _ring(name, request)
    data = (1.0, 0.0) if name == "annulus257" else (0.0, 1.0)
    of = power(3.0)
    single = _single_level(monkeypatch, lambda: solve_h_potential(ring, of, None, *data))
    n_fine = solver._assembly(ring).n_unknown
    fresh = dataclasses.replace(ring, _cache={})    # so its Laplace solve counts too
    calls = _count_factorisations(monkeypatch)
    u = solve_h_potential(fresh, of, None, *data)
    assert u.meta["converged"] and single.meta["converged"]
    assert [level[0] for level in u.meta["levels"]] == [129, 257]
    assert u.meta["levels"][-1][1] == len(u.meta["log"])
    assert {d for _, d, _, _ in u.meta["log"]} == set(SolveOptions().delta_schedule[-2:])
    assert float(np.max(np.abs(u.values - single.values))) <= 1e-9
    if name == "annulus257":
        interior = u.interior_mask()
        exact = radial_potential(annulus_radius(ring), 3.0)
        err = [float(np.max(np.abs(f.values - exact)[interior])) for f in (u, single)]
        assert err[0] <= err[1] + 1e-12
    # each grid factorises once for its harmonic and once for its first
    # Newton step, whose factor serves every later step there
    fine = [args[0] for args in calls if args[0].shape[0] == n_fine]
    assert len(fine) == 2 and len(calls) == 4
    assert [level[2] for level in u.meta["levels"]] == [1, 1]


def test_no_coarse_ring_falls_back_to_single_level(monkeypatch):
    # a gap of 0.1 holds two cells of the 65 grid but not of the 33 one
    ring = make_annulus(1.0, 1.1, resolution=65)
    monkeypatch.setattr(solver, "COARSEST", 33)
    u = solve_h_potential(ring, power(3.0))
    ref = _single_level(monkeypatch, lambda: solve_h_potential(
        dataclasses.replace(ring, _cache={}), power(3.0)))
    assert [level[:2] for level in u.meta["levels"]] == [(65, len(u.meta["log"]))]
    assert u.meta["converged"] and np.array_equal(u.values, ref.values)


def test_coarse_nonconvergence_is_recorded(tmp_path):
    from hopflab.cli import main
    cfg = tmp_path / "run.ini"
    cfg.write_text("[function]\nkind = power\np = 3.0\n\n[geometry]\nkind = annulus\n\n"
                   "[grid]\nresolution = 257\n\n[solver]\nmax_iter = 1\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    report = (out / "solve_report.txt").read_text().splitlines()
    assert "converged False" in report
    # the coarse level failed, so the fine grid ran the schedule from its start
    assert "levels 257:1" in report
    rows = (out / "convergence.csv").read_text().splitlines()
    assert len(rows) == 2 and float(rows[1].split(",")[1]) == 0.1
    assert (out / "potential.grid").exists()


def test_gradient_bounds_degenerate(annulus129):
    u = solve_h_potential(annulus129, power(2.0), inner_value=1.0, outer_value=1.0)
    with pytest.raises(DegenerateGradient):
        gradient_bounds(u)


# --- flow lines --------------------------------------------------------------

def test_flow_line_radial(annulus129, harmonic129):
    tr = trace_flow_line(harmonic129, (1.5, 0.0))
    ws = np.array([t[0] for t in tr])
    gn = np.array([t[1] for t in tr])
    assert np.all(np.diff(ws) > 0)
    assert np.all(np.diff(gn) > -1e-6)     # increasing along the flow
    assert abs(ws[0] - 0.0) < 0.02
    assert abs(ws[-1] - 1.0) < 0.02


def test_flow_line_stagnation(annulus129):
    u = solve_h_potential(annulus129, power(2.0), inner_value=0.5, outer_value=0.5)
    with pytest.raises(StagnationPoint):
        trace_flow_line(u, (1.5, 0.0))


def test_flow_line_constant_gradient_slab(annulus129):
    ring = annulus129
    pts = ring.grid.points()
    vals = np.clip((pts[..., 0] + 2.05) / 4.1, 0.0, 1.0)
    fld = ScalarField(ring, vals, {"delta_final": 1e-6})
    tr = trace_flow_line(fld, (1.5, 0.0))
    gn = np.array([t[1] for t in tr])
    assert np.ptp(gn) < 1e-8


def _flat_top(ring, top):
    """w = x - x_b + top up to the node x_b nearest x = 1.5, then flat at top.
    Node gradients are 1 before x_b, 1/2 at x_b and 0 beyond, so at
    x_b + t h (0 < t < 1) the interpolated gradient is (1 - t) / 2."""
    g = ring.grid
    x_b = g.x0 + round((1.5 - g.x0) / g.h) * g.h
    x = g.points()[..., 0]
    return ScalarField(ring, np.minimum(x - x_b + top, top), {"delta_final": 1e-6}), x_b


def test_flow_line_vanishing_gradient_inside_the_band_raises(annulus129):
    # from x_b + h/2 the first upward step lands on the flat, at w = 0.5
    fld, x_b = _flat_top(annulus129, 0.5)
    with pytest.raises(StagnationPoint, match="below floor"):
        trace_flow_line(fld, (x_b + 0.5 * annulus129.grid.h, 0.0))


@pytest.mark.parametrize("t", [0.5, 0.9])
def test_flow_line_stops_at_a_flat_top(annulus129, t):
    # from t = 0.5 the first upward step lands on the flat, whose w = 0.96
    # is outside (0.05, 0.95); from t = 0.9 its midpoint already lies there.
    # Either way the trace ends on the flat, with no error
    fld, x_b = _flat_top(annulus129, 0.96)
    ws = np.array(trace_flow_line(fld, (x_b + t * annulus129.grid.h, 0.0)))[:, 0]
    assert np.all(np.diff(ws) > 0) and ws[0] < 0.5
    assert ws[-1] == pytest.approx(0.96, abs=1e-12)
