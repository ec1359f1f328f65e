"""Invariants over random rings: annuli with an off-centre inner disk, and
both rings of random Dini caps, on grids of 65 to 97 nodes a side, and
power laws with p in [1.3, 5], some of them tabulated."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import erode8
from hopflab import (Disk, Grid, LogPowerModulus, Mask, PowerModulus, ScalarField,
                     SolveOptions, build_dini_cap, comparison_check, compose_barrier,
                     custom, hopf, level_diagnostics, make_cap_ring, make_ring,
                     power, solve_h_potential, solve_harmonic, solver, tune_m,
                     verify_subsolution, zeta_from_field)


@st.composite
def ring_builders(draw):
    """A function that builds one random ring afresh on every call."""
    n = draw(st.integers(65, 97))
    if draw(st.booleans()):
        r2 = draw(st.floats(1.0, 3.0))
        r1 = r2 * draw(st.floats(0.25, 0.6))
        # the inner disk moves by at most a quarter of the radial gap
        angle = draw(st.floats(0.0, 2 * np.pi))
        shift = 0.25 * (r2 - r1) * draw(st.floats(0.0, 1.0))
        center = (shift * np.cos(angle), shift * np.sin(angle))
        return lambda: make_ring(Disk(center, r1), Disk((0.0, 0.0), r2),
                                 Grid.square(1.025 * r2, n))
    r_d = draw(st.floats(0.1, 0.3))
    if draw(st.booleans()):
        eps = PowerModulus(draw(st.floats(0.5, 1.0)))
    else:
        eps = LogPowerModulus(draw(st.floats(1.5, 3.0)))
    side = draw(st.sampled_from(["inner", "outer"]))
    return lambda: make_cap_ring(build_dini_cap(r_d, eps), side, resolution=n)


def _reference_partners(ring):
    """Ghost partners by the per-direction loop: each ghost keeps the first
    interior neighbour, in stencil order, whose level is strictly deeper
    than every earlier one's (inner ghosts: max lev_in; outer: min lev_out)."""
    mask, grid = ring.mask, ring.grid
    ny, nx = mask.shape
    interior = mask == Mask.INTERIOR
    index, partner = [], []
    for side, dom, sign in ((Mask.INNER_BOUNDARY, ring.inner, 1.0),
                            (Mask.OUTER_BOUNDARY, ring.outer, -1.0)):
        lev = np.asarray(dom.level(grid.points(), smoothing=grid.h), dtype=float)
        gj, gi = np.nonzero(mask == side)
        best_score = np.full(len(gj), -np.inf)
        best = np.full(len(gj), -1)
        for dj, di in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
            pj, pi = gj + dj, gi + di
            ok = (pj >= 0) & (pj < ny) & (pi >= 0) & (pi < nx)
            ok[ok] &= interior[pj[ok], pi[ok]]
            score = np.full(len(gj), -np.inf)
            score[ok] = sign * lev[pj[ok], pi[ok]]
            take = score > best_score
            best_score[take] = score[take]
            best[take] = (pj * nx + pi)[take]
        index.append(gj * nx + gi)
        partner.append(best)
    return np.concatenate(index), np.concatenate(partner)


# a concentric annulus on an even grid: mirror-image candidate partners tie
# in exact arithmetic, and the rounding of the grid coordinates decides
@settings(max_examples=16, deadline=None)
@given(build=ring_builders())
@example(build=lambda: make_ring(Disk((0.0, 0.0), 0.5156 * 1.6805),
                                 Disk((0.0, 0.0), 1.6805), Grid.square(1.025 * 1.6805, 84)))
def test_random_ring_invariants(build):
    ring = build()
    theta = ring.ghosts.theta
    assert np.all((theta >= 0.15) & (theta <= 4.0))
    assert np.array_equal(ring.trusted(), erode8(ring.mask == Mask.INTERIOR))
    index, partner = _reference_partners(ring)
    assert np.array_equal(ring.ghosts.index, index)
    assert np.array_equal(ring.ghosts.partner, partner)

    # discrete maximum principle: data 1 inside, 0 outside
    w = solve_harmonic(ring)
    inside = w.values[ring.interior()]
    assert 0.0 <= inside.min() and inside.max() <= 1.0

    # a rerun from scratch repeats the ring and the solve bit for bit
    again = build()
    assert np.array_equal(again.mask, ring.mask)
    for name in ("index", "partner", "theta", "side"):
        assert np.array_equal(getattr(again.ghosts, name), getattr(ring.ghosts, name))
    assert again.gap == ring.gap
    assert np.array_equal(solve_harmonic(again).values, w.values)


@settings(max_examples=6, deadline=None)
@given(build=ring_builders())
def test_multilevel_solve_matches_single_level(build):
    # grids of 65-97 nodes a side start from one of 33-49; the single-level
    # reference runs to tol 1e-10, since at the default tol it stops up to
    # 2.6e-9 away from its own limit on these rings, and the multilevel solve
    # (whose fine stages start closer) within 1e-11 of it
    ring = build()
    of = power(3.0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "COARSEST", 33)
        u = solve_h_potential(ring, of)
        again = solve_h_potential(build(), of)
        m.setattr(solver, "COARSEST", 10 ** 9)
        single = solve_h_potential(build(), of, SolveOptions(tol=1e-10))
    assert u.meta["converged"] and single.meta["converged"]
    assert float(np.max(np.abs(u.values - single.values))) <= 1e-9
    assert np.array_equal(again.values, u.values)
    assert again.meta["log"] == u.meta["log"]


exponents = st.floats(1.3, 5.0)


@settings(max_examples=8, deadline=None)
@given(build=ring_builders(), p=exponents, low=st.tuples(st.floats(0.0, 1.0),
                                                         st.floats(0.0, 1.0)),
       rise=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)))
def test_ordered_data_give_ordered_solutions(build, p, low, rise):
    # discrete comparison principle: data below data give a solution below
    ring = build()
    of = power(p)
    u = solve_h_potential(ring, of, None, *low)
    v = solve_h_potential(ring, of, None, low[0] + rise[0], low[1] + rise[1])
    assert u.meta["converged"] and v.meta["converged"]
    interior = ring.interior()
    assert float(np.max(u.values[interior] - v.values[interior])) <= 1e-7


@settings(max_examples=8, deadline=None)
@given(build=ring_builders(), p=exponents)
def test_certified_barrier_passes_comparison(build, p):
    # the pipeline of `hopflab verify`: a barrier f(w) tuned to f(1) = 1 that
    # the three certificates accept lies below the potential with the same data
    ring = build()
    of = power(p)
    w = solve_harmonic(ring)
    diag = level_diagnostics(w)
    zeta = zeta_from_field(w, diag=diag)
    prof = tune_m(of, zeta, 1.0, float(np.max(diag.grad_norm[diag.trusted])), 1.0)
    assume(verify_subsolution(w, prof, of, zeta=zeta, diag=diag).all_pass)
    u = solve_h_potential(ring, of)
    assert u.meta["converged"]
    rep = comparison_check(u, compose_barrier(w, prof), of)
    assert rep.passed, rep.to_text()


def _stage_residuals(log):
    """{delta: residuals of that stage's rows}, in schedule order."""
    stages = {}
    for _, delta, _, res in log:
        stages.setdefault(delta, []).append(res)
    return stages


def tabulated(p):
    """h(t) = t^(p-1) tabulated: 200 rows on [0, 100]."""
    ts = np.linspace(0.0, 100.0, 200)
    return custom(table=(ts, ts ** (p - 1)))


@st.composite
def laws(draw):
    """power(p), or the same law tabulated."""
    p = draw(exponents)
    return power(p) if draw(st.booleans()) else tabulated(p)


# the 200-row tables of some exponents trip the solver's coercivity screen
@pytest.mark.filterwarnings("ignore:flow law failed a quick coercivity screen")
@settings(max_examples=12, deadline=None)
@given(build=ring_builders(), of=laws())
@example(build=lambda: make_ring(Disk((0.0, 0.0), 1.0), Disk((0.0, 0.0), 2.0),
                                 Grid.square(2.05, 65)),
         of=tabulated(2.0))
@example(build=lambda: make_ring(Disk((0.091, 0.0), 0.638), Disk((0.0, 0.0), 2.094),
                                 Grid.square(1.025 * 2.094, 71)),
         of=tabulated(4.9375))
def test_reused_factor_matches_factorising_every_step(build, of):
    # GMRES directions preconditioned with the newest factor take the Newton
    # iterates of a solve that factorises every step
    ring = build()
    steps = []
    with pytest.MonkeyPatch.context() as m:
        solve = solver._Directions.solve
        m.setattr(solver._Directions, "solve",
                  lambda self, A, G: steps.append(self) or solve(self, A, G))
        u = solve_h_potential(ring, of)
        m.setattr(solver, "_gmres", lambda A, precondition, b: (None, solver.KRYLOV_MAX))
        ref = solve_h_potential(ring, of)
    assert u.meta["converged"] == ref.meta["converged"]
    # a stage may stop one iterate later where the two solves' residuals at
    # that row straddle the stopping threshold (the pinned ring: 9.80e-9 and
    # 1.0024e-8 around 1e-8). They are the same iterate up to the inexact
    # directions, within a factor 2 of each other, while the rows around them
    # are thousands of times apart
    stages, ref_stages = _stage_residuals(u.meta["log"]), _stage_residuals(ref.meta["log"])
    assert list(stages) == list(ref_stages)
    for delta, rows in stages.items():
        short, long = sorted((rows, ref_stages[delta]), key=len)
        assert len(long) - len(short) <= 1
        if len(long) > len(short):
            a, b = short[-1], long[len(short) - 1]
            assert max(a, b) <= 2.0 * min(a, b)
    assert float(np.max(np.abs(u.values - ref.values))) <= 1e-9
    # grids of 65-97 nodes a side have no half grid to start from; each step
    # after the first makes at most one capped attempt, and a miss factorises.
    # A law the harmonic start already solves (the tabulated p = 2) takes no
    # step and factorises nothing
    (n, logged, factorised, krylov), = u.meta["levels"]
    taken = sum(s is steps[0] for s in steps)
    assert min(taken, 1) <= factorised <= taken
    assert krylov <= max(taken - 1, 0) * solver.KRYLOV_MAX


def _pairing_is_invariant(ring, flip):
    """Whether flip maps the ring's (ghost, partner) pairs onto themselves."""
    n = ring.grid.nx
    node = flip(np.arange(n * n).reshape(n, n)).ravel()
    g = ring.ghosts
    return (set(zip(g.index.tolist(), g.partner.tolist()))
            == set(zip(node[g.index].tolist(), node[g.partner].tolist())))


@settings(max_examples=6, deadline=None)
@given(n=st.integers(65, 97), r2=st.floats(1.0, 3.0), ratio=st.floats(0.25, 0.6),
       p=exponents)
def test_concentric_annulus_solves_are_symmetric(n, r2, ratio, p):
    # the ring and its grid are symmetric under point reflection and under
    # transpose. A ghost whose candidate partners tie in exact arithmetic
    # takes the one the rounding of the grid coordinates favours, so the
    # ghost pairing can lose a symmetry (on even grids the solution then
    # moves by up to 5e-4); every symmetry the pairing keeps, the solves
    # keep too, up to the rounding of the sparse LU
    ring = make_ring(Disk((0.0, 0.0), ratio * r2), Disk((0.0, 0.0), r2),
                     Grid.square(1.025 * r2, n))
    interior = ring.interior()
    fields = solve_harmonic(ring), solve_h_potential(ring, power(p))
    for flip in (lambda a: a[::-1, ::-1], np.transpose):
        assert np.array_equal(flip(ring.mask), ring.mask)
        if _pairing_is_invariant(ring, flip):
            both = interior & flip(interior)
            for fld in fields:
                assert float(np.max(np.abs(fld.values - flip(fld.values))[both])) <= 1e-12


coefficients = st.floats(-2.0, 2.0)


@settings(max_examples=10, deadline=None)
@given(build=ring_builders(), k=st.tuples(*[coefficients] * 6))
def test_node_gradients_are_exact_on_quadratics(build, k):
    # every formula of the rule (central, and the second-order one-sided pair)
    # is exact on a quadratic, so only rounding is left on every usable node
    ring = build()
    pts = ring.grid.points()
    x, y = pts[..., 0], pts[..., 1]
    a, b, c, d, e, f = k
    values = a + b * x + c * y + d * x ** 2 + e * x * y + f * y ** 2
    exact = (b + 2 * d * x + e * y, c + e * x + 2 * f * y)
    scale = float(np.max(np.abs(values)) + np.max(np.hypot(*exact)))
    for usable in (ring.interior(), ring.mask != Mask.OUTSIDE):
        got = solver.node_gradients(values, usable, ring.grid.h)
        for g, ex in zip(got, exact):
            assert np.isnan(g[~usable]).all()
            est = usable & np.isfinite(g)
            assert est.sum() > 0.9 * usable.sum()
            assert float(np.max(np.abs(g - ex)[est])) <= 1e-9 * scale


@settings(max_examples=10, deadline=None)
@given(build=ring_builders(), k=st.tuples(*[coefficients] * 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bilinear_lookups_are_exact_on_affine_fields(build, k, seed):
    ring = build()
    g = ring.grid
    a, b, c = k
    affine = lambda x, y: a + b * x + c * y  # noqa: E731
    pts = g.points()
    fld = ScalarField(ring, affine(pts[..., 0], pts[..., 1]))
    scale = abs(a) + (abs(b) + abs(c)) * float(np.max(np.abs(pts))) + 1e-300
    rng = np.random.default_rng(seed)
    origin = np.array([g.x0, g.y0])
    top = origin + g.h * np.array([g.nx - 1, g.ny - 1])
    xs = rng.uniform(origin - g.h, top + g.h, size=(200, 2))
    on_grid = np.all((xs >= origin) & (xs <= top), axis=1)
    exact = affine(xs[:, 0], xs[:, 1])
    got = fld.interp(xs)
    assert not np.isfinite(got[~on_grid]).any()
    ok = np.isfinite(got)
    assert ok.any()
    assert float(np.max(np.abs(got - exact)[ok])) <= 1e-12 * scale
    # with a corner missing, the partial value is a convex combination of the
    # valid corners, so it stays within the values at the cell's corners
    for x, full, ex in zip(xs[on_grid], ok[on_grid], exact[on_grid]):
        val = hopf._partial_corner_value(fld, x)
        if full:
            assert abs(val - ex) <= 1e-12 * scale
        elif np.isfinite(val):
            i, j = np.minimum(np.floor((x - origin) / g.h).astype(int),
                              (g.nx - 2, g.ny - 2))
            cx = g.x0 + g.h * np.array([i, i + 1, i, i + 1])
            cy = g.y0 + g.h * np.array([j, j, j + 1, j + 1])
            corner = affine(cx, cy)
            assert corner.min() - 1e-12 * scale <= val <= corner.max() + 1e-12 * scale
