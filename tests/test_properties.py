"""Invariants over random rings: annuli with an off-centre inner disk, and
both rings of random Dini caps, on grids of 65 to 97 nodes a side."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab import (Disk, Grid, LogPowerModulus, PowerModulus, build_dini_cap,
                     make_cap_ring, make_ring, solve_harmonic)


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
    return lambda: make_cap_ring(build_dini_cap(r_d, eps), r_d, side, resolution=n)


@settings(max_examples=16, deadline=None)
@given(build=ring_builders())
def test_random_ring_invariants(build):
    ring = build()
    theta = ring.ghosts.theta
    assert np.all((theta >= 0.15) & (theta <= 4.0))

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
