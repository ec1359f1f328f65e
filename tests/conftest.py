import numpy as np
import pytest

from hopflab import (PowerModulus, build_dini_cap, make_annulus, make_rings,
                     level_diagnostics, solve_harmonic)


def radial_potential(r, p, r1=1.0, r2=2.0, n=2):
    """Independent oracle: the radial ring potential from the ODE
    (|u'|^(p-2) u' r^(n-1))' = 0, normalized to 1 on r1 and 0 on r2."""
    r = np.maximum(np.asarray(r, dtype=float), 1e-12)
    k = (p - n) / (p - 1.0)
    if abs(k) < 1e-14:
        return np.log(r2 / r) / np.log(r2 / r1)
    return (r2 ** k - r ** k) / (r2 ** k - r1 ** k)


def radial_gradient(r, p, r1=1.0, r2=2.0, n=2):
    r = np.asarray(r, dtype=float)
    k = (p - n) / (p - 1.0)
    if abs(k) < 1e-14:
        return 1.0 / (r * np.log(r2 / r1))
    return abs(k) * r ** (k - 1) / abs(r2 ** k - r1 ** k)


def erode8(m):
    """The nodes of m whose eight neighbours all lie in m (off the array
    counts as outside)."""
    ny, nx = m.shape
    padded = np.pad(m, 1, constant_values=False)
    out = m.copy()
    for dj in range(3):
        for di in range(3):
            out &= padded[dj:dj + ny, di:di + nx]
    return out


@pytest.fixture(scope="session")
def annulus257():
    return make_annulus(1.0, 2.0, resolution=257)


@pytest.fixture(scope="session")
def harmonic257(annulus257):
    return solve_harmonic(annulus257)


@pytest.fixture(scope="session")
def diag257(harmonic257):
    return level_diagnostics(harmonic257)


@pytest.fixture(scope="session")
def annulus129():
    return make_annulus(1.0, 2.0, resolution=129)


@pytest.fixture(scope="session")
def harmonic129(annulus129):
    return solve_harmonic(annulus129)


@pytest.fixture(scope="session")
def cap_rings257():
    cap = build_dini_cap(0.25, PowerModulus(0.5))
    return make_rings(cap, resolution=257)


@pytest.fixture(scope="session")
def cap_harmonic257(cap_rings257):
    return solve_harmonic(cap_rings257.inner_ring)
