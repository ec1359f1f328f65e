"""Benchmark workloads: seeded hopflab configs and the radial oracle.

Each workload is one ring and flow law, written as the INI file that
`hopflab check / solve / verify` reads. The seed only jitters the flow-law
exponent and the annulus outer radius, by amounts small enough to keep each
workload's layer profile; the program never sees the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_SEED = 0
# p only moves down: at grid 513 the p=1.5 solve takes 16 Newton iterates for
# p <= 1.5 but 15 from p = 1.505 up, and the jitter must keep the profile
P_JITTER = 0.02        # p moves down by at most this much
R2_JITTER = 0.005      # the annulus r2 moves by at most this share

INTERIOR = 1           # hopflab.geometry.Mask.INTERIOR in grid-file masks


@dataclass(frozen=True)
class Workload:
    name: str
    geometry: str               # "annulus" or "dini_cap"
    p: float
    resolution: int
    oracle_tol: float | None    # acceptance criterion 02; None: no closed form
    r1: float = 1.0
    r2: float = 2.0
    r_d: float = 0.25
    ring: str = "outer"
    modulus_a: float = 0.5

    def config_text(self) -> str:
        if self.geometry == "annulus":
            geometry = f"kind = annulus\nr1 = {self.r1!r}\nr2 = {self.r2!r}\n"
        else:
            geometry = (f"kind = dini_cap\nr_d = {self.r_d!r}\nring = {self.ring}\n\n"
                        f"[modulus]\nkind = power\na = {self.modulus_a!r}\n")
        return (f"[function]\nkind = power\np = {self.p!r}\n\n"
                f"[geometry]\n{geometry}\n"
                f"[grid]\nresolution = {self.resolution}\n")


# Why each workload is here: see BENCHMARK.json and the table in run.py.
WORKLOADS = {w.name: w for w in (
    Workload("annulus-p3-257", "annulus", 3.0, 257, oracle_tol=1e-2),
    Workload("cap-outer-p3-257", "dini_cap", 3.0, 257, oracle_tol=None),
    Workload("annulus-p1.5-513", "annulus", 1.5, 513, oracle_tol=2e-2),
)}


def seeded(wl: Workload, seed: int) -> Workload:
    """The workload's inputs for this seed; DEFAULT_SEED gives them unchanged."""
    if seed == DEFAULT_SEED:
        return wl
    rng = random.Random(f"{wl.name}/{seed}")
    p = round(wl.p - rng.uniform(0.0, P_JITTER), 6)
    r2 = round(wl.r2 * (1.0 + rng.uniform(-R2_JITTER, R2_JITTER)), 6)
    return replace(wl, p=p, r2=r2 if wl.geometry == "annulus" else wl.r2)


def radial_potential(r, p, r1, r2):
    """Closed-form radial p-potential in the plane: 1 on r = r1, 0 on r = r2."""
    r = np.maximum(np.asarray(r, dtype=float), 1e-12)
    k = (p - 2.0) / (p - 1.0)
    if abs(k) < 1e-14:
        return np.log(r2 / r) / np.log(r2 / r1)
    return (r2 ** k - r ** k) / (r2 ** k - r1 ** k)


def read_grid(path):
    """(x, y, values, mask) arrays from a hopflab grid file."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "gridfield 1":
        raise ValueError(f"{path} is not a grid file")
    head, i = {}, 1
    while True:
        key, _, rest = lines[i].partition(" ")
        head[key] = rest
        i += 1
        if key == "blocks":
            break
    nx, ny = int(head["nx"]), int(head["ny"])
    x0, y0 = (float(v) for v in head["origin"].split())
    h = float(head["spacing"])
    values = np.loadtxt(lines[i:i + ny], dtype=float, ndmin=2)
    mask = np.loadtxt(lines[i + ny:i + 2 * ny], dtype=int, ndmin=2)
    x, y = np.meshgrid(x0 + h * np.arange(nx), y0 + h * np.arange(ny), indexing="xy")
    return x, y, values, mask


def oracle_error(wl: Workload, potential_grid) -> float:
    """Max over interior nodes of |potential - radial p-potential|."""
    x, y, values, mask = read_grid(potential_grid)
    exact = radial_potential(np.hypot(x, y), wl.p, wl.r1, wl.r2)
    return float(np.max(np.abs(values - exact)[mask == INTERIOR]))
