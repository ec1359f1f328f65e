"""Portable grid files and delimited tables.

Grid file layout (plain text, round-trip exact via repr floats):

    gridfield 1
    nx <int>
    ny <int>
    origin <x0> <y0>
    spacing <h>
    blocks values mask
    <ny rows of nx floats>
    <ny rows of nx ints>

Each value is written as repr of a Python float, the shortest string that
reads back to the same double, and the blocks are read with np.loadtxt, so
a round trip is bit-exact, -0.0, subnormals, nan and inf included.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import Grid


def write_grid_file(path, grid: Grid, values: np.ndarray, mask: np.ndarray | None = None):
    path = Path(path)
    lines = ["gridfield 1",
             f"nx {grid.nx}",
             f"ny {grid.ny}",
             f"origin {grid.x0!r} {grid.y0!r}",
             f"spacing {grid.h!r}"]
    blocks = ["values"] + (["mask"] if mask is not None else [])
    lines.append("blocks " + " ".join(blocks))
    lines.extend(" ".join(map(repr, row)) for row in np.asarray(values, dtype=float).tolist())
    if mask is not None:
        lines.extend(" ".join(map(str, row)) for row in np.asarray(mask).astype(int).tolist())
    path.write_text("\n".join(lines) + "\n")


def read_grid_file(path):
    path = Path(path)
    raw = path.read_text().splitlines()
    if not raw or raw[0].strip() != "gridfield 1":
        raise ValueError(f"{path} is not a grid file")
    head = {}
    i = 1
    while i < len(raw):
        key, _, rest = raw[i].partition(" ")
        head[key] = rest
        i += 1
        if key == "blocks":
            break
    nx = int(head["nx"])
    ny = int(head["ny"])
    x0, y0 = (float(v) for v in head["origin"].split())
    h = float(head["spacing"])
    grid = Grid(x0, y0, nx, ny, h)
    blocks = head["blocks"].split()
    values = np.loadtxt(raw[i:i + ny], dtype=float, ndmin=2)
    i += ny
    mask = None
    if "mask" in blocks:
        mask = np.loadtxt(raw[i:i + ny], dtype=np.uint8, ndmin=2)
    return grid, values, mask


def write_table(path, header: list[str], rows):
    """Comma-separated table with a header row, full round-trip precision."""
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, (bool, np.bool_)):
                cells.append(str(bool(c)))
            elif isinstance(c, (int, np.integer)):
                cells.append(str(int(c)))
            elif isinstance(c, (float, np.floating)):
                cells.append(repr(float(c)))
            else:
                cells.append(str(c))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
