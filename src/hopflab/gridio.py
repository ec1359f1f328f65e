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
    """(grid, values, mask); ValueError naming the file if it is malformed."""
    path = Path(path)
    raw = path.read_text().splitlines()
    if not raw or raw[0].strip() != "gridfield 1":
        raise ValueError(f"{path} is not a grid file")
    # the header runs up to and including its blocks line
    i = next((k + 1 for k, line in enumerate(raw) if line.startswith("blocks")), len(raw))
    head = dict(line.partition(" ")[::2] for line in raw[1:i])
    try:
        x0, y0 = (float(v) for v in head["origin"].split())
        grid = Grid(x0, y0, int(head["nx"]), int(head["ny"]), float(head["spacing"]))
        blocks = head["blocks"].split()
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path} has a malformed header ({exc!r})") from None
    values = _block(path, "values", raw[i:i + grid.ny], float, grid)
    mask = (_block(path, "mask", raw[i + grid.ny:i + 2 * grid.ny], np.uint8, grid)
            if "mask" in blocks else None)
    return grid, values, mask


def _block(path, name, rows, dtype, grid: Grid):
    """The ny rows of nx numbers of one block, or ValueError naming path."""
    try:
        if len(rows) == grid.ny:
            block = np.loadtxt(rows, dtype=dtype, ndmin=2)
            if block.shape == (grid.ny, grid.nx):
                return block
    except ValueError:
        pass
    raise ValueError(f"{path}: the {name} block is not {grid.ny} rows of {grid.nx} numbers")


def write_table(path, header: list[str], rows):
    """Comma-separated table of int and float cells with a header row, full
    round-trip precision."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(int(c)) if isinstance(c, (int, np.integer))
                              else repr(float(c)) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")
