"""Level-set front propagation over a rasterized vote mask.

The winning precincts are rasterized to a bit mask (even-odd scanline fill),
turned into a signed distance field (positive inside, negative outside,
built by an exact two-pass Euclidean distance transform), and then advanced
at constant speed: the front at step k is the superlevel set phi + v*k*dt
>= 0, which for a distance field is plain outward dilation.  The filtered
complex lives on a strided subgrid: a vertex enters at the first step its
cell joins the superlevel set, edges connect the four cardinal neighbours
plus the NW and SE diagonals, and each lattice square contributes the two
triangles cut by its NW-SE diagonal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .complexes import Entry, FilteredComplex
from .errors import InputError
from .geometry import Point
from .precincts import PrecinctMap, winning_precincts

MAX_SIDE = 250
DEFAULT_STRIDE = 5


@dataclass(frozen=True)
class GridTransform:
    """Affine map from grid cells to map coordinates (square cells)."""

    x0: float
    y0: float
    cell: float

    def cell_center(self, row: int, col: int) -> Point:
        return (self.x0 + (col + 0.5) * self.cell, self.y0 + (row + 0.5) * self.cell)


@dataclass(frozen=True)
class BitMask:
    """Boolean raster (row 0 at the bottom of the map) with its transform."""

    cells: np.ndarray
    transform: GridTransform

    def __post_init__(self) -> None:
        if self.cells.dtype != bool or self.cells.ndim != 2:
            raise ValueError("cells must be a 2D boolean array")
        h, w = self.cells.shape
        if not (1 <= w <= MAX_SIDE and 1 <= h <= MAX_SIDE):
            raise ValueError(f"mask dimensions {w}x{h} exceed {MAX_SIDE}")

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]


@dataclass(frozen=True)
class ScalarField:
    """Real-valued raster sharing the BitMask layout."""

    values: np.ndarray
    transform: GridTransform

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _grid_shape(extent_x: float, extent_y: float, max_side: int) -> tuple[int, int, float]:
    long_extent = max(extent_x, extent_y)
    if long_extent <= 0.0:
        return 1, 1, 1.0
    cell = long_extent / max_side
    w = max(1, min(max_side, math.ceil(extent_x / cell - 1e-9)))
    h = max(1, min(max_side, math.ceil(extent_y / cell - 1e-9)))
    return w, h, cell


def rasterize_mask(m: PrecinctMap, candidate: str, max_side: int = MAX_SIDE) -> BitMask:
    """Even-odd scanline fill of the candidate's winning precincts.

    The grid covers the bounding box of the whole map, its longer side
    ``max_side`` cells, cells square.  A cell is set when its center lies
    inside a winning precinct.  An empty winning set gives an all-false
    mask.
    """
    if not (1 <= max_side <= MAX_SIDE):
        raise ValueError(f"max_side must be in [1, {MAX_SIDE}]")
    x0, y0, x1, y1 = m.bbox()
    w, h, cell = _grid_shape(x1 - x0, y1 - y0, max_side)
    transform = GridTransform(x0=x0, y0=y0, cell=cell)
    cells = np.zeros((h, w), dtype=bool)

    for p in winning_precincts(m, candidate):
        segments = [
            seg
            for ring in p.rings
            for seg in zip(ring[:-1], ring[1:])
            if seg[0][1] != seg[1][1]
        ]
        for row in range(h):
            y = y0 + (row + 0.5) * cell
            xs = []
            for (ax, ay), (bx, by) in segments:
                if (ay <= y) != (by <= y):
                    xs.append(ax + (y - ay) * (bx - ax) / (by - ay))
            xs.sort()
            for lo, hi in zip(xs[::2], xs[1::2]):
                # columns whose center x satisfies lo <= x < hi
                c_lo = math.ceil((lo - x0) / cell - 0.5 - 1e-9)
                c_hi = math.ceil((hi - x0) / cell - 0.5 - 1e-9)
                if c_hi > c_lo:
                    cells[row, max(0, c_lo) : min(w, c_hi)] = True
    return BitMask(cells=cells, transform=transform)


def _envelope_sq(f: np.ndarray) -> np.ndarray:
    """1D lower envelope: out[q] = min_p (q - p)^2 + f[p]^2, inf-aware."""
    n = f.shape[0]
    out = np.full(n, np.inf)
    centers = [q for q in range(n) if f[q] != np.inf]
    if not centers:
        return out
    fsq = f * f
    v = [centers[0]]
    z = [-np.inf, np.inf]
    for q in centers[1:]:
        while True:
            p = v[-1]
            s = (fsq[q] + q * q - fsq[p] - p * p) / (2.0 * (q - p))
            if s <= z[-2]:
                v.pop()
                z.pop()
            else:
                z[-1] = s
                z.append(np.inf)
                v.append(q)
                break
    k = 0
    for q in range(n):
        while z[k + 1] < q:
            k += 1
        out[q] = (q - v[k]) ** 2 + fsq[v[k]]
    return out


def _distance_sq_to(feature: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance from every cell to the nearest True cell."""
    h, w = feature.shape
    g = np.where(feature, 0.0, np.inf)
    for r in range(1, h):
        g[r] = np.minimum(g[r], g[r - 1] + 1.0)
    for r in range(h - 2, -1, -1):
        g[r] = np.minimum(g[r], g[r + 1] + 1.0)
    out = np.empty((h, w))
    for r in range(h):
        out[r] = _envelope_sq(g[r])
    return out


def signed_distance_field(mask: BitMask) -> ScalarField:
    """Signed distance to the mask boundary, positive inside.

    Distances are measured between cell centers, shifted half a cell so the
    zero level sits on the boundary between regions; values are clipped at
    plus or minus the longer grid side.  A uniform mask has no boundary and
    produces a constant field (with a warning).
    """
    cells = mask.cells
    h, w = cells.shape
    clip = float(max(h, w))
    if cells.all():
        warnings.warn("mask is entirely true; distance field is constant", stacklevel=2)
        values = np.full((h, w), clip)
    elif not cells.any():
        warnings.warn("mask is entirely false; distance field is constant", stacklevel=2)
        values = np.full((h, w), -clip)
    else:
        d_out = np.sqrt(_distance_sq_to(~cells))
        d_in = np.sqrt(_distance_sq_to(cells))
        values = np.where(cells, d_out - 0.5, 0.5 - d_in)
        values = np.clip(values, -clip, clip)
    return ScalarField(values=values, transform=mask.transform)


def superlevel_mask_at(field: ScalarField, velocity: float, t: float) -> BitMask:
    """Front position after time t: cells with phi + velocity*t >= 0."""
    if velocity < 0:
        raise ValueError("velocity must be non-negative")
    return BitMask(cells=field.values + velocity * t >= 0.0, transform=field.transform)


@dataclass(frozen=True)
class GridVertexSchedule:
    """Entry step for every strided grid vertex (None = never enters)."""

    stride: int
    n_steps: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    entry: tuple[int | None, ...]  # row-major over rows x cols

    def items(self) -> list[tuple[int, int, int | None]]:
        out = []
        i = 0
        for r in self.rows:
            for c in self.cols:
                out.append((r, c, self.entry[i]))
                i += 1
        return out

    def to_text(self) -> str:
        lines = [
            f"{r}\t{c}\t{'inf' if k is None else k}" for r, c, k in self.items()
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def vertex_schedule(
    field: ScalarField,
    velocity: float = 1.0,
    dt: float = 1.0,
    n_steps: int | None = None,
    stride: int = DEFAULT_STRIDE,
) -> GridVertexSchedule:
    """First step at which each strided vertex joins the superlevel set.

    The default step budget is exactly enough for every vertex to enter
    (the field is clipped, so this is bounded by the grid side); a smaller
    explicit budget leaves vertices out and warns.
    """
    if velocity <= 0 or dt <= 0:
        raise ValueError("velocity and dt must be positive")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    h, w = field.shape
    rows = tuple(range(0, h, stride))
    cols = tuple(range(0, w, stride))
    raw: list[int] = []
    for r in rows:
        for c in cols:
            phi = float(field.values[r, c])
            raw.append(0 if phi >= 0 else math.ceil(-phi / (velocity * dt) - 1e-9))
    needed = max(raw, default=0)
    if n_steps is None:
        n_steps = needed
    elif n_steps < needed:
        warnings.warn(
            f"n_steps={n_steps} leaves the front short; {needed} steps reach every vertex",
            stacklevel=2,
        )
    entry = tuple(k if k <= n_steps else None for k in raw)
    return GridVertexSchedule(
        stride=stride, n_steps=n_steps, rows=rows, cols=cols, entry=entry
    )


def build_levelset_complex(
    field: ScalarField,
    velocity: float = 1.0,
    dt: float = 1.0,
    n_steps: int | None = None,
    stride: int = DEFAULT_STRIDE,
) -> FilteredComplex:
    """Filtration of the strided grid by front arrival step.

    Edges and triangles enter when their last vertex does: an edge at the
    max of its endpoint steps, a triangle at the max over its three
    corners.  Vertices that never enter take no part.
    """
    schedule = vertex_schedule(field, velocity, dt, n_steps, stride)
    return complex_from_schedule(schedule)


def complex_from_schedule(schedule: GridVertexSchedule) -> FilteredComplex:
    rows, cols = schedule.rows, schedule.cols
    ncols = len(cols)
    step_of: dict[tuple[int, int], int] = {}
    i = 0
    for ri in range(len(rows)):
        for ci in range(ncols):
            k = schedule.entry[i]
            if k is not None:
                step_of[(ri, ci)] = k
            i += 1

    def vid(ri: int, ci: int) -> int:
        return ri * ncols + ci

    entries: list[Entry] = []
    for (ri, ci), k in step_of.items():
        entries.append(((vid(ri, ci),), float(k)))
        for dr, dc in ((0, 1), (1, 0), (1, 1)):
            other = (ri + dr, ci + dc)
            if other in step_of:
                pair = tuple(sorted((vid(ri, ci), vid(*other))))
                entries.append((pair, float(max(k, step_of[other]))))
    for ri in range(len(rows) - 1):
        for ci in range(ncols - 1):
            a, b = (ri, ci), (ri, ci + 1)
            c, d = (ri + 1, ci), (ri + 1, ci + 1)
            if a in step_of and d in step_of:
                for third in (b, c):
                    if third in step_of:
                        tri = tuple(sorted((vid(*a), vid(*third), vid(*d))))
                        value = float(
                            max(step_of[a], step_of[third], step_of[d])
                        )
                        entries.append((tri, value))
    return FilteredComplex(entries)


def vertex_coordinates(
    schedule: GridVertexSchedule, transform: GridTransform
) -> dict[int, Point]:
    """Map coordinates of every scheduled vertex id (entered or not)."""
    out = {}
    ncols = len(schedule.cols)
    for ri, r in enumerate(schedule.rows):
        for ci, c in enumerate(schedule.cols):
            out[ri * ncols + ci] = transform.cell_center(r, c)
    return out


def write_pgm(obj: BitMask | ScalarField, path: str | Path) -> None:
    """Dump a mask or field as binary 8-bit PGM (row-major, row 0 first)."""
    if isinstance(obj, BitMask):
        data = np.where(obj.cells, 255, 0).astype(np.uint8)
    elif isinstance(obj, ScalarField):
        v = obj.values
        lo, hi = float(v.min()), float(v.max())
        if hi > lo:
            data = np.clip((v - lo) / (hi - lo) * 255.0, 0, 255).astype(np.uint8)
        else:
            data = np.zeros(v.shape, dtype=np.uint8)
    else:
        raise InputError(f"cannot export {type(obj).__name__} as PGM")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
