"""Level-set front propagation over a rasterized vote mask.

The winning precincts are rasterized to a bit mask (even-odd scanline fill),
turned into a signed distance field (positive inside, negative outside),
and then advanced at constant speed: the front at step k is the superlevel
set phi + v*k*dt >= 0, which for a distance field is plain outward
dilation.  The squared Euclidean distance transform is exact and separable:
a column pass finds each cell's nearest feature row with running max/min
index scans and squares the gap; a row pass then takes
out[r, q] = min_p (q - p)^2 + g[r, p] over growing offsets |q - p|, and
stops once the next offset's square reaches the largest value so far.
The filtered complex lives on a strided subgrid: a vertex enters at the
first step its cell joins the superlevel set, edges connect the four
cardinal neighbours plus the NW and SE diagonals, and each lattice square
contributes the two triangles cut by its NW-SE diagonal.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .complexes import FilteredComplex
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
    centers = [y0 + (row + 0.5) * cell for row in range(h)]  # ascending

    for p in winning_precincts(m, candidate):
        segments = [
            seg
            for ring in p.rings
            for seg in zip(ring[:-1], ring[1:])
            if seg[0][1] != seg[1][1]
        ]
        # a segment crosses row y only when min(ay, by) <= y < max(ay, by)
        ys = [y for seg in segments for _, y in seg]
        first = bisect_left(centers, min(ys, default=0.0))
        stop = bisect_left(centers, max(ys, default=0.0))
        for row in range(first, stop):
            y = centers[row]
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


def _distance_sq_to(feature: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance from every cell to the nearest True cell.

    Every value is an integer below 2 * MAX_SIDE^2, or inf where there is
    no True cell at all, so every sum and minimum is exact.
    """
    h, w = feature.shape
    rows = np.arange(h, dtype=float)[:, None]
    above = np.maximum.accumulate(np.where(feature, rows, -np.inf), axis=0)
    below = np.minimum.accumulate(np.where(feature, rows, np.inf)[::-1], axis=0)[::-1]
    g = np.minimum(rows - above, below - rows) ** 2
    out = g.copy()
    dp = 1
    while dp < w and dp * dp < out.max():
        # no offset from dp on can lower a value at or below dp^2
        np.minimum(out[:, dp:], g[:, :-dp] + dp * dp, out=out[:, dp:])
        np.minimum(out[:, :-dp], g[:, dp:] + dp * dp, out=out[:, :-dp])
        dp += 1
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
    if velocity * dt == 0 or not math.isfinite(MAX_SIDE / (velocity * dt)):
        raise ValueError(
            f"velocity * dt = {velocity * dt!r} is too small to count steps "
            f"across {MAX_SIDE} cells"
        )
    if stride < 1:
        raise ValueError("stride must be at least 1")
    h, w = field.shape
    rows = tuple(range(0, h, stride))
    cols = tuple(range(0, w, stride))
    phi = field.values[::stride, ::stride]
    # Python ints, not int64: a tiny velocity * dt gives counts near 1e302.
    raw = np.frompyfunc(int, 1, 1)(
        np.ceil(np.maximum(-phi, 0.0) / (velocity * dt) - 1e-9)
    ).ravel()
    needed = raw.max(initial=0)
    if n_steps is None:
        n_steps = needed
    elif n_steps < needed:
        warnings.warn(
            f"n_steps={n_steps} leaves the front short; {needed} steps reach every vertex",
            stacklevel=2,
        )
    entry = tuple(np.where(raw <= n_steps, raw, None).tolist())
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
    n_rows, n_cols = len(schedule.rows), len(schedule.cols)
    steps = np.array(schedule.entry, dtype=float).reshape(n_rows, n_cols)
    steps[np.isnan(steps)] = np.inf  # None: never enters
    ids = np.arange(n_rows * n_cols).reshape(n_rows, n_cols)
    rows: list[list[np.ndarray]] = [[], [], []]
    values: list[list[np.ndarray]] = [[], [], []]
    # Corner offsets of each simplex from its top-left vertex, in ascending
    # id order: the vertex, its E, S and SE edges, and the two triangles of
    # the square split by its NW-SE diagonal.
    for corners in (
        ((0, 0),),
        ((0, 0), (0, 1)),
        ((0, 0), (1, 0)),
        ((0, 0), (1, 1)),
        ((0, 0), (0, 1), (1, 1)),
        ((0, 0), (1, 0), (1, 1)),
    ):
        h = n_rows - max(dr for dr, _ in corners)
        w = n_cols - max(dc for _, dc in corners)
        windows = [(slice(dr, dr + h), slice(dc, dc + w)) for dr, dc in corners]
        value = np.max([steps[win] for win in windows], axis=0)
        entered = np.isfinite(value)
        rows[len(corners) - 1].append(np.stack([ids[win][entered] for win in windows], axis=1))
        values[len(corners) - 1].append(value[entered])
    return FilteredComplex._from_arrays(
        [np.concatenate(r) for r in rows], [np.concatenate(v) for v in values]
    )


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
