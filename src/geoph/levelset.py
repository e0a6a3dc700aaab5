"""Level-set front propagation over a rasterized vote mask.

The winning precincts are rasterized to a bit mask (even-odd scanline fill
over every segment at once, crossings paired off in sorted order), turned
into a signed distance field (positive inside, negative outside), and then
advanced at constant speed: the front at step k is the superlevel set
phi + v*k*dt >= 0, which for a distance field is plain outward dilation.
The squared Euclidean distance transform is exact and separable: a column
pass finds each cell's nearest feature row with running max/min index
scans and squares the gap; a row pass then takes
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
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .complexes import FilteredComplex, _ranges
from .errors import InputError, NumericalError
from .precincts import PrecinctMap, winner_rows

MAX_SIDE = 250
DEFAULT_STRIDE = 5


def check_front(velocity: float, dt: float, n_steps: int | None, stride: int) -> None:
    """Speed and time step finite and positive, their product large enough to
    count steps across ``MAX_SIDE`` cells; stride an int >= 1; n_steps None
    or an int >= 0.  As for vote counts, a bool is not an int here."""
    for name, value in (("velocity", velocity), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"{name} must be finite and positive, got {value}")
    if velocity * dt == 0 or not math.isfinite(MAX_SIDE / (velocity * dt)):
        raise InputError(
            f"velocity * dt = {velocity * dt!r} is too small to count "
            f"steps across {MAX_SIDE} cells"
        )
    if isinstance(stride, bool) or not isinstance(stride, int):
        raise InputError(f"stride must be an integer, got {stride!r}")
    if stride < 1:
        raise InputError(f"stride must be at least 1, got {stride}")
    if n_steps is not None and (isinstance(n_steps, bool) or not isinstance(n_steps, int)):
        raise InputError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps is not None and n_steps < 0:
        raise InputError(f"n_steps must be non-negative, got {n_steps}")


@dataclass(frozen=True)
class GridTransform:
    """Affine map from grid cells to map coordinates (square cells)."""

    x0: float
    y0: float
    cell: float


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    if not 0.0 < cell < math.inf:
        raise NumericalError(f"map extent {long_extent!r} gives no finite positive cell size")
    w = max(1, min(max_side, math.ceil(extent_x / cell - 1e-9)))
    h = max(1, min(max_side, math.ceil(extent_y / cell - 1e-9)))
    return w, h, cell


def rasterize_mask(m: PrecinctMap, candidate: str, max_side: int = MAX_SIDE) -> BitMask:
    """Even-odd scanline fill of the candidate's winning precincts.

    The grid covers the bounding box of the whole map, its longer side
    ``max_side`` cells, cells square.  A cell is set when its center lies
    inside a winning precinct.  An empty winning set gives an all-false
    mask.  A map whose extent, cell size or scanline crossings leave the
    float range raises ``NumericalError``.
    """
    if not (1 <= max_side <= MAX_SIDE):
        raise ValueError(f"max_side must be in [1, {MAX_SIDE}]")
    x0, y0, x1, y1 = m.bbox()
    w, h, cell = _grid_shape(x1 - x0, y1 - y0, max_side)
    table = m.ring_table
    won = np.zeros(len(m), dtype=bool)
    won[winner_rows(m, candidate)] = True
    # segment a runs from row a to the next row of its ring
    after = table.next_rows()
    a = np.flatnonzero(won[table.owner])
    (ax, ay), (bx, by) = table.points[a].T, table.points[after[a]].T
    # a segment crosses row y only when min(ay, by) <= y < max(ay, by), a flat one none
    centers = y0 + (np.arange(h) + 0.5) * cell  # ascending
    first = np.searchsorted(centers, np.minimum(ay, by))
    count = np.searchsorted(centers, np.maximum(ay, by)) - first
    seg = np.repeat(np.arange(len(a)), count)
    row = _ranges(first, count)
    with np.errstate(over="ignore", invalid="ignore"):
        x = ax[seg] + (centers[row] - ay[seg]) * (bx[seg] - ax[seg]) / (by[seg] - ay[seg])
    if not np.isfinite(x).all():
        raise NumericalError("a scanline crossing leaves the float range")
    # A closed ring crosses each row an even number of times, so in
    # (precinct, row, x) order the crossings pair off in turn; any key that
    # tells the precincts apart, here their map positions, pairs the same.
    at = np.lexsort((x, row, table.owner[a[seg]]))
    # columns whose center x satisfies lo <= x < hi, clipped to the grid
    col = np.clip(np.ceil((x[at] - x0) / cell - 0.5 - 1e-9), 0, w).astype(np.int64)
    lo, hi = col[::2], col[1::2]
    # +1 where a run starts and -1 where it stops (lo <= hi, as x is sorted):
    # each row's running sum is positive exactly on the union of its runs
    key, size = row[at[::2]] * (w + 1), h * (w + 1)
    runs = np.bincount(key + lo, minlength=size) - np.bincount(key + hi, minlength=size)
    cells = runs.reshape(h, w + 1).cumsum(axis=1)[:, :w] > 0
    return BitMask(cells=cells, transform=GridTransform(x0=x0, y0=y0, cell=cell))


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


@dataclass(frozen=True, eq=False)
class GridVertexSchedule:
    """Entry step of every strided grid vertex, as one float64 grid over the
    lattice rows x cols (``inf``: never enters).  Steps are whole numbers,
    which a float holds exactly up to 1e308."""

    stride: int
    n_steps: int
    steps: np.ndarray

    @property
    def rows(self) -> range:
        return range(0, self.steps.shape[0] * self.stride, self.stride)

    @property
    def cols(self) -> range:
        return range(0, self.steps.shape[1] * self.stride, self.stride)

    def to_text(self) -> str:
        lines = [
            f"{r}\t{c}\t{'inf' if k == math.inf else '%d' % k}"
            for (r, c), k in zip(product(self.rows, self.cols), self.steps.ravel().tolist())
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
    check_front(velocity, dt, n_steps, stride)
    phi = field.values[::stride, ::stride]
    # + 0.0 turns the -0.0 that ceil gives in (-1, 0] into 0.0
    steps = np.ceil(np.maximum(-phi, 0.0) / (velocity * dt) - 1e-9) + 0.0
    needed = int(steps.max())
    if n_steps is None:
        n_steps = needed
    elif n_steps < needed:
        warnings.warn(
            f"n_steps={n_steps} leaves the front short; {needed} steps reach every vertex",
            stacklevel=2,
        )
        # a step is past n_steps exactly when it is past the largest float <= n_steps
        cut = float(n_steps)
        if cut > n_steps:
            cut = math.nextafter(cut, -math.inf)
        steps[steps > cut] = math.inf
    return GridVertexSchedule(stride=stride, n_steps=n_steps, steps=steps)


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
    steps = schedule.steps  # inf: never enters
    n_rows, n_cols = steps.shape
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


def vertex_coordinates(schedule: GridVertexSchedule, transform: GridTransform) -> np.ndarray:
    """Map coordinates of every scheduled vertex (entered or not) as an
    ``(n, 2)`` float64 array: row v holds vertex v's cell center."""
    cr = np.stack(np.meshgrid(schedule.cols, schedule.rows), axis=-1).reshape(-1, 2)
    with np.errstate(over="ignore"):  # as Python floats do
        return (transform.x0, transform.y0) + (cr + 0.5) * transform.cell


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
