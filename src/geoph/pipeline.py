"""End-to-end runs: load precincts, build the requested complex, compute
persistence, and write artifacts.  Also the batch benchmark driver.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterable

import numpy as np

from .adjacency import DEFAULT_STEP, DEFAULT_TOL, AdjacencyGraph, check_step, check_tol
from .adjacency import build_adjacency_complex, queen_adjacency
from .alpha import build_alpha_complex
from .barcode import Barcode, classify_long_persistence
from .complexes import FilteredComplex
from .errors import GeophError, InputError
from .geometry import PointCloud
from .homology import barcode_of
from .levelset import (
    DEFAULT_STRIDE,
    BitMask,
    GridVertexSchedule,
    ScalarField,
    check_front,
    complex_from_schedule,
    rasterize_mask,
    signed_distance_field,
    vertex_coordinates,
    vertex_schedule,
    write_pgm,
)
from .precincts import PrecinctMap, centroids, check_candidate, load_precincts, winner_rows
from .precincts import winning_precincts
from .render import render_barcode_svg, render_feature_map
from .rips import build_vr_complex, check_eps_max

METHODS = ("vr", "alpha", "adjacency", "levelset")
VR_SWITCH_THRESHOLD = 150


@dataclass
class RunConfig:
    method: str
    candidate: str
    eps_max: float | None = None
    step: float = DEFAULT_STEP
    stride: int = DEFAULT_STRIDE
    velocity: float = 1.0
    dt: float = 1.0
    n_steps: int | None = None
    tol: float = DEFAULT_TOL
    auto_alpha: bool = True

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InputError(f"method must be one of {METHODS}, got {self.method!r}")
        check_candidate(self.candidate)
        check_eps_max(self.eps_max)
        check_step(self.step)
        check_tol(self.tol)
        check_front(self.velocity, self.dt, self.n_steps, self.stride)


@dataclass
class BenchmarkRow:
    input_name: str
    candidate: str
    method: str
    precincts: int
    winners: int
    simplices: int
    build_seconds: float
    ph_seconds: float


@dataclass
class RunResult:
    config: RunConfig
    method_used: str
    barcode: Barcode
    complex: FilteredComplex
    row: BenchmarkRow
    vertex_coords: np.ndarray  # (n, 2): row v holds vertex v's map coordinates
    graph: AdjacencyGraph | None = None
    schedule: GridVertexSchedule | None = None
    mask: BitMask | None = None
    field_: ScalarField | None = field(default=None)


def run_pipeline(cfg: RunConfig, m: PrecinctMap, input_name: str = "map") -> RunResult:
    """Build the configured complex for one map and compute its barcode."""
    winners = winning_precincts(m, cfg.candidate)
    method = cfg.method
    graph = schedule = mask = field_v = None
    coords = np.empty((0, 2))

    t0 = time.perf_counter()
    if not winners:
        warnings.warn(
            f"no {cfg.candidate}-winning precincts in {input_name}; empty complex",
            stacklevel=2,
        )
        fc = FilteredComplex([])
    elif method in ("vr", "alpha"):
        if method == "vr" and len(winners) > VR_SWITCH_THRESHOLD:
            if cfg.auto_alpha:
                warnings.warn(
                    f"{len(winners)} precincts exceed the Vietoris-Rips budget; "
                    "switching to the alpha complex",
                    stacklevel=2,
                )
                method = "alpha"
            else:
                warnings.warn(
                    f"{len(winners)} precincts make the Vietoris-Rips complex large",
                    stacklevel=2,
                )
        pts = centroids(winners)
        coords = np.array(pts)
        with warnings.catch_warnings():  # the builders report duplicates themselves
            warnings.filterwarnings("ignore", "point cloud contains duplicate coordinates")
            cloud = PointCloud(points=tuple(pts))
        if method == "vr":
            fc = build_vr_complex(cloud, eps_max=cfg.eps_max)
        else:
            fc = build_alpha_complex(cloud)
    elif method == "adjacency":
        graph = queen_adjacency(m, tol=cfg.tol)
        fc = build_adjacency_complex(m, graph, cfg.candidate, step=cfg.step)
        coords = np.array(centroids(winners))
    else:  # levelset
        mask = rasterize_mask(m, cfg.candidate)
        field_v = signed_distance_field(mask)
        schedule = vertex_schedule(
            field_v, cfg.velocity, cfg.dt, cfg.n_steps, cfg.stride
        )
        fc = complex_from_schedule(schedule)
        coords = vertex_coordinates(schedule, mask.transform)
    build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    barcode = classify_long_persistence(barcode_of(fc))
    ph_seconds = time.perf_counter() - t0

    row = BenchmarkRow(
        input_name=input_name,
        candidate=cfg.candidate,
        method=method,
        precincts=len(m),
        winners=len(winners),
        simplices=len(fc),
        build_seconds=build_seconds,
        ph_seconds=ph_seconds,
    )
    return RunResult(
        config=cfg,
        method_used=method,
        barcode=barcode,
        complex=fc,
        row=row,
        vertex_coords=coords,
        graph=graph,
        schedule=schedule,
        mask=mask,
        field_=field_v,
    )


def write_outputs(result: RunResult, m: PrecinctMap, out_dir: str | Path) -> list[Path]:
    """Write every artifact of a run into ``out_dir``; returns the paths.

    Timings appear only in run.json; all other files are byte-deterministic
    for a given input and configuration.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, blocks: Iterable[str]) -> None:
        p = out / name
        with p.open("w") as f:
            f.writelines(blocks)
        written.append(p)

    # The two largest files go to disk a block at a time, never as one string.
    emit("barcode.json", result.barcode.json_blocks())
    emit("barcode.svg", [render_barcode_svg(result.barcode)])
    emit(
        "feature_map.svg",
        [render_feature_map(m, result.barcode, result.config.candidate, result.vertex_coords)],
    )
    emit("complex.txt", result.complex.text_blocks())
    if result.graph is not None:
        emit("adjacency.txt", [result.graph.to_edge_list()])
    if result.schedule is not None:
        emit("schedule.txt", [result.schedule.to_text()])
    if result.mask is not None:
        write_pgm(result.mask, out / "mask.pgm")
        written.append(out / "mask.pgm")
    if result.field_ is not None:
        write_pgm(result.field_, out / "field.pgm")
        written.append(out / "field.pgm")
    v, e, t = result.complex.counts()
    run_info = {
        "input": result.row.input_name,
        "candidate": result.config.candidate,
        "method_requested": result.config.method,
        "method_used": result.method_used,
        "vertices": v,
        "edges": e,
        "triangles": t,
        "bars": len(result.barcode.shown()),
        "build_seconds": result.row.build_seconds,
        "ph_seconds": result.row.ph_seconds,
        "config": {
            k: v for k, v in asdict(result.config).items() if k not in ("method", "candidate")
        },
    }
    emit("run.json", [json.dumps(run_info, indent=2, sort_keys=True) + "\n"])
    return written


def _bench_one(
    m: PrecinctMap | str, path: Path, method: str, candidate: str
) -> BenchmarkRow | None:
    """One cell of the table: a build on the loaded map ``m``, or else a
    warning with the reason the cell is dropped (``m`` itself when the file
    could not be loaded).  A vr cell past the Vietoris-Rips budget is
    dropped before it builds, since ``run_pipeline`` would build the alpha
    cell again in its place."""
    reason = m
    if not isinstance(m, str):
        try:
            cfg = RunConfig(method=method, candidate=candidate)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                n = len(winner_rows(m, candidate))
                if method != "vr" or n <= VR_SWITCH_THRESHOLD:
                    return run_pipeline(cfg, m, input_name=path.stem).row
            reason = f"{n} winners exceed the Vietoris-Rips budget of {VR_SWITCH_THRESHOLD}"
        except GeophError as exc:
            reason = str(exc)
        except MemoryError:
            # e.g. VR on a map too large for this machine: drop the cell, not the table
            reason = "out of memory"
    warnings.warn(f"{path.name} {method}/{candidate}: {reason}", stacklevel=2)
    return None


def bench_directory(input_dir: str | Path, out_path: str | Path) -> list[BenchmarkRow]:
    """Run every method and candidate over every GeoJSON file in a directory,
    loading each file once.

    Failed combinations are dropped and show up as missing table cells; a
    file that cannot be loaded drops all of its cells.
    """
    input_dir = Path(input_dir)
    if not input_dir.is_dir():
        raise InputError(f"input directory {input_dir} not found")
    if not Path(out_path).parent.is_dir():  # checked before the first build, not after the last
        raise InputError(f"output directory {Path(out_path).parent} not found")
    files = sorted(
        p for p in input_dir.iterdir() if p.suffix.lower() in (".geojson", ".json")
    )
    if not files:
        raise InputError(f"no .geojson inputs under {input_dir}")
    rows = []
    for path in files:
        try:
            m = load_precincts(path)
        except GeophError as exc:
            m = str(exc)
        except MemoryError:
            m = "out of memory"
        cells = [_bench_one(m, path, method, c) for method in METHODS for c in ("blue", "red")]
        rows += [r for r in cells if r is not None]
    rows.sort(key=lambda r: (r.input_name, r.method, r.candidate))
    benchmark_report(rows, out_path)
    return rows


def benchmark_report(rows: list[BenchmarkRow], path: str | Path) -> tuple[Path, Path]:
    """Write rows as CSV plus an aligned text table with per-method B/R columns.

    The CSV goes to ``path`` and the table alongside it with a .txt suffix.
    Cells with no corresponding run show "--".
    """
    path = Path(path)
    txt_path = path.with_suffix(".txt")

    header = "input,candidate,method,precincts,winners,simplices,build_seconds,ph_seconds"
    lines = [header]
    for r in sorted(rows, key=lambda r: (r.input_name, r.method, r.candidate)):
        lines.append(
            f"{r.input_name},{r.candidate},{r.method},{r.precincts},{r.winners},"
            f"{r.simplices},{r.build_seconds:.4f},{r.ph_seconds:.4f}"
        )
    path.write_text("\n".join(lines) + "\n")

    by_cell = {(r.input_name, r.method, r.candidate): r for r in rows}
    inputs = sorted({r.input_name for r in rows})
    nprec = {r.input_name: r.precincts for r in rows}

    def table(title: str, cell) -> list[str]:
        cols = ["input", "#prec"] + [f"{m} {c}" for m in METHODS for c in ("B", "R")]
        grid = [cols]
        for name in inputs:
            row = [name, str(nprec[name])]
            for m in METHODS:
                for cand in ("blue", "red"):
                    r = by_cell.get((name, m, cand))
                    row.append("--" if r is None else cell(r))
            grid.append(row)
        widths = [max(len(row[i]) for row in grid) for i in range(len(cols))]
        out = [title, ""]
        for j, row in enumerate(grid):
            out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if j == 0:
                out.append("  ".join("-" * w for w in widths))
        out.append("")
        return out

    text = []
    text += table("Simplex counts", lambda r: str(r.simplices))
    text += table(
        "Seconds (build/homology)",
        lambda r: f"{r.build_seconds:.2f}/{r.ph_seconds:.2f}",
    )
    txt_path.write_text("\n".join(text))
    return path, txt_path
