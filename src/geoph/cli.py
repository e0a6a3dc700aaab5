"""Command line interface.

geoph build   build one filtered complex and write its artifacts
geoph bench   run every method over a directory of maps, tabulate results
geoph synth   generate a synthetic fixture map

Exit codes: 0 success, 2 input problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import InputError, NumericalError
from .pipeline import METHODS, RunConfig, bench_directory, run_pipeline, write_outputs
from .precincts import CANDIDATES, load_precincts
from .synth import FIXTURES, make_fixture, write_fixture


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoph",
        description="Filtered complexes and persistent homology for precinct maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build one complex and its artifacts")
    b.add_argument("--method", required=True, choices=METHODS)
    b.add_argument("--candidate", required=True, choices=CANDIDATES)
    b.add_argument("--input", required=True, help="GeoJSON FeatureCollection")
    b.add_argument("--out", required=True, help="output directory")
    b.add_argument("--eps-max", type=float, default=None, help="Vietoris-Rips cutoff")
    b.add_argument("--step", type=float, default=0.05, help="margin threshold step")
    b.add_argument("--stride", type=int, default=5, help="level-set grid stride")
    b.add_argument("--velocity", type=float, default=1.0, help="front speed, cells/step")
    b.add_argument("--dt", type=float, default=1.0, help="time step")
    b.add_argument("--steps", type=int, default=None, help="number of front steps")
    b.add_argument("--tol", type=float, default=1e-9, help="contiguity tolerance")
    b.add_argument(
        "--no-auto-alpha",
        action="store_true",
        help="never switch large Vietoris-Rips runs to the alpha complex",
    )

    n = sub.add_parser("bench", help="benchmark every method over a directory")
    n.add_argument("--input-dir", required=True)
    n.add_argument("--out", required=True, help="CSV path; table lands beside it")

    s = sub.add_parser("synth", help="write a synthetic fixture")
    s.add_argument("--fixture", required=True, choices=FIXTURES)
    s.add_argument("--out", required=True)
    s.add_argument("--n", type=int, default=5, help="grid side (grid fixture)")
    s.add_argument(
        "--hole-radius", type=float, default=20.0, help="hole radius (annulus fixture)"
    )
    s.add_argument("--gap", type=float, default=60.0, help="separation (blobs fixture)")
    return parser


def _cmd_build(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise InputError(f"--out {out} exists and is not a directory")
    cfg = RunConfig(
        method=args.method,
        candidate=args.candidate,
        eps_max=args.eps_max,
        step=args.step,
        stride=args.stride,
        velocity=args.velocity,
        dt=args.dt,
        n_steps=args.steps,
        tol=args.tol,
        auto_alpha=not args.no_auto_alpha,
    )
    m = load_precincts(args.input)
    result = run_pipeline(cfg, m, input_name=Path(args.input).stem)
    written = write_outputs(result, m, args.out)
    v, e, t = result.complex.counts()
    print(
        f"{result.row.input_name}: {result.method_used} complex for "
        f"{args.candidate} has {v} vertices, {e} edges, {t} triangles"
    )
    shown = result.barcode.shown()
    print(
        f"bars: {len(shown)} rendered, "
        f"{int(result.barcode.long_persistence[shown].sum())} long-persistence"
    )
    for p in written:
        print(f"wrote {p}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = bench_directory(args.input_dir, args.out)
    print(f"{len(rows)} runs -> {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    params = {}
    if args.fixture == "grid":
        params["n"] = args.n
    elif args.fixture == "annulus":
        params["hole_radius"] = args.hole_radius
    elif args.fixture == "blobs":
        params["gap"] = args.gap
    try:
        obj = make_fixture(args.fixture, **params)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    write_fixture(obj, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_synth(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a path given on the command line cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
