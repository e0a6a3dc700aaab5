"""geoph benchmark: seeded precinct maps through ``geoph build``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each invocation measures one workload in
fresh child processes (see worker.py), prints a readable report, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Exit status is non-zero, with no JSON line, when the benchmark
itself cannot run (for example, no geoph sources under ``src``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mapgen
import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# The measured window is split over ROUNDS measure children.  Each is
# preceded by SETUP_PER_ROUND set-up-only children, so the set-up samples
# (those plus each measure child's own start) spread over the whole run
# instead of one burst; setup_s is their scaled median.
ROUNDS = 3
SETUP_PER_ROUND = 2
# Time allowed beyond --seconds for set-up children, the build that
# overruns each window and the output checks.
DEADLINE_MARGIN_S = 140.0

# The metrics BENCHMARK.json bounds.  Both times are scaled to the
# reference loop's speed (worker.reference_loop); the report prints the
# wall-clock medians beside them, and also build_s.tail and failed_frac.
# See README.md for why those carry no bound.
END_TO_END = {
    "build_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GEOPH_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(
    args: argparse.Namespace, mode: str, seconds: float, work: Path, deadline: float
) -> dict:
    """Start one worker, wait for it, and return its JSON line plus its
    set-up time, as measured (setup_s) and scaled (setup_scaled_s)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(seconds), "--work", str(work),
    ]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    result["setup_scaled_s"] = worker.scaled(result["setup_s"], result["reference_s"])
    return result


def merged(children: list[dict]) -> dict:
    """One result from a run's children.  Each child checks its own builds;
    on an unrecorded seed each takes its first build as the reference, so
    the children's references must agree as well."""
    first = children[0]
    result = dict(first)
    for key in ("build_s", "build_scaled_s"):
        result[key] = [x for c in children for x in c[key]]
    result["attempted"] = sum(c["attempted"] for c in children)
    result["failures"] = [f for c in children for f in c["failures"]]
    result["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in children)
    for c in children[1:]:
        if c["digests"] != first["digests"]:
            result["failures"].append(f"child digests {c['digests']} != {first['digests']}")
    return result


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile): the highest nearest-rank percentile with at least
    ten samples above it, or None when there are fewer than 11 samples."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup: list[dict]) -> dict:
    times = result["build_s"]
    values = {
        "build_s.p50": statistics.median(result["build_scaled_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(c["setup_scaled_s"] for c in setup),
    }
    wall_setup = statistics.median(c["setup_s"] for c in setup)
    notes = {
        "build_s.p50": f"scaled median of {len(times)} builds; "
        f"wall-clock median {statistics.median(times):.4f} s",
        "setup_s": f"scaled median of {len(setup)} child starts; "
        f"wall-clock median {wall_setup:.4f} s",
        "peak_rss_mb": "median over the measure children",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:13s} {values[name]:.4f} {unit}  {notes.get(name, '')}".rstrip())
    t = tail(times)
    if t is None:
        print(f"  build_s.tail  n/a  ({len(times)} builds; 11 are needed for 10 beyond)")
    else:
        print(f"  build_s.tail  {t[0]:.4f} s  p{t[1]:.0f} of {len(times)} builds")
    print("  builds (s):   " + " ".join(f"{x:.3f}" for x in times))
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(result: dict) -> dict:
    values = result["trace"]
    for name, unit in tracing.PER_LAYER.items():
        print(f"  {name:28s} {values[name]:.6g} {unit}")
    return {name: metric(values[name], unit) for name, unit in tracing.PER_LAYER.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(mapgen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "geoph" / "__init__.py").is_file():
        print(f"error: no geoph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    setup: list[dict] = []
    children: list[dict] = []
    try:
        if args.trace:
            children.append(run_child(args, "trace", args.seconds, work / "run", deadline))
        for r in range(0 if args.trace else ROUNDS):
            setup += [
                run_child(args, "setup", 0, work / f"setup{r}-{i}", deadline)
                for i in range(SETUP_PER_ROUND)
            ]
            children.append(
                run_child(args, "measure", args.seconds / ROUNDS, work / f"run{r}", deadline)
            )
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded --seconds + {DEADLINE_MARGIN_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    setup += children
    result = merged(children)

    attempted, failed = result["attempted"], len(result["failures"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {mapgen.WORKLOADS[args.workload].why}")
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    print(f"  failed_frac   {failed / attempted:.4f} ratio  ({failed} of {attempted} builds)")
    digests = result["digests"] or {}
    print(
        "  outputs: "
        + ", ".join(f"{k} {v[:12]}" for k, v in digests.items())
        + f"  (checked against {result['digest_source']} digests)"
    )
    for name in result.get("trace_missing", []):
        print(f"  not found, so not traced: {name}")
    for reason in result["failures"]:
        print(f"  FAILED: {reason.strip()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
