"""One benchmark child process: one workload, nothing else.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --work DIR

The child imports geoph from the checkout's ``src`` (the parent sets
PYTHONPATH), writes the seeded map into DIR and marks itself ready; that
is the set-up the parent times.  It then times the reference loop once,
so the parent can scale that set-up time (see ``reference_loop``).  Then,
by mode:

setup    exit at once (extra set-up samples).
measure  closed loop, one build at a time, each exactly ``geoph build``
         called in process, with the reference loop timed between builds;
         every output is checked outside the timed region.
trace    alternate traced builds (the same build with the layer
         functions wrapped, see tracing.py) and plain builds, so the
         tracing overhead can be reported.

The last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

import mapgen
import tracing

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
CHECKED = ("barcode.json", "complex.txt")
# The reference loop's typical time on the baseline VM (2-CPU x86-64,
# Python 3.11.7).  Scaled times are seconds on a host running at that speed.
REFERENCE_S = 0.15


def monotonic() -> float:
    """System-wide clock, comparable between the parent and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of dict, tuple, float and
    set work, the kind the builds' inner loops do.

    The shared host's speed swings by up to 2x in phases of seconds to
    minutes, and a build slows with it.  A time divided by this loop's
    time, taken right beside it, cancels that swing and keeps the
    program's own cost: a faster build still reads faster, since the loop
    calls nothing in geoph.
    """
    t0 = time.perf_counter()
    table = {j: (j, 0.5) for j in range(1024)}
    seen = set()
    acc = 0.0
    for i in range(400_000):
        k = (i * 7) & 1023
        table[i & 1023] = (i, i * 0.5)
        acc += table[k][1]
        if i & 15 == 0:
            seen.add(k)
    return time.perf_counter() - t0


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` at the speed where the reference loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s


def import_geoph() -> None:
    import geoph

    src = (ROOT / "src").resolve()
    if src not in Path(geoph.__file__).resolve().parents:
        raise SystemExit(f"geoph imported from {geoph.__file__}, not from {src}")


def write_map(w: mapgen.Workload, seed: int, work: Path) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"{w.name}.geojson"
    path.write_text(mapgen.workload_geojson(w, seed))
    return path


def build(w: mapgen.Workload, map_path: Path, out: Path) -> tuple[float, int]:
    """One timed ``geoph build``; returns (seconds, exit code)."""
    from geoph import cli

    shutil.rmtree(out, ignore_errors=True)
    argv = ["build", *w.build_args(), "--input", str(map_path), "--out", str(out)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return seconds, code


def digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CHECKED}


def recorded_digests(w: mapgen.Workload, seed: int) -> dict[str, str] | None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return table.get(w.name, {}).get(str(seed))


def oracle_mismatch(out: Path) -> str | None:
    """Betti numbers of complex.txt against the immortal bars of barcode.json."""
    from geoph import betti_oracle

    simplices = [
        tuple(int(v) for v in line.split("\t")[0].split(","))
        for line in (out / "complex.txt").read_text().splitlines()
    ]
    betti = betti_oracle(simplices)
    bars = json.loads((out / "barcode.json").read_text())
    immortal = tuple(
        sum(1 for b in bars if b["death"] is None and b["dimension"] == d) for d in range(3)
    )
    if betti != immortal:
        return f"betti_oracle {betti} != immortal bars {immortal}"
    return None


class Outcome:
    """Timed builds of one run and the reasons any of them failed."""

    def __init__(self, w: mapgen.Workload, seed: int, map_path: Path, out: Path):
        self.w, self.map_path, self.out = w, map_path, out
        self.expected = recorded_digests(w, seed)
        self.digest_source = "recorded" if self.expected else "first build"
        self.seconds: list[float] = []
        self.scaled: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.peak_rss_mb: float | None = None
        self.oracle: str | None = None
        self.oracle_run = False

    def timed_build(self) -> float | None:
        """One build and its check; its seconds, or None if it raised."""
        self.attempted += 1
        try:
            seconds, code = build(self.w, self.map_path, self.out)
        except Exception:  # a crashed build is a failed build, not a crashed benchmark
            self.failures.append(traceback.format_exc(limit=3))
            return None
        self.seconds.append(seconds)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = tracing.maxrss_mb()  # before any check can raise it
        reason = self.check() if code == 0 else f"geoph build exited {code}"
        if reason:
            self.failures.append(reason)
        return seconds

    def check(self) -> str | None:
        """Failure reason for the last build's outputs, or None when correct."""
        got = digests(self.out)
        if self.expected is None:
            self.expected = got
        for name in CHECKED:
            if got[name] != self.expected[name]:
                return f"{name} sha256 {got[name][:12]} != expected {self.expected[name][:12]}"
        # Outputs that get here are byte-identical to every earlier one that
        # did, so one oracle run gives the verdict for all of them.
        if not self.oracle_run:
            self.oracle, self.oracle_run = oracle_mismatch(self.out), True
        return self.oracle

    def report(self) -> dict:
        return {
            "build_s": self.seconds,
            "build_scaled_s": self.scaled,
            "attempted": self.attempted,
            "failures": self.failures,
            "peak_rss_mb": self.peak_rss_mb,
            "digests": self.expected,
            "digest_source": self.digest_source,
        }


def measure(outcome: Outcome, seconds: float) -> dict:
    """Build until the window ends; a build that would mostly overrun it is
    not started, so runs last about ``seconds`` on average.  Each build is
    scaled by the mean of the reference loops timed just before and after
    it."""
    deadline = monotonic() + seconds
    step = 0.0
    before = reference_loop()
    while not outcome.attempted or monotonic() + step / 2 < deadline:
        t0 = monotonic()
        built = outcome.timed_build()
        after = reference_loop()
        if built is not None:
            outcome.scaled.append(scaled(built, (before + after) / 2))
        before = after
        step = monotonic() - t0
    if not outcome.seconds:
        raise SystemExit("no build completed:\n" + "\n".join(outcome.failures))
    return outcome.report()


def trace(outcome: Outcome, seconds: float) -> dict:
    deadline = monotonic() + seconds
    traces, traced_digests = [], []
    while not outcome.attempted or monotonic() < deadline:
        outcome.attempted += 1
        try:
            traces.append(tracing.traced_build(
                lambda: build(outcome.w, outcome.map_path, outcome.out)))
            traced_digests.append(digests(outcome.out))
        except Exception:
            outcome.failures.append(traceback.format_exc(limit=3))
        if not outcome.seconds or monotonic() < deadline:
            outcome.timed_build()
    for got in traced_digests:
        if got != outcome.expected:
            outcome.failures.append(f"traced build digests {got} != timed build {outcome.expected}")
    if not traces or not outcome.seconds:
        raise SystemExit("no traced or no timed build completed:\n" + "\n".join(outcome.failures))
    report = outcome.report()
    report["trace"] = tracing.summarize(traces, report["build_s"])
    report["trace_missing"] = traces[0].missing
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(mapgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args()

    import_geoph()
    w = mapgen.WORKLOADS[args.workload]
    map_path = write_map(w, args.seed, args.work)
    result = {"ready": monotonic(), "reference_s": reference_loop()}
    if args.mode != "setup":
        outcome = Outcome(w, args.seed, map_path, args.work / "out")
        run = measure if args.mode == "measure" else trace
        result.update(run(outcome, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
