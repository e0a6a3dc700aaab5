"""Record the expected artifact digests of each workload, one build per seed.

    PYTHONPATH=src python3 perfbench/record_digests.py --seeds 0:100 \
        [--workload NAME ...] [--out perfbench/digests.json]

Run it only on a commit whose outputs are known good: the benchmark fails
every build whose barcode.json or complex.txt differs from these digests.
A build is recorded only if it exits 0 and its Betti numbers match the
oracle.  Existing entries in the output file are kept unless re-recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import mapgen
import worker


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="START:STOP, a Python range")
    parser.add_argument("--workload", action="append", choices=sorted(mapgen.WORKLOADS))
    parser.add_argument("--out", type=Path, default=worker.DIGESTS)
    args = parser.parse_args()
    start, stop = (int(x) for x in args.seeds.split(":"))

    worker.import_geoph()
    table = json.loads(args.out.read_text()) if args.out.is_file() else {}
    work_root = worker.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for name in args.workload or sorted(mapgen.WORKLOADS):
            w = mapgen.WORKLOADS[name]
            for seed in range(start, stop):
                map_path = worker.write_map(w, seed, Path(tmp))
                out = Path(tmp) / "out"
                seconds, code = worker.build(w, map_path, out)
                problem = f"exit {code}" if code else worker.oracle_mismatch(out)
                if problem:
                    print(f"{name} seed {seed}: {problem}; not recorded", file=sys.stderr)
                    continue
                table.setdefault(name, {})[str(seed)] = worker.digests(out)
                print(f"{name} seed {seed}: {seconds:.2f} s", file=sys.stderr)
    args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
