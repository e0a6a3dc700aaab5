"""The benchmark's layer tracing still finds every span and count it reads.

``perfbench/tracing.py`` wraps geoph's layer functions by name and reads
counts off their return values (for example ``ReducedMatrix.matrix``,
``.chains`` and ``.pairs``, which are built on first read).  A rename or a
change of result shape would otherwise show up only in
``perfbench/run.py --trace 1`` runs, and the counts are checked against the
reference boundary matrix and dense reduction.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

import pytest

from geoph import cli
from geoph.pipeline import METHODS

from helpers import boundary_matrix_reference, dense_reduce_reference, skipped_columns

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing

        yield tracing
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("method", METHODS)
def test_traced_build_reads_every_homology_count(tracing, method, tmp_path):
    geojson = tmp_path / "dissent.geojson"
    assert cli.main(["synth", "--fixture", "dissent", "--out", str(geojson)]) == 0
    argv = ["build", "--method", method, "--candidate", "red"]
    argv += ["--input", str(geojson), "--out", str(tmp_path / "out")]

    def build():
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return time.perf_counter() - t0, code

    tr = tracing.traced_build(build)
    assert tr.missing == []
    counts = [n for n, unit in tracing.PER_LAYER.items() if n.startswith("homology.") and unit != "s"]
    assert counts
    for name in counts:
        assert isinstance(tr.counts.get(name), (int, float)), name
    assert tr.counts["homology.finite_pairs"] > 0

    fc = tr.results["pipeline.run_s"].complex
    columns = boundary_matrix_reference(fc)
    pairs, reduced, chains = dense_reduce_reference(columns)
    values = [value for _, value in fc.entries]
    bars = len(fc) - len(pairs)
    zero_length = sum(values[b] == values[d] for b, d in pairs.items())
    kept = set(range(len(fc))) - skipped_columns(fc, pairs)
    assert tr.counts["homology.boundary_nnz"] == sum(map(len, columns))
    assert tr.counts["homology.reduced_nnz"] == sum(map(len, reduced))
    assert tr.counts["homology.chain_nnz"] == sum(len(chains[j]) for j in kept)
    assert tr.counts["homology.finite_pairs"] == len(pairs)
    assert tr.counts["homology.rendered_ratio"] == (bars - zero_length) / bars
