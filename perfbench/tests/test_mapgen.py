"""Tests of the benchmark's own code: map generator, workload table, report.

    python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import pytest

import mapgen
import run
import tracing
from geoph import PointCloud, build_vr_complex, winning_precincts
from geoph.geometry import ring_area
from geoph.precincts import centroids, parse_feature_collection

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def parsed(w, seed):
    return parse_feature_collection(json.loads(mapgen.workload_geojson(w, seed)))


@pytest.mark.parametrize("name", sorted(mapgen.WORKLOADS))
def test_same_seed_gives_identical_geojson(name):
    w = mapgen.WORKLOADS[name]
    assert mapgen.workload_geojson(w, 7) == mapgen.workload_geojson(w, 7)
    assert mapgen.workload_geojson(w, 7) != mapgen.workload_geojson(w, 8)


@pytest.mark.parametrize("name", sorted(mapgen.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2, 99])
def test_exactly_k_red_winners_and_no_ties(name, seed):
    w = mapgen.WORKLOADS[name]
    m = parsed(w, seed)
    assert len(m) == w.n * w.n
    assert len(winning_precincts(m, "red")) == w.k
    assert len(winning_precincts(m, "blue")) == w.n * w.n - w.k


@pytest.mark.parametrize("jitter", [0.0, 0.3, 0.49])
def test_precincts_are_counterclockwise_quads_tiling_the_square(jitter):
    n = 6
    m = parse_feature_collection(mapgen.precinct_map(n, jitter, 10, seed=3))
    assert m.bbox() == (0.0, 0.0, float(n), float(n))
    areas = [ring_area(p.rings[0]) for p in m]
    assert all(a > 0 for a in areas)
    assert sum(areas) == pytest.approx(n * n)


def test_zero_jitter_is_the_axis_aligned_grid():
    m = parse_feature_collection(mapgen.precinct_map(3, 0.0, 4, seed=5))
    assert {pt for p in m for pt in p.rings[0]} == {
        (float(x), float(y)) for x in range(4) for y in range(4)
    }


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_vr_flag48_simplex_counts_do_not_depend_on_seed(seed):
    w = mapgen.WORKLOADS["vr_flag48"]
    winners = winning_precincts(parsed(w, seed), "red")
    fc = build_vr_complex(PointCloud(points=tuple(centroids(winners))))
    assert fc.counts() == (48, 1128, 17296)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(30)]
    value, pct = run.tail(xs)
    assert sum(1 for x in xs if x > value) == 10
    assert value == 19.0 and pct == pytest.approx(100 * 20 / 30)
    assert run.tail(xs[:11]) == (0.0, pytest.approx(100 / 11))
    assert run.tail(xs[:10]) is None


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in mapgen.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_traced_names_exist_and_are_restored():
    import geoph.homology

    original = geoph.homology.reduce_matrix
    tr = tracing.Trace()
    with tr.installed():
        assert geoph.homology.reduce_matrix is not original
    assert geoph.homology.reduce_matrix is original
    assert tr.missing == []
    assert {name for _, _, name in tracing.SPANS + tracing.COUNTED} <= set(tracing.PER_LAYER)


def test_merged_children_pool_builds_and_flag_differing_outputs():
    child = {
        "build_s": [1.0], "build_scaled_s": [2.0], "attempted": 1, "failures": [], "peak_rss_mb": 10.0,
        "digests": {"barcode.json": "a"}, "digest_source": "first build",
    }
    other = dict(
        child, build_s=[3.0], build_scaled_s=[6.0], peak_rss_mb=30.0,
        digests={"barcode.json": "b"},
    )
    result = run.merged([child, child, other])
    assert result["build_s"] == [1.0, 1.0, 3.0]
    assert result["build_scaled_s"] == [2.0, 2.0, 6.0]
    assert result["attempted"] == 3 and result["peak_rss_mb"] == 10.0
    assert len(result["failures"]) == 1
