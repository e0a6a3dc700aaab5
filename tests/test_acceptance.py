"""Release gate: one test per shipped guarantee, one pass/fail line each
under ``pytest -v``.  Tolerances are pinned here and nowhere else.
"""

import math
import time
import warnings
from fractions import Fraction

import pytest

from geoph.adjacency import build_adjacency_complex, queen_adjacency
from geoph.alpha import build_alpha_complex, delaunay_triangulation
from geoph.cli import main
from geoph.complexes import (
    FilteredComplex,
    close_under_faces,
    euler_characteristic,
)
from geoph.geometry import PointCloud
from geoph.homology import (
    Barcode,
    PersistencePair,
    barcode_of,
    betti_oracle,
    classify_long_persistence,
)
from geoph.levelset import build_levelset_complex, rasterize_mask, signed_distance_field
from geoph.pipeline import RunConfig, run_pipeline
from geoph.precincts import centroids, parse_feature_collection, winning_precincts
from geoph.rips import build_vr_complex
from geoph.synth import annulus_fixture, blobs_fixture, dissent_fixture, grid_fixture

from helpers import (
    all_faces_closure,
    bars_alive_at,
    circumcircle_has_point_strictly,
    clique_triangles,
    complex_at,
    distinct_values,
    grid_queen_edges,
    random_filtered_entries,
)

import random

TOL = 1e-9


def bars_match_oracle(fc):
    """Bars alive at every distinct value agree with direct Betti ranks."""
    bc = barcode_of(fc)
    for t in distinct_values(fc):
        assert bars_alive_at(bc, t) == betti_oracle(complex_at(fc, t)), f"t={t}"


def test_c1_reduction_agrees_with_rank_oracle_on_random_complexes():
    start = time.perf_counter()
    rng = random.Random(20260823)
    for _ in range(200):
        fc = close_under_faces(random_filtered_entries(rng, max_vertices=10))
        bars_match_oracle(fc)
    assert time.perf_counter() - start < 60.0


def test_c2_vietoris_rips_ground_truth():
    square = PointCloud(points=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    bc = barcode_of(build_vr_complex(square))
    (loop,) = bc.rendered(dimension=1)
    assert loop.birth == pytest.approx(1.0, abs=TOL)
    assert loop.death == pytest.approx(math.sqrt(2.0), abs=TOL)
    dim0 = [(p.birth, p.death) for p in bc.pairs if p.dimension == 0]
    assert dim0.count((0.0, 1.0)) == 3
    assert dim0.count((0.0, None)) == 1
    assert len(dim0) == 4

    h = math.sqrt(3.0) / 2.0
    equilateral = PointCloud(points=((0.0, 0.0), (1.0, 0.0), (0.5, h)))
    assert barcode_of(build_vr_complex(equilateral)).rendered(dimension=1) == []


def test_c3_alpha_ground_truth():
    h = math.sqrt(3.0) / 2.0
    cloud = PointCloud(points=((0.0, 0.0), (1.0, 0.0), (0.5, h)))
    (loop,) = barcode_of(build_alpha_complex(cloud)).rendered(dimension=1)
    assert loop.birth == pytest.approx(0.5, abs=TOL)
    assert loop.death == pytest.approx(1.0 / math.sqrt(3.0), abs=TOL)

    rng = random.Random(31)
    for _ in range(100):
        pts = tuple(
            (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(50)
        )
        cloud = PointCloud(points=pts)
        tri = delaunay_triangulation(cloud)
        fc = build_alpha_complex(cloud)
        assert set(fc.simplices()) == all_faces_closure(tri.triangles)
        for t in tri.triangles:
            others = set(range(50)) - set(t)
            assert not any(
                circumcircle_has_point_strictly(pts, t, q) for q in others
            )


def test_c4_adjacency_ground_truth():
    m = parse_feature_collection(dissent_fixture())
    fc = build_adjacency_complex(m, queen_adjacency(m), "red")
    immortal1 = [
        p for p in barcode_of(fc).pairs if p.dimension == 1 and p.death is None
    ]
    assert len(immortal1) == 1

    rng = random.Random(77)
    step = Fraction(1, 20)
    for _ in range(50):
        rows, cols = rng.choice([(2, 6), (3, 4), (2, 5), (3, 3), (2, 4), (4, 3)])
        cells = [
            (r, c)
            for r in range(rows)
            for c in range(cols)
            if rng.random() < 0.85
        ][:12]
        features = []
        votes = {}
        for r, c in cells:
            blue = rng.randint(0, 99)
            red = rng.randint(1, 199)
            votes[f"r{r}c{c}"] = (blue, red)
            features.append(
                {
                    "type": "Feature",
                    "properties": {"id": f"r{r}c{c}", "votes_blue": blue, "votes_red": red},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [
                            [[c, r], [c + 1, r], [c + 1, r + 1], [c, r + 1], [c, r]]
                        ],
                    },
                }
            )
        if not cells:
            continue
        m = parse_feature_collection(
            {"type": "FeatureCollection", "features": features}
        )
        fc = build_adjacency_complex(m, queen_adjacency(m), "red")

        # Brute route: exact-arithmetic entry levels on the known grid graph.
        winners = sorted(pid for pid, (b, r) in votes.items() if r > b)
        level = {}
        for pid in winners:
            b, r = votes[pid]
            delta = Fraction(r - b, r + b)
            level[pid] = float(math.ceil((1 - delta) / step) * step)
        index = {pid: i for i, pid in enumerate(winners)}
        kept = {
            (r, c) for r, c in cells if f"r{r}c{c}" in index
        }
        edges = {
            tuple(sorted((index[f"r{a}c{b}"], index[f"r{x}c{y}"])))
            for ((a, b), (x, y)) in grid_queen_edges(kept)
        }
        entries = [((index[pid],), level[pid]) for pid in winners]
        entries += [
            ((i, j), max(level[winners[i]], level[winners[j]])) for i, j in edges
        ]
        entries += [
            ((i, j, k), max(level[winners[v]] for v in (i, j, k)))
            for i, j, k in clique_triangles(range(len(winners)), edges)
        ]
        brute = FilteredComplex(entries)
        assert set(fc.entries) == set(brute.entries)
        bc = barcode_of(fc)
        for t in distinct_values(brute):
            assert bars_alive_at(bc, t) == betti_oracle(complex_at(brute, t))


def test_c5_levelset_annulus_ground_truth():
    deaths = []
    for radius in (10.0, 20.0, 40.0):
        start = time.perf_counter()
        m = parse_feature_collection(annulus_fixture(hole_radius=radius, size=250.0))
        mask = rasterize_mask(m, "red", max_side=250)
        fc = build_levelset_complex(
            signed_distance_field(mask), velocity=1.0, dt=1.0, stride=5
        )
        (loop,) = barcode_of(fc).rendered(dimension=1)
        assert loop.birth == 0.0
        assert abs(loop.death - radius) <= 6.0
        deaths.append(loop.death)
        assert time.perf_counter() - start < 30.0
    assert deaths == sorted(deaths)
    assert deaths[0] < deaths[1] < deaths[2]


def test_c6_complex_size_scaling():
    adj, vr, level = {}, {}, {}
    for n in (5, 10, 15):
        m = parse_feature_collection(grid_fixture(n))
        adj[n] = len(build_adjacency_complex(m, queen_adjacency(m), "red"))
        cloud = PointCloud(points=tuple(centroids(winning_precincts(m, "red"))))
        vr[n] = len(build_vr_complex(cloud))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # all-true mask is the point here
            sf = signed_distance_field(rasterize_mask(m, "red", max_side=250))
        level[n] = len(build_levelset_complex(sf, stride=5))

    ratios = [adj[n] / n**2 for n in (5, 10, 15)]
    c = math.sqrt(min(ratios) * max(ratios))
    assert all(abs(r - c) <= 0.20 * c for r in ratios)

    factors = [vr[n] / adj[n] for n in (5, 10, 15)]
    assert factors[0] < factors[1] < factors[2]
    assert factors[2] > 10 * factors[0]

    spread = (max(level.values()) - min(level.values())) / min(level.values())
    assert spread < 0.10


def test_c7_long_persistence_threshold_boundary():
    pairs = tuple(
        PersistencePair(
            dimension=1,
            birth=0.0,
            death=d,
            generator=(),
            birth_position=i,
            long_persistence=False,
        )
        for i, d in enumerate((10.0, 8.0, 7.4, 2.0))
    )
    bc = classify_long_persistence(Barcode(pairs=pairs, horizon=12.0))
    flagged = sorted(p.death for p in bc.pairs if p.long_persistence)
    assert flagged == [8.0, 10.0]


def test_c8_cli_outputs_are_deterministic(tmp_path):
    src = tmp_path / "dissent.geojson"
    assert main(["synth", "--fixture", "dissent", "--out", str(src)]) == 0
    for d in ("first", "second"):
        code = main(
            ["build", "--method", "adjacency", "--candidate", "red",
             "--input", str(src), "--out", str(tmp_path / d)]
        )
        assert code == 0
    for name in ("barcode.json", "barcode.svg"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b


def test_c9_euler_characteristic_matches_betti_alternation():
    built = []
    square = PointCloud(points=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    built.append(build_vr_complex(square))
    rng = random.Random(5)
    cloud = PointCloud(
        points=tuple((rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(25))
    )
    built.append(build_vr_complex(cloud, eps_max=4.0))
    built.append(build_alpha_complex(cloud))
    m = parse_feature_collection(dissent_fixture())
    built.append(build_adjacency_complex(m, queen_adjacency(m), "red"))
    blobs = parse_feature_collection(blobs_fixture())
    sf = signed_distance_field(rasterize_mask(blobs, "red", max_side=40))
    built.append(build_levelset_complex(sf, stride=2))
    for _ in range(4):
        built.append(close_under_faces(random_filtered_entries(rng)))

    for fc in built:
        if not len(fc):
            continue
        lo, hi = fc.entries[0][1], fc.max_value()
        for i in range(10):
            t = lo + (hi - lo) * i / 9.0
            sub = complex_at(fc, t)
            b0, b1, b2 = betti_oracle(sub)
            assert euler_characteristic(sub) == b0 - b1 + b2
