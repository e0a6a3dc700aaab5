import math
import random
import warnings

import pytest

from geoph.complexes import FilteredComplex, close_under_faces
from geoph.geometry import PointCloud
from geoph.homology import barcode_of, betti_oracle
from geoph.precincts import centroids, parse_feature_collection
from geoph.rips import build_vr_complex
from geoph.synth import grid_fixture

from helpers import bars_alive_at, complex_at, distinct_values, naive_vr, value_of

SQRT2 = math.sqrt(2.0)


def cloud(*pts):
    return PointCloud(points=tuple(pts))


class TestConstruction:
    def test_single_point(self):
        fc = build_vr_complex(cloud((2.0, 3.0)))
        assert list(fc) == [((0,), 0.0)]

    def test_two_points(self):
        fc = build_vr_complex(cloud((0, 0), (3, 4)))
        assert value_of(fc, (0, 1)) == pytest.approx(5.0)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            build_vr_complex(PointCloud(points=()))

    def test_non_positive_cutoff_rejected(self):
        with pytest.raises(ValueError):
            build_vr_complex(cloud((0, 0), (1, 0)), eps_max=0.0)

    def test_coincident_points_warn_but_build(self):
        with pytest.warns(UserWarning):
            fc = build_vr_complex(cloud((1, 1), (1, 1)))
        assert value_of(fc, (0, 1)) == 0.0

    def test_default_cutoff_gives_full_flag_complex(self):
        rng = random.Random(3)
        pts = [(rng.random(), rng.random()) for _ in range(8)]
        fc = build_vr_complex(cloud(*pts))
        n = 8
        assert len(fc) == n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6

    def test_cutoff_excludes_far_simplices(self):
        fc = build_vr_complex(cloud((0, 0), (1, 0), (10, 0)), eps_max=2.0)
        assert (0, 1) in fc.simplices()
        assert (0, 2) not in fc.simplices()
        assert (1, 2) not in fc.simplices()

    def test_nested_in_cutoff(self):
        rng = random.Random(4)
        pts = [(rng.random() * 3, rng.random() * 3) for _ in range(10)]
        small = build_vr_complex(cloud(*pts), eps_max=1.0)
        large = build_vr_complex(cloud(*pts), eps_max=2.5)
        for s, v in small:
            assert s in large.simplices()
            assert value_of(large, s) == v


def grid_centroids(scale):
    """Centroids of the 3 x 3 grid fixture with every coordinate scaled."""
    obj = grid_fixture(3)
    for feature in obj["features"]:
        feature["geometry"]["coordinates"] = [
            [[x * scale, y * scale] for x, y in ring]
            for ring in feature["geometry"]["coordinates"]
        ]
    return PointCloud(points=tuple(centroids(parse_feature_collection(obj).precincts)))


@pytest.mark.parametrize("scale", [1e-160, 1e-200])
def test_tiny_coordinates_keep_their_distances(scale):
    # Squared differences of these coordinates underflow to subnormals or
    # to zero; the distances must not.
    unit = build_vr_complex(grid_centroids(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no coincident-points warning
        tiny = build_vr_complex(grid_centroids(scale))
    expected = {s: value * scale for s, value in unit}
    assert dict(tiny) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestAgainstNaiveConstruction:
    def test_matches_all_triples_reference(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randrange(1, 13)
            pts = [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(n)]
            eps = rng.uniform(0.5, 6.0)
            fc = build_vr_complex(cloud(*pts), eps_max=eps)
            ref = naive_vr(pts, eps)
            assert dict(fc.entries) == pytest.approx(ref)
            assert fc == FilteredComplex(fc.entries)


class TestUnitSquare:
    def setup_method(self):
        self.fc = build_vr_complex(cloud((0, 0), (1, 0), (1, 1), (0, 1)))

    def test_simplex_values(self):
        assert self.fc.counts() == (4, 6, 4)
        assert value_of(self.fc, (0, 1)) == pytest.approx(1.0)
        assert value_of(self.fc, (0, 2)) == pytest.approx(SQRT2)  # diagonal
        assert value_of(self.fc, (0, 1, 2)) == pytest.approx(SQRT2)

    def test_loop_lives_from_one_to_sqrt_two(self):
        bc = barcode_of(self.fc)
        loops = [p for p in bc.rendered(1)]
        assert len(loops) == 1
        assert loops[0].birth == pytest.approx(1.0, abs=1e-9)
        assert loops[0].death == pytest.approx(SQRT2, abs=1e-9)
        assert loops[0].generator == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_components_merge_at_one(self):
        bc = barcode_of(self.fc)
        dim0 = [(p.birth, p.death) for p in bc.pairs if p.dimension == 0]
        assert dim0.count((0.0, None)) == 1
        assert dim0.count((0.0, 1.0)) == 3
        assert len(dim0) == 4


def test_equilateral_triangle_has_no_rendered_loop():
    h = math.sqrt(3.0) / 2.0
    fc = build_vr_complex(cloud((0, 0), (1, 0), (0.5, h)))
    bc = barcode_of(fc)
    assert bc.rendered(1) == []
    zero = [p for p in bc.pairs if p.dimension == 1]
    assert len(zero) == 1 and zero[0].zero_length


def test_betti_profile_matches_oracle():
    rng = random.Random(21)
    for _ in range(10):
        pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(9)]
        fc = build_vr_complex(cloud(*pts), eps_max=2.0)
        bc = barcode_of(fc)
        for t in distinct_values(fc):
            assert bars_alive_at(bc, t) == betti_oracle(complex_at(fc, t))
