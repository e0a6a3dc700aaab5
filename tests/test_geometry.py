import math

import pytest

from geoph.geometry import (
    PointCloud,
    circumcircle,
    in_circumcircle,
    normalize_ring,
    point_in_rings,
    point_segment_distance,
    polygon_centroid,
    ring_area,
    segment_segment_distance,
)


def test_point_cloud_flags_duplicates():
    with pytest.warns(UserWarning, match="duplicate"):
        PointCloud(points=((0, 0), (0, 0), (1, 1)))


def test_circumcircle_of_right_triangle_sits_on_hypotenuse():
    center, r = circumcircle((0, 0), (3, 0), (0, 4))
    assert center == pytest.approx((1.5, 2.0))
    assert r == pytest.approx(2.5)
    with pytest.raises(ValueError):
        circumcircle((0, 0), (1, 1), (2, 2))


def test_in_circumcircle_signs_and_cocircular_zero():
    a, b, c = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)
    assert in_circumcircle(a, b, c, (0.5, 0.5)) == 1
    assert in_circumcircle(a, b, c, (5.0, 5.0)) == -1
    assert in_circumcircle(a, b, c, (1.0, 1.0)) == 0  # fourth corner of the square


def test_segment_distances():
    assert point_segment_distance((0, 1), (-1, 0), (1, 0)) == pytest.approx(1.0)
    assert point_segment_distance((5, 0), (-1, 0), (1, 0)) == pytest.approx(4.0)
    # crossing segments touch
    assert segment_segment_distance((0, -1), (0, 1), (-1, 0), (1, 0)) == 0.0
    # sharing exactly one endpoint
    assert segment_segment_distance((0, 0), (1, 0), (1, 0), (2, 5)) == 0.0
    # parallel at height 2
    assert segment_segment_distance((0, 0), (1, 0), (0, 2), (1, 2)) == pytest.approx(2.0)


def test_normalize_ring_closes_and_validates():
    ring = normalize_ring([(0, 0), (1, 0), (0, 1)])
    assert ring[0] == ring[-1]
    assert len(ring) == 4
    with pytest.raises(ValueError):
        normalize_ring([(0, 0), (1, 0)])


def test_ring_area_sign_follows_orientation():
    ccw = normalize_ring([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert ring_area(ccw) == pytest.approx(1.0)
    assert ring_area(list(reversed(ccw))) == pytest.approx(-1.0)


def test_polygon_centroid_with_hole():
    outer = normalize_ring([(0, 0), (4, 0), (4, 4), (0, 4)])
    hole = normalize_ring(list(reversed([(1, 1), (3, 1), (3, 3), (1, 3)])))
    (cx, cy), area = polygon_centroid([outer, hole])
    assert (cx, cy) == pytest.approx((2.0, 2.0))
    assert area == pytest.approx(16.0 - 4.0)


def test_point_in_rings_even_odd():
    outer = normalize_ring([(0, 0), (4, 0), (4, 4), (0, 4)])
    hole = normalize_ring([(1, 1), (3, 1), (3, 3), (1, 3)])
    rings = [outer, hole]
    assert point_in_rings(0.5, 0.5, rings)
    assert not point_in_rings(2.0, 2.0, rings)  # inside the hole
    assert not point_in_rings(5.0, 2.0, rings)
