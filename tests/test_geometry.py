import math
import random

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

from helpers import in_circle_reference


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


def _exact_signs_agree(a, b, c, p):
    # An infinite tolerance sends both predicates to their exact path.
    assert in_circumcircle(a, b, c, p, tol=math.inf) == in_circle_reference(
        a, b, c, p, tol=math.inf
    )
    assert in_circumcircle(a, b, c, p) == in_circle_reference(a, b, c, p)


def _ccw(a, b, c):
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (a, c, b) if cross < 0 else (a, b, c)


def _rectangles(rng, count, lo_exp, hi_exp):
    """Corners of random axis-aligned rectangles: exactly cocircular."""
    for _ in range(count):
        x0, x1, y0, y1 = (
            rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(lo_exp, hi_exp)
            for _ in range(4)
        )
        if x0 == x1 or y0 == y1:
            continue
        yield _ccw((x0, y0), (x1, y0), (x1, y1)), (x0, y1)


class TestExactInCircle:
    def test_cocircular_quadruples(self):
        rng = random.Random(3)
        pythagorean = [(5, 0), (3, 4), (0, 5), (-4, 3), (-5, 0), (-3, -4), (4, -3)]
        for _ in range(200):
            shift, scale = rng.uniform(-1e3, 1e3), 2.0 ** rng.randint(-40, 40)
            quad = [
                (x * scale + shift, y * scale + shift) for x, y in rng.sample(pythagorean, 4)
            ]
            a, b, c = _ccw(*quad[:3])
            _exact_signs_agree(a, b, c, quad[3])
        for (a, b, c), p in _rectangles(rng, 200, -5, 5):
            assert in_circumcircle(a, b, c, p) == 0
            _exact_signs_agree(a, b, c, p)
        for k in range(1, 12):  # points on the 0.1 and 0.3 grids
            a, b, c = _ccw((0.1, 0.3), (0.1 * k, 0.3), (0.1 * k, 0.3 * k))
            _exact_signs_agree(a, b, c, (0.1, 0.3 * k))

    def test_one_ulp_perturbations(self):
        rng = random.Random(5)
        for (a, b, c), (px, py) in _rectangles(rng, 100, -3, 3):
            for x in (math.nextafter(px, -math.inf), px, math.nextafter(px, math.inf)):
                for y in (math.nextafter(py, -math.inf), py, math.nextafter(py, math.inf)):
                    _exact_signs_agree(a, b, c, (x, y))

    def test_subnormal_coordinates(self):
        rng = random.Random(7)
        tiny = 5e-324
        for _ in range(300):
            quad = [(rng.randint(-64, 64) * tiny, rng.randint(-64, 64) * tiny) for _ in range(4)]
            a, b, c = _ccw(*quad[:3])
            _exact_signs_agree(a, b, c, quad[3])
        for (a, b, c), p in _rectangles(rng, 100, -320, -300):
            _exact_signs_agree(a, b, c, p)

    def test_exponents_from_1e_minus_300_to_1e300(self):
        rng = random.Random(11)
        for _ in range(300):
            quad = [
                tuple(
                    rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(-300, 300)
                    for _ in range(2)
                )
                for _ in range(4)
            ]
            a, b, c = _ccw(*quad[:3])
            _exact_signs_agree(a, b, c, quad[3])
        for (a, b, c), p in _rectangles(rng, 100, -300, 300):
            _exact_signs_agree(a, b, c, p)


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
