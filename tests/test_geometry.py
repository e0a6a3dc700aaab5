import math
import random
import warnings
from fractions import Fraction

import pytest

from geoph.geometry import (
    PointCloud,
    circumcircle,
    in_circle_at,
    in_circle_determinant,
    integer_coordinates,
    normalize_ring,
    point_segment_distance,
    ring_area,
    segment_segment_distance,
)
from geoph.precincts import parse_feature_collection

from helpers import (
    feature_collection,
    in_circle_reference,
    point_in_rings,
    polygon_centroid_reference,
)


def test_point_cloud_flags_duplicates():
    with pytest.warns(UserWarning, match="duplicate"):
        PointCloud(points=((0, 0), (0, 0), (1, 1)))


def test_point_cloud_duplicate_warning_names_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        PointCloud(points=((0, 0), (0, 0)))
    (w,) = caught
    assert "duplicate" in str(w.message)
    assert w.filename == __file__


def test_circumcircle_of_right_triangle_sits_on_hypotenuse():
    center, r = circumcircle((0, 0), (3, 0), (0, 4))
    assert center == pytest.approx((1.5, 2.0))
    assert r == pytest.approx(2.5)
    with pytest.raises(ValueError):
        circumcircle((0, 0), (1, 1), (2, 2))


def test_circumcircle_of_a_thin_triangle_comes_from_exact_coordinates():
    # On both the float denominator cancels to 0 although the exact area is
    # not 0: the first radius is exact, the second is past the float range.
    thin = [(-2.375e-46, 3.0000000000000003e-46), (-6.1250000000000005e-46, 2.25e-46)]
    thin.append((-8e-46, 1.875e-46))
    _, r = circumcircle(*thin)
    # R^2 = |ab|^2 |bc|^2 |ca|^2 / (4 cross^2), in fractions
    a, b, c = ([Fraction(x) for x in p] for p in thin)
    sq = [(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in ((a, b), (b, c), (c, a))]
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    assert r == pytest.approx(math.sqrt(sq[0] * sq[1] * sq[2] / (4 * cross**2)), rel=1e-12)
    with pytest.raises(OverflowError):
        circumcircle((5e-324, 0.0), (1e150, 1e150), (2e150, 2e150))


def _in_circle(a, b, c, p):
    """``in_circle_at`` on the four points alone."""
    quad = [a, b, c, p]
    return in_circle_at(quad, integer_coordinates(quad), 0, 1, 2, 3)


def test_in_circle_at_signs_and_cocircular_zero():
    a, b, c = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)
    assert _in_circle(a, b, c, (0.5, 0.5)) == 1
    assert _in_circle(a, b, c, (5.0, 5.0)) == -1
    assert _in_circle(a, b, c, (1.0, 1.0)) == 0  # fourth corner of the square


def _exact_signs_agree(a, b, c, p):
    # The exact path alone is the sign of the determinant on the integer
    # coordinates; an infinite tolerance sends the reference to its own.
    det, _ = in_circle_determinant(*integer_coordinates((a, b, c, p)))
    assert (det > 0) - (det < 0) == in_circle_reference(a, b, c, p, tol=math.inf)
    assert _in_circle(a, b, c, p) == in_circle_reference(a, b, c, p)


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
            assert _in_circle(a, b, c, p) == 0
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
    (cx, cy), area = polygon_centroid_reference([outer, hole])
    assert (cx, cy) == pytest.approx((2.0, 2.0))
    assert area == pytest.approx(16.0 - 4.0)
    m = parse_feature_collection(feature_collection([[outer, hole]], [(1, 0)]))
    assert m.ring_table.centroids([0]).tolist() == [[cx, cy]]


def test_point_in_rings_even_odd():
    outer = normalize_ring([(0, 0), (4, 0), (4, 4), (0, 4)])
    hole = normalize_ring([(1, 1), (3, 1), (3, 3), (1, 3)])
    rings = [outer, hole]
    assert point_in_rings(0.5, 0.5, rings)
    assert not point_in_rings(2.0, 2.0, rings)  # inside the hole
    assert not point_in_rings(5.0, 2.0, rings)
