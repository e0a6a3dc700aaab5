import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoph import alpha
from geoph.alpha import (
    alpha_filtration,
    build_alpha_complex,
    delaunay_triangulation,
)
from geoph.complexes import FilteredComplex, close_under_faces
from geoph.errors import DegenerateTriangulationError, NumericalError
from geoph.geometry import (
    PointCloud,
    in_circle_determinant,
    in_circumcircle,
    integer_coordinates,
    orient2d,
)
from geoph.homology import barcode_of, betti_oracle
from geoph.precincts import centroids, parse_feature_collection
from geoph.rips import build_vr_complex

from helpers import (
    all_faces_closure,
    alpha_values_reference,
    bars_alive_at,
    boundary_edges,
    circumcircle_has_point_strictly,
    complex_at,
    delaunay_reference,
    distinct_values,
    hull_point_count,
    in_circle_reference,
    jittered_lattice_map,
    naive_vr,
    value_of,
)


def cloud(*pts):
    return PointCloud(points=tuple(pts))


def random_cloud(rng, n, scale=10.0):
    return cloud(*[(rng.uniform(0, scale), rng.uniform(0, scale)) for _ in range(n)])


class TestDelaunay:
    def test_three_points_one_triangle(self):
        tri = delaunay_triangulation(cloud((0, 0), (4, 0), (0, 3)))
        assert tri.triangles == ((0, 1, 2),)
        assert boundary_edges(tri) == {(0, 1), (0, 2), (1, 2)}

    def test_two_points_edge_only(self):
        tri = delaunay_triangulation(cloud((0, 0), (2, 0)))
        assert tri.triangles == ()
        assert tri.edges() == {(0, 1)}

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangulationError):
            delaunay_triangulation(cloud((0, 0), (1, 0), (2, 0), (3, 0)))

    def test_duplicates_raise(self):
        with pytest.warns(UserWarning):
            pc = cloud((0, 0), (0, 0), (1, 0), (0, 1))
        with pytest.raises(NumericalError):
            delaunay_triangulation(pc)

    def test_square_breaks_tie_toward_lex_smallest_diagonal(self):
        # all four labelings of a unit square must give the 0-2 diagonal
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        for shift in range(4):
            pts = corners[shift:] + corners[:shift]
            tri = delaunay_triangulation(cloud(*pts))
            diagonals = set()
            for t in tri.triangles:
                diagonals.update(
                    e for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
                )
            assert len(tri.triangles) == 2
            assert (0, 2) in diagonals
            assert (1, 3) not in diagonals

    def test_regular_grid_is_deterministic_and_delaunay(self):
        pts = [(float(c), float(r)) for r in range(4) for c in range(4)]
        tri1 = delaunay_triangulation(cloud(*pts))
        tri2 = delaunay_triangulation(cloud(*pts))
        assert tri1.triangles == tri2.triangles
        assert len(tri1.triangles) == 18  # 2 per grid square
        for t in tri1.triangles:
            for q in range(len(pts)):
                if q not in t:
                    assert not circumcircle_has_point_strictly(pts, t, q)

    def test_random_clouds_verified_and_complete(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randrange(3, 30)
            pc = random_cloud(rng, n)
            tri = delaunay_triangulation(pc)
            pts = pc.points
            for t in tri.triangles:
                for q in range(n):
                    if q not in t:
                        assert not circumcircle_has_point_strictly(pts, t, q)
            # Euler: a triangulation of n points with h on the hull
            # has 2n - 2 - h triangles and 3n - 3 - h edges.
            h = hull_point_count(pts)
            assert len(tri.triangles) == 2 * n - 2 - h
            assert len(tri.edges()) == 3 * n - 3 - h


def lattice_centroids(n, seed):
    """Centroids of a jitter-0 lattice map, in its shuffled feature order."""
    m = parse_feature_collection(jittered_lattice_map(n, 0.0, seed))
    return cloud(*centroids(list(m)))


def reference_clouds():
    """Seeded clouds rich in cocircular and near-cocircular groups."""
    rng = random.Random(47)
    for _ in range(12):  # subsets of integer lattices
        k = rng.randrange(2, 7)
        cells = [(float(x), float(y)) for x in range(k) for y in range(k)]
        yield cloud(*rng.sample(cells, rng.randrange(3, len(cells) + 1)))
    for sx, sy in ((0.1, 0.1), (0.3, 0.3), (0.1, 0.3)):  # inexact spacings
        for _ in range(4):
            cells = [(x * sx, y * sy) for x in range(6) for y in range(6)]
            yield cloud(*rng.sample(cells, rng.randrange(3, 25)))
    ring = [
        (math.cos(2 * math.pi * i / 12), math.sin(2 * math.pi * i / 12)) for i in range(12)
    ]
    for _ in range(4):  # a 12-gon plus its centre
        pts = ring + [(0.0, 0.0)]
        rng.shuffle(pts)
        yield cloud(*pts)
    for radius in (5, 25, 65):  # integer points exactly on one circle
        on_circle = [
            (float(x), float(y))
            for x in range(-radius, radius + 1)
            for y in range(-radius, radius + 1)
            if x * x + y * y == radius * radius
        ]
        for _ in range(3):
            rng.shuffle(on_circle)
            yield cloud(*on_circle)
    for _ in range(10):
        yield random_cloud(rng, rng.randrange(3, 40))
    for seed in range(3):
        yield lattice_centroids(6, seed)
    yield cloud(*[(float(i), 2.0 * i) for i in range(5)])  # collinear


def triangles_or_error(fn, pc):
    try:
        return fn(pc).triangles
    except NumericalError as exc:
        return type(exc)


class TestDelaunayAgainstReferences:
    def test_matches_full_scan_reference(self):
        for pc in reference_clouds():
            assert triangles_or_error(delaunay_triangulation, pc) == triangles_or_error(
                delaunay_reference, pc
            ), pc.points

    def test_matches_scipy_on_generic_clouds(self):
        spatial = pytest.importorskip("scipy.spatial")
        rng = random.Random(53)
        for n in (3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 200):
            pc = random_cloud(rng, n)
            expected = tuple(
                sorted(tuple(sorted(s)) for s in spatial.Delaunay(pc.as_array()).simplices.tolist())
            )
            assert delaunay_triangulation(pc).triangles == expected

    def test_verification_rejects_a_non_delaunay_diagonal(self, monkeypatch):
        # The flip pass is made to put the other diagonal of a kite, whose
        # circumcircles are not empty, into the edge map; the edge-by-edge
        # check must catch it.
        pc = cloud((0.0, 0.0), (4.0, -1.0), (4.0, 1.0), (5.0, 0.0))
        assert delaunay_triangulation(pc).triangles == ((0, 1, 2), (1, 2, 3))

        def wrong_diagonal(verts, owners, n):
            for t in ((0, 1, 2), (1, 2, 3)):
                alpha._unlink(owners, t)
            for t in ((0, 1, 3), (0, 2, 3)):
                alpha._link(owners, t)

        monkeypatch.setattr(alpha, "_canonical_cocircular_flips", wrong_diagonal)
        with pytest.raises(NumericalError, match="verification"):
            delaunay_triangulation(pc)

    @pytest.mark.parametrize(
        "unlink, link",
        [
            ((), ((0, 1, 2),)),  # overlaps (0, 1, 4) and (1, 2, 4)
            ((), ((0, 1, 4),)),  # a second copy
            (((0, 1, 4),), ()),  # leaves a hole
            # the centre's star, its hole filled without it: locally
            # Delaunay, but one point short of V - E + T = 1
            (((0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 3, 4)), ((0, 1, 2), (0, 2, 3))),
        ],
        ids=["overlapping", "duplicated", "hole", "star-removed"],
    )
    def test_verification_rejects_a_broken_edge_map(self, monkeypatch, unlink, link):
        pc = cloud((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (1.0, 1.0))
        assert delaunay_triangulation(pc).triangles == (
            (0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 3, 4)
        )
        flips = alpha._canonical_cocircular_flips

        def broken(verts, owners, n):
            flips(verts, owners, n)
            for t in unlink:
                alpha._unlink(owners, t)
            for t in link:
                alpha._link(owners, t)

        monkeypatch.setattr(alpha, "_canonical_cocircular_flips", broken)
        with pytest.raises(NumericalError, match="failed verification"):
            delaunay_triangulation(pc)

    def test_scaling_guard(self, monkeypatch):
        # Cavities come from walks over the neighbour links, not from testing
        # every triangle, each flip re-tests four edges, not all of them, and
        # the verification tests each edge once, so the in-circle calls of
        # all three stay linear in the points.  The insertion makes every
        # in-circle test through _in_circle_at, the flips and the
        # verification through in_circumcircle.
        calls = {"_in_circle_at": 0, "in_circumcircle": 0}

        def counted(name):
            predicate = getattr(alpha, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return predicate(*args, **kwargs)

            monkeypatch.setattr(alpha, name, wrapper)

        counted("_in_circle_at")
        counted("in_circumcircle")
        pc = lattice_centroids(24, 0)
        tri = delaunay_triangulation(pc)
        assert len(tri.triangles) == 2 * 23 * 23
        assert calls["_in_circle_at"] > 0 and calls["in_circumcircle"] > 0
        assert sum(calls.values()) <= 100 * len(pc)


ON_CIRCLES = [  # integer points exactly on circles of radius 5 and 25
    [
        (float(x), float(y))
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        if x * x + y * y == r * r
    ]
    for r in (5, 25)
]


@st.composite
def cocircular_clouds(draw):
    """Lattices (some with inexact spacings) or points on one circle, in a
    drawn order, whole or a random subset of at least three."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 7))
        step = draw(st.sampled_from([1.0, 0.5, 0.1, 0.3, 3.7]))
        cells = [(x * step, y * step) for x in range(k) for y in range(k)]
    else:
        cells = draw(st.sampled_from(ON_CIRCLES)) + draw(st.sampled_from([[], [(0.0, 0.0)]]))
    if draw(st.booleans()):
        return draw(st.permutations(cells))
    return draw(st.lists(st.sampled_from(cells), min_size=3, max_size=len(cells), unique=True))


@st.composite
def scaled_clouds(draw):
    """Cocircular clouds, points of a grid of step 1/8 or any floats in
    [-8, 8], scaled by 2**e (exact) or by 10**e for e from -150 to 150
    (rounded)."""
    eighths = st.integers(-64, 64).map(lambda k: k / 8.0)
    pts = draw(
        cocircular_clouds()
        | st.lists(st.tuples(eighths, eighths), min_size=3, max_size=30, unique=True)
        | st.lists(st.tuples(*[st.floats(-8.0, 8.0)] * 2), min_size=3, max_size=30, unique=True)
    )
    if draw(st.booleans()):
        e = draw(st.integers(-500, 480))
        return [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in pts]
    factor = 10.0 ** draw(st.integers(-150, 150))
    return [(x * factor, y * factor) for x, y in pts]


@st.composite
def near_collinear_clouds(draw):
    """Points on a line, their y moved by a few ulps and a small multiple,
    and up to two points further off it."""
    n = draw(st.integers(3, 14))
    slope = draw(st.sampled_from([0.0, 1.0, 0.1, 1.0 / 3.0, -0.7, 2.5]))
    offset = draw(st.sampled_from([0.0, 0.3, 1e-3, 100.0]))
    delta = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    xs = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    pts = []
    for x in xs:
        y = slope * x + offset
        for _ in range(draw(st.integers(0, 2))):
            y = math.nextafter(y, draw(st.sampled_from([-math.inf, math.inf])))
        pts.append((float(x), y + draw(st.integers(-2, 2)) * delta))
    for x in draw(st.lists(st.integers(-20, 20), max_size=2, unique=True)):
        y = slope * (x + 0.5) + offset + draw(st.sampled_from([-1.0, 1e-2, 0.5]))
        pts.insert(draw(st.integers(0, len(pts))), (x + 0.5, y))
    return pts


def assert_matches_reference(pts):
    """Same triangles or the same error type as ``delaunay_reference``,
    which has no range check: a cloud the triangulation rejects as out of
    range is not compared."""
    with warnings.catch_warnings():  # scaling can merge points; both reject duplicates
        warnings.filterwarnings("ignore", "point cloud contains duplicate coordinates")
        pc = PointCloud(points=tuple(pts))
    try:
        got = delaunay_triangulation(pc).triangles
    except NumericalError as exc:
        if "out of range" in str(exc):
            return
        got = type(exc)
    assert got == triangles_or_error(delaunay_reference, pc)


class TestDelaunayProperties:
    @given(cocircular_clouds())
    @settings(max_examples=150, deadline=None)
    def test_cocircular_clouds_match_reference(self, pts):
        assert_matches_reference(pts)

    @given(scaled_clouds())
    @settings(max_examples=150, deadline=None)
    def test_scaled_clouds_match_reference(self, pts):
        assert_matches_reference(pts)

    @pytest.mark.parametrize(
        "pts",
        [
            [(0.0, 0.0), (2e-11, 0.0), (2e-11, 2e-11), (4e-11, 0.0), (1e-11, 3e-11)],
            [(2.225073858507e-311, 0.0), (1.0, -1.0), (0.0, 0.0)],
            [(0.0, 0.0), (-2.375e-46, 3.0000000000000003e-46)]
            + [(-6.1250000000000005e-46, 2.25e-46), (-8e-46, 1.875e-46)],
            [(0.0, 1.25e-47), (0.0, -1.25e-47), (0.0, 2.5e-47)]
            + [(-2.375e-46, 3.0000000000000003e-46), (-6.1250000000000005e-46, 2.25e-46)]
            + [(-8e-46, 1.875e-46), (0.0, -1.6250000000000001e-46), (1.25e-47, -1.25e-47)]
            + [(-1.25e-47, 0.0), (0.0, 0.0)],
            [(0.0, 8.684406692798715e76), (5.78960446186581e76, -1.157920892373162e77)]
            + [(-2.894802230932905e76, 0.0), (0.0, 0.0)],
            [(0.0, 0.0), (0.0, 2.894802230932905e76), (0.0, 5.78960446186581e76)]
            + [(8.684406692798715e76, 5.78960446186581e76), (0.0, 8.684406692798715e76)]
            + [(0.0, 1.157920892373162e77), (1.736881338559743e77, 1.157920892373162e77)],
        ],
        ids=["sides", "in-circle-order", "in-circle-order-tiny", "cavity"]
        + ["overflow", "overflow-cavity"],
    )
    def test_clouds_found_by_the_properties(self, pts):
        # Found by the scaled-cloud property.  The first four have a triangle
        # whose float orientation is 0 or of the wrong sign: with float
        # orientations the first failed the verification's sides test, the
        # next two its in-circle test (run on a clockwise triangle), and in
        # the fourth the insertion's in-circle tests made a cavity that
        # swallowed a point.  In the last two the float in-circle determinant
        # overflows to inf, which the filter took as a sign: the verification
        # failed, and the reference's cavity went wrong.
        assert_matches_reference(pts)

    @given(near_collinear_clouds())
    @settings(max_examples=150, deadline=None)
    def test_near_collinear_clouds_match_reference(self, pts):
        assert_matches_reference(pts)


@st.composite
def quadruples(draw):
    """(a, b, c, p), abc counterclockwise by the float orientation, exactly
    cocircular (rectangle corners, or points of radius 5 scaled by 2**k) or
    p moved off the circle by a few ulps; coordinates from 1e-300 to 1e300."""
    scaled = st.builds(
        lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 300)
    )
    if draw(st.booleans()):
        x0, x1, y0, y1 = (draw(scaled) for _ in range(4))
        quad = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    else:
        k, sx, sy = draw(st.integers(-990, 990)), draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        quad = [
            (math.ldexp(x + sx, k), math.ldexp(y + sy, k))
            for x, y in draw(st.permutations(ON_CIRCLES[0]))[:4]
        ]
    a, b, c, (px, py) = quad
    for _ in range(draw(st.integers(0, 3))):
        px = math.nextafter(px, draw(st.sampled_from([-math.inf, math.inf])))
        py = math.nextafter(py, draw(st.sampled_from([-math.inf, math.inf])))
    if orient2d(a, b, c) < 0:
        b, c = c, b
    return a, b, c, (px, py)


class TestIntegerCoordinates:
    @given(quadruples(), st.lists(st.tuples(*[st.floats(-1e300, 1e300)] * 2), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_in_circumcircle(self, quad, others):
        # The integer coordinates are made once for the whole vertex list,
        # so their common power of two may come from another point.
        verts = [*quad, *others]
        sign = alpha._in_circle_at(verts, integer_coordinates(verts), 0, 1, 2, 3)
        exact = in_circle_reference(*quad, tol=math.inf)  # no float filter
        assert sign == in_circumcircle(*quad) == in_circle_reference(*quad) == exact

    def test_overflowed_determinant_is_not_a_sign(self):
        # The float determinant is inf, the exact one negative (from the
        # "overflow" cloud above: edge (2, 3) against apex 1).
        quad = [(-2.894802230932905e76, 0.0), (0.0, 0.0), (0.0, 8.684406692798715e76)]
        quad.append((5.78960446186581e76, -1.157920892373162e77))
        assert in_circle_determinant(*quad)[0] == math.inf
        sign = alpha._in_circle_at(quad, integer_coordinates(quad), 0, 1, 2, 3)
        assert sign == in_circumcircle(*quad) == in_circle_reference(*quad, tol=math.inf) == -1


class TestAlphaFiltration:
    def test_equilateral_values(self):
        height = math.sqrt(3.0) / 2.0
        fc = build_alpha_complex(cloud((0, 0), (1, 0), (0.5, height)))
        assert value_of(fc, (0, 1)) == pytest.approx(0.5, abs=1e-9)
        assert value_of(fc, (0, 1, 2)) == pytest.approx(1 / math.sqrt(3.0), abs=1e-9)
        loops = barcode_of(fc).rendered(1)
        assert len(loops) == 1
        assert loops[0].birth == pytest.approx(0.5, abs=1e-9)
        assert loops[0].death == pytest.approx(1 / math.sqrt(3.0), abs=1e-9)

    def test_right_triangle_hypotenuse_is_not_gabriel(self):
        fc = build_alpha_complex(cloud((0, 0), (3, 0), (0, 4)))
        assert value_of(fc, (0, 1)) == pytest.approx(1.5)  # leg, Gabriel
        assert value_of(fc, (0, 2)) == pytest.approx(2.0)  # leg, Gabriel
        # diametral circle of the hypotenuse passes through the right angle
        assert value_of(fc, (1, 2)) == pytest.approx(2.5)
        assert value_of(fc, (0, 1, 2)) == pytest.approx(2.5)

    def test_two_points_edge_at_half_distance(self):
        fc = build_alpha_complex(cloud((0, 0), (2, 0)))
        assert value_of(fc, (0, 1)) == pytest.approx(1.0)

    def test_single_point(self):
        assert list(build_alpha_complex(cloud((7, 7)))) == [((0,), 0.0)]

    def test_vertices_enter_at_zero(self):
        rng = random.Random(31)
        fc = build_alpha_complex(random_cloud(rng, 12))
        for v in range(12):
            assert value_of(fc, (v,)) == 0.0

    def test_complex_is_closure_of_triangulation(self):
        rng = random.Random(37)
        for _ in range(10):
            pc = random_cloud(rng, rng.randrange(3, 25))
            tri = delaunay_triangulation(pc)
            fc = alpha_filtration(tri, pc)
            assert set(fc.simplices()) == all_faces_closure(tri.triangles)

    def test_contained_in_rips_at_double_radius(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randrange(3, 12)
            pc = random_cloud(rng, n, scale=5.0)
            try:
                fc = build_alpha_complex(pc)
            except DegenerateTriangulationError:
                continue
            reference = naive_vr(list(pc.points), 2.0 * fc.max_value())
            for s, value in fc:
                assert s in reference
                assert reference[s] <= 2.0 * value + 1e-9

    def test_betti_profile_matches_oracle(self):
        rng = random.Random(43)
        for _ in range(10):
            fc = build_alpha_complex(random_cloud(rng, 15))
            bc = barcode_of(fc)
            for t in distinct_values(fc):
                assert bars_alive_at(bc, t) == betti_oracle(complex_at(fc, t))

    def test_values_match_scalar_reference(self):
        # Lattices put many points exactly on diametral circles, where the
        # scalar expression and its slack decide the edge.
        for pc in reference_clouds():
            try:
                tri = delaunay_triangulation(pc)
            except DegenerateTriangulationError:
                continue
            assert dict(alpha_filtration(tri, pc)) == alpha_values_reference(tri)

    def test_matches_closure_of_raw_values(self):
        # Each near-right triangle's longest side is Gabriel, and its half
        # length exceeds the float circumradius, so the edge must be lowered
        # to the triangle's value; the reference clouds lower nothing.
        near_right = [
            cloud(
                (1.7783047725059227, -2.952204854662072),
                (3.853537177487138, -3.759161876865014),
                (3.6843087024480883, -2.659016266346149),
            ),
            cloud(
                (-0.19254813369961, -1.8420689415355596),
                (-2.438491238727809, -1.5757916741117666),
                (-2.084975408198422, -2.5376213829567096),
            ),
        ]
        lowered = 0
        for pc in [*near_right, *reference_clouds()]:
            try:
                tri = delaunay_triangulation(pc)
            except DegenerateTriangulationError:
                continue
            raw = alpha_values_reference(tri)
            fc = alpha_filtration(tri, pc)
            assert fc == close_under_faces(raw.items())
            assert fc.entries == FilteredComplex(fc.entries).entries
            lowered += sum(value_of(fc, s) < value for s, value in raw.items())
        assert lowered == len(near_right)

    def test_gabriel_decisions_at_the_slack_boundary(self):
        # Third points within about 1e-12 of the edge's slackened diametral
        # circle, on either side of it; the apex is the only point that can
        # decide the edge.  At half length 1 the triangle's circumradius
        # rounds to the half length, so the decision hardly shows in the
        # values; at 1e-4 the slack floor (1e-12 absolute) is relatively
        # wide and the circumradius moves by about 1e-9.
        for s in (1.0, 1e-4):
            for k in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 3.0):
                y = math.sqrt(s * s + k * 1e-12)
                for apex in ((s, y), (s, -y)):
                    pc = cloud((0.0, 0.0), (2.0 * s, 0.0), apex)
                    tri = delaunay_triangulation(pc)
                    assert dict(alpha_filtration(tri, pc)) == alpha_values_reference(tri)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lattice_centroids_match_scalar_reference(self, seed):
        # Every interior edge of a jitter-0 lattice has both apexes on its
        # diametral circle or near it.
        pc = lattice_centroids(24, seed)
        tri = delaunay_triangulation(pc)
        assert dict(alpha_filtration(tri, pc)) == alpha_values_reference(tri)

    def test_mismatched_cloud_rejected(self):
        pc = cloud((0, 0), (1, 0), (0, 1))
        tri = delaunay_triangulation(pc)
        with pytest.raises(ValueError):
            alpha_filtration(tri, cloud((0, 0), (2, 0), (0, 2)))
