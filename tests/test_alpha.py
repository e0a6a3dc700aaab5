import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoph import alpha, geometry
from geoph.alpha import (
    alpha_filtration,
    build_alpha_complex,
    delaunay_triangulation,
)
from geoph.complexes import FilteredComplex, close_under_faces
from geoph.errors import DegenerateTriangulationError, NumericalError
from geoph.geometry import (
    PointCloud,
    in_circle_at,
    in_circle_determinant,
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


def corrupt_rows(monkeypatch, remove, add):
    """Make the flip pass end by taking the triangles ``remove`` out of the
    insertion's vertex rows and appending ``add``; the verification reads
    those rows alone."""
    flips = alpha._canonical_cocircular_flips

    def corrupted(verts, exact, tv, nb, n):
        flips(verts, exact, tv, nb, n)
        for t in remove:
            tv.remove(next(row for row in tv if tuple(sorted(row)) == t))
        tv.extend(add)

    monkeypatch.setattr(alpha, "_canonical_cocircular_flips", corrupted)


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
        # The other diagonal of a kite, whose circumcircles are not empty, is
        # put into the triangle rows after the flip pass; the edge-by-edge
        # check must catch it.
        pc = cloud((0.0, 0.0), (4.0, -1.0), (4.0, 1.0), (5.0, 0.0))
        assert delaunay_triangulation(pc).triangles == ((0, 1, 2), (1, 2, 3))
        corrupt_rows(monkeypatch, ((0, 1, 2), (1, 2, 3)), ((0, 1, 3), (0, 2, 3)))
        with pytest.raises(NumericalError, match="failed verification"):
            delaunay_triangulation(pc)

    @pytest.mark.parametrize(
        "remove, add",
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
    def test_verification_rejects_broken_triangle_rows(self, monkeypatch, remove, add):
        pc = cloud((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (1.0, 1.0))
        assert delaunay_triangulation(pc).triangles == (
            (0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 3, 4)
        )
        corrupt_rows(monkeypatch, remove, add)
        with pytest.raises(NumericalError, match="failed verification"):
            delaunay_triangulation(pc)

    def test_scaling_guard(self, monkeypatch):
        # Cavities come from walks over the neighbour links, not from testing
        # every triangle, each flip re-tests four edges, not all of them, and
        # the verification tests each edge once.  Along the Hilbert order a
        # new point's cavity and walk stay small, so the in-circle calls of
        # all three, every one through in_circle_at, stay linear in the
        # points: per point, the 48 x 48 lattice needs at most 1.5 times the
        # 12 x 12 one.
        calls = 0
        predicate = alpha.in_circle_at

        def counted(*args):
            nonlocal calls
            calls += 1
            return predicate(*args)

        monkeypatch.setattr(alpha, "in_circle_at", counted)
        per_point = {}
        for k in (12, 48):
            pc = lattice_centroids(k, 0)
            calls = 0
            tri = delaunay_triangulation(pc)
            assert len(tri.triangles) == 2 * (k - 1) ** 2
            per_point[k] = calls / len(pc)
        assert 0 < per_point[48] <= 25
        assert per_point[48] <= 1.5 * per_point[12]

    def test_integer_coordinates_are_made_once(self, monkeypatch):
        # The insertion, the flips and the verification read one table.
        calls = 0
        make = geometry.integer_coordinates

        def counted(points):
            nonlocal calls
            calls += 1
            return make(points)

        monkeypatch.setattr(geometry, "integer_coordinates", counted)
        monkeypatch.setattr(alpha, "integer_coordinates", counted)
        assert len(delaunay_triangulation(lattice_centroids(24, 0)).triangles) == 2 * 23 * 23
        assert calls == 1


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


@st.composite
def crowded_clouds(draw):
    """Two or three clusters about 1e-9 wide at integer points of [0, 4]^2, so
    each cluster falls in one or two cells of the insertion order's 2**16
    grid and its points tie on the curve key.  A cluster is random points or
    an exactly cocircular lattice of step 2**-30; the whole cloud is in a
    drawn order."""
    width = math.ldexp(1.0, -30)
    coordinate = st.integers(0, 4)
    centres = draw(st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=3, unique=True))
    pts = set()
    for cx, cy in centres:
        if draw(st.booleans()):
            k = draw(st.integers(2, 3))
            steps = [(i, j) for i in range(k) for j in range(k)]
        else:
            unit = st.floats(0.0, 1.0)
            steps = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=6))
        pts.update((cx + i * width, cy + j * width) for i, j in steps)
    return draw(st.permutations(sorted(pts)))


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

    @given(crowded_clouds())
    @settings(max_examples=100, deadline=None)
    def test_crowded_clouds_match_reference(self, pts):
        # Ties in the curve key keep input order; the reference inserts in
        # input order throughout.
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
    def test_sign_matches_the_fraction_reference(self, quad, others):
        # The integer coordinates are made once for the whole vertex list,
        # so their common power of two may come from another point.
        verts = [*quad, *others]
        sign = in_circle_at(verts, integer_coordinates(verts), 0, 1, 2, 3)
        alone = in_circle_at(quad, integer_coordinates(quad), 0, 1, 2, 3)
        exact = in_circle_reference(*quad, tol=math.inf)  # no float filter
        assert sign == alone == in_circle_reference(*quad) == exact

    def test_overflowed_determinant_is_not_a_sign(self):
        # The float determinant is inf, the exact one negative (from the
        # "overflow" cloud above: edge (2, 3) against apex 1).
        quad = [(-2.894802230932905e76, 0.0), (0.0, 0.0), (0.0, 8.684406692798715e76)]
        quad.append((5.78960446186581e76, -1.157920892373162e77))
        assert in_circle_determinant(*quad)[0] == math.inf
        sign = in_circle_at(quad, integer_coordinates(quad), 0, 1, 2, 3)
        det, _ = in_circle_determinant(*integer_coordinates(quad))
        assert sign == (det > 0) - (det < 0) == in_circle_reference(*quad, tol=math.inf) == -1


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

    def test_half_lengths_follow_the_scalar_formula(self):
        # Python's ** calls the C library's pow, which can round a square
        # differently from x * x; on these two-point clouds, where it does,
        # the two give half lengths an ulp apart.
        ends = [(4.271831013626938, 3.6624066515918083), (8.961232172391053, 6.399492260174327)]
        for dx, dy in ends:
            fc = build_alpha_complex(cloud((0.0, 0.0), (dx, dy)))
            assert value_of(fc, (0, 1)) == math.sqrt((dx**2 + dy**2) / 4.0)

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

    @pytest.mark.parametrize("scale", [1e-46, 1e-200, 1e100, 1e150])
    def test_values_match_scalar_reference_at_extreme_scales(self, scale):
        # The filtration's squares and distances are numpy columns, which
        # overflow and underflow with a warning where Python's scalars raise
        # OverflowError or say nothing.  At 1e-200 and 1e150 every cloud is
        # out of range for the triangulation, which must reject it quietly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pc in reference_clouds():
                scaled = cloud(*[(x * scale, y * scale) for x, y in pc.points])
                try:
                    tri = delaunay_triangulation(scaled)
                except DegenerateTriangulationError:
                    continue
                except NumericalError as exc:
                    assert "out of range" in str(exc)
                    continue
                assert dict(alpha_filtration(tri, scaled)) == alpha_values_reference(tri)

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
        # Third points just outside the edge's diametral circle, by k * 1e-12
        # in squared distance; the apex is the only point that can decide
        # the edge.  At half length 1 they sit on either side of the
        # slackened circle, but the triangle's circumradius rounds to the
        # half length, so the decision hardly shows in the values; at 1e-4
        # they sit about k * 1e-4 (relative) outside, far beyond the
        # relative slack, so every edge is Gabriel, and the circumradius
        # exceeds the half length by about 1e-9.
        for s in (1.0, 1e-4):
            for k in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 3.0):
                y = math.sqrt(s * s + k * 1e-12)
                for apex in ((s, y), (s, -y)):
                    pc = cloud((0.0, 0.0), (2.0 * s, 0.0), apex)
                    tri = delaunay_triangulation(pc)
                    assert dict(alpha_filtration(tri, pc)) == alpha_values_reference(tri)

    def test_values_scale_with_the_cloud(self):
        # Scaling the cloud by 2**k scales every value by 2**k exactly: the
        # Gabriel slack is relative, so at no scale does it swallow an apex.
        # Edges (0, 3), (1, 3), (2, 3), (0, 2) and (1, 2) are Gabriel.
        pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, -0.5)]
        unscaled = dict(build_alpha_complex(cloud(*pts)))
        assert unscaled[(2, 3)] == 1.75 < unscaled[(0, 2, 3)]
        for k in range(-300, 301):
            scaled = cloud(*[(math.ldexp(x, k), math.ldexp(y, k)) for x, y in pts])
            expected = {s: math.ldexp(v, k) for s, v in unscaled.items()}
            assert dict(build_alpha_complex(scaled)) == expected, k

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
