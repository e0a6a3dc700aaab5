import math
import random

import pytest

from geoph import alpha
from geoph.alpha import (
    alpha_filtration,
    build_alpha_complex,
    delaunay_triangulation,
)
from geoph.complexes import FilteredComplex, close_under_faces
from geoph.errors import DegenerateTriangulationError, NumericalError
from geoph.geometry import PointCloud
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
        # The flip pass is made to return the other diagonal of a kite whose
        # circumcircles are not empty; the global check must catch it.
        pc = cloud((0.0, 0.0), (4.0, -1.0), (4.0, 1.0), (5.0, 0.0))
        assert delaunay_triangulation(pc).triangles == ((0, 1, 2), (1, 2, 3))
        monkeypatch.setattr(
            alpha, "_canonical_cocircular_flips", lambda *_: ((0, 1, 3), (0, 2, 3))
        )
        with pytest.raises(NumericalError, match="verification"):
            delaunay_triangulation(pc)

    def test_scaling_guard(self, monkeypatch):
        # Cavities come from walks over the edge map, not from testing every
        # triangle, and each flip re-tests four edges, not all of them.
        calls = []
        predicate = alpha.in_circumcircle

        def counted(*args, **kwargs):
            calls.append(1)
            return predicate(*args, **kwargs)

        monkeypatch.setattr(alpha, "in_circumcircle", counted)
        pc = lattice_centroids(24, 0)
        tri = delaunay_triangulation(pc)
        assert len(tri.triangles) == 2 * 23 * 23
        assert len(calls) <= 100 * len(pc)


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
