import copy
import math
import random
import time

import pytest

from geoph import adjacency
from geoph.adjacency import (
    AdjacencyGraph,
    build_adjacency_complex,
    margin_level,
    precincts_touch,
    queen_adjacency,
)
from geoph.homology import barcode_of, betti_oracle
from geoph.precincts import PrecinctMap, parse_feature_collection, winning_precincts
from geoph.synth import dissent_fixture, grid_fixture

from helpers import (
    adjacency_complex_reference,
    clique_triangles,
    complex_at,
    grid_queen_edges,
    jittered_lattice_map,
    margin_level_reference,
    queen_edges_reference,
    value_of,
)


def square_precinct(pid, x, y, blue, red, side=1.0):
    ring = [[x, y], [x + side, y], [x + side, y + side], [x, y + side], [x, y]]
    return {
        "type": "Feature",
        "properties": {"id": pid, "votes_blue": blue, "votes_red": red},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def map_of(*features):
    return parse_feature_collection({"type": "FeatureCollection", "features": list(features)})


def count_exact_tests(monkeypatch):
    """Route ``precincts_touch`` through a counter; returns the call list."""
    calls = []
    touch = adjacency.precincts_touch

    def counted(a, b, tol=adjacency.DEFAULT_TOL):
        calls.append((a.id, b.id))
        return touch(a, b, tol)

    monkeypatch.setattr(adjacency, "precincts_touch", counted)
    return calls


class TestTouching:
    def test_shared_side(self):
        m = map_of(square_precinct("a", 0, 0, 1, 0), square_precinct("b", 1, 0, 1, 0))
        assert precincts_touch(m.by_id("a"), m.by_id("b"))

    def test_shared_corner_counts(self):
        m = map_of(square_precinct("a", 0, 0, 1, 0), square_precinct("b", 1, 1, 1, 0))
        assert precincts_touch(m.by_id("a"), m.by_id("b"))

    def test_gap_does_not(self):
        m = map_of(square_precinct("a", 0, 0, 1, 0), square_precinct("b", 1.001, 0, 1, 0))
        assert not precincts_touch(m.by_id("a"), m.by_id("b"))

    def test_gap_within_tolerance_does(self):
        m = map_of(square_precinct("a", 0, 0, 1, 0), square_precinct("b", 1.001, 0, 1, 0))
        assert precincts_touch(m.by_id("a"), m.by_id("b"), tol=0.01)

    def test_orientation_invariant(self):
        # Same two squares, one traced clockwise: contact is geometric only.
        cw = square_precinct("b", 1, 0, 1, 0)
        cw["geometry"]["coordinates"][0].reverse()
        m = map_of(square_precinct("a", 0, 0, 1, 0), cw)
        assert precincts_touch(m.by_id("a"), m.by_id("b"))

    def test_symmetry(self):
        m = map_of(square_precinct("a", 0, 0, 1, 0), square_precinct("b", 1, 1, 1, 0))
        a, b = m.by_id("a"), m.by_id("b")
        assert precincts_touch(a, b) == precincts_touch(b, a)


class TestQueenGraph:
    def test_grid_matches_chebyshev_oracle(self):
        for n in (2, 3, 4, 40):
            g = queen_adjacency(parse_feature_collection(grid_fixture(n)))
            cells = {(r, c) for r in range(n) for c in range(n)}
            expected = {
                tuple(sorted((f"r{r1}c{c1}", f"r{r2}c{c2}")))
                for (r1, c1), (r2, c2) in grid_queen_edges(cells)
            }
            assert set(g.edges) == expected

    def test_scaling_guard(self, monkeypatch):
        # On a lattice every adjacent pair shares a corner, so no pair
        # reaches the exact predicate; a T-junction still does.
        calls = count_exact_tests(monkeypatch)
        m = parse_feature_collection(jittered_lattice_map(30, 0.3, 0))
        g = queen_adjacency(m)
        assert len(g.edges) > 3 * len(m)
        assert len(calls) == 0
        assert queen_adjacency(t_junction_map()).edges == {
            ("left", "right"),
            ("base", "left"),
            ("base", "right"),
        }
        assert len(calls) > 0

    def test_interior_cell_has_eight_neighbors(self):
        g = queen_adjacency(parse_feature_collection(grid_fixture(3)))
        assert sum("r1c1" in e for e in g.edges) == 8
        assert sum("r0c0" in e for e in g.edges) == 3

    def test_edge_list_format(self):
        m = map_of(
            square_precinct("b", 0, 0, 1, 0),
            square_precinct("a", 1, 0, 1, 0),
            square_precinct("c", 5, 5, 1, 0),
        )
        g = queen_adjacency(m)
        assert g.to_edge_list() == "a\tb\n"
        assert AdjacencyGraph(nodes=("x",), edges=frozenset()).to_edge_list() == ""

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            queen_adjacency(map_of(square_precinct("a", 0, 0, 1, 0)), tol=-1.0)


def rect_ring(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def polygon_precinct(pid, polygons, blue=1, red=0):
    """Precinct with one or more polygons, each a list of rings."""
    geometry = (
        {"type": "Polygon", "coordinates": polygons[0]}
        if len(polygons) == 1
        else {"type": "MultiPolygon", "coordinates": polygons}
    )
    return {
        "type": "Feature",
        "properties": {"id": pid, "votes_blue": blue, "votes_red": red},
        "geometry": geometry,
    }


TOLERANCES = (0.0, 1e-9, 0.01, 10.0)


def near_gap_maps(tol):
    """For gaps one float below, at and one float above ``tol`` (index 0, 1,
    2), maps of two unit squares that far apart across x ("x"), across y
    ("y") and across a corner ("d"), plus two distant bystanders."""
    bystanders = [
        polygon_precinct("far1", [[rect_ring(-50, -50, -49, -49)]]),
        polygon_precinct("far2", [[rect_ring(50, -50, 51, -49)]]),
    ]
    out = {}
    for k, g in enumerate(
        (math.nextafter(1.0 + tol, -math.inf), 1.0 + tol, math.nextafter(1.0 + tol, math.inf))
    ):
        for axis, (bx, by) in {"x": (g, 0.0), "y": (0.0, g), "d": (g, g)}.items():
            a = polygon_precinct("a", [[rect_ring(0.0, 0.0, 1.0, 1.0)]])
            b = polygon_precinct("b", [[rect_ring(bx, by, bx + 1.0, by + 1.0)]])
            out[axis, k] = map_of(bystanders[0], b, bystanders[1], a)
    return out


def scattered_rectangles_map(rng, count):
    """Rectangles on a quarter-unit grid, so sides and corners often touch
    and many share x0."""
    feats = []
    for i in range(count):
        x0, y0 = rng.randrange(0, 40) / 4, rng.randrange(0, 40) / 4
        w, h = rng.randrange(1, 8) / 4, rng.randrange(1, 8) / 4
        pid = f"s{rng.randrange(10**6):06d}_{i}"
        feats.append(polygon_precinct(pid, [[rect_ring(x0, y0, x0 + w, y0 + h)]]))
    return map_of(*feats)


def holes_and_parts_map():
    """A precinct with a hole holding two islands (one touching the hole's
    edge), a MultiPolygon whose parts sit far apart with neighbours near
    each part, and a column of squares sharing x0."""
    feats = [
        polygon_precinct("holed", [[rect_ring(0, 0, 10, 10), rect_ring(3, 3, 7, 7)[::-1]]]),
        polygon_precinct("island_touch", [[rect_ring(3, 3, 4, 4)]]),
        polygon_precinct("island_free", [[rect_ring(5, 5, 6, 6)]]),
        polygon_precinct(
            "multi", [[rect_ring(20, 0, 21, 1)], [rect_ring(40, 30, 41, 31)]], blue=0, red=3
        ),
        polygon_precinct("near_part1", [[rect_ring(21, 1, 22, 2)]]),
        polygon_precinct("near_part2", [[rect_ring(39, 29.5, 40, 30.5)]]),
        polygon_precinct("inside_bbox_only", [[rect_ring(30, 15, 31, 16)]]),
    ]
    feats += [polygon_precinct(f"col{i}", [[rect_ring(10, i, 11, i + 1)]]) for i in (3, 0, 2, 1)]
    return map_of(*feats)


def t_junction_map():
    """A 2-wide rectangle under two unit squares set half a unit along, so
    each square has a corner on the rectangle's top side (and the
    rectangle a corner on the right square's bottom side) with no vertex
    shared between the rectangle and either square."""
    return map_of(
        polygon_precinct("base", [[rect_ring(0, 0, 2, 1)]]),
        polygon_precinct("left", [[rect_ring(0.5, 1, 1.5, 2)]]),
        polygon_precinct("right", [[rect_ring(1.5, 1, 2.5, 2)]]),
    )


def scaled_map(fc, factor):
    """Parse a Polygon FeatureCollection with every coordinate multiplied by
    ``factor``."""
    fc = copy.deepcopy(fc)
    for feat in fc["features"]:
        for ring in feat["geometry"]["coordinates"]:
            ring[:] = [[x * factor, y * factor] for x, y in ring]
    return parse_feature_collection(fc)


class TestSweepMatchesAllPairs:
    """The bbox sweep must give exactly the all-pairs edge set."""

    @pytest.mark.parametrize("jitter", [0.0, 0.3, 0.49])
    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_jittered_lattices(self, jitter, tol):
        for seed in range(3):
            m = parse_feature_collection(jittered_lattice_map(7, jitter, seed))
            assert queen_adjacency(m, tol).edges == queen_edges_reference(m, tol)

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_gaps_just_below_at_and_above_tol(self, tol):
        for (axis, k), m in near_gap_maps(tol).items():
            edges = queen_adjacency(m, tol).edges
            assert edges == queen_edges_reference(m, tol), (axis, k)
            # Across a side, one float below the threshold touches and one
            # above does not; across a corner the distance is longer.
            if axis != "d" and k != 1:
                assert (edges == {("a", "b")}) == (k == 0), (axis, k)
            if k == 2:
                assert not edges

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_scattered_rectangles_with_tied_x0(self, tol):
        rng = random.Random(77)
        for _ in range(5):
            m = scattered_rectangles_map(rng, 60)
            assert len({p.bbox()[0] for p in m}) < len(m)
            assert queen_adjacency(m, tol).edges == queen_edges_reference(m, tol)

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_holes_and_multipolygons(self, tol):
        m = holes_and_parts_map()
        edges = queen_adjacency(m, tol).edges
        assert edges == queen_edges_reference(m, tol)
        if tol < 0.5:
            assert ("holed", "island_touch") in edges
            assert ("holed", "island_free") not in edges
            assert {("multi", "near_part1"), ("multi", "near_part2")} <= edges
            assert ("inside_bbox_only", "multi") not in edges

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_t_junctions(self, tol):
        m = t_junction_map()
        edges = queen_adjacency(m, tol).edges
        assert edges == queen_edges_reference(m, tol)
        assert {("base", "left"), ("base", "right")} <= edges

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_no_shared_vertex_gap_within_and_beyond_tol(self, tol):
        # b is offset half a unit in y, so the pair never shares a vertex.
        for gap, touching in ((tol / 2, True), (max(2 * tol, 1e-6), False)):
            m = map_of(
                polygon_precinct("a", [[rect_ring(0.0, 0.0, 1.0, 1.0)]]),
                polygon_precinct("b", [[rect_ring(1.0 + gap, 0.5, 2.0 + gap, 1.5)]]),
            )
            edges = queen_adjacency(m, tol).edges
            assert edges == queen_edges_reference(m, tol), gap
            assert (edges == {("a", "b")}) == touching, gap

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_signed_zero_vertex_is_shared(self, tol, monkeypatch):
        # The two squares meet only at the origin, written -0.0 on one side.
        m = map_of(
            polygon_precinct("a", [[rect_ring(-1.0, -1.0, -0.0, -0.0)]]),
            polygon_precinct("b", [[rect_ring(0.0, 0.0, 1.0, 1.0)]]),
        )
        assert queen_adjacency(m, tol).edges == queen_edges_reference(m, tol) == {("a", "b")}
        calls = count_exact_tests(monkeypatch)
        queen_adjacency(m, tol)
        assert calls == []

    @pytest.mark.parametrize("factor", [1e-300, 1e300])
    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_extreme_scales(self, factor, tol):
        for seed in range(2):
            m = scaled_map(jittered_lattice_map(6, 0.3, seed), factor)
            assert queen_adjacency(m, tol).edges == queen_edges_reference(m, tol)


class TestMarginLevel:
    def test_worked_values(self):
        assert margin_level(0.96) == 0.05
        assert margin_level(0.92) == 0.10
        assert margin_level(0.88) == 0.15
        assert margin_level(1.0) == 0.0
        assert margin_level(0.95) == 0.05  # threshold hit exactly

    def test_small_margin_enters_late(self):
        assert margin_level(0.02) == 1.0
        assert margin_level(0.0) == 1.0

    def test_custom_step(self):
        assert margin_level(0.75, step=0.25) == 0.25
        assert margin_level(0.74, step=0.25) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="outside"):
            margin_level(1.5)
        with pytest.raises(ValueError, match="positive"):
            margin_level(0.5, step=0.0)
        with pytest.raises(ValueError, match="smallest normal"):
            margin_level(0.5, step=5e-324)

    @pytest.mark.parametrize(
        "step", [1e-4, 3e-4, 1e-3, 0.01, 0.03, 0.05, 0.1, 1 / 3, 0.25, 0.3, 0.7, 1.0, 2.5]
    )
    def test_matches_linear_scan(self, step):
        margins = {i / 1000 for i in range(1001)}
        k = 0
        while k * step <= 1.0 + step:  # every threshold, hit exactly
            for d in (1.0 - k * step, 1.0 - k * step - 1e-12):
                if 0.0 <= d <= 1.0:
                    margins.update((d, math.nextafter(d, 0.0), min(math.nextafter(d, 2.0), 1.0)))
            k += max(1, int(0.002 / step))
        for d in sorted(margins):
            assert margin_level(d, step) == margin_level_reference(d, step), (d, step)

    def test_tiny_step_returns_at_once(self):
        # The linear scan would take about 1e10 iterations here.
        t0 = time.perf_counter()
        assert margin_level(0.0, step=1e-10) == 1.0
        assert margin_level(0.3, step=1e-10) == 0.7
        assert margin_level(1.0, step=1e-10) == 0.0
        assert time.perf_counter() - t0 < 1.0


class TestComplex:
    def test_three_mutual_neighbors_worked_example(self):
        # Margins 0.96, 0.92, 0.88 -> vertex levels 0.05, 0.10, 0.15; the
        # edges and the filled triangle all arrive with the weakest member.
        m = map_of(
            square_precinct("a", 0, 0, 98, 2),
            square_precinct("b", 1, 0, 96, 4),
            square_precinct("c", 0, 1, 94, 6),
        )
        fc = build_adjacency_complex(m, queen_adjacency(m), "blue")
        assert value_of(fc, (0,)) == 0.05
        assert value_of(fc, (1,)) == 0.10
        assert value_of(fc, (2,)) == 0.15
        assert value_of(fc, (0, 1)) == 0.10
        assert value_of(fc, (0, 2)) == 0.15
        assert value_of(fc, (1, 2)) == 0.15
        assert value_of(fc, (0, 1, 2)) == 0.15

    def test_vertex_order_is_id_order(self):
        m = map_of(
            square_precinct("z", 0, 0, 9, 1),
            square_precinct("a", 1, 0, 8, 2),
            square_precinct("m", 0, 1, 2, 8),
        )
        winners = winning_precincts(m, "blue")
        assert [p.id for p in winners] == ["a", "z"]
        fc = build_adjacency_complex(m, queen_adjacency(m), "blue")
        # vertex 0 is "a" (margin 0.6 -> 0.4), vertex 1 is "z" (0.8 -> 0.2)
        assert value_of(fc, (0,)) == 0.40
        assert value_of(fc, (1,)) == 0.20

    def test_losing_precincts_excluded(self):
        m = map_of(
            square_precinct("a", 0, 0, 9, 1),
            square_precinct("b", 1, 0, 1, 9),
        )
        fc = build_adjacency_complex(m, queen_adjacency(m), "blue")
        assert fc.counts() == (1, 0, 0)

    def test_no_winners_gives_empty_complex(self):
        m = map_of(square_precinct("a", 0, 0, 1, 9))
        fc = build_adjacency_complex(m, queen_adjacency(m), "blue")
        assert len(fc.entries) == 0

    def test_dissent_leaves_one_immortal_loop(self):
        m = parse_feature_collection(dissent_fixture())
        fc = build_adjacency_complex(m, queen_adjacency(m), "red")
        bc = barcode_of(fc)
        dim1 = [p for p in bc.pairs if p.dimension == 1]
        assert sum(1 for p in dim1 if p.death is None) == 1
        assert all(p.death is not None or p.dimension in (0, 1) for p in bc.pairs)

    def test_full_grid_has_no_loops(self):
        # Every 2x2 block is a 4-clique; its solid tetrahedron is cut off at
        # dimension 2, so each block leaves a hollow shell (hence b2 = 4).
        m = parse_feature_collection(grid_fixture(3))
        fc = build_adjacency_complex(m, queen_adjacency(m), "red")
        assert betti_oracle(complex_at(fc, 1.0)) == (1, 0, 4)

    @pytest.mark.parametrize("step", [0.05, 0.1, 0.3])
    def test_matches_all_pairs_construction(self, step):
        fixtures = [jittered_lattice_map(8, j, seed) for seed, j in enumerate((0.0, 0.3, 0.49))]
        fixtures += [grid_fixture(4), dissent_fixture()]
        maps = [parse_feature_collection(f) for f in fixtures] + [holes_and_parts_map()]
        for m in maps:
            g = queen_adjacency(m)
            for candidate in ("blue", "red"):
                fc = build_adjacency_complex(m, g, candidate, step)
                assert fc.to_text() == adjacency_complex_reference(m, g, candidate, step).to_text()

    def test_random_subgrids_match_clique_oracle(self):
        rng = random.Random(4242)
        for _ in range(25):
            rows, cols = rng.randint(2, 4), rng.randint(2, 4)
            keep = [
                (r, c) for r in range(rows) for c in range(cols) if rng.random() < 0.8
            ]
            if not keep:
                continue
            feats = [
                square_precinct(f"r{r}c{c}", c, r, 70 + rng.randint(0, 29), 10)
                for r, c in keep
            ]
            m = parse_feature_collection({"type": "FeatureCollection", "features": feats})
            g = queen_adjacency(m)
            fc = build_adjacency_complex(m, g, "blue")

            ids = sorted(f"r{r}c{c}" for r, c in keep)
            index = {pid: i for i, pid in enumerate(ids)}
            edges = {
                tuple(sorted((index[f"r{r1}c{c1}"], index[f"r{r2}c{c2}"])))
                for (r1, c1), (r2, c2) in grid_queen_edges(keep)
            }
            expect_tris = clique_triangles(range(len(ids)), edges)
            assert fc.counts() == (len(ids), len(edges), len(expect_tris))
            got_edges = {s for s in fc.simplices() if len(s) == 2}
            assert got_edges == edges
