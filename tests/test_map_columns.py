"""The precinct map as columns: the one-pass loader, the vote columns and
the table centroids, each against a scalar reference in ``helpers``."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoph.adjacency import _margin_levels, margin_level
from geoph.errors import InputError
from geoph.precincts import (
    SIDES,
    Precinct,
    centroids,
    parse_feature_collection,
    vote_margin,
    winner_rows,
    winning_precincts,
)
from geoph.render import margin_color, margin_colors

from helpers import (
    feature_collection,
    margin_color_reference,
    parse_feature_collection_reference,
    polygon_centroid_reference,
)

BIG = [2**53 + 1, 2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 3**50]
finite = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.5, *BIG, -(2**63) - 1]),
)
# what else a coordinate may be in a JSON document; "1.5" and True convert
odd_coordinate = st.sampled_from(
    [math.nan, math.inf, -math.inf, "1.5", "x", None, True, False, [], {}, 10**400, -(10**400)]
)
odd_point = st.one_of(
    st.lists(finite | odd_coordinate, min_size=0, max_size=4),
    st.sampled_from([None, 3, "ab", "12"]),
)


@st.composite
def rings(draw, broken=False):
    """A closed or unclosed ring of 2-D or 3-D points; when ``broken``, one
    with an odd point, too few points, or no list at all."""
    dims = draw(st.sampled_from([2, 2, 2, 3]))
    pts = draw(st.lists(st.lists(finite, min_size=dims, max_size=dims), min_size=3, max_size=7))
    if draw(st.booleans()):
        first = list(pts[0])
        if draw(st.booleans()):  # the closing repeat of a 0.0 as -0.0
            first = [-0.0 if c == 0 else c for c in first]
        pts.append(first)
    if broken:
        kind = draw(st.integers(0, 3))
        if kind == 0:
            pts[draw(st.integers(0, len(pts) - 1))] = draw(odd_point)
        elif kind == 1:
            pts = pts[: draw(st.integers(0, 2))]
        elif kind == 2:
            pts = [pts[0], pts[1], list(pts[0])]
        else:
            pts = draw(st.sampled_from([None, 7, "ring", {}]))
    return pts


ids = st.text(alphabet="abcdefghij", min_size=1, max_size=2) | st.integers(0, 9)
votes = st.integers(0, 50) | st.integers(0, 50) | st.integers(2**62, 2**64 + 3)
odd = {
    "id": st.sampled_from(["", None, True, 2.5, ["a"]]),
    "votes_blue": st.sampled_from([-1, True, "3", 1.0, None]),
    "votes_red": st.sampled_from([-1, True, "3", 1.0, None]),
}


@st.composite
def features(draw):
    """A well-formed Polygon or MultiPolygon feature; one in ten is broken in
    one place."""
    broken = draw(st.sampled_from([None] * 9 + ["feature", "props", "geometry", "ring", "coords"]))
    props = {"id": draw(ids), "votes_blue": draw(votes), "votes_red": draw(votes)}
    if broken == "props":
        key = draw(st.sampled_from(sorted(odd)))
        if draw(st.booleans()):
            del props[key]
        else:
            props[key] = draw(odd[key])
    gtype = draw(st.sampled_from(["Polygon", "MultiPolygon"]))
    polygon = st.lists(rings(), min_size=1, max_size=3)
    coords = draw(st.lists(polygon, min_size=1, max_size=3) if gtype == "MultiPolygon" else polygon)
    if broken == "ring":
        bad = draw(rings(broken=True))
        (coords[-1] if gtype == "MultiPolygon" else coords).insert(draw(st.integers(0, 1)), bad)
    if broken == "coords":
        coords = draw(st.sampled_from([None, 5, "c", [], [5], [[5]], [[]]]))
    geometry = {"type": gtype, "coordinates": coords}
    if broken == "geometry":
        geometry = draw(st.sampled_from([None, [], "g", {"type": "Point", "coordinates": [0, 0]}]))
    feat = {"type": "Feature", "properties": props, "geometry": geometry}
    if broken == "feature":
        feat = draw(
            st.sampled_from(
                [None, [], "f", 3, {"properties": None}, {"properties": ["a"]}, {"properties": "p"}]
            )
        )
    return feat


collections = st.lists(features(), min_size=0, max_size=6).map(
    lambda fs: {"type": "FeatureCollection", "features": fs}
)


def outcome(parse, obj):
    """What ``parse`` returned (a map, or the reference's columns) with the
    values compared: ids, votes, ring-table arrays and rings per precinct;
    or the InputError message."""
    try:
        got = parse(obj, "src")
    except InputError as exc:
        return str(exc)
    if isinstance(got, tuple):
        ids, blue, red, rings = got
        return got, (ids, blue, red, *table_of(rings), rings)
    t = got.ring_table
    table = (t.points.tobytes(), t.ring_ptr.tolist(), t.owner.tolist())
    return got, (got.ids, got.votes_blue, got.votes_red, *table, [p.rings for p in got])


def table_of(rings):
    """The ring table of closed rings per precinct: point bytes without the
    closing repeats, ring offsets and each point's precinct."""
    flat = [(k, ring[:-1]) for k, polygon in enumerate(rings) for ring in polygon]
    ptr = np.cumsum([0] + [len(ring) for _, ring in flat]).tolist()
    owner = [k for k, ring in flat for _ in ring]
    return bits([pt for _, ring in flat for pt in ring]), ptr, owner


def side(blue, red):
    return 1 if blue > red else 2 if red > blue else 0


def scalar_centroid(rings):
    (cx, cy), _ = polygon_centroid_reference(rings)
    if not (math.isfinite(cx) and math.isfinite(cy)):
        pts = [pt for ring in rings for pt in ring[:-1]]
        cx = sum(x for x, _ in pts) / len(pts)
        cy = sum(y for _, y in pts) / len(pts)
    return (cx, cy)


def bits(points):
    return np.array(points, dtype=np.float64).reshape(-1, 2).tobytes()


def check_views(m, blue, red, rings):
    """Every view of ``m`` against the reference columns."""
    for k, p in enumerate(m):
        assert isinstance(p, Precinct) and p.id == m.ids[k]
        assert (p.votes_blue, p.votes_red) == (blue[k], red[k]) == (m.votes_blue[k], m.votes_red[k])
        assert p.total_votes() == blue[k] + red[k]
        assert p.winner() == SIDES[side(blue[k], red[k])] == SIDES[m.sides[k]]
        if blue[k] + red[k]:
            assert vote_margin(p) == abs(blue[k] - red[k]) / (blue[k] + red[k]) == m.margins[k]
            assert type(vote_margin(p)) is float
        else:
            with pytest.raises(ValueError, match="no votes"):
                vote_margin(p)
        pts = [pt for ring in rings[k] for pt in ring]
        box = (min(x for x, _ in pts), min(y for _, y in pts))
        box += (max(x for x, _ in pts), max(y for _, y in pts))
        assert p.bbox() == box and all(type(v) is float for v in p.bbox())
        # the view closes each ring by its first point, so only the others are compared bitwise
        assert p.rings == rings[k]
        assert bits([pt for ring in p.rings for pt in ring[:-1]]) == table_of([rings[k]])[0]


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]


def collection(*rings_per_feature, blue=2, red=1):
    return feature_collection(rings_per_feature, [(blue, red)] * len(rings_per_feature))


@given(collections)
@settings(max_examples=150, deadline=None)
@example(collection([SQUARE], [[[0, 0, 9], [1, 0, 9], [0, 1, 9]]]))
@example(collection([[["0", "0"], ["1", 0], [0, "1.5"]]], [SQUARE]))
@example(collection([SQUARE], [[[0, 0], [1, 0]]], [[[0, "x"], [1, 0], [0, 1]]]))
@example(collection([SQUARE, [[0, 0], [10**400, 0], [0, 1]]]))
@example(collection([[[0.0, 0.0], [1, 0], [0, 1], [-0.0, 0.0]]]))
@example(collection([[[2**63 + 1, 0], [2**64, 1], [0, 3**50]]], blue=2**63, red=2**63 + 1))
@example(collection())
@example(
    feature_collection(
        [
            [SQUARE, [[0.25, 0.25], [0.25, 0.5], [0.5, 0.5]]],
            [[[2, -0.0], [3, 0], [3, 1]]],
            [SQUARE],
        ],
        [(0, 0), (7, 7), (2**63, 2**63 - 1)],
        gtype="MultiPolygon",
    )
)
def test_loader_matches_the_scalar_reference(obj):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, want = outcome(parse_feature_collection, obj), outcome(
            parse_feature_collection_reference, obj
        )
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        (m, columns), ((ids, blue, red, rings), ref_columns) = got, want
        assert columns == ref_columns
        assert m.sides.tolist() == [side(b, r) for b, r in zip(blue, red)]
        margins = [abs(b - r) / (b + r) if b + r else 0.0 for b, r in zip(blue, red)]
        assert m.margins.tolist() == margins
        for code, c in enumerate(SIDES[1:], 1):
            won = sorted(pid for pid, b, r in zip(ids, blue, red) if side(b, r) == code)
            assert [m.ids[k] for k in winner_rows(m, c).tolist()] == won
        assert bits(centroids(list(m))) == bits([scalar_centroid(r) for r in rings])
        check_views(m, blue, red, rings)


class TestLoader:
    def test_huge_integer_coordinate_is_a_bad_ring(self):
        obj = collection([[[0, 0], [int("9" * 401), 0], [0, 1]]])
        with pytest.raises(InputError, match=r"feature 0 \(p0\): bad ring coordinates \(int too"):
            parse_feature_collection(obj)

    @pytest.mark.parametrize("props", [["id"], "p", 7])
    def test_properties_that_are_not_an_object(self, props):
        obj = collection([SQUARE], [SQUARE])
        obj["features"][1]["properties"] = props
        with pytest.raises(InputError, match=r"^src: feature 1: properties must be an object$"):
            parse_feature_collection(obj, "src")

    def test_a_bad_ring_fails_before_a_later_features_bad_id(self):
        obj = collection([[[0, 0], [1, 0]]], [SQUARE])
        obj["features"][1]["properties"]["id"] = ""
        with pytest.raises(InputError, match=r"feature 0 \(p0\): bad ring.*at least 3 points"):
            parse_feature_collection(obj)

    def test_a_features_bad_ring_fails_before_its_bad_votes(self):
        obj = collection([SQUARE], [[[0, 0], [math.nan, 0], [0, 1]]])
        obj["features"][1]["properties"]["votes_red"] = -1
        with pytest.raises(InputError, match=r"feature 1 \(p1\): bad ring.*non-finite"):
            parse_feature_collection(obj)

    def test_loading_builds_no_precincts(self):
        m = parse_feature_collection(collection([SQUARE], [SQUARE]))
        winner_rows(m, "blue")
        assert "precincts" not in vars(m)
        p = winning_precincts(m, "blue")[1]
        assert p._rings is None
        assert p.rings == ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)],)
        assert all(isinstance(q, Precinct) for q in m) and len(m.precincts) == 2

    def test_votes_past_int64_stay_exact(self):
        m = parse_feature_collection(collection([SQUARE], [SQUARE], blue=2**64 + 1, red=2**64))
        assert m.votes_blue == (2**64 + 1, 2**64 + 1)
        assert m.sides.tolist() == [1, 1]
        assert m.margins.tolist() == [1 / (2**65 + 1)] * 2
        assert winning_precincts(m, "red") == []


def ring_of(points):
    return [tuple(map(float, p)) for p in points] + [tuple(map(float, points[0]))]


def circle(n, r=1.0, cx=0.0, cy=0.0):
    turns = [2 * math.pi * k / n for k in range(n)]
    return [(cx + r * math.cos(a), cy + r * math.sin(a)) for a in turns]


CENTROID_CASES = {
    "square": [[ring_of([(0, 0), (1, 0), (1, 1), (0, 1)])]],
    "hole": [
        [ring_of([(0, 0), (4, 0), (4, 4), (0, 4)]), ring_of([(1, 1), (1, 2), (2, 2), (2, 1)])]
    ],
    "multipolygon": [[ring_of([(0, 0), (1, 0), (0, 1)]), ring_of([(5, 5), (7, 5), (7, 6)])]],
    "zero area": [[ring_of([(0, 0), (1, 0), (2, 0)])], [ring_of([(0, 0), (1, 1), (0, 0), (1, 1)])]],
    "tiny": [[ring_of([(1e-300, 0), (3e-300, 1e-300), (0, 2e-300)])]],
    "huge": [[ring_of([(1e300, -1e300), (1.7e308, 0), (0, 1.7e308)])]],
    "mixed scales": [
        [
            ring_of([(1e300, 0), (1e300, 1e-300), (0, 1e300)]),
            ring_of([(1e-300, 5e-324), (0, 1e-310), (-1e-300, 0)]),
        ]
    ],
    "negative zero": [
        [ring_of([(-0.0, -0.0), (1, -0.0), (1, 1), (-0.0, 1)])],
        [ring_of([(-1, -0.0), (1, -0.0), (-0.0, 1)])],
    ],
    "symmetric": [
        [ring_of([(-1, -1), (1, -1), (1, 1), (-1, 1)])],
        [ring_of([(-0.0, -1), (1, 0), (0, 1), (-1, -0.0)])],
    ],
    "overflowing mean": [[ring_of([(1e308, 1e308), (1.5e308, 1.5e308), (1.7e308, 1.7e308)])]],
}


@pytest.mark.parametrize("polygons", CENTROID_CASES.values(), ids=CENTROID_CASES.keys())
def test_table_centroids_are_polygon_centroid_bit_for_bit(polygons):
    m = parse_feature_collection(feature_collection(polygons, [(1, 0)] * len(polygons)))
    assert m.ring_table.points.tobytes() == table_of(polygons)[0]
    want = [polygon_centroid_reference(rings)[0] for rings in polygons]
    got = m.ring_table.centroids(np.arange(len(m)))
    assert got.tobytes() == bits(want)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert bits(centroids(list(m))) == bits([scalar_centroid(rings) for rings in polygons])


def test_one_long_ring_beside_small_precincts():
    """The per-segment steps run for the longest polygon; the last few
    polygons are summed on their own, still in segment order."""
    polygons = [[ring_of(circle(10_000, 3.0, 0.1, -0.2))]]
    for x in range(5, 45):
        polygons += [[ring_of([(x, y), (x + 1, y), (x + 1, y + 1.5), (x, y + 1)])] for y in (0, 3)]
    polygons += [[ring_of(circle(n, 1.0, 60 + n, 0.5))] for n in (12, 40, 300, 301, 2000)]
    m = parse_feature_collection(feature_collection(polygons, [(1, 0)] * len(polygons)))
    assert m.ring_table.points.tobytes() == table_of(polygons)[0]
    order = np.random.default_rng(3).permutation(len(m))
    got = m.ring_table.centroids(order)
    assert got.tobytes() == bits([polygon_centroid_reference(polygons[k])[0] for k in order])


def test_margin_levels_match_margin_level():
    rng = np.random.default_rng(5)
    for step in (0.05, 0.1, 0.25, 1 / 3, 0.07, 1.0, 2.0, 1e-3, 1e-6):
        edges = [1 - k * step for k in range(min(int(1 / step) + 2, 50))]
        edges += [e - 1e-12 for e in edges]
        deltas = np.clip(np.concatenate([rng.random(500), edges, [0.0, 1.0]]), 0.0, 1.0)
        deltas = np.concatenate([deltas, np.nextafter(deltas, 2.0), np.nextafter(deltas, -1.0)])
        deltas = deltas[(deltas >= 0) & (deltas <= 1)]
        want = [margin_level(d, step) for d in deltas.tolist()]
        assert _margin_levels(deltas, step).tolist() == want
    with pytest.raises(InputError, match="step"):
        _margin_levels(np.array([0.5]), math.inf)


def test_margin_colors_match_the_reference():
    deltas = np.concatenate([np.linspace(-0.5, 1.5, 801), [math.nan, 1 / 510, 3 / 510, -0.0]])
    for side, winner in enumerate(SIDES):
        got = margin_colors(np.full(len(deltas), side), deltas)
        assert got == [margin_color_reference(winner, d) for d in deltas.tolist()]
        assert [margin_color(winner, d) for d in deltas.tolist()[:20]] == got[:20]
