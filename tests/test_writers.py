"""The column writers against bar-by-bar references, byte for byte.

``Barcode.to_json``, ``render_barcode_svg`` and ``render_feature_map``
read a barcode's columns.  ``barcode_json_reference`` (the standard
library's encoder), ``barcode_svg_reference`` (the plot drawn one
``PersistencePair`` at a time) and ``feature_map_svg_reference`` (each
cycle walked with a dict and a set) read ``Barcode.rendered()``.  Hand-built barcodes reach what no
filtration gives: triangle generators on dimension-1 bars, births at or
above the horizon, births below -2**53.  Barcodes read off random
filtrations reach the values a build writes, -0.0 among them.  Both kinds
hold the same float64 columns.  ``barcode.json`` and ``complex.txt`` are
written in blocks, and the feature map's cycles are walked in blocks; the
bytes must not depend on where the blocks end.  An
overflow or invalid value in a writer's float arithmetic fails the test.
"""

import copy
import json
import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoph import render
from geoph.complexes import close_under_faces
from geoph.homology import Barcode, PersistencePair, barcode_of, classify_long_persistence
from geoph.pipeline import RunConfig, run_pipeline
from geoph.precincts import parse_feature_collection
from geoph.render import render_barcode_svg, render_feature_map
from geoph.synth import annulus_fixture, dissent_fixture, grid_fixture

from helpers import (
    barcode_json_reference,
    barcode_svg_reference,
    complex_text_reference,
    feature_map_svg_reference,
    long_persistence_reference,
    random_filtered_entries,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
)
# Few vertex ids, so that bars share generator simplices.
simplices = st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple)


@st.composite
def bars(draw):
    birth = draw(numbers)
    return PersistencePair(
        dimension=draw(st.integers(0, 2)),
        birth=birth,
        death=draw(st.one_of(st.none(), st.just(birth), numbers)),
        generator=tuple(draw(st.lists(simplices, max_size=4))),
        birth_position=draw(st.integers(0, 40)),
        long_persistence=draw(st.booleans()),
    )


def assert_writers_match(bc, fc=None):
    text = bc.to_json()
    assert text == barcode_json_reference(bc)
    assert render_barcode_svg(bc) == barcode_svg_reference(bc)
    lines = None if fc is None else fc.to_text()
    if fc is not None:
        assert lines == complex_text_reference(fc)
    for size in (1, 2, 3):  # blocks of a few bars or simplices, the last one short
        with patch("geoph.barcode._JSON_BLOCK", size), patch("geoph.complexes._TEXT_BLOCK", size):
            assert bc.to_json() == text
            if fc is not None:
                assert fc.to_text() == lines


LOOP = ((0, 1), (0, 2), (1, 2))


@given(st.lists(bars(), max_size=12), numbers)
@settings(max_examples=150, deadline=None)
@example(pairs=[], horizon=0.0)
@example(  # only zero-length bars
    pairs=[PersistencePair(1, 2.0, 2.0, (), 0), PersistencePair(0, 1, 1.0, ((3,),), 1)],
    horizon=2.0,
)
@example(  # every birth at or above the horizon: the plot's hi <= lo branch
    pairs=[PersistencePair(0, 0.0, None, ((0,),), 0), PersistencePair(1, 2, 5, LOOP, 1)],
    horizon=0,
)
@example(  # the birth floor is below -2**53 and not below the horizon: lo + 1.0 == lo
    pairs=[
        PersistencePair(0, 0.0, None, ((0,),), 0),
        PersistencePair(0, -9007199254740996.0, None, ((1,),), 1),
    ],
    horizon=-9007199254740996.0,
)
@example(  # int births and deaths (held as floats), immortal bars in every dimension
    pairs=[
        PersistencePair(0, 0, None, ((0,),), 0),
        PersistencePair(1, 1, None, LOOP, 1),
        PersistencePair(1, 2, 7, LOOP[:2] + ((1, 3), (2, 3)), 2),
        PersistencePair(2, 3, None, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)), 3),
        PersistencePair(0, 1, 4, ((1,),), 4, long_persistence=True),
    ],
    horizon=9,
)
def test_hand_built_barcodes(pairs, horizon):
    bc = Barcode(pairs, horizon)
    assert_writers_match(bc)
    flagged = classify_long_persistence(bc)
    assert flagged.pairs == long_persistence_reference(pairs, horizon)
    assert flagged.rendered() == [p for p in flagged.pairs if not p.zero_length]
    assert_writers_match(flagged)


@given(
    st.integers(0, 2**32),
    st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8, unique=True).map(sorted),
)
@settings(max_examples=60, deadline=None)
@example(seed=3, levels=[-0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
def test_barcodes_read_off_filtrations(seed, levels):
    entries = random_filtered_entries(random.Random(seed))
    fc = close_under_faces([(s, levels[int(value)]) for s, value in entries])
    bc = classify_long_persistence(barcode_of(fc))
    assert_writers_match(bc, fc)
    rebuilt = Barcode(bc.pairs, bc.horizon)  # the same columns, filled from pairs
    assert rebuilt.to_json() == bc.to_json()
    assert render_barcode_svg(rebuilt) == render_barcode_svg(bc)


def test_int_births_and_deaths_are_written_as_floats():
    bc = Barcode([PersistencePair(1, 1, 3, LOOP, 0)], 5.0)
    text = bc.to_json()
    assert '"birth": 1.0,' in text and '"death": 3.0,' in text
    ((birth, death),) = [(p.birth, p.death) for p in bc.pairs]
    assert (type(birth), type(death)) == (float, float)
    (record,) = json.loads(text)
    assert (record["birth"], record["death"]) == (1.0, 3.0)
    assert type(record["birth"]) is float


def test_signed_zeros_keep_their_sign():
    fc = close_under_faces([((0,), -0.0), ((1,), 0.0), ((2,), -0.0), ((0, 1), 1.0)])
    text = barcode_of(fc).to_json()
    assert '"birth": -0.0' in text and '"birth": 0.0' in text
    assert fc.to_text() == "0\t-0.0\n1\t0.0\n2\t-0.0\n0,1\t1.0\n"
    assert_writers_match(barcode_of(fc), fc)


def test_generator_simplices_have_one_to_three_vertices():
    with pytest.raises(ValueError, match="1 to 3 vertices"):
        Barcode([PersistencePair(1, 0.0, 1.0, ((0, 1, 2, 3),), 0)], 1.0)
    with pytest.raises(ValueError, match="1 to 3 vertices"):
        Barcode([PersistencePair(1, 0.0, 1.0, ((),), 0)], 1.0)


@pytest.mark.parametrize(
    "pairs",
    [[], [PersistencePair(1, 0.5, 2.0, LOOP, 0)], [PersistencePair(0, 0.0, None, (), 0)]],
    ids=["empty", "one bar", "one bar without a generator"],
)
def test_small_barcodes_in_blocks(pairs):
    bc = Barcode(pairs, 2.0)
    assert_writers_match(bc)
    assert list(bc.json_blocks()) == (["[]\n"] if not pairs else ["[\n", bc.to_json()[2:]])


def test_block_list_closes_once():
    bc = Barcode([PersistencePair(0, float(k), None, ((k,),), k) for k in range(5)], 5.0)
    with patch("geoph.barcode._JSON_BLOCK", 2):
        blocks = list(bc.json_blocks())
    assert len(blocks) == 4  # "[\n", then bars 0-1, 2-3 and 4
    assert [b.endswith("\n]\n") for b in blocks] == [False, False, False, True]
    assert "".join(blocks) == barcode_json_reference(bc)


def test_vr_barcode_svg_in_blocks():
    # The 6 x 6 grid's red precincts: thousands of immortal H2 bars on few births.
    bc = run_pipeline(
        RunConfig(method="vr", candidate="red"), parse_feature_collection(grid_fixture(6))
    ).barcode
    shown = bc.shown()
    assert (bc.immortal[shown] & (bc.dimension[shown] == 2)).sum() > 5000
    assert len(set(bc.birth[shown].tolist())) < 50
    svg = barcode_svg_reference(bc)
    for size in (1, 2, 7, render._SVG_BLOCK):
        with patch("geoph.render._SVG_BLOCK", size):
            assert render_barcode_svg(bc) == svg


def test_plot_span_that_overflows_a_float():
    bc = Barcode([PersistencePair(0, -1e308, 1e308, ((0,),), 0)], 1e308)
    svg = render_barcode_svg(bc)
    assert "nan" not in svg and "inf" not in svg
    assert svg == barcode_svg_reference(bc)


# A MultiPolygon with a hole and a triangle, and a tied triangle.
MULTI_RING = {
    "type": "FeatureCollection",
    "features": [
        {
            "type": "Feature",
            "properties": {"id": "multi", "votes_blue": 1, "votes_red": 3},
            "geometry": {
                "type": "MultiPolygon",
                "coordinates": [
                    [
                        [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]],
                        [[1, 1], [1, 3], [3, 3], [3, 1], [1, 1]],
                    ],
                    [[[6, 0], [8, 0], [8, 2], [6, 0]]],
                ],
            },
        },
        {
            "type": "Feature",
            "properties": {"id": "tie", "votes_blue": 2, "votes_red": 2},
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[0, 5], [8, 5], [8, 6], [0, 5]]],
            },
        },
    ],
}


def stretched(coords):
    """Coordinates c as (c - 4) * 4e307, so x spans [-1.6e308, 1.6e308]."""
    if isinstance(coords, list):
        return [stretched(c) for c in coords]
    return (coords - 4) * 4e307


HUGE = copy.deepcopy(MULTI_RING)
for feat in HUGE["features"]:
    feat["geometry"]["coordinates"] = stretched(feat["geometry"]["coordinates"])
# A hole (annulus), multiple rings, a grid; and multiple rings over an
# extent that overflows, which the renderer halves.
FEATURE_MAPS = [
    parse_feature_collection(dissent_fixture()),
    parse_feature_collection(annulus_fixture(hole_radius=40.0, segments=12)),
    parse_feature_collection(MULTI_RING),
    parse_feature_collection(HUGE),
]


def test_huge_feature_map_is_halved():
    x0, y0, x1, y1 = FEATURE_MAPS[3].bbox()
    assert math.isinf(x1 - x0)  # so the renderer takes its halving path


# Edges over few vertex ids, in either order, possibly repeated and even
# loops, so that generators have odd degrees and cycles share vertices.
edges = st.tuples(st.integers(0, 7), st.integers(0, 7))
coordinates = st.lists(
    st.tuples(st.floats(-300, 300), st.floats(-300, 300)), min_size=8, max_size=8
).map(lambda points: dict(enumerate(points)))


@st.composite
def drawn_bars(draw):
    dimension = draw(st.integers(0, 2))
    birth = draw(st.floats(0, 10))
    if dimension == 1:
        generator = draw(st.lists(edges, max_size=9))
    else:  # other tables, so that edge rows do not start at 0
        generator = [tuple(range(k, k + dimension + 1)) for k in draw(st.lists(st.integers(0, 5)))]
    return PersistencePair(
        dimension=dimension,
        birth=birth,
        death=draw(st.one_of(st.none(), st.just(birth), st.floats(0, 10))),
        generator=tuple(generator),
        birth_position=0,
        long_persistence=draw(st.booleans()),
    )


TRIANGLE = ((0, 1), (1, 2), (0, 2))
FIGURE_EIGHT = TRIANGLE + ((2, 3), (3, 4), (2, 4))


@given(
    st.lists(drawn_bars(), max_size=8),
    st.sampled_from(FEATURE_MAPS),
    coordinates,
    st.sampled_from(["blue", "red"]),
)
@settings(max_examples=120, deadline=None)
@example(  # a figure-eight; two loops in one generator; a loop sharing vertices
    pairs=[
        PersistencePair(1, 0.0, None, FIGURE_EIGHT, 0),
        PersistencePair(1, 1.0, 4.0, TRIANGLE + ((5, 6), (6, 7), (5, 7)), 0, True),
        PersistencePair(1, 1.0, 2.0, ((0, 2), (2, 5), (0, 5)), 0),
    ],
    m=FEATURE_MAPS[2],
    points={v: (v * 1.5, v % 3 - 1.0) for v in range(8)},
    candidate="red",
)
@example(  # odd degrees, repeated and reversed edges, an empty generator
    pairs=[
        PersistencePair(1, 0.0, 3.0, ((0, 1), (1, 2)), 0),
        PersistencePair(1, 0.0, 3.0, TRIANGLE + ((1, 0), (0, 1), (2, 3)), 0, True),
        PersistencePair(1, 0.0, 3.0, (), 0),
    ],
    m=FEATURE_MAPS[1],
    points={v: (v * 20.0, 250.0 - v) for v in range(8)},
    candidate="blue",
)
@example(  # the map whose extent overflows
    pairs=[PersistencePair(1, 0.0, None, TRIANGLE, 0, True)],
    m=FEATURE_MAPS[3],
    points={v: (v * 2e307, -v * 2e307) for v in range(8)},
    candidate="red",
)
def test_feature_maps(pairs, m, points, candidate):
    bc = Barcode(pairs, 10.0)
    coords = np.array([points[v] for v in range(len(points))])  # row v: vertex v
    svg = render_feature_map(m, bc, candidate, coords)
    assert svg == feature_map_svg_reference(m, bc, candidate, points)
    for size in (1, 2, 3):  # blocks of a few generator edges
        with patch("geoph.render._CYCLE_BLOCK", size):
            assert render_feature_map(m, bc, candidate, coords) == svg


def test_feature_map_cycles_share_vertices_across_blocks():
    # A fan of 399 triangles about vertex 0, each sharing an edge with the
    # next: every cycle holds vertex 0, and 1,596 cycle vertices fill two
    # blocks at the default size.
    fan = [
        PersistencePair(1, i, None if i % 5 else i + 2.5, ((0, i), (i, i + 1), (0, i + 1)), i)
        for i in range(1, 400)
    ]
    bc = classify_long_persistence(Barcode(fan, 500.0))
    angles = np.linspace(0.0, 6.0, 401)
    coords = np.column_stack([np.cos(angles), np.sin(angles)]) * 100.0
    m = FEATURE_MAPS[0]
    svg = render_feature_map(m, bc, "red", coords)
    assert svg == feature_map_svg_reference(m, bc, "red", dict(enumerate(coords.tolist())))
    for size in (4, 7, 64, render._CYCLE_BLOCK):
        assert len(set((bc.cycle_ptr[:-1] // size).tolist())) > 1
        with patch("geoph.render._CYCLE_BLOCK", size):
            assert render_feature_map(m, bc, "red", coords) == svg
