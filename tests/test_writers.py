"""The column writers against bar-by-bar references, byte for byte.

``Barcode.to_json`` and ``render_barcode_svg`` read a barcode's columns.
``barcode_json_reference`` (the standard library's encoder) and
``barcode_svg_reference`` (the plot drawn one ``PersistencePair`` at a
time) read ``Barcode.rendered()``.  Hand-built barcodes reach what no
filtration gives: triangle generators on dimension-1 bars, births at or
above the horizon, births below -2**53.  Barcodes read off random
filtrations reach the values a build writes, -0.0 among them.  Both kinds
hold the same float64 columns.  ``barcode.json`` and ``complex.txt`` are
written in blocks; the bytes must not depend on where the blocks end.  An
overflow or invalid value in a writer's float arithmetic fails the test.
"""

import json
import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoph.complexes import close_under_faces
from geoph.homology import Barcode, PersistencePair, barcode_of, classify_long_persistence
from geoph.render import render_barcode_svg

from helpers import (
    barcode_json_reference,
    barcode_svg_reference,
    complex_text_reference,
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
    fc = close_under_faces([((0,), -0.0), ((1,), 0.0), ((0, 1), 1.0)])
    text = barcode_of(fc).to_json()
    assert '"birth": -0.0' in text and '"birth": 0.0' in text
    assert text == barcode_json_reference(barcode_of(fc))


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


def test_plot_span_that_overflows_a_float():
    bc = Barcode([PersistencePair(0, -1e308, 1e308, ((0,),), 0)], 1e308)
    svg = render_barcode_svg(bc)
    assert "nan" not in svg and "inf" not in svg
    assert svg == barcode_svg_reference(bc)
