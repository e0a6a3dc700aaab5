import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoph.complexes import (
    FilteredComplex,
    close_under_faces,
    euler_characteristic,
    faces,
    simplex,
)

from helpers import (
    all_faces_closure,
    complex_at,
    distinct_values,
    order_key,
    random_filtered_entries,
    value_of,
)


class TestSimplex:
    def test_canonical_sorts_vertices(self):
        assert simplex([2, 0, 1]) == (0, 1, 2)
        assert simplex((5,)) == (5,)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            simplex([])
        with pytest.raises(ValueError):
            simplex([0, 1, 2, 3])
        with pytest.raises(ValueError):
            simplex([1, 1])
        with pytest.raises(ValueError):
            simplex([-1, 0])

    def test_faces(self):
        assert faces((3,)) == []
        assert faces((1, 4)) == [(4,), (1,)]
        assert set(faces((0, 1, 2))) == {(0, 1), (0, 2), (1, 2)}


class TestCloseUnderFaces:
    def test_triangle_alone_pulls_in_all_faces(self):
        fc = close_under_faces([((0, 1, 2), 1.0)])
        assert len(fc) == 7
        assert all(v == 1.0 for _, v in fc)

    def test_missing_vertex_inherits_min_coface_value(self):
        fc = close_under_faces([((0, 1), 2.0), ((1,), 1.0)])
        assert value_of(fc, (0,)) == 2.0
        assert value_of(fc, (1,)) == 1.0  # smaller own value survives

    def test_face_lowered_to_keep_monotonicity(self):
        fc = close_under_faces([((0,), 5.0), ((0, 1), 2.0)])
        assert value_of(fc, (0,)) == 2.0

    def test_duplicates_keep_smallest_value(self):
        fc = close_under_faces([((0,), 3.0), ((0,), 1.0)])
        assert value_of(fc, (0,)) == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            close_under_faces([((0,), math.inf)])

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_valid_on_random_input(self, seed):
        rng = random.Random(seed)
        entries = random_filtered_entries(rng, max_vertices=7)
        fc = close_under_faces(entries)
        again = close_under_faces(fc.entries)
        assert fc == again
        # Validity is what the strict constructor checks.
        FilteredComplex(fc.entries)


class TestFilteredComplex:
    def test_strict_constructor_rejects_missing_face(self):
        with pytest.raises(ValueError, match="not closed"):
            FilteredComplex([((0, 1), 1.0), ((0,), 0.0)])

    def test_strict_constructor_names_the_missing_face(self):
        with pytest.raises(ValueError, match=r"\(0, 1\) lacks face \(1,\)"):
            FilteredComplex([((0, 1), 1.0), ((0,), 0.0)])
        # Vertex 1 is missing, and its neighbour 2 has the rank 1 would
        # have, so (0, 1) and (1, 3) must not be taken for (0, 2) and (2, 3).
        vertices = [((v,), 0.0) for v in (0, 2, 3)]
        edges = [((0, 2), 0.0), ((0, 3), 0.0), ((2, 3), 0.0)]
        with pytest.raises(ValueError, match=r"\(0, 1, 3\) lacks face \(1, 3\)"):
            FilteredComplex(vertices + edges + [((0, 1, 3), 1.0)])

    def test_strict_constructor_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="monotone"):
            FilteredComplex([((0,), 2.0), ((1,), 0.0), ((0, 1), 1.0)])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_strict_constructor_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            FilteredComplex([((0,), 0.0), ((1,), value)])
        with pytest.raises(ValueError, match="non-finite"):
            FilteredComplex.from_text(f"0\t0.0\n1\t{value!r}\n")

    def test_strict_constructor_rejects_repeated_vertex(self):
        with pytest.raises(ValueError, match="repeated vertex"):
            FilteredComplex([((0,), 0.0), ((0, 0), 1.0)])
        with pytest.raises(ValueError, match="repeated vertex"):
            FilteredComplex.from_text("0\t0.0\n0,0\t1.0\n")

    def test_strict_constructor_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            FilteredComplex([((0,), 0.0), ((0,), 1.0)])

    def test_order_is_value_then_dim_then_lex(self):
        fc = close_under_faces(
            [((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1, 2), 0.0), ((3,), 2.0)]
        )
        keys = [order_key(e) for e in fc.entries]
        assert keys == sorted(keys)
        dims = [len(s) for s, v in fc.entries if v == 0.0]
        assert dims == sorted(dims)  # faces precede cofaces at equal value

    def test_complex_at_is_nested(self):
        rng = random.Random(7)
        fc = close_under_faces(random_filtered_entries(rng))
        values = distinct_values(fc)
        prev: set = set()
        for t in values:
            cur = complex_at(fc, t)
            assert prev <= cur
            prev = cur
        assert prev == set(fc.simplices())
        assert complex_at(fc, values[0] - 1.0) == set()

    def test_counts_and_euler(self):
        fc = close_under_faces([((0, 1, 2), 1.0), ((3,), 0.0)])
        assert fc.counts() == (4, 3, 1)
        assert euler_characteristic(fc.simplices()) == 4 - 3 + 1

    def test_text_round_trip(self):
        fc = close_under_faces(
            [((0, 1), 1.5), ((1, 2), 2.5), ((0,), 0.0), ((2,), 0.25)]
        )
        text = fc.to_text()
        for line in text.strip().splitlines():
            verts, value = line.split("\t")
            assert all(p.isdigit() for p in verts.split(","))
            float(value)
        assert FilteredComplex.from_text(text) == fc

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            FilteredComplex.from_text("0;1 2.0\n")

    def test_all_faces_closure(self):
        assert all_faces_closure([(0, 1, 2)]) == {
            (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
        }
