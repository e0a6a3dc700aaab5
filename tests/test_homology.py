import json
import random
import warnings
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoph import homology
from geoph.complexes import (
    FilteredComplex,
    close_under_faces,
    euler_characteristic,
    faces,
)
from geoph.geometry import PointCloud
from geoph.homology import (
    Barcode,
    PersistencePair,
    _filtration_ranks,
    barcode_of,
    betti_oracle,
    build_boundary_matrix,
    classify_long_persistence,
    persistence_pairs,
    reduce_matrix,
)
from geoph.pipeline import METHODS, RunConfig, run_pipeline
from geoph.precincts import parse_feature_collection
from geoph.rips import build_vr_complex
from geoph.synth import FIXTURES, make_fixture

from helpers import (
    all_faces_closure,
    barcode_json_reference,
    bars_alive_at,
    boundary_matrix_reference,
    boundary_of_boundary_vanishes,
    complex_at,
    dense_reduce_reference,
    distinct_values,
    long_persistence_reference,
    persistence_pairs_reference,
    position_of,
    random_filtered_entries,
    skipped_columns,
)


def hollow_triangle():
    return close_under_faces(
        [((i,), 0.0) for i in range(3)] + [((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0)]
    )


class TestBoundaryMatrix:
    def test_columns_hold_face_positions(self):
        fc = hollow_triangle()
        bm = build_boundary_matrix(fc)
        assert len(bm) == 6
        assert bm.columns[:3] == (frozenset(), frozenset(), frozenset())
        for j in range(3, 6):
            s, _ = fc.entries[j]
            assert bm.columns[j] == frozenset(position_of(fc, f) for f in faces(s))

    def test_boundary_of_boundary_vanishes(self):
        fc = close_under_faces([((0, 1, 2), 1.0), ((1, 2, 3), 2.0)])
        assert boundary_of_boundary_vanishes(build_boundary_matrix(fc).columns)

    def test_matches_reference_on_random_complexes(self):
        rng = random.Random(31)
        for _ in range(60):
            fc = close_under_faces(random_filtered_entries(rng))
            assert build_boundary_matrix(fc).columns == boundary_matrix_reference(fc)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_matches_reference_on_fixtures(self, fixture, method):
        fc = fixture_complex(fixture, method)
        assert build_boundary_matrix(fc).columns == boundary_matrix_reference(fc)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_builders_emit_what_the_validating_constructor_accepts(self, fixture, method):
        # The builders skip validation; the constructor re-derives the
        # order and checks closure and monotonicity.
        fc = fixture_complex(fixture, method)
        validated = FilteredComplex(fc.entries)
        assert fc == validated
        assert fc.entries == validated.entries


@pytest.fixture(params=["columns", "rows"])
def reduction_path(request, monkeypatch):
    """Reduce every dimension by the column loop, or every one by the row sweep."""
    path = getattr(homology, f"_reduce_{request.param}")
    monkeypatch.setattr(homology, "_reduction_path", lambda columns, rows: path)


def reduced_by(path, bm):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_reduction_path", lambda columns, rows: path)
        return reduce_matrix(bm)


@st.composite
def tied_complexes(draw):
    """Complexes on up to 7 vertices with up to 4 distinct values: many ties,
    and dense enough that several columns share a low row."""
    n = draw(st.integers(1, 7))
    simplices = [s for d in (1, 2, 3) for s in combinations(range(n), d)]
    value = st.none() | st.integers(0, 3)
    values = draw(st.lists(value, min_size=len(simplices), max_size=len(simplices)))
    return close_under_faces([(s, v) for s, v in zip(simplices, values) if v is not None])


def assert_matches_dense_reference(fc):
    bm = build_boundary_matrix(fc)
    red = reduce_matrix(bm)
    pairs, columns, chains = dense_reduce_reference(bm.columns)
    assert red.pairs == pairs
    assert red.matrix.columns == columns
    reduced = set(range(len(bm))) - skipped_columns(fc, pairs)
    for j in reduced:
        assert red.chains[j] == chains[j]
    for p in persistence_pairs(red, fc).pairs:
        if p.dimension > 0 and not p.zero_length:
            chain = chains[p.birth_position]
            assert p.generator == tuple(sorted(fc.entries[k][0] for k in chain))


@lru_cache(maxsize=None)
def fixture_complex(fixture, method):
    m = parse_feature_collection(make_fixture(fixture))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_pipeline(RunConfig(method=method, candidate="red"), m).complex


def widest_loop_column(fc, red):
    """The most face ranks any reduced column spans, lowest row to highest,
    among the columns the reduction loop reduced or added: the width of the
    loop's widest int."""
    rank, _ = _filtration_ranks(fc)
    touched = {k for j, chain in enumerate(red.chains) if not red.apparent[j] for k in chain}
    columns = [red.matrix.columns[k] for k in touched]
    return max((rank[max(c)] - rank[min(c)] + 1 for c in columns if c), default=0)


def assert_chains_empty_exactly_where_skipped(fc):
    bm = build_boundary_matrix(fc)
    red = reduce_matrix(bm)
    pairs, _, _ = dense_reduce_reference(bm.columns)
    empty = {j for j, chain in enumerate(red.chains) if not chain}
    assert empty == skipped_columns(fc, pairs)


def assert_pairs_match_reference(fc):
    """The lazily completed ``Barcode.pairs`` equals every bar read off the
    reduction column by column, before and after the long-persistence flags;
    the classified barcode's pairs are read first, so each builds its own."""
    red = reduce_matrix(build_boundary_matrix(fc))
    bc = persistence_pairs(red, fc)
    expected = persistence_pairs_reference(red, fc)
    flagged = classify_long_persistence(bc)
    assert flagged.pairs == long_persistence_reference(expected.pairs, expected.horizon)
    assert bc.pairs == expected.pairs
    assert flagged.rendered() == [p for p in flagged.pairs if not p.zero_length]
    assert bc.rendered() == expected.rendered()
    assert bc.horizon == flagged.horizon == expected.horizon
    for dimension in (0, 1, 2):
        assert bc.max_persistence(dimension) == expected.max_persistence(dimension)
    assert classify_long_persistence(expected).pairs == flagged.pairs


class TestReduction:
    @pytest.mark.usefixtures("reduction_path")
    def test_matches_dense_reference_on_random_complexes(self):
        rng = random.Random(31)
        for _ in range(60):
            assert_matches_dense_reference(close_under_faces(random_filtered_entries(rng)))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.usefixtures("reduction_path")
    def test_matches_dense_reference_on_fixtures(self, fixture, method):
        assert_matches_dense_reference(fixture_complex(fixture, method))

    @given(tied_complexes())
    @settings(max_examples=200, deadline=None)
    def test_both_paths_give_the_same_reduction(self, fc):
        bm = build_boundary_matrix(fc)
        loop = reduced_by(homology._reduce_columns, bm)
        rows = reduced_by(homology._reduce_rows, bm)
        for field in ("owner", "apparent", "chain_ptr", "chain_at"):
            assert np.array_equal(getattr(loop, field), getattr(rows, field)), field

    def test_chains_empty_only_for_vertices_and_zero_length_births(self):
        rng = random.Random(31)
        for _ in range(60):
            fc = close_under_faces(random_filtered_entries(rng))
            assert_chains_empty_exactly_where_skipped(fc)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_chains_empty_only_where_skipped_on_fixtures(self, fixture, method):
        assert_chains_empty_exactly_where_skipped(fixture_complex(fixture, method))

    @pytest.mark.usefixtures("reduction_path")
    def test_apparent_pair_that_is_a_zero_length_edge_birth(self):
        # The triangle is the only coface of its youngest edge (1, 2), and
        # both enter at 1: the pair is apparent and the edge is cleared.
        fc = close_under_faces(
            [((i,), 0.0) for i in range(3)]
            + [((0, 1), 0.0), ((0, 2), 0.0), ((1, 2), 1.0), ((0, 1, 2), 1.0)]
        )
        edge, triangle = position_of(fc, (1, 2)), position_of(fc, (0, 1, 2))
        red = reduce_matrix(build_boundary_matrix(fc))
        assert red.apparent[triangle]
        assert red.pairs[edge] == triangle
        assert red.chains[edge] == frozenset() and red.chains[triangle] == {triangle}
        assert red.matrix.columns[triangle] == build_boundary_matrix(fc).columns[triangle]
        bc = barcode_of(fc)
        loops = [(p.birth, p.death, p.generator) for p in bc.pairs if p.dimension == 1]
        assert loops == [(1.0, 1.0, ())]
        assert [p.dimension for p in bc.rendered()] == [0]
        assert_matches_dense_reference(fc)
        assert_pairs_match_reference(fc)

    @pytest.mark.usefixtures("reduction_path")
    def test_apparent_column_added_by_two_later_columns(self):
        # (0, 1), (1, 2) and (0, 3) are apparent; (0, 2) adds (1, 2) then
        # (0, 1), and (1, 3) adds (0, 3) then (0, 1) again.
        fc = close_under_faces(
            [((i,), 0.0) for i in range(4)]
            + [((0, 1), 1.0), ((1, 2), 2.0), ((0, 2), 3.0), ((0, 3), 4.0), ((1, 3), 5.0)]
            + [((0, 1, 2), 6.0), ((0, 1, 3), 7.0)]
        )
        red = reduce_matrix(build_boundary_matrix(fc))
        shared = position_of(fc, (0, 1))
        assert red.apparent[shared]
        adders = [j for j, chain in enumerate(red.chains) if shared in chain and j != shared]
        assert adders == [position_of(fc, (0, 2)), position_of(fc, (1, 3))]
        assert red.chains[shared] == {shared}
        assert red.matrix.columns[shared] == {position_of(fc, (0,)), position_of(fc, (1,))}
        loops = [(p.birth, p.death, p.generator) for p in barcode_of(fc).rendered(1)]
        assert loops == [
            (3.0, 6.0, ((0, 1), (0, 2), (1, 2))),
            (5.0, 7.0, ((0, 1), (0, 3), (1, 3))),
        ]
        assert_matches_dense_reference(fc)
        assert_pairs_match_reference(fc)

    @pytest.mark.usefixtures("reduction_path")
    def test_matches_dense_reference_on_dense_flag_complexes(self):
        # Vietoris-Rips on 12-30 distinct points of a 7 x 7 lattice: many
        # tied distances, long columns, and pivots that are not apparent.
        wide = nonapparent_added = nested = 0
        for seed in range(8):
            rng = random.Random(seed)
            lattice = [(float(x), float(y)) for x in range(7) for y in range(7)]
            pts = rng.sample(lattice, rng.randrange(12, 31))
            fc = build_vr_complex(PointCloud(points=tuple(pts)))
            assert_matches_dense_reference(fc)
            bm = build_boundary_matrix(fc)
            red = reduce_matrix(bm)
            additions = []
            pairs, _, _ = dense_reduce_reference(bm.columns, additions)
            skipped = skipped_columns(fc, pairs)
            added = {(j, k) for j, k in additions if j not in skipped and not red.apparent[k]}
            adders = {j for j, _ in added}
            wide += widest_loop_column(fc, red) > 64
            nonapparent_added += bool(added)
            nested += any(k in adders for _, k in added)
        assert wide and nonapparent_added and nested

    @pytest.mark.usefixtures("reduction_path")
    def test_matches_dense_reference_on_wide_level_set_columns(self):
        m = parse_feature_collection(make_fixture("blobs"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fc = run_pipeline(RunConfig(method="levelset", candidate="red"), m).complex
        red = reduce_matrix(build_boundary_matrix(fc))
        assert widest_loop_column(fc, red) > 64
        assert_matches_dense_reference(fc)

    def test_pairing_is_partial_matching(self):
        rng = random.Random(11)
        for _ in range(40):
            fc = close_under_faces(random_filtered_entries(rng))
            red = reduce_matrix(build_boundary_matrix(fc))
            births = list(red.pairs.keys())
            deaths = list(red.pairs.values())
            assert len(set(births)) == len(births)
            assert len(set(deaths)) == len(deaths)
            assert not set(births) & set(deaths)
            # a death column ends nonzero, a birth column ends zero
            for b, d in red.pairs.items():
                assert not red.matrix.columns[b]
                assert max(red.matrix.columns[d]) == b

    def test_empty_complex_reduces_to_empty_barcode(self):
        fc = FilteredComplex([])
        bc = barcode_of(fc)
        assert bc.pairs == ()

    def test_hollow_triangle_bars(self):
        bc = barcode_of(hollow_triangle())
        bars = [(p.dimension, p.birth, p.death) for p in bc.pairs]
        assert bars.count((0, 0.0, None)) == 1
        assert bars.count((0, 0.0, 1.0)) == 2
        assert bars.count((1, 1.0, None)) == 1
        assert len(bars) == 4

    def test_filled_triangle_kills_loop_at_face_value(self):
        fc = close_under_faces(
            [((i,), 0.0) for i in range(3)]
            + [((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0), ((0, 1, 2), 2.0)]
        )
        bc = barcode_of(fc)
        dim1 = [(p.birth, p.death) for p in bc.pairs if p.dimension == 1]
        assert dim1 == [(1.0, 2.0)]

    def test_hollow_triangle_generator_is_its_three_edges(self):
        bc = barcode_of(hollow_triangle())
        (loop,) = [p for p in bc.pairs if p.dimension == 1]
        assert loop.generator == ((0, 1), (0, 2), (1, 2))

    def test_tetrahedron_boundary_has_betti_2(self):
        entries = [(s, 1.0) for s in all_faces_closure(combinations(range(4), 3))]
        fc = FilteredComplex(entries)
        assert betti_oracle(fc.simplices()) == (1, 0, 1)
        bc = barcode_of(fc)
        assert sum(1 for p in bc.pairs if p.dimension == 2 and p.infinite) == 1


class TestPairs:
    def test_matches_reference_on_random_complexes(self):
        rng = random.Random(31)
        for _ in range(60):
            assert_pairs_match_reference(close_under_faces(random_filtered_entries(rng)))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_matches_reference_on_fixtures(self, fixture, method):
        assert_pairs_match_reference(fixture_complex(fixture, method))

    def test_rejects_a_reduction_of_another_complex(self):
        red = reduce_matrix(build_boundary_matrix(hollow_triangle()))
        with pytest.raises(ValueError, match="does not belong"):
            persistence_pairs(red, close_under_faces([((0, 1), 1.0)]))

    def test_hand_made_barcode_keeps_its_order_through_classification(self):
        zero = PersistencePair(1, 2.0, 2.0, (), 0)
        pairs = (bar(0.0, 4.0), zero, bar(1.0, 2.0), PersistencePair(0, 0.0, None, ((0,),), 0))
        bc = classify_long_persistence(Barcode(pairs=pairs, horizon=4.0))
        assert bc.pairs == long_persistence_reference(pairs, 4.0)
        assert bc.rendered() == [bc.pairs[0], bc.pairs[2], bc.pairs[3]]


class TestGenerators:
    def test_generators_are_cycles_at_birth(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            fc = close_under_faces(random_filtered_entries(rng))
            red = reduce_matrix(build_boundary_matrix(fc))
            bc = persistence_pairs(red, fc)
            for p in bc.pairs:
                if p.dimension != 1:
                    continue
                if p.zero_length:
                    assert p.generator == ()
                    continue
                cycle = p.generator
                assert cycle
                present = complex_at(fc, p.birth)
                assert all(e in present for e in cycle)
                # boundary sums to zero over F2: every vertex has even degree
                degree: dict = {}
                for a, b in cycle:
                    degree[a] = degree.get(a, 0) + 1
                    degree[b] = degree.get(b, 0) + 1
                assert all(d % 2 == 0 for d in degree.values())
                checked += 1
        assert checked > 10


class TestOracle:
    def test_known_values(self):
        assert betti_oracle([(0,)]) == (1, 0, 0)
        assert betti_oracle([(0,), (5,)]) == (2, 0, 0)
        square_loop = [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3)]
        assert betti_oracle(square_loop) == (1, 1, 0)

    def test_rejects_non_complex(self):
        with pytest.raises(ValueError, match="lacks face"):
            betti_oracle([(0, 1)])

    def test_bars_alive_match_oracle_on_random_complexes(self):
        rng = random.Random(5)
        for _ in range(80):
            fc = close_under_faces(random_filtered_entries(rng))
            bc = barcode_of(fc)
            for t in distinct_values(fc):
                assert bars_alive_at(bc, t) == betti_oracle(complex_at(fc, t))

    def test_euler_equals_alternating_betti_sum(self):
        rng = random.Random(6)
        for _ in range(40):
            fc = close_under_faces(random_filtered_entries(rng))
            for t in distinct_values(fc):
                cx = complex_at(fc, t)
                b0, b1, b2 = betti_oracle(cx)
                assert euler_characteristic(cx) == b0 - b1 + b2


def synthetic_barcode(persistences):
    pairs = tuple(
        PersistencePair(
            dimension=1, birth=0.0, death=float(p), generator=((0, 1),), birth_position=i
        )
        for i, p in enumerate(persistences)
    )
    return Barcode(pairs=pairs, horizon=float(max(persistences)))


class TestLongPersistence:
    def test_threshold_is_inclusive(self):
        bc = classify_long_persistence(synthetic_barcode([10.0, 8.0, 7.4, 2.0]))
        flags = [p.long_persistence for p in bc.pairs]
        assert flags == [True, True, False, False]  # 1.0, 0.8, 0.74, 0.2

    def test_single_bar_is_long(self):
        bc = classify_long_persistence(synthetic_barcode([3.0]))
        assert [p.long_persistence for p in bc.pairs] == [True]

    def test_infinite_bars_always_long(self):
        short = PersistencePair(1, 9.0, 10.0, ((0, 1),), 0)
        immortal = PersistencePair(1, 9.0, None, ((0, 1),), 1)
        dominant = PersistencePair(1, 0.0, 10.0, ((0, 1),), 2)
        bc = classify_long_persistence(
            Barcode(pairs=(short, immortal, dominant), horizon=10.0)
        )
        assert [p.long_persistence for p in bc.pairs] == [False, True, True]

    def test_dimension_zero_untouched(self):
        p0 = PersistencePair(0, 0.0, 10.0, ((0,),), 0)
        bc = classify_long_persistence(Barcode(pairs=(p0,), horizon=10.0))
        assert bc.pairs[0].long_persistence is False

    def test_zero_length_pairs_flagged_and_dropped_from_rendered(self):
        fc = close_under_faces(
            [((i,), 0.0) for i in range(3)] + [((0, 1, 2), 1.0)]
        )
        bc = barcode_of(fc)
        zero = [p for p in bc.pairs if p.zero_length]
        assert zero  # the loop closes the instant it appears
        assert all(p not in bc.rendered() for p in zero)


class TestExport:
    def test_records_shape_and_zero_length_exclusion(self):
        bc = barcode_of(hollow_triangle())
        records = json.loads(bc.to_json())
        assert all(
            set(r) == {"dimension", "birth", "death", "long_persistence", "generator"}
            for r in records
        )
        immortal = [r for r in records if r["death"] is None]
        assert len(immortal) == 2  # one component, one loop
        assert bc.to_json() == bc.to_json()

    def test_deterministic_across_runs(self):
        rng = random.Random(9)
        entries = random_filtered_entries(rng)
        a = barcode_of(close_under_faces(entries))
        b = barcode_of(close_under_faces(list(reversed(entries))))
        assert a.to_json() == b.to_json()


@lru_cache(maxsize=None)
def fixture_barcode(fixture, method, candidate):
    m = parse_feature_collection(make_fixture(fixture))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_pipeline(RunConfig(method=method, candidate=candidate), m).barcode


def bar(birth, death, generator=((0, 1), (0, 2), (1, 2)), dimension=1, long=False):
    return PersistencePair(dimension, birth, death, generator, 0, long_persistence=long)


class TestJsonWriter:
    """``Barcode.to_json`` against the standard library's encoder, byte for byte."""

    @pytest.mark.parametrize("candidate", ["blue", "red"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_matches_reference_on_fixtures(self, fixture, method, candidate):
        bc = fixture_barcode(fixture, method, candidate)
        assert bc.to_json() == barcode_json_reference(bc)

    def test_empty_barcode(self):
        bc = Barcode(pairs=(), horizon=0.0)
        assert bc.to_json() == barcode_json_reference(bc) == "[]\n"

    def test_matches_reference_on_random_complexes(self):
        rng = random.Random(47)
        for _ in range(60):
            bc = classify_long_persistence(
                barcode_of(close_under_faces(random_filtered_entries(rng)))
            )
            assert bc.to_json() == barcode_json_reference(bc)

    @pytest.mark.parametrize(
        "pairs",
        [
            (bar(0.5, None),),
            (bar(0.5, 2.0, long=True), bar(0.0, None, long=True)),
            (bar(0.5, 2.0, generator=()),),
            (bar(1, 3), bar(0, None, generator=((4,),), dimension=0)),
            (bar(np.float64(0.1), np.float64(0.7)), bar(np.float64(2.5), None)),
            (bar(5e-324, 1e-300), bar(0.1 + 0.2, 1e16), bar(-0.0, 1e300)),
            (bar(0.0, 1.0, generator=((0, 1, 2), (0, 1, 3), (123456, 7, 89))),),
            (bar(1.0, 1.0, generator=()),),
        ],
        ids=["immortal", "long", "empty-generator", "ints", "float64", "extreme-floats",
             "triangles", "zero-length-only"],
    )
    def test_matches_reference_on_hand_made_bars(self, pairs):
        bc = Barcode(pairs=pairs, horizon=10.0)
        assert bc.to_json() == barcode_json_reference(bc)

    def test_does_not_use_the_json_encoder(self, monkeypatch):
        bc = fixture_barcode("dissent", "vr", "red")
        expected = barcode_json_reference(bc)

        def refuse(*args, **kwargs):
            raise AssertionError("barcode.json went through the json module")

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert bc.to_json() == expected
