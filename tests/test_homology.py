import json
import random
import warnings
from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geoph import homology
from geoph.alpha import build_alpha_complex
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
    _closed_walks_reference,
    all_faces_closure,
    barcode_json_reference,
    bars_alive_at,
    boundary_matrix_reference,
    boundary_of_boundary_vanishes,
    complex_at,
    dense_reduce_reference,
    distinct_values,
    generator_basis_failures,
    long_persistence_reference,
    persistence_pairs_reference,
    persistent_bars_reference,
    position_of,
    random_filtered_entries,
    recorded_paths,
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


def declined(*args):
    """A dual pairing that never runs, so the triangles take a column path."""
    return False


# The path a reduction picks when no test forces one.
CHOSEN_PATH = homology._reduction_path


@pytest.fixture(params=["columns", "rows"])
def reduction_path(request, monkeypatch):
    """Reduce every dimension by the column loop, or every one by the row
    sweep; the path's name.  The path is looked up at each reduction, so
    ``recorded_paths`` sees it."""
    monkeypatch.setattr(homology, "_pair_dual", declined)
    monkeypatch.setattr(
        homology,
        "_reduction_path",
        lambda columns, rows: getattr(homology, f"_reduce_{request.param}"),
    )
    return request.param


def reduced_by(path, bm):
    """The reduction of ``bm`` with its triangles forced onto ``path``, or
    onto the path ``_reduction_path`` picks when ``path`` is None."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_pair_dual", declined)
        if path is not None:
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


@st.composite
def planar_complexes(draw):
    """Face-closed subcomplexes of the Delaunay triangulation (scipy's, with
    joggled input, so collinear draws triangulate too) of 4 to 14 lattice
    points, with values from 2 to 4 distinct ones: many ties."""
    spatial = pytest.importorskip("scipy.spatial")
    lattice = st.tuples(st.integers(0, 12), st.integers(0, 12))
    points = draw(st.lists(lattice, min_size=4, max_size=14, unique=True))
    triangles = spatial.Delaunay(np.array(points, dtype=float), qhull_options="QJ").simplices
    simplices = {(v,) for v in range(len(points))}
    for t in triangles.tolist():
        t = tuple(sorted(t))
        simplices |= {t, *combinations(t, 2)}
    simplices = sorted(simplices)
    value = st.none() | st.integers(0, draw(st.integers(1, 3)))
    values = draw(st.lists(value, min_size=len(simplices), max_size=len(simplices)))
    entries = [(s, v) for s, v in zip(simplices, values) if v is not None]
    return close_under_faces(entries or [((0,), 0)])


# Closed surfaces, every edge in two triangles: the 7-vertex torus and the
# 6-vertex projective plane; and the 5-vertex Moebius band, whose rim edges
# have one triangle.  Over F2 each closed one has an H2 class.
SURFACES = (
    [tuple(sorted((i, (i + a) % 7, (i + 3) % 7))) for i in range(7) for a in (1, 2)],
    [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5)]
    + [(1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)],
    [tuple(sorted((i, (i + 1) % 5, (i + 2) % 5))) for i in range(5)],
)


@st.composite
def surface_complexes(draw):
    """Face-closed subcomplexes of one of ``SURFACES`` with up to 4 distinct
    values: many ties, and half of them the whole surface."""
    triangles = draw(st.sampled_from(SURFACES))
    simplices = sorted({f for t in triangles for d in (1, 2, 3) for f in combinations(t, d)})
    value = st.integers(0, 3) if draw(st.booleans()) else st.none() | st.integers(0, 3)
    values = draw(st.lists(value, min_size=len(simplices), max_size=len(simplices)))
    entries = [(s, v) for s, v in zip(simplices, values) if v is not None]
    return close_under_faces(entries or [((0,), 0)])


def assert_dual_matches_the_column_paths(fc):
    """The triangles pair on the dual graph exactly when no edge has more
    than two triangles and no H2 bar is born; then the pairing, the
    barcode and the views equal those of a reduction forced onto the
    column paths.  Returns whether they paired on the dual graph."""
    bm = build_boundary_matrix(fc)
    with recorded_paths() as calls:
        red = reduce_matrix(bm)
    column = reduced_by(None, bm)
    expected = persistence_pairs(column, fc)
    cofaces = Counter(e for t in fc.simplices() if len(t) == 3 for e in combinations(t, 2))
    dual = max(cofaces.values(), default=0) <= 2 and not len(expected.shown(2))
    assert len(calls) == 1 and (calls[0] == (2, "dual")) == dual
    assert np.array_equal(red.owner, column.owner)
    assert np.array_equal(red.apparent, column.apparent)
    bars = persistence_pairs(red, fc)
    assert bars.pairs == expected.pairs
    assert bars.to_json() == expected.to_json()
    assert red.pairs == column.pairs
    assert red.chains == column.chains
    assert red.matrix.columns == column.matrix.columns
    return dual


def assert_bars_match_persistent_betti(fc):
    """Every bar of nonzero length, as the persistent Betti numbers count it."""
    got = Counter((p.dimension, p.birth, p.death) for p in barcode_of(fc).rendered())
    assert got == persistent_bars_reference(fc.entries)


class TestDualPairing:
    """The triangles pair on the dual graph whenever no edge has more than
    two triangles and every triangle dies, with the same pairing, barcode
    and views as the column paths; otherwise a column path runs."""

    @given(planar_complexes())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_column_paths_on_planar_complexes(self, fc):
        assert assert_dual_matches_the_column_paths(fc)

    @given(surface_complexes())
    @settings(max_examples=300, deadline=None)
    def test_runs_on_surfaces_exactly_when_there_is_no_h2(self, fc):
        assert_dual_matches_the_column_paths(fc)
        assert_bars_match_persistent_betti(fc)

    @given(tied_complexes())
    @settings(max_examples=200, deadline=None)
    def test_runs_on_tied_complexes_exactly_when_the_rule_allows(self, fc):
        assert_dual_matches_the_column_paths(fc)

    @pytest.mark.parametrize("surface", range(len(SURFACES)))
    def test_a_whole_surface_pairs_on_the_dual_graph_only_without_h2(self, surface):
        # The torus and the projective plane have H2 until a triangle goes;
        # the Moebius band never has.
        whole = SURFACES[surface]
        for triangles in (whole, whole[1:]):
            fc = close_under_faces([(t, float(k)) for k, t in enumerate(triangles)])
            h2 = surface < 2 and triangles is whole
            assert assert_dual_matches_the_column_paths(fc) == (not h2)
            assert_bars_match_persistent_betti(fc)

    def test_an_edge_in_three_triangles_takes_the_column_loop(self):
        fc = close_under_faces([((0, 1, k), 1.0) for k in (2, 3, 4)])
        with recorded_paths() as calls:
            reduce_matrix(build_boundary_matrix(fc))
        assert calls == [(2, "columns")]
        assert_matches_dense_reference(fc)

    def test_a_closed_surface_takes_the_column_loop(self):
        # The hollow tetrahedron: every edge has two triangles, and one
        # triangle is born (H2), so it needs its chain: all four triangles.
        fc = close_under_faces([(t, float(k)) for k, t in enumerate(combinations(range(4), 3))])
        with recorded_paths() as calls:
            (bar,) = barcode_of(fc).rendered(2)
        assert calls == [(2, "columns")]
        assert bar.generator == tuple(combinations(range(4), 3))
        assert_matches_dense_reference(fc)

    @pytest.mark.parametrize("method", METHODS)
    def test_builds_pair_on_the_dual_graph_unless_an_edge_has_three_triangles(self, method):
        # On the dissent map only the flag complex has an edge in three
        # triangles; no build has H2.
        m = parse_feature_collection(make_fixture("dissent"))
        with recorded_paths() as calls, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fc = run_pipeline(RunConfig(method=method, candidate="red"), m).complex
        assert fc.counts()[2] > 0
        assert calls == [(2, "rows" if method == "vr" else "dual")]

    def test_every_copy_of_an_alpha_complex_pairs_on_the_dual_graph(self):
        fc = fixture_complex("dissent", "alpha")
        copies = (
            fc,
            FilteredComplex(fc.entries),
            close_under_faces(fc.entries),
            FilteredComplex.from_text(fc.to_text()),
        )
        for copy in copies:
            with recorded_paths() as calls:
                reduce_matrix(build_boundary_matrix(copy))
            assert calls == [(2, "dual")]


def assert_edges_match_the_full_reduction(fc):
    """The union-find's pairing is the full reduction's; each shown H1 bar
    has one cycle, and its generator is that reduction's chain, the cycle
    listing it as the closed walk of its edges."""
    bm = build_boundary_matrix(fc)
    red = reduce_matrix(bm)
    pairs, _, chains = dense_reduce_reference(bm.columns)
    owner = np.full(len(fc), -1)
    owner[list(pairs)] = list(pairs.values())
    assert np.array_equal(red.owner, owner)
    bc = persistence_pairs(red, fc)
    assert np.array_equal(bc.cycle_bar, bc.shown(1))
    bars = bc.pairs
    for i, k in enumerate(bc.cycle_bar.tolist()):
        generator = bars[k].generator
        assert generator == tuple(sorted(fc.entries[j][0] for j in chains[bars[k].birth_position]))
        cycle = bc.cycle_at[bc.cycle_ptr[i] : bc.cycle_ptr[i + 1]].tolist()
        assert [cycle] == _closed_walks_reference(generator)


class TestEdgeUnionFind:
    """The edges pair by a union-find, and each shown H1 generator is a
    forest cycle: the same pairing and chains as the full reduction."""

    @given(tied_complexes())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_reduction_on_tied_complexes(self, fc):
        assert_edges_match_the_full_reduction(fc)

    @given(planar_complexes())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_reduction_on_planar_complexes(self, fc):
        assert_edges_match_the_full_reduction(fc)

    def test_joining_edge_re_roots_a_linked_tree(self):
        # (0, 1), (2, 3) and (3, 4) are apparent: 1 hangs under 0, 3 under 2
        # and 4 under 3.  (1, 4) is not (4 met (3, 4) first); it joins the
        # two trees and kills 2, so the tree of 2 is re-rooted at 4 and hung
        # under 1.  The cycles of (0, 2) and (2, 4) then run through it.
        fc = close_under_faces(
            [((i,), 0.0) for i in range(6)]
            + [((0, 1), 1.0), ((2, 3), 1.0), ((3, 4), 1.0), ((1, 4), 2.0)]
            + [((0, 2), 3.0), ((2, 4), 3.0)]
        )
        red = reduce_matrix(build_boundary_matrix(fc))
        joining = position_of(fc, (1, 4))
        assert not red.apparent[joining]
        assert red.owner[position_of(fc, (2,))] == joining
        bc = persistence_pairs(red, fc)
        cycles = [
            bc.cycle_at[a:b].tolist() for a, b in zip(bc.cycle_ptr[:-1], bc.cycle_ptr[1:])
        ]
        assert cycles == [[0, 2, 3, 4, 1, 0], [2, 4, 3, 2]]
        assert_edges_match_the_full_reduction(fc)


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

    @given(tied_complexes())
    @settings(max_examples=200, deadline=None)
    def test_chains_list_their_simplices_in_lexicographic_order(self, fc):
        bm = build_boundary_matrix(fc)
        for path in (homology._reduce_columns, homology._reduce_rows):
            red = reduced_by(path, bm)
            ptr = red.chain_ptr.tolist()
            for j in range(len(fc)):
                chain = [fc.entries[k][0] for k in red.chain_at[ptr[j] : ptr[j + 1]].tolist()]
                assert chain == sorted(set(chain)), path.__name__

    def test_row_sweep_folds_a_pivot_it_found_into_another(self, monkeypatch):
        # The hollow tetrahedron.  Triangle (0, 1, 3) is apparent; (1, 2, 3)
        # adds it and (0, 1, 2) adds (1, 2, 3), both taking a row, and
        # (0, 2, 3) adds (0, 1, 2) and reduces to zero.  The sweep finds the
        # two pivots itself, one adding the other, so the chain of (0, 2, 3)
        # needs the fold of (0, 1, 2) and then that of (1, 2, 3).
        fc = close_under_faces(
            [((i,), 0.0) for i in range(4)]
            + [((2, 3), 0.0), ((0, 3), 1.0), ((0, 1), 2.0), ((0, 2), 2.0), ((1, 2), 2.0)]
            + [((1, 3), 2.0), ((0, 1, 3), 2.0), ((1, 2, 3), 2.0), ((0, 1, 2), 3.0)]
            + [((0, 2, 3), 5.0)]
        )
        t013, t123, t012, t023 = (
            position_of(fc, t) for t in ((0, 1, 3), (1, 2, 3), (0, 1, 2), (0, 2, 3))
        )
        monkeypatch.setattr(homology, "_reduction_path", lambda columns, rows: homology._reduce_rows)
        bm = build_boundary_matrix(fc)
        additions = []
        pairs, _, _ = dense_reduce_reference(bm.columns, additions)
        red = reduce_matrix(bm)
        assert {(t023, t012), (t012, t123), (t123, t013)} <= set(additions)
        assert red.apparent[t013] and not red.apparent[[t123, t012]].any()
        assert {t123, t012} <= set(pairs.values()) and t023 not in pairs.values()
        chain = red.chain_at[red.chain_ptr[t023] : red.chain_ptr[t023 + 1]].tolist()
        assert chain == [t012, t013, t023, t123]
        assert_matches_dense_reference(fc)
        assert_pairs_match_reference(fc)

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

    def test_matches_dense_reference_on_dense_flag_complexes(self, reduction_path):
        # Vietoris-Rips on 12-30 distinct points of a 7 x 7 lattice: many
        # tied distances, long columns, and pivots that are not apparent.
        # Built, their triangles take the row sweep; here, the forced path.
        nonapparent_added = nested = 0
        for seed in range(8):
            rng = random.Random(seed)
            lattice = [(float(x), float(y)) for x in range(7) for y in range(7)]
            pts = rng.sample(lattice, rng.randrange(12, 31))
            fc = build_vr_complex(PointCloud(points=tuple(pts)))
            assert_matches_dense_reference(fc)
            bm = build_boundary_matrix(fc)
            with recorded_paths() as calls:
                red = reduce_matrix(bm)
            with recorded_paths() as built, pytest.MonkeyPatch.context() as mp:
                mp.setattr(homology, "_reduction_path", CHOSEN_PATH)
                reduce_matrix(bm)
            assert calls == [(2, reduction_path)] and built == [(2, "rows")]
            additions = []
            pairs, _, _ = dense_reduce_reference(bm.columns, additions)
            skipped = skipped_columns(fc, pairs)
            added = {(j, k) for j, k in additions if j not in skipped and not red.apparent[k]}
            adders = {j for j, _ in added}
            nonapparent_added += bool(added)
            nested += any(k in adders for _, k in added)
        assert nonapparent_added and nested

    def test_matches_dense_reference_on_wide_level_set_columns(self, reduction_path):
        m = parse_feature_collection(make_fixture("blobs"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fc = run_pipeline(RunConfig(method="levelset", candidate="red"), m).complex
        with recorded_paths() as calls:
            reduce_matrix(build_boundary_matrix(fc))
        assert calls == [(2, reduction_path)]
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

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_matches_reference_when_copied_in_small_blocks(self, block, monkeypatch):
        # Blocks that end inside a bar's generator, and bars whose generators
        # span several blocks.
        monkeypatch.setattr(homology, "_COPY_BLOCK", block)
        rng = random.Random(37)
        for _ in range(30):
            assert_pairs_match_reference(close_under_faces(random_filtered_entries(rng)))
        assert_pairs_match_reference(fixture_complex("dissent", "vr"))

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

    @given(tied_complexes())
    @settings(max_examples=200, deadline=None)
    def test_bars_match_persistent_betti_numbers_on_tied_complexes(self, fc):
        assert_bars_match_persistent_betti(fc)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_bars_match_persistent_betti_numbers_on_fixtures(self, fixture, method):
        assert_bars_match_persistent_betti(fixture_complex(fixture, method))

    def test_euler_equals_alternating_betti_sum(self):
        rng = random.Random(6)
        for _ in range(40):
            fc = close_under_faces(random_filtered_entries(rng))
            for t in distinct_values(fc):
                cx = complex_at(fc, t)
                b0, b1, b2 = betti_oracle(cx)
                assert euler_characteristic(cx) == b0 - b1 + b2


def assert_bars_and_generators_check_out(fc):
    """The bars match the persistent Betti numbers, and at each value the
    shown generators of the bars alive there form a homology basis of the
    sublevel complex: both by ranks alone."""
    bars = barcode_of(fc).rendered()
    assert Counter((p.dimension, p.birth, p.death) for p in bars) == persistent_bars_reference(
        fc.entries
    )
    generators = [(p.dimension, p.birth, p.death, p.generator) for p in bars]
    assert generator_basis_failures(fc.entries, generators) == []


class TestGeneratorBases:
    """The bars and generators pass checks that share no code with the
    reduction, on both column paths and on small builds."""

    @pytest.mark.usefixtures("reduction_path")
    @given(tied_complexes())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_on_tied_complexes_on_each_column_path(self, fc):
        assert_bars_and_generators_check_out(fc)

    @pytest.mark.usefixtures("reduction_path")
    @pytest.mark.parametrize("fixture", ["grid", "dissent"])
    def test_on_adjacency_fixtures_on_each_column_path(self, fixture):
        assert_bars_and_generators_check_out(fixture_complex(fixture, "adjacency"))

    def test_on_adjacency_fixtures_as_built(self):
        with recorded_paths() as calls:
            for fixture in ("grid", "dissent"):
                assert_bars_and_generators_check_out(fixture_complex(fixture, "adjacency"))
        assert (2, "columns") in calls

    @pytest.mark.parametrize("seed", range(4))
    def test_on_25_point_alpha_clouds(self, seed):
        rng = random.Random(seed)
        points = tuple((rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(25))
        assert_bars_and_generators_check_out(build_alpha_complex(PointCloud(points=points)))

    @given(planar_complexes())
    @settings(max_examples=200, deadline=None)
    def test_on_planar_complexes_as_built(self, fc):
        assert_bars_and_generators_check_out(fc)

    def test_on_a_9_point_vr_cloud(self):
        rng = random.Random(9)
        points = tuple((rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(9))
        assert_bars_and_generators_check_out(build_vr_complex(PointCloud(points=points)))


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
