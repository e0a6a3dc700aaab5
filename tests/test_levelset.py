import math
import random
import warnings

import numpy as np
import pytest

from geoph.errors import NumericalError
from geoph.homology import barcode_of, betti_oracle
from geoph.levelset import (
    MAX_SIDE,
    BitMask,
    GridTransform,
    GridVertexSchedule,
    ScalarField,
    _distance_sq_to,
    build_levelset_complex,
    complex_from_schedule,
    rasterize_mask,
    signed_distance_field,
    vertex_coordinates,
    vertex_schedule,
    write_pgm,
)
from geoph.precincts import parse_feature_collection
from geoph.synth import FIXTURES, annulus_fixture, blobs_fixture, grid_fixture, make_fixture

from helpers import (
    by_id,
    dilate_by_disk,
    distance_sq_reference,
    jittered_lattice_map,
    levelset_complex_reference,
    nearest_opposite_distance,
    point_in_rings,
    rasterize_mask_reference,
    superlevel_mask_at,
    value_of,
)


def awkward_map(max_side):
    """Red shapes over a 3 x 2 map: one spans the grid from the left edge to
    the right, one from the bottom to the top, a diamond has its vertices
    on row centers for ``max_side``, and all three overlap."""
    cell = 3.0 / max_side  # as the grid computes it: long extent / max_side
    centers = [(r + 0.5) * cell for r in range(max_side) if (r + 0.5) * cell <= 2.0]
    lo, mid, hi = centers[0], centers[len(centers) // 2], centers[-1]
    rings = [
        [(0.0, 0.5), (3.0, 0.5), (3.0, 1.2), (0.0, 1.2)],
        [(2.2, 0.0), (2.8, 0.0), (2.8, 2.0), (2.2, 2.0)],
        [(1.0, mid), (1.5, lo), (2.6, mid), (1.5, hi)],
    ]
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"id": f"a{i}", "votes_blue": 1, "votes_red": 2},
                "geometry": {"type": "Polygon", "coordinates": [[*map(list, ring)]]},
            }
            for i, ring in enumerate(rings)
        ],
    }


def field_from(rows, cell=1.0):
    values = np.asarray(rows, dtype=float)
    return ScalarField(values=values, transform=GridTransform(0.0, 0.0, cell))


def mask_from(rows):
    cells = np.asarray(rows, dtype=bool)
    return BitMask(cells=cells, transform=GridTransform(0.0, 0.0, 1.0))


class TestRasterize:
    def test_centers_against_point_membership(self):
        m = parse_feature_collection(annulus_fixture(hole_radius=20.0))
        mask = rasterize_mask(m, "red", max_side=40)
        rings = by_id(m, "ring").rings
        t = mask.transform
        for row in range(mask.height):
            for col in range(mask.width):
                x, y = t.x0 + (col + 0.5) * t.cell, t.y0 + (row + 0.5) * t.cell
                assert mask.cells[row, col] == point_in_rings(x, y, rings)

    def test_losing_candidate_gives_empty_mask(self):
        m = parse_feature_collection(grid_fixture(2))
        mask = rasterize_mask(m, "blue", max_side=10)
        assert not mask.cells.any()

    def test_grid_is_square_celled_and_covers_bbox(self):
        feats = grid_fixture(2)
        # stretch to a 2 x 1 map: bbox (0,0)-(2,2) already square; use blobs
        m = parse_feature_collection(blobs_fixture(side=80.0, gap=60.0))
        mask = rasterize_mask(m, "red", max_side=100)
        assert mask.width == 100  # long side: x extent 220
        t = mask.transform
        assert t.cell == pytest.approx(2.2)
        assert mask.height == math.ceil(80.0 / 2.2 - 1e-9)

    @pytest.mark.parametrize("max_side", [1, 2, 4, 7, 40, 250])
    def test_equals_all_rows_reference(self, max_side):
        # with max_side 4 the row centres 0.25 and 0.75 lie on the second
        # square's lower and upper edges
        squares = [((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))]
        squares += [((1.0, 0.25), (2.0, 0.25), (2.0, 0.75), (1.0, 0.75))]
        tied = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"id": f"s{i}", "votes_blue": 1, "votes_red": 2},
                    "geometry": {"type": "Polygon", "coordinates": [list(ring)]},
                }
                for i, ring in enumerate(squares)
            ],
        }
        maps = [make_fixture(name) for name in FIXTURES] + [tied, awkward_map(max_side)]
        maps += [
            jittered_lattice_map(n, jitter, seed)
            for n, jitter, seed in ((1, 0.0, 0), (6, 0.3, 1), (13, 0.49, 2), (30, 0.0, 3))
        ]
        for m in map(parse_feature_collection, maps):
            for candidate in ("red", "blue"):
                got = rasterize_mask(m, candidate, max_side=max_side)
                want = rasterize_mask_reference(m, candidate, max_side)
                assert got.transform == want.transform
                assert got.cells.shape == want.cells.shape
                assert (got.cells == want.cells).all()

    @pytest.mark.parametrize(
        "obj, scale, message",
        [
            (grid_fixture(2), lambda c: (c - 1.0) * 1e308, "extent"),  # x1 - x0 overflows
            (grid_fixture(2), lambda c: c * 5e-324 * 20, "extent"),  # extent / 250 underflows
            (jittered_lattice_map(6, 0.3, 1), lambda c: c * 1e160, "crossing"),
        ],
        ids=["extent-overflows", "cell-underflows", "crossing-overflows"],
    )
    def test_extent_cell_or_crossing_out_of_float_range(self, obj, scale, message):
        for feature in obj["features"]:
            feature["geometry"]["coordinates"] = [
                [[scale(x), scale(y)] for x, y in ring]
                for ring in feature["geometry"]["coordinates"]
            ]
        m = parse_feature_collection(obj)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                rasterize_mask(m, "red")

    def test_max_side_validation(self):
        m = parse_feature_collection(grid_fixture(1))
        with pytest.raises(ValueError, match="max_side"):
            rasterize_mask(m, "red", max_side=0)
        with pytest.raises(ValueError, match="max_side"):
            rasterize_mask(m, "red", max_side=251)

    def test_mask_dimension_cap(self):
        with pytest.raises(ValueError, match="exceed"):
            BitMask(cells=np.zeros((251, 10), dtype=bool), transform=GridTransform(0, 0, 1))


class TestSignedDistance:
    def test_single_true_cell_is_half_inside(self):
        sf = signed_distance_field(mask_from([[0, 0, 0], [0, 1, 0], [0, 0, 0]]))
        assert sf.values[1, 1] == pytest.approx(0.5)
        assert sf.values[1, 0] == pytest.approx(-0.5)
        assert sf.values[0, 0] == pytest.approx(0.5 - math.sqrt(2.0))

    def test_half_plane_ramps_linearly(self):
        rows = [[1, 1, 1, 0, 0, 0]] * 4
        sf = signed_distance_field(mask_from(rows))
        assert sf.values[0].tolist() == pytest.approx([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])

    def test_matches_brute_nearest_opposite(self):
        rng = random.Random(7)
        for _ in range(10):
            h, w = rng.randint(2, 9), rng.randint(2, 9)
            cells = np.asarray(
                [[rng.random() < 0.5 for _ in range(w)] for _ in range(h)], dtype=bool
            )
            if cells.all() or not cells.any():
                continue
            sf = signed_distance_field(mask_from(cells))
            d = nearest_opposite_distance(cells)
            want = np.clip(np.where(cells, d - 0.5, 0.5 - d), -max(h, w), max(h, w))
            np.testing.assert_allclose(sf.values, want)

    def test_distance_transform_equals_envelope_reference(self):
        rng = np.random.default_rng(11)
        masks = [rng.random((h, w)) < p for h, w, p in [
            (1, 1, 0.5), (1, 17, 0.3), (23, 1, 0.3), (1, MAX_SIDE, 0.01),
            (MAX_SIDE, 1, 0.01), (31, 47, 0.02), (40, 40, 0.5), (19, 64, 0.95),
            (64, 19, 0.0), (12, 12, 1.0),
        ]]
        for h, w in [(1, 1), (1, 9), (9, 1), (17, 29), (33, 8)]:
            r, c = rng.integers(h), rng.integers(w)
            single = np.zeros((h, w), dtype=bool)
            single[r, c] = True
            masks += [single, ~single]
        # Full-size masks where the row pass runs to its longest offsets:
        # one True cell at a corner or at the centre, every cell but one,
        # and True cells in a single column only.
        corner = np.zeros((MAX_SIDE, MAX_SIDE), dtype=bool)
        corner[0, 0] = True
        centre = np.zeros((MAX_SIDE, MAX_SIDE), dtype=bool)
        centre[MAX_SIDE // 2, MAX_SIDE // 2] = True
        column = np.zeros((MAX_SIDE, MAX_SIDE), dtype=bool)
        column[rng.random(MAX_SIDE) < 0.3, 7] = True
        masks += [corner, centre, ~centre, column]
        for cells in masks:
            got = _distance_sq_to(cells)
            assert got.shape == cells.shape
            assert np.array_equal(got, distance_sq_reference(cells))

    def test_uniform_masks_warn_and_clip(self):
        with pytest.warns(UserWarning, match="entirely true"):
            sf = signed_distance_field(mask_from([[1, 1], [1, 1]]))
        assert (sf.values == 2.0).all()
        with pytest.warns(UserWarning, match="entirely false"):
            sf = signed_distance_field(mask_from([[0, 0, 0]]))
        assert (sf.values == -3.0).all()

    def test_values_clipped_to_grid_side(self):
        rows = [[1] + [0] * 19]
        sf = signed_distance_field(mask_from(rows))
        assert sf.values.min() >= -20.0
        assert sf.values[0, 19] == pytest.approx(0.5 - 19.0)


class TestFront:
    def test_time_zero_is_the_mask(self):
        cells = [[0, 1, 0], [1, 1, 0], [0, 0, 0]]
        sf = signed_distance_field(mask_from(cells))
        front = superlevel_mask_at(sf, velocity=1.0, t=0.0)
        assert (front.cells == np.asarray(cells, dtype=bool)).all()

    def test_advance_matches_disk_dilation(self):
        cells = np.zeros((9, 9), dtype=bool)
        cells[4, 4] = True
        sf = signed_distance_field(mask_from(cells))
        for t in (1.0, 2.0, 3.0):
            front = superlevel_mask_at(sf, velocity=1.0, t=t)
            want = dilate_by_disk(cells, t + 0.5)  # phi = 0.5 - d outside
            assert (front.cells == want).all()

    def test_negative_velocity_rejected(self):
        sf = signed_distance_field(mask_from([[1, 0]]))
        with pytest.raises(ValueError, match="velocity"):
            superlevel_mask_at(sf, velocity=-1.0, t=1.0)


class TestSchedule:
    def test_entry_steps_from_field(self):
        sf = field_from([[0.5, -0.5, -1.5, -2.2]])
        s = vertex_schedule(sf, velocity=1.0, dt=1.0, stride=1)
        assert s.steps.tolist() == [[0.0, 1.0, 2.0, 3.0]]
        assert s.n_steps == 3

    def test_velocity_and_dt_scale_steps(self):
        sf = field_from([[-3.0]])
        assert vertex_schedule(sf, velocity=2.0, dt=1.0, stride=1).steps.tolist() == [[2.0]]
        assert vertex_schedule(sf, velocity=1.0, dt=0.5, stride=1).steps.tolist() == [[6.0]]

    def test_short_budget_warns_and_drops(self):
        sf = field_from([[0.0, -1.0, -5.0]])
        with pytest.warns(UserWarning, match="leaves the front short"):
            s = vertex_schedule(sf, n_steps=2, stride=1)
        assert s.steps.tolist() == [[0.0, 1.0, math.inf]]

    def test_stride_subsamples(self):
        sf = field_from([[float(-c) for c in range(11)] for _ in range(6)])
        s = vertex_schedule(sf, stride=5)
        assert tuple(s.rows) == (0, 5)
        assert tuple(s.cols) == (0, 5, 10)
        assert s.steps.shape == (2, 3)

    def test_text_export_uses_inf(self):
        sf = field_from([[0.0, -4.0]])
        with pytest.warns(UserWarning):
            s = vertex_schedule(sf, n_steps=1, stride=1)
        assert s.to_text() == "0\t0\t0\n0\t1\tinf\n"

    def test_matches_per_vertex_formula(self):
        rng = random.Random(3)
        for _ in range(30):
            h, w = rng.randint(1, 12), rng.randint(1, 12)
            values = [[rng.choice([0.0, -0.0, 0.5]) if rng.random() < 0.2
                       else rng.uniform(-h, w) for _ in range(w)] for _ in range(h)]
            velocity = rng.choice([1.0, 0.3, 2.5, 1e-300])
            dt = rng.choice([1.0, 0.7])
            stride = rng.randint(1, 5)
            want = [
                0 if phi >= 0 else math.ceil(-phi / (velocity * dt) - 1e-9)
                for row in values[::stride]
                for phi in row[::stride]
            ]
            n_steps = rng.choice([None, 0, 2, max(want)])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s = vertex_schedule(field_from(values), velocity, dt, n_steps, stride)
            budget = max(want) if n_steps is None else n_steps
            assert s.n_steps == budget
            assert s.steps.dtype == np.float64
            assert s.steps.shape == (len(values[::stride]), len(values[0][::stride]))
            assert s.steps.ravel().tolist() == [k if k <= budget else math.inf for k in want]
            assert not np.signbit(s.steps).any()  # 0.0, never -0.0

    def test_tiny_velocity_keeps_exact_step_counts(self):
        s = vertex_schedule(field_from([[-1.5, 0.5]]), velocity=1e-300, stride=1)
        step = math.ceil(1.5 / 1e-300 - 1e-9)
        assert step > 2**63  # past the int64 range
        assert s.steps.tolist() == [[step, 0.0]]  # the float equals the exact int
        assert s.n_steps == step
        assert s.to_text() == f"0\t0\t{step}\n0\t1\t0\n"
        fc = complex_from_schedule(s)
        assert value_of(fc, (0, 1)) == float(step)

    def test_huge_budget_keeps_every_vertex_silently(self):
        sf = field_from([[-1.5, 0.5, -250.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = vertex_schedule(sf, n_steps=10**399, stride=1)
        assert s.n_steps == 10**399
        assert s.steps.tolist() == [[2.0, 0.0, 250.0]]

    def test_budget_past_float_precision_is_exact(self):
        # 2**70 - 1 rounds up to the float 2**70, a step that it leaves out
        sf = field_from([[-(2.0**70), -(2.0**70 - 2.0**18), 0.0]])
        with pytest.warns(UserWarning, match="leaves the front short"):
            s = vertex_schedule(sf, n_steps=2**70 - 1, stride=1)
        assert s.steps.tolist() == [[math.inf, 2.0**70 - 2.0**18, 0.0]]

    def test_nonnegative_field_enters_at_zero_not_minus_zero(self, tmp_path):
        # ceil gives -0.0 on (-1, 0]; steps and both text files read 0
        sf = field_from([[0.0, 0.5, 3.0], [2.0, 1e-12, 7.0]])
        s = vertex_schedule(sf, stride=1)
        assert not np.signbit(s.steps).any()
        assert s.to_text() == "".join(f"{r}\t{c}\t0\n" for r in (0, 1) for c in (0, 1, 2))
        text = complex_from_schedule(s).to_text()
        assert "-0.0" not in text
        assert all(line.endswith("\t0.0") for line in text.splitlines())

    def test_validation(self):
        sf = field_from([[0.0]])
        with pytest.raises(ValueError, match="positive"):
            vertex_schedule(sf, velocity=0.0)
        with pytest.raises(ValueError, match="stride"):
            vertex_schedule(sf, stride=0)
        # each factor is positive, but the product underflows or the step
        # count across the grid overflows
        with pytest.raises(ValueError, match="too small"):
            vertex_schedule(sf, velocity=1e-200, dt=1e-200)
        with pytest.raises(ValueError, match="too small"):
            vertex_schedule(sf, velocity=1e-300, dt=1e-10)


    def test_array_holders_compare_by_identity(self):
        m = parse_feature_collection(jittered_lattice_map(4, 0.3, 0))
        masks = [rasterize_mask(m, "red", max_side=8) for _ in range(2)]
        fields = [signed_distance_field(mask) for mask in masks]
        schedules = [vertex_schedule(f, 1.0, 1.0, None, 2) for f in fields]
        for a, b in (masks, fields, schedules):
            assert (a == b) is False
            assert a == a
            assert (a != b) is True


class TestComplex:
    def test_two_by_two_block_counts(self):
        sf = field_from([[1.0, -1.0], [-1.0, -2.0]])
        fc = build_levelset_complex(sf, stride=1)
        # 4 vertices, 5 edges (4 sides + NW-SE diagonal), 2 triangles
        assert fc.counts() == (4, 5, 2)
        assert value_of(fc, (0,)) == 0.0
        assert value_of(fc, (1,)) == 1.0
        assert value_of(fc, (0, 3)) == 2.0
        assert value_of(fc, (0, 1, 3)) == 2.0
        assert value_of(fc, (0, 2, 3)) == 2.0

    def test_never_entering_vertex_absent(self):
        sf = field_from([[0.0, -9.0]])
        with pytest.warns(UserWarning):
            s = vertex_schedule(sf, n_steps=1, stride=1)
        fc = complex_from_schedule(s)
        assert fc.counts() == (1, 0, 0)

    def test_full_grid_counts(self):
        sf = field_from([[1.0] * 4 for _ in range(3)])
        fc = build_levelset_complex(sf, stride=1)
        v = 12
        e = 3 * 3 + 2 * 4 + 2 * 3  # horizontal + vertical + diagonals
        t = 2 * 2 * 3
        assert fc.counts() == (v, e, t)
        assert betti_oracle(fc.simplices()) == (1, 0, 0)

    def test_annulus_keeps_its_hole(self):
        m = parse_feature_collection(annulus_fixture(hole_radius=60.0))
        mask = rasterize_mask(m, "red", max_side=50)
        sf = signed_distance_field(mask)
        with pytest.warns(UserWarning, match="front short"):
            fc = build_levelset_complex(sf, stride=1, n_steps=0)
        assert betti_oracle(fc.simplices()) == (1, 1, 0)

    def test_blobs_merge_once(self):
        m = parse_feature_collection(blobs_fixture(side=80.0, gap=60.0))
        mask = rasterize_mask(m, "red", max_side=55)
        sf = signed_distance_field(mask)
        bc = barcode_of(build_levelset_complex(sf, stride=1))
        immortal0 = [p for p in bc.pairs if p.dimension == 0 and p.death is None]
        mortal0 = [
            p
            for p in bc.pairs
            if p.dimension == 0 and p.death is not None and not p.zero_length
        ]
        assert len(immortal0) == 1
        # the two blobs both arrive at step 0; one dies when the fronts meet
        fatal = [p for p in mortal0 if p.birth == 0.0]
        assert len(fatal) == 1
        gap_cells = 60.0 / mask.transform.cell
        assert fatal[0].death == pytest.approx(gap_cells / 2.0, abs=2.0)

    def test_equals_dict_reference(self):
        rng = random.Random(5)
        schedules = []
        for n_rows, n_cols in [(1, 1), (1, 9), (9, 1), (2, 2), (6, 7), (13, 10)]:
            for p_none in (0.0, 0.3, 1.0):
                steps = [
                    math.inf if rng.random() < p_none else float(rng.randrange(0, 6))
                    for _ in range(n_rows * n_cols)
                ]
                schedules.append(GridVertexSchedule(
                    stride=1, n_steps=5, steps=np.reshape(steps, (n_rows, n_cols)),
                ))
        values = [[rng.uniform(-9.0, 3.0) for _ in range(11)] for _ in range(7)]
        for stride in (1, 2, 3, 5, 12):
            for n_steps in (None, 2):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    schedules.append(vertex_schedule(
                        field_from(values), n_steps=n_steps, stride=stride
                    ))
        for s in schedules:
            want = levelset_complex_reference(s).to_text()
            assert complex_from_schedule(s).to_text() == want

    def test_vertex_coordinates_are_cell_centers(self):
        sf = field_from([[1.0] * 7 for _ in range(7)], cell=2.0)
        s = vertex_schedule(sf, stride=5)
        coords = vertex_coordinates(s, sf.transform)
        assert coords.dtype == np.float64
        assert coords.shape == (4, 2)  # rows 0 and 5, cols 0 and 5
        assert coords[0].tolist() == [1.0, 1.0]
        assert coords[1].tolist() == [11.0, 1.0]  # column 5
        assert coords[2].tolist() == [1.0, 11.0]  # row 5


class TestPgm:
    def test_mask_bytes(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(mask_from([[1, 0], [0, 1]]), path)
        assert path.read_bytes() == b"P5\n2 2\n255\n\xff\x00\x00\xff"

    def test_field_scales_to_full_range(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(field_from([[-1.0, 0.0, 3.0]]), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 1\n255\n")
        assert data[-3:] == bytes([0, 63, 255])

    def test_constant_field_is_black(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(field_from([[2.0, 2.0]]), path)
        assert path.read_bytes().endswith(b"\x00\x00")

    def test_rejects_other_types(self, tmp_path):
        from geoph.errors import InputError

        with pytest.raises(InputError, match="PGM"):
            write_pgm("not a raster", tmp_path / "x.pgm")
