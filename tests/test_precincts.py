import json
import random
import warnings

import pytest

from geoph.errors import InputError
from geoph.precincts import (
    Precinct,
    PrecinctMap,
    centroid_of,
    load_precincts,
    parse_feature_collection,
    vote_margin,
    winning_precincts,
)
from geoph.geometry import normalize_ring

from helpers import by_id, point_in_rings


def feature(pid, rings, blue, red, gtype="Polygon"):
    coords = [[list(p) for p in ring] for ring in rings]
    if gtype == "MultiPolygon":
        coords = [[ring] for ring in coords]
    return {
        "type": "Feature",
        "properties": {"id": pid, "votes_blue": blue, "votes_red": red},
        "geometry": {"type": gtype, "coordinates": coords},
    }


def collection(*features):
    return {"type": "FeatureCollection", "features": list(features)}


SQ = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
SQ2 = [(2, 0), (3, 0), (3, 1), (2, 1), (2, 0)]


class TestParsing:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "two.geojson"
        path.write_text(json.dumps(collection(feature("a", [SQ], 10, 5), feature("b", [SQ2], 3, 9))))
        m = load_precincts(path)
        assert len(m) == 2
        assert by_id(m, "a").votes_blue == 10
        assert by_id(m, "b").winner() == "red"

    def test_unclosed_rings_get_closed(self):
        m = parse_feature_collection(collection(feature("a", [SQ[:-1]], 1, 0)))
        ring = by_id(m, "a").rings[0]
        assert ring[0] == ring[-1]

    def test_multipolygon_flattens_to_rings(self):
        m = parse_feature_collection(
            collection(feature("a", [SQ, SQ2], 1, 0, gtype="MultiPolygon"))
        )
        assert len(by_id(m, "a").rings) == 2

    def test_missing_votes_names_the_feature(self):
        feat = feature("p7", [SQ], 1, 0)
        del feat["properties"]["votes_red"]
        with pytest.raises(InputError, match=r"feature 0 \(p7\).*votes_red"):
            parse_feature_collection(collection(feat))

    def test_non_integer_votes_rejected(self):
        feat = feature("a", [SQ], 1, 0)
        feat["properties"]["votes_blue"] = "12"
        with pytest.raises(InputError, match="must be an integer"):
            parse_feature_collection(collection(feat))
        feat["properties"]["votes_blue"] = -1
        with pytest.raises(InputError, match="non-negative"):
            parse_feature_collection(collection(feat))

    def test_missing_id_rejected(self):
        feat = feature("a", [SQ], 1, 0)
        del feat["properties"]["id"]
        with pytest.raises(InputError, match="feature 0.*id"):
            parse_feature_collection(collection(feat))

    def test_numeric_id_coerced_to_string(self):
        m = parse_feature_collection(collection(feature(17, [SQ], 1, 0)))
        assert m.precincts[0].id == "17"

    def test_unsupported_geometry_rejected(self):
        feat = feature("a", [SQ], 1, 0)
        feat["geometry"]["type"] = "Point"
        with pytest.raises(InputError, match="Polygon"):
            parse_feature_collection(collection(feat))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinate_rejected(self, bad):
        ring = [(0, 0), (1, 0), (1, bad), (0, 1), (0, 0)]
        with pytest.raises(InputError, match=r"feature 0 \(a\).*non-finite"):
            parse_feature_collection(collection(feature("a", [ring], 1, 0)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_feature_collection(
                collection(feature("a", [SQ], 1, 0), feature("a", [SQ2], 1, 0))
            )

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_precincts(tmp_path / "missing.geojson")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.geojson"
        p.write_text("{nope")
        with pytest.raises(InputError, match="invalid JSON"):
            load_precincts(p)


def precinct(pid, blue, red, rings=(SQ,)):
    return Precinct(
        id=pid, rings=tuple(normalize_ring(r) for r in rings), votes_blue=blue, votes_red=red
    )


class TestVotes:
    def test_margin_values(self):
        assert vote_margin(precinct("a", 100, 0)) == 1.0
        assert vote_margin(precinct("a", 60, 40)) == pytest.approx(0.2)
        assert vote_margin(precinct("a", 50, 50)) == 0.0

    def test_margin_undefined_without_votes(self):
        with pytest.raises(ValueError, match="no votes"):
            vote_margin(precinct("a", 0, 0))

    def test_winner_requires_strict_majority(self):
        assert precinct("a", 2, 1).winner() == "blue"
        assert precinct("a", 1, 2).winner() == "red"
        assert precinct("a", 2, 2).winner() is None

    def test_winning_precincts_sorted_and_filtered(self):
        m = PrecinctMap(
            precincts=(
                precinct("c", 5, 1),
                precinct("a", 9, 2),
                precinct("b", 1, 5),
                precinct("t", 3, 3),
            )
        )
        assert [p.id for p in winning_precincts(m, "blue")] == ["a", "c"]
        assert [p.id for p in winning_precincts(m, "red")] == ["b"]

    def test_zero_vote_precinct_excluded_with_warning(self):
        m = PrecinctMap(precincts=(precinct("a", 1, 0), precinct("z", 0, 0)))
        with pytest.warns(UserWarning, match="'z' has no votes"):
            winners = winning_precincts(m, "blue")
        assert [p.id for p in winners] == ["a"]

    def test_zero_vote_precinct_warns_once_per_map(self):
        m = PrecinctMap(precincts=(precinct("a", 1, 0), precinct("b", 0, 2), precinct("z", 0, 0)))
        with pytest.warns(UserWarning, match="'z' has no votes"):
            assert [p.id for p in winning_precincts(m, "blue")] == ["a"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [p.id for p in winning_precincts(m, "red")] == ["b"]
            winning_precincts(m, "blue").clear()  # callers get their own list
            assert [p.id for p in winning_precincts(m, "blue")] == ["a"]
        assert m == PrecinctMap(precincts=m.precincts)
        with pytest.warns(UserWarning, match="'z' has no votes"):
            winning_precincts(PrecinctMap(precincts=m.precincts), "red")

    def test_bad_candidate_rejected(self):
        m = PrecinctMap(precincts=(precinct("a", 1, 0),))
        with pytest.raises(InputError, match="candidate"):
            winning_precincts(m, "green")


class TestCentroids:
    def test_unit_square(self):
        assert centroid_of(precinct("a", 1, 0)) == pytest.approx((0.5, 0.5))

    def test_translation_equivariance(self):
        shifted = [(x + 10, y - 3) for x, y in SQ]
        assert centroid_of(precinct("a", 1, 0, rings=(shifted,))) == pytest.approx((10.5, -2.5))

    def test_l_shape_against_monte_carlo(self):
        lshape = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 3), (0, 3), (0, 0)]
        p = precinct("L", 1, 0, rings=(lshape,))
        cx, cy = centroid_of(p)
        rng = random.Random(99)
        hits = [
            (x, y)
            for _ in range(60_000)
            for x, y in [(rng.uniform(0, 2), rng.uniform(0, 3))]
            if point_in_rings(x, y, p.rings)
        ]
        mx = sum(x for x, _ in hits) / len(hits)
        my = sum(y for _, y in hits) / len(hits)
        assert cx == pytest.approx(mx, abs=0.02)
        assert cy == pytest.approx(my, abs=0.02)

    def test_hole_shifts_centroid(self):
        outer = [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)]
        hole = list(reversed([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5), (0.5, 0.5)]))
        cx, cy = centroid_of(precinct("h", 1, 0, rings=(outer, hole)))
        assert cx > 2.0 and cy > 2.0  # mass removed from the lower-left

    def test_zero_area_falls_back_to_vertex_average(self):
        sliver = [(0, 0), (1, 0), (2, 0), (0, 0)]
        with pytest.warns(UserWarning, match="zero area"):
            cx, cy = centroid_of(precinct("s", 1, 0, rings=(sliver,)))
        assert (cx, cy) == pytest.approx((1.0, 0.0))
