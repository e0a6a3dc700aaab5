import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoph
from geoph import pipeline
from geoph.cli import main
from geoph.homology import PersistencePair
from geoph.precincts import centroids, parse_feature_collection
from geoph.synth import dissent_fixture, grid_fixture, write_fixture

from helpers import feature_collection, jittered_lattice_map


def mapped(obj, f):
    """The map ``obj`` with ``f`` applied to every coordinate."""
    for feature in obj["features"]:
        feature["geometry"]["coordinates"] = [
            [[f(x), f(y)] for x, y in ring] for ring in feature["geometry"]["coordinates"]
        ]
    return obj


# Files no JSON decoder reads: bytes that are not UTF-8, arrays nested past
# the decoder's recursion limit, and an integer over Python's digit limit.
UNREADABLE = {
    "latin1": "{\"type\": \"FeatureCollection\", \"name\": \"caf\u00e9\"}".encode("latin-1"),
    "nested": b"[" * 200_000 + b"]" * 200_000,
    "digits": b'{"type": "FeatureCollection", "n": ' + b"9" * 5000 + b"}",
}


def point_precincts(cloud):
    """A map of zero-area precincts, each its point repeated, so that each
    centroid is the vertex average of its ring: the point, up to rounding."""
    return {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": f"p{i}", "votes_red": 60, "votes_blue": 40},
         "geometry": {"type": "Polygon", "coordinates": [[list(p)] * 5]}}
        for i, p in enumerate(cloud)
    ]}


def _nudged(x, draw):
    """x moved by up to two ulps either way."""
    for _ in range(draw(st.integers(0, 2))):
        x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
    return x


@st.composite
def hard_alpha_clouds(draw):
    """A cocircular lattice, points a few ulps off a line (and up to two
    further off it), a thin cloud near 1e-46, or a cloud spanning up to
    1e300, in a drawn order."""
    kind = draw(st.sampled_from(["lattice", "line", "thin", "huge"]))
    if kind == "lattice":
        k = draw(st.integers(2, 6))
        step = draw(st.sampled_from([1.0, 0.1, 0.3, 3.7]))
        pts = [(x * step, y * step) for x in range(k) for y in range(k)]
    elif kind == "line":
        slope = draw(st.sampled_from([0.0, 0.1, 1.0 / 3.0, -0.7, 2.5]))
        xs = draw(st.lists(st.integers(-20, 20), min_size=3, max_size=12, unique=True))
        pts = [(float(x), _nudged(slope * x + 0.3, draw)) for x in xs]
        for x in draw(st.lists(st.integers(-20, 20), max_size=2, unique=True)):
            off = draw(st.sampled_from([-1.0, 1e-9, 1e-2, 0.5]))
            pts.append((x + 0.5, slope * (x + 0.5) + 0.3 + off))
    elif kind == "thin":  # multiples of 1.25e-47, as the thin triangle's cloud
        cells = st.tuples(st.integers(-64, 64), st.integers(-64, 64))
        pts = [
            (x * 1.25e-47, y * 1.25e-47)
            for x, y in draw(st.lists(cells, min_size=3, max_size=10, unique=True))
        ]
    else:
        coords = st.tuples(*[st.floats(-1e300, 1e300)] * 2)
        pts = draw(st.lists(coords, min_size=3, max_size=10, unique=True))
    return draw(st.permutations(pts))


def synth(tmp_path, fixture, name, *extra):
    path = tmp_path / name
    assert main(["synth", "--fixture", fixture, "--out", str(path), *extra]) == 0
    return path


class TestSynth:
    def test_writes_valid_geojson(self, tmp_path, capsys):
        path = synth(tmp_path, "dissent", "d.geojson")
        obj = json.loads(path.read_text())
        assert obj["type"] == "FeatureCollection"
        assert len(obj["features"]) == 9
        assert "wrote" in capsys.readouterr().out

    def test_grid_size_flag(self, tmp_path):
        path = synth(tmp_path, "grid", "g.geojson", "--n", "2")
        assert len(json.loads(path.read_text())["features"]) == 4

    @pytest.mark.parametrize(
        "fixture, flag, value",
        [("annulus", "--hole-radius", "-5"), ("blobs", "--gap", "inf"), ("blobs", "--gap", "nan")],
        ids=["annulus-negative-hole", "blobs-gap-inf", "blobs-gap-nan"],
    )
    def test_bad_parameter_exits_two(self, tmp_path, capsys, fixture, flag, value):
        out = tmp_path / "a.geojson"
        code = main(["synth", "--fixture", fixture, "--out", str(out), flag, value])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_directory_exits_two(self, tmp_path, capsys):
        code = main(["synth", "--fixture", "grid", "--out", str(tmp_path / "nodir" / "g.geojson")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestBuild:
    def test_adjacency_build_succeeds(self, tmp_path, capsys):
        src = synth(tmp_path, "dissent", "d.geojson")
        out = tmp_path / "out"
        code = main(
            ["build", "--method", "adjacency", "--candidate", "red",
             "--input", str(src), "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "adjacency complex for red" in stdout
        assert (out / "barcode.json").exists()
        assert (out / "adjacency.txt").exists()

    def test_adjacency_build_with_tiny_step(self, tmp_path):
        # About 1e10 thresholds: the margin levels must not be found by a scan.
        src = synth(tmp_path, "dissent", "d.geojson")
        out = tmp_path / "out"
        code = main(
            ["build", "--method", "adjacency", "--candidate", "red", "--step", "1e-10",
             "--input", str(src), "--out", str(out)]
        )
        assert code == 0
        levels = {bar["birth"] for bar in json.loads((out / "barcode.json").read_text())}
        assert levels == {0.1, 0.5}

    def test_levelset_build_writes_rasters(self, tmp_path):
        src = synth(tmp_path, "blobs", "b.geojson", "--gap", "20")
        out = tmp_path / "out"
        code = main(
            ["build", "--method", "levelset", "--candidate", "red",
             "--input", str(src), "--out", str(out), "--stride", "10"]
        )
        assert code == 0
        assert (out / "mask.pgm").read_bytes().startswith(b"P5\n")
        assert (out / "schedule.txt").exists()

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = main(
            ["build", "--method", "vr", "--candidate", "red",
             "--input", str(tmp_path / "nope.geojson"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.geojson"
        bad.write_text('{"type": "FeatureCollection"}')
        code = main(
            ["build", "--method", "vr", "--candidate", "red",
             "--input", str(bad), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "features" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_unreadable_input_exits_two(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.geojson"
        bad.write_bytes(UNREADABLE[kind])
        out = tmp_path / "o"
        code = main(
            ["build", "--method", "vr", "--candidate", "red",
             "--input", str(bad), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and str(bad) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_integer_coordinate_past_the_float_range_exits_two(self, tmp_path, capsys):
        obj = grid_fixture(2)
        obj["features"][1]["geometry"]["coordinates"][0][2][0] = int("9" * 401)
        bad = tmp_path / "big.geojson"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "o"
        code = main(
            ["build", "--method", "adjacency", "--candidate", "red",
             "--input", str(bad), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "feature 1" in err
        assert "bad ring coordinates (int too large to convert to float)" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("gtype", ["Polygon", "MultiPolygon"])
    def test_feature_with_no_rings_exits_two(self, tmp_path, capsys, gtype):
        bad = tmp_path / "e.geojson"
        bad.write_text(json.dumps(feature_collection([[]], [(1, 2)], ids=["e"], gtype=gtype)))
        out = tmp_path / "o"
        code = main(
            ["build", "--method", "adjacency", "--candidate", "red",
             "--input", str(bad), "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: feature 0 (e): geometry has no rings\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["vr", "alpha", "adjacency", "levelset"])
    def test_empty_collection_exits_two_before_writing(self, tmp_path, capsys, method):
        bad = tmp_path / "empty.geojson"
        bad.write_text('{"type": "FeatureCollection", "features": []}')
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["build", "--method", method, "--candidate", "red",
                 "--input", str(bad), "--out", str(out)]
            )
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {bad}: no features\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, flag, value",
        [
            ("levelset", "--stride", "0"),
            ("adjacency", "--step", "0"),
            ("adjacency", "--step", "nan"),
            ("adjacency", "--step", "1e-320"),
            ("vr", "--eps-max", "-1"),
            ("vr", "--eps-max", "nan"),
            ("levelset", "--velocity", "0"),
            ("levelset", "--dt", "-1"),
            ("levelset", "--steps", "-3"),
            # each factor is fine; their product underflows to 0, or the
            # step count across the grid overflows
            ("levelset", "--velocity=1e-200", "--dt=1e-200"),
            ("levelset", "--velocity=1e-300", "--dt=1e-10"),
            ("adjacency", "--tol", "nan"),
        ],
    )
    def test_bad_parameter_exits_two(self, tmp_path, capsys, method, flag, value):
        src = synth(tmp_path, "grid", "g.geojson", "--n", "3")
        capsys.readouterr()
        out = tmp_path / "o"
        code = main(
            ["build", "--method", method, "--candidate", "red",
             "--input", str(src), "--out", str(out), flag, value]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_degenerate_alpha_exits_three(self, tmp_path, capsys):
        # a 1 x 3 strip of precincts has collinear centroids
        strip = {
            "type": "FeatureCollection",
            "features": grid_fixture(3)["features"][:3],
        }
        src = tmp_path / "strip.geojson"
        write_fixture(strip, src)
        code = main(
            ["build", "--method", "alpha", "--candidate", "red",
             "--input", str(src), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "numerical error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, side, red_cells",
        [
            # two winners: the lone edge's squared length overflows
            ("alpha", 1e300, (0, 8)),
            ("vr", 1e300, range(9)),
            # the triangulation's float orientation tests would overflow
            ("alpha", 1e150, range(9)),
        ],
        ids=["alpha-1e300-two-winners", "vr-1e300", "alpha-1e150"],
    )
    def test_huge_coordinates_exit_three(self, tmp_path, capsys, method, side, red_cells):
        obj = grid_fixture(3)
        for i, feature in enumerate(obj["features"]):
            feature["geometry"]["coordinates"] = [
                [[x * side, y * side] for x, y in ring]
                for ring in feature["geometry"]["coordinates"]
            ]
            props = feature["properties"]
            props["votes_blue"], props["votes_red"] = (10, 90) if i in red_cells else (90, 10)
        src = tmp_path / "huge.geojson"
        write_fixture(obj, src)
        # numpy overflows to inf with a RuntimeWarning where Python's ** raises
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["build", "--method", method, "--candidate", "red",
                 "--input", str(src), "--out", str(tmp_path / "o")]
            )
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical error:" in err
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e-70, 1e-200, 1e-320])
    def test_alpha_on_extreme_coordinates_names_the_cause(self, tmp_path, capsys, scale):
        # At 1e-70 the centroids are inexact and the hull holds a sliver.
        obj = grid_fixture(3)
        for feature in obj["features"]:
            feature["geometry"]["coordinates"] = [
                [[x * scale, y * scale] for x, y in ring]
                for ring in feature["geometry"]["coordinates"]
            ]
        src = tmp_path / "scaled.geojson"
        write_fixture(obj, src)
        code = main(
            ["build", "--method", "alpha", "--candidate", "red",
             "--input", str(src), "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert code in (0, 3)
        assert "Traceback" not in err
        if code == 3:
            for wrong in ("collinear", "degenerate cavity", "failed verification"):
                assert wrong not in err

    def test_alpha_on_a_thin_triangle_exits_zero(self, tmp_path, capsys):
        # Triangle (1, 2, 3) of this cloud is Delaunay, but its float
        # circumcircle denominator cancels to 0.  Each precinct is its point
        # repeated, so its area is 0 and its centroid, the average of its
        # ring points, is the point itself.
        cloud = [(0.0, 0.0), (-2.375e-46, 3.0000000000000003e-46)]
        cloud += [(-6.1250000000000005e-46, 2.25e-46), (-8e-46, 1.875e-46)]
        obj = point_precincts(cloud)
        with pytest.warns(UserWarning, match="zero area"):
            assert centroids(parse_feature_collection(obj).precincts) == cloud
        src = tmp_path / "thin.geojson"
        write_fixture(obj, src)
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="zero area"):
            code = main(
                ["build", "--method", "alpha", "--candidate", "red",
                 "--input", str(src), "--out", str(out)]
            )
        err = capsys.readouterr().err
        assert code == 0, err
        assert "Traceback" not in err
        assert "\n1,2,3\t" in (out / "complex.txt").read_text()

    def test_alpha_on_a_thin_hull_names_the_cause(self, tmp_path, capsys):
        # The points (x, 0.1 x + 0.3), x = 0..4, are not collinear: their
        # exact orientations are not all 0.  Yet their hull is too thin for
        # the finite enclosing triangle, so no triangle avoids its vertices;
        # the error says so rather than calling the points collinear.
        cloud = [(float(x), 0.1 * x + 0.3) for x in range(5)]
        obj = point_precincts(cloud)
        with pytest.warns(UserWarning, match="zero area"):
            assert centroids(parse_feature_collection(obj).precincts) == cloud
        src = tmp_path / "thin-hull.geojson"
        write_fixture(obj, src)
        with pytest.warns(UserWarning, match="zero area"):
            code = main(
                ["build", "--method", "alpha", "--candidate", "red",
                 "--input", str(src), "--out", str(tmp_path / "o")]
            )
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical error:" in err
        assert "convex hull is too thin for the enclosing triangle" in err
        assert "collinear" not in err
        assert "Traceback" not in err

    @given(hard_alpha_clouds())
    @settings(max_examples=250, deadline=None)
    def test_alpha_on_hard_clouds_exits_cleanly(self, cloud):
        # Exit 0, 2 or 3 with no exception out of main and no traceback
        # printed, and a barcode.json that parses after exit 0.
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "cloud.geojson", Path(tmp) / "o"
            write_fixture(point_precincts(cloud), src)
            err = io.StringIO()
            with (
                warnings.catch_warnings(),
                contextlib.redirect_stderr(err),
                contextlib.redirect_stdout(io.StringIO()),
            ):
                warnings.simplefilter("ignore")  # zero area, duplicates
                code = main(
                    ["build", "--method", "alpha", "--candidate", "red",
                     "--input", str(src), "--out", str(out)]
                )
            assert code in (0, 2, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code == 0:
                json.loads((out / "barcode.json").read_text())

    @pytest.mark.parametrize(
        "scale, vr_code, alpha_code",
        # At 1e-200 and 1e200 alpha's enclosing triangle, and at 1e200 the
        # VR distances, leave the float range: those builds exit 3 for that
        # reason, whatever the centroids.
        [(1e-130, 0, 0), (1e-200, 0, 3), (1e200, 3, 3)],
    )
    def test_centroids_keep_their_scale(self, tmp_path, capsys, scale, vr_code, alpha_code):
        obj = grid_fixture(3)
        for feature in obj["features"]:
            feature["geometry"]["coordinates"] = [
                [[x * scale, y * scale] for x, y in ring]
                for ring in feature["geometry"]["coordinates"]
            ]
        unit = centroids(parse_feature_collection(grid_fixture(3)).precincts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no zero-area fallback
            got = centroids(parse_feature_collection(obj).precincts)
        assert got == [pytest.approx((x * scale, y * scale), rel=1e-12, abs=0.0) for x, y in unit]
        src = tmp_path / "scaled.geojson"
        write_fixture(obj, src)
        for method, expected in (("vr", vr_code), ("alpha", alpha_code)):
            code = main(
                ["build", "--method", method, "--candidate", "red",
                 "--input", str(src), "--out", str(tmp_path / method)]
            )
            err = capsys.readouterr().err
            assert code == expected, err
            assert "Traceback" not in err
            assert "duplicate points" not in err

    @pytest.mark.parametrize(
        "obj",
        [
            mapped(dissent_fixture(), lambda c: (c - 1.5) / 1.5 * 1e308),
            mapped(dissent_fixture(), lambda c: c * 5e-324 * 40 / 3),
            mapped(jittered_lattice_map(6, 0.3, 1), lambda c: c * 1e160),
        ],
        # onto [-1e308, 1e308] the extent overflows; at 40 * 5e-324 the cell
        # underflows to 0; at 1e160 a scanline crossing overflows
        ids=["extent-overflows", "cell-underflows", "crossing-overflows"],
    )
    def test_levelset_on_extreme_extents_exits_three(self, tmp_path, capsys, obj):
        src = tmp_path / "extreme.geojson"
        write_fixture(obj, src)
        argv = ["build", "--candidate", "red", "--input", str(src)]
        code = main(argv + ["--method", "levelset", "--out", str(tmp_path / "levelset")])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical error:" in err
        assert "Traceback" not in err
        assert main(argv + ["--method", "adjacency", "--out", str(tmp_path / "adjacency")]) == 0

    def test_feature_map_of_a_span_that_overflows_is_finite(self, tmp_path):
        src = tmp_path / "wide.geojson"
        write_fixture(mapped(dissent_fixture(), lambda c: (c - 1.5) / 1.5 * 1e308), src)
        argv = ["build", "--method", "adjacency", "--candidate", "red", "--input", str(src)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        svg = (tmp_path / "o" / "feature_map.svg").read_text()
        values = re.findall(r'(?:width|height|viewBox|points|d)="([^"]*)"', svg)
        numbers = [float(t) for v in values for t in re.split(r"[\s,MLZ]+", v) if t]
        assert "<polyline" in svg
        assert all(map(math.isfinite, numbers))

    @pytest.mark.parametrize("method", ["vr", "alpha", "adjacency", "levelset"])
    def test_zero_vote_precinct_warns_once(self, tmp_path, method):
        obj = grid_fixture(4)
        props = obj["features"][5]["properties"]
        props["votes_blue"] = props["votes_red"] = 0
        src = tmp_path / "zero.geojson"
        write_fixture(obj, src)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["build", "--method", method, "--candidate", "red",
                 "--input", str(src), "--out", str(tmp_path / "o")]
            )
        assert code == 0
        zero_vote = [w for w in caught if "'r1c1' has no votes" in str(w.message)]
        assert len(zero_vote) == 1

    @pytest.mark.parametrize("builder", ["adjacency", "levelset"])
    def test_builder_on_a_fresh_map_warns(self, builder):
        from geoph.adjacency import build_adjacency_complex, queen_adjacency
        from geoph.levelset import rasterize_mask

        obj = grid_fixture(4)
        props = obj["features"][5]["properties"]
        props["votes_blue"] = props["votes_red"] = 0
        m = parse_feature_collection(obj)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if builder == "adjacency":
                build_adjacency_complex(m, queen_adjacency(m), "red")
            else:
                rasterize_mask(m, "red")
        zero_vote = [w for w in caught if "'r1c1' has no votes" in str(w.message)]
        assert len(zero_vote) == 1

    @pytest.mark.parametrize(
        "method, code, message",
        [
            ("vr", 0, "coincident points produce zero-length edges"),
            ("alpha", 3, None),
        ],
    )
    def test_duplicate_centroids_warn_once(self, tmp_path, capsys, method, code, message):
        obj = grid_fixture(1)
        twin = json.loads(json.dumps(obj["features"][0]))
        twin["properties"]["id"] = "twin"
        obj["features"].append(twin)
        src = tmp_path / "twins.geojson"
        write_fixture(obj, src)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = main(
                ["build", "--method", method, "--candidate", "red",
                 "--input", str(src), "--out", str(tmp_path / "o")]
            )
        assert got == code
        assert [str(w.message) for w in caught] == ([message] if message else [])
        if code == 3:
            assert "duplicate points cannot be triangulated" in capsys.readouterr().err

    def test_bare_build_records_the_config_defaults(self, tmp_path):
        from dataclasses import asdict

        src = synth(tmp_path, "dissent", "d.geojson")
        out = tmp_path / "o"
        argv = ["build", "--method", "levelset", "--candidate", "red"]
        assert main([*argv, "--input", str(src), "--out", str(out)]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        defaults = asdict(pipeline.RunConfig(method="levelset", candidate="red"))
        del defaults["method"], defaults["candidate"]
        assert config == defaults

    def test_options_reach_the_config(self, tmp_path):
        src = synth(tmp_path, "dissent", "d.geojson")
        out = tmp_path / "o"
        argv = ["build", "--method", "vr", "--candidate", "red", "--eps-max", "2.5",
                "--step", "0.1", "--stride", "3", "--velocity", "2", "--dt", "0.5",
                "--steps", "7", "--tol", "0.001", "--no-auto-alpha"]
        assert main([*argv, "--input", str(src), "--out", str(out)]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config == {
            "eps_max": 2.5, "step": 0.1, "stride": 3, "velocity": 2.0, "dt": 0.5,
            "n_steps": 7, "tol": 0.001, "auto_alpha": False,
        }

    def test_deterministic_across_invocations(self, tmp_path):
        src = synth(tmp_path, "dissent", "d.geojson")
        for d in ("x", "y"):
            assert (
                main(
                    ["build", "--method", "adjacency", "--candidate", "red",
                     "--input", str(src), "--out", str(tmp_path / d)]
                )
                == 0
            )
        for name in ("barcode.json", "barcode.svg", "feature_map.svg", "complex.txt"):
            assert (tmp_path / "x" / name).read_bytes() == (
                tmp_path / "y" / name
            ).read_bytes()

    def test_out_is_a_file_exits_two(self, tmp_path, capsys):
        src = synth(tmp_path, "dissent", "d.geojson")
        capsys.readouterr()
        code = main(
            ["build", "--method", "adjacency", "--candidate", "red",
             "--input", str(src), "--out", str(src)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


    def test_build_makes_pairs_only_for_the_loops_it_draws(self, tmp_path, capsys, monkeypatch):
        # The counts, barcode.json, barcode.svg and the feature map's
        # dimension-1 cycles all read the barcode's columns: no bar becomes
        # a pair.
        made = []
        init = PersistencePair.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PersistencePair, "__init__", counted)
        src = synth(tmp_path, "grid", "g.geojson", "--n", "6")
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["build", "--method", "vr", "--candidate", "red"]
        assert main(argv + ["--input", str(src), "--out", str(out)]) == 0
        records = json.loads((out / "barcode.json").read_text())
        loops = sum(r["dimension"] == 1 for r in records)
        assert len(records) > 1000
        assert loops and made == []
        long = sum(r["long_persistence"] for r in records)
        summary = f"bars: {len(records)} rendered, {long} long-persistence\n"
        assert summary in capsys.readouterr().out
        assert json.loads((out / "run.json").read_text())["bars"] == len(records)


class TestBench:
    def test_bench_directory(self, tmp_path, capsys):
        (tmp_path / "maps").mkdir()
        synth(tmp_path / "maps", "grid", "g.geojson", "--n", "2")
        out = tmp_path / "bench.csv"
        code = main(["bench", "--input-dir", str(tmp_path / "maps"), "--out", str(out)])
        assert code == 0
        assert out.exists() and out.with_suffix(".txt").exists()
        assert "runs ->" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_unreadable_file_drops_only_its_cells(self, tmp_path, capsys, kind):
        (tmp_path / "maps").mkdir()
        synth(tmp_path / "maps", "grid", "g.geojson", "--n", "2")
        (tmp_path / "maps" / "bad.geojson").write_bytes(UNREADABLE[kind])
        out = tmp_path / "bench.csv"
        with pytest.warns(UserWarning, match="bad.geojson") as caught:
            code = main(["bench", "--input-dir", str(tmp_path / "maps"), "--out", str(out)])
        assert code == 0
        assert len(caught) == 8  # every method and candidate on the bad file
        inputs = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert inputs == ["g"] * 8
        assert "8 runs ->" in capsys.readouterr().out

    def test_file_name_that_is_not_utf8_keeps_its_bytes(self, tmp_path, capsys):
        (tmp_path / "maps").mkdir()
        write_fixture(grid_fixture(2), tmp_path / "maps" / os.fsdecode(b"\xffmap.geojson"))
        out = tmp_path / "bench.csv"
        code = main(["bench", "--input-dir", str(tmp_path / "maps"), "--out", str(out)])
        assert code == 0
        inputs = [row.split(b",")[0] for row in out.read_bytes().splitlines()[1:]]
        assert inputs == [b"\xffmap"] * 8  # one row per method and candidate
        assert b"\xffmap" in out.with_suffix(".txt").read_bytes()
        assert "8 runs ->" in capsys.readouterr().out

    def test_a_cell_whose_build_raises_is_dropped(self, tmp_path, capsys):
        (tmp_path / "maps").mkdir()
        squares = [[[(x, 0.0), (x + 1.0, 0.0), (x + 1.0, 1.0), (x, 1.0)]] for x in (0.0, 2.0, 4.0)]
        collinear = feature_collection(squares, [(0, 10)] * 3)  # three red centroids in a line
        (tmp_path / "maps" / "line.geojson").write_text(json.dumps(collinear))
        out = tmp_path / "bench.csv"
        with pytest.warns(UserWarning) as caught:
            code = main(["bench", "--input-dir", str(tmp_path / "maps"), "--out", str(out)])
        assert code == 0
        warned = [str(w.message) for w in caught]
        assert warned == ["line.geojson alpha/red: all points are collinear"]
        cells = [tuple(row.split(",")[:3]) for row in out.read_text().splitlines()[1:]]
        expected = [("line", c, m) for m in pipeline.METHODS for c in ("blue", "red")]
        assert sorted(cells) == sorted(set(expected) - {("line", "red", "alpha")})
        assert "7 runs ->" in capsys.readouterr().out

    def test_each_map_is_loaded_once(self, tmp_path, monkeypatch):
        (tmp_path / "maps").mkdir()
        for name in ("g.geojson", "h.geojson"):
            synth(tmp_path / "maps", "grid", name, "--n", "2")
        loaded = []

        def load(path):
            loaded.append(Path(path).name)
            return parse_feature_collection(json.loads(Path(path).read_text()))

        monkeypatch.setattr(pipeline, "load_precincts", load)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = pipeline.bench_directory(tmp_path / "maps", tmp_path / "b.csv")
        assert loaded == ["g.geojson", "h.geojson"]
        assert [r.input_name for r in rows] == ["g"] * 8 + ["h"] * 8

    def test_vr_past_the_budget_is_dropped_before_it_builds(self, tmp_path, monkeypatch):
        (tmp_path / "maps").mkdir()
        (tmp_path / "maps" / "j.geojson").write_text(json.dumps(jittered_lattice_map(4, 0.2, 0)))
        runs = []
        run = pipeline.run_pipeline

        def counted(cfg, m, input_name):
            runs.append((cfg.method, cfg.candidate))
            return run(cfg, m, input_name)

        monkeypatch.setattr(pipeline, "run_pipeline", counted)
        monkeypatch.setattr(pipeline, "VR_SWITCH_THRESHOLD", 5)  # 8 winners of each side
        with pytest.warns(UserWarning) as caught:
            rows = pipeline.bench_directory(tmp_path / "maps", tmp_path / "b.csv")
        assert len(runs) == 6 and ("vr", "blue") not in runs and ("vr", "red") not in runs
        cells = [(r.input_name, r.method, r.candidate) for r in rows]
        methods = ("adjacency", "alpha", "levelset")
        assert cells == [("j", m, c) for m in methods for c in ("blue", "red")]
        lines = (tmp_path / "b.csv").read_text().splitlines()[1:]
        assert len(lines) == len(set(tuple(line.split(",")[:3]) for line in lines)) == 6
        budget = "8 winners exceed the Vietoris-Rips budget of 5"
        assert [str(w.message) for w in caught] == [
            f"j.geojson vr/{c}: {budget}" for c in ("blue", "red")
        ]

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(
            ["bench", "--input-dir", str(tmp_path / "empty"), "--out", str(tmp_path / "b.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_directory_exits_two(self, tmp_path, capsys):
        code = main(
            ["bench", "--input-dir", str(tmp_path / "nodir"), "--out", str(tmp_path / "b.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_output_directory_exits_two_before_any_build(
        self, tmp_path, capsys, monkeypatch
    ):
        (tmp_path / "maps").mkdir()
        synth(tmp_path / "maps", "grid", "g.geojson", "--n", "2")

        def refuse(*args):
            raise AssertionError("built a map before checking --out")

        monkeypatch.setattr(pipeline, "_bench_one", refuse)
        out = tmp_path / "nodir" / "b.csv"
        code = main(["bench", "--input-dir", str(tmp_path / "maps"), "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # Run the imported package, not whatever the child's sys.path finds.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(geoph.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "geoph.cli", "synth", "--fixture", "grid",
             "--out", str(tmp_path / "g.geojson"), "--n", "2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "g.geojson").exists()

    def test_console_script(self, tmp_path):
        # Check the `geoph` command this checkout declares, not whatever an
        # earlier install left on PATH: write the launcher an installer would
        # write for the pyproject.toml entry and run the imported package.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["geoph"]
        module, _, attr = entry.partition(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        launcher = bindir / "geoph"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
        env["PYTHONPATH"] = str(Path(geoph.__file__).resolve().parents[1])

        def run(*args):
            return subprocess.run(
                ["geoph", *args], capture_output=True, text=True, env=env
            )

        proc = run("synth", "--fixture", "blobs", "--out", str(tmp_path / "b.geojson"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        ref = synth(tmp_path, "blobs", "ref.geojson")
        assert (tmp_path / "b.geojson").read_bytes() == ref.read_bytes()

        proc = run("synth", "--fixture", "annulus", "--out", str(tmp_path / "a.geojson"),
                   "--hole-radius", "-5")
        assert proc.returncode == 2
        assert "error:" in proc.stderr
