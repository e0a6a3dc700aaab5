import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import geoph
from geoph import pipeline
from geoph.cli import main
from geoph.homology import PersistencePair
from geoph.precincts import centroids, parse_feature_collection
from geoph.synth import grid_fixture, write_fixture


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

    def test_bad_parameter_exits_two(self, tmp_path, capsys):
        code = main(
            ["synth", "--fixture", "annulus", "--out", str(tmp_path / "a.geojson"),
             "--hole-radius", "-5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

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
        code = main(
            ["build", "--method", method, "--candidate", "red",
             "--input", str(src), "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical error:" in err
        assert "Traceback" not in err

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
        # The counts, barcode.json and barcode.svg read the barcode's
        # columns; only the feature map's dimension-1 cycles become pairs.
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
        assert len(made) <= loops
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
