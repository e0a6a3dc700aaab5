import json

import pytest

from geoph import pipeline
from geoph.errors import InputError
from geoph.pipeline import (
    BenchmarkRow,
    RunConfig,
    bench_directory,
    benchmark_report,
    run_pipeline,
    write_outputs,
)
from geoph.precincts import parse_feature_collection
from geoph.synth import (
    annulus_fixture,
    blobs_fixture,
    dissent_fixture,
    grid_fixture,
    write_fixture,
)


def grid_map(n=3):
    return parse_feature_collection(grid_fixture(n))


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(InputError, match="method"):
            RunConfig(method="czech", candidate="red")

    def test_unknown_candidate_rejected(self):
        with pytest.raises(InputError, match="candidate"):
            RunConfig(method="vr", candidate="teal")


class TestRun:
    def test_vr_on_grid(self):
        res = run_pipeline(RunConfig(method="vr", candidate="red"), grid_map())
        assert res.method_used == "vr"
        assert res.row.precincts == 9
        assert res.row.winners == 9
        assert res.complex.counts()[0] == 9
        assert res.vertex_coords[0] == pytest.approx((0.5, 0.5))

    def test_alpha_on_grid(self):
        res = run_pipeline(RunConfig(method="alpha", candidate="red"), grid_map())
        assert res.method_used == "alpha"
        # Delaunay of 9 grid centroids: 8 triangles
        assert res.complex.counts()[2] == 8

    def test_adjacency_on_dissent(self):
        m = parse_feature_collection(dissent_fixture())
        res = run_pipeline(RunConfig(method="adjacency", candidate="red"), m)
        assert res.graph is not None
        assert res.row.winners == 8
        immortal1 = [
            p for p in res.barcode.pairs if p.dimension == 1 and p.death is None
        ]
        assert len(immortal1) == 1
        assert immortal1[0].long_persistence

    def test_levelset_on_blobs(self):
        m = parse_feature_collection(blobs_fixture())
        cfg = RunConfig(method="levelset", candidate="red", max_side=40, stride=2)
        res = run_pipeline(cfg, m)
        assert res.mask is not None and res.field_ is not None
        assert res.schedule is not None
        assert res.schedule.stride == 2
        assert res.row.simplices == len(res.complex)

    def test_empty_winner_set_short_circuits(self):
        cfg = RunConfig(method="vr", candidate="blue")
        with pytest.warns(UserWarning, match="no blue-winning"):
            res = run_pipeline(cfg, grid_map())
        assert len(res.complex) == 0
        assert res.barcode.pairs == ()
        assert res.row.winners == 0

    def test_vr_auto_switches_to_alpha_over_budget(self):
        cfg = RunConfig(method="vr", candidate="red", vr_warning_threshold=5)
        with pytest.warns(UserWarning, match="switching to the alpha"):
            res = run_pipeline(cfg, grid_map(3))
        assert res.config.method == "vr"
        assert res.method_used == "alpha"
        assert res.row.method == "alpha"

    def test_vr_warns_but_stays_when_auto_disabled(self):
        cfg = RunConfig(
            method="vr",
            candidate="red",
            vr_warning_threshold=5,
            auto_alpha=False,
            eps_max=1.5,
        )
        with pytest.warns(UserWarning, match="large"):
            res = run_pipeline(cfg, grid_map(3))
        assert res.method_used == "vr"

    def test_timings_recorded(self):
        res = run_pipeline(RunConfig(method="adjacency", candidate="red"), grid_map())
        assert res.row.build_seconds >= 0.0
        assert res.row.ph_seconds >= 0.0


class TestOutputs:
    def expected(self, method):
        base = {"barcode.json", "barcode.svg", "feature_map.svg", "complex.txt", "run.json"}
        if method == "adjacency":
            base.add("adjacency.txt")
        if method == "levelset":
            base |= {"schedule.txt", "mask.pgm", "field.pgm"}
        return base

    @pytest.mark.parametrize("method", ["vr", "alpha", "adjacency", "levelset"])
    def test_artifact_set_per_method(self, method, tmp_path):
        m = parse_feature_collection(dissent_fixture())
        cfg = RunConfig(method=method, candidate="red", max_side=30, stride=2)
        res = run_pipeline(cfg, m)
        written = write_outputs(res, m, tmp_path / "out")
        assert {p.name for p in written} == self.expected(method)
        for p in written:
            assert p.exists() and p.stat().st_size > 0

    def test_run_json_contents(self, tmp_path):
        m = parse_feature_collection(dissent_fixture())
        cfg = RunConfig(method="adjacency", candidate="red")
        res = run_pipeline(cfg, m)
        write_outputs(res, m, tmp_path)
        info = json.loads((tmp_path / "run.json").read_text())
        assert info["method_requested"] == "adjacency"
        assert info["method_used"] == "adjacency"
        assert info["candidate"] == "red"
        assert (info["vertices"], info["edges"], info["triangles"]) == res.complex.counts()
        assert info["config"]["step"] == 0.05

    def test_deterministic_artifacts(self, tmp_path):
        m = parse_feature_collection(annulus_fixture(hole_radius=20.0))
        cfg = RunConfig(method="levelset", candidate="red", max_side=40, stride=2)
        for d in ("a", "b"):
            write_outputs(run_pipeline(cfg, m), m, tmp_path / d)
        for name in ("barcode.json", "barcode.svg", "feature_map.svg", "complex.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestBench:
    def make_inputs(self, d):
        write_fixture(grid_fixture(2), d / "grid2.geojson")
        write_fixture(blobs_fixture(side=10.0, gap=5.0), d / "blobs.geojson")

    def test_runs_every_combination(self, tmp_path):
        self.make_inputs(tmp_path)
        out = tmp_path / "bench.csv"
        rows = bench_directory(tmp_path, out)
        # blue never wins either fixture: those runs produce empty complexes,
        # which still count as rows
        assert {(r.input_name, r.method, r.candidate) for r in rows} == {
            (name, m, c)
            for name in ("grid2", "blobs")
            for m in ("vr", "alpha", "adjacency", "levelset")
            for c in ("blue", "red")
        }
        assert out.exists()
        assert out.with_suffix(".txt").exists()

    def test_rows_sorted(self, tmp_path):
        self.make_inputs(tmp_path)
        rows = bench_directory(tmp_path, tmp_path / "b.csv")
        keys = [(r.input_name, r.method, r.candidate) for r in rows]
        assert keys == sorted(keys)

    def test_memory_error_drops_only_its_cells(self, tmp_path, monkeypatch):
        self.make_inputs(tmp_path)
        real = pipeline.run_pipeline

        def run_or_exhaust(cfg, m, input_name="map"):
            if input_name == "grid2":
                raise MemoryError
            return real(cfg, m, input_name)

        monkeypatch.setattr(pipeline, "run_pipeline", run_or_exhaust)
        out = tmp_path / "bench.csv"
        with pytest.warns(UserWarning, match="grid2.geojson .*: out of memory"):
            rows = bench_directory(tmp_path, out)
        assert {r.input_name for r in rows} == {"blobs"}
        assert len(rows) == 8
        assert out.read_text().count("\nblobs,") == 8

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(InputError, match="no .geojson"):
            bench_directory(tmp_path, tmp_path / "x.csv")


class TestReport:
    def rows(self):
        return [
            BenchmarkRow("m1", "red", "vr", 4, 4, 15, 0.5, 0.25),
            BenchmarkRow("m1", "red", "alpha", 4, 4, 9, 0.125, 0.0625),
        ]

    def test_csv_shape(self, tmp_path):
        csv_path, txt_path = benchmark_report(self.rows(), tmp_path / "r.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("input,candidate,method")
        assert lines[1] == "m1,red,alpha,4,4,9,0.1250,0.0625"
        assert lines[2] == "m1,red,vr,4,4,15,0.5000,0.2500"

    def test_text_table_marks_missing_cells(self, tmp_path):
        _, txt_path = benchmark_report(self.rows(), tmp_path / "r.csv")
        text = txt_path.read_text()
        assert "Simplex counts" in text
        assert "Seconds (build/homology)" in text
        assert "--" in text  # blue columns and the other methods never ran
        assert "0.50/0.25" in text

    def test_columns_align(self, tmp_path):
        _, txt_path = benchmark_report(self.rows(), tmp_path / "r.csv")
        block = txt_path.read_text().split("\n\n")[1].splitlines()
        head, rule = block[0], block[1]
        assert len(head) == len(rule)
        assert set(rule) <= {"-", " "}
