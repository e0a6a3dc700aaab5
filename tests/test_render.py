import re

import pytest

from geoph.errors import InputError
from geoph.homology import Barcode, PersistencePair, barcode_of, classify_long_persistence
from geoph.precincts import parse_feature_collection
from geoph.render import (
    LONG_BAR_FILL,
    SHORT_BAR_FILL,
    margin_color,
    render_barcode_svg,
    render_feature_map,
)
from geoph.synth import dissent_fixture


def bar(dim, birth, death, long=False, gen=()):
    return PersistencePair(
        dimension=dim,
        birth=birth,
        death=death,
        generator=tuple(gen),
        birth_position=0,
        long_persistence=long,
    )


def rects(svg):
    return re.findall(r"<rect[^>]*>", svg)


def attr(tag, name):
    return re.search(rf'{name}="([^"]*)"', tag).group(1)


class TestBarcodeSvg:
    def test_empty_barcode_is_axes_only(self):
        svg = render_barcode_svg(Barcode(pairs=(), horizon=1.0))
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert rects(svg) == []
        assert svg.count("<line") == 2

    def test_one_rect_per_rendered_bar(self):
        bc = Barcode(pairs=(bar(0, 0.0, 2.0), bar(1, 1.0, 3.0), bar(1, 1.0, 1.0)), horizon=4.0)
        svg = render_barcode_svg(bc)
        assert len(rects(svg)) == 2  # the zero-length bar is dropped

    def test_fill_distinguishes_long_bars(self):
        bc = Barcode(pairs=(bar(1, 0.0, 1.0), bar(1, 0.0, 4.0, long=True)), horizon=4.0)
        svg = render_barcode_svg(bc)
        fills = [attr(r, "fill") for r in rects(svg)]
        assert SHORT_BAR_FILL[1] in fills
        assert LONG_BAR_FILL[1] in fills

    def test_widths_proportional_to_persistence(self):
        bc = Barcode(pairs=(bar(0, 0.0, 1.0), bar(0, 0.0, 3.0)), horizon=4.0)
        svg = render_barcode_svg(bc)
        w1, w2 = (float(attr(r, "width")) for r in rects(svg))
        assert w2 == pytest.approx(3 * w1, rel=0.01)

    def test_infinite_bar_reaches_horizon_with_arrowhead(self):
        bc = Barcode(pairs=(bar(0, 0.0, None),), horizon=5.0)
        svg = render_barcode_svg(bc)
        (r,) = rects(svg)
        assert float(attr(r, "x")) + float(attr(r, "width")) == pytest.approx(
            56.0 + 560.0
        )
        assert "<polygon" in svg

    def test_finite_bars_have_no_arrowhead(self):
        bc = Barcode(pairs=(bar(0, 0.0, 2.0),), horizon=5.0)
        assert "<polygon" not in render_barcode_svg(bc)

    def test_dimension_labels_present(self):
        bc = Barcode(pairs=(bar(0, 0.0, 1.0), bar(1, 0.0, 1.5)), horizon=2.0)
        svg = render_barcode_svg(bc)
        assert ">H0</text>" in svg
        assert ">H1</text>" in svg

    def test_writes_file(self, tmp_path):
        path = tmp_path / "b.svg"
        svg = render_barcode_svg(Barcode(pairs=(), horizon=1.0), path)
        assert path.read_text() == svg


class TestMarginColor:
    def test_tie_is_white(self):
        assert margin_color(None, 0.0) == "#ffffff"

    def test_full_margin_is_full_shade(self):
        assert margin_color("blue", 1.0) == "#08306b"
        assert margin_color("red", 1.0) == "#67000d"

    def test_ramp_is_linear_in_margin(self):
        mid = margin_color("blue", 0.5)
        r = int(mid[1:3], 16)
        assert r == round(255 + (8 - 255) * 0.5)

    def test_margin_clamped(self):
        assert margin_color("red", 2.0) == margin_color("red", 1.0)


def dissent_run():
    from geoph.adjacency import build_adjacency_complex, queen_adjacency
    from geoph.precincts import centroids, winning_precincts

    m = parse_feature_collection(dissent_fixture())
    fc = build_adjacency_complex(m, queen_adjacency(m), "red")
    bc = classify_long_persistence(barcode_of(fc))
    coords = dict(enumerate(centroids(winning_precincts(m, "red"))))
    return m, bc, coords


class TestFeatureMap:
    def test_one_path_per_precinct(self):
        m, bc, coords = dissent_run()
        svg = render_feature_map(m, bc, "red", coords)
        assert svg.count("<path ") == 9

    def test_loop_drawn_as_closed_polyline(self):
        m, bc, coords = dissent_run()
        svg = render_feature_map(m, bc, "red", coords)
        polylines = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len(polylines) == 1
        pts = polylines[0].split()
        # one closed walk around the ring (k edges -> k+1 points, ends meet)
        assert len(pts) >= 5
        assert pts[0] == pts[-1]
        assert len(set(pts)) == len(pts) - 1

    def test_immortal_loop_is_dark_and_thick(self):
        m, bc, coords = dissent_run()
        svg = render_feature_map(m, bc, "red", coords)
        line = re.search(r"<polyline[^>]*>", svg).group(0)
        assert attr(line, "stroke") == "#67000d"
        assert attr(line, "stroke-width") == "3.00"

    def test_tied_precinct_rendered_white(self):
        fixture = dissent_fixture()
        fixture["features"][0]["properties"]["votes_blue"] = 50
        fixture["features"][0]["properties"]["votes_red"] = 50
        m = parse_feature_collection(fixture)
        bc = Barcode(pairs=(), horizon=1.0)
        svg = render_feature_map(m, bc, "red", {})
        assert 'fill="#ffffff"' in svg

    def test_missing_coordinate_is_an_error(self):
        m, bc, _ = dissent_run()
        with pytest.raises(InputError, match="no coordinate"):
            render_feature_map(m, bc, "red", {})

    def test_non_edge_generator_rejected(self):
        m = parse_feature_collection(dissent_fixture())
        bad = Barcode(pairs=(bar(1, 0.0, None, gen=((0, 1, 2),)),), horizon=1.0)
        with pytest.raises(InputError, match="edge cycle"):
            render_feature_map(m, bad, "red", {0: (0, 0)})

    def test_unknown_candidate_rejected(self):
        m, bc, coords = dissent_run()
        with pytest.raises(InputError, match="candidate"):
            render_feature_map(m, bc, "green", coords)

    def test_writes_file(self, tmp_path):
        m, bc, coords = dissent_run()
        path = tmp_path / "map.svg"
        svg = render_feature_map(m, bc, "red", coords, path)
        assert path.read_text() == svg
