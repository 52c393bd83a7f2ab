"""SVG line plots: well-formed output, one polyline per series, escaping."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ueslab.svgplot import line_plot

SVG = "{http://www.w3.org/2000/svg}"


def _polylines(svg):
    return ET.fromstring(svg).findall(f"{SVG}polyline")


def test_one_polyline_per_series_without_nonfinite_samples():
    x = np.linspace(0.0, 1.0, 5)
    y = np.array([0.0, np.nan, 1.0, np.inf, 2.0])
    lines = _polylines(line_plot([(x, y, "a"), (x, -x, "b")], title="t", xlabel="x"))
    assert len(lines) == 2
    assert len(lines[0].get("points").split()) == 3
    assert len(lines[1].get("points").split()) == 5


def test_text_is_escaped():
    svg = line_plot([([0.0, 1.0], [0.0, 1.0], "a<b & c")], title="J & <theta>", xlabel="t < 1 & up")
    texts = [el.text for el in ET.fromstring(svg).iter(f"{SVG}text")]
    for text in ("a<b & c", "J & <theta>", "t < 1 & up"):
        assert text in texts
    assert "J &amp; &lt;theta&gt;" in svg


def test_constant_series_renders():
    lines = _polylines(line_plot([([0.0, 1.0, 2.0], [3.0, 3.0, 3.0], "flat")]))
    assert len(lines) == 1
    ys = {point.split(",")[1] for point in lines[0].get("points").split()}
    assert len(ys) == 1


@pytest.mark.parametrize(
    "x,y",
    [
        ([0.0, 5e-324], [0.0, 1.0]),  # a horizon of one subnormal step
        ([0.0, 1.0], [1.0, np.nextafter(1.0, 2.0)]),  # y moves by one ulp
        ([0.0, 1.0], [1e20, 1e20]),  # flat far beyond +-0.5
    ],
)
def test_degenerate_spans_render_with_ticks(x, y):
    svg = line_plot([(x, y, "s")])
    assert len(_polylines(svg)) == 1
    assert len(ET.fromstring(svg).findall(f"{SVG}text")) >= 3


@pytest.mark.parametrize("series", [[], [([0.0, 1.0], [np.nan, np.nan], "gone")]])
def test_nothing_to_plot_is_refused(series):
    with pytest.raises(ValueError):
        line_plot(series)
