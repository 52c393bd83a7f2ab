"""SVG line plots: well-formed output, one polyline per series, escaping."""

import math
import xml.etree.ElementTree as ET
from array import array
from collections import deque

import numpy as np
import pytest
from conftest import traced_peak

from ueslab.sim import FORMAT_BLOCK
from ueslab.svgplot import _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, HEIGHT, WIDTH, _too_narrow, line_plot, line_plot_blocks

SVG = "{http://www.w3.org/2000/svg}"


def _polylines(svg):
    return ET.fromstring(svg).findall(f"{SVG}polyline")


def test_one_polyline_per_series_without_nonfinite_samples():
    x = np.linspace(0.0, 1.0, 5)
    y = np.array([0.0, np.nan, 1.0, np.inf, 2.0])
    lines = _polylines(line_plot([(x, y, "a"), (x, -x, "b")], "two"))
    assert len(lines) == 2
    assert len(lines[0].get("points").split()) == 3
    assert len(lines[1].get("points").split()) == 5


def test_text_is_escaped():
    svg = line_plot([([0.0, 1.0], [0.0, 1.0], "a<b & c")], "J & <theta>")
    texts = [el.text for el in ET.fromstring(svg).iter(f"{SVG}text")]
    for text in ("a<b & c", "J & <theta>", "t"):
        assert text in texts
    assert "J &amp; &lt;theta&gt;" in svg


def test_constant_series_renders():
    lines = _polylines(line_plot([([0.0, 1.0, 2.0], [3.0, 3.0, 3.0], "flat")], "flat"))
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
    svg = line_plot([(x, y, "s")], "degenerate")
    assert len(_polylines(svg)) == 1
    assert len(ET.fromstring(svg).findall(f"{SVG}text")) >= 5  # the title, the x label, the series label and 2+ ticks


@pytest.mark.parametrize("series", [[], [([0.0, 1.0], [np.nan, np.nan], "gone")]])
def test_nothing_to_plot_is_refused(series):
    with pytest.raises(ValueError):
        line_plot(series, "empty")


@pytest.mark.parametrize("seed", range(6))
def test_polyline_points_equal_per_point_formatting(seed):
    # one wide random series: no axis is widened, so the bounds are its extremes and y's 4% pad;
    # the last two seeds' series span three formatting blocks, and the last seed's has a non-finite sample
    # at both block edges of the input and between the two points at each block edge of the points kept
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 300)) if seed < 4 else 2 * FORMAT_BLOCK + (1 if seed == 4 else 8)
    x = np.sort(rng.uniform(-1.0, 1.0, m)) * 10.0 ** rng.uniform(-5, 5)
    y = rng.standard_normal(m) * 10.0 ** rng.uniform(-5, 5) + rng.uniform(-1e3, 1e3)
    B = FORMAT_BLOCK
    if seed == 5:
        y[[B - 1, B + 1, 2 * B - 1]] = np.nan, np.inf, -np.inf
        x[2 * B + 3] = np.nan
    keep = np.isfinite(x) & np.isfinite(y)
    if seed == 5:
        assert np.flatnonzero(keep)[[B - 1, B, 2 * B - 1, 2 * B]].tolist() == [B, B + 2, 2 * B + 2, 2 * B + 4]
    x_lo, x_hi, y_lo, y_hi = float(x[keep].min()), float(x[keep].max()), float(y[keep].min()), float(y[keep].max())
    assert not (_too_narrow(x_lo, x_hi) or _too_narrow(y_lo, y_hi))
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w, plot_h = WIDTH - _MARGIN_L - _MARGIN_R, HEIGHT - _MARGIN_T - _MARGIN_B
    px = lambda v: _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w
    py = lambda v: _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h
    want = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(x[keep].tolist(), y[keep].tolist()))
    streamed = "".join(line_plot_blocks([(x, y, "s")], "random"))
    assert streamed == line_plot([(x, y, "s")], "random")
    assert _polylines(streamed)[0].get("points") == want


def test_dropping_a_nonfinite_sample_holds_a_mask_not_pairs():
    # a run's record of 19,100 samples with one inf: the kept samples go to two array('d') through a one-byte
    # mask, about 19 bytes a sample measured with one block's formatting
    m = 19100
    x = array("d", (0.01 * i for i in range(m)))
    y = array("d", (math.exp(-0.001 * i) * math.cos(0.3 * i) for i in range(m)))
    y[m // 2] = math.inf
    _, peak = traced_peak(lambda: deque(line_plot_blocks([(x, y, "y")], "one inf"), maxlen=0))
    assert peak <= 48 * m
    kept = lambda v: v[: m // 2] + v[m // 2 + 1 :]
    assert line_plot([(x, y, "y")], "one inf") == line_plot([(kept(x), kept(y), "y")], "one inf")
