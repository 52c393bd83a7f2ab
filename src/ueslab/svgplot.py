"""Minimal deterministic SVG line plots.

Diagnostic output only: the CSV artifacts are the contract, the plot is for
eyeballs.  Pure text generation, byte-stable for identical inputs.
``line_plot_blocks`` yields the text in pieces, a polyline's points
``FORMAT_BLOCK`` at a time, so a caller can write it to a file without
holding the whole text; ``line_plot`` joins the pieces.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .sim import FORMAT_BLOCK

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 760, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62.0, 14.0, 34.0, 42.0
_XLABEL = "t"  # every plot is over time
_TICKS = 6  # round ticks each axis aims at


def _too_narrow(lo: float, hi: float) -> bool:
    """Whether [lo, hi] is too narrow to tick: at most 1e-9 of its magnitude, or near underflow."""
    return not hi - lo > 1e-9 * max(abs(lo), abs(hi), 1e-290)


def _nice_ticks(lo: float, hi: float) -> List[float]:
    """Round tick values over [lo, hi], which line_plot has widened past _too_narrow; none for an infinite span."""
    if not math.isfinite(hi - lo):
        return []
    raw = (hi - lo) / (_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag + 1e-15 * mag)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    return format(v, ".6g")


def line_plot_blocks(series: Sequence[Tuple[np.ndarray, np.ndarray, str]], title: str) -> Iterator[str]:
    """SVG text in pieces for one WIDTH x HEIGHT axes, titled, with several labelled (x, y, label) polylines
    over x = t: one string per element, and each polyline's points FORMAT_BLOCK at a time.

    Non-finite samples are dropped before the points are cut into blocks, so no block is empty.
    """
    if not series:
        raise ValueError("need at least one series")
    plot_w = WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = HEIGHT - _MARGIN_T - _MARGIN_B

    prepared = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if not keep.all():  # a copy only when a sample is dropped
            x, y = x[keep], y[keep]
        if x.size:
            prepared.append((x, y, label))
    if not prepared:
        raise ValueError("no finite data to plot")

    x_lo = min(float(x.min()) for x, _, _ in prepared)
    x_hi = max(float(x.max()) for x, _, _ in prepared)
    y_lo = min(float(y.min()) for _, y, _ in prepared)
    y_hi = max(float(y.max()) for _, y, _ in prepared)
    # widen a flat axis far enough past the rounding of its values to tick it
    if _too_narrow(x_lo, x_hi):
        x_hi = x_lo + max(1.0, 1e-6 * abs(x_lo))
    if _too_narrow(y_lo, y_hi):
        half = max(0.5, 1e-6 * abs(y_lo))
        y_lo, y_hi = y_lo - half, y_hi + half
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="#444" stroke-width="1"/>\n'
        f'<text x="{WIDTH / 2:.2f}" y="20" text-anchor="middle" font-size="13">{_esc(title)}</text>\n'
    )

    for tick in _nice_ticks(x_lo, x_hi):
        X = px(tick)
        yield f'<line x1="{X:.2f}" y1="{_MARGIN_T + plot_h:.2f}" x2="{X:.2f}" y2="{_MARGIN_T + plot_h + 5:.2f}" stroke="#444"/>\n'
        yield f'<text x="{X:.2f}" y="{_MARGIN_T + plot_h + 17:.2f}" text-anchor="middle">{_fmt(tick)}</text>\n'
    for tick in _nice_ticks(y_lo, y_hi):
        Y = py(tick)
        yield f'<line x1="{_MARGIN_L - 5:.2f}" y1="{Y:.2f}" x2="{_MARGIN_L:.2f}" y2="{Y:.2f}" stroke="#444"/>\n'
        yield f'<text x="{_MARGIN_L - 8:.2f}" y="{Y + 3.5:.2f}" text-anchor="end">{_fmt(tick)}</text>\n'
        yield (
            f'<line x1="{_MARGIN_L:.2f}" y1="{Y:.2f}" x2="{_MARGIN_L + plot_w:.2f}" y2="{Y:.2f}" '
            'stroke="#ddd" stroke-width="0.5"/>\n'
        )
    yield f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 8:.2f}" text-anchor="middle">{_XLABEL}</text>\n'

    for idx, (x, y, label) in enumerate(prepared):
        color = PALETTE[idx % len(PALETTE)]
        yield f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="'
        for i in range(0, len(x), FORMAT_BLOCK):
            with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass silently, as on Python floats
                xy = np.column_stack([px(x[i : i + FORMAT_BLOCK]), py(y[i : i + FORMAT_BLOCK])])
            # points are separated by one space, also across a block edge
            yield (" " if i else "") + " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        yield '"/>\n'
        Yl = _MARGIN_T + 14 + 14 * idx
        Xl = _MARGIN_L + plot_w - 10
        yield f'<line x1="{Xl - 26:.2f}" y1="{Yl - 3.5:.2f}" x2="{Xl - 8:.2f}" y2="{Yl - 3.5:.2f}" stroke="{color}" stroke-width="2"/>\n'
        yield f'<text x="{Xl - 30:.2f}" y="{Yl:.2f}" text-anchor="end">{_esc(label)}</text>\n'

    yield "</svg>\n"


def line_plot(series: Sequence[Tuple[np.ndarray, np.ndarray, str]], title: str) -> str:
    """The whole SVG text of ``line_plot_blocks``."""
    return "".join(line_plot_blocks(series, title))


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
