"""Post-processing: convergence-rate fits and oscillation stats.

Rate fits work on the envelope of |theta - theta*|: the sequence of strict
local maxima of the distance signal.  Fitting the envelope instead of the raw
signal makes the estimate robust to the dither ripple, whose peaks follow the
schedule while the troughs repeatedly touch zero.

The log-domain line is fit in closed form, as the least-squares slope about
the means, on Python floats.  Every sum is a ``math.fsum``, correctly
rounded, so a fit's bits depend neither on the order of its terms nor on
the Python version (the builtin ``sum()`` compensates its rounding from
Python 3.12 on).  A distance from theta* is ``math.hypot`` of the coordinate
differences, the absolute difference for one coordinate.
"""

from __future__ import annotations

import bisect
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from typing import List, Optional, Sequence, Tuple

from .errors import WindowTooLate
from .sim import Trajectory, csv_text, floats

NOISE_FLOOR = 1e-13
MIN_ENVELOPE_POINTS = 10
MIN_WINDOW_SAMPLES = 3
# least growth of log(1 + beta (t - t0)) over the power-law fit's window: below it nu and phi move by under 0.1%
# (per unit of 1/v and r/v), so the run is effectively nominal, and the fitted exponent would be the envelope's
# ripple (log residual 1e-2 to 0.6 on the bundled runs) divided by that growth
MIN_FIT_LOG_GROWTH = 1e-3
POWER_LAW = "power_law"
EXPONENTIAL_DECAY = "exponential"


@dataclass(frozen=True)
class RateFit:
    """Result of a log-domain envelope regression.

    model     POWER_LAW or EXPONENTIAL_DECAY
    estimate  decay exponent (power law) or decay rate (exponential)
    residual  RMS of the log-domain fit residuals
    window    (t_a, t_b) actually used
    """

    model: str
    estimate: float
    residual: float
    window: Tuple[float, float]

    def __post_init__(self):
        if self.window[1] <= self.window[0]:
            raise ValueError(f"window end must exceed start, got {self.window}")
        if not (math.isfinite(self.estimate) and math.isfinite(self.residual) and self.residual >= 0.0):
            raise ValueError(f"estimate must be finite and residual finite and >= 0, got {self.estimate}, {self.residual}")


def check_window(window, first: float, last: float) -> None:
    """Raise ValueError unless the window (t_a, t_b) has t_b > t_a and lies in [first, last], up to 1e-9 relative."""
    t_a, t_b = float(window[0]), float(window[1])
    if t_b <= t_a:
        raise ValueError(f"window end must exceed start, got ({t_a}, {t_b})")
    pad = 1e-9 * max(1.0, abs(first), abs(last))
    if t_a < first - pad or t_b > last + pad:
        raise ValueError(f"window ({t_a}, {t_b}) not contained in trajectory span ({first}, {last})")


def _window_span(times: array, window) -> Tuple[int, int]:
    """Indices [start, end) of the samples with t_a <= t <= t_b, of the window (t_a, t_b) checked against times."""
    check_window(window, times[0], times[-1])
    return bisect.bisect_left(times, window[0]), bisect.bisect_right(times, window[1])


def _strict_peaks(d: Sequence[float]) -> List[int]:
    """The i with d[i-1] < d[i] > d[i+1], in order, found by iterators without a Python-level loop.  A NaN is no
    peak and makes neither neighbour one."""
    rising = map(operator.lt, d, islice(d, 1, None))
    falling = map(operator.gt, islice(d, 1, None), islice(d, 2, None))
    return list(compress(count(1), map(operator.and_, rising, falling)))


def _envelope(traj: Trajectory, theta_star, window) -> Tuple[array, array]:
    """Peak times/values of the distance |theta - theta*| inside the window.

    Peaks are strict local maxima over a 3-sample stencil.  Signals without
    enough peaks (monotone or constant ones) fall back to all window samples.
    Values at or below the noise floor are discarded; keeping fewer than two,
    which fit no line, means the window starts after the signal has decayed
    into round-off.
    """
    start, end = _window_span(traj.times, window)
    if end - start < MIN_WINDOW_SAMPLES:
        raise ValueError(f"window ({window[0]}, {window[1]}) holds {end - start} samples; need at least {MIN_WINDOW_SAMPLES}")
    star = floats(theta_star)
    if len(star) != traj.n:
        raise ValueError(f"theta_star has {len(star)} coordinate(s), the trajectory {traj.n}")
    offsets = [map(operator.sub, traj.column(j)[start:end], repeat(s)) for j, s in enumerate(star)]
    t_w, d_w = memoryview(traj.times)[start:end], array("d", map(math.hypot, *offsets))  # t_w a view, not a copy
    idx = _strict_peaks(d_w)
    if len(idx) < MIN_ENVELOPE_POINTS:
        idx = range(len(t_w))
    kept = [i for i in idx if d_w[i] > NOISE_FLOOR]
    if len(kept) < 2:
        raise WindowTooLate(
            f"{len(kept)} envelope value(s) in ({window[0]}, {window[1]}) lie above the "
            f"{NOISE_FLOOR:g} noise floor, and a rate fit needs 2; fit an earlier window"
        )
    return array("d", (t_w[i] for i in kept)), array("d", (d_w[i] for i in kept))


def _log_fit(x: Sequence[float], logd: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope of logd against x and the RMS of its residuals, from the line through the means;
    every sum a math.fsum."""
    m = len(x)
    mean_x, mean_y = math.fsum(x) / m, math.fsum(logd) / m
    dx = array("d", map(operator.sub, x, repeat(mean_x)))
    dy = array("d", map(operator.sub, logd, repeat(mean_y)))
    slope = math.fsum(map(operator.mul, dx, dy)) / math.fsum(map(operator.mul, dx, dx))
    residuals = array("d", (b - slope * a for a, b in zip(dx, dy)))
    return slope, math.sqrt(math.fsum(map(operator.mul, residuals, residuals)) / m)


def log_growth(beta: float, t0: float, t_a: float, t_b: float) -> float:
    """Growth of the power-law regressor log(1 + beta (t - t0)) from t_a to t_b, as log1p((s_b - s_a) / s_a)."""
    return math.log1p(beta * (t_b - t_a) / (1.0 + beta * (t_a - t0)))


def fit_power_rate(traj: Trajectory, theta_star, beta: float, t0: float, window) -> RateFit:
    """Exponent of |theta - theta*| ~ (1 + beta (t - t0))^(-estimate) on the peak envelope; ValueError naming
    beta when the regressor grows by less than MIN_FIT_LOG_GROWTH across the window's samples."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    t_pk, d_pk = _envelope(traj, theta_star, window)
    start, end = _window_span(traj.times, window)
    growth = log_growth(beta, t0, traj.times[start], traj.times[end - 1])
    if growth < MIN_FIT_LOG_GROWTH:
        raise ValueError(f"beta = {beta:g} is too small for a power-law fit over ({window[0]:g}, {window[1]:g}): "
                         f"log(1 + beta (t - t0)) grows by {growth:.4g} across its samples, under {MIN_FIT_LOG_GROWTH:g}")
    slope, rms = _log_fit([math.log1p(beta * (t - t0)) for t in t_pk], list(map(math.log, d_pk)))
    # 0.0 - slope, here and below, so that a flat envelope fits +0, not -0
    return RateFit(POWER_LAW, 0.0 - slope, rms, (float(window[0]), float(window[1])))


def fit_exp_rate(traj: Trajectory, theta_star, window) -> RateFit:
    """Rate of |theta - theta*| ~ exp(-estimate * t) on the peak envelope."""
    t_pk, d_pk = _envelope(traj, theta_star, window)
    slope, rms = _log_fit(t_pk, list(map(math.log, d_pk)))
    return RateFit(EXPONENTIAL_DECAY, 0.0 - slope, rms, (float(window[0]), float(window[1])))


def fit_averaging_order(omegas: Sequence[float], gaps: Sequence[float]) -> Optional[float]:
    """Order of gap ~ omega^(-order): minus the least-squares slope of log(gap) against log(omega).

    None when it is undefined: fewer than two omegas, or a gap that is not
    finite and positive.
    """
    gaps = [float(g) for g in gaps]
    if len(gaps) < 2 or not all(math.isfinite(g) and g > 0.0 for g in gaps):
        return None
    slope, _ = _log_fit([math.log(w) for w in omegas], list(map(math.log, gaps)))
    return 0.0 - slope  # a flat fit reads +0, not -0


def fit_report_csv(fits: Sequence[RateFit]) -> str:
    return csv_text(("model", "estimate", "residual", "window_start", "window_end"),
                    ((f.model, f.estimate, f.residual, *f.window) for f in fits))


def oscillation_amplitude(traj: Trajectory, tail_fraction: float) -> Tuple[array, float]:
    """Tail-window mean of theta and its oscillation amplitude.

    The amplitude is half the peak-to-peak excursion about the mean, taken
    per channel, worst channel reported.  tail_fraction in (0, 1] selects the
    trailing share of samples; 1.0 uses the whole trajectory.
    """
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    m = len(traj.times)
    start = min(m - int(math.ceil(m * tail_fraction)), m - 1)
    if m - start < 20:
        raise ValueError(f"tail window holds {m - start} sample(s); need at least 20")
    tails = [traj.column(j)[start:] for j in range(traj.n)]
    mean = array("d", (math.fsum(tail) / len(tail) for tail in tails))
    return mean, max(0.5 * (max(tail) - min(tail)) for tail in tails)


def window_slice(traj: Trajectory, t_a: float, t_b: float) -> Trajectory:
    """Sub-trajectory restricted to samples with t_a <= t <= t_b."""
    start, end = _window_span(traj.times, (t_a, t_b))
    w = traj.width
    return Trajectory(traj.times[start:end], traj.rows[start * w : end * w], traj.n,
                      None if traj.y is None else traj.y[start:end])
