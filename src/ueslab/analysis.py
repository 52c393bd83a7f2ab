"""Post-processing: convergence-rate fits, Lyapunov traces, oscillation stats.

Rate fits work on the envelope of |theta - theta*|: the sequence of strict
local maxima of the distance signal.  Fitting the envelope instead of the raw
signal makes the estimate robust to the dither ripple, whose peaks follow the
schedule while the troughs repeatedly touch zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CapabilityError, WindowTooLate
from .maps import CostMap
from .schedules import NOMINAL, Schedule
from .sim import Trajectory

Array = np.ndarray

NOISE_FLOOR = 1e-13
MIN_ENVELOPE_POINTS = 10
MIN_WINDOW_SAMPLES = 3
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
        if self.residual < 0.0:
            raise ValueError(f"residual must be >= 0, got {self.residual}")


def _distance_series(traj: Trajectory, theta_star) -> Array:
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    return np.linalg.norm(traj.theta - star, axis=1)


def check_window(window, first: float, last: float) -> None:
    """Raise ValueError unless the window (t_a, t_b) has t_b > t_a and lies in [first, last], up to 1e-9 relative."""
    t_a, t_b = float(window[0]), float(window[1])
    if t_b <= t_a:
        raise ValueError(f"window end must exceed start, got ({t_a}, {t_b})")
    pad = 1e-9 * max(1.0, abs(first), abs(last))
    if t_a < first - pad or t_b > last + pad:
        raise ValueError(f"window ({t_a}, {t_b}) not contained in trajectory span ({first}, {last})")


def _window_mask(times: Array, window) -> Array:
    check_window(window, times[0], times[-1])
    return (times >= window[0]) & (times <= window[1])


def _envelope(times: Array, dist: Array, window) -> Tuple[Array, Array]:
    """Peak times/values of the distance signal inside the window.

    Peaks are strict local maxima over a 3-sample stencil.  Signals without
    enough peaks (monotone or constant ones) fall back to all window samples.
    Values at or below the noise floor are discarded; losing everything means
    the window starts after the signal has decayed into round-off.
    """
    mask = _window_mask(times, window)
    t_w, d_w = times[mask], dist[mask]
    if len(t_w) < MIN_WINDOW_SAMPLES:
        raise ValueError(f"window ({window[0]}, {window[1]}) holds {len(t_w)} samples; need at least {MIN_WINDOW_SAMPLES}")
    interior = (d_w[1:-1] > d_w[:-2]) & (d_w[1:-1] > d_w[2:])
    idx = np.flatnonzero(interior) + 1
    if idx.size < MIN_ENVELOPE_POINTS:
        idx = np.arange(len(t_w))
    keep = d_w[idx] > NOISE_FLOOR
    if not np.any(keep):
        raise WindowTooLate(
            f"all envelope values in ({window[0]}, {window[1]}) are at or below the {NOISE_FLOOR:g} noise floor; "
            "fit an earlier window"
        )
    return t_w[idx[keep]], d_w[idx[keep]]


def _log_fit(x: Array, logd: Array) -> Tuple[float, float]:
    slope, intercept = np.polyfit(x, logd, 1)
    resid = logd - (slope * x + intercept)
    return float(slope), float(math.sqrt(np.mean(resid**2)))


def fit_power_rate(traj: Trajectory, theta_star, beta: float, t0: float, window) -> RateFit:
    """Exponent of |theta - theta*| ~ (1 + beta (t - t0))^(-estimate) on the peak envelope."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    t_pk, d_pk = _envelope(traj.times, _distance_series(traj, theta_star), window)
    slope, rms = _log_fit(np.log1p(beta * (t_pk - t0)), np.log(d_pk))
    return RateFit(POWER_LAW, -slope, rms, (float(window[0]), float(window[1])))


def fit_exp_rate(traj: Trajectory, theta_star, window) -> RateFit:
    """Rate of |theta - theta*| ~ exp(-estimate * t) on the peak envelope."""
    t_pk, d_pk = _envelope(traj.times, _distance_series(traj, theta_star), window)
    slope, rms = _log_fit(t_pk, np.log(d_pk))
    return RateFit(EXPONENTIAL_DECAY, -slope, rms, (float(window[0]), float(window[1])))


def fit_averaging_order(omegas: Sequence[float], gaps: Sequence[float]) -> Optional[float]:
    """Order of gap ~ omega^(-order): minus the least-squares slope of log(gap) against log(omega).

    None when it is undefined: fewer than two omegas, or a gap that is not
    finite and positive.
    """
    gaps = np.asarray(gaps, dtype=float)
    if len(gaps) < 2 or not np.all(np.isfinite(gaps) & (gaps > 0.0)):
        return None
    slope, _ = _log_fit(np.log(np.asarray(omegas, dtype=float)), np.log(gaps))
    return -slope


def fit_report_csv(fits: Sequence[RateFit]) -> str:
    lines = ["model,estimate,residual,window_start,window_end"]
    for f in fits:
        lines.append(
            f"{f.model},{format(f.estimate, '.17g')},{format(f.residual, '.17g')},"
            f"{format(f.window[0], '.17g')},{format(f.window[1], '.17g')}"
        )
    return "\n".join(lines) + "\n"


def lyapunov_trace(map: CostMap, traj_f: Trajectory, schedule: Schedule) -> Array:
    """V(t) = xi^(2 kappa)(t) * J_f(theta_f(t), xi(t)) per recorded sample.

    traj_f must hold transformed states (theta columns are theta_f).
    """
    if map.optimum is None or map.optimal_value is None:
        raise CapabilityError(f"map '{map.name}' lacks optimum/optimal_value")
    if schedule.kind == NOMINAL:
        raise CapabilityError("the Lyapunov trace is defined for growing schedules, not nominal")
    out = np.empty(len(traj_f.times))
    for j, t in enumerate(traj_f.times):
        log_xi = schedule.log_xi(t)
        theta = map.optimum + traj_f.theta[j] * math.exp(-log_xi)
        out[j] = math.exp(2.0 * map.kappa * log_xi) * map.centered_value(theta)
    return out


def oscillation_amplitude(traj: Trajectory, tail_fraction: float) -> Tuple[Array, float]:
    """Tail-window mean of theta and its oscillation amplitude.

    The amplitude is half the peak-to-peak excursion about the mean, taken
    per channel, worst channel reported.  tail_fraction in (0, 1] selects the
    trailing share of samples; 1.0 uses the whole trajectory.
    """
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    m = len(traj.times)
    start = min(m - int(math.ceil(m * tail_fraction)), m - 1)
    tail = traj.theta[start:]
    if len(tail) < 20:
        raise ValueError(f"tail window holds {len(tail)} samples; need at least 20")
    mean = tail.mean(axis=0)
    half_p2p = 0.5 * (tail.max(axis=0) - tail.min(axis=0))
    return mean, float(half_p2p.max())


def window_slice(traj: Trajectory, t_a: float, t_b: float) -> Trajectory:
    """Sub-trajectory restricted to samples with t_a <= t <= t_b."""
    mask = _window_mask(traj.times, (t_a, t_b))
    return Trajectory(traj.times[mask], traj.states[mask], traj.n, None if traj.y is None else traj.y[mask])
