"""Rate fits on synthetic signals with known decay, plus trace/stat helpers."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ueslab as u
from ueslab.analysis import EXPONENTIAL_DECAY, MIN_ENVELOPE_POINTS, POWER_LAW, _envelope, _log_fit, _strict_peaks
from ueslab.errors import WindowTooLate

T = np.linspace(0.0, 100.0, 4001)


def _traj(values):
    return u.Trajectory(T, np.asarray(values), 1)


def test_power_fit_exact_signal():
    fit = u.fit_power_rate(_traj(2.0 + (1.0 + 0.1 * T) ** -3.0), [2.0], 0.1, 0.0, (0.0, 100.0))
    assert fit.model == POWER_LAW
    assert fit.estimate == pytest.approx(3.0, abs=1e-10)
    assert fit.residual < 1e-10


def test_power_fit_oscillating_signal():
    # ripple under a power-law envelope: the peak fit recovers the exponent
    d = (1.0 + 0.1 * T) ** -3.0 * np.abs(np.cos(5.0 * T))
    fit = u.fit_power_rate(_traj(2.0 + d), [2.0], 0.1, 0.0, (0.0, 100.0))
    assert fit.estimate == pytest.approx(3.0, rel=0.02)


def test_power_fit_constant_signal():
    # a flat envelope fits +0: minus a zero slope once gave -0, printed and written as "-0"
    fit = u.fit_power_rate(_traj(np.full_like(T, 5.0)), [4.0], 0.1, 0.0, (0.0, 100.0))
    assert fit.estimate == pytest.approx(0.0, abs=1e-12) and math.copysign(1.0, fit.estimate) == 1.0
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_exp_fit_constant_signal():
    fit = u.fit_exp_rate(_traj(np.full_like(T, 5.0)), [4.0], (0.0, 100.0))
    assert fit.estimate == 0.0 and math.copysign(1.0, fit.estimate) == 1.0


def test_averaging_order_of_equal_gaps():
    order = u.fit_averaging_order([10.0, 50.0, 250.0], [0.1, 0.1, 0.1])
    assert order == 0.0 and math.copysign(1.0, order) == 1.0


@pytest.mark.parametrize("beta", [1e-200, 1e-160, 1e-7])
def test_power_fit_refuses_a_regressor_that_barely_grows(beta):
    # across 0..100, log(1 + beta t) grows by under the 1e-3 floor: 1e-200 once gave estimate inf and residual nan
    # through two RuntimeWarnings, 1e-160 an exponent of 5.18e158; the refusal comes before the division
    traj = _traj((1.0 + 0.1 * T) ** -3.0)
    with pytest.raises(ValueError, match=f"^beta = {beta:g} is too small for a power-law fit over \\(0, 100\\)"):
        u.fit_power_rate(traj, [0.0], beta, 0.0, (0.0, 100.0))
    assert u.fit_power_rate(traj, [0.0], 1.1e-5, 0.0, (0.0, 100.0)).estimate > 0.0  # grows by 1.0994e-3: fitted


@pytest.mark.parametrize("estimate, residual", [(np.nan, np.nan), (np.inf, 0.1), (3.0, np.nan), (3.0, -1.0)])
def test_rate_fit_refuses_non_finite_results(estimate, residual):
    with pytest.raises(ValueError, match="finite"):
        u.RateFit(POWER_LAW, estimate, residual, (0.0, 1.0))


def test_exp_fit_exact_and_oscillating():
    fit = u.fit_exp_rate(_traj(1.0 + np.exp(-0.1 * T)), [1.0], (0.0, 100.0))
    assert fit.model == EXPONENTIAL_DECAY
    assert fit.estimate == pytest.approx(0.1, abs=1e-10)
    d = np.exp(-0.1 * T) * np.abs(np.cos(5.0 * T))
    fit = u.fit_exp_rate(_traj(1.0 + d), [1.0], (0.0, 100.0))
    assert fit.estimate == pytest.approx(0.1, rel=0.02)


def test_window_must_lie_inside_span():
    traj = _traj(2.0 + (1.0 + 0.1 * T) ** -3.0)
    with pytest.raises(ValueError, match="not contained"):
        u.fit_power_rate(traj, [2.0], 0.1, 0.0, (50.0, 200.0))
    with pytest.raises(ValueError, match="exceed"):
        u.fit_power_rate(traj, [2.0], 0.1, 0.0, (50.0, 10.0))


def test_window_after_decay_raises():
    # signal is in round-off everywhere past t = 0: nothing left to fit
    with pytest.raises(WindowTooLate):
        u.fit_exp_rate(_traj(np.full_like(T, 1.0 + 1e-16)), [1.0], (50.0, 100.0))


def test_one_envelope_value_above_noise_floor_is_skipped():
    # one peak above the floor fits no line: np.polyfit once gave its min-norm answer, "exponential rate" 0.6908,
    # with only a RankWarning, and the closed form alone gives nan
    t = np.linspace(0.0, 10.0, 201)
    d = np.full_like(t, 1e-15)
    d[100] = 1e-3
    traj = u.Trajectory(t, d, 1)
    with pytest.raises(WindowTooLate, match=r"^1 envelope value\(s\) in \(0.0, 10.0\) lie above the 1e-13 noise floor"):
        u.fit_exp_rate(traj, [0.0], (0.0, 10.0))
    with pytest.raises(WindowTooLate, match=r"^1 envelope value\(s\)"):
        u.fit_power_rate(traj, [0.0], 0.1, 0.0, (0.0, 10.0))


def _stencil_peaks(d):
    return [i for i in range(1, len(d) - 1) if d[i - 1] < d[i] > d[i + 1]]


@pytest.mark.parametrize(
    "d",
    [
        [],
        [1.0],
        [1.0, 2.0],
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],  # a plateau is no strict peak
        [1.0, 1.0, 1.0],
        [0.0, np.nan, 0.0],
        [0.0, 1.0, np.nan, 1.0, 0.0],  # a NaN makes neither neighbour a peak
        [np.nan, 1.0, 0.0, 1.0, np.nan],
        [0.0, 2.0, 1.0, 2.0, 0.0, -np.inf, np.inf, 0.0],
    ],
)
def test_strict_peaks_of_edge_cases(d):
    assert _strict_peaks(d) == _stencil_peaks(d)


@pytest.mark.parametrize("seed", range(6))
def test_envelope_peaks_are_the_three_sample_stencil(seed):
    # a few small integer levels give many plateaus and ties; every value sits above the noise floor, so the envelope
    # keeps every strict peak and the distance to theta* = 0 is the value itself
    rng = np.random.default_rng(seed)
    t = np.arange(400.0)
    d = 1.0 + rng.integers(0, 3 + seed, t.size).astype(float)
    d[rng.integers(0, t.size, 20)] = d[0]
    want = _stencil_peaks(d.tolist())
    assert len(want) >= MIN_ENVELOPE_POINTS
    t_pk, d_pk = _envelope(u.Trajectory(t, d, 1), [0.0], (0.0, t[-1]))
    assert list(t_pk) == t[want].tolist() and list(d_pk) == d[want].tolist()
    d[rng.integers(0, t.size, 3)] = np.nan
    assert _strict_peaks(d.tolist()) == _stencil_peaks(d.tolist())


def test_envelope_of_too_few_peaks_falls_back_to_every_sample():
    t = np.linspace(0.0, 10.0, 101)
    d = np.exp(-t)
    d[[20, 50, 80]] *= 1.5  # three strict peaks on a decaying signal, under MIN_ENVELOPE_POINTS
    assert len(_stencil_peaks(d.tolist())) == 3 < MIN_ENVELOPE_POINTS
    t_pk, d_pk = _envelope(u.Trajectory(t, d, 1), [0.0], (2.0, 8.0))
    assert list(t_pk) == t[20:81].tolist() and list(d_pk) == d[20:81].tolist()


@pytest.mark.parametrize("seed", range(20))
def test_log_fit_against_polyfit(seed):
    # on regressors like both fits' (t and log1p(beta t)): an exact line's slope comes back to 1e-12 relative with a
    # residual under 1e-12 of the line's spread; on noisy data slope and residual agree with np.polyfit, a test-only
    # oracle off every command path, to 1e-9 relative
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 100.0, rng.integers(3, 400)))
    if seed % 2:
        x = np.log1p(0.1 * x)
    slope, intercept = rng.uniform(-5.0, 5.0, 2)
    fitted, residual = _log_fit(x, slope * x + intercept)
    assert fitted == pytest.approx(slope, rel=1e-12)
    assert 0.0 <= residual <= 1e-12 * (abs(slope) * np.ptp(x) + abs(intercept))
    logd = slope * x + intercept + rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 0.0), x.size)
    fitted, residual = _log_fit(x, logd)
    oracle_slope, oracle_intercept = np.polyfit(x, logd, 1)
    assert fitted == pytest.approx(oracle_slope, rel=1e-9)
    assert residual == pytest.approx(np.sqrt(np.mean((logd - (oracle_slope * x + oracle_intercept)) ** 2)), rel=1e-9)
    assert residual >= 0.0


def test_log_fit_sums_are_correctly_rounded():
    # every sum of the fit is a math.fsum, so fits.csv does not depend on the Python version: the builtin sum()
    # adds left to right up to Python 3.11 and compensates its rounding from 3.12 on.  On this input the two
    # orders of rounding give different slopes and residuals
    def fit_by(total):
        mean_x, mean_y = total(x) / len(x), total(logd) / len(x)
        dx, dy = [v - mean_x for v in x], [v - mean_y for v in logd]
        slope = total([a * b for a, b in zip(dx, dy)]) / total([a * a for a in dx])
        return slope, math.sqrt(total([(b - slope * a) * (b - slope * a) for a, b in zip(dx, dy)]) / len(x))

    x, logd = [0.1, 0.2, 0.3, 0.4, 0.5], [1.1, 2.3, 2.9, 4.2, 4.8]
    left_to_right = functools.partial(functools.reduce, operator.add)
    assert fit_by(left_to_right) == (9.3, 0.15684387141358117)
    assert _log_fit(x, logd) == fit_by(math.fsum) == (9.299999999999999, 0.1568438714135812)


@pytest.mark.parametrize("scale", [0.1, 10.0])
def test_fit_invariant_under_pinned_scalings(scale):
    # amplitude scaling only shifts the log-domain intercept
    d = (1.0 + 0.1 * T) ** -3.0 * np.abs(np.cos(5.0 * T))
    base = u.fit_power_rate(_traj(2.0 + d), [2.0], 0.1, 0.0, (0.0, 100.0))
    scaled = u.fit_power_rate(_traj(2.0 + scale * d), [2.0], 0.1, 0.0, (0.0, 100.0))
    assert scaled.estimate == pytest.approx(base.estimate, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(1e-3, 1e3))
def test_fit_invariant_under_any_positive_scaling(scale):
    d = (1.0 + 0.1 * T) ** -3.0 * np.abs(np.cos(5.0 * T))
    base = u.fit_power_rate(_traj(2.0 + d), [2.0], 0.1, 0.0, (0.0, 100.0))
    scaled = u.fit_power_rate(_traj(2.0 + scale * d), [2.0], 0.1, 0.0, (0.0, 100.0))
    assert scaled.estimate == pytest.approx(base.estimate, abs=1e-9)


def test_fit_report_csv_layout():
    fit = u.RateFit(POWER_LAW, 3.0, 0.25, (10.0, 100.0))
    text = u.fit_report_csv([fit])
    lines = text.strip().splitlines()
    assert lines[0] == "model,estimate,residual,window_start,window_end"
    assert lines[1].startswith("power_law,3,")


def test_oscillation_amplitude_recovers_sine():
    t = np.linspace(0.0, 50.0, 2001)
    states = 2.0 + 0.3 * np.sin(4.0 * t)
    mean, amp = u.oscillation_amplitude(u.Trajectory(t, states, 1), 0.5)
    assert mean[0] == pytest.approx(2.0, abs=0.01)
    assert amp == pytest.approx(0.3, rel=0.01)
    with pytest.raises(ValueError):
        u.oscillation_amplitude(u.Trajectory(t, states, 1), 0.0)
    with pytest.raises(ValueError):
        u.oscillation_amplitude(u.Trajectory(t, states, 1), 1.5)


def test_window_slice_preserves_layout(fig3_run):
    sub = u.window_slice(fig3_run, 10.0, 20.0)
    assert sub.n == fig3_run.n
    assert sub.times[0] >= 10.0 and sub.times[-1] <= 20.0
    assert sub.y is not None and len(sub.y) == len(sub.times)
    assert len(sub.times) > 100


def test_averaging_order_fit():
    omegas = [10.0, 50.0, 250.0]
    assert u.fit_averaging_order(omegas, [2.0 * w**-0.5 for w in omegas]) == pytest.approx(0.5, rel=1e-12)
    # the bundled omega_sweep's worst sup_gaps
    assert u.fit_averaging_order(omegas, [0.02735, 0.01029, 0.003554]) == pytest.approx(0.634, abs=1e-3)
    for gaps in ([0.1, np.inf, 0.01], [0.1, 0.0, 0.01], [0.1, np.nan, 0.01]):
        assert u.fit_averaging_order(omegas, gaps) is None
    assert u.fit_averaging_order([10.0], [0.1]) is None
