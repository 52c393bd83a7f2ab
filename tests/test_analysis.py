"""Rate fits on synthetic signals with known decay, plus trace/stat helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ueslab as u
from ueslab.analysis import EXPONENTIAL_DECAY, POWER_LAW
from ueslab.errors import CapabilityError, WindowTooLate

T = np.linspace(0.0, 100.0, 4001)


def _traj(values):
    return u.Trajectory(T, np.asarray(values).reshape(-1, 1), 1)


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
    fit = u.fit_power_rate(_traj(np.full_like(T, 5.0)), [4.0], 0.1, 0.0, (0.0, 100.0))
    assert fit.estimate == pytest.approx(0.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


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


def test_lyapunov_trace_decreases_on_averaged_run(quartic, fig3_params):
    rhs = u.averaged_closed_loop(fig3_params, quartic)
    # n=1: theta_f is the first column, keep eta_f out of the theta view
    traj = u.integrate(rhs, np.array([1.0, 0.0]), 0.0, 20.0, 1e-2, n=1)
    v = u.lyapunov_trace(quartic, traj, fig3_params.schedule)
    assert v.shape == traj.times.shape
    assert np.all(v >= 0.0)
    assert v[-1] < v[0]
    with pytest.raises(CapabilityError, match="nominal"):
        u.lyapunov_trace(quartic, traj, u.Schedule.nominal())


def test_oscillation_amplitude_recovers_sine():
    t = np.linspace(0.0, 50.0, 2001)
    states = 2.0 + 0.3 * np.sin(4.0 * t)
    mean, amp = u.oscillation_amplitude(u.Trajectory(t, states.reshape(-1, 1), 1), 0.5)
    assert mean[0] == pytest.approx(2.0, abs=0.01)
    assert amp == pytest.approx(0.3, rel=0.01)
    with pytest.raises(ValueError):
        u.oscillation_amplitude(u.Trajectory(t, states.reshape(-1, 1), 1), 0.0)
    with pytest.raises(ValueError):
        u.oscillation_amplitude(u.Trajectory(t, states.reshape(-1, 1), 1), 1.5)


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
