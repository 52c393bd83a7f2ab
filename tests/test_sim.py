"""Integrator: exactness, convergence order, records, and the comparison ODE."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ueslab as u
from ueslab import cli
from ueslab.averaging import _trial_starts
from ueslab.config import config_from_text
from ueslab.controllers import gain_error_term
from ueslab.errors import IntegrationDiverged


def test_rk4_exact_on_cubic_time_polynomial():
    # RK4 integrates polynomials of degree <= 4 in t without truncation error
    traj = u.integrate(lambda x, t: 3.0 * t**2, 0.0, 0.0, 2.0, 0.1)
    np.testing.assert_allclose(traj.states[:, 0], traj.times**3, rtol=0, atol=1e-12)


def test_rk4_fourth_order_convergence():
    # halving the step must shrink the global error by at least 2^3 (order 4
    # gives 2^4 away from the round-off floor)
    p = u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0)
    errs = []
    for dt in (0.25, 0.125):
        traj = u.integrate(lambda V, t: u.lemma1_rhs(p, V, t), p.v0, 0.0, 50.0, dt)
        exact = np.array([u.lemma1_solution(p, t) for t in traj.times])
        errs.append(np.max(np.abs(traj.states[:, 0] - exact)))
    assert errs[0] / errs[1] >= 8.0


def test_endpoints_always_recorded():
    traj = u.integrate(lambda x, t: -x, 1.0, 0.0, 1.0, 0.03, record_every=7)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0.0)


def test_final_time_lands_exactly():
    # span not divisible by dt: the last step is shortened, never overshot
    traj = u.integrate(lambda x, t: 0.0 * x, np.array([1.0]), 0.0, 1.0, 0.3)
    assert traj.times[-1] == 1.0
    assert len(traj.times) == 5  # t = 0, 0.3, 0.6, 0.9, 1.0


def test_dither_tag_enforces_step_bound():
    rhs = lambda x, t: -x
    rhs.dither_omega_max = 5.0
    with pytest.raises(ValueError, match="too coarse"):
        u.integrate(rhs, 1.0, 0.0, 1.0, 0.05)
    # right at the bound is fine
    u.integrate(rhs, 1.0, 0.0, 1.0, (2.0 * math.pi / 5.0) / 40.0)


def test_scalar_and_array_states_agree():
    # the float path and the 1-element array path integrate the same ODE
    p = u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0)
    rhs = lambda V, t: u.lemma1_rhs(p, V, t)
    scalar = u.integrate(rhs, p.v0, 0.0, 10.0, 1e-2)
    array = u.integrate(rhs, np.array([p.v0]), 0.0, 10.0, 1e-2)
    np.testing.assert_array_equal(scalar.times, array.times)
    np.testing.assert_allclose(scalar.states, array.states, rtol=1e-12, atol=0)


def test_divergence_carries_partial_trajectory():
    # finite-time blowup of dx/dt = x^2 at t = 1
    with pytest.raises(IntegrationDiverged) as exc:
        u.integrate(lambda x, t: x * x, 1.0, 0.0, 2.0, 1e-3)
    err = exc.value
    assert err.t_last < 2.0
    assert err.trajectory.times[-1] == err.t_last
    assert np.all(np.isfinite(err.trajectory.states))


@pytest.mark.parametrize("error", [OverflowError, FloatingPointError])
def test_rhs_failure_carries_partial_trajectory(error):
    t_fail, dt = 0.503, 0.01

    def rhs(x, t):
        if t > t_fail:
            raise error("rhs out of range")
        return -x

    with pytest.raises(IntegrationDiverged) as exc:
        u.integrate(rhs, np.array([1.0]), 0.0, 1.0, dt)
    err = exc.value
    assert isinstance(err.__cause__, error)
    assert t_fail - dt < err.trajectory.times[-1] < t_fail
    assert err.trajectory.times[-1] == err.t_last
    np.testing.assert_allclose(err.trajectory.states[:, 0], np.exp(-err.trajectory.times), rtol=1e-9)


def test_basic_argument_validation():
    with pytest.raises(ValueError):
        u.integrate(lambda x, t: x, 1.0, 1.0, 1.0, 0.1)  # empty span
    with pytest.raises(ValueError):
        u.integrate(lambda x, t: x, 1.0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        u.integrate(lambda x, t: x, 1.0, 0.0, 1.0, 0.1, record_every=0)


def test_trajectory_validation_and_views():
    t = np.array([0.0, 1.0, 2.0])
    s = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
    traj = u.Trajectory(t, s, 1)
    np.testing.assert_array_equal(traj.theta[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(traj.eta, [5.0, 6.0, 7.0])
    with pytest.raises(ValueError):
        u.Trajectory(t[:2], s, 1)
    with pytest.raises(ValueError):
        u.Trajectory(t[::-1], s, 1)
    with pytest.raises(ValueError):
        u.Trajectory(t, s, 3)


def test_trajectory_csv_round_trip():
    t = np.array([0.0, 0.5])
    s = np.array([[0.1, 0.2], [0.3, 0.4]])
    traj = u.Trajectory(t, s, 1, y=np.array([1.5, 2.5]))
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,theta_1,eta,y"
    row = [float(v) for v in lines[2].split(",")]
    assert row == [0.5, 0.3, 0.4, 2.5]


def test_comparison_ode_closed_form():
    p = u.Lemma1Params(beta=0.1, eps1=1.0, eps2=1.0, p=0.5, q=1.5, v0=1.0)
    assert u.lemma1_solution(p, 0.0) == 1.0
    # hand-derived reference value: s = 2, c = 5, eps3 = 10/11,
    # V(10) = (2^5 / (1 + (10/11)(2^5.5 - 1)))^2
    assert u.lemma1_solution(p, 10.0) == pytest.approx(0.6023350887494412, rel=1e-12)


def test_closed_form_satisfies_its_ode():
    # structural check: d/dt of the closed form equals the stated rhs
    p = u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0)
    for t in (0.5, 1.0, 3.0, 10.0, 40.0):
        h = 1e-6 * max(1.0, t)
        dv_fd = (u.lemma1_solution(p, t + h) - u.lemma1_solution(p, t - h)) / (2.0 * h)
        assert dv_fd == pytest.approx(u.lemma1_rhs(p, u.lemma1_solution(p, t), t), abs=1e-8)


def test_closed_form_matches_integration():
    p = u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0)
    traj = u.integrate(lambda V, t: u.lemma1_rhs(p, V, t), p.v0, 0.0, 10.0, 1e-3, record_every=100)
    exact = np.array([u.lemma1_solution(p, t) for t in traj.times])
    np.testing.assert_allclose(traj.states[:, 0], exact, rtol=1e-10)


def test_closed_form_eventually_strictly_decreasing():
    p = u.Lemma1Params(beta=0.1, eps1=1.0, eps2=1.0, p=0.5, q=1.5, v0=1.0)
    v = np.array([u.lemma1_solution(p, t) for t in np.linspace(5.0, 100.0, 500)])
    assert np.all(np.diff(v) < 0.0)


def test_comparison_ode_parameter_validation():
    with pytest.raises(ValueError):
        u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=1.5, q=2.0, v0=1.0)  # p >= 1
    with pytest.raises(ValueError):
        u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=0.9, v0=1.0)  # q <= 1
    with pytest.raises(ValueError):
        u.Lemma1Params(beta=-0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0)
    with pytest.raises(ValueError):
        u.lemma1_rhs(u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0), -1.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    span=st.floats(0.1, 20.0),
    dt=st.floats(1e-3, 1.0),
    every=st.integers(1, 50),
)
def test_endpoints_recorded_for_any_cadence(span, dt, every):
    traj = u.integrate(lambda x, t: -0.1 * x, 1.0, 0.0, span, dt, record_every=every)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == span
    assert np.all(np.diff(traj.times) > 0.0)


def test_batch_divergence_names_its_rows():
    # dx/dt = x^2 leaves double range near t = 1/x0: the row starting at 2 does, the others do not
    x0 = np.array([[0.5], [2.0], [-1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDiverged, match=r"rows \[1\]") as exc:
            u.integrate(lambda x, t: x * x, x0, 0.0, 1.0, 1e-3)
    err = exc.value
    assert err.rows == [1]
    assert 0.45 < err.t_last < 0.55
    assert err.trajectory.states.shape[1:] == (3, 1)
    assert np.all(np.isfinite(err.trajectory.states))


def test_batch_trajectory_views():
    traj = u.integrate(lambda x, t: -x, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), 0.0, 1.0, 0.1, n=1)
    assert traj.states.shape == (11, 3, 2)
    assert traj.theta.shape == (11, 3, 1)
    np.testing.assert_array_equal(traj.eta[0], [2.0, 4.0, 6.0])
    with pytest.raises(ValueError, match="batch"):
        traj.to_csv()
    with pytest.raises(ValueError, match="shape"):
        u.integrate(lambda x, t: -x, np.ones((2, 2, 2)), 0.0, 1.0, 0.1)


def _sweep_starts():
    """The bundled omega_sweep's trial starts, then the sweep benchmark's at seed 5 (3 trials)."""
    cfg = cli.resolve_config("omega_sweep")
    seed5 = dataclasses.replace(cfg.probe, trials=3, seed=5)
    return cfg, np.vstack([_trial_starts(cfg.map, cfg.probe), _trial_starts(cfg.map, seed5)])


FOUR_CHANNELS = """
map.name = quadratic
map.q = 1, 2, 3, 4
map.theta_star = 0.5, -0.25, 1, -1
schedule.kind = exponential
schedule.lambda = 0.1
es.k = 4
es.omega = 50
es.omega_h = 3
sim.horizon = 1
"""


def _numpy_deployed_loop(p, cost):
    """The deployed loop's rhs as numpy code over a 1-D array state: the reference the float kernel
    must equal bit for bit.  cost is the map's value as numpy code."""
    n, factors = p.n, p.schedule.factor_cache()

    def rhs(x, t):
        f = factors(t)
        err = cost(x[:n]) - x[n]
        out = np.empty_like(x)
        out[:n] = f.nu * p._amp * np.cos(p._omegas * t + gain_error_term(f, p.k, err))
        out[n] = p.omega_h * err
        return out

    rhs.dither_omega_max = float(np.max(p._omegas))
    return rhs


def _assert_kernel_equals_reference(p, map_, cost, x0s, horizon):
    kernel = u.es_closed_loop(p, map_)
    reference = _numpy_deployed_loop(p, cost)
    dt = u.dither_step_bound(kernel.dither_omega_max)
    for x0 in x0s:
        want = u.integrate(reference, np.array(x0), 0.0, horizon, dt, n=map_.dim)
        got = u.integrate(kernel, tuple(x0.tolist()), 0.0, horizon, dt, n=map_.dim)
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.states, want.states)


@pytest.mark.parametrize("omega,horizon", [(10.0, 20.0), (250.0, 1.0)])
def test_float_kernel_equals_numpy_reference_on_sweep_starts(omega, horizon):
    # the float kernel keeps numpy's expressions and their order; math.cos and np.cos, and
    # Python's scalar ** and numpy's float64 scalar **, must also round alike, which is checked
    cfg, x0s = _sweep_starts()
    quartic = lambda th: 1.0 + (th[0] - 2.0) ** 4
    _assert_kernel_equals_reference(cfg.params.with_omega(omega), cfg.map, quartic, x0s, horizon)


def test_float_kernel_equals_numpy_reference_four_channels():
    cfg = config_from_text(FOUR_CHANNELS, name="four")
    q, star = np.array([1.0, 2.0, 3.0, 4.0]), cfg.map.optimum
    quadratic = lambda th: (q * (th - star) ** 2).sum(axis=-1)
    rng = np.random.default_rng(4)
    theta0s = star + rng.uniform(-1.0, 1.0, (3, 4))
    x0s = np.column_stack([theta0s, [cfg.map(th) for th in theta0s]])
    _assert_kernel_equals_reference(cfg.params, cfg.map, quadratic, x0s, cfg.horizon)


def test_readme_quick_start_runs():
    # the README's Python example, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("The same loop from Python:\n\n```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(snippet, ns)
    assert abs(ns["traj"].theta[-1, 0] - 2.0) < 1e-3
    assert ns["fit"].estimate == pytest.approx(2.8, abs=0.1)


def test_array_start_of_tuple_rhs_fails_clearly(quartic, fig3_params):
    rhs = u.es_closed_loop(fig3_params, quartic)
    dt = u.dither_step_bound(rhs.dither_omega_max)
    with pytest.raises(ValueError, match="from a tuple"):
        u.integrate(rhs, np.array([0.0, 0.0]), 0.0, 1.0, dt, n=quartic.dim)
