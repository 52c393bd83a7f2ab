"""Integrator: exactness, convergence order, records, and the comparison ODE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ueslab as u
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
