"""Integrator: exactness, convergence order, records, and the comparison ODE."""

import dataclasses
import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import arrays, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

import ueslab as u
from ueslab import cli, svgplot
from ueslab.analysis import _window_span
from ueslab.averaging import _trial_starts
from ueslab.config import config_from_text
from ueslab.errors import IntegrationDiverged
from ueslab.sim import FORMAT_BLOCK, rk4_loop, step_count


def test_rk4_exact_on_cubic_time_polynomial():
    # RK4 integrates polynomials of degree <= 4 in t without truncation error
    traj = arrays(u.integrate(lambda x, t: 3.0 * t**2, 0.0, 0.0, 2.0, 0.1))
    np.testing.assert_allclose(traj.states[:, 0], traj.times**3, rtol=0, atol=1e-12)


def test_rk4_fourth_order_convergence():
    # halving the step must shrink the global error by at least 2^3 (order 4
    # gives 2^4 away from the round-off floor)
    p = u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0)
    errs = []
    for dt in (0.25, 0.125):
        traj = arrays(u.integrate(lambda V, t: u.lemma1_rhs(p, V, t), p.v0, 0.0, 50.0, dt))
        exact = np.array([u.lemma1_solution(p, t) for t in traj.times])
        errs.append(np.max(np.abs(traj.states[:, 0] - exact)))
    assert errs[0] / errs[1] >= 8.0


# the bundled run configs, each resolved at its dt; fig2_nominal_b steps at a quarter of the bundled step, where
# its phase term turns up to 5.64 rad per step
_RESOLVED_RUNS = ["exponential_ues", "fig2_nominal_a", "fig2_nominal_b", "fig3_asymptotic_ues"]


@pytest.mark.parametrize("name", _RESOLVED_RUNS)
def test_deployed_run_converges_under_step_refinement(name):
    # the run at dt, dt/2 and dt/4, compared on the dt grid in 10 windows of the record.  (i) The dt run's error
    # estimate e1 = max |theta(dt) - theta(dt/2)| is at most 1e-3 of the window's max |theta - theta*|, finer than
    # the 4 digits run prints.  (ii) e1 / e2 >= 8, with e2 = max |theta(dt/2) - theta(dt/4)|: RK4 gives 16 per
    # halving, and 8 leaves room for pre-asymptotic windows; or e2 <= 1e-12, about 2,000 ulps at |theta| = 2, where
    # rounding accumulated over the run takes the place of truncation error
    cfg = cli.resolve_config(name)
    runs = [arrays(cli.deployed_run(dataclasses.replace(cfg, dt=cfg.dt / 2**k, record_every=2**k))) for k in range(3)]
    assert all(run.times.tobytes() == runs[0].times.tobytes() for run in runs[1:])
    for rows in np.array_split(np.arange(len(runs[0].times)), 10):
        theta = [run.theta[rows] for run in runs]
        e1, e2 = (float(np.abs(a - b).max()) for a, b in zip(theta, theta[1:]))
        scale = float(np.abs(theta[0] - cfg.map.optimum).max())
        where = f"t in [{runs[0].times[rows[0]]:g}, {runs[0].times[rows[-1]]:g}]: e1 {e1:.3g}, e2 {e2:.3g}"
        assert e1 <= 1e-3 * scale, f"{where}, scale {scale:.3g}"
        assert e1 >= 8.0 * e2 or e2 <= 1e-12, where


def test_endpoints_always_recorded():
    traj = u.integrate(lambda x, t: -x, 1.0, 0.0, 1.0, 0.03, record_every=7)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0.0)


def test_final_time_lands_exactly():
    # span not divisible by dt: the last step is shortened, never overshot
    traj = u.integrate(lambda x, t: (0.0 * x[0],), np.array([1.0]), 0.0, 1.0, 0.3)
    assert traj.times[-1] == 1.0
    assert len(traj.times) == 5  # t = 0, 0.3, 0.6, 0.9, 1.0


def test_dither_tag_enforces_step_bound():
    rhs = lambda x, t: -x
    rhs.dither_omega_max = 5.0
    with pytest.raises(ValueError, match="too coarse"):
        u.integrate(rhs, 1.0, 0.0, 1.0, 0.05)
    # right at the bound is fine
    u.integrate(rhs, 1.0, 0.0, 1.0, (2.0 * math.pi / 5.0) / 40.0)


def _float_rk4(rhs, x0, t0, t1, dt):
    """The float path ``integrate`` had before its steps became one generated loop, every step recorded:
    a closure for one RK4 step, driven by a Python loop, kept as the reference the loop's one-component
    case must equal bit for bit, its IntegrationDiverged included."""

    def advance(x, t, h, t_next):
        k1 = rhs(x, t)
        k2 = rhs(x + (0.5 * h) * k1, t + 0.5 * h)
        k3 = rhs(x + (0.5 * h) * k2, t + 0.5 * h)
        k4 = rhs(x + h * k3, t_next)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    x, n_steps, t = float(x0), step_count(t0, t1, dt), t0
    times, rows = [t0], [[x]]
    recorded = lambda: u.Trajectory(np.asarray(times), np.ravel(rows), 1)
    for step in range(1, n_steps + 1):
        t_next = t1 if step == n_steps else t0 + step * dt
        h = t_next - t
        try:
            x = advance(x, t, h, t_next)
        except (OverflowError, FloatingPointError) as e:
            raise IntegrationDiverged(
                f"right-hand side failed in the step from t = {t:g}: {e}", t_last=times[-1], trajectory=recorded()
            ) from e
        t = t_next
        if not math.isfinite(x):
            raise IntegrationDiverged(f"state became non-finite at t = {t:g}", t_last=times[-1], trajectory=recorded())
        times.append(t)
        rows.append([x])
    return recorded()


def _float_outcomes(rhs, x0, t0, t1, dt):
    """(integrate's outcome, the reference's outcome): a Trajectory, or the IntegrationDiverged raised."""
    outcomes = []
    for run in (u.integrate, _float_rk4):
        try:
            outcomes.append(run(rhs, x0, t0, t1, dt))
        except IntegrationDiverged as e:
            outcomes.append(e)
    return outcomes


def test_float_loop_equals_removed_closure_on_lemma1():
    p = u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0)
    got, want = _float_outcomes(lambda V, t: u.lemma1_rhs(p, V, t), p.v0, 0.0, 10.0, 1e-3)
    _assert_same_bits(got, want)


def _fails_after(t_fail):
    def rhs(x, t):
        if t > t_fail:
            raise OverflowError("rhs out of range")
        return -x

    return rhs


@pytest.mark.parametrize("rhs,cause", [
    (lambda x, t: x * x, None),  # dx/dt = x^2 leaves double range as inf near t = 1
    (lambda x, t: math.exp(x), OverflowError),  # dx/dt = e^x: math.exp raises near t = 1
    (_fails_after(0.503), OverflowError),
], ids=["non-finite", "math-range", "raised"])
def test_float_loop_equals_removed_closure_on_divergence(rhs, cause):
    got, want = _float_outcomes(rhs, 1.0 if cause is None else 0.0, 0.0, 2.0, 1e-3)
    assert isinstance(got, IntegrationDiverged) and isinstance(want, IntegrationDiverged)
    assert str(got) == str(want)
    assert got.t_last == want.t_last
    assert type(got.__cause__) is type(want.__cause__) is (cause or type(None))
    _assert_same_bits(got.trajectory, want.trajectory)


def test_scalar_and_array_states_agree():
    # a float start and a 1-element array start, the loop with its one state left unpacked or not, give the same bits
    p = u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0)
    scalar = u.integrate(lambda V, t: u.lemma1_rhs(p, V, t), p.v0, 0.0, 10.0, 1e-2)
    array = u.integrate(lambda V, t: (u.lemma1_rhs(p, V[0], t),), np.array([p.v0]), 0.0, 10.0, 1e-2)
    np.testing.assert_array_equal(scalar.times, array.times)
    np.testing.assert_array_equal(arrays(scalar).states, arrays(array).states)


def test_divergence_carries_partial_trajectory():
    # finite-time blowup of dx/dt = x^2 at t = 1
    with pytest.raises(IntegrationDiverged) as exc:
        u.integrate(lambda x, t: x * x, 1.0, 0.0, 2.0, 1e-3)
    err = exc.value
    assert err.t_last < 2.0
    assert err.trajectory.times[-1] == err.t_last
    assert np.all(np.isfinite(arrays(err.trajectory).states))


@pytest.mark.parametrize("i", range(3))
def test_divergence_in_any_component_stops_where_the_float_run_stops(i):
    # component i follows dx/dt = x^2, the others stay put: the run stops at the float run's step
    with pytest.raises(IntegrationDiverged) as scalar:
        u.integrate(lambda x, t: x * x, 1.0, 0.0, 2.0, 1e-3)
    rates = lambda x, t: tuple(x_j * x_j if j == i else 0.0 for j, x_j in enumerate(x))
    with pytest.raises(IntegrationDiverged, match="non-finite") as exc:
        u.integrate(rates, (1.0, 1.0, 1.0), 0.0, 2.0, 1e-3)
    assert str(exc.value) == str(scalar.value)
    assert exc.value.t_last == scalar.value.t_last
    assert arrays(exc.value.trajectory).states[:, i].tobytes() == arrays(scalar.value.trajectory).states[:, 0].tobytes()


@pytest.mark.parametrize("error", [OverflowError, FloatingPointError])
def test_rhs_failure_carries_partial_trajectory(error):
    t_fail, dt = 0.503, 0.01

    def rhs(x, t):
        if t > t_fail:
            raise error("rhs out of range")
        return (-x[0],)

    with pytest.raises(IntegrationDiverged) as exc:
        u.integrate(rhs, np.array([1.0]), 0.0, 1.0, dt)
    err = exc.value
    assert isinstance(err.__cause__, error)
    assert t_fail - dt < err.trajectory.times[-1] < t_fail
    assert err.trajectory.times[-1] == err.t_last
    np.testing.assert_allclose(arrays(err.trajectory).states[:, 0], np.exp(-arrays(err.trajectory).times), rtol=1e-9)


def test_basic_argument_validation():
    with pytest.raises(ValueError):
        u.integrate(lambda x, t: x, 1.0, 1.0, 1.0, 0.1)  # empty span
    with pytest.raises(ValueError):
        u.integrate(lambda x, t: x, 1.0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        u.integrate(lambda x, t: x, 1.0, 0.0, 1.0, 0.1, record_every=0)
    # a non-finite t0, t1 or dt is refused before the step count, where t1 = inf overflows, a NaN fails to become
    # an int and dt = inf makes one step
    for t0, t1, dt, message in ((0.0, math.inf, 0.1, "t1 = inf must exceed t0 = 0.0"),
                                (math.nan, 1.0, 0.1, "t1 = 1.0 must exceed t0 = nan"),
                                (0.0, math.nan, 0.1, "t1 = nan must exceed t0 = 0.0"),
                                (0.0, 1.0, math.nan, "dt must be positive, got nan"),
                                (0.0, 1.0, math.inf, "dt must be positive, got inf")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            u.integrate(lambda x, t: x, 1.0, t0, t1, dt)


@pytest.mark.parametrize("rhs,x0,message", [
    (lambda x, t: (x,), 1.0, r"rates of shape \(1,\) for a start of shape \(\)"),
    (lambda x, t: -x, (1.0,), r"cannot take a start of shape \(1,\): bad operand type"),
], ids=["float-start-tuple-rates", "tuple-start-float-rhs"])
def test_start_of_wrong_kind_for_rhs_raises_value_error(rhs, x0, message):
    # the loop's TypeError is diagnosed by one rhs call at the start
    with pytest.raises(ValueError, match=message) as exc:
        u.integrate(rhs, x0, 0.0, 1.0, 0.1)
    assert isinstance(exc.value.__cause__, TypeError)


def test_late_type_error_from_rhs_stays_type_error():
    # an rhs that takes the start and returns its shape: the TypeError is its own, and is raised as it is
    def rhs(x, t):
        if t > 0.5:
            raise TypeError("rhs fails late")
        return -x

    with pytest.raises(TypeError, match="rhs fails late"):
        u.integrate(rhs, 1.0, 0.0, 1.0, 0.1)


def test_trajectory_validation_and_views():
    t = np.array([0.0, 1.0, 2.0])
    s = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
    traj = u.Trajectory(t, s.ravel(), 1)
    np.testing.assert_array_equal(arrays(traj).theta[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(arrays(traj).eta, [5.0, 6.0, 7.0])
    with pytest.raises(ValueError):
        u.Trajectory(t[:2], s.ravel(), 1)
    with pytest.raises(ValueError):
        u.Trajectory(t[::-1], s.ravel(), 1)
    with pytest.raises(ValueError):
        u.Trajectory(t, s.ravel(), 3)


def test_step_below_the_time_resolution_is_refused_by_the_record():
    # at t = 1e17 a double moves in steps of 16, so 64 steps of 1.0 record repeated times; the generated loop checks
    # states, not times, and the record's order scan is the only guard against such a call
    with pytest.raises(ValueError, match="^sample times must be strictly increasing$"):
        u.integrate(lambda x, t: -x, 1.0, 1e17, 1e17 + 64.0, 1.0)


def test_trajectory_csv_round_trip():
    t = np.array([0.0, 0.5])
    s = np.array([[0.1, 0.2], [0.3, 0.4]])
    traj = u.Trajectory(t, s.ravel(), 1, y=np.array([1.5, 2.5]))
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,theta_1,eta,y"
    row = [float(v) for v in lines[2].split(",")]
    assert row == [0.5, 0.3, 0.4, 2.5]


@pytest.mark.parametrize("m", [1, FORMAT_BLOCK, 2 * FORMAT_BLOCK + 1])
@pytest.mark.parametrize("eta", [False, True])
@pytest.mark.parametrize("y", [False, True])
def test_csv_blocks_equal_one_shot_formatting(m, eta, y):
    # one row, one full block, and three blocks of which the last holds one row; the reference formats all
    # rows with one template at once
    rng = np.random.default_rng(m)
    times = np.cumsum(rng.uniform(1e-3, 1.0, m))
    states = rng.standard_normal((m, 3 if eta else 2)) * 10.0 ** rng.uniform(-5, 5, (m, 1))
    cost = rng.standard_normal(m) if y else None
    data = np.hstack([times[:, None], states] + ([cost[:, None]] if y else []))
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    text = u.Trajectory(times, states.ravel(), 2, cost).to_csv()
    assert text.split("\n", 1)[1] == (row * len(data)) % tuple(data.ravel().tolist())


def test_recording_and_csv_memory_per_row():
    # exponential_ues recorded at every step: a row of the record costs about its 24 bytes of floats, not a list
    # of float objects, and the CSV text is built without holding several copies of itself
    cfg = cli.resolve_config("exponential_ues")
    rhs, x0, t0 = u.es_closed_loop(cfg.params, cfg.map), (*cfg.theta0.tolist(), cfg.eta0), cfg.params.schedule.t0
    u.integrate(rhs, x0, t0, t0 + 1.0, cfg.dt, n=1)  # compiles the loop before the traced run
    traj, peak = traced_peak(lambda: u.integrate(rhs, x0, t0, t0 + cfg.horizon, cfg.dt, n=1))
    assert len(traj.times) == step_count(t0, t0 + cfg.horizon, cfg.dt) + 1
    assert peak <= 64 * len(traj.times)
    text, peak = traced_peak(cli.measured(traj, cfg.map).to_csv)
    assert peak <= 3 * len(text)


def test_run_artifacts_and_cost_column_memory(tmp_path):
    # exponential_ues recorded at every step: run's y column costs about its 8 bytes a row, the rate fit holds one
    # distance per window sample, and the CSV and the SVG go to their files FORMAT_BLOCK rows at a time, so every
    # stage holds the record and little more
    cfg = cli.resolve_config("exponential_ues")
    traj = cli.deployed_run(cfg)
    traj, peak = traced_peak(lambda: cli.measured(traj, cfg.map))
    assert peak <= 16 * len(traj.times)
    # the window's distances are 8 bytes a sample and its times a view of the record's: 1.46x measured
    start, end = _window_span(traj.times, cfg.fit_window)
    _, peak = traced_peak(lambda: u.fit_exp_rate(traj, cfg.map.optimum, cfg.fit_window))
    assert peak <= 1.8 * 8 * (end - start)
    # one 256-row block's floats and text at a time: 0.039x the bytes written measured
    _, peak = traced_peak(lambda: cli._write_run_artifacts(cfg, tmp_path, traj, []))
    names = [f"exponential_ues{suffix}" for suffix in (".fits.csv", ".svg", ".trajectory.csv")]
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    assert peak <= 0.08 * sum(path.stat().st_size for path in tmp_path.iterdir())
    # all samples finite: the SVG alone holds one block's formatting and no copy of the samples, 0.083x its size
    # measured
    series = [(traj.times, traj.column(0), "theta_1"), (traj.times, traj.y, "y")]
    svg = tmp_path / "alone.svg"
    _, peak = traced_peak(lambda: cli._write_streamed(svg, svgplot.line_plot_blocks(series, cfg.name)))
    assert svg.read_bytes() == (tmp_path / "exponential_ues.svg").read_bytes()
    assert peak <= 0.15 * svg.stat().st_size


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
    traj = arrays(u.integrate(lambda V, t: u.lemma1_rhs(p, V, t), p.v0, 0.0, 10.0, 1e-3, record_every=100))
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
    for beta, eps1 in ((1e-320, 0.2), (1.0, 1e308)):  # eps3 = inf / inf, and eps3 = inf
        with pytest.raises(ValueError, match="eps3 .* must be finite and positive"):
            u.Lemma1Params(beta=beta, eps1=eps1, eps2=0.3, p=0.5, q=3.0, v0=1.0)
    for v0 in ("nan", "inf"):  # neither enters eps3, and NaN fails `v0 <= 0`
        with pytest.raises(ValueError, match=f"^v0 > 0 required, got {v0}$"):
            u.Lemma1Params(beta=0.5, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=float(v0))


def test_closed_form_refuses_values_out_of_double_range():
    # s = 1 + beta t overflows to inf past t = 1.797
    p = u.Lemma1Params(beta=1e308, eps1=0.2, eps2=0.3, p=0.5, q=2.0, v0=1.0)
    assert math.isfinite(u.lemma1_solution(p, 1.79))
    with pytest.raises(FloatingPointError, match="closed form left double range at t = 1.8 "):
        u.lemma1_solution(p, 1.8)
    # with c = 200, s^c alone overflows past s = 10^1.54, where V is still finite: past t = 10, s^(c+1-p)
    # outgrows v0^(1-q) by more than 2^53, and V rounds to its limit (s^(p-1) / eps3)^(1/(q-1))
    p = u.Lemma1Params(beta=1.0, eps1=0.2, eps2=100.0, p=0.5, q=3.0, v0=1.0)
    for t in (10.0, 100.0, 1e300):
        assert u.lemma1_solution(p, t) == pytest.approx(((1.0 + t) ** -0.5 / p.eps3) ** 0.5, rel=1e-15)


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


def test_two_dimensional_start_is_refused():
    calls = []

    def rhs(x, t):
        calls.append(t)
        return x

    # a (B, d) batch, even one whose row starting at 2 would diverge, is refused before any step
    for x0 in (np.ones((3, 2)), [[1.0], [2.0]], np.array([[0.5], [2.0], [-1.0]])):
        with pytest.raises(ValueError, match="takes one state"):
            u.integrate(rhs, x0, 0.0, 1.0, 0.1)
    assert calls == []


def test_empty_start_is_refused_before_the_first_step():
    calls = []

    def rhs(x, t):
        calls.append(t)
        return ()

    for x0 in ((), [], np.array([])):
        with pytest.raises(ValueError, match=r"takes one state.*got shape \(0,\)"):
            u.integrate(rhs, x0, 0.0, 10.0, 1e-4)
    assert calls == []


def test_three_dimensional_state_record_is_refused():
    with pytest.raises(ValueError, match="takes one state"):
        u.integrate(lambda x, t: x, np.ones((2, 2, 2)), 0.0, 1.0, 0.1)
    with pytest.raises(ValueError, match=r"states \(m, d\)"):
        u.Trajectory(np.arange(3.0), np.ones((3, 2, 1)), 1)


@pytest.mark.parametrize("n", [0, 3])
def test_n_outside_state_width_is_refused_before_the_first_step(n):
    calls = []

    def rhs(x, t):
        calls.append(t)
        return (1.0, 2.0)

    with pytest.raises(ValueError, match=f"n = {n} incompatible with state width 2"):
        u.integrate(rhs, (1.0, 2.0), 0.0, 200.0, 1e-3, n=n)
    assert calls == []


def test_state_neither_theta_nor_theta_eta_is_refused():
    # a state is [theta...] (width n) or [theta..., eta] (width n + 1): a width-3 record with n = 1 once gave the CSV
    # 't,theta_1\n0,1\n1,4\n', dropping two columns; integrate refuses it before the first step
    with pytest.raises(ValueError, match=r"n = 1 incompatible with state width 3: a state is \[theta...\] or"):
        u.Trajectory([0.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 1)
    calls = []

    def rhs(x, t):
        calls.append(t)
        return (1.0, 2.0, 3.0)

    with pytest.raises(ValueError, match="n = 1 incompatible with state width 3"):
        u.integrate(rhs, (1.0, 2.0, 3.0), 0.0, 200.0, 1e-3, n=1)
    assert calls == []
    for n in (2, 3):
        assert u.integrate(rhs, (1.0, 2.0, 3.0), 0.0, 0.01, 1e-3, n=n).to_csv().startswith("t,theta_1,theta_2,")


def test_n_outside_state_width_is_refused_on_a_diverging_run():
    # dx/dt = x^2 leaves double range near t = 1: the bad n is named, not the divergence
    with pytest.raises(ValueError, match="n = 2 incompatible with state width 1"):
        u.integrate(lambda x, t: (x[0] * x[0],), (1.0,), 0.0, 2.0, 1e-3, n=2)


def _numpy_rk4(rhs, x0, t0, t1, dt):
    """Classical RK4 on a 1-D numpy array, every step recorded: the array path ``integrate`` had,
    kept as the reference the generated loop must equal bit for bit.  Returns (times, states)."""
    x = np.array(x0, dtype=float)
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    times, states, t = [t0], [x], t0
    for step in range(1, n_steps + 1):
        t_next = t1 if step == n_steps else t0 + step * dt
        h = t_next - t
        k1 = rhs(x, t)
        k2 = rhs(x + (0.5 * h) * k1, t + 0.5 * h)
        k3 = rhs(x + (0.5 * h) * k2, t + 0.5 * h)
        k4 = rhs(x + h * k3, t_next)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_next
        times.append(t)
        states.append(x)
    return np.array(times), np.array(states)


def _sweep_starts():
    """The bundled omega_sweep's trial starts, then the sweep benchmark's at seed 5 (3 trials)."""
    cfg = cli.resolve_config("omega_sweep")
    seed5 = dataclasses.replace(cfg.probe, trials=3, seed=5)
    return cfg, np.vstack([_trial_starts(cfg.map, cfg.probe), _trial_starts(cfg.map, seed5)])


def _quadratic_config(n):
    """A loop on the n-channel quadratic with weights 1..n under an exponential schedule."""
    text = f"""
map.name = quadratic
map.q = {", ".join(str(i + 1) for i in range(n))}
map.theta_star = {", ".join(["0.5", "-0.25", "1", "-1"][:n])}
schedule.kind = exponential
schedule.lambda = 0.1
es.k = 4
es.omega = 50
es.omega_h = 3
sim.horizon = 1
"""
    return config_from_text(text, name=f"quadratic{n}")


def _numpy_deployed_loop(p, cost):
    """The deployed loop's rhs as numpy code over a 1-D array state (theta..., eta - J*): the reference the float
    kernel must equal bit for bit.  cost is the map's centered value J - J* as numpy code."""
    n = p.n
    amp, omegas, k = np.asarray(p._amp), np.asarray(p.omegas), np.asarray(p.k)

    def rhs(x, t):
        f = p.schedule.factors(t)
        err = cost(x[:n]) - x[n]
        out = np.empty_like(x)
        out[:n] = f.nu * amp * np.cos(omegas * t + f.phi * err * k)
        out[n] = p.omega_h * err
        return out

    rhs.dither_omega_max = float(np.max(p.omegas))
    return rhs


def _assert_kernel_equals_reference(kernel, reference, x0s, horizon, dt, n):
    for x0 in x0s:
        want_times, want_states = _numpy_rk4(reference, x0, 0.0, horizon, dt)
        got = arrays(u.integrate(kernel, tuple(x0.tolist()), 0.0, horizon, dt, n=n))
        np.testing.assert_array_equal(got.times, want_times)
        np.testing.assert_array_equal(got.states, want_states)


@pytest.mark.parametrize("omega,horizon", [(10.0, 20.0), (250.0, 1.0)])
def test_float_kernel_equals_numpy_reference_on_sweep_starts(omega, horizon):
    # the float kernel keeps numpy's expressions and their order; math.cos and np.cos, and
    # Python's scalar ** and numpy's float64 scalar **, must also round alike, which is checked.
    # The loop and its starts carry eta - J*, so the reference takes the centered cost
    cfg, x0s = _sweep_starts()
    quartic = lambda th: (th[0] - 2.0) ** 4
    p = cfg.params.with_omega(omega)
    dt = u.dither_step_bound(omega)
    _assert_kernel_equals_reference(u.es_closed_loop(p, cfg.map), _numpy_deployed_loop(p, quartic), x0s, horizon, dt, 1)


def _assert_quadratic_kernel_equals_reference(n):
    cfg = _quadratic_config(n)
    q, star = np.arange(1.0, n + 1.0), cfg.map.optimum
    quadratic = lambda th: (q * (th - star) ** 2).sum(axis=-1)
    rng = np.random.default_rng(4)
    theta0s = star + rng.uniform(-1.0, 1.0, (3, n))
    x0s = np.column_stack([theta0s, [cfg.map(th) for th in theta0s]])
    kernel, reference = u.es_closed_loop(cfg.params, cfg.map), _numpy_deployed_loop(cfg.params, quadratic)
    _assert_kernel_equals_reference(kernel, reference, x0s, cfg.horizon, u.dither_step_bound(kernel.dither_omega_max), n)


def test_float_kernel_equals_numpy_reference_four_channels():
    _assert_quadratic_kernel_equals_reference(4)


@pytest.mark.parametrize("n", [2, 3])
def test_float_kernel_equals_numpy_reference_quadratic(n):
    # the rhs is compiled per channel count, so each count is its own code
    _assert_quadratic_kernel_equals_reference(n)


def _numpy_transformed_drift(p, map_, z, f):
    """The transformed drift b0 and the error as numpy code over a 1-D array z: the reference the generated
    stage text must equal."""
    n = p.n
    eta_f = z[n]
    xi2k = math.exp(2.0 * map_.kappa * f.log_xi)
    jf = map_.centered(map_.optimum + z[:n] * f.nu)
    b0 = f.g * z
    b0[n] = (2.0 * map_.kappa * f.g - p.omega_h) * eta_f + p.omega_h * xi2k * jf
    return b0, jf - eta_f / xi2k


def _numpy_transformed_loop(p, map_):
    """The transformed loop's rhs as numpy code over a 1-D array state."""
    n = p.n
    amp, omegas, k = np.asarray(p._amp), np.asarray(p.omegas), np.asarray(p.k)

    def rhs(x, t):
        f = p.schedule.factors(t)
        out, err = _numpy_transformed_drift(p, map_, x, f)
        out[:n] += amp * np.cos(omegas * t + f.phi * err * k)
        return out

    return rhs


def _numpy_averaged_loop(p, map_, grad):
    """The averaged loop's rhs as numpy code over a 1-D array state; grad is the map's gradient as numpy code."""
    n = p.n
    k, alpha = np.asarray(p.k), np.asarray(p.alpha)

    def rhs(x, t):
        f = p.schedule.factors(t)
        out = _numpy_transformed_drift(p, map_, x, f)[0]
        out[:n] -= 0.5 * k * alpha * f.phi * (grad(map_.optimum + x[:n] / f.xi) / f.xi)
        return out

    return rhs


def _comparison_case(case, quartic, fig3_params):
    """(params, map, gradient as numpy code, transformed starts, horizon): fig3's quartic from the
    sweep starts, or the n-channel quadratic from seeded starts."""
    if case == "quartic":
        grad = lambda th: np.array([4.0 * (th[0] - 2.0) ** 3])
        return fig3_params, quartic, grad, _sweep_starts()[1] - [2.0, 1.0], 20.0
    cfg = _quadratic_config(case)
    q, star = np.arange(1.0, case + 1.0), cfg.map.optimum
    rng = np.random.default_rng(4)
    z0s = rng.uniform(-1.0, 1.0, (3, case + 1))
    return cfg.params, cfg.map, lambda th: 2.0 * q * (th - star), z0s, cfg.horizon


@pytest.mark.parametrize("case", ["quartic", 2, 3])
def test_transformed_kernel_equals_numpy_reference(case, quartic, fig3_params):
    p, map_, _, z0s, horizon = _comparison_case(case, quartic, fig3_params)
    kernel = u.transformed_closed_loop(p, map_)
    dt = u.dither_step_bound(kernel.dither_omega_max)
    _assert_kernel_equals_reference(kernel, _numpy_transformed_loop(p, map_), z0s, horizon, dt, p.n)


@pytest.mark.parametrize("case", ["quartic", 2, 3])
def test_averaged_kernel_equals_numpy_reference(case, quartic, fig3_params):
    p, map_, grad, z0s, horizon = _comparison_case(case, quartic, fig3_params)
    dt = u.dither_step_bound(float(np.max(p.omegas)))
    _assert_kernel_equals_reference(u.averaged_closed_loop(p, map_), _numpy_averaged_loop(p, map_, grad), z0s, horizon, dt, p.n)


@pytest.mark.parametrize("d", range(1, 7))
def test_tuple_step_equals_array_step(d):
    # one linear system whose rates are computed in Python floats for both state types
    rng = np.random.default_rng(d)
    a, b = rng.uniform(-1.0, 1.0, (d, d)).tolist(), rng.uniform(-1.0, 1.0, d).tolist()

    def rates(x, t):
        out = []
        for row, b_i in zip(a, b):
            acc = b_i * math.cos(t)
            for a_ij, x_j in zip(row, x):
                acc += a_ij * x_j
            out.append(acc)
        return out

    x0 = rng.uniform(-1.0, 1.0, d)
    got = arrays(u.integrate(lambda x, t: tuple(rates(x, t)), tuple(x0.tolist()), 0.0, 3.0, 0.01))
    want_times, want_states = _numpy_rk4(lambda x, t: np.array(rates(x.tolist(), t)), x0, 0.0, 3.0, 0.01)
    np.testing.assert_array_equal(got.times, want_times)
    np.testing.assert_array_equal(got.states, want_states)


@pytest.mark.parametrize("rates", [(1.0, 2.0, 3.0), (1.0,)])
def test_tuple_rhs_of_wrong_width_fails_at_first_step(rates):
    calls = []

    def rhs(x, t):
        calls.append(t)
        return rates

    with pytest.raises(ValueError, match="values to unpack"):
        u.integrate(rhs, (0.0, 0.0), 0.0, 1.0, 0.1)
    assert calls == [0.0]


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3])
_FINITE = _EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_csv_rows_equal_per_value_formatting(data):
    m, d = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    n = data.draw(st.integers(max(1, d - 1), d))
    times = sorted(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=m, max_size=m, unique=True)))
    states = data.draw(st.lists(st.lists(_FINITE, min_size=d, max_size=d), min_size=m, max_size=m))
    y = data.draw(st.none() | st.lists(st.floats(), min_size=m, max_size=m))
    traj = u.Trajectory(np.array(times), np.ravel(states), n, None if y is None else np.array(y))
    view = arrays(traj)
    columns = [view.times[:, None], view.states] + ([] if y is None else [view.y[:, None]])
    want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in np.hstack(columns).tolist())
    assert traj.to_csv().split("\n", 1)[1] == want


def test_readme_quick_start_runs():
    # the README's Python example, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("The same loop from Python:\n\n```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(snippet, ns)
    assert abs(arrays(ns["traj"]).theta[-1, 0] - 2.0) < 1e-3
    assert ns["fit"].estimate == pytest.approx(2.8, abs=0.1)
    # the bundled fig3 run from Python is the hand-assembled loop above, bit for bit, once both record alike:
    # the hand trajectory measured as deployed_run measures its own, J* back in the eta column and y set
    hand = cli.measured(ns["traj"], ns["m"])
    exec(readme.split("starts and what it records.\n\n```python\n", 1)[1].split("```", 1)[0], ns)
    assert ns["traj"].rows.tobytes() == hand.rows.tobytes()
    assert ns["traj"].y.tobytes() == hand.y.tobytes()
    assert ns["fine"].times.tobytes() == hand.times.tobytes()


def test_list_and_array_starts_equal_tuple_start(quartic, fig3_params):
    rhs = u.es_closed_loop(fig3_params, quartic)
    dt = u.dither_step_bound(rhs.dither_omega_max)
    want = u.integrate(rhs, (0.5, 17.0), 0.0, 5.0, dt, n=quartic.dim)
    for x0 in ([0.5, 17.0], np.array([0.5, 17.0])):
        got = u.integrate(rhs, x0, 0.0, 5.0, dt, n=quartic.dim)
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(arrays(got).states, arrays(want).states)


def _fused_and_called(rhs, x0, t0, t1, dt, n):
    """integrate on rhs, which runs its own RK4 loop, and on a functools.wraps wrapper of it, which
    copies its tags and is called: (outcome, outcome, wrapper calls), where an outcome is the
    Trajectory or the IntegrationDiverged or ValueError raised."""
    calls = [0]

    @functools.wraps(rhs)
    def wrapper(x, t):
        calls[0] += 1
        return rhs(x, t)

    assert wrapper.rk4_loop[0] is rhs
    outcomes = []
    for f in (rhs, wrapper):
        try:
            outcomes.append(u.integrate(f, x0, t0, t1, dt, n=n))
        except (IntegrationDiverged, ValueError) as e:
            outcomes.append(e)
    return outcomes[0], outcomes[1], calls[0]


def _assert_same_bits(a, b):
    assert a.times.tobytes() == b.times.tobytes()
    assert a.rows.tobytes() == b.rows.tobytes()


def _assert_fused_equals_called(rhs, x0, t0, t1, dt, n):
    """Both paths give the same bits, or raise the same error after the same partial trajectory; a
    run that ends calls the wrapper 4 times per step.  Returns the fused path's outcome."""
    fused, called, calls = _fused_and_called(rhs, x0, t0, t1, dt, n)
    assert type(called) is type(fused)
    if isinstance(fused, u.Trajectory):
        _assert_same_bits(fused, called)
        assert calls == 4 * step_count(t0, t1, dt)
    else:
        assert str(called) == str(fused)
        if isinstance(fused, IntegrationDiverged):
            assert called.t_last == fused.t_last
            _assert_same_bits(fused.trajectory, called.trajectory)
    return fused


# the bundled run configs, one per schedule kind or more, and a 4-channel quadratic
_RUNS = ["fig2_nominal_a", "fig2_nominal_b", "fig3_asymptotic_ues", "exponential_ues", "quadratic4"]


def _run_config(name):
    return _quadratic_config(4) if name == "quadratic4" else cli.resolve_config(name)


def _frame_loops(cfg):
    """The averaged loop of cfg and its transformed loop where the frame is defined, and the transformed
    start matched to cfg's start."""
    loops = [u.averaged_closed_loop(cfg.params, cfg.map)]
    if cfg.params.schedule.kind != "nominal":
        loops.append(u.transformed_closed_loop(cfg.params, cfg.map))
    return loops, (*(np.asarray(cfg.theta0) - cfg.map.optimum).tolist(), cfg.eta0 - cfg.map.optimal_value)


@pytest.mark.parametrize("name", _RUNS)
def test_fused_step_equals_call_path_on_runs(name):
    # the deployed loop integrated as `run` integrates it, then the averaged loop on every schedule kind and
    # the transformed loop where its frame is defined, from the matched start
    cfg = _run_config(name)
    n, t0 = cfg.params.n, cfg.params.schedule.t0
    frame_loops, z0 = _frame_loops(cfg)
    for rhs, x0 in [(u.es_closed_loop(cfg.params, cfg.map), (*cfg.theta0.tolist(), cfg.eta0))] + [(f, z0) for f in frame_loops]:
        traj = _assert_fused_equals_called(rhs, x0, t0, t0 + cfg.horizon, cfg.dt, n)
        assert isinstance(traj, u.Trajectory)


@pytest.mark.parametrize("name", _RUNS)
def test_run_loop_locals_shadow_no_namespace_name(name):
    # the loop's text runs in the namespace of the rhs's names (the schedule's t0 among them): a local of the
    # same name would hide that name from every stage; the deployed loop, then the frame loops
    cfg = _run_config(name)
    loops = [u.es_closed_loop(cfg.params, cfg.map)] + _frame_loops(cfg)[0]
    for rhs in loops:
        run = rk4_loop(rhs, (cfg.params.n + 1,))
        assert {"t0", "factors", "omega_h"} <= set(run.__globals__)
        assert not set(run.__code__.co_varnames) & set(run.__globals__)
        assert not set(rhs.__code__.co_varnames) & set(rhs.__globals__)


def test_frame_loops_diverge_alike_on_both_paths():
    # phi = xi^(2 kappa) = e^(0.2 (t - t0)) leaves double range at t = 3548.91, and phi's range test comes
    # first in every stage, so both loops raise its named error; with omega_h < 1 and k_i alpha_i / 2 < 1 no
    # product overflows first: a run from 3548.8 raises in a step past its start, one from 3549 in its first step
    m = u.quadratic(q=[1.0, 2.0], theta_star=[0.5, -0.25])
    p = u.assemble(m, u.Schedule("exponential", lam=0.1), alpha=1.0, k=1.0, omega=50.0, omega_h=0.5)
    dt = u.dither_step_bound(float(np.max(p.omegas)))
    for rhs in (u.averaged_closed_loop(p, m), u.transformed_closed_loop(p, m)):
        for t_start in (3548.8, 3549.0):
            out = _assert_fused_equals_called(rhs, (0.1, -0.2, 0.3), t_start, t_start + 0.2, dt, 2)
            assert isinstance(out, IntegrationDiverged) and isinstance(out.__cause__, OverflowError)
            assert re.fullmatch(f"right-hand side failed in the step from t = {out.t_last:g}: gain multiplier phi "
                                r"exceeds double range at t = 354\d(\.\d+)? \(exponential schedule\)", str(out))
            assert out.t_last == 3549.0 if t_start == 3549.0 else 3548.9 < out.t_last < 3548.92


@pytest.mark.parametrize("schedule", [
    u.Schedule("nominal", t0=1.5),
    u.Schedule("asymptotic", beta=0.1, v=1.0 / 3.0, r=4.0, t0=1.5),
    u.Schedule("exponential", lam=0.1, t0=1.5),
], ids=lambda s: s.kind)
def test_fused_step_equals_call_path_after_schedule_start(schedule, quartic):
    # the loop's start time is its own, not the schedule's t0
    p = u.assemble(quartic, schedule, alpha=1.0, k=0.3, omega=5.0, omega_h=3.0)
    traj = _assert_fused_equals_called(u.es_closed_loop(p, quartic), (0.5, 17.0), 4.0, 6.0, u.dither_step_bound(5.0), 1)
    assert isinstance(traj, u.Trajectory)


@pytest.mark.parametrize("omega", [10.0, 50.0, 250.0])
def test_fused_step_equals_call_path_on_probe_omegas(omega):
    cfg, x0s = _sweep_starts()
    rhs = u.es_closed_loop(cfg.params.with_omega(omega), cfg.map)
    traj = _assert_fused_equals_called(rhs, tuple(x0s[0].tolist()), 0.0, cfg.probe.horizon, u.dither_step_bound(omega), 1)
    assert isinstance(traj, u.Trajectory)


def _quadratic_loop(lam, t0=0.0):
    m = u.quadratic(q=[1.0, 2.0], theta_star=[0.5, -0.25])
    p = u.assemble(m, u.Schedule("exponential", lam=lam, t0=t0), alpha=1.0, k=10.0, omega=50.0, omega_h=3.0)
    return m, p, u.es_closed_loop(p, m)


def test_fused_step_equals_call_path_on_edge_branches(quartic, fig3_params):
    fig3 = u.es_closed_loop(fig3_params, quartic)
    dt3 = u.dither_step_bound(fig3.dither_omega_max)
    m, p, quad = _quadratic_loop(0.1)
    dtq = u.dither_step_bound(quad.dither_omega_max)
    # err == 0 exactly at the first stage: theta = theta*, eta = J(theta*)
    for rhs, x0, dt in ((fig3, (2.0, 1.0), dt3), (quad, (0.5, -0.25, 0.0), dtq)):
        assert isinstance(_assert_fused_equals_called(rhs, x0, 0.0, 2.0, dt, len(x0) - 1), u.Trajectory)
    # tiny errors
    for eta in (-1e-300, 5e-324, -2.2e-308):
        assert isinstance(_assert_fused_equals_called(quad, (0.5, -0.25, eta), 0.0, 0.5, dtq, 2), u.Trajectory)
    # phi = e^(2 t) leaves double range at t = 354.89, where phi * err with err near 1e-250 is still
    # finite: both paths raise in the same step
    _, _, steep = _quadratic_loop(1.0)
    out = _assert_fused_equals_called(steep, (0.5, -0.25, -1e-250), 354.8, 355.0, dtq, 2)
    assert isinstance(out, IntegrationDiverged) and isinstance(out.__cause__, OverflowError)
    assert 354.8 < out.t_last < 354.9
    # cos(+-inf) gives NaN rates, and both paths stop at the non-finite state
    for eta in (-1e300, 1e300):
        out = _assert_fused_equals_called(fig3, (2.0, eta), 100.0, 101.0, dt3, 1)
        assert isinstance(out, IntegrationDiverged) and out.t_last == 100.0
    # a start before the schedule's t0
    _, _, late = _quadratic_loop(0.1, t0=5.0)
    out = _assert_fused_equals_called(late, (1.0, 0.0, 0.0), 0.0, 1.0, dtq, 2)
    assert isinstance(out, ValueError) and "precedes schedule start" in str(out)


def test_deployed_rhs_takes_phi_times_error_on_edge_branches():
    # the stage text's phase against f.phi * err, through the numpy reference: zero and tiny errors in
    # phi's range, and past it, where every error meets the range test's OverflowError
    m, p, rhs = _quadratic_loop(1.0)
    reference = _numpy_deployed_loop(p, lambda th: (np.array([1.0, 2.0]) * (th - [0.5, -0.25]) ** 2).sum())
    for eta in (0.0, -0.0, -1e-300, 1e-300, 5e-324):
        x = (0.5, -0.25, eta)
        assert np.array(rhs(x, 0.3)).tobytes() == reference(np.array(x), 0.3).tobytes()
        with pytest.raises(OverflowError, match="phi exceeds double range"):
            rhs(x, 400.0)
    with pytest.raises(OverflowError, match="phi exceeds double range"):
        rhs((1.0, 0.0, 0.0), 400.0)
