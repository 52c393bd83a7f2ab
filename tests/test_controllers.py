"""Controller dynamics in both frames, parameter assembly, and coupled checks."""

import ast
import math
import textwrap

import numpy as np
import pytest
from conftest import arrays

import ueslab as u
from ueslab.errors import AssemblyError, CapabilityError, IntegrationDiverged
from ueslab.sim import rk4_loop

from test_sim import _quadratic_config, _quadratic_loop


def test_default_frequency_ratios():
    np.testing.assert_allclose(u.default_omega_hat(3), [1.0, 1.5, 2.25])


def test_params_reject_duplicate_ratios(quartic):
    m2 = u.quadratic(q=[1.0, 1.0], theta_star=[0.0, 0.0])
    with pytest.raises(AssemblyError, match="distinct"):
        u.assemble(m2, u.Schedule("nominal"), alpha=1.0, k=1.0, omega=5.0, omega_h=3.0, omega_hat=[2.0, 2.0])


def test_params_reject_nonpositive_entries():
    s = u.Schedule("nominal")
    with pytest.raises(AssemblyError):
        u.EsParams(alpha=[-1.0], k=[1.0], omega=5.0, omega_h=3.0, schedule=s)
    with pytest.raises(AssemblyError):
        u.EsParams(alpha=[1.0], k=[1.0], omega=0.0, omega_h=3.0, schedule=s)
    # and non-finite ones: NaN fails `v <= 0`, which let it through, and an infinite alpha made an infinite amplitude
    cases = ((dict(alpha=[math.inf]), "es.alpha", "inf"), (dict(k=[math.nan]), "es.k", "nan"),
             (dict(omega_h=math.nan), "es.omega_h", "nan"), (dict(omega_h=math.inf), "es.omega_h", "inf"))
    for change, key, shown in cases:
        with pytest.raises(AssemblyError, match=rf"^{key} must be positive, got {shown}$"):
            u.EsParams(**{**dict(alpha=[1.0], k=[1.0], omega=5.0, omega_h=3.0, schedule=s), **change})


def test_washout_must_outrun_exponential_growth():
    s = u.Schedule("exponential", lam=2.0)
    with pytest.raises(AssemblyError, match="2 lambda"):
        u.EsParams(alpha=[1.0], k=[1.0], omega=5.0, omega_h=3.0, schedule=s)


def test_assemble_broadcasts_scalars():
    m = u.quadratic(q=[1.0, 2.0], theta_star=[0.0, 0.0])
    p = u.assemble(m, u.Schedule("nominal"), alpha=0.5, k=2.0, omega=5.0, omega_h=3.0)
    assert p.n == 2
    np.testing.assert_allclose(p.alpha, [0.5, 0.5])
    np.testing.assert_allclose(p.omegas, [5.0, 7.5])
    with pytest.raises(AssemblyError, match="length-2"):
        u.assemble(m, u.Schedule("nominal"), alpha=[1.0, 1.0, 1.0], k=1.0, omega=5.0, omega_h=3.0)
    # assemble broadcasts both to the map's dimension; EsParams built directly refuses unequal lengths itself
    with pytest.raises(AssemblyError, match="^alpha and k must have equal length, got 2 and 1$"):
        u.EsParams(alpha=[1.0, 1.0], k=[1.0], omega=5.0, omega_h=3.0, schedule=u.Schedule("nominal"))


def test_growth_order_condition(quartic):
    # quartic has kappa = 2: r = 4 makes 2 kappa - r = 0, any v > 0 works
    ok = u.Schedule("asymptotic", beta=0.1, v=1.0 / 3.0, r=4.0)
    u.assemble(quartic, ok, alpha=1.0, k=0.3, omega=5.0, omega_h=3.0)
    with pytest.raises(AssemblyError, match="2 kappa - r >= 0"):
        u.assemble(quartic, u.Schedule("asymptotic", beta=0.1, v=1.0, r=5.0), alpha=1.0, k=0.3, omega=5.0, omega_h=3.0)
    with pytest.raises(AssemblyError, match="v > 2 kappa - r"):
        u.assemble(quartic, u.Schedule("asymptotic", beta=0.1, v=0.3, r=3.5), alpha=1.0, k=0.3, omega=5.0, omega_h=3.0)


def test_exponential_gain_condition(exp_map):
    s = u.Schedule("exponential", lam=0.1)
    # floor is 2*0.1*1*(2+2)/(1*4) = 0.2
    u.assemble(exp_map, s, alpha=1.0, k=0.21, omega=50.0, omega_h=3.0)
    with pytest.raises(AssemblyError, match="gain condition"):
        u.assemble(exp_map, s, alpha=1.0, k=0.1, omega=50.0, omega_h=3.0)
    # flat maps carry no such floor: the quartic assembles at any gain
    u.assemble(u.quartic_paper(), s, alpha=1.0, k=0.01, omega=50.0, omega_h=3.0)


def test_deployed_rhs_pinned_value(quartic):
    p = u.assemble(quartic, u.Schedule("nominal"), alpha=1.0, k=0.3, omega=5.0, omega_h=3.0, omega_hat=[1.0])
    # the state carries eta - J*: theta = 0 and eta = 0 is (0, -1) for J* = 1, where J(theta) - eta = 17
    theta_dot, eta_dot = u.es_closed_loop(p, quartic)(np.array([0.0, -1.0]), 0.0)
    assert theta_dot == pytest.approx(math.sqrt(5.0) * math.cos(0.3 * 17.0), rel=1e-12)
    assert eta_dot == pytest.approx(3.0 * 17.0, rel=1e-12)


def _loop_pair(case):
    """Two loops of one map kind, schedule kind and channel count that differ in every number."""
    if case == "quadratic":
        sched = (u.Schedule("exponential", lam=0.1), u.Schedule("exponential", lam=0.2, t0=2.0))
        maps = (u.quadratic(q=[1.0, 2.0], theta_star=[0.5, -0.25]), u.quadratic(q=[3.0, 5.0], theta_star=[1.5, 2.0]))
        gains = ((1.0, 4.0, 50.0, 3.0), (2.0, 6.0, 70.0, 4.0))
    else:
        maps = (u.quartic_paper(),) * 2
        sched = {"asymptotic": (u.Schedule("asymptotic", beta=0.1, v=1.0 / 3.0, r=4.0),
                                u.Schedule("asymptotic", beta=0.2, v=0.6, r=3.5, t0=1.5)),
                 "nominal": (u.Schedule("nominal"), u.Schedule("nominal", t0=3.0))}[case]
        gains = ((1.0, 0.3, 5.0, 3.0), (2.0, 0.7, 9.0, 4.0))
    return [(m, u.assemble(m, s, alpha=a, k=k, omega=w, omega_h=wh)) for m, s, (a, k, w, wh) in zip(maps, sched, gains)]


def test_deployed_rhs_code_holds_no_loop_constant():
    # the rhs and its own RK4 loop are compiled once per text and read their numbers (dither, gain and
    # washout, the map's q and theta*, the schedule's t0, beta, v, r or lambda) from their namespace,
    # so two loops that differ in every number share one code: none is formatted into the text; the
    # same holds for the averaged loop and, where its frame is defined, the transformed loop
    for case in ("asymptotic", "nominal", "quadratic"):
        (map_a, p_a), (map_b, p_b) = _loop_pair(case)
        builds = [u.es_closed_loop, u.averaged_closed_loop] + ([u.transformed_closed_loop] if case != "nominal" else [])
        for build in builds:
            a, b = build(p_a, map_a), build(p_b, map_b)
            d = p_a.n + 1
            for code_a, code_b in ((a.__code__, b.__code__), (rk4_loop(a, (d,)).__code__, rk4_loop(b, (d,)).__code__)):
                assert code_a.co_code == code_b.co_code
                assert code_a.co_consts == code_b.co_consts
            x = (0.5,) * d
            assert a(x, 4.0) != b(x, 4.0)
            assert u.integrate(a, x, 4.0, 4.1, 1e-3).rows.tobytes() != u.integrate(b, x, 4.0, 4.1, 1e-3).rows.tobytes()


def test_phase_term_vanishes_at_optimum(quartic, fig3_params):
    # at theta = theta*, eta = J(theta*) the feedback phase is zero: pure
    # dither at the scheduled amplitude, and no washout drift; the state carries eta - J* = 0
    rhs = u.es_closed_loop(fig3_params, quartic)
    for t in (0.0, 3.7, 12.0):
        td, ed = rhs(np.array([2.0, 0.0]), t)
        s = fig3_params.schedule
        expected = s.nu(t) * math.sqrt(5.0) * math.cos(5.0 * t)
        assert td == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert ed == 0.0


def test_closed_loop_packing(quartic, fig3_params):
    rhs = u.es_closed_loop(fig3_params, quartic)
    assert rhs.dither_omega_max == 5.0
    out = rhs(np.array([0.0, -1.0]), 0.0)
    # x = [theta, eta - J*], here theta = eta = 0: at t = 0, nu = phi = 1 and J(0) - eta = 17
    np.testing.assert_allclose(out, [math.sqrt(5.0) * math.cos(0.3 * 17.0), 3.0 * 17.0], rtol=1e-12)


def test_growth_drift_values():
    assert u.Schedule("nominal").factors(3.0).g == 0.0
    s = u.Schedule("asymptotic", beta=0.1, v=1.0 / 3.0, r=4.0)
    assert s.factors(0.0).g == pytest.approx(0.3, rel=1e-12)
    assert s.factors(10.0).g == pytest.approx(0.3 / 2.0, rel=1e-12)
    assert u.Schedule("exponential", lam=0.25).factors(7.0).g == 0.25


def test_phase_is_phi_times_error_in_range():
    # in phi's range the deployed rhs's phase is Factors.phi * err bit for bit: against zero, signed and
    # denormal errors, and at t = 350, where phi = e^700 turns a denormal error into a phase cos can see
    m, p, rhs = _quadratic_loop(1.0)
    for t in (0.3, 350.0):
        f = p.schedule.factors(t)
        for eta in (0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324):
            err = m([0.5, -0.25]) - eta
            pe = f.phi * err
            want = [f.nu * a * math.cos(w * t + pe * k) for a, w, k in zip(p._amp, p.omegas, p.k)] + [p.omega_h * err]
            assert np.array(rhs((0.5, -0.25, eta), t)).tobytes() == np.array(want).tobytes()


def _diverges_from(rhs, x, t):
    """The OverflowError that ended an integration of rhs from x at t, as IntegrationDiverged's cause."""
    with pytest.raises(IntegrationDiverged) as exc:
        u.integrate(rhs, x, t, t + 0.01, 1e-3)
    assert isinstance(exc.value.__cause__, OverflowError) and exc.value.t_last == t
    return exc.value.__cause__


def test_phase_past_phi_range_raises_whatever_the_error():
    # past phi's double range (lambda = 1 at t = 400) every loop raises, a zero error included, and an
    # integration from there ends in IntegrationDiverged caused by that error
    m, p, deployed = _quadratic_loop(1.0)
    with pytest.raises(OverflowError):
        p.schedule.phi(400.0)
    for eta in (0.0, -0.0, 1e-300, -1e-300, 5e-324):
        with pytest.raises(OverflowError, match="phi exceeds double range"):
            deployed((0.5, -0.25, eta), 400.0)
    assert "phi exceeds double range" in str(_diverges_from(deployed, (0.5, -0.25, 0.0), 400.0))
    # the frame loops raise it too, from the factor text, before the stage's xi^(2 kappa), which for kappa = 1
    # under this schedule is phi itself
    for frame in (u.transformed_closed_loop(p, m), u.averaged_closed_loop(p, m)):
        with pytest.raises(OverflowError, match="phi exceeds double range"):
            frame((0.0, 0.0, 0.0), 400.0)
        _diverges_from(frame, (0.0, 0.0, 0.0), 400.0)
    # phi grows past xi^(2 kappa) only where r > 2 kappa, which assemble refuses: built directly, phi = s^8
    # leaves double range at log s > 88.8 while xi^2 = s^2 stays finite, and the frame loops' own range test
    # raises, at a zero error too
    fast = u.EsParams(alpha=[1.0, 1.0], k=[10.0, 10.0], omega=50.0, omega_h=3.0,
                      schedule=u.Schedule("asymptotic", beta=1.0, v=1.0, r=8.0))
    for frame in (u.transformed_closed_loop(fast, m), u.averaged_closed_loop(fast, m)):
        with pytest.raises(OverflowError, match="phi exceeds double range"):
            frame((0.0, 0.0, 0.0), 1e39)


# every function an RK4 body calls: the start check's ValueError, the factor texts' exp and log1p, phi's range
# test through factors, the dither's cos, and the loop's own range, isfinite and record
_LOOP_CALLS = {"ValueError", "exp", "log1p", "factors", "cos", "range", "isfinite", "times.append", "rows.extend"}


def test_generated_loops_take_phi_times_error_in_every_stage(quartic, fig3_params):
    # the phase is one product: no RK4 body calls more than _LOOP_CALLS (no abs or log of the error), and the
    # deployed and transformed bodies take pe = phi * err once in each of their four stages.  Phi's range is
    # tested where the schedule's factor text computes phi, at t + h/2 and t_next in each step, never in a stage,
    # and a nominal phi is never tested
    quad = _quadratic_config(2)
    for map_, p in ((quartic, fig3_params), (quad.map, quad.params)):
        for build, products in ((u.es_closed_loop, 4), (u.transformed_closed_loop, 4), (u.averaged_closed_loop, 0)):
            body = build(p, map_).rk4_loop[1]
            tree = ast.parse("def run():\n" + textwrap.indent(body, "    "))
            calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
            assert calls - _LOOP_CALLS == set(), build.__name__
            assert body.count("pe = ph_") == products, build.__name__
            step_loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))
            assert ast.unparse(step_loop).count("LOG_MAX") == 2, build.__name__
    nominal = u.assemble(quartic, u.Schedule("nominal"), alpha=1.0, k=0.3, omega=5.0, omega_h=3.0)
    for build in (u.es_closed_loop, u.averaged_closed_loop):
        assert "LOG_MAX" not in build(nominal, quartic).rk4_loop[1], build.__name__


def test_infinite_phase_diverges_cleanly(quartic, fig3_params):
    # at t = 100 phi is about 3.1e12, so phi * err overflows to inf against err = 1e300, and
    # math.cos(inf) raises ValueError where np.cos returned nan
    rhs = u.es_closed_loop(fig3_params, quartic)
    t = 100.0
    x = (2.0, -1e300)
    assert fig3_params.schedule.phi(t) * (quartic([2.0]) - x[1]) == math.inf
    theta_dot, eta_dot = rhs(x, t)
    assert math.isnan(theta_dot)
    assert eta_dot == pytest.approx(3e300)
    with pytest.raises(IntegrationDiverged, match="non-finite") as exc:
        u.integrate(rhs, x, t, t + 1.0, u.dither_step_bound(rhs.dither_omega_max))
    assert exc.value.t_last == t
    np.testing.assert_array_equal(arrays(exc.value.trajectory).states, [x])


def test_transformed_infinite_phase_diverges_cleanly(quartic, fig3_params):
    # eta_f = -1e308 drives the washout rate past double range in the first stage, so a later stage's
    # phase is infinite, where math.cos raises ValueError: the dither rates are NaN, as the deployed loop's
    rhs = u.transformed_closed_loop(fig3_params, quartic)
    theta_dot, eta_dot = rhs((0.0, -math.inf), 5.0)
    assert math.isnan(theta_dot) and eta_dot == math.inf
    with pytest.raises(IntegrationDiverged, match="non-finite") as exc:
        u.integrate(rhs, (0.0, -1e308), 5.0, 6.0, 0.01)
    assert exc.value.t_last == 5.0
    np.testing.assert_array_equal(arrays(exc.value.trajectory).states, [(0.0, -1e308)])


def test_transformed_loop_at_origin(quartic, fig3_params):
    # zero transformed error: no cost offset, so the washout rate vanishes and
    # the dither enters at full strength
    td, ed = u.transformed_closed_loop(fig3_params, quartic)(np.array([0.0, 0.0]), 0.0)
    assert td == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert ed == 0.0


def test_transformed_frame_needs_growth_and_optimum(quartic):
    p_nom = u.assemble(quartic, u.Schedule("nominal"), alpha=1.0, k=0.3, omega=5.0, omega_h=3.0)
    with pytest.raises(CapabilityError, match="nominal"):
        u.transformed_closed_loop(p_nom, quartic)
    # the vector-field decomposition checks the frame when it is assembled
    with pytest.raises(CapabilityError, match="nominal"):
        u.transformed_b_fields(p_nom, quartic)


def _chain_rule_worst_error(map_, params, schedule, rng, trials=50):
    """Largest deviation between the scaled-frame rates and the derivative of
    the coordinate change applied to the deployed-frame rates."""
    deployed = u.es_closed_loop(params, map_)
    scaled = u.transformed_closed_loop(params, map_)
    n = map_.dim
    worst = 0.0
    for _ in range(trials):
        t = rng.uniform(0.0, 20.0)
        theta_f = rng.uniform(-1.5, 1.5, map_.dim)
        eta_f = rng.uniform(-1.5, 1.5)
        xi = schedule.xi(t)
        x2k = math.exp(2.0 * map_.kappa * schedule.log_xi(t))
        theta = map_.optimum + theta_f / xi
        eta = eta_f / x2k  # the deployed state carries eta - J(theta*)
        dx = np.asarray(deployed(np.append(theta, eta), t))
        td, ed = dx[:n], dx[n]
        h = 1e-5 * max(1.0, abs(t))
        dlogxi = (schedule.log_xi(t + h) - schedule.log_xi(t - h)) / (2.0 * h)
        td_ref = dlogxi * xi * (theta - map_.optimum) + xi * td
        ed_ref = 2.0 * map_.kappa * dlogxi * x2k * eta + x2k * ed
        dz = scaled(np.append(theta_f, eta_f), t)
        tf, ef = dz[:n], dz[n]
        worst = max(worst, float(np.max(np.abs(tf - td_ref))), abs(ef - ed_ref))
    return worst


def test_transformed_loop_consistent_by_chain_rule(quartic, fig3_params, exp_map, exp_params):
    rng = np.random.default_rng(3)
    err_asym = _chain_rule_worst_error(quartic, fig3_params, fig3_params.schedule, rng)
    err_expo = _chain_rule_worst_error(exp_map, exp_params, exp_params.schedule, rng)
    # four channels: the 4-channel quadratic under the exponential schedule
    four = _quadratic_config(4)
    err_four = _chain_rule_worst_error(four.map, four.params, four.params.schedule, rng)
    assert err_asym < 1e-9
    assert err_expo < 1e-9
    assert err_four < 1e-9


def test_loops_check_the_map_at_assembly(quartic, fig3_params):
    # the right-hand sides write the map's form texts inline over the controller's channels, so the map's
    # dimension is checked once, here
    with pytest.raises(AssemblyError, match="dimension 2"):
        u.es_closed_loop(fig3_params, u.quadratic(q=[1.0, 2.0], theta_star=[0.0, 0.0]))


def test_with_omega_rebuilds_derived_quantities(fig3_params):
    p = fig3_params.with_omega(50.0)
    assert p.omega == 50.0
    np.testing.assert_allclose(p.omegas, [50.0])
    assert fig3_params.omegas[0] == 5.0
