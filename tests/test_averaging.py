"""Averaged dynamics, bracket computations, and the stability probe."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ueslab as u
from ueslab.averaging import transformed_b_fields
from ueslab.errors import CapabilityError


def test_lie_bracket_linear_fields_exact():
    # for f = Ax, g = Bx the bracket is (BA - AB)x; finite differences on
    # linear fields carry no truncation error
    A = np.array([[0.0, 1.0], [-1.0, 0.5]])
    B = np.array([[1.0, 0.0], [2.0, -1.0]])
    x = np.array([0.7, -1.3])
    br = u.lie_bracket(lambda z, t: A @ z, lambda z, t: B @ z, x, 0.0)
    np.testing.assert_allclose(br, (B @ A - A @ B) @ x, rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
)
def test_lie_bracket_antisymmetric(x, a, b):
    f = lambda z, t: np.array([z[0] ** 2 + a * z[1], z[0] * z[1]])
    g = lambda z, t: np.array([b * z[1] ** 2, z[0] + z[1] ** 2])
    x = np.asarray(x)
    br_fg = u.lie_bracket(f, g, x, 0.0)
    br_gf = u.lie_bracket(g, f, x, 0.0)
    np.testing.assert_array_equal(br_fg, -br_gf)


def test_bracket_sum_matches_closed_form(quartic, fig3_params):
    # numeric (1/2) sum_i [b_c_i, b_s_i] against the closed-form drift term,
    # theta block only; the washout block of every bracket vanishes
    b0, pairs = transformed_b_fields(fig3_params, quartic)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = np.append(rng.uniform(-1.0, 1.0, 1), rng.uniform(-1.0, 1.0))
        t = rng.uniform(0.0, 15.0)
        acc = np.zeros(2)
        for b_c, b_s in pairs:
            acc += 0.5 * u.lie_bracket(b_c, b_s, z, t)
        drift = u.averaged_drift_term(fig3_params, quartic, z[:1], t)
        np.testing.assert_allclose(acc[:1], drift, rtol=0, atol=1e-6)
        assert acc[1] == 0.0


def test_averaged_rhs_pinned_values(quartic, fig3_params, exp_map, exp_params):
    z = np.array([1.0, 0.0])
    td, ed = u.averaged_closed_loop(fig3_params, quartic)(z, 0.0)
    assert td == pytest.approx(-0.3, rel=1e-12)
    assert ed == pytest.approx(3.0, rel=1e-12)
    td, ed = u.averaged_closed_loop(exp_params, exp_map)(z, 0.0)
    assert td == pytest.approx(-0.9, rel=1e-12)
    assert ed == pytest.approx(3.0, rel=1e-12)


def test_averaged_rhs_kind_checks(quartic):
    # the exponential-schedule averaged system is only defined for kappa = 1
    p_flat = u.assemble(quartic, u.Schedule.exponential(lam=0.1), alpha=1.0, k=1.0, omega=50.0, omega_h=3.0)
    with pytest.raises(CapabilityError, match="kappa"):
        u.averaged_closed_loop(p_flat, quartic)


def test_averaged_loop_nominal_degenerates(quartic):
    p = u.assemble(quartic, u.Schedule.nominal(), alpha=1.0, k=0.3, omega=5.0, omega_h=3.0)
    rhs = u.averaged_closed_loop(p, quartic)
    out = rhs(np.array([1.0, 0.0]), 0.0)
    # constant-gain averaged loop: theta_f_dot = -(k alpha / 2) dJ/dtheta
    np.testing.assert_allclose(out, [-0.5 * 0.3 * 4.0, 3.0], rtol=1e-12)


def test_probe_config_validation():
    ok = dict(omega_values=(10.0, 50.0), epsilon=0.25, delta=1.0, horizon=5.0, trials=1, seed=0)
    u.ProbeConfig(**ok)
    with pytest.raises(ValueError):
        u.ProbeConfig(**{**ok, "omega_values": (50.0, 10.0)})
    with pytest.raises(ValueError):
        u.ProbeConfig(**{**ok, "epsilon": 2.0})  # epsilon > delta
    with pytest.raises(ValueError):
        u.ProbeConfig(**{**ok, "trials": 0})
    with pytest.raises(ValueError):
        u.ProbeConfig(**{**ok, "epsilon": -0.1})


def test_probe_smoke_and_determinism(quartic, fig3_params):
    cfg = u.ProbeConfig(omega_values=(10.0, 30.0), epsilon=0.25, delta=1.0, horizon=5.0, trials=1, seed=7)
    rows = u.practical_stability_probe(fig3_params, quartic, cfg)
    assert len(rows) == 2
    for row in rows:
        assert row.omega in (10.0, 30.0)
        assert row.trial == 0
        assert np.isfinite(row.entry_time) and row.entry_time >= 0.0
        assert row.stayed
        assert 0.0 <= row.sup_gap < 0.5
    again = u.practical_stability_probe(fig3_params, quartic, cfg)
    assert rows == again


def test_probe_csv_header(quartic, fig3_params):
    cfg = u.ProbeConfig(omega_values=(10.0,), epsilon=0.25, delta=1.0, horizon=5.0, trials=1, seed=7)
    rows = u.practical_stability_probe(fig3_params, quartic, cfg)
    text = u.probe_rows_csv(rows)
    assert text.splitlines()[0] == "omega,trial,entry_time,stayed,sup_gap"
    assert len(text.strip().splitlines()) == 2
