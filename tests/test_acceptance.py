"""Acceptance gate: eleven end-to-end criteria, one printed verdict line each.

Each test computes its quantity at the stated tolerance, prints a single
PASS/FAIL line (also echoed in the terminal summary), and asserts.  The
criteria are intentionally strict; a red line here means the property as
stated does not hold, not that the computation crashed.
"""

import dataclasses
import time

import numpy as np
from conftest import arrays

import ueslab as u
from ueslab import cli
from ueslab.averaging import _hermite, transformed_b_fields


def _verdict(report, num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    report.append(line)
    assert ok, line


def test_criterion_01_comparison_ode_oracle(acceptance_report):
    p = u.Lemma1Params(beta=0.1, eps1=1.0, eps2=1.0, p=0.5, q=1.5, v0=1.0)
    start = time.perf_counter()
    traj = u.integrate(lambda V, t: u.lemma1_rhs(p, V, t), p.v0, 0.0, 100.0, 1e-3, record_every=10)
    wall = time.perf_counter() - start
    exact = np.array([u.lemma1_solution(p, t) for t in traj.times])
    rel = float(np.max(np.abs(arrays(traj).states[:, 0] - exact) / exact))
    _verdict(
        acceptance_report, 1, "comparison-ODE closed form vs RK4",
        rel < 1e-6 and wall < 5.0, f"max rel err {rel:.3e}, {wall:.2f}s",
    )


def test_criterion_02_power_law_convergence(acceptance_report, fig3_timed):
    fig3_run, wall = fig3_timed
    gap = abs(arrays(fig3_run).theta[-1, 0] - 2.0)
    fit = u.fit_power_rate(fig3_run, [2.0], 0.1, 0.0, (10.0, 100.0))
    ok = gap < 0.05 and abs(fit.estimate - 3.0) <= 0.6 and wall < 30.0
    _verdict(
        acceptance_report, 2, "power-law schedule reaches the optimum at the stated rate",
        ok, f"final gap {gap:.3e}, exponent {fit.estimate:.3f} vs 3 +/- 0.6, {wall:.2f}s",
    )


def test_criterion_03_constant_gain_contrast(acceptance_report, fig2a_run, fig2b_run):
    def amp(traj, t_a, t_b):
        _, a = u.oscillation_amplitude(u.window_slice(traj, t_a, t_b), 1.0)
        return a

    def early_min(traj):
        mask = arrays(traj).times <= 10.0
        return float(arrays(traj).theta[mask, 0].min())

    a_late, a_mid = amp(fig2a_run, 80.0, 100.0), amp(fig2a_run, 40.0, 60.0)
    b_late = amp(fig2b_run, 80.0, 100.0)
    ok = (
        a_late > 0.05
        and a_late >= 0.5 * a_mid
        and b_late < a_late
        and early_min(fig2b_run) < early_min(fig2a_run)
    )
    _verdict(
        acceptance_report, 3, "constant-gain loops keep oscillating, gain trades ripple for transient",
        ok,
        f"late amp {a_late:.3f} (mid {a_mid:.3f}), high-gain late amp {b_late:.3f}, "
        f"early minima {early_min(fig2b_run):.3f} < {early_min(fig2a_run):.3f}",
    )


def test_criterion_04_exponential_rate(acceptance_report, exp_run):
    fit = u.fit_exp_rate(exp_run, [1.0], (5.0, 60.0))
    ok = abs(fit.estimate - 0.1) <= 0.015
    _verdict(
        acceptance_report, 4, "exponential schedule decays at the design rate",
        ok, f"fitted rate {fit.estimate:.5f} vs 0.1 +/- 15%",
    )


def test_criterion_05_averaging_gap_shrinks_with_frequency(acceptance_report, quartic, fig3_params):
    # the averaged system reads no omega: it is integrated once, at omega = 10's step, and read at
    # every omega's samples through the cubic Hermite interpolant whose slopes are its rhs
    x0 = np.array([1.0, 0.0])
    averaged = u.averaged_closed_loop(fig3_params, quartic)
    avg = u.integrate(averaged, x0, 0.0, 20.0, u.dither_step_bound(10.0))
    slopes = np.array([averaged(x, t) for x, t in zip(arrays(avg).states, avg.times)])
    nodes = (avg.times, [avg.column(j) for j in range(2)], list(slopes.T))
    gaps = []
    for omega in (10.0, 50.0, 250.0):
        p = fig3_params.with_omega(omega)
        dt = u.dither_step_bound(omega)
        full = arrays(u.integrate(u.transformed_closed_loop(p, quartic), x0, 0.0, 20.0, dt))
        avg_states = np.array([_hermite(*nodes, t) for t in full.times])
        gaps.append(float(np.max(np.linalg.norm(full.states - avg_states, axis=1))))
    ok = gaps[0] > gaps[1] > gaps[2]
    _verdict(
        acceptance_report, 5, "averaged dynamics approximate the loop better as omega grows",
        ok, "sup gaps " + " > ".join(f"{g:.4f}" for g in gaps),
    )


def test_criterion_06_bracket_identity(acceptance_report, quartic, fig3_params):
    # the closed-form drift is what the generated averaged rhs subtracts from b0
    b0, pairs = transformed_b_fields(fig3_params, quartic)
    averaged = u.averaged_closed_loop(fig3_params, quartic)
    rng = np.random.default_rng(12)
    worst = 0.0
    eta_block_clean = True
    for _ in range(100):
        z = rng.uniform(-1.0, 1.0, 2)
        t = rng.uniform(0.0, 15.0)
        acc = np.zeros(2)
        for b_c, b_s in pairs:
            acc += 0.5 * u.lie_bracket(b_c, b_s, z, t)
        drift = b0(z, t)[0] - averaged(z, t)[0]
        worst = max(worst, float(np.max(np.abs(acc[:1] - drift))))
        eta_block_clean = eta_block_clean and acc[1] == 0.0
    ok = worst < 1e-5 and eta_block_clean
    _verdict(
        acceptance_report, 6, "numeric bracket sum matches the closed-form drift",
        ok, f"worst theta-block err {worst:.3e}, eta block exactly zero: {eta_block_clean}",
    )


def test_criterion_07_gain_error_product_bounded(acceptance_report, fig3_run, fig3_params):
    fig3_run = arrays(fig3_run)
    sched = fig3_params.schedule
    phi = np.array([sched.phi(t) for t in fig3_run.times])
    signal = np.abs(fig3_params.k[0] * phi * (fig3_run.y - fig3_run.eta))
    period = 2.0 * np.pi / fig3_params.omegas[0]
    # (y - eta) changes sign within a dither period, so a single sample is no
    # reference; the first-period peak is (here k |J(theta0) - eta0| at t = 0)
    reference = float(np.max(signal[fig3_run.times <= period]))
    peak_at = int(np.argmax(signal))
    ratio = float(signal[peak_at] / reference)
    tail = float(np.max(signal[fig3_run.times >= 50.0]))
    _verdict(
        acceptance_report, 7, "gain-times-error stays within 10x its first-period peak",
        ratio < 10.0,
        f"peak {signal[peak_at]:.3f} at t = {fig3_run.times[peak_at]:.2f} / first-period peak {reference:.3f}"
        f" = {ratio:.3f} vs bound 10; peak over t >= 50 {tail:.3g} while phi({fig3_run.times[-1]:g}) = {phi[-1]:.3g}",
    )


def test_criterion_08_derivative_and_bound_checks(acceptance_report):
    # every map of the table, built at its builder's defaults and sampled in optimum +- 3
    rng = np.random.default_rng(0)
    worst = bound_err = 0.0
    for builder, _ in u.MAPS.values():
        m = builder()
        star = np.asarray(m.optimum)
        for _ in range(100):
            th = rng.uniform(star - 3.0, star + 3.0, m.dim)
            g, gf = m.gradient(th), u.grad_fd(m, th)
            h, hf = m.hessian(th), u.hess_fd(m, th)
            worst = max(
                worst,
                float(np.max(np.abs(gf - g)) / max(1.0, float(np.max(np.abs(g))))),
                float(np.max(np.abs(hf - h)) / max(1.0, float(np.max(np.abs(h))))),
            )
        b = u.verify_power_bounds(m, radius=1.0, samples=200, seed=0)
        got = np.array(dataclasses.astuple(b))
        want = np.array(dataclasses.astuple(m.bounds))
        bound_err = max(bound_err, float(np.max(np.abs(got - want) / want)))
    ok = worst < 1e-5 and bound_err < 0.01
    _verdict(
        acceptance_report, 8, "finite differences confirm closed forms and growth envelopes",
        ok, f"{len(u.MAPS)} maps; worst derivative rel err {worst:.3e}, envelope constants off by {bound_err:.2e}",
    )


def test_criterion_09_output_decay_rate(acceptance_report, fig3_run):
    ytraj = u.Trajectory(fig3_run.times, fig3_run.y, 1)
    fit = u.fit_power_rate(ytraj, [1.0], 0.1, 0.0, (2.0, 20.0))
    ok = fit.estimate >= 8.0
    _verdict(
        acceptance_report, 9, "measured cost collapses at the squared-growth rate",
        ok, f"early-window exponent {fit.estimate:.2f} vs floor 8",
    )


def test_criterion_10_byte_identical_reruns(acceptance_report, tmp_path, monkeypatch, capsys):
    outputs = []
    for sub in ("one", "two"):
        monkeypatch.setenv("UESLAB_OUT", str(tmp_path / sub))
        assert cli.main(["run", "fig3_asymptotic_ues"]) == 0
        outputs.append({
            name: (tmp_path / sub / f"fig3_asymptotic_ues.{name}").read_bytes()
            for name in ("trajectory.csv", "fits.csv")
        })
    capsys.readouterr()
    ok = outputs[0] == outputs[1]
    sizes = ", ".join(f"{name} {len(data)}B" for name, data in outputs[0].items())
    _verdict(acceptance_report, 10, "repeat runs are byte-identical", ok, sizes)


def test_criterion_11_design_rate_over_decades(acceptance_report):
    # fig3's design 1/v = 3, fitted late, on [400, 1600], where criterion 02's [10, 100] is pre-asymptotic.  The
    # tolerance, 0.01, is a hundredth of the unit step between the integer designs 1/v, so a neighbouring design
    # fails, and so does a loop whose error keeps no digits near J* = 1 (it fitted 0.4754 here); a late envelope's
    # log residual of order 1e-3 over the regressor's growth log(161 / 41) = 1.37 moves the slope by about 1e-3
    cfg = dataclasses.replace(cli.resolve_config("fig3_asymptotic_ues"), horizon=1600.0, record_every=8,
                              fit_window=(400.0, 1600.0))
    s = cfg.params.schedule
    traj = cli.deployed_run(cfg)
    fit = u.fit_power_rate(traj, cfg.map.optimum, s.beta, s.t0, cfg.fit_window)
    gap = abs(traj.column(0)[-1] - 2.0)
    ok = abs(fit.estimate - 1.0 / s.v) <= 0.01
    _verdict(
        acceptance_report, 11, "power-law schedule holds the designed rate over decades",
        ok, f"exponent {fit.estimate:.6f} on [400, 1600] vs 3 +/- 0.01, residual {fit.residual:.2g}, "
        f"final gap {gap:.2g}",
    )
