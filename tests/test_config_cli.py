"""Config parsing, validation, bundled experiments, and CLI exit behavior."""

import copy
import dataclasses
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from conftest import arrays
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ueslab as u
from ueslab import cli, controllers
from ueslab.config import config_from_text, parse_kv_text
from ueslab.errors import ConfigError, IntegrationDiverged

MINIMAL = """
map.name = quartic_paper
schedule.kind = nominal
es.k = 0.3
es.omega = 5
es.omega_h = 3
sim.horizon = 10
"""

SMALL_ASYMPTOTIC = """
map.name = quartic_paper
schedule.kind = asymptotic
schedule.beta = 0.1
schedule.v = 0.3333333333333333
schedule.r = 4
es.k = 0.3
es.omega = 5
es.omega_h = 3
sim.horizon = 5
"""

# a valid probe group for MINIMAL; a case replaces one of its values with one it refuses
PROBE_GROUP = "probe.omegas = 10\nprobe.epsilon = 0.25\nprobe.delta = 1\nprobe.horizon = 4\nprobe.trials = 1\n"

# schedule keys for MINIMAL: an asymptotic schedule; a case sets the values a relation or the rate fit refuses
ASYMPTOTIC_KEYS = "schedule.kind = asymptotic\nschedule.beta = {beta}\nschedule.v = {v}\nschedule.r = {r}\n"
# map and schedule keys for MINIMAL: a quadratic of curvature q under an exponential schedule of rate 1
EXPONENTIAL_KEYS = ("map.name = quadratic\nmap.q = {q}\nmap.theta_star = 1\n"
                    "schedule.kind = exponential\nschedule.lambda = 1\nes.k = {k}\n")
GAIN_REFUSAL = ("^<config>: exponential gain condition violated: es.k \\* es.alpha = {ka} on its smallest channel "
                "must exceed 2 lambda a2 \\(2 a2 \\+ b2\\) / \\(a1 b1\\^2\\) = {floor} "
                "with schedule.lambda = 1.0 on map 'quadratic'$")

SMALL_PROBE = SMALL_ASYMPTOTIC + """
probe.omegas = 10, 30
probe.epsilon = 0.25
probe.delta = 1
probe.horizon = 4
probe.trials = 1
probe.seed = 7
"""


def test_parse_kv_text_basics():
    data = parse_kv_text("a.b = 1  # trailing comment\n\n# full comment\nc.d = x, y\n")
    assert data == {"a.b": "1", "c.d": "x, y"}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a.b = 1\na.b = 2\n", "duplicate"),
        ("just some words\n", "expected"),
        ("nodot = 3\n", "section.key"),
        ("a.b =\n", "no value"),
    ],
)
def test_parse_kv_text_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_kv_text(text)


def test_config_defaults():
    cfg = config_from_text(MINIMAL, name="minimal")
    assert cfg.map.name == "quartic_paper"
    assert cfg.params.schedule.kind == "nominal"
    np.testing.assert_allclose(cfg.params.alpha, [1.0])
    np.testing.assert_allclose(cfg.theta0, [0.0])
    assert cfg.eta0 == 0.0
    assert cfg.dt == pytest.approx((2.0 * np.pi / 5.0) / 40.0, rel=1e-12)
    assert cfg.record_every == 1
    assert cfg.fit_window is None
    assert cfg.tail_fraction == 0.2
    assert cfg.probe is None
    assert cfg.out_dir == "out"


@pytest.mark.parametrize(
    "extra,fragment",
    [
        ("mystery.key = 1\n", "unknown key"),
        ("sim.dt = 0.5\n", "steps per"),
        # a map key the chosen map does not read is never read, so it is refused as unknown
        ("map.q = 2\n", "^<config>: unknown key\\(s\\): map.q$"),
        ("map.theta_star = 1\n", "^<config>: unknown key\\(s\\): map.theta_star$"),
        ("es.omega_hat = 2, 2\n", "one entry per channel"),
        ("analysis.fit_window = 9\n", "fit_window"),
        # a window past the horizon, and one that holds 2 recorded samples, both failed after the integration
        ("analysis.fit_window = 5, 1000\n", "analysis.fit_window: window .* not contained"),
        ("analysis.fit_window = 9.99, 10\n", "analysis.fit_window = 9.99, 10 holds 2 recorded sample"),
        # with no analysis.fit_window, the default window of a run that fits a rate held 1 sample and failed likewise
        (
            "schedule.kind = asymptotic\nschedule.beta = 0.1\nschedule.v = 0.3333333333333333\nschedule.r = 4\n"
            "sim.horizon = 1\nsim.record_every = 100\n",
            "the default analysis.fit_window = 0.1, 1 holds 1 recorded sample",
        ),
        # a key that nothing reads: a nominal run's tail is a constant share, its last 20%
        ("analysis.tail_fraction = 1.5\n", "^<config>: unknown key\\(s\\): analysis.tail_fraction$"),
        ("sim.record_every = 0\n", "record_every"),
        ("es.omega = nan\n", "'es.omega'.*finite"),
        ("sim.horizon = nan\n", "'sim.horizon'.*finite"),
        ("es.k = inf\n", "'es.k'.*finite"),
        (
            "schedule.kind = asymptotic\nschedule.beta = nan\nschedule.v = 0.5\nschedule.r = 4\n",
            "'schedule.beta'.*finite",
        ),
        (
            "probe.omegas = 10\nprobe.epsilon = nan\nprobe.delta = 1\nprobe.horizon = 4\nprobe.trials = 1\n",
            "'probe.epsilon'.*finite",
        ),
        (
            # phi = e^(2 t) leaves double range at t = 354.9, before the horizon
            "map.name = quadratic\nmap.theta_star = 1\nschedule.kind = exponential\nschedule.lambda = 1\n"
            "es.k = 3\nsim.horizon = 400\n",
            "sim.horizon = 400 is too long.*phi",
        ),
        ("es.omega = 1e300\n", "sim.horizon = 10 needs .* RK4 steps"),
        (
            "probe.omegas = 10\nprobe.epsilon = 0.25\nprobe.delta = 1\nprobe.horizon = 1e300\nprobe.trials = 1\n",
            "probe.horizon = 1e\\+300 needs .* RK4 steps",
        ),
        (
            # phi = e^(2 t) leaves double range within the probe's horizon, though not within the run's
            "map.name = quadratic\nmap.theta_star = 1\nschedule.kind = exponential\nschedule.lambda = 1\nes.k = 3\n"
            "probe.omegas = 10, 20\nprobe.epsilon = 0.25\nprobe.delta = 1\nprobe.horizon = 400\nprobe.trials = 1\n",
            "probe.horizon = 400 is too long.*phi",
        ),
        # numpy's generator takes no negative seed
        (PROBE_GROUP + "probe.seed = -1\n", "^<config>: probe.seed must be >= 0, got -1$"),
        # each refusal names the one config key it refuses
        (PROBE_GROUP.replace("probe.omegas = 10\n", "probe.omegas = 10, 5\n"),
         "^<config>: probe.omegas must be ascending and positive, got 10.0, 5.0$"),
        (PROBE_GROUP.replace("probe.epsilon = 0.25\n", "probe.epsilon = -1\n"),
         "^<config>: probe.epsilon must be positive, got -1.0$"),
        (PROBE_GROUP.replace("probe.delta = 1\n", "probe.delta = -1\n"),
         "^<config>: probe.delta must be positive, got -1.0$"),
        (PROBE_GROUP.replace("probe.horizon = 4\n", "probe.horizon = -1\n"),
         "^<config>: probe.horizon must be positive, got -1.0$"),
        (PROBE_GROUP.replace("probe.trials = 1\n", "probe.trials = 0\n"),
         "^<config>: probe.trials must be >= 1, got 0$"),
        ("schedule.kind = exponential\nschedule.lambda = -1\n", "^<config>: .* needs schedule.lambda > 0, got -1.0$"),
        # a config run starts at t = 0, so schedule.t0 is a key that nothing reads
        ("schedule.t0 = -1\n", "^<config>: unknown key\\(s\\): schedule.t0$"),
        ("schedule.kind = linear\n", "^<config>: schedule.kind must be nominal, asymptotic, or exponential, got 'linear'$"),
        ("es.alpha = -1\n", "^<config>: es.alpha must be positive, got -1.0$"),
        ("es.k = -1\n", "^<config>: es.k must be positive, got -1.0$"),
        ("es.alpha = 1, 2\n", "^<config>: es.alpha must be a scalar or a length-1 list to match map 'quartic_paper'$"),
        ("es.omega = -1\n", "^<config>: es.omega must be positive, got -1.0$"),
        ("es.omega_h = -1\n", "^<config>: es.omega_h must be positive, got -1.0$"),
        # omega * omega_hat underflowed to 0, and the step bound divided by it
        ("es.omega = 1e-200\nes.omega_hat = 1e-200\n",
         "^" + re.escape("<config>: dither frequencies omega * es.omega_hat must be positive and finite, got 0.0 "
                         "at omega = 1e-200") + "$"),
        # a sweep of 5.1e11 RK4 steps (510 per trial) once loaded, to run for hours
        (PROBE_GROUP.replace("probe.trials = 1\n", "probe.trials = 1000000000\n"),
         "^<config>: probe.trials = 1000000000 asks the sweep for 510000000000 RK4 steps, 510 per trial; "
         "at most 100000000 are allowed$"),
        # a start whose cost leaves double range: `run` measured it only after the integration
        ("es.theta0 = 1e300\n", "^<config>: es.theta0 = 1e\\+300 has a cost J\\(theta0\\) out of double range$"),
        # the map's refusals name their keys
        ("map.name = nosuch\n", "^<config>: map.name = 'nosuch' is not a known map; available: quadratic, quartic_paper$"),
        ("map.name = quadratic\nmap.q = -1\n", "^<config>: map.q must be positive, got -1.0$"),
        ("map.name = quadratic\nmap.theta_star = 1, 2\n",
         "^<config>: map.q and map.theta_star must list equally many values, got 1 and 2$"),
        # so do the refusals of a relation between values
        (ASYMPTOTIC_KEYS.format(beta=0.1, v=0.1, r=0),
         "^" + re.escape("<config>: need v > 2 kappa - r, got schedule.v = 0.1 vs 2 kappa - r = 4.0 "
                         "with schedule.r = 0.0 on map 'quartic_paper'") + "$"),
        (ASYMPTOTIC_KEYS.format(beta=0.1, v=1, r=5),
         "^" + re.escape("<config>: need 2 kappa - r >= 0, got schedule.r = 5.0 against 2 kappa = 4 "
                         "of map 'quartic_paper'") + "$"),
        ("schedule.kind = exponential\nschedule.lambda = 2\n",
         "^" + re.escape("<config>: exponential schedule needs es.omega_h > 2 lambda, got es.omega_h = 3.0 "
                         "vs 2 lambda = 4.0 with schedule.lambda = 2.0") + "$"),
        # the gain floor 2 lambda a2 (2 a2 + b2) / (a1 b1^2) of a quadratic with q = 1 is 4 lambda: 2 here;
        # with q = 1e-200 it is 2e200, and with q = 5e-324 it leaves double range, where a1 b1^2 once
        # underflowed to a ZeroDivisionError
        (EXPONENTIAL_KEYS.format(q=1, k=0.1), GAIN_REFUSAL.format(ka="0.1", floor="2")),
        (EXPONENTIAL_KEYS.format(q=1e-200, k=3), GAIN_REFUSAL.format(ka="3", floor="2e\\+200")),
        (EXPONENTIAL_KEYS.format(q=5e-324, k=3), GAIN_REFUSAL.format(ka="3", floor="inf")),
        # the power-law fit's regressor barely grows over the window: once a LinAlgError (1e-200) or a meaningless
        # exponent (1e-160); a growth just under the 1e-3 floor is refused as well, with a window given
        (ASYMPTOTIC_KEYS.format(beta=1e-200, v=0.3333333333333333, r=4) + "sim.horizon = 1\n",
         "^" + re.escape("<config>: schedule.beta = 1e-200 is too small for the power-law fit over the default "
                         "analysis.fit_window = 0.1, 1: log(1 + beta (t - t0)) grows by 8.743e-201 across its samples, "
                         "under the 0.001 below which the schedule is effectively nominal and has no power-law rate")
         + "$"),
        (ASYMPTOTIC_KEYS.format(beta=9e-5, v=0.3333333333333333, r=4) + "analysis.fit_window = 0, 10\n",
         "^" + re.escape("<config>: schedule.beta = 9e-05 is too small for the power-law fit over "
                         "analysis.fit_window = 0, 10: log(1 + beta (t - t0)) grows by 0.0008996 across its samples, "
                         "under the 0.001 below which the schedule is effectively nominal and has no power-law rate")
         + "$"),
    ],
)
def test_config_rejects(extra, fragment):
    # keys of MINIMAL that extra sets again take extra's value
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = "".join(line + "\n" for line in MINIMAL.splitlines() if line.split("=")[0].strip() not in keys)
    with pytest.raises(ConfigError, match=fragment):
        config_from_text(kept + extra, name="bad")


def test_power_fit_growth_floor_admits_what_clears_it():
    # over a window 0, 10, beta = 1.1e-4 grows log(1 + beta t) by 1.0994e-3, just over the 1e-3 floor that 9e-5 misses
    text = (SMALL_ASYMPTOTIC.replace("schedule.beta = 0.1\n", "schedule.beta = 1.1e-4\n")
            .replace("sim.horizon = 5\n", "sim.horizon = 10\nanalysis.fit_window = 0, 10\n"))
    assert config_from_text(text, name="slow").params.schedule.beta == 1.1e-4


def test_sweep_step_budget_admits_what_fits():
    # the bundled omega_sweep takes 40,746 RK4 steps per trial: 2,454 trials fit the 1e8 budget, 2,455 do not;
    # these configs are only loaded, never swept
    base = resources.files("ueslab").joinpath("configs", "omega_sweep.conf").read_text(encoding="utf-8")
    sweep = lambda trials: re.sub(r"probe.trials = \d+", f"probe.trials = {trials}", base)
    assert config_from_text(sweep(2454), name="omega_sweep").probe.trials == 2454
    with pytest.raises(ConfigError, match="^<config>: probe.trials = 2455 asks the sweep for 100031430 RK4 steps, "
                                          "40746 per trial; at most 100000000 are allowed$"):
        config_from_text(sweep(2455), name="omega_sweep")


def test_config_stores_the_fit_window_it_checked():
    # the default window, the run's last 90%, where a rate fit reads it; a nominal run without one keeps None
    assert config_from_text(SMALL_ASYMPTOTIC, name="fit").fit_window == (0.5, 5.0)
    given = SMALL_ASYMPTOTIC + "analysis.fit_window = 1, 4\n"
    assert config_from_text(given, name="fit").fit_window == (1.0, 4.0)
    assert config_from_text(MINIMAL, name="nominal").fit_window is None


@settings(max_examples=80, deadline=None)
@given(
    horizon=st.floats(0.05, 2.0),
    every=st.integers(1, 20),
    a=st.floats(-0.1, 2.1) | st.none(),
    width=st.floats(1e-4, 2.0),
)
def test_fit_window_check_counts_the_recorded_samples(horizon, every, a, width):
    # the load-time check refuses exactly the windows that the rate fit, given the trajectory
    # integrate records, would refuse for their span or for holding fewer than 3 samples;
    # a = None ends the window at the horizon, where the last step is shortened
    window = (horizon - width, horizon) if a is None else (a, a + width)
    text = MINIMAL.replace("sim.horizon = 10\n", f"sim.horizon = {horizon!r}\nsim.record_every = {every}\n"
                           f"analysis.fit_window = {window[0]!r}, {window[1]!r}\n")
    try:
        config_from_text(text, name="window")
        refused = None
    except ConfigError as e:
        refused = e
    dt = config_from_text(text.split("analysis.fit_window")[0], name="window").dt
    traj = u.integrate(lambda x, t: -x, 1.0, 0.0, horizon, dt, record_every=every)
    try:
        held = len(u.window_slice(traj, *window).times)
    except ValueError:
        held = None
    assert (refused is None) == (held is not None and held >= 3), (refused, held)


def test_config_requires_gain():
    text = MINIMAL.replace("es.k = 0.3\n", "")
    with pytest.raises(ConfigError, match="es.k"):
        config_from_text(text, name="nok")


def test_config_partial_probe_group():
    with pytest.raises(ConfigError, match="probe.epsilon"):
        config_from_text(MINIMAL + "probe.omegas = 10, 20\n", name="halfprobe")


def test_config_quadratic_keys():
    text = """
map.name = quadratic
map.q = 2
map.theta_star = 1
schedule.kind = exponential
schedule.lambda = 0.1
es.k = 1
es.omega = 50
es.omega_h = 3
sim.horizon = 10
"""
    cfg = config_from_text(text, name="quad")
    assert cfg.map([1.0]) == 0.0
    assert cfg.params.schedule.lam == 0.1


def test_bundled_configs_all_load():
    names = cli.bundled_config_names()
    assert names == [
        "exponential_ues",
        "fig2_nominal_a",
        "fig2_nominal_b",
        "fig3_asymptotic_ues",
        "omega_sweep",
    ]
    for name in names:
        cfg = cli.resolve_config(name)
        assert cfg.name == name
    # .conf suffix is accepted too
    assert cli.resolve_config("omega_sweep.conf").probe is not None


def test_resolve_config_unknown_lists_bundled():
    with pytest.raises(ConfigError, match="omega_sweep"):
        cli.resolve_config("no_such_experiment")


def test_directory_does_not_shadow_a_bundled_config(tmp_path, monkeypatch, capsys):
    # UESLAB_OUT named like a bundled config makes a directory of that name; only a file is read as a config path,
    # so the bundled config still resolves and runs into it, and a directory of any other name is refused by name
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("UESLAB_OUT", "fig2_nominal_a")
    (tmp_path / "fig2_nominal_a").mkdir()
    (tmp_path / "not_a_config").mkdir()
    assert cli.main(["run", "fig2_nominal_a"]) == 0
    assert (tmp_path / "fig2_nominal_a" / "fig2_nominal_a.trajectory.csv").is_file()
    assert cli.main(["run", "not_a_config"]) == 2
    assert "'not_a_config'" in capsys.readouterr().err


def test_config_file_with_a_byte_order_mark_loads_alike(tmp_path):
    # an editor's UTF-8 byte-order mark once became part of the first line: a comment there was refused as
    # malformed, a first key '\ufeffmap.name' as a missing map.name; a byte that is not UTF-8 is still
    # reported at its offset in the file, the mark counted
    text = resources.files("ueslab").joinpath("configs", "omega_sweep.conf").read_text(encoding="utf-8")
    plain, marked = tmp_path / "plain" / "omega_sweep.conf", tmp_path / "marked" / "omega_sweep.conf"
    for path, prefix in ((plain, ""), (marked, "\ufeff")):
        path.parent.mkdir()
        path.write_text(prefix + text, encoding="utf-8")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"

    def values(cfg):
        own = [getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name not in ("map", "params")]
        return own + [cfg.map.name, cfg.map.optimum] + [getattr(cfg.params, f.name) for f in dataclasses.fields(cfg.params)]

    assert values(u.load_config(marked)) == values(u.load_config(plain))
    marked.write_bytes(b"\xef\xbb\xbf# caf\xe9\n")
    with pytest.raises(ConfigError, match=r"not UTF-8 text \(invalid continuation byte at byte 8\)$"):
        u.load_config(marked)


def test_cli_run_writes_artifacts(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_ASYMPTOTIC)
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["run", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "final |theta - theta*|" in out
    for suffix in (".trajectory.csv", ".fits.csv", ".svg"):
        assert (tmp_path / "o" / f"small{suffix}").exists()
    header = (tmp_path / "o" / "small.trajectory.csv").read_text().splitlines()[0]
    assert header == "t,theta_1,eta,y"


def test_cli_run_stops_at_first_failing_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["run", "fig2_nominal_a", str(tmp_path / "missing.conf")]) == 2
    assert "no config file" in capsys.readouterr().err
    for suffix in (".trajectory.csv", ".fits.csv", ".svg"):
        assert (tmp_path / "o" / f"fig2_nominal_a{suffix}").exists()
    # a config whose run returns 3 (the overflow run below) stops the ones after it as a refused config does
    conf = tmp_path / "overflow.conf"
    conf.write_text(MINIMAL.replace("es.omega_h = 3", "es.omega_h = 1e6"))
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o3"))
    assert cli.main(["run", str(conf), "fig2_nominal_a"]) == 3
    assert "overflow: integration diverged at t = 0.565" in capsys.readouterr().err
    assert sorted(path.name for path in (tmp_path / "o3").iterdir()) == [
        "overflow.fits.csv", "overflow.svg", "overflow.trajectory.csv"]


def test_cli_run_overflow_writes_partial_artifacts(tmp_path, monkeypatch):
    # a washout far too fast for the dither step: eta leaves double range after t = 0.565;
    # run as a process so that stderr holds exactly what a user sees
    conf = tmp_path / "overflow.conf"
    conf.write_text(MINIMAL.replace("es.omega_h = 3", "es.omega_h = 1e6"))
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    proc = subprocess.run([sys.executable, "-m", "ueslab.cli", "run", str(conf)], capture_output=True, text=True)
    assert proc.returncode == 3
    err = proc.stderr
    assert "diverged at t = 0.565" in err and "partial artifacts" in err
    assert "RuntimeWarning" not in err and "encountered" not in err
    rows = (tmp_path / "o" / "overflow.trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,theta_1,eta,y"
    assert 0.5 < float(rows[-1].split(",")[0]) < 0.6
    for suffix in (".fits.csv", ".svg"):
        assert (tmp_path / "o" / f"overflow{suffix}").exists()


def test_cli_run_skips_a_rate_fit_past_the_decay(tmp_path, monkeypatch, capsys):
    # the exponential quadratic has decayed under the 1e-13 noise floor by t = 35: the run prints why it fits no
    # rate, exits 0 and writes a fits.csv that holds only its header
    conf = tmp_path / "late.conf"
    conf.write_text("map.name = quadratic\nschedule.kind = exponential\nschedule.lambda = 1\nes.k = 4\nes.omega = 50\n"
                    "es.omega_h = 3\nes.theta0 = 1\nsim.horizon = 40\nanalysis.fit_window = 35, 40\n")
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["run", str(conf)]) == 0
    assert ("; rate fit skipped (0 envelope value(s) in (35.0, 40.0) lie above the 1e-13 noise floor, "
            in capsys.readouterr().out)
    assert (tmp_path / "o" / "late.fits.csv").read_text() == "model,estimate,residual,window_start,window_end\n"


def test_deployed_run_divergence_carries_the_measured_cost():
    # the washout of the overflow run above: deployed_run raises, and the partial trajectory's y column is the
    # cost at each recorded theta, bit for bit
    cfg = config_from_text(MINIMAL.replace("es.omega_h = 3", "es.omega_h = 1e6"), name="overflow")
    with pytest.raises(IntegrationDiverged) as info:
        cli.deployed_run(cfg)
    traj = info.value.trajectory
    assert len(traj.times) > 1
    assert traj.y.tobytes() == np.array([cfg.map.eval(tuple(theta)) for theta in arrays(traj).theta.tolist()]).tobytes()


def test_interrupted_artifact_write_leaves_no_truncated_file(tmp_path):
    # a streamed artifact stops after its first block: nothing appears under its name, and an earlier file
    # there keeps its bytes
    def blocks():
        yield "t,theta_1\n"
        raise RuntimeError("interrupted")

    path = tmp_path / "run.trajectory.csv"
    with pytest.raises(RuntimeError, match="interrupted"):
        cli._write_streamed(path, blocks())
    assert list(tmp_path.iterdir()) == []
    path.write_text("earlier\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="interrupted"):
        cli._write_streamed(path, blocks())
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text(encoding="utf-8") == "earlier\n"


def test_cli_run_cost_column_overflow_exits_3(tmp_path, monkeypatch, capsys):
    # the measured-cost column is computed after the integration; its OverflowError is still a numeric failure
    cfg = cli.resolve_config("fig2_nominal_a")

    def overflow(theta):
        raise OverflowError("cost out of range")

    broken = copy.copy(cfg.map)
    object.__setattr__(broken, "eval", overflow)  # the loop reads the value text; only the cost column overflows
    cfg = dataclasses.replace(cfg, map=broken, horizon=1.0)
    monkeypatch.setattr(cli, "resolve_config", lambda arg: cfg)
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["run", "fig2_nominal_a"]) == 3
    assert "numeric failure: cost out of range" in capsys.readouterr().err


BAD_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e300", "abc", None]  # None drops the key
SMALL_EXPONENTIAL = """
map.name = quadratic
map.theta_star = 1
schedule.kind = exponential
schedule.lambda = 0.1
es.k = 3
es.omega = 5
es.omega_h = 3
sim.horizon = 5
"""
# a base config of each schedule kind
RUN_BASES = {kind: dict(line.split(" = ") for line in text.strip().splitlines()) for kind, text in
             (("nominal", MINIMAL), ("asymptotic", SMALL_ASYMPTOTIC), ("exponential", SMALL_EXPONENTIAL))}
# every key `run` reads but out.dir and sim.horizon, which is drawn on its own; the values also stress the time
# grid, the list lengths, and the scale of the gain floor and of the power-law fit's regressor
RUN_KEYS = ["map.name", "map.q", "map.theta_star", "schedule.kind", "schedule.beta", "schedule.v", "schedule.r",
            "schedule.lambda", "es.alpha", "es.k", "es.omega", "es.omega_h", "es.omega_hat", "es.theta0", "es.eta0",
            "sim.dt", "sim.record_every", "analysis.fit_window"]
RUN_VALUES = BAD_VALUES + ["1e15", "1e20", "1e-200", "1, 2", "0.5", "3"]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(RUN_BASES)),
    drawn=st.dictionaries(st.sampled_from(RUN_KEYS), st.sampled_from(RUN_VALUES), max_size=3),
    # a long valid horizon would only make an example slow
    horizon=st.one_of(st.sampled_from(BAD_VALUES), st.floats(-2.0, 2.0).map(repr)),
)
@example(kind="nominal", drawn={"es.theta0": "1e300"}, horizon="1.0")  # a start cost out of double range
@example(kind="exponential", drawn={"map.q": "1e-200"}, horizon="1.0")  # the gain floor's a1 b1^2 underflowed
@example(kind="exponential", drawn={"map.q": "1e300"}, horizon="1.0")  # and here overflowed
@example(kind="asymptotic", drawn={"schedule.beta": "1e-200"}, horizon="1.0")  # the rate fit's regressor squared to 0
@example(kind="asymptotic", drawn={"schedule.beta": "1e-160"}, horizon="1.0")  # and spanned 1e-160: exponent -4e+158
@example(kind="asymptotic", drawn={"es.omega": "1e-200", "es.omega_hat": "1e-200"}, horizon="1e300")  # a frequency of 0
def test_cli_run_fuzzed_config_never_raises(tmp_path_factory, kind, drawn, horizon):
    # a config that loads is a config that runs: every input ends in exit 0, 2 or 3, and a run that ends in
    # exit 3 has written its partial artifacts
    values = {**RUN_BASES[kind], **drawn, "sim.horizon": horizon}
    tmp = tmp_path_factory.mktemp("fuzz")
    conf = tmp / "fuzz.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in values.items() if value is not None))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("UESLAB_OUT", str(tmp / "o"))
        code = cli.main(["run", str(conf)])
    assert code in (0, 2, 3)
    if code == 3:
        assert sorted(path.name for path in (tmp / "o").iterdir()) == ["fuzz.fits.csv", "fuzz.svg", "fuzz.trajectory.csv"]


SMALL_PROBE_ITEMS = dict(line.split(" = ") for line in SMALL_PROBE.splitlines() if line)


@settings(max_examples=200, deadline=None)
@given(bad=st.dictionaries(st.sampled_from([key for key in SMALL_PROBE_ITEMS if key.startswith("probe.")]),
                           st.sampled_from(BAD_VALUES), max_size=2))
def test_cli_sweep_fuzzed_probe_never_raises(tmp_path_factory, bad):
    # every probe setting that loads also sweeps: each input ends in exit 0, 2 or 3
    values = {**SMALL_PROBE_ITEMS, "probe.horizon": "0.2", **bad}  # a short valid horizon keeps each sweep quick
    tmp = tmp_path_factory.mktemp("fuzz")
    conf = tmp / "fuzz.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in values.items() if value is not None))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("UESLAB_OUT", str(tmp / "o"))
        assert cli.main(["sweep", str(conf)]) in (0, 2, 3)


def test_cli_out_dir_from_config(tmp_path, monkeypatch):
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_ASYMPTOTIC + f"out.dir = {tmp_path / 'alt'}\n")
    monkeypatch.delenv("UESLAB_OUT", raising=False)
    assert cli.main(["run", str(conf)]) == 0
    assert (tmp_path / "alt" / "small.trajectory.csv").exists()


@pytest.mark.parametrize("verb, text", [("run", SMALL_ASYMPTOTIC), ("sweep", SMALL_PROBE)])
@pytest.mark.parametrize("key", ["UESLAB_OUT", "out.dir"])
def test_cli_unusable_out_dir_exits_2(tmp_path, monkeypatch, capfd, verb, text, key):
    # an output directory below a regular file cannot be made: a config error naming where it came from
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    conf = tmp_path / "small.conf"
    if key == "UESLAB_OUT":
        conf.write_text(text)
        monkeypatch.setenv("UESLAB_OUT", str(blocker / "sub"))
    else:
        conf.write_text(text + f"out.dir = {blocker / 'sub'}\n")
        monkeypatch.delenv("UESLAB_OUT", raising=False)
    assert cli.main([verb, str(conf)]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"config error: {key} = '{blocker / 'sub'}' cannot be made the output directory (")
    assert "Traceback" not in err


@pytest.mark.parametrize("verb, config, blocked", [
    ("run", "fig2_nominal_a", "fig2_nominal_a.trajectory.csv.part"),
    ("run", "fig2_nominal_a", "fig2_nominal_a.fits.csv.part"),
    ("run", "fig2_nominal_a", "fig2_nominal_a.svg"),
    ("sweep", "omega_sweep", "omega_sweep.probe.csv"),
    ("sweep", "omega_sweep", "omega_sweep.probe.csv.part"),
])
def test_cli_unwritable_artifact_exits_2(tmp_path, monkeypatch, capfd, verb, config, blocked):
    # a directory where an artifact or its part goes: a config error naming the artifact, one line and no
    # traceback, an earlier file of that artifact keeps its bytes and no part is left behind
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path))
    (tmp_path / blocked).mkdir()
    artifact = tmp_path / blocked.removesuffix(".part")
    if blocked.endswith(".part"):
        artifact.write_text("earlier\n")
    assert cli.main([verb, config]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"config error: artifact '{artifact}' cannot be written (IsADirectoryError: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    if blocked.endswith(".part"):
        assert artifact.read_text() == "earlier\n"
    assert [path.name for path in tmp_path.iterdir() if path.name.endswith(".part") and path.is_file()] == []


def test_cli_sweep(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "probe.conf"
    conf.write_text(SMALL_PROBE)
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["sweep", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "worst sup_gap" in out
    assert re.search(r"; fitted averaging order \d\.\d+ \(worst sup_gap ~ omega\^-order\); artifacts in ", out)
    text = (tmp_path / "o" / "probe.probe.csv").read_text()
    assert text.splitlines()[0] == "omega,trial,entry_time,stayed,sup_gap"
    # one omega fits no order
    conf.write_text(SMALL_PROBE.replace("probe.omegas = 10, 30", "probe.omegas = 10"))
    assert cli.main(["sweep", str(conf)]) == 0
    assert "; averaging order undefined (needs two omegas" in capsys.readouterr().out


def test_cli_run_says_why_it_skips_the_amplitude(tmp_path, monkeypatch, capsys):
    # 5 recorded samples leave the 20% tail 1: the nominal run says so, as a skipped rate fit does
    conf = tmp_path / "sparse.conf"
    conf.write_text(MINIMAL + "sim.record_every = 100\n")
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["run", str(conf)]) == 0
    assert capsys.readouterr().out == (f"sparse: final |theta - theta*| = 0.393152; tail oscillation amplitude skipped "
                                       f"(tail window holds 1 sample(s); need at least 20); artifacts in {tmp_path / 'o'}\n")


def test_cli_run_prints_design_rate(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["run", "fig3_asymptotic_ues", "exponential_ues"]) == 0
    fig3, expo = capsys.readouterr().out.splitlines()
    assert "; power-law exponent = 2.815 (design 3; residual 0.616);" in fig3
    assert "; exponential rate = 0.09999 (design 0.1; residual 0.00892);" in expo


def test_cli_verbs_never_import_numpy(tmp_path, monkeypatch):
    # run, sweep and lemma-check need only the standard library: in a fresh interpreter that imports ueslab and runs
    # `run` on the four bundled configs, `sweep` on two trials in two forked workers, whose pickled results the
    # parent reads back, and `lemma-check`, each exits 0 and numpy is never imported
    conf = tmp_path / "probe.conf"
    conf.write_text(SMALL_PROBE.replace("probe.trials = 1\n", "probe.trials = 2\n"))
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    verbs = [["run", "fig2_nominal_a", "fig2_nominal_b", "fig3_asymptotic_ues", "exponential_ues"],
             ["sweep", str(conf)],
             ["lemma-check", "--beta", "0.5", "--eps1", "0.2", "--eps2", "0.3", "--p", "0.5", "--q", "2.0", "--v0", "1.0",
              "--t1", "10", "--dt", "0.01"]]
    script = "\n".join([
        "import sys",
        "import ueslab",
        "from ueslab import averaging, cli",
        "averaging._worker_count = lambda jobs: min(jobs, 2)  # forked workers, whatever the host's CPU count",
        f"codes = [cli.main(argv) for argv in {verbs!r}]",
        "print(codes, 'numpy' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"


# numpy's least squares and numpy.linalg's LAPACK-backed entry points; np.linalg.norm of a vector reaches none
LAPACK_CALLS = [(np, "polyfit")] + [(np.linalg, name) for name in
                                    ("lstsq", "solve", "inv", "pinv", "svd", "qr", "eig", "eigh", "cholesky", "det")]


def test_run_and_sweep_call_no_lapack(tmp_path, monkeypatch, capsys):
    # the first LAPACK call pages in about 1 MiB that stays resident; the rate fits are closed-form instead
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called")

    for module, name in LAPACK_CALLS:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["run", "fig2_nominal_a", "fig2_nominal_b", "fig3_asymptotic_ues", "exponential_ues"]) == 0
    conf = tmp_path / "probe.conf"  # the shape of test_averaging's PROBE_CFG: two omegas, two trials
    conf.write_text(SMALL_PROBE.replace("probe.horizon = 4\n", "probe.horizon = 5\n")
                    .replace("probe.trials = 1\n", "probe.trials = 2\n"))
    assert cli.main(["sweep", str(conf)]) == 0
    out = capsys.readouterr().out
    assert out.count("; power-law exponent = ") == 1 and out.count("; exponential rate = ") == 1
    assert "; fitted averaging order " in out


def test_cli_sweep_needs_probe_settings(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_ASYMPTOTIC)
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["sweep", str(conf)]) == 2
    assert "probe" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["run", str(tmp_path / "missing.conf")]) == 2
    assert "no config file" in capsys.readouterr().err
    bad = tmp_path / "bad.conf"
    bad.write_text(
        "map.name = quadratic\nmap.q = 1, 2\nmap.theta_star = 0, 0\n"
        "schedule.kind = nominal\nes.k = 1\nes.omega = 5\nes.omega_h = 3\n"
        "es.omega_hat = 2, 2\nsim.horizon = 5\n"
    )
    assert cli.main(["run", str(bad)]) == 2
    assert "distinct" in capsys.readouterr().err
    # the probe's averaged system is undefined for an exponential schedule on a kappa = 2 map
    expo = tmp_path / "expo_probe.conf"
    expo.write_text(SMALL_PROBE.replace(
        "schedule.kind = asymptotic\nschedule.beta = 0.1\nschedule.v = 0.3333333333333333\nschedule.r = 4\n",
        "schedule.kind = exponential\nschedule.lambda = 0.1\n",
    ))
    assert cli.main(["sweep", str(expo)]) == 2
    assert "schedule.kind" in capsys.readouterr().err
    # a config file that is not UTF-8 text is a config error naming the file
    latin = tmp_path / "latin.conf"
    latin.write_bytes(b"# caf\xe9\n" + MINIMAL.encode())
    assert cli.main(["run", str(latin)]) == 2
    assert capsys.readouterr().err == (f"config error: cannot read config '{latin}': not UTF-8 text "
                                       "(invalid continuation byte at byte 5)\n")
    # a quadratic with q = 1e300, whose gain floor once overflowed at load, runs
    steep = tmp_path / "steep.conf"
    steep.write_text(SMALL_EXPONENTIAL + "map.q = 1e300\n")
    assert cli.main(["run", str(steep)]) == 0
    assert capsys.readouterr().out.count("; artifacts in ") == 1
    # a power-law schedule that never leaves its start over the fit window has no rate to fit: 1e-160 once printed
    # an exponent of -4.455e+158 and exited 0, and 3e-162 one of -1.485e+160
    for beta in ("1e-160", "3e-162"):
        flat = tmp_path / "flat.conf"
        flat.write_text(SMALL_ASYMPTOTIC.replace("schedule.beta = 0.1\n", f"schedule.beta = {beta}\n")
                        .replace("sim.horizon = 5\n", "sim.horizon = 1\n"))
        assert cli.main(["run", str(flat)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {flat}: schedule.beta = {beta} is too small for the power-law fit "
                              "over the default analysis.fit_window = 0.1, 1: log(1 + beta (t - t0)) grows by ")
    # a delta-ball start near 1e300 has a quartic cost out of double range: a numeric failure naming probe.delta
    wide = tmp_path / "wide.conf"
    wide.write_text(SMALL_PROBE.replace("probe.delta = 1\n", "probe.delta = 1e300\n"))
    assert cli.main(["sweep", str(wide)]) == 3
    assert capsys.readouterr().err == ("numeric failure: probe.delta = 1e+300 draws a start whose cost J(theta) "
                                       "is out of double range\n")
    # a delta-ball start near 1e77 has a finite cost, but every integration diverges: the sweep writes its inf
    # rows and prints its line, then exits 3
    diverged = tmp_path / "diverged.conf"
    diverged.write_text(SMALL_PROBE.replace("probe.delta = 1\n", "probe.delta = 1e77\n")
                        .replace("probe.horizon = 4\n", "probe.horizon = 1\n").replace("probe.trials = 1\n", "probe.trials = 2\n"))
    assert cli.main(["sweep", str(diverged)]) == 3
    out, err = capsys.readouterr()
    assert "diverged: probe wrote 4 rows (omega=10: worst sup_gap inf, omega=30: worst sup_gap inf)" in out
    assert err == "diverged: every trial diverged in its full-loop or averaged run; no sup_gap is finite\n"
    rows = (tmp_path / "o" / "diverged.probe.csv").read_text().splitlines()
    assert len(rows) == 5 and all(row.endswith(",inf,0,inf") for row in rows[1:])


def test_config_checks_the_averaged_system_without_assembling_it(monkeypatch):
    # load runs the averaged loop's refusals, not its assembly; the refusal names schedule.kind
    assembled = []
    monkeypatch.setattr(controllers, "_frame_loop", lambda *args, **kwargs: assembled.append(args))
    assert config_from_text(SMALL_PROBE, name="probe").probe is not None
    expo = SMALL_PROBE.replace(
        "schedule.kind = asymptotic\nschedule.beta = 0.1\nschedule.v = 0.3333333333333333\nschedule.r = 4\n",
        "schedule.kind = exponential\nschedule.lambda = 0.1\n",
    )
    message = ("<config>: schedule.kind = exponential leaves the probe no averaged system: "
               "exponential averaged dynamics cover kappa = 1 maps, got kappa = 2")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_text(expo, name="expo")
    assert assembled == []


def test_cli_lemma_check_verdicts(capsys):
    base = ["lemma-check", "--beta", "0.5", "--eps1", "0.2", "--eps2", "0.3", "--q", "2.0", "--v0", "1.0"]
    assert cli.main(base + ["--p", "0.5", "--t1", "10"]) == 0
    assert "(ok)" in capsys.readouterr().out
    # invalid exponent is a config error
    assert cli.main(base + ["--p", "1.5"]) == 2
    assert "p < 1" in capsys.readouterr().err
    # a step too coarse for the tolerance is a numeric failure, not a crash
    assert cli.main(base + ["--p", "0.5", "--t1", "100", "--dt", "1.0"]) == 3
    assert "FAIL" in capsys.readouterr().out
    # non-finite flags and grids of more than MAX_STEPS steps are config errors naming the flag
    for flags, named in ((["--dt", "nan"], "--dt"), (["--t1", "nan"], "--t1"), (["--t1", "inf"], "--t1"),
                         (["--v0", "inf"], "--v0"), (["--t1", "1e9"], "--t1"), (["--dt", "1e-320"], "--dt")):
        assert cli.main(base + ["--p", "0.5"] + flags) == 2  # a repeated flag takes its last value
        assert named in capsys.readouterr().err
    # a stage that leaves V >= 0 is a numeric failure, one line
    coarse = ["lemma-check", "--beta", "1", "--eps1", "50", "--eps2", "0.1", "--p", "0.5", "--q", "2", "--v0", "1"]
    assert cli.main(coarse + ["--dt", "0.5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "V must be nonnegative" in err and err.count("\n") == 1
    # a beta so small that the derived eps3 is inf / inf is a config error naming eps3 and the flags
    mild = ["lemma-check", "--eps1", "0.2", "--eps2", "0.3", "--p", "0.5", "--q", "2", "--v0", "1", "--t1", "10"]
    assert cli.main(mild + ["--beta", "1e-320"]) == 2
    err = capsys.readouterr().err
    assert "eps3 = eps1 (q-1)/beta / (eps2 (q-1)/beta + 1 - p) = nan" in err and "--beta 1e-320" in err
    # a beta so large that s = 1 + beta t overflows: the closed form leaves double range at the first t past 1.797...
    assert cli.main(mild + ["--beta", "1e308"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric failure: closed form left double range at t = 1.798 (s = 1 + beta t = inf, c = 3e-309)\n"
    # c = 200: s^c overflows past t = 33.8 while V stays in range, so these flags reach a verdict
    large_c = ["lemma-check", "--beta", "1", "--eps1", "0.2", "--eps2", "100", "--p", "0.5", "--q", "3", "--v0", "1"]
    assert cli.main(large_c + ["--t1", "100"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("comparison-ODE check: max relative error ") and out.endswith(" on [0, 100] with dt = 0.001 (FAIL)\n")
    assert cli.main(large_c + ["--t1", "100", "--dt", "5e-4"]) == 0
    assert "(ok)" in capsys.readouterr().out


def test_cli_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "ueslab.cli", "lemma-check", "--beta", "0.5", "--eps1", "0.2",
         "--eps2", "0.3", "--p", "0.5", "--q", "2.0", "--v0", "1.0", "--t1", "10", "--dt", "0.01"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "comparison-ODE check" in proc.stdout
