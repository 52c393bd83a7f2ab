"""Config parsing, validation, bundled experiments, and CLI exit behavior."""

import copy
import dataclasses
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ueslab as u
from ueslab import cli, controllers
from ueslab.config import config_from_text, parse_kv_text
from ueslab.errors import ConfigError

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
        ("map.q = 2\n", "only applies"),
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
        ("analysis.tail_fraction = 1.5\n", "tail_fraction"),
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
        # t0 + horizon == t0: no step lands inside the horizon
        ("schedule.t0 = 1e20\nsim.horizon = 1\n", "schedule.t0 = 1e\\+20 is too large.*sim.horizon"),
        # a positive horizon below half an ulp of t0: t0 + horizon == t0 again
        ("schedule.t0 = 0.5\nsim.horizon = 5e-324\n", "sim.horizon = 4.94066e-324 is too short to move schedule.t0 = 0.5"),
        # one ulp of 1e15 is 0.125, four times the step: the sample times collide
        ("schedule.t0 = 1e15\nsim.horizon = 1\n", "schedule.t0 = 1e\\+15 is too large.*sim.horizon"),
        (
            "schedule.t0 = 1e6\nsim.horizon = 1\n"
            "probe.omegas = 10, 1e4\nprobe.epsilon = 0.25\nprobe.delta = 1\nprobe.horizon = 1\nprobe.trials = 1\n",
            "schedule.t0 = 1e\\+06 is too large.*probe.horizon",
        ),
        (
            # phi = e^(2 t) leaves double range within the probe's horizon, though not within the run's
            "map.name = quadratic\nmap.theta_star = 1\nschedule.kind = exponential\nschedule.lambda = 1\nes.k = 3\n"
            "probe.omegas = 10, 20\nprobe.epsilon = 0.25\nprobe.delta = 1\nprobe.horizon = 400\nprobe.trials = 1\n",
            "probe.horizon = 400 is too long.*phi",
        ),
    ],
)
def test_config_rejects(extra, fragment):
    # keys of MINIMAL that extra sets again take extra's value
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = "".join(line + "\n" for line in MINIMAL.splitlines() if line.split("=")[0].strip() not in keys)
    with pytest.raises(ConfigError, match=fragment):
        config_from_text(kept + extra, name="bad")


@settings(max_examples=80, deadline=None)
@given(
    t0=st.sampled_from([0.0, 0.1, 3.0, 1e3]),
    horizon=st.floats(0.05, 2.0),
    every=st.integers(1, 20),
    a=st.floats(-0.1, 2.1) | st.none(),
    width=st.floats(1e-4, 2.0),
)
def test_fit_window_check_counts_the_recorded_samples(t0, horizon, every, a, width):
    # the load-time check refuses exactly the windows that the rate fit, given the trajectory
    # integrate records, would refuse for their span or for holding fewer than 3 samples;
    # a = None ends the window at the horizon, where the last step is shortened
    window = (t0 + horizon - width, t0 + horizon) if a is None else (t0 + a, t0 + a + width)
    text = MINIMAL.replace("sim.horizon = 10\n", f"sim.horizon = {horizon!r}\nsim.record_every = {every}\n"
                           f"schedule.t0 = {t0!r}\nanalysis.fit_window = {window[0]!r}, {window[1]!r}\n")
    try:
        config_from_text(text, name="window")
        refused = None
    except ConfigError as e:
        refused = e
    dt = config_from_text(text.split("analysis.fit_window")[0], name="window").dt
    traj = u.integrate(lambda x, t: -x, 1.0, t0, t0 + horizon, dt, record_every=every)
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
MINIMAL_ITEMS = dict(line.split(" = ") for line in MINIMAL.strip().splitlines())
# keys MINIMAL leaves at their defaults, drawn from values that also stress the time grid and the list lengths
EXTRA_KEYS = ["schedule.t0", "es.alpha", "es.omega_hat"]
EXTRA_VALUES = BAD_VALUES + ["1e15", "1e20", "1, 2", "0.5"]


@settings(max_examples=150, deadline=None)
@given(
    bad=st.dictionaries(st.sampled_from([key for key in MINIMAL_ITEMS if key != "sim.horizon"]),
                        st.sampled_from(BAD_VALUES), max_size=2),
    extra=st.dictionaries(st.sampled_from(EXTRA_KEYS), st.sampled_from(EXTRA_VALUES), max_size=2),
    # a long valid horizon would only make an example slow
    horizon=st.one_of(st.sampled_from(BAD_VALUES), st.floats(-2.0, 2.0).map(repr)),
)
def test_cli_run_fuzzed_config_never_raises(tmp_path_factory, bad, extra, horizon):
    # a config that loads is a config that runs: every input ends in exit 0, 2 or 3
    values = {**MINIMAL_ITEMS, **bad, **extra, "sim.horizon": horizon}
    tmp = tmp_path_factory.mktemp("fuzz")
    conf = tmp / "fuzz.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in values.items() if value is not None))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("UESLAB_OUT", str(tmp / "o"))
        assert cli.main(["run", str(conf)]) in (0, 2, 3)


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


def test_cli_run_prints_design_rate(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path / "o"))
    assert cli.main(["run", "fig3_asymptotic_ues", "exponential_ues"]) == 0
    fig3, expo = capsys.readouterr().out.splitlines()
    assert "; power-law exponent = 2.815 (design 3; residual 0.616);" in fig3
    assert "; exponential rate = 0.09999 (design 0.1; residual 0.00892);" in expo


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
