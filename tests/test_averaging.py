"""Averaged dynamics, bracket computations, and the stability probe."""

import dataclasses
import functools
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from conftest import arrays
from hypothesis import given, settings
from hypothesis import strategies as st

import ueslab as u
from ueslab import averaging, cli
from ueslab.averaging import _hermite, transformed_b_fields
from ueslab.errors import CapabilityError, IntegrationDiverged, WorkerLost
from ueslab.sim import STEPS_PER_PERIOD

PROBE_CFG = u.ProbeConfig(omega_values=(10.0, 30.0), epsilon=0.25, delta=1.0, horizon=5.0, trials=2, seed=7)


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
    # numeric (1/2) sum_i [b_c_i, b_s_i] against the closed-form drift term, b0 minus the generated
    # averaged rhs, theta block only; the washout block of every bracket vanishes
    b0, pairs = transformed_b_fields(fig3_params, quartic)
    averaged = u.averaged_closed_loop(fig3_params, quartic)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = np.append(rng.uniform(-1.0, 1.0, 1), rng.uniform(-1.0, 1.0))
        t = rng.uniform(0.0, 15.0)
        acc = np.zeros(2)
        for b_c, b_s in pairs:
            acc += 0.5 * u.lie_bracket(b_c, b_s, z, t)
        drift = np.subtract(b0(z, t), averaged(z, t))
        np.testing.assert_allclose(acc[:1], drift[:1], rtol=0, atol=1e-6)
        assert drift[1] == 0.0
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
    p_flat = u.assemble(quartic, u.Schedule("exponential", lam=0.1), alpha=1.0, k=1.0, omega=50.0, omega_h=3.0)
    with pytest.raises(CapabilityError, match="kappa"):
        u.averaged_closed_loop(p_flat, quartic)


def test_averaged_loop_nominal_degenerates(quartic):
    p = u.assemble(quartic, u.Schedule("nominal"), alpha=1.0, k=0.3, omega=5.0, omega_h=3.0)
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
    # NaN fails every comparison and inf passes `> 0`, so each field also asks for a finite value
    for change, message in ((dict(epsilon=math.nan), "probe.epsilon must be positive, got nan"),
                            (dict(horizon=math.inf), "probe.horizon must be positive, got inf"),
                            (dict(omega_values=(math.nan,)), "probe.omegas must be ascending and positive, got nan"),
                            (dict(omega_values=(10.0, math.inf)),
                             "probe.omegas must be ascending and positive, got 10.0, inf")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            u.ProbeConfig(**{**ok, **change})


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


def test_hermite_nodes_and_cubics():
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.uniform(0.05, 0.3, 12))
    coef = rng.uniform(-2.0, 2.0, (4, 2))  # one cubic per column
    poly = lambda t: sum(coef[j] * t[:, None] ** j for j in range(4))
    dpoly = lambda t: sum(j * coef[j] * t[:, None] ** (j - 1) for j in range(1, 4))
    values = poly(times)
    slopes = dpoly(times)
    read = lambda at: np.array([_hermite(times, list(values.T), list(slopes.T), t) for t in at])
    np.testing.assert_array_equal(read(times), values)
    at = np.sort(rng.uniform(times[0], times[-1], 50))
    np.testing.assert_allclose(read(at), poly(at), rtol=1e-12)


@pytest.mark.parametrize("map_", [u.quartic_paper(), u.quadratic([1.0, 2.0, 3.0, 4.0], [0.5, -0.25, 1.0, -1.0])],
                         ids=["n1", "n4"])
def test_trial_starts_lie_in_the_delta_ball(map_):
    for seed in range(20):
        cfg = dataclasses.replace(PROBE_CFG, trials=8, seed=seed)
        starts = np.array(averaging._trial_starts(map_, cfg))
        assert starts.shape == (cfg.trials, map_.dim + 1)
        for start in starts:
            theta = start[:-1]
            assert np.linalg.norm(theta - map_.optimum) <= cfg.delta
            assert start[-1] == map_(theta)


def test_trial_starts_pin_the_bundled_sweep():
    # the standard library's stream for seed 7: two Box-Muller draws, then one radius draw, per trial
    cfg = cli.resolve_config("omega_sweep")
    assert np.array(averaging._trial_starts(cfg.map, cfg.probe)).tolist() == [
        [2.6509344730398539, 1.1795349844197425],
        [1.6343110830874146, 1.0178832806746008],
    ]


def _per_omega_probe(p, map_, cfg):
    """The probe with the averaged system integrated per (omega, trial) at that omega's step."""
    star = map_.optimum
    starts = np.array(averaging._trial_starts(map_, cfg)).tolist()
    averaged = u.averaged_closed_loop(p, map_)
    t0 = p.schedule.t0
    rows = []
    for omega in cfg.omega_values:
        full_rhs = u.es_closed_loop(p.with_omega(omega), map_)
        dt = u.dither_step_bound(full_rhs.dither_omega_max)
        for trial, x0 in enumerate(starts):
            every = dict(record_every=STEPS_PER_PERIOD, n=map_.dim)
            full = arrays(u.integrate(full_rhs, tuple(x0), t0, t0 + cfg.horizon, dt, **every))
            avg = arrays(u.integrate(averaged, np.append(np.array(x0[:-1]) - star, x0[-1] - map_.optimal_value),
                                     t0, t0 + cfg.horizon, dt, **every))
            inside = np.linalg.norm(full.theta - star, axis=1) <= cfg.epsilon
            first = int(np.flatnonzero(inside)[0])
            xi_vals = np.array([p.schedule.xi(t) for t in avg.times])
            theta_bar = star + avg.theta / xi_vals[:, None]
            sup_gap = float(np.max(np.linalg.norm(full.theta - theta_bar, axis=1)))
            rows.append(u.ProbeRow(omega, trial, float(full.times[first] - t0), bool(np.all(inside[first:])), sup_gap))
    return rows


def test_probe_matches_per_omega_averaging(quartic, fig3_params):
    rows = u.practical_stability_probe(fig3_params, quartic, PROBE_CFG)
    ref = _per_omega_probe(fig3_params, quartic, PROBE_CFG)
    assert len(rows) == len(ref) == 4
    for row, want in zip(rows, ref):
        if row.omega == PROBE_CFG.omega_values[0]:
            assert row == want
        else:
            assert (row.omega, row.trial, row.entry_time, row.stayed) == (
                want.omega, want.trial, want.entry_time, want.stayed)
            assert abs(row.sup_gap - want.sup_gap) <= 1e-9


def _pooled(monkeypatch):
    """Run the probe's jobs in two forked workers, whatever the host's CPU count."""
    monkeypatch.setattr(averaging, "_worker_count", lambda jobs: min(jobs, 2))


def _in_process(monkeypatch):
    """Run the probe's jobs in this process, in job order."""
    monkeypatch.setattr(averaging, "_worker_count", lambda jobs: 1)


def _counting_integrate(monkeypatch, fail_trial=None):
    """Patch averaging.integrate to record ("averaged" | "full", state shape) per call; the averaged
    integration of trial fail_trial, when given, raises IntegrationDiverged.  The probe's jobs run
    in this process, in job order, so that the record is kept here."""
    _in_process(monkeypatch)
    calls = []
    real = averaging.integrate

    def integrate(rhs, x0, *args, **kwargs):
        kind = "averaged" if getattr(rhs, "dither_omega_max", None) is None else "full"  # only the averaged rhs is untagged
        calls.append((kind, np.shape(x0)))
        if kind == "averaged" and len(calls) - 1 == fail_trial:  # the averaged jobs come first, one per trial
            raise IntegrationDiverged("forced", t_last=args[0], trajectory=u.Trajectory([args[0]], x0, len(x0) - 1))
        return real(rhs, x0, *args, **kwargs)

    monkeypatch.setattr(averaging, "integrate", integrate)
    return calls


def test_probe_integrates_one_state_per_job(quartic, fig3_params, monkeypatch):
    calls = _counting_integrate(monkeypatch)
    u.practical_stability_probe(fig3_params, quartic, PROBE_CFG)
    d = quartic.dim + 1
    full = [("full", (d,))] * (len(PROBE_CFG.omega_values) * PROBE_CFG.trials)
    assert calls == [("averaged", (d,))] * PROBE_CFG.trials + full


def test_probe_averaged_divergence_marks_its_trial(quartic, fig3_params, monkeypatch):
    clean = u.practical_stability_probe(fig3_params, quartic, PROBE_CFG)
    calls = _counting_integrate(monkeypatch, fail_trial=1)
    rows = u.practical_stability_probe(fig3_params, quartic, PROBE_CFG)
    assert calls[:2] == [("averaged", (2,)), ("averaged", (2,))]  # one averaged job per trial, no retry
    for row, want in zip(rows, clean):
        if row.trial == 1:
            assert row.sup_gap == math.inf
            assert (row.omega, row.entry_time, row.stayed) == (want.omega, want.entry_time, want.stayed)
        else:
            assert row == want


def test_probe_full_loop_divergence_marks_its_trial(quartic, fig3_params, monkeypatch):
    # trial 1's state goes non-finite in the first step of its full-loop integration at every omega
    clean = u.practical_stability_probe(fig3_params, quartic, PROBE_CFG)
    start = averaging._trial_starts(quartic, PROBE_CFG)[1]
    real = averaging.es_closed_loop

    def poisoned_loop(p, map_):
        rhs = real(p, map_)

        def poisoned(x, t):
            out = rhs(x, t)
            return (math.inf,) * len(out) if x == start else out

        poisoned.dither_omega_max = rhs.dither_omega_max
        return poisoned

    monkeypatch.setattr(averaging, "es_closed_loop", poisoned_loop)
    rows = u.practical_stability_probe(fig3_params, quartic, PROBE_CFG)
    for row, want in zip(rows, clean):
        if row.trial == 1:
            assert (row.omega, row.entry_time, row.stayed, row.sup_gap) == (want.omega, math.inf, False, math.inf)
        else:
            assert row == want


def test_probe_pool_rows_equal_in_process_rows(quartic, fig3_params, monkeypatch):
    sweep = cli.resolve_config("omega_sweep")
    cases = [(fig3_params, quartic, PROBE_CFG),
             (sweep.params, sweep.map, dataclasses.replace(sweep.probe, trials=3))]  # the sweep_probe shape
    for p, map_, cfg in cases:
        _pooled(monkeypatch)
        pooled = u.practical_stability_probe(p, map_, cfg)
        _in_process(monkeypatch)
        serial = u.practical_stability_probe(p, map_, cfg)
        assert len(pooled) == len(cfg.omega_values) * cfg.trials
        assert pooled == serial
        assert u.probe_rows_csv(pooled) == u.probe_rows_csv(serial)


def test_probe_jobs_run_in_workers(quartic, fig3_params, monkeypatch, tmp_path):
    # each integration appends its process id to a file, which outlives the workers
    pids = tmp_path / "pids"
    real = averaging.integrate

    def integrate(*args, **kwargs):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(averaging, "integrate", integrate)
    _pooled(monkeypatch)
    u.practical_stability_probe(fig3_params, quartic, PROBE_CFG)
    seen = [int(line) for line in pids.read_text().split()]
    assert len(seen) == (1 + len(PROBE_CFG.omega_values)) * PROBE_CFG.trials
    assert os.getpid() not in seen
    assert len(set(seen)) <= 2


def test_run_jobs_pool_returns_results_in_job_order(monkeypatch, tmp_path):
    # toy jobs, listed shortest first as the probe lists its own, in two forked workers: the results come back
    # in job order, a diverged job gives None, and the two longest jobs start first
    starts = tmp_path / "starts"

    def job(i):
        with open(starts, "a") as f:
            f.write(f"{i}\n")
        time.sleep(0.05)
        if i == 2:
            raise IntegrationDiverged("forced", t_last=0.0, trajectory=u.Trajectory([0.0], [1.0], 1))
        return i * i

    _pooled(monkeypatch)
    assert averaging._run_jobs([functools.partial(job, i) for i in range(6)]) == [0, 1, None, 9, 16, 25]
    started = [int(line) for line in starts.read_text().split()]
    assert sorted(started) == list(range(6)) and set(started[:2]) == {4, 5}


def test_two_runners_in_threads_keep_their_own_jobs(monkeypatch):
    # thread A's first job waits until thread B's whole run has ended: each run reads only the jobs it was given
    _in_process(monkeypatch)
    a_started, b_ended = threading.Event(), threading.Event()
    results = {}

    def job(name, i):
        if name == "a" and i == 0:
            a_started.set()
            assert b_ended.wait(60)
        return f"{name}{i}"

    def run(name, before=None):
        if before is not None:
            assert before.wait(60)
        try:
            results[name] = averaging._run_jobs([functools.partial(job, name, i) for i in range(2)])
        except Exception as e:
            results[name] = repr(e)
        if name == "b":
            b_ended.set()

    threads = [threading.Thread(target=run, args=("a",)), threading.Thread(target=run, args=("b", a_started))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert results == {"a": ["a0", "a1"], "b": ["b0", "b1"]}


@pytest.fixture
def deadline():
    """Fail a test that still waits after 60 s instead of letting it hang."""
    def give_up(signum, frame):
        raise TimeoutError("the runner still waits after 60 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_run_jobs_results_larger_than_a_pipe_do_not_stall_workers(monkeypatch, deadline):
    # each result is about 100 KiB, more than a 64 KiB pipe buffer holds: a worker writes it whole to its job's
    # file and takes its next job without waiting for the parent, so both workers keep taking jobs, and the
    # results come back whole and in job order
    def job(i):
        time.sleep(0.05)
        return os.getpid(), bytes([i]) * (100 * 1024)

    _pooled(monkeypatch)
    results = averaging._run_jobs([functools.partial(job, i) for i in range(8)])
    assert [payload for _, payload in results] == [bytes([i]) * (100 * 1024) for i in range(8)]
    taken = [pid for pid, _ in results]
    assert len(set(taken)) == 2 and os.getpid() not in taken
    assert min(taken.count(pid) for pid in set(taken)) >= 2


def test_run_jobs_racing_workers_take_each_job_once(monkeypatch, deadline):
    # four workers, more than a two-core machine runs at once, race through 20,000 short jobs, each taking a job
    # by creating its result file: every job must be taken exactly once, since one that no worker took leaves no
    # result, and two writers of one file could interleave their pickles
    monkeypatch.setattr(averaging, "_worker_count", lambda jobs: 4)
    assert averaging._run_jobs([functools.partial(int, i) for i in range(20_000)]) == list(range(20_000))


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_run_jobs_leaves_no_process_or_descriptor_behind(monkeypatch, tmp_path, deadline):
    parent = os.getpid()

    def job(i, fail=None):
        time.sleep(0.02)
        if i == 3 and fail == "raise":
            raise ValueError("job 3 refused")
        if i == 3 and fail == "die" and os.getpid() != parent:
            os._exit(1)
        if i == 3 and fail == "kill" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        if i == 3 and fail == "exit 0" and os.getpid() != parent:  # leaves its result file empty
            os._exit(0)
        return i

    _pooled(monkeypatch)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where the runner makes its result files
    for fail, raises, match in ((None, None, None), ("raise", ValueError, "^job 3 refused$"),
                                ("die", WorkerLost, r"\(exit status 1\)$"),
                                ("kill", WorkerLost, r"\(killed by signal 9\)$"),
                                ("exit 0", WorkerLost, r"\(exit status 0\)$")):
        before = _open_fds()
        jobs = [functools.partial(job, i, fail) for i in range(6)]
        if raises is None:
            assert averaging._run_jobs(jobs) == list(range(6))
        else:
            with pytest.raises(raises, match=match):
                averaging._run_jobs(jobs)
        with pytest.raises(ChildProcessError):  # every worker has been reaped
            os.waitpid(-1, os.WNOHANG)
        assert _open_fds() == before
        assert list(tmp_path.iterdir()) == []


def test_run_jobs_with_more_descriptors_open_than_fd_setsize(monkeypatch, deadline):
    # 1,030 descriptors held open here put the runner's own above FD_SETSIZE (1,024 on Linux), past which
    # select.select refuses a descriptor; the runner waits on no descriptor, so the results still come back
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    limit = 2048 if hard == resource.RLIM_INFINITY else min(hard, 2048)
    if limit < 1100:
        pytest.skip(f"this process may open at most {hard} descriptors")
    if soft != resource.RLIM_INFINITY and soft < limit:
        resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
    held = []
    try:
        for _ in range(1030):
            held.append(os.open(os.devnull, os.O_RDONLY))
        _pooled(monkeypatch)
        assert averaging._run_jobs([functools.partial(int, i) for i in range(6)]) == list(range(6))
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


class _NeedsTwoArguments(Exception):
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")  # args holds one string, so unpickling calls this with one argument


@pytest.mark.parametrize("unsent, message", [
    ("result", r"^probe job 1's result cannot be pickled to leave its worker process \(TypeError: "),
    ("exception", r"^probe job 1's exception ValueError\(<unlocked _thread.lock object at .*\) cannot be pickled"),
    ("unpicklable exception", r"^a probe worker's message cannot be unpickled here \(TypeError: "),
])
def test_run_jobs_unpicklable_result_or_exception_is_reported(monkeypatch, capfd, deadline, unsent, message):
    def job(i):
        if i != 1:
            return i
        if unsent == "result":
            return threading.Lock()
        if unsent == "exception":
            raise ValueError(threading.Lock())
        raise _NeedsTwoArguments("job 1", "refused")

    _pooled(monkeypatch)
    with pytest.raises(RuntimeError, match=message):
        averaging._run_jobs([functools.partial(job, i) for i in range(4)])
    assert "Traceback" not in capfd.readouterr().err  # no worker printed one
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with pytest.raises(TypeError):  # the case is what it says: the exception's own pickle does not load
        pickle.loads(pickle.dumps(_NeedsTwoArguments("a", "b")))


def test_sweep_imports_no_process_pool(tmp_path):
    # a fresh `ueslab sweep omega_sweep`, forced to fork two workers, loads neither module into the parent
    script = (
        "import sys\n"
        "from ueslab import averaging, cli\n"
        "averaging._worker_count = lambda jobs: min(jobs, 2)\n"
        "code = cli.main(['sweep', 'omega_sweep'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, UESLAB_OUT=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "omega_sweep.probe.csv").is_file()


def test_probe_worker_exception_reaches_parent(quartic, fig3_params, monkeypatch):
    real = averaging.es_closed_loop

    def failing_loop(p, map_):
        rhs = real(p, map_)

        def failing(x, t):
            raise ValueError(f"rhs refused t = {t:g} in process {os.getpid()}")

        failing.dither_omega_max = rhs.dither_omega_max
        return failing

    monkeypatch.setattr(averaging, "es_closed_loop", failing_loop)
    _pooled(monkeypatch)
    with pytest.raises(ValueError, match=r"^rhs refused t = 0 in process \d+$") as err:
        u.practical_stability_probe(fig3_params, quartic, PROBE_CFG)
    assert type(err.value) is ValueError
    assert f"process {os.getpid()}" not in str(err.value)


def test_probe_dead_worker_raises_instead_of_waiting(quartic, fig3_params, monkeypatch, deadline):
    # a worker that exits without returning, as one killed from outside would
    parent = os.getpid()
    real = averaging.integrate

    def integrate(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(averaging, "integrate", integrate)
    _pooled(monkeypatch)
    with pytest.raises(WorkerLost, match="ended without returning"):
        u.practical_stability_probe(fig3_params, quartic, PROBE_CFG)


def test_cli_sweep_dead_worker_exits_3(monkeypatch, capfd, tmp_path):
    # the same dead worker, through the CLI: one line of diagnosis and exit 3, not a traceback
    parent = os.getpid()
    real = averaging.integrate

    def integrate(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(averaging, "integrate", integrate)
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path))
    _pooled(monkeypatch)
    assert cli.main(["sweep", "omega_sweep"]) == 3
    err = capfd.readouterr().err
    assert "probe failure: a probe worker process ended without returning its result" in err
    assert "Traceback" not in err
