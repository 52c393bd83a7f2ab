"""Lie brackets, the transformed loop's b-fields, and the practical-stability probe.

The transformed loop has the control-affine shape

    dz/dt = b0(z, t) + sum_i sqrt(w_i) (b_c_i(z, t) cos(w_i t) - b_s_i(z, t) sin(w_i t))

and its Lie-bracket average is b0 - (1/2) sum_i [b_c_i, b_s_i].  The rhs of
``controllers.averaged_closed_loop`` is b0 minus the closed form of that
bracket sum, generated from the transformed frame's stage text; the numeric
``lie_bracket`` operator exists so tests can confirm the identity on
``transformed_b_fields`` instead of trusting the algebra.

Every right-hand side here takes one state, a sequence of d floats, and
returns a tuple, as the deployed loop's does.  ``practical_stability_probe``
integrates the averaged system once per trial, at the full loop's step for
the smallest swept omega (it reads neither omega nor omega_hat), and the
deployed loop once per (omega, trial).  The full-loop samples read the
averaged run through a cubic Hermite interpolant.  Those integrations share
no state, so they run as independent jobs in forked worker processes, one
per available CPU, which take job indices from one pipe and send their
results back pickled, each on its own pipe.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .controllers import EsParams, averaged_closed_loop, es_closed_loop, phase_error, require_transformable
from .errors import IntegrationDiverged, WorkerLost
from .maps import CostMap
from .sim import STEPS_PER_PERIOD, dither_step_bound, integrate

Array = np.ndarray

JACOBIAN_STEP = 1e-6


def _jacobian(field: Callable, x: Array, t: float) -> Array:
    """Central-difference Jacobian d(field)/dx, column j with step JACOBIAN_STEP * max(1, |x_j|)."""
    cols = []
    for j in range(x.size):
        hj = JACOBIAN_STEP * max(1.0, abs(x[j]))
        e = np.zeros(x.size)
        e[j] = hj
        cols.append((np.asarray(field(x + e, t), dtype=float) - np.asarray(field(x - e, t), dtype=float)) / (2.0 * hj))
    return np.column_stack(cols)


def lie_bracket(f: Callable, g: Callable, x, t: float) -> Array:
    """[f, g](x, t) = (dg/dx) f - (df/dx) g with finite-difference Jacobians."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    fv = np.asarray(f(x, t), dtype=float)
    gv = np.asarray(g(x, t), dtype=float)
    if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
        raise FloatingPointError(f"non-finite vector field value at x = {x}, t = {t}")
    out = _jacobian(g, x, t) @ fv - _jacobian(f, x, t) @ gv
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"non-finite Lie bracket at x = {x}, t = {t}")
    return out


def transformed_b_fields(p: EsParams, map: CostMap):
    """Decomposition of the transformed loop into (b0, [(b_c_i, b_s_i), ...]).

    Fields act on the packed state z = [theta_f_1..theta_f_n, eta_f], a 1-D
    array as ``lie_bracket`` passes it.  The dither-paired fields carry the
    cos/sin of the per-channel phase; only b0 touches eta_f.  Written per
    component, they are a reference for the generated loops, not a loop.
    """
    require_transformable(p, map)
    n, kappa2, omega_h, star, sqrt_alpha = p.n, 2.0 * map.kappa, p.omega_h, map.optimum.tolist(), np.sqrt(p.alpha)

    def drift(z: Array, t: float):
        """b0 at (z, t), the schedule's factors at t, and the deployed loop's error J(theta) - eta."""
        f = p.schedule.factors(t)
        xi2k = math.exp(kappa2 * f.log_xi)
        jf = map.centered([s + z_i * f.nu for s, z_i in zip(star, z)])
        b0 = [f.g * z_i for z_i in z[:n]] + [(kappa2 * f.g - omega_h) * z[n] + omega_h * xi2k * jf]
        return b0, f, jf - z[n] / xi2k

    def dither_field(i: int, trig: Callable) -> Callable:
        def b(z: Array, t: float) -> Array:
            out = np.zeros(n + 1)
            _, f, err = drift(z, t)
            out[i] = sqrt_alpha[i] * trig(phase_error(f, err) * p.k[i])
            return out

        return b

    return (lambda z, t: drift(z, t)[0]), [(dither_field(i, math.cos), dither_field(i, math.sin)) for i in range(n)]


@dataclass(frozen=True)
class ProbeConfig:
    """Sweep settings for the empirical practical-stability probe.

    omega_values  ascending dither base frequencies to try
    epsilon       target neighborhood radius around the optimum
    delta         initial-condition ball radius (epsilon <= delta)
    horizon       integration span per trial
    trials        seeded initial conditions per omega
    seed          draw seed; trials are shared across omega values
    """

    omega_values: Tuple[float, ...]
    epsilon: float
    delta: float
    horizon: float
    trials: int
    seed: int

    def __post_init__(self):
        vals = tuple(float(w) for w in self.omega_values)
        object.__setattr__(self, "omega_values", vals)
        if len(vals) == 0:
            raise ValueError("omega_values must not be empty")
        if any(w <= 0.0 for w in vals) or any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"omega_values must be ascending and positive, got {vals}")
        if self.epsilon <= 0.0 or self.delta <= 0.0:
            raise ValueError("epsilon and delta must be positive")
        if self.epsilon > self.delta:
            raise ValueError(f"epsilon = {self.epsilon} must not exceed delta = {self.delta}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class ProbeRow:
    """One (omega, trial) outcome.

    entry_time  elapsed time of the first recorded sample inside the
                epsilon-ball; inf when the trajectory never enters
    stayed      whether every sample after entry remained inside
    sup_gap     sup over samples of |theta_full - theta_averaged| with the
                averaged run mapped back through theta* + theta_f/xi(t) and
                read at the full loop's samples by cubic Hermite interpolation
                (exact at the smallest omega, whose samples are its nodes);
                inf when either integration diverged
    """

    omega: float
    trial: int
    entry_time: float
    stayed: bool
    sup_gap: float


def probe_rows_csv(rows: Sequence[ProbeRow]) -> str:
    lines = ["omega,trial,entry_time,stayed,sup_gap"]
    for row in rows:
        lines.append(
            f"{format(row.omega, '.17g')},{row.trial},{format(row.entry_time, '.17g')},"
            f"{int(row.stayed)},{format(row.sup_gap, '.17g')}"
        )
    return "\n".join(lines) + "\n"


def _hermite(times: Array, values: Array, slopes: Array, at: Array) -> Array:
    """Cubic Hermite interpolant through (times, values) with the given slopes, read at `at`.

    times (N,) ascending with N >= 2, values and slopes (N, n), at (m,) within [times[0], times[-1]];
    the result is (m, n).  At a node it returns that node's values bit for bit.
    """
    k = np.clip(np.searchsorted(times, at, side="right") - 1, 0, len(times) - 2)
    h = times[k + 1] - times[k]
    s = (at - times[k]) / h
    h, s = h[:, None], s[:, None]
    r = 1.0 - s
    return (
        (1.0 + 2.0 * s) * r * r * values[k]
        + s * r * r * h * slopes[k]
        + s * s * (3.0 - 2.0 * s) * values[k + 1]
        - s * s * r * h * slopes[k + 1]
    )


def _trial_starts(map: CostMap, cfg: ProbeConfig) -> Array:
    """The probe's seeded starts x = [theta, J(theta)], shape (trials, n + 1),
    with theta uniform in the delta-ball around theta*."""
    rng = np.random.default_rng(cfg.seed)
    dirs = rng.standard_normal((cfg.trials, map.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = cfg.delta * rng.random(cfg.trials) ** (1.0 / map.dim)
    theta0s = map.optimum + radii[:, None] * dirs
    return np.column_stack([theta0s, [map(theta0) for theta0 in theta0s]])


def _integrate_averaged(rhs: Callable, x0: tuple, t0: float, t1: float, dt: float, n: int):
    """One averaged trial from x0, every step recorded, and its theta slopes at the samples."""
    avg = integrate(rhs, x0, t0, t1, dt, n=n)
    return avg, np.array([rhs(x, t)[:n] for x, t in zip(avg.states.tolist(), avg.times.tolist())])


# the running probe's jobs, which forked workers inherit; it holds one probe's
# jobs at a time, so probes in threads of one process would clobber each other
_JOBS: List[Callable[[], object]] = []


def _run_job(index: int):
    try:
        return _JOBS[index]()
    except IntegrationDiverged:
        return None


def _worker_count(jobs: int) -> int:
    """Processes for `jobs` independent jobs: one per CPU this process may run on, at most one per job."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return min(jobs, cpus)


def _run_jobs(jobs: Sequence[Callable[[], object]]) -> list:
    """Each job's result, in job order; the jobs come listed from the fewest RK4 steps to the most.

    With one worker the jobs run here, in order.  Otherwise they run in
    forked worker processes (see _fork_jobs), one job at a time each, from
    the last job back, so that the longest start first.  The jobs close over
    right-hand sides, which cannot be pickled, so the workers inherit them
    through _JOBS and receive only indices.  A job that diverged gives None,
    another exception raised in a job is raised here with its type and
    message, and a dead worker raises WorkerLost instead of leaving the probe
    waiting.
    """
    workers = _worker_count(len(jobs))
    _JOBS[:] = jobs
    try:
        if workers == 1:
            return list(map(_run_job, range(len(jobs))))
        return _fork_jobs(len(jobs), workers)
    finally:
        _JOBS.clear()


_RECORD = 4  # bytes of one job index in the task pipe; a read of at most PIPE_BUF bytes is atomic
_HEADER = 8  # bytes of the length that precedes each pickled message on a result pipe


def _fork_jobs(count: int, workers: int) -> list:
    """The results of _JOBS[:count], run by `workers` forked processes.

    One task pipe holds every job index, longest job first, as a _RECORD-byte
    record; each worker reads one record, runs that job, sends its message
    and reads the next, until the pipe is empty and closed, so the jobs are
    balanced as they finish.  The records are written before the first fork
    as far as the pipe takes them, the rest as workers read.  Each worker
    sends (index, ok, value) pickled on its own result pipe, and the parent
    reads every result pipe as data arrives, so no worker waits on a full
    pipe.  On any exception the workers are killed; every worker is reaped
    and every pipe closed before this returns or raises.
    """
    # imported here, not at module level: `run` never forks and would pay for them in start-up time
    import select
    import signal

    tasks = b"".join(i.to_bytes(_RECORD, "little") for i in reversed(range(count)))
    chunk = select.PIPE_BUF - select.PIPE_BUF % _RECORD  # whole records, written atomically or not at all
    task_r, task_w = os.pipe()
    os.set_blocking(task_w, False)
    fds = {task_r, task_w}  # every descriptor open here
    owners = {}  # result read end -> pid of the worker writing it
    results, received = [None] * count, 0

    def feed():
        nonlocal tasks
        try:
            while tasks:
                tasks = tasks[os.write(task_w, tasks[:chunk]) :]
        except BlockingIOError:  # the pipe is full; more goes in as workers read
            return
        except BrokenPipeError:  # every worker has gone; the jobs left are reported lost
            tasks = b""
        os.close(task_w)
        fds.discard(task_w)

    try:
        feed()
        for _ in range(workers):
            result_r, result_w = os.pipe()
            fds.update((result_r, result_w))
            pid = os.fork()
            if pid == 0:  # the worker: nothing it raises leaves this block, and it never returns
                status = 1
                try:
                    for fd in fds - {task_r, result_w}:
                        os.close(fd)
                    _work(task_r, result_w)
                    status = 0
                finally:
                    os._exit(status)
            owners[result_r] = pid
            os.close(result_w)
            fds.discard(result_w)
        os.close(task_r)
        fds.discard(task_r)

        while owners:
            readable, writable, _ = select.select(list(owners), [task_w] if tasks else [], [])
            if writable:
                feed()
            for fd in readable:
                head = _read_exactly(fd, _HEADER)
                if len(head) == _HEADER:
                    size = int.from_bytes(head, "little")
                    body = _read_exactly(fd, size)
                    if len(body) == size:
                        index, ok, value = _loads(body)
                        if not ok:
                            raise value
                        results[index] = value
                        received += 1
                        continue
                # the worker closed its pipe, so it has ended: cleanly only with status 0 between two messages
                os.close(fd)
                fds.discard(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(owners.pop(fd), 0)[1])
                if code or head:
                    raise _lost(f"exit status {code}" if code >= 0 else f"killed by signal {-code}")
        if received < count:
            raise _lost("exit status 0")
        return results
    except BaseException:
        for pid in owners.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        for pid in owners.values():
            os.waitpid(pid, 0)


def _lost(how: str) -> WorkerLost:
    return WorkerLost(f"a probe worker process ended without returning its result ({how})")


def _work(tasks: int, out: int) -> None:
    """A forked worker's loop: run the job of each index read from `tasks` and send its message on `out`."""
    while record := os.read(tasks, _RECORD):
        index = int.from_bytes(record, "little")
        try:
            message = (index, True, _run_job(index))
        except Exception as e:  # sent to the parent, which raises it; an interrupt or exit ends the worker instead
            message = (index, False, e)
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception as e:
            what = "result" if message[1] else f"exception {message[2]!r}"
            data = pickle.dumps((index, False, RuntimeError(
                f"probe job {index}'s {what} cannot be pickled to leave its worker process ({type(e).__name__}: {e})")))
        for part in (len(data).to_bytes(_HEADER, "little"), data):
            view = memoryview(part)
            while view:
                view = view[os.write(out, view) :]


def _read_exactly(fd: int, size: int):
    """`size` bytes read from fd into one buffer, or fewer if the pipe ends first."""
    buf = bytearray(size)
    view, got = memoryview(buf), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            return buf[:got]
        got += n
    return buf


def _loads(body):
    try:
        return pickle.loads(body)
    except Exception as e:
        raise RuntimeError(f"a probe worker's message cannot be unpickled here ({type(e).__name__}: {e})") from e


def practical_stability_probe(p: EsParams, map: CostMap, cfg: ProbeConfig) -> List[ProbeRow]:
    """Empirical check of practical uniform stability over an omega sweep.

    For each omega and each seeded initial input in the delta-ball around the
    optimum (eta starts on the measured cost), integrates the full loop and
    reports epsilon-neighborhood entry time, whether the trajectory stayed,
    and the sup-norm gap to the matched averaged trajectory.  The evidence is
    finite-sample only: it can refute but never prove the semi-global claim.
    Diverged integrations are recorded as rows with inf markers, not raised.

    The averaged system reads neither omega nor omega_hat, so each trial's
    averaged run is integrated once, at the full loop's step for the
    smallest omega, recording every step, and each full-loop sample reads it
    through a cubic Hermite interpolant whose node slopes are the averaged
    rhs.  The smallest omega's samples fall on the nodes, so its rows equal
    a per-omega integration bit for bit; the other rows differ from one only
    in sup_gap, by the interpolation error.  Each (omega, trial) of the
    deployed loop is its own integration too.  A trial whose full-loop run
    diverges gets its inf row, and one whose averaged run diverges gets an
    inf sup_gap at every omega.  Rows are returned omega-major.

    The integrations are independent jobs run by ``_run_jobs``, in forked
    workers when more than one CPU is available; every row is computed here
    from their results, so the rows do not depend on how the jobs were run.
    """
    averaged = averaged_closed_loop(p, map)
    full_rhss = [es_closed_loop(p.with_omega(omega), map) for omega in cfg.omega_values]
    dts = [dither_step_bound(full_rhs.dither_omega_max) for full_rhs in full_rhss]
    star, n, trials = map.optimum, map.dim, cfg.trials
    x0s = _trial_starts(map, cfg)
    starts = [tuple(x0) for x0 in x0s.tolist()]
    # matched transformed starts: xi(t0) = 1, so theta_f = theta - theta* and eta_f = eta - J(theta*)
    avg_starts = [tuple(z0) for z0 in (x0s - np.append(star, map.optimal_value)).tolist()]
    t0 = p.schedule.t0
    t1 = t0 + cfg.horizon

    # from the fewest steps to the most: the averaged jobs at the smallest omega's step, then the full-loop
    # jobs by ascending omega, which sample once per dither period
    jobs = [partial(_integrate_averaged, averaged, z0, t0, t1, dts[0], n) for z0 in avg_starts] + [
        partial(integrate, f, x0, t0, t1, dt, STEPS_PER_PERIOD, n=n) for f, dt in zip(full_rhss, dts) for x0 in starts
    ]
    results = _run_jobs(jobs)
    avgs, fulls = results[:trials], results[trials:]

    rows: List[ProbeRow] = []
    for i, omega in enumerate(cfg.omega_values):
        xi_vals = None
        for trial, full in enumerate(fulls[i * trials : (i + 1) * trials]):
            entry_time, stayed, sup_gap = math.inf, False, math.inf
            if full is not None:
                inside = np.linalg.norm(full.theta - star, axis=-1) <= cfg.epsilon
                hits = np.flatnonzero(inside)
                if hits.size:
                    entry_time = float(full.times[hits[0]] - t0)
                    stayed = bool(np.all(inside[hits[0] :]))
                if avgs[trial] is not None:
                    avg, slopes = avgs[trial]
                    if xi_vals is None:  # every trial of one omega has the same sample times
                        xi_vals = np.array([p.schedule.xi(t) for t in full.times])
                    theta_f = _hermite(avg.times, avg.theta, slopes, full.times)
                    theta_bar = star + theta_f / xi_vals[:, None]
                    sup_gap = float(np.max(np.linalg.norm(full.theta - theta_bar, axis=-1)))
            rows.append(ProbeRow(omega, trial, entry_time, stayed, sup_gap))
    return rows
