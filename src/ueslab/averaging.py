"""Lie brackets, the transformed loop's b-fields, and the practical-stability probe.

The transformed loop has the control-affine shape

    dz/dt = b0(z, t) + sum_i sqrt(w_i) (b_c_i(z, t) cos(w_i t) - b_s_i(z, t) sin(w_i t))

and its Lie-bracket average is b0 - (1/2) sum_i [b_c_i, b_s_i].  The rhs of
``controllers.averaged_closed_loop`` is b0 minus the closed form of that
bracket sum, generated from the transformed frame's stage text; the numeric
``lie_bracket`` operator exists so tests can confirm the identity on
``transformed_b_fields`` instead of trusting the algebra.

Every right-hand side here takes one state, a sequence of d floats, and
returns a tuple, as the deployed loop's does; ``lie_bracket`` and its
Jacobians are test oracles, which import numpy when called.
``practical_stability_probe``
integrates the averaged system once per trial, at the full loop's step for
the smallest swept omega (it reads neither omega nor omega_hat), and the
deployed loop once per (omega, trial).  The full-loop samples read the
averaged run through a cubic Hermite interpolant.  Those integrations share
no state, so ``_run_jobs`` runs them as independent jobs in forked worker
processes, one per available CPU.  Each worker inherits the job list of the
call that forked it, takes each job by creating its result file, and writes
the job's result there pickled; no module-level state holds the jobs.  A
result holds only floats and ``array('d')`` buffers, so reading it back
loads no numpy.
"""

from __future__ import annotations

import bisect
import math
import os
import pickle
import random
import tempfile
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, List, Sequence, Tuple

from .controllers import EsParams, averaged_closed_loop, es_closed_loop, require_transformable
from .errors import IntegrationDiverged, WorkerLost
from .maps import CostMap
from .sim import STEPS_PER_PERIOD, csv_text, dither_step_bound, integrate

JACOBIAN_STEP = 1e-6


def _jacobian(field: Callable, x, t: float):
    """Central-difference Jacobian d(field)/dx of a numpy state x, column j with step JACOBIAN_STEP * max(1, |x_j|)."""
    import numpy as np

    cols = []
    for j in range(x.size):
        hj = JACOBIAN_STEP * max(1.0, abs(x[j]))
        e = np.zeros(x.size)
        e[j] = hj
        cols.append((np.asarray(field(x + e, t), dtype=float) - np.asarray(field(x - e, t), dtype=float)) / (2.0 * hj))
    return np.column_stack(cols)


def lie_bracket(f: Callable, g: Callable, x, t: float):
    """[f, g](x, t) = (dg/dx) f - (df/dx) g with finite-difference Jacobians, as a numpy array."""
    import numpy as np

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

    Fields act on the packed state z = [theta_f_1..theta_f_n, eta_f], a
    sequence of floats or a 1-D array as ``lie_bracket`` passes it, and return
    lists of n + 1 floats.  The dither-paired fields carry the
    cos/sin of the per-channel phase; only b0 touches eta_f.  Written per
    component, they are a reference for the generated loops, not a loop.
    """
    require_transformable(p, map)
    n, kappa2, omega_h, star = p.n, 2.0 * map.kappa, p.omega_h, map.optimum
    sqrt_alpha = [math.sqrt(a) for a in p.alpha]

    def drift(z, t: float):
        """b0 at (z, t), the schedule's factors at t, and the deployed loop's error J(theta) - eta."""
        f = p.schedule.factors(t)
        xi2k = math.exp(kappa2 * f.log_xi)
        jf = map.centered([s + z_i * f.nu for s, z_i in zip(star, z)])
        b0 = [f.g * z_i for z_i in z[:n]] + [(kappa2 * f.g - omega_h) * z[n] + omega_h * xi2k * jf]
        return b0, f, jf - z[n] / xi2k

    def dither_field(i: int, trig: Callable) -> Callable:
        def b(z, t: float) -> list:
            out = [0.0] * (n + 1)
            _, f, err = drift(z, t)
            out[i] = sqrt_alpha[i] * trig(f.phi * err * p.k[i])
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
    seed          draw seed >= 0; trials are shared across omega values

    A refusal names the probe.* config key that sets the refused field.
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
            raise ValueError("probe.omegas must not be empty")
        if not all(math.isfinite(w) and w > 0.0 for w in vals) or any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"probe.omegas must be ascending and positive, got {', '.join(map(format, vals))}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"probe.epsilon must be positive, got {self.epsilon}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"probe.delta must be positive, got {self.delta}")
        if self.epsilon > self.delta:
            raise ValueError(f"probe.epsilon = {self.epsilon} must not exceed probe.delta = {self.delta}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"probe.horizon must be positive, got {self.horizon}")
        if self.trials < 1:
            raise ValueError(f"probe.trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"probe.seed must be >= 0, got {self.seed}")


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
    return csv_text(("omega", "trial", "entry_time", "stayed", "sup_gap"),
                    ((r.omega, r.trial, r.entry_time, int(r.stayed), r.sup_gap) for r in rows))


def _hermite(times: array, values: Sequence[array], slopes: Sequence[array], t: float) -> List[float]:
    """The cubic Hermite interpolant through the samples (times, values) with the given slopes, read at t.

    times holds N >= 2 ascending samples, values and slopes one column of N floats per channel, and t lies
    within [times[0], times[-1]]; the result is one float per channel.  At a node it returns that node's
    values bit for bit.
    """
    k = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 2)
    h = times[k + 1] - times[k]
    s = (t - times[k]) / h
    r = 1.0 - s
    return [(1.0 + 2.0 * s) * r * r * v[k] + s * r * r * h * m[k] + s * s * (3.0 - 2.0 * s) * v[k + 1]
            - s * s * r * h * m[k + 1] for v, m in zip(values, slopes)]


def _trial_starts(map: CostMap, cfg: ProbeConfig) -> List[tuple]:
    """The probe's seeded starts x = (theta..., J(theta) - J*), one tuple of n + 1 floats per trial,
    with theta uniform in the delta-ball around theta*; a start whose cost leaves double range raises.

    Every number comes from the standard library's `random.Random(cfg.seed)`,
    whose stream Python keeps across versions.  Per trial, each of the n
    direction components is a Box-Muller normal from two draws, and one more
    draw u sets the radius delta * u^(1/n).
    """
    draw = random.Random(cfg.seed).random
    star, n = map.optimum, map.dim
    starts = []
    for _ in range(cfg.trials):
        direction = [math.sqrt(-2.0 * math.log(1.0 - draw())) * math.cos(2.0 * math.pi * draw()) for _ in range(n)]
        scale = cfg.delta * draw() ** (1.0 / n) / math.hypot(*direction)
        theta = [s + scale * d for s, d in zip(star, direction)]
        try:
            cost = map.centered_value(theta)
        except OverflowError:  # a float ** out of range
            cost = math.inf
        starts.append((*theta, cost))
    if not all(math.isfinite(start[-1]) for start in starts):
        raise FloatingPointError(f"probe.delta = {cfg.delta:g} draws a start whose cost J(theta) is out of double range")
    return starts


def _integrate_averaged(rhs: Callable, x0: tuple, t0: float, t1: float, dt: float, n: int):
    """One averaged trial from x0, every step recorded, and its theta slopes at the samples, row-major."""
    avg = integrate(rhs, x0, t0, t1, dt, n=n)
    states = zip(*[iter(avg.rows)] * avg.width)  # the recorded rows as tuples
    return avg, array("d", chain.from_iterable(rhs(x, t)[:n] for x, t in zip(states, avg.times)))


def _run_job(job: Callable[[], object]):
    try:
        return job()
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

    A job that diverged gives None.  With one worker the jobs run here, in
    order.  Otherwise forked worker processes run them; the jobs close over
    right-hand sides, which cannot be pickled, so each worker inherits this
    call's `jobs` and only their results are pickled.  Each worker walks the
    jobs from the last, the longest, back to the first, and takes a job by
    creating its result file, named by its index, in a private temporary
    directory with O_EXCL: a file that already exists is another worker's
    job.  So each job runs once and the jobs are balanced as they finish.
    The worker writes the pickle of (ok, value) into that file and leaves
    only through os._exit.  The parent waits for each worker in turn, raises
    WorkerLost for one that did not exit with status 0, and then reads the
    files in job order, raising the first exception a job raised, with its
    type and message.  On any exception the workers are killed; every worker
    is reaped before the directory is removed and this returns or raises.
    """
    workers = _worker_count(len(jobs))
    if workers == 1:
        return list(map(_run_job, jobs))
    import signal  # imported here, not at module level: `run` never forks, and nothing else it imports loads signal

    pids = []  # the workers not yet reaped
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for _ in range(workers):
                pid = os.fork()
                if pid == 0:  # the worker: nothing it raises leaves this block, and it never returns
                    status = 1
                    try:
                        _work(tmp, jobs)
                        status = 0
                    finally:
                        os._exit(status)
                pids.append(pid)
            while pids:
                code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                del pids[0]
                if code:
                    how = f"exit status {code}" if code > 0 else f"killed by signal {-code}"
                    raise WorkerLost(f"a probe worker process ended without returning its result ({how})")
            return [_result(tmp, index) for index in range(len(jobs))]
        except BaseException:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid in pids:
                os.waitpid(pid, 0)


def _work(tmp: str, jobs: Sequence[Callable[[], object]]) -> None:
    """A forked worker's loop: take each job no other worker has, from the last back, and write its result file."""
    for index in reversed(range(len(jobs))):
        try:
            fd = os.open(os.path.join(tmp, str(index)), os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:  # another worker took this job
            continue
        try:
            message = (True, _run_job(jobs[index]))
        except Exception as e:  # written for the parent, which raises it; an interrupt or exit ends the worker instead
            message = (False, e)
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception as e:
            what = "result" if message[0] else f"exception {message[1]!r}"
            data = pickle.dumps((False, RuntimeError(
                f"probe job {index}'s {what} cannot be pickled to leave its worker process ({type(e).__name__}: {e})")))
        with open(fd, "wb") as f:
            f.write(data)


def _result(tmp: str, index: int):
    """Job `index`'s result, read from its file in tmp; an exception the job raised is raised here."""
    with open(os.path.join(tmp, str(index)), "rb") as f:
        body = f.read()
    if not body:  # the worker that took this job exited with status 0 inside it
        raise WorkerLost("a probe worker process ended without returning its result (exit status 0)")
    try:
        ok, value = pickle.loads(body)
    except Exception as e:
        raise RuntimeError(f"a probe worker's message cannot be unpickled here ({type(e).__name__}: {e})") from e
    if not ok:
        raise value
    return value


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
    workers that inherit this call's job list when more than one CPU is
    available; every row is computed here from their results, so the rows do
    not depend on how the jobs were run.
    """
    averaged = averaged_closed_loop(p, map)
    full_rhss = [es_closed_loop(p.with_omega(omega), map) for omega in cfg.omega_values]
    dts = [dither_step_bound(full_rhs.dither_omega_max) for full_rhs in full_rhss]
    star, n, trials = map.optimum, map.dim, cfg.trials
    starts = _trial_starts(map, cfg)
    # matched transformed starts: xi(t0) = 1, so theta_f = theta - theta*, and eta_f = eta - J(theta*) is x0's own
    offset = (*star, 0.0)
    avg_starts = [tuple(x - s for x, s in zip(x0, offset)) for x0 in starts]
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
                thetas = list(zip(*[full.column(j) for j in range(n)]))
                inside = [math.hypot(*(a - s for a, s in zip(theta, star))) <= cfg.epsilon for theta in thetas]
                if any(inside):
                    first = inside.index(True)
                    entry_time = full.times[first] - t0
                    stayed = all(inside[first:])
                if avgs[trial] is not None:
                    avg, slopes = avgs[trial]
                    if xi_vals is None:  # every trial of one omega has the same sample times
                        xi_vals = [p.schedule.xi(t) for t in full.times]
                    nodes = (avg.times, [avg.column(j) for j in range(n)], [slopes[j::n] for j in range(n)])
                    sup_gap = max(
                        math.hypot(*(a - (s + f / xi) for a, s, f in zip(theta, star, _hermite(*nodes, t))))
                        for theta, t, xi in zip(thetas, full.times, xi_vals)
                    )
            rows.append(ProbeRow(omega, trial, entry_time, stayed, sup_gap))
    return rows
