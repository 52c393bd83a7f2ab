"""Lie brackets, averaged comparison systems, and the practical-stability probe.

The transformed loop has the control-affine shape

    dz/dt = b0(z, t) + sum_i sqrt(w_i) (b_c_i(z, t) cos(w_i t) - b_s_i(z, t) sin(w_i t))

and its Lie-bracket average is b0 - (1/2) sum_i [b_c_i, b_s_i].  The rhs of
``averaged_closed_loop`` is b0 minus the closed form of that bracket sum,
generated from the transformed frame's stage text in ``controllers``; the
numeric ``lie_bracket`` operator exists so tests can confirm the identity on
``transformed_b_fields`` instead of trusting the algebra.

Every right-hand side here takes one state, a sequence of d floats, and
returns a tuple, as the deployed loop's does.  ``practical_stability_probe``
integrates the averaged system once per trial, at the full loop's step for
the smallest swept omega (it reads neither omega nor omega_hat), and the
deployed loop once per (omega, trial).  The full-loop samples read the
averaged run through a cubic Hermite interpolant.  Those integrations share
no state, so they run as independent jobs in forked worker processes, one
per available CPU.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .controllers import EsParams, _check_loop_map, _frame_loop, _require_transformable, es_closed_loop, phase_error
from .errors import CapabilityError, IntegrationDiverged, WorkerLost
from .maps import CostMap
from .schedules import EXPONENTIAL
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
    _require_transformable(p, map)
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


def require_averageable(p: EsParams, map: CostMap) -> None:
    """Raise CapabilityError unless the averaged system of p on map is defined and its loop can be assembled:
    under an exponential schedule the averaged dynamics are only defined for strongly convex (kappa = 1) maps."""
    if map.optimum is None or map.optimal_value is None:
        raise CapabilityError(f"map '{map.name}' lacks optimum/optimal_value")
    if p.schedule.kind == EXPONENTIAL and map.kappa != 1:
        raise CapabilityError(f"exponential averaged dynamics cover kappa = 1 maps, got kappa = {map.kappa}")
    _check_loop_map(p, map, "centered", "grad")


def averaged_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) of the averaged system over one packed state x = (theta_f..., eta_f), returning a tuple,
    and its own RK4 loop, as ``es_closed_loop``'s.

    Covers all three schedule kinds; the nominal case degenerates to the
    classic constant-gain averaged loop (xi = 1, zero growth drift).  Its
    theta_f rates are g theta_f_i - (1/2) k_i alpha_i phi(t) dJ_f/dtheta_f_i,
    with dJ_f/dtheta_f = grad J(theta* + theta_f/xi) / xi.
    """
    require_averageable(p, map)
    return _frame_loop(p, map, averaged=True)


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

    times (N,) ascending with N >= 2, values and slopes (N, ...) of one shape,
    at (m,) within [times[0], times[-1]]; the result is (m, ...).  At a node it
    returns that node's values bit for bit.
    """
    k = np.clip(np.searchsorted(times, at, side="right") - 1, 0, len(times) - 2)
    h = times[k + 1] - times[k]
    s = (at - times[k]) / h
    column = (-1,) + (1,) * (values.ndim - 1)
    h, s = h.reshape(column), s.reshape(column)
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


def _run_jobs(jobs: Sequence[Callable[[], object]], steps: Sequence[float]) -> list:
    """Each job's result, in job order.

    With one worker the jobs run here, in order.  Otherwise they run in
    forked worker processes, one job at a time each, the most steps first.
    The jobs close over right-hand sides, which cannot be pickled, so the
    workers inherit them through _JOBS and receive only indices.  A job that
    diverged gives None, another exception raised in a job is raised here,
    and a dead worker raises WorkerLost instead of leaving the probe waiting.
    """
    workers = _worker_count(len(jobs))
    _JOBS[:] = jobs
    try:
        if workers == 1:
            return list(map(_run_job, range(len(jobs))))
        # imported here, not at module level: `run` never forks and would pay
        # for the import in start-up time and memory
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        order = sorted(range(len(jobs)), key=steps.__getitem__, reverse=True)
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                results = dict(zip(order, pool.map(_run_job, order)))
        except BrokenProcessPool as e:
            raise WorkerLost(f"a probe worker process ended without returning its result ({e})") from e
        return [results[i] for i in range(len(jobs))]
    finally:
        _JOBS.clear()


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

    # the averaged jobs step at the smallest omega's step; the full-loop jobs sample once per dither period
    jobs = [partial(_integrate_averaged, averaged, z0, t0, t1, dts[0], n) for z0 in avg_starts] + [
        partial(integrate, f, x0, t0, t1, dt, STEPS_PER_PERIOD, n=n) for f, dt in zip(full_rhss, dts) for x0 in starts
    ]
    steps = [cfg.horizon / dt for dt in [dts[0]] + dts for _ in starts]
    results = _run_jobs(jobs, steps)
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
