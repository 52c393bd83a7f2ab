"""Lie brackets, averaged comparison systems, and the practical-stability probe.

The transformed loop has the control-affine shape

    dz/dt = b0(z, t) + sum_i sqrt(w_i) (b_c_i(z, t) cos(w_i t) - b_s_i(z, t) sin(w_i t))

and its Lie-bracket average is b0 - (1/2) sum_i [b_c_i, b_s_i].  The rhs of
``averaged_closed_loop`` is ``transformed_drift``'s b0 minus
``averaged_drift_term``, the closed form of that bracket sum; the numeric
``lie_bracket`` operator exists so tests can confirm the identity instead of
trusting the algebra.

Every right-hand side here takes a state of shape (d,) or a batch (B, d).
``practical_stability_probe`` integrates the averaged system for all of its
trials as one batch, once, at the full loop's step for the smallest swept
omega (it reads neither omega nor omega_hat), and the deployed loop, whose
right-hand side takes one state of floats, once per (omega, trial).  The
full-loop samples read the averaged run through a cubic Hermite
interpolant.  Those integrations share no state, so they run as independent
jobs in forked worker processes, one per available CPU.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .controllers import (
    EsParams,
    _check_loop_map,
    _require_transformable,
    es_closed_loop,
    gain_error_term,
    transformed_drift,
)
from .errors import CapabilityError, IntegrationDiverged, WorkerLost
from .maps import CostMap
from .schedules import EXPONENTIAL, Factors
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

    Fields act on the packed state z = [theta_f_1..theta_f_n, eta_f].  The
    dither-paired fields carry the cos/sin of the per-channel phase; only b0
    touches eta_f.
    """
    _require_transformable(p, map)
    sqrt_alpha = np.sqrt(p.alpha)

    def b0(z: Array, t: float) -> Array:
        return transformed_drift(p, map, z, p.schedule.factors(t))[0]

    def dither_field(i: int, trig: Callable) -> Callable:
        def b(z: Array, t: float) -> Array:
            out = np.zeros(p.n + 1)
            f = p.schedule.factors(t)
            err = transformed_drift(p, map, z, f)[1]
            out[i] = sqrt_alpha[i] * trig(gain_error_term(f, p.k, err)[i])
            return out

        return b

    return b0, [(dither_field(i, math.cos), dither_field(i, math.sin)) for i in range(p.n)]


def averaged_drift_term(p: EsParams, map: CostMap, theta_f: Array, f: Factors) -> Array:
    """The bracket sum (1/2) sum_i k_i alpha_i phi(t) (dJ_f/dtheta_f_i) e_i,
    with dJ_f/dtheta_f = grad J(theta_f/xi + theta*) / xi, at the schedule's
    factors f; theta_f is (n,) or (B, n), and so is the result."""
    gain = 0.5 * p.k * p.alpha * f.phi
    xi = f.xi
    return gain * (map.grad((map.optimum + theta_f / xi).T).T / xi)


def averaged_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) of the averaged system over x = [theta_f..., eta_f], of shape (d,) or (B, d).

    Covers all three schedule kinds; the nominal case degenerates to the
    classic constant-gain averaged loop (xi = 1, zero growth drift).  Under
    an exponential schedule the averaged dynamics are only defined for
    strongly convex (kappa = 1) maps.
    """
    if map.optimum is None or map.optimal_value is None:
        raise CapabilityError(f"map '{map.name}' lacks optimum/optimal_value")
    if p.schedule.kind == EXPONENTIAL and map.kappa != 1:
        raise CapabilityError(f"exponential averaged dynamics cover kappa = 1 maps, got kappa = {map.kappa}")
    _check_loop_map(p, map, "centered", "grad")
    n, factors = p.n, p.schedule.factor_cache()

    def rhs(x: Array, t: float) -> Array:
        f = factors(t)
        out = transformed_drift(p, map, x, f)[0]
        out[..., :n] -= averaged_drift_term(p, map, x[..., :n], f)
        return out

    return rhs


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


def _integrate_rows(rhs: Callable, x0s: Array, t0: float, t1: float, dt: float, **kwargs):
    """``integrate`` over the averaged batch x0s (B, d), setting aside each row that goes non-finite.

    Returns the trajectory of the rows that stayed finite and their indices
    into x0s; the trajectory is None when no row did.  Rows never interact,
    so the survivors equal their rows of an uninterrupted batch bit for bit;
    the extra integrations happen only when a row diverges.  A failure that
    names no rows, such as an rhs raising, sets every row aside.
    """
    alive = np.arange(len(x0s))
    while alive.size:
        try:
            return integrate(rhs, x0s[alive], t0, t1, dt, **kwargs), alive
        except IntegrationDiverged as e:
            alive = alive[:0] if e.rows is None else np.delete(alive, e.rows)
    return None, alive


def _integrate_trial(rhs: Callable, x0: tuple, t0: float, t1: float, dt: float, n: int):
    """One full-loop trial from the float state x0, sampled once per dither period; None when it diverged."""
    try:
        return integrate(rhs, x0, t0, t1, dt, record_every=STEPS_PER_PERIOD, n=n)
    except IntegrationDiverged:
        return None


# the running probe's jobs, which forked workers inherit; it holds one probe's
# jobs at a time, so probes in threads of one process would clobber each other
_JOBS: List[Callable[[], object]] = []


def _run_job(index: int):
    return _JOBS[index]()


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
    workers inherit them through _JOBS and receive only indices.  An
    exception raised in a job is raised here; a worker that dies raises
    WorkerLost instead of leaving the probe waiting for its result.
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

    The averaged system runs all trials as one (trials, d) batch; a trial
    whose averaged run diverges gets an inf sup_gap and the others are
    integrated again without it.  It reads neither omega nor omega_hat, so
    it is integrated once, at the full loop's step for the smallest omega,
    recording every step, and each full-loop sample reads it through a cubic
    Hermite interpolant whose node slopes are the averaged rhs.  The
    smallest omega's samples fall on the nodes, so its rows equal a
    per-omega integration bit for bit; the other rows differ from one only
    in sup_gap, by the interpolation error.  The deployed loop's rhs works
    on one state of floats, so each (omega, trial) is its own integration,
    and one that diverges gets its inf row.  Rows are returned omega-major.

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
    t0 = p.schedule.t0
    t1 = t0 + cfg.horizon

    def averaged_job():
        # matched transformed start: xi(t0) = 1, so theta_f = theta - theta* and eta_f = eta - J(theta*)
        avg, alive = _integrate_rows(averaged, x0s - np.append(star, map.optimal_value), t0, t1, dts[0], n=n)
        slopes = None if avg is None else np.array([averaged(x, t)[:, :n] for x, t in zip(avg.states, avg.times)])
        return avg, alive, slopes

    jobs = [averaged_job] + [
        partial(_integrate_trial, full_rhs, x0, t0, t1, dt, n) for full_rhs, dt in zip(full_rhss, dts) for x0 in starts
    ]
    # the averaged job steps at the smallest omega's step
    steps = [cfg.horizon / dts[0]] + [cfg.horizon / dt for dt in dts for _ in starts]
    (avg, alive, avg_slopes), *fulls = _run_jobs(jobs, steps)
    if avg is not None:
        # a trial whose averaged run diverged reads NaN, and gets sup_gap inf
        nodes = np.full((len(avg.times), trials, n), math.nan)
        slopes = np.full_like(nodes, math.nan)
        nodes[:, alive] = avg.theta
        slopes[:, alive] = avg_slopes

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
                if avg is not None:
                    if xi_vals is None:  # every trial of one omega has the same sample times
                        xi_vals = np.array([p.schedule.xi(t) for t in full.times])
                    theta_f = _hermite(avg.times, nodes[:, trial], slopes[:, trial], full.times)
                    theta_bar = star + theta_f / xi_vals[:, None]
                    gap = float(np.max(np.linalg.norm(full.theta - theta_bar, axis=-1)))
                    sup_gap = math.inf if math.isnan(gap) else gap
            rows.append(ProbeRow(omega, trial, entry_time, stayed, sup_gap))
    return rows
