"""Lie brackets, averaged comparison systems, and the practical-stability probe.

The transformed loop has the control-affine shape

    dz/dt = b0(z, t) + sum_i sqrt(w_i) (b_c_i(z, t) cos(w_i t) - b_s_i(z, t) sin(w_i t))

and its Lie-bracket average is b0 - (1/2) sum_i [b_c_i, b_s_i].  The rhs of
``averaged_closed_loop`` is ``transformed_drift``'s b0 minus
``averaged_drift_term``, the closed form of that bracket sum; the numeric
``lie_bracket`` operator exists so tests can confirm the identity instead of
trusting the algebra.

The averaged system reads neither omega nor omega_hat, so
``practical_stability_probe`` integrates it once per trial, at the full
loop's step for the smallest swept omega, and reads it at every omega's
samples through a cubic Hermite interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .controllers import (
    EsParams,
    _require_transformable,
    es_closed_loop,
    gain_error_term,
    transformed_drift,
)
from .errors import CapabilityError, IntegrationDiverged
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

    Fields act on the packed state z = [theta_f_1..theta_f_n, eta_f].  The
    dither-paired fields carry the cos/sin of the per-channel phase; only b0
    touches eta_f.
    """
    _require_transformable(p, map)
    sqrt_alpha = np.sqrt(p.alpha)

    def b0(z: Array, t: float) -> Array:
        return transformed_drift(p, map, z, t)[0]

    def dither_field(i: int, trig: Callable) -> Callable:
        def b(z: Array, t: float) -> Array:
            out = np.zeros(p.n + 1)
            err = transformed_drift(p, map, z, t)[1]
            out[i] = sqrt_alpha[i] * trig(gain_error_term(p.schedule, p.k, err, t)[i])
            return out

        return b

    return b0, [(dither_field(i, math.cos), dither_field(i, math.sin)) for i in range(p.n)]


def averaged_drift_term(p: EsParams, map: CostMap, theta_f: Array, t: float) -> Array:
    """The bracket sum (1/2) sum_i k_i alpha_i phi(t) (dJ_f/dtheta_f_i) e_i,
    with dJ_f/dtheta_f = grad J(theta_f/xi + theta*) / xi."""
    gain = 0.5 * p.k * p.alpha * p.schedule.phi(t)
    xi = p.schedule.xi(t)
    return gain * (map.gradient(map.optimum + theta_f / xi) / xi)


def averaged_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) of the averaged system over x = [theta_f..., eta_f].

    Covers all three schedule kinds; the nominal case degenerates to the
    classic constant-gain averaged loop (xi = 1, zero growth drift).  Under
    an exponential schedule the averaged dynamics are only defined for
    strongly convex (kappa = 1) maps.
    """
    if map.optimum is None or map.optimal_value is None:
        raise CapabilityError(f"map '{map.name}' lacks optimum/optimal_value")
    if p.schedule.kind == EXPONENTIAL and map.kappa != 1:
        raise CapabilityError(f"exponential averaged dynamics cover kappa = 1 maps, got kappa = {map.kappa}")
    n = p.n

    def rhs(x: Array, t: float) -> Array:
        out = transformed_drift(p, map, x, t)[0]
        out[:n] -= averaged_drift_term(p, map, x[:n], t)
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

    times (N,) ascending with N >= 2, values and slopes (N, d), at (m,) within
    [times[0], times[-1]].  At a node it returns that node's values bit for bit.
    """
    k = np.clip(np.searchsorted(times, at, side="right") - 1, 0, len(times) - 2)
    h = (times[k + 1] - times[k])[:, None]
    s = ((at - times[k]) / h[:, 0])[:, None]
    r = 1.0 - s
    return (
        (1.0 + 2.0 * s) * r * r * values[k]
        + s * r * r * h * slopes[k]
        + s * s * (3.0 - 2.0 * s) * values[k + 1]
        - s * s * r * h * slopes[k + 1]
    )


def practical_stability_probe(p: EsParams, map: CostMap, cfg: ProbeConfig) -> List[ProbeRow]:
    """Empirical check of practical uniform stability over an omega sweep.

    For each omega and each seeded initial input in the delta-ball around the
    optimum (eta starts on the measured cost), integrates the full loop and
    reports epsilon-neighborhood entry time, whether the trajectory stayed,
    and the sup-norm gap to the matched averaged trajectory.  The evidence is
    finite-sample only: it can refute but never prove the semi-global claim.
    Diverged integrations are recorded as rows with inf markers, not raised.

    The averaged system reads neither omega nor omega_hat, so each trial
    integrates it once, before its omega loop, at the full loop's step for
    the smallest omega, recording every step.  Each full-loop sample reads it
    through a cubic Hermite interpolant whose node slopes are the averaged
    rhs.  The smallest omega's samples fall on the nodes, so its rows equal a
    per-omega integration bit for bit; the other rows differ from one only in
    sup_gap, by the interpolation error.  Rows are returned omega-major.
    """
    averaged = averaged_closed_loop(p, map)
    full_rhss = [es_closed_loop(p.with_omega(omega), map) for omega in cfg.omega_values]
    avg_dt = dither_step_bound(full_rhss[0].dither_omega_max)
    star = map.optimum
    rng = np.random.default_rng(cfg.seed)
    dirs = rng.standard_normal((cfg.trials, map.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = cfg.delta * rng.random(cfg.trials) ** (1.0 / map.dim)
    theta0s = star + radii[:, None] * dirs

    t0 = p.schedule.t0
    t1 = t0 + cfg.horizon
    rows: List[ProbeRow] = []
    for trial, theta0 in enumerate(theta0s):
        eta0 = map(theta0)
        # matched transformed start: xi(t0) = 1, so theta_f = theta - theta*
        xf0 = np.append(theta0 - star, eta0 - map.optimal_value)
        try:
            avg = integrate(averaged, xf0, t0, t1, avg_dt, n=map.dim)
            avg_slopes = np.array([averaged(x, t) for x, t in zip(avg.states, avg.times)])[:, : map.dim]
        except IntegrationDiverged:
            avg = None

        x0 = np.append(theta0, eta0)
        for omega, full_rhs in zip(cfg.omega_values, full_rhss):
            dt = dither_step_bound(full_rhs.dither_omega_max)
            try:
                full = integrate(full_rhs, x0, t0, t1, dt, record_every=STEPS_PER_PERIOD, n=map.dim)
            except IntegrationDiverged:
                rows.append(ProbeRow(omega, trial, math.inf, False, math.inf))
                continue

            dist = np.linalg.norm(full.theta - star, axis=1)
            inside = dist <= cfg.epsilon
            hits = np.flatnonzero(inside)
            if hits.size:
                first = int(hits[0])
                entry_time = float(full.times[first] - t0)
                stayed = bool(np.all(inside[first:]))
            else:
                entry_time, stayed = math.inf, False

            if avg is None:
                sup_gap = math.inf
            else:
                theta_f = _hermite(avg.times, avg.theta, avg_slopes, full.times)
                xi_vals = np.array([p.schedule.xi(t) for t in full.times])
                theta_bar = star + theta_f / xi_vals[:, None]
                sup_gap = float(np.max(np.linalg.norm(full.theta - theta_bar, axis=1)))
            rows.append(ProbeRow(omega, trial, entry_time, stayed, sup_gap))
    return sorted(rows, key=lambda row: row.omega)
