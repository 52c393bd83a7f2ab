"""Closed-loop extremum-seeking dynamics.

Two coordinate frames are implemented, each as a right-hand side over a
packed state.  ``es_closed_loop`` is the controller as deployed, over
x = [theta_1..theta_n, eta]:

    theta_dot_i = nu(t) sqrt(alpha_i w_i) cos(w_i t + k_i phi(t) (J(theta) - eta))
    eta_dot     = -omega_h eta + omega_h J(theta)

with w_i = omega * omega_hat_i and the washout state eta tracking the DC
component of the measured cost.  ``transformed_closed_loop`` is the same loop
in the scaled error coordinates theta_f = xi(theta - theta*),
eta_f = xi^(2 kappa) (eta - J(theta*)) used by the stability analysis, over
x = [theta_f_1..theta_f_n, eta_f]; the two are related by exact algebra, which
the test suite checks by chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import AssemblyError, CapabilityError
from .maps import CostMap
from .schedules import ASYMPTOTIC, EXPONENTIAL, NOMINAL, Schedule

Array = np.ndarray

# below this, phi * err is evaluated in the log domain to dodge 0 * huge
TINY_ERR = 1e-280


def default_omega_hat(n: int) -> Array:
    """Geometric frequency ratios 1, 1.5, 2.25, ...

    Pairwise distinct as required, and spaced so that low-order sums and
    differences w_i +/- w_j do not collide with any w_k.
    """
    return 1.5 ** np.arange(n)


@dataclass(frozen=True, eq=False)
class EsParams:
    """Controller parameters for an n-channel loop.

    alpha, k     per-channel dither amplitude and gain, all > 0
    omega        base dither frequency > 0
    omega_h      washout filter frequency > 0
    schedule     amplitude/gain schedule
    omega_hat    per-channel frequency ratios, pairwise distinct; defaults to
                 the geometric spacing of default_omega_hat

    Cross-checks against a cost map (growth-order condition, exponential gain
    condition) happen in ``assemble``, which is the intended constructor for
    closed-loop use.
    """

    alpha: Array
    k: Array
    omega: float
    omega_h: float
    schedule: Schedule
    omega_hat: Optional[Array] = None

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        k = np.atleast_1d(np.asarray(self.k, dtype=float))
        if alpha.shape != k.shape or alpha.ndim != 1:
            raise AssemblyError(f"alpha and k must be 1-D with equal length, got {alpha.shape} and {k.shape}")
        n = alpha.size
        hat = default_omega_hat(n) if self.omega_hat is None else np.atleast_1d(np.asarray(self.omega_hat, dtype=float))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "omega_hat", hat)
        if hat.shape != (n,):
            raise AssemblyError(f"omega_hat must have one entry per channel, got shape {hat.shape} for n = {n}")
        if np.any(alpha <= 0.0) or np.any(k <= 0.0):
            raise AssemblyError("all alpha_i and k_i must be positive")
        if self.omega <= 0.0 or self.omega_h <= 0.0 or np.any(hat <= 0.0):
            raise AssemblyError("omega, omega_h, and all omega_hat_i must be positive")
        if len(set(hat.tolist())) != n:
            raise AssemblyError(f"frequency ratios omega_hat must be pairwise distinct, got {hat.tolist()}")
        if self.schedule.kind == EXPONENTIAL and self.omega_h <= 2.0 * self.schedule.lam:
            raise AssemblyError(
                f"exponential schedule needs omega_h > 2 lambda, got omega_h = {self.omega_h} vs 2 lambda = {2.0 * self.schedule.lam}"
            )
        object.__setattr__(self, "_omegas", self.omega * hat)
        object.__setattr__(self, "_amp", np.sqrt(alpha * self.omega * hat))

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def omegas(self) -> Array:
        """Per-channel dither frequencies omega * omega_hat_i."""
        return self._omegas

    def with_omega(self, omega: float) -> "EsParams":
        return replace(self, omega=omega)


def assemble(
    map: CostMap,
    schedule: Schedule,
    alpha,
    k,
    omega: float,
    omega_h: float,
    omega_hat=None,
) -> EsParams:
    """Build EsParams validated against the cost map.

    Scalars for alpha/k broadcast over map.dim channels.  Checks the coupled
    conditions the schedule alone cannot see: the growth-order condition
    v > 2 kappa - r >= 0 for asymptotic schedules, and for exponential
    schedules against a strongly convex map with declared bounds the gain
    condition k_i alpha_i > 2 lambda a2 (2 a2 + b2) / (a1 b1^2).
    """
    try:
        alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (map.dim,)).copy()
        k = np.broadcast_to(np.asarray(k, dtype=float), (map.dim,)).copy()
    except ValueError:
        raise AssemblyError(
            f"alpha/k must be scalars or length-{map.dim} lists to match map '{map.name}'"
        ) from None
    p = EsParams(alpha=alpha, k=k, omega=omega, omega_h=omega_h, schedule=schedule, omega_hat=omega_hat)
    if schedule.kind == ASYMPTOTIC:
        lo = 2.0 * map.kappa - schedule.r
        if lo < 0.0:
            raise AssemblyError(f"need 2 kappa - r >= 0, got 2*{map.kappa} - {schedule.r} = {lo}")
        if schedule.v <= lo:
            raise AssemblyError(f"need v > 2 kappa - r, got v = {schedule.v} vs 2 kappa - r = {lo}")
    if schedule.kind == EXPONENTIAL and map.kappa == 1 and map.bounds is not None:
        b = map.bounds
        floor = 2.0 * schedule.lam * b.a2 * (2.0 * b.a2 + b.b2) / (b.a1 * b.b1**2)
        ka = p.k * p.alpha
        if np.any(ka <= floor):
            raise AssemblyError(
                f"exponential gain condition violated: min k_i alpha_i = {ka.min():g} "
                f"must exceed 2 lambda a2 (2 a2 + b2) / (a1 b1^2) = {floor:g}"
            )
    return p


def gain_error_term(schedule: Schedule, k: Array, err: float, t: float) -> Array:
    """Per-channel phase k_i phi(t) err.

    For |err| below TINY_ERR the product is taken in the log domain,
    exp(log phi + log |err|), so a huge phi against a denormal error cannot
    round through inf * 0.
    """
    if err == 0.0:
        return np.zeros_like(k)
    if abs(err) < TINY_ERR:
        mag = math.exp(schedule.log_phi(t) + math.log(abs(err)))
        return k * math.copysign(mag, err)
    return k * (schedule.phi(t) * err)


def es_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over the packed state x = [theta_1..theta_n, eta].

    Tagged with the fastest dither frequency so the integrator can enforce
    its step bound.
    """
    n = p.n

    def rhs(x: Array, t: float) -> Array:
        err = map(x[:n]) - x[n]
        phase = gain_error_term(p.schedule, p.k, err, t)
        out = np.empty(n + 1)
        out[:n] = p.schedule.nu(t) * p._amp * np.cos(p._omegas * t + phase)
        out[n] = p.omega_h * err
        return out

    rhs.dither_omega_max = float(np.max(p._omegas))
    return rhs


def _require_transformable(p: EsParams, map: CostMap):
    if p.schedule.kind == NOMINAL:
        raise CapabilityError("transformed coordinates are undefined for the nominal schedule (xi would stay 1)")
    if map.optimum is None or map.optimal_value is None:
        raise CapabilityError(f"map '{map.name}' lacks optimum/optimal_value; transformed coordinates need both")


def growth_drift(schedule: Schedule, t: float) -> float:
    """d(log xi)/dt: beta/(v (1 + beta (t-t0))) for asymptotic, lambda for exponential, 0 for nominal."""
    if schedule.kind == ASYMPTOTIC:
        return schedule.beta / (schedule.v * (1.0 + schedule.beta * (t - schedule.t0)))
    if schedule.kind == EXPONENTIAL:
        return schedule.lam
    return 0.0


def transformed_drift(p: EsParams, map: CostMap, z: Array, t: float):
    """Dither-free part b0(z, t) of the transformed loop, and its phase.

    Over z = [theta_f..., eta_f], with g = d(log xi)/dt, xi2k = xi^(2 kappa)
    and jf = J(theta_f/xi + theta*) - J(theta*):

        b0    = [g theta_f, (2 kappa g - omega_h) eta_f + omega_h xi2k jf]
        phase = k_i phi(t) (jf - eta_f / xi2k), per channel

    Callers check the frame once, with _require_transformable, when they
    assemble their fields.
    """
    n = p.n
    log_xi = p.schedule.log_xi(t)
    xi = math.exp(log_xi)
    xi2k = math.exp(2.0 * map.kappa * log_xi)
    jf = map.centered_value(map.optimum + z[:n] / xi)
    phase = gain_error_term(p.schedule, p.k, jf - z[n] / xi2k, t)
    g = growth_drift(p.schedule, t)
    b0 = np.empty(n + 1)
    b0[:n] = g * z[:n]
    b0[n] = (2.0 * map.kappa * g - p.omega_h) * z[n] + p.omega_h * xi2k * jf
    return b0, phase


def transformed_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over the packed state x = [theta_f_1..theta_f_n, eta_f]."""
    _require_transformable(p, map)
    n = p.n

    def rhs(x: Array, t: float) -> Array:
        out, phase = transformed_drift(p, map, x, t)
        out[:n] += p._amp * np.cos(p._omegas * t + phase)
        return out

    rhs.dither_omega_max = float(np.max(p._omegas))
    return rhs
