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

The deployed loop's right-hand side is a row kernel over Python floats: it
takes one state, a tuple of floats (or a 1-D array), and returns a tuple.  At
a few elements per state, a numpy call costs more than the arithmetic it
does, so float operations make an RK4 step several times cheaper.  The
transformed loop takes one state of shape (d,) or B states of shape (B, d)
through the same numpy code: it reads the state's columns as z.T[n] and
z[..., :n] and evaluates the map's closed forms on the (n,) or (n, B) block.
Each rhs reads the schedule's time-only factors once per evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import AssemblyError, CapabilityError
from .maps import CostMap
from .schedules import ASYMPTOTIC, EXPONENTIAL, NOMINAL, Factors, Schedule

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


def phase_error(f: Factors, err: float) -> float:
    """phi(t) err for one error, with f the schedule's factors at t.

    An error with |err| below TINY_ERR takes the product in the log domain,
    exp(log phi + log |err|), and a zero error gives zero, so a huge phi
    against a denormal error cannot round through inf * 0, and phi is only
    needed, and can only overflow, for the other errors.
    """
    if abs(err) < TINY_ERR:
        return math.copysign(math.exp(f.log_phi + math.log(abs(err))), err) if err else 0.0
    return f.phi * err


def gain_error_term(f: Factors, k: Array, err) -> Array:
    """Per-channel phase k_i phi(t) err: shape (n,) for a scalar err, (B, n) for err of shape (B,).

    err is a numpy value, as the maps' closed forms return it: a float64
    scalar for one state, a (B,) array for a batch.  Rows with |err| below
    TINY_ERR take ``phase_error``'s log-domain product.
    """
    tiny = abs(err) < TINY_ERR
    # a single error compares to np.False_ when it is not tiny, which skips the array test
    if tiny is not np.False_ and np.count_nonzero(tiny):
        prod = np.array(err, dtype=float)
        flat = prod.reshape(-1)
        tiny = abs(flat) < TINY_ERR
        if not tiny.all():
            flat[~tiny] *= f.phi
        flat[tiny] = [phase_error(f, e) for e in flat[tiny].tolist()]
    else:
        prod = f.phi * err
    return prod[..., None] * k


def _check_loop_map(p: EsParams, map: CostMap, *forms: str) -> None:
    """Check once, when a loop is assembled, what its rhs reads of the map without validation."""
    if map.dim != p.n:
        raise AssemblyError(f"map '{map.name}' has dimension {map.dim}, the controller has {p.n} channels")
    for form in forms:
        if getattr(map, form) is None:
            raise CapabilityError(f"map '{map.name}' has no closed {form} form, which the loop evaluates on batches")


def es_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over one packed state x = (theta_1..theta_n, eta), returning a tuple.

    x is a tuple of floats, as ``integrate`` keeps it, or a 1-D array; to
    ``integrate`` the loop, give it a tuple start, since its array path
    cannot sum the tuples this rhs returns.  An
    infinite phase, where math.cos raises, gives NaN dither rates, as np.cos
    would, so the integrator reports the divergence.  Tagged with the fastest
    dither frequency so the integrator can enforce its step bound.
    """
    _check_loop_map(p, map)
    n, factors, cost, omega_h = p.n, p.schedule.factor_cache(), map.eval, float(p.omega_h)
    channels = tuple(zip(p._omegas.tolist(), p._amp.tolist(), p.k.tolist()))

    def rhs(x, t: float) -> tuple:
        f = factors(t)
        err = cost(x[:n]) - x[n]
        pe, nu = phase_error(f, err), f.nu
        try:
            out = [nu * amp * math.cos(w * t + pe * k) for w, amp, k in channels]
        except ValueError:  # cos(+-inf): the phase left double range
            out = [math.nan] * n
        out.append(omega_h * err)
        return tuple(out)

    rhs.dither_omega_max = float(np.max(p._omegas))
    return rhs


def _require_transformable(p: EsParams, map: CostMap):
    if p.schedule.kind == NOMINAL:
        raise CapabilityError("transformed coordinates are undefined for the nominal schedule (xi would stay 1)")
    if map.optimum is None or map.optimal_value is None:
        raise CapabilityError(f"map '{map.name}' lacks optimum/optimal_value; transformed coordinates need both")
    _check_loop_map(p, map, "centered")


def transformed_drift(p: EsParams, map: CostMap, z: Array, f: Factors):
    """Dither-free part b0(z, t) of the transformed loop, and its error.

    Over z = [theta_f..., eta_f] of shape (d,) or (B, d), with the schedule's
    factors f at t, g = d(log xi)/dt, xi2k = xi^(2 kappa) and
    jf = J(theta* + theta_f/xi) - J(theta*):

        b0  = [g theta_f, (2 kappa g - omega_h) eta_f + omega_h xi2k jf]
        err = jf - eta_f / xi2k

    err is the deployed loop's J(theta) - eta; the transformed loop's phase is
    gain_error_term(f, k, err), and the averaged loop reads b0 only.  Callers
    check the frame and the map once, when they assemble their fields.
    """
    n = p.n
    eta_f = z.T[n]
    xi2k = math.exp(2.0 * map.kappa * f.log_xi)
    jf = map.centered((map.optimum + z[..., :n] * f.nu).T)
    b0 = f.g * z
    b0.T[n] = (2.0 * map.kappa * f.g - p.omega_h) * eta_f + p.omega_h * xi2k * jf
    return b0, jf - eta_f / xi2k


def transformed_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over the packed state x = [theta_f_1..theta_f_n, eta_f], of shape (d,) or (B, d)."""
    _require_transformable(p, map)
    n, factors = p.n, p.schedule.factor_cache()

    def rhs(x: Array, t: float) -> Array:
        f = factors(t)
        out, err = transformed_drift(p, map, x, f)
        out[..., :n] += p._amp * np.cos(p._omegas * t + gain_error_term(f, p.k, err))
        return out

    rhs.dither_omega_max = float(np.max(p._omegas))
    return rhs
