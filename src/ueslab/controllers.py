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

Each right-hand side takes one state, a sequence of d floats such as the
tuple ``integrate`` keeps (or a 1-D array), and returns a tuple: at a few
elements per state, a numpy call costs more than the arithmetic it does.
The deployed loop is one stage text, its channels spelled out and the
schedule's factor text and the map's value text inline: its callable rhs
and its own RK4 loop, with all four stages inline, are generated from it.
The transformed loop's drift is written per component, with the map's
closed forms read per coordinate; its rhs reads ``Schedule.factors`` through
a one-entry lru_cache, which answers two of each RK4 step's four stages.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import AssemblyError, CapabilityError
from .maps import CostMap
from .schedules import ASYMPTOTIC, EXPONENTIAL, NOMINAL, Factors, Schedule
from .sim import compiled, rk4_text

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


def _check_loop_map(p: EsParams, map: CostMap, *forms: str) -> None:
    """Check once, when a loop is assembled, what its rhs reads of the map without validation."""
    if map.dim != p.n:
        raise AssemblyError(f"map '{map.name}' has dimension {map.dim}, the controller has {p.n} channels")
    for form in forms:
        if getattr(map, form) is None:
            raise CapabilityError(f"map '{map.name}' has no closed {form} form, which the loop evaluates")


def _deployed_stage(n: int, value: str, inputs, t: str, f: str, k: str) -> str:
    """The deployed loop's rates at one state, as text: k_0..k_n at the state of the n + 1
    expressions inputs, the time named t and the schedule's factors suffixed f.

    value is the text of J with {i} for coordinate i.  The phase is
    phase_error's rule in its test order: phi's range is tested, and
    Factors.phi raises, only where phi is needed.
    """
    bind = "".join(f"s_{i} = {x}\n" for i, x in enumerate(inputs))
    rates = "".join(f"    {k}_{i} = nu_{f} * amp_{i} * cos(w_{i} * {t} + pe * k_{i})\n" for i in range(n))
    nans = "".join(f"    {k}_{i} = nan\n" for i in range(n))
    return bind + f"""err = ({value.format(*[f"s_{i}" for i in range(n)])}) - s_{n}
if abs(err) < TINY_ERR:
    pe = copysign(exp(lp_{f} + log(abs(err))), err) if err else 0.0
elif lp_{f} > LOG_MAX:
    factors({t}).phi  # raises OverflowError
else:
    pe = ph_{f} * err
try:
{rates}except ValueError:  # cos(+-inf): the phase left double range
{nans}{k}_{n} = omega_h * err
"""


def es_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over one packed state x = (theta_1..theta_n, eta), returning a tuple.

    x is a tuple of floats, as ``integrate`` keeps it, or a 1-D array.  The
    rhs and its own RK4 loop (the ``rk4_loop`` tag, for this very function
    object) are generated from one stage text, which calls a map without
    value text; each distinct text is compiled once and holds names, never
    the loop's numbers.  An infinite phase, where math.cos raises, gives NaN
    dither rates, as np.cos would, so the integrator reports the divergence.
    Tagged with the fastest dither frequency so the integrator can enforce
    its step bound.
    """
    _check_loop_map(p, map)
    n, schedule = p.n, p.schedule
    names = dict(schedule.text_names(), cos=math.cos, copysign=math.copysign, log=math.log, exp=math.exp,
                 nan=math.nan, TINY_ERR=TINY_ERR, omega_h=float(p.omega_h))
    for name, values in (("w", p._omegas), ("amp", p._amp), ("k", p.k)):
        names.update((f"{name}_{i}", v) for i, v in enumerate(values.tolist()))
    text, map_names = map.value_text or ("cost((" + "".join(f"{{{i}}}, " for i in range(n)) + "))", {"cost": map.eval})
    names.update(map_names)
    stage = functools.partial(_deployed_stage, n, text)
    xs = [f"x_{i}" for i in range(n + 1)]
    body = f"({', '.join(xs)},) = x\n" + schedule.factor_text("t", "0")[0] + stage(xs, "t", "0", "dx")
    src = "def rhs(x, t):\n" + textwrap.indent(body + "return (" + "".join(f"dx_{i}, " for i in range(n + 1)) + ")\n", "    ")
    exec(compiled(src, f"<deployed loop rhs over {n} channels>", "exec"), names)
    rhs = names["rhs"]
    rhs.dither_omega_max = float(np.max(p._omegas))
    rhs.rk4_loop = (rhs, rk4_text((n + 1,), stage, schedule.factor_text))
    return rhs


def _require_transformable(p: EsParams, map: CostMap):
    if p.schedule.kind == NOMINAL:
        raise CapabilityError("transformed coordinates are undefined for the nominal schedule (xi would stay 1)")
    if map.optimum is None or map.optimal_value is None:
        raise CapabilityError(f"map '{map.name}' lacks optimum/optimal_value; transformed coordinates need both")
    _check_loop_map(p, map, "centered")


def transformed_drift(p: EsParams, map: CostMap, z, f: Factors):
    """Dither-free part b0(z, t) of the transformed loop, and its error.

    Over one packed state z = (theta_f..., eta_f), a sequence of d = n + 1
    components, with the schedule's factors f at t, g = d(log xi)/dt,
    xi2k = xi^(2 kappa) and jf = J(theta* + theta_f/xi) - J(theta*):

        b0  = [g theta_f, (2 kappa g - omega_h) eta_f + omega_h xi2k jf]
        err = jf - eta_f / xi2k

    b0 is a list of d components.  err is the deployed loop's J(theta) - eta;
    the transformed loop's phase is phase_error(f, err) * k_i, and the
    averaged loop reads b0 only.  Callers check the frame and the map once,
    when they assemble their fields.
    """
    n, nu, g = p.n, f.nu, f.g
    eta_f = z[n]
    xi2k = math.exp(2.0 * map.kappa * f.log_xi)
    jf = map.centered([s + z_i * nu for s, z_i in zip(map.optimum.tolist(), z)])
    b0 = [g * z_i for z_i in z[:n]]
    b0.append((2.0 * map.kappa * g - p.omega_h) * eta_f + p.omega_h * xi2k * jf)
    return b0, jf - eta_f / xi2k


def transformed_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over one packed state x = (theta_f_1..theta_f_n, eta_f), returning a tuple."""
    _require_transformable(p, map)
    factors = functools.lru_cache(maxsize=1)(p.schedule.factors)
    channels = list(enumerate(zip(p._amp.tolist(), p._omegas.tolist(), p.k.tolist())))

    def rhs(x, t: float) -> tuple:
        f = factors(t)
        out, err = transformed_drift(p, map, x, f)
        pe = phase_error(f, err)
        for i, (amp, w, k) in channels:
            out[i] += amp * math.cos(w * t + pe * k)
        return tuple(out)

    rhs.dither_omega_max = float(np.max(p._omegas))
    return rhs
