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
Each loop is one stage text, its channels spelled out and the schedule's
factor text and the map's closed forms inline: its callable rhs and its own
RK4 loop, with all four stages inline, are generated from it by
``_generated_loop``.  The deployed loop's stage is ``_deployed_stage``; the
transformed loop and its Lie-bracket average (``averaging``) share
``_frame_stage``, whose phase takes the deployed stage's rule.
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
    needed, and can only overflow, for the other errors.  The loops' stage
    text writes this rule inline; the b-field decomposition calls it.
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


def _map_form(own, form, name: str, n: int) -> tuple:
    """(text, names) of one of a map's closed forms over n coordinates, {i} for coordinate i: own, the map's
    text of it, or a call of the callable form under name."""
    return own or (f"{name}((" + "".join(f"{{{i}}}, " for i in range(n)) + "))", {name: form})


# phi(t) err by phase_error's rule in its test order: phi's range is tested, and Factors.phi raises, only where
# phi is needed
_PHI_RAISES = "lp_{f} > LOG_MAX:\n    factors({t}).phi  # raises OverflowError\n"
_PHASE_TEXT = """if abs(err) < TINY_ERR:
    pe = copysign(exp(lp_{f} + log(abs(err))), err) if err else 0.0
elif """ + _PHI_RAISES + """else:
    pe = ph_{f} * err
"""


def _dithered(n: int, t: str, f: str, k: str, drift: str) -> str:
    """Text setting k_0..k_{n-1} to drift (with {i} for the channel) plus the dither, with the phase of err."""
    rates = "".join(f"    {k}_{i} = {drift.format(i=i)}amp_{i} * cos(w_{i} * {t} + pe * k_{i})\n" for i in range(n))
    nans = "".join(f"    {k}_{i} = nan\n" for i in range(n))
    return _PHASE_TEXT.format(t=t, f=f) + f"try:\n{rates}except ValueError:  # cos(+-inf): the phase left double range\n{nans}"


def _deployed_stage(n: int, value: str, inputs, t: str, f: str, k: str) -> str:
    """The deployed loop's rates at one state, as text: k_0..k_n at the state of the n + 1 expressions
    inputs, the time named t and the schedule's factors suffixed f; value is J's text, {i} for coordinate i."""
    bind = "".join(f"s_{i} = {x}\n" for i, x in enumerate(inputs))
    err = f"err = ({value.format(*[f's_{i}' for i in range(n)])}) - s_{n}\n"
    return bind + err + _dithered(n, t, f, k, f"nu_{f} * ") + f"{k}_{n} = omega_h * err\n"


def _frame_stage(n: int, centered: str, grad: Optional[str], inputs, t: str, f: str, k: str) -> str:
    """A transformed-frame loop's rates at one state, as text, in _deployed_stage's terms; the state is
    (theta_f_1..theta_f_n, eta_f), and the frame factors (``Schedule.frame_text``) add log xi and g.

    Both loops take the drift b0 = [g theta_f, (2 kappa g - omega_h) eta_f + omega_h xi2k jf], with
    xi2k = xi^(2 kappa) and jf = J(theta* + nu theta_f) - J(theta*), the text centered.  With grad None,
    the transformed loop adds the dither, its phase that of err = jf - eta_f / xi2k by the deployed
    stage's rule.  Otherwise the averaged loop subtracts the bracket term (1/2) k_i alpha_i phi
    dJ/dtheta_i (theta* + theta_f / xi) / xi, grad the text of dJ/dtheta as one tuple.  The raising
    operations keep their order: xi2k, centered, then phi's range, xi and grad.
    """
    bind = "".join(f"s_{i} = {x}\n" for i, x in enumerate(inputs))
    jf = "".join(f"c_{i} = opt_{i} + s_{i} * nu_{f}\n" for i in range(n)) + f"jf = {centered.format(*[f'c_{i}' for i in range(n)])}\n"
    text = bind + f"xi2k = exp(kappa2 * lx_{f})\n" + jf
    if grad is None:
        text += f"err = jf - s_{n} / xi2k\n" + _dithered(n, t, f, k, f"g_{f} * s_{{i}} + ")
    else:
        at = "".join(f"d_{i} = opt_{i} + s_{i} / xi\n" for i in range(n))
        grads = "(" + "".join(f"gr_{i}, " for i in range(n)) + f") = {grad.format(*[f'd_{i}' for i in range(n)])}\n"
        rates = "".join(f"{k}_{i} = g_{f} * s_{i} - ka_{i} * ph_{f} * (gr_{i} / xi)\n" for i in range(n))
        text += "if " + _PHI_RAISES.format(t=t, f=f) + f"xi = exp(lx_{f})\n" + at + grads + rates
    return text + f"{k}_{n} = (kappa2 * g_{f} - omega_h) * s_{n} + omega_h * xi2k * jf\n"


def _generated_loop(p: EsParams, label: str, stage, factor_text, names: dict):
    """rhs(x, t) over n + 1 floats, returning a tuple, and its own RK4 loop (the ``rk4_loop`` tag, for this very
    function object), from stage and factor_text; the texts read names, with the schedule's, the channels' and
    the math functions added to it, never the loop's numbers, and each distinct text is compiled once."""
    n = p.n
    names.update(p.schedule.text_names(), cos=math.cos, copysign=math.copysign, log=math.log, exp=math.exp,
                 nan=math.nan, TINY_ERR=TINY_ERR, omega_h=float(p.omega_h))
    for name, values in (("w", p._omegas), ("amp", p._amp), ("k", p.k)):
        names.update((f"{name}_{i}", v) for i, v in enumerate(values.tolist()))
    xs = [f"x_{i}" for i in range(n + 1)]
    body = f"({', '.join(xs)},) = x\n" + factor_text("t", "0")[0] + stage(xs, "t", "0", "dx")
    src = "def rhs(x, t):\n" + textwrap.indent(body + "return (" + "".join(f"dx_{i}, " for i in range(n + 1)) + ")\n", "    ")
    exec(compiled(src, f"<{label} rhs over {n} channels>", "exec"), names)
    rhs = names["rhs"]
    rhs.rk4_loop = (rhs, rk4_text((n + 1,), stage, factor_text))
    return rhs


def es_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over one packed state x = (theta_1..theta_n, eta), returning a tuple.

    x is a tuple of floats, as ``integrate`` keeps it, or a 1-D array.  The
    rhs and its own RK4 loop are generated from one stage text, which calls
    a map without value text (``_generated_loop``).  An infinite phase,
    where math.cos raises, gives NaN dither rates, as np.cos would, so the
    integrator reports the divergence.  Tagged with the fastest dither
    frequency so the integrator can enforce its step bound.
    """
    _check_loop_map(p, map)
    text, names = _map_form(map.value_text, map.eval, "cost", p.n)
    stage = functools.partial(_deployed_stage, p.n, text)
    rhs = _generated_loop(p, "deployed loop", stage, p.schedule.factor_text, dict(names))
    rhs.dither_omega_max = float(np.max(p._omegas))
    return rhs


def _require_transformable(p: EsParams, map: CostMap):
    if p.schedule.kind == NOMINAL:
        raise CapabilityError("transformed coordinates are undefined for the nominal schedule (xi would stay 1)")
    if map.optimum is None or map.optimal_value is None:
        raise CapabilityError(f"map '{map.name}' lacks optimum/optimal_value; transformed coordinates need both")
    _check_loop_map(p, map, "centered")


def _frame_loop(p: EsParams, map: CostMap, averaged: bool):
    """The transformed loop's rhs, or with averaged its Lie-bracket average's, generated from
    ``_frame_stage``; the caller has checked the frame and the map."""
    centered, names = _map_form(map.centered_text, map.centered, "centered", p.n)
    grad, grad_names = _map_form(map.grad_text, map.grad, "grad", p.n) if averaged else (None, {})
    names = dict(names, **grad_names, kappa2=2.0 * map.kappa)
    names.update((f"opt_{i}", s) for i, s in enumerate(map.optimum.tolist()))
    names.update((f"ka_{i}", 0.5 * k * a) for i, (k, a) in enumerate(zip(p.k.tolist(), p.alpha.tolist())))
    stage = functools.partial(_frame_stage, p.n, centered, grad)
    return _generated_loop(p, "averaged loop" if averaged else "transformed loop", stage, p.schedule.frame_text, names)


def transformed_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over one packed state x = (theta_f_1..theta_f_n, eta_f), returning a tuple, and its own
    RK4 loop, as ``es_closed_loop``'s; an infinite phase gives NaN dither rates there too."""
    _require_transformable(p, map)
    rhs = _frame_loop(p, map, averaged=False)
    rhs.dither_omega_max = float(np.max(p._omegas))
    return rhs
