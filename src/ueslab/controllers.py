"""Closed-loop extremum-seeking dynamics.

Two coordinate frames are implemented, each as a right-hand side over a
packed state.  ``es_closed_loop`` is the controller as deployed, over
x = [theta_1..theta_n, eta]:

    theta_dot_i = nu(t) sqrt(alpha_i w_i) cos(w_i t + k_i phi(t) (J(theta) - eta))
    eta_dot     = -omega_h eta + omega_h J(theta)

with w_i = omega * omega_hat_i and the washout state eta tracking the DC
component of the measured cost.  The state carries eta - J*, J* = J(theta*),
and the stage J - J*, so the error keeps the digits J* cancels near theta*.
``transformed_closed_loop`` is the same loop in the scaled error coordinates
theta_f = xi(theta - theta*), eta_f = xi^(2 kappa) (eta - J(theta*)) used by
the stability analysis, over x = [theta_f_1..theta_f_n, eta_f]; the two are
related by exact algebra, which the test suite checks by chain rule.

Each right-hand side takes one state, a sequence of d floats such as the
tuple ``integrate`` keeps, and returns a tuple of floats; the per-channel
parameters are ``array('d')`` vectors, whose floats the generated texts read
by name.  Each loop is one stage text, its channels spelled out and the schedule's
factor text and the map's form texts inline: its callable rhs and its own
RK4 loop, with all four stages inline, are generated from it by
``_generated_loop``.  The deployed loop's stage is ``_deployed_stage``; the
transformed loop and its Lie-bracket average (``averaged_closed_loop``)
share ``_frame_stage``, whose phase takes the deployed stage's rule.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, replace
from typing import Optional

from .errors import AssemblyError, CapabilityError
from .maps import CostMap
from .schedules import ASYMPTOTIC, EXPONENTIAL, NOMINAL, Schedule
from .sim import floats, generated, rk4_text


def default_omega_hat(n: int) -> array:
    """Geometric frequency ratios 1, 1.5, 2.25, ...

    Pairwise distinct as required, and spaced so that low-order sums and
    differences w_i +/- w_j do not collide with any w_k.
    """
    return array("d", (1.5**i for i in range(n)))


@dataclass(frozen=True, eq=False)
class EsParams:
    """Controller parameters for an n-channel loop.

    alpha, k     per-channel dither amplitude and gain, all finite and > 0
    omega        base dither frequency, finite and > 0
    omega_h      washout filter frequency, finite and > 0
    schedule     amplitude/gain schedule
    omega_hat    per-channel frequency ratios, finite, > 0 and pairwise distinct; defaults to
                 the geometric spacing of default_omega_hat
    omegas       (set, not given) per-channel dither frequencies omega * omega_hat_i, positive and finite

    Cross-checks against a cost map (growth-order condition, exponential gain
    condition) happen in ``assemble``, which is the intended constructor for
    closed-loop use.
    """

    alpha: array
    k: array
    omega: float
    omega_h: float
    schedule: Schedule
    omega_hat: Optional[array] = None

    def __post_init__(self):
        alpha, k = floats(self.alpha), floats(self.k)
        hat = default_omega_hat(len(alpha)) if self.omega_hat is None else floats(self.omega_hat)
        n = len(alpha)
        if len(k) != n:
            raise AssemblyError(f"alpha and k must have equal length, got {n} and {len(k)}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "omega_hat", hat)
        if len(hat) != n:
            raise AssemblyError(f"es.omega_hat must have one entry per channel, got {len(hat)} for n = {n}")
        for key, values in (("es.alpha", alpha), ("es.k", k), ("es.omega", (self.omega,)),
                            ("es.omega_h", (self.omega_h,)), ("es.omega_hat", hat)):
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                raise AssemblyError(f"{key} must be positive, got {', '.join(map(format, values))}")
        if len(set(hat)) != n:
            raise AssemblyError(f"frequency ratios es.omega_hat must be pairwise distinct, got {hat.tolist()}")
        if self.schedule.kind == EXPONENTIAL and self.omega_h <= 2.0 * self.schedule.lam:
            raise AssemblyError(f"exponential schedule needs es.omega_h > 2 lambda, got es.omega_h = {self.omega_h} "
                                f"vs 2 lambda = {2.0 * self.schedule.lam} with schedule.lambda = {self.schedule.lam}")
        omegas = array("d", (self.omega * h for h in hat))
        if not all(math.isfinite(w) and w > 0.0 for w in omegas):
            raise AssemblyError(f"dither frequencies omega * es.omega_hat must be positive and finite, got "
                                f"{', '.join(map(format, omegas))} at omega = {self.omega}")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "_amp", array("d", (math.sqrt(a * self.omega * h) for a, h in zip(alpha, hat))))

    @property
    def n(self) -> int:
        return len(self.alpha)

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
    schedules against a strongly convex map the gain condition
    k_i alpha_i > 2 lambda a2 (2 a2 + b2) / (a1 b1^2), from the map's bounds.
    """
    def per_channel(key: str, values) -> array:
        try:
            vector = floats(values)
        except TypeError:
            vector = None
        if vector is None or len(vector) not in (1, map.dim):
            raise AssemblyError(f"{key} must be a scalar or a length-{map.dim} list to match map '{map.name}'")
        return vector * (map.dim // len(vector))

    p = EsParams(alpha=per_channel("es.alpha", alpha), k=per_channel("es.k", k), omega=omega, omega_h=omega_h,
                 schedule=schedule, omega_hat=omega_hat)
    if schedule.kind == ASYMPTOTIC:
        lo = 2.0 * map.kappa - schedule.r
        if lo < 0.0:
            raise AssemblyError(f"need 2 kappa - r >= 0, got schedule.r = {schedule.r} against 2 kappa = "
                                f"{2 * map.kappa} of map '{map.name}'")
        if schedule.v <= lo:
            raise AssemblyError(f"need v > 2 kappa - r, got schedule.v = {schedule.v} vs 2 kappa - r = {lo} "
                                f"with schedule.r = {schedule.r} on map '{map.name}'")
    if schedule.kind == EXPONENTIAL and map.kappa == 1:
        b = map.bounds
        # by ratios, so that no product of bounds leaves double range on its own
        floor = 2.0 * schedule.lam * (b.a2 / b.a1) * (2.0 * b.a2 + b.b2) / b.b1 / b.b1
        ka = min(k * a for k, a in zip(p.k, p.alpha))
        if ka <= floor:
            raise AssemblyError(
                f"exponential gain condition violated: es.k * es.alpha = {ka:g} on its smallest channel "
                f"must exceed 2 lambda a2 (2 a2 + b2) / (a1 b1^2) = {floor:g} with schedule.lambda = {schedule.lam} "
                f"on map '{map.name}'"
            )
    return p


def _check_loop_map(p: EsParams, map: CostMap) -> None:
    """Check once, when a loop is assembled, that the map has the dimension its rhs reads."""
    if map.dim != p.n:
        raise AssemblyError(f"map '{map.name}' has dimension {map.dim}, the controller has {p.n} channels")


def _dithered(n: int, t: str, f: str, k: str, drift: str) -> str:
    """Text setting k_0..k_{n-1} to drift (with {i} for the channel) plus the dither, its phase pe = phi err."""
    rates = "".join(f"    {k}_{i} = {drift.format(i=i)}amp_{i} * cos(w_{i} * {t} + pe * k_{i})\n" for i in range(n))
    nans = "".join(f"    {k}_{i} = nan\n" for i in range(n))
    return f"pe = ph_{f} * err\ntry:\n{rates}except ValueError:  # cos(+-inf): the phase left double range\n{nans}"


def _deployed_stage(n: int, value: str, inputs, t: str, f: str, k: str) -> str:
    """The deployed loop's rates at one state, as text: k_0..k_n at the state of the n + 1 expressions inputs,
    the time named t and the schedule's factors suffixed f; value is the text of J - J*, {i} for coordinate i."""
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
    dJ/dtheta_i (theta* + theta_f / xi) / xi, grad the text of dJ/dtheta as one tuple.  Phi's range is
    tested by the factor text, once per step time, before any stage reads phi; in the stage what can raise
    comes in this order: xi2k, centered, xi and grad.
    """
    jf = "".join(f"c_{i} = opt_{i} + s_{i} * nu_{f}\n" for i in range(n)) + f"jf = {centered.format(*[f'c_{i}' for i in range(n)])}\n"
    text = "".join(f"s_{i} = {x}\n" for i, x in enumerate(inputs)) + f"xi2k = exp(kappa2 * lx_{f})\n" + jf
    if grad is None:
        text += f"err = jf - s_{n} / xi2k\n" + _dithered(n, t, f, k, f"g_{f} * s_{{i}} + ")
    else:
        at = "".join(f"d_{i} = opt_{i} + s_{i} / xi\n" for i in range(n))
        grads = "(" + "".join(f"gr_{i}, " for i in range(n)) + f") = {grad.format(*[f'd_{i}' for i in range(n)])}\n"
        rates = "".join(f"{k}_{i} = g_{f} * s_{i} - ka_{i} * ph_{f} * (gr_{i} / xi)\n" for i in range(n))
        text += f"xi = exp(lx_{f})\n" + at + grads + rates
    return text + f"{k}_{n} = (kappa2 * g_{f} - omega_h) * s_{n} + omega_h * xi2k * jf\n"


def _generated_loop(p: EsParams, label: str, stage, factor_text, names: dict):
    """rhs(x, t) over n + 1 floats, returning a tuple, and its own RK4 loop (the ``rk4_loop`` tag, for this very
    function object), from stage and factor_text; the texts read names, with the schedule's, the channels' and
    the math functions added to it, never the loop's numbers, and each distinct text is compiled once."""
    n = p.n
    names.update(p.schedule.text_names(), factors=p.schedule.factors, cos=math.cos, nan=math.nan,
                 omega_h=float(p.omega_h))
    for name, values in (("w", p.omegas), ("amp", p._amp), ("k", p.k)):
        names.update((f"{name}_{i}", v) for i, v in enumerate(values))
    xs = [f"x_{i}" for i in range(n + 1)]
    body = (f"({', '.join(xs)},) = x\n" + factor_text("t", "0")[0] + stage(xs, "t", "0", "dx")
            + "return (" + "".join(f"dx_{i}, " for i in range(n + 1)) + ")\n")
    rhs = generated("rhs(x, t)", body, names, f"<{label} rhs over {n} channels>")
    rhs.rk4_loop = (rhs, rk4_text((n + 1,), stage, factor_text))
    return rhs


def es_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over one packed state x = (theta_1..theta_n, eta - J*), returning a tuple.

    x is a sequence of floats, such as the tuple ``integrate`` keeps.  The
    rhs and its own RK4 loop are generated from one stage text, the map's
    centered text inline (``_generated_loop``).  An infinite phase,
    where math.cos raises, gives NaN dither rates, so the
    integrator reports the divergence.  Tagged with the fastest dither
    frequency so the integrator can enforce its step bound.
    """
    _check_loop_map(p, map)
    stage = functools.partial(_deployed_stage, p.n, map.centered_text[0])
    rhs = _generated_loop(p, "deployed loop", stage, p.schedule.factor_text, dict(map.centered_text[1]))
    rhs.dither_omega_max = max(p.omegas)
    return rhs


def require_transformable(p: EsParams, map: CostMap) -> None:
    """Raise CapabilityError unless the transformed loop of p on map is defined and can be assembled."""
    if p.schedule.kind == NOMINAL:
        raise CapabilityError("transformed coordinates are undefined for the nominal schedule (xi would stay 1)")
    _check_loop_map(p, map)


def _frame_loop(p: EsParams, map: CostMap, averaged: bool):
    """The transformed loop's rhs, or with averaged its Lie-bracket average's, generated from
    ``_frame_stage``; the caller has checked the frame and the map."""
    centered, names = map.centered_text
    grad, grad_names = map.grad_text if averaged else (None, {})
    names = dict(names, **grad_names, kappa2=2.0 * map.kappa)
    names.update((f"opt_{i}", s) for i, s in enumerate(map.optimum))
    names.update((f"ka_{i}", 0.5 * k * a) for i, (k, a) in enumerate(zip(p.k, p.alpha)))
    stage = functools.partial(_frame_stage, p.n, centered, grad)
    return _generated_loop(p, "averaged loop" if averaged else "transformed loop", stage, p.schedule.frame_text, names)


def transformed_closed_loop(p: EsParams, map: CostMap):
    """rhs(x, t) over one packed state x = (theta_f_1..theta_f_n, eta_f), returning a tuple, and its own
    RK4 loop, as ``es_closed_loop``'s; an infinite phase gives NaN dither rates there too."""
    require_transformable(p, map)
    rhs = _frame_loop(p, map, averaged=False)
    rhs.dither_omega_max = max(p.omegas)
    return rhs


def require_averageable(p: EsParams, map: CostMap) -> None:
    """Raise CapabilityError unless the averaged system of p on map is defined and its loop can be assembled:
    under an exponential schedule the averaged dynamics are only defined for strongly convex (kappa = 1) maps."""
    if p.schedule.kind == EXPONENTIAL and map.kappa != 1:
        raise CapabilityError(f"exponential averaged dynamics cover kappa = 1 maps, got kappa = {map.kappa}")
    _check_loop_map(p, map)


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
