"""Time-varying dither schedules: amplitude decay nu(t), gain growth phi(t).

Three kinds.  Nominal keeps nu = phi = 1 (the constant-gain baseline).
Asymptotic decays the amplitude like a power law and grows the gain like
xi(t)^r with xi(t) = (1 + beta (t - t0))^(1/v).  Exponential decays like
exp(-lambda t) and grows the gain like xi(t)^2 with xi = exp(lambda t).
``PARAMETERS`` is the one home of the parameters each kind reads, their
config keys and bounds: ``Schedule`` and the config reader both read it.
All evaluations go through the log domain so phi stays accurate and overflow
surfaces as an explicit error instead of inf.  The closed forms are text:
``Schedule.factor_text`` sets nu, log phi and phi at one time, reading
``text_names``, and ``Schedule.frame_text`` adds log xi and the growth drift
g.  The loops write these texts into their generated code, and
``Schedule.factors`` is the function compiled from the frame text.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

from .sim import generated

NOMINAL = "nominal"
ASYMPTOTIC = "asymptotic"
EXPONENTIAL = "exponential"

_LOG_MAX = math.log(sys.float_info.max)

# what each kind reads, its one home: (Schedule argument, config key, must exceed 0 rather than reach it)
PARAMETERS = {
    NOMINAL: (),
    ASYMPTOTIC: (("beta", "schedule.beta", True), ("v", "schedule.v", True), ("r", "schedule.r", False)),
    EXPONENTIAL: (("lam", "schedule.lambda", True),),
}

# nu_{f}, lp_{f} and ph_{f} (nu, log phi, phi) at time {t}, ph_{f} by the operation of Factors.phi; r_v = r / v
# and lam2 = 2.0 * lam round as the products they stand for.  Past double range phi reads inf: text that needs
# it tests lp_{f} > LOG_MAX and raises through factors(t).phi.
_START_TEXT = 'if {t} < t0:\n    raise ValueError(f"t = {{{t}}} precedes schedule start t0 = {{t0}}")\n'
_PHI_TEXT = "ph_{f} = inf if lp_{f} > LOG_MAX else exp(lp_{f})\n"
_FACTOR_TEXT = {
    NOMINAL: _START_TEXT + "nu_{f}, lp_{f}, ph_{f} = 1.0, 0.0, 1.0\n",
    ASYMPTOTIC: _START_TEXT + "l1p = log1p(beta * ({t} - t0))\nnu_{f} = exp(-(l1p / v))\nlp_{f} = r_v * l1p\n" + _PHI_TEXT,
    EXPONENTIAL: _START_TEXT + "tau = {t} - t0\nnu_{f} = exp(-(lam * tau))\nlp_{f} = lam2 * tau\n" + _PHI_TEXT,
}
# lx_{f} and g_{f} (log xi and g) at time {t}, after the factor text of that time
_DRIFT_TEXT = {
    NOMINAL: "lx_{f} = g_{f} = 0.0\n",
    ASYMPTOTIC: "lx_{f} = l1p / v\ng_{f} = beta / (v * (1.0 + beta * ({t} - t0)))\n",
    EXPONENTIAL: "lx_{f} = lam * tau\ng_{f} = lam\n",
}


@dataclass(frozen=True)
class Schedule:
    """Amplitude/gain schedule selecting nominal, asymptotic, or exponential behavior.

    kind   one of "nominal", "asymptotic", "exponential"
    t0     start time of the schedule, finite and >= 0
    beta, v, r, lam   asymptotic shape and exponential rate: the kind's ``PARAMETERS`` are
                      required, finite and bounded there, and a kind refuses any other

    The coupled condition v > 2*kappa - r >= 0 depends on the cost map and is
    checked at controller-parameter assembly, not here.
    """

    kind: str
    t0: float = 0.0
    beta: Optional[float] = None
    v: Optional[float] = None
    r: Optional[float] = None
    lam: Optional[float] = None

    def __post_init__(self):
        if self.kind not in PARAMETERS:
            raise ValueError(f"schedule.kind must be nominal, asymptotic, or exponential, got '{self.kind}'")
        if not (math.isfinite(self.t0) and self.t0 >= 0.0):
            raise ValueError(f"schedule.t0 must be >= 0, got {self.t0}")
        reads = PARAMETERS[self.kind]
        for arg, key, positive in (param for params in PARAMETERS.values() for param in params):
            value = getattr(self, arg)
            if (arg, key, positive) not in reads:
                if value is not None:
                    raise ValueError(f"{self.kind} schedule does not read {key}, got {arg} = {value}")
            elif value is None or not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
                raise ValueError(f"{self.kind} schedule needs {key} {'>' if positive else '>='} 0, got {value}")

    @functools.cached_property
    def factors(self) -> Callable[[float], "Factors"]:
        """``factors(t)``, every time-only factor of one right-hand-side evaluation at t, compiled from
        ``frame_text`` once per schedule: log xi, log phi, nu and the growth drift g = d(log xi)/dt."""
        body = self.frame_text("t", "0")[0] + "return Factors(kind, t, lx_0, lp_0, nu_0, g_0)\n"
        return generated("factors(t)", body, dict(self.text_names(), Factors=Factors, kind=self.kind),
                         f"<{self.kind} schedule factors>")

    def __getstate__(self) -> dict:  # pickled without the compiled factors, which an unpickled schedule compiles again
        return {name: value for name, value in vars(self).items() if name != "factors"}

    def factor_text(self, t: str, f: str) -> Tuple[str, Tuple[str, ...]]:
        """Text that sets nu, log phi and phi at the time named t, reading ``text_names``, and the names it sets."""
        return _FACTOR_TEXT[self.kind].format(t=t, f=f), (f"nu_{f}", f"lp_{f}", f"ph_{f}")

    def frame_text(self, t: str, f: str) -> Tuple[str, Tuple[str, ...]]:
        """``factor_text`` followed by log xi and the growth drift g at the same time, and the names it sets."""
        text, names = self.factor_text(t, f)
        return text + _DRIFT_TEXT[self.kind].format(t=t, f=f), names + (f"lx_{f}", f"g_{f}")

    def text_names(self) -> dict:
        """The names ``factor_text`` reads: this schedule's numbers and the functions its text calls."""
        names = dict(t0=self.t0, exp=math.exp, log1p=math.log1p, inf=math.inf, LOG_MAX=_LOG_MAX)
        if self.kind == ASYMPTOTIC:
            names.update(beta=self.beta, v=self.v, r_v=self.r / self.v)
        elif self.kind == EXPONENTIAL:
            names.update(lam=self.lam, lam2=2.0 * self.lam)
        return names

    def log_xi(self, t: float) -> float:
        """log of the growth function; 0 for Nominal."""
        return self.factors(t).log_xi

    def xi(self, t: float) -> float:
        """Growth function: (1+beta(t-t0))^(1/v), e^(lam(t-t0)), or 1."""
        return self.factors(t).xi

    def nu(self, t: float) -> float:
        """Amplitude decay multiplier; reciprocal of the growth function."""
        return self.factors(t).nu

    def log_phi(self, t: float) -> float:
        """log of the gain multiplier; 0 for Nominal."""
        return self.factors(t).log_phi

    def phi(self, t: float) -> float:
        """Gain growth multiplier: xi^r (asymptotic), xi^2 (exponential), or 1."""
        return self.factors(t).phi


class Factors(NamedTuple):
    """The time-only factors of a schedule at time t, from one ``Schedule.factors`` call.

    log_xi, log_phi  logs of the growth function and of the gain multiplier
    nu               amplitude multiplier exp(-log_xi)
    g                growth drift d(log xi)/dt: beta/(v (1 + beta (t-t0))),
                     lambda, or 0

    ``xi`` and ``phi`` are exponentiated on access, so a phi that leaves
    double range raises only where a caller needs phi itself.
    """

    kind: str
    t: float
    log_xi: float
    log_phi: float
    nu: float
    g: float

    @property
    def xi(self) -> float:
        return math.exp(self.log_xi)

    @property
    def phi(self) -> float:
        if self.log_phi > _LOG_MAX:
            raise OverflowError(f"gain multiplier phi exceeds double range at t = {self.t:g} ({self.kind} schedule)")
        return math.exp(self.log_phi)
