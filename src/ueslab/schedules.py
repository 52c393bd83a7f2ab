"""Time-varying dither schedules: amplitude decay nu(t), gain growth phi(t).

Three kinds.  Nominal keeps nu = phi = 1 (the constant-gain baseline).
Asymptotic decays the amplitude like a power law and grows the gain like
xi(t)^r with xi(t) = (1 + beta (t - t0))^(1/v).  Exponential decays like
exp(-lambda t) and grows the gain like xi(t)^2 with xi = exp(lambda t).
All evaluations go through the log domain so phi stays accurate and overflow
surfaces as an explicit error instead of inf.  ``Schedule.factors`` returns
every time-only factor a right-hand-side evaluation needs from one call.
``Schedule.factor_text`` is its nu, log phi and phi as text for generated
code, which reads ``text_names`` and gives the bits ``factors`` gives;
``Schedule.frame_text`` adds log xi and the growth drift g, which the
transformed-frame loops read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

NOMINAL = "nominal"
ASYMPTOTIC = "asymptotic"
EXPONENTIAL = "exponential"
KINDS = (NOMINAL, ASYMPTOTIC, EXPONENTIAL)

_LOG_MAX = math.log(sys.float_info.max)

# nu_{f}, lp_{f} and ph_{f} (nu, log phi, phi) at time {t}, by the operations of factors and Factors.phi in
# their order; r_v = r / v and lam2 = 2.0 * lam round as the products they stand for.  Past double range phi
# reads inf: text that needs it tests lp_{f} > LOG_MAX and raises through factors(t).phi, as before t0.
_START_TEXT = "if {t} < t0:\n    factors({t})  # raises ValueError\n"
_PHI_TEXT = "ph_{f} = inf if lp_{f} > LOG_MAX else exp(lp_{f})\n"
_FACTOR_TEXT = {
    NOMINAL: _START_TEXT + "nu_{f}, lp_{f}, ph_{f} = 1.0, 0.0, 1.0\n",
    ASYMPTOTIC: _START_TEXT + "l1p = log1p(beta * ({t} - t0))\nnu_{f} = exp(-(l1p / v))\nlp_{f} = r_v * l1p\n" + _PHI_TEXT,
    EXPONENTIAL: _START_TEXT + "tau = {t} - t0\nnu_{f} = exp(-(lam * tau))\nlp_{f} = lam2 * tau\n" + _PHI_TEXT,
}
# lx_{f} and g_{f} (log xi and g) at time {t}, after the factor text of that time, by the operations of factors
_DRIFT_TEXT = {
    NOMINAL: "lx_{f} = g_{f} = 0.0\n",
    ASYMPTOTIC: "lx_{f} = l1p / v\ng_{f} = beta / (v * (1.0 + beta * ({t} - t0)))\n",
    EXPONENTIAL: "lx_{f} = lam * tau\ng_{f} = lam\n",
}


@dataclass(frozen=True)
class Schedule:
    """Amplitude/gain schedule selecting nominal, asymptotic, or exponential behavior.

    kind   one of "nominal", "asymptotic", "exponential"
    t0     start time of the schedule, >= 0
    beta, v, r   asymptotic shape parameters (beta > 0, v > 0, r >= 0)
    lam    exponential rate (> 0)

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
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind '{self.kind}'; expected one of {KINDS}")
        if self.t0 < 0.0:
            raise ValueError(f"t0 must be >= 0, got {self.t0}")
        if self.kind == ASYMPTOTIC:
            if self.beta is None or self.beta <= 0.0:
                raise ValueError(f"asymptotic schedule needs beta > 0, got {self.beta}")
            if self.v is None or self.v <= 0.0:
                raise ValueError(f"asymptotic schedule needs v > 0, got {self.v}")
            if self.r is None or self.r < 0.0:
                raise ValueError(f"asymptotic schedule needs r >= 0, got {self.r}")
        elif self.kind == EXPONENTIAL:
            if self.lam is None or self.lam <= 0.0:
                raise ValueError(f"exponential schedule needs lam > 0, got {self.lam}")

    @classmethod
    def nominal(cls, t0: float = 0.0) -> "Schedule":
        return cls(kind=NOMINAL, t0=t0)

    @classmethod
    def asymptotic(cls, beta: float, v: float, r: float, t0: float = 0.0) -> "Schedule":
        return cls(kind=ASYMPTOTIC, t0=t0, beta=beta, v=v, r=r)

    @classmethod
    def exponential(cls, lam: float, t0: float = 0.0) -> "Schedule":
        return cls(kind=EXPONENTIAL, t0=t0, lam=lam)

    def factors(self, t: float) -> "Factors":
        """Every time-only factor of one right-hand-side evaluation at t.

        One start-time check and, for the asymptotic kind, one log1p serve
        log xi, log phi, nu and the growth drift g = d(log xi)/dt.
        """
        if t < self.t0:
            raise ValueError(f"t = {t} precedes schedule start t0 = {self.t0}")
        tau = t - self.t0
        if self.kind == NOMINAL:
            log_xi = log_phi = g = 0.0
        elif self.kind == ASYMPTOTIC:
            log1p = math.log1p(self.beta * tau)
            log_xi = log1p / self.v
            log_phi = (self.r / self.v) * log1p
            g = self.beta / (self.v * (1.0 + self.beta * tau))
        else:
            log_xi = self.lam * tau
            log_phi = 2.0 * self.lam * tau
            g = self.lam
        return Factors(self.kind, t, log_xi, log_phi, math.exp(-log_xi), g)

    def factor_text(self, t: str, f: str) -> Tuple[str, Tuple[str, ...]]:
        """Text that sets nu, log phi and phi at the time named t, reading ``text_names``, and the names it sets."""
        return _FACTOR_TEXT[self.kind].format(t=t, f=f), (f"nu_{f}", f"lp_{f}", f"ph_{f}")

    def frame_text(self, t: str, f: str) -> Tuple[str, Tuple[str, ...]]:
        """``factor_text`` followed by log xi and the growth drift g at the same time, and the names it sets."""
        text, names = self.factor_text(t, f)
        return text + _DRIFT_TEXT[self.kind].format(t=t, f=f), names + (f"lx_{f}", f"g_{f}")

    def text_names(self) -> dict:
        """The names ``factor_text`` reads: this schedule's numbers and the functions its text calls."""
        names = dict(t0=self.t0, factors=self.factors, exp=math.exp, log1p=math.log1p, inf=math.inf, LOG_MAX=_LOG_MAX)
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
