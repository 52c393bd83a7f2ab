"""Time-varying dither schedules: amplitude decay nu(t), gain growth phi(t).

Three kinds.  Nominal keeps nu = phi = 1 (the constant-gain baseline).
Asymptotic decays the amplitude like a power law and grows the gain like
xi(t)^r with xi(t) = (1 + beta (t - t0))^(1/v).  Exponential decays like
exp(-lambda t) and grows the gain like xi(t)^2 with xi = exp(lambda t).
All evaluations go through the log domain so phi stays accurate and overflow
surfaces as an explicit error instead of inf.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

NOMINAL = "nominal"
ASYMPTOTIC = "asymptotic"
EXPONENTIAL = "exponential"
KINDS = (NOMINAL, ASYMPTOTIC, EXPONENTIAL)

_LOG_MAX = math.log(sys.float_info.max)


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

    def _elapsed(self, t: float) -> float:
        if t < self.t0:
            raise ValueError(f"t = {t} precedes schedule start t0 = {self.t0}")
        return t - self.t0

    def log_xi(self, t: float) -> float:
        """log of the growth function; 0 for Nominal."""
        tau = self._elapsed(t)
        if self.kind == NOMINAL:
            return 0.0
        if self.kind == ASYMPTOTIC:
            return math.log1p(self.beta * tau) / self.v
        return self.lam * tau

    def xi(self, t: float) -> float:
        """Growth function: (1+beta(t-t0))^(1/v), e^(lam(t-t0)), or 1."""
        return math.exp(self.log_xi(t))

    def nu(self, t: float) -> float:
        """Amplitude decay multiplier; reciprocal of the growth function."""
        return math.exp(-self.log_xi(t))

    def log_phi(self, t: float) -> float:
        """log of the gain multiplier; 0 for Nominal."""
        tau = self._elapsed(t)
        if self.kind == NOMINAL:
            return 0.0
        if self.kind == ASYMPTOTIC:
            return (self.r / self.v) * math.log1p(self.beta * tau)
        return 2.0 * self.lam * tau

    def phi(self, t: float) -> float:
        """Gain growth multiplier: xi^r (asymptotic), xi^2 (exponential), or 1."""
        lp = self.log_phi(t)
        if lp > _LOG_MAX:
            raise OverflowError(f"gain multiplier phi exceeds double range at t = {t:g} ({self.kind} schedule)")
        return math.exp(lp)
