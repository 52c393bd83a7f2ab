"""Fixed-step RK4 integration, trajectory records, and a comparison-ODE oracle.

The integrator is deliberately fixed-step: dither terms have known frequency
content, and a step tied to the fastest dither keeps phase error deterministic
and runs byte-for-byte reproducible.  Right-hand sides that carry a
``dither_omega_max`` attribute get their step checked against
``dither_step_bound``: 40 samples per fastest period.  A state is one
float, or one tuple of floats, which a tuple, a list or a 1-D array start
becomes; ``integrate`` integrates one state per call.  A tuple of d floats
takes an RK4 step compiled once per d, for a right-hand side that returns
exactly d components, such as the closed loops' rhs.

``lemma1_rhs`` / ``lemma1_solution`` form a self-oracle pair: a scalar
comparison ODE with a known closed-form solution, used to validate the
integrator and exercised by the CLI's check verb.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationDiverged

Array = np.ndarray

STEPS_PER_PERIOD = 40


def dither_step_bound(omega_max: float) -> float:
    """Largest RK4 step allowed under a dither of angular frequency omega_max."""
    return (2.0 * math.pi / omega_max) / STEPS_PER_PERIOD


@dataclass
class Trajectory:
    """Time-indexed record of an integration run.

    times   (m,) strictly increasing sample times
    states  (m, d) raw state record, one row per sample
    n       number of leading state columns holding the controller input
    y       optional (m,) measured cost when a map was in the loop
    """

    times: Array
    states: Array
    n: int
    y: Optional[Array] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.times.ndim != 1:
            raise ValueError("times must be 1-D and states (m, d)")
        if len(self.times) != len(self.states):
            raise ValueError(f"{len(self.times)} times vs {len(self.states)} state rows")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        if not (0 < self.n <= self.states.shape[1]):
            raise ValueError(f"n = {self.n} incompatible with state width {self.states.shape[1]}")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("recorded states contain non-finite values")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
            if self.y.shape != self.times.shape:
                raise ValueError("y must have one entry per sample")

    @property
    def theta(self) -> Array:
        """(m, n) controller-input columns."""
        return self.states[:, : self.n]

    @property
    def eta(self) -> Array:
        """(m,) washout-filter column; requires state layout [theta..., eta]."""
        if self.states.shape[1] != self.n + 1:
            raise ValueError("trajectory has no washout-filter column")
        return self.states[:, self.n]

    def to_csv(self) -> str:
        """CSV text: header t,theta_1..theta_n,eta,y; 17 significant digits."""
        cols = ["t"] + [f"theta_{i + 1}" for i in range(self.n)]
        blocks = [self.times[:, None], self.theta]
        if self.states.shape[1] == self.n + 1:
            cols.append("eta")
            blocks.append(self.states[:, self.n : self.n + 1])
        if self.y is not None:
            cols.append("y")
            blocks.append(self.y[:, None])
        data = np.hstack(blocks)
        row = ",".join(["%.17g"] * data.shape[1]) + "\n"
        return ",".join(cols) + "\n" + (row * len(data)) % tuple(data.ravel().tolist())


@functools.cache
def _tuple_step(d: int):
    """``advance``, one RK4 step over a tuple of d floats, with its stage sums written out per component."""
    names = lambda k: "(" + "".join(f"{k}_{i}, " for i in range(d)) + ")"
    stage = lambda h, k: "(" + "".join(f"x_{i} + {h} * {k}_{i}, " for i in range(d)) + ")"
    update = "".join(f"x_{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i}), " for i in range(d))
    src = f"""def advance(x, t, h, t_next):
    {names('x')} = x
    {names('k1')} = rhs(x, t)
    hh = 0.5 * h
    {names('k2')} = rhs({stage('hh', 'k1')}, t + hh)
    {names('k3')} = rhs({stage('hh', 'k2')}, t + hh)
    {names('k4')} = rhs({stage('h', 'k3')}, t_next)
    h6 = h / 6.0
    return ({update})
"""
    return compile(src, f"<rk4 step over {d} floats>", "exec")


def integrate(
    rhs: Callable,
    x0,
    t0: float,
    t1: float,
    dt: float,
    record_every: int = 1,
    y_fn: Optional[Callable] = None,
    n: Optional[int] = None,
) -> Trajectory:
    """Classical fixed-step RK4 from t0 to t1, over one state.

    x0 is a float, or a 1-D sequence of d floats (a tuple, a list or a 1-D
    array), which is integrated as a tuple of floats; a 2-D start raises
    ValueError.  rhs(x, t) -> dx/dt returns a float for a float state and
    exactly d components for a tuple, or the first step raises ValueError.
    n, the number of leading state columns holding the controller input,
    defaults to d and must lie in 1..d, which is checked before the first
    step.  Samples are recorded every ``record_every`` steps; the initial
    and final states are always recorded.  ``y_fn(x, t)``, when given, fills
    the trajectory's y column at recorded samples.  A non-finite state, or an
    OverflowError/FloatingPointError raised by rhs, aborts with
    IntegrationDiverged carrying the trajectory recorded so far.

    The tuple path's step is compiled once per width, its stage sums written
    out per component in the float path's order, so both give the same bits
    for the same right-hand-side values.
    """
    if t1 <= t0:
        raise ValueError(f"t1 = {t1} must exceed t0 = {t0}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    omega_max = getattr(rhs, "dither_omega_max", None)
    if omega_max is not None:
        dt_max = dither_step_bound(omega_max)
        if dt > dt_max * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {dt:g} too coarse for dither frequency {omega_max:g}; need dt <= {dt_max:g} "
                f"({STEPS_PER_PERIOD} steps per fastest period)"
            )

    shape = np.shape(x0)
    if shape == ():
        x = float(x0)
        width = 1
        finite = math.isfinite
        record = lambda xv: [xv]

        def advance(x, t, h, t_next):
            k1 = rhs(x, t)
            k2 = rhs(x + (0.5 * h) * k1, t + 0.5 * h)
            k3 = rhs(x + (0.5 * h) * k2, t + 0.5 * h)
            k4 = rhs(x + h * k3, t_next)
            return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    elif len(shape) == 1:
        x = tuple(map(float, x0))
        width = len(x)
        namespace = {"rhs": rhs}
        exec(_tuple_step(width), namespace)
        advance = namespace["advance"]
        finite = lambda xv: all(map(math.isfinite, xv))
        record = list
    else:
        raise ValueError(f"integrate takes one state, a float or a 1-D sequence, got shape {shape}")
    if n is None:
        n = width
    elif not 1 <= n <= width:
        raise ValueError(f"n = {n} incompatible with state width {width}")

    span = t1 - t0
    n_steps = max(1, math.ceil(span / dt - 1e-9))
    times = [t0]
    rows = [record(x)]
    ys = [float(y_fn(x, t0))] if y_fn is not None else None

    def recorded() -> Trajectory:
        return Trajectory(np.asarray(times), np.asarray(rows), n, None if ys is None else np.asarray(ys))

    t = t0
    for step in range(1, n_steps + 1):
        # uniform steps of dt; the final step lands exactly on t1
        t_next = t1 if step == n_steps else t0 + step * dt
        h = t_next - t
        try:
            x = advance(x, t, h, t_next)
        except (OverflowError, FloatingPointError) as e:
            raise IntegrationDiverged(
                f"right-hand side failed in the step from t = {t:g}: {e}", t_last=times[-1], trajectory=recorded()
            ) from e
        t = t_next
        if not finite(x):
            raise IntegrationDiverged(f"state became non-finite at t = {t:g}", t_last=times[-1], trajectory=recorded())
        if step % record_every == 0 or step == n_steps:
            times.append(t)
            rows.append(record(x))
            if ys is not None:
                ys.append(float(y_fn(x, t)))

    return recorded()


@dataclass(frozen=True)
class Lemma1Params:
    """Parameters of the comparison ODE dV/dt = -eps1 (1+beta s)^(-p) V^q + eps2 (1+beta s)^(-1) V."""

    beta: float
    eps1: float
    eps2: float
    p: float
    q: float
    v0: float
    t0: float = 0.0

    def __post_init__(self):
        if self.beta <= 0.0 or self.eps1 <= 0.0 or self.eps2 <= 0.0:
            raise ValueError("beta, eps1, eps2 must all be positive")
        if self.p >= 1.0:
            raise ValueError(f"p < 1 required, got {self.p}")
        if self.q <= 1.0:
            raise ValueError(f"q > 1 required, got {self.q}")
        if self.v0 <= 0.0:
            raise ValueError(f"v0 > 0 required, got {self.v0}")
        if self.t0 < 0.0:
            raise ValueError(f"t0 >= 0 required, got {self.t0}")
        if self.eps3 <= 0.0:
            raise ValueError(f"derived eps3 = {self.eps3} must be positive")

    @property
    def eps3(self) -> float:
        num = self.eps1 * (self.q - 1.0) / self.beta
        den = self.eps2 * (self.q - 1.0) / self.beta + 1.0 - self.p
        return num / den


def lemma1_rhs(p: Lemma1Params, V: float, t: float) -> float:
    """Right-hand side of the comparison ODE; valid for V >= 0, t >= t0."""
    if V < 0.0:
        raise ValueError(f"V must be nonnegative, got {V}")
    s = 1.0 + p.beta * (t - p.t0)
    return -p.eps1 * s ** (-p.p) * V**p.q + p.eps2 * V / s


def lemma1_solution(p: Lemma1Params, t: float) -> float:
    """Closed-form solution of the comparison ODE with V(t0) = v0.

    V(t) = [ s^c / (v0^(1-q) + eps3 (s^(c+1-p) - 1)) ]^(1/(q-1)),
    s = 1 + beta (t - t0), c = eps2 (q-1) / beta.
    """
    if t < p.t0:
        raise ValueError(f"t = {t} precedes t0 = {p.t0}")
    s = 1.0 + p.beta * (t - p.t0)
    c = p.eps2 * (p.q - 1.0) / p.beta
    denom = p.v0 ** (1.0 - p.q) + p.eps3 * (s ** (c + 1.0 - p.p) - 1.0)
    if denom <= 0.0:
        raise FloatingPointError(f"closed-form denominator {denom:g} <= 0 at t = {t:g}")
    return (s**c / denom) ** (1.0 / (p.q - 1.0))
