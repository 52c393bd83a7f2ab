"""Fixed-step RK4 integration, trajectory records, and a comparison-ODE oracle.

The integrator is deliberately fixed-step: dither terms have known frequency
content, and a step tied to the fastest dither keeps phase error deterministic
and runs byte-for-byte reproducible.  Right-hand sides that carry a
``dither_omega_max`` attribute get their step checked against
``dither_step_bound``: 40 samples per fastest period.  A state is a float,
a tuple of floats, a 1-D array (d,), or a batch (B, d) of B independent
states that share the step, the sample times and the right-hand side; a
batch is one RK4 run whose rhs evaluates all rows at once.  A tuple state is
summed component by component in Python floats, for a right-hand side that
works on floats, such as the deployed loop's.

``lemma1_rhs`` / ``lemma1_solution`` form a self-oracle pair: a scalar
comparison ODE with a known closed-form solution, used to validate the
integrator and exercised by the CLI's check verb.
"""

from __future__ import annotations

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
    states  (m, d) raw state record, one row per sample; (m, B, d) for a batch
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
        if self.states.ndim not in (2, 3) or self.times.ndim != 1:
            raise ValueError("times must be 1-D and states (m, d) or (m, B, d)")
        if len(self.times) != len(self.states):
            raise ValueError(f"{len(self.times)} times vs {len(self.states)} state rows")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        if not (0 < self.n <= self.states.shape[-1]):
            raise ValueError(f"n = {self.n} incompatible with state width {self.states.shape[-1]}")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("recorded states contain non-finite values")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
            if self.y.shape != self.times.shape:
                raise ValueError("y must have one entry per sample")

    @property
    def theta(self) -> Array:
        """(m, n) controller-input columns; (m, B, n) for a batch."""
        return self.states[..., : self.n]

    @property
    def eta(self) -> Array:
        """(m,) washout-filter column, (m, B) for a batch; requires state layout [theta..., eta]."""
        if self.states.shape[-1] != self.n + 1:
            raise ValueError("trajectory has no washout-filter column")
        return self.states[..., self.n]

    def to_csv(self) -> str:
        """CSV text: header t,theta_1..theta_n,eta,y; 17 significant digits; one state per sample only."""
        if self.states.ndim != 2:
            raise ValueError("CSV output takes one state per sample, not a batch")
        cols = ["t"] + [f"theta_{i + 1}" for i in range(self.n)]
        blocks = [self.times[:, None], self.theta]
        if self.states.shape[1] == self.n + 1:
            cols.append("eta")
            blocks.append(self.states[:, self.n : self.n + 1])
        if self.y is not None:
            cols.append("y")
            blocks.append(self.y[:, None])
        data = np.hstack(blocks)
        lines = [",".join(cols)]
        for row in data:
            lines.append(",".join(format(x, ".17g") for x in row))
        return "\n".join(lines) + "\n"


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
    """Classical fixed-step RK4 from t0 to t1.

    rhs(x, t) -> dx/dt, with x a float, a tuple of floats, a 1-D array (d,)
    or a batch (B, d); the state type is preserved across steps, and an rhs
    given a tuple returns a sequence of d floats.  An rhs that returns a
    tuple, such as the deployed loop's, needs a tuple start: given an array
    state it raises ValueError.  Samples are recorded every
    ``record_every`` steps; the initial and final states are always recorded.
    ``y_fn(x, t)``, when given, fills the trajectory's y column at recorded
    samples.  A non-finite
    state, or an OverflowError/FloatingPointError raised by rhs, aborts with
    IntegrationDiverged carrying the trajectory recorded so far; for a batch
    that went non-finite it also names the rows that did.  Rows never
    interact, so integrating the others again reproduces them bit for bit.

    The float and tuple paths are kept for small states, such as the
    comparison ODE and the deployed loop: as arrays each step pays numpy's
    per-operation overhead, which made the 1e5-step comparison-ODE oracle
    over ten times slower.  The tuple path sums in the array path's order,
    so both give the same bits for the same right-hand-side values.
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

    if isinstance(x0, tuple):
        x = tuple(map(float, x0))
        width = len(x)
        finite = lambda xv: all(map(math.isfinite, xv))
        record = list

        def advance(x, t, h, t_next):
            k1 = rhs(x, t)
            hh = 0.5 * h
            k2 = rhs(tuple([a + hh * b for a, b in zip(x, k1)]), t + hh)
            k3 = rhs(tuple([a + hh * b for a, b in zip(x, k2)]), t + hh)
            k4 = rhs(tuple([a + h * b for a, b in zip(x, k3)]), t_next)
            h6 = h / 6.0
            return tuple([a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])

    else:
        if np.isscalar(x0) or (isinstance(x0, np.ndarray) and x0.ndim == 0):
            x = float(x0)
            width = 1
            finite = math.isfinite
            record = lambda xv: [xv]
        else:
            x = np.array(x0, dtype=float)
            if x.ndim not in (1, 2):
                raise ValueError(f"array states must be (d,) or (B, d), got shape {x.shape}")
            width = x.shape[-1]
            finite = lambda xv: bool(np.all(np.isfinite(xv)))
            record = lambda xv: xv.tolist()

        def advance(x, t, h, t_next):
            k1 = rhs(x, t)
            if isinstance(k1, (tuple, list)):
                raise ValueError(
                    "rhs returned a sequence for an array state; start a right-hand side that works "
                    "on floats, such as the deployed loop's, from a tuple"
                )
            k2 = rhs(x + (0.5 * h) * k1, t + 0.5 * h)
            k3 = rhs(x + (0.5 * h) * k2, t + 0.5 * h)
            k4 = rhs(x + h * k3, t_next)
            return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    if n is None:
        n = width

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
            bad = np.flatnonzero(~np.isfinite(x).all(axis=1)).tolist() if np.ndim(x) == 2 else None
            where = "" if bad is None else f" in rows {bad}"
            raise IntegrationDiverged(
                f"state became non-finite{where} at t = {t:g}", t_last=times[-1], trajectory=recorded(), rows=bad
            )
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
