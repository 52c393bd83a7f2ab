"""Fixed-step RK4 integration, trajectory records, and a comparison-ODE oracle.

The integrator is deliberately fixed-step: dither terms have known frequency
content, and a step tied to the fastest dither keeps phase error deterministic
and runs byte-for-byte reproducible.  Right-hand sides that carry a
``dither_omega_max`` attribute get their step checked against
``dither_step_bound``: 40 samples per fastest period.  A state is one
float, or one tuple of floats, which a tuple, a list or a 1-D array start
becomes; ``integrate`` integrates one state per call.  A tuple of d floats
takes an RK4 step written out as text by ``rk4_text`` and compiled once per
distinct text.  Its four stages call an rhs that returns exactly d
components, or are inline text when that very function object carries its
own step (the deployed loop's ``rk4_step`` tag); a wrapper is called.

``lemma1_rhs`` / ``lemma1_solution`` form a self-oracle pair: a scalar
comparison ODE with a known closed-form solution, used to validate the
integrator and exercised by the CLI's check verb.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationDiverged

Array = np.ndarray

STEPS_PER_PERIOD = 40


def dither_step_bound(omega_max: float) -> float:
    """Largest RK4 step allowed under a dither of angular frequency omega_max."""
    return (2.0 * math.pi / omega_max) / STEPS_PER_PERIOD


def step_count(t0: float, t1: float, dt: float) -> int:
    """RK4 steps ``integrate`` takes from t0 to t1: uniform steps of dt, the last one landing on t1."""
    return max(1, math.ceil((t1 - t0) / dt - 1e-9))


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


# generated text, compiled once per distinct text
compiled = functools.cache(compile)


def rk4_text(d: int, stage: Optional[Callable] = None, factors: Optional[Callable] = None) -> str:
    """Text of ``advance(x, t, h, t_next)``, one RK4 step over a tuple of d floats, its sums per component.

    ``stage(inputs, t, f, k)`` is text setting k_0..k_{d-1} to the rates at the
    state of the d expressions inputs and time t; the default calls rhs.
    ``factors(t, f)`` gives the text setting the time-only values the stages
    read, suffixed f, and their names: set at t + h/2 and t_next, whose values
    ``carry`` keeps for the next step's t, and at t when t is not the last t_next.
    """
    row = lambda names: "(" + "".join(f"{name}, " for name in names) + ")"
    stage = stage or (lambda inputs, t, f, k: f"{row(f'{k}_{i}' for i in range(d))} = rhs({row(inputs)}, {t})\n")
    xs = [f"x_{i}" for i in range(d)]
    at = lambda h, k: [f"x_{i} + {h} * {k}_{i}" for i in range(d)]
    update = "".join(f"x_{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i}), " for i in range(d))
    clock = factors or (lambda t, f: ("", ()))
    (now, carried), (mid, _), (end, carry) = (clock(t, f) for t, f in (("t", "0"), ("t_h", "1"), ("t_next", "2")))
    head, start = "", [f"{row(xs)} = x\n"]
    body = [stage(xs, "t", "0", "k1"), "hh = 0.5 * h\nt_h = t + hh\n", mid, stage(at("hh", "k1"), "t_h", "1", "k2"),
            stage(at("hh", "k2"), "t_h", "1", "k3"), end, stage(at("h", "k3"), "t_next", "2", "k4")]
    if factors is not None:
        head = f"carry = {(None,) * (1 + len(carry))}\n"
        start = ["global carry\n"] + start + [f"{row(('t_c',) + carried)} = carry\n", "if t != t_c:\n", textwrap.indent(now, "    ")]
        body.append(f"carry = {row(('t_next',) + carry)}\n")
    src = "".join(start + body) + f"h6 = h / 6.0\nreturn ({update})\n"
    return head + "def advance(x, t, h, t_next):\n" + textwrap.indent(src, "    ")


def rk4_advance(rhs: Callable, d: int) -> Callable:
    """``advance`` for one integration over d floats: when rhs's ``rk4_step`` tag (rhs, text) names that
    very function object, its own step text run in a copy of its globals, else the generic step."""
    own = getattr(rhs, "rk4_step", None)
    src, names = (own[1], rhs.__globals__) if own is not None and own[0] is rhs else (rk4_text(d), {"rhs": rhs})
    namespace = dict(names)
    exec(compiled(src, f"<rk4 step over {d} floats>", "exec"), namespace)
    return namespace["advance"]


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

    The tuple path's step is ``rk4_advance(rhs, d)``, its stage sums written
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
        advance = rk4_advance(rhs, width)
        finite = lambda xv: all(map(math.isfinite, xv))
        record = list
    else:
        raise ValueError(f"integrate takes one state, a float or a 1-D sequence, got shape {shape}")
    if n is None:
        n = width
    elif not 1 <= n <= width:
        raise ValueError(f"n = {n} incompatible with state width {width}")

    n_steps = step_count(t0, t1, dt)
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
