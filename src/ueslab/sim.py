"""Fixed-step RK4 integration, trajectory records, and a comparison-ODE oracle.

The integrator is deliberately fixed-step: dither terms have known frequency
content, and a step tied to the fastest dither keeps phase error deterministic
and runs byte-for-byte reproducible.  Right-hand sides that carry a
``dither_omega_max`` attribute get their step checked against
``dither_step_bound``: 40 samples per fastest period.  A state is one
float, or one tuple of floats, which a tuple, a list or a 1-D array start
becomes; ``integrate`` integrates one state per call, in one RK4 loop that
``rk4_text`` writes out per component and ``generated``, the compiler of all
generated code, compiles once per text.  Its stages call the rhs, or are
inline text when that very function object carries its own loop (the deployed
loop's ``rk4_loop`` tag).  A ``Trajectory`` holds the loop's flat
``array('d')`` buffers, read through its column accessors, and gives its CSV
text in blocks of ``FORMAT_BLOCK`` rows, so a caller can write it without
holding the whole text.

``lemma1_rhs`` / ``lemma1_solution`` form a self-oracle pair: a scalar
comparison ODE with a known closed-form solution, used to validate the
integrator and exercised by the CLI's check verb.
"""

from __future__ import annotations

import functools
import math
import operator
import textwrap
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Optional

from .errors import IntegrationDiverged

STEPS_PER_PERIOD = 40
# rows of a CSV or points of a polyline formatted at once, which bounds the Python floats held for its text;
# at 256 a block holds less than the rate fit's one distance per window sample, and at 512 the CSV's matches it
FORMAT_BLOCK = 256


def dither_step_bound(omega_max: float) -> float:
    """Largest RK4 step allowed under a dither of angular frequency omega_max."""
    return (2.0 * math.pi / omega_max) / STEPS_PER_PERIOD


def step_count(t0: float, t1: float, dt: float) -> int:
    """RK4 steps ``integrate`` takes from t0 to t1: uniform steps of dt, the last one landing on t1."""
    return max(1, math.ceil((t1 - t0) / dt - 1e-9))


def floats(values) -> array:
    """values as an ``array('d')``: values itself when it is one, else a new one of a float or a 1-D sequence of
    floats; TypeError for anything else."""
    if isinstance(values, array) and values.typecode == "d":
        return values
    return array("d", values if hasattr(values, "__len__") else (values,))


@dataclass
class Trajectory:
    """Time-indexed record of an integration run, in flat ``array('d')`` buffers.

    times   m strictly increasing sample times, m >= 1
    rows    the m recorded states, row-major: width floats per row, [theta...] (width n) or [theta..., eta]
            (width n + 1)
    n       number of leading state columns holding the controller input
    y       optional m measured costs when a map was in the loop
    width   (set, not given) len(rows) // m

    ``integrate`` hands over the buffers it filled without a copy, so a recorded row costs its width + 1
    floats; other sequences of floats are copied into new buffers.  ``column`` reads one state column.
    ``csv_blocks`` yields the CSV text FORMAT_BLOCK rows at a time, each block interleaved from its own slices
    of the columns, so writing it holds one block's floats and text, not the record's; ``to_csv`` joins those
    blocks.
    """

    times: array
    rows: array
    n: int
    y: Optional[array] = None
    width: int = field(init=False)

    def __post_init__(self):
        self.times = floats(self.times)
        try:
            self.rows = floats(self.rows)
        except TypeError as e:
            raise ValueError(f"rows must hold the states (m, d) as m * d floats, row-major: {e}") from None
        m = len(self.times)
        if m == 0 or len(self.rows) % m:
            raise ValueError(f"{m} times vs {len(self.rows)} state values: need m >= 1 times and m rows of equal width")
        self.width = len(self.rows) // m
        if not all(map(operator.lt, self.times, islice(self.times, 1, None))):
            raise ValueError("sample times must be strictly increasing")
        _check_width(self.n, self.width)
        if not all(map(math.isfinite, self.rows)):
            raise ValueError("recorded states contain non-finite values")
        if self.y is not None:
            self.y = floats(self.y)
            if len(self.y) != m:
                raise ValueError("y must have one entry per sample")

    def column(self, j: int) -> memoryview:
        """State column j over the m samples, theta_{j+1} for j < n and eta for j = n: a strided view of rows,
        no copy."""
        return memoryview(self.rows)[j :: self.width]

    def csv_blocks(self) -> Iterator[str]:
        """CSV text in pieces: the header t,theta_1..theta_n,eta,y, then one string per FORMAT_BLOCK rows;
        17 significant digits.  A block is interleaved from that block's slices of the columns."""
        w = self.width
        names = ["t"] + [f"theta_{i + 1}" for i in range(self.n)] + ["eta"] * (w - self.n) + ["y"] * (self.y is not None)
        yield ",".join(names) + "\n"
        row, k = ",".join(["%.17g"] * len(names)) + "\n", len(names)
        for i in range(0, len(self.times), FORMAT_BLOCK):
            j = min(i + FORMAT_BLOCK, len(self.times))
            cells = [0.0] * ((j - i) * k)  # row-major: each column's slice fills every k-th cell
            cells[0::k] = self.times[i:j]
            for c in range(w):
                cells[1 + c :: k] = self.rows[i * w + c : j * w : w]
            if self.y is not None:
                cells[k - 1 :: k] = self.y[i:j]
            yield (row * (j - i)) % tuple(cells)

    def to_csv(self) -> str:
        """The whole CSV text of ``csv_blocks``."""
        return "".join(self.csv_blocks())


def _shape(value) -> tuple:
    """The shape numpy gives value, read along its first items: () for a float, (d,) for a sequence of d floats."""
    if not hasattr(value, "__len__"):
        return ()
    return (len(value),) + (_shape(value[0]) if len(value) else ())


def _check_width(n: int, width: int) -> None:
    """Refuse any state layout but [theta...] and [theta..., eta]: no CSV column would name the other columns."""
    if not (n >= 1 and width - n in (0, 1)):
        raise ValueError(f"n = {n} incompatible with state width {width}: a state is [theta...] or [theta..., eta]")


def csv_text(header, rows) -> str:
    """CSV text of the header's names and the rows: floats with 17 significant digits, as csv_blocks, others by str."""
    cell = lambda v: format(v, ".17g") if isinstance(v, float) else str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


@functools.cache
def _code(signature: str, body: str, label: str):
    return compile(f"def {signature}:\n" + textwrap.indent(body, "    "), label, "exec")


def generated(signature: str, body: str, names: dict, label: str) -> Callable:
    """``def <signature>:`` with body, run in a copy of names, its code compiled once per (signature, body, label)."""
    namespace = dict(names)
    exec(_code(signature, body, label), namespace)
    return namespace[signature.partition("(")[0]]


def rk4_text(shape: tuple, stage: Optional[Callable] = None, factors: Optional[Callable] = None) -> str:
    """Body of ``run(x, t_start, t_end, dt, steps, every, times, rows)``, integrate's whole RK4 loop over a
    float (shape ``()``, left unpacked) or a tuple of d floats (``(d,)``), its sums per component.  times and
    rows are flat ``array('d')`` buffers: run appends each recorded sample's t to times and extends rows by
    its d components x_0..x_{d-1}, no object per row.  It returns None at t_end, else the message and the
    OverflowError/FloatingPointError that ended a step (None at a non-finite state).

    ``stage(inputs, t, f, k)`` is text setting k_0..k_{d-1} to the rates at the state of the d expressions
    inputs and time t; the default calls rhs.  ``factors(t, f)`` gives the text setting the time-only values
    the stages read, suffixed f, and their names: set at t_start, then per step at t + h/2 and at t_next,
    whose values become plain locals that the next step reads as its t values.
    """
    d = shape[0] if shape else 1
    pack = lambda names: "(" + "".join(f"{name}, " for name in names) + ")"
    row = pack if shape else "".join
    stage = stage or (lambda inputs, t, f, k: f"{row([f'{k}_{i}' for i in range(d)])} = rhs({row(inputs)}, {t})\n")
    xs = [f"x_{i}" for i in range(d)]
    at = lambda h, k: [f"x_{i} + {h} * {k}_{i}" for i in range(d)]
    update = "".join(f"x_{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i}), " for i in range(d))
    clock = factors or (lambda t, f: ("", ()))
    (now, at_t), (mid, _), (end, at_next) = (clock(t, f) for t, f in (("t", "0"), ("t_h", "1"), ("t_next", "2")))
    step = [stage(xs, "t", "0", "k1"), "hh = 0.5 * h\nt_h = t + hh\n", mid, stage(at("hh", "k1"), "t_h", "1", "k2"),
            stage(at("hh", "k2"), "t_h", "1", "k3"), end, stage(at("h", "k3"), "t_next", "2", "k4"),
            f"h6 = h / 6.0\n{pack(xs)} = ({update})\n", f"{pack(at_t)} = {pack(at_next)}\n" if at_t else ""]
    return f"""{row(xs)} = x
t = t_start
{now}for step in range(1, steps + 1):
    t_next = t_end if step == steps else t_start + step * dt
    h = t_next - t
    try:
{textwrap.indent("".join(step), "        ")}    except (OverflowError, FloatingPointError) as e:
        return f"right-hand side failed in the step from t = {{t:g}}: {{e}}", e
    t = t_next
    if not ({" and ".join(f"isfinite({x})" for x in xs)}):
        return f"state became non-finite at t = {{t:g}}", None
    if step % every == 0 or step == steps:
        times.append(t)
        rows.extend({pack(xs)})
"""


def rk4_loop(rhs: Callable, shape: tuple) -> Callable:
    """``run`` for one integration over a state of ``shape``: when rhs's ``rk4_loop`` tag (rhs, body) names
    that very function object, its own loop body run in a copy of its globals, else the generic loop."""
    own = getattr(rhs, "rk4_loop", None)
    body, names = (own[1], rhs.__globals__) if own is not None and own[0] is rhs else (rk4_text(shape), {"rhs": rhs})
    return generated("run(x, t_start, t_end, dt, steps, every, times, rows)", body, dict(names, isfinite=math.isfinite),
                     f"<rk4 loop over shape {shape}>")


def integrate(
    rhs: Callable,
    x0,
    t0: float,
    t1: float,
    dt: float,
    record_every: int = 1,
    n: Optional[int] = None,
) -> Trajectory:
    """Classical fixed-step RK4 from t0 to t1, over one state, all steps in one generated loop (``rk4_loop``).

    x0 is a float, or a 1-D sequence of d >= 1 floats (a tuple, a list or a 1-D array), integrated as a
    tuple of floats; a float is the loop's one-component case.  rhs(x, t) -> dx/dt returns a float for a
    float state and exactly d components for a tuple, or the first step raises ValueError, as does a
    TypeError from the loop when rhs at the start raises one too or returns another shape than x0's.
    n, the number of leading state columns holding the controller input, defaults to d and must be d or
    d - 1, checked before the first step.  Samples are recorded every ``record_every`` steps and at both ends,
    into two flat ``array('d')`` buffers that the Trajectory keeps without a copy: 8 (d + 1) bytes per
    recorded row.  A non-finite state, or an OverflowError/FloatingPointError raised by rhs, aborts with
    IntegrationDiverged carrying the trajectory recorded so far, kept the same way.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError(f"t1 = {t1} must exceed t0 = {t0}")
    if not (math.isfinite(dt) and dt > 0.0):
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

    shape = _shape(x0)
    if len(shape) > 1 or shape == (0,):
        raise ValueError(f"integrate takes one state, a float or a 1-D sequence of 1 or more, got shape {shape}")
    x = tuple(map(float, x0)) if shape else float(x0)
    rows = array("d", x if shape else (x,))
    width = len(rows)
    n = width if n is None else n
    _check_width(n, width)

    times = array("d", (t0,))
    try:
        stop = rk4_loop(rhs, shape)(x, t0, t1, dt, step_count(t0, t1, dt), record_every, times, rows)
    except TypeError as error:  # diagnosed by one rhs call at the start
        try:
            rates = rhs(x, t0)
        except TypeError as e:
            raise ValueError(f"rhs cannot take a start of shape {shape}: {e}") from e
        if _shape(rates) != shape:
            raise ValueError(f"rhs returns rates of shape {_shape(rates)} for a start of shape {shape}") from error
        raise
    recorded = Trajectory(times, rows, n)
    if stop is None:
        return recorded
    message, error = stop
    raise IntegrationDiverged(message, t_last=times[-1], trajectory=recorded) from error


@dataclass(frozen=True)
class Lemma1Params:
    """Parameters of the comparison ODE dV/dt = -eps1 (1+beta t)^(-p) V^q + eps2 (1+beta t)^(-1) V, V(0) = v0."""

    beta: float
    eps1: float
    eps2: float
    p: float
    q: float
    v0: float

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0.0 for x in (self.beta, self.eps1, self.eps2)):
            raise ValueError("beta, eps1, eps2 must all be positive")
        if not (math.isfinite(self.p) and self.p < 1.0):
            raise ValueError(f"p < 1 required, got {self.p}")
        if not (math.isfinite(self.q) and self.q > 1.0):
            raise ValueError(f"q > 1 required, got {self.q}")
        if not (math.isfinite(self.v0) and self.v0 > 0.0):
            raise ValueError(f"v0 > 0 required, got {self.v0}")
        if not (math.isfinite(self.eps3) and self.eps3 > 0.0):
            raise ValueError(
                f"derived eps3 = eps1 (q-1)/beta / (eps2 (q-1)/beta + 1 - p) = {self.eps3} must be finite and positive"
            )

    @property
    def eps3(self) -> float:
        num = self.eps1 * (self.q - 1.0) / self.beta
        den = self.eps2 * (self.q - 1.0) / self.beta + 1.0 - self.p
        return num / den


def lemma1_rhs(p: Lemma1Params, V: float, t: float) -> float:
    """Right-hand side of the comparison ODE; valid for V >= 0, t >= 0."""
    if V < 0.0:
        raise ValueError(f"V must be nonnegative, got {V}")
    s = 1.0 + p.beta * t
    return -p.eps1 * s ** (-p.p) * V**p.q + p.eps2 * V / s


def lemma1_solution(p: Lemma1Params, t: float) -> float:
    """Closed-form solution of the comparison ODE at t >= 0.

    V(t) = [ s^c / (v0^(1-q) + eps3 (s^(c+1-p) - 1)) ]^(1/(q-1)),  s = 1 + beta t, c = eps2 (q-1) / beta.
    It is evaluated with s^(c+1-p) divided out of the fraction, as [ s^(p-1) / (eps3 + (v0^(1-q) - eps3)
    s^(p-1-c)) ]^(1/(q-1)): both powers of s are then at most 1, where s^c alone overflows at large c
    while V stays in range.  FloatingPointError, naming t, where the denominator is not positive or s or
    V leaves double range.
    """
    s = 1.0 + p.beta * t
    c = p.eps2 * (p.q - 1.0) / p.beta
    try:
        denom = p.eps3 + (p.v0 ** (1.0 - p.q) - p.eps3) * s ** (p.p - 1.0 - c)
        if denom <= 0.0:
            raise FloatingPointError(f"closed-form denominator {denom:g} <= 0 at t = {t:g}")
        V = (s ** (p.p - 1.0) / denom) ** (1.0 / (p.q - 1.0))
    except OverflowError:
        V = math.inf
    if not (math.isfinite(s) and math.isfinite(V)):
        raise FloatingPointError(f"closed form left double range at t = {t:g} (s = 1 + beta t = {s:g}, c = {c:g})")
    return V
