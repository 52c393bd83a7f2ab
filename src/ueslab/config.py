"""Experiment configuration: a flat `section.key = value` text format.

Zero-dependency on purpose: one assignment per line, `#` starts a comment,
lists are comma-separated. The format is diff-friendly so configs double as
experiment provenance.  Loading re-checks every module-level invariant, so a
config that loads is a config that runs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .analysis import MIN_WINDOW_SAMPLES, check_window
from .averaging import ProbeConfig, require_averageable
from .controllers import EsParams, assemble
from .errors import AssemblyError, CapabilityError, ConfigError
from .maps import CostMap, named_map
from .schedules import ASYMPTOTIC, EXPONENTIAL, NOMINAL, Schedule
from .sim import STEPS_PER_PERIOD, dither_step_bound, step_count

Array = np.ndarray

# most RK4 steps a config may ask of one integration, so that every config that loads also ends
MAX_STEPS = 10**7
# largest ulp of the end time t0 + horizon, as a fraction of the step, so that the step still resolves there
MAX_ULP_PER_STEP = 1e-6

_REQUIRED = object()


def parse_kv_text(text: str, source: str = "<config>") -> dict:
    """Raw key -> value-string mapping; duplicate or malformed lines are errors."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value', got '{raw.strip()}'")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or "." not in key:
            raise ConfigError(f"{source}:{lineno}: key '{key}' must look like 'section.key'")
        if key in data:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        if not val:
            raise ConfigError(f"{source}:{lineno}: key '{key}' has no value")
        data[key] = val
    return data


class _Reader:
    """Typed, consumption-tracking view over the raw key/value dict."""

    def __init__(self, data: dict, source: str):
        self.data = data
        self.source = source
        self.seen = set()

    def _raw(self, key: str, default):
        self.seen.add(key)
        if key in self.data:
            return self.data[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.source}: missing required key '{key}'")
        return None

    def has(self, key: str) -> bool:
        return key in self.data

    def str_(self, key: str, default=_REQUIRED):
        raw = self._raw(key, default)
        return default if raw is None else raw

    def float_(self, key: str, default=_REQUIRED):
        raw = self._raw(key, default)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{self.source}: key '{key}': '{raw}' is not a number") from None
        if not math.isfinite(value):
            raise ConfigError(f"{self.source}: key '{key}': '{raw}' is not a finite number")
        return value

    def int_(self, key: str, default=_REQUIRED):
        raw = self._raw(key, default)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.source}: key '{key}': '{raw}' is not an integer") from None

    def list_(self, key: str, default=_REQUIRED):
        raw = self._raw(key, default)
        if raw is None:
            return default
        try:
            values = [float(part) for part in raw.split(",")]
        except ValueError:
            raise ConfigError(f"{self.source}: key '{key}': '{raw}' is not a comma-separated number list") from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{self.source}: key '{key}': '{raw}' holds a non-finite number")
        return values

    def reject_unknown(self):
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ConfigError(f"{self.source}: unknown key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment: everything the CLI verbs need to run."""

    name: str
    map: CostMap
    params: EsParams
    theta0: Array
    eta0: float
    dt: float
    horizon: float
    record_every: int
    fit_window: Optional[Tuple[float, float]]
    tail_fraction: float
    probe: Optional[ProbeConfig]
    out_dir: str


def _build_schedule(r: _Reader) -> Schedule:
    kind = r.str_("schedule.kind")
    t0 = r.float_("schedule.t0", 0.0)
    try:
        if kind == NOMINAL:
            return Schedule.nominal(t0=t0)
        if kind == ASYMPTOTIC:
            return Schedule.asymptotic(
                beta=r.float_("schedule.beta"), v=r.float_("schedule.v"), r=r.float_("schedule.r"), t0=t0
            )
        if kind == EXPONENTIAL:
            return Schedule.exponential(lam=r.float_("schedule.lambda"), t0=t0)
    except ValueError as e:
        raise ConfigError(f"{r.source}: schedule.*: {e}") from None
    raise ConfigError(f"{r.source}: schedule.kind must be nominal, asymptotic, or exponential, got '{kind}'")


def _build_map(r: _Reader) -> CostMap:
    name = r.str_("map.name")
    kwargs = {}
    if name == "quadratic":
        q = r.list_("map.q", None)
        star = r.list_("map.theta_star", None)
        if q is not None:
            kwargs["q"] = q
        if star is not None:
            kwargs["theta_star"] = star
    else:
        for key in ("map.q", "map.theta_star"):
            if r.has(key):
                raise ConfigError(f"{r.source}: key '{key}' only applies to the quadratic map")
    try:
        return named_map(name, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{r.source}: map.*: {e}") from None


def _build_probe(r: _Reader) -> Optional[ProbeConfig]:
    group = ("probe.omegas", "probe.epsilon", "probe.delta", "probe.horizon", "probe.trials", "probe.seed")
    if not any(r.has(key) for key in group):
        return None
    try:
        return ProbeConfig(
            omega_values=tuple(r.list_("probe.omegas")),
            epsilon=r.float_("probe.epsilon"),
            delta=r.float_("probe.delta"),
            horizon=r.float_("probe.horizon"),
            trials=r.int_("probe.trials"),
            seed=r.int_("probe.seed", 0),
        )
    except ValueError as e:
        raise ConfigError(f"{r.source}: probe.*: {e}") from None


def _check_time_grid(r: _Reader, key: str, t0: float, horizon: float, dt: float) -> None:
    """Refuse a horizon that needs more than MAX_STEPS steps of dt, a start time so large that one ulp of
    t0 + horizon exceeds MAX_ULP_PER_STEP * dt and the steps no longer resolve, or a horizon that t0 + horizon
    rounds away."""
    steps = horizon / dt
    if steps > MAX_STEPS:
        raise ConfigError(
            f"{r.source}: {key} = {horizon:g} needs {steps:.3g} RK4 steps of dt = {dt:g}; at most {MAX_STEPS:g} are allowed"
        )
    ulp = math.ulp(t0 + horizon)
    if ulp > MAX_ULP_PER_STEP * dt:
        raise ConfigError(
            f"{r.source}: schedule.t0 = {t0:g} is too large for steps of dt = {dt:g}: one ulp of t0 + {key} "
            f"is {ulp:g}, more than {MAX_ULP_PER_STEP:g} dt"
        )
    if t0 + horizon == t0:
        raise ConfigError(f"{r.source}: {key} = {horizon:g} is too short to move schedule.t0 = {t0:g} in double precision")


def default_fit_window(t0: float, horizon: float) -> Tuple[float, float]:
    """The rate-fit window of a config without analysis.fit_window: the run's last 90%."""
    return (t0 + 0.1 * horizon, t0 + horizon)


def _check_fit_window(r: _Reader, window, t0: float, horizon: float, dt: float, every: int) -> None:
    """Refuse a fit window, the given one or (None) the default, outside the run, or holding fewer samples
    than the rate fit needs on integrate's grid."""
    key = "analysis.fit_window" if window else "the default analysis.fit_window"
    window, t1 = window or default_fit_window(t0, horizon), t0 + horizon
    try:
        check_window(window, t0, t1)
    except ValueError as e:
        raise ConfigError(f"{r.source}: {key}: {e}") from None
    count = (step_count(t0, t1, dt) - 1) // every + 2
    time = lambda j: t1 if j == count - 1 else t0 + (j * every) * dt
    held = bisect.bisect_right(range(count), window[1], key=time) - bisect.bisect_left(range(count), window[0], key=time)
    if held < MIN_WINDOW_SAMPLES:
        raise ConfigError(f"{r.source}: {key} = {window[0]:g}, {window[1]:g} holds {held} recorded sample(s), "
                          f"one every {every} step(s) of dt = {dt:g}; the rate fit needs {MIN_WINDOW_SAMPLES}")


def config_from_text(text: str, name: str, source: str = "<config>") -> ExperimentConfig:
    r = _Reader(parse_kv_text(text, source), source)

    map_ = _build_map(r)
    schedule = _build_schedule(r)

    alpha = r.list_("es.alpha", [1.0])
    k = r.list_("es.k", _REQUIRED)
    omega = r.float_("es.omega")
    omega_h = r.float_("es.omega_h")
    omega_hat = r.list_("es.omega_hat", None)
    try:
        params = assemble(
            map_, schedule,
            alpha=alpha[0] if len(alpha) == 1 else alpha,
            k=k[0] if len(k) == 1 else k,
            omega=omega, omega_h=omega_h, omega_hat=omega_hat,
        )
    except AssemblyError as e:
        raise ConfigError(f"{r.source}: es.*: {e}") from None

    theta0 = np.asarray(r.list_("es.theta0", [0.0] * map_.dim), dtype=float)
    if theta0.shape != (map_.dim,):
        raise ConfigError(f"{r.source}: es.theta0 must list {map_.dim} value(s), got {theta0.size}")
    eta0 = r.float_("es.eta0", 0.0)

    horizon = r.float_("sim.horizon")
    if horizon <= 0.0:
        raise ConfigError(f"{r.source}: sim.horizon must be positive, got {horizon}")
    try:
        schedule.phi(schedule.t0 + horizon)
    except OverflowError as e:
        raise ConfigError(f"{r.source}: sim.horizon = {horizon:g} is too long: {e}") from None
    dt_max = dither_step_bound(float(np.max(params.omegas)))
    dt = r.float_("sim.dt", dt_max)
    if dt <= 0.0 or dt > dt_max * (1.0 + 1e-12):
        raise ConfigError(
            f"{r.source}: sim.dt = {dt:g} must lie in (0, {dt_max:g}] "
            f"({STEPS_PER_PERIOD} steps per fastest dither period)"
        )
    _check_time_grid(r, "sim.horizon", schedule.t0, horizon, dt)
    record_every = r.int_("sim.record_every", 1)
    if record_every < 1:
        raise ConfigError(f"{r.source}: sim.record_every must be >= 1, got {record_every}")

    window = r.list_("analysis.fit_window", None)
    if window is not None:
        if len(window) != 2 or window[1] <= window[0]:
            raise ConfigError(f"{r.source}: analysis.fit_window needs two values 'start, end' with end > start")
        window = (window[0], window[1])
    if window is not None or (schedule.kind != NOMINAL and map_.optimum is not None):  # given, or read by a rate fit
        _check_fit_window(r, window, schedule.t0, horizon, dt, record_every)
    tail_fraction = r.float_("analysis.tail_fraction", 0.2)
    if not (0.0 < tail_fraction <= 1.0):
        raise ConfigError(f"{r.source}: analysis.tail_fraction must lie in (0, 1], got {tail_fraction}")

    probe = _build_probe(r)
    if probe is not None:
        try:
            require_averageable(params, map_)
        except CapabilityError as e:
            raise ConfigError(f"{r.source}: schedule.kind = {schedule.kind} leaves the probe no averaged system: {e}") from None
        fastest = float(np.max(params.with_omega(probe.omega_values[-1]).omegas))
        _check_time_grid(r, "probe.horizon", schedule.t0, probe.horizon, dither_step_bound(fastest))
    out_dir = r.str_("out.dir", "out")
    r.reject_unknown()

    return ExperimentConfig(
        name=name, map=map_, params=params, theta0=theta0, eta0=eta0,
        dt=dt, horizon=horizon, record_every=record_every,
        fit_window=window, tail_fraction=tail_fraction, probe=probe, out_dir=out_dir,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config '{path}': {e.strerror or e}") from None
    return config_from_text(text, name=path.stem, source=str(path))
