"""Experiment configuration: a flat `section.key = value` text format.

Zero-dependency on purpose: one assignment per line, `#` starts a comment,
lists are comma-separated. The format is diff-friendly so configs double as
experiment provenance.  Loading re-checks every module-level invariant, so a
config that loads is a config that runs.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Optional, Tuple

from .analysis import MIN_FIT_LOG_GROWTH, MIN_WINDOW_SAMPLES, check_window, log_growth
from .averaging import ProbeConfig
from .controllers import EsParams, assemble, require_averageable
from .errors import CapabilityError, ConfigError
from .maps import MAPS, CostMap
from .schedules import ASYMPTOTIC, NOMINAL, PARAMETERS, Schedule
from .sim import STEPS_PER_PERIOD, dither_step_bound, step_count

# most RK4 steps a config may ask of one integration, so that every config that loads also ends
MAX_STEPS = 10**7
# most RK4 steps of one sweep, over its trials * (1 + omegas) integrations, which MAX_STEPS alone does not bound:
# it admits four 64-trial sweeps of the bundled omega_sweep (1.04e7 steps) and refuses those that would run for hours
MAX_SWEEP_STEPS = 10 * MAX_STEPS

_REQUIRED = object()
# what _Reader.get refuses a value for not being, by its parse
_NUMBERS = {int: "an integer", float: "a finite number", list: "a comma-separated list of finite numbers"}


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

    def __init__(self, data: dict):
        self.data = data
        self.seen = set()

    def get(self, key: str, parse=str, default=_REQUIRED):
        """The value of key, as given (parse str), or parsed by int, float or list (comma-separated floats);
        every float must be finite.  An absent key gives default, and is refused when there is none."""
        self.seen.add(key)
        if key not in self.data:
            if default is _REQUIRED:
                raise ValueError(f"missing required key '{key}'")
            return default
        raw = self.data[key]
        if parse is str:
            return raw
        number = float if parse is list else parse
        try:
            values = [number(part) for part in (raw.split(",") if parse is list else [raw])]
        except ValueError:
            values = None
        if values is None or (number is float and not all(map(math.isfinite, values))):
            raise ValueError(f"key '{key}': '{raw}' is not {_NUMBERS[parse]}")
        return values if parse is list else values[0]

    def reject_unknown(self):
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ValueError(f"unknown key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment: everything the CLI verbs need to run."""

    name: str
    map: CostMap
    params: EsParams
    theta0: array
    eta0: float
    dt: float
    horizon: float
    record_every: int
    fit_window: Optional[Tuple[float, float]]
    probe: Optional[ProbeConfig]
    out_dir: str
    # the share of a nominal run's end over which `run` reads the oscillation amplitude
    tail_fraction: ClassVar[float] = 0.2


def _build_schedule(r: _Reader) -> Schedule:
    kind = r.get("schedule.kind")
    return Schedule(kind, **{arg: r.get(key, float) for arg, key, _ in PARAMETERS.get(kind, ())})


def _build_map(r: _Reader) -> CostMap:
    name = r.get("map.name")
    if name not in MAPS:
        raise ValueError(f"map.name = '{name}' is not a known map; available: {', '.join(sorted(MAPS))}")
    builder, keys = MAPS[name]
    return builder(**{arg: r.get(key, list) for arg, key in keys if key in r.data})


def _build_probe(r: _Reader) -> Optional[ProbeConfig]:
    group = ("probe.omegas", "probe.epsilon", "probe.delta", "probe.horizon", "probe.trials", "probe.seed")
    if not any(key in r.data for key in group):
        return None
    return ProbeConfig(omega_values=tuple(r.get("probe.omegas", list)), epsilon=r.get("probe.epsilon", float),
                       delta=r.get("probe.delta", float), horizon=r.get("probe.horizon", float),
                       trials=r.get("probe.trials", int), seed=r.get("probe.seed", int, 0))


def _check_time_grid(key: str, schedule: Schedule, horizon: float, dt: float) -> None:
    """Refuse a horizon at whose end the gain phi leaves double range, or one that needs more than MAX_STEPS steps
    of dt.  phi never decreases, so its end value decides."""
    try:
        schedule.phi(schedule.t0 + horizon)
    except OverflowError as e:
        raise ValueError(f"{key} = {horizon:g} is too long: {e}") from None
    steps = horizon / dt
    if steps > MAX_STEPS:
        raise ValueError(f"{key} = {horizon:g} needs {steps:.3g} RK4 steps of dt = {dt:g}; "
                         f"at most {MAX_STEPS:g} are allowed")


def _check_fit_window(window, schedule: Schedule, horizon: float, dt: float, every: int) -> Tuple[float, float]:
    """The fit window, the given one or (None) the default, the run's last 90%; refused unless it is two values
    inside the run holding as many samples on integrate's grid as the rate fit needs, across which, under an
    asymptotic schedule, the power-law fit's regressor grows by at least MIN_FIT_LOG_GROWTH."""
    if window is not None and (len(window) != 2 or window[1] <= window[0]):
        raise ValueError("analysis.fit_window needs two values 'start, end' with end > start")
    key = "analysis.fit_window" if window else "the default analysis.fit_window"
    t0 = schedule.t0
    window, t1 = tuple(window or (t0 + 0.1 * horizon, t0 + horizon)), t0 + horizon
    try:
        check_window(window, t0, t1)
    except ValueError as e:
        raise ValueError(f"{key}: {e}") from None
    count = (step_count(t0, t1, dt) - 1) // every + 2
    time = lambda j: t1 if j == count - 1 else t0 + (j * every) * dt
    start = bisect.bisect_left(range(count), window[0], key=time)
    end = bisect.bisect_right(range(count), window[1], key=time)
    if end - start < MIN_WINDOW_SAMPLES:
        raise ValueError(f"{key} = {window[0]:g}, {window[1]:g} holds {end - start} recorded sample(s), "
                         f"one every {every} step(s) of dt = {dt:g}; the rate fit needs {MIN_WINDOW_SAMPLES}")
    if schedule.kind == ASYMPTOTIC:
        beta = schedule.beta
        growth = log_growth(beta, t0, time(start), time(end - 1))
        if growth < MIN_FIT_LOG_GROWTH:
            raise ValueError(f"schedule.beta = {beta:g} is too small for the power-law fit over {key} = "
                             f"{window[0]:g}, {window[1]:g}: log(1 + beta (t - t0)) grows by {growth:.4g} across "
                             f"its samples, under the {MIN_FIT_LOG_GROWTH:g} below which the schedule is "
                             "effectively nominal and has no power-law rate")
    return window


def config_from_text(text: str, name: str, source: str = "<config>") -> ExperimentConfig:
    """The experiment the text describes; a refused value raises a ConfigError naming source and its key."""
    data = parse_kv_text(text, source)
    try:
        return _experiment(_Reader(data), name)
    except ValueError as e:
        raise ConfigError(f"{source}: {e}") from None


def _experiment(r: _Reader, name: str) -> ExperimentConfig:
    map_ = _build_map(r)
    schedule = _build_schedule(r)
    params = assemble(map_, schedule, alpha=r.get("es.alpha", list, [1.0]), k=r.get("es.k", list),
                      omega=r.get("es.omega", float), omega_h=r.get("es.omega_h", float),
                      omega_hat=r.get("es.omega_hat", list, None))

    theta0 = array("d", r.get("es.theta0", list, [0.0] * map_.dim))
    if len(theta0) != map_.dim:
        raise ValueError(f"es.theta0 must list {map_.dim} value(s), got {len(theta0)}")
    try:  # as `run` measures its cost column, where a float ** out of range raises
        finite = math.isfinite(map_.eval(theta0))
    except OverflowError:
        finite = False
    if not finite:
        given = ", ".join(map(format, theta0))
        raise ValueError(f"es.theta0 = {given} has a cost J(theta0) out of double range")
    eta0 = r.get("es.eta0", float, 0.0)

    horizon = r.get("sim.horizon", float)
    if horizon <= 0.0:
        raise ValueError(f"sim.horizon must be positive, got {horizon}")
    dt_max = dither_step_bound(max(params.omegas))
    dt = r.get("sim.dt", float, dt_max)
    if dt <= 0.0 or dt > dt_max * (1.0 + 1e-12):
        raise ValueError(f"sim.dt = {dt:g} must lie in (0, {dt_max:g}] "
                         f"({STEPS_PER_PERIOD} steps per fastest dither period)")
    _check_time_grid("sim.horizon", schedule, horizon, dt)
    record_every = r.get("sim.record_every", int, 1)
    if record_every < 1:
        raise ValueError(f"sim.record_every must be >= 1, got {record_every}")

    window = r.get("analysis.fit_window", list, None)
    if window is not None or schedule.kind != NOMINAL:  # given, or read by a rate fit
        window = _check_fit_window(window, schedule, horizon, dt, record_every)

    probe = _build_probe(r)
    if probe is not None:
        try:
            require_averageable(params, map_)
        except CapabilityError as e:
            raise ValueError(f"schedule.kind = {schedule.kind} leaves the probe no averaged system: {e}") from None
        dts = [dither_step_bound(max(params.with_omega(w).omegas)) for w in probe.omega_values]
        _check_time_grid("probe.horizon", schedule, probe.horizon, dts[-1])
        # per trial, the averaged run at the smallest omega's step and one full-loop run per omega
        per_trial = sum(step_count(schedule.t0, schedule.t0 + probe.horizon, dt) for dt in [dts[0]] + dts)
        if probe.trials * per_trial > MAX_SWEEP_STEPS:
            raise ValueError(f"probe.trials = {probe.trials} asks the sweep for {probe.trials * per_trial} RK4 steps, "
                             f"{per_trial} per trial; at most {MAX_SWEEP_STEPS} are allowed")
    out_dir = r.get("out.dir", default="out")
    r.reject_unknown()

    return ExperimentConfig(
        name=name, map=map_, params=params, theta0=theta0, eta0=eta0,
        dt=dt, horizon=horizon, record_every=record_every,
        fit_window=window, probe=probe, out_dir=out_dir,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")  # an editor's byte-order mark
    except OSError as e:
        raise ConfigError(f"cannot read config '{path}': {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"cannot read config '{path}': not UTF-8 text ({e.reason} at byte {e.start})") from None
    return config_from_text(text, name=path.stem, source=str(path))
