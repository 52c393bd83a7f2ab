"""The benchmark's workloads: the operations of one pass and their correctness checks.

An operation is one `ueslab run <config>` or one `ueslab sweep <config>`,
driven through `ueslab.cli.main`.  Every operation carries a check that reads
the artifacts it wrote and raises `CheckFailed` when they are wrong; the
checks are plain functions so the self-test can feed them corrupted files.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

PAPER_RUNS = ("fig2_nominal_a", "fig2_nominal_b", "fig3_asymptotic_ues", "exponential_ues")
SWEEP_TRIALS = 3
MULTI_Q = (1.0, 2.0, 3.0, 4.0)
MULTI_LAMBDA = 0.1
MULTI_HORIZON = 20.0
RATE_TOLERANCE = 0.15
FIG3_EXPONENT = 3.0
FIG3_EXPONENT_TOL = 0.6
FIG3_MAX_GAP = 0.05


class CheckFailed(Exception):
    """An operation's artifacts do not show what the paper's claim predicts."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass.

    verb      "run" or "sweep"
    config    bundled config name or path of a generated config file
    name      artifact stem, the config's name
    periods   full-loop dither periods it simulates, sum of horizon * omega_max / 2 pi
    check     reads the artifacts in the output directory; raises CheckFailed
    """

    verb: str
    config: str
    name: str
    periods: float
    check: Callable[[Path, str], None]

    def artifacts(self, out: Path) -> List[Path]:
        suffixes = (".probe.csv",) if self.verb == "sweep" else (".trajectory.csv", ".fits.csv", ".svg")
        return [out / f"{self.name}{suffix}" for suffix in suffixes]


# ---------------------------------------------------------------- artifact readers


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise CheckFailed(f"cannot read {path.name}: {e.strerror or e}") from None


def read_table(path: Path) -> Tuple[List[str], np.ndarray]:
    """Header and (m, c) float body of a CSV artifact; every value must parse."""
    lines = _read(path).splitlines()
    if len(lines) < 2:
        raise CheckFailed(f"{path.name} holds no data rows")
    header = lines[0].split(",")
    try:
        body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as e:
        raise CheckFailed(f"{path.name}: unparsable value ({e})") from None
    if body.ndim != 2 or body.shape[1] != len(header):
        raise CheckFailed(f"{path.name}: rows do not match the {len(header)}-column header")
    return header, body


def trajectory_theta(path: Path, t_end: float) -> np.ndarray:
    """(m, n) theta columns of a trajectory CSV, checked finite with rising times up to t_end."""
    header, body = read_table(path)
    if not np.all(np.isfinite(body)):
        raise CheckFailed(f"{path.name} holds non-finite values")
    if header[0] != "t" or not np.all(np.diff(body[:, 0]) > 0.0):
        raise CheckFailed(f"{path.name}: first column must be strictly increasing t")
    if abs(body[-1, 0] - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise CheckFailed(f"{path.name} ends at t = {body[-1, 0]:.17g}, not at the horizon {t_end:.17g}")
    cols = [j for j, name in enumerate(header) if name.startswith("theta_")]
    if not cols:
        raise CheckFailed(f"{path.name} has no theta columns")
    return body[:, cols]


def fit_estimate(path: Path, model: str) -> float:
    lines = _read(path).splitlines()
    rows = [line.split(",") for line in lines[1:] if line.startswith(model + ",")]
    if len(rows) != 1:
        raise CheckFailed(f"{path.name}: expected one '{model}' fit, found {len(rows)}")
    try:
        value = float(rows[0][1])
    except (IndexError, ValueError):
        raise CheckFailed(f"{path.name}: unparsable '{model}' estimate") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{path.name}: '{model}' estimate is {value}")
    return value


def check_svg(path: Path) -> None:
    try:
        root = ET.fromstring(_read(path))
    except ET.ParseError as e:
        raise CheckFailed(f"{path.name} is not well-formed XML: {e}") from None
    if not root.tag.endswith("svg"):
        raise CheckFailed(f"{path.name}: root element is <{root.tag}>, not <svg>")


# ---------------------------------------------------------------- checks per operation


def nominal_check(t_end: float, tail_fraction: float) -> Callable[[Path, str], None]:
    """fig2: the residual limit cycle has a finite, non-zero tail amplitude."""

    def check(out: Path, name: str) -> None:
        theta = trajectory_theta(out / f"{name}.trajectory.csv", t_end)
        tail = theta[min(len(theta) - math.ceil(len(theta) * tail_fraction), len(theta) - 1):]
        amp = float(np.max(0.5 * (tail.max(axis=0) - tail.min(axis=0))))
        if not (math.isfinite(amp) and amp > 0.0):
            raise CheckFailed(f"{name}: tail oscillation amplitude is {amp}")
        check_svg(out / f"{name}.svg")

    return check


def power_law_check(optimum: float, t_end: float) -> Callable[[Path, str], None]:
    """fig3: the input ends within FIG3_MAX_GAP of the optimum and decays like (1 + beta t)^-3."""

    def check(out: Path, name: str) -> None:
        theta = trajectory_theta(out / f"{name}.trajectory.csv", t_end)
        gap = float(np.linalg.norm(theta[-1] - optimum))
        if not gap < FIG3_MAX_GAP:
            raise CheckFailed(f"{name}: final gap {gap:.4g} is not below {FIG3_MAX_GAP}")
        est = fit_estimate(out / f"{name}.fits.csv", "power_law")
        if abs(est - FIG3_EXPONENT) > FIG3_EXPONENT_TOL:
            raise CheckFailed(
                f"{name}: power-law exponent {est:.4g} outside {FIG3_EXPONENT} +/- {FIG3_EXPONENT_TOL}"
            )
        check_svg(out / f"{name}.svg")

    return check


def exp_rate_check(lam: float, t_end: float) -> Callable[[Path, str], None]:
    """Exponential schedules: the fitted decay rate lies within RATE_TOLERANCE (relative) of lambda."""

    def check(out: Path, name: str) -> None:
        trajectory_theta(out / f"{name}.trajectory.csv", t_end)
        est = fit_estimate(out / f"{name}.fits.csv", "exponential")
        if abs(est - lam) > RATE_TOLERANCE * lam:
            raise CheckFailed(
                f"{name}: exponential rate {est:.4g} not within {RATE_TOLERANCE:.0%} of lambda = {lam}"
            )
        check_svg(out / f"{name}.svg")

    return check


def sweep_check(omegas, trials: int) -> Callable[[Path, str], None]:
    """Probe: every (omega, trial) row is finite and the worst sup_gap shrinks as omega grows."""

    def check(out: Path, name: str) -> None:
        header, body = read_table(out / f"{name}.probe.csv")
        if header != ["omega", "trial", "entry_time", "stayed", "sup_gap"]:
            raise CheckFailed(f"{name}.probe.csv: unexpected header {header}")
        if len(body) != len(omegas) * trials:
            raise CheckFailed(f"{name}.probe.csv: {len(body)} rows, expected {len(omegas) * trials}")
        if not np.all(np.isfinite(body)):
            raise CheckFailed(f"{name}.probe.csv: a row holds a non-finite entry time or sup_gap")
        worst = [float(body[body[:, 0] == w, 4].max()) for w in omegas]
        if not all(a > b for a, b in zip(worst, worst[1:])):
            raise CheckFailed(f"{name}: worst sup_gap {worst} does not shrink over omega {list(omegas)}")

    return check


def sha256_of(paths: List[Path]) -> Dict[str, str]:
    """sha256 of each file, read in chunks so hashing adds little to the process's peak memory."""
    digests = {}
    for p in paths:
        if p.is_file():
            with p.open("rb") as f:
                digests[p.name] = hashlib.file_digest(f, "sha256").hexdigest()
        else:
            digests[p.name] = "missing"
    return digests


# ---------------------------------------------------------------- workload builders


def _periods(cfg) -> float:
    return cfg.horizon * float(np.max(cfg.params.omegas)) / (2.0 * math.pi)


def run_check(cfg) -> Callable[[Path, str], None]:
    """The check for a `run` of cfg, chosen by its schedule kind."""
    schedule = cfg.params.schedule
    t_end = schedule.t0 + cfg.horizon
    if schedule.kind == "nominal":
        return nominal_check(t_end, cfg.tail_fraction)
    if schedule.kind == "asymptotic":
        return power_law_check(float(cfg.map.optimum[0]), t_end)
    return exp_rate_check(schedule.lam, t_end)


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def multichannel_text(seed: int) -> str:
    """4-channel quadratic under an exponential schedule; theta* and theta0 drawn from the seed."""
    rng = np.random.default_rng(seed)
    theta_star = rng.uniform(-1.0, 1.0, len(MULTI_Q))
    theta0 = theta_star + rng.uniform(-1.0, 1.0, len(MULTI_Q))
    return "\n".join([
        "map.name = quadratic",
        f"map.q = {_floats(MULTI_Q)}",
        f"map.theta_star = {_floats(theta_star)}",
        "schedule.kind = exponential",
        f"schedule.lambda = {MULTI_LAMBDA!r}",
        "es.alpha = 1",
        "es.k = 4",
        "es.omega = 50",
        "es.omega_h = 3",
        f"es.theta0 = {_floats(theta0)}",
        f"sim.horizon = {MULTI_HORIZON!r}",
        "sim.record_every = 40",
        f"analysis.fit_window = 5, {MULTI_HORIZON!r}",
        "",
    ])


def sweep_text(bundled: str, seed: int) -> str:
    """The bundled omega_sweep config with more trials and the probe seed taken from the seed."""
    text, n_trials = re.subn(r"(?m)^probe\.trials\s*=.*$", f"probe.trials = {SWEEP_TRIALS}", bundled)
    text, n_seed = re.subn(r"(?m)^probe\.seed\s*=.*$", f"probe.seed = {seed}", text)
    if n_trials != 1 or n_seed != 1:
        raise ValueError("bundled omega_sweep config lacks a probe.trials or probe.seed line")
    return text


def build(workload: str, seed: int, config_dir: Path, cli) -> List[Op]:
    """The operations of one pass, in order; generated configs are written to config_dir."""
    config_dir.mkdir(parents=True, exist_ok=True)
    if workload == "run_paper":
        names = list(PAPER_RUNS)
        random.Random(seed).shuffle(names)
        cfgs = [cli.resolve_config(name) for name in names]
        return [Op("run", name, cfg.name, _periods(cfg), run_check(cfg)) for name, cfg in zip(names, cfgs)]
    if workload == "run_multichannel":
        path = config_dir / "multichannel.conf"
        path.write_text(multichannel_text(seed), encoding="utf-8")
        cfg = cli.resolve_config(str(path))
        return [Op("run", str(path), cfg.name, _periods(cfg), run_check(cfg))]
    if workload == "sweep_probe":
        bundled = resources.files("ueslab").joinpath("configs", "omega_sweep.conf").read_text(encoding="utf-8")
        path = config_dir / "sweep.conf"
        path.write_text(sweep_text(bundled, seed), encoding="utf-8")
        cfg = cli.resolve_config(str(path))
        probe = cfg.probe
        periods = sum(
            probe.trials * probe.horizon * float(np.max(cfg.params.with_omega(w).omegas)) / (2.0 * math.pi)
            for w in probe.omega_values
        )
        return [Op("sweep", str(path), cfg.name, periods, sweep_check(probe.omega_values, probe.trials))]
    raise ValueError(f"unknown workload '{workload}'")
