"""Command-line experiment runner.

Verbs:
    run <config>...   integrate each closed loop in turn, write CSV/SVG artifacts,
                      fit rates; stops at the first config that does not exit 0
    sweep <config>    run the practical-stability probe over its omega grid
    lemma-check ...   compare the comparison-ODE closed form against RK4

Configs are file paths or bundled names (see ueslab/configs/).  The env var
UESLAB_OUT overrides the output directory.  Every artifact (the trajectory CSV,
fits.csv, the SVG and probe.csv) is written to <file>.part, which replaces <file> once complete.
Exit codes: 0 ok, 2 config error (also an output directory or artifact that cannot be written), 3 numeric
failure (for sweep, also a probe in which every trial diverged) or a probe worker that died.  A verb
refuses an input by raising: each number is checked once, by the object that owns it (a config key at
load, a ``lemma-check`` flag by ``Lemma1Params`` or the verb's step-grid check), and ``main`` alone
turns a ``ConfigError`` into exit 2 and a numeric error into exit 3, with one line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from array import array
from importlib import resources
from pathlib import Path
from typing import Iterable, List, Optional

from .analysis import fit_averaging_order, fit_exp_rate, fit_power_rate, fit_report_csv, oscillation_amplitude
from .averaging import practical_stability_probe, probe_rows_csv
from .config import MAX_STEPS, ExperimentConfig, config_from_text, load_config
from .controllers import es_closed_loop
from .errors import ConfigError, IntegrationDiverged, WindowTooLate, WorkerLost
from .schedules import ASYMPTOTIC, NOMINAL
from .sim import Lemma1Params, Trajectory, integrate, lemma1_rhs, lemma1_solution
from .svgplot import line_plot, line_plot_blocks  # noqa: F401 line_plot: the benchmark's tracer patches cli.line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

LEMMA_TOL = 1e-6


def bundled_config_names() -> List[str]:
    root = resources.files("ueslab").joinpath("configs")
    return sorted(path.name[: -len(".conf")] for path in root.iterdir() if path.name.endswith(".conf"))


def resolve_config(arg: str) -> ExperimentConfig:
    path = Path(arg)
    if path.is_file():
        return load_config(path)
    name = arg[: -len(".conf")] if arg.endswith(".conf") else arg
    res = resources.files("ueslab").joinpath("configs", f"{name}.conf")
    if res.is_file():
        return config_from_text(res.read_text(encoding="utf-8"), name=name, source=f"bundled:{name}")
    raise ConfigError(f"no config file '{arg}' and no bundled config '{name}'; bundled: {', '.join(bundled_config_names())}")


def _out_dir(cfg: ExperimentConfig) -> Path:
    key = "UESLAB_OUT" if os.environ.get("UESLAB_OUT") else "out.dir"
    out = Path(os.environ.get("UESLAB_OUT") or cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"{key} = '{out}' cannot be made the output directory ({type(e).__name__}: {e})") from e
    return out


def _write_streamed(path: Path, blocks: Iterable[str]) -> None:
    """Write the text blocks to a sibling ``<file>.part`` and move it onto path once complete, so an interrupted
    write leaves no truncated file under path, and an earlier one there as it was.  The cleanup of the part
    never replaces the error that stopped the write; an OSError becomes the ConfigError naming the artifact."""
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", encoding="utf-8") as f:
            f.writelines(blocks)
        os.replace(part, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            part.unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise ConfigError(f"artifact '{path}' cannot be written ({type(e).__name__}: {e})") from e
        raise


def _write_run_artifacts(cfg: ExperimentConfig, out: Path, traj: Trajectory, fits) -> None:
    _write_streamed(out / f"{cfg.name}.trajectory.csv", traj.csv_blocks())
    _write_streamed(out / f"{cfg.name}.fits.csv", [fit_report_csv(fits)])
    series = [(traj.times, traj.column(i), f"theta_{i + 1}") for i in range(traj.n)] + [(traj.times, traj.y, "y")]
    _write_streamed(out / f"{cfg.name}.svg", line_plot_blocks(series, cfg.name))


def measured(traj: Trajectory, map_) -> Trajectory:
    """traj, its y column set to the cost at each recorded theta: evaluated on Python floats into a flat
    ``array('d')``, one recorded row at a time."""
    traj.y = array("d", map(map_.eval, zip(*[traj.column(j) for j in range(traj.n)])))
    return traj


def cmd_run(args) -> int:
    for arg in args.configs:
        code = _run_one(resolve_config(arg))
        if code != EXIT_OK:
            return code
    return EXIT_OK


def deployed_run(cfg: ExperimentConfig) -> Trajectory:
    """cfg's deployed loop integrated from (theta0, eta0) at the schedule's t0 over cfg.horizon, with cfg.dt and
    cfg.record_every, and measured: the trajectory with its y column.  A run that diverges raises
    IntegrationDiverged, whose partial trajectory carries its y column too."""
    t0 = cfg.params.schedule.t0
    rhs = es_closed_loop(cfg.params, cfg.map)
    x0 = (*cfg.theta0, cfg.eta0)
    try:
        return measured(integrate(rhs, x0, t0, t0 + cfg.horizon, cfg.dt, cfg.record_every, n=cfg.params.n), cfg.map)
    except IntegrationDiverged as e:
        e.trajectory = measured(e.trajectory, cfg.map)
        raise


def _run_one(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    p, map_ = cfg.params, cfg.map
    t0 = p.schedule.t0
    try:
        traj = deployed_run(cfg)
    except IntegrationDiverged as e:
        _write_run_artifacts(cfg, out, e.trajectory, [])
        print(f"{cfg.name}: integration diverged at t = {e.t_last:g}; partial artifacts in {out}", file=sys.stderr)
        return EXIT_NUMERIC

    gap = math.hypot(*(traj.column(j)[-1] - s for j, s in enumerate(map_.optimum)))
    bits = [f"{cfg.name}:", f"final |theta - theta*| = {gap:.6g};"]

    fits = []
    if p.schedule.kind != NOMINAL:
        try:
            if p.schedule.kind == ASYMPTOTIC:
                fit = fit_power_rate(traj, map_.optimum, p.schedule.beta, t0, cfg.fit_window)
                label, design = "power-law exponent", 1.0 / p.schedule.v
            else:
                fit = fit_exp_rate(traj, map_.optimum, cfg.fit_window)
                label, design = "exponential rate", p.schedule.lam
            bits.append(f"{label} = {fit.estimate:.4g} (design {design:.4g}; residual {fit.residual:.3g});")
            fits.append(fit)
        except WindowTooLate as e:
            bits.append(f"rate fit skipped ({e});")
    else:
        try:
            _, amp = oscillation_amplitude(traj, cfg.tail_fraction)
            bits.append(f"tail oscillation amplitude = {amp:.4g};")
        except ValueError as e:
            bits.append(f"tail oscillation amplitude skipped ({e});")

    _write_run_artifacts(cfg, out, traj, fits)
    bits.append(f"artifacts in {out}")
    print(" ".join(bits))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = resolve_config(args.config)
    if cfg.probe is None:
        raise ConfigError(f"config '{cfg.name}' has no probe.* settings; sweep needs probe.omegas, "
                          "probe.epsilon, probe.delta, probe.horizon, probe.trials")
    out = _out_dir(cfg)
    rows = practical_stability_probe(cfg.params, cfg.map, cfg.probe)
    _write_streamed(out / f"{cfg.name}.probe.csv", [probe_rows_csv(rows)])
    worst = {}
    for row in rows:
        worst[row.omega] = max(worst.get(row.omega, 0.0), row.sup_gap)
    gaps = ", ".join(f"omega={w:g}: worst sup_gap {g:.4g}" for w, g in sorted(worst.items()))
    order = fit_averaging_order(list(worst), list(worst.values()))
    fitted = ("averaging order undefined (needs two omegas with finite, positive worst sup_gap)" if order is None
              else f"fitted averaging order {order:.4g} (worst sup_gap ~ omega^-order)")
    print(f"{cfg.name}: probe wrote {len(rows)} rows ({gaps}); {fitted}; artifacts in {out}")
    if not any(math.isfinite(row.sup_gap) for row in rows):
        print(f"{cfg.name}: every trial diverged in its full-loop or averaged run; no sup_gap is finite", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    values = {flag: getattr(args, flag) for flag in ("beta", "eps1", "eps2", "p", "q", "v0")}
    try:
        params = Lemma1Params(**values)
    except ValueError as e:
        given = ", ".join(f"--{flag} {value}" for flag, value in values.items())
        raise ConfigError(f"{e}; given {given}") from None
    if not (math.isfinite(args.t1) and math.isfinite(args.dt) and args.t1 > 0.0 and args.dt > 0.0
            and args.t1 / args.dt <= MAX_STEPS):
        raise ConfigError(f"need --t1 > 0, --dt > 0 and at most {MAX_STEPS:g} RK4 steps, "
                          f"got --t1 = {args.t1}, --dt = {args.dt}")
    try:
        traj = integrate(lambda V, t: lemma1_rhs(params, V, t), params.v0, 0.0, args.t1, args.dt)
    except ValueError as e:  # from lemma1_rhs: a stage left the domain V >= 0
        raise FloatingPointError(f"{e}; --dt = {args.dt:g} is too coarse") from None
    exact = (lemma1_solution(params, t) for t in traj.times)
    rel = max(abs(v - e) / e for v, e in zip(traj.rows, exact))
    verdict = "ok" if rel < LEMMA_TOL else "FAIL"
    print(f"comparison-ODE check: max relative error {rel:.3e} on [0, {args.t1:g}] with dt = {args.dt:g} ({verdict})")
    return EXIT_OK if rel < LEMMA_TOL else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ueslab", description="Extremum-seeking simulation lab")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="integrate closed-loop experiments in order and write artifacts")
    p_run.add_argument("configs", nargs="+", metavar="config", help="config file path or bundled config name")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the practical-stability probe over its omega grid")
    p_sweep.add_argument("config", help="config file path or bundled config name")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lemma = sub.add_parser("lemma-check", help="compare the comparison-ODE closed form against RK4")
    for flag in ("--beta", "--eps1", "--eps2", "--p", "--q", "--v0"):
        p_lemma.add_argument(flag, type=float, required=True)
    p_lemma.add_argument("--t1", type=float, default=100.0, help="end time (default 100)")
    p_lemma.add_argument("--dt", type=float, default=1e-3, help="integration step (default 1e-3)")
    p_lemma.set_defaults(func=cmd_lemma_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationDiverged, ArithmeticError) as e:  # a float's overflow, range or zero-division error
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except WorkerLost as e:
        print(f"probe failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
