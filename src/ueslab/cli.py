"""Command-line experiment runner.

Verbs:
    run <config>...   integrate each closed loop in turn, write CSV/SVG artifacts,
                      fit rates; stops at the first config that does not exit 0
    sweep <config>    run the practical-stability probe over its omega grid
    lemma-check ...   compare the comparison-ODE closed form against RK4

Configs are file paths or bundled names (see ueslab/configs/).  The env var
UESLAB_OUT overrides the output directory.  The trajectory CSV and the SVG are
written piece by piece to <file>.part, which replaces <file> once complete.
Exit codes: 0 ok, 2 config error, 3 numeric failure or a probe worker that died.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from array import array
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Iterable, List, Optional

import numpy as np

from .analysis import fit_averaging_order, fit_exp_rate, fit_power_rate, fit_report_csv, oscillation_amplitude
from .averaging import practical_stability_probe, probe_rows_csv
from .config import MAX_STEPS, ExperimentConfig, config_from_text, default_fit_window, load_config
from .controllers import es_closed_loop
from .errors import AssemblyError, ConfigError, IntegrationDiverged, WindowTooLate, WorkerLost
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
    if path.exists():
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
    write leaves no truncated file under path, and an earlier one there as it was."""
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", encoding="utf-8") as f:
            f.writelines(blocks)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    os.replace(part, path)


def _write_run_artifacts(cfg: ExperimentConfig, out: Path, traj: Trajectory, fits) -> None:
    _write_streamed(out / f"{cfg.name}.trajectory.csv", traj.csv_blocks())
    (out / f"{cfg.name}.fits.csv").write_text(fit_report_csv(fits), encoding="utf-8")
    series = [(traj.times, traj.theta[:, i], f"theta_{i + 1}") for i in range(traj.n)]
    if traj.y is not None:
        series.append((traj.times, traj.y, "y"))
    _write_streamed(out / f"{cfg.name}.svg", line_plot_blocks(series, cfg.name))


def measured(traj: Trajectory, map_) -> Trajectory:
    """traj with its y column: the cost at each recorded theta, evaluated on Python floats (numpy's array **
    can round differently) into a flat float buffer, one recorded row at a time."""
    columns = map(memoryview, traj.theta.T)
    return replace(traj, y=np.frombuffer(array("d", map(map_.eval, zip(*columns)))))


def cmd_run(args) -> int:
    for arg in args.configs:
        code = _run_one(resolve_config(arg))
        if code != EXIT_OK:
            return code
    return EXIT_OK


def _run_one(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    p, map_ = cfg.params, cfg.map
    t0 = p.schedule.t0
    rhs = es_closed_loop(p, map_)
    x0 = (*cfg.theta0.tolist(), cfg.eta0)

    try:
        traj = measured(integrate(rhs, x0, t0, t0 + cfg.horizon, cfg.dt, cfg.record_every, n=p.n), map_)
    except IntegrationDiverged as e:
        _write_run_artifacts(cfg, out, measured(e.trajectory, map_), [])
        print(f"{cfg.name}: integration diverged at t = {e.t_last:g}; partial artifacts in {out}", file=sys.stderr)
        return EXIT_NUMERIC

    bits = [f"{cfg.name}:"]
    if map_.optimum is not None:
        gap = float(np.linalg.norm(traj.theta[-1] - map_.optimum))
        bits.append(f"final |theta - theta*| = {gap:.6g};")

    fits = []
    if map_.optimum is not None and p.schedule.kind != NOMINAL:
        window = cfg.fit_window or default_fit_window(t0, cfg.horizon)
        try:
            if p.schedule.kind == ASYMPTOTIC:
                fit = fit_power_rate(traj, map_.optimum, p.schedule.beta, t0, window)
                label, design = "power-law exponent", 1.0 / p.schedule.v
            else:
                fit = fit_exp_rate(traj, map_.optimum, window)
                label, design = "exponential rate", p.schedule.lam
            bits.append(f"{label} = {fit.estimate:.4g} (design {design:.4g}; residual {fit.residual:.3g});")
            fits.append(fit)
        except WindowTooLate as e:
            bits.append(f"rate fit skipped ({e});")
    elif p.schedule.kind == NOMINAL:
        try:
            _, amp = oscillation_amplitude(traj, cfg.tail_fraction)
            bits.append(f"tail oscillation amplitude = {amp:.4g};")
        except ValueError:
            pass

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
    (out / f"{cfg.name}.probe.csv").write_text(probe_rows_csv(rows), encoding="utf-8")
    worst = {}
    for row in rows:
        worst[row.omega] = max(worst.get(row.omega, 0.0), row.sup_gap)
    gaps = ", ".join(f"omega={w:g}: worst sup_gap {g:.4g}" for w, g in sorted(worst.items()))
    order = fit_averaging_order(list(worst), list(worst.values()))
    fitted = ("averaging order undefined (needs two omegas with finite, positive worst sup_gap)" if order is None
              else f"fitted averaging order {order:.4g} (worst sup_gap ~ omega^-order)")
    print(f"{cfg.name}: probe wrote {len(rows)} rows ({gaps}); {fitted}; artifacts in {out}")
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    for flag in ("beta", "eps1", "eps2", "p", "q", "v0", "t1", "dt"):
        if not math.isfinite(getattr(args, flag)):
            print(f"config error: --{flag} must be finite, got {getattr(args, flag)}", file=sys.stderr)
            return EXIT_CONFIG
    values = {flag: getattr(args, flag) for flag in ("beta", "eps1", "eps2", "p", "q", "v0")}
    try:
        params = Lemma1Params(**values)
    except ValueError as e:
        given = ", ".join(f"--{flag} {value}" for flag, value in values.items())
        print(f"config error: {e}; given {given}", file=sys.stderr)
        return EXIT_CONFIG
    if args.t1 <= 0.0 or args.dt <= 0.0 or args.t1 / args.dt > MAX_STEPS:
        print(f"config error: need --t1 > 0, --dt > 0 and at most {MAX_STEPS:g} RK4 steps, "
              f"got --t1 = {args.t1}, --dt = {args.dt}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        traj = integrate(lambda V, t: lemma1_rhs(params, V, t), params.v0, 0.0, args.t1, args.dt)
    except ValueError as e:  # from lemma1_rhs: a stage left the domain V >= 0
        print(f"numeric failure: {e}; --dt = {args.dt:g} is too coarse", file=sys.stderr)
        return EXIT_NUMERIC
    numeric = traj.states[:, 0]
    exact = np.array([lemma1_solution(params, t) for t in traj.times])
    rel = float(np.max(np.abs(numeric - exact) / exact))
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
        # a diverging state is reported once, as exit 3, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ConfigError, AssemblyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationDiverged, FloatingPointError, OverflowError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except WorkerLost as e:
        print(f"probe failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
