"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Run from the repository root.  Shows that the correctness checks pass on real
artifacts and fail on corrupted ones or on a wrong expected rate, that a
later pass whose bytes differ from the first is counted as failed, that a
pass is not credited with artifacts an earlier pass left behind, that a
count mismatch between two traced passes is caught, that tracing keeps the
integrator's step-bound check in force, and that the benchmark refuses to
run without the package sources.  Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
import ueslab.cli as cli  # noqa: E402

FIG3 = "fig3_asymptotic_ues"
FIG3_CHECK = wl.run_check(cli.resolve_config(FIG3))


def fails(check, out: Path, name: str) -> bool:
    try:
        check(out, name)
    except wl.CheckFailed:
        return True
    return False


def fresh_copy(src: Path, tag: str) -> Path:
    dst = WORK / tag
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def edit(path: Path, fn) -> None:
    path.write_text(fn(path.read_text(encoding="utf-8")), encoding="utf-8")


def set_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def case_real_artifacts_pass(out: Path) -> None:
    FIG3_CHECK(out, FIG3)


def case_exponent_outside_band_fails(out: Path) -> None:
    fits = out / f"{FIG3}.fits.csv"
    row = next(i for i, line in enumerate(fits.read_text(encoding="utf-8").splitlines()) if line.startswith("power_law,"))
    for sign in (1, -1):
        d = fresh_copy(out, "exponent")
        estimate = wl.FIG3_EXPONENT + sign * (wl.FIG3_EXPONENT_TOL + 0.01)
        edit(d / fits.name, lambda s: set_cell(s, row, 1, repr(estimate)))
        assert fails(FIG3_CHECK, d, FIG3), f"power-law exponent {estimate} accepted"


def case_corrupted_artifacts_fail(out: Path) -> None:
    corruptions = {
        "truncated trajectory row": (".trajectory.csv", lambda s: s[: len(s) // 2]),
        "nan in trajectory": (".trajectory.csv", lambda s: set_cell(s, 5, 1, "nan")),
        "final state moved": (".trajectory.csv", lambda s: set_cell(s, -1, 1, "7")),
        "time not increasing": (".trajectory.csv", lambda s: set_cell(s, 5, 0, "0")),
        "truncated svg": (".svg", lambda s: s[: len(s) // 2]),
    }
    for what, (suffix, fn) in corruptions.items():
        bad = fresh_copy(out, "corrupt")
        edit(bad / f"{FIG3}{suffix}", fn)
        assert fails(FIG3_CHECK, bad, FIG3), f"check passed with a corrupted artifact ({what})"
    bad = fresh_copy(out, "corrupt")
    (bad / f"{FIG3}.trajectory.csv").unlink()
    assert fails(FIG3_CHECK, bad, FIG3), "check passed with a missing trajectory"


def case_rate_check(out: Path) -> None:
    d = fresh_copy(out, "rate")
    (d / f"{FIG3}.fits.csv").write_text(
        "model,estimate,residual,window_start,window_end\nexponential,0.1,0.01,5,60\n", encoding="utf-8"
    )
    wl.exp_rate_check(0.1, 100.0)(d, FIG3)
    assert fails(wl.exp_rate_check(0.2, 100.0), d, FIG3), "rate 0.1 accepted against lambda = 0.2"
    edit(d / f"{FIG3}.fits.csv", lambda s: s.replace("exponential,0.1,", "exponential,0.12,"))
    assert fails(wl.exp_rate_check(0.1, 100.0), d, FIG3), "rate 0.12 accepted within 15% of 0.1"


def case_sweep_check() -> None:
    d = WORK / "sweep"
    d.mkdir(parents=True, exist_ok=True)
    check = wl.sweep_check((10.0, 50.0), 2)
    header = "omega,trial,entry_time,stayed,sup_gap\n"
    good = "10,0,0,1,0.04\n10,1,3.7,1,0.02\n50,0,0,1,0.01\n50,1,3.8,1,0.005\n"
    (d / "s.probe.csv").write_text(header + good, encoding="utf-8")
    check(d, "s")
    for what, rows in {
        "diverged row": good.replace("0.005", "inf"),
        "never entered": good.replace("3.8", "inf"),
        "gap not shrinking": good.replace("0.01\n", "0.05\n"),
        "missing row": good.rsplit("50,1", 1)[0],
    }.items():
        (d / "s.probe.csv").write_text(header + rows, encoding="utf-8")
        assert fails(check, d, "s"), f"sweep check passed with a {what}"


def case_changed_bytes_count_as_failed(out: Path) -> None:
    d = fresh_copy(out, "ledger")
    op = wl.Op("run", FIG3, FIG3, 1.0, FIG3_CHECK)
    ledger = run.Ledger(WORK / "kept-ledger")
    ledger.record([op], [None], d)
    ledger.record([op], [None], d)
    edit(d / f"{FIG3}.svg", lambda s: s.replace("<svg", "<svg data-x='1'", 1))
    ledger.record([op], [None], d)
    ledger.record([op], ["exit 3"], d)
    shutil.rmtree(d)  # the checks read the kept copy of the first pass
    ledger.verify([op])
    assert (ledger.attempted, ledger.failed) == (4, 2), ledger.failures


def case_failed_check_fails_every_pass(out: Path) -> None:
    d = fresh_copy(out, "ledger-bad")
    edit(d / f"{FIG3}.trajectory.csv", lambda s: set_cell(s, 5, 1, "nan"))
    op = wl.Op("run", FIG3, FIG3, 1.0, FIG3_CHECK)
    ledger = run.Ledger(WORK / "kept-ledger-bad")
    for _ in range(3):
        ledger.record([op], [None], d)
    assert ledger.failed == 0, "artifacts were checked while passes ran"
    ledger.verify([op])
    assert (ledger.attempted, ledger.failed) == (3, 3), ledger.failures


def case_pass_that_writes_nothing_fails(out: Path) -> None:
    d = fresh_copy(out, "stale")
    op = wl.Op("run", FIG3, FIG3, 1.0, FIG3_CHECK)
    ledger = run.Ledger(WORK / "kept-stale")
    ledger.record([op], [None], d)

    class Silent:  # exits 0 and writes nothing
        @staticmethod
        def main(argv):
            return 0

    _, statuses, _ = run.timed_pass(Silent, [op], d)
    ledger.record([op], statuses, d)
    assert (ledger.attempted, ledger.failed) == (2, 1), "a pass was credited with the previous pass's artifacts"


def case_count_drift_caught() -> None:
    first = dict.fromkeys(tracing.EXACT_COUNTS, 7)
    assert tracing.count_drift(first, dict(first)) == {}
    for key in tracing.EXACT_COUNTS:
        second = dict(first, **{key: 8})
        assert tracing.count_drift(first, second) == {key: (7, 8)}, key


def case_traced_counts_repeat() -> None:
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with redirect_stdout(io.StringIO()):
                assert cli.main(["run", FIG3]) == 0
        finally:
            tracer.uninstall()
        passes.append(tracer.metrics())
    assert tracing.count_drift(*passes) == {}, tracing.count_drift(*passes)
    assert passes[0]["sim.rk4_steps"] > 0 and passes[0]["controllers.rhs_evals"] == 4 * passes[0]["sim.rk4_steps"]


def case_tracing_keeps_step_bound() -> None:
    cfg = cli.resolve_config(FIG3)
    originals = (cli.integrate, cli.es_closed_loop)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rhs = cli.es_closed_loop(cfg.params, cfg.map)
        assert rhs.dither_omega_max == float(np.max(cfg.params.omegas))
        x0 = np.append(cfg.theta0, cfg.eta0)
        try:
            cli.integrate(rhs, x0, 0.0, 1.0, 2.0 * cfg.dt)
        except ValueError:
            pass
        else:
            raise AssertionError("traced rhs let integrate take a step coarser than the dither bound")
    finally:
        tracer.uninstall()
    assert (cli.integrate, cli.es_closed_loop) == originals, "uninstall left wrappers in place"


def case_refuses_without_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "run_paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    out = WORK / "out"
    os.environ["UESLAB_OUT"] = str(out)
    with redirect_stdout(io.StringIO()):
        if cli.main(["run", FIG3]) != 0:
            print(f"selftest: 'ueslab run {FIG3}' failed; nothing to check against", file=sys.stderr)
            return 1
    cases = [
        (case_real_artifacts_pass, (out,)),
        (case_exponent_outside_band_fails, (out,)),
        (case_corrupted_artifacts_fail, (out,)),
        (case_rate_check, (out,)),
        (case_sweep_check, ()),
        (case_changed_bytes_count_as_failed, (out,)),
        (case_failed_check_fails_every_pass, (out,)),
        (case_pass_that_writes_nothing_fails, (out,)),
        (case_count_drift_caught, ()),
        (case_traced_counts_repeat, ()),
        (case_tracing_keeps_step_bound, ()),
        (case_refuses_without_sources, ()),
    ]
    failed = 0
    for case, args in cases:
        try:
            case(*args)
        except (AssertionError, wl.CheckFailed) as e:
            failed += 1
            print(f"FAIL {case.__name__}: {e}")
        else:
            print(f"ok   {case.__name__}")
    print(f"selftest: {len(cases) - failed} of {len(cases)} cases hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
