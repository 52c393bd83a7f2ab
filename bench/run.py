"""ueslab benchmark: one workload, timed end to end (--trace 0) or layer by layer (--trace 1).

    python3 bench/run.py --workload run_paper --seed 1 --seconds 20 --trace 0

Run from a checkout that holds src/ueslab; nothing needs installing.  The
workload runs in this process as one client, one operation after another,
for about --seconds.  Set-up time is taken in separate fresh interpreters.
Artifacts go to bench/.work/ through UESLAB_OUT.  The last line of standard
output is the result JSON; the full report (pass times with quartiles,
artifact sha256s, machine facts, failures) is written beside the artifacts.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 11
MIN_PASSES = 2
MIN_TRACED_PASSES = 2
SETUP_TIMEOUT_S = 120


@dataclass
class Ledger:
    """Operations attempted and failed.

    While passes run, an op's artifacts are only hashed: every clean pass must
    reproduce the bytes of the op's first clean pass, which are copied to
    `kept`.  `verify` runs the checks on those copies after the metrics are
    taken, so the checks' memory stays out of peak_rss_mb.  A failed check
    fails every pass that reproduced the bytes.
    """

    kept: Path
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    hashes: Dict[str, Dict[str, str]] = field(default_factory=dict)
    clean: Dict[str, int] = field(default_factory=dict)

    def fail(self, name: str, problem: str, passes: int = 1) -> None:
        self.failed += passes
        self.failures.append(f"{name}: {problem}" + (f" ({passes} passes)" if passes > 1 else ""))

    def record(self, ops, statuses, out: Path) -> None:
        """Count one pass; its artifacts must be the bytes of the op's first clean pass."""
        for op, problem in zip(ops, statuses):
            self.attempted += 1
            if problem is None:
                paths = op.artifacts(out)
                hashes = workloads.sha256_of(paths)
                first = self.hashes.get(op.name)
                if first is None:
                    self.hashes[op.name] = hashes
                    self.kept.mkdir(parents=True, exist_ok=True)
                    for path in paths:
                        if path.is_file():
                            shutil.copyfile(path, self.kept / path.name)
                elif hashes != first:
                    problem = "artifact bytes differ from the first pass"
            if problem is None:
                self.clean[op.name] = self.clean.get(op.name, 0) + 1
            else:
                self.fail(op.name, problem)

    def verify(self, ops) -> None:
        """Check the kept artifacts of each op that had a clean pass."""
        for op in ops:
            passes = self.clean.get(op.name, 0)
            if passes:
                try:
                    op.check(self.kept, op.name)
                except workloads.CheckFailed as e:
                    self.fail(op.name, str(e), passes)


def invoke(cli, op) -> Optional[str]:
    """Run one operation through the CLI; None on success, else what went wrong."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main([op.verb, op.config])
    except Exception as e:  # an operation that raises counts as failed; the run goes on
        return f"raised {type(e).__name__}: {e}"
    return None if code == 0 else f"exit {code}: {sink.getvalue().strip()[-300:]}"


def timed_pass(cli, ops, out: Path) -> Tuple[float, List[Optional[str]], List[float]]:
    """Wall time of one pass, each op's status, and each op's wall time.

    The output directory is emptied first, outside the timed region, so each
    pass must write all of its own artifacts.
    """
    shutil.rmtree(out, ignore_errors=True)
    statuses, op_seconds = [], []
    start = perf_counter()
    for op in ops:
        op_start = perf_counter()
        statuses.append(invoke(cli, op))
        op_seconds.append(perf_counter() - op_start)
    return perf_counter() - start, statuses, op_seconds


def keep_going(started: float, pass_seconds: List[float], seconds: float, minimum: int) -> bool:
    """Start another pass only when it should end within the run's time."""
    if len(pass_seconds) < minimum:
        return True
    return perf_counter() - started + statistics.median(pass_seconds) <= seconds


def setup_seconds(ops) -> float:
    """One fresh interpreter's import + config load + loop assembly time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *(op.config for op in ops)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> Dict[str, float]:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def machine_facts() -> dict:
    import numpy as np

    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        np.show_runtime()
    found = re.search(r"'simd_extensions': (\{.*?\})\}", buf.getvalue(), re.S)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd": ast.literal_eval(found.group(1)) if found else None,
    }


def run_untraced(cli, ops, out: Path, seconds: float, ledger: Ledger) -> dict:
    started, times, per_op = perf_counter(), [], []
    while keep_going(started, times, seconds, MIN_PASSES):
        wall, statuses, op_seconds = timed_pass(cli, ops, out)
        times.append(wall)
        per_op.append(op_seconds)
        ledger.record(ops, statuses, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before any check reads artifacts
    ledger.verify(ops)
    wall = statistics.median(times)
    metrics = {
        "wall_s": wall,
        "periods_per_s": sum(op.periods for op in ops) / wall,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    return {
        "metrics": metrics, "wall_s": quartiles(times), "first_pass_s": times[0],
        "pass_seconds": times, "op_seconds": per_op,
    }


def run_traced(cli, ops, out: Path, seconds: float, ledger: Ledger) -> dict:
    """Untraced and traced passes in turn; layer metrics are medians over the traced passes."""
    started, untraced, traced, layers = perf_counter(), [], [], []
    while keep_going(started, untraced + traced, seconds, 1 + MIN_TRACED_PASSES):
        if untraced and len(traced) < len(untraced) + 1:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall, statuses, _ = timed_pass(cli, ops, out)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(tracer.metrics())
        else:
            wall, statuses, _ = timed_pass(cli, ops, out)
            untraced.append(wall)
        ledger.record(ops, statuses, out)
    ledger.verify(ops)
    drift = {}
    for later in layers[1:]:
        drift.update(tracing.count_drift(layers[0], later))
    metrics = {}
    for key in layers[0]:
        values = [run[key] for run in layers]
        counted = all(isinstance(v, int) for v in values)
        metrics[key] = statistics.median_low(values) if counted else statistics.median(values)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return {
        "metrics": metrics, "count_drift": drift, "first_pass_s": untraced[0],
        "untraced_wall_s": quartiles(untraced), "traced_wall_s": quartiles(traced), "layers_per_pass": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ueslab" / "__init__.py").is_file():
        print(f"benchmark: no ueslab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"benchmark: unknown workload '{args.workload}'", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import ueslab.cli as cli

    work = WORK / args.workload
    out = work / "out"
    shutil.rmtree(work, ignore_errors=True)
    os.environ["UESLAB_OUT"] = str(out)
    ops = workloads.build(args.workload, args.seed, work / "configs", cli)

    ledger = Ledger(kept=work / "kept")
    if args.trace:
        result = run_traced(cli, ops, out, args.seconds, ledger)
        declared = spec["per_layer"]
    else:
        setup = [setup_seconds(ops) for _ in range(SETUP_SAMPLES)]
        result = run_untraced(cli, ops, out, args.seconds, ledger)
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_s"] = quartiles(setup)
        declared = spec["end_to_end"]
    measured = result["metrics"]
    if set(measured) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(measured)} do not match BENCHMARK.json {[m['name'] for m in declared]}")

    drift = result.get("count_drift", {})
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(),
        "ops": [op.config for op in ops],
        "periods_per_pass": sum(op.periods for op in ops),
        "attempted": ledger.attempted, "failed": ledger.failed, "fail_ratio": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
        "artifact_sha256": ledger.hashes,
        **result,
    }
    report_path = WORK / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    for failure in ledger.failures:
        print(f"FAILED {failure}")
    for key, (first, later) in drift.items():
        print(f"COUNT DRIFT {key}: {first} then {later}")
    for label in ("wall_s", "untraced_wall_s", "traced_wall_s", "setup_s"):
        if label in result:
            q = result[label]
            print(f"{label}: median {q['median']:.4f} s [q1 {q['q1']:.4f}, q3 {q['q3']:.4f}] over {q['n']} samples")
    print(f"first pass: {result['first_pass_s']:.4f} s")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: fail_ratio {report['fail_ratio']:g} "
          f"({ledger.failed} of {ledger.attempted}); report {report_path.relative_to(ROOT)}")
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({
        "correct": ledger.failed == 0 and not drift,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
