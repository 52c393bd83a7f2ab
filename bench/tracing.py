"""Per-layer spans and counts, recorded by wrapping ueslab's module attributes.

Nothing in the package changes: `install` swaps functions and methods for
timing wrappers at the names the package calls them through (for example
`ueslab.cli.integrate` and `ueslab.averaging.integrate`), and `uninstall`
puts the originals back.  Spans nest; a layer's self time is its span minus
the spans of the layers it called.  Spans are kept as running sums in memory.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# counts that must repeat exactly between two traced passes over the same inputs
EXACT_COUNTS = (
    "config.loads", "maps.calls", "schedules.calls", "controllers.rhs_evals",
    "sim.integrate_calls", "sim.rk4_steps", "averaging.avg_integrations", "averaging.avg_rhs_evals",
    "averaging.diverged_rows", "analysis.fits", "sim.csv_bytes", "svgplot.bytes", "cli.bytes_written",
)

RK4_STAGES = 4


class Tracer:
    """Running sums of calls, span time and self time per layer, plus named extras."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.extra: Dict[str, float] = defaultdict(float)
        self.avg_problems = set()
        self._child = [0.0]  # time covered by child spans, one slot per open span
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn inside a span of `layer`; after(result, args) runs once the span has closed.

        functools.wraps copies fn.__dict__, so tags such as an rhs's
        `dither_omega_max` reach the integrator unchanged.
        """
        calls, total, self_time, child = self.calls, self.total, self.self_time, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                inner = child.pop()
                child[-1] += seconds
                calls[layer] += 1
                total[layer] += seconds
                self_time[layer] += seconds - inner
            if after is not None:
                after(result, args)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import ueslab.averaging as averaging
        import ueslab.cli as cli
        from ueslab.maps import CostMap
        from ueslab.schedules import Schedule
        from ueslab.sim import Trajectory

        for name in ("load_config", "config_from_text"):
            self._patch(cli, name, self.wrap("config", getattr(cli, name)))
        for name in ("__call__", "centered_value", "gradient"):
            self._patch(CostMap, name, self.wrap("maps", getattr(CostMap, name)))
        for name in ("nu", "phi", "log_phi", "xi", "log_xi"):
            self._patch(Schedule, name, self.wrap("schedules", getattr(Schedule, name)))
        for name in ("fit_power_rate", "fit_exp_rate", "oscillation_amplitude"):
            self._patch(cli, name, self.wrap("analysis", getattr(cli, name)))

        def count_bytes(key: str, pick: Callable) -> Callable:
            def after(result, args):
                self.extra[key] += len(pick(result, args).encode("utf-8"))
            return after

        self._patch(Trajectory, "to_csv", self.wrap("sim.csv", Trajectory.to_csv, count_bytes("sim.csv_bytes", lambda r, a: r)))
        self._patch(cli, "line_plot", self.wrap("svgplot", cli.line_plot, count_bytes("svgplot.bytes", lambda r, a: r)))
        written = type("TracedPath", (type(Path()),), {})
        written.write_text = self.wrap("cli.write", written.write_text, count_bytes("cli.bytes_written", lambda r, a: a[1]))
        self._patch(cli, "Path", written)

        def diverged(rows, args):
            self.extra["averaging.diverged_rows"] += sum(1 for row in rows if not math.isfinite(row.sup_gap))

        self._patch(cli, "practical_stability_probe", self.wrap("probe", cli.practical_stability_probe, diverged))

        def full_loop(es_closed_loop):
            @functools.wraps(es_closed_loop)
            def assemble(p, map):
                return self.wrap("controllers.rhs", es_closed_loop(p, map))
            return assemble

        def averaged_loop(p, map, _orig=averaging.averaged_closed_loop):
            rhs = self.wrap("averaging.rhs", _orig(p, map))
            # what the averaged system reads: omega and omega_hat are not among them
            rhs.avg_key = (p.alpha.tobytes(), p.k.tobytes(), p.omega_h, p.schedule, id(map))
            return rhs

        self._patch(cli, "es_closed_loop", full_loop(cli.es_closed_loop))
        self._patch(averaging, "es_closed_loop", full_loop(averaging.es_closed_loop))
        self._patch(averaging, "averaged_closed_loop", averaged_loop)
        self._patch(cli, "integrate", self._traced_integrate(cli.integrate, in_probe=False))
        self._patch(averaging, "integrate", self._traced_integrate(averaging.integrate, in_probe=True))

    def _traced_integrate(self, integrate: Callable, in_probe: bool) -> Callable:
        span = self.wrap("sim", integrate)

        @functools.wraps(integrate)
        def traced(rhs, x0, t0, t1, *args, **kwargs):
            evals_before = self.calls["controllers.rhs"] + self.calls["averaging.rhs"]
            start = perf_counter()
            try:
                return span(rhs, x0, t0, t1, *args, **kwargs)
            finally:
                seconds = perf_counter() - start
                evals = self.calls["controllers.rhs"] + self.calls["averaging.rhs"] - evals_before
                self.extra["sim.rk4_steps"] += evals // RK4_STAGES
                key = getattr(rhs, "avg_key", None)
                if key is not None:
                    self.extra["averaging.avg_s"] += seconds
                    self.extra["averaging.avg_integrations"] += 1
                    self.avg_problems.add(key + (np.asarray(x0, dtype=float).tobytes(), float(t0), float(t1)))
                elif in_probe:
                    self.extra["averaging.full_s"] += seconds

        return traced

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics of everything traced since construction."""
        c, tot, st, ex = self.calls, self.total, self.self_time, self.extra
        evals, steps = c["controllers.rhs"], int(ex["sim.rk4_steps"])
        avg_runs = int(ex["averaging.avg_integrations"])
        return {
            "config.load_s": tot["config"], "config.loads": c["config"],
            "maps.calls": c["maps"], "maps.self_s": st["maps"],
            "schedules.calls": c["schedules"], "schedules.self_s": st["schedules"],
            "controllers.rhs_evals": evals, "controllers.rhs_self_s": st["controllers.rhs"],
            "controllers.us_per_eval": 1e6 * st["controllers.rhs"] / evals if evals else 0.0,
            "sim.integrate_calls": c["sim"], "sim.rk4_steps": steps, "sim.self_s": st["sim"],
            "sim.us_per_step_self": 1e6 * st["sim"] / steps if steps else 0.0,
            "averaging.full_s": ex["averaging.full_s"], "averaging.avg_s": ex["averaging.avg_s"],
            "averaging.avg_integrations": avg_runs, "averaging.avg_rhs_evals": c["averaging.rhs"],
            "averaging.avg_unique_ratio": len(self.avg_problems) / avg_runs if avg_runs else 0.0,
            "averaging.diverged_rows": int(ex["averaging.diverged_rows"]),
            "analysis.fit_s": tot["analysis"], "analysis.fits": c["analysis"],
            "sim.csv_s": tot["sim.csv"], "sim.csv_bytes": int(ex["sim.csv_bytes"]),
            "svgplot.plot_s": tot["svgplot"], "svgplot.bytes": int(ex["svgplot.bytes"]),
            "cli.write_s": tot["cli.write"], "cli.bytes_written": int(ex["cli.bytes_written"]),
        }


def count_drift(first: Dict[str, float], second: Dict[str, float]) -> Dict[str, Tuple[float, float]]:
    """The exact-repeat counts that differ between two traced passes, as (first, second)."""
    return {key: (first[key], second[key]) for key in EXACT_COUNTS if first[key] != second[key]}
