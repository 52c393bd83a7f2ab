"""The benchmark's tracer against the package: every name it patches exists, and uninstall restores it."""

import dataclasses
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_install_then_uninstall_restores_every_patched_attribute(monkeypatch):
    # a package name the tracer patches or reads that is renamed away fails install here
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        originals = {}
        for owner, attr, original in tracer._patched:
            originals.setdefault((owner, attr), original)
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    assert {attr for _, attr in originals} >= {"integrate", "es_closed_loop", "averaged_closed_loop", "to_csv"}
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_tracer_sees_every_averaged_evaluation(monkeypatch):
    # the tracer's wrapper of the averaged rhs copies its rk4_loop tag and is still called: 4 times per step,
    # then once per recorded sample for the node slopes
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    from ueslab import averaging, cli
    from ueslab.sim import dither_step_bound, step_count

    cfg = cli.resolve_config("omega_sweep")
    probe = dataclasses.replace(cfg.probe, trials=1)
    monkeypatch.setattr(averaging, "_worker_count", lambda jobs: 1)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        averaging.practical_stability_probe(cfg.params, cfg.map, probe)
    finally:
        tracer.uninstall()
    steps = step_count(0.0, probe.horizon, dither_step_bound(probe.omega_values[0]))
    metrics = tracer.metrics()
    assert metrics["averaging.avg_integrations"] == 1
    assert metrics["averaging.avg_rhs_evals"] == 4 * steps + steps + 1


def test_traced_run_completes_and_counts_its_steps(monkeypatch, tmp_path):
    # the run path under the tracer, as --trace 1 runs it: a value a tracer hook cannot take fails here
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path))
    import tracing

    from ueslab import cli
    from ueslab.sim import step_count

    cfg = cli.resolve_config("fig2_nominal_a")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["run", "fig2_nominal_a"])
    finally:
        tracer.uninstall()
    assert code == 0
    # one integration of the deployed rhs, reached through the names the tracer patches on cli
    t0 = cfg.params.schedule.t0
    steps = step_count(t0, t0 + cfg.horizon, cfg.dt)
    metrics = tracer.metrics()
    assert metrics["sim.rk4_steps"] == steps
    assert metrics["sim.integrate_calls"] == 1
    assert metrics["controllers.rhs_evals"] == 4 * steps
