"""The benchmark's tracer against the package: every name it patches exists, and uninstall restores it."""

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
