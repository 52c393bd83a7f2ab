"""The bundled experiments' 13 artifacts, byte for byte against their reference sha256s.

The references were taken on x86-64 with AVX-512, glibc, Python 3.11.7 and numpy 2.4.6.  The bytes depend
on libm and on numpy's SIMD paths, so a mismatch on another platform is a finding to report.  A change that
moves bytes on purpose changes the reference here, in the same diff, and argues the change.

On a mismatch the test names the file, its first differing line and the largest difference in any number,
against a reference text: the fits and probe CSVs are kept here whole, and a run's trajectory and plot are
rendered from the numpy form of the deployed loop, integrated by classical RK4 on arrays (``test_sim``).
"""

import dataclasses
import hashlib
import math
import re

from test_sim import _numpy_deployed_loop, _numpy_rk4

import ueslab as u
from ueslab import cli
from ueslab.svgplot import line_plot

RUNS = ("fig2_nominal_a", "fig2_nominal_b", "fig3_asymptotic_ues", "exponential_ues")

SHA256 = {
    "fig2_nominal_a.trajectory.csv": "2415d27d89a7536652baf59b227e523cba881e2da7cabe3881bf47378d2b9dcd",
    "fig2_nominal_a.fits.csv": "f319c3ecff2a3982ef5490a0b8c0400dde0e0791a66f122736253243ba4b6424",
    "fig2_nominal_a.svg": "18b4208d9a20a41efe5d05c3f8b56cd05af9d6d5b42782abfa7ad27e422529db",
    "fig2_nominal_b.trajectory.csv": "ba1575affb7622b3b01f82d37269f0ac04c1e104f7a7499648c5cefd50a192c6",
    "fig2_nominal_b.fits.csv": "f319c3ecff2a3982ef5490a0b8c0400dde0e0791a66f122736253243ba4b6424",
    "fig2_nominal_b.svg": "8a0701379540903463074574fa8ff15b7f9e5ffef6ea28ad47326c3dfa7d8725",
    "fig3_asymptotic_ues.trajectory.csv": "8d6b17d81d9eca088b6cec03525fd85c712842fdd82a8a99b44947762bea164d",
    "fig3_asymptotic_ues.fits.csv": "3830a6a8bc54b7508b09642fb2646dc9ee172a14625b643fc6625ab63f56200f",
    "fig3_asymptotic_ues.svg": "9b9cd19ae8049bee8d09c194313fc7c9f1285588d60bf8efc35736408e7a8e4f",
    "exponential_ues.trajectory.csv": "dd3bd9235323677c9446c6898036aa86191dd112320602a6a83094b7a9b12f65",
    "exponential_ues.fits.csv": "0f14e82205f9bf192c42d848813392d472fed11c83018e1a479cbf74376a37c7",
    "exponential_ues.svg": "b3f5737919d3f9975bc67d432b11335dee634093f221dfce7cc7d51784bf260f",
    "omega_sweep.probe.csv": "e24bf505bc725c5e28167f6bd6eae24e5095d818093ccd6f8b393e6d8f6291b1",
}

_NO_FIT = "model,estimate,residual,window_start,window_end\n"
TEXT = {
    "fig2_nominal_a.fits.csv": _NO_FIT,
    "fig2_nominal_b.fits.csv": _NO_FIT,
    "fig3_asymptotic_ues.fits.csv": _NO_FIT + "power_law,2.8146186241567182,0.61629813896743879,10,100\n",
    "exponential_ues.fits.csv": _NO_FIT + "exponential,0.099990250479542797,0.0089161492951842069,5,60\n",
    "omega_sweep.probe.csv": """omega,trial,entry_time,stayed,sup_gap
10,0,3.7699111843077522,1,0.027345719902713839
10,1,0,1,0.016288504989337316
50,0,3.7699111843077522,1,0.01028852954486581
50,1,0,1,0.0041151431133741312
250,0,3.7447784430790332,1,0.0035541804170313718
250,1,0,1,0.0024273207492231386
""",
}

# the bundled runs' map values as numpy code, written apart from the maps' texts
_quartic = lambda th: 1.0 + (th[0] - 2.0) ** 4
COSTS = {"fig2_nominal_a": _quartic, "fig2_nominal_b": _quartic, "fig3_asymptotic_ues": _quartic,
         "exponential_ues": lambda th: (1.0 * (th - 1.0) ** 2).sum()}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rendered(name: str) -> dict:
    """The trajectory CSV and the plot of bundled run `name`, rendered from the numpy reference loop."""
    cfg = cli.resolve_config(name)
    t0 = cfg.params.schedule.t0
    x0 = (*cfg.theta0.tolist(), cfg.eta0)
    times, states = _numpy_rk4(_numpy_deployed_loop(cfg.params, COSTS[name]), x0, t0, t0 + cfg.horizon, cfg.dt)
    traj = u.Trajectory(times, states, cfg.params.n)
    traj = dataclasses.replace(traj, y=[float(COSTS[name](theta)) for theta in traj.theta])
    series = [(traj.times, traj.theta[:, i], f"theta_{i + 1}") for i in range(traj.n)] + [(traj.times, traj.y, "y")]
    return {f"{name}.trajectory.csv": traj.to_csv(), f"{name}.svg": line_plot(series, title=name, xlabel="t")}


def _largest_difference(got: list, want: list) -> float:
    """The largest absolute difference between the numbers at the same place of the same line."""
    largest = 0.0
    for a, b in zip(got, want):
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            if x != y:
                d = abs(float(x) - float(y))
                largest = max(largest, math.inf if math.isnan(d) else d)
    return largest


def _diagnosis(name: str, got: str) -> str:
    """Where file `name`, written as `got`, first departs from its reference text, and by how much."""
    want = TEXT[name] if name in TEXT else _rendered(name.split(".")[0])[name]
    note = "" if _sha256(want) == SHA256[name] else " (the reference path no longer gives the pinned bytes either)"
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if got_lines == want_lines:
        return f"{name}{note}: equal to its reference text"
    first = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), min(len(got_lines), len(want_lines)))
    line = lambda lines: repr(lines[first][:200]) if first < len(lines) else "end of file"
    return (f"{name}{note}: first differing line {first + 1}: got {line(got_lines)}, want {line(want_lines)}; "
            f"largest difference in any number {_largest_difference(got_lines, want_lines):g}; "
            f"{len(got_lines)} lines against {len(want_lines)}")


def test_reference_texts_match_their_hashes():
    for name, text in TEXT.items():
        assert _sha256(text) == SHA256[name], name


def test_bundled_artifacts_match_their_reference_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UESLAB_OUT", str(tmp_path))
    assert cli.main(["run", *RUNS]) == 0
    assert cli.main(["sweep", "omega_sweep"]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(SHA256)
    moved = [name for name in SHA256 if hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() != SHA256[name]]
    assert not moved, "\n".join(_diagnosis(name, (tmp_path / name).read_text(encoding="utf-8")) for name in moved)


def test_rendered_reference_gives_the_pinned_bytes():
    # the diagnosis's reference path for a run's trajectory and plot, checked on the shortest run
    for name, text in _rendered("fig3_asymptotic_ues").items():
        assert _sha256(text) == SHA256[name], name


def test_diagnosis_names_line_and_largest_difference():
    name = "fig3_asymptotic_ues.fits.csv"
    got = TEXT[name].replace("2.8146186241567182", "2.8146186241567", 1)
    message = _diagnosis(name, got)
    assert message.startswith(f"{name}: first differing line 2: got 'power_law,2.8146186241567,")
    assert "largest difference in any number 1.82077e-14;" in message
    assert _diagnosis(name, got + "extra\n").endswith("3 lines against 2")
