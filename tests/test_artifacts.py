"""The bundled experiments' 13 artifacts, byte for byte against their reference sha256s.

The references were taken on x86-64 with AVX-512, glibc, Python 3.11.7 and numpy 2.4.6.  The artifacts are
computed on Python floats, without numpy: their bytes depend on libm and on Python's float arithmetic, so a
mismatch on another platform is a finding to report.  Only the rendered reference below still goes through
numpy's SIMD paths.  A change that moves bytes on purpose changes the reference here, in the same diff, and
argues the change: exponential_ues.fits.csv's residual moved from 0.0089161492951842017 to
0.0089161492951842034, one unit in the last place, when the fits' sums became math.fsum.  fig2_nominal_b's
trajectory CSV and plot moved when its step became a quarter of the bundled one, recorded on the same grid:
at the bundled step its phase turned up to 5.64 rad per step and the run was no solution of its ODE.  The
largest change was theta 2.944 at t = 21.74, eta 101.9 and y 104.9 near t = 20.6.  Five files moved when the
deployed loop came to carry eta - J*: near the optimum an absolute eta within ulps of J* = 1 had cancelled the
digits the rate lives in.  fig3_asymptotic_ues's theta moved by at most 1.7e-7 (at t = 99.68) and its fitted
exponent from 2.8146186241567182 to 2.8146017565833281; fig2_nominal_a by at most 8.9e-16 in theta and 1.4e-14
in y, fig2_nominal_b by 3.3e-15 and 9.9e-14, and omega_sweep's sup_gap by at most 4.5e-13.

On a mismatch the test names the file, its first differing line and the largest difference in any number,
against a reference text: the fits and probe CSVs are kept here whole, and a run's trajectory and plot are
rendered from the numpy form of the deployed loop, integrated by classical RK4 on arrays (``test_sim``).
"""

import dataclasses
import hashlib
import math
import re

import numpy as np
from conftest import arrays
from test_sim import _numpy_deployed_loop, _numpy_rk4

import ueslab as u
from ueslab import cli
from ueslab.svgplot import line_plot

RUNS = ("fig2_nominal_a", "fig2_nominal_b", "fig3_asymptotic_ues", "exponential_ues")

SHA256 = {
    "fig2_nominal_a.trajectory.csv": "47a3100bbdfc0011cbce18ed8f0d5e974e23dd642f9ebf8bb1797fbdd3a3a1f1",
    "fig2_nominal_a.fits.csv": "f319c3ecff2a3982ef5490a0b8c0400dde0e0791a66f122736253243ba4b6424",
    "fig2_nominal_a.svg": "18b4208d9a20a41efe5d05c3f8b56cd05af9d6d5b42782abfa7ad27e422529db",
    "fig2_nominal_b.trajectory.csv": "db4531a0896aa459ebff5121d7ba589e201d54421524f569bf39d19eece4d6c0",
    "fig2_nominal_b.fits.csv": "f319c3ecff2a3982ef5490a0b8c0400dde0e0791a66f122736253243ba4b6424",
    "fig2_nominal_b.svg": "3a266d2953be9ac717a5a23bcb1364b83348e394d96bccbd9e2b8932804494d7",
    "fig3_asymptotic_ues.trajectory.csv": "10fb32230bf5b10c42562948dfdac6ad87d25c8d66ee62ce61302467d9b25455",
    "fig3_asymptotic_ues.fits.csv": "cd818fcd2ac01ca3b4e32d8adb7c37a4306d8a495344f14ffd344a8041170efc",
    "fig3_asymptotic_ues.svg": "9b9cd19ae8049bee8d09c194313fc7c9f1285588d60bf8efc35736408e7a8e4f",
    "exponential_ues.trajectory.csv": "dd3bd9235323677c9446c6898036aa86191dd112320602a6a83094b7a9b12f65",
    "exponential_ues.fits.csv": "25905cefabb8f49faa3029f9658268a6704d50857b36d9eb13547641ac31b670",
    "exponential_ues.svg": "b3f5737919d3f9975bc67d432b11335dee634093f221dfce7cc7d51784bf260f",
    "omega_sweep.probe.csv": "3968439459bf3189aa41a0ea926d90efcd9dd7b620740c208852d7bc36330dc6",
}

_NO_FIT = "model,estimate,residual,window_start,window_end\n"
TEXT = {
    "fig2_nominal_a.fits.csv": _NO_FIT,
    "fig2_nominal_b.fits.csv": _NO_FIT,
    "fig3_asymptotic_ues.fits.csv": _NO_FIT + "power_law,2.8146017565833281,0.61629402752316287,10,100\n",
    "exponential_ues.fits.csv": _NO_FIT + "exponential,0.099990250479542797,0.0089161492951842034,5,60\n",
    "omega_sweep.probe.csv": """omega,trial,entry_time,stayed,sup_gap
10,0,3.7699111843077522,1,0.021978712295061431
10,1,3.1415926535897936,1,0.011796050613684939
50,0,3.6442474781641603,1,0.0072106776070368639
50,1,2.8902652413026098,1,0.0048388228468874139
250,0,3.6693802193928784,1,0.0024253404397285294
250,1,2.9153979825313279,1,0.002203824622908801
""",
}

# the bundled runs' centered map values J - J* as numpy code, written apart from the maps' texts, and their J*
_quartic = lambda th: (th[0] - 2.0) ** 4
COSTS = {"fig2_nominal_a": _quartic, "fig2_nominal_b": _quartic, "fig3_asymptotic_ues": _quartic,
         "exponential_ues": lambda th: (1.0 * (th - 1.0) ** 2).sum()}
J_STAR = {"fig2_nominal_a": 1.0, "fig2_nominal_b": 1.0, "fig3_asymptotic_ues": 1.0, "exponential_ues": 0.0}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rendered(name: str) -> dict:
    """The trajectory CSV and the plot of bundled run `name`, rendered from the numpy reference loop and kept, as
    ``integrate`` records, at every ``record_every``-th step and the end; the loop carries eta - J*, and J* is added
    back to the eta and y columns."""
    cfg, j_star = cli.resolve_config(name), J_STAR[name]
    t0 = cfg.params.schedule.t0
    x0 = (*cfg.theta0.tolist(), cfg.eta0 - j_star)
    times, states = _numpy_rk4(_numpy_deployed_loop(cfg.params, COSTS[name]), x0, t0, t0 + cfg.horizon, cfg.dt)
    kept = np.r_[0 : len(times) - 1 : cfg.record_every, len(times) - 1]
    times, states = times[kept], states[kept]
    if j_star:  # as cli.measured, which leaves the column as it is for J* = 0.0
        states[:, -1] += j_star
    traj = u.Trajectory(times, states.ravel(), cfg.params.n)
    theta = arrays(traj).theta
    traj = dataclasses.replace(traj, y=[j_star + float(COSTS[name](th)) for th in theta])
    series = [(traj.times, theta[:, i], f"theta_{i + 1}") for i in range(traj.n)] + [(traj.times, traj.y, "y")]
    return {f"{name}.trajectory.csv": traj.to_csv(), f"{name}.svg": line_plot(series, name)}


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
    # the diagnosis's reference path for a run's trajectory and plot, checked on the shortest run and on the run
    # recorded every fourth step
    for run in ("fig3_asymptotic_ues", "fig2_nominal_b"):
        for name, text in _rendered(run).items():
            assert _sha256(text) == SHA256[name], name


def test_diagnosis_names_line_and_largest_difference():
    name = "fig3_asymptotic_ues.fits.csv"
    got = TEXT[name].replace("2.8146017565833281", "2.8146017565833", 1)
    message = _diagnosis(name, got)
    assert message.startswith(f"{name}: first differing line 2: got 'power_law,2.8146017565833,")
    assert "largest difference in any number 2.79776e-14;" in message
    assert _diagnosis(name, got + "extra\n").endswith("3 lines against 2")
