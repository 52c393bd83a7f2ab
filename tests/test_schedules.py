"""Schedules: pinned table values, domain checks, and algebraic invariants."""

import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ueslab import Schedule
from ueslab.schedules import _LOG_MAX

# keep random times small enough that phi stays inside double range
TIMES = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)


def asymptotic_schedules():
    return st.builds(
        Schedule,
        st.just("asymptotic"),
        beta=st.floats(0.01, 2.0),
        v=st.floats(0.1, 3.0),
        r=st.floats(0.0, 6.0),
    )


def test_nominal_is_identity():
    s = Schedule("nominal")
    for t in (0.0, 1.0, 17.3, 1e6):
        assert s.nu(t) == 1.0
        assert s.phi(t) == 1.0
        assert s.xi(t) == 1.0


def test_asymptotic_pinned_values():
    s = Schedule("asymptotic", beta=0.1, v=1.0 / 3.0, r=4.0)
    assert s.xi(10.0) == pytest.approx(8.0, rel=1e-12)
    assert s.nu(10.0) == pytest.approx(0.125, rel=1e-12)
    assert s.nu(90.0) == pytest.approx(1e-3, rel=1e-12)
    assert s.phi(10.0) == pytest.approx(4096.0, rel=1e-12)
    assert s.nu(0.0) == 1.0 and s.phi(0.0) == 1.0


def test_exponential_pinned_values():
    s = Schedule("exponential", lam=0.1)
    assert s.xi(10.0) == pytest.approx(math.e, rel=1e-12)
    assert s.nu(10.0) == pytest.approx(1.0 / math.e, rel=1e-12)
    assert s.phi(10.0) == pytest.approx(math.e**2, rel=1e-12)


def test_start_time_shift():
    s = Schedule("asymptotic", beta=0.1, v=1.0 / 3.0, r=4.0, t0=5.0)
    assert s.xi(15.0) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError, match="precedes"):
        s.nu(4.9)


def test_schedule_pickles_after_use():
    # the factors function compiled on first use stays out of the pickle; the copy compiles its own
    s = Schedule("asymptotic", beta=0.1, v=1.0 / 3.0, r=4.0, t0=5.0)
    want = s.factors(15.0)
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and copy.factors(15.0) == want


def test_parameter_validation():
    with pytest.raises(ValueError):
        Schedule("asymptotic", beta=-1.0, v=0.5, r=1.0)
    with pytest.raises(ValueError):
        Schedule("asymptotic", beta=0.1, v=0.0, r=1.0)
    with pytest.raises(ValueError):
        Schedule("asymptotic", beta=0.1, v=0.5, r=-0.1)
    with pytest.raises(ValueError):
        Schedule("exponential", lam=0.0)
    with pytest.raises(ValueError, match=r"^schedule\.kind must be nominal, asymptotic, or exponential, got 'linear'$"):
        Schedule("linear")
    # NaN fails every comparison, so `x <= 0` let it through: each bound also asks for a finite value
    with pytest.raises(ValueError, match=r"^asymptotic schedule needs schedule\.beta > 0, got nan$"):
        Schedule("asymptotic", beta=math.nan, v=1.0, r=0.0)
    with pytest.raises(ValueError, match=r"^asymptotic schedule needs schedule\.r >= 0, got inf$"):
        Schedule("asymptotic", beta=0.1, v=1.0, r=math.inf)
    with pytest.raises(ValueError, match=r"^exponential schedule needs schedule\.lambda > 0, got nan$"):
        Schedule("exponential", lam=math.nan)
    for kind, params in (("nominal", {}), ("asymptotic", dict(beta=0.1, v=1.0, r=0.0)), ("exponential", dict(lam=0.1))):
        for t0 in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^schedule\.t0 must be >= 0, got {t0}$"):
                Schedule(kind, t0=t0, **params)
    # a kind refuses a parameter it does not read
    with pytest.raises(ValueError, match=r"^nominal schedule does not read schedule\.beta, got beta = 0\.1$"):
        Schedule("nominal", beta=0.1)
    with pytest.raises(ValueError, match=r"^exponential schedule does not read schedule\.r, got r = 1\.0$"):
        Schedule("exponential", lam=0.1, r=1.0)
    with pytest.raises(ValueError, match=r"^asymptotic schedule does not read schedule\.lambda, got lam = 0\.1$"):
        Schedule("asymptotic", beta=0.1, v=1.0, r=0.0, lam=0.1)


def test_phi_overflow_is_explicit():
    s = Schedule("exponential", lam=1.0)
    with pytest.raises(OverflowError, match="exponential"):
        s.phi(400.0)
    # the log never overflows
    assert s.log_phi(400.0) == 800.0


@settings(max_examples=100, deadline=None)
@given(s=asymptotic_schedules(), t=TIMES)
def test_amplitude_growth_reciprocal(s, t):
    assert s.nu(t) * s.xi(t) == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(s=asymptotic_schedules(), t=TIMES)
def test_asymptotic_gain_is_growth_power(s, t):
    assert s.phi(t) == pytest.approx(s.xi(t) ** s.r, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.01, 1.0), t=st.floats(0.0, 100.0))
def test_exponential_gain_is_growth_squared(lam, t):
    s = Schedule("exponential", lam=lam)
    assert s.phi(t) == pytest.approx(s.xi(t) ** 2, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(s=asymptotic_schedules(), t1=TIMES, t2=TIMES)
def test_amplitude_decays_gain_grows(s, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert s.nu(hi) <= s.nu(lo) * (1.0 + 1e-12)
    assert s.phi(hi) * (1.0 + 1e-12) >= s.phi(lo)


def _python_factors(s, t):
    """Schedule.factors as per-kind Python, the reference its compiled frame text must equal bit for bit."""
    if t < s.t0:
        raise ValueError(f"t = {t} precedes schedule start t0 = {s.t0}")
    tau = t - s.t0
    if s.kind == "nominal":
        log_xi = log_phi = g = 0.0
    elif s.kind == "asymptotic":
        log1p = math.log1p(s.beta * tau)
        log_xi = log1p / s.v
        log_phi = (s.r / s.v) * log1p
        g = s.beta / (s.v * (1.0 + s.beta * tau))
    else:
        log_xi = s.lam * tau
        log_phi = 2.0 * s.lam * tau
        g = s.lam
    return log_xi, log_phi, math.exp(-log_xi), g


def any_schedules():
    t0 = st.floats(0.0, 50.0)
    return st.one_of(
        st.builds(Schedule, st.just("nominal"), t0=t0),
        st.builds(Schedule, st.just("asymptotic"), beta=st.floats(0.01, 2.0), v=st.floats(0.05, 3.0),
                  r=st.floats(0.0, 20.0), t0=t0),
        st.builds(Schedule, st.just("exponential"), lam=st.floats(0.01, 5.0), t0=t0),
    )


@settings(max_examples=300, deadline=None)
@given(s=any_schedules(), tau=st.floats(-10.0, 1e6))
def test_factor_text_gives_factors_bits(s, tau):
    # log xi, log phi, nu and g bit for bit; where phi leaves double range Factors.phi raises, and before t0
    # both raise the same ValueError
    t = s.t0 + tau
    if t < s.t0:
        with pytest.raises(ValueError) as want:
            _python_factors(s, t)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            s.factors(t)
        return
    f = s.factors(t)
    assert (f.kind, f.t) == (s.kind, t)
    assert [x.hex() for x in (f.log_xi, f.log_phi, f.nu, f.g)] == [x.hex() for x in _python_factors(s, t)]
    if f.log_phi > _LOG_MAX:
        with pytest.raises(OverflowError):
            f.phi
