"""Schedules: pinned table values, domain checks, and algebraic invariants."""

import math
import re
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ueslab import Schedule
from ueslab.schedules import _LOG_MAX

# keep random times small enough that phi stays inside double range
TIMES = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)


def asymptotic_schedules():
    return st.builds(
        Schedule.asymptotic,
        beta=st.floats(0.01, 2.0),
        v=st.floats(0.1, 3.0),
        r=st.floats(0.0, 6.0),
    )


def test_nominal_is_identity():
    s = Schedule.nominal()
    for t in (0.0, 1.0, 17.3, 1e6):
        assert s.nu(t) == 1.0
        assert s.phi(t) == 1.0
        assert s.xi(t) == 1.0


def test_asymptotic_pinned_values():
    s = Schedule.asymptotic(beta=0.1, v=1.0 / 3.0, r=4.0)
    assert s.xi(10.0) == pytest.approx(8.0, rel=1e-12)
    assert s.nu(10.0) == pytest.approx(0.125, rel=1e-12)
    assert s.nu(90.0) == pytest.approx(1e-3, rel=1e-12)
    assert s.phi(10.0) == pytest.approx(4096.0, rel=1e-12)
    assert s.nu(0.0) == 1.0 and s.phi(0.0) == 1.0


def test_exponential_pinned_values():
    s = Schedule.exponential(lam=0.1)
    assert s.xi(10.0) == pytest.approx(math.e, rel=1e-12)
    assert s.nu(10.0) == pytest.approx(1.0 / math.e, rel=1e-12)
    assert s.phi(10.0) == pytest.approx(math.e**2, rel=1e-12)


def test_start_time_shift():
    s = Schedule.asymptotic(beta=0.1, v=1.0 / 3.0, r=4.0, t0=5.0)
    assert s.xi(15.0) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError, match="precedes"):
        s.nu(4.9)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Schedule.asymptotic(beta=-1.0, v=0.5, r=1.0)
    with pytest.raises(ValueError):
        Schedule.asymptotic(beta=0.1, v=0.0, r=1.0)
    with pytest.raises(ValueError):
        Schedule.asymptotic(beta=0.1, v=0.5, r=-0.1)
    with pytest.raises(ValueError):
        Schedule.exponential(lam=0.0)
    with pytest.raises(ValueError, match="kind"):
        Schedule(kind="linear")


def test_phi_overflow_is_explicit():
    s = Schedule.exponential(lam=1.0)
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
    s = Schedule.exponential(lam=lam)
    assert s.phi(t) == pytest.approx(s.xi(t) ** 2, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(s=asymptotic_schedules(), t1=TIMES, t2=TIMES)
def test_amplitude_decays_gain_grows(s, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert s.nu(hi) <= s.nu(lo) * (1.0 + 1e-12)
    assert s.phi(hi) * (1.0 + 1e-12) >= s.phi(lo)


def _factor_function(s):
    """The schedule's frame text (its factor text, then log xi and g) at one time, compiled as a function
    of t returning (nu, log phi, phi, log xi, g)."""
    text, names = s.frame_text("t", "f")
    src = "def at(t):\n" + textwrap.indent(text + f"return ({', '.join(names)})\n", "    ")
    namespace = s.text_names()
    exec(src, namespace)
    return namespace["at"]


def any_schedules():
    t0 = st.floats(0.0, 50.0)
    return st.one_of(
        st.builds(Schedule.nominal, t0=t0),
        st.builds(Schedule.asymptotic, beta=st.floats(0.01, 2.0), v=st.floats(0.05, 3.0), r=st.floats(0.0, 20.0), t0=t0),
        st.builds(Schedule.exponential, lam=st.floats(0.01, 5.0), t0=t0),
    )


@settings(max_examples=300, deadline=None)
@given(s=any_schedules(), tau=st.floats(-10.0, 1e6))
def test_factor_text_gives_factors_bits(s, tau):
    # nu, log phi, phi, log xi and g bit for bit; where phi leaves double range the text reads inf and
    # Factors.phi raises, and before t0 both raise the same ValueError
    t = s.t0 + tau
    factors = _factor_function(s)
    if t < s.t0:
        with pytest.raises(ValueError) as want:
            s.factors(t)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            factors(t)
        return
    nu, log_phi, phi, log_xi, g = factors(t)
    f = s.factors(t)
    assert (nu.hex(), log_phi.hex(), log_xi.hex(), g.hex()) == (f.nu.hex(), f.log_phi.hex(), f.log_xi.hex(), f.g.hex())
    if f.log_phi > _LOG_MAX:
        assert phi == math.inf
        with pytest.raises(OverflowError):
            f.phi
    else:
        assert phi.hex() == f.phi.hex()
