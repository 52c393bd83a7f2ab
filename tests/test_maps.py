"""Cost maps: values, derivatives, validation, and envelope verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ueslab as u
from ueslab.errors import AssumptionViolation, CapabilityError


def test_quartic_values():
    m = u.quartic_paper()
    assert m([2.0]) == 1.0
    assert m([0.0]) == 17.0
    assert m([3.0]) == 2.0
    assert m.centered_value([3.0]) == 1.0
    assert m.kappa == 2
    np.testing.assert_allclose(m.optimum, [2.0])


def test_quartic_centered_is_exact():
    # the dedicated centered form avoids the 1 + x - 1 cancellation entirely
    m = u.quartic_paper()
    for x in (2.0, 2.0 + 1e-8, 1.5, -3.0, 7.25):
        assert m.centered_value([x]) == (x - 2.0) ** 4


def test_quartic_analytic_derivatives():
    m = u.quartic_paper()
    np.testing.assert_allclose(m.gradient([3.0]), [4.0])
    np.testing.assert_allclose(m.hessian([3.0]), [[12.0]])
    np.testing.assert_allclose(u.grad_fd(m, [3.0]), [4.0], rtol=1e-8)
    np.testing.assert_allclose(u.hess_fd(m, [3.0]), [[12.0]], rtol=1e-6)


def test_quadratic_vector_case():
    m = u.quadratic(q=[1.0, 2.0], theta_star=[0.0, 1.0])
    assert m.dim == 2
    assert m([0.0, 1.0]) == 0.0
    assert m([1.0, 2.0]) == 3.0
    np.testing.assert_allclose(m.gradient([1.0, 2.0]), [2.0, 4.0])
    np.testing.assert_allclose(m.hessian([1.0, 2.0]), [[2.0, 0.0], [0.0, 4.0]])
    b = m.bounds
    assert (b.a1, b.a2, b.b1, b.b2, b.c1, b.c2) == (1.0, 2.0, 2.0, 4.0, 4.0, 4.0)


def test_quadratic_adds_left_to_right():
    # numpy's .sum(axis=-1) gives 1e16 here; a compensated sum, as the builtin sum() is from
    # Python 3.12 on, gives 1.0000000000000002e16
    m = u.quadratic(q=[1.0, 1.0, 1.0], theta_star=[0.0, 0.0, 0.0])
    assert m.eval((1e8, 1.0, 1.0)) == 1e16
    np.testing.assert_array_equal(m.eval(np.array([[1e8], [1.0], [1.0]])), [1e16])


def _loop_quadratic(q, star):
    """The quadratic's value as the plain loop it was before its text: the reference the compiled eval must equal."""
    terms = list(zip(q, star))

    def value(th):
        acc = 0.0
        for (q_i, s_i), a in zip(terms, th):
            acc += q_i * ((a - s_i) * (a - s_i))
        return acc

    return value


_COORDS = st.sampled_from([0.0, -0.0, 5e-324, -1e-160, 1e154, -1e200, 1e8, 1.0]) | st.floats(allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compiled_quadratic_value_equals_loop(data):
    # bit for bit on floats, on (n,) arrays and on (n, B) arrays, overflow to inf included
    n = data.draw(st.integers(1, 5))
    q = data.draw(st.lists(st.floats(1e-300, 1e300), min_size=n, max_size=n))
    star = data.draw(st.lists(st.floats(-1e10, 1e10), min_size=n, max_size=n))
    cols = np.array(data.draw(st.lists(st.lists(_COORDS, min_size=n, max_size=n), min_size=1, max_size=4))).T
    m, want = u.quadratic(q=q, theta_star=star), _loop_quadratic(q, star)
    with np.errstate(over="ignore", invalid="ignore"):
        for th in cols.T:
            assert np.float64(m.eval(tuple(th.tolist()))).tobytes() == np.float64(want(tuple(th.tolist()))).tobytes()
            assert np.float64(m.eval(th)).tobytes() == np.float64(want(th)).tobytes()
        assert m.eval(cols).tobytes() == want(cols).tobytes()


def test_closed_forms_take_batches():
    # coordinates on the leading axis: (n, B) in, (B,) values and (n, B) gradients out
    rng = np.random.default_rng(2)
    for m in (u.quartic_paper(), u.quadratic(q=[1.0, 2.0, 3.0], theta_star=[0.5, -1.0, 2.0])):
        th = rng.uniform(-3.0, 3.0, (m.dim, 5))
        for form in (m.eval, m.centered):
            values = form(th)
            assert values.shape == (5,)
            np.testing.assert_allclose(values, [form(col) for col in th.T], rtol=1e-15)
        grads = np.asarray(m.grad(th))
        assert grads.shape == (m.dim, 5)
        np.testing.assert_allclose(grads, np.column_stack([np.asarray(m.grad(col)) for col in th.T]), rtol=1e-15)


def test_fd_fallback_when_no_closed_forms():
    m = u.CostMap(dim=1, eval=lambda th: (th[0] - 1.0) ** 2, kappa=1)
    np.testing.assert_allclose(m.gradient([2.0]), [2.0], rtol=1e-8)
    np.testing.assert_allclose(m.hessian([2.0]), [[2.0]], rtol=1e-6)


def test_declared_optimum_must_be_critical():
    with pytest.raises(ValueError, match="optimum"):
        u.CostMap(dim=1, eval=lambda th: (th[0] - 1.0) ** 2, kappa=1, optimum=[0.0])


def test_input_dimension_validated():
    m = u.quartic_paper()
    with pytest.raises(ValueError, match="shape"):
        m([1.0, 2.0])


def test_centered_value_needs_reference():
    m = u.CostMap(dim=1, eval=lambda th: th[0] ** 2, kappa=1)
    with pytest.raises(CapabilityError):
        m.centered_value([1.0])


def test_power_bounds_validation():
    with pytest.raises(ValueError):
        u.PowerBounds(2.0, 1.0, 1.0, 1.0, 1.0, 1.0)  # a1 > a2
    with pytest.raises(ValueError):
        u.PowerBounds(1.0, 1.0, -1.0, 1.0, 1.0, 1.0)  # negative


def test_verify_power_bounds_quartic_exact():
    # the quartic's three ratios are constant on any ball, so the empirical
    # envelope collapses to the analytic constants
    b = u.verify_power_bounds(u.quartic_paper(), radius=1.0, samples=200, seed=0)
    np.testing.assert_allclose(
        [b.a1, b.a2, b.b1, b.b2, b.c1, b.c2], [1.0, 1.0, 4.0, 4.0, 12.0, 12.0], rtol=1e-9
    )


def test_verify_power_bounds_flags_maximum():
    # a critical point that is a maximum: centered cost is negative nearby
    m = u.CostMap(
        dim=1,
        eval=lambda th: 1.0 - th[0] ** 2,
        kappa=1,
        grad=lambda th: np.array([-2.0 * th[0]]),
        hess=lambda th: np.array([[-2.0]]),
        optimum=[0.0],
        optimal_value=1.0,
        name="hilltop",
    )
    with pytest.raises(AssumptionViolation, match="hilltop"):
        u.verify_power_bounds(m, radius=0.5, samples=50, seed=1)


def test_verify_power_bounds_deterministic():
    m = u.quadratic(q=[1.0, 3.0], theta_star=[0.0, 0.0])
    b1 = u.verify_power_bounds(m, radius=2.0, samples=64, seed=11)
    b2 = u.verify_power_bounds(m, radius=2.0, samples=64, seed=11)
    assert b1 == b2


def test_named_map_registry():
    m = u.named_map("quadratic", q=2.0, theta_star=1.0)
    assert m.dim == 1 and m([1.0]) == 0.0
    assert u.named_map("quartic_paper").name == "quartic_paper"
    with pytest.raises(ValueError, match="available"):
        u.named_map("does_not_exist")


@settings(max_examples=50, deadline=None)
@given(
    th=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
)
def test_fd_gradient_matches_analytic_quadratic(th):
    m = u.quadratic(q=[1.0, 2.5], theta_star=[0.5, -1.0])
    g_exact = m.gradient(th)
    g_fd = u.grad_fd(m, th)
    np.testing.assert_allclose(g_fd, g_exact, rtol=1e-6, atol=1e-7)
