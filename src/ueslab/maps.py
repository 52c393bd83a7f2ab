"""Scalar cost maps, their derivatives, and growth-envelope verification.

A cost map is a smooth scalar objective over R^n with a unique minimizer,
built complete: its minimizer, optimal value, envelope bounds and closed-form
gradient and Hessian are all required.  ``grad_fd`` and ``hess_fd`` check the
closed forms by central differences; ``verify_power_bounds`` measures
empirical two-sided power-law envelopes of the cost, its gradient, and its
Hessian on a ball around the minimizer.

A map is built from the texts of its closed forms, each one expression with
{i} for coordinate i: the centered cost J - J*, and J* plus it as the cost,
and the gradient.  ``eval``, ``centered`` and ``grad`` are compiled from them,
and the closed loops write the same texts into their generated RK4 steps.
The compiled forms take theta as a sequence whose item i is coordinate i,
n floats for one input, or n numpy arrays of B floats each for B inputs at
once; ``eval`` and ``centered`` return a float or such an array, ``grad`` a
sequence of n components of the same kind.  ``__call__``,
``centered_value`` and ``gradient`` validate single inputs, and a map's
vectors (its optimum, a gradient) are ``array('d')``.  The Hessians and the
checks by finite differences and sampling are test oracles: they import
numpy when called, so building and running a map never does.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Tuple

from .errors import AssumptionViolation
from .sim import floats, generated

GRAD_STEP = 1e-5
HESS_STEP = 1e-4


@dataclass(frozen=True)
class PowerBounds:
    """Envelope constants: a for the cost, b for the gradient, c for the Hessian.

    Each pair (x1, x2) brackets the ratio of the centered quantity to the
    matching power of the distance from the minimizer.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float

    def __post_init__(self):
        for name, lo, hi in (("a", self.a1, self.a2), ("b", self.b1, self.b2), ("c", self.c1, self.c2)):
            if not (lo > 0.0 and hi > 0.0):
                raise ValueError(f"{name}-bounds must be positive, got ({lo}, {hi})")
            if lo > hi:
                raise ValueError(f"{name}1 <= {name}2 required, got ({lo}, {hi})")


@dataclass(frozen=True)
class CostMap:
    """Static scalar objective, built from the texts of its closed forms.

    dim            input dimension n
    kappa          convexity order: 1 for strongly convex behavior, larger for flatter minima
    centered_text  (text, names): the cancellation-free J - J*, which must vanish at the optimum, as one
                   expression with {i} for coordinate i, and the numbers it reads by name (q_i, star_i)
    grad_text      (text, names) of the gradient, one tuple display of n components
    hess           closed-form Hessian: theta -> n rows of n floats
    optimum        minimizer theta*, at which the gradient must vanish
    optimal_value  cost J* at the minimizer, finite
    bounds         analytic PowerBounds
    name           the map's name, as configs address it

    The cost's ``value_text`` is derived, ``f"{J*!r} + ({centered})"`` or for J* = 0.0 the centered text, and
    ``eval``, ``centered`` and ``grad`` are compiled when the map is built; the closed loops write the texts inline.
    """

    dim: int
    kappa: int
    centered_text: Tuple[str, Mapping[str, float]]
    grad_text: Tuple[str, Mapping[str, float]]
    hess: Callable[[Sequence[float]], Sequence[Sequence[float]]]
    optimum: array
    optimal_value: float
    bounds: PowerBounds
    name: str
    value_text: Tuple[str, Mapping[str, float]] = field(init=False, repr=False, compare=False)
    eval: Callable = field(init=False, repr=False, compare=False)
    centered: Callable = field(init=False, repr=False, compare=False)
    grad: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if self.kappa < 1:
            raise ValueError(f"kappa must be a positive integer, got {self.kappa}")
        centered, names, j_star = *self.centered_text, float(self.optimal_value)
        object.__setattr__(self, "value_text", (f"{j_star!r} + ({centered})" if j_star else centered, names))
        coords = [f"th_{i}" for i in range(self.dim)]  # theta unpacked into its dim coordinates
        for form, (text, names) in (("eval", self.value_text), ("centered", self.centered_text), ("grad", self.grad_text)):
            body = f"{', '.join(coords)}, = th\nreturn {text.format(*coords)}\n"
            object.__setattr__(self, form, generated("form(th)", body, names, f"<map form over {self.dim} coordinates>"))
        star = floats(self.optimum)
        object.__setattr__(self, "optimum", star)
        g, jc = self.gradient(star), float(self.centered(star))
        if not all(map(math.isfinite, g)) or math.hypot(*g) >= 1e-8:
            raise ValueError(f"gradient at declared optimum must vanish, |grad| = {math.hypot(*g):g}")
        if jc != 0.0 or not math.isfinite(j_star):
            raise ValueError(f"need a finite J* and J - J* = 0 at the declared optimum, got J* = {j_star}, J - J* = {jc:g}")

    def _as_input(self, theta) -> array:
        try:
            th = floats(theta)
        except TypeError:
            th = None
        if th is None or len(th) != self.dim:
            raise ValueError(f"input {theta!r} does not have the shape ({self.dim},) the map expects")
        return th

    def __call__(self, theta) -> float:
        """Cost value at theta; validates the input dimension."""
        return float(self.eval(self._as_input(theta)))

    def centered_value(self, theta) -> float:
        """eval(theta) - optimal_value by the cancellation-free form."""
        return float(self.centered(self._as_input(theta)))

    def gradient(self, theta) -> array:
        return array("d", self.grad(self._as_input(theta)))

    def hessian(self, theta):
        """The (n, n) numpy array of the closed-form Hessian at theta."""
        import numpy as np

        return np.asarray(self.hess(self._as_input(theta)), dtype=float).reshape(self.dim, self.dim)


def grad_fd(map: CostMap, theta):
    """Central-difference gradient with per-component step GRAD_STEP * max(1, |theta_i|), as a numpy array."""
    import numpy as np

    th = np.asarray(map._as_input(theta))
    g = np.empty(map.dim)
    for i in range(map.dim):
        hi = GRAD_STEP * max(1.0, abs(th[i]))
        e = np.zeros(map.dim)
        e[i] = hi
        g[i] = (map.eval(th + e) - map.eval(th - e)) / (2.0 * hi)
    return g


def hess_fd(map: CostMap, theta):
    """Symmetric central-difference Hessian with per-component step HESS_STEP * max(1, |theta_i|), as a numpy array."""
    import numpy as np

    th = np.asarray(map._as_input(theta))
    n = map.dim
    steps = np.array([HESS_STEP * max(1.0, abs(th[i])) for i in range(n)])
    H = np.empty((n, n))
    f0 = float(map.eval(th))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        H[i, i] = (map.eval(th + ei) - 2.0 * f0 + map.eval(th - ei)) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            H[i, j] = (
                map.eval(th + ei + ej) - map.eval(th + ei - ej) - map.eval(th - ei + ej) + map.eval(th - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
            H[j, i] = H[i, j]
    return H


def verify_power_bounds(map: CostMap, radius: float, samples: int, seed: int) -> PowerBounds:
    """Empirical envelope constants on a ball around the minimizer.

    Draws seeded uniform samples in the ball of the given radius around the
    optimum (the optimum itself is excluded to avoid 0/0) and returns the
    observed infima/suprema of the three centered ratios.  The result is a
    valid witness on the sampled set only; the ball radius is the caller's
    choice and is echoed in error messages.
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 2:
        raise ValueError(f"at least 2 samples required, got {samples}")
    import numpy as np

    rng = np.random.default_rng(seed)
    n, star, kap = map.dim, np.asarray(map.optimum), map.kappa
    dirs = rng.standard_normal((samples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.random(samples) ** (1.0 / n)
    radii = np.maximum(radii, 1e-9 * radius)  # excludes the minimizer itself

    j_ratio = np.empty(samples)
    g_ratio = np.empty(samples)
    h_ratio = np.empty(samples)
    for s in range(samples):
        th = star + radii[s] * dirs[s]
        d = np.linalg.norm(th - star)
        jc = map.centered_value(th)
        gn = np.linalg.norm(map.gradient(th))
        hn = np.linalg.norm(map.hessian(th), 2)
        if not (np.isfinite(jc) and np.isfinite(gn) and np.isfinite(hn)):
            raise FloatingPointError(f"non-finite cost data at theta={th} (radius {radius})")
        j_ratio[s] = jc / d ** (2 * kap)
        g_ratio[s] = gn / d ** (2 * kap - 1)
        h_ratio[s] = hn / d ** (2 * kap - 2)

    if j_ratio.min() <= 0.0:
        worst = int(np.argmin(j_ratio))
        th = star + radii[worst] * dirs[worst]
        raise AssumptionViolation(
            f"map '{map.name}': centered cost ratio {j_ratio.min():g} <= 0 at theta={th} "
            f"(ball radius {radius}, {samples} samples); no unique minimum of order kappa={kap} there"
        )
    return PowerBounds(
        a1=float(j_ratio.min()), a2=float(j_ratio.max()),
        b1=float(g_ratio.min()), b2=float(g_ratio.max()),
        c1=float(h_ratio.min()), c2=float(h_ratio.max()),
    )


def quartic_paper() -> CostMap:
    """1-D quartic cost 1 + (theta - 2)^4 with a flat (order-2) minimum at 2."""
    return CostMap(dim=1, kappa=2, centered_text=("({0} - 2.0) ** 4", {}), grad_text=("(4.0 * ({0} - 2.0) ** 3, )", {}),
                   hess=lambda th: [[12.0 * (th[0] - 2.0) ** 2]], optimum=[2.0], optimal_value=1.0,
                   bounds=PowerBounds(1.0, 1.0, 4.0, 4.0, 12.0, 12.0), name="quartic_paper")


def quadratic(q=1.0, theta_star=0.0) -> CostMap:
    """Diagonal quadratic cost sum_i q_i (theta_i - theta*_i)^2, strongly convex; centered is its value."""
    qv, star = floats(q), floats(theta_star)
    if len(qv) != len(star):
        raise ValueError(f"map.q and map.theta_star must list equally many values, got {len(qv)} and {len(star)}")
    if not qv:
        raise ValueError("map.q and map.theta_star must list at least one value, got none")
    if not all(math.isfinite(q_i) and q_i > 0.0 for q_i in qv):
        raise ValueError(f"map.q must be positive, got {', '.join(map(format, qv))}")
    if not all(map(math.isfinite, star)):
        raise ValueError(f"map.theta_star must be finite, got {', '.join(map(format, star))}")
    n, qmin, qmax = len(qv), min(qv), max(qv)
    # left to right over floats or (B,) arrays, as numpy's (qv * (th.T - star) ** 2).sum(axis=-1)
    # adds for n < 8; the builtin sum() compensates its rounding from Python 3.12 on.  The first
    # term stands alone: with q_i > 0 no term is -0.0, so 0.0 + term would give the term's bits
    names = {f"q_{i}": q_i for i, q_i in enumerate(qv)} | {f"star_{i}": s_i for i, s_i in enumerate(star)}
    centered = (" + ".join(f"q_{i} * (({{{i}}} - star_{i}) * ({{{i}}} - star_{i}))" for i in range(n)), names)
    grad = ("(" + "".join(f"2.0 * q_{i} * ({{{i}}} - star_{i}), " for i in range(n)) + ")", names)
    hess = lambda th: [[2.0 * q_i if i == j else 0.0 for j in range(n)] for i, q_i in enumerate(qv)]
    return CostMap(dim=n, kappa=1, centered_text=centered, grad_text=grad, hess=hess,
                   optimum=star, optimal_value=0.0, name="quadratic",
                   bounds=PowerBounds(qmin, qmax, 2.0 * qmin, 2.0 * qmax, 2.0 * qmax, 2.0 * qmax))


# the maps configs address, their one home: name -> (builder, its (argument, config key) pairs)
MAPS = {"quartic_paper": (quartic_paper, ()), "quadratic": (quadratic, (("q", "map.q"), ("theta_star", "map.theta_star")))}
