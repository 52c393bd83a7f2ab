"""Scalar cost maps, their derivatives, and growth-envelope verification.

A cost map is a smooth scalar objective over R^n with a unique minimizer.
Closed-form gradients/Hessians are optional; central finite differences fill
in when they are absent.  ``verify_power_bounds`` measures empirical two-sided
power-law envelopes of the cost, its gradient, and its Hessian on a ball
around the minimizer.

The closed forms ``eval``, ``centered`` and ``grad`` are written per
coordinate: they take theta as a sequence whose item i is coordinate i, n
floats or an (n,) array for one input, or an (n, B) array for B inputs at
once.  ``eval`` and ``centered`` return a scalar or a (B,) array, ``grad`` a
sequence of n components of the same kind.  The closed loops take them
without validation, having checked the dimension once when the loop was
assembled.  ``__call__``, ``centered_value`` and ``gradient`` are
the validating entry points for single inputs.

A built-in map carries ``eval``, ``centered`` and ``grad`` as text too,
from which those callables are compiled.  The closed loops write the texts
into their generated RK4 steps, and call the forms of a map without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .errors import AssumptionViolation, CapabilityError

Array = np.ndarray

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
    """Static scalar objective with optional analytic structure.

    dim            input dimension n
    eval           theta (n floats, (n,) or (n, B)) -> cost value, scalar or (B,)
    kappa          convexity order: 1 for strongly convex behavior, larger for flatter minima
    grad, hess     optional closed forms, grad a sequence of n components; finite
                   differences are used when absent
    optimum        minimizer, for tests and diagnostics only
    optimal_value  cost at the minimizer
    centered       optional cancellation-free evaluation of eval(theta) - optimal_value
    bounds         optional analytic PowerBounds
    value_text     optional (text, names): eval as one expression with {i} for coordinate i,
                   and the numbers it reads by name (q_i, star_i), which no loop text uses
    centered_text  optional (text, names) of centered, as value_text is of eval
    grad_text      optional (text, names) of grad, one tuple display of n components

    The closed loops evaluate eval, centered and grad per coordinate, from
    their text where the map has it; a loop that needs a form the map lacks
    refuses it when it is assembled.
    """

    dim: int
    eval: Callable[[Array], Array]
    kappa: int
    grad: Optional[Callable[[Array], Array]] = None
    hess: Optional[Callable[[Array], Array]] = None
    optimum: Optional[Array] = None
    optimal_value: Optional[float] = None
    centered: Optional[Callable[[Array], Array]] = None
    bounds: Optional[PowerBounds] = None
    name: str = "custom"
    value_text: Optional[Tuple[str, Mapping[str, float]]] = None
    centered_text: Optional[Tuple[str, Mapping[str, float]]] = None
    grad_text: Optional[Tuple[str, Mapping[str, float]]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if self.kappa < 1:
            raise ValueError(f"kappa must be a positive integer, got {self.kappa}")
        if self.optimum is not None:
            star = np.asarray(self.optimum, dtype=float).reshape(self.dim)
            object.__setattr__(self, "optimum", star)
            g = self.gradient(star)
            if not np.all(np.isfinite(g)) or np.linalg.norm(g) >= 1e-8:
                raise ValueError(f"gradient at declared optimum must vanish, |grad| = {np.linalg.norm(g):g}")

    def _as_input(self, theta) -> Array:
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if th.shape != (self.dim,):
            raise ValueError(f"input has shape {th.shape}, map expects ({self.dim},)")
        return th

    def __call__(self, theta) -> float:
        """Cost value at theta; validates the input dimension."""
        return float(self.eval(self._as_input(theta)))

    def centered_value(self, theta) -> float:
        """eval(theta) - optimal_value, using the cancellation-free form when available."""
        th = self._as_input(theta)
        if self.centered is not None:
            return float(self.centered(th))
        if self.optimal_value is None:
            raise CapabilityError(f"map '{self.name}' has no optimal_value; centered evaluation unavailable")
        return float(self.eval(th)) - self.optimal_value

    def gradient(self, theta) -> Array:
        th = self._as_input(theta)
        if self.grad is not None:
            return np.asarray(self.grad(th), dtype=float).reshape(self.dim)
        return grad_fd(self, th)

    def hessian(self, theta) -> Array:
        th = self._as_input(theta)
        if self.hess is not None:
            return np.asarray(self.hess(th), dtype=float).reshape(self.dim, self.dim)
        return hess_fd(self, th)


def grad_fd(map: CostMap, theta) -> Array:
    """Central-difference gradient with per-component step GRAD_STEP * max(1, |theta_i|)."""
    th = map._as_input(theta)
    g = np.empty(map.dim)
    for i in range(map.dim):
        hi = GRAD_STEP * max(1.0, abs(th[i]))
        e = np.zeros(map.dim)
        e[i] = hi
        g[i] = (map.eval(th + e) - map.eval(th - e)) / (2.0 * hi)
    return g


def hess_fd(map: CostMap, theta) -> Array:
    """Symmetric central-difference Hessian with per-component step HESS_STEP * max(1, |theta_i|)."""
    th = map._as_input(theta)
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
    if map.optimum is None or map.optimal_value is None:
        raise CapabilityError(f"map '{map.name}' needs optimum and optimal_value for bound verification")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 2:
        raise ValueError(f"at least 2 samples required, got {samples}")

    rng = np.random.default_rng(seed)
    n, star, kap = map.dim, map.optimum, map.kappa
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


def form_function(dim: int, form_text: Tuple[str, Mapping[str, float]]) -> Callable:
    """The closed form compiled from one of a map's texts, theta unpacked into its dim coordinates."""
    text, names = form_text
    coords = [f"th_{i}" for i in range(dim)]
    src = f"def form(th):\n    {', '.join(coords)}, = th\n    return {text.format(*coords)}\n"
    namespace = dict(names)
    exec(compile(src, f"<map form over {dim} coordinates>", "exec"), namespace)
    return namespace["form"]


def _text_map(dim: int, value, centered, grad, **fields) -> CostMap:
    """A map carrying its value, centered and grad texts, its eval, centered and grad compiled from them."""
    return CostMap(dim=dim, eval=form_function(dim, value), centered=form_function(dim, centered),
                   grad=form_function(dim, grad), value_text=value, centered_text=centered, grad_text=grad, **fields)


def quartic_paper() -> CostMap:
    """1-D quartic cost 1 + (theta - 2)^4 with a flat (order-2) minimum at 2."""
    return _text_map(1, ("1.0 + ({0} - 2.0) ** 4", {}), ("({0} - 2.0) ** 4", {}), ("(4.0 * ({0} - 2.0) ** 3, )", {}),
                     kappa=2, hess=lambda th: np.array([[12.0 * (th[0] - 2.0) ** 2]]), optimum=np.array([2.0]),
                     optimal_value=1.0, bounds=PowerBounds(1.0, 1.0, 4.0, 4.0, 12.0, 12.0), name="quartic_paper")


def quadratic(q=1.0, theta_star=0.0) -> CostMap:
    """Diagonal quadratic cost sum_i q_i (theta_i - theta*_i)^2, strongly convex; centered is its value."""
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    if qv.shape != star.shape:
        raise ValueError(f"q and theta_star must have matching shapes, got {qv.shape} and {star.shape}")
    if np.any(qv <= 0.0):
        raise ValueError(f"all curvature weights must be positive, got {qv}")
    n, qmin, qmax = qv.size, float(qv.min()), float(qv.max())
    # left to right over floats or (B,) arrays, as numpy's (qv * (th.T - star) ** 2).sum(axis=-1)
    # adds for n < 8; the builtin sum() compensates its rounding from Python 3.12 on.  The first
    # term stands alone: with q_i > 0 no term is -0.0, so 0.0 + term would give the term's bits
    names = {f"q_{i}": q_i for i, q_i in enumerate(qv.tolist())} | {f"star_{i}": s_i for i, s_i in enumerate(star.tolist())}
    value = (" + ".join(f"q_{i} * (({{{i}}} - star_{i}) * ({{{i}}} - star_{i}))" for i in range(n)), names)
    grad = ("(" + "".join(f"2.0 * q_{i} * ({{{i}}} - star_{i}), " for i in range(n)) + ")", names)
    return _text_map(n, value, value, grad, kappa=1, hess=lambda th: np.diag(2.0 * qv), optimum=star.copy(),
                     optimal_value=0.0, bounds=PowerBounds(qmin, qmax, 2.0 * qmin, 2.0 * qmax, 2.0 * qmax, 2.0 * qmax),
                     name="quadratic")


BUILTIN_MAPS = {"quartic_paper": quartic_paper, "quadratic": quadratic}


def named_map(name: str, **kwargs) -> CostMap:
    """Build one of the named maps addressable from experiment configs."""
    try:
        builder = BUILTIN_MAPS[name]
    except KeyError:
        raise ValueError(f"unknown map '{name}'; available: {sorted(BUILTIN_MAPS)}") from None
    return builder(**kwargs)
