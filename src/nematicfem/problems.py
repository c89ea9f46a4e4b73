"""The three benchmark problems.

Manufactured problems supply the exact solution, its gradient, the
matching Dirichlet data and the source

    f = -laplace(exact) - (2/eps^2) (1 - |exact|^2) exact

in closed form (the singular r^a parts are harmonic, so only the algebraic
part of f survives).  The square-device problem has no exact solution; its
six equilibrium states are selected through the solver's initial guesses.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ConfigError
from .mesh import DomainShape, L_SHAPE, SLIT_SQUARE, UNIT_SQUARE


@dataclass(frozen=True)
class ProblemSpec:
    """Domain, model parameter and data of one benchmark run: ``g``, ``f``
    and ``exact`` map (N, 2) points to (N, 2) values, ``exact_grad`` to
    (N, 2, 2) with axes (point, component, direction)."""

    name: str
    shape: DomainShape
    epsilon: float
    g: Callable[[np.ndarray], np.ndarray]
    f: Optional[Callable[[np.ndarray], np.ndarray]]
    exact: Optional[Callable[[np.ndarray], np.ndarray]] = None
    exact_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def has_exact(self) -> bool:
        return self.exact is not None


def _polar(points):
    """Radius and angle in [0, 2 pi), the branch cut along the positive
    x-axis.  Points with y = +0.0 get angle 0, y = -0.0 gets 2 pi only for
    genuinely negative y, so both slit faces and the L-shape legs evaluate
    on the correct branch."""
    x, y = points[:, 0], points[:, 1]
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    theta = np.where(theta < 0, theta + 2 * np.pi, theta)
    return r, theta


def _cubic_source(values, epsilon):
    norm2 = (values ** 2).sum(axis=1, keepdims=True)
    return -2.0 / epsilon ** 2 * (1.0 - norm2) * values


def check_epsilon(epsilon: float):
    """Raise :class:`ConfigError` unless epsilon is positive with a nonzero
    square: the bulk terms divide by epsilon^2."""
    if not (epsilon > 0 and epsilon ** 2 > 0):
        raise ConfigError("epsilon must be positive, with a nonzero square")


def lshape_problem(epsilon: float) -> ProblemSpec:
    """Manufactured solution (r^{2/3} sin(2 theta / 3), r^{1/2} sin(theta/2))
    around the re-entrant corner; both components are harmonic, vanish on
    the leg along the positive x-axis, and belong to H^{1+alpha} with
    alpha = 1/2 (up to kappa) on the L-shape.  The dual problem's
    regularity index at the re-entrant corner is alpha* = 2/3, so on
    uniform meshes the duality argument gives the L2 order
    alpha + alpha* = 7/6 rather than 2 alpha = 1."""
    check_epsilon(epsilon)

    def exact(points):
        r, th = _polar(points)
        u = r ** (2.0 / 3.0) * np.sin(2.0 * th / 3.0)
        v = np.sqrt(r) * np.sin(th / 2.0)
        return np.stack([u, v], axis=1)

    def exact_grad(points):
        r, th = _polar(points)
        rs = np.where(r == 0, 1.0, r)  # gradient is singular at the corner
        cu = (2.0 / 3.0) * rs ** (-1.0 / 3.0)
        gu = np.stack([-cu * np.sin(th / 3.0), cu * np.cos(th / 3.0)], axis=1)
        cv = 0.5 / np.sqrt(rs)
        gv = np.stack([-cv * np.sin(th / 2.0), cv * np.cos(th / 2.0)], axis=1)
        return np.stack([gu, gv], axis=1)

    def source(points):
        return _cubic_source(exact(points), epsilon)

    return ProblemSpec("lshape", DomainShape(L_SHAPE), epsilon,
                       g=exact, f=source, exact=exact, exact_grad=exact_grad)


def slit_problem(epsilon: float) -> ProblemSpec:
    """Manufactured solution u = v = r^{1/2} sin(theta/2) - y^2/2 around the
    slit tip; the square-root part is harmonic, the quadratic part
    contributes a constant 1 to -laplace(exact) per component."""
    check_epsilon(epsilon)

    def exact(points):
        r, th = _polar(points)
        s = np.sqrt(r) * np.sin(th / 2.0) - 0.5 * points[:, 1] ** 2
        return np.stack([s, s], axis=1)

    def exact_grad(points):
        r, th = _polar(points)
        rs = np.where(r == 0, 1.0, r)
        c = 0.5 / np.sqrt(rs)
        gx = -c * np.sin(th / 2.0)
        gy = c * np.cos(th / 2.0) - points[:, 1]
        grad = np.stack([gx, gy], axis=1)
        return np.stack([grad, grad], axis=1)

    def source(points):
        return 1.0 + _cubic_source(exact(points), epsilon)

    return ProblemSpec("slit", DomainShape(SLIT_SQUARE), epsilon,
                       g=exact, f=source, exact=exact, exact_grad=exact_grad)


def trapezoid_profile(t, d):
    """Ramp 0 -> 1 over [0, d], plateau 1, ramp back down over [1-d, 1]."""
    t = np.asarray(t, dtype=float)
    return np.clip(np.minimum(t, 1.0 - t) / d, 0.0, 1.0)


def device_problem(epsilon: float) -> ProblemSpec:
    """Square well with tangent boundary conditions: the order parameter on
    the boundary is (T_d(x), 0) on the horizontal edges and (-T_d(y), 0) on
    the vertical ones, with ramp width d = 3 epsilon; no source, no exact
    solution.  ``g`` continues this data into the whole square from the
    nearest edge (a horizontal one where min(y, 1-y) <= min(x, 1-x)), which
    is what the director guesses blend into."""
    check_epsilon(epsilon)
    d = 3.0 * epsilon
    if d >= 0.5:
        raise ConfigError(
            f"trapezoid ramp width d = 3*epsilon = {d} must stay below 1/2")

    def g(points):
        x, y = points[:, 0], points[:, 1]
        horizontal = np.minimum(y, 1.0 - y) <= np.minimum(x, 1.0 - x)
        vals = np.zeros_like(points)
        vals[horizontal, 0] = trapezoid_profile(x[horizontal], d)
        vals[~horizontal, 0] = -trapezoid_profile(y[~horizontal], d)
        return vals

    return ProblemSpec("device", DomainShape(UNIT_SQUARE), epsilon,
                       g=g, f=None)


_BUILDERS = {"lshape": lshape_problem, "slit": slit_problem,
             "device": device_problem}


def make_problem(name: str, epsilon: float) -> ProblemSpec:
    if name not in _BUILDERS:
        raise ConfigError(f"unknown problem {name!r}; expected one of "
                          f"{sorted(_BUILDERS)}")
    return _BUILDERS[name](epsilon)
