"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are stored in barycentric coordinates with weights that sum
to one, so that

    integral over T of f dx  =  area(T) * sum_i w_i * f(x_i)

Edge rules are Gauss-Legendre points mapped to [0, 1] with weights summing
to one, to be scaled by the edge length.

The 6-point (degree 4) and 12-point (degree 6) triangle rules are the
symmetric rules of Dunavant (IJNME 21, 1985); all weights are positive and
all points are interior, which matters here because integrands are sampled
arbitrarily close to boundary singularities.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Point set and weights; ``points`` are barycentric triples for
    triangle rules and 1D coordinates in [0, 1] for edge rules."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def _symmetric_orbit(a):
    """The three permutations of (1 - 2a, a, a)."""
    c = 1.0 - 2.0 * a
    return [(c, a, a), (a, c, a), (a, a, c)]


def _full_orbit(a, b, c):
    """All six permutations of distinct barycentric coordinates."""
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def triangle_rule(degree: int) -> QuadratureRule:
    """Symmetric triangle rule exact for bivariate polynomials of the
    requested total degree (supported: 1, 2, 4, 6)."""
    if degree <= 1:
        pts = [(1 / 3, 1 / 3, 1 / 3)]
        wts = [1.0]
        deg = 1
    elif degree == 2:
        pts = _symmetric_orbit(1 / 6)
        wts = [1 / 3] * 3
        deg = 2
    elif degree <= 4:
        pts = _symmetric_orbit(0.445948490915965) + _symmetric_orbit(0.091576213509771)
        wts = [0.223381589678011] * 3 + [0.109951743655322] * 3
        deg = 4
    elif degree <= 6:
        pts = (
            _symmetric_orbit(0.249286745170910)
            + _symmetric_orbit(0.063089014491502)
            + _full_orbit(0.310352451033785, 0.636502499121399, 0.053145049844816)
        )
        wts = [0.116786275726379] * 3 + [0.050844906370207] * 3 + [0.082851075618374] * 6
        deg = 6
    else:
        raise ValueError(f"no triangle rule of degree {degree} available")
    points = np.asarray(pts, dtype=float)
    weights = np.asarray(wts, dtype=float)
    weights = weights / weights.sum()  # pin the constant exactly
    return QuadratureRule(points, weights, deg)


def edge_rule(npoints: int = 3) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact to degree 2*npoints - 1."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    points = 0.5 * (x + 1.0)
    weights = 0.5 * w
    return QuadratureRule(points, weights, 2 * npoints - 1)


# Degrees used throughout: 4 for assembly (exact for quartic products of P1
# data), 6 for error norms and estimator volume terms, 3-point Gauss
# (degree 5) on edges.
ASSEMBLY_DEGREE = 4
ERROR_DEGREE = 6
EDGE_POINTS = 3
