"""Residual a posteriori error estimators for both methods.

Per entity:

* triangles: h_T^2 times the squared L2 norm of the strong residual
  f - (2/eps^2)(|psi|^2 - 1) psi (the piecewise Laplacian of a P1 field
  vanishes, so this is the full element residual);
* interior edges: h_E times the squared normal-gradient jump, plus, for
  the dG method, 1/h_E times the squared solution jump;
* boundary edges: 1/h_E times the squared data misfit psi - g, with g
  evaluated analytically at the edge quadrature points.

The volume term uses the degree-6 triangle rule, exact for the cubic
residual whenever f = 0.

All contributions are computed entity-wise from read-only inputs and could
be evaluated in parallel; the implementation is vectorized and sequential.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import SpaceMismatchError
from .fespace import (DG, Field, boundary_misfit_sq, evaluate, jump_sq,
                      space_kind, squared_norm, triangle_blocks)
from .forms import MethodConfig
from .quadrature import ERROR_DEGREE, triangle_rule


@dataclass
class EstimatorBreakdown:
    """Per-entity estimator contributions and their combined total.

    ``theta_int_edge`` aligns with the mesh's ``interior_edges`` and
    ``theta_bd_edge`` with its ``boundary_edges``.
    """

    theta_tri: np.ndarray
    theta_int_edge: np.ndarray
    theta_bd_edge: np.ndarray
    total: float

    def recompute_total(self) -> float:
        return float(np.sqrt((self.theta_tri ** 2).sum()
                             + (self.theta_int_edge ** 2).sum()
                             + (self.theta_bd_edge ** 2).sum()))


def _volume_term(psi: Field, cfg: MethodConfig, f):
    """Per-triangle volume term, its quadrature taken over blocks of
    ERROR_BLOCK triangles, so the field values, the data and the residual
    at the points of one block are live at a time."""
    geom = psi.space.geometry
    rule = triangle_rule(ERROR_DEGREE)
    lam, w = rule.points, rule.weights
    sq = np.empty(len(geom.area))
    for blk in triangle_blocks(len(sq)):
        vals = psi.values_at(lam, blk)
        resid = (-2.0 / cfg.epsilon ** 2
                 * (squared_norm(vals) - 1.0)[..., None] * vals)
        if f is not None:
            _, _, bp = geom.triangle_points(ERROR_DEGREE, blk)
            resid = evaluate(f, bp, "source f") + resid
        sq[blk] = (geom.area[blk, None] * w[None, :]
                   * squared_norm(resid)).sum(1)
    h = psi.space.mesh.triangle_diameters()
    return h * np.sqrt(sq)


def _gradient_jump_sq(psi: Field, int_edges):
    mesh = psi.space.mesh
    grads = psi.gradients()
    tp = mesh.edge_tris[int_edges, 0]
    tm = mesh.edge_tris[int_edges, 1]
    nu = psi.space.geometry.edge_normal[int_edges]
    jump = ((grads[tp] - grads[tm]) @ nu[:, :, None])[..., 0]
    return squared_norm(jump)


def estimate(psi: Field, cfg: MethodConfig, g, f=None) -> EstimatorBreakdown:
    """Estimator of the configured method; ``psi`` must live on that
    method's space."""
    kind = space_kind(cfg.method)
    if psi.space.kind != kind:
        raise SpaceMismatchError(
            f"the {cfg.method} estimator acts on {kind} fields, got {psi.space.kind}")
    mesh = psi.space.mesh
    theta_tri = _volume_term(psi, cfg, f)

    ie = mesh.interior_edges
    h_ie = psi.space.geometry.edge_len[ie]
    grad_sq = _gradient_jump_sq(psi, ie) if len(ie) else np.zeros(0)
    int_sq = h_ie ** 2 * grad_sq
    if kind == DG and len(ie):
        int_sq = int_sq + jump_sq(psi, ie) / h_ie

    bd = mesh.boundary_edges
    theta_bd = np.sqrt(boundary_misfit_sq(psi, g, bd)) if len(bd) else np.zeros(0)

    theta_int = np.sqrt(int_sq)
    total = float(np.sqrt((theta_tri ** 2).sum() + int_sq.sum()
                          + (theta_bd ** 2).sum()))
    return EstimatorBreakdown(theta_tri, theta_int, theta_bd, total)
