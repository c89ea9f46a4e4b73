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
from .fespace import DG, Field, boundary_misfit_sq, jump_sq, space_kind
from .forms import MethodConfig
from .quadrature import ERROR_DEGREE


@dataclass
class EstimatorBreakdown:
    """Per-entity estimator contributions and their combined total.

    ``theta_int_edge`` aligns with ``int_edge_ids`` and ``theta_bd_edge``
    with ``bd_edge_ids`` (mesh edge ids).
    """

    theta_tri: np.ndarray
    theta_int_edge: np.ndarray
    theta_bd_edge: np.ndarray
    int_edge_ids: np.ndarray
    bd_edge_ids: np.ndarray
    total: float

    def recompute_total(self) -> float:
        return float(np.sqrt((self.theta_tri ** 2).sum()
                             + (self.theta_int_edge ** 2).sum()
                             + (self.theta_bd_edge ** 2).sum()))


def _volume_term(psi: Field, cfg: MethodConfig, f):
    geom = psi.space.geometry
    lam, w, pts = geom.triangle_points(ERROR_DEGREE)
    nt, nq, _ = pts.shape
    vals = psi.values_at(lam)
    resid = -2.0 / cfg.epsilon ** 2 * ((vals ** 2).sum(-1, keepdims=True) - 1.0) * vals
    if f is not None:
        resid = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(nt, nq, 2) + resid
    sq = (geom.area[:, None] * w[None, :] * (resid ** 2).sum(-1)).sum(1)
    h = psi.space.mesh.triangle_diameters()
    return h * np.sqrt(sq)


def _gradient_jump_sq(psi: Field, int_edges):
    mesh = psi.space.mesh
    grads = psi.gradients()
    tp = mesh.edge_tris[int_edges, 0]
    tm = mesh.edge_tris[int_edges, 1]
    nu = psi.space.geometry.edge_normal[int_edges]
    jump = np.einsum("ncx,nx->nc", grads[tp] - grads[tm], nu)
    return (jump ** 2).sum(1)


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
    return EstimatorBreakdown(theta_tri, theta_int, theta_bd,
                              ie.copy(), bd.copy(), total)


def dump_breakdown(breakdown: EstimatorBreakdown, path):
    """CSV dump `entity_kind,id,value` for visualization."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("entity_kind,id,value\n")
        for i, v in enumerate(breakdown.theta_tri):
            fh.write(f"triangle,{i},{float(v)!r}\n")
        for e, v in zip(breakdown.int_edge_ids, breakdown.theta_int_edge):
            fh.write(f"interior_edge,{e},{float(v)!r}\n")
        for e, v in zip(breakdown.bd_edge_ids, breakdown.theta_bd_edge):
            fh.write(f"boundary_edge,{e},{float(v)!r}\n")
