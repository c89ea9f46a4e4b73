"""P1 spaces (continuous and discontinuous), fields, norms and transfer.

A field holds one two-component piecewise-linear function as a flat
coefficient vector.  Scalar dofs are blocked by component: the first
component occupies coefficients ``[0, nscalar)`` and the second
``[nscalar, 2*nscalar)``.  For the continuous space a scalar dof is a
vertex value; for the dG space it is one of the three vertex values of a
triangle, so neighbouring triangles carry independent copies.

Spaces and quadrature caches are immutable and safe to share across
threads; fields are value-like (a space reference plus a coefficient
vector).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (ConfigError, DataEvaluationError, NestingError,
                         SpaceMismatchError)
from .mesh import Mesh
from .quadrature import (ASSEMBLY_DEGREE, EDGE_POINTS, ERROR_DEGREE,
                         edge_rule, triangle_rule)

CONTINUOUS = "continuous-P1"
DG = "dg-P1"

NITSCHE = "nitsche"
DG_METHOD = "dg"


def space_kind(method: str) -> str:
    """The space a method discretizes on: continuous P1 for Nitsche, broken
    P1 for dG."""
    if method == NITSCHE:
        return CONTINUOUS
    if method == DG_METHOD:
        return DG
    raise ConfigError(f"unknown method {method!r}")


class Space:
    """A two-component P1 space over a mesh.

    ``elem_dofs[t, i]`` is the scalar dof carried by local vertex ``i`` of
    triangle ``t``; full dof ids are ``comp * nscalar + scalar``.
    """

    def __init__(self, mesh: Mesh, kind: str):
        if kind not in (CONTINUOUS, DG):
            raise SpaceMismatchError(f"unknown space kind {kind!r}")
        self.mesh = mesh
        self.kind = kind
        nt = mesh.n_triangles
        if kind == CONTINUOUS:
            self.nscalar = mesh.n_vertices
            self.elem_dofs = mesh.triangles
            self.node_coords = mesh.vertices
        else:
            self.nscalar = 3 * nt
            self.elem_dofs = np.arange(3 * nt, dtype=np.int64).reshape(nt, 3)
            self.node_coords = mesh.vertices[mesh.triangles].reshape(-1, 2)
        self.ndof = 2 * self.nscalar
        self._geom = None

    @classmethod
    def continuous(cls, mesh: Mesh) -> "Space":
        return cls(mesh, CONTINUOUS)

    @classmethod
    def dg(cls, mesh: Mesh) -> "Space":
        return cls(mesh, DG)

    @property
    def geometry(self) -> "MeshGeometry":
        if self._geom is None:
            self._geom = MeshGeometry(self.mesh)
        return self._geom


class MeshGeometry:
    """Per-triangle and per-edge geometric data used by assembly.

    Normals on interior edges point from the lower-id adjacent triangle
    (the "plus" side of jumps) to the higher-id one; boundary normals point
    outward.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        p = mesh.vertices[mesh.triangles]
        a = p[:, 1] - p[:, 0]
        b = p[:, 2] - p[:, 0]
        self.det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        self.area = 0.5 * self.det
        # grad of barycentric i: rotate (p_{i+1} - p_{i+2}) by -90deg, / det
        d = np.stack([p[:, 1] - p[:, 2], p[:, 2] - p[:, 0], p[:, 0] - p[:, 1]],
                     axis=1)
        self.grads = np.stack([d[..., 1], -d[..., 0]], axis=-1) / self.det[:, None, None]

        ev = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
        self.edge_len = np.hypot(ev[:, 0], ev[:, 1])
        tangent = ev / self.edge_len[:, None]
        normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                      + mesh.vertices[mesh.edges[:, 1]])
        cent_plus = mesh.vertices[mesh.triangles[mesh.edge_tris[:, 0]]].mean(axis=1)
        flip = ((mids - cent_plus) * normal).sum(axis=1) < 0
        normal[flip] *= -1
        self.edge_normal = normal

        # local index of each edge endpoint within the adjacent triangles
        tris = mesh.triangles
        self.loc = np.full((mesh.n_edges, 2, 2), -1, dtype=np.int64)
        for side in range(2):
            t = mesh.edge_tris[:, side]
            valid = t >= 0
            tv = tris[t[valid]]
            for end in range(2):
                v = mesh.edges[valid, end]
                self.loc[valid, side, end] = np.argmax(tv == v[:, None], axis=1)

        self._tri_rules = {}
        self._edge_rules = {}

    def triangle_points(self, degree: int):
        """Quadrature data: barycentric weights ``lam`` (Q, 3), physical
        points (T, Q, 2) and combined weights (Q,) to scale by area."""
        if degree not in self._tri_rules:
            rule = triangle_rule(degree)
            pts = np.einsum("qi,tix->tqx", rule.points,
                            self.mesh.vertices[self.mesh.triangles])
            self._tri_rules[degree] = (rule.points, rule.weights, pts)
        return self._tri_rules[degree]

    def edge_points(self, edge_ids, npoints: int = EDGE_POINTS):
        """1D Gauss data on the given edges: hat values (Q, 2), physical
        points (n, Q, 2), weights (Q,)."""
        key = npoints
        if key not in self._edge_rules:
            rule = edge_rule(npoints)
            hats = np.stack([1.0 - rule.points, rule.points], axis=1)
            self._edge_rules[key] = (rule, hats)
        rule, hats = self._edge_rules[key]
        pa = self.mesh.vertices[self.mesh.edges[edge_ids, 0]]
        pb = self.mesh.vertices[self.mesh.edges[edge_ids, 1]]
        pts = pa[:, None, :] + rule.points[None, :, None] * (pb - pa)[:, None, :]
        return hats, pts, rule.weights


@dataclass
class Field:
    """Coefficient vector of one two-component piecewise-linear function."""

    space: Space
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof,):
            raise SpaceMismatchError(
                f"coefficient vector of length {self.coeffs.shape} does not "
                f"match dof count {self.space.ndof}")
        if not np.all(np.isfinite(self.coeffs)):
            raise DataEvaluationError("field coefficients contain non-finite values")

    @property
    def components(self):
        """View of the coefficients as a (2, nscalar) array."""
        return self.coeffs.reshape(2, self.space.nscalar)

    def element_values(self):
        """Nodal values per triangle, shape (T, 3, 2)."""
        c = self.components
        ed = self.space.elem_dofs
        return np.stack([c[0][ed], c[1][ed]], axis=-1)

    def values_at(self, lam):
        """Values at the barycentric points ``lam`` (Q, 3) of every
        triangle, shape (T, Q, 2)."""
        return np.einsum("qi,tic->tqc", lam, self.element_values())

    def gradients(self):
        """Constant gradient per triangle, shape (T, 2, 2) with axes
        (triangle, component, direction)."""
        return np.einsum("tic,tix->tcx", self.element_values(),
                         self.space.geometry.grads)

    def copy(self) -> "Field":
        return Field(self.space, self.coeffs.copy())


def zero_field(space: Space) -> Field:
    return Field(space, np.zeros(space.ndof))


def interpolate(space: Space, fn) -> Field:
    """Nodal interpolation of a pointwise two-vector function."""
    values = np.asarray(fn(space.node_coords), dtype=float)
    if values.shape != (len(space.node_coords), 2):
        raise DataEvaluationError(
            f"data function returned shape {values.shape}, expected "
            f"({len(space.node_coords)}, 2)")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        x, y = space.node_coords[i]
        raise DataEvaluationError(
            f"data function non-finite at node {i} = ({x}, {y})")
    return Field(space, np.concatenate([values[:, 0], values[:, 1]]))


# -- transfer between nested meshes -------------------------------------------


def prolong(coarse: Field, fine_space: Space) -> Field:
    """Exact representation of a coarse field on a refined mesh.

    New vertices created by red refinement or newest-vertex bisection are
    edge midpoints of the parent mesh, so for the continuous space the new
    value is the mean of the parent edge endpoints.  For the dG space each
    child triangle evaluates its parent's linear function at the child's
    vertices via barycentric coordinates.
    """
    if fine_space.mesh.parent is not coarse.space.mesh:
        raise NestingError("fine mesh is not a refinement of the coarse mesh")
    if fine_space.kind != coarse.space.kind:
        raise SpaceMismatchError("prolongation between different space kinds")
    if coarse.space.kind == CONTINUOUS:
        vp = fine_space.mesh.vertex_parents
        cc = coarse.components
        fine = np.concatenate([
            0.5 * (cc[0][vp[:, 0]] + cc[0][vp[:, 1]]),
            0.5 * (cc[1][vp[:, 0]] + cc[1][vp[:, 1]]),
        ])
        return Field(fine_space, fine)

    parents = fine_space.mesh.tri_parents
    pv = coarse.space.mesh.vertices[coarse.space.mesh.triangles[parents]]
    nodes = fine_space.mesh.vertices[fine_space.mesh.triangles]
    # barycentric coordinates of the fine nodes within the parent triangle
    v0, v1, v2 = pv[:, 0], pv[:, 1], pv[:, 2]
    det = ((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
           - (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0]))
    r = nodes - v0[:, None, :]
    l1 = (r[..., 0] * (v2[:, 1] - v0[:, 1])[:, None]
          - r[..., 1] * (v2[:, 0] - v0[:, 0])[:, None]) / det[:, None]
    l2 = (-r[..., 0] * (v1[:, 1] - v0[:, 1])[:, None]
          + r[..., 1] * (v1[:, 0] - v0[:, 0])[:, None]) / det[:, None]
    bary = np.stack([1.0 - l1 - l2, l1, l2], axis=-1)
    coarse_vals = coarse.element_values()[parents]          # (Tf, 3, 2)
    fine_vals = np.einsum("tqi,tic->tqc", bary, coarse_vals)
    ns = fine_space.nscalar
    coeffs = np.empty(2 * ns)
    coeffs[:ns] = fine_vals[..., 0].reshape(-1)
    coeffs[ns:] = fine_vals[..., 1].reshape(-1)
    return Field(fine_space, coeffs)


def embed_continuous(field: Field, dg_space: Space) -> Field:
    """Copy a continuous field into the dG space on the same mesh."""
    if field.space.kind != CONTINUOUS or dg_space.kind != DG:
        raise SpaceMismatchError("embedding maps a continuous field into dG")
    if dg_space.mesh is not field.space.mesh:
        raise SpaceMismatchError("embedding requires the same mesh")
    vals = field.element_values()
    ns = dg_space.nscalar
    coeffs = np.empty(2 * ns)
    coeffs[:ns] = vals[..., 0].reshape(-1)
    coeffs[ns:] = vals[..., 1].reshape(-1)
    return Field(dg_space, coeffs)


# -- norms and integrals -------------------------------------------------------


def _edge_trace_values(field: Field, edge_ids, side: int):
    """Endpoint values of the trace from the given side, shape (n, 2, 2):
    last axis is the component, middle axis the edge endpoint."""
    geom = field.space.geometry
    tris = field.space.mesh.edge_tris[edge_ids, side]
    loc = geom.loc[edge_ids, side]                      # (n, 2) local indices
    dofs = field.space.elem_dofs[tris[:, None], loc]    # (n, 2) scalar dofs
    c = field.components
    return np.stack([c[0][dofs], c[1][dofs]], axis=-1)


def jump_sq(field: Field, edge_ids) -> np.ndarray:
    """Integral over each edge of |[field]|^2, exact for P1 fields; on a
    boundary edge the jump is the trace."""
    values = _edge_trace_values(field, edge_ids, 0)
    inner = field.space.mesh.edge_tris[edge_ids, 1] >= 0
    values[inner] -= _edge_trace_values(field, edge_ids[inner], 1)
    va, vb = values[:, 0, :], values[:, 1, :]
    return field.space.geometry.edge_len[edge_ids] / 3.0 * (
        (va * va).sum(1) + (va * vb).sum(1) + (vb * vb).sum(1))


def boundary_misfit_sq(field: Field, g, edge_ids) -> np.ndarray:
    """Integral over each boundary edge of |field - g|^2 divided by the edge
    length, with ``g(points) -> (N, 2)`` at the edge Gauss points."""
    geom = field.space.geometry
    hats, pts, ew = geom.edge_points(edge_ids)
    gv = np.asarray(g(pts.reshape(-1, 2)), dtype=float).reshape(len(edge_ids), -1, 2)
    fv = np.einsum("qe,nec->nqc", hats, _edge_trace_values(field, edge_ids, 0))
    return (ew[None, :] * ((fv - gv) ** 2).sum(-1)).sum(1)


def broken_gradient_sq(field: Field) -> float:
    """Sum over triangles of the squared gradient integral."""
    geom = field.space.geometry
    return float((geom.area * (field.gradients() ** 2).sum(axis=(1, 2))).sum())


def discrete_norm(field: Field, method: str, sigma: float) -> float:
    """Mesh-dependent norm: broken H1 seminorm plus penalty-weighted jump
    terms on the boundary edges (``nitsche``) or on all edges (``dg``)."""
    if sigma <= 0:
        raise ConfigError("penalty parameter sigma must be positive")
    kind = space_kind(method)
    geom = field.space.geometry
    total = broken_gradient_sq(field)
    bd = field.space.mesh.boundary_edges
    total += (sigma / geom.edge_len[bd] * jump_sq(field, bd)).sum()
    if kind == DG:
        ie = field.space.mesh.interior_edges
        total += (sigma / geom.edge_len[ie] * jump_sq(field, ie)).sum()
    return float(np.sqrt(total))


def l2_norm(field: Field) -> float:
    geom = field.space.geometry
    lam, w, _ = geom.triangle_points(ASSEMBLY_DEGREE)
    vals = field.values_at(lam)
    return float(np.sqrt((geom.area[:, None] * w[None, :]
                          * (vals ** 2).sum(-1)).sum()))


def free_energy(field: Field, epsilon: float) -> float:
    """Dimensionless free energy: gradient part plus the double-well bulk
    term scaled by 1/epsilon^2 (exact for P1 fields)."""
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    geom = field.space.geometry
    lam, w, _ = geom.triangle_points(ASSEMBLY_DEGREE)
    well = ((field.values_at(lam) ** 2).sum(-1) - 1.0) ** 2
    bulk = (geom.area[:, None] * w[None, :] * well).sum()
    return float(broken_gradient_sq(field) + bulk / epsilon ** 2)


def energy_error_norm(field: Field, exact_grad, g, method: str, sigma: float,
                      degree: int = ERROR_DEGREE) -> float:
    """Discrete norm of (exact - field) with the exact solution evaluated by
    quadrature; ``exact_grad(points) -> (N, 2, 2)`` with axes
    (point, component, direction) and ``g(points) -> (N, 2)``."""
    if sigma <= 0:
        raise ConfigError("penalty parameter sigma must be positive")
    kind = space_kind(method)
    geom = field.space.geometry
    lam, w, pts = geom.triangle_points(degree)
    nt, nq, _ = pts.shape
    eg = np.asarray(exact_grad(pts.reshape(-1, 2)), dtype=float).reshape(nt, nq, 2, 2)
    diff = eg - field.gradients()[:, None, :, :]
    total = (geom.area[:, None] * w[None, :] * (diff ** 2).sum(axis=(2, 3))).sum()

    bd = field.space.mesh.boundary_edges
    if len(bd):
        total += (sigma * boundary_misfit_sq(field, g, bd)).sum()
    if kind == DG:
        ie = field.space.mesh.interior_edges
        total += (sigma / geom.edge_len[ie] * jump_sq(field, ie)).sum()
    return float(np.sqrt(total))


def l2_error_norm(field: Field, exact, degree: int = ERROR_DEGREE) -> float:
    geom = field.space.geometry
    lam, w, pts = geom.triangle_points(degree)
    nt, nq, _ = pts.shape
    ev = np.asarray(exact(pts.reshape(-1, 2)), dtype=float).reshape(nt, nq, 2)
    diff = ((ev - field.values_at(lam)) ** 2).sum(-1)
    return float(np.sqrt((geom.area[:, None] * w[None, :] * diff).sum()))


# -- serialization -------------------------------------------------------------


def dump_field(field: Field, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dof_index,value\n")
        for i, v in enumerate(field.coeffs):
            fh.write(f"{i},{float(v)!r}\n")


def load_field(space: Space, path) -> Field:
    coeffs = np.zeros(space.ndof)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "dof_index,value":
            raise ValueError(f"unexpected field dump header {header!r}")
        for line in fh:
            idx, val = line.strip().split(",")
            coeffs[int(idx)] = float(val)
    return Field(space, coeffs)
