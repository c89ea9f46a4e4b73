"""Assembly of the discrete operators for both boundary treatments.

The system solved is the two-component Ginzburg-Landau equation

    -laplace(psi) - (2/eps^2) (1 - |psi|^2) psi = f,   psi = g on the boundary,

whose weak form splits into the gradient part, a quartic coupling term and
a scaled negative mass term.  There is one gradient form: the broken
stiffness plus interior-penalty edge terms.  dG puts them on every edge
and weights the consistency term by its symmetrization weight lam;
Nitsche is the same form on the boundary edges only, with weight 1.  All
matrices are scipy CSR and, but for the Newton Jacobian, scalar: only the
cubic term couples the components, so the Jacobian is the one
two-component matrix.  :mod:`nematicfem.fespace` owns the (u, v) layout
of the vectors and of J (``scatter_add``, ``CoupledLayout``).

Jump and average conventions: on an interior edge the triangle with the
smaller id is the plus side, the edge normal points from plus to minus,
and [w] = w_plus - w_minus; boundary edges use the single trace and an
outward normal.

Element and edge kernels are batched matrix products: quadrature sums
are products with the barycentric point matrix, and the weighted masses
of the quartic term are products of the (k, Q) weights with the Q x 9
basis products.  Every matrix of local 3 x 3 blocks on a triangle's own
dofs (the volume stiffness, the boundary-edge terms, the bulk mass and the
three quartic blocks) is summed into the space's element pattern
(:class:`nematicfem.fespace.ElementPattern`), built once per level: no
COO sort per matrix, and no sort at all per Newton step.  Only the dG
interior-edge block, whose couplings cross triangles, is a COO assembly,
once per level.

A Newton step's memory is J plus transients of one block of ERROR_BLOCK
triangles.  The quartic and cubic kernels and the source term run over
such blocks: the values (or the data) at the quadrature points of a
block give its kernels and local entries, which are added into the
quartic blocks' entries (``ElementPattern.add``) or the vector
(``scatter_add``) before the next block; no array over all triangles and
points is made.  Each entry is summed in the order of a whole-mesh pass,
with the same per-triangle arithmetic, so J, the residual and the load
are bitwise independent of the block size.  J's CSR layout is built once
per :class:`NonlinearSystem`, and every J is one data array filled into
it.  Assembly is sequential and deterministic; a parallel implementation
would only be reproducible up to floating-point summation order.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigError, SpaceMismatchError
from .fespace import (DG, DG_METHOD, NITSCHE, CoupledLayout, Field, Space,
                      componentwise, evaluate, scatter_add, space_kind,
                      squared_norm, triangle_blocks)
from .problems import check_epsilon
from .quadrature import ASSEMBLY_DEGREE, triangle_rule


@dataclass(frozen=True)
class MethodConfig:
    """Discretization parameters: boundary treatment, penalty, dG
    symmetrization weight (ignored for Nitsche) and model epsilon."""

    method: str
    epsilon: float
    sigma: float = 10.0
    lam: float = 1.0

    def __post_init__(self):
        if self.method not in (NITSCHE, DG_METHOD):
            raise ConfigError(f"unknown method {self.method!r}")
        if not self.sigma > 0:
            raise ConfigError("penalty parameter sigma must be positive")
        if not -1.0 <= self.lam <= 1.0:
            raise ConfigError("dG symmetrization weight must lie in [-1, 1]")
        check_epsilon(self.epsilon)


def _require_space(space: Space, cfg: MethodConfig, what: str):
    kind = space_kind(cfg.method)
    if space.kind != kind:
        raise SpaceMismatchError(
            f"{cfg.method} {what} requires a {kind} space, got {space.kind}")


def _consistency_weight(cfg: MethodConfig) -> float:
    """Weight of the consistency term that carries the trial function:
    the dG symmetrization weight, 1 for Nitsche."""
    return cfg.lam if cfg.method == DG_METHOD else 1.0


def _assemble(dofs, local, n) -> sp.csr_matrix:
    """Scatter local matrices (k, m, m) on the dofs (k, m) into an n x n
    CSR matrix, summing repeated entries."""
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def _volume_stiffness(space: Space) -> sp.csr_matrix:
    geom = space.geometry
    local = geom.area[:, None, None] * (geom.grads @ geom.grads.transpose(0, 2, 1))
    return space.pattern.matrix(space.pattern.data(local))


def _edge_dof_data(space: Space, edge_ids, side: int):
    """For each edge: the 3 scalar dofs of the side triangle, the constant
    normal derivatives of its basis functions, and the edge-restricted
    basis values as endpoint coefficients (3 dofs x 2 endpoints)."""
    geom = space.geometry
    tris = space.mesh.edge_tris[edge_ids, side]
    dofs = space.elem_dofs[tris]                                  # (n, 3)
    nu = geom.edge_normal[edge_ids]
    dn = (geom.grads[tris] @ nu[:, :, None])[..., 0]              # (n, 3)
    loc = geom.loc[edge_ids, side]                                # (n, 2)
    trace = np.zeros((len(edge_ids), 3, 2))
    rows = np.arange(len(edge_ids))
    trace[rows, loc[:, 0], 0] = 1.0
    trace[rows, loc[:, 1], 1] = 1.0
    return dofs, dn, trace


# 1D mass on an edge for endpoint coefficient vectors, to be scaled by h_E
_EDGE_MASS = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])


def _edge_local(cfg, dn_avg, jump_trace, h):
    """-<{dn theta},[phi]> - weight <{dn phi},[theta]> + sigma/h <[theta],[phi]>
    as local (n, m, m) matrices for stacked edge dof data (n, m)."""
    # integral over E of [phi_j]: endpoint hats integrate to h/2
    phi_int = jump_trace.sum(axis=2) * (h[:, None] / 2.0)
    consistency = dn_avg[:, :, None] * phi_int[:, None, :]
    penalty = cfg.sigma * (jump_trace @ _EDGE_MASS @ jump_trace.transpose(0, 2, 1))
    return (-consistency.transpose(0, 2, 1)
            - _consistency_weight(cfg) * consistency + penalty)


def penalty_bound(space: Space, cfg: MethodConfig) -> float:
    """The penalty below which the gradient form may fail to be coercive on
    ``space``'s mesh: ((1 + lam) / 2)^2 C_b, with lam the consistency
    weight and

        C_b = max over triangles T of sum over edges E of T of
              c_E h_E^2 / |T|,

    c_E = 1 on a boundary edge, and on an interior edge 1/2 for dG and 0
    for Nitsche (which has no interior edge terms).

    Derivation: on v the form is |grad v|^2 - (1 + lam) sum_E <{dn v}, [v]>_E
    + sigma sum_E |[v]|_E^2 / h_E.  For P1, dn v is constant on each
    triangle, so h_E |dn v|_E^2 <= (h_E^2 / |T|) |grad v|_T^2 exactly; the
    average of an interior edge gives |{dn v}|^2 <= (|dn v+|^2 + |dn v-|^2)
    / 2, hence sum_E h_E |{dn v}|_E^2 <= C_b |grad v|^2.  Young's inequality
    with weight d bounds the consistency term by d C_b |grad v|^2 +
    (1 + lam)^2 / (4 d) sum_E |[v]|_E^2 / h_E, so the form is coercive when
    some d < 1 / C_b has sigma > (1 + lam)^2 / (4 d), i.e. when sigma >
    ((1 + lam) / 2)^2 C_b.  The bound is sufficient, not sharp: C_b for
    lam = 1 (Nitsche, SIPG), 0 for lam = -1 (NIPG), where any sigma > 0
    is coercive.  It depends on the triangle shapes only, so red
    refinement keeps it."""
    mesh, geom = space.mesh, space.geometry
    weight = np.where(mesh.boundary_edge_mask, 1.0,
                      0.5 if space.kind == DG else 0.0)
    terms = (weight * geom.edge_len ** 2)[mesh.tri_edges].sum(axis=1)
    lam = _consistency_weight(cfg)
    return ((1.0 + lam) / 2.0) ** 2 * float((terms / geom.area).max())


def gradient_matrix(space: Space, cfg: MethodConfig) -> sp.csr_matrix:
    """The method's gradient form (see the module docstring) on the scalar
    dofs; symmetric exactly when the consistency weight is 1.  The volume
    and boundary-edge terms lie on the element pattern; for Nitsche that
    is the whole matrix.  Raises :class:`ConfigError` where ``cfg.sigma``
    is at most :func:`penalty_bound`, below which the form need not be
    coercive and the solution can diverge under refinement."""
    _require_space(space, cfg, "gradient matrix")
    bound = penalty_bound(space, cfg)
    if not cfg.sigma > bound:
        raise ConfigError(
            f"penalty sigma = {cfg.sigma} is at most the coercivity bound "
            f"{bound:.6g} of this mesh ({cfg.method}, lambda = "
            f"{_consistency_weight(cfg)}); choose sigma > {bound:.6g}")
    h = space.geometry.edge_len
    pattern = space.pattern
    data = _volume_stiffness(space).data
    bd = space.mesh.boundary_edges
    if len(bd):
        # a boundary edge couples the dofs of its one triangle only
        _, dn, trace = _edge_dof_data(space, bd, 0)
        data += pattern.data(_edge_local(cfg, dn, trace, h[bd]),
                             space.mesh.edge_tris[bd, 0])
    scalar = pattern.matrix(data)
    ie = space.mesh.interior_edges
    if space.kind == DG and len(ie):
        dofs_p, dn_p, tr_p = _edge_dof_data(space, ie, 0)
        dofs_m, dn_m, tr_m = _edge_dof_data(space, ie, 1)
        dofs = np.concatenate([dofs_p, dofs_m], axis=1)           # (n, 6)
        dn_avg = 0.5 * np.concatenate([dn_p, dn_m], axis=1)
        jump = np.concatenate([tr_p, -tr_m], axis=1)              # plus minus minus
        scalar = scalar + _assemble(
            dofs, _edge_local(cfg, dn_avg, jump, h[ie]), space.nscalar)
    return scalar


def bulk_linear_matrix(space: Space, cfg: MethodConfig) -> sp.csr_matrix:
    """The linear bulk term -(2/eps^2) (theta, phi) on the scalar dofs, on
    the element pattern."""
    geom = space.geometry
    local = (-2.0 / cfg.epsilon ** 2) * geom.area[:, None, None] * (
        np.ones((3, 3)) + np.eye(3)) / 12.0
    return space.pattern.matrix(space.pattern.data(local))


# -- quartic coupling term -----------------------------------------------------


def quartic_linearization(wbar: Field, cfg: MethodConfig):
    """Scalar blocks (m11, m12, m22) of the frozen-coefficient bilinear form

        (theta, phi) -> (2/eps^2) integral of (|w|^2 (theta.phi)
                                               + 2 (w.theta)(w.phi)),

    i.e. the derivative of the cubic term at the state ``wbar``; the
    (v, u) block equals m12.  All three lie on the space's element
    pattern.  ERROR_BLOCK triangles at a time, the values of ``wbar`` at
    their quadrature points give the three kernels, whose local entries
    are added into the three blocks' entries at once."""
    space = wbar.space
    geom, pattern = space.geometry, space.pattern
    rule = triangle_rule(ASSEMBLY_DEGREE)
    lam, w = rule.points, rule.weights
    basis_outer = (lam[:, :, None] * lam[:, None, :]).reshape(-1, 9)
    scale = 2.0 / cfg.epsilon ** 2
    blocks = [np.zeros(len(pattern.indices)) for _ in range(3)]
    for blk in triangle_blocks(len(geom.area)):
        vals = wbar.values_at(lam, blk)                          # (k, Q, 2)
        w1, w2 = vals[..., 0], vals[..., 1]
        norm2 = w1 ** 2 + w2 ** 2
        aw = geom.area[blk, None] * w[None, :]
        kernels = (scale * (norm2 + 2.0 * w1 * w1), scale * (2.0 * w1 * w2),
                   scale * (norm2 + 2.0 * w2 * w2))
        for data, kernel in zip(blocks, kernels):
            pattern.add(data, (aw * kernel) @ basis_outer, blk)
    return tuple(pattern.matrix(data) for data in blocks)


def cubic_term_vector(psi: Field, cfg: MethodConfig) -> np.ndarray:
    """Vector of (2/eps^2) integral of |psi|^2 (psi . phi_i) over all test
    basis functions, the cubic part of the residual, scattered ERROR_BLOCK
    triangles at a time."""
    space = psi.space
    geom = space.geometry
    rule = triangle_rule(ASSEMBLY_DEGREE)
    lam, w = rule.points, rule.weights
    scale = 2.0 / cfg.epsilon ** 2
    out = np.zeros(space.ndof)
    for blk in triangle_blocks(len(geom.area)):
        vals = psi.values_at(lam, blk)
        aw = geom.area[blk, None] * w[None, :]
        local = scale * (lam.T @ ((aw * squared_norm(vals))[..., None] * vals))
        scatter_add(out, space.elem_dofs[blk], local)
    return out


# -- load, residual, jacobian ---------------------------------------------------


def load_vector(space: Space, cfg: MethodConfig, g, f=None) -> np.ndarray:
    """Boundary-data terms plus the volume source term.

    Nitsche: -<g, dn(phi)> + sigma/h <g, phi> on boundary edges; the dG
    variant weights the consistency term by the symmetrization weight so
    the method stays consistent for every admissible weight.
    """
    _require_space(space, cfg, "load vector")
    geom = space.geometry
    out = np.zeros(space.ndof)

    bd = space.mesh.boundary_edges
    if len(bd):
        dofs, dn, trace = _edge_dof_data(space, bd, 0)
        hats, pts, ew = geom.edge_points(bd)
        gv = evaluate(g, pts, "boundary data g")
        h = geom.edge_len[bd]
        g_int = h[:, None] * (ew @ gv)                            # (n, 2)
        # -weight <g, dn(phi_i)>
        cons = -_consistency_weight(cfg) * dn[:, :, None] * g_int[:, None, :]
        # sigma/h <g, phi_i>: phi_i has endpoint coefficients trace[n, i, :]
        g_hat = h[:, None, None] * ((ew[:, None] * hats).T @ gv)
        pen = (cfg.sigma / h)[:, None, None] * (trace @ g_hat)
        scatter_add(out, dofs, cons + pen)

    if f is not None:
        # the source at the points of one block of triangles at a time
        for blk in triangle_blocks(len(geom.area)):
            lam, w, pts = geom.triangle_points(ASSEMBLY_DEGREE, blk)
            fv = evaluate(f, pts, "source f")
            aw = geom.area[blk, None] * w[None, :]
            scatter_add(out, space.elem_dofs[blk], lam.T @ (aw[..., None] * fv))
    return out


def _union_sum(matrix, pattern, data):
    """``matrix`` plus the entries ``data`` on the element pattern, on the
    union of both patterns with no entry dropped, and the positions of the
    element pattern's entries in that union.  ``matrix`` holds no duplicate
    entry."""
    n = matrix.shape[0]

    def keys(indptr, indices):
        return np.repeat(np.arange(n, dtype=np.int64) * n,
                         np.diff(indptr)) + indices

    own, other = keys(matrix.indptr, matrix.indices), keys(pattern.indptr,
                                                           pattern.indices)
    union = np.sort(np.concatenate([own, other]), kind="stable")
    union = union[np.concatenate([[True], union[1:] != union[:-1]])]
    positions = np.searchsorted(union, other)
    out = np.zeros(len(union))
    out[np.searchsorted(union, own)] = matrix.data
    out[positions] += data
    total = sp.csr_matrix(
        (out, union % n, np.searchsorted(union, np.arange(n + 1) * n)),
        shape=matrix.shape)
    return total, positions


class NonlinearSystem:
    """Cached operators for one discrete problem.

    The scalar gradient plus linear bulk matrix S and the load vector do
    not depend on the state, so they are assembled once.  For Nitsche S
    lies on the space's element pattern; for dG it lies on the union of
    that pattern with the interior-edge couplings.  The Jacobian's CSR
    layout (:class:`nematicfem.fespace.CoupledLayout`) is built here too,
    once: each Newton step computes the quartic linearization, whose blocks
    lie on the element pattern, a block of triangles at a time, and fills
    S and those blocks into one data array of that layout, so no step sorts
    or merges a sparsity pattern or builds a second matrix of J's size.
    """

    def __init__(self, space: Space, cfg: MethodConfig, g, f=None):
        self.space = space
        self.cfg = cfg
        gradient = gradient_matrix(space, cfg)
        bulk = bulk_linear_matrix(space, cfg).data
        if space.kind == DG:
            self.linear_part, positions = _union_sum(gradient, space.pattern,
                                                     bulk)
        else:
            self.linear_part = space.pattern.matrix(gradient.data + bulk)
            positions = slice(None)
        self._layout = CoupledLayout(self.linear_part, space.pattern,
                                     positions)
        self.load = load_vector(space, cfg, g, f)

    def residual(self, coeffs: np.ndarray) -> np.ndarray:
        psi = Field(self.space, coeffs)
        return (componentwise(self.linear_part, coeffs)
                + cubic_term_vector(psi, self.cfg) - self.load)

    def jacobian(self, coeffs: np.ndarray) -> sp.csr_matrix:
        """J at ``coeffs`` on the system's layout: its index arrays are the
        layout's, exact zeros (those of m12 at a state with v = 0) stored."""
        # the quartic blocks are released once they are filled in
        return self._layout.fill(*(block.data for block in
                                   quartic_linearization(
                                       Field(self.space, coeffs), self.cfg)))
