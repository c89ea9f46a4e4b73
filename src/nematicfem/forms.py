"""Assembly of the discrete operators for both boundary treatments.

The system solved is the two-component Ginzburg-Landau equation

    -laplace(psi) - (2/eps^2) (1 - |psi|^2) psi = f,   psi = g on the boundary,

whose weak form splits into the gradient part, a quartic coupling term and
a scaled negative mass term.  There is one gradient form: the broken
stiffness plus interior-penalty edge terms.  dG puts them on every edge
and weights the consistency term by its symmetrization weight lam;
Nitsche is the same form on the boundary edges only, with weight 1.  All
matrices are scipy CSR; component blocks are ordered (u, v).

Jump and average conventions: on an interior edge the triangle with the
smaller id is the plus side, the edge normal points from plus to minus,
and [w] = w_plus - w_minus; boundary edges use the single trace and an
outward normal.

Assembly is sequential and deterministic; the triangle loops are plain
reductions, so a parallel implementation would only be reproducible up to
floating-point summation order.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigError, SpaceMismatchError
from .fespace import DG, DG_METHOD, NITSCHE, Field, Space, space_kind
from .quadrature import ASSEMBLY_DEGREE


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
        if self.sigma <= 0:
            raise ConfigError("penalty parameter sigma must be positive")
        if not -1.0 <= self.lam <= 1.0:
            raise ConfigError("dG symmetrization weight must lie in [-1, 1]")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")


def _require_space(space: Space, cfg: MethodConfig, what: str):
    kind = space_kind(cfg.method)
    if space.kind != kind:
        raise SpaceMismatchError(
            f"{cfg.method} {what} requires a {kind} space, got {space.kind}")


def _consistency_weight(cfg: MethodConfig) -> float:
    """Weight of the consistency term that carries the trial function:
    the dG symmetrization weight, 1 for Nitsche."""
    return cfg.lam if cfg.method == DG_METHOD else 1.0


def _scalar_to_system(scalar: sp.spmatrix) -> sp.csr_matrix:
    """Blockwise action on both components."""
    return sp.kron(sp.eye(2, format="csr"), scalar, format="csr")


def _assemble(dofs, local, n) -> sp.csr_matrix:
    """Scatter local matrices (k, m, m) on the dofs (k, m) into an n x n
    CSR matrix, summing repeated entries."""
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def _assemble_vector(out, dofs, local):
    """Add local vectors (k, m, 2) on the scalar dofs (k, m) into both
    component blocks of ``out``."""
    ns = len(out) // 2
    for comp in range(2):
        np.add.at(out[comp * ns:(comp + 1) * ns], dofs, local[..., comp])


def _volume_stiffness(space: Space):
    geom = space.geometry
    local = geom.area[:, None, None] * np.einsum("tix,tjx->tij",
                                                 geom.grads, geom.grads)
    return _assemble(space.elem_dofs, local, space.nscalar)


def _edge_dof_data(space: Space, edge_ids, side: int):
    """For each edge: the 3 scalar dofs of the side triangle, the constant
    normal derivatives of its basis functions, and the edge-restricted
    basis values as endpoint coefficients (3 dofs x 2 endpoints)."""
    geom = space.geometry
    tris = space.mesh.edge_tris[edge_ids, side]
    dofs = space.elem_dofs[tris]                                  # (n, 3)
    nu = geom.edge_normal[edge_ids]
    dn = np.einsum("tix,tx->ti", geom.grads[tris], nu)            # (n, 3)
    loc = geom.loc[edge_ids, side]                                # (n, 2)
    trace = np.zeros((len(edge_ids), 3, 2))
    rows = np.arange(len(edge_ids))
    trace[rows, loc[:, 0], 0] = 1.0
    trace[rows, loc[:, 1], 1] = 1.0
    return dofs, dn, trace


# 1D mass on an edge for endpoint coefficient vectors, to be scaled by h_E
_EDGE_MASS = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])


def _edge_block(space, cfg, dofs, dn_avg, jump_trace, h):
    """-<{dn theta},[phi]> - weight <{dn phi},[theta]> + sigma/h <[theta],[phi]>
    for stacked edge dof data (n, m)."""
    # integral over E of [phi_j]: endpoint hats integrate to h/2
    phi_int = jump_trace.sum(axis=2) * (h[:, None] / 2.0)
    consistency = dn_avg[:, :, None] * phi_int[:, None, :]
    penalty = cfg.sigma * np.einsum("nie,ef,njf->nij", jump_trace, _EDGE_MASS,
                                    jump_trace)
    local = (-consistency.transpose(0, 2, 1)
             - _consistency_weight(cfg) * consistency + penalty)
    return _assemble(dofs, local, space.nscalar)


def gradient_matrix(space: Space, cfg: MethodConfig) -> sp.csr_matrix:
    """The method's gradient form (see the module docstring), acting
    blockwise on both components; symmetric exactly when the consistency
    weight is 1."""
    _require_space(space, cfg, "gradient matrix")
    h = space.geometry.edge_len
    scalar = _volume_stiffness(space)
    ie = space.mesh.interior_edges
    if space.kind == DG and len(ie):
        dofs_p, dn_p, tr_p = _edge_dof_data(space, ie, 0)
        dofs_m, dn_m, tr_m = _edge_dof_data(space, ie, 1)
        dofs = np.concatenate([dofs_p, dofs_m], axis=1)           # (n, 6)
        dn_avg = 0.5 * np.concatenate([dn_p, dn_m], axis=1)
        jump = np.concatenate([tr_p, -tr_m], axis=1)              # plus minus minus
        scalar = scalar + _edge_block(space, cfg, dofs, dn_avg, jump, h[ie])
    bd = space.mesh.boundary_edges
    if len(bd):
        dofs, dn, trace = _edge_dof_data(space, bd, 0)
        scalar = scalar + _edge_block(space, cfg, dofs, dn, trace, h[bd])
    return _scalar_to_system(scalar)


def bulk_linear_matrix(space: Space, cfg: MethodConfig) -> sp.csr_matrix:
    """The linear bulk term -(2/eps^2) (theta, phi), blockwise."""
    geom = space.geometry
    local = (-2.0 / cfg.epsilon ** 2) * geom.area[:, None, None] * (
        np.ones((3, 3)) + np.eye(3)) / 12.0
    return _scalar_to_system(_assemble(space.elem_dofs, local, space.nscalar))


# -- quartic coupling term -----------------------------------------------------


def quartic_term(xi: Field, eta: Field, theta: Field, phi: Field,
                 cfg: MethodConfig) -> float:
    """(2/(3 eps^2)) integral of ((xi.eta)(theta.phi) + 2 (xi.theta)(eta.phi));
    exact for P1 arguments at the assembly quadrature degree."""
    for f in (eta, theta, phi):
        if f.space is not xi.space:
            raise SpaceMismatchError("quartic term arguments must share a space")
    geom = xi.space.geometry
    lam, w, _ = geom.triangle_points(ASSEMBLY_DEGREE)
    a = xi.values_at(lam)
    b = eta.values_at(lam)
    c = theta.values_at(lam)
    d = phi.values_at(lam)
    integrand = ((a * b).sum(-1) * (c * d).sum(-1)
                 + 2.0 * (a * c).sum(-1) * (b * d).sum(-1))
    value = (geom.area[:, None] * w[None, :] * integrand).sum()
    return float(2.0 / (3.0 * cfg.epsilon ** 2) * value)


def quartic_linearization(wbar: Field, cfg: MethodConfig) -> sp.csr_matrix:
    """Matrix of the frozen-coefficient bilinear form

        (theta, phi) -> (2/eps^2) integral of (|w|^2 (theta.phi)
                                               + 2 (w.theta)(w.phi)),

    i.e. the derivative of the cubic term at the state ``wbar``."""
    space = wbar.space
    geom = space.geometry
    lam, w, _ = geom.triangle_points(ASSEMBLY_DEGREE)
    vals = wbar.values_at(lam)                                   # (T, Q, 2)
    w1, w2 = vals[..., 0], vals[..., 1]
    norm2 = w1 ** 2 + w2 ** 2
    scale = 2.0 / cfg.epsilon ** 2
    k11 = scale * (norm2 + 2.0 * w1 * w1)
    k12 = scale * (2.0 * w1 * w2)
    k22 = scale * (norm2 + 2.0 * w2 * w2)

    aw = geom.area[:, None] * w[None, :]
    basis_outer = np.einsum("qi,qj->qij", lam, lam)

    def weighted_mass(kernel):
        local = np.einsum("tq,qij->tij", aw * kernel, basis_outer)
        return _assemble(space.elem_dofs, local, space.nscalar)

    m11 = weighted_mass(k11)
    m12 = weighted_mass(k12)
    m22 = weighted_mass(k22)
    return sp.bmat([[m11, m12], [m12, m22]], format="csr")


def cubic_term_vector(psi: Field, cfg: MethodConfig) -> np.ndarray:
    """Vector of (2/eps^2) integral of |psi|^2 (psi . phi_i) over all test
    basis functions, the cubic part of the residual."""
    space = psi.space
    geom = space.geometry
    lam, w, _ = geom.triangle_points(ASSEMBLY_DEGREE)
    vals = psi.values_at(lam)
    norm2 = (vals ** 2).sum(-1)
    scale = 2.0 / cfg.epsilon ** 2
    aw = geom.area[:, None] * w[None, :]
    local = scale * np.einsum("tq,tqc,qi->tci", aw * norm2, vals, lam)
    out = np.zeros(space.ndof)
    _assemble_vector(out, space.elem_dofs, local.transpose(0, 2, 1))
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
        gv = np.asarray(g(pts.reshape(-1, 2)), dtype=float).reshape(len(bd), -1, 2)
        if not np.isfinite(gv).all():
            raise _nonfinite_error("boundary data", pts, gv)
        h = geom.edge_len[bd]
        g_int = h[:, None] * np.einsum("q,nqc->nc", ew, gv)      # (n, 2)
        # -weight <g, dn(phi_i)>
        cons = -_consistency_weight(cfg) * dn[:, :, None] * g_int[:, None, :]
        # sigma/h <g, phi_i>: phi_i has endpoint coefficients trace[n, i, :]
        g_hat = h[:, None, None] * np.einsum("q,qe,nqc->nec", ew, hats, gv)
        pen = (cfg.sigma / h)[:, None, None] * np.einsum(
            "nie,nec->nic", trace, g_hat)
        _assemble_vector(out, dofs, cons + pen)

    if f is not None:
        lam, w, pts = geom.triangle_points(ASSEMBLY_DEGREE)
        nt, nq, _ = pts.shape
        fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(nt, nq, 2)
        if not np.isfinite(fv).all():
            raise _nonfinite_error("source data", pts, fv)
        aw = geom.area[:, None] * w[None, :]
        local = np.einsum("tq,tqc,qi->tci", aw, fv, lam)
        _assemble_vector(out, space.elem_dofs, local.transpose(0, 2, 1))
    return out


def _nonfinite_error(what, pts, vals):
    from .exceptions import DataEvaluationError
    flat = vals.reshape(-1, 2)
    bad = int(np.flatnonzero(~np.isfinite(flat).all(axis=1))[0])
    x, y = pts.reshape(-1, 2)[bad]
    return DataEvaluationError(f"{what} non-finite at quadrature point ({x}, {y})")


class NonlinearSystem:
    """Cached operators for one discrete problem.

    The gradient and linear bulk matrices and the load vector do not depend
    on the state, so they are assembled once; only the quartic-term
    linearization is rebuilt per Newton step.
    """

    def __init__(self, space: Space, cfg: MethodConfig, g, f=None):
        self.space = space
        self.cfg = cfg
        self.gradient = gradient_matrix(space, cfg)
        self.bulk_linear = bulk_linear_matrix(space, cfg)
        self.linear_part = (self.gradient + self.bulk_linear).tocsc()
        self.load = load_vector(space, cfg, g, f)

    def residual(self, coeffs: np.ndarray) -> np.ndarray:
        psi = Field(self.space, coeffs)
        return (self.linear_part @ coeffs
                + cubic_term_vector(psi, self.cfg) - self.load)

    def jacobian(self, coeffs: np.ndarray) -> sp.csr_matrix:
        psi = Field(self.space, coeffs)
        return (self.linear_part + quartic_linearization(psi, self.cfg)).tocsr()


def dump_operator(matrix: sp.spmatrix, path):
    """Coordinate-format text dump (row col value per line)."""
    coo = matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {float(v)!r}\n")
