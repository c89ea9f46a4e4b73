"""Element kernels against the index-notation formulas they implement.

Each reference below spells a contraction out with ``np.einsum`` and
scatters with ``np.add.at`` or a COO matrix, independently of the
library's matmul kernels; both must agree to rounding on continuous and
dG spaces over red- and NVB-refined L-shape meshes.  The Newton system
built from scalar operators and the component-axis sums written as
explicit terms must equal their system-size and numpy-reduction
references bit for bit, and so must the coefficient-layout functions of
``fespace`` and the block-Jacobi smoother equal the per-component slices
and index offsets they replace.  Every matrix filled into a space's
element pattern equals its COO assembly, and a Newton Jacobian converts
no COO matrix at all.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._coo

from conftest import random_field
from nematicfem import fespace, forms
from nematicfem.estimator import _gradient_jump_sq
from nematicfem.fespace import (DG, Field, Space, _edge_trace_values,
                                boundary_misfit_sq, broken_gradient_sq,
                                componentwise, embedding_matrix, gather,
                                join, jump_sq, scatter_add, squared_norm)
from nematicfem.forms import (MethodConfig, NonlinearSystem,
                              _volume_stiffness, bulk_linear_matrix,
                              cubic_term_vector, gradient_matrix, load_vector,
                              quartic_linearization)
from nematicfem.mesh import (DomainShape, L_SHAPE, build_initial_mesh,
                             nvb_refine, red_refine)
from nematicfem.problems import lshape_problem
from nematicfem.quadrature import ASSEMBLY_DEGREE, ERROR_DEGREE
from nematicfem.solver import _block_jacobi

RTOL = 1e-14
EPSILON = 0.4


def _red_lshape():
    return red_refine(red_refine(build_initial_mesh(DomainShape(L_SHAPE))))


def _nvb_lshape():
    mesh = red_refine(build_initial_mesh(DomainShape(L_SHAPE)))
    for _ in range(3):
        # bisect the triangles touching the re-entrant corner
        corner = np.flatnonzero(
            (np.abs(mesh.vertices[mesh.triangles]).sum(-1) == 0).any(axis=1))
        mesh = nvb_refine(mesh, corner)
    return mesh


MESHES = {"red": _red_lshape, "nvb": _nvb_lshape}
SPACES = {"continuous": ("nitsche", Space.continuous), "dg": ("dg", Space.dg)}


@pytest.fixture(params=[(m, s) for m in MESHES for s in SPACES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def case(request):
    mesh_name, space_name = request.param
    method, make = SPACES[space_name]
    space = make(MESHES[mesh_name]())
    psi = random_field(space, seed=7)
    cfg = MethodConfig(method=method, epsilon=EPSILON, sigma=10.0, lam=0.5)
    return space, psi, cfg


def _close(actual, reference):
    actual = np.asarray(actual)
    assert actual.shape == reference.shape
    assert np.abs(actual - reference).max() <= RTOL * np.abs(reference).max()


def _close_sparse(actual, reference):
    diff = abs(sp.csr_matrix(actual) - reference).max()
    assert diff <= RTOL * abs(reference).max()


def _ref_values(psi, lam):
    return np.einsum("qi,tic->tqc", lam, psi.element_values())


def _ref_matrix(dofs, local, n):
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def _ref_vector(space, dofs, local):
    """Scatter local (k, m, 2) vectors into both component blocks."""
    out = np.zeros(space.ndof)
    for comp in range(2):
        np.add.at(out, comp * space.nscalar + dofs, local[..., comp])
    return out


@pytest.mark.parametrize("degree", [ASSEMBLY_DEGREE, ERROR_DEGREE])
def test_triangle_points(case, degree):
    space, _, _ = case
    lam, _, pts = space.geometry.triangle_points(degree)
    mesh = space.mesh
    _close(pts, np.einsum("qi,tix->tqx", lam, mesh.vertices[mesh.triangles]))


@pytest.mark.parametrize("degree", [ASSEMBLY_DEGREE, ERROR_DEGREE])
def test_values_at(case, degree):
    space, psi, _ = case
    lam, _, _ = space.geometry.triangle_points(degree)
    _close(psi.values_at(lam), _ref_values(psi, lam))


def test_gradients(case):
    space, psi, _ = case
    _close(psi.gradients(), np.einsum("tic,tix->tcx", psi.element_values(),
                                      space.geometry.grads))


def test_cubic_term_vector(case):
    space, psi, cfg = case
    geom = space.geometry
    lam, w, _ = geom.triangle_points(ASSEMBLY_DEGREE)
    vals = _ref_values(psi, lam)
    aw = geom.area[:, None] * w[None, :]
    local = (2.0 / EPSILON ** 2) * np.einsum(
        "tq,tqc,qi->tic", aw * (vals ** 2).sum(-1), vals, lam)
    _close(cubic_term_vector(psi, cfg),
           _ref_vector(space, space.elem_dofs, local))


def test_element_pattern_assembly(case):
    """Every matrix filled into the element pattern by ``np.bincount``
    equals its COO assembly: random local matrices on all triangles and on
    a subset with repeats, the volume stiffness, the bulk mass and the
    three quartic blocks.  The pattern is the COO's stored pattern, its
    arrays are read-only, and there are 9 int32 slots per triangle."""
    space, psi, cfg = case
    pattern = space.pattern
    n = space.nscalar
    assert pattern.slots.shape == (space.mesh.n_triangles, 9)
    assert pattern.slots.dtype == np.int32
    rng = np.random.default_rng(11)
    local = rng.standard_normal((space.mesh.n_triangles, 3, 3))
    reference = _ref_matrix(space.elem_dofs, local, n)
    built = pattern.matrix(pattern.data(local))
    assert np.array_equal(built.indptr, reference.indptr)
    assert np.array_equal(built.indices, reference.indices)
    _close_sparse(built, reference)
    tris = rng.integers(0, space.mesh.n_triangles, 40)
    _close_sparse(pattern.matrix(pattern.data(local[tris], tris)),
                  _ref_matrix(space.elem_dofs[tris], local[tris], n))
    with pytest.raises(ValueError):
        built.eliminate_zeros()

    geom = space.geometry
    stiffness = geom.area[:, None, None] * np.einsum("tix,tjx->tij",
                                                     geom.grads, geom.grads)
    _close_sparse(_volume_stiffness(space),
                  _ref_matrix(space.elem_dofs, stiffness, n))
    mass = geom.area[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    _close_sparse(bulk_linear_matrix(space, cfg),
                  _ref_matrix(space.elem_dofs, (-2.0 / EPSILON ** 2) * mass, n))
    lam, w, _ = geom.triangle_points(ASSEMBLY_DEGREE)
    vals = _ref_values(psi, lam)
    aw = geom.area[:, None] * w[None, :]
    for (a, b), block in zip([(0, 0), (0, 1), (1, 1)],
                             quartic_linearization(psi, cfg)):
        kernel = (2.0 / EPSILON ** 2) * ((a == b) * (vals ** 2).sum(-1)
                                         + 2.0 * vals[..., a] * vals[..., b])
        local = np.einsum("tq,qi,qj->tij", aw * kernel, lam, lam)
        _close_sparse(block, _ref_matrix(space.elem_dofs, local, n))
        assert block.indices.base is pattern.indices


def test_jacobian_does_no_coo_conversion(case, monkeypatch):
    """Once the system is built, a Jacobian converts no COO matrix: every
    block is filled into a pattern kept from set-up."""
    space, psi, cfg = case
    problem = lshape_problem(EPSILON)
    system = NonlinearSystem(space, cfg, problem.g, problem.f)
    expected = system.jacobian(psi.coeffs)

    def refuse(*args, **kwargs):
        raise AssertionError("COO assembly in the Jacobian")

    monkeypatch.setattr(forms, "_assemble", refuse)
    monkeypatch.setattr(sp, "coo_matrix", refuse)
    monkeypatch.setattr(scipy.sparse._coo._coo_base, "_coo_to_compressed",
                        refuse)
    _same_csr(system.jacobian(psi.coeffs), expected)


def test_quartic_linearization(case):
    space, psi, cfg = case
    geom = space.geometry
    lam, w, _ = geom.triangle_points(ASSEMBLY_DEGREE)
    vals = _ref_values(psi, lam)
    norm2 = (vals ** 2).sum(-1)
    aw = geom.area[:, None] * w[None, :]
    blocks = [[None, None], [None, None]]
    for a in range(2):
        for b in range(2):
            kernel = (2.0 / EPSILON ** 2) * (
                (a == b) * norm2 + 2.0 * vals[..., a] * vals[..., b])
            local = np.einsum("tq,qi,qj->tij", aw * kernel, lam, lam)
            blocks[a][b] = _ref_matrix(space.elem_dofs, local, space.nscalar)
    m11, m12, m22 = quartic_linearization(psi, cfg)
    _close_sparse(m11, blocks[0][0])
    _close_sparse(m12, blocks[0][1])
    _close_sparse(m12, blocks[1][0])
    _close_sparse(m22, blocks[1][1])


def _ref_edge_data(space, edge_ids, side):
    geom = space.geometry
    tris = space.mesh.edge_tris[edge_ids, side]
    dn = np.einsum("tix,tx->ti", geom.grads[tris], geom.edge_normal[edge_ids])
    loc = geom.loc[edge_ids, side]
    trace = np.zeros((len(edge_ids), 3, 2))
    rows = np.arange(len(edge_ids))
    trace[rows, loc[:, 0], 0] = 1.0
    trace[rows, loc[:, 1], 1] = 1.0
    return space.elem_dofs[tris], dn, trace


def test_gradient_matrix(case):
    space, _, cfg = case
    geom = space.geometry
    mesh = space.mesh
    h = geom.edge_len
    weight = cfg.lam if cfg.method == "dg" else 1.0
    edge_mass = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    local = geom.area[:, None, None] * np.einsum("tix,tjx->tij",
                                                 geom.grads, geom.grads)
    scalar = _ref_matrix(space.elem_dofs, local, space.nscalar)
    edge_sets = []
    if cfg.method == "dg":
        ie = mesh.interior_edges
        dp, np_, tp = _ref_edge_data(space, ie, 0)
        dm, nm, tm = _ref_edge_data(space, ie, 1)
        edge_sets.append((ie, np.concatenate([dp, dm], axis=1),
                          0.5 * np.concatenate([np_, nm], axis=1),
                          np.concatenate([tp, -tm], axis=1)))
    bd = mesh.boundary_edges
    edge_sets.append((bd, *_ref_edge_data(space, bd, 0)))
    for edges, dofs, dn, jump in edge_sets:
        phi_int = jump.sum(axis=2) * (h[edges][:, None] / 2.0)
        cons = np.einsum("ni,nj->nij", dn, phi_int)
        pen = cfg.sigma * np.einsum("nie,ef,njf->nij", jump, edge_mass, jump)
        scalar = scalar + _ref_matrix(
            dofs, -cons.transpose(0, 2, 1) - weight * cons + pen, space.nscalar)
    _close_sparse(gradient_matrix(space, cfg), scalar)


def test_load_vector(case):
    space, _, cfg = case
    problem = lshape_problem(EPSILON)
    geom = space.geometry
    bd = space.mesh.boundary_edges
    weight = cfg.lam if cfg.method == "dg" else 1.0
    dofs, dn, trace = _ref_edge_data(space, bd, 0)
    hats, pts, ew = geom.edge_points(bd)
    gv = problem.g(pts.reshape(-1, 2)).reshape(len(bd), -1, 2)
    h = geom.edge_len[bd]
    g_int = h[:, None] * np.einsum("q,nqc->nc", ew, gv)
    g_hat = h[:, None, None] * np.einsum("q,qe,nqc->nec", ew, hats, gv)
    local = (-weight * np.einsum("ni,nc->nic", dn, g_int)
             + (cfg.sigma / h)[:, None, None] * np.einsum("nie,nec->nic",
                                                          trace, g_hat))
    reference = _ref_vector(space, dofs, local)
    lam, w, tpts = geom.triangle_points(ASSEMBLY_DEGREE)
    fv = problem.f(tpts.reshape(-1, 2)).reshape(tpts.shape)
    aw = geom.area[:, None] * w[None, :]
    reference += _ref_vector(space, space.elem_dofs,
                             np.einsum("tq,tqc,qi->tic", aw, fv, lam))
    _close(load_vector(space, cfg, problem.g, problem.f), reference)


def test_edge_kernels(case):
    """The estimator's normal-gradient jump and the boundary misfit."""
    space, psi, _ = case
    mesh = space.mesh
    geom = space.geometry
    ie = mesh.interior_edges
    grads = psi.gradients()
    jump = np.einsum("ncx,nx->nc", grads[mesh.edge_tris[ie, 0]]
                     - grads[mesh.edge_tris[ie, 1]], geom.edge_normal[ie])
    _close(_gradient_jump_sq(psi, ie), (jump ** 2).sum(1))

    g = lshape_problem(EPSILON).g
    bd = mesh.boundary_edges
    hats, pts, ew = geom.edge_points(bd)
    loc = geom.loc[bd, 0]
    ends = space.elem_dofs[mesh.edge_tris[bd, 0][:, None], loc]
    u, v = psi.coeffs.reshape(2, -1)
    trace = np.stack([u[ends], v[ends]], -1)
    fv = np.einsum("qe,nec->nqc", hats, trace)
    gv = g(pts.reshape(-1, 2)).reshape(len(bd), -1, 2)
    _close(boundary_misfit_sq(psi, g, bd),
           (ew[None, :] * ((fv - gv) ** 2).sum(-1)).sum(1))


def _same_csr(actual, reference):
    """Equal values and stored pattern, bit for bit."""
    assert actual.shape == reference.shape
    assert np.array_equal(actual.indptr, reference.indptr)
    assert np.array_equal(actual.indices, reference.indices)
    assert np.array_equal(actual.data, reference.data)


@pytest.mark.parametrize("state", ["random", "v-free"])
def test_system_matches_system_size_reference(case, state):
    """Jacobian and residual from the scalar linear part equal, bitwise,
    those from the system-size operators: the kron-expanded gradient plus
    bulk matrix and the block matrix of the quartic linearization, whose
    CSR sum keeps no zero entry.  J keeps its layout, so it equals the
    reference once its zeros are dropped, and every entry it stores
    outside the reference's structure is exactly 0.0.  The v-free state
    makes every entry of the off-diagonal quartic block zero; the random
    state stores no zero."""
    space, psi, cfg = case
    problem = lshape_problem(EPSILON)
    coeffs = psi.coeffs.copy()
    if state == "v-free":
        coeffs[space.nscalar:] = 0.0
    system = NonlinearSystem(space, cfg, problem.g, problem.f)

    linear = sp.kron(sp.eye(2), gradient_matrix(space, cfg)
                     + bulk_linear_matrix(space, cfg), format="csr")
    state_field = Field(space, coeffs)
    m11, m12, m22 = quartic_linearization(state_field, cfg)
    jacobian = linear + sp.bmat([[m11, m12], [m12, m22]], format="csr")
    residual = (linear @ coeffs + cubic_term_vector(state_field, cfg)
                - system.load)

    jac = system.jacobian(coeffs)
    kept = jac.copy()
    kept.eliminate_zeros()
    _same_csr(kept, jacobian)
    n = jac.shape[0]
    rows = np.repeat(np.arange(n), np.diff(jac.indptr))
    ref_rows = np.repeat(np.arange(n), np.diff(jacobian.indptr))
    beyond = ~np.isin(rows * n + jac.indices,
                      ref_rows * n + jacobian.indices)
    assert np.all(jac.data[beyond] == 0.0)
    assert beyond.any() == (state == "v-free")
    # J's arrays are its own, not views into the larger buffer of a sum
    for arr in (jac.data, jac.indices):
        assert arr.base is None or arr.base.nbytes == arr.nbytes
    assert np.array_equal(system.residual(coeffs), residual)


@pytest.mark.parametrize("state", ["random", "v-free"])
def test_system_does_not_depend_on_block_size(case, state, monkeypatch):
    """The quartic and cubic kernels and the source term run over blocks of
    ERROR_BLOCK triangles.  Blocks of 7 and blocks of all triangles but one (the last
    block a lone triangle) give the one-block Jacobian and residual bit
    for bit."""
    space, psi, cfg = case
    problem = lshape_problem(EPSILON)
    coeffs = psi.coeffs.copy()
    if state == "v-free":
        coeffs[space.nscalar:] = 0.0
    n = space.mesh.n_triangles
    assert space.ndof < fespace.ERROR_BLOCK
    whole = NonlinearSystem(space, cfg, problem.g, problem.f)
    jacobian, residual = whole.jacobian(coeffs), whole.residual(coeffs)
    for block in (7, n - 1):
        monkeypatch.setattr(fespace, "ERROR_BLOCK", block)
        system = NonlinearSystem(space, cfg, problem.g, problem.f)
        _same_csr(system.jacobian(coeffs), jacobian)
        assert np.array_equal(system.residual(coeffs), residual)
        monkeypatch.undo()


def test_component_sums_keep_numpy_order(case):
    """Sums over the component axis, written as explicit terms, equal
    numpy's reductions bit for bit."""
    space, psi, _ = case
    geom = space.geometry
    lam, _, _ = geom.triangle_points(ERROR_DEGREE)
    vals = psi.values_at(lam)
    assert np.array_equal(squared_norm(vals), (vals ** 2).sum(-1))
    ie = space.mesh.interior_edges
    values = _edge_trace_values(psi, ie, 0) - _edge_trace_values(psi, ie, 1)
    va, vb = values[:, 0], values[:, 1]
    reference = geom.edge_len[ie] / 3.0 * (
        (va * va).sum(1) + (va * vb).sum(1) + (vb * vb).sum(1))
    assert np.array_equal(jump_sq(psi, ie), reference)


def test_gradient_sum_keeps_numpy_order(single_triangle):
    """On one triangle the broken gradient norm is that triangle's sum over
    (component, direction): bitwise numpy's reduction over both axes."""
    space = Space.continuous(single_triangle)
    area = space.geometry.area
    for seed in range(50):
        psi = random_field(space, seed=seed)
        assert broken_gradient_sq(psi) == float(
            (area * (psi.gradients() ** 2).sum(axis=(1, 2))).sum())


# -- the coefficient layout ------------------------------------------------------


def test_layout_gather(case):
    """``gather`` equals indexing each row of the (2, nscalar) view, on
    triangle dofs, edge-trace dofs and random repeated dofs."""
    space, psi, _ = case
    c = psi.coeffs.reshape(2, space.nscalar)

    def reference(dofs):
        return np.stack([c[0][dofs], c[1][dofs]], axis=-1)

    dofs = np.random.default_rng(3).integers(0, space.nscalar, (50, 4))
    for d in (space.elem_dofs, dofs):
        assert np.array_equal(gather(psi.coeffs, d), reference(d))
    assert np.array_equal(psi.element_values(), reference(space.elem_dofs))
    ie = space.mesh.interior_edges
    ends = space.elem_dofs[space.mesh.edge_tris[ie, 1][:, None],
                           space.geometry.loc[ie, 1]]
    assert np.array_equal(_edge_trace_values(psi, ie, 1), reference(ends))


def test_layout_scatter_add(case):
    """``scatter_add`` equals ``np.add.at`` into the slices
    ``[comp * ns, (comp + 1) * ns)``, starting from a nonzero vector."""
    space, psi, _ = case
    local = np.random.default_rng(5).standard_normal(space.elem_dofs.shape
                                                     + (2,))
    reference = psi.coeffs.copy()
    ns = space.nscalar
    for comp in range(2):
        np.add.at(reference[comp * ns:(comp + 1) * ns], space.elem_dofs,
                  local[..., comp])
    out = psi.coeffs.copy()
    scatter_add(out, space.elem_dofs, local)
    assert np.array_equal(out, reference)


def test_layout_join(case):
    """``join`` equals concatenating the two columns of nodal values, and
    the two slice writes of the dG embedding; it inverts ``gather``."""
    space, psi, _ = case
    vals = np.random.default_rng(6).standard_normal((space.nscalar, 2))
    assert np.array_equal(join(vals),
                          np.concatenate([vals[:, 0], vals[:, 1]]))
    assert np.array_equal(join(gather(psi.coeffs, np.arange(space.nscalar))),
                          psi.coeffs)
    if space.kind != DG:
        dg = Space.dg(space.mesh)
        ev = psi.element_values()
        reference = np.empty(dg.ndof)
        reference[:dg.nscalar] = ev[..., 0].reshape(-1)
        reference[dg.nscalar:] = ev[..., 1].reshape(-1)
        # the embedding matrix copies each vertex value into the triangles
        # at that vertex: the gather join(element_values())
        embedded = componentwise(embedding_matrix(dg), psi.coeffs)
        assert np.array_equal(embedded, reference)
        assert np.array_equal(embedded, join(ev))


def _inverse_blocks(blocks):
    """Inverse of every block (n, k, k): the 2 x 2 vertex blocks in closed
    form, the 6 x 6 triangle blocks by ``np.linalg.inv``."""
    if blocks.shape[1] != 2:
        return np.linalg.inv(blocks)
    a, b, c, d = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    inverse = np.stack([d, -b, -c, a], axis=1) / (a * d - b * c)[:, None]
    return inverse.reshape(-1, 2, 2)


def _diagonal_blocks(jac, space):
    """(blocks, rows, cols): the block-Jacobi blocks of ``jac``, whose
    blocks take the scalar dofs and the same dofs offset by nscalar, and
    their row and column dofs."""
    scalar = (space.elem_dofs if space.kind == DG
              else np.arange(space.nscalar)[:, None])
    dofs = np.concatenate([scalar, scalar + space.nscalar], axis=1)
    nblocks, k = dofs.shape
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, k).ravel()
    return np.asarray(jac[rows, cols]).reshape(nblocks, k, k), rows, cols


def _case_jacobian(case):
    space, psi, cfg = case
    problem = lshape_problem(EPSILON)
    return NonlinearSystem(space, cfg, problem.g, problem.f).jacobian(
        psi.coeffs)


def test_block_jacobi_dof_layout(case):
    """The block-Jacobi inverse equals, bitwise, the one whose blocks take
    the scalar dofs and the same dofs offset by nscalar, each inverted the
    same way (vertex blocks in closed form, triangle blocks by LAPACK).
    The reference goes through (row, column) triplets and scipy's COO to
    CSR conversion, so the CSR arrays that both smoothers write directly
    (``data``, ``indices``, ``indptr``) are checked against it."""
    space = case[0]
    jac = _case_jacobian(case)
    blocks, rows, cols = _diagonal_blocks(jac, space)
    reference = sp.csr_matrix((_inverse_blocks(blocks).ravel(), (rows, cols)),
                              shape=jac.shape)
    _same_csr(_block_jacobi(jac, space), reference)


@pytest.mark.parametrize("mesh_name", MESHES)
def test_vertex_block_inverse_matches_lapack(mesh_name):
    """The closed-form inverse of every 2 x 2 vertex block agrees with
    ``np.linalg.inv`` to rounding: per block, a few units of roundoff times
    its condition number, relative to the largest entry of the inverse."""
    space = Space.continuous(MESHES[mesh_name]())
    cfg = MethodConfig(method="nitsche", epsilon=EPSILON)
    jac = _case_jacobian((space, random_field(space, seed=7), cfg))
    blocks, rows, cols = _diagonal_blocks(jac, space)
    lapack = np.linalg.inv(blocks)
    got = np.asarray(_block_jacobi(jac, space)[rows, cols]).reshape(
        blocks.shape)
    bound = (8 * np.finfo(float).eps * np.linalg.cond(blocks, 1)
             * np.abs(lapack).max(axis=(1, 2)))
    assert (np.abs(got - lapack).max(axis=(1, 2)) <= bound).all()
