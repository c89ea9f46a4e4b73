"""Spaces, fields, interpolation, prolongation, norms and the coupled
layout of the Newton Jacobian."""

import tracemalloc

import numpy as np
import pytest

from conftest import constant_fn, embedded, linear_fn, random_field
from nematicfem.exceptions import (ConfigError, DataEvaluationError,
                                   NestingError, SpaceMismatchError)
from nematicfem import fespace
from nematicfem.fespace import (CONTINUOUS, DG, Field, Space, discrete_norm,
                                energy_error_norm, free_energy, interpolate,
                                l2_error_norm, l2_norm, prolong,
                                prolongation_matrix)
from nematicfem.estimator import estimate
from nematicfem.forms import MethodConfig, NonlinearSystem, load_vector
from nematicfem.mesh import Mesh, build_initial_mesh, nvb_refine, red_refine
from nematicfem.problems import (device_problem, lshape_problem,
                                 slit_problem, trapezoid_profile)
from nematicfem.quadrature import ASSEMBLY_DEGREE, triangle_rule


def test_dof_counts(unit_square):
    cont = Space.continuous(unit_square)
    assert cont.ndof == 2 * unit_square.n_vertices
    dg = Space.dg(unit_square)
    assert dg.ndof == 2 * 3 * unit_square.n_triangles


def test_interpolate_constant(unit_square):
    space = Space.continuous(unit_square)
    field = interpolate(space, constant_fn(1.0, 0.0))
    u, v = field.coeffs.reshape(2, -1)
    assert np.all(u == 1.0)
    assert np.all(v == 0.0)


def test_interpolate_reproduces_linears(unit_square):
    space = Space.continuous(unit_square)
    field = interpolate(space, linear_fn)
    u, v = field.coeffs.reshape(2, -1)
    assert np.allclose(u, unit_square.vertices[:, 0])
    assert np.allclose(v, unit_square.vertices[:, 1])


def test_interpolate_trapezoid_boundary_value():
    assert trapezoid_profile(0.03, 0.06) == pytest.approx(0.5)
    g = device_problem(0.02).g
    val = g(np.array([[0.03, 0.0]]))
    assert val[0, 0] == pytest.approx(0.5)
    assert val[0, 1] == 0.0


def _nan_at_point_2(fn, seen):
    """``fn`` with one non-finite component at the third point of every
    call; ``seen`` collects those points."""
    def bad(points):
        seen.append(points[2].copy())
        out = np.array(fn(points), dtype=float)
        out.reshape(len(points), -1)[2, -1] = np.nan
        return out
    return bad


def _components_as_rows(fn, seen):
    """``fn`` returning its components as rows: (2, N) or (2, 2, N)."""
    return lambda points: np.moveaxis(fn(points), 0, -1)


_CFG = MethodConfig("nitsche", epsilon=0.4)
# the data function each consumer takes from the L-shape problem, and the
# call that hands it a replacement
_DATA_CONSUMERS = {
    "load_vector-g": ("g", lambda psi, p, fn: load_vector(psi.space, _CFG,
                                                          fn, p.f)),
    "load_vector-f": ("f", lambda psi, p, fn: load_vector(psi.space, _CFG,
                                                          p.g, fn)),
    "estimate-f": ("f", lambda psi, p, fn: estimate(psi, _CFG, p.g, fn)),
    "estimate-g": ("g", lambda psi, p, fn: estimate(psi, _CFG, fn, p.f)),
    "energy_error_norm": ("exact_grad", lambda psi, p, fn: energy_error_norm(
        psi, fn, p.g, _CFG.sigma)),
    "l2_error_norm": ("exact", lambda psi, p, fn: l2_error_norm(psi, fn)),
    "interpolate": ("exact", lambda psi, p, fn: interpolate(psi.space, fn)),
}


@pytest.mark.parametrize("broken", [_nan_at_point_2, _components_as_rows],
                         ids=["nonfinite", "rows"])
@pytest.mark.parametrize("consumer", list(_DATA_CONSUMERS))
def test_data_contract_in_every_consumer(lshape, consumer, broken):
    """Every consumer of problem data rejects a non-finite value, naming
    the point, and a return of shape (2, N) instead of (N, 2)."""
    prob = lshape_problem(0.4)
    name, call = _DATA_CONSUMERS[consumer]
    psi = interpolate(Space.continuous(lshape), prob.exact)
    call(psi, prob, getattr(prob, name))
    seen = []
    with pytest.raises(DataEvaluationError) as info:
        call(psi, prob, broken(getattr(prob, name), seen))
    if broken is _nan_at_point_2:
        x, y = seen[-1]
        assert f"non-finite at point 2 = ({x}, {y})" in str(info.value)
    else:
        assert "shape" in str(info.value)


def test_field_length_checked(unit_square):
    with pytest.raises(SpaceMismatchError):
        Field(Space.continuous(unit_square), np.zeros(3))


@pytest.mark.parametrize("kind", [CONTINUOUS, DG])
def test_prolong_constant_and_linear(unit_square, kind):
    coarse_space = Space(unit_square, kind)
    fine_mesh = red_refine(unit_square)
    fine_space = Space(fine_mesh, kind)
    for fn in (constant_fn(0.7, -0.3), linear_fn):
        coarse = interpolate(coarse_space, fn)
        fine = prolong(coarse, fine_space)
        expected = interpolate(fine_space, fn)
        assert np.allclose(fine.coeffs, expected.coeffs, atol=1e-14)


def test_prolong_random_field_matches_reinterpolation(lshape):
    """Prolongation equals direct evaluation at the fine nodes."""
    coarse_space = Space.continuous(lshape)
    coarse = random_field(coarse_space, seed=3)
    fine_mesh = red_refine(lshape)
    fine_space = Space.continuous(fine_mesh)
    fine = prolong(coarse, fine_space)
    # midpoint dofs are endpoint averages
    vp = fine_mesh.vertex_parents
    for comp in range(2):
        c = coarse.coeffs.reshape(2, -1)[comp]
        expect = 0.5 * (c[vp[:, 0]] + c[vp[:, 1]])
        f = fine.coeffs.reshape(2, -1)[comp]
        assert np.max(np.abs(f - expect)) <= 1e-13


def test_prolong_preserves_energy_seminorm(lshape):
    from nematicfem.fespace import broken_gradient_sq
    coarse_space = Space.continuous(lshape)
    coarse = random_field(coarse_space, seed=11)
    fine = prolong(coarse, Space.continuous(red_refine(lshape)))
    assert broken_gradient_sq(fine) == pytest.approx(
        broken_gradient_sq(coarse), abs=1e-13)


def test_prolong_requires_nesting(unit_square, lshape):
    """Transfer needs the fine mesh to refine the coarse mesh itself: an
    unrelated or unrefined mesh, a sibling refinement of the same mesh, a
    grandchild, or an equal mesh built from the parent's arrays raise."""
    coarse = random_field(Space.continuous(unit_square), seed=0)
    with pytest.raises(NestingError):
        prolong(coarse, Space.continuous(lshape))
    coarse = random_field(Space.dg(unit_square), seed=0)
    with pytest.raises(NestingError):
        prolong(coarse, Space.dg(red_refine(lshape)))
    parent = red_refine(lshape)
    child = red_refine(parent)
    sibling = nvb_refine(parent, [0])
    grandchild = red_refine(child)
    copy = Mesh(parent.vertices, parent.triangles, ref_edge=parent.ref_edge,
                shape=parent.shape)
    for kind in (CONTINUOUS, DG):
        prolong(random_field(Space(parent, kind), seed=1), Space(child, kind))
        for coarse_mesh, fine_mesh in [(child, sibling), (parent, grandchild),
                                       (copy, child)]:
            coarse = random_field(Space(coarse_mesh, kind), seed=1)
            with pytest.raises(NestingError):
                prolong(coarse, Space(fine_mesh, kind))


@pytest.mark.parametrize("refine", ["red", "nvb"])
@pytest.mark.parametrize("kind", [CONTINUOUS, DG])
def test_prolong_applies_the_parent_gather_matrix(lshape, kind, refine):
    """``prolong`` applies the prolongation matrix, whose rows each sum to
    1, and is bitwise equal to the mean of the two parent dofs."""
    from nematicfem.fespace import _parent_dofs
    coarse_mesh = red_refine(lshape)
    fine_mesh = (red_refine(coarse_mesh) if refine == "red"
                 else nvb_refine(coarse_mesh, np.arange(0, coarse_mesh.n_triangles, 3)))
    coarse = random_field(Space(coarse_mesh, kind), seed=7)
    fine_space = Space(fine_mesh, kind)
    p = prolongation_matrix(coarse.space, fine_space)
    assert p.shape == (fine_space.nscalar, coarse.space.nscalar)
    assert np.array_equal(np.asarray(p.sum(axis=1)).ravel(),
                          np.ones(fine_space.nscalar))
    a, b = _parent_dofs(coarse.space, fine_space).T
    c = coarse.coeffs.reshape(2, -1)
    gather = 0.5 * (c[:, a] + c[:, b])
    fine = prolong(coarse, fine_space).coeffs.reshape(2, -1)
    assert np.array_equal(fine, gather)


@pytest.mark.parametrize("kind", [CONTINUOUS, DG])
def test_composed_prolongation_over_two_nvb_levels(lshape, kind):
    """The product of two levels' prolongation matrices, applied to each
    component, is ``prolong`` applied twice; every fine dof lies in one
    coarse triangle, so each row holds at most 3 entries and sums to 1."""
    meshes = [red_refine(lshape)]
    for stride in (3, 2):
        meshes.append(nvb_refine(meshes[-1],
                                 np.arange(0, meshes[-1].n_triangles, stride)))
    spaces = [Space(m, kind) for m in meshes]
    composed = (prolongation_matrix(spaces[1], spaces[2])
                @ prolongation_matrix(spaces[0], spaces[1]))
    coarse = random_field(spaces[0], seed=11)
    twice = prolong(prolong(coarse, spaces[1]), spaces[2]).coeffs
    once = np.concatenate([composed @ c for c in coarse.coeffs.reshape(2, -1)])
    assert np.abs(once - twice).max() <= 1e-15
    assert composed.shape == (spaces[2].nscalar, spaces[0].nscalar)
    assert composed.getnnz(axis=1).max() <= 3
    assert np.abs(np.asarray(composed.sum(axis=1)).ravel() - 1.0).max() <= 1e-15


def test_prolong_dg_matches_parent_linears_on_nvb_slit(slit):
    """A discontinuous field prolonged onto an NVB refinement that bisects
    the slit faces (duplicated vertices) equals each parent's linear
    function evaluated at its children's nodes."""
    red = red_refine(slit)
    coarse_mesh = nvb_refine(red, np.arange(red.n_triangles))
    _, inverse, counts = np.unique(coarse_mesh.vertices, axis=0,
                                   return_inverse=True, return_counts=True)
    on_slit = counts[inverse.ravel()] == 2        # the duplicated vertices
    marked = np.flatnonzero(on_slit[coarse_mesh.triangles].any(axis=1))
    fine_mesh = nvb_refine(coarse_mesh, marked)
    vp = fine_mesh.vertex_parents
    slit_mid = on_slit[vp[:, 0]] & on_slit[vp[:, 1]] & (vp[:, 0] != vp[:, 1])
    assert slit_mid.sum() >= 4     # slit edges of both faces were bisected
    coarse = random_field(Space.dg(coarse_mesh), seed=5)
    fine = prolong(coarse, Space.dg(fine_mesh))

    parents = fine_mesh.tri_parents
    origin = coarse_mesh.vertices[coarse_mesh.triangles[parents, 0]]
    nodes = fine_mesh.vertices[fine_mesh.triangles]              # (Tf, 3, 2)
    grads = coarse.gradients()[parents]                          # (Tf, 2, 2)
    expect = (coarse.element_values()[parents, 0][:, None, :]
              + np.einsum("tcx,tix->tic", grads, nodes - origin[:, None, :]))
    assert np.abs(fine.element_values() - expect).max() <= 1e-13


def test_edge_normals_orient_by_the_plus_centroid(unit_square, lshape, slit):
    """Each edge normal points away from the centroid of its "plus"
    triangle, taken from the triangles' corners: bitwise the normal from a
    fresh gather of the plus triangle's corners, on red- and NVB-refined
    device, L-shape and slit meshes."""
    for mesh in (unit_square, lshape, slit):
        mesh = red_refine(red_refine(red_refine(mesh)))
        mesh = nvb_refine(mesh, np.arange(0, mesh.n_triangles, 3))
        ev = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
        tangent = ev / np.hypot(ev[:, 0], ev[:, 1])[:, None]
        normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                      + mesh.vertices[mesh.edges[:, 1]])
        cent_plus = mesh.vertices[
            mesh.triangles[mesh.edge_tris[:, 0]]].mean(axis=1)
        normal[((mids - cent_plus) * normal).sum(axis=1) < 0] *= -1
        assert np.array_equal(fespace.MeshGeometry(mesh).edge_normal, normal)


def test_edge_local_indices_match_vertex_search(unit_square, lshape, slit):
    """``loc``, read from the triangles' edge slots, is bitwise the local
    index found by searching each adjacent triangle for the edge's
    endpoints (-1 on the missing side of a boundary edge), on red- and
    NVB-refined device, L-shape and slit meshes."""
    for mesh in (unit_square, lshape, slit):
        red = red_refine(red_refine(mesh))
        for mesh in (red, nvb_refine(red, np.arange(0, red.n_triangles, 3))):
            expect = np.full((mesh.n_edges, 2, 2), -1, dtype=np.int8)
            for side in range(2):
                t = mesh.edge_tris[:, side]
                valid = t >= 0
                corners = mesh.triangles[t[valid]]
                for end in range(2):
                    v = mesh.edges[valid, end]
                    expect[valid, side, end] = np.argmax(
                        corners == v[:, None], axis=1)
            loc = fespace.MeshGeometry(mesh).loc
            assert loc.dtype == expect.dtype
            assert np.array_equal(loc, expect)


@pytest.mark.parametrize("n, sizes", [(0, []), (1, [1]), (7, [7]), (8, [8]),
                                      (14, [7, 7]), (15, [7, 8]),
                                      (16, [7, 7, 2])])
def test_triangle_blocks_partition(n, sizes, monkeypatch):
    """ERROR_BLOCK consecutive triangles per block, in order; a lone last
    triangle joins the block before it."""
    monkeypatch.setattr(fespace, "ERROR_BLOCK", 7)
    stops = np.cumsum(sizes)
    assert [(blk.start, blk.stop) for blk in fespace.triangle_blocks(n)] == [
        (stop - size, stop) for stop, size in zip(stops, sizes)]


def test_discrete_norm_zero_field(unit_square):
    space = Space.continuous(unit_square)
    assert discrete_norm(Field(space, np.zeros(space.ndof)), 10.0) == 0.0


def test_discrete_norm_constant_unit_square(unit_square):
    """No gradient: penalty term sigma * perimeter over the boundary."""
    space = Space.continuous(unit_square)
    field = interpolate(space, constant_fn(1.0, 0.0))
    assert discrete_norm(field, 10.0) == pytest.approx(np.sqrt(40.0))


def test_discrete_norm_rejects_bad_sigma(unit_square):
    field = random_field(Space.continuous(unit_square), seed=1)
    for sigma in (-1.0, np.nan):
        with pytest.raises(ConfigError):
            discrete_norm(field, sigma)


@pytest.mark.parametrize("kind", [CONTINUOUS, DG])
def test_error_norms_do_not_depend_on_block_size(lshape, slit, kind,
                                                 monkeypatch):
    """The error norms sum their quadrature over blocks of ERROR_BLOCK
    triangles; blocks of 7 (a ragged last block) give the one-block value
    to rounding."""
    for mesh, prob in ((lshape, lshape_problem(0.4)), (slit, slit_problem(1.0))):
        mesh = red_refine(red_refine(red_refine(mesh)))
        assert mesh.n_triangles % 7 and mesh.n_triangles < fespace.ERROR_BLOCK
        field = random_field(Space(mesh, kind), seed=3)
        whole = (energy_error_norm(field, prob.exact_grad, prob.g, 10.0),
                 l2_error_norm(field, prob.exact))
        monkeypatch.setattr(fespace, "ERROR_BLOCK", 7)
        blocks = (energy_error_norm(field, prob.exact_grad, prob.g, 10.0),
                  l2_error_norm(field, prob.exact))
        monkeypatch.undo()
        assert blocks == pytest.approx(whole, rel=1e-13)


def test_dg_norm_of_conforming_field_matches_nitsche(lshape):
    mesh = red_refine(lshape)
    cont = random_field(Space.continuous(mesh), seed=5)
    a = discrete_norm(cont, 10.0)
    b = discrete_norm(embedded(cont, Space.dg(mesh)), 10.0)
    assert b == pytest.approx(a, rel=1e-12)


def test_norm_triangle_inequality(unit_square):
    mesh = red_refine(unit_square)
    for space in (Space.continuous(mesh), Space.dg(mesh)):
        for seed in range(5):
            a = random_field(space, seed=3 * seed)
            b = random_field(space, seed=3 * seed + 1)
            ab = Field(space, a.coeffs + b.coeffs)
            na = discrete_norm(a, 10.0)
            nb = discrete_norm(b, 10.0)
            assert discrete_norm(ab, 10.0) <= na + nb + 1e-12


def test_l2_norm_constant(unit_square):
    space = Space.continuous(unit_square)
    field = interpolate(space, constant_fn(3.0, 4.0))
    assert l2_norm(field) == pytest.approx(5.0)


def test_free_energy_unit_modulus_constant(unit_square):
    space = Space.continuous(unit_square)
    field = interpolate(space, constant_fn(0.6, 0.8))
    assert free_energy(field, 0.5) == pytest.approx(0.0, abs=1e-13)


def test_free_energy_zero_field(unit_square):
    space = Space.continuous(unit_square)
    field = Field(space, np.zeros(space.ndof))
    assert free_energy(field, 1.0) == pytest.approx(1.0)
    assert free_energy(field, 0.5) == pytest.approx(4.0)
    for epsilon in (0.0, np.nan):
        with pytest.raises(ConfigError):
            free_energy(field, epsilon)


def test_jacobian_keeps_its_layout():
    """J at a state with zero entries (m12 = 0 where v = 0) keeps them: its
    index arrays are the layout's, so every Jacobian of a system has one
    structure.  Building it allocates one layout-sized data array, the
    data of the three quartic blocks and per-block temporaries (eight
    (ERROR_BLOCK, Q, 2) arrays of doubles), and no index array."""
    problem = device_problem(0.02)
    mesh = build_initial_mesh(problem.shape)
    for _ in range(7):
        mesh = red_refine(mesh)
    space = Space.continuous(mesh)
    cfg = MethodConfig(method="nitsche", epsilon=0.02)
    system = NonlinearSystem(space, cfg, problem.g)
    layout = system._layout
    coeffs = random_field(space, seed=2).coeffs
    coeffs[space.nscalar:] = 0.0
    assert space.mesh.n_triangles >= 2 * fespace.ERROR_BLOCK
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        jac = system.jacobian(coeffs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    for name in ("indices", "indptr"):
        ours, its = getattr(jac, name), getattr(layout, name)
        assert ours.shape == its.shape and np.shares_memory(ours, its)
    assert np.count_nonzero(jac.data) < jac.nnz == len(layout.indices)
    nq = len(triangle_rule(ASSEMBLY_DEGREE).weights)
    block = 8 * fespace.ERROR_BLOCK * nq * 2 * 8
    blocks = 3 * 8 * len(space.pattern.indices)
    assert peak <= 8 * len(layout.indices) + blocks + block
