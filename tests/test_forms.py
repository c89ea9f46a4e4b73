"""Assembled operators: values, symmetry, coercivity, derivative checks,
and the memory one Newton step's operators take."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import constant_fn, embedded, random_field
from nematicfem import fespace
from nematicfem.exceptions import ConfigError, SpaceMismatchError
from nematicfem.fespace import Field, Space, componentwise, interpolate
from nematicfem.forms import (MethodConfig, NonlinearSystem,
                              bulk_linear_matrix, cubic_term_vector,
                              gradient_matrix, load_vector, penalty_bound,
                              quartic_linearization, _volume_stiffness)
from nematicfem.mesh import (DomainShape, L_SHAPE, SLIT_SQUARE, UNIT_SQUARE,
                             build_initial_mesh, red_refine)
from nematicfem.problems import device_problem, lshape_problem
from nematicfem.quadrature import ASSEMBLY_DEGREE, triangle_rule


def nitsche_cfg(epsilon=1.0, sigma=10.0):
    return MethodConfig(method="nitsche", epsilon=epsilon, sigma=sigma)


def dg_cfg(epsilon=1.0, sigma=10.0, lam=1.0):
    return MethodConfig(method="dg", epsilon=epsilon, sigma=sigma, lam=lam)


def residual(psi, cfg, g, f=None):
    return NonlinearSystem(psi.space, cfg, g, f).residual(psi.coeffs)


def test_method_config_validation():
    for sigma in (0.0, np.nan):
        with pytest.raises(ConfigError):
            MethodConfig(method="nitsche", epsilon=1.0, sigma=sigma)
    for lam in (1.5, np.nan):
        with pytest.raises(ConfigError):
            MethodConfig(method="dg", epsilon=1.0, lam=lam)
    # 1e-200 squares to zero
    for epsilon in (-0.1, np.nan, 1e-200):
        with pytest.raises(ConfigError):
            MethodConfig(method="nitsche", epsilon=epsilon)
    with pytest.raises(ConfigError):
        MethodConfig(method="fem", epsilon=1.0)


def test_reference_triangle_stiffness(single_triangle):
    space = Space.continuous(single_triangle)
    K = _volume_stiffness(space).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected, atol=1e-14)


def test_nitsche_matrix_symmetric_and_coercive(unit_square):
    space = Space.continuous(unit_square)
    A = gradient_matrix(space, nitsche_cfg())
    assert abs(A - A.T).max() <= 1e-13
    eigs = np.linalg.eigvalsh(A.toarray())
    assert eigs.min() > 0


def test_nitsche_matrix_space_mismatch(unit_square):
    with pytest.raises(SpaceMismatchError):
        gradient_matrix(Space.dg(unit_square), nitsche_cfg())
    with pytest.raises(SpaceMismatchError):
        gradient_matrix(Space.continuous(unit_square), dg_cfg())


@pytest.mark.parametrize("kind", [UNIT_SQUARE, L_SHAPE, SLIT_SQUARE])
def test_penalty_bound_is_invariant_under_red_refinement(kind):
    """The coercivity bound depends on the triangle shapes only, which red
    refinement keeps: equal to rounding on three red levels, for Nitsche
    and for dG at lambda 1, 0 and -1 (a quarter of it at 0, zero at -1).
    The L-shape's are 4 (Nitsche) and 6 (SIPG)."""
    mesh = red_refine(build_initial_mesh(DomainShape(kind)))
    levels = []
    for _ in range(3):
        levels.append([penalty_bound(Space.continuous(mesh), nitsche_cfg())]
                      + [penalty_bound(Space.dg(mesh), dg_cfg(lam=lam))
                         for lam in (1.0, 0.0, -1.0)])
        mesh = red_refine(mesh)
    for bounds in levels:
        assert bounds == pytest.approx(levels[0], rel=1e-12, abs=0.0)
    nitsche, sipg, iipg, nipg = levels[0]
    assert iipg == pytest.approx(sipg / 4, rel=1e-12) and nipg == 0.0
    if kind == L_SHAPE:
        assert (nitsche, sipg) == pytest.approx((4.0, 6.0), rel=1e-12)


def test_gradient_matrix_refuses_penalty_at_or_below_bound(lshape):
    """A penalty at or below the coercivity bound raises, naming sigma and
    the bound; just above it the form is coercive (the symmetric part of
    its matrix is positive definite), as the bound's derivation says."""
    mesh = red_refine(lshape)
    for space, cfg in [(Space.continuous(mesh), nitsche_cfg(sigma=1.0)),
                       (Space.dg(mesh), dg_cfg(sigma=5.0)),
                       (Space.dg(mesh), dg_cfg(sigma=1.0, lam=0.0))]:
        bound = penalty_bound(space, cfg)
        assert cfg.sigma < bound
        for sigma in (cfg.sigma, bound):
            with pytest.raises(ConfigError, match=f"sigma = {sigma} .* "
                                                  f"bound {bound:.6g}"):
                gradient_matrix(space, MethodConfig(
                    method=cfg.method, epsilon=cfg.epsilon, sigma=sigma,
                    lam=cfg.lam))
        above = gradient_matrix(space, MethodConfig(
            method=cfg.method, epsilon=cfg.epsilon, sigma=1.001 * bound,
            lam=cfg.lam)).toarray()
        assert np.linalg.eigvalsh(0.5 * (above + above.T)).min() > 0
    assert penalty_bound(Space.dg(mesh), dg_cfg(lam=-1.0)) == 0.0
    gradient_matrix(Space.dg(mesh), dg_cfg(sigma=1e-3, lam=-1.0))


@pytest.mark.parametrize("lam,symmetric", [(1.0, True), (0.0, False), (-1.0, False)])
def test_dg_matrix_symmetry(unit_square, lam, symmetric):
    space = Space.dg(red_refine(unit_square))
    A = gradient_matrix(space, dg_cfg(lam=lam))
    asym = abs(A - A.T).max()
    if symmetric:
        assert asym <= 1e-13
    else:
        assert asym > 1e-8


@pytest.mark.parametrize("lam", [1.0, 0.0, -1.0])
def test_nitsche_ignores_lambda(unit_square, lam):
    """The symmetrization weight only enters the dG form: Nitsche's matrix
    and load are the same for every admissible weight."""
    space = Space.continuous(red_refine(unit_square))
    g = lambda p: np.stack([np.cos(p[:, 0]), np.sin(p[:, 1])], axis=1)
    base = MethodConfig(method="nitsche", epsilon=1.0, lam=1.0)
    cfg = MethodConfig(method="nitsche", epsilon=1.0, lam=lam)
    assert (gradient_matrix(space, cfg) - gradient_matrix(space, base)).nnz == 0
    assert np.array_equal(load_vector(space, cfg, g), load_vector(space, base, g))


def test_dg_matrix_coercive(unit_square):
    space = Space.dg(unit_square)
    A = gradient_matrix(space, dg_cfg())
    eigs = np.linalg.eigvalsh(A.toarray())
    assert eigs.min() > 0


def test_dg_matrix_on_conforming_field_matches_nitsche(unit_square):
    """Interior jumps of an embedded continuous field vanish, so the dG
    quadratic form reduces to the Nitsche one."""
    mesh = red_refine(unit_square)
    cont = Space.continuous(mesh)
    dg = Space.dg(mesh)
    c = random_field(cont, seed=2)
    d = embedded(c, dg)
    qa = c.coeffs @ componentwise(gradient_matrix(cont, nitsche_cfg()), c.coeffs)
    qd = d.coeffs @ componentwise(gradient_matrix(dg, dg_cfg()), d.coeffs)
    assert qd == pytest.approx(qa, rel=1e-12)


def _quartic_form(w, cfg):
    """The quartic term (2/(3 eps^2)) integral of ((w.w)(theta.phi)
    + 2 (w.theta)(w.phi)) as a matrix in (theta, phi): a third of the
    linearization at w."""
    m11, m12, m22 = quartic_linearization(w, cfg)
    return sp.bmat([[m11, m12], [m12, m22]], format="csr") / 3.0


def test_quartic_term_constants(unit_square):
    """On the unit square at eps = 1 the quartic term of the constant unit
    field e1 is 2/3 (1 + 2) = 2, and it vanishes for theta = e2."""
    space = Space.continuous(unit_square)
    e1 = interpolate(space, constant_fn(1.0, 0.0))
    e2 = interpolate(space, constant_fn(0.0, 1.0))
    form = _quartic_form(e1, nitsche_cfg())
    assert e1.coeffs @ form @ e1.coeffs == pytest.approx(2.0)
    assert e2.coeffs @ form @ e1.coeffs == pytest.approx(0.0, abs=1e-14)


def test_quartic_term_symmetric_in_last_two(unit_square):
    """The quartic term at a fixed w is symmetric in (theta, phi): the
    linearization's diagonal blocks are symmetric and its off-diagonal
    block serves both (u, v) and (v, u)."""
    space = Space.continuous(red_refine(unit_square))
    form = _quartic_form(random_field(space, seed=0), nitsche_cfg())
    p = random_field(space, seed=1).coeffs
    q = random_field(space, seed=2).coeffs
    assert p @ form @ q == pytest.approx(q @ form @ p, rel=1e-12)


def test_quartic_linearization_consistent_with_cubic(unit_square):
    """The linearization at w applied to w gives three times the cubic term."""
    space = Space.continuous(red_refine(unit_square))
    cfg = nitsche_cfg(epsilon=0.8)
    w = random_field(space, seed=4)
    m11, m12, m22 = quartic_linearization(w, cfg)
    lin = sp.bmat([[m11, m12], [m12, m22]])
    assert np.allclose(lin @ w.coeffs, 3.0 * cubic_term_vector(w, cfg),
                       atol=1e-12)


def test_bulk_linear_matrix_value_and_scaling(unit_square):
    space = Space.continuous(unit_square)
    ones = interpolate(space, constant_fn(1.0, 0.0))
    val = ones.coeffs @ componentwise(bulk_linear_matrix(space, nitsche_cfg()),
                                      ones.coeffs)
    assert val == pytest.approx(-2.0)
    half = bulk_linear_matrix(space, nitsche_cfg(epsilon=0.5))
    full = bulk_linear_matrix(space, nitsche_cfg(epsilon=1.0))
    assert np.allclose(half.toarray(), 4.0 * full.toarray(), atol=1e-13)
    assert abs(half - half.T).max() <= 1e-13


def test_load_zero_data(unit_square):
    space = Space.continuous(unit_square)
    L = load_vector(space, nitsche_cfg(), constant_fn(0.0, 0.0))
    assert np.abs(L).max() == 0.0


def test_load_penalty_part_single_edge(single_triangle):
    """g = (1,0) supported on one boundary edge of length 1 at sigma = 10:
    the penalty contributes 10 * integral of the endpoint hats = 5 per
    endpoint; the consistency part is isolated by sigma-extrapolation."""
    space = Space.continuous(single_triangle)

    def g(points):
        out = np.zeros((len(points), 2))
        out[np.abs(points[:, 1]) < 1e-12, 0] = 1.0
        return out

    L10 = load_vector(space, nitsche_cfg(sigma=10.0), g)
    L20 = load_vector(space, nitsche_cfg(sigma=20.0), g)
    penalty_unit = (L20 - L10) / 10.0  # load at sigma=1 penalty, no consistency
    mesh = single_triangle
    horizontal = [e for e in mesh.boundary_edges
                  if np.allclose(mesh.vertices[mesh.edges[e]][:, 1], 0.0)]
    a, b = mesh.edges[horizontal[0]]
    assert penalty_unit[a] == pytest.approx(0.5)
    assert penalty_unit[b] == pytest.approx(0.5)
    # v components untouched by a u-only g
    assert np.abs(L10[space.nscalar:]).max() == 0.0


def test_load_source_partition_of_unity(unit_square):
    space = Space.continuous(unit_square)
    L = load_vector(space, nitsche_cfg(), constant_fn(0.0, 0.0),
                    f=constant_fn(1.0, 0.0))
    assert L[:space.nscalar].sum() == pytest.approx(1.0)
    assert np.abs(L[space.nscalar:]).max() == 0.0


def test_residual_zero_everything(unit_square):
    space = Space.continuous(unit_square)
    cfg = nitsche_cfg()
    r = residual(Field(space, np.zeros(space.ndof)), cfg,
                 constant_fn(0.0, 0.0))
    assert np.abs(r).max() == 0.0


def test_residual_component_decoupling(unit_square):
    """With v-free data and state, all v-component residual entries vanish."""
    space = Space.continuous(red_refine(unit_square))
    cfg = nitsche_cfg(epsilon=0.5)
    rng = np.random.default_rng(8)
    coeffs = np.zeros(space.ndof)
    coeffs[:space.nscalar] = rng.standard_normal(space.nscalar)
    psi = Field(space, coeffs)
    r = residual(psi, cfg, constant_fn(0.7, 0.0), f=constant_fn(0.2, 0.0))
    assert np.abs(r[space.nscalar:]).max() <= 1e-14
    assert np.abs(r[:space.nscalar]).max() > 0


@pytest.mark.parametrize("method", ["nitsche", "dg"])
def test_jacobian_matches_finite_differences(unit_square, method):
    mesh = red_refine(red_refine(unit_square))
    space = Space.continuous(mesh) if method == "nitsche" else Space.dg(mesh)
    cfg = MethodConfig(method=method, epsilon=0.7, sigma=10.0)
    g = lambda p: np.stack([np.cos(p[:, 0]), np.sin(p[:, 1])], axis=1)
    f = lambda p: np.stack([p[:, 0], 0.3 + 0 * p[:, 1]], axis=1)
    system = NonlinearSystem(space, cfg, g, f)
    rng = np.random.default_rng(12)
    psi = 0.5 * rng.standard_normal(space.ndof)
    delta = rng.standard_normal(space.ndof)
    step = 1e-6
    fd = (system.residual(psi + step * delta) - system.residual(psi)) / step
    jv = system.jacobian(psi) @ delta
    assert np.linalg.norm(fd - jv) <= 1e-5 * np.linalg.norm(jv)


def test_jacobian_at_zero_is_linear_part(unit_square):
    space = Space.continuous(unit_square)
    cfg = nitsche_cfg()
    J = NonlinearSystem(space, cfg, constant_fn(0.0, 0.0)).jacobian(
        np.zeros(space.ndof))
    expected = sp.kron(sp.eye(2), gradient_matrix(space, cfg)
                       + bulk_linear_matrix(space, cfg))
    assert abs(J - expected).max() <= 1e-14


@pytest.mark.parametrize("method,lam", [("nitsche", 1.0), ("dg", 1.0)])
def test_jacobian_symmetry(unit_square, method, lam):
    mesh = red_refine(unit_square)
    space = Space.continuous(mesh) if method == "nitsche" else Space.dg(mesh)
    cfg = MethodConfig(method=method, epsilon=0.6, sigma=10.0, lam=lam)
    psi = random_field(space, seed=3)
    J = NonlinearSystem(space, cfg, constant_fn(0.0, 0.0)).jacobian(psi.coeffs)
    assert abs(J - J.T).max() <= 1e-13


def test_dg_residual_aggregates_to_nitsche_on_conforming(lshape):
    """With lam = 1 the dG residual of an embedded continuous field sums,
    per conforming test function, to the Nitsche residual."""
    mesh = red_refine(lshape)
    prob = lshape_problem(0.8)
    cont = Space.continuous(mesh)
    dg = Space.dg(mesh)
    psi = random_field(cont, seed=6, scale=0.4)
    r_cont = residual(psi, nitsche_cfg(epsilon=0.8), prob.g, prob.f)
    r_dg = residual(embedded(psi, dg),
                    dg_cfg(epsilon=0.8, lam=1.0), prob.g, prob.f)
    # sum dG entries over the triangle copies of each vertex, per component
    agg = np.zeros(cont.ndof)
    for comp in range(2):
        np.add.at(agg[comp * cont.nscalar:(comp + 1) * cont.nscalar],
                  mesh.triangles.ravel(),
                  r_dg[comp * dg.nscalar:(comp + 1) * dg.nscalar])
    scale = np.abs(r_cont).max()
    assert np.abs(agg - r_cont).max() <= 1e-12 * max(scale, 1.0)


def test_consistency_residual_of_interpolant_decays(lshape):
    """residual(I_h exact) tested in max|entry|/sqrt(ndof) decreases under
    refinement (three nested levels)."""
    prob = lshape_problem(0.9)
    cfg = nitsche_cfg(epsilon=0.9)
    mesh = red_refine(lshape)
    norms = []
    for _ in range(3):
        space = Space.continuous(mesh)
        ih = interpolate(space, prob.exact)
        r = residual(ih, cfg, prob.g, prob.f)
        norms.append(np.abs(r).max() / np.sqrt(space.ndof))
        mesh = red_refine(mesh)
    assert norms[1] < norms[0]
    assert norms[2] < norms[1]


def _traced_peak(call):
    """``call()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method, refinements", [("nitsche", 7), ("dg", 6)])
def test_newton_step_memory_is_bounded(method, refinements):
    """The quartic linearization, one Jacobian and one residual on a
    device mesh of several blocks of ERROR_BLOCK triangles stay within
    what their design holds at once.  The linearization: the data of its
    three blocks on the element pattern and per-block temporaries.  J: its
    data array, those three blocks' data and per-block temporaries (J's
    index arrays are its layout's, built with the system).  The residual:
    four coefficient vectors (the linear part's product and its transposed
    copy, the cubic term and a sum) and per-block temporaries.  A block's temporaries are
    the values at its quadrature points and a few arrays of that size or
    half of it, the kernels and the local entries: eight (ERROR_BLOCK, Q,
    2) arrays of doubles bound them."""
    problem = device_problem(0.02)
    mesh = build_initial_mesh(problem.shape)
    for _ in range(refinements):
        mesh = red_refine(mesh)
    assert mesh.n_triangles >= 2 * fespace.ERROR_BLOCK
    make = Space.continuous if method == "nitsche" else Space.dg
    space = make(mesh)
    system = NonlinearSystem(space, MethodConfig(method=method, epsilon=0.02),
                             problem.g, problem.f)
    coeffs = random_field(space, seed=1).coeffs
    nq = len(triangle_rule(ASSEMBLY_DEGREE).weights)
    block = 8 * fespace.ERROR_BLOCK * nq * 2 * 8

    blocks = 3 * 8 * len(space.pattern.indices)
    _, peak = _traced_peak(lambda: quartic_linearization(
        Field(space, coeffs), system.cfg))
    assert peak <= blocks + block

    jac, peak = _traced_peak(lambda: system.jacobian(coeffs))
    assert peak <= jac.data.nbytes + blocks + block

    _, peak = _traced_peak(lambda: system.residual(coeffs))
    assert peak <= 4 * 8 * space.ndof + block
