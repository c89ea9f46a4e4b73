"""Assembled operators: values, symmetry, coercivity, derivative checks."""

import numpy as np
import pytest

from conftest import constant_fn, random_field
from nematicfem.exceptions import ConfigError, SpaceMismatchError
from nematicfem.fespace import (Field, Space, embed_continuous, interpolate,
                                zero_field)
from nematicfem.forms import (MethodConfig, NonlinearSystem,
                              bulk_linear_matrix, cubic_term_vector,
                              dump_operator, gradient_matrix, load_vector,
                              quartic_linearization, quartic_term,
                              _volume_stiffness)
from nematicfem.mesh import red_refine
from nematicfem.problems import lshape_problem


def nitsche_cfg(epsilon=1.0, sigma=10.0):
    return MethodConfig(method="nitsche", epsilon=epsilon, sigma=sigma)


def dg_cfg(epsilon=1.0, sigma=10.0, lam=1.0):
    return MethodConfig(method="dg", epsilon=epsilon, sigma=sigma, lam=lam)


def residual(psi, cfg, g, f=None):
    return NonlinearSystem(psi.space, cfg, g, f).residual(psi.coeffs)


def test_method_config_validation():
    with pytest.raises(ConfigError):
        MethodConfig(method="nitsche", epsilon=1.0, sigma=0.0)
    with pytest.raises(ConfigError):
        MethodConfig(method="dg", epsilon=1.0, lam=1.5)
    with pytest.raises(ConfigError):
        MethodConfig(method="nitsche", epsilon=-0.1)
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
    d = embed_continuous(c, dg)
    qa = c.coeffs @ (gradient_matrix(cont, nitsche_cfg()) @ c.coeffs)
    qd = d.coeffs @ (gradient_matrix(dg, dg_cfg()) @ d.coeffs)
    assert qd == pytest.approx(qa, rel=1e-12)


def test_quartic_term_constants(unit_square):
    space = Space.continuous(unit_square)
    e1 = interpolate(space, constant_fn(1.0, 0.0))
    e2 = interpolate(space, constant_fn(0.0, 1.0))
    cfg = nitsche_cfg()
    assert quartic_term(e1, e1, e1, e1, cfg) == pytest.approx(2.0)
    assert quartic_term(e1, e1, e2, e1, cfg) == pytest.approx(0.0, abs=1e-14)


def test_quartic_term_symmetric_in_last_two(unit_square):
    space = Space.continuous(red_refine(unit_square))
    cfg = nitsche_cfg()
    a = random_field(space, seed=0)
    p = random_field(space, seed=1)
    q = random_field(space, seed=2)
    assert quartic_term(a, a, p, q, cfg) == pytest.approx(
        quartic_term(a, a, q, p, cfg), rel=1e-12)


def test_quartic_linearization_consistent_with_cubic(unit_square):
    """The linearization at w applied to w gives three times the cubic term."""
    space = Space.continuous(red_refine(unit_square))
    cfg = nitsche_cfg(epsilon=0.8)
    w = random_field(space, seed=4)
    lin = quartic_linearization(w, cfg)
    assert np.allclose(lin @ w.coeffs, 3.0 * cubic_term_vector(w, cfg),
                       atol=1e-12)


def test_bulk_linear_matrix_value_and_scaling(unit_square):
    space = Space.continuous(unit_square)
    ones = interpolate(space, constant_fn(1.0, 0.0))
    val = ones.coeffs @ (bulk_linear_matrix(space, nitsche_cfg()) @ ones.coeffs)
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
    r = residual(zero_field(space), cfg, constant_fn(0.0, 0.0))
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
        zero_field(space).coeffs)
    expected = gradient_matrix(space, cfg) + bulk_linear_matrix(space, cfg)
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
    r_dg = residual(embed_continuous(psi, dg),
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


def test_operator_dump(unit_square, tmp_path):
    space = Space.continuous(unit_square)
    A = gradient_matrix(space, nitsche_cfg())
    path = tmp_path / "op.txt"
    dump_operator(A, path)
    rows = path.read_text().strip().splitlines()
    r, c, v = rows[0].split()
    assert float(v) == A.tocoo().data[0]
    assert len(rows) == A.nnz
