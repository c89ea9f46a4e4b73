"""Spaces, fields, interpolation, prolongation and norms."""

import numpy as np
import pytest

from conftest import constant_fn, linear_fn, random_field
from nematicfem.exceptions import (ConfigError, DataEvaluationError,
                                   NestingError, SpaceMismatchError)
from nematicfem.fespace import (CONTINUOUS, DG, Field, Space, discrete_norm,
                                dump_field, embed_continuous,
                                energy_error_norm, free_energy, interpolate,
                                l2_norm, load_field, prolong)
from nematicfem.mesh import red_refine
from nematicfem.problems import device_problem, trapezoid_profile


def test_dof_counts(unit_square):
    cont = Space.continuous(unit_square)
    assert cont.ndof == 2 * unit_square.n_vertices
    dg = Space.dg(unit_square)
    assert dg.ndof == 2 * 3 * unit_square.n_triangles


def test_interpolate_constant(unit_square):
    space = Space.continuous(unit_square)
    field = interpolate(space, constant_fn(1.0, 0.0))
    assert np.all(field.components[0] == 1.0)
    assert np.all(field.components[1] == 0.0)


def test_interpolate_reproduces_linears(unit_square):
    space = Space.continuous(unit_square)
    field = interpolate(space, linear_fn)
    assert np.allclose(field.components[0], unit_square.vertices[:, 0])
    assert np.allclose(field.components[1], unit_square.vertices[:, 1])


def test_interpolate_trapezoid_boundary_value():
    assert trapezoid_profile(0.03, 0.06) == pytest.approx(0.5)
    g = device_problem(0.02).g
    val = g(np.array([[0.03, 0.0]]))
    assert val[0, 0] == pytest.approx(0.5)
    assert val[0, 1] == 0.0


def test_interpolate_nonfinite_names_node(unit_square):
    space = Space.continuous(unit_square)

    def bad(points):
        out = np.zeros((len(points), 2))
        out[2, 0] = np.inf
        return out

    with pytest.raises(DataEvaluationError, match="node 2"):
        interpolate(space, bad)


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
        expect = 0.5 * (coarse.components[comp][vp[:, 0]]
                        + coarse.components[comp][vp[:, 1]])
        assert np.max(np.abs(fine.components[comp] - expect)) <= 1e-13


def test_prolong_preserves_energy_seminorm(lshape):
    from nematicfem.fespace import broken_gradient_sq
    coarse_space = Space.continuous(lshape)
    coarse = random_field(coarse_space, seed=11)
    fine = prolong(coarse, Space.continuous(red_refine(lshape)))
    assert broken_gradient_sq(fine) == pytest.approx(
        broken_gradient_sq(coarse), abs=1e-13)


def test_prolong_requires_nesting(unit_square, lshape):
    coarse = random_field(Space.continuous(unit_square), seed=0)
    with pytest.raises(NestingError):
        prolong(coarse, Space.continuous(lshape))


def test_discrete_norm_zero_field(unit_square):
    space = Space.continuous(unit_square)
    assert discrete_norm(Field(space, np.zeros(space.ndof)), "nitsche", 10.0) == 0.0


def test_discrete_norm_constant_unit_square(unit_square):
    """No gradient: penalty term sigma * perimeter over the boundary."""
    space = Space.continuous(unit_square)
    field = interpolate(space, constant_fn(1.0, 0.0))
    assert discrete_norm(field, "nitsche", 10.0) == pytest.approx(np.sqrt(40.0))


def test_discrete_norm_rejects_bad_sigma(unit_square):
    field = random_field(Space.continuous(unit_square), seed=1)
    with pytest.raises(ConfigError):
        discrete_norm(field, "nitsche", -1.0)
    with pytest.raises(ConfigError):
        discrete_norm(field, "galerkin", 1.0)


def test_energy_error_norm_rejects_unknown_method(unit_square):
    """An unknown method name is an error, not the Nitsche norm."""
    field = random_field(Space.dg(unit_square), seed=1)
    exact_grad = lambda p: np.zeros((len(p), 2, 2))
    with pytest.raises(ConfigError):
        energy_error_norm(field, exact_grad, constant_fn(0.0, 0.0), "DG", 10.0)


def test_dg_norm_of_conforming_field_matches_nitsche(lshape):
    mesh = red_refine(lshape)
    cont = random_field(Space.continuous(mesh), seed=5)
    embedded = embed_continuous(cont, Space.dg(mesh))
    a = discrete_norm(cont, "nitsche", 10.0)
    b = discrete_norm(embedded, "dg", 10.0)
    assert b == pytest.approx(a, rel=1e-12)


def test_norm_triangle_inequality(unit_square):
    mesh = red_refine(unit_square)
    space = Space.dg(mesh)
    for seed in range(5):
        a = random_field(space, seed=3 * seed)
        b = random_field(space, seed=3 * seed + 1)
        ab = Field(space, a.coeffs + b.coeffs)
        for method in ("nitsche", "dg"):
            na = discrete_norm(a, method, 10.0)
            nb = discrete_norm(b, method, 10.0)
            assert discrete_norm(ab, method, 10.0) <= na + nb + 1e-12


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
    with pytest.raises(ConfigError):
        free_energy(field, 0.0)


def test_field_dump_load_roundtrip(unit_square, tmp_path):
    space = Space.continuous(unit_square)
    field = random_field(space, seed=9)
    path = tmp_path / "field.csv"
    dump_field(field, path)
    back = load_field(space, path)
    assert np.array_equal(back.coeffs, field.coeffs)
