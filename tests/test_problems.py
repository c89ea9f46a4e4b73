"""Benchmark problem data: exact values, harmonicity, source consistency."""

import numpy as np
import pytest

from nematicfem.exceptions import ConfigError
from nematicfem.mesh import build_initial_mesh
from nematicfem.problems import (device_problem, lshape_problem, make_problem,
                                 slit_problem, trapezoid_profile)


def fd_laplacian(fn, points, h=1e-4):
    """Five-point finite-difference Laplacian per component."""
    shifts = [(h, 0), (-h, 0), (0, h), (0, -h)]
    acc = -4.0 * fn(points)
    for dx, dy in shifts:
        acc = acc + fn(points + np.array([dx, dy]))
    return acc / h ** 2


def interior_samples(problem, n, seed):
    """Random points inside the domain, away from the singular corner."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x, y = rng.uniform(-1, 1, size=2)
        if problem.shape.kind == "l-shape":
            inside = not (x >= -1e-2 and y <= 1e-2) and max(abs(x), abs(y)) < 0.99
        elif problem.shape.kind == "slit-square":
            inside = abs(x) + abs(y) < 0.98 and not (x > -1e-2 and abs(y) < 1e-2)
        else:
            x, y = (x + 1) / 2, (y + 1) / 2
            inside = 1e-2 < x < 1 - 1e-2 and 1e-2 < y < 1 - 1e-2
        if inside and np.hypot(x, y) > 0.15:
            pts.append((x, y))
    return np.array(pts)


def test_lshape_exact_values():
    prob = lshape_problem(0.4)
    val = prob.exact(np.array([[0.0, 1.0]]))  # r=1, theta=pi/2
    assert val[0, 0] == pytest.approx(np.sin(np.pi / 3))
    assert val[0, 1] == pytest.approx(np.sin(np.pi / 4))


def test_lshape_vanishes_on_positive_x_leg():
    prob = lshape_problem(0.4)
    pts = np.stack([np.linspace(0.1, 1.0, 7), np.zeros(7)], axis=1)
    assert np.abs(prob.exact(pts)).max() <= 1e-14


def test_lshape_harmonic_components():
    prob = lshape_problem(0.4)
    lap = fd_laplacian(prob.exact, np.array([[-0.5, 0.5]]))
    assert np.abs(lap).max() <= 1e-4


def test_slit_exact_values():
    prob = slit_problem(0.6)
    val = prob.exact(np.array([[-1.0, 0.0]]))  # r=1, theta=pi
    assert val[0, 0] == pytest.approx(np.sin(np.pi / 2))
    assert val[0, 1] == val[0, 0]


def test_slit_faces_agree_in_value():
    """g is zero on both slit faces; the duplicated mesh vertices keep the
    topology apart even though the traces coincide in value."""
    prob = slit_problem(0.6)
    top = prob.exact(np.array([[0.5, 0.0]]))
    bottom = prob.exact(np.array([[0.5, -0.0]]))
    assert np.abs(top).max() <= 1e-14
    assert np.abs(bottom).max() <= 1e-14
    mesh = build_initial_mesh(prob.shape)
    ids = np.flatnonzero((mesh.vertices == [0.5, 0.0]).all(axis=1))
    assert len(ids) == 2


@pytest.mark.parametrize("builder,eps", [(lshape_problem, 0.4),
                                         (slit_problem, 0.6),
                                         (device_problem, 0.02)])
def test_boundary_data_matches_exact_trace(builder, eps):
    prob = builder(eps)
    if not prob.has_exact:
        return
    mesh = build_initial_mesh(prob.shape)
    be = mesh.boundary_edges
    mids = 0.5 * (mesh.vertices[mesh.edges[be, 0]] + mesh.vertices[mesh.edges[be, 1]])
    assert np.abs(prob.g(mids) - prob.exact(mids)).max() <= 1e-12


@pytest.mark.parametrize("name,eps", [("lshape", 0.4), ("slit", 0.6)])
def test_manufactured_source_consistency(name, eps):
    """f = -laplace(exact) - (2/eps^2)(1 - |exact|^2) exact at 20 random
    interior points, against a finite-difference Laplacian."""
    prob = make_problem(name, eps)
    pts = interior_samples(prob, 20, seed=42)
    lap = fd_laplacian(prob.exact, pts)
    vals = prob.exact(pts)
    norm2 = (vals ** 2).sum(1, keepdims=True)
    expected = -lap - 2.0 / eps ** 2 * (1.0 - norm2) * vals
    assert np.abs(prob.f(pts) - expected).max() <= 1e-4


def test_trapezoid_profile_values():
    d = 0.06
    assert trapezoid_profile(0.03, d) == pytest.approx(0.5)
    assert trapezoid_profile(0.5, d) == pytest.approx(1.0)
    assert trapezoid_profile(0.0, d) == 0.0
    assert trapezoid_profile(1.0, d) == 0.0
    assert trapezoid_profile(0.97, d) == pytest.approx(0.5)


def test_device_boundary_values():
    prob = device_problem(0.02)
    val = prob.g(np.array([[0.0, 0.5]]))
    assert val[0, 0] == pytest.approx(-1.0)
    assert val[0, 1] == 0.0
    val = prob.g(np.array([[0.5, 1.0]]))
    assert val[0, 0] == pytest.approx(1.0)


def test_device_g_continuous_at_corners():
    prob = device_problem(0.02)
    for corner in ([0, 0], [1, 0], [0, 1], [1, 1]):
        assert np.abs(prob.g(np.array([corner], dtype=float))).max() <= 1e-12


def test_device_g_continues_from_nearest_edge():
    """Inside the square g takes the data of the nearest edge, a horizontal
    one on ties."""
    prob = device_problem(0.02)
    pts = np.array([[0.5, 0.1], [0.1, 0.5], [0.97, 0.5], [0.3, 0.3],
                    [0.5, 0.97]])
    expect = np.array([[1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0],
                       [1.0, 0.0], [1.0, 0.0]])
    assert np.abs(prob.g(pts) - expect).max() <= 1e-14


def test_device_ramp_width_limit():
    with pytest.raises(ConfigError):
        device_problem(0.2)  # d = 0.6 >= 1/2


@pytest.mark.parametrize("name", ["lshape", "slit", "device"])
def test_problem_rejects_bad_epsilon(name):
    """Every builder rejects an epsilon that is not positive, NaN, or so
    small that its square, which the bulk terms divide by, is zero."""
    for epsilon in (0.0, -0.1, np.nan, 1e-200):
        with pytest.raises(ConfigError):
            make_problem(name, epsilon)


def test_make_problem_unknown():
    with pytest.raises(ConfigError):
        make_problem("annulus", 0.4)


def test_polar_branch_continuity_lshape():
    """The angle branch cut sits inside the removed quadrant: the exact
    solution is smooth across the negative x-axis."""
    prob = lshape_problem(0.4)
    above = prob.exact(np.array([[-0.5, 1e-9]]))
    below = prob.exact(np.array([[-0.5, -1e-9]]))
    assert np.abs(above - below).max() <= 1e-8
