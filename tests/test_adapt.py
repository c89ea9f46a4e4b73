"""Element indicators, Doerfler marking and the adaptive loop."""

import numpy as np
import pytest

from nematicfem.adapt import (AdaptConfig, adaptive_loop, check_dorfler,
                              dorfler_mark, element_indicators, solve_levels)
from nematicfem.estimator import EstimatorBreakdown
from nematicfem.exceptions import ConfigError
from nematicfem.forms import MethodConfig
from nematicfem.mesh import build_initial_mesh, nvb_refine, red_refine
from nematicfem.problems import lshape_problem
from nematicfem.solver import NewtonConfig


def breakdown_for(mesh, tri=None, int_edge=None, bd_edge=None):
    t = np.zeros(mesh.n_triangles) if tri is None else np.asarray(tri, float)
    ie = mesh.interior_edges
    be = mesh.boundary_edges
    i = np.zeros(len(ie)) if int_edge is None else np.asarray(int_edge, float)
    b = np.zeros(len(be)) if bd_edge is None else np.asarray(bd_edge, float)
    total = float(np.sqrt((t ** 2).sum() + (i ** 2).sum() + (b ** 2).sum()))
    return EstimatorBreakdown(t, i, b, total)


def test_indicator_volume_only(unit_square):
    br = breakdown_for(unit_square, tri=[2.0, 3.0])
    xi = element_indicators(br, unit_square)
    assert np.allclose(xi, [2.0, 3.0])


def test_indicator_shared_edge_counts_twice(unit_square):
    """A single interior-edge value c contributes c to both neighbours."""
    c = 1.7
    br = breakdown_for(unit_square, int_edge=[c])
    xi = element_indicators(br, unit_square)
    assert np.allclose(xi, [c, c])
    assert (xi ** 2).sum() == pytest.approx(2 * c ** 2)


def test_indicator_zero_breakdown(unit_square):
    xi = element_indicators(breakdown_for(unit_square), unit_square)
    assert np.all(xi == 0)


def test_indicator_stale_breakdown_rejected(unit_square):
    br = breakdown_for(unit_square)
    fine = red_refine(unit_square)
    with pytest.raises(ConfigError):
        element_indicators(br, fine)


def test_dorfler_greedy_example():
    marked = dorfler_mark([4.0, 3.0, 2.0, 1.0], 0.3)
    assert list(marked) == [0]  # 16 >= 0.3 * 30


def test_dorfler_theta_one_marks_nonzero():
    marked = dorfler_mark([4.0, 0.0, 2.0, 1.0], 1.0)
    assert list(marked) == [0, 2, 3]


def test_dorfler_uniform_indicators():
    n = 10
    for theta in (0.25, 0.3, 0.5, 1.0):
        marked = dorfler_mark(np.ones(n), theta)
        assert len(marked) == int(np.ceil(theta * n))


def test_dorfler_empty_rejected():
    with pytest.raises(ConfigError):
        dorfler_mark([], 0.3)


def test_dorfler_property_random():
    rng = np.random.default_rng(0)
    for trial in range(25):
        xi = rng.random(rng.integers(1, 60)) ** 2
        theta = rng.uniform(0.05, 1.0)
        marked = dorfler_mark(xi, theta)
        holds, minimal = check_dorfler(xi, marked, theta)
        assert holds
        assert minimal


def test_adaptive_loop_lshape_properties():
    """Doerfler property per level, strict refinement of marked triangles,
    bounded growth, corner concentration."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    mesh = red_refine(build_initial_mesh(prob.shape))
    acfg = AdaptConfig(dorfler_theta=0.3, max_levels=14)
    records = adaptive_loop(prob, mesh, cfg, NewtonConfig(), acfg)
    assert len(records) == 14
    ndof = np.array([r.ndof for r in records])
    assert np.all(ndof[1:] > ndof[:-1])
    assert np.all(ndof[1:] <= 4 * ndof[:-1])
    err = np.array([r.err_energy for r in records])
    assert err[-1] < err[0]
    assert records[-1].order_est == pytest.approx(
        np.log(records[-2].estimator / records[-1].estimator)
        / np.log(records[-1].ndof / records[-2].ndof))


def test_adaptive_loop_marks_and_refines_strictly():
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    from nematicfem.estimator import estimate
    from nematicfem.fespace import Space
    from nematicfem.solver import laplace_guess, newton_solve

    mesh = red_refine(build_initial_mesh(prob.shape))
    for _ in range(6):
        space = Space.continuous(mesh)
        sol, _ = newton_solve(space, cfg, prob.g, prob.f,
                              laplace_guess(space, cfg, prob.g, prob.f),
                              NewtonConfig())
        xi = element_indicators(estimate(sol, cfg, prob.g, prob.f), mesh)
        marked = dorfler_mark(xi, 0.3)
        holds, minimal = check_dorfler(xi, marked, 0.3)
        assert holds and minimal
        fine = nvb_refine(mesh, marked)
        fine.check_conforming(geometric=fine.n_triangles < 2000)
        children = np.bincount(fine.tri_parents, minlength=mesh.n_triangles)
        assert np.all(children[marked] >= 2)
        mesh = fine


def test_adaptive_concentrates_at_corner():
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    mesh = red_refine(build_initial_mesh(prob.shape))
    from nematicfem.estimator import estimate
    from nematicfem.fespace import Space
    from nematicfem.solver import laplace_guess, newton_solve

    fractions = []
    for _ in range(12):
        space = Space.continuous(mesh)
        sol, _ = newton_solve(space, cfg, prob.g, prob.f,
                              laplace_guess(space, cfg, prob.g, prob.f),
                              NewtonConfig())
        xi = element_indicators(estimate(sol, cfg, prob.g, prob.f), mesh)
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        near = np.hypot(cent[:, 0], cent[:, 1]) < 0.25
        fractions.append(near.mean())
        mesh = nvb_refine(mesh, dorfler_mark(xi, 0.3))
    # bisection levels are finer-grained than one estimator halving, so the
    # strict increase is asserted across three-level strides
    strided = fractions[3::3]
    assert all(b > a for a, b in zip(strided, strided[1:]))
    assert fractions[-1] > 0.3


def test_adapt_config_validation():
    with pytest.raises(ConfigError):
        AdaptConfig(dorfler_theta=0.0)
    with pytest.raises(ConfigError):
        AdaptConfig(dorfler_theta=1.2)
    with pytest.raises(ConfigError):
        AdaptConfig(max_levels=0)


def test_adaptive_loop_target_ndof_stops_early():
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    mesh = red_refine(build_initial_mesh(prob.shape))
    acfg = AdaptConfig(dorfler_theta=0.3, max_levels=50, target_ndof=100)
    records = adaptive_loop(prob, mesh, cfg, NewtonConfig(), acfg)
    assert records[-1].ndof >= 100
    assert records[-2].ndof < 100


def test_solve_levels_uniform_records():
    """Without a Doerfler fraction the driver refines by red refinement and,
    with no help from ``bench``, records a finite L2 error on every level
    and the orders against h by the log-ratio formula."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    mesh = red_refine(build_initial_mesh(prob.shape))
    records = solve_levels(prob, mesh, cfg, NewtonConfig(), 3)
    assert [r.n_triangles for r in records] == [
        mesh.n_triangles * 4 ** k for k in range(3)]
    assert all(np.isfinite(r.err_l2) for r in records)
    assert np.isnan(records[0].order_energy) and np.isnan(records[0].order_l2)
    for prev, rec in zip(records, records[1:]):
        hratio = np.log(rec.h_max / prev.h_max)
        assert rec.order_energy == float(
            np.log(rec.err_energy / prev.err_energy) / hratio)
        assert rec.order_l2 == float(np.log(rec.err_l2 / prev.err_l2) / hratio)


def test_solve_levels_rejects_problem_of_another_epsilon(lshape):
    """The problem's data and the method's operator must share epsilon;
    the check comes before any level is solved."""
    with pytest.raises(ConfigError, match="epsilon"):
        solve_levels(lshape_problem(0.4), lshape,
                     MethodConfig("nitsche", epsilon=0.2), NewtonConfig(), 3)
