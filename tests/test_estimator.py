"""Residual estimator values, closed-form edge cases and decay behaviour."""

import numpy as np
import pytest

from conftest import constant_fn, embedded, random_field
from nematicfem import fespace
from nematicfem.estimator import estimate
from nematicfem.exceptions import SpaceMismatchError
from nematicfem.fespace import Field, Space, interpolate
from nematicfem.forms import MethodConfig
from nematicfem.mesh import red_refine
from nematicfem.problems import lshape_problem, slit_problem
from nematicfem.solver import NewtonConfig, laplace_guess, newton_solve


def nitsche_cfg(epsilon=1.0):
    return MethodConfig(method="nitsche", epsilon=epsilon)


def test_unit_modulus_constant_gives_zero(unit_square):
    space = Space.continuous(unit_square)
    psi = interpolate(space, constant_fn(1.0, 0.0))
    br = estimate(psi, nitsche_cfg(), constant_fn(1.0, 0.0))
    assert br.total == pytest.approx(0.0, abs=1e-14)


def test_zero_field_zero_data_gives_zero(unit_square):
    """The cubic residual of the zero field vanishes."""
    space = Space.continuous(unit_square)
    br = estimate(Field(space, np.zeros(space.ndof)), nitsche_cfg(),
                  constant_fn(0.0, 0.0))
    assert br.total == pytest.approx(0.0, abs=1e-14)


def test_space_mismatch(unit_square):
    dg = Space.dg(unit_square)
    cont = Space.continuous(unit_square)
    with pytest.raises(SpaceMismatchError):
        estimate(Field(dg, np.zeros(dg.ndof)), nitsche_cfg(),
                 constant_fn(0.0, 0.0))
    with pytest.raises(SpaceMismatchError):
        estimate(Field(cont, np.zeros(cont.ndof)),
                 MethodConfig(method="dg", epsilon=1.0), constant_fn(0.0, 0.0))


def test_conforming_field_same_estimate_both_methods(lshape):
    prob = lshape_problem(0.7)
    mesh = red_refine(lshape)
    cs = Space.continuous(mesh)
    cfg = nitsche_cfg(0.7)
    sol, _ = newton_solve(cs, cfg, prob.g, prob.f,
                          laplace_guess(cs, cfg, prob.g, prob.f), NewtonConfig())
    a = estimate(sol, cfg, prob.g, prob.f)
    b = estimate(embedded(sol, Space.dg(mesh)),
                 MethodConfig(method="dg", epsilon=0.7), prob.g, prob.f)
    assert b.total == pytest.approx(a.total, rel=1e-12)


def test_single_jumped_dof_closed_form(unit_square):
    """One dG dof set to 1, everything else 0: the interior-edge term is
    computable by hand from the linear hat on the shared diagonal."""
    space = Space.dg(unit_square)
    mesh = unit_square
    cfg = MethodConfig(method="dg", epsilon=1.0)
    # the shared diagonal runs (0,0)-(1,1); pick the u-dof of triangle 0 at
    # vertex 0 = (0,0), which lies on that edge
    coeffs = np.zeros(space.ndof)
    coeffs[0] = 1.0
    assert mesh.triangles[0][0] == 0
    psi = Field(space, coeffs)
    zero = constant_fn(0.0, 0.0)
    br = estimate(psi, cfg, zero)

    h_d = np.sqrt(2.0)  # diagonal length
    e_int = mesh.interior_edges[0]
    # hat value 1 at one diagonal endpoint, 0 at the other:
    # (1/h) * integral of hat^2 = (1/h)(h/3) = 1/3
    jump_sq = 1.0 / 3.0
    # gradient of the hat at vertex 0 of triangle (0,1,2) dotted with the
    # diagonal normal: grad = (-1, 0) upper... computed from geometry
    geom = space.geometry
    tp = mesh.edge_tris[e_int, 0]
    loc = int(np.flatnonzero(mesh.triangles[tp] == 0)[0])
    dn = geom.grads[tp, loc] @ geom.edge_normal[e_int]
    grad_sq = h_d ** 2 * dn ** 2
    expected_int_sq = grad_sq + jump_sq
    got = br.theta_int_edge[0]   # aligned with mesh.interior_edges
    assert got ** 2 == pytest.approx(expected_int_sq, rel=1e-12)
    # the volume residual of a small field is cubic: (|psi|^2-1)psi != 0
    assert br.theta_tri[0] > 0


@pytest.mark.parametrize("method", ["nitsche", "dg"])
def test_estimate_does_not_depend_on_block_size(lshape, slit, method,
                                                monkeypatch):
    """The volume term sums its quadrature over blocks of ERROR_BLOCK
    triangles; blocks of 7 (a ragged last block) give the one-block
    breakdown and total bit for bit."""
    make = Space.continuous if method == "nitsche" else Space.dg
    cfg = MethodConfig(method=method, epsilon=0.4)
    for mesh, prob in ((lshape, lshape_problem(0.4)), (slit, slit_problem(1.0))):
        mesh = red_refine(red_refine(red_refine(mesh)))
        assert mesh.n_triangles % 7 and mesh.n_triangles < fespace.ERROR_BLOCK
        psi = random_field(make(mesh), seed=3)
        whole = estimate(psi, cfg, prob.g, prob.f)
        monkeypatch.setattr(fespace, "ERROR_BLOCK", 7)
        blocks = estimate(psi, cfg, prob.g, prob.f)
        monkeypatch.undo()
        for name in ("theta_tri", "theta_int_edge", "theta_bd_edge"):
            assert np.array_equal(getattr(blocks, name), getattr(whole, name))
        assert blocks.total == whole.total


def test_breakdown_total_consistency(lshape):
    prob = lshape_problem(0.4)
    cfg = nitsche_cfg(0.4)
    mesh = red_refine(lshape)
    space = Space.continuous(mesh)
    sol, _ = newton_solve(space, cfg, prob.g, prob.f,
                          laplace_guess(space, cfg, prob.g, prob.f), NewtonConfig())
    br = estimate(sol, cfg, prob.g, prob.f)
    assert br.recompute_total() == pytest.approx(br.total, rel=1e-12)
    assert np.all(br.theta_tri >= 0)
    assert np.all(br.theta_int_edge >= 0)
    assert np.all(br.theta_bd_edge >= 0)


def test_estimator_decreases_under_uniform_refinement(lshape):
    prob = lshape_problem(0.4)
    cfg = nitsche_cfg(0.4)
    mesh = red_refine(lshape)
    totals = []
    prev = None
    for _ in range(4):
        space = Space.continuous(mesh)
        from nematicfem.fespace import prolong
        guess = (laplace_guess(space, cfg, prob.g, prob.f) if prev is None
                 else prolong(prev, space))
        sol, _ = newton_solve(space, cfg, prob.g, prob.f, guess, NewtonConfig())
        totals.append(estimate(sol, cfg, prob.g, prob.f).total)
        prev = sol
        mesh = red_refine(mesh)
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_boundary_term_insensitive_to_g_representation(lshape):
    """Replacing analytic g by a fine piecewise-linear interpolation (eight
    sub-intervals per boundary edge) moves the boundary estimator by less
    than 1% from level 2 on: the data-oscillation part is higher order."""
    prob = lshape_problem(0.4)
    cfg = nitsche_cfg(0.4)
    mesh = red_refine(red_refine(red_refine(lshape)))  # level 2
    space = Space.continuous(mesh)
    sol, _ = newton_solve(space, cfg, prob.g, prob.f,
                          laplace_guess(space, cfg, prob.g, prob.f), NewtonConfig())
    br = estimate(sol, cfg, prob.g, prob.f)

    def g_fine(points_per_edge):
        # evaluate g on an 8-piece subdivision of each edge, then linearly
        # interpolate to the requested parameters
        sub = np.linspace(0.0, 1.0, 9)
        pa = mesh.vertices[mesh.edges[bd, 0]]
        pb = mesh.vertices[mesh.edges[bd, 1]]
        nodes = pa[:, None, :] + sub[None, :, None] * (pb - pa)[:, None, :]
        gn = prob.g(nodes.reshape(-1, 2)).reshape(len(bd), 9, 2)
        out = np.empty((len(bd), len(points_per_edge), 2))
        for c in range(2):
            for e in range(len(bd)):
                out[e, :, c] = np.interp(points_per_edge, sub, gn[e, :, c])
        return out

    geom = space.geometry
    bd = mesh.boundary_edges
    hats, pts, ew = geom.edge_points(bd)
    from nematicfem.quadrature import edge_rule
    params = edge_rule(3).points
    gh = g_fine(params)
    from nematicfem.fespace import _edge_trace_values
    tr = _edge_trace_values(sol, bd, 0)
    fv = np.einsum("qe,nec->nqc", hats, tr)
    mis = ((fv - gh) ** 2).sum(-1)
    theta_fine = np.sqrt((ew[None, :] * mis).sum(1))
    a = np.sqrt((br.theta_bd_edge ** 2).sum())
    b = np.sqrt((theta_fine ** 2).sum())
    assert abs(a - b) <= 0.01 * a
