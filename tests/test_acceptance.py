"""Acceptance criteria, one test per criterion (criterion 2 split in two).

Each test prints a PASS/FAIL line with the measured quantities before
asserting, so a red criterion still reports its numbers.  Device runs honor
NEMATICFEM_DEVICE_FAST=1, which drops the finest (h = 0.0027) level and the
assertions that need it.
"""

import os
import time

import numpy as np
import pytest

from conftest import embedded
from nematicfem import adapt
from nematicfem.adapt import check_dorfler, dorfler_mark, element_indicators
from nematicfem.bench import RunConfig, run_study
from nematicfem.estimator import estimate
from nematicfem.fespace import Field, Space
from nematicfem.forms import MethodConfig, NonlinearSystem
from nematicfem.mesh import build_initial_mesh, red_refine
from nematicfem.problems import lshape_problem
from nematicfem.solver import NewtonConfig, laplace_guess, newton_solve

FAST_DEVICE = os.environ.get("NEMATICFEM_DEVICE_FAST", "") not in ("", "0")


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


# -- criterion 1: quadratic Newton convergence ---------------------------------


def test_criterion_1_newton_quadratic():
    start = time.time()
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4, sigma=10.0)
    mesh = build_initial_mesh(prob.shape)
    for _ in range(3):  # level-2 study mesh (Ndof 450)
        mesh = red_refine(mesh)
    space = Space.continuous(mesh)
    guess = laplace_guess(space, cfg, prob.g, prob.f)
    _, rep = newton_solve(space, cfg, prob.g, prob.f, guess,
                          NewtonConfig(tol=1e-10))
    incs = [e for e in rep.increments if e > 1e-14]
    pairs = list(zip(incs[-3:-1], incs[-2:]))
    fitted = max(e1 / e0 ** 2 for e0, e1 in pairs)
    elapsed = time.time() - start
    ok = fitted < 1e3 and elapsed < 10 and len(incs) >= 4
    report(1, ok, f"fitted C {fitted:.3e}, {len(incs)} increments, {elapsed:.1f}s")
    assert fitted < 1e3
    assert elapsed < 10


# -- criterion 2: L-shape uniform rates, both methods --------------------------


@pytest.fixture(scope="module")
def lshape_uniform_tables():
    start = time.time()
    tables = {}
    for method in ("nitsche", "dg"):
        cfg = RunConfig(problem="lshape", method=method, refine="uniform",
                        levels=5, epsilon=0.4)
        tables[method] = run_study(cfg)
    return tables, time.time() - start


def test_criterion_2_energy_orders(lshape_uniform_tables):
    tables, elapsed = lshape_uniform_tables
    orders = {m: t.records[-1].order_energy for m, t in tables.items()}
    ok = all(0.45 <= o <= 0.60 for o in orders.values()) and elapsed < 120
    report("2 (energy)", ok,
           f"h-orders {orders['nitsche']:.4f} / {orders['dg']:.4f} (dG), "
           f"{elapsed:.0f}s")
    for method, order in orders.items():
        assert 0.45 <= order <= 0.60, method
    assert elapsed < 120


def test_criterion_2_l2_orders(lshape_uniform_tables):
    """The L2 order of both methods lies in [1.10, 1.50].

    Both edges come from the regularity of the manufactured solution.  The
    slower component r^{1/2} sin(theta/2) lies in H^{1+alpha} with
    alpha = 1/2, so the energy error is O(h^alpha).  The Aubin-Nitsche
    duality argument gains the regularity index of the dual problem, which
    at the 3 pi/2 re-entrant corner is alpha* = pi / (3 pi/2) = 2/3.  The
    L2 error is therefore O(h^{alpha + alpha*}) = O(h^{7/6}); the lower
    edge is 7/6 less a margin smaller than the slit band's 0.12.  That
    bound only sets a minimum rate; the upper edge is the L2
    best-approximation rate 1 + alpha = 3/2 of r^{1/2} by P1 on uniform
    meshes, which no P1 scheme beats asymptotically.  The slit band of
    criterion 3 comes from the same formula, with alpha = alpha* = 1/2
    giving order 1.  A scheme that loses the duality gain, such as the
    adjoint-inconsistent dG with lambda = -1 (order about 1.07 here),
    falls below the band."""
    lo, hi = 1.10, 1.50  # alpha + alpha* = 7/6 less a margin; 1 + alpha
    tables, _ = lshape_uniform_tables
    orders = {m: t.records[-1].order_l2 for m, t in tables.items()}
    ok = all(lo <= o <= hi for o in orders.values())
    report("2 (L2)", ok,
           f"L2 h-orders {orders['nitsche']:.4f} / {orders['dg']:.4f} (dG); "
           f"band [{lo:.2f}, {hi:.2f}] from 7/6 duality, 3/2 ceiling")
    for method, order in orders.items():
        assert lo <= order <= hi, (method, order)


# -- criterion 3: slit uniform rates --------------------------------------------


def test_criterion_3_slit_rates():
    start = time.time()
    cfg = RunConfig(problem="slit", method="nitsche", refine="uniform",
                    levels=5, epsilon=0.6)
    table = run_study(cfg)
    last = table.records[-1]
    elapsed = time.time() - start
    ok = 0.45 <= last.order_energy <= 0.55 and 0.88 <= last.order_l2 <= 1.08
    report(3, ok, f"energy order {last.order_energy:.4f}, "
                  f"L2 order {last.order_l2:.4f}, {elapsed:.0f}s")
    assert 0.45 <= last.order_energy <= 0.55
    assert 0.88 <= last.order_l2 <= 1.08


# -- criterion 4: device energies and successive-difference orders --------------


def device_ladder(state, levels):
    cfg = RunConfig(problem="device", method="nitsche", refine="uniform",
                    levels=levels, epsilon=0.02, state=state,
                    initial_refine=5)  # h = 0.0442 down to 0.0055 or 0.0027
    return run_study(cfg)


@pytest.fixture(scope="module")
def device_tables():
    levels = 4 if FAST_DEVICE else 5
    start = time.time()
    tables = {state: device_ladder(state, levels) for state in ("D1", "R1")}
    return tables, time.time() - start


def test_criterion_4_device(device_tables):
    tables, elapsed = device_tables
    targets = {"D1": (78.04, 77.97), "R1": (86.68, 86.61)}
    details = []
    ok = True
    for state, table in tables.items():
        recs = table.records
        h = [r.h_max for r in recs]
        assert h[3] == pytest.approx(np.sqrt(2) / 256, rel=1e-12)
        e_paper_0055, e_paper_0027 = targets[state]
        e_0055 = recs[3].energy
        ok &= abs(e_0055 - e_paper_0055) <= 0.005 * e_paper_0055
        details.append(f"{state} E(0.0055) {e_0055:.4f} vs {e_paper_0055}")
        if not FAST_DEVICE:
            e_0027 = recs[4].energy
            ok &= abs(e_0027 - e_paper_0027) <= 0.005 * e_paper_0027
            details.append(f"E(0.0027) {e_0027:.4f} vs {e_paper_0027}")
            order_e = recs[4].order_energy
            ok &= 0.95 <= order_e <= 1.02
            details.append(f"orderE {order_e:.4f}")
        l2_orders = [r.order_l2 for r in recs[2:]]
        ok &= all(1.6 <= o <= 2.0 for o in l2_orders)
        details.append(f"L2 orders {['%.3f' % o for o in l2_orders]}")
    ok &= elapsed < 900
    report(4, ok, "; ".join(details) + f"; {elapsed:.0f}s"
           + ("; FAST mode: finest level skipped" if FAST_DEVICE else ""))
    for state, table in tables.items():
        recs = table.records
        e_paper_0055, e_paper_0027 = targets[state]
        assert abs(recs[3].energy - e_paper_0055) <= 0.005 * e_paper_0055
        if not FAST_DEVICE:
            assert abs(recs[4].energy - e_paper_0027) <= 0.005 * e_paper_0027
            assert 0.95 <= recs[4].order_energy <= 1.02
        for rec in recs[2:]:
            assert 1.6 <= rec.order_l2 <= 2.0
    assert elapsed < 900


# -- criteria 5-7: shared adaptive run with per-level tracing --------------------


class TracedLevel:
    def __init__(self, ndof, err, est, c_eff, indicators, marked, mesh):
        self.ndof = ndof
        self.err = err
        self.est = est
        self.c_eff = c_eff
        self.indicators = indicators
        self.marked = marked
        self.mesh = mesh


@pytest.fixture(scope="module")
def adaptive_trace():
    """The criterion-5 adaptive run (L-shape, eps 0.4, theta 0.3), solved by
    the level driver, with indicators and marked sets captured per level
    from the estimate of every level, the last included."""
    start = time.time()
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4, sigma=10.0)
    estimated = []   # (mesh, breakdown) of every level

    def estimating(field, *args):
        breakdown = estimate(field, *args)
        estimated.append((field.space.mesh, breakdown))
        return breakdown

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adapt, "estimate", estimating)
        records = adapt.solve_levels(
            prob, red_refine(build_initial_mesh(prob.shape)), cfg,
            NewtonConfig(), max_levels=100, theta=0.3, target_ndof=50000)
    assert records[-1].ndof >= 50000
    levels = []
    for rec, (mesh, breakdown) in zip(records, estimated, strict=True):
        xi = element_indicators(breakdown, mesh)
        levels.append(TracedLevel(rec.ndof, rec.err_energy, rec.estimator,
                                  rec.c_eff, xi, dorfler_mark(xi, 0.3), mesh))
    return levels, time.time() - start


@pytest.fixture(scope="module")
def lshape_uniform_deep():
    cfg = RunConfig(problem="lshape", method="nitsche", refine="uniform",
                    levels=7, epsilon=0.4)
    return run_study(cfg)


def test_criterion_5_adaptive_vs_uniform(adaptive_trace, lshape_uniform_deep):
    levels, elapsed_adaptive = adaptive_trace
    start = time.time()
    uni = lshape_uniform_deep
    elapsed = time.time() - start + elapsed_adaptive

    uni_orders = uni.column("order_e")
    uni_fine = uni_orders[-1]
    ndof = np.array([l.ndof for l in levels])
    err = np.array([l.err for l in levels])
    tail = ndof >= 1000
    ada_order = -np.polyfit(np.log(ndof[tail]), np.log(err[tail]), 1)[0]
    small = [l for l in levels if l.err <= 0.03 and l.ndof <= 10000]
    uni_small = [r for r in uni.records if r.ndof < 90000 and r.err_energy <= 0.03]

    ok = (0.24 <= uni_fine <= 0.28 and 0.45 <= ada_order <= 0.60
          and len(small) > 0 and len(uni_small) == 0 and elapsed < 300)
    first = small[0] if small else None
    report(5, ok, f"uniform Order_e {uni_fine:.4f}, adaptive tail order "
                  f"{ada_order:.4f}, err<=0.03 first at Ndof "
                  f"{first.ndof if first else 'never'}, {elapsed:.0f}s")
    assert 0.24 <= uni_fine <= 0.28
    assert 0.45 <= ada_order <= 0.60
    assert small, "adaptive never reached error 0.03 within 10000 dofs"
    assert not uni_small, "uniform reached error 0.03 before 90000 dofs"
    assert elapsed < 300


def test_criterion_6_dorfler_nvb_properties(adaptive_trace):
    levels, _ = adaptive_trace
    checked = 0
    for level, cur in enumerate(levels):
        holds, minimal = check_dorfler(cur.indicators, cur.marked, 0.3)
        assert holds, f"Doerfler inequality violated at level {level}"
        assert minimal, f"marked set not minimal at level {level}"
        if level + 1 < len(levels):
            nxt = levels[level + 1].mesh
            nxt.check_conforming(geometric=nxt.n_triangles < 3000)
            assert np.all(nxt.signed_areas() > 0)
            children = np.bincount(nxt.tri_parents,
                                   minlength=cur.mesh.n_triangles)
            assert np.all(children[cur.marked] >= 2)
            assert levels[level + 1].ndof <= 4 * cur.ndof
        checked += 1
    report(6, True, f"{checked} levels: Doerfler exact+minimal, conforming, "
                    f"oriented, growth bounded")


def test_criterion_7_efficiency_constant(adaptive_trace):
    """C_eff stays within a 25% band over the window matching the paper's
    levels 3-7 (Ndof between ~3000 and ~50000)."""
    levels, _ = adaptive_trace
    window = [l.c_eff for l in levels if 2958 <= l.ndof <= 50000]
    spread = (max(window) - min(window)) / np.mean(window)
    ok = len(window) >= 4 and spread < 0.25
    report(7, ok, f"C_eff in [{min(window):.3f}, {max(window):.3f}] over "
                  f"{len(window)} levels, spread {spread:.1%}")
    assert len(window) >= 4
    assert spread < 0.25


# -- criterion 8: oracle equivalences -------------------------------------------


def test_criterion_8_oracles():
    start = time.time()
    from math import factorial
    from nematicfem.quadrature import edge_rule, triangle_rule

    # quadrature exactness to 1e-14 relative
    worst_quad = 0.0
    for degree in (4, 6):
        rule = triangle_rule(degree)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                approx = 0.5 * (rule.weights * x ** a * y ** b).sum()
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                worst_quad = max(worst_quad, abs(approx - exact) / exact)
    er = edge_rule(3)
    for k in range(6):
        approx = (er.weights * er.points ** k).sum()
        worst_quad = max(worst_quad, abs(approx - (1 / (k + 1))) * (k + 1))

    # jacobian vs finite differences on a 50-dof mesh
    from nematicfem.mesh import DomainShape
    mesh = red_refine(red_refine(build_initial_mesh(DomainShape("unit-square"))))
    space = Space.continuous(mesh)
    assert space.ndof == 50
    cfg = MethodConfig(method="nitsche", epsilon=0.7, sigma=10.0)
    g = lambda p: np.stack([np.cos(p[:, 0]), np.sin(p[:, 1])], axis=1)
    system = NonlinearSystem(space, cfg, g)
    rng = np.random.default_rng(17)
    psi = 0.4 * rng.standard_normal(space.ndof)
    delta = rng.standard_normal(space.ndof)
    step = 1e-6
    fd = (system.residual(psi + step * delta) - system.residual(psi)) / step
    jv = system.jacobian(psi) @ delta
    fd_rel = np.linalg.norm(fd - jv) / np.linalg.norm(jv)

    # Nitsche residual equals aggregated dG(lam=1) residual on conforming data
    prob = lshape_problem(0.8)
    lmesh = red_refine(build_initial_mesh(prob.shape))
    cs = Space.continuous(lmesh)
    ds = Space.dg(lmesh)
    psi_c = Field(cs, 0.4 * rng.standard_normal(cs.ndof))
    r_c = NonlinearSystem(cs, MethodConfig(method="nitsche", epsilon=0.8),
                          prob.g, prob.f).residual(psi_c.coeffs)
    r_d = NonlinearSystem(ds, MethodConfig(method="dg", epsilon=0.8, lam=1.0),
                          prob.g, prob.f).residual(
                              embedded(psi_c, ds).coeffs)
    agg = np.zeros(cs.ndof)
    for comp in range(2):
        np.add.at(agg[comp * cs.nscalar:(comp + 1) * cs.nscalar],
                  lmesh.triangles.ravel(),
                  r_d[comp * ds.nscalar:(comp + 1) * ds.nscalar])
    resid_rel = np.abs(agg - r_c).max() / max(np.abs(r_c).max(), 1.0)

    elapsed = time.time() - start
    ok = fd_rel <= 1e-5 and resid_rel <= 1e-12 and worst_quad <= 1e-14 \
        and elapsed < 30
    report(8, ok, f"FD jacobian rel {fd_rel:.2e}, residual agreement "
                  f"{resid_rel:.2e}, quadrature {worst_quad:.2e}, {elapsed:.1f}s")
    assert fd_rel <= 1e-5
    assert resid_rel <= 1e-12
    assert worst_quad <= 1e-14
    assert elapsed < 30
