"""Newton iteration, initial guesses and the scheme-equivalence identity."""

import gc
import weakref

import numpy as np
import pytest

from conftest import constant_fn, embedded
from nematicfem import adapt, solver
from nematicfem.exceptions import ConfigError, LinearSolveError, NewtonError
from nematicfem.fespace import (Field, Space, componentwise, discrete_norm,
                                embedding_matrix, interpolate, prolong,
                                prolongation_matrix)
from nematicfem.forms import (MethodConfig, NonlinearSystem,
                              cubic_term_vector, gradient_matrix)
from nematicfem.mesh import build_initial_mesh, red_refine
from nematicfem.problems import (device_problem, lshape_problem,
                                 slit_problem)
from nematicfem.solver import (Hierarchy, NewtonConfig, director_guess,
                               laplace_guess, newton_solve)
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def test_newton_config_validation():
    for tol in (0.0, np.nan):
        with pytest.raises(ConfigError):
            NewtonConfig(tol=tol)
    with pytest.raises(ConfigError):
        NewtonConfig(max_iter=0)


def test_laplace_guess_zero_data(unit_square):
    space = Space.continuous(unit_square)
    cfg = MethodConfig(method="nitsche", epsilon=1.0)
    guess = laplace_guess(space, cfg, constant_fn(0.0, 0.0))
    assert np.abs(guess.coeffs).max() <= 1e-14


def test_laplace_guess_reproduces_constant(unit_square):
    """The discrete harmonic extension of constant data is that constant up
    to penalty consistency."""
    mesh = red_refine(unit_square)
    space = Space.continuous(mesh)
    cfg = MethodConfig(method="nitsche", epsilon=1.0)
    guess = laplace_guess(space, cfg, constant_fn(1.0, 0.0))
    u, v = guess.coeffs.reshape(2, -1)
    assert np.abs(u - 1.0).max() <= 1e-10
    assert np.abs(v).max() <= 1e-10


def test_newton_fixed_point_one_iteration(lshape):
    prob = lshape_problem(0.5)
    cfg = MethodConfig(method="nitsche", epsilon=0.5)
    mesh = red_refine(lshape)
    space = Space.continuous(mesh)
    guess = laplace_guess(space, cfg, prob.g, prob.f)
    sol, rep = newton_solve(space, cfg, prob.g, prob.f, guess, NewtonConfig())
    with np.errstate(divide="raise", invalid="raise"):
        again, rep2 = newton_solve(space, cfg, prob.g, prob.f, sol,
                                   NewtonConfig())
    assert rep2.iterations == 1
    assert rep2.increments[0] <= 1e-10
    assert np.abs(again.coeffs - sol.coeffs).max() <= 1e-9


def test_newton_residual_bound_at_convergence(lshape):
    prob = lshape_problem(0.5)
    cfg = MethodConfig(method="nitsche", epsilon=0.5)
    space = Space.continuous(red_refine(lshape))
    guess = laplace_guess(space, cfg, prob.g, prob.f)
    ncfg = NewtonConfig(tol=1e-8)
    sol, rep = newton_solve(space, cfg, prob.g, prob.f, guess, ncfg)
    assert rep.converged
    assert len(rep.residuals) == rep.iterations
    residual = NonlinearSystem(space, cfg, prob.g, prob.f).residual(sol.coeffs)
    assert np.abs(residual).max() <= 10 * ncfg.tol


def test_newton_scheme_equivalence(unit_square):
    """One step of the frozen-coefficient iteration equals the Newton update
    guess - J^{-1} residual."""
    prob = lshape_problem(0.6)
    cfg = MethodConfig(method="nitsche", epsilon=0.6)
    mesh = red_refine(unit_square)
    space = Space.continuous(mesh)
    rng = np.random.default_rng(4)
    psi = 0.5 * rng.standard_normal(space.ndof)
    g = lambda p: np.stack([np.cos(p[:, 0]), p[:, 1] ** 2], axis=1)
    system = NonlinearSystem(space, cfg, g)
    jac = system.jacobian(psi)
    newton_step = psi + spla.spsolve(jac.tocsc(), -system.residual(psi))
    # frozen-coefficient form: solve J(psi) x = 2*cubic(psi) + load
    rhs = 2.0 * cubic_term_vector(Field(space, psi), cfg) + system.load
    fixed_point_step = spla.spsolve(jac.tocsc(), rhs)
    assert np.abs(newton_step - fixed_point_step).max() <= 1e-10


def test_newton_quadratic_decay(lshape):
    """Increment norms decay quadratically over the final iterations."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    mesh = red_refine(red_refine(red_refine(lshape)))  # level-2 study mesh
    space = Space.continuous(mesh)
    guess = laplace_guess(space, cfg, prob.g, prob.f)
    sol, rep = newton_solve(space, cfg, prob.g, prob.f, guess,
                            NewtonConfig(tol=1e-10))
    incs = [e for e in rep.increments if e > 1e-14]
    assert len(incs) >= 4
    ratios = [incs[k + 1] / incs[k] ** 2 for k in range(len(incs) - 3, len(incs) - 1)]
    assert max(ratios) < 1e3


def test_newton_nonconvergence_carries_history(lshape):
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    space = Space.continuous(red_refine(lshape))
    guess = laplace_guess(space, cfg, prob.g, prob.f)
    with pytest.raises(NewtonError) as err:
        newton_solve(space, cfg, prob.g, prob.f, guess,
                     NewtonConfig(tol=1e-13, max_iter=2))
    assert err.value.report.iterations == 2
    assert len(err.value.report.increments) == 2


def test_residual_stop_after_last_budgeted_step(lshape):
    """A solve whose residual test passes after its last budgeted step has
    converged: with ``max_iter`` equal to the steps it takes it returns the
    same iterate and report, and only one step fewer raises."""
    prob = lshape_problem(0.5)
    cfg = MethodConfig(method="nitsche", epsilon=0.5)
    space = Space.continuous(red_refine(lshape))
    guess = laplace_guess(space, cfg, prob.g, prob.f)
    ncfg = NewtonConfig()
    sol, rep = newton_solve(space, cfg, prob.g, prob.f, guess, ncfg)
    # the solve ended on the residual test, not on a small increment
    assert rep.increments[-1] > ncfg.tol
    steps = rep.iterations
    edge, edge_rep = newton_solve(space, cfg, prob.g, prob.f, guess,
                                  NewtonConfig(max_iter=steps))
    assert edge_rep.converged and edge_rep == rep
    assert np.array_equal(edge.coeffs, sol.coeffs)
    with pytest.raises(NewtonError) as err:
        newton_solve(space, cfg, prob.g, prob.f, guess,
                     NewtonConfig(max_iter=steps - 1))
    assert err.value.report.iterations == steps - 1


def test_newton_determinism(lshape):
    prob = lshape_problem(0.5)
    cfg = MethodConfig(method="nitsche", epsilon=0.5)
    space = Space.continuous(red_refine(lshape))
    guess = laplace_guess(space, cfg, prob.g, prob.f)
    a, ra = newton_solve(space, cfg, prob.g, prob.f, guess, NewtonConfig())
    b, rb = newton_solve(space, cfg, prob.g, prob.f, guess, NewtonConfig())
    assert ra.iterations == rb.iterations
    assert ra.factorizations == rb.factorizations
    assert ra.krylov_iterations == rb.krylov_iterations
    assert ra.residuals == rb.residuals
    assert np.array_equal(a.coeffs, b.coeffs)


def test_director_guess_center_and_boundary():
    prob = device_problem(0.02)
    mesh = build_initial_mesh(prob.shape)
    for _ in range(4):
        mesh = red_refine(mesh)
    space = Space.continuous(mesh)
    guess = director_guess(space, 0.02, "D1")
    center = np.flatnonzero((space.node_coords == [0.5, 0.5]).all(axis=1))[0]
    u, v = guess.coeffs.reshape(2, -1)
    assert u[center] == pytest.approx(0.0, abs=1e-14)
    assert v[center] == pytest.approx(1.0)
    # boundary nodes match g exactly
    bnodes = np.unique(mesh.edges[mesh.boundary_edges].ravel())
    gvals = prob.g(space.node_coords[bnodes])
    assert np.abs(u[bnodes] - gvals[:, 0]).max() <= 1e-14
    assert np.abs(v[bnodes] - gvals[:, 1]).max() <= 1e-14


def test_director_guess_rejects_bad_state(unit_square):
    with pytest.raises(ConfigError):
        director_guess(Space.continuous(unit_square), 0.02, "D7")


def test_director_guess_requires_device_domain(lshape):
    with pytest.raises(ConfigError):
        director_guess(Space.continuous(lshape), 0.02, "D1")


@pytest.mark.parametrize("eps", [1.0 / 6.0, 0.25])
def test_director_guess_rejects_wide_ramp(unit_square, eps):
    """The guess blends into the device data, so it has the same ramp-width
    limit d = 3 epsilon < 1/2 as ``device_problem``."""
    with pytest.raises(ConfigError):
        device_problem(eps)
    with pytest.raises(ConfigError):
        director_guess(Space.continuous(unit_square), eps, "D1")


def test_dg_newton_matches_nitsche_solution(lshape):
    """Same problem solved with both methods: solutions agree at the level
    of the discretization error, and the dG solution is nearly conforming."""
    prob = lshape_problem(0.8)
    mesh = red_refine(lshape)
    ncfg = NewtonConfig()
    ccfg = MethodConfig(method="nitsche", epsilon=0.8)
    dcfg = MethodConfig(method="dg", epsilon=0.8)
    cs = Space.continuous(mesh)
    ds = Space.dg(mesh)
    csol, _ = newton_solve(cs, ccfg, prob.g, prob.f,
                           laplace_guess(cs, ccfg, prob.g, prob.f), ncfg)
    dsol, _ = newton_solve(ds, dcfg, prob.g, prob.f,
                           laplace_guess(ds, dcfg, prob.g, prob.f), ncfg)
    diff = Field(ds, dsol.coeffs.copy())
    diff.coeffs -= embedded(csol, ds).coeffs
    assert discrete_norm(diff, 10.0) <= 0.5 * discrete_norm(
        embedded(csol, ds), 10.0)


def test_newton_iterations_grow_as_epsilon_shrinks():
    """At fixed h, smaller epsilon needs more Newton steps from the cold
    director guess."""
    from nematicfem.problems import device_problem
    mesh = build_initial_mesh(device_problem(0.1).shape)
    for _ in range(5):
        mesh = red_refine(mesh)
    space = Space.continuous(mesh)
    counts = {}
    for eps in (0.12, 0.06, 0.03):
        prob = device_problem(eps)
        cfg = MethodConfig(method="nitsche", epsilon=eps)
        guess = director_guess(space, eps, "D1")
        _, rep = newton_solve(space, cfg, prob.g, prob.f, guess, NewtonConfig())
        counts[eps] = rep.iterations
    # the count is not strictly monotone step by step, but the trend holds
    assert counts[0.03] > counts[0.12]
    assert counts[0.06] > counts[0.12]


def test_device_coarse_energy_ballpark():
    """D1 energy at h = sqrt(2)/64 lands within 1% of the benchmark value
    79.24 (the exact figure is initial-mesh dependent)."""
    from nematicfem.fespace import free_energy
    from nematicfem.problems import device_problem
    prob = device_problem(0.02)
    cfg = MethodConfig(method="nitsche", epsilon=0.02)
    mesh = build_initial_mesh(prob.shape)
    for _ in range(6):
        mesh = red_refine(mesh)
    space = Space.continuous(mesh)
    sol, _ = newton_solve(space, cfg, prob.g, prob.f,
                          director_guess(space, 0.02, "D1"), NewtonConfig())
    energy = free_energy(sol, 0.02)
    assert abs(energy - 79.24) <= 0.01 * 79.24


def test_dg_lambda_weighted_load_is_consistent(unit_square):
    """For every symmetrization weight the dG scheme reproduces a global
    linear solution exactly; this pins the weight on the boundary-data
    consistency term in the load."""
    mesh = red_refine(unit_square)
    g = lambda p: np.stack([p[:, 0] + p[:, 1], p[:, 0] - 2 * p[:, 1]], axis=1)
    for lam in (1.0, 0.0, -1.0):
        cfg = MethodConfig(method="dg", epsilon=1.0, lam=lam)
        space = Space.dg(mesh)
        sol = laplace_guess(space, cfg, g)
        expect = interpolate(space, g)
        assert np.abs(sol.coeffs - expect.coeffs).max() <= 1e-10, lam


# -- factored Newton steps ------------------------------------------------------


class _CountingLinalg:
    """Stand-in for ``solver.spla`` that counts the LU factorizations."""

    def __init__(self):
        self.factorizations = 0

    def splu(self, *args, **kwargs):
        self.factorizations += 1
        return spla.splu(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(spla, name)


def _reference_newton(space, cfg, g, f, guess, tol):
    """Newton loop that solves every step with a fresh sparse direct solve;
    returns (coefficients, iterations).  It stops as ``newton_solve`` does:
    from the second step on, before the Jacobian, when the predicted
    increment prev_inc * res / prev_res is at most ``tol``, and after a
    step whose increment is."""
    system = NonlinearSystem(space, cfg, g, f)
    coeffs = guess.coeffs.copy()
    prev_res = prev_inc = None
    for iteration in range(NewtonConfig().max_iter):
        rhs = -system.residual(coeffs)
        res = np.linalg.norm(rhs)
        if prev_res is not None and (res == 0
                                     or prev_inc * res / prev_res <= tol):
            return coeffs, iteration
        delta = spla.spsolve(system.jacobian(coeffs).tocsc(), rhs)
        coeffs = coeffs + delta
        prev_res, prev_inc = res, discrete_norm(Field(space, delta), cfg.sigma)
        if prev_inc <= tol:
            return coeffs, iteration + 1
    raise AssertionError("reference Newton loop did not converge")


@pytest.mark.parametrize("method", ["nitsche", "dg"])
def test_warm_started_solve_factors_every_step(lshape, method, monkeypatch):
    """A warm-started solve without a hierarchy factors the Jacobian of
    every step and runs no GMRES, reaching the factor-every-step Newton
    solution in the same number of steps."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method=method, epsilon=0.4)
    make = Space.continuous if method == "nitsche" else Space.dg
    ncfg = NewtonConfig()
    coarse_mesh = red_refine(red_refine(lshape))
    coarse = make(coarse_mesh)
    coarse_sol, _ = newton_solve(coarse, cfg, prob.g, prob.f,
                                 laplace_guess(coarse, cfg, prob.g, prob.f),
                                 ncfg)
    space = make(red_refine(coarse_mesh))
    guess = prolong(coarse_sol, space)

    counter = _CountingLinalg()
    monkeypatch.setattr(solver, "spla", counter)
    sol, rep = newton_solve(space, cfg, prob.g, prob.f, guess, ncfg)
    monkeypatch.undo()
    ref, ref_iterations = _reference_newton(space, cfg, prob.g, prob.f,
                                            guess, ncfg.tol)

    assert rep.iterations == ref_iterations >= 2
    assert counter.factorizations == rep.factorizations == rep.iterations
    assert rep.krylov_iterations == [0] * rep.iterations
    assert np.isnan(rep.krylov_rtols).all()
    assert np.abs(sol.coeffs - ref).max() <= 1e-10


def test_cold_device_start_refactors():
    """From the cold director guess, far from the solution, a solve
    without a hierarchy factors the Jacobian of every step with no GMRES
    attempt, and takes the steps of the factor-every-step Newton iteration
    to its solution."""
    prob = device_problem(0.02)
    cfg = MethodConfig(method="nitsche", epsilon=0.02)
    mesh = build_initial_mesh(prob.shape)
    for _ in range(4):
        mesh = red_refine(mesh)
    space = Space.continuous(mesh)
    guess = director_guess(space, 0.02, "D1")
    ncfg = NewtonConfig()
    sol, rep = newton_solve(space, cfg, prob.g, prob.f, guess, ncfg)
    ref, ref_iterations = _reference_newton(space, cfg, prob.g, prob.f,
                                            guess, ncfg.tol)
    assert rep.iterations == ref_iterations
    assert rep.factorizations == rep.iterations
    assert rep.krylov_iterations == [0] * rep.iterations
    assert rep.failed_krylov_iterations == [0] * rep.iterations
    assert np.isnan(rep.krylov_rtols).all()
    assert np.abs(sol.coeffs - ref).max() <= 1e-10


def test_level_zero_hands_hierarchy_its_last_factor(lshape, monkeypatch):
    """A solve on an empty hierarchy factors every step, and the hierarchy
    restarts on the factor of the solve's last Jacobian itself, not a copy
    and not an earlier one."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    space = Space.continuous(red_refine(red_refine(lshape)))
    guess = laplace_guess(space, cfg, prob.g, prob.f)
    real, factors = solver._factor_solve, []

    def recording(matrix, rhs):
        lu, out = real(matrix, rhs)
        factors.append(lu)
        return lu, out

    monkeypatch.setattr(solver, "_factor_solve", recording)
    hierarchy = Hierarchy(space)
    _, rep = newton_solve(space, cfg, prob.g, prob.f, guess,
                          hierarchy=hierarchy)
    monkeypatch.undo()
    assert len(factors) == rep.factorizations == rep.iterations >= 2
    assert hierarchy.lu is factors[-1]
    assert hierarchy.levels == []


# -- two-grid last level ---------------------------------------------------------


def _level_reports(monkeypatch, counter):
    """Rebind ``adapt.newton_solve`` to record, per level, the report, the
    number of LU factorizations the solve built and the solution."""
    real = adapt.newton_solve
    levels = []

    def recording(*args, **kwargs):
        before = counter.factorizations
        result = real(*args, **kwargs)
        levels.append((result[1], counter.factorizations - before, result[0]))
        return result

    monkeypatch.setattr(solver, "spla", counter)
    monkeypatch.setattr(adapt, "newton_solve", recording)
    return levels


def _study(method, refine, levels, target_ndof=None,
           prob=lshape_problem(0.4)):
    cfg = MethodConfig(method=method, epsilon=prob.epsilon)
    mesh = red_refine(build_initial_mesh(prob.shape))
    if refine == "uniform":
        records = adapt.solve_levels(prob, mesh, cfg, NewtonConfig(), levels)
    else:
        records = adapt.adaptive_loop(
            prob, mesh, cfg, NewtonConfig(),
            adapt.AdaptConfig(max_levels=levels, target_ndof=target_ndof))
    return prob, cfg, records


def _factored_levels(reports):
    """Per non-last level, whether ``solve_levels`` has it build a factor:
    exactly when no factor is kept yet, on either space.  Level 0 keeps one
    (on dG, the factor of its auxiliary operator), so only level 0."""
    return [k == 0 for k in range(len(reports) - 1)]


@pytest.mark.parametrize("preconditioner, cycles", [("stale-factor", 1),
                                                     ("block-jacobi", 2)])
def test_krylov_solve_applies_preconditioner_once_per_step(
        lshape, preconditioner, cycles):
    """From a zero start scipy's GMRES applies M to the right-hand side
    twice; both applications are answered from M rhs, which the caller
    computes once, so the preconditioner runs once per iteration and once
    per restart cycle, M rhs included, and the solution is bitwise that of
    the plain GMRES call."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    space = Space.continuous(red_refine(red_refine(lshape)))
    system = NonlinearSystem(space, cfg, prob.g, prob.f)
    coeffs = np.random.default_rng(3).standard_normal(space.ndof)
    jac, rhs = system.jacobian(coeffs), -system.residual(coeffs)
    if preconditioner == "stale-factor":
        precond = spla.splu(system.jacobian(0.9 * coeffs).tocsc()).solve
    else:
        precond = (solver.SMOOTHER_OMEGA * solver._block_jacobi(jac, space)).dot
    calls, products = 0, 0

    def counted_precond(r):
        nonlocal calls
        calls += 1
        return precond(r)

    def counted_product(x):
        nonlocal products
        products += 1
        return jac @ x

    rtol = 1e-8
    x, iterations = solver._krylov_solve(
        spla.LinearOperator(jac.shape, matvec=counted_product,
                            dtype=jac.dtype), rhs, counted_precond, rtol,
        counted_precond(rhs))
    # one product per iteration, and one per cycle for its true residual
    assert products - iterations == cycles
    assert calls == iterations + cycles
    plain, info = spla.gmres(
        jac, rhs, rtol=rtol, atol=0.0, restart=solver.KRYLOV_RESTART,
        maxiter=solver.KRYLOV_CYCLES,
        M=spla.LinearOperator(jac.shape, matvec=precond, dtype=jac.dtype))
    assert info == 0
    assert np.array_equal(x, plain)


def test_continued_krylov_solve_reuses_preconditioned_rhs(lshape):
    """A solve that goes on from an earlier solve's result (``x0``), given
    that solve's M rhs, applies the preconditioner once per iteration and
    once per restart cycle: scipy's application of M to rhs, for the norm
    of M rhs, is answered from it.  On this 130-dof system at 1e-8 that is
    15 iterations and 16 calls, where recomputing M rhs made 17.  The
    solution is bitwise that of the plain GMRES call from ``x0``."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    space = Space.continuous(red_refine(red_refine(lshape)))
    system = NonlinearSystem(space, cfg, prob.g, prob.f)
    coeffs = np.random.default_rng(3).standard_normal(space.ndof)
    jac, rhs = system.jacobian(coeffs), -system.residual(coeffs)
    precond = (solver.SMOOTHER_OMEGA * solver._block_jacobi(jac, space)).dot
    calls, products = 0, 0

    def counted_precond(r):
        nonlocal calls
        calls += 1
        return precond(r)

    def counted_product(x):
        nonlocal products
        products += 1
        return jac @ x

    m_rhs = precond(rhs)
    loose, _ = solver._krylov_solve(jac, rhs, precond,
                                    solver.KRYLOV_RTOL_CAP, m_rhs)
    rtol = 1e-8
    x, iterations = solver._krylov_solve(
        spla.LinearOperator(jac.shape, matvec=counted_product,
                            dtype=jac.dtype), rhs, counted_precond, rtol,
        m_rhs, x0=loose)
    # one product per iteration, one per cycle for its true residual and
    # one for the residual at x0
    cycles = products - iterations - 1
    assert cycles >= 1
    assert calls == iterations + cycles
    assert space.ndof == 130 and (iterations, calls) == (15, 16)
    plain, info = spla.gmres(
        jac, rhs, x0=loose, rtol=rtol, atol=0.0,
        restart=solver.KRYLOV_RESTART, maxiter=solver.KRYLOV_CYCLES,
        M=spla.LinearOperator(jac.shape, matvec=precond, dtype=jac.dtype))
    assert info == 0
    assert np.array_equal(x, plain)


@pytest.mark.parametrize("method, refine, levels, target_ndof", [
    ("nitsche", "uniform", 4, None),
    ("dg", "uniform", 4, None),
    ("nitsche", "adaptive", 50, 400),
], ids=["nitsche-uniform", "sipg-uniform", "nitsche-adaptive-target"])
def test_last_level_is_two_grid(monkeypatch, method, refine, levels,
                                target_ndof):
    """A non-last level builds a factor exactly when the hierarchy rule
    says so.  The last level of a study builds no LU factor: every step
    runs GMRES with the V-cycle preconditioner built on the kept hierarchy,
    and the level reaches the factor-every-step Newton solution in the same
    number of steps."""
    counter = _CountingLinalg()
    reports = _level_reports(monkeypatch, counter)
    prob, cfg, records = _study(method, refine, levels, target_ndof)
    monkeypatch.undo()
    if target_ndof is not None:
        assert len(records) < levels
        assert records[-1].ndof >= target_ndof > records[-2].ndof
    assert len(reports) == len(records) >= 2
    assert [built >= 1 for _, built, _ in reports[:-1]] == \
        _factored_levels(reports)
    last, built, solution = reports[-1]
    assert built == 0
    assert last.factorizations == 0
    assert all(k > 0 for k in last.krylov_iterations)
    assert last.failed_krylov_iterations == [0] * last.iterations

    space = solution.space
    guess = prolong(reports[-2][2], space)
    ref, ref_iterations = _reference_newton(space, cfg, prob.g, prob.f,
                                            guess, NewtonConfig().tol)
    assert last.iterations == ref_iterations >= 2
    assert np.abs(solution.coeffs - ref).max() <= 1e-10


@pytest.mark.parametrize("method", ["nitsche", "dg"])
def test_solutions_pass_exact_newton_step(monkeypatch, method):
    """Every level of a 4-level uniform study returns an iterate from which
    one exact Newton step, a sparse direct solve, has an increment of at
    most the Newton tolerance: the residual stop ends a solve only where a
    further step could not have moved the iterate by more."""
    counter = _CountingLinalg()
    reports = _level_reports(monkeypatch, counter)
    prob, cfg, _ = _study(method, "uniform", 4)
    monkeypatch.undo()
    assert len(reports) == 4
    for _, _, solution in reports:
        system = NonlinearSystem(solution.space, cfg, prob.g, prob.f)
        delta = spla.spsolve(system.jacobian(solution.coeffs).tocsc(),
                             -system.residual(solution.coeffs))
        inc = discrete_norm(Field(solution.space, delta), cfg.sigma)
        assert inc <= NewtonConfig().tol


def _rule_2_rtol(rep, k, tol):
    """The GMRES tolerance that step k of ``rep`` should have used, from the
    report's own residuals and increments, and the relative accuracy to
    which the report gives it.  Step 0 runs to the cap or, where it went
    on because it would end the solve, to the increment-share tolerance of
    the increment it had at the cap, which the report gives to about the
    cap."""
    if k == 0:
        if rep.krylov_rtols[0] == solver.KRYLOV_RTOL_CAP:
            return solver.KRYLOV_RTOL_CAP, 1e-12
        return (np.clip(solver.INCREMENT_SHARE * tol / rep.increments[0],
                        solver.KRYLOV_RTOL_FLOOR, solver.KRYLOV_RTOL_CAP),
                10 * solver.KRYLOV_RTOL_CAP)
    res, prev_res, prev_inc = (rep.residuals[k], rep.residuals[k - 1],
                               rep.increments[k - 1])
    return np.clip(max((res / prev_res) ** 2,
                       solver.INCREMENT_SHARE * tol * prev_res
                       / (prev_inc * res)),
                   solver.KRYLOV_RTOL_FLOOR, solver.KRYLOV_RTOL_CAP), 1e-12


def test_krylov_tolerance_stops_at_newton_tolerance(monkeypatch):
    """The first GMRES step of a solve runs to the cap unless it would end
    the solve; every later one runs to the Eisenstat-Walker tolerance or,
    where larger, to the one that resolves its predicted increment to
    INCREMENT_SHARE of the Newton tolerance; a step with no GMRES records
    NaN.  No step only confirms convergence:
    every step after the first starts at a predicted increment above the
    Newton tolerance, and the last level still reaches the
    factor-every-step Newton solution in the same number of steps."""
    counter = _CountingLinalg()
    reports = _level_reports(monkeypatch, counter)
    prob, cfg, _ = _study("nitsche", "uniform", 4)
    monkeypatch.undo()
    tol = NewtonConfig().tol
    for rep, _, _ in reports:
        assert len(rep.krylov_rtols) == rep.iterations
        for k, rtol in enumerate(rep.krylov_rtols):
            if rep.krylov_iterations[k] == rep.failed_krylov_iterations[k] == 0:
                assert np.isnan(rtol)
            else:
                expect, rel = _rule_2_rtol(rep, k, tol)
                assert rtol == pytest.approx(expect, rel=rel)
        assert all(rep.increments[k - 1] * rep.residuals[k]
                   / rep.residuals[k - 1] > tol
                   for k in range(1, rep.iterations))
    last, _, solution = reports[-1]
    space = solution.space
    guess = prolong(reports[-2][2], space)
    ref, ref_iterations = _reference_newton(space, cfg, prob.g, prob.f,
                                            guess, tol)
    assert last.iterations == ref_iterations
    assert np.abs(solution.coeffs - ref).max() <= 1e-10


def test_krylov_tolerance_of_zero_residual_or_increment():
    """A zero residual or a zero last increment predicts a zero increment:
    the tolerance is the cap, with no division by zero."""
    with np.errstate(divide="raise", invalid="raise"):
        for res, prev_inc in [(0.0, 1e-3), (1e-6, 0.0), (0.0, 0.0)]:
            assert solver._krylov_rtol(res, 1e-3, prev_inc, 1e-8) == \
                solver.KRYLOV_RTOL_CAP


def _fine_adaptive_study(monkeypatch, target_ndof, krylov_solve,
                         hierarchies):
    """An adaptive Nitsche study (theta 0.5) on to ``target_ndof``, whose
    finest levels end after one Newton step, with ``solver._krylov_solve``
    replaced by ``krylov_solve(real, *args, **kwargs)``; appends each
    level's hierarchy to ``hierarchies`` as its solve starts and returns,
    per level, (report, factorizations built, solution)."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    reports = _level_reports(monkeypatch, _CountingLinalg())
    recording = adapt.newton_solve

    def keeping(*args, hierarchy=None, **kwargs):
        hierarchies.append(hierarchy)
        return recording(*args, hierarchy=hierarchy, **kwargs)

    real = solver._krylov_solve
    monkeypatch.setattr(adapt, "newton_solve", keeping)
    monkeypatch.setattr(solver, "_krylov_solve",
                        lambda *args, **kwargs: krylov_solve(real, *args,
                                                             **kwargs))
    adapt.adaptive_loop(prob, red_refine(build_initial_mesh(prob.shape)),
                        cfg, NewtonConfig(),
                        adapt.AdaptConfig(dorfler_theta=0.5, max_levels=50,
                                          target_ndof=target_ndof))
    monkeypatch.undo()
    return prob, cfg, reports


def test_one_step_level_solves_its_first_step_on(monkeypatch):
    """A warm first step runs GMRES to the cap.  Where the step would end
    the solve were it exact, as on the finest levels of an adaptive study,
    GMRES goes on from its increment (``x0``), on the same J and cycle, to
    the increment-share tolerance of that increment.  The report gives the
    step both solves' iterations and the tolerance of the second, and the
    level lands within 1e-10 of the factor-every-step Newton solution in
    its one step.  No first step of a level that takes more steps goes
    on."""
    calls = []   # (rtol, whether from x0, solution, iterations) per call

    def recording(real, matrix, rhs, precond, rtol, m_rhs, x0=None):
        out, iterations = real(matrix, rhs, precond, rtol, m_rhs, x0=x0)
        calls.append((rtol, x0 is not None, out, iterations))
        return out, iterations

    prob, cfg, levels = _fine_adaptive_study(monkeypatch, 9000, recording, [])
    tol, cap = NewtonConfig().tol, solver.KRYLOV_RTOL_CAP
    one_step, first = [], 0
    for k, (rep, built, solution) in enumerate(levels):
        continued = rep.krylov_rtols[0] < cap
        mine = calls[first:first + continued
                     + int(np.sum(~np.isnan(rep.krylov_rtols)))]
        first += len(mine)
        if k == 0 or rep.iterations > 1:
            assert not continued
            assert not any(x0 for _, x0, _, _ in mine)
            continue
        one_step.append(k)
        (loose_rtol, loose_x0, loose, loose_its), (rtol, x0, _, its) = mine
        inc = discrete_norm(Field(solution.space, loose), cfg.sigma)
        assert loose_rtol == cap and not loose_x0 and x0
        assert rtol == solver._increment_rtol(inc, tol) < cap
        assert rep.krylov_rtols == [rtol]
        assert rep.krylov_iterations == [loose_its + its]
        assert its > 0 and built == rep.factorizations == 0
        guess = prolong(levels[k - 1][2], solution.space)
        ref, ref_iterations = _reference_newton(solution.space, cfg, prob.g,
                                                prob.f, guess, tol)
        assert ref_iterations == 1
        assert np.abs(solution.coeffs - ref).max() <= 1e-10
    assert first == len(calls)
    assert len(one_step) >= 2


def test_failed_continuation_drops_hierarchy_and_factors(monkeypatch):
    """Where GMRES fails to go on from a first step's increment, the step
    is handled like any failed V-cycle step: the hierarchy drops its
    factor, levels and set-up before the Jacobian is factored, the report
    counts both GMRES solves as failed, and the level reaches the
    factor-every-step Newton solution in its one step; the hierarchy
    restarts on that factor."""
    held, hierarchies, counts = [], [], []

    def failing(real, matrix, rhs, precond, rtol, m_rhs, x0=None):
        out, iterations = real(matrix, rhs, precond, rtol, m_rhs, x0=x0)
        counts.append((x0 is not None, iterations))
        return (None if x0 is not None else out), iterations

    real_factor_solve = solver._factor_solve

    def watching(matrix, rhs):
        state = ((hierarchies[-1].lu, hierarchies[-1].levels,
                  hierarchies[-1].setup) if hierarchies else None)
        lu, out = real_factor_solve(matrix, rhs)
        held.append((state, lu))
        return lu, out

    monkeypatch.setattr(solver, "_factor_solve", watching)
    prob, cfg, levels = _fine_adaptive_study(monkeypatch, 7000, failing,
                                             hierarchies)
    rep, built, solution = levels[-1]
    assert rep.iterations == rep.factorizations == built == 1
    assert rep.krylov_iterations == [0]
    (loose_x0, loose_its), (x0, its) = counts[-2:]
    assert not loose_x0 and x0 and its > 0
    assert rep.failed_krylov_iterations == [loose_its + its]
    assert rep.krylov_rtols[0] < solver.KRYLOV_RTOL_CAP
    assert all(r.factorizations == 0 for r, _, _ in levels[1:-1])
    (lu, levels_held, setup), factor = held[-1]
    assert lu is None and levels_held == [] and setup is None
    hierarchy = hierarchies[-1]
    assert hierarchy.lu is factor and hierarchy.levels == []
    guess = prolong(levels[-2][2], solution.space)
    ref, ref_iterations = _reference_newton(solution.space, cfg, prob.g,
                                            prob.f, guess, NewtonConfig().tol)
    assert ref_iterations == 1
    assert np.abs(solution.coeffs - ref).max() <= 1e-10


@pytest.mark.parametrize("method", ["nitsche", "dg"])
def test_v_cycle_solve_builds_its_set_up_once(monkeypatch, method):
    """A V-cycle solve builds its block-Jacobi smoothers, and on dG its
    auxiliary operator A = E^T J E, once, from its first step's Jacobian:
    one ``_block_jacobi`` call per smoothed space and one A per solve.
    Every step's cycle runs on them, its GMRES and its sweeps on its own
    space on the step's own J, and the hierarchy releases them when it
    keeps the level."""
    blocks, steps, levels = [], [], []

    def counting(matrix, space, real=solver._block_jacobi):
        blocks.append(matrix)
        return real(matrix, space)

    def cycling(self, jac, space, real=Hierarchy.preconditioner):
        cycle, level = real(self, jac, space)
        steps.append((jac, level, self.setup, space))
        return cycle, level

    def solving(matrix, rhs, precond, rtol, m_rhs, x0=None,
                real=solver._krylov_solve):
        assert matrix is steps[-1][0]
        return real(matrix, rhs, precond, rtol, m_rhs, x0=x0)

    def marking(*args, hierarchy=None, real=adapt.newton_solve, **kwargs):
        before = len(blocks), len(steps)
        result = real(*args, hierarchy=hierarchy, **kwargs)
        levels.append((result[1], blocks[before[0]:], steps[before[1]:],
                       hierarchy.setup))
        return result

    monkeypatch.setattr(solver, "_block_jacobi", counting)
    monkeypatch.setattr(Hierarchy, "preconditioner", cycling)
    monkeypatch.setattr(solver, "_krylov_solve", solving)
    monkeypatch.setattr(adapt, "newton_solve", marking)
    _study(method, "uniform", 4)
    monkeypatch.undo()
    assert len(levels) == 4 and levels[0][2] == []
    for rep, built, cycles, setup in levels[1:]:
        assert rep.iterations == len(cycles) >= 2 and setup is None
        jac, (aux, smooth), (fine, set_aux, set_smooth), space = cycles[0]
        if method == "dg":
            prolongation, restriction = solver._lifts(embedding_matrix(space))
            assert abs(aux - restriction @ (jac @ prolongation)).max() == 0
            assert len(built) == 2 and built[0] is jac and built[1] is aux
            assert set_aux is aux and fine is not None
        else:
            assert len(built) == 1 and built[0] is jac
            assert aux is jac and fine is set_aux is None
        for step_jac, level, step_setup, _ in cycles[1:]:
            assert step_jac is not jac and step_setup is cycles[0][2]
            assert level[1] is smooth is set_smooth
            assert level[0] is (aux if method == "dg" else step_jac)


def test_continuous_level_reuses_kept_factor(monkeypatch):
    """In an adaptive Nitsche study, levels after the first build no
    factor: each is solved by V-cycle on the kept hierarchy and reaches the
    factor-every-step Newton solution from its prolonged guess in the same
    number of steps."""
    counter = _CountingLinalg()
    reports = _level_reports(monkeypatch, counter)
    prob, cfg, _ = _study("nitsche", "adaptive", 50, 400)
    monkeypatch.undo()
    reused = [k for k in range(1, len(reports) - 1) if reports[k][1] == 0]
    assert reused
    # some kept factor is two or more levels coarser: a composed prolongation
    factored = [k for k in range(len(reports) - 1) if reports[k][1] > 0]
    assert any(k - max(j for j in factored if j < k) >= 2 for k in reused)
    for k in reused:
        rep, _, solution = reports[k]
        assert rep.factorizations == 0
        assert all(its > 0 for its in rep.krylov_iterations)
        guess = prolong(reports[k - 1][2], solution.space)
        ref, ref_iterations = _reference_newton(
            solution.space, cfg, prob.g, prob.f, guess, NewtonConfig().tol)
        assert rep.iterations == ref_iterations
        assert np.abs(solution.coeffs - ref).max() <= 1e-10


def test_hierarchy_growth_rule(monkeypatch):
    """In an adaptive Nitsche study the hierarchy's levels grow by at least
    HIERARCHY_GROWTH in auxiliary ndof from the factor up, and a level
    solved by V-cycle joins exactly when its ndof meets that bound over the
    top level's, with the transfer built for its solve.  A kept level's
    lifted transfers are built once: the same objects on every later
    level."""
    real = adapt.newton_solve
    offers = []   # (ndof, top ndof, levels before, transfer, levels after)

    def recording(space, *args, hierarchy=None, **kwargs):
        if hierarchy.lu is None:   # level 0: nothing to cycle on yet
            return real(space, *args, hierarchy=hierarchy, **kwargs)
        before, transfer = list(hierarchy.levels), hierarchy.transfer
        ndofs = [hierarchy.lu.shape[0]] + [level[0].shape[0]
                                           for level in before]
        assert all(high >= solver.HIERARCHY_GROWTH * low
                   for low, high in zip(ndofs, ndofs[1:]))
        result = real(space, *args, hierarchy=hierarchy, **kwargs)
        assert result[1].factorizations == 0   # it ran the V-cycle
        offers.append((2 * space.mesh.n_vertices, ndofs[-1], before,
                       transfer, list(hierarchy.levels)))
        return result

    monkeypatch.setattr(adapt, "newton_solve", recording)
    _study("nitsche", "adaptive", 50, 1000)
    monkeypatch.undo()
    joined = 0
    for ndof, top, before, transfer, after in offers:
        if ndof >= solver.HIERARCHY_GROWTH * top:
            joined += 1
            assert after[:-1] == before and after[-1][0].shape[0] == ndof
            assert after[-1][2] is transfer[0] and after[-1][3] is transfer[1]
        else:
            assert after == before
    assert 2 <= joined < len(offers)
    # every kept level's tuple, lifts included, is the same object later on
    kept = {}
    for *_, after in offers:
        for level in after:
            first = kept.setdefault(id(level[0]), level)
            assert all(a is b for a, b in zip(level, first))
            assert level[3].data is first[3].data


@pytest.mark.parametrize("refine, levels, prob", [
    ("uniform", 4, lshape_problem(0.4)),
    ("adaptive", 5, slit_problem(1.0)),
], ids=["lshape-uniform", "slit-adaptive"])
def test_dg_study_factors_on_level_zero_only(monkeypatch, refine, levels,
                                             prob):
    """A dG study factors on level 0 only: the Laplace guess, level 0's
    Jacobian and, once level 0's solve converges and still within it, its
    auxiliary operator E^T J E, the coarsest level of the continuous
    hierarchy.  Every later level is solved by V-cycle GMRES through its
    auxiliary space and reaches the factor-every-step Newton solution from
    its prolonged guess in the same number of steps."""
    counter = _CountingLinalg()
    reports = _level_reports(monkeypatch, counter)
    recording, starts = adapt.newton_solve, []

    def marking(*args, **kwargs):
        starts.append(counter.factorizations)
        return recording(*args, **kwargs)

    monkeypatch.setattr(adapt, "newton_solve", marking)
    _, cfg, records = _study("dg", refine, levels, prob=prob)
    total = counter.factorizations
    monkeypatch.undo()
    assert len(records) == len(reports) == levels
    assert starts[0] == 1                     # the Laplace guess
    # level 0's Jacobians and its auxiliary operator
    assert reports[0][1] == reports[0][0].factorizations + 1 >= 2
    assert starts[1] == total == 1 + reports[0][1]
    for k in range(1, levels):
        rep, built, solution = reports[k]
        assert built == rep.factorizations == 0
        assert all(its > 0 for its in rep.krylov_iterations)
        guess = prolong(reports[k - 1][2], solution.space)
        ref, ref_iterations = _reference_newton(
            solution.space, cfg, prob.g, prob.f, guess, NewtonConfig().tol)
        assert rep.iterations == ref_iterations
        assert np.abs(solution.coeffs - ref).max() <= 1e-10


def test_uniform_continuous_study_factors_on_level_zero_only(monkeypatch):
    """A uniform Nitsche study factors on level 0 only, once per Newton
    step there: every later level is solved by V-cycle on the hierarchy of
    the levels below it, and each level reaches the factor-every-step
    Newton solution from its guess in the same number of steps."""
    counter = _CountingLinalg()
    reports = _level_reports(monkeypatch, counter)
    prob, cfg, records = _study("nitsche", "uniform", 4)
    monkeypatch.undo()
    assert len(records) == 4
    steps = reports[0][0].iterations
    assert [built for _, built, _ in reports] == [steps, 0, 0, 0]
    assert sum(rep.factorizations for rep, _, _ in reports) == steps
    for k, (rep, _, solution) in enumerate(reports):
        space = solution.space
        guess = (laplace_guess(space, cfg, prob.g, prob.f) if k == 0
                 else prolong(reports[k - 1][2], space))
        ref, ref_iterations = _reference_newton(space, cfg, prob.g, prob.f,
                                                guess, NewtonConfig().tol)
        assert rep.iterations == ref_iterations
        assert np.abs(solution.coeffs - ref).max() <= 1e-10
    assert all(all(its > 0 for its in rep.krylov_iterations)
               for rep, _, _ in reports[1:])


def test_continuous_hierarchy_step_is_the_guess_prolongation(monkeypatch):
    """On continuous P1 the hierarchy builds its own step to each level, and
    it is bitwise the prolongation of the level's guess: in a uniform study,
    where every level joins, the hierarchy's prolongation at each later
    solve is prolongation_matrix(previous.space, space)."""
    real = adapt.newton_solve
    spaces, steps = [], []

    def recording(space, *args, hierarchy=None, **kwargs):
        spaces.append(space)
        steps.append(hierarchy.prolongation)
        return real(space, *args, hierarchy=hierarchy, **kwargs)

    monkeypatch.setattr(adapt, "newton_solve", recording)
    _study("nitsche", "uniform", 3)
    monkeypatch.undo()
    assert steps[0] is None
    for coarse, space, step in zip(spaces, spaces[1:], steps[1:]):
        expect = prolongation_matrix(coarse, space)
        assert step.shape == expect.shape
        for arrays in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(step, arrays),
                                  getattr(expect, arrays))


def _refined_hierarchy(coarse_mesh, cfg, rng):
    """A hierarchy created on the ``cfg`` space of ``coarse_mesh``,
    restarted there on the Jacobian of a random iterate (on dG, the factor
    of its auxiliary operator) and refined once; returns it with the space
    it was refined to.  The hierarchy keeps no mesh, so a caller that
    transfers from ``coarse_mesh`` holds it."""
    prob = lshape_problem(cfg.epsilon)
    make = Space.continuous if cfg.method == "nitsche" else Space.dg
    coarse_space = make(coarse_mesh)
    coarse_jac = NonlinearSystem(coarse_space, cfg, prob.g, prob.f).jacobian(
        rng.standard_normal(coarse_space.ndof))
    hierarchy = Hierarchy(coarse_space)
    hierarchy.keep(coarse_jac, spla.splu(coarse_jac.tocsc()), None)
    space = make(red_refine(coarse_space.mesh))
    hierarchy.refine(space)
    return hierarchy, space


@pytest.mark.parametrize("method", ["nitsche", "dg"])
def test_v_cycle_without_intermediate_level_is_two_grid(lshape, method):
    """With no intermediate level the V-cycle is the two-grid cycle: a
    sweep, the coarse correction P lu^{-1} P^T r per component and a
    second sweep, bit for bit.  On dG that two-grid cycle runs on the
    auxiliary operator A = E^T J E, between a sweep on J, the restriction
    by E^T, the prolongation by E and a second sweep on J; on Nitsche A is
    J.  The level the step would keep is A with its damped block-Jacobi
    smoother."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method=method, epsilon=0.4)
    rng = np.random.default_rng(7)
    coarse_mesh = red_refine(lshape)
    hierarchy, space = _refined_hierarchy(coarse_mesh, cfg, rng)
    aux_space = Space.continuous(space.mesh)
    lu = hierarchy.lu
    jac = NonlinearSystem(space, cfg, prob.g, prob.f).jacobian(
        rng.standard_normal(space.ndof))
    prolongation = prolongation_matrix(Space.continuous(coarse_mesh),
                                       aux_space)
    restriction = prolongation.T.tocsr()
    smooth = solver.SMOOTHER_OMEGA * solver._block_jacobi(jac, space)
    cycle, (aux, aux_smooth) = hierarchy.preconditioner(jac, space)
    assert (aux is jac) == (method == "nitsche")
    assert aux.shape == (aux_space.ndof,) * 2
    expect = solver.SMOOTHER_OMEGA * solver._block_jacobi(aux, aux_space)
    assert abs(aux_smooth - expect).max() == 0.0

    def two_grid(r):
        x = aux_smooth @ r
        rc = componentwise(restriction, r - aux @ x)
        x += componentwise(prolongation, lu.solve(rc))
        return x + aux_smooth @ (r - aux @ x)

    def reference(r):
        if method != "dg":
            return two_grid(r)
        scalar = embedding_matrix(space)
        x = smooth @ r
        x += componentwise(scalar, two_grid(
            componentwise(scalar.T.tocsr(), r - jac @ x)))
        return x + smooth @ (r - jac @ x)

    for _ in range(3):
        r = rng.standard_normal(space.ndof)
        assert np.array_equal(cycle(r), reference(r))


def test_auxiliary_operator_of_sipg_is_nitsche(lshape):
    """For lambda = 1 the auxiliary operator of the dG gradient form,
    E^T S_dG E, is the Nitsche gradient form on the same mesh: on
    continuous functions the interior jump terms vanish and the boundary
    terms agree.  Equal to rounding: an entry of either side sums at most
    n local terms, so both lie within n eps times the sum of the terms'
    magnitudes of the exact value."""
    mesh = red_refine(red_refine(lshape))
    dg, continuous = Space.dg(mesh), Space.continuous(mesh)
    embed = embedding_matrix(dg)
    s_dg = gradient_matrix(dg, MethodConfig(method="dg", epsilon=0.4))
    nitsche = gradient_matrix(continuous,
                              MethodConfig(method="nitsche", epsilon=0.4))
    aux = embed.T @ s_dg @ embed
    terms = (embed.T @ abs(s_dg).sign() @ embed).max()
    magnitude = (embed.T @ abs(s_dg) @ embed + abs(nitsche)).toarray()
    bound = 2 * terms * np.finfo(float).eps * magnitude
    assert (np.abs((aux - nitsche).toarray()) <= bound).all()


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_auxiliary_operator_is_galerkin_product(lshape, lam):
    """For lambda != 1 the dG boundary weight differs from Nitsche's, so the
    auxiliary operator is no Nitsche operator; it is still the Galerkin
    product E^T J E of the lifted embedding, to rounding (as above, n eps
    times the sum of the magnitudes of at most n terms): the level that a
    dG step on the hierarchy would keep."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="dg", epsilon=0.4, lam=lam)
    rng = np.random.default_rng(5)
    hierarchy, space = _refined_hierarchy(red_refine(lshape), cfg, rng)
    jac = NonlinearSystem(space, cfg, prob.g, prob.f).jacobian(
        rng.standard_normal(space.ndof))
    _, (aux, _) = hierarchy.preconditioner(jac, space)
    embedding = solver._lifts(embedding_matrix(space))
    lift = embedding[0].toarray()
    exact = lift.T @ jac.toarray() @ lift
    terms = (embedding[1] @ abs(jac).sign() @ embedding[0]).max()
    magnitude = lift.T @ abs(jac).toarray() @ lift
    bound = terms * np.finfo(float).eps * magnitude
    assert aux.shape == (2 * space.mesh.n_vertices,) * 2
    assert (np.abs(aux.toarray() - exact) <= bound).all()


@pytest.mark.parametrize("method, refine, levels, target_ndof", [
    ("nitsche", "uniform", 4, None),
    ("dg", "uniform", 4, None),
    ("nitsche", "adaptive", 50, 400),
], ids=["nitsche-uniform", "sipg-uniform", "nitsche-adaptive-target"])
def test_solve_levels_releases_every_jacobian(monkeypatch, method, refine,
                                              levels, target_ndof):
    """Without the cyclic garbage collector, every Jacobian a study builds,
    those kept as intermediate levels included, is freed by the time
    ``solve_levels`` returns: the V-cycle and the hierarchy form no
    reference cycle."""
    built = []
    real = NonlinearSystem.jacobian

    def recording(self, coeffs):
        jac = real(self, coeffs)
        built.append(weakref.ref(jac))
        return jac

    monkeypatch.setattr(NonlinearSystem, "jacobian", recording)
    gc.disable()
    try:
        _, _, records = _study(method, refine, levels, target_ndof)
        alive = sum(ref() is not None for ref in built)
    finally:
        gc.enable()
    monkeypatch.undo()
    assert len(built) > len(records)
    assert alive == 0


@pytest.mark.parametrize("method", ["nitsche", "dg"])
def test_newton_releases_previous_jacobian(monkeypatch, method):
    """Without the cyclic garbage collector, the Jacobian of every Newton
    step is freed by the time the next step starts building its own: at
    the entry of every later ``jacobian`` call of the same system, on the
    factored level 0 and on the V-cycle levels above it."""
    real = NonlinearSystem.jacobian
    alive, earlier_calls = [], []

    def recording(self, coeffs):
        built = self.__dict__.setdefault("built", [])
        earlier_calls.append(len(built))
        alive.append(sum(ref() is not None for ref in built))
        jac = real(self, coeffs)
        built.append(weakref.ref(jac))
        return jac

    monkeypatch.setattr(NonlinearSystem, "jacobian", recording)
    gc.disable()
    try:
        _study(method, "uniform", 3)
    finally:
        gc.enable()
    assert max(earlier_calls) >= 2
    assert alive == [0] * len(alive)


def test_newton_report_records_peak_rss(lshape):
    """The report holds the process's peak RSS after every step, also when
    the solve raises; it never decreases."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    space = Space.continuous(red_refine(lshape))
    guess = laplace_guess(space, cfg, prob.g, prob.f)
    _, report = newton_solve(space, cfg, prob.g, prob.f, guess)
    with pytest.raises(NewtonError) as err:
        newton_solve(space, cfg, prob.g, prob.f, guess,
                     NewtonConfig(tol=1e-13, max_iter=2))
    for rep in (report, err.value.report):
        peaks = rep.peak_rss_mb
        assert len(peaks) == rep.iterations
        assert peaks[0] > 0 and peaks == sorted(peaks)


@pytest.mark.parametrize("method, refine, levels", [
    ("nitsche", "uniform", 3), ("dg", "uniform", 3),
    ("nitsche", "adaptive", 4)])
def test_solve_levels_releases_coarser_space(monkeypatch, method, refine,
                                             levels):
    """Without the cyclic garbage collector, no coarser level's space (with
    its geometry and pattern) is alive while a level is solved: the study
    keeps only the prolonged guess and the hierarchy's matrices."""
    real = adapt.newton_solve
    spaces, alive = [], []

    def recording(space, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in spaces))
        spaces.append(weakref.ref(space))
        return real(space, *args, **kwargs)

    monkeypatch.setattr(adapt, "newton_solve", recording)
    gc.disable()
    try:
        _study(method, refine, levels)
    finally:
        gc.enable()
    assert alive == [0] * levels


@pytest.mark.parametrize("method, refine, levels", [
    ("nitsche", "uniform", 3), ("dg", "uniform", 3),
    ("nitsche", "adaptive", 4)])
def test_solve_levels_releases_coarser_mesh(monkeypatch, method, refine,
                                            levels):
    """Without the cyclic garbage collector, no coarser level's mesh that
    the study refined is alive while a level is solved (the caller holds
    level 0's mesh, which it passed in): a refined mesh refers to the mesh
    it refines weakly, so the finest mesh does not keep the study's chain
    of coarser meshes."""
    real = adapt.newton_solve
    meshes, alive = [], []

    def recording(space, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in meshes[1:]))
        meshes.append(weakref.ref(space.mesh))
        return real(space, *args, **kwargs)

    monkeypatch.setattr(adapt, "newton_solve", recording)
    gc.disable()
    try:
        _study(method, refine, levels)
    finally:
        gc.enable()
    assert alive == [0] * levels


def _unrelated_hierarchy(coarse_mesh, mid_space, mid_jac, space):
    """A hierarchy created on continuous P1 of ``coarse_mesh`` and restarted
    there on the factor of an unrelated matrix, with the kept level
    (``mid_jac``, its smoother) on continuous P1 of ``mid_space``'s mesh
    above it, refined to ``space``.  The unrelated matrix is a hundredth of
    a random sparse one minus the identity, so its inverse swamps the
    cycle's sweeps and V-cycle GMRES fails even at KRYLOV_RTOL_CAP, the
    tolerance of a solve's first step."""
    rng = np.random.default_rng(2)
    coarse_space = Space.continuous(coarse_mesh)
    nc = coarse_space.ndof
    unrelated = (1e-2 * (sp.random(nc, nc, density=0.01, random_state=rng)
                         - sp.identity(nc))).tocsc()
    hierarchy = Hierarchy(coarse_space)
    hierarchy.keep(unrelated, spla.splu(unrelated), None)
    hierarchy.refine(mid_space)
    smoother = solver.SMOOTHER_OMEGA * solver._block_jacobi(
        mid_jac, Space.continuous(mid_space.mesh))
    hierarchy.keep(None, None, (mid_jac, smoother))
    assert [level[0] for level in hierarchy.levels] == [mid_jac]   # joined
    hierarchy.refine(space)
    return hierarchy


def _watched_fallback(monkeypatch, hierarchy, mid_jac_ref, space, cfg, prob,
                      guess, ncfg):
    """The solve of ``space`` on ``hierarchy`` without the cyclic garbage
    collector; returns (solution, report, the factorizations it built, at
    each of them the hierarchy's factor and levels and whether the kept
    level's J was alive, and the (matrix, factor) pairs built)."""
    held, factored = [], []

    class Watching(_CountingLinalg):
        def splu(self, matrix, *args, **kwargs):
            held.append((hierarchy.lu, hierarchy.levels,
                         mid_jac_ref() is not None))
            factored.append((matrix, super().splu(matrix, *args, **kwargs)))
            return factored[-1][1]

    counter = Watching()
    monkeypatch.setattr(solver, "spla", counter)
    gc.disable()
    try:
        sol, rep = newton_solve(space, cfg, prob.g, prob.f, guess, ncfg,
                                hierarchy=hierarchy)
    finally:
        gc.enable()
    monkeypatch.undo()
    return sol, rep, counter.factorizations, held, factored


def _check_fallback(rep, built, held, restarts):
    """V-cycle GMRES fails on the first step, which drops the hierarchy,
    with its kept level's J, before it factors; every later step factors
    on the empty hierarchy, with no GMRES attempt, and so does the restart
    that ends the solve, ``restarts`` times (on dG, the factor of A)."""
    assert held == [(None, [], False)] * built
    assert built == rep.factorizations + restarts
    assert rep.factorizations == rep.iterations >= 2
    assert rep.krylov_iterations == [0] * rep.iterations
    assert rep.failed_krylov_iterations[0] > 0
    assert rep.failed_krylov_iterations[1:] == [0] * (rep.iterations - 1)
    assert np.isnan(rep.krylov_rtols[1:]).all()


def test_two_grid_fallback_refactors(lshape, monkeypatch):
    """With the factor of an unrelated matrix as coarse solve, V-cycle
    GMRES fails on the first step; the step drops the coarse factor and
    the intermediate level before it factors the Jacobian, every later
    step factors too, and the solve still reaches the Newton solution.
    The hierarchy restarts on the factor of the last step."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="nitsche", epsilon=0.4)
    ncfg = NewtonConfig()
    coarse_mesh = red_refine(lshape)
    mid_mesh = red_refine(coarse_mesh)
    mid_space = Space.continuous(mid_mesh)
    mid_sol, _ = newton_solve(mid_space, cfg, prob.g, prob.f,
                              laplace_guess(mid_space, cfg, prob.g, prob.f),
                              ncfg)
    space = Space.continuous(red_refine(mid_mesh))
    guess = prolong(mid_sol, space)
    mid_jac = NonlinearSystem(mid_space, cfg, prob.g,
                              prob.f).jacobian(mid_sol.coeffs)
    mid_jac_ref = weakref.ref(mid_jac)
    hierarchy = _unrelated_hierarchy(coarse_mesh, mid_space, mid_jac, space)
    del mid_jac

    sol, rep, built, held, factored = _watched_fallback(
        monkeypatch, hierarchy, mid_jac_ref, space, cfg, prob, guess, ncfg)
    ref, ref_iterations = _reference_newton(space, cfg, prob.g, prob.f,
                                            guess, ncfg.tol)

    _check_fallback(rep, built, held, 0)
    assert rep.iterations == ref_iterations
    assert np.abs(sol.coeffs - ref).max() <= 1e-10
    # restarted on the last step's factor, which is of J = A
    assert hierarchy.levels == []
    assert hierarchy.lu is factored[-1][1]


def test_auxiliary_cycle_fallback_refactors(lshape, monkeypatch):
    """dG: with the factor of an unrelated matrix as coarse solve, the
    auxiliary-space V-cycle GMRES fails on the first step; the step drops
    the coarse factor and the intermediate level before it factors the dG
    Jacobian, every later step factors too, and the solve still reaches
    the Newton solution.  It keeps no dG factor: the hierarchy restarts on
    the factor of the auxiliary operator E^T J E of its last Jacobian,
    built once the solve converges."""
    prob = lshape_problem(0.4)
    cfg = MethodConfig(method="dg", epsilon=0.4)
    ncfg = NewtonConfig()
    coarse_mesh = red_refine(lshape)
    mid_mesh = red_refine(coarse_mesh)
    mid_space = Space.dg(mid_mesh)
    mid_sol, _ = newton_solve(mid_space, cfg, prob.g, prob.f,
                              laplace_guess(mid_space, cfg, prob.g, prob.f),
                              ncfg)
    space = Space.dg(red_refine(mid_mesh))
    guess = prolong(mid_sol, space)
    prolongation, restriction = solver._lifts(embedding_matrix(mid_space))
    mid_jac = restriction @ (NonlinearSystem(mid_space, cfg, prob.g, prob.f)
                             .jacobian(mid_sol.coeffs) @ prolongation)
    mid_jac_ref = weakref.ref(mid_jac)
    hierarchy = _unrelated_hierarchy(coarse_mesh, mid_space, mid_jac, space)
    del mid_jac

    sol, rep, built, held, factored = _watched_fallback(
        monkeypatch, hierarchy, mid_jac_ref, space, cfg, prob, guess, ncfg)
    ref, ref_iterations = _reference_newton(space, cfg, prob.g, prob.f,
                                            guess, ncfg.tol)

    _check_fallback(rep, built, held, 1)
    assert rep.iterations == ref_iterations
    assert np.abs(sol.coeffs - ref).max() <= 1e-10
    assert hierarchy.levels == [] and hierarchy.lu is factored[-1][1]
    prolongation, restriction = solver._lifts(embedding_matrix(space))
    expect = restriction @ (factored[-2][0].tocsr() @ prolongation)
    assert factored[-1][0].shape == (2 * space.mesh.n_vertices,) * 2
    assert abs(factored[-1][0] - expect).max() == 0.0


@pytest.mark.parametrize("matrix, rhs", [
    # zero row: SuperLU reports an exactly singular factor
    (sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0],
                             [0.0, 1.0, 3.0]])), np.ones(3)),
    # regular matrix, non-finite solution
    (sp.identity(3, format="csr"), np.array([1.0, np.inf, 1.0])),
], ids=["zero-row", "non-finite"])
def test_factor_solve_raises_linear_solve_error(matrix, rhs):
    with pytest.raises(LinearSolveError):
        solver._factor_solve(matrix, rhs)
