"""Newton iteration and initial guesses.

Each step solves the frozen-coefficient linear problem

    gradient part + quartic linearization at psi_k + linear bulk term
        applied to psi_{k+1}
    =  2 * cubic term at psi_k  +  load,

which is algebraically identical to the Newton update
psi_{k+1} = psi_k - J(psi_k)^{-1} residual(psi_k); the implementation uses
the increment form.

A solve stops on the residual.  From the second step on it evaluates the
residual at the new iterate first, and stops before any Jacobian when the
predicted increment, the last increment times the residual ratio
prev_inc * res / prev_res, is at most the Newton tolerance (or the residual
is zero): past the onset of quadratic convergence the next increment is
about that prediction, and the error of the iterate about the next
increment (Deuflhard, Newton Methods for Nonlinear Problems, Springer 2004,
2.1).  It also stops after a step whose increment, in the discrete norm, is
at most the tolerance.  So no step is taken only to confirm convergence,
and a solve whose residual test passes after its last budgeted step has
converged.

A step solves its linear system in one of two ways.  Given the multilevel
hierarchy that a study on nested meshes keeps from its coarser levels
(:class:`Hierarchy`: the factor of the coarsest level, the kept levels
above it and the prolongation into continuous P1 on the solve's mesh), it
runs GMRES on the current Jacobian J preconditioned by the hierarchy's
V-cycle and builds no factor.  Without a hierarchy that holds a factor (a
study's level 0, a single solve, or the steps after a V-cycle GMRES
failure) it factors J with SuperLU and solves directly.

GMRES solves to no more accuracy than Newton can use.  The first step of a
solve runs to KRYLOV_RTOL_CAP: the next step corrects its linear error
along with its quadratic one, as a forcing term of the order of the
residual keeps Newton's convergence quadratic (Dembo, Eisenstat &
Steihaug, SINUM 19, 1982).  Only where the first step would end the solve
does its error stay: when the residual test at its iterate would pass had
the step been exact (its increment times the Taylor remainder
F(x + d) - F(x) - J d, over the residual, at most the Newton tolerance),
GMRES goes on from the increment, on the same J and cycle, to the
tolerance below.  A later step runs to the squared residual ratio of the
last two steps (Eisenstat & Walker, SISC 17, 1996) or, where larger, to
the tolerance that leaves an error of INCREMENT_SHARE times the Newton
tolerance in the step's predicted increment, so no step resolves an
increment past what the stopping test can see (Kelley, Iterative Methods
for Linear and Nonlinear Equations, SIAM 1995, 6.3); both clipped to
[KRYLOV_RTOL_FLOOR, KRYLOV_RTOL_CAP].  The last step's error stays in the
solution, as no later step corrects it, hence a share well below one.  The
update is still the Newton step, so the iterates match a solve that
factors at every step up to the GMRES tolerance.

The hierarchy always lives on continuous P1, and it alone knows how a level
reaches it.  The auxiliary space of a level is continuous P1 on its mesh,
reached by the scalar embedding E (the identity on continuous P1), and its
auxiliary operator is the Galerkin product A = E^T J E.  A dG solve is
thereby the auxiliary-space preconditioner (Xu, Computing 56, 1996; Dobrev,
Lazarov, Vassilevski & Zikatanov, NLAA 13, 2006): a sweep on J, the
restriction by E^T, the continuous cycle on A, the prolongation by E and a
second sweep.  The cycle smooths down from J through A and the kept levels,
restricting the residual by P^T, solves with the kept factor, then prolongs
the correction and smooths back up; every smoothing is a damped
block-Jacobi sweep (damping SMOOTHER_OMEGA; one block per dG triangle or
per continuous vertex, both components, the vertex blocks inverted in
closed form) and every transfer is the scalar P or E on each component.
With no kept level above the factor this is the two-grid cycle on A: a
sweep, the coarse correction P lu_c^{-1} P^T r and a second sweep.  The
transfers are the two-component lifts diag(P, P) and diag(P^T, P^T), built
once per level, as are those of E, so a transfer is one sparse product on
the flat coefficient vector.  Point Jacobi is too weak a smoother for dG;
element blocks follow Gopalakrishnan & Kanschat, Numer. Math. 95 (2003).
The smoothers and A are built once per solve, from its first V-cycle
step's Jacobian; the later steps' Jacobians differ from it by the solve's
small increments, and each step's GMRES and its sweeps on its own space
still take the residual with its own J.
When GMRES does not converge within KRYLOV_CYCLES restart cycles, the step
drops the hierarchy and factors J, and so do the solve's later steps.  A
converged solve hands its last step to the hierarchy in one call,
:meth:`Hierarchy.keep`: the level of a V-cycle step is offered to it, and
the factor of a factored step's A restarts it.
:func:`nematicfem.adapt.solve_levels` keeps one hierarchy per study.

Vectors are flat coefficients in the (u, v) layout that
:mod:`nematicfem.fespace` owns, read and built through its functions.

A step holds one Jacobian: the last step's J, and the factor built from
it, live until the residual at the new iterate is known, which the
converged solve hands to the hierarchy, and are released before the next
J is assembled.  The solve's smoothers and auxiliary operator, built from
its first V-cycle Jacobian, stay with the hierarchy until the solve
converges or falls back; they hold no Jacobian.  So a step's memory is J,
the system's set-up and its factor or the hierarchy, plus the block-sized
transients of the assembly (see :mod:`nematicfem.forms`).  The report
records the process's peak resident set after every step.

A single solve is sequential over iterations; independent solves (e.g. a
level sweep) can run concurrently since spaces, configs and data are
immutable.
"""

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

try:
    import resource
except ImportError:   # not on Windows
    resource = None

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import ConfigError, LinearSolveError, NewtonError
from .fespace import (CONTINUOUS, DG, Field, Space, block_diagonal,
                      componentwise, discrete_norm, embedding_matrix, evaluate,
                      gather, join, prolongation_matrix, vertex_block_matrix,
                      vertex_blocks)
from .forms import (MethodConfig, NonlinearSystem, gradient_matrix,
                    load_vector)
from .mesh import UNIT_SQUARE
from .problems import device_problem

DEVICE_STATES = ("D1", "D2", "R1", "R2", "R3", "R4")


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-8
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigError("Newton tolerance must be positive")
        if self.max_iter < 1:
            raise ConfigError("Newton iteration budget must be at least 1")


# GMRES settings of the V-cycle steps.  The cap, the tolerance of a
# solve's first step, keeps every step close enough to the exact Newton
# step that the step count and the solution match a factor-every-step solve
# (with the increment share below).  A tolerance of 1e-12 sits at the
# rounding floor and stalls GMRES on large levels, hence the floor of
# 1e-10.  scipy can end a restart cycle on the preconditioned residual
# estimate and then fail its true-residual check, so one cycle is too few.
KRYLOV_RESTART = 20
KRYLOV_CYCLES = 3
KRYLOV_RTOL_FLOOR = 1e-10
KRYLOV_RTOL_CAP = 1e-4
# A step solves its increment only to the accuracy the Newton stopping test
# can see: GMRES stops once the error of the predicted increment (of a first
# step that ends its solve, of the increment itself) is below this share of
# NewtonConfig.tol.  No further step corrects the last step's error, so it
# stays in the solution: against the factor-every-step solution of the
# tests' studies it reaches 3.5e-10 (max norm) at a share of 0.1 and at most
# 3e-11 at 0.01.
INCREMENT_SHARE = 0.01
# damping of the block-Jacobi sweeps of the V-cycle
SMOOTHER_OMEGA = 0.8
# A level solved by V-cycle joins the hierarchy, as its new top level, when
# the ndof of its auxiliary space (continuous P1 on its mesh) is at least
# this multiple of the top level's; the levels in between are reached
# through the composed prolongation.  Red refinement grows ndof about 4x
# per level, so every level of a uniform study joins, and the cycle never
# jumps more than one uniform level; an adaptive study (about 1.2x per
# level) keeps one level in every five or six.
HIERARCHY_GROWTH = 3


@dataclass
class NewtonReport:
    """History of one Newton solve: the increment norm and the residual
    2-norm at the start of every step, the number of LU factorizations, the
    GMRES iterations of every step (0 for a factored step), those of every
    step's failed GMRES attempt (0 for a step without one) and the relative
    tolerance every step gave GMRES (NaN for a step that ran no GMRES).  A
    first step that GMRES went on with from its increment (see
    :func:`newton_solve`) counts the iterations of both solves, and its
    tolerance is the one the increment was finally solved to; where the
    second solve failed, both count as failed.

    ``peak_rss_mb`` is the process's peak resident set (``ru_maxrss``, in
    MB) after every step, NaN where the platform has no ``resource``
    module.  Like the Krylov counts and tolerances it is a record of the
    run, not of its numbers: it goes into no output file."""
    iterations: int = 0
    increments: list = dataclass_field(default_factory=list)
    residuals: list = dataclass_field(default_factory=list)
    converged: bool = False
    factorizations: int = 0
    krylov_iterations: list = dataclass_field(default_factory=list)
    failed_krylov_iterations: list = dataclass_field(default_factory=list)
    krylov_rtols: list = dataclass_field(default_factory=list, compare=False)
    peak_rss_mb: list = dataclass_field(default_factory=list, compare=False)


def _peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB (``ru_maxrss`` is in
    KB on Linux)."""
    if resource is None:
        return float("nan")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _factor(matrix):
    """SuperLU factor of ``matrix``.  Raises :class:`LinearSolveError` when
    the factorization fails."""
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as exc:  # superlu reports singularity this way
        raise LinearSolveError(
            f"sparse direct factorization failed ({exc}); "
            f"matrix inf-norm {abs(matrix).sum(axis=1).max():.3e}") from exc


def _factor_solve(matrix, rhs):
    """SuperLU factor of ``matrix`` and the solution of matrix x = rhs.

    Raises :class:`LinearSolveError` when the factorization fails or the
    solution is not finite."""
    lu = _factor(matrix)
    out = lu.solve(rhs)
    if not np.all(np.isfinite(out)):
        raise LinearSolveError("sparse direct solve produced non-finite values "
                               "(singular linear system)")
    return lu, out


def _krylov_solve(matrix, rhs, precond, rtol, m_rhs, x0=None):
    """GMRES on matrix x = rhs, preconditioned by the map ``precond``, from
    ``x0`` (zero where None).  Returns (x, iterations); x is None when
    GMRES does not reach ``rtol`` within KRYLOV_CYCLES restart cycles.
    ``rtol`` is relative to ``rhs``, from any start.  ``m_rhs`` is
    precond(rhs), which the caller computes once for every solve of a
    step.  From a zero start it stands for the first restart cycle's
    application of ``precond``, so counting it ``precond`` runs once per
    iteration and once per restart cycle; from ``x0`` it runs that often
    here."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    # scipy applies M to rhs first, for the norm of M rhs, and from a zero
    # start again, to r = rhs for the first Arnoldi vector: both are
    # answered from m_rhs
    calls = 0

    def apply(r):
        nonlocal calls
        calls += 1
        if calls <= 2 and np.array_equal(r, rhs):
            return m_rhs
        return precond(r)

    operator = spla.LinearOperator(matrix.shape, matvec=apply,
                                   dtype=matrix.dtype)
    out, info = spla.gmres(matrix, rhs, x0=x0, rtol=rtol, atol=0.0,
                           restart=KRYLOV_RESTART, maxiter=KRYLOV_CYCLES,
                           M=operator, callback=count, callback_type="pr_norm")
    if info != 0 or not np.all(np.isfinite(out)):
        return None, iterations
    return out, iterations


def _increment_rtol(increment, tol):
    """GMRES tolerance that leaves an error of INCREMENT_SHARE * tol in an
    increment of norm ``increment``, clipped to [KRYLOV_RTOL_FLOOR,
    KRYLOV_RTOL_CAP]; a zero increment takes the cap."""
    if increment == 0:
        return KRYLOV_RTOL_CAP
    return float(np.clip(INCREMENT_SHARE * tol / increment,
                         KRYLOV_RTOL_FLOOR, KRYLOV_RTOL_CAP))


def _krylov_rtol(res, prev_res, prev_inc, tol):
    """GMRES tolerance of a Newton step that starts at residual ``res``: the
    cap on the first step (``prev_res`` None), whose linear error the next
    step corrects unless the first step ends the solve (see
    :func:`newton_solve`); later, the Eisenstat-Walker squared residual
    ratio or, where larger, the tolerance that leaves an error of
    INCREMENT_SHARE * tol in the predicted increment
    prev_inc * res / prev_res, both clipped to [KRYLOV_RTOL_FLOOR,
    KRYLOV_RTOL_CAP].  A zero predicted increment takes the cap."""
    if prev_res is None:
        return KRYLOV_RTOL_CAP
    return max(float(np.clip((res / prev_res) ** 2,
                             KRYLOV_RTOL_FLOOR, KRYLOV_RTOL_CAP)),
               _increment_rtol(prev_inc * res / prev_res, tol))


def _block_jacobi(matrix, space: Space) -> sp.csr_matrix:
    """Inverse of the block diagonal of ``matrix``: one block per dG
    triangle (its 3 scalar dofs) or per continuous vertex, each with both
    components.  A vertex block [[a, b], [c, d]] is inverted in closed form,
    [[d, -b], [-c, a]] / (a d - b c); the 6 x 6 triangle blocks by LAPACK.
    Either way the CSR arrays are written directly, with no COO step."""
    if space.kind != DG:
        blocks = vertex_blocks(matrix)
        (a, b), (c, d) = blocks.transpose(1, 2, 0)
        det = a * d - b * c
        inverse = np.empty_like(blocks)
        inverse[:, 0, 0], inverse[:, 0, 1] = d / det, -b / det
        inverse[:, 1, 0], inverse[:, 1, 1] = -c / det, a / det
        return vertex_block_matrix(inverse)
    # the full dofs of each block: its u dofs, then its v dofs
    dofs = gather(np.arange(space.ndof), space.elem_dofs).transpose(0, 2, 1)
    dofs = dofs.reshape(len(dofs), -1)
    nblocks, k = dofs.shape
    blocks = np.asarray(matrix[np.repeat(dofs, k, axis=1).ravel(),
                               np.tile(dofs, k).ravel()])
    # every dof is in one block: row dofs[b, i] holds the columns dofs[b]
    data = np.empty((space.ndof, k))
    data[dofs] = np.linalg.inv(blocks.reshape(nblocks, k, k))
    indices = np.empty((space.ndof, k), dtype=np.int32)
    indices[dofs] = dofs[:, None, :]
    return sp.csr_matrix((data.ravel(), indices.ravel(),
                          np.arange(0, k * space.ndof + 1, k, dtype=np.int32)),
                         shape=matrix.shape)


def _lifts(scalar: sp.csr_matrix):
    """The two-component lifts (diag(S, S), diag(S^T, S^T)) of a scalar
    transfer S, a prolongation P or the embedding E; the first is the
    transpose view of the second (a CSC product), so a transfer keeps one
    copy of its arrays."""
    restriction = block_diagonal(scalar.T.tocsr())
    return restriction.T, restriction


class Hierarchy:
    """The multilevel hierarchy that a study on nested meshes keeps for its
    V-cycle solves, and the one owner of the way a level reaches it.  It
    lives on continuous P1: ``space`` is continuous P1 on the mesh of the
    level being solved, that level's auxiliary space, and ``embedding`` the
    lifts (E, E^T) of the embedding of it into a dG level (None on
    continuous P1, where E = I); ``lu`` is the LU factor of the coarsest
    level's auxiliary operator; ``levels`` the kept levels above it, coarse
    to fine, as (auxiliary operator, damped block-Jacobi smoother, lifted
    prolongation from the level below, lifted restriction to it);
    ``prolongation`` the scalar prolongation from the top level to
    ``space``, composed over the levels between them, and ``transfer`` its
    lifts, which a joining level keeps, so each level's lifts are built
    once.

    A study creates it on the space of its level 0 and calls
    :meth:`refine` with every finer level's space.  :func:`newton_solve`
    takes each V-cycle step's :meth:`preconditioner`, calls :meth:`drop`
    when V-cycle GMRES fails and hands a converged solve's last step to
    :meth:`keep`.  As the only holder of its factor and levels, the
    hierarchy releases them on a drop, before the step factors its
    Jacobian.  ``setup`` holds the smoothers and, on dG, the auxiliary
    operator of the solve under way (see :meth:`preconditioner`)."""

    def __init__(self, space: Space):
        self.drop()
        self._take(space)

    def _take(self, space: Space):
        """Make ``space`` the level being solved: keep continuous P1 on its
        mesh and, on dG, the lifted embedding, releasing the last one
        first."""
        self.space, self.embedding = Space(space.mesh, CONTINUOUS), None
        if space.kind == DG:
            self.embedding = _lifts(embedding_matrix(space))

    def drop(self):
        """Release the factor, the levels, the transfer and the solve's
        set-up."""
        self.lu = self.prolongation = self.transfer = self.setup = None
        self.levels = []

    def refine(self, space: Space):
        """Move to ``space``, on a refinement of the last level's mesh: the
        continuous P1 prolongation between the two meshes is composed onto
        ``prolongation``.  Raises :class:`NestingError` where the meshes are
        not nested."""
        coarse = self.space
        self._take(space)
        step = prolongation_matrix(coarse, self.space)
        self.prolongation = (step if self.prolongation is None
                             else step @ self.prolongation)
        self.transfer = _lifts(self.prolongation)
        self.setup = None

    def preconditioner(self, jac, space: Space):
        """The V-cycle of a step on ``space`` with Jacobian ``jac``, and the
        level (A, its damped block-Jacobi smoother) that :meth:`keep` takes:
        A = E^T J E on dG, J itself on continuous P1.  From the finest level
        down, a sweep and the restriction of its residual (on dG, a sweep on
        J and the restriction by E^T to A first); the factor's solve; from
        the coarsest level up, the prolonged correction and a second
        sweep.

        The smoothers, and on dG A, are built from the Jacobian of the
        solve's first V-cycle step and serve its later steps too: ``setup``
        holds them (the smoother of J or None, A or None, the smoother of
        A) until :meth:`keep`, :meth:`drop` or :meth:`refine`, and holds no
        Jacobian.  So on continuous P1 the level is this step's ``jac``
        with the first step's smoother.  Every step's sweeps on its own
        space take the residual with its own ``jac``."""
        if self.setup is None:   # the solve's first V-cycle step
            fine = aux = None
            if self.embedding is not None:
                fine = SMOOTHER_OMEGA * _block_jacobi(jac, space)
                aux = self.embedding[1] @ (jac @ self.embedding[0])
            self.setup = (fine, aux, SMOOTHER_OMEGA * _block_jacobi(
                jac if aux is None else aux, self.space))
        fine, aux, smooth = self.setup
        down = [] if fine is None else [(jac, fine) + self.embedding]
        level = (jac if aux is None else aux, smooth)
        down += [level + self.transfer] + self.levels[::-1]
        lu = self.lu

        def apply(r):
            visited = []
            for jac, smooth, _, restriction in down:
                x = smooth @ r
                visited.append((r, x))
                r = restriction @ (r - jac @ x)
            correction = lu.solve(r)
            for (jac, smooth, prolongation, _), (r, x) in zip(
                    reversed(down), reversed(visited)):
                x += prolongation @ correction
                correction = x + smooth @ (r - jac @ x)
            return correction

        return apply, level

    def keep(self, jac, lu, level):
        """Take the last step of a converged solve, with Jacobian ``jac``.
        Where it ran the V-cycle, ``level`` is its level from
        :meth:`preconditioner`: the level joins as the new top level, with
        the transfer built for it, when its ndof is at least
        HIERARCHY_GROWTH times the top level's; else the prolongation is
        composed on from it.  Where it factored (``level`` None), the
        hierarchy restarts on the level as its coarsest: with the step's
        factor ``lu`` on continuous P1, where A = J, and on dG with the
        factor of A = E^T J E, built here.  Either way the solve's
        set-up is released.  Raises :class:`LinearSolveError` where
        SuperLU fails."""
        if level is None:
            self.drop()
            self.lu = (lu if self.embedding is None else
                       _factor(self.embedding[1] @ (jac @ self.embedding[0])))
            return
        top = self.levels[-1][0] if self.levels else self.lu
        if level[0].shape[0] >= HIERARCHY_GROWTH * top.shape[0]:
            self.levels.append(level + self.transfer)
            self.prolongation = None
        self.transfer = self.setup = None


def laplace_guess(space: Space, cfg: MethodConfig, g, f=None) -> Field:
    """Solution of the linear problem with the same boundary data and
    source: the scalar gradient matrix, factored once, against both
    components of the load vector."""
    matrix = gradient_matrix(space, cfg)
    coeffs = componentwise(lambda rhs: _factor_solve(matrix, rhs)[1],
                           load_vector(space, cfg, g, f))
    return Field(space, coeffs)


def director_guess(space: Space, epsilon: float, state: str) -> Field:
    """Initial iterate for the square device targeting one of the six
    states.  In the interior the order parameter is (cos 2a, sin 2a) with
    unit degree of order and director angle a: constant along a diagonal
    for D1/D2, rotating by pi across the square for R1-R4.  Within a
    boundary layer of width d = 3 epsilon the iterate is blended into the
    device's boundary data ``device_problem(epsilon).g``, continued from the
    nearest edge, so boundary nodes carry g exactly.  Raises
    :class:`ConfigError` where ``device_problem`` does (epsilon >= 1/6)."""
    if state not in DEVICE_STATES:
        raise ConfigError(f"unknown device state {state!r}; "
                          f"expected one of {DEVICE_STATES}")
    if space.mesh.shape is None or space.mesh.shape.kind != UNIT_SQUARE:
        raise ConfigError("director guess is defined on the unit-square device")
    g = device_problem(epsilon).g
    d = 3.0 * epsilon
    pts = space.node_coords
    x, y = pts[:, 0], pts[:, 1]
    if state == "D1":
        angle = np.full_like(x, np.pi / 4)
    elif state == "D2":
        angle = np.full_like(x, 3 * np.pi / 4)
    elif state == "R1":
        angle = np.pi * y
    elif state == "R2":
        angle = -np.pi * y
    elif state == "R3":
        angle = np.pi / 2 + np.pi * x
    else:
        angle = np.pi / 2 - np.pi * x
    director = np.stack([np.cos(2 * angle), np.sin(2 * angle)], axis=1)

    t = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))
    wgt = np.clip(t / d, 0.0, 1.0)[:, None]
    vals = wgt * director + (1.0 - wgt) * evaluate(g, pts, "boundary data g")
    return Field(space, join(vals))


def newton_solve(space: Space, cfg: MethodConfig, g, f, guess: Field,
                 ncfg: NewtonConfig = NewtonConfig(),
                 hierarchy: Optional[Hierarchy] = None):
    """Newton iteration from the given guess; returns (solution, report).

    From the second step on, the residual at the new iterate is read
    first: the solve has converged, and builds no Jacobian, when the
    predicted increment prev_inc * res / prev_res is at most ``ncfg.tol``
    or the residual is zero.  It has also converged after a step whose
    increment is at most ``ncfg.tol``.  ``report.iterations`` counts the
    steps taken, and a residual test that passes after the last budgeted
    step converges.

    With a ``hierarchy`` that holds a factor every step runs GMRES
    preconditioned by its V-cycle; otherwise, and from a step whose GMRES
    fails on, every step factors its own Jacobian (see the module
    docstring).  A first step on the V-cycle runs GMRES to
    KRYLOV_RTOL_CAP and keeps the residual at its iterate for the next
    stopping test.  Where its increment d times the Taylor remainder
    (rhs - J d) - new rhs, over the residual, is at most ``ncfg.tol``, so
    that the step would end the solve were it exact, GMRES goes on from d
    to the increment-share tolerance of d, and the residual is read again.
    A given ``hierarchy``, which has taken ``space``, is updated in place:
    dropped when V-cycle GMRES fails, and handed the last step taken by
    :meth:`Hierarchy.keep` when the solve converges.
    Raises :class:`NewtonError` with the partial history when the iteration
    budget is exhausted.
    """
    if guess.space is not space:
        raise ConfigError("initial guess does not live on the target space")
    system = NonlinearSystem(space, cfg, g, f)
    coeffs = guess.coeffs.copy()
    report = NewtonReport()
    prev_res = prev_inc = next_rhs = None
    for step in range(ncfg.max_iter + 1):
        rhs = -system.residual(coeffs) if next_rhs is None else next_rhs
        res = np.linalg.norm(rhs)
        if prev_res is not None and (
                res == 0 or prev_inc * res / prev_res <= ncfg.tol):
            break   # the predicted increment is at most tol: converged
        if step == ncfg.max_iter:
            raise NewtonError(
                f"Newton iteration did not reach tol={ncfg.tol} within "
                f"{ncfg.max_iter} steps (last increment "
                f"{report.increments[-1]:.3e})", report=report)
        # the last step's Jacobian, its level and its factor are released
        # before this step's Jacobian is built
        jac = level = lu = None
        jac = system.jacobian(coeffs)
        report.residuals.append(float(res))
        v_cycle = hierarchy is not None and hierarchy.lu is not None
        rtol = (_krylov_rtol(res, prev_res, prev_inc, ncfg.tol) if v_cycle
                else float("nan"))
        delta, krylov_its, inc, next_rhs = None, 0, None, None
        if v_cycle:
            cycle, level = hierarchy.preconditioner(jac, space)
            m_rhs = cycle(rhs)   # shared by a first step's two solves
            delta, krylov_its = _krylov_solve(jac, rhs, cycle, rtol, m_rhs)
            if delta is not None and step == 0:
                # the first step ran to the cap; where it would end the
                # solve were it exact, GMRES goes on to its increment's
                # tolerance, on the same J and cycle
                inc = discrete_norm(Field(space, delta), cfg.sigma)
                tight = _increment_rtol(inc, ncfg.tol)
                if tight < rtol:
                    next_rhs = -system.residual(coeffs + delta)
                    remainder = rhs - jac @ delta - next_rhs
                    if inc * np.linalg.norm(remainder) <= ncfg.tol * res:
                        rtol, inc, next_rhs = tight, None, None
                        delta, more = _krylov_solve(jac, rhs, cycle, rtol,
                                                    m_rhs, x0=delta)
                        krylov_its += more
            # the cycle holds the kept levels, which a drop releases
            cycle = m_rhs = None
            if delta is None:
                hierarchy.drop()
                level = None
        failed_its = 0
        if delta is None:
            lu, delta = _factor_solve(jac, rhs)
            failed_its, krylov_its = krylov_its, 0
            report.factorizations += 1
        report.krylov_iterations.append(krylov_its)
        report.failed_krylov_iterations.append(failed_its)
        report.krylov_rtols.append(rtol)
        coeffs = coeffs + delta
        if inc is None:
            inc = discrete_norm(Field(space, delta), cfg.sigma)
        prev_res, prev_inc = res, inc
        report.iterations += 1
        report.increments.append(inc)
        report.peak_rss_mb.append(_peak_rss_mb())
        if inc <= ncfg.tol:
            break
    report.converged = True
    if hierarchy is not None:
        hierarchy.keep(jac, lu, level)
    return Field(space, coeffs), report
