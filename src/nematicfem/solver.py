"""Newton iteration and initial guesses.

Each step solves the frozen-coefficient linear problem

    gradient part + quartic linearization at psi_k + linear bulk term
        applied to psi_{k+1}
    =  2 * cubic term at psi_k  +  load,

which is algebraically identical to the Newton update
psi_{k+1} = psi_k - J(psi_k)^{-1} residual(psi_k); the implementation uses
the increment form and stops when the discrete norm of the increment drops
below the tolerance.

A step solves its linear system in one of two ways.  Given the multilevel
hierarchy that a study on nested meshes keeps from its coarser levels
(:class:`Hierarchy`: the factor of the coarsest level, the kept levels
above it and the prolongation into the solve's auxiliary space), it runs
GMRES on the current Jacobian J preconditioned by a V-cycle and builds no
factor.  Without a hierarchy that holds a factor (a study's level 0, a
single solve, or the steps after a V-cycle GMRES failure) it factors J with
SuperLU and solves directly.

GMRES solves to no more accuracy than Newton can use.  The first step of a
solve runs to KRYLOV_RTOL_FLOOR; a later one to the squared residual ratio
of the last two steps (Eisenstat & Walker, SISC 17, 1996) or, where larger,
to the tolerance that leaves an error of INCREMENT_SHARE times the Newton
tolerance in the step's predicted increment (the last increment times the
residual ratio), so no step resolves an increment past what the stopping
test can see (Kelley, Iterative Methods for Linear and Nonlinear
Equations, SIAM 1995, 6.3); both clipped to [KRYLOV_RTOL_FLOOR,
KRYLOV_RTOL_CAP].  The update is still the Newton step, so the iterates
match a solve that factors at every step up to the GMRES tolerance.

The hierarchy always lives on continuous P1.  The auxiliary space of a
solve is continuous P1 on its mesh, reached by the scalar embedding E (the
identity on continuous P1), and its auxiliary operator is the Galerkin
product A = E^T J E.  A dG solve is thereby the auxiliary-space
preconditioner (Xu, Computing 56, 1996; Dobrev, Lazarov, Vassilevski &
Zikatanov, NLAA 13, 2006): a sweep on J, the restriction by E^T, the
continuous cycle on A, the prolongation by E and a second sweep.  The
cycle smooths down from J through A and the kept levels, restricting the
residual by P^T, solves with the kept factor, then prolongs the correction
and smooths back up; every smoothing is a damped block-Jacobi sweep
(damping SMOOTHER_OMEGA; one block per dG triangle or per continuous
vertex, both components, the vertex blocks inverted in closed form) and
every transfer is the scalar P or E on each component.  With no kept level
above the factor this is the two-grid cycle on A: a sweep, the coarse
correction P lu_c^{-1} P^T r and a second sweep.  The transfers are the
two-component lifts diag(P, P) and diag(P^T, P^T), built once per level
(those of E once per solve), so a transfer is one sparse product on the
flat coefficient vector.  Point Jacobi is too weak a smoother for dG;
element blocks follow Gopalakrishnan & Kanschat, Numer. Math. 95 (2003).
When GMRES does not converge within KRYLOV_CYCLES restart cycles, the step
drops the hierarchy and factors J, and so do the solve's later steps.  The
solve updates the hierarchy in place, and
:func:`nematicfem.adapt.solve_levels` keeps one per study.

Vectors are flat coefficients in the (u, v) layout that
:mod:`nematicfem.fespace` owns, read and built through its functions.

A step holds one Jacobian: the last step's J, and the smoothers, auxiliary
operator and factor built from it, are released before the next J is
assembled, so a step's memory is J, the system's set-up and its factor or
the hierarchy, plus the block-sized transients of the assembly
(see :mod:`nematicfem.forms`).  The report records the process's peak
resident set after every step.

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
from .fespace import (DG, Field, Space, auxiliary_space, block_diagonal,
                      componentwise, discrete_norm, embedding_matrix, gather,
                      join, vertex_block_matrix, vertex_blocks)
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
        if self.tol <= 0:
            raise ConfigError("Newton tolerance must be positive")
        if self.max_iter < 1:
            raise ConfigError("Newton iteration budget must be at least 1")


# GMRES settings of the V-cycle steps.  The cap keeps every step close
# enough to the exact Newton step that the step count and the solution match
# a factor-every-step solve (to 7e-15 relative at 132k dofs, with the
# increment share below).  A tolerance of 1e-12 sits at the rounding floor
# and stalls GMRES on large levels, hence the floor of 1e-10.  scipy can end
# a restart cycle on the preconditioned residual estimate and then fail its
# true-residual check, so one cycle is too few.
KRYLOV_RESTART = 20
KRYLOV_CYCLES = 3
KRYLOV_RTOL_FLOOR = 1e-10
KRYLOV_RTOL_CAP = 1e-4
# A step solves its increment only to the accuracy the Newton stopping test
# can see: GMRES stops once the error of the predicted increment is below
# this share of NewtonConfig.tol.
INCREMENT_SHARE = 0.1
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
    tolerance every step gave GMRES (NaN for a step that ran no GMRES).

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


def _krylov_solve(matrix, rhs, precond, rtol):
    """GMRES on matrix x = rhs, preconditioned by the map ``precond``.
    Returns (x, iterations); x is None when GMRES does not reach ``rtol``
    within KRYLOV_CYCLES restart cycles.  ``precond`` runs once per
    iteration and once per restart cycle."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    # From a zero start scipy applies M to rhs twice: for the norm of M rhs,
    # then to r = rhs for the first Arnoldi vector.  The second application
    # is answered from the first.
    calls, first = 0, None

    def apply(r):
        nonlocal calls, first
        calls += 1
        if calls == 2:
            (b, mb), first = first, None
            if np.array_equal(r, b):
                return mb
        out = precond(r)
        if calls == 1:
            first = (r, out)
        return out

    operator = spla.LinearOperator(matrix.shape, matvec=apply,
                                   dtype=matrix.dtype)
    out, info = spla.gmres(matrix, rhs, rtol=rtol, atol=0.0,
                           restart=KRYLOV_RESTART, maxiter=KRYLOV_CYCLES,
                           M=operator, callback=count, callback_type="pr_norm")
    if info != 0 or not np.all(np.isfinite(out)):
        return None, iterations
    return out, iterations


def _krylov_rtol(res, prev_res, prev_inc, tol):
    """GMRES tolerance of a Newton step that starts at residual ``res``: the
    floor on the first step (``prev_res`` None); later, the Eisenstat-Walker
    squared residual ratio, or, where larger, the tolerance that leaves an
    error of INCREMENT_SHARE * tol in the predicted increment
    prev_inc * res / prev_res; clipped to [KRYLOV_RTOL_FLOOR,
    KRYLOV_RTOL_CAP].  A zero predicted increment takes the cap."""
    if prev_res is None:
        return KRYLOV_RTOL_FLOOR
    predicted = prev_inc * res
    oversolve = (np.inf if predicted == 0
                 else INCREMENT_SHARE * tol * prev_res / predicted)
    return float(np.clip(max((res / prev_res) ** 2, oversolve),
                         KRYLOV_RTOL_FLOOR, KRYLOV_RTOL_CAP))


def _block_jacobi(matrix, space: Space) -> sp.csr_matrix:
    """Inverse of the block diagonal of ``matrix``: one block per dG
    triangle (its 3 scalar dofs) or per continuous vertex, each with both
    components.  A vertex block [[a, b], [c, d]] is inverted in closed form,
    [[d, -b], [-c, a]] / (a d - b c); the 6 x 6 triangle blocks by LAPACK."""
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
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, k).ravel()
    blocks = np.asarray(matrix[rows, cols]).reshape(nblocks, k, k)
    return sp.csr_matrix((np.linalg.inv(blocks).ravel(), (rows, cols)),
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
    V-cycle solves, all on continuous P1: ``lu``, the LU factor of the
    coarsest level's auxiliary operator (on dG ``operator``, that operator,
    until :meth:`refine` factors it); ``levels``, the kept levels above it,
    coarse to fine, as (auxiliary operator, damped block-Jacobi smoother,
    lifted prolongation from the level below, lifted restriction to it);
    ``prolongation``, the scalar prolongation from the top level to the
    auxiliary space being solved, composed over the levels between them,
    and ``transfer``, its lifts, which a joining level keeps, so each
    level's lifts are built once.

    The study calls :meth:`refine` when it moves to a finer level;
    :func:`newton_solve` calls :meth:`restart` when a solve's last step
    factored (level 0, or after a V-cycle GMRES failure), with that step's
    factor, :meth:`offer` when its last step ran the V-cycle and
    :meth:`drop` when V-cycle GMRES fails.  As the only holder of its
    factor and levels, the hierarchy releases them on a drop, before the
    step factors its Jacobian."""

    def __init__(self):
        self.drop()

    def drop(self):
        """Release the factor, the levels and the transfer."""
        self.lu = self.operator = self.prolongation = self.transfer = None
        self.levels = []

    def restart(self, lu=None, operator=None):
        """Restart on the level just solved as the coarsest level: with its
        LU factor ``lu`` on continuous P1, where the solve's own factor is
        that of its auxiliary operator; on dG with the auxiliary operator
        E^T J E itself (``operator``), which the next :meth:`refine`
        factors, so a study's last level builds no unused factor."""
        self.drop()
        self.lu, self.operator = lu, operator

    def offer(self, operator, smoother):
        """Offer the auxiliary operator and smoother of a V-cycle solve's
        last step: the level joins as the new top level, with the transfer
        built for it, when its ndof is at least HIERARCHY_GROWTH times the
        top level's; else the prolongation is composed on from it."""
        top = self.levels[-1][0] if self.levels else self.lu
        if operator.shape[0] >= HIERARCHY_GROWTH * top.shape[0]:
            self.levels.append((operator, smoother) + self.transfer)
            self.prolongation = None
        self.transfer = None

    def refine(self, step: sp.csr_matrix):
        """Move to the next finer level: ``step`` is the scalar continuous P1
        prolongation into its auxiliary space.  A pending auxiliary operator
        is factored first.  Raises :class:`LinearSolveError` where SuperLU
        fails."""
        if self.operator is not None:
            self.lu, self.operator = _factor(self.operator), None
        self.prolongation = (step if self.prolongation is None
                             else step @ self.prolongation)
        self.transfer = _lifts(self.prolongation)

    def cycle(self, own):
        """The V-cycle over a solve's own levels ``own`` and then the kept
        ones: from the finest level down, a sweep and the restriction of its
        residual; the factor's solve; from the coarsest level up, the
        prolonged correction and a second sweep.  ``own`` runs fine to
        coarse as (matrix, smoother, lifted prolongation from the next
        level, lifted restriction to it); its last level, on continuous P1,
        comes without transfers, which are ``transfer``."""
        down = own[:-1] + [own[-1] + self.transfer] + self.levels[::-1]
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

        return apply


def _auxiliary_operator(jac, embedding):
    """The Galerkin auxiliary operator E^T J E of a dG Jacobian on the
    continuous dofs, from the lifted embedding (E, E^T)."""
    prolongation, restriction = embedding
    return restriction @ (jac @ prolongation)


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
    vals = wgt * director + (1.0 - wgt) * g(pts)
    return Field(space, join(vals))


def newton_solve(space: Space, cfg: MethodConfig, g, f, guess: Field,
                 ncfg: NewtonConfig = NewtonConfig(),
                 hierarchy: Optional[Hierarchy] = None):
    """Newton iteration from the given guess; returns (solution, report).

    With a ``hierarchy`` that holds a factor every step runs V-cycle
    preconditioned GMRES, through the auxiliary space on dG; otherwise, and
    from a step whose GMRES fails on, every step factors its own Jacobian
    (see the module docstring).  A given ``hierarchy`` is updated in place
    from the solve: dropped when V-cycle GMRES fails, restarted on the last
    step's factor (on dG, on its auxiliary operator) when the solve ends on
    a factored step, else offered the last step's level.
    Raises :class:`NewtonError` with the partial history when the iteration
    budget is exhausted.
    """
    if guess.space is not space:
        raise ConfigError("initial guess does not live on the target space")
    system = NonlinearSystem(space, cfg, g, f)
    # a dG solve reaches the continuous hierarchy through the embedding
    # into its auxiliary space; E = I on continuous P1
    aux_space = auxiliary_space(space)
    embedding = (None if aux_space is space or hierarchy is None
                 else _lifts(embedding_matrix(space)))
    coeffs = guess.coeffs.copy()
    report = NewtonReport()
    prev_res, prev_inc = None, None
    for _ in range(ncfg.max_iter):
        # the last step's Jacobian, its smoothers and its factor are released
        # before this step's Jacobian is built
        jac = own = aux = smoother = lu = None
        jac = system.jacobian(coeffs)
        rhs = -system.residual(coeffs)
        res = np.linalg.norm(rhs)
        report.residuals.append(float(res))
        v_cycle = hierarchy is not None and hierarchy.lu is not None
        rtol = (_krylov_rtol(res, prev_res, prev_inc, ncfg.tol) if v_cycle
                else float("nan"))
        report.krylov_rtols.append(rtol)
        delta, krylov_its = None, 0
        if v_cycle:
            own, aux = [], jac
            if embedding is not None:
                own.append((jac, SMOOTHER_OMEGA * _block_jacobi(jac, space))
                           + embedding)
                aux = _auxiliary_operator(jac, embedding)
            smoother = SMOOTHER_OMEGA * _block_jacobi(aux, aux_space)
            own.append((aux, smoother))
            delta, krylov_its = _krylov_solve(jac, rhs, hierarchy.cycle(own),
                                              rtol)
            if delta is None:
                hierarchy.drop()
                own = aux = smoother = None
        failed_its = 0
        if delta is None:
            lu, delta = _factor_solve(jac, rhs)
            failed_its, krylov_its = krylov_its, 0
            report.factorizations += 1
        report.krylov_iterations.append(krylov_its)
        report.failed_krylov_iterations.append(failed_its)
        coeffs = coeffs + delta
        inc = discrete_norm(Field(space, delta), cfg.method, cfg.sigma)
        prev_res, prev_inc = res, inc
        report.iterations += 1
        report.increments.append(inc)
        report.peak_rss_mb.append(_peak_rss_mb())
        if inc <= ncfg.tol:
            report.converged = True
            if smoother is not None:   # the last step ran the V-cycle
                hierarchy.offer(aux, smoother)
            elif embedding is not None:   # a dG solve that ended on a factor
                hierarchy.restart(operator=_auxiliary_operator(jac, embedding))
            elif hierarchy is not None:   # ended on a factor of its A = J
                hierarchy.restart(lu=lu)
            return Field(space, coeffs), report
    raise NewtonError(
        f"Newton iteration did not reach tol={ncfg.tol} within "
        f"{ncfg.max_iter} steps (last increment "
        f"{report.increments[-1] if report.increments else np.inf:.3e})",
        report=report)
