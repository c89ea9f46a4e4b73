"""The level driver SOLVE -> ESTIMATE -> RECORD -> REFINE, and Doerfler
marking for its adaptive mode.

One driver runs every study and owns both refinement modes: red
refinement when no Doerfler fraction is given, else Doerfler marking plus
newest-vertex bisection.  It also computes every rate.  Element indicators
combine the volume term with the full value of every adjacent edge term
(shared edges count toward both neighbours).  Marking selects a minimal
set under descending-indicator greedy accumulation; ties are broken by
triangle id.  Refinement is one newest-vertex bisection of each marked
triangle plus closure.
"""

import ctypes
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .estimator import EstimatorBreakdown, estimate
from .exceptions import ConfigError, NewtonError
from .fespace import (Field, Space, discrete_norm, energy_error_norm,
                      free_energy, l2_error_norm, l2_norm, prolong,
                      space_kind)
from .forms import MethodConfig
from .mesh import Mesh, nvb_refine, red_refine
from .problems import ProblemSpec
from .solver import (Hierarchy, NewtonConfig, director_guess, laplace_guess,
                     newton_solve)

# glibc's malloc_trim; None under other C libraries
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):
    _malloc_trim = None


def _release_free_heap():
    """Return the free pages of the C heap to the OS.  A kept factor lives
    across several levels, and the arrays allocated after it are freed
    around it; glibc keeps those holes resident, so without a trim the
    resident set of a process that runs several studies grows with each
    one, by up to 60 MB on the adaptive L-shape and by a different amount in
    every run."""
    if _malloc_trim is not None:
        _malloc_trim(0)


@dataclass(frozen=True)
class AdaptConfig:
    dorfler_theta: float = 0.3
    max_levels: int = 10
    target_ndof: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.dorfler_theta <= 1.0:
            raise ConfigError("Doerfler parameter must lie in (0, 1]")
        if self.max_levels < 1:
            raise ConfigError("max_levels must be at least 1")


@dataclass
class LevelRecord:
    """One row of a convergence study."""

    level: int
    ndof: int
    n_triangles: int
    h_max: float
    energy: float
    estimator: float
    err_energy: float = np.nan
    err_l2: float = np.nan         # uniform studies only
    order_energy: float = np.nan   # against h (uniform studies)
    order_l2: float = np.nan
    order_e: float = np.nan        # against Ndof
    order_est: float = np.nan
    c_eff: float = np.nan
    newton_iters: int = 0


def element_indicators(breakdown: EstimatorBreakdown, mesh: Mesh) -> np.ndarray:
    """Per-triangle indicator: volume term plus the full squared value of
    every adjacent edge term."""
    if len(breakdown.theta_tri) != mesh.n_triangles:
        raise ConfigError("estimator breakdown does not match the mesh")
    edge_sq = np.zeros(mesh.n_edges)
    edge_sq[mesh.interior_edges] = breakdown.theta_int_edge ** 2
    edge_sq[mesh.boundary_edges] = breakdown.theta_bd_edge ** 2
    return np.sqrt(breakdown.theta_tri ** 2 + edge_sq[mesh.tri_edges].sum(axis=1))


def _marked_sum(sq, order, k):
    """Squared-indicator mass of the first k greedy picks, summed in
    triangle-id order; the same convention the post-hoc checker uses."""
    return sq[np.sort(order[:k])].sum()


def dorfler_mark(indicators, theta: float) -> np.ndarray:
    """Minimal-cardinality greedy set whose squared indicators carry at
    least a theta fraction of the total; returns sorted triangle ids.

    Ties are broken by triangle id; elements with zero indicator are never
    marked.
    """
    indicators = np.asarray(indicators, dtype=float)
    if indicators.size == 0:
        raise ConfigError("cannot mark on an empty mesh")
    if not 0.0 < theta <= 1.0:
        raise ConfigError("Doerfler parameter must lie in (0, 1]")
    sq = indicators ** 2
    order = np.argsort(-sq, kind="stable")   # stable: ties by triangle id
    sorted_sq = sq[order]
    target = theta * sq.sum()
    n = len(sq)
    k = min(int(np.searchsorted(np.cumsum(sorted_sq), target)) + 1, n)
    while k > 0 and sorted_sq[k - 1] == 0.0:
        k -= 1
    # pin the threshold under the checker's summation order
    while k < n and sorted_sq[k] > 0.0 and _marked_sum(sq, order, k) < target:
        k += 1
    while k > 0 and _marked_sum(sq, order, k - 1) >= target:
        k -= 1
    return np.sort(order[:k])


def check_dorfler(indicators, marked, theta: float):
    """Post-hoc Doerfler verification: returns (holds, minimal) where
    ``holds`` means the marked set carries a theta fraction of the squared
    indicator mass and ``minimal`` means dropping the weakest marked
    element (largest id among ties) would break that."""
    indicators = np.asarray(indicators, dtype=float)
    marked = np.sort(np.asarray(list(marked), dtype=np.int64))
    sq = indicators ** 2
    target = theta * sq.sum()
    holds = sq[marked].sum() >= target
    if len(marked) == 0:
        return holds, True
    msq = sq[marked]
    weakest = marked[np.flatnonzero(msq == msq.min())[-1]]
    rest = marked[marked != weakest]
    minimal = sq[rest].sum() < target
    return holds, minimal


def solve_levels(problem: ProblemSpec, mesh: Mesh, cfg: MethodConfig,
                 ncfg: NewtonConfig, max_levels: int,
                 theta: Optional[float] = None, state=None,
                 target_ndof: Optional[int] = None, mesh_dump_dir=None):
    """Solve, estimate and record on ``mesh`` and on each refinement of it
    (red with ``theta`` None, else newest-vertex bisection of the Doerfler
    set of fraction ``theta``), for at most ``max_levels`` levels or until a
    level reaches ``target_ndof``; returns a list of LevelRecord.

    Newton starts from the prolonged previous solution, on level 0 from the
    director guess of ``state`` or else the Laplace guess; once that guess
    is built, nothing of the coarser level's space (its geometry, pattern
    and solution) is held during the solve.  The study keeps one multilevel
    hierarchy (:class:`Hierarchy`), created on level 0's space and refined
    to every finer level's space; each solve updates it, and the last level
    drops it.  Level 0 has no factor to cycle on, so each of its Newton
    steps factors its Jacobian, and its last step becomes the hierarchy's
    coarsest level, as does the last step of a level whose V-cycle GMRES
    fails and which factors from then on; every other level is solved by
    V-cycle GMRES on the hierarchy.  Problems with an exact solution record
    its energy error; the others record the mesh-dependent norm of the
    difference to the prolonged previous solution.  Uniform levels also
    record the L2 error (or the L2 norm of that difference) and the orders
    against h; adaptive levels carry NaN there.  Every level after the
    first records the orders against Ndof.
    ``mesh_dump_dir`` writes one plain-text mesh dump per level.  Newton
    nonconvergence aborts with the completed level records attached to the
    raised :class:`NewtonError`; a problem built for another epsilon than
    ``cfg.epsilon`` raises :class:`ConfigError`.
    """
    if problem.epsilon != cfg.epsilon:
        raise ConfigError(f"problem epsilon {problem.epsilon} != {cfg.epsilon}")
    kind = space_kind(cfg.method)
    uniform = theta is None
    records = []
    # the hierarchy is the only holder of its factor and levels, so a solve
    # can release them before a fallback factorization
    previous = hierarchy = None
    for level in range(max_levels):
        if mesh_dump_dir is not None:
            out = Path(mesh_dump_dir)
            out.mkdir(parents=True, exist_ok=True)
            mesh.dump(out / f"level_{level:03d}.mesh.txt")
        space = Space(mesh, kind)
        last = level == max_levels - 1 or (target_ndof is not None
                                           and space.ndof >= target_ndof)
        if previous is not None:
            guess = prolong(previous, space)
            # the coarser level's space, with its geometry and pattern, is
            # released before this level is solved and before the
            # hierarchy builds its transfers
            previous = None
            hierarchy.refine(space)
        else:
            hierarchy = Hierarchy(space)
            guess = (laplace_guess(space, cfg, problem.g, problem.f)
                     if state is None
                     else director_guess(space, problem.epsilon, state))
        try:
            # looked up as this module's global on every call: the benchmark
            # rebinds ``adapt.newton_solve`` to capture each level's solution
            field, report = newton_solve(space, cfg, problem.g, problem.f,
                                         guess, ncfg, hierarchy=hierarchy)
        except NewtonError as exc:
            exc.level_records = records
            raise
        if last:
            hierarchy = None
        _release_free_heap()

        breakdown = estimate(field, cfg, problem.g, problem.f)
        rec = LevelRecord(
            level=level, ndof=space.ndof, n_triangles=mesh.n_triangles,
            h_max=mesh.max_diameter(), energy=free_energy(field, cfg.epsilon),
            estimator=breakdown.total, newton_iters=report.iterations)
        if problem.has_exact:
            rec.err_energy = energy_error_norm(field, problem.exact_grad,
                                               problem.g, cfg.sigma)
            if uniform:
                rec.err_l2 = l2_error_norm(field, problem.exact)
            rec.c_eff = rec.estimator / rec.err_energy
        elif level > 0:
            diff = Field(space, field.coeffs - guess.coeffs)
            rec.err_energy = discrete_norm(diff, cfg.sigma)
            if uniform:
                rec.err_l2 = l2_norm(diff)
        if records:
            prev = records[-1]
            ratio = np.log(rec.ndof / prev.ndof)
            if np.isfinite(prev.err_energy):
                rec.order_e = np.log(prev.err_energy / rec.err_energy) / ratio
            rec.order_est = np.log(prev.estimator / rec.estimator) / ratio
            if uniform:   # an adaptive level's h_max can repeat
                hratio = np.log(rec.h_max / prev.h_max)
                if np.isfinite(rec.err_energy) and np.isfinite(prev.err_energy):
                    rec.order_energy = float(np.log(rec.err_energy / prev.err_energy) / hratio)
                if np.isfinite(rec.err_l2) and np.isfinite(prev.err_l2):
                    rec.order_l2 = float(np.log(rec.err_l2 / prev.err_l2) / hratio)
        records.append(rec)

        if last:
            break
        mesh = (red_refine(mesh) if uniform else nvb_refine(
            mesh, dorfler_mark(element_indicators(breakdown, mesh), theta)))
        # of what refers to this level's space, only the solution is kept
        previous, field, diff = field, None, None
    return records


def adaptive_loop(problem: ProblemSpec, initial_mesh: Mesh, cfg: MethodConfig,
                  ncfg: NewtonConfig, acfg: AdaptConfig, state=None,
                  mesh_dump_dir=None):
    """Run the adaptive cycle: :func:`solve_levels` with Doerfler marking
    and newest-vertex bisection."""
    return solve_levels(problem, initial_mesh, cfg, ncfg, acfg.max_levels,
                        theta=acfg.dorfler_theta,
                        target_ndof=acfg.target_ndof, state=state,
                        mesh_dump_dir=mesh_dump_dir)
