"""The level driver SOLVE -> ESTIMATE -> RECORD -> REFINE, and Doerfler
marking for its adaptive mode.

One driver runs every study: uniform studies pass red refinement, adaptive
ones Doerfler marking plus newest-vertex bisection.  Element indicators
combine the volume term with the full value of every adjacent edge term
(shared edges count toward both neighbours).  Marking selects a minimal
set under descending-indicator greedy accumulation; ties are broken by
triangle id.  Refinement is one newest-vertex bisection of each marked
triangle plus closure.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .estimator import EstimatorBreakdown, estimate
from .exceptions import ConfigError, NewtonError
from .fespace import (Field, Space, discrete_norm, energy_error_norm,
                      free_energy, l2_error_norm, l2_norm, prolong, space_kind)
from .forms import MethodConfig
from .mesh import Mesh, nvb_refine
from .problems import ProblemSpec
from .solver import NewtonConfig, director_guess, laplace_guess, newton_solve


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
    err_l2: float = np.nan
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
    edge_sq[breakdown.int_edge_ids] = breakdown.theta_int_edge ** 2
    edge_sq[breakdown.bd_edge_ids] = breakdown.theta_bd_edge ** 2
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
                 ncfg: NewtonConfig, refine, max_levels: int, state=None,
                 target_ndof: Optional[int] = None,
                 keep_solutions: bool = False, mesh_dump_dir=None):
    """Solve, estimate and record on ``mesh``, then on ``refine(mesh,
    breakdown)``, for at most ``max_levels`` levels or until a level reaches
    ``target_ndof``; returns a list of LevelRecord (and the solutions when
    requested).

    Newton starts from the prolonged previous solution, on level 0 from
    the director guess of ``state`` or else the Laplace guess.  Problems
    with an exact solution record its energy and L2 errors; the others
    record the norms of the difference to the prolonged previous solution.
    ``mesh_dump_dir`` writes one plain-text mesh dump per level.  Newton
    nonconvergence aborts with the completed level records attached to the
    raised :class:`NewtonError`.
    """
    kind = space_kind(cfg.method)
    records = []
    solutions = []
    previous = None
    for level in range(max_levels):
        if mesh_dump_dir is not None:
            out = Path(mesh_dump_dir)
            out.mkdir(parents=True, exist_ok=True)
            mesh.dump(out / f"level_{level:03d}.mesh.txt")
        space = Space(mesh, kind)
        if previous is not None:
            guess = prolong(previous, space)
        elif state is not None:
            guess = director_guess(space, problem.epsilon, state)
        else:
            guess = laplace_guess(space, cfg, problem.g, problem.f)
        try:
            # looked up as this module's global on every call: the benchmark
            # rebinds ``adapt.newton_solve`` to capture each level's solution
            field, report = newton_solve(space, cfg, problem.g, problem.f,
                                         guess, ncfg)
        except NewtonError as exc:
            exc.level_records = records
            raise

        breakdown = estimate(field, cfg, problem.g, problem.f)
        rec = LevelRecord(
            level=level, ndof=space.ndof, n_triangles=mesh.n_triangles,
            h_max=mesh.max_diameter(), energy=free_energy(field, cfg.epsilon),
            estimator=breakdown.total, newton_iters=report.iterations)
        if problem.has_exact:
            rec.err_energy = energy_error_norm(field, problem.exact_grad,
                                               problem.g, cfg.method, cfg.sigma)
            rec.err_l2 = l2_error_norm(field, problem.exact)
            rec.c_eff = rec.estimator / rec.err_energy
        elif previous is not None:
            diff = Field(space, field.coeffs - guess.coeffs)
            rec.err_energy = discrete_norm(diff, cfg.method, cfg.sigma)
            rec.err_l2 = l2_norm(diff)
        if records:
            prev = records[-1]
            ratio = np.log(rec.ndof / prev.ndof)
            if np.isfinite(prev.err_energy):
                rec.order_e = np.log(prev.err_energy / rec.err_energy) / ratio
            rec.order_est = np.log(prev.estimator / rec.estimator) / ratio
        records.append(rec)
        if keep_solutions:
            solutions.append(field)

        if level == max_levels - 1 or (target_ndof is not None
                                       and space.ndof >= target_ndof):
            break
        mesh = refine(mesh, breakdown)
        previous = field
    if keep_solutions:
        return records, solutions
    return records


def adaptive_loop(problem: ProblemSpec, initial_mesh: Mesh, cfg: MethodConfig,
                  ncfg: NewtonConfig, acfg: AdaptConfig, state=None,
                  keep_solutions: bool = False, mesh_dump_dir=None):
    """Run the adaptive cycle: :func:`solve_levels` with Doerfler marking
    and newest-vertex bisection."""
    def refine(mesh, breakdown):
        indicators = element_indicators(breakdown, mesh)
        return nvb_refine(mesh, dorfler_mark(indicators, acfg.dorfler_theta))

    return solve_levels(problem, initial_mesh, cfg, ncfg, refine,
                        acfg.max_levels, state=state,
                        target_ndof=acfg.target_ndof,
                        keep_solutions=keep_solutions,
                        mesh_dump_dir=mesh_dump_dir)
