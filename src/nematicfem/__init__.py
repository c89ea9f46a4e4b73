"""Finite elements for the two-component Ginzburg-Landau system.

P1 discretizations with weakly imposed Dirichlet data (Nitsche and
symmetric/nonsymmetric interior-penalty dG), Newton's method, residual
a posteriori error estimators and adaptive newest-vertex-bisection
refinement, plus a benchmark harness for the L-shape, slit and square
liquid-crystal-device problems.
"""

__version__ = "0.1.0"

from .adapt import AdaptConfig, LevelRecord, adaptive_loop, dorfler_mark, element_indicators
from .estimator import EstimatorBreakdown, estimate, estimate_dg, estimate_nitsche
from .fespace import (Field, Space, discrete_norm, energy_error_norm,
                      free_energy, interpolate, l2_error_norm, l2_norm,
                      prolong)
from .forms import MethodConfig, residual_vector
from .mesh import DomainShape, Mesh, build_initial_mesh, nvb_refine, red_refine
from .problems import ProblemSpec, device_problem, lshape_problem, make_problem, slit_problem
from .solver import (NewtonConfig, NewtonReport, director_guess,
                     laplace_guess, newton_solve)

__all__ = [
    "AdaptConfig", "LevelRecord", "adaptive_loop", "dorfler_mark",
    "element_indicators", "EstimatorBreakdown", "estimate", "estimate_dg",
    "estimate_nitsche", "Field", "Space", "discrete_norm",
    "energy_error_norm", "free_energy", "interpolate", "l2_error_norm",
    "l2_norm", "prolong", "MethodConfig", "residual_vector",
    "DomainShape", "Mesh", "build_initial_mesh",
    "nvb_refine", "red_refine", "ProblemSpec", "device_problem",
    "lshape_problem", "make_problem", "slit_problem", "NewtonConfig",
    "NewtonReport", "director_guess", "laplace_guess", "newton_solve",
]
