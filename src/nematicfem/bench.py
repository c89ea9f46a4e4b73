"""Convergence-study harness and output emission.

Both modes run the level driver :func:`nematicfem.adapt.solve_levels`,
which owns red refinement, Doerfler marking with newest-vertex bisection
and every rate.  For manufactured problems the driver records the energy
error against the exact solution; for the device it records the discrete
energy and the mesh-dependent norm of the difference between
successive-level solutions (computed on the finer mesh via exact
prolongation), which is what the successive-difference orders are fitted
to.  Uniform studies add the L2 error (or L2 norm of the difference) and
the orders against h; adaptive records carry NaN there, and the adaptive
schema has no L2 column.

Outputs: ``convergence.csv`` (full-precision, byte-reproducible),
``meta.json`` (every knob that affects numbers) and a self-contained
matplotlib script plotting the log-log convergence history.
"""

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .adapt import AdaptConfig, LevelRecord, solve_levels
from .exceptions import ConfigError
from .forms import MethodConfig
from .mesh import build_initial_mesh, red_refine
from .problems import make_problem
# newton_solve stays importable here: the benchmark's per-level hook
# rebinds it in this module and in ``adapt``, whose driver makes the call
from .solver import NewtonConfig, newton_solve

# red refinements applied to the coarse shape mesh before level 0; the
# L-shape default puts level 0 at 42 dofs and the device default at
# h = sqrt(2)/64, the coarsest rows of the benchmark tables
DEFAULT_INITIAL_REFINE = {"lshape": 1, "slit": 1, "device": 6}
# convergence.csv schema of each mode: column name -> LevelRecord attribute
UNIFORM_COLUMNS = {"level": "level", "h": "h_max", "ndof": "ndof",
                   "err_energy": "err_energy", "err_l2": "err_l2",
                   "order_energy": "order_energy", "order_l2": "order_l2",
                   "estimator": "estimator", "energy": "energy"}
ADAPTIVE_COLUMNS = {"level": "level", "ndof": "ndof",
                    "err_energy": "err_energy", "estimator": "estimator",
                    "order_e": "order_e", "order_est": "order_est",
                    "c_eff": "c_eff", "newton_iters": "newton_iters"}


@dataclass(frozen=True)
class RunConfig:
    """Fully deterministic description of one study."""

    problem: str
    method: str = "nitsche"
    refine: str = "uniform"
    levels: int = 4
    epsilon: float = 0.4
    sigma: float = 10.0
    lam: float = 1.0
    newton_tol: float = 1e-8
    newton_max_iter: int = 50
    theta: float = 0.3
    state: Optional[str] = None
    initial_refine: Optional[int] = None
    out: Optional[str] = None
    dump_meshes: bool = False

    def __post_init__(self):
        if self.refine not in ("uniform", "adaptive"):
            raise ConfigError(f"unknown refinement mode {self.refine!r}")
        if self.levels < 1:
            raise ConfigError("levels must be at least 1")
        if self.initial_refine is not None and self.initial_refine < 0:
            raise ConfigError("initial_refine must not be negative")

    def method_config(self) -> MethodConfig:
        return MethodConfig(method=self.method, epsilon=self.epsilon,
                            sigma=self.sigma, lam=self.lam)

    def newton_config(self) -> NewtonConfig:
        return NewtonConfig(tol=self.newton_tol, max_iter=self.newton_max_iter)

    def pre_refine(self) -> int:
        if self.initial_refine is not None:
            return self.initial_refine
        return DEFAULT_INITIAL_REFINE[self.problem]


@dataclass
class ConvergenceTable:
    mode: str
    records: list

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records], dtype=float)


def initial_mesh_for(cfg: RunConfig):
    problem = make_problem(cfg.problem, cfg.epsilon)
    mesh = build_initial_mesh(problem.shape)
    for _ in range(cfg.pre_refine()):
        mesh = red_refine(mesh)
    return problem, mesh


def _mesh_dump_dir(cfg: RunConfig):
    return Path(cfg.out or ".") / "meshes" if cfg.dump_meshes else None


def run_study(cfg: RunConfig) -> ConvergenceTable:
    """Run the study ``cfg`` describes: red refinement in uniform mode,
    Doerfler marking and newest-vertex bisection in adaptive mode."""
    problem, mesh = initial_mesh_for(cfg)
    theta = None
    if cfg.refine == "adaptive":
        # rejects a fraction outside (0, 1] before level 0 is solved
        theta = AdaptConfig(dorfler_theta=cfg.theta).dorfler_theta
    records = solve_levels(problem, mesh, cfg.method_config(),
                           cfg.newton_config(), cfg.levels, theta=theta,
                           state=cfg.state, mesh_dump_dir=_mesh_dump_dir(cfg))
    return ConvergenceTable(cfg.refine, records)


# -- emission -------------------------------------------------------------------


def _format(value):
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if np.isnan(value):
            return ""
        return repr(value)
    return str(value)


def emit_outputs(table: ConvergenceTable, cfg: RunConfig, out_dir=None):
    """Write convergence.csv, meta.json and plot_convergence.py; returns the
    output directory."""
    out = Path(out_dir if out_dir is not None else (cfg.out or "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
        columns = UNIFORM_COLUMNS if table.mode == "uniform" else ADAPTIVE_COLUMNS
        csv_path = out / "convergence.csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rec in table.records:
                writer.writerow([_format(getattr(rec, attr))
                                 for attr in columns.values()])

        meta = {name: getattr(cfg, name) for name in
                (f.name for f in fields(RunConfig))}
        meta["initial_refine_effective"] = cfg.pre_refine()
        meta["warm_start"] = ("prolongation" if table.mode == "uniform"
                              else "nvb-prolongation")
        meta["newton_stopping"] = "discrete norm of increment"
        meta["newton_iterations_per_level"] = [int(r.newton_iters)
                                               for r in table.records]
        meta["version"] = __version__
        with open(out / "meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")

        with open(out / "plot_convergence.py", "w", encoding="utf-8") as fh:
            fh.write(_plot_script(table.mode))
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    return out


def load_table(path) -> ConvergenceTable:
    """Reconstruct a ConvergenceTable from an emitted convergence.csv."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    for mode, columns in (("uniform", UNIFORM_COLUMNS),
                          ("adaptive", ADAPTIVE_COLUMNS)):
        if header == list(columns):
            break
    else:
        raise ValueError(f"unrecognized CSV header {header}")
    types = {f.name: f.type for f in fields(LevelRecord)}
    records = []
    for row in rows:
        # columns a mode does not write: no triangle count, NaN floats
        rec = LevelRecord(level=0, ndof=0, n_triangles=0, h_max=np.nan,
                          energy=np.nan, estimator=np.nan)
        for attr, text in zip(columns.values(), row):
            setattr(rec, attr, types[attr](text) if text else np.nan)
        records.append(rec)
    return ConvergenceTable(mode, records)


def _plot_script(mode: str) -> str:
    xcol, xlabel = ("h", "h") if mode == "uniform" else ("ndof", "Ndof")
    l2_lines = ""
    if mode == "uniform":
        l2_lines = ('if col("err_l2"):\n'
                    '    ax.loglog(x[-len(col("err_l2")):], col("err_l2"), '
                    '"s-", label="L2 error")\n')
    invert = "ax.invert_xaxis()\n" if mode == "uniform" else ""
    return f'''"""Log-log convergence plot for the run in this directory."""

import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).parent / "convergence.csv")))


def col(name):
    return [float(r[name]) for r in rows if r[name]]


x = col("{xcol}")
fig, ax = plt.subplots(figsize=(6, 4.5))
if col("err_energy"):
    ax.loglog(x[-len(col("err_energy")):], col("err_energy"), "o-",
              label="energy-norm error")
{l2_lines}ax.loglog(x[-len(col("estimator")):], col("estimator"), "d--", label="estimator")
ax.set_xlabel("{xlabel}")
ax.set_ylabel("error / estimator")
{invert}ax.grid(True, which="both", alpha=0.3)
ax.legend()
fig.tight_layout()
fig.savefig(Path(__file__).parent / "convergence.png", dpi=150)
print("wrote", Path(__file__).parent / "convergence.png")
'''
