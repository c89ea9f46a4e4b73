"""The three workloads: fixed studies from the paper, run through the
program's public entry points, timed and checked.

``setup`` imports ``nematicfem`` and builds the problem and the level-0
mesh; ``run_round`` runs one whole study and returns its timing, the
levels attempted and failed, and the correctness failures.
"""

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

DEVICE_LEVELS = 4
# five levels (to 36,864 dofs, ~3.5 s): a run holds several studies, and
# level 4 is where criterion 2 reads the dG rates
DG_LEVELS = 5
# the adaptive run stops at the first level >= 50k dofs (41 levels today);
# the level cap only bounds a run that never gets there
ADAPTIVE_MAX_LEVELS = 60

CLI_ARGV = {
    "device-d1-ladder": [
        "--problem", "device", "--method", "nitsche", "--refine", "uniform",
        "--state", "D1", "--epsilon", "0.02", "--sigma", "10",
        "--initial-refine", "5", "--levels", str(DEVICE_LEVELS)],
    "lshape-dg-uniform": [
        "--problem", "lshape", "--method", "dg", "--lambda", "1",
        "--refine", "uniform", "--epsilon", "0.4", "--sigma", "10",
        "--levels", str(DG_LEVELS)],
}
ADAPTIVE = "lshape-adaptive"
WORKLOADS = tuple(CLI_ARGV) + (ADAPTIVE,)


def import_program(src):
    """Import ``nematicfem`` from the checkout's ``src``; refuse any other
    copy, so the benchmark always measures the tree it sits in."""
    src = Path(src).resolve()
    if not (src / "nematicfem" / "__init__.py").is_file():
        raise ImportError(f"no nematicfem package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("nematicfem")
    if Path(pkg.__file__).resolve().parent.parent != src:
        raise ImportError(f"nematicfem imported from {pkg.__file__}, not {src}")
    for name in ("bench", "cli"):        # not imported by the package itself
        importlib.import_module(f"nematicfem.{name}")
    return pkg


@dataclass
class Setup:
    pkg: object
    cfg: object          # nematicfem.bench.RunConfig of the study
    problem: object
    mesh: object         # level-0 mesh


def setup(src, workload):
    """Import the program and build the workload's problem and level-0 mesh."""
    pkg = import_program(src)
    if workload == ADAPTIVE:
        cfg = pkg.bench.RunConfig(problem="lshape", method="nitsche",
                                  refine="adaptive", epsilon=0.4, sigma=10.0,
                                  theta=0.3, levels=ADAPTIVE_MAX_LEVELS)
    else:
        cli = pkg.cli
        cfg = cli.config_from_args(cli.build_parser().parse_args(CLI_ARGV[workload]))
    problem, mesh = pkg.bench.initial_mesh_for(cfg)
    return Setup(pkg, cfg, problem, mesh)


class LevelHook:
    """Counts the Newton solves that return and keeps the last solution;
    installed on ``newton_solve`` in every run, traced or not (one call per
    level)."""

    def __init__(self):
        self.solves = 0
        self.last = None

    @contextlib.contextmanager
    def installed(self, pkg):
        saved = [(m, m.newton_solve) for m in (pkg.bench, pkg.adapt)]

        def wrap(fn):
            def newton_solve(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.solves += 1
                self.last = result[0]
                return result
            return newton_solve
        try:
            for module, fn in saved:
                module.newton_solve = wrap(fn)
            yield self
        finally:
            for module, fn in saved:
                module.newton_solve = fn


@dataclass
class Round:
    wall_s: float
    attempted: int
    failed: int
    fails: list = field(default_factory=list)
    records: list = field(default_factory=list)     # rows of convergence.csv


def _study(st, workload, out):
    """Run the study; returns the convergence.csv path or None when the
    entry point reported a failure."""
    pkg = st.pkg
    if workload == ADAPTIVE:
        acfg = pkg.adapt.AdaptConfig(dorfler_theta=st.cfg.theta,
                                     max_levels=st.cfg.levels,
                                     target_ndof=checks.ADAPTIVE_STOP_NDOF)
        records = pkg.adapt.adaptive_loop(
            st.problem, st.mesh, st.cfg.method_config(),
            st.cfg.newton_config(), acfg)
        pkg.bench.emit_outputs(pkg.bench.ConvergenceTable("adaptive", records),
                               st.cfg, out)
        return out / "convergence.csv"
    with contextlib.redirect_stdout(sys.stderr):
        code = pkg.cli.main(CLI_ARGV[workload] + ["--out", str(out)])
    return out / "convergence.csv" if code == 0 else None


def run_round(st, workload, out, recorder=None):
    """One whole study.  With a recorder, the study is one ``bench.study``
    span whose children are the layer spans."""
    pkg = st.pkg
    errors = (pkg.exceptions.NewtonError, pkg.exceptions.LinearSolveError,
              pkg.exceptions.DataEvaluationError)
    out.mkdir(parents=True, exist_ok=True)
    (out / "convergence.csv").unlink(missing_ok=True)
    hook = LevelHook()
    csv = None
    error = None
    with hook.installed(pkg):
        span = (recorder.span("bench", "study") if recorder is not None
                else contextlib.nullcontext())
        start = time.perf_counter()
        with span:
            try:
                csv = _study(st, workload, out)
            except errors as exc:
                error = exc
        wall = time.perf_counter() - start

    if csv is None or error is not None:
        return Round(wall, *level_counts(workload, None, hook.solves),
                     [f"study failed after {hook.solves} Newton solves: {error}"])
    records = pkg.bench.load_table(csv).records
    return Round(wall, *level_counts(workload, records),
                 verify(workload, records, hook.last), records)


def level_counts(workload, records, solves=0):
    """(attempted, failed) levels of one study.  ``records`` are the rows of
    its convergence.csv, or None when the study stopped on an error after
    ``solves`` Newton solves had returned.  A level fails when it is
    missing or has a non-finite value; the adaptive study attempts as many
    levels as it emitted, plus the one it stopped in."""
    planned = {"device-d1-ladder": DEVICE_LEVELS,
               "lshape-dg-uniform": DG_LEVELS}.get(workload)
    if records is None:
        attempted = planned if planned is not None else solves + 1
        return attempted, max(1, attempted - solves)
    columns = (("err_energy", "estimator") if workload == ADAPTIVE
               else ("energy", "estimator"))
    attempted = planned if planned is not None else len(records)
    return attempted, attempted - checks.finite_levels(records, columns)


def verify(workload, records, final):
    """Correctness failures of one finished study."""
    if workload == ADAPTIVE:
        return checks.check_lshape_adaptive(records)
    if workload == "lshape-dg-uniform":
        return checks.check_lshape_dg(records, DG_LEVELS)
    fails = checks.check_device(records, DEVICE_LEVELS, initial_refine=5)
    if final is None:
        return fails + ["final device solution not captured"]
    return fails + checks.check_device_symmetry(final.space.mesh.vertices,
                                                final.coeffs)
