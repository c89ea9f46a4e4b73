"""Command-line entry point for convergence studies."""

import argparse
import sys

from .bench import RunConfig, emit_outputs, run_study
from .exceptions import ConfigError, LinearSolveError, NewtonError
from .solver import DEVICE_STATES


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nematicfem",
        description="Convergence studies for the two-component "
                    "Ginzburg-Landau / reduced Landau-de Gennes system")
    p.add_argument("--problem", required=True,
                   choices=["lshape", "slit", "device"])
    p.add_argument("--method", default="nitsche", choices=["nitsche", "dg"])
    p.add_argument("--refine", default="uniform",
                   choices=["uniform", "adaptive"])
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=0.4)
    p.add_argument("--sigma", type=float, default=10.0,
                   help="penalty parameter (default 10)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="dG symmetrization weight in [-1, 1] (dG only)")
    p.add_argument("--newton-tol", type=float, default=None,
                   help="Newton increment tolerance (default 1e-8; "
                        "1e-6 for adaptive device runs)")
    p.add_argument("--theta", type=float, default=0.3,
                   help="Doerfler marking fraction")
    p.add_argument("--state", default=None, choices=list(DEVICE_STATES),
                   help="target device state (device problem only)")
    p.add_argument("--initial-refine", type=int, default=None,
                   help="red refinements before level 0 "
                        "(default: 1 for lshape/slit, 6 for device)")
    p.add_argument("--dump-meshes", action="store_true",
                   help="write per-level mesh dumps to OUT/meshes")
    p.add_argument("--out", default=".", help="output directory")
    return p


def config_from_args(args) -> RunConfig:
    tol = args.newton_tol
    if tol is None:
        tol = 1e-6 if (args.problem == "device" and args.refine == "adaptive") else 1e-8
    state = args.state
    if args.problem == "device" and state is None:
        state = "D1"
    if args.problem != "device" and state is not None:
        raise ConfigError("--state applies to the device problem only")
    return RunConfig(problem=args.problem, method=args.method,
                     refine=args.refine, levels=args.levels,
                     epsilon=args.epsilon, sigma=args.sigma, lam=args.lam,
                     newton_tol=tol, theta=args.theta, state=state,
                     initial_refine=args.initial_refine, out=args.out,
                     dump_meshes=args.dump_meshes)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        table = run_study(cfg)
        out = emit_outputs(table, cfg)
    except (ConfigError, NewtonError, LinearSolveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = table.records[-1]
    print(f"{cfg.problem} {cfg.method} {cfg.refine}: {len(table.records)} "
          f"levels, final ndof {last.ndof}, energy {last.energy:.7f}, "
          f"estimator {last.estimator:.5f}")
    if table.records and table.mode == "uniform" and last.order_energy == last.order_energy:
        print(f"final h-orders: energy {last.order_energy:.4f}, "
              f"L2 {last.order_l2:.4f}")
    print(f"outputs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
