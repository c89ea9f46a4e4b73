"""Run acceptance criterion 4's device ladder for one state and print its
Newton steps per level, E(0.0027), wall time and peak resident set.

The ladder is criterion 4's configuration: the square device, Nitsche,
uniform refinement, 5 levels, epsilon = 0.02, 5 red refinements before
level 0 (h = 0.0442 down to 0.0027, 526,338 dofs on the last level).  One
state per process, so the peak resident set (``ru_maxrss``) is that
state's study alone:

    python3 tools/criterion4.py STATE      # STATE: D1, D2, R1, R2, R3, R4

The package is imported from ``src`` next to this script's directory.
"""

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nematicfem.bench import RunConfig, run_study   # noqa: E402
from nematicfem.solver import DEVICE_STATES          # noqa: E402


def main(argv):
    if len(argv) != 2 or argv[1] not in DEVICE_STATES:
        print(f"usage: {argv[0]} STATE, one of {', '.join(DEVICE_STATES)}",
              file=sys.stderr)
        return 2
    cfg = RunConfig(problem="device", method="nitsche", refine="uniform",
                    levels=5, epsilon=0.02, state=argv[1], initial_refine=5)
    start = time.perf_counter()
    records = run_study(cfg).records
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last = records[-1]
    print(f"state {argv[1]}: Newton steps per level "
          f"{[r.newton_iters for r in records]}, ndof {last.ndof:,}")
    print(f"E(0.0027) {last.energy:.10f}, h_max {last.h_max:.5f}")
    print(f"wall {wall:.1f} s, peak RSS {peak:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
