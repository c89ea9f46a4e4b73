"""One set-up in a fresh interpreter: import nematicfem from the checkout
and build the workload's problem and level-0 mesh, then print the wall
clock (time.time()).  run.py starts this several times and reads set-up
time as that clock minus the clock just before it started the process.

    python3 benchmark/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

import studies

if __name__ == "__main__":
    studies.setup(Path(__file__).resolve().parent.parent / "src", sys.argv[1])
    print(repr(time.time()))
