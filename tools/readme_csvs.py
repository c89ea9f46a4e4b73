"""Run the README's CLI examples and the benchmark's CLI studies, each into
its own directory, so two trees' outputs can be compared file by file.

The studies are the four README CLI examples and the two CLI studies of
``benchmark/studies.py`` (``CLI_ARGV``), with the same arguments; the
output of each goes to ``OUT/<name>`` (``convergence.csv``, ``meta.json``,
``plot_convergence.py``):

    python3 tools/readme_csvs.py OUT     # e.g. out/readme (git ignores out/)

Run from each tree's root with the same relative OUT, so the ``out``
entries of the two trees' ``meta.json`` files agree, and compare with
``diff -r A/OUT B/OUT``.  The package is imported from ``src`` next to
this script's directory, so a copy of this script in another checkout
runs that checkout's program.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nematicfem.cli import main as cli_main   # noqa: E402

STUDIES = {
    # the README's CLI examples
    "lshape-uniform": [
        "--problem", "lshape", "--method", "nitsche", "--refine", "uniform",
        "--levels", "5", "--epsilon", "0.4"],
    "lshape-adaptive": [
        "--problem", "lshape", "--refine", "adaptive", "--levels", "40",
        "--epsilon", "0.4", "--theta", "0.3"],
    "device-r1": [
        "--problem", "device", "--state", "R1", "--epsilon", "0.02",
        "--levels", "4", "--initial-refine", "5"],
    "slit-dg": [
        "--problem", "slit", "--method", "dg", "--refine", "adaptive",
        "--epsilon", "1.0", "--levels", "25"],
    # the benchmark's CLI studies (benchmark/studies.py, CLI_ARGV)
    "device-d1-ladder": [
        "--problem", "device", "--method", "nitsche", "--refine", "uniform",
        "--state", "D1", "--epsilon", "0.02", "--sigma", "10",
        "--initial-refine", "5", "--levels", "4"],
    "lshape-dg-uniform": [
        "--problem", "lshape", "--method", "dg", "--lambda", "1",
        "--refine", "uniform", "--epsilon", "0.4", "--sigma", "10",
        "--levels", "5"],
}


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} OUT", file=sys.stderr)
        return 2
    out = Path(argv[1])
    for name, args in STUDIES.items():
        start = time.perf_counter()
        code = cli_main(args + ["--out", str(out / name)])
        print(f"{name}: exit {code}, {time.perf_counter() - start:.1f} s")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
