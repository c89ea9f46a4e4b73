"""Refactor oracle: five small studies reproduce their checked-in
``convergence.csv`` files.

Header, row count, empty cells and integer cells must match exactly;
float cells to a relative 1e-12.  A change that moves a digit beyond that
either fixes a bug, and regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

explaining every changed column, or is itself the bug.
"""

import csv
from pathlib import Path

import pytest

from nematicfem.bench import RunConfig, emit_outputs, run_study

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

STUDIES = {
    "lshape_uniform": RunConfig(problem="lshape", method="nitsche",
                                refine="uniform", levels=3, epsilon=0.4),
    "lshape_adaptive": RunConfig(problem="lshape", method="nitsche",
                                 refine="adaptive", levels=6, epsilon=0.4),
    "device_d1_uniform": RunConfig(problem="device", method="nitsche",
                                   refine="uniform", levels=2, epsilon=0.1,
                                   state="D1", initial_refine=3),
    "slit_dg_adaptive": RunConfig(problem="slit", method="dg",
                                  refine="adaptive", levels=4, epsilon=1.0),
    "lshape_dg_uniform": RunConfig(problem="lshape", method="dg",
                                   refine="uniform", levels=3, epsilon=0.4),
}


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _is_int(cell):
    return cell.lstrip("-").isdigit()


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_convergence_csv_matches_golden(name, tmp_path):
    cfg = STUDIES[name]
    out = emit_outputs(run_study(cfg), cfg, tmp_path)
    got = _rows(out / "convergence.csv")
    want = _rows(GOLDEN_DIR / f"{name}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(grow) == len(wrow)
        for col, g, w in zip(want[0], grow, wrow):
            where = f"row {i}, column {col}: {g!r} != {w!r}"
            if w == "" or _is_int(w):
                assert g == w, where
            else:
                assert g != "" and float(g) == pytest.approx(float(w), rel=1e-12), where


if __name__ == "__main__":
    import shutil
    import tempfile
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, cfg in STUDIES.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = emit_outputs(run_study(cfg), cfg, tmp)
            shutil.copyfile(out / "convergence.csv", GOLDEN_DIR / f"{name}.csv")
        print("wrote", GOLDEN_DIR / f"{name}.csv")
