"""Self-tests of the benchmark: each correctness check passes on a good
study and fails on a broken one, and failed levels are counted.

    python3 benchmark/selftest.py          # about 6 s, ~0.2 GB peak
    python3 -m pytest benchmark/selftest.py

The names do not match ``test_*.py``, so the repository's own test suite
does not collect this file.
"""

import math
import sys
from pathlib import Path

import numpy as np

import checks
import studies

PKG = studies.import_program(Path(__file__).resolve().parent.parent / "src")
LevelRecord = PKG.adapt.LevelRecord


def device_records(energy=78.0135, l2_order=1.78):
    """A D1 ladder table with the paper's energy and smooth-solution orders."""
    recs = []
    for k in range(4):
        n = 2 ** (5 + k)
        recs.append(LevelRecord(level=k, ndof=2 * (n + 1) ** 2, n_triangles=2 * n * n,
                                h_max=math.sqrt(2) / n, energy=energy + 0.1 / n,
                                estimator=1.0 / n, order_l2=l2_order if k else math.nan))
    return recs


def adaptive_records(order=0.5, ceff=1.4, ceff_jitter=0.0, last_ndof=55370):
    ndof = np.unique(np.geomspace(42, last_ndof, 41).round().astype(int))
    recs = []
    for k, n in enumerate(ndof):
        err = 1.0 * (n / 1000.0) ** -order * 0.05
        c = ceff * (1 + ceff_jitter * (-1) ** k)
        recs.append(LevelRecord(level=k, ndof=int(n), n_triangles=0, h_max=math.nan,
                                energy=math.nan, estimator=c * err,
                                err_energy=err, c_eff=c))
    return recs


def test_device_check_passes_paper_table():
    assert checks.check_device(device_records()) == []


def test_device_energy_shifted_one_percent_fails():
    fails = checks.check_device(device_records(energy=78.0135 * 1.01))
    assert any("energy" in f for f in fails), fails


def test_device_l2_order_outside_band_fails():
    assert checks.check_device(device_records(l2_order=1.5))


def test_device_wrong_mesh_fails():
    recs = device_records()
    recs[3].h_max *= 2
    recs[2].ndof += 2
    fails = checks.check_device(recs)
    assert any("h " in f for f in fails) and any("ndof" in f for f in fails), fails


def test_device_symmetry():
    """A coarse D1 solve is symmetric; one perturbed coefficient is not."""
    cfg = PKG.bench.RunConfig(problem="device", state="D1", epsilon=0.02,
                              initial_refine=5, levels=1)
    problem, mesh = PKG.bench.initial_mesh_for(cfg)
    space = PKG.Space.continuous(mesh)
    guess = PKG.director_guess(space, 0.02, "D1")
    field, _ = PKG.newton_solve(space, cfg.method_config(), problem.g,
                                problem.f, guess, cfg.newton_config())
    assert checks.check_device_symmetry(mesh.vertices, field.coeffs) == []
    broken = field.coeffs.copy()
    broken[len(broken) // 3] += 1e-6
    assert checks.check_device_symmetry(mesh.vertices, broken)
    r1 = PKG.director_guess(space, 0.02, "R1")
    assert checks.check_device_symmetry(mesh.vertices, r1.coeffs)


def test_nonsymmetric_dg_fails_l2_band():
    """lambda = -1 loses the duality gain: L2 order ~1.07 < 1.10."""
    cfg = PKG.bench.RunConfig(problem="lshape", method="dg", refine="uniform",
                              levels=studies.DG_LEVELS, epsilon=0.4, sigma=10.0,
                              lam=-1.0)
    records = PKG.bench.run_study(cfg).records
    fails = checks.check_lshape_dg(records, studies.DG_LEVELS)
    assert any("L2 order" in f for f in fails), (fails, records[-1].order_l2)


def test_adaptive_check_passes_optimal_run():
    assert checks.check_lshape_adaptive(adaptive_records()) == []


def test_adaptive_suboptimal_order_fails():
    assert checks.check_lshape_adaptive(adaptive_records(order=0.35))


def test_adaptive_unsteady_ceff_fails():
    fails = checks.check_lshape_adaptive(adaptive_records(ceff_jitter=0.15))
    assert any("c_eff" in f for f in fails), fails


def test_adaptive_stopping_short_fails():
    assert checks.check_lshape_adaptive(adaptive_records(last_ndof=45000))


def test_missing_level_counts_as_failed():
    recs = device_records()
    assert studies.level_counts("device-d1-ladder", recs) == (4, 0)
    assert studies.level_counts("device-d1-ladder", recs[:3]) == (4, 1)
    assert checks.check_device(recs[:3])
    recs[2].energy = math.nan
    assert studies.level_counts("device-d1-ladder", recs) == (4, 2)


def test_stopped_study_counts_as_failed():
    assert studies.level_counts("lshape-dg-uniform", None, solves=4) == (5, 1)
    assert studies.level_counts("device-d1-ladder", None, solves=4) == (4, 1)
    assert studies.level_counts(studies.ADAPTIVE, None, solves=10) == (11, 1)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
