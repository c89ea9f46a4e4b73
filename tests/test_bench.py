"""Study harness: CSV schema, determinism, round trips, CLI."""

import importlib.util
import json
import warnings
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

import nematicfem
from nematicfem.bench import (ADAPTIVE_COLUMNS, UNIFORM_COLUMNS, ConvergenceTable,
                              RunConfig, emit_outputs, initial_mesh_for,
                              load_table, run_study)
from nematicfem import adapt, bench
from nematicfem.cli import main
from nematicfem.exceptions import ConfigError, NewtonError
from nematicfem.forms import NonlinearSystem


@pytest.fixture(scope="module")
def small_uniform_table():
    cfg = RunConfig(problem="lshape", method="nitsche", refine="uniform",
                    levels=3, epsilon=0.4)
    return cfg, run_study(cfg)


@pytest.fixture(scope="module")
def small_adaptive_table():
    cfg = RunConfig(problem="lshape", method="nitsche", refine="adaptive",
                    levels=6, epsilon=0.4)
    return cfg, run_study(cfg)


def test_uniform_csv_schema(small_uniform_table, tmp_path):
    cfg, table = small_uniform_table
    out = emit_outputs(table, cfg, tmp_path)
    header = (out / "convergence.csv").read_text().splitlines()[0]
    assert header == ",".join(UNIFORM_COLUMNS)


def test_adaptive_csv_schema(small_adaptive_table, tmp_path):
    cfg, table = small_adaptive_table
    out = emit_outputs(table, cfg, tmp_path)
    header = (out / "convergence.csv").read_text().splitlines()[0]
    assert header == ",".join(ADAPTIVE_COLUMNS)
    assert (out / "plot_convergence.py").exists()


def test_rerun_is_byte_identical(small_uniform_table, tmp_path):
    cfg, _ = small_uniform_table
    a = emit_outputs(run_study(cfg), cfg, tmp_path / "a")
    b = emit_outputs(run_study(cfg), cfg, tmp_path / "b")
    assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()
    assert (a / "meta.json").read_bytes() == (b / "meta.json").read_bytes()


def test_csv_roundtrip(small_uniform_table, small_adaptive_table, tmp_path):
    """Every emitted column reads back to the value it was written from."""
    for (cfg, table), columns in ((small_uniform_table, UNIFORM_COLUMNS),
                                  (small_adaptive_table, ADAPTIVE_COLUMNS)):
        out = emit_outputs(table, cfg, tmp_path / table.mode)
        back = load_table(out / "convergence.csv")
        assert back.mode == table.mode
        assert len(back.records) == len(table.records)
        for orig, rec in zip(table.records, back.records):
            for attr in columns.values():
                expect, got = getattr(orig, attr), getattr(rec, attr)
                assert got == expect or (np.isnan(got) and np.isnan(expect))
                assert isinstance(got, int) == isinstance(expect, int)


def test_rate_arithmetic_recomputable(small_uniform_table, tmp_path):
    """Recomputing the order columns from the error columns reproduces the
    emitted orders."""
    cfg, table = small_uniform_table
    out = emit_outputs(table, cfg, tmp_path)
    back = load_table(out / "convergence.csv")
    h = back.column("h_max")
    for col, order_col in (("err_energy", "order_energy"), ("err_l2", "order_l2")):
        vals = back.column(col)
        orders = back.column(order_col)
        for i in range(1, len(vals)):
            expect = np.log(vals[i] / vals[i - 1]) / np.log(h[i] / h[i - 1])
            assert orders[i] == pytest.approx(expect, abs=1e-9)


def test_adaptive_order_columns(small_adaptive_table):
    _, table = small_adaptive_table
    for prev, rec in zip(table.records, table.records[1:]):
        expect = (np.log(prev.err_energy / rec.err_energy)
                  / np.log(rec.ndof / prev.ndof))
        assert rec.order_e == pytest.approx(expect, abs=1e-9)
    for rec in table.records:
        assert rec.c_eff == pytest.approx(rec.estimator / rec.err_energy, rel=1e-12)
        assert rec.newton_iters >= 1


def test_meta_covers_every_knob(small_uniform_table, tmp_path):
    cfg, table = small_uniform_table
    out = emit_outputs(table, cfg, tmp_path)
    meta = json.loads((out / "meta.json").read_text())
    for f in fields(RunConfig):
        assert f.name in meta
    assert meta["version"]
    assert meta["warm_start"]
    assert "residual" in meta["newton_stopping"]
    assert meta["lam"] == cfg.lam


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(problem="lshape", refine="bisect")
    with pytest.raises(ConfigError):
        RunConfig(problem="lshape", levels=0)
    with pytest.raises(ConfigError):
        RunConfig(problem="lshape", initial_refine=-1)


def test_run_study_dispatch(small_uniform_table):
    cfg, table = small_uniform_table
    again = run_study(cfg)
    assert [r.ndof for r in again.records] == [r.ndof for r in table.records]


@pytest.mark.parametrize("refine", ["uniform", "adaptive"])
def test_device_records_diff_norms(refine):
    """Without an exact solution both modes record the successive-level
    difference and its order against Ndof."""
    cfg = RunConfig(problem="device", method="nitsche", refine=refine,
                    levels=3, epsilon=0.1, state="D1", initial_refine=3)
    records = run_study(cfg).records
    assert np.isnan(records[0].err_energy)
    assert records[1].err_energy > 0
    assert records[1].energy < records[0].energy
    assert np.isfinite(records[2].order_e)
    assert records[2].order_e == pytest.approx(
        np.log(records[1].err_energy / records[2].err_energy)
        / np.log(records[2].ndof / records[1].ndof))


@pytest.mark.parametrize("problem", ["lshape", "device"])
def test_adaptive_records_carry_no_l2_error(problem):
    """Adaptive levels compute no L2 error and no order against h (an
    adaptive level's h_max can repeat); their energy errors are recorded."""
    cfg = RunConfig(problem=problem, refine="adaptive", levels=4,
                    epsilon=0.4 if problem == "lshape" else 0.1,
                    state="D1" if problem == "device" else None,
                    initial_refine=None if problem == "lshape" else 3)
    records = run_study(cfg).records
    for rec in records:
        assert np.isnan(rec.err_l2)
        assert np.isnan(rec.order_l2)
        assert np.isnan(rec.order_energy)
    assert all(np.isfinite(r.err_energy) for r in records[1:])


def test_adaptive_entries_return_equal_records(small_adaptive_table):
    """The CLI's adaptive entry (``run_study``) and the benchmark's
    (``adaptive_loop``) run the same study."""
    cfg, table = small_adaptive_table
    problem, mesh = initial_mesh_for(cfg)
    records = adapt.adaptive_loop(
        problem, mesh, cfg.method_config(), cfg.newton_config(),
        adapt.AdaptConfig(dorfler_theta=cfg.theta, max_levels=cfg.levels))
    np.testing.assert_equal([astuple(r) for r in records],
                            [astuple(r) for r in table.records])


def test_adaptive_study_raises_no_runtime_warning():
    """No rate of an adaptive study divides by a zero log-ratio."""
    cfg = RunConfig(problem="lshape", refine="adaptive", levels=8,
                    epsilon=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_study(cfg)


def test_uniform_newton_error_carries_level_records(monkeypatch):
    real = adapt.newton_solve
    calls = []

    def fails_on_level_2(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NewtonError("no convergence")
        return real(*args, **kwargs)

    monkeypatch.setattr(adapt, "newton_solve", fails_on_level_2)
    with pytest.raises(NewtonError) as err:
        run_study(RunConfig(problem="lshape", levels=4, epsilon=0.4))
    assert [r.level for r in err.value.level_records] == [0, 1]


def test_cli_smoke(tmp_path, capsys):
    rc = main(["--problem", "lshape", "--levels", "2", "--epsilon", "0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "convergence.csv").exists()
    assert (tmp_path / "meta.json").exists()
    out = capsys.readouterr().out
    assert "lshape nitsche uniform" in out


def test_cli_adaptive_dg(tmp_path):
    rc = main(["--problem", "slit", "--method", "dg", "--refine", "adaptive",
               "--levels", "4", "--epsilon", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["lam"] == 1.0
    assert meta["newton_tol"] == 1e-8


def test_cli_rejects_state_on_lshape(tmp_path, capsys):
    rc = main(["--problem", "lshape", "--state", "D1", "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--newton-tol", "nan"), ("--epsilon", "nan"), ("--epsilon", "1e-200"),
    ("--sigma", "nan"), ("--initial-refine", "-1"), ("--theta", "nan"),
    ("--theta", "0"), ("--theta", "1.5")])
def test_cli_rejects_invalid_number(tmp_path, capsys, monkeypatch, flag,
                                    value):
    """A NaN, an epsilon whose square underflows, a negative pre-refinement
    count or an adaptive run's Doerfler fraction outside (0, 1] is a
    configuration error, found before any level is solved: exit code 1 and
    one ``error:`` line."""
    def solve_levels(*args, **kwargs):
        raise AssertionError("a level was solved")

    # ``run_study`` reaches the level driver here in both modes
    monkeypatch.setattr(bench, "solve_levels", solve_levels)
    mode = ["--refine", "adaptive"] if flag == "--theta" else []
    rc = main(["--problem", "lshape", *mode, flag, value,
               "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("problem, method, sigma, bound", [
    ("lshape", "nitsche", 1.0, 4), ("lshape", "dg", 5.0, 6),
    ("device", "nitsche", 1.0, 4)])
def test_cli_refuses_penalty_below_coercivity_bound(
        tmp_path, capsys, monkeypatch, problem, method, sigma, bound):
    """A penalty below the coercivity bound of the level-0 mesh exits 1 with
    one ``error:`` line naming sigma and the bound, before any Newton step
    and before any output is written."""
    def jacobian(*args, **kwargs):
        raise AssertionError("a Newton step was taken")

    monkeypatch.setattr(NonlinearSystem, "jacobian", jacobian)
    rc = main(["--problem", problem, "--method", method, "--sigma", str(sigma),
               "--epsilon", "0.1", "--initial-refine", "1", "--levels", "2",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"sigma = {sigma} " in err and f"bound {bound} " in err
    assert not (tmp_path / "convergence.csv").exists()


def test_cli_device_adaptive_default_tol(tmp_path, monkeypatch):
    from nematicfem.cli import build_parser, config_from_args
    args = build_parser().parse_args(
        ["--problem", "device", "--refine", "adaptive", "--epsilon", "0.02"])
    cfg = config_from_args(args)
    assert cfg.newton_tol == 1e-6
    assert cfg.state == "D1"
    args = build_parser().parse_args(["--problem", "device"])
    assert config_from_args(args).newton_tol == 1e-8


def test_slit_dg_adaptive_rates():
    """Adaptive dG on the slit at eps = 1: error and estimator both decay at
    an Ndof-rate near 1/2, clearly faster than uniform refinement."""
    cfg = RunConfig(problem="slit", method="dg", refine="adaptive",
                    levels=60, epsilon=1.0)
    from nematicfem.adapt import AdaptConfig, adaptive_loop
    from nematicfem.bench import initial_mesh_for
    problem, mesh = initial_mesh_for(cfg)
    records = adaptive_loop(problem, mesh, cfg.method_config(),
                            cfg.newton_config(),
                            AdaptConfig(dorfler_theta=0.3, max_levels=200,
                                        target_ndof=20000))
    ndof = np.array([r.ndof for r in records], float)
    err = np.array([r.err_energy for r in records])
    est = np.array([r.estimator for r in records])
    tail = ndof >= 1500
    err_rate = -np.polyfit(np.log(ndof[tail]), np.log(err[tail]), 1)[0]
    est_rate = -np.polyfit(np.log(ndof[tail]), np.log(est[tail]), 1)[0]
    assert 0.4 <= err_rate <= 0.6
    assert 0.4 <= est_rate <= 0.6

    ucfg = RunConfig(problem="slit", method="dg", refine="uniform",
                     levels=4, epsilon=1.0)
    uni = run_study(ucfg)
    uni_rate = uni.column("order_e")[-1]
    assert uni_rate < err_rate - 0.1


@pytest.mark.parametrize("refine", ["uniform", "adaptive"])
def test_mesh_dumps(tmp_path, refine):
    cfg = RunConfig(problem="lshape", refine=refine, levels=3,
                    epsilon=0.5, out=str(tmp_path), dump_meshes=True)
    run_study(cfg)
    dumps = sorted((tmp_path / "meshes").glob("level_*.mesh.txt"))
    assert len(dumps) == 3
    assert dumps[0].read_text().startswith("vertices ")


def test_adaptive_study_writes_nothing_to_stdout(tmp_path, capsys):
    """The benchmark runs the adaptive study without redirecting stdout, so
    the library must print nothing: the benchmark's last stdout line has to
    be its JSON result."""
    cfg = RunConfig(problem="lshape", method="nitsche", refine="adaptive",
                    levels=4, epsilon=0.4)
    problem, mesh = initial_mesh_for(cfg)
    records = adapt.adaptive_loop(
        problem, mesh, cfg.method_config(), cfg.newton_config(),
        adapt.AdaptConfig(dorfler_theta=cfg.theta, max_levels=cfg.levels,
                          target_ndof=10_000))
    emit_outputs(ConvergenceTable("adaptive", records), cfg, tmp_path)
    assert (tmp_path / "convergence.csv").exists()
    assert capsys.readouterr().out == ""


def test_benchmark_spans_find_every_wrapped_name():
    """Every name the traced benchmark wraps exists, so no per-layer metric
    is reported as missing."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.installed(spans.Recorder(), nematicfem) as missing:
        assert missing == set()
