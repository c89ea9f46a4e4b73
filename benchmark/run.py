"""Benchmark of nematicfem: three fixed studies from the paper, timed end to
end and, in a traced run, per module.

    python3 benchmark/run.py --workload device-d1-ladder --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The workloads have no random component, so ``--seed`` is accepted and
ignored.  A run first times SETUP_SAMPLES set-ups, each in a fresh
interpreter, then runs whole studies in this process until ``--seconds``
have passed (at least one), checking every study.  With ``--trace 1`` it
skips the set-up samples, then runs one more study with spans around every
layer and reports the per-layer metrics instead of the end-to-end ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_SAMPLES = 9
# BLAS/OpenMP pools: one thread.  SuperLU's factorization is serial, and a
# second OpenBLAS thread made the studies slower and less steady on a
# shared 2-core host
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for the harness; the inputs do not depend on it")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="run whole studies until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload):
    """Median set-up time over SETUP_SAMPLES fresh interpreters, after one
    discarded warm-up that fills the bytecode and page caches."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples[1:])


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    # imported after the pool sizes are set: both import NumPy
    import spans
    import studies

    args = parse_args(argv, studies.WORKLOADS)
    src = ROOT / "src"
    if not (src / "nematicfem").is_dir():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else setup_seconds(args.workload)
    st = studies.setup(src, args.workload)
    out = RUNS / args.workload

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(studies.run_round(st, args.workload, out))
    fails = [f for r in rounds for f in r.fails]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    wall_s = statistics.median(r.wall_s for r in rounds)

    if args.trace:
        rec = spans.Recorder()
        with spans.installed(rec, st.pkg) as missing:
            traced = studies.run_round(st, args.workload, out, recorder=rec)
        rec.dump(out / "spans.jsonl")
        fails += traced.fails
        attempted += traced.attempted
        failed += traced.failed
        layer = spans.layer_metrics(rec, missing)
        layer["bench.levels"] = (len(traced.records), "count")
        layer["bench.ndof_final"] = (
            traced.records[-1].ndof if traced.records else 0, "count")
        layer["trace.overhead_s"] = (traced.wall_s - wall_s, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    for f in fails:
        print(f"check failed: {f}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} studies, wall_s "
          f"{[round(r.wall_s, 3) for r in rounds]}", file=sys.stderr)
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
