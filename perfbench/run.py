"""textmoe benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload train-accept --seed 1 --seconds 20 --trace 0

Run it from the root of a textmoe checkout; it imports the package from
./src. With --trace 0 the last line of stdout holds the end-to-end
metrics; with --trace 1 the run records spans at every layer boundary,
prints the per-layer metrics instead and writes the spans to
.perfbench_out/. Inputs are generated from --seed into .perfbench_work/,
which is removed when the run ends. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

WORKLOADS = ("train-accept", "train-paper", "serve-paper")
BLAS_THREADS = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def bootstrap() -> None:
    """Pin the BLAS pool before numpy loads and import textmoe from ./src."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "textmoe", "__init__.py")):
        sys.exit(f"error: no textmoe package under {SRC}")
    sys.path.insert(0, SRC)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bootstrap()

    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else spans.NoTracer()
    if args.trace:
        spans.install(tracer)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        tally, e2e, win = workloads.run(args.workload, work, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = workloads.E2E_UNITS
    print(f"# workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"rounds={win['rounds']} predict_samples={len(tally.samples['predict_s'])} "
          f"e2e={json.dumps(e2e)}")
    if args.trace:
        tracer.restore()
        sp = spans.Spans(tracer)
        units = spans.PER_LAYER
        metrics = spans.per_layer(
            sp, setup_window=win["setup"], measure_window=win["measure"],
            setups=win["setups"], epochs=win["epochs"],
            checkpoint_bytes=win["checkpoint_bytes"],
            sgemm_gflops=workloads.sgemm_gflops())
        out = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        sp.save(os.path.join(out, f"trace-{args.workload}-seed{args.seed}.npz"),
                {"e2e_traced": e2e, "per_layer": metrics})
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
