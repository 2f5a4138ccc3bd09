"""One round of a workload in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--trace]

Builds the inputs from the seed, times set-up (Hamiltonian builder plus
``build_model``) and solve (through the terminal certificate) with one
clock, records the peak resident set, then runs the workload's checks
outside the timers.  The workload's reference kernels (``reference.py``)
are timed just before set-up and just after solve, outside the timers.
Prints one JSON object.  With ``--trace`` the layers are wrapped during
set-up and solve, and the object carries their metrics.
A fresh process per round keeps the package's module-level and per-model
caches from carrying over between rounds.
"""

import argparse
import contextlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _import_package():
    """Import thermal_landscape from this checkout's src/, and nowhere else."""
    if not (SRC / "thermal_landscape" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import thermal_landscape

    if Path(thermal_landscape.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"thermal_landscape was imported from {thermal_landscape.__file__}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    _import_package()
    import reference
    import tracing
    from checks import CheckFailed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    inp = workload.inputs(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    record = {"failed": False, "correct": True}
    ref_before = reference.measure(args.workload)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = perf_counter_ns()
            model = workload.setup(inp)
            t1 = perf_counter_ns()
            out = workload.solve(model, inp, OUT_DIR)
            t2 = perf_counter_ns()
    except Exception as exc:  # the program failed this operation: report it, do not time it
        traceback.print_exc()
        record.update(failed=True, error=f"{type(exc).__name__}: {exc}")
        print(json.dumps(record))
        return
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_after = reference.measure(args.workload)
    record.update(
        setup_s=(t1 - t0) * 1e-9,
        solve_s=(t2 - t1) * 1e-9,
        total_s=(t2 - t0) * 1e-9,
        peak_rss_mb=peak_rss_mb,
        work=workload.work(out),
        ref_s=(ref_before + ref_after) / 2,
    )
    if tracer:
        record["layers"] = tracing.layer_metrics(tracer, t0, t2)
    try:
        workload.check(model, inp, out)
    except CheckFailed as exc:
        record.update(correct=False, check_error=str(exc))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
