"""Benchmark of thermal_landscape: one workload, timed in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of the workload one after another, each in a fresh worker
process (``worker.py``), until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds are done.  Every round's outputs are checked against
the benchmark's own computations.  Prints the environment, the per-round
figures, and as its last line one JSON object whose metrics are the medians
over the rounds (``--trace 0``) or the per-layer metrics of one extra traced
round (``--trace 1``).  Workloads: see ``workloads.py`` and the README.

The time metrics are wall times scaled to the reference machine: each
round's time is multiplied by the workload's reference time there
(``reference.nominal``) over the round's own reference time, and the run
reports the median over rounds.  The ``# rounds`` lines show the unscaled
wall times.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("clock_cool", "finite_tau_lamb", "ising_landscape")
MIN_ROUNDS = 3
BLAS_THREADS = 1
ROUND_TIMEOUT_S = 150  # a worker still running after this is killed
RUN_DEADLINE_S = 165  # no round starts that would likely end after this
END_TO_END = {"setup_s": "s", "solve_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
SCALED = ("setup_s", "solve_s", "total_s")


def _worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_round(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=_worker_env(), timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {cpu}",
        "os": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "thermal_landscape" / "__init__.py").is_file():
        sys.exit(f"no thermal_landscape source under {ROOT / 'src'}")
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)

    start = time.perf_counter()
    rounds, longest = [], 0.0
    while True:
        t = time.perf_counter()
        rounds.append(run_round(args.workload, args.seed, trace=False))
        longest = max(longest, time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        reserve = longest * (2.5 if args.trace else 1.5)
        if elapsed + reserve > RUN_DEADLINE_S:
            break
        if elapsed >= args.seconds and len(rounds) >= MIN_ROUNDS:
            break
    traced = run_round(args.workload, args.seed, trace=True) if args.trace else None

    done = [r for r in rounds if not r["failed"]]
    every = rounds + ([traced] if traced else [])
    for r in every:
        if r["failed"] or not r["correct"]:
            print(f"# round error: {r.get('error') or r.get('check_error')}", file=sys.stderr)
    if not done:
        sys.exit("every round failed")
    correct = all(r["correct"] for r in every if not r["failed"])
    works = {r["work"] for r in every if not r["failed"]}
    if len(works) > 1:  # one seed, one problem: the work must repeat exactly
        print(f"# rounds disagree on the work done: {sorted(works)}", file=sys.stderr)
        correct = False
    for name in list(END_TO_END) + ["work", "ref_s"]:
        print(f"# rounds {name} " + json.dumps([r[name] for r in done]))
    for r in done:
        r["scale"] = reference.nominal(args.workload) / r["ref_s"]
    print("# rounds scale " + json.dumps([r["scale"] for r in done]))

    if traced:
        if traced["failed"]:
            sys.exit("the traced round failed")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
        untraced = statistics.median(r["total_s"] for r in done)
        metrics["trace.overhead_s"] = {"value": traced["total_s"] - untraced, "unit": "s"}
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            values = [r[name] * r["scale"] if name in SCALED else r[name] for r in done]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": sum(r["failed"] for r in every),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
