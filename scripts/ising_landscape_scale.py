#!/usr/bin/env python3
"""Wall time and peak memory of one Ising landscape at a given size.

Builds the periodic Ising chain of N qubits with the `pauli_x_all` jumps,
CSR arrays as the CLI's preset builds them, under the Davies bath of
`scripts/configs/ising_landscape_h*.json` (beta = 5, lambda0 = 4), then
certifies all 2^N basis states with epsilon = 1e-3 exactly as the CLI's
`ising` scenario does.  Prints one JSON line: N, h, the set-up and total
wall time in seconds, the peak resident set in MB and the certified bit
strings.  Run one size per process, since the peak resident set is the
process's own:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/ising_landscape_scale.py 10
"""

import argparse
import json
import resource
import time

import thermal_landscape as tl
from thermal_landscape import cli
from thermal_landscape.bath import BathSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="number of qubits")
    parser.add_argument("--h", type=float, default=1.0, help="longitudinal field")
    args = parser.parse_args()

    start = time.perf_counter()
    ham = tl.build_ising_chain(args.n, args.h, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed_csr(tl.PAULI["X"], [j], args.n)) for j in range(args.n)]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=5.0, tau=1.0, lambda0=4.0),
                           davies=True)
    setup = time.perf_counter() - start
    result, _ = cli._scenario_ising({"epsilon": 1e-3}, model, None, {}, 0)
    total = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"n": args.n, "h": args.h, "setup_s": round(setup, 3),
                      "total_s": round(total, 3), "peak_rss_mb": round(peak_mb, 1),
                      "certified": result["certified"]}))


if __name__ == "__main__":
    main()
