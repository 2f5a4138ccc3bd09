#!/usr/bin/env python3
"""Certified computational-basis local minima of the Ising chain by field.

Sweeps the longitudinal field through the three regimes (h = 0, 0 < h < 2,
h > 2) and prints which bit strings are certified local minima under the
single-site X jump set in the Davies limit.
"""

import argparse
import math

import thermal_landscape as tl
from thermal_landscape.bath import BathSpec
from thermal_landscape.cli import write_csv


def certified_states(n, h, beta, epsilon):
    ham = tl.build_ising_chain(n, h, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(
        ham, jumps, bath=BathSpec(beta=beta, tau=1.0, lambda0=4.0), davies=True
    )
    rows = []
    for idx in range(2**n):
        bits = format(idx, f"0{n}b")
        cert = tl.certify_local_min(model, bits, epsilon)
        rows.append((h, bits, model.energy(bits), cert.inf_norm_minus, cert.kind))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--beta", type=float, default=5.0)
    parser.add_argument("--output", default="ising_regimes.csv")
    args = parser.parse_args()

    all_rows = []
    for h in (0.0, 1.0, 3.0):
        eps = 10.0 * math.exp(-4.0 * args.beta) if h == 0.0 else 1e-3
        rows = certified_states(args.n, h, args.beta, eps)
        all_rows.extend(rows)
        certified = [r[1] for r in rows if r[4] == "local_min_sufficient"]
        print(f"h = {h}: certified local minima: {certified}")
    write_csv(args.output, ["h", "bits", "energy", "inf_norm_minus", "kind"],
              all_rows)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
