#!/usr/bin/env python3
"""How much of a sector descent its run blocks take.

For each case, prints the steps taken, the number of runs (maximal stretches
of steps along one jump), the run blocks tried, the share of steps evaluated
in run blocks, the steps taken one at a time split into those of runs
shorter than ``RUN_WARMUP`` (which never reach a block) and the rest (the
warm-ups of longer runs and the steps at which their blocks stop), and the
wall time of ``thermal_gradient_descent`` in all and per step.  The
counts come from the one DEBUG line per run that ``thermal_landscape.descent``
logs.  Cases:

- ``clock_cool``: the benchmark workload (T = 3 clock, beta = 30,
  epsilon = 1.5e-2, B = 2.43), to termination;
- ``clock_pure``: the same model and config from two Haar-random pure
  starts (normalized complex Gaussian vectors drawn in turn from seed 1),
  each to termination.  A pure start is not block-diagonal by energy
  group, so it descends in the one group of all 16 levels;
- ``criterion11``: ``configs/clock_cooling_t3.json`` (epsilon = 8e-4),
  capped at 200,000 steps, all of which fall in its first run;
- ``criterion11_full``: the same, to termination (about 11.3 M steps and
  1.7 M runs, most of them shorter than the warm-up; minutes of wall time);
- ``ising4_eps1e-2``: Ising ring n = 4, h = 1.5, epsilon = 1e-2, capped at
  200,000 steps;
- ``ising4_eps0.1`` and ``ising5_eps0.1``: n = 4 and 5, h = 1,
  epsilon = 0.1, to termination;
- ``finite_tau_lamb``: the benchmark workload's problem in its own frame
  (every 1- and 2-local Pauli on a 3-qubit chain with Gaussian coefficients
  of seed 0, scaled to ||H|| = 1, jumps X_j and Z_j, beta = 2, tau = 25,
  Lamb shift, from |000>, epsilon = 5e-3, B = 1.01), to termination.  Its
  start is not block-diagonal by energy group, so it descends in the one
  group of all 8 levels;
- ``ising6_off_sector``: Ising ring n = 6, h = 1, CSR X jumps, beta = 5,
  lambda0 = 4, epsilon = 1e-2, B = max |lambda(H)|, from the maximally
  mixed state, capped at 10,000 steps.  Its energy groups are degenerate
  and no sector fits ``SECTOR_MAX_ENTRIES``, so it descends off-sector, on
  the d^2 entries of the state in the eigenbasis;
- ``generic_davies6_haar``: an open chain of n = 6 qubits with Gaussian
  coefficients (seed 0) on X_j, Z_j, Z_j Z_{j+1} and X_j X_{j+1}, CSR X
  jumps, a Davies bath at beta = 2, from a Haar-random pure state (a
  normalized complex Gaussian vector drawn next from the same generator),
  epsilon = 1e-2, B = max |lambda(H)|, capped at 2,000 steps.  Its
  eigenbasis is no permutation, and the start lies outside every sector,
  so it too descends off-sector.

The Ising rings have X jumps on every site and a beta = 5, lambda0 = 4
Davies bath, and start maximally mixed.  Run from the repository root with
``PYTHONPATH=src python scripts/descent_runs.py [case ...]``.
"""

import argparse
import itertools
import logging
import time

import numpy as np

import thermal_landscape as tl
from thermal_landscape import cli
from thermal_landscape.bath import BathSpec
from thermal_landscape.descent import RUN_WARMUP
from thermal_landscape.errors import MaxStepsExceeded

from clock_cooling import load_config

CAP = 200_000


def clock_cool():
    eye = np.eye(2, dtype=complex)
    cs = tl.make_circuit(1, 1, [(eye, [0]), (tl.PAULI["X"], [0]), (eye, [0])])
    clock = tl.build_clock_hamiltonian(cs, j_in=0.6, j_prop=0.3)
    model = tl.build_model(clock.local, tl.clock_jump_preset(cs),
                           bath=BathSpec(beta=30.0, tau=1.0), davies=True)
    return model, np.eye(16, dtype=complex) / 16, tl.DescentConfig(epsilon=1.5e-2, norm_bound=2.43)


def clock_pure():
    model, _, cfg = clock_cool()
    rng = np.random.default_rng(1)
    problems = []
    for _ in range(2):
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi /= np.linalg.norm(psi)
        problems.append((model, np.outer(psi, psi.conj()), cfg))
    return problems


def criterion11(max_steps=CAP):
    cfg = load_config()
    ham, clock, _ = cli._resolve_hamiltonian(cfg)
    _, model_kwargs = cli._build_model(cfg, ham)
    jumps, _ = cli._resolve_jumps(cfg, ham, clock)
    model = tl.build_model(ham, jumps, **model_kwargs)
    descent = cfg["descent"]
    return model, tl.maximally_mixed(int(np.log2(model.dim))), tl.DescentConfig(
        epsilon=descent["epsilon"], norm_bound=descent["B"], max_steps=max_steps,
        record_stride=descent["record_stride"])


def ising(n, h, epsilon, max_steps=None):
    ham = tl.build_ising_chain(n, h, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=5.0, tau=1.0, lambda0=4.0),
                           davies=True)
    return model, tl.maximally_mixed(n), tl.DescentConfig(
        epsilon=epsilon, norm_bound=model.ham.norm_bound, max_steps=max_steps)


def finite_tau_lamb():
    n = 3
    local = [(tl.PAULI[p], (j,)) for j in range(n) for p in "XYZ"]
    local += [(np.kron(tl.PAULI[p], tl.PAULI[q]), (j, j + 1))
              for j in range(n - 1) for p, q in itertools.product("XYZ", repeat=2)]
    coeffs = np.random.default_rng(0).normal(size=len(local))
    dense = sum(c * tl.kron_embed(op, sites, n) for c, (op, sites) in zip(coeffs, local))
    coeffs = coeffs / np.linalg.norm(dense, 2)
    ham = tl.assemble([(c * op, sites) for c, (op, sites) in zip(coeffs, local)], n)
    jumps = [(f"{p}{j}", tl.kron_embed(tl.PAULI[p], [j], n)) for j in range(n) for p in "XZ"]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=2.0, tau=25.0))
    return model, tl.projector(tl.basis_state("000")), tl.DescentConfig(epsilon=5e-3,
                                                                        norm_bound=1.01)


def ising6_off_sector():
    n = 6
    ham = tl.build_ising_chain(n, 1.0, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed_csr(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=5.0, tau=1.0, lambda0=4.0),
                           davies=True)
    b = float(np.max(np.abs(model.sd.eigenvalues)))
    return model, tl.maximally_mixed(n), tl.DescentConfig(epsilon=1e-2, norm_bound=b,
                                                          max_steps=10_000)


def generic_davies6_haar():
    n = 6
    rng = np.random.default_rng(0)
    local = [(tl.PAULI[p], (j,)) for j in range(n) for p in "XZ"]
    local += [(np.kron(tl.PAULI[p], tl.PAULI[p]), (j, j + 1)) for j in range(n - 1) for p in "ZX"]
    coeffs = rng.normal(size=len(local))
    ham = tl.assemble([(c * op, sites) for c, (op, sites) in zip(coeffs, local)], n)
    jumps = [(f"X{j}", tl.kron_embed_csr(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=2.0, tau=1.0), davies=True)
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi /= np.linalg.norm(psi)
    b = float(np.max(np.abs(model.sd.eigenvalues)))
    return model, np.outer(psi, psi.conj()), tl.DescentConfig(epsilon=1e-2, norm_bound=b,
                                                              max_steps=2_000)


CASES = {
    "clock_cool": clock_cool,
    "clock_pure": clock_pure,
    "criterion11": criterion11,
    "criterion11_full": lambda: criterion11(None),
    "ising4_eps1e-2": lambda: ising(4, 1.5, 1e-2, CAP),
    "ising4_eps0.1": lambda: ising(4, 1.0, 0.1),
    "ising5_eps0.1": lambda: ising(5, 1.0, 0.1),
    "finite_tau_lamb": finite_tau_lamb,
    "ising6_off_sector": ising6_off_sector,
    "generic_davies6_haar": generic_davies6_haar,
}


class _Runs(logging.Handler):
    """Sums the (label, steps, block steps, blocks, sweeps, one at a time)
    of the run lines, with the one-at-a-time steps of runs shorter than
    ``RUN_WARMUP`` apart."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.runs = self.steps = self.blocked = self.blocks = self.sweeps = 0
        self.short_runs = self.short_steps = self.single = 0

    def emit(self, record):
        _, steps, blocked, blocks, sweeps, _ = record.args
        self.runs += 1
        self.steps += steps
        self.blocked += blocked
        self.blocks += blocks
        self.sweeps += sweeps
        if steps < RUN_WARMUP:
            self.short_runs += 1
            self.short_steps += steps
            self.single += steps == 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("cases", nargs="*", metavar="case",
                        help=f"any of {', '.join(CASES)} (default: all)")
    args = parser.parse_args()
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        parser.error(f"unknown case {', '.join(unknown)}")
    log = logging.getLogger("thermal_landscape.descent")
    log.setLevel(logging.DEBUG)
    for case in args.cases or CASES:
        problems = CASES[case]()
        if isinstance(problems, tuple):
            problems = [problems]
        for k, problem in enumerate(problems):
            name = f"{case}[{k}]" if len(problems) > 1 else case
            _report(log, name, *problem)


def _report(log, name, model, rho, cfg):
    """Run one descent and print its line."""
    handler = _Runs()
    log.addHandler(handler)
    start = time.perf_counter()
    try:
        tl.thermal_gradient_descent(model, rho, cfg)
        end = "terminated"
    except MaxStepsExceeded:
        end = f"capped at {cfg.max_steps}"
    wall = time.perf_counter() - start
    log.removeHandler(handler)
    h = handler
    print(f"{name}: {h.steps} steps ({end}), {h.runs} runs, {h.blocks} blocks tried, "
          f"{h.blocked / max(h.steps, 1):.1%} in blocks, {h.sweeps} Picard sweeps; "
          f"one at a time {h.short_steps} in {h.short_runs} runs shorter than "
          f"{RUN_WARMUP} ({h.single} of one step), "
          f"{h.steps - h.blocked - h.short_steps} in longer runs; {wall:.2f} s, "
          f"{1e6 * wall / max(h.steps, 1):.1f} us per step")


if __name__ == "__main__":
    main()
