"""A fixed computation that gauges how fast the host runs during a round.

The host the benchmark was built on changes speed in phases that last
minutes: the same round of the same code takes up to 2.4 times as long in a
slow phase.  The time metrics are therefore reported against this reference
(see ``run.py``): every round times it in its own process before set-up and
after solve, and its wall times are scaled by how long the reference took.
A phase slows interpreter-bound and BLAS-bound code by different factors, so
``WORKLOAD_KERNELS`` gives each workload the kernels that do the kind of
work its rounds do, at the same sizes.  Nothing here imports the package, so
a change to the package cannot change the reference.

Each kernel is fixed work on fixed matrices and returns its duration in
seconds; ``NOMINAL_S`` holds its duration on the machine of the README's
reference figures, so that scaled times read as seconds on that machine.
"""

import time

import numpy as np

_RNG = np.random.default_rng(20230916)


def _complex(n, scale):
    return (_RNG.normal(size=(n, n)) + 1j * _RNG.normal(size=(n, n))) * scale


_H20 = _complex(20, 0.05)
_H20 = _H20 + _H20.conj().T
_GEN64 = _complex(64, 0.01)
_A256 = _complex(256, 0.05)


def sector(reps=4500):
    """A Python loop of tiny complex operations, as a descent step in the
    zero-frequency sector does: a 20 x 20 conjugation, a Hermitian part, a
    trace renormalisation and a small eigvalsh."""
    rho = np.eye(20, dtype=complex) / 20
    t = time.perf_counter()
    for _ in range(reps):
        rho = _H20 @ rho @ _H20.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        np.linalg.eigvalsh(rho[:4, :4])
    return time.perf_counter() - t


def superop(reps=2400):
    """Truncated Taylor series of a 64 x 64 generator on vec(rho) of an 8 x 8
    state, re-Hermitised and checked by eigvalsh, as dense ``evolve`` does."""
    v0 = np.eye(8, dtype=complex).ravel() / 8
    t = time.perf_counter()
    for _ in range(reps):
        v, term = v0.copy(), v0
        for k in range(1, 10):
            term = _GEN64 @ term / k
            v += term
        rho = v.reshape(8, 8)
        np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return time.perf_counter() - t


def panels(reps=4):
    """Panel quadrature of Fourier integrals on a shared grid: complex
    exponentials of an outer product of times and nodes, summed against a
    Glauber-filtered weight, as the bath's correlation and kernel tables are
    built."""
    nodes = np.linspace(-20.0, 20.0, 4000)
    weight = np.exp(-nodes**2 / 2.0) / (1.0 + np.exp(2.0 * nodes)) * (nodes[1] - nodes[0])
    times = np.linspace(0.0, 50.0, 200)
    t = time.perf_counter()
    for _ in range(reps):
        for chunk in np.split(times, 20):
            np.exp(1j * np.outer(chunk, nodes)) @ weight
    return time.perf_counter() - t


def dense(reps=20):
    """Complex 256 x 256 products and singular values, as the Bohr blocks and
    operator norms of a 256-dimensional model are computed."""
    t = time.perf_counter()
    for i in range(reps):
        _A256 @ _A256
        if i % 4 == 0:
            np.linalg.svd(_A256, compute_uv=False)
    return time.perf_counter() - t


KERNELS = {"sector": sector, "superop": superop, "panels": panels, "dense": dense}
# the kernels that do each workload's kind of work: clock_cool spends its time
# in sector steps; finite_tau_lamb in panel quadrature (set-up) and dense
# evolve (solve); ising_landscape in 256 x 256 products and norms
WORKLOAD_KERNELS = {
    "clock_cool": ("sector",),
    "finite_tau_lamb": ("panels", "superop"),
    "ising_landscape": ("dense",),
}
NOMINAL_S = {"sector": 0.20, "superop": 0.23, "panels": 0.14, "dense": 0.17}


def measure(workload):
    """Seconds the workload's kernels take now, summed."""
    return sum(KERNELS[k]() for k in WORKLOAD_KERNELS[workload])


def nominal(workload):
    """Seconds the workload's kernels took on the reference machine, summed."""
    return sum(NOMINAL_S[k] for k in WORKLOAD_KERNELS[workload])
