"""Correctness checks computed apart from the package.

Nothing here imports ``thermal_landscape``: every oracle takes plain numpy
arrays and recomputes its answer from the defining formula.  A check
raises :class:`CheckFailed` with a message naming what disagreed.
"""

import math

import numpy as np
from scipy import integrate


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _fail_unless(ok, message):
    if not ok:
        raise CheckFailed(message)


def glauber(omega, beta, lambda0):
    """gamma(w) = exp(-w^2 / (2 lambda0^2)) / ((2 + ln(1 + beta lambda0)) (1 + e^{beta w}))."""
    omega = np.asarray(omega, dtype=float)
    logistic = np.exp(-np.logaddexp(0.0, beta * omega))  # 1 / (1 + e^{beta w})
    return np.exp(-omega**2 / (2.0 * lambda0**2)) * logistic / (
        2.0 + math.log1p(beta * lambda0)
    )


def window_hat(omega, tau):
    """Fourier transform of the unit-norm square window of width tau:
    sqrt(2 / (pi tau)) sin(w tau / 2) / w, equal to sqrt(tau / (2 pi)) at w = 0."""
    if omega == 0.0:
        return math.sqrt(tau / (2.0 * math.pi))
    return math.sqrt(2.0 / (math.pi * tau)) * math.sin(omega * tau / 2.0) / omega


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def davies_gradients(h, jumps, rho, beta, lambda0, group_rel_tol=1e-8):
    """Davies-limit energy gradients g_a of ``rho``, one per jump matrix.

    g_a = sum_{g,h} gamma(E_h - E_g) (E_h - E_g) Tr(P_h A P_g rho P_g A^dag P_h),
    with P_g the eigenprojector of energy group g.  Eigenvalues closer than
    ``group_rel_tol`` times the largest |eigenvalue| form one group.
    """
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    cuts = np.flatnonzero(np.diff(w) > group_rel_tol * np.max(np.abs(w))) + 1
    groups = np.split(np.arange(len(w)), cuts)
    energies = [float(np.mean(w[g])) for g in groups]
    rho_t = v.conj().T @ np.asarray(rho, dtype=complex) @ v
    out = []
    for a in jumps:
        a_t = v.conj().T @ np.asarray(a, dtype=complex) @ v
        total = 0.0
        for g, e_g in zip(groups, energies):
            rho_g = rho_t[np.ix_(g, g)]
            for hh, e_h in zip(groups, energies):
                block = a_t[np.ix_(hh, g)]
                omega = e_h - e_g
                weight = float(glauber(omega, beta, lambda0)) * omega
                total += weight * float(np.trace(block @ rho_g @ block.conj().T).real)
        out.append(total)
    return np.array(out)


def ising_energy(bits, h):
    """Energy of a basis state of H = -sum Z_j Z_{j+1} (periodic) - h sum Z_j."""
    z = 1 - 2 * np.array([int(c) for c in bits])
    return float(-np.sum(z * np.roll(z, -1)) - h * np.sum(z))


def ising_flip_gradients(bits, h, beta, lambda0):
    """Gradients of basis state ``bits`` along the jumps X_j: g_j = gamma(dE_j) dE_j,
    where dE_j is the energy change on flipping bit j."""
    e0 = ising_energy(bits, h)
    out = []
    for j in range(len(bits)):
        flipped = bits[:j] + ("1" if bits[j] == "0" else "0") + bits[j + 1:]
        de = ising_energy(flipped, h) - e0
        out.append(float(glauber(de, beta, lambda0)) * de)
    return np.array(out)


def check_gradients(name, got, want, atol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _fail_unless(got.shape == want.shape,
                 f"{name}: {got.shape} gradients, expected {want.shape}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    _fail_unless(err <= atol,
                 f"{name}: gradients differ from the oracle by {err:.3e} > {atol:.1e}")


def check_local_min(name, oracle_g, epsilon):
    """A certified state has every oracle gradient entry >= -epsilon."""
    lo = float(np.min(oracle_g))
    _fail_unless(lo >= -epsilon, f"{name}: certified, but the oracle gradient "
                                 f"{lo:.3e} < -epsilon = {-epsilon:.1e}")


def check_certified_set(certified, expected):
    got, want = sorted(certified), sorted(expected)
    _fail_unless(got == want, f"certified set {got} is not the expected {want}")


# ---------------------------------------------------------------------------
# overlap kernel
# ---------------------------------------------------------------------------


def overlap_quad(nu_prime, nu, beta, tau, lambda0):
    """C(nu', nu) = integral of gamma(w) fhat(w - nu') fhat(w - nu) dw by
    adaptive quadrature over unit panels of the Gaussian cutoff's support."""
    radius = lambda0 * math.sqrt(2.0 * math.log(1e18))  # gamma < 1e-18 beyond

    def integrand(w):
        weight = float(glauber(w, beta, lambda0))
        return weight * window_hat(w - nu_prime, tau) * window_hat(w - nu, tau)

    edges = np.linspace(-radius, radius, int(math.ceil(2 * radius)) + 1)
    return sum(
        integrate.quad(integrand, a, b, epsabs=1e-15, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


def check_overlap_entries(c_mat, freqs, pairs, beta, tau, lambda0, atol=1e-9):
    for k, l in pairs:
        want = overlap_quad(freqs[k], freqs[l], beta, tau, lambda0)
        err = abs(complex(c_mat[k, l]) - want)
        _fail_unless(err <= atol, f"C[{k}, {l}] = {complex(c_mat[k, l])} differs "
                                  f"from quadrature {want} by {err:.3e}")


def check_psd_gram(c_mat, rel_tol=1e-9):
    """C is a Gram matrix of the windows under the weight gamma >= 0."""
    c_mat = np.asarray(c_mat, dtype=complex)
    scale = float(np.max(np.abs(c_mat)))
    herm = float(np.max(np.abs(c_mat - c_mat.conj().T)))
    _fail_unless(herm <= rel_tol * scale, f"C is not Hermitian: defect {herm:.3e}")
    lo = float(np.linalg.eigvalsh(0.5 * (c_mat + c_mat.conj().T))[0])
    _fail_unless(lo >= -rel_tol * scale * len(c_mat),
                 f"C is not positive semidefinite: eigenvalue {lo:.3e}")


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


def check_density(rho, tol=1e-9):
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    _fail_unless(herm <= tol, f"terminal state is not Hermitian: defect {herm:.3e}")
    trace = complex(np.trace(rho))
    _fail_unless(abs(trace - 1.0) <= tol, f"terminal state has trace {trace}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    _fail_unless(lo >= -tol, f"terminal state has eigenvalue {lo:.3e} < {-tol:.0e}")


def check_descent_budget(e_start, e_end, steps, epsilon, norm_bound):
    """Each step lowers the energy by at least (0.99 eps)^2 / (20 B^2), and the
    walk stays within the algorithm's budget of 42 B^3 / eps^2 steps."""
    need = steps * (0.99 * epsilon) ** 2 / (20.0 * norm_bound**2)
    drop = e_start - e_end
    _fail_unless(drop >= need,
                 f"energy dropped by {drop:.6e} over {steps} steps, less than {need:.6e}")
    budget = 42.0 * norm_bound**3 / epsilon**2
    _fail_unless(steps <= budget, f"{steps} steps exceed the budget {budget:.0f}")


def check_finite_difference(g, energy_at, e0, times=(1e-2, 1e-3)):
    """(E(s) - E(0)) / s approaches g as s shrinks: the error at the smaller
    time is at most a quarter of the error at the larger, or below 1e-7."""
    errs = [abs((energy_at(s) - e0) / s - g) for s in times]
    _fail_unless(errs[1] <= max(0.25 * errs[0], 1e-7),
                 f"finite differences {errs} do not approach the gradient {g:.6e}")
    return errs
