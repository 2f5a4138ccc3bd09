"""Dense complex operator primitives: Pauli tensors, site embeddings, spectra.

Everything in the package works with plain ``numpy.ndarray`` matrices of
dtype complex128.  Density matrices are ordinary matrices validated by
:func:`check_density_matrix` at API boundaries.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    NonRealExpectation,
    NotHermitian,
    SiteOutOfRange,
    SizeLimit,
)

MAX_QUBITS = 14  # dense-size guard: Hilbert dimension <= 16384
NORM_BAND_SLACK = 1e-9  # relative widening of the Frobenius bracket's band

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class PauliTerm:
    """A weighted Pauli string, e.g. ``PauliTerm(-1.0, "ZZI")``."""

    coefficient: float
    letters: str


def dagger(m):
    return m.conj().T


def commutator(a, b):
    return a @ b - b @ a


def operator_norm(m):
    """Spectral norm (largest singular value)."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def spectral_norm_exceeds(m, bound):
    """Whether ``operator_norm(m) > bound``, with an SVD only where needed.

    ||m||_2 <= ||m||_F <= sqrt(rank m) ||m||_2 with rank m <= min(m.shape),
    so the Frobenius norm decides unless it lies between ``bound`` and
    sqrt(min(m.shape)) * ``bound``; the band is widened by a relative
    ``NORM_BAND_SLACK`` so that rounding in either norm cannot decide
    differently from the SVD.
    """
    fro = float(np.linalg.norm(m))
    if fro <= bound * (1.0 - NORM_BAND_SLACK):
        return False
    if fro > math.sqrt(min(m.shape)) * bound * (1.0 + NORM_BAND_SLACK):
        return True
    return operator_norm(m) > bound


def pauli_matrix(term: PauliTerm, n: int):
    """Dense matrix of ``coefficient * tensor(sigma_letter[j] for j)``."""
    if n > MAX_QUBITS:
        raise SizeLimit(f"n={n} exceeds the dense-size guard of {MAX_QUBITS} qubits")
    if len(term.letters) != n:
        raise DimensionMismatch(
            f"Pauli string has {len(term.letters)} letters for n={n} qubits"
        )
    out = np.array([[term.coefficient]], dtype=complex)
    for letter in term.letters:
        try:
            out = np.kron(out, PAULI[letter])
        except KeyError:
            raise DimensionMismatch(f"unknown Pauli letter {letter!r}") from None
    return out


def kron_embed(op, sites, n: int):
    """Embed ``op`` acting on ``sites`` (in listed order) into ``n`` qubits.

    Site 0 is the most significant qubit of the full register.
    """
    sites = list(sites)
    k = len(sites)
    if n > MAX_QUBITS:
        raise SizeLimit(f"n={n} exceeds the dense-size guard of {MAX_QUBITS} qubits")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise DimensionMismatch(
            f"operator of shape {op.shape} does not act on {k} qubits"
        )
    if len(set(sites)) != k:
        raise SiteOutOfRange(f"sites {sites} contain duplicates")
    for s in sites:
        if not 0 <= s < n:
            raise SiteOutOfRange(f"site {s} out of range for n={n}")
    rest = [q for q in range(n) if q not in sites]
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    # full currently orders qubits as sites + rest; permute to 0..n-1
    src = sites + rest
    perm = [src.index(q) for q in range(n)]
    tensor = full.reshape((2,) * (2 * n))
    tensor = tensor.transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**n, 2**n))


def hermiticity_defect(m):
    return operator_norm(m - dagger(m))


def herm_eig(m, tol_herm=None):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with eigenvalues ascending and columns of ``V``
    phase-fixed so the largest-magnitude component is real positive.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    scale = operator_norm(m)
    if tol_herm is None:
        tol_herm = 1e-10 * scale
    if hermiticity_defect(m) > max(tol_herm, 1e-300):
        raise NotHermitian(
            f"matrix is not Hermitian within {tol_herm:.3e} "
            f"(defect {hermiticity_defect(m):.3e})"
        )
    w, v = np.linalg.eigh(0.5 * (m + dagger(m)))
    # deterministic phase: largest-magnitude component real positive
    idx = np.argmax(np.abs(v), axis=0)
    phases = v[idx, np.arange(v.shape[1])]
    phases = phases / np.abs(phases)
    v = v / phases[np.newaxis, :]
    return w, v


def expectation(obs, rho):
    """Real part of Tr(obs rho) for a Hermitian observable."""
    obs = np.asarray(obs, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if obs.shape != rho.shape or obs.shape[0] != obs.shape[1]:
        raise DimensionMismatch(
            f"observable shape {obs.shape} does not match state shape {rho.shape}"
        )
    scale = operator_norm(obs)
    if hermiticity_defect(obs) > 1e-10 * max(scale, 1e-300):
        raise NotHermitian("observable is not Hermitian")
    val = complex(np.sum(obs * rho.T))
    if abs(val.imag) > 1e-9 * max(scale, 1e-300):
        raise NonRealExpectation(
            f"imaginary part {val.imag:.3e} exceeds 1e-9 * ||obs||"
        )
    return float(val.real)


def check_density_matrix(rho, herm_factor=1e-10, trace_tol=1e-10, psd_floor=-1e-9):
    """Validate Hermiticity, unit trace and numerical positivity of a state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDensityMatrix(f"state has shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidDensityMatrix("state contains non-finite entries")
    scale = max(operator_norm(rho), 1e-300)
    if hermiticity_defect(rho) > herm_factor * scale:
        raise InvalidDensityMatrix("state is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise InvalidDensityMatrix(f"trace is {tr} instead of 1")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))[0])
    if lo < psd_floor:
        raise InvalidDensityMatrix(f"minimum eigenvalue {lo:.3e} below {psd_floor}")
    return rho


def basis_state(bits: str):
    """Computational basis vector |bits>, first character = qubit 0 (MSB)."""
    n = len(bits)
    if n > MAX_QUBITS:
        raise SizeLimit(f"n={n} exceeds the dense-size guard of {MAX_QUBITS} qubits")
    idx = int(bits, 2)
    vec = np.zeros(2**n, dtype=complex)
    vec[idx] = 1.0
    return vec


def projector(vec):
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def maximally_mixed(n: int):
    return np.eye(2**n, dtype=complex) / 2**n
