"""Dense complex operator primitives: Pauli tensors, site embeddings, spectra.

Everything in the package works with plain ``numpy.ndarray`` matrices of
dtype complex128; a jump operator may also be a ``scipy.sparse`` matrix
(:func:`kron_embed_csr`), read through :func:`entries` and :func:`as_dense`.
Density matrices are ordinary matrices validated by
:func:`check_density_matrix` at API boundaries.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    NonFiniteValue,
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


def nonzero(m):
    """``np.nonzero`` of a 2-d array, about twice as fast when it is complex."""
    return divmod(np.flatnonzero(m != 0), m.shape[1])


def entries(m):
    """The nonzero entries ``(rows, cols, values)`` of a 2-d array or a
    ``scipy.sparse`` matrix, in row-major order; a sparse one is read
    without densifying it, its stored zeros skipped."""
    if not sp.issparse(m):
        rows, cols = nonzero(m)
        return rows, cols, m[rows, cols]
    m = sp.csr_array(m)
    if not m.has_canonical_format:  # duplicates summed, columns sorted in each row
        m = m.copy()
        m.sum_duplicates()
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    hit = m.data != 0
    return rows[hit], m.indices[hit].astype(np.intp), m.data[hit]


def from_entries(entries, d):
    """The d x d complex array with the given (rows, cols, values) and zeros elsewhere."""
    rows, cols, vals = entries
    out = np.zeros((d, d), dtype=complex)
    out[rows, cols] = vals
    return out


def as_dense(m):
    """``m`` as a dense array: a ``scipy.sparse`` matrix densified, any other returned as it is."""
    return m.toarray() if sp.issparse(m) else m


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


def embedded_entries(op, sites, n: int):
    """The nonzero entries ``(rows, cols, values)`` of :func:`kron_embed`: op[a, b]
    * (1 + 0j), as the Kronecker route forms it, at (loc[a] + r, loc[b] + r) for
    each index r zero on ``sites``, loc[a] placing the bits of a on ``sites``."""
    sites = list(sites)
    k = len(sites)
    if n > MAX_QUBITS:
        raise SizeLimit(f"n={n} exceeds the dense-size guard of {MAX_QUBITS} qubits")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise DimensionMismatch(f"operator of shape {op.shape} does not act on {k} qubits")
    if len(set(sites)) != k:
        raise SiteOutOfRange(f"sites {sites} contain duplicates")
    for s in sites:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or not 0 <= s < n:
            raise SiteOutOfRange(f"site {s!r} is not a qubit of n={n}")
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    loc = (bits << (n - 1 - np.array(sites, dtype=np.intp))).sum(axis=1)
    rest = np.flatnonzero((np.arange(2**n) & loc[-1]) == 0)  # loc[-1]: every site's bit
    a, b = np.nonzero(op)
    return ((loc[a, None] + rest).ravel(), (loc[b, None] + rest).ravel(),
            np.repeat(op[a, b] * (1 + 0j), len(rest)))


def kron_embed(op, sites, n: int):
    """Embed ``op`` acting on ``sites`` (in listed order) into ``n`` qubits.

    Site 0 is the most significant qubit of the full register.  Only the
    nonzero entries are written, by index (:func:`embedded_entries`)."""
    rows, cols, vals = embedded_entries(op, sites, n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[rows, cols] = vals
    return out


def kron_embed_csr(op, sites, n: int):
    """:func:`kron_embed` as a ``scipy.sparse`` CSR array of its nonzero entries."""
    rows, cols, vals = embedded_entries(op, sites, n)
    return sp.csr_array((vals, (rows, cols)), shape=(2**n, 2**n))


def hermiticity_defect(m):
    return operator_norm(m - dagger(m))


def herm_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with eigenvalues ascending and columns of ``V``
    phase-fixed so the largest-magnitude component is real positive.  A
    diagonal Hermitian part takes no LAPACK call: w is its diagonal by a
    stable sort, V the permutation matrix with V[k, j] = 1 for w[j] at k,
    so equal eigenvalues keep the diagonal's order, not ``eigh``'s
    (:func:`herm_eig_basis` returns that V as the permutation itself).
    """
    w, v = herm_eig_basis(m)
    if v.ndim == 1:
        p, v = v, np.zeros((len(w), len(w)), dtype=complex)
        v[p, np.arange(len(w))] = 1.0
    return w, v


def herm_eig_basis(m):
    """:func:`herm_eig`, with the V of a diagonal Hermitian part returned as
    the permutation p, V[p[j], j] = 1, not as a d x d matrix.  The defect
    ||m - m^dag||_2 is checked against 1e-10 ||m||_2 only when m - m^dag
    has a nonzero entry, which is read from the nonzero entries of m: an
    exactly Hermitian ``m`` costs no SVD, and if it is diagonal as well no
    d x d array is formed.  An input or Hermitian part that is not finite
    raises :class:`NonFiniteValue`.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteValue("matrix has a non-finite entry")
    rows, cols, vals = entries(m)
    if np.any(m[cols, rows] != vals.conj()):  # m - m^dag has a nonzero entry
        skew = m - dagger(m)
        tol_herm = 1e-10 * operator_norm(m)
        defect = operator_norm(skew) if np.all(np.isfinite(skew)) else math.inf
        if defect > max(tol_herm, 1e-300):
            raise NotHermitian(
                f"matrix is not Hermitian within {tol_herm:.3e} (defect {defect:.3e})"
            )
    elif np.array_equal(rows, cols):
        # m = m^dag and diagonal: its Hermitian part is m, unless 2 m overflows
        diag = m.diagonal().real
        if np.any(np.abs(diag) >= 2.0**1023):
            raise NonFiniteValue("the Hermitian part of the matrix overflows")
        order = np.argsort(diag, kind="stable")
        return diag[order], order
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        herm = 0.5 * (m + dagger(m))
    if not np.all(np.isfinite(herm)):
        raise NonFiniteValue("the Hermitian part of the matrix overflows")
    diag = herm.diagonal().real
    if np.count_nonzero(herm) == np.count_nonzero(diag):
        order = np.argsort(diag, kind="stable")
        return diag[order], order
    w, v = np.linalg.eigh(herm)
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


def check_density_matrix(rho):
    """Validate Hermiticity (defect within 1e-10 ||rho||_2), unit trace
    (within 1e-10) and numerical positivity (eigenvalues >= -1e-9) of a state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDensityMatrix(f"state has shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidDensityMatrix("state contains non-finite entries")
    scale = max(operator_norm(rho), 1e-300)
    if hermiticity_defect(rho) > 1e-10 * scale:
        raise InvalidDensityMatrix("state is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-10:
        raise InvalidDensityMatrix(f"trace is {tr} instead of 1")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))[0])
    if lo < -1e-9:
        raise InvalidDensityMatrix(f"minimum eigenvalue {lo:.3e} below -1e-09")
    return rho


def basis_index(bits: str) -> int:
    """Index of the basis state |bits>, first character = qubit 0 (MSB);
    anything but a nonempty string of 0 and 1 is a :class:`DimensionMismatch`."""
    if not isinstance(bits, str) or not bits or bits.strip("01"):
        raise DimensionMismatch(f"{bits!r} is not a string of 0 and 1")
    if len(bits) > MAX_QUBITS:
        raise SizeLimit(f"n={len(bits)} exceeds the dense-size guard of {MAX_QUBITS} qubits")
    return int(bits, 2)


def basis_state(bits: str):
    """Computational basis vector |bits>, first character = qubit 0 (MSB)."""
    idx = basis_index(bits)
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[idx] = 1.0
    return vec


def basis_density(bits: str):
    """Density matrix |bits><bits| of a basis state, set by one entry, not by :func:`projector`."""
    idx = basis_index(bits)
    rho = np.zeros((2 ** len(bits), 2 ** len(bits)), dtype=complex)
    rho[idx, idx] = 1.0
    return rho


def projector(vec):
    """|vec><vec| = np.outer(vec, vec.conj()), dense for any ``vec``; see :func:`basis_density`."""
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def maximally_mixed(n: int):
    return np.eye(2**n, dtype=complex) / 2**n
