"""Local Hamiltonians, grouped spectra, Bohr frequencies and Bohr blocks."""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import operators as ops
from .errors import DimensionMismatch, GroupingUnstable, NotHermitian, SizeLimit

DEFAULT_GROUP_TOL_FACTOR = 1e-8


@dataclass(frozen=True)
class LocalHamiltonian:
    """A Hamiltonian given as a sum of few-qubit Hermitian terms.

    ``norm_bound`` is the sum of the term norms, a safe upper bound on
    ||H|| used by descent step-size rules.
    """

    n: int
    terms: tuple
    dense: np.ndarray
    norm_bound: float


@dataclass(frozen=True)
class SpectralData:
    """Grouped spectrum of a Hermitian operator.

    ``eigenvectors`` holds the orthonormal eigenbasis V, eigenvalues
    ascending, and ``group_slices[g]`` the columns of V that span energy
    group ``g``, whose mean eigenvalue is ``energies[g]``.  Group
    projectors are derived from V on demand (:meth:`group_projector`,
    :attr:`ground_projector`) rather than stored.
    ``bohr_freqs`` is the deduplicated, sorted set of energy differences,
    closed under negation by construction; :attr:`bohr_pairs` files every
    eigenvector pair under the Bohr frequency of its groups, once per
    spectrum, for :func:`bohr_decompose`.
    """

    energies: np.ndarray
    bohr_freqs: np.ndarray
    spectral_gap: float
    bohr_gap: float
    group_tol: float
    eigenvectors: np.ndarray = field(repr=False)
    group_slices: tuple = field(repr=False)

    def group_projector(self, g):
        """Orthogonal projector onto the eigenspace of group ``g``."""
        block = self.eigenvectors[:, self.group_slices[g]]
        return block @ block.conj().T

    @property
    def ground_projector(self):
        return self.group_projector(0)

    @property
    def ground_energy(self):
        return float(self.energies[0])

    def bohr_index(self, nu):
        """Index of the Bohr frequency nearest to ``nu``, the lower one on a
        tie; elementwise for an array.

        ``bohr_freqs`` is sorted, so only the two neighbours of the insertion
        point of ``nu`` can be nearest: this is ``argmin |bohr_freqs - nu|``
        without the array of all distances.
        """
        freqs = self.bohr_freqs
        nu = np.asarray(nu, dtype=float)
        hi = np.minimum(np.searchsorted(freqs, nu), len(freqs) - 1)
        lo = np.maximum(hi - 1, 0)
        k = np.where(np.abs(freqs[hi] - nu) < np.abs(freqs[lo] - nu), hi, lo)
        return int(k) if k.ndim == 0 else k

    @cached_property
    def bohr_pairs(self):
        """Eigenvector index pairs grouped by Bohr frequency.

        A list of ``(k, rows, cols)``, k ascending over the Bohr indices that
        some pair of groups reaches: (rows[q], cols[q]) runs over the
        eigenvector pairs whose groups i, j have ``bohr_index(E_i - E_j) == k``.
        Every pair appears exactly once.
        """
        group_index = self.bohr_index(self.energies[:, None] - self.energies[None, :])
        groups = np.repeat(np.arange(len(self.group_slices)),
                           [sl.stop - sl.start for sl in self.group_slices])
        flat = group_index[groups[:, None], groups[None, :]].ravel()
        order = np.argsort(flat, kind="stable")
        keys, starts = np.unique(flat[order], return_index=True)
        return [(k, *np.divmod(entries, len(groups)))
                for k, entries in zip(keys.tolist(), np.split(order, starts[1:]))]


@dataclass
class BohrBlocks:
    """Decomposition A = sum_nu A_nu over Bohr frequencies of a Hamiltonian.

    ``mats[p]`` is the dense block A_nu at ``freqs[p]`` =
    ``bohr_freqs[freq_indices[p]]``, indices ascending; blocks with
    ||A_nu||_2 <= drop_factor ||A||_2 are left out (see
    :func:`bohr_decompose`).
    """

    label: str
    freq_indices: np.ndarray  # indices into SpectralData.bohr_freqs
    freqs: np.ndarray
    mats: list = field(repr=False)

    def items(self):
        return zip(self.freqs, self.mats)

    def total(self):
        out = np.zeros_like(self.mats[0])
        for m in self.mats:
            out = out + m
        return out


def assemble(terms, n: int) -> LocalHamiltonian:
    """Build a dense Hamiltonian from (matrix, sites) terms on ``n`` qubits."""
    if n > ops.MAX_QUBITS:
        raise SizeLimit(f"n={n} exceeds the dense-size guard of {ops.MAX_QUBITS}")
    dense = np.zeros((2**n, 2**n), dtype=complex)
    norm_bound = 0.0
    kept = []
    for op, sites in terms:
        op = np.asarray(op, dtype=complex)
        if ops.hermiticity_defect(op) > 1e-10 * max(ops.operator_norm(op), 1e-300):
            raise NotHermitian(f"term on sites {tuple(sites)} is not Hermitian")
        dense += ops.kron_embed(op, sites, n)
        norm_bound += ops.operator_norm(op)
        kept.append((op, tuple(sites)))
    return LocalHamiltonian(n=n, terms=tuple(kept), dense=dense, norm_bound=norm_bound)


def build_ising_chain(n: int, h: float, periodic: bool = True, j_scale: float = 1.0):
    """Ferromagnetic chain H = -J sum Z_j Z_{j+1} - J h sum Z_j."""
    if n < 2:
        raise SizeLimit("the Ising chain needs at least 2 sites")
    zz = -j_scale * np.kron(ops.PAULI["Z"], ops.PAULI["Z"])
    terms = [(zz, (j, j + 1)) for j in range(n - 1)]
    if periodic:
        terms.append((zz, (n - 1, 0)))
    if h != 0.0:
        z = -j_scale * h * ops.PAULI["Z"]
        terms.extend((z, (j,)) for j in range(n))
    return assemble(terms, n)


def _cluster_sorted(values, tol):
    """Group a sorted 1d array into runs separated by gaps > tol."""
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            groups.append(slice(start, i))
            start = i
    return groups


def spectral_data(ham, group_tol=None) -> SpectralData:
    """Grouped eigendecomposition with Bohr frequencies and gaps.

    Eigenvalues are grouped by the transitive closure of
    ``|l_i - l_j| <= group_tol``; a :class:`GroupingUnstable` error is
    raised when two group means are within ``3 * group_tol`` (ambiguous
    clustering).
    """
    dense = ham.dense if isinstance(ham, LocalHamiltonian) else np.asarray(ham)
    w, v = ops.herm_eig(dense)
    scale = max(np.max(np.abs(w)), 1e-300) if len(w) else 1.0
    if group_tol is None:
        group_tol = DEFAULT_GROUP_TOL_FACTOR * scale
    if group_tol <= 0:
        raise ValueError("group_tol must be positive")

    slices = _cluster_sorted(w, group_tol)
    energies = np.array([float(np.mean(w[s])) for s in slices])
    for a, b in zip(energies[:-1], energies[1:]):
        if b - a <= 3 * group_tol:
            raise GroupingUnstable(
                f"group energies {a} and {b} are within 3*group_tol={3 * group_tol:.3e}"
            )
    # Bohr frequencies: cluster the nonnegative differences, then mirror so
    # the set is exactly closed under negation.
    diffs = (energies[:, None] - energies[None, :]).ravel()
    pos = np.sort(diffs[diffs > group_tol])
    pos_freqs = []
    if len(pos):
        for s in _cluster_sorted(pos, group_tol):
            pos_freqs.append(float(np.mean(pos[s])))
    pos_freqs = np.array(pos_freqs)
    bohr = np.concatenate([-pos_freqs[::-1], [0.0], pos_freqs])

    if len(energies) > 1:
        spectral_gap = float(np.min(np.diff(energies)))
    else:
        spectral_gap = math.inf
    if len(bohr) > 1:
        bohr_gap = float(np.min(np.diff(bohr)))
    else:
        bohr_gap = math.inf
    return SpectralData(
        energies=energies,
        bohr_freqs=bohr,
        spectral_gap=spectral_gap,
        bohr_gap=bohr_gap,
        group_tol=float(group_tol),
        eigenvectors=v,
        group_slices=tuple(slices),
    )


def _compact(idx, dim):
    """Sorted distinct values of ``idx`` (all in range(dim)) and each
    entry's position among them."""
    present = np.zeros(dim, dtype=bool)
    present[idx] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[idx]


def bohr_decompose(a_mat, sd: SpectralData, label: str = "", drop_factor=1e-12,
                   norm=None):
    """Decompose ``a_mat`` into blocks A_nu = sum_{E2-E1=nu} P_{E2} A P_{E1}.

    The blocks are built in the eigenbasis V of ``sd``: with A~ = V^dag A V
    and the 0/1 mask M_nu that covers every eigenvector pair whose energy
    groups differ by the Bohr frequency nu, A_nu = V (A~ o M_nu) V^dag.
    That is one transform per jump plus one product per block, restricted
    to the rows and columns where A~ o M_nu is nonzero, instead of g^2
    projector sandwiches.

    A block is kept when ||A_nu||_2 > drop_factor * ||A||_2.  The spectral
    norm is unitarily invariant, so it is that of the masked A~, which
    :func:`operators.spectral_norm_exceeds` decides from the Frobenius norm
    unless that lands in the band where only an SVD can tell.  ``norm`` is
    ||A||_2 when the caller has it already.
    """
    a_mat = np.asarray(a_mat, dtype=complex)
    v = sd.eigenvectors
    dim = v.shape[0]
    if a_mat.shape != (dim, dim):
        raise DimensionMismatch(
            f"operator shape {a_mat.shape} does not match dimension {dim}"
        )
    if norm is None:
        norm = ops.operator_norm(a_mat)
    cutoff = drop_factor * max(norm, 1e-300)
    vdag = v.conj().T
    a_eig = vdag @ a_mat @ v
    kept, mats = [], []
    for k, rows, cols in sd.bohr_pairs:
        vals = a_eig[rows, cols]
        hit = vals != 0  # exactly-zero entries add nothing to V B V^dag
        r, r_at = _compact(rows[hit], dim)
        c, c_at = _compact(cols[hit], dim)
        block = np.zeros((len(r), len(c)), dtype=complex)
        block[r_at, c_at] = vals[hit]
        if ops.spectral_norm_exceeds(block, cutoff):
            kept.append(k)
            mats.append(v[:, r] @ block @ vdag[c])
    return BohrBlocks(
        label=label,
        freq_indices=np.array(kept, dtype=int),
        freqs=sd.bohr_freqs[kept],
        mats=mats,
    )
