"""Local Hamiltonians, grouped spectra, Bohr frequencies and Bohr blocks."""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from weakref import WeakValueDictionary

import numpy as np
import scipy.sparse as sp

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

    ``eigenvalues`` holds the eigenvalues in ascending order and ``basis``
    their orthonormal eigenbasis V, or, when V is a permutation matrix, the
    permutation p with V[p[j], j] = 1 (:attr:`permutation`), as
    :func:`operators.herm_eig_basis` gives it for a diagonal H; the dense V
    is :attr:`eigenvectors`.  ``group_slices[g]`` are the columns of V that
    span energy group ``g``, whose mean eigenvalue is ``energies[g]``.  Group
    projectors are derived from V on demand (:meth:`group_projector`,
    :attr:`ground_projector`) rather than stored.  ``bohr_freqs`` is the
    deduplicated, sorted set of energy differences, closed under negation by
    construction; :meth:`bohr_at` files eigenvector pairs under the Bohr
    frequency of their groups, and :attr:`bohr_map` does so for all d x d
    pairs at once.  Matrices enter and leave the eigenbasis through
    :meth:`to_eig` and :meth:`from_eig`.
    """

    energies: np.ndarray
    bohr_freqs: np.ndarray
    spectral_gap: float
    bohr_gap: float
    group_tol: float
    eigenvalues: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    group_slices: tuple = field(repr=False)

    @property
    def dim(self):
        return len(self.eigenvalues)

    @cached_property
    def eigenvectors(self):
        """The eigenbasis V as a dense d x d array, read-only; a permutation V
        is formed from p on first read."""
        p = self.permutation
        if p is None:
            v = self.basis
        else:
            v = np.zeros((self.dim, self.dim), dtype=complex)
            v[p, np.arange(self.dim)] = 1.0
        v.flags.writeable = False
        return v

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
    def _group_bohr(self):
        """(group of each eigenvalue, g x g Bohr indices of the group pairs)."""
        groups = np.repeat(np.arange(len(self.group_slices)),
                           [sl.stop - sl.start for sl in self.group_slices])
        return groups, self.bohr_index(self.energies[:, None] - self.energies[None, :])

    def bohr_at(self, rows, cols):
        """The Bohr-index map F at the eigenvector pairs (rows, cols): F[i, j] = k
        for the pair (i, j) whose groups g, h have ``bohr_index(E_g - E_h) == k``."""
        groups, group_index = self._group_bohr
        return group_index[groups[rows], groups[cols]]

    @cached_property
    def bohr_map(self):
        """The d x d Bohr-index map F of :meth:`bohr_at`, every pair at once."""
        groups, group_index = self._group_bohr
        return group_index[groups[:, None], groups[None, :]]

    @property
    def permutation(self):
        """p with V[p[j], j] = 1 when V is a permutation matrix, else None:
        the ``basis`` that :func:`spectral_data` keeps for a diagonal H."""
        return self.basis if self.basis.ndim == 1 else None

    def to_eig(self, x):
        """V^dag x V over the last two axes of ``x``.

        For a permutation V this is the gather x[..., p, p]; adding 0.0 turns
        a -0.0 into the +0.0 that the product of the dense path yields, so
        both paths give the same bytes for finite ``x``.
        """
        p = self.permutation
        if p is None:
            v = self.eigenvectors
            return v.conj().T @ x @ v
        out = x[..., p[:, None], p]
        out += 0.0
        return out

    def from_eig(self, x, conj=False):
        """V x V^dag over the last two axes of ``x``; conj(V) x V^T with
        ``conj``.  For a permutation V, the scatter matching :meth:`to_eig`."""
        p = self.permutation
        if p is None:
            v = self.eigenvectors
            return v.conj() @ x @ v.T if conj else v @ x @ v.conj().T
        out = np.empty_like(x)
        out[..., p[:, None], p] = x
        out += 0.0
        return out


@dataclass
class BohrBlocks:
    """Decomposition A = sum_nu A_nu over Bohr frequencies of a Hamiltonian.

    ``entries`` are the nonzero entries (rows, cols, values), row-major, of
    A~ = V^dag A V in the eigenbasis V of ``sd`` with the entries of the
    dropped blocks left out, and ``entry_bohr`` their Bohr indices F: with
    M_nu the 0/1 mask of the eigenvector pairs filed under nu, A_nu =
    V (A~ o M_nu) V^dag.  ``eig`` is that masked A~ as a dense read-only
    d x d array, formed on first read.  The kept blocks are at ``freqs[p]`` =
    ``bohr_freqs[freq_indices[p]]``, indices ascending; blocks with
    ||A_nu||_2 <= drop_factor ||A||_2 are left out (see
    :func:`bohr_decompose`).  ``mats[p]`` is the dense A_nu, formed when it
    is read; it is kept only while a reader holds it, so readers that hold
    it share one array.
    """

    label: str
    freq_indices: np.ndarray  # indices into SpectralData.bohr_freqs
    freqs: np.ndarray
    entries: tuple = field(repr=False)
    entry_bohr: np.ndarray = field(repr=False)
    sd: SpectralData = field(repr=False)
    _formed: WeakValueDictionary = field(default_factory=WeakValueDictionary,
                                         repr=False, compare=False)

    @cached_property
    def eig(self):
        eig = ops.from_entries(self.entries, self.sd.dim)
        eig.flags.writeable = False
        return eig

    @property
    def mats(self):
        return _DenseBlocks(self)

    def items(self):
        return zip(self.freqs, self.mats)

    def total(self):
        return self.sd.from_eig(self.eig)


class _DenseBlocks(Sequence):
    """The dense blocks V (A~ o M_nu) V^dag of a :class:`BohrBlocks`, each
    formed when it is read unless a reader still holds it: from the entries
    of A~ filed under nu, scattered through p for a permutation V."""

    def __init__(self, blocks):
        self._blocks = blocks

    def __len__(self):
        return len(self._blocks.freq_indices)

    def __getitem__(self, p):
        blocks = self._blocks
        k = int(blocks.freq_indices[p])
        mat = blocks._formed.get(k)
        if mat is None:
            sd, (rows, cols, vals) = blocks.sd, blocks.entries
            sel = blocks.entry_bohr == k
            block, r, c = _compact_block(vals[sel], rows[sel], cols[sel], sd.dim)
            perm = sd.permutation
            if perm is None:
                v = sd.eigenvectors
                mat = v[:, r] @ block @ np.ascontiguousarray(v[:, c].conj().T)
            else:  # V B V^dag for V[perm[j], j] = 1, +0.0 as the product gives it
                mat = np.zeros((sd.dim, sd.dim), dtype=complex)
                mat[perm[r][:, None], perm[c]] = block + 0.0
            blocks._formed[k] = mat
        return mat


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
        rows, cols, vals = ops.embedded_entries(op, sites, n)
        dense[rows, cols] += vals  # the embedding's other entries are zeros
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
    w, basis = ops.herm_eig_basis(dense)
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
        eigenvalues=w,
        basis=basis,
        group_slices=tuple(slices),
    )


def _compact(idx, dim):
    """Sorted distinct values of ``idx`` (all in range(dim)) and each
    entry's position among them."""
    present = np.zeros(dim, dtype=bool)
    present[idx] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[idx]


def _compact_block(a_eig, rows, cols, dim):
    """The entries of ``a_eig`` at (rows, cols), on the rows r and columns c
    where one is nonzero: (block, r, c) with a_eig o M = embed(block).  A 1-d
    ``a_eig`` holds those entries' values already."""
    vals = a_eig[rows, cols] if a_eig.ndim == 2 else a_eig
    hit = vals != 0  # exactly-zero entries add nothing to V B V^dag
    r, r_at = _compact(rows[hit], dim)
    c, c_at = _compact(cols[hit], dim)
    block = np.zeros((len(r), len(c)), dtype=complex)
    block[r_at, c_at] = vals[hit]
    return block, r, c


def bohr_decompose(a_mat, sd: SpectralData, label: str = "", drop_factor=1e-12,
                   norm=None, entries=None):
    """Decompose ``a_mat`` into blocks A_nu = sum_{E2-E1=nu} P_{E2} A P_{E1}.

    The blocks are kept in the eigenbasis V of ``sd``: with A~ = V^dag A V
    and the 0/1 mask M_nu that covers every eigenvector pair whose energy
    groups differ by the Bohr frequency nu, A_nu = V (A~ o M_nu) V^dag.
    That is one transform per jump instead of g^2 projector sandwiches; the
    result stores the nonzero entries of A~ in the kept blocks and forms no
    A_nu.  For a permutation V, A~[i, j] = A[p[i], p[j]], so the entries of A
    (``entries`` when the caller has them, else read from ``a_mat``, which may
    be ``scipy.sparse``) are mapped through the inverse of p and no d x d
    array is formed; otherwise A~ is the dense product.

    A block is kept when ||A_nu||_2 > drop_factor * ||A||_2.  The spectral
    norm is unitarily invariant, so it is that of the masked A~, and it lies
    between ||A_nu||_F / sqrt(d) and ||A_nu||_F.  Every block's Frobenius
    norm is one ``np.bincount`` of |A~|^2 over the Bohr map F at A~'s
    nonzeros; it decides each block outside the band that
    :func:`operators.spectral_norm_exceeds` widens by ``NORM_BAND_SLACK``,
    and only a block inside it is decided by that function on its compact
    entries.  ``norm`` is ||A||_2 when the caller has it already.
    """
    if sp.issparse(a_mat):
        a_mat = sp.csr_array(a_mat, dtype=complex)
    else:
        a_mat = np.asarray(a_mat, dtype=complex)
    dim = sd.dim
    if a_mat.shape != (dim, dim):
        raise DimensionMismatch(
            f"operator shape {a_mat.shape} does not match dimension {dim}"
        )
    if norm is None:
        norm = ops.operator_norm(ops.as_dense(a_mat))
    cutoff = drop_factor * max(norm, 1e-300)
    p = sd.permutation
    if p is None:
        a_eig = sd.to_eig(ops.as_dense(a_mat))
        keys = np.flatnonzero(a_eig != 0)  # row-major flat indices of the nonzeros
        vals = a_eig.ravel()[keys]
        f = sd.bohr_map.ravel()[keys]
    else:
        inv = np.empty_like(p)
        inv[p] = np.arange(dim)
        a_rows, a_cols, a_vals = ops.entries(a_mat) if entries is None else entries
        keys = inv[a_rows] * dim + inv[a_cols]
        order = np.argsort(keys)
        keys, vals = keys[order], a_vals[order] + 0.0  # as to_eig writes it
        f = sd.bohr_at(*divmod(keys, dim))
    fro = np.sqrt(np.bincount(f, vals.real**2 + vals.imag**2, len(sd.bohr_freqs)))
    keep = fro > math.sqrt(dim) * cutoff * (1.0 + ops.NORM_BAND_SLACK)
    for k in np.flatnonzero(~keep & (fro > cutoff * (1.0 - ops.NORM_BAND_SLACK))).tolist():
        sel = f == k
        keep[k] = ops.spectral_norm_exceeds(
            _compact_block(vals[sel], *divmod(keys[sel], dim), dim)[0], cutoff)
    hit = keep[f]
    kept_entries = (*divmod(keys[hit], dim), vals[hit])
    for arr in kept_entries:
        arr.flags.writeable = False
    kept = np.flatnonzero(keep)
    return BohrBlocks(
        label=label,
        freq_indices=kept.astype(int),
        freqs=sd.bohr_freqs[kept],
        entries=kept_entries,
        entry_bohr=f[hit],
        sd=sd,
    )
