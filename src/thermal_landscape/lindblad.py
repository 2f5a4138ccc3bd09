"""Thermal Lindbladians assembled from Bohr blocks and bath kernels.

The continuous frequency integral in the dissipative part collapses onto
the discrete Bohr frequencies of the Hamiltonian, leaving scalar kernel
weights C(nu', nu); the operator structure is exact and only the kernel
values carry quadrature error.  The Davies (tau -> infinity) limit keeps
the diagonal weights gamma(nu) only.

The eigenbasis V of H is a model's one frame.  From the nonzero entries
of A~ = V^dag A V, masked to the jump's kept Bohr blocks, their Bohr
indices F and the kernel table indexed by F (diag(gamma(nu)) for a Davies
model), one expression per operator covers every pair of Bohr blocks.  Each
jump's sparse dissipator D~_a, Lamb shift H~_LS,a and gradient entries are
cached there.  One apply (:func:`_eig_apply`) reads D~_a with the
commutator of M~ = -i sum_a w_a H~_LS,a - i Lambda, and one guarded step
(:func:`_eig_step`) evolves a state there.  The computational basis is
reached only at the public boundary: :func:`evolve`'s input and output,
:func:`lamb_shift_operator`, the gradient operators and the states that the
gradient scan reads (by index for a permutation V).  Descent runs in
V, in real Hermitian coordinates (:class:`ZeroFrequencySector`) by energy
group or as one group of all d levels, or else on vec(V^dag rho V).
"""

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zpotrf as _zpotrf

from . import bath as bath_mod
from . import operators as ops
from .bath import BathCorrelation, BathSpec, KernelTable, build_kernel_table
from .errors import (
    DimensionMismatch,
    DuplicateJumpLabel,
    EvolutionDefect,
    JumpNotNormalized,
    JumpSetNotClosed,
    LambHermiticityDefect,
    NegativeTime,
    NegativeWeight,
    PositivityDefect,
    UnknownJump,
)
from .hamiltonian import LocalHamiltonian, SpectralData, bohr_decompose, spectral_data

logger = logging.getLogger(__name__)

TAYLOR_TOL = 1e-9  # trace-norm budget of one evolve() call
TAYLOR_STOP = 0.1  # a series stops once its next-term bound is below this share of the budget
MAX_TAYLOR_TERMS = 60
FLOOR = -1e-6  # the least eigenvalue an evolved state may have
DEFECT_TOL = 1e-7  # the Hermiticity or trace defect an evolved state may have
MAX_TIME = 10.0  # the largest s ||w||_1 of one evolve() call
SECTOR_TOL = 1e-12  # off-sector Frobenius mass still counted as in the sector
SECTOR_MAX_ENTRIES = 2**20  # largest sum_g d_g^2 * d^2 for which a sector is built
REAL_FORM_TOL = 1e-12  # anti-Hermitian image of a real sector generator, relative
# terms of one _gather chunk of whole rows, or of one longer row alone, which has
# at most nnz(right) terms; also the pairs of one chunk of D~_a's jump part
GATHER_BLOCK = 2**20
_SQRT_HALF = math.sqrt(0.5)


@dataclass
class Jump:
    """A jump operator A as given (a dense array, or a ``scipy.sparse`` CSR
    array kept as its entries), its Bohr blocks and ||A^dag A||_2."""

    label: str
    given: object = field(repr=False)
    blocks: object
    aa_norm: float

    @property
    def matrix(self):
        """A as a dense array; a sparse jump is densified on each read."""
        return ops.as_dense(self.given)


@dataclass
class LindbladModel:
    """A Hamiltonian with jump operators and their weights: the kernel table
    ``kernels`` at finite tau, or in the Davies limit ``davies_weights``, gamma
    at every Bohr frequency of ``sd`` (the other is None), and cached data."""

    ham: LocalHamiltonian
    sd: SpectralData
    jumps: list
    kernels: KernelTable | None
    davies_weights: np.ndarray | None
    include_lamb_shift: bool
    include_coherent: bool
    _dissipators: dict = field(default_factory=dict, repr=False)
    _lamb_eigs: dict = field(default_factory=dict, repr=False)
    _gradient_eigs: dict = field(default_factory=dict, repr=False)
    _sectors: dict = field(default_factory=dict, repr=False)
    _scan: object = field(default=None, repr=False)

    @property
    def dim(self):
        return self.sd.dim

    @property
    def davies(self):
        return self.davies_weights is not None

    @property
    def jump_labels(self):
        return [j.label for j in self.jumps]

    def jump(self, label) -> Jump:
        return self.jumps[self.jump_index(label)]

    def jump_index(self, label) -> int:
        for i, j in enumerate(self.jumps):
            if j.label == label:
                return i
        raise UnknownJump(f"no jump labelled {label!r}")

    def energy(self, rho):
        """Re Tr(H rho), read through the model's gradient scan (which the
        first call builds); ``rho`` may be a bit string, for |bits><bits|."""
        from .gradient import gradient_scan  # the gradient module imports this one

        return float(gradient_scan(self)(rho)[-1])

    def _pair_weight(self, left, right):
        """C'[left, right] for arrays of Bohr indices: the weight of the pair
        (A_nu', A_nu) with nu' at ``left`` and nu at ``right``, looked up
        as computed: the overlap kernel C(nu', nu) at finite tau, and in the
        Davies limit gamma(nu) on the diagonal nu' = nu and zero off it.
        Exact zeros (gamma at beta = infinity above zero frequency) are
        skipped by the callers; no m x m table is formed for a Davies model.
        """
        if self.davies:
            return np.where(left == right, self.davies_weights[left], 0.0)
        return self.kernels.C[left, right]

    def _lamb_weight(self, left, right):
        """K[left, right]: the Lamb kernel for arrays of Bohr indices."""
        return self.kernels.K[left, right]

    def _decay_entries(self, blocks):
        """G in the eigenbasis, as entries: G~[a, b] = sum_i conj(A~[i, a])
        A~[i, b] C'[F[i, a], F[i, b]], which is sum C(nu', nu) A_nu'^dag A_nu,
        gathered from the masked A~ of ``blocks``."""
        a, f = blocks.entries, blocks.entry_bohr
        return _gather(*_adjoint(a, f), a, f, self._pair_weight, self.dim)

    def _lamb_eig(self, label):
        """H~_LS,a = V^dag H_LS,a V: the Lamb shift of jump ``label`` in the
        eigenbasis, Hermitized after a defect check and cached per jump.

        With A~ the masked V^dag A V whose entries set-up stores, F the
        Bohr-index map and K the Lamb kernel,

            H~[a, b] = sum_i A~[a, i] A~[i, b] K[F[a, i], F[i, b]].

        The spectral norm is unitarily invariant, so the Hermiticity defect
        of H~ is that of H_LS,a, checked against 1e-6 ||A^dag A||.
        """
        if label not in self._lamb_eigs:
            jump = self.jump(label)
            a, f = jump.blocks.entries, jump.blocks.entry_bohr
            raw = ops.from_entries(_gather(a, f, a, f, self._lamb_weight, self.dim), self.dim)
            defect = ops.hermiticity_defect(raw)
            bound = 1e-6 * max(jump.aa_norm, 1e-300)
            if defect > bound:
                raise LambHermiticityDefect(f"Lamb shift of jump {label!r} has Hermiticity "
                                            f"defect {defect:.3e} > {bound:.3e}")
            self._lamb_eigs[label] = 0.5 * (raw + raw.conj().T)
        return self._lamb_eigs[label]

    def _gradient_entries(self, label):
        """L^dag_a[H] in the eigenbasis, before Hermitization, as its nonzero
        entries (rows, cols, values), row-major; cached per jump, the model's
        one store of gradients.

        With lambda the eigenvalues of H (not the group energies), A~ the
        masked V^dag A V (``BohrBlocks.eig``), F the Bohr-index map and C'
        the pair weights of :meth:`_pair_weight`,

            X~[a, b] = sum_i conj(A~[i, a]) A~[i, b] C'[F[i, a], F[i, b]]
                           (lambda_i - (lambda_a + lambda_b) / 2)
                       + i H~_LS[a, b] (lambda_b - lambda_a),

        which is sum C(nu', nu) A_nu'^dag H A_nu - {G, H}/2 + i [H_LS, H]
        there, G~ being the same sum without the lambda factor.  No d x d
        array is formed unless the Lamb shift adds its dense term.
        """
        if label not in self._gradient_eigs:
            blocks = self.jump(label).blocks
            a, f = blocks.entries, blocks.entry_bohr
            lam = self.sd.eigenvalues
            rows, cols, vals = _gather(*_adjoint(a, f), a, f, self._pair_weight, self.dim, lam)
            if self.include_lamb_shift:
                out = ops.from_entries((rows, cols, vals), self.dim)
                out += 1j * (lam - lam[:, None]) * self._lamb_eig(label)
                entries = ops.entries(out)
            else:
                hit = vals != 0
                entries = rows[hit], cols[hit], vals[hit]
            self._gradient_eigs[label] = entries
        return self._gradient_eigs[label]

    def _dissipator_eig(self, label):
        """D~_a: the dissipator of jump ``label`` in the eigenbasis, CSR over
        row-major vec, row (i, j) and column (k, l).  With A~ the masked
        V^dag A V, F the Bohr-index map, C' of :meth:`_pair_weight` and G~ of
        :meth:`_decay_entries` (Hermitian, so conj(G~) = G~^T),

            D~[(i, j), (k, l)] = C'[F[j, l], F[i, k]] A~[i, k] conj(A~[j, l])
                                 - (G~[i, k] delta_jl + delta_ik conj(G~[j, l])) / 2,

        which is sum C(nu', nu) A_nu (.) A_nu'^dag - {G, .}/2 there.  The
        jump part pairs every two stored nonzeros of A~, ``GATHER_BLOCK``
        pairs at a time, and keeps those of nonzero weight (for a Davies
        model, F[i, k] = F[j, l]); the decay part places each nonzero
        -G~[i, k]/2 at ((i, j), (k, j)) and its conjugate at ((j, i), (j, k))
        for every j; entries at one position are summed.  It is read only by
        :func:`_eig_apply` and the sector's column gather.
        """
        if label not in self._dissipators:
            d = self.dim
            blocks = self.jump(label).blocks
            (row, col, vals), freq = blocks.entries, blocks.entry_bohr
            g_rows, g_cols, g_vals = self._decay_entries(blocks)
            g_vals = -0.5 * g_vals
            hit = g_vals != 0
            i, k = g_rows[hit], g_cols[hit]
            g_vals = np.broadcast_to(g_vals[hit], (d, len(i)))
            j = np.arange(d)[:, None]
            terms = [(np.concatenate(((i * d + j).ravel(), (j * d + i).ravel())),
                      np.concatenate(((k * d + j).ravel(), (j * d + k).ravel())),
                      np.concatenate((g_vals.ravel(), g_vals.conj().ravel())))]
            step = max(1, GATHER_BLOCK // max(len(vals), 1))
            for start in range(0, len(vals), step):
                ik = slice(start, start + step)  # these nonzeros (i, k), paired with every (j, l)
                w = self._pair_weight(freq[None, :], freq[ik, None])
                keep = w != 0
                terms.append(((row[ik, None] * d + row)[keep], (col[ik, None] * d + col)[keep],
                              (w * vals[ik, None] * vals.conj())[keep]))
            rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
            self._dissipators[label] = sp.csr_array((vals, (rows, cols)), shape=(d * d, d * d))
        return self._dissipators[label]

    def _dissipator(self, label):
        """D_a of jump ``label``, its ``apply`` and ``apply_adjoint`` read
        through :func:`_eig_apply` with neither commutator."""
        terms = _eig_terms(self, weight_vector(self, label=label), False, False)
        return SimpleNamespace(apply=partial(_apply_dense, self.sd, terms, adjoint=False),
                               apply_adjoint=partial(_apply_dense, self.sd, terms, adjoint=True))


def _gather(left, f_left, right, f_right, weight, d, lam=None):
    """sum_i left[a, i] right[i, b] weight(f_left[a, i], f_right[i, b]),
    each term times lam[i] - (lam[a] + lam[b]) / 2 when ``lam`` is given, as
    entries (rows, cols, values), row-major, at every (a, b) some term reaches.

    ``left`` and ``right`` are the row-major nonzero entries (rows, cols,
    values) of two d x d matrices, and ``f_left``, ``f_right`` their Bohr
    indices; ``weight`` maps two arrays of Bohr indices to the kernel entries.
    Each entry (a, i) of ``left`` is paired with each entry (i, b) of
    ``right``, in chunks of whole rows a: as many rows as fit in
    ``GATHER_BLOCK`` terms, or one row alone when it is longer.  The entries
    of one row of ``left`` have distinct columns i, so a row has at most
    nnz(``right``) terms, and a chunk at most max(``GATHER_BLOCK``,
    nnz(``right``)).  No key a d + b spans two chunks: ``np.bincount`` sums
    each key's terms, the real and imaginary parts apart, in term order from
    0.0, so each value is the sum of its terms in order, whatever the chunk
    size, and the chunks come out row-major.
    """
    la, li, lval = left
    ri, rb, rval = right
    count = np.bincount(ri, minlength=d)
    first = np.cumsum(count) - count  # row i of right is rb[first[i]:][:count[i]]
    per = count[li]  # terms of each entry of left
    cum = np.concatenate(([0], np.cumsum(per)))  # terms before each entry of left
    row_at = np.searchsorted(la, np.arange(d + 1))  # the first entry of each row a
    before = cum[row_at]  # terms before each row a
    keys, sums = [], []
    a0 = 0
    while a0 < d:
        a1 = max(int(np.searchsorted(before, before[a0] + GATHER_BLOCK, side="right")) - 1,
                 a0 + 1)
        lo, hi = row_at[a0], row_at[a1]
        owner = np.repeat(np.arange(lo, hi), per[lo:hi])
        # term t of the chunk is term t + cum[lo] - cum[owner] of its owner
        pos = first[li[owner]] + np.arange(cum[lo], cum[hi]) - cum[owner]
        a, i, b = la[owner], li[owner], rb[pos]
        w = weight(f_left[owner], f_right[pos])
        if lam is not None:
            w = w * (lam[i] - 0.5 * (lam[a] + lam[b]))
        key, at = np.unique(a * d + b, return_inverse=True)
        terms = lval[owner] * (rval[pos] * w)
        key_sums = np.empty(len(key), dtype=complex)
        key_sums.real = np.bincount(at, terms.real, len(key))
        key_sums.imag = np.bincount(at, terms.imag, len(key))
        keys.append(key)
        sums.append(key_sums)
        a0 = a1
    rows, cols = divmod(np.concatenate(keys), d)
    return rows, cols, np.concatenate(sums)


def _adjoint(entries, bohr):
    """The row-major entries of A^dag, and their Bohr indices, from those of A."""
    rows, cols, vals = entries
    order = np.argsort(cols, kind="stable")
    return (cols[order], rows[order], vals[order].conj()), bohr[order]


def _eig_terms(model: LindbladModel, w, lamb, coherent):
    """The terms of sum_a w_a L~_a for :func:`_eig_apply`: the (w_a, D~_a) of
    the nonzero weights, M~'s Lamb part -i sum_a w_a H~_LS,a (with ``lamb``,
    on a model with the Lamb shift; else None), and for its coherent part
    -i Lambda (with ``coherent``; else None) the -i (lambda_i - lambda_j) by
    which it multiplies X~[i, j], Lambda = diag(lambda) being H there."""
    active = [(float(wa), jump.label) for wa, jump in zip(w, model.jumps) if wa != 0.0]
    m = None
    if lamb and model.include_lamb_shift and active:
        m = np.zeros((model.dim, model.dim), dtype=complex)
        for wa, label in active:
            m -= (1j * wa) * model._lamb_eig(label)
    lam = model.sd.eigenvalues
    return ([(wa, model._dissipator_eig(label)) for wa, label in active], m,
            -1j * (lam[:, None] - lam) if coherent else None)


def _eig_apply(terms, x, adjoint):
    """X~ -> sum_a w_a D~_a X~ + M~ X~ + X~ M~^dag for the row-major vec
    ``x`` of a d x d eigenbasis matrix X~ and the :func:`_eig_terms` of
    sum_a w_a L~_a, or with ``adjoint`` its adjoint, X~ -> sum_a w_a
    D~_a^dag X~ + M~^dag X~ + X~ M~.  It is the one reader of every D~_a but
    the sector's column gather."""
    dissipators, m, phase = terms
    out = np.zeros_like(x)
    for wa, mat in dissipators:
        y = mat.T.dot(x.conj()).conj() if adjoint else mat.dot(x)
        out += y if wa == 1.0 else wa * y
    d = math.isqrt(len(x))
    x_mat, out_mat = x.reshape(d, d), out.reshape(d, d)
    if m is not None:
        left = m.conj().T if adjoint else m
        out_mat += left @ x_mat + x_mat @ left.conj().T
    if phase is not None:
        out_mat += (phase.conj() if adjoint else phase) * x_mat
    return out


def _square(x, d):
    """``x`` as a complex array, which must be d x d."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (d, d):
        raise DimensionMismatch(f"shape {x.shape} does not match dimension {d}")
    return x


def _apply_dense(sd, terms, x, adjoint):
    """:func:`_eig_apply` of ``terms`` on the d x d matrix ``x``: V X~ V^dag
    with X~ the apply's image of V^dag x V."""
    d = sd.dim
    vec = sd.to_eig(_square(x, d)).reshape(-1)
    return sd.from_eig(_eig_apply(terms, vec, adjoint=adjoint).reshape(d, d))


def _as_jump_list(jumps):
    """(label, matrix) pairs: a dense complex array, or a ``scipy.sparse``
    jump as a complex CSR array in canonical form."""
    out = []
    for label, mat in jumps:
        if sp.issparse(mat):
            mat = sp.csr_array(mat, dtype=complex, copy=True)
            mat.sum_duplicates()
        else:
            mat = np.asarray(mat, dtype=complex)
        out.append((str(label), mat))
    return out


def _jump_entries(label, m, dim):
    """:func:`operators.entries` of jump ``m``, after its shape is checked."""
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"jump {label!r} has shape {m.shape}, expected {(dim, dim)}")
    return ops.entries(m)


def _check_jump_set(jumps, dim, entries=None):
    """Validate shapes, ||A^dag A|| <= 1 and closure under the adjoint.

    Returns each jump's (||A||_2, ||A^dag A||_2).  ``entries`` are the jumps'
    :func:`_jump_entries` when the caller has them.  When every row of A has
    at most one nonzero, as for Pauli, clock and sigma+- jumps, ||A^dag A||_2
    is the largest squared column norm of A, with no product formed, and A
    is closed when such a jump has exactly A^dag's (row, column, value)
    pattern; a ``scipy.sparse`` jump is read so without densifying it.
    Otherwise ||A^dag A||_2 is one SVD of A^dag A; failing a pattern
    match, A^dag is matched to a jump B when ||A^dag - B||_2 <= 1e-10 ||A||_2
    by :func:`operators.spectral_norm_exceeds` (no SVD for a clear match or
    mismatch), A itself first.
    """
    def key(rows, cols, vals):  # the exact pattern, -0.0 read as +0.0
        return rows.tobytes(), cols.tobytes(), (vals + 0.0).tobytes()
    if entries is None:
        entries = [_jump_entries(label, m, dim) for label, m in jumps]
    patterns = [None if np.any(rows[1:] == rows[:-1]) else (rows, cols, vals)
                for rows, cols, vals in entries]
    keys, norms = {key(*p) for p in patterns if p is not None}, []
    for (label, m), pattern in zip(jumps, patterns):
        if pattern is not None:
            rows, cols, vals = pattern
            aa = float(np.max(np.bincount(cols, vals.real**2 + vals.imag**2, dim), initial=0.0))
            order = np.argsort(cols)
            adjoint = key(cols[order], rows[order], vals[order].conj())
        else:
            dense = ops.as_dense(m)
            aa = ops.operator_norm(dense.conj().T @ dense)
        if not aa <= 1.0 + 1e-9:
            raise JumpNotNormalized(f"jump {label!r} has ||A^dag A|| = {aa:.6f} > 1")
        norms.append((math.sqrt(aa), aa))
        if pattern is not None and adjoint in keys:
            continue
        adj, tol = ops.as_dense(m).conj().T, 1e-10 * max(norms[-1][0], 1e-300)
        if all(ops.spectral_norm_exceeds(adj - ops.as_dense(other), tol)
               for other in [m] + [other for _, other in jumps if other is not m]):
            raise JumpSetNotClosed(f"adjoint of jump {label!r} is missing from the jump set")
    return norms


def build_model(
    ham: LocalHamiltonian,
    jumps,
    bath: BathSpec | None = None,
    *,
    davies: bool = False,
    beta_infinite: bool = False,
    beta_cap: float = 1e6,
    include_lamb_shift: bool | None = None,
    include_coherent: bool = False,
) -> LindbladModel:
    """Assemble a :class:`LindbladModel` from a Hamiltonian and jumps.

    ``jumps`` is a list of ``(label, matrix)`` pairs with distinct labels,
    each matrix dense or ``scipy.sparse`` (kept as its entries); a repeated
    label raises :class:`DuplicateJumpLabel`.  The set must be closed under
    Hermitian conjugation and each jump must satisfy ``||A^dag A|| <= 1``.
    With ``davies=True`` (or ``beta_infinite``) the exact Bohr-frequency
    limit is used: no kernel table is built, and gamma of ``bath`` (at
    beta = infinity :func:`bath.gamma_zero_temperature` with ``beta_cap``) is
    evaluated once at every Bohr frequency.
    """
    if beta_infinite:
        davies = True
    if not davies and bath is None:
        raise ValueError("a BathSpec is required unless davies=True")
    jump_list = _as_jump_list(jumps)
    labels = [label for label, _ in jump_list]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise DuplicateJumpLabel(f"jump label {label!r} is used more than once")
    dim = ham.dense.shape[0]
    entries = [_jump_entries(label, mat, dim) for label, mat in jump_list]
    norms = _check_jump_set(jump_list, dim, entries)

    sd = spectral_data(ham)
    jump_objs = [
        Jump(label=label, given=mat, aa_norm=aa,
             blocks=bohr_decompose(mat, sd, label=label, norm=norm, entries=ent))
        for (label, mat), (norm, aa), ent in zip(jump_list, norms, entries)
    ]

    if include_lamb_shift is None or davies:
        include_lamb_shift = not davies
    kernels = weights = None
    if beta_infinite:
        lambda0 = bath.lambda0 if bath is not None else 1.0
        weights = bath_mod.gamma_zero_temperature(sd.bohr_freqs, lambda0, beta_cap)
    elif davies:
        if bath is None:
            raise ValueError("finite-beta Davies mode needs a BathSpec for beta")
        weights = bath_mod.gamma(sd.bohr_freqs, bath)
    else:
        corr = BathCorrelation(bath) if include_lamb_shift else None
        kernels = build_kernel_table(sd.bohr_freqs, bath, include_lamb=include_lamb_shift,
                                     corr=corr)

    return LindbladModel(
        ham=ham,
        sd=sd,
        jumps=jump_objs,
        kernels=kernels,
        davies_weights=weights,
        include_lamb_shift=include_lamb_shift,
        include_coherent=include_coherent,
    )


def weight_vector(model: LindbladModel, values=None, label=None) -> np.ndarray:
    """Nonnegative per-jump weights; unit vector along ``label`` if given."""
    m = len(model.jumps)
    if label is not None:
        w = np.zeros(m)
        w[model.jump_index(label)] = 1.0
        return w
    if values is None:
        return np.ones(m)
    w = np.asarray(values, dtype=float)
    if w.shape != (m,):
        raise DimensionMismatch(f"expected {m} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise NegativeWeight("jump weights must be finite and nonnegative (irreversibility)")
    return w


def dissipative_adjoint(model: LindbladModel, label, obs):
    """Heisenberg-picture dissipative part D^dag_a[obs], Hermitized: the
    adjoint :func:`_eig_apply` of D~_a alone, at finite (beta, tau) and in
    the Davies limit (gamma at the exact Bohr frequencies) alike."""
    terms = _eig_terms(model, weight_vector(model, label=label), False, False)
    out = _apply_dense(model.sd, terms, obs, adjoint=True)
    return 0.5 * (out + out.conj().T)


def lamb_shift_operator(model: LindbladModel, label):
    """H_LS,a = sum K(nu2, nu1) A_nu2 A_nu1: V H~_LS,a V^dag of the cached
    eigenbasis form (:meth:`LindbladModel._lamb_eig`), rotated out on each
    read and Hermitized exactly."""
    if not model.include_lamb_shift:
        raise ValueError("model was built with include_lamb_shift=False")
    h_ls = model.sd.from_eig(model._lamb_eig(label))
    return 0.5 * (h_ls + h_ls.conj().T)


def lindblad_adjoint(model: LindbladModel, label, obs):
    """Energy-gradient-style adjoint L^dag_a[obs] with the Lamb commutator and
    without the coherent part, Hermitized: the adjoint :func:`_eig_apply`."""
    terms = _eig_terms(model, weight_vector(model, label=label), True, False)
    out = _apply_dense(model.sd, terms, obs, adjoint=True)
    return 0.5 * (out + out.conj().T)


def generator_apply(model: LindbladModel, w, rho):
    """d rho / dt under sum_a w_a L_a, plus -i[H, rho] on a coherent model:
    :func:`_eig_apply`."""
    terms = _eig_terms(model, weight_vector(model, w), True, model.include_coherent)
    return _apply_dense(model.sd, terms, rho, adjoint=False)


def _generator_norm_bound(model: LindbladModel, w, include_coherent):
    """Upper bound on the 1->1 norm of the weighted generator, with ||H||_2
    read as max |lambda| from the spectrum."""
    bound = 3.0 * sum(wa * j.aa_norm for wa, j in zip(w, model.jumps))
    if include_coherent:
        bound += 2.0 * float(np.max(np.abs(model.sd.eigenvalues)))
    return bound


def _time_guard(s, w_norm):
    """The evolve paths' guards s >= 0 and s ``w_norm`` <= ``MAX_TIME`` (plus 1e-12
    for the rounding of ||w||_1).  True when s = 0, where the state is returned as a copy."""
    if s < 0:
        raise NegativeTime(f"evolution time must be nonnegative, got {s}")
    if s * w_norm > MAX_TIME + 1e-12:
        raise ValueError(f"guard: s * ||w||_1 must not exceed {MAX_TIME:g}")
    return s == 0.0


def evolve(model: LindbladModel, w, rho, s):
    """rho(s) = exp(s sum_a w_a L_a)[rho] by substepped truncated Taylor,
    -i[H, .] in L_a on a coherent model.

    One guarded :func:`_eig_step` on vec(V^dag rho V) between one transform
    into the eigenbasis and one out, after which the result is Hermitized.

    The time guard is s ||w||_1 <= ``MAX_TIME``.  On a coherent model
    -i[H, .] enters with weight one whatever w is, so there ||w||_1 is read
    as at least 1: s <= ``MAX_TIME`` also for w = 0, and the substeps, at
    most s times the 1->1 bound, stay bounded by the norms of the jumps and H.
    """
    w = weight_vector(model, w)
    rho = _square(rho, model.dim)
    w_norm = float(np.sum(w))
    if _time_guard(s, max(w_norm, 1.0) if model.include_coherent else w_norm):
        return rho.copy()

    d, sd = model.dim, model.sd
    x = _eig_step(model, w, sd.to_eig(rho).reshape(-1), s)
    out = sd.from_eig(x.reshape(d, d))
    return 0.5 * (out + out.conj().T)


def _eig_step(model: LindbladModel, w, x, s):
    """exp(s sum_a w_a L~_a) on the row-major vec ``x`` of an eigenbasis
    state X~, by substeps of ||h L||_{1-1} <= 1 under :func:`_eig_apply`.

    A Hermiticity defect (Frobenius norm of X~ - X~^dag, which bounds the
    spectral one) or trace defect above ``DEFECT_TOL`` raises
    :class:`EvolutionDefect`; X~ is then Hermitized, trace-renormalized and
    checked against the positivity ``FLOOR``.  A unitary leaves each
    checked quantity unchanged.  Time guards are the caller's.
    """
    d = model.dim
    bound = _generator_norm_bound(model, w, model.include_coherent)
    nsub = max(1, int(math.ceil(s * bound)))
    apply = partial(_eig_apply, _eig_terms(model, w, True, model.include_coherent),
                    adjoint=False)
    x = _taylor_substeps(apply, x, s / nsub, nsub, bound, d).reshape(d, d)
    adj = x.conj().T
    trace = np.trace(x)
    _check_defect(float(np.linalg.norm(x - adj)), abs(trace - 1.0))
    # Hermitizing keeps the real part of the diagonal, hence of the trace
    out = (0.5 / trace.real) * (x + adj)
    _check_floor(out[None])
    return out.reshape(-1)


def _taylor_substeps(apply, state, h, nsub, bound, d):
    """Apply exp(h G) ``nsub`` times to ``state`` by truncated Taylor series,
    each substep within ``TAYLOR_TOL`` / ``nsub`` in trace norm; ``apply(v)`` is a new G v.

    ``bound`` bounds the 1->1 norm of G and ``d`` is the Hilbert
    dimension, so sqrt(d) times the Frobenius norm bounds the trace norm.
    """
    tol = TAYLOR_TOL / nsub
    h_bound = h * max(bound, 1e-300)
    sqrt_d = math.sqrt(d)
    for _ in range(nsub):
        term = state
        acc = state.copy()
        for k in range(1, MAX_TAYLOR_TERMS + 1):
            term = apply(term)
            term *= h / k
            acc += term
            # ||term_{k+1}||_tr <= ||term_k||_tr h ||L|| / (k+1); stop as
            # soon as that bound falls below the budget
            norm = math.sqrt(np.vdot(term, term).real)
            next_bound = sqrt_d * norm * h_bound / (k + 1)
            if next_bound < TAYLOR_STOP * tol:
                break
        state = acc
    return state


def _check_defect(herm_defect, trace_defect):
    """Raise when an evolved state's Hermiticity or trace defect exceeds ``DEFECT_TOL``."""
    defect = max(herm_defect, trace_defect)
    if defect > DEFECT_TOL:
        raise EvolutionDefect(
            f"evolved state has Hermiticity/trace defect {defect:.3e} > {DEFECT_TOL:g}"
        )


@lru_cache(maxsize=None)
def _floor_shift(k):
    return -FLOOR * np.eye(k, dtype=complex)


def _floor_minima(blocks):
    """The positivity ``FLOOR`` on a (..., k, k) stack of Hermitian blocks:
    None when it holds for every block, else each block's minimum eigenvalue.

    A Cholesky of block - ``FLOOR`` I succeeds exactly when the floor holds, and
    is cheaper than an eigendecomposition, which decides when it fails.  One
    state's (n, k, k) stack calls LAPACK ``zpotrf`` block by block (the numpy
    wrapper costs more than the factorization at these sizes); a deeper
    stack, the blocks of many states, takes numpy's batched Cholesky, which
    calls the same ``zpotrf``.
    """
    k = blocks.shape[-1]
    if k == 1:
        return blocks.real[..., 0, 0]
    shifted = blocks + _floor_shift(k)
    if blocks.ndim == 3:
        if not any(_zpotrf(block, lower=1, clean=0)[1] for block in shifted):
            return None
    else:
        try:
            np.linalg.cholesky(shifted)
            return None
        except np.linalg.LinAlgError:
            pass
    return np.linalg.eigvalsh(blocks)[..., 0]


def _check_floor(blocks):
    """Raise unless every Hermitian block in the (n, k, k) stack is >= ``FLOOR``
    (:func:`_floor_minima`)."""
    lows = _floor_minima(blocks)
    lo = math.inf if lows is None else float(np.min(lows))
    if lo < FLOOR:
        raise PositivityDefect(f"minimum eigenvalue {lo:.3e} below {FLOOR:g}")


class ZeroFrequencySector:
    """Real Hermitian coordinates in the eigenbasis V of H, by groups of levels.

    A state that is block-diagonal in V over the sector's groups (slices of
    the eigenvalue order) is stored as its Hermitian group blocks T, each in
    the orthonormal basis {E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2 :
    i < j} of Hermitian matrices, that is as t_ii, sqrt2 Re t_ij and sqrt2
    Im t_ij.  ``x`` holds the d diagonal coordinates in eigenvalue order,
    then the (Re, Im) pair of each i < j of a group: sum_g d_g^2 real
    numbers, with ||x||_2 = ||V^dag rho V||_F.  Obtain one with
    :func:`zero_frequency_sector`, which uses two kinds of groups:

    - the energy groups of a Davies model: the Davies generator commutes
      with [H, .] (Davies, Commun. Math. Phys. 39 (1974) 91), so a state
      that is block-diagonal by energy group stays so (the omega = 0 sector);
    - one group of all d levels, which holds every Hermitian state under any
      model; the energy groups are its special case.

    The complex coordinates c are the block entries in the same order: t_ii,
    then (t_ij, t_ji) per pair.  With Q the unitary whose columns are the
    basis above, c = Q x and x = Re(Q^dag c).
    """

    def __init__(self, model: LindbladModel, groups):
        sd = self._sd = model.sd
        d = self.dim = model.dim
        groups = [range(sl.start, sl.stop) for sl in groups]
        self._grouped = len(groups) > 1
        pairs = [(i, j) for g in groups for i in g for j in g if i < j]
        pos = {(i, i): i for i in range(d)}
        for p, (i, j) in enumerate(pairs):
            pos[i, j] = d + 2 * p
            pos[j, i] = d + 2 * p + 1
        entries = sorted(pos, key=pos.get)
        self._rows = np.array([i for i, _ in entries])
        self._cols = np.array([j for _, j in entries])
        by_size = {}
        for g in groups:
            by_size.setdefault(len(g), []).append([[pos[i, j] for j in g] for i in g])
        # (n, k, k) group blocks of c = Q x by size, each gathered from x
        self._blocks = [self._block_gather(np.array(b)) for b in by_size.values()]
        # rows over (x, |x|): the trace, then for each i the Gershgorin bound
        # t_ii - sum_j (|Re t_ij| + |Im t_ij|) <= t_ii - sum_j |t_ij|
        n = len(entries)
        post = np.zeros((d + 1, 2 * n))
        post[0, :d] = 1.0
        post[1 + np.arange(d), np.arange(d)] = 1.0
        for p, (i, j) in enumerate(pairs):
            post[[[1 + i], [1 + j]], [n + d + 2 * p, n + d + 2 * p + 1]] = -_SQRT_HALF
        self._post = post
        self._sqrt_d = math.sqrt(d)
        self.generators = self._jump_generators(model, groups)

    def _block_gather(self, pos):
        """(src, scale) with c[pos] = x[src] * scale read as complex (real
        and imaginary parts along the last axis), as :meth:`_left_q` forms it."""
        off = pos >= self.dim
        odd = (pos - self.dim) % 2 * off  # t_ji of a pair: the conjugate of t_ij
        re = pos - odd
        scale = (np.where(off, _SQRT_HALF, 1.0), (off - 2 * odd) * _SQRT_HALF)
        return np.stack((re, re + off), axis=-1), np.stack(scale, axis=-1)

    def _jump_generators(self, model, groups):
        """Per jump: the real sector matrix of L_a with the model's coherent
        setting, the norm bound evolve() uses and sqrt(d) delta, with delta
        from :meth:`_real_generator`.  None if any jump leaves the sector or
        fails the real-form check.

        Column q of a complex generator holds the coordinates of its image
        of E_q = V |r_q><c_q| V^dag: D~_a's column there, on the sector's
        rows, plus the commutator of :func:`_eig_terms`' M~, at position p
        M~[r_p, r_q] delta(c_p, c_q) + delta(r_p, r_q) conj M~[c_p, c_q] (the
        coherent -i (lambda_r - lambda_c) at p = q).  The leak test bounds
        what leaks out by the norm of D~_a's column on the other rows plus
        that of the commutator's M~[i, r_q] at (i, c_q) and conj M~[j, c_q]
        at (r_q, j), i and j outside the group of r_q and c_q: zero exactly
        when M~ is block-diagonal over the groups.
        """
        d, rows, cols = self.dim, self._rows, self._cols
        vec = rows * d + cols
        off_sector = np.ones(d * d, dtype=bool)
        off_sector[vec] = False
        off_group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        off_group = off_group[:, None] != off_group
        out = []
        for jump in model.jumps:
            unit = weight_vector(model, label=jump.label)
            images = model._dissipator_eig(jump.label)[:, vec]
            gen = images[vec].toarray()
            leak = np.sqrt(abs(images[off_sector]).power(2).sum(axis=0))
            _, m, phase = _eig_terms(model, unit, True, model.include_coherent)
            if m is not None:
                gen += (m[rows[:, None], rows] * (cols[:, None] == cols)
                        + (rows[:, None] == rows) * m.conj()[cols[:, None], cols])
                outside = (abs(m) ** 2 * off_group).sum(axis=0)  # by column of M~
                leak = leak + np.sqrt(outside[rows] + outside[cols])
            if phase is not None:
                gen[np.diag_indices(len(vec))] += phase[rows, cols]
            real = None
            if np.max(leak, initial=0.0) <= SECTOR_TOL * max(float(np.linalg.norm(gen)), 1e-300):
                real = self._real_generator(gen)
            if real is None:
                logger.debug("jump %s leaves the sector", jump.label)
                return None
            out.append((real[0], _generator_norm_bound(model, unit, model.include_coherent),
                        self._sqrt_d * real[1]))
        return out

    @property
    def size(self):
        return len(self._rows)

    def _right_q(self, a):
        """a Q, over the last axis of ``a``."""
        d = self.dim
        u, w = a[..., d::2], a[..., d + 1::2]
        out = np.empty(a.shape, dtype=complex)
        out[..., :d] = a[..., :d]
        out[..., d::2] = _SQRT_HALF * (u + w)
        out[..., d + 1::2] = (1j * _SQRT_HALF) * (u - w)
        return out

    def _left_q(self, x):
        """c = Q x for real coordinates ``x``."""
        d = self.dim
        c = np.empty(x.shape, dtype=complex)
        c[:d] = x[:d]
        c[d::2] = _SQRT_HALF * (x[d::2] + 1j * x[d + 1::2])
        c[d + 1::2] = c[d::2].conj()
        return c

    def _real_generator(self, gen):
        """(R, delta) for a complex sector matrix G: R = Re(Q^dag G Q), its
        action on real coordinates, and delta = ||Im(Q^dag G Q)||_F =
        ||G Q - Q R||_F, the anti-Hermitian part of G's images of Hermitian
        states.  None when delta > ``REAL_FORM_TOL`` ||G||_F."""
        full = self._right_q(self._right_q(gen).conj().T).conj().T
        delta = float(np.linalg.norm(full.imag))
        if delta > REAL_FORM_TOL * max(float(np.linalg.norm(gen)), 1e-300):
            return None
        return np.ascontiguousarray(full.real), delta

    def coords(self, rho):
        """Coordinates of the Hermitian part of ``rho``.  With more than one
        group they are None when ``rho`` lies outside the sector: when its
        Frobenius distance from the Hermitian block-diagonal matrices exceeds
        ``SECTOR_TOL``."""
        t = self._sd.to_eig(np.asarray(rho, dtype=complex))
        c = t[self._rows, self._cols]
        x = self._right_q(c.conj()).real
        if self._grouped:
            t[self._rows, self._cols] = 0.0
            skew = float(np.linalg.norm(c - self._left_q(x)))
            if math.hypot(float(np.linalg.norm(t)), skew) > SECTOR_TOL:
                return None
        return x

    def density(self, x):
        """The density matrix with sector coordinates ``x``."""
        t = np.zeros((self.dim, self.dim), dtype=complex)
        t[self._rows, self._cols] = self._left_q(x)
        rho = self._sd.from_eig(t)
        return 0.5 * (rho + rho.conj().T)

    def scan_rows(self, scan):
        """The rows r with r @ x = ``scan.read`` (vec(V^dag rho V)) for states
        in the sector, ``scan`` the model's :class:`gradient.GradientScan`:
        its row of conj(X~^T), viewed as complex, at entry (i, j) reads
        Re(X~[j, i] c), with c = Q x."""
        layout = np.zeros((len(scan.rows), 2 * self.dim**2))
        layout[:, scan.support] = scan.rows
        at = self._rows * self.dim + self._cols
        return self._right_q(layout.view(complex)[:, at].conj()).real

    def evolve(self, x, index, s):
        """Sector form of ``evolve(model, w, rho, s)`` with w the unit vector
        along jump ``index`` and the model's coherent setting.

        The same truncated-Taylor rule applies (||x||_2 is the Frobenius
        norm of the state) under the same guards:

        - Hermiticity.  The state is Hermitian by construction.  The complex
          evolution of the same state, which ``evolve`` measures, differs
          from it by e(s) = int_0^s exp((s - t) G)(G Q - Q R) x(t) dt.  The
          semigroup of a Lindblad generator whose kernel is positive
          semidefinite (Davies' gamma, or at finite tau C = Phi^T
          diag(gamma w) Phi), with any Hamiltonian part, is completely
          positive and trace preserving, so trace-norm contractive:
          ||exp(t G)||_{F->F} <= sqrt(d), and ||e(s)||_F <=
          d delta s ||x||_2 / (1 - sqrt(d) delta s), with delta <=
          ``REAL_FORM_TOL`` ||G||_F fixed at build.  That bound, evaluated
          for each step, is the Hermiticity defect checked (``DEFECT_TOL``).
        - Trace.  A trace defect above ``DEFECT_TOL`` raises
          :class:`EvolutionDefect`; the state is then renormalized.
        - Positivity.  Each group block passes the ``FLOOR`` by
          Gershgorin, with |Re t_ij| + |Im t_ij| >= |t_ij| in the radii,
          or else by the exact check of :func:`_check_floor` on the blocks
          gathered from x.  The trace and the Gershgorin bounds come from
          one matvec.  Run blocks settle the same floor for many states at
          once (:meth:`below_floor`).
        """
        if _time_guard(s, 1.0):
            return x.copy()
        gen, bound, leak = self.generators[index]
        a = leak * s
        herm = (self._sqrt_d * a * math.sqrt(x.dot(x)) / (1.0 - a)
                if a < 1.0 else math.inf)
        nsub = max(1, int(math.ceil(s * bound)))
        # gen.dot: far less call overhead than @
        x = _taylor_substeps(gen.dot, x, s / nsub, nsub, bound, self.dim)
        z = self._post.dot(np.concatenate((x, np.abs(x)))).tolist()
        trace = z[0]
        _check_defect(herm, abs(trace - 1.0))
        x = (1.0 / trace) * x
        if min(z[1:]) < FLOOR * trace:
            for src, scale in self._blocks:
                _check_floor((x[src] * scale).view(complex)[..., 0])
        return x

    def below_floor(self, xs):
        """Whether each row of ``xs``, the coordinates of a state of trace
        one, fails the positivity ``FLOOR``: the rule of :func:`_check_floor` for
        every state's group blocks, in one stack per group size."""
        below = np.zeros(len(xs), dtype=bool)
        for src, scale in self._blocks:
            lows = _floor_minima((np.take(xs, src, axis=1) * scale).view(complex)[..., 0])
            if lows is not None:
                below |= (lows < FLOOR).any(axis=1)
        return below


def zero_frequency_sector(model: LindbladModel, rho=None):
    """The :class:`ZeroFrequencySector` a descent from ``rho`` runs in, or
    None if there is none.

    A Davies model has the sector of its energy groups, which is returned
    when ``rho`` is None or lies in it.  Any other ``rho``, on any model,
    gets the sector of one group of all d levels.  Each is built only while
    sum_g d_g^2 * d^2 stays within ``SECTOR_MAX_ENTRIES`` (d <= 32 for one
    group), and only when every jump's generator maps the sector into itself
    within ``SECTOR_TOL`` and Hermitian blocks to Hermitian ones within
    ``REAL_FORM_TOL``; a Bohr-frequency cluster that merges distinct energy
    differences can break the first for energy groups.  Both are cached on
    the model.
    """
    kinds = [model.sd.group_slices] if model.davies else []
    if rho is not None:
        kinds.append([slice(0, model.dim)])
    for groups in kinds:
        key = tuple((sl.start, sl.stop) for sl in groups)
        if key not in model._sectors:
            sector = None
            if sum((b - a) ** 2 for a, b in key) * model.dim**2 <= SECTOR_MAX_ENTRIES:
                sector = ZeroFrequencySector(model, groups)
                if sector.generators is None:
                    sector = None
            model._sectors[key] = sector
        sector = model._sectors[key]
        if sector is not None and (rho is None or sector.coords(rho) is not None):
            return sector
    return None
