"""Thermal Lindbladians assembled from Bohr blocks and bath kernels.

The continuous frequency integral in the dissipative part collapses onto
the discrete Bohr frequencies of the Hamiltonian, leaving scalar kernel
weights C(nu', nu); the operator structure is exact and only the kernel
values carry quadrature error.  The Davies (tau -> infinity) limit keeps
the diagonal weights gamma(nu) only.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import bath as bath_mod
from . import operators as ops
from .bath import BathCorrelation, BathSpec, KernelTable, build_kernel_table
from .errors import (
    DimensionMismatch,
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

SUPEROP_MAX_DIM = 32  # build dense superoperators up to this Hilbert dimension
PAIR_DROP = 1e-14
TAYLOR_TOL = 1e-9  # trace-norm budget of one evolve() call
MAX_TAYLOR_TERMS = 60
SECTOR_TOL = 1e-12  # off-sector Frobenius mass still counted as in the sector
SECTOR_MAX_ENTRIES = 2**20  # largest sum_g d_g^2 * d^2 for which a sector is built

# bath-correlation caches are expensive; share them across models per BathSpec
_BATH_CORRELATION_CACHE: dict = {}

_coherent_sentinel = object()


@dataclass
class Jump:
    label: str
    matrix: np.ndarray
    blocks: object
    aa_norm: float


@dataclass
class _Dissipator:
    """Per-jump pair data: D[rho] = sum_p c_p A_p rho B_p^dag - 1/2 {G, rho}."""

    coeffs: np.ndarray
    rights: list  # A_nu
    lefts_dag: list  # A_nu'^dag
    decay: np.ndarray  # G = sum_p c_p A_nu'^dag A_nu

    def apply(self, rho):
        out = np.zeros_like(rho)
        for c, a_r, b_d in zip(self.coeffs, self.rights, self.lefts_dag):
            out += c * (a_r @ rho @ b_d)
        out -= 0.5 * (self.decay @ rho + rho @ self.decay)
        return out

    def apply_adjoint(self, obs):
        out = np.zeros_like(obs)
        for c, a_r, b_d in zip(self.coeffs, self.rights, self.lefts_dag):
            out += c * (b_d @ obs @ a_r)
        out -= 0.5 * (self.decay @ obs + obs @ self.decay)
        return out


@dataclass
class LindbladModel:
    """A Hamiltonian with jump operators and cached kernel data."""

    ham: LocalHamiltonian
    sd: SpectralData
    bath: BathSpec | None
    jumps: list
    kernels: KernelTable | None
    davies: bool
    beta: float
    lambda0: float
    beta_infinite: bool
    beta_cap: float
    include_lamb_shift: bool
    include_coherent: bool
    corr: BathCorrelation | None = None
    _dissipators: dict = field(default_factory=dict, repr=False)
    _lamb_ops: dict = field(default_factory=dict, repr=False)
    _gradient_ops: dict = field(default_factory=dict, repr=False)
    _superops: dict = field(default_factory=dict, repr=False)
    _sector: object = field(default=None, repr=False)

    @property
    def dim(self):
        return self.ham.dense.shape[0]

    @property
    def jump_labels(self):
        return [j.label for j in self.jumps]

    def jump(self, label) -> Jump:
        for j in self.jumps:
            if j.label == label:
                return j
        raise UnknownJump(f"no jump labelled {label!r}")

    def jump_index(self, label) -> int:
        for i, j in enumerate(self.jumps):
            if j.label == label:
                return i
        raise UnknownJump(f"no jump labelled {label!r}")

    def davies_gamma(self, freqs):
        """Transition weight at exact Bohr frequencies (Davies limit)."""
        if self.beta_infinite:
            return np.atleast_1d(
                bath_mod.gamma_zero_temperature(freqs, self.lambda0, self.beta_cap)
            )
        spec = BathSpec(beta=self.beta, tau=1.0, lambda0=self.lambda0)
        return np.atleast_1d(bath_mod.gamma(freqs, spec))

    def energy(self, rho):
        # H is validated at build time; a plain trace suffices here
        return float(np.sum(self.ham.dense * np.asarray(rho).T).real)

    def _dissipator(self, label) -> _Dissipator:
        if label not in self._dissipators:
            jump = self.jump(label)
            blocks = jump.blocks
            coeffs, rights, lefts_dag = [], [], []
            if self.davies:
                weights = self.davies_gamma(blocks.freqs)
                for w, mat in zip(weights, blocks.mats):
                    if abs(w) <= PAIR_DROP:
                        continue
                    coeffs.append(w)
                    rights.append(mat)
                    lefts_dag.append(mat.conj().T)
            else:
                c_mat = self.kernels.C
                cutoff = PAIR_DROP * max(float(np.max(np.abs(c_mat))), 1e-300)
                for p, kp in enumerate(blocks.freq_indices):
                    left_d = blocks.mats[p].conj().T
                    for q, kq in enumerate(blocks.freq_indices):
                        c = c_mat[kp, kq]
                        if abs(c) <= cutoff:
                            continue
                        coeffs.append(c)
                        rights.append(blocks.mats[q])
                        lefts_dag.append(left_d)
            decay = np.zeros((self.dim, self.dim), dtype=complex)
            for c, a_r, b_d in zip(coeffs, rights, lefts_dag):
                decay += c * (b_d @ a_r)
            self._dissipators[label] = _Dissipator(
                coeffs=np.array(coeffs, dtype=complex),
                rights=rights,
                lefts_dag=lefts_dag,
                decay=decay,
            )
        return self._dissipators[label]

    def _superop(self, label):
        """Dense superoperator of L_a (row-major vec) for small dimensions."""
        if label not in self._superops:
            d = self.dim
            eye = np.eye(d, dtype=complex)
            dis = self._dissipator(label)
            mat = np.zeros((d * d, d * d), dtype=complex)
            for c, a_r, b_d in zip(dis.coeffs, dis.rights, dis.lefts_dag):
                mat += c * np.kron(a_r, b_d.T)
            mat -= 0.5 * (np.kron(dis.decay, eye) + np.kron(eye, dis.decay.T))
            if self.include_lamb_shift:
                h_ls = lamb_shift_operator(self, label)
                mat += -1j * (np.kron(h_ls, eye) - np.kron(eye, h_ls.T))
            self._superops[label] = mat
        return self._superops[label]


def _as_jump_list(jumps):
    out = []
    for label, mat in jumps:
        out.append((str(label), np.asarray(mat, dtype=complex)))
    return out


def _check_jump_set(jumps, dim):
    """Validate shapes, ||A^dag A|| <= 1 and closure under the adjoint.

    Returns each jump's (||A||_2, ||A^dag A||_2).  The adjoint of A is
    matched to a jump B when ||A^dag - B||_2 <= 1e-10 ||A||_2, decided by
    :func:`operators.spectral_norm_exceeds`, so a clear match or mismatch
    costs no SVD.
    """
    for label, m in jumps:
        if m.shape != (dim, dim):
            raise DimensionMismatch(
                f"jump {label!r} has shape {m.shape}, expected {(dim, dim)}"
            )
    norms = []
    for label, m in jumps:
        aa = ops.operator_norm(m.conj().T @ m)
        if aa > 1.0 + 1e-9:
            raise JumpNotNormalized(f"jump {label!r} has ||A^dag A|| = {aa:.6f} > 1")
        norm = ops.operator_norm(m)
        adj = m.conj().T
        tol = 1e-10 * max(norm, 1e-300)
        if all(ops.spectral_norm_exceeds(adj - other, tol) for _, other in jumps):
            raise JumpSetNotClosed(
                f"adjoint of jump {label!r} is missing from the jump set"
            )
        norms.append((norm, aa))
    return norms


def build_model(
    ham: LocalHamiltonian,
    jumps,
    bath: BathSpec | None = None,
    *,
    davies: bool = False,
    beta_infinite: bool = False,
    beta_cap: float = 1e6,
    lambda0: float | None = None,
    include_lamb_shift: bool | None = None,
    include_coherent: bool = False,
    group_tol: float | None = None,
    kernel_abs_tol: float = 1e-10,
    lamb_abs_tol: float = 1e-8,
) -> LindbladModel:
    """Assemble a :class:`LindbladModel` from a Hamiltonian and jumps.

    ``jumps`` is a list of ``(label, matrix)`` pairs; the set must be
    closed under Hermitian conjugation and each jump must satisfy
    ``||A^dag A|| <= 1``.  With ``davies=True`` (or ``beta_infinite``)
    the exact Bohr-frequency limit is used and no kernel table is built.
    """
    if beta_infinite:
        davies = True
    if not davies and bath is None:
        raise ValueError("a BathSpec is required unless davies=True")
    corr_cache = _BATH_CORRELATION_CACHE
    jump_list = _as_jump_list(jumps)
    norms = _check_jump_set(jump_list, ham.dense.shape[0])

    sd = spectral_data(ham, group_tol)
    jump_objs = [
        Jump(label=label, matrix=mat,
             blocks=bohr_decompose(mat, sd, label=label, norm=norm), aa_norm=aa)
        for (label, mat), (norm, aa) in zip(jump_list, norms)
    ]

    if include_lamb_shift is None:
        include_lamb_shift = not davies
    if davies:
        include_lamb_shift = False
        kernels = None
        corr = None
        beta = bath.beta if bath is not None else 0.0
        lam = lambda0 if lambda0 is not None else (
            bath.lambda0 if bath is not None else 1.0
        )
        if not beta_infinite and bath is None:
            raise ValueError("finite-beta Davies mode needs a BathSpec for beta")
    else:
        if include_lamb_shift:
            if bath not in corr_cache:
                corr_cache[bath] = BathCorrelation(bath)
            corr = corr_cache[bath]
        else:
            corr = None
        kernels = build_kernel_table(
            sd.bohr_freqs,
            bath,
            include_lamb=include_lamb_shift,
            abs_tol=kernel_abs_tol,
            lamb_abs_tol=lamb_abs_tol,
            corr=corr,
        )
        beta = bath.beta
        lam = bath.lambda0

    return LindbladModel(
        ham=ham,
        sd=sd,
        bath=bath,
        jumps=jump_objs,
        kernels=kernels,
        davies=davies,
        beta=beta,
        lambda0=lam,
        beta_infinite=beta_infinite,
        beta_cap=beta_cap,
        include_lamb_shift=include_lamb_shift,
        include_coherent=include_coherent,
        corr=corr,
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
    if np.any(w < 0):
        raise NegativeWeight("jump weights must be nonnegative (irreversibility)")
    return w


def dissipative_adjoint(model: LindbladModel, label, obs):
    """Heisenberg-picture dissipative part D^dag_a[obs] at finite (beta, tau)."""
    if model.davies:
        raise ValueError("model is in the Davies limit; use davies_adjoint")
    obs = np.asarray(obs, dtype=complex)
    out = model._dissipator(label).apply_adjoint(obs)
    return 0.5 * (out + out.conj().T)


def davies_adjoint(model: LindbladModel, label, obs):
    """Exact Davies-limit D^dag_a[obs] using gamma at exact Bohr frequencies."""
    jump = model.jump(label)
    obs = np.asarray(obs, dtype=complex)
    weights = model.davies_gamma(jump.blocks.freqs)
    out = np.zeros_like(obs)
    decay = np.zeros_like(obs)
    for w, mat in zip(weights, jump.blocks.mats):
        md = mat.conj().T
        out += w * (md @ obs @ mat)
        decay += w * (md @ mat)
    out -= 0.5 * (decay @ obs + obs @ decay)
    return 0.5 * (out + out.conj().T)


def lamb_shift_operator(model: LindbladModel, label):
    """H_LS,a = sum K(nu2, nu1) A_nu2 A_nu1, Hermitized after a defect check."""
    if not model.include_lamb_shift:
        raise ValueError("model was built with include_lamb_shift=False")
    if label not in model._lamb_ops:
        jump = model.jump(label)
        k_mat = model.kernels.K
        blocks = jump.blocks
        raw = np.zeros((model.dim, model.dim), dtype=complex)
        for p, kp in enumerate(blocks.freq_indices):
            for q, kq in enumerate(blocks.freq_indices):
                k = k_mat[kp, kq]
                if abs(k) <= PAIR_DROP:
                    continue
                raw += k * (blocks.mats[p] @ blocks.mats[q])
        defect = ops.hermiticity_defect(raw)
        bound = 1e-6 * max(jump.aa_norm, 1e-300)
        if defect > bound:
            raise LambHermiticityDefect(
                f"Lamb shift of jump {label!r} has Hermiticity defect "
                f"{defect:.3e} > {bound:.3e}"
            )
        model._lamb_ops[label] = 0.5 * (raw + raw.conj().T)
    return model._lamb_ops[label]


def _lindblad_apply(model: LindbladModel, label, rho):
    """Schroedinger-picture L_a[rho] (dissipator plus Lamb commutator)."""
    out = model._dissipator(label).apply(rho)
    if model.include_lamb_shift:
        h_ls = lamb_shift_operator(model, label)
        out += -1j * (h_ls @ rho - rho @ h_ls)
    return out


def lindblad_adjoint(model: LindbladModel, label, obs):
    """Full energy-gradient-style adjoint L^dag_a[obs]."""
    if model.davies:
        return davies_adjoint(model, label, obs)
    out = model._dissipator(label).apply_adjoint(obs)
    if model.include_lamb_shift:
        h_ls = lamb_shift_operator(model, label)
        out += 1j * (h_ls @ obs - obs @ h_ls)
    return 0.5 * (out + out.conj().T)


def generator_apply(model: LindbladModel, w, rho, include_coherent=_coherent_sentinel):
    """d rho / dt under sum_a w_a L_a (plus -i[H, rho] when coherent)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise DimensionMismatch(
            f"state shape {rho.shape} does not match dimension {model.dim}"
        )
    w = weight_vector(model, w)
    if include_coherent is _coherent_sentinel:
        include_coherent = model.include_coherent
    out = np.zeros_like(rho)
    for wa, jump in zip(w, model.jumps):
        if wa == 0.0:
            continue
        out += wa * _lindblad_apply(model, jump.label, rho)
    if include_coherent:
        h = model.ham.dense
        out += -1j * (h @ rho - rho @ h)
    return out


def _generator_norm_bound(model: LindbladModel, w, include_coherent):
    """Upper bound on the 1->1 norm of the weighted generator."""
    bound = 3.0 * sum(wa * j.aa_norm for wa, j in zip(w, model.jumps))
    if include_coherent:
        bound += 2.0 * ops.operator_norm(model.ham.dense)
    return bound


def evolve(model: LindbladModel, w, rho, s, include_coherent=_coherent_sentinel,
           taylor_tol=TAYLOR_TOL, max_terms=MAX_TAYLOR_TERMS):
    """rho(s) = exp(s sum_a w_a L_a)[rho] by substepped truncated Taylor.

    Substeps keep ||h L||_{1-1} <= 1 per step.  The output is
    re-Hermitized and trace-renormalized; a Hermiticity/trace defect above
    1e-7 raises :class:`EvolutionDefect` and a minimum eigenvalue below
    -1e-6 raises :class:`PositivityDefect`.
    """
    if s < 0:
        raise NegativeTime(f"evolution time must be nonnegative, got {s}")
    w = weight_vector(model, w)
    if include_coherent is _coherent_sentinel:
        include_coherent = model.include_coherent
    if s * float(np.sum(w)) > 10.0 + 1e-12:
        raise ValueError("guard: s * ||w||_1 must not exceed 10")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise DimensionMismatch(
            f"state shape {rho.shape} does not match dimension {model.dim}"
        )
    if s == 0.0:
        return rho.copy()

    d = model.dim
    bound = _generator_norm_bound(model, w, include_coherent)
    nsub = max(1, int(math.ceil(s * bound)))
    h = s / nsub
    tol = taylor_tol / nsub

    use_dense = d <= SUPEROP_MAX_DIM
    if use_dense:
        active = [(wa, jump) for wa, jump in zip(w, model.jumps) if wa]
        if len(active) == 1 and active[0][0] == 1.0 and not include_coherent:
            gen = model._superop(active[0][1].label)  # no copy on the hot path
        else:
            gen = np.zeros((d * d, d * d), dtype=complex)
            for wa, jump in active:
                gen += wa * model._superop(jump.label)
            if include_coherent:
                eye = np.eye(d, dtype=complex)
                hmat = model.ham.dense
                gen += -1j * (np.kron(hmat, eye) - np.kron(eye, hmat.T))
        state = _taylor_substeps(gen, rho.reshape(-1), h, nsub, tol, bound, d,
                                 max_terms)
        out = state.reshape(d, d)
    else:
        out = rho.copy()
        for _ in range(nsub):
            term = out
            acc = out.copy()
            for k in range(1, max_terms + 1):
                term = (h / k) * generator_apply(model, w, term, include_coherent)
                acc += term
                if math.sqrt(d) * float(np.linalg.norm(term)) < 0.1 * tol:
                    break
            out = acc

    herm_defect = float(np.linalg.norm(out - out.conj().T))  # Frobenius >= spectral
    _check_defect(herm_defect, abs(complex(np.trace(out)) - 1.0))
    out = 0.5 * (out + out.conj().T)
    out = out / float(np.trace(out).real)
    _check_floor(out[np.newaxis])
    return out


def _taylor_substeps(gen, state, h, nsub, tol, bound, d, max_terms):
    """Apply exp(h gen) ``nsub`` times to ``state`` by truncated Taylor series.

    ``bound`` bounds the 1->1 norm of ``gen`` and ``d`` is the Hilbert
    dimension, so sqrt(d) times the Frobenius norm bounds the trace norm.
    """
    h_bound = h * max(bound, 1e-300)
    sqrt_d = math.sqrt(d)
    for _ in range(nsub):
        term = state
        acc = state.copy()
        for k in range(1, max_terms + 1):
            term = (h / k) * gen.dot(term)  # dot: far less call overhead than @
            acc += term
            # ||term_{k+1}||_tr <= ||term_k||_tr h ||L|| / (k+1); stop as
            # soon as that bound falls below the budget
            norm = math.sqrt(np.vdot(term, term).real)
            next_bound = sqrt_d * norm * h_bound / (k + 1)
            if next_bound < 0.1 * tol:
                break
        state = acc
    return state


def _check_defect(herm_defect, trace_defect):
    """Raise when an evolved state's Hermiticity or trace defect exceeds 1e-7."""
    defect = max(herm_defect, trace_defect)
    if defect > 1e-7:
        raise EvolutionDefect(
            f"evolved state has Hermiticity/trace defect {defect:.3e} > 1e-7"
        )
    logger.debug("evolve defect %.3e (herm %.3e, trace %.3e)",
                 defect, herm_defect, trace_defect)


def _check_floor(blocks):
    """Raise unless every Hermitian block in the (n, k, k) stack is >= -1e-6.

    A Cholesky of block + 1e-6 I succeeds exactly when the floor holds, and
    is cheaper than an eigendecomposition.
    """
    if blocks.shape[-1] == 1:
        lo = float(np.min(blocks.real))
    else:
        try:
            np.linalg.cholesky(blocks + 1e-6 * np.eye(blocks.shape[-1]))
            return
        except np.linalg.LinAlgError:
            lo = float(np.min(np.linalg.eigvalsh(blocks)[..., 0]))
    if lo < -1e-6:
        raise PositivityDefect(f"minimum eigenvalue {lo:.3e} below -1e-6")


class ZeroFrequencySector:
    """The omega = 0 sector of a Davies generator.

    The Davies generator commutes with [H, .] (Davies, Commun. Math. Phys.
    39 (1974) 91), so a state that is block-diagonal by energy group in the
    eigenbasis V of H stays so.  Such a state is stored as ``x``, the
    row-major energy-group blocks of V^dag rho V laid end to end:
    sum_g d_g^2 numbers instead of the d^2 of vec(rho).  Obtain one with
    :func:`zero_frequency_sector`.
    """

    def __init__(self, model: LindbladModel):
        sd = model.sd
        self.dim = model.dim
        self._v = sd.eigenvectors
        self._vdag = self._v.conj().T
        groups = [np.arange(sl.start, sl.stop) for sl in sd.group_slices]
        self._rows = np.concatenate([np.repeat(g, len(g)) for g in groups])
        self._cols = np.concatenate([np.tile(g, len(g)) for g in groups])
        self._diag = np.flatnonzero(self._rows == self._cols)
        swap, starts, by_size, offset = [], [], {}, 0
        for g in groups:
            local = offset + np.arange(len(g) ** 2).reshape(len(g), len(g))
            swap.append(local.T.ravel())
            starts.append(local[:, 0])
            by_size.setdefault(len(g), []).append(local)
            offset += len(g) ** 2
        self._swap = np.concatenate(swap)  # position of the transposed entry
        self._row_starts = np.concatenate(starts)  # rows in the order of _diag
        self._blocks = [np.stack(b) for b in by_size.values()]
        self.generators = self._jump_generators(model)

    def _jump_generators(self, model):
        """Per jump, the sector matrix of L_a (plus the coherent part when the
        model has one) and the norm bound evolve() uses; None if any leaks."""
        # E_q = V |r_q><c_q| V^dag spans the sector; column q of a generator
        # holds the sector coordinates of its image of E_q
        basis = (self._v[:, self._rows].T[:, :, np.newaxis]
                 * self._vdag[self._cols][:, np.newaxis, :])
        h = model.ham.dense
        out = []
        for jump in model.jumps:
            img = _lindblad_apply(model, jump.label, basis)
            if model.include_coherent:
                img += -1j * (h @ basis - basis @ h)
            gen = self._project(img)
            if gen is None:
                logger.debug("jump %s leaves the omega = 0 sector", jump.label)
                return None
            unit = weight_vector(model, label=jump.label)
            out.append((gen, _generator_norm_bound(model, unit,
                                                   model.include_coherent)))
        return out

    @property
    def size(self):
        return len(self._rows)

    def _project(self, images):
        """Sector matrix of a stack of images L[E_q]; None if any leaves it."""
        full = self._vdag @ images @ self._v
        gen = np.ascontiguousarray(full[:, self._rows, self._cols].T)
        full[:, self._rows, self._cols] = 0.0
        leak = float(np.max(np.linalg.norm(full, axis=(1, 2)), initial=0.0))
        if leak > SECTOR_TOL * max(float(np.linalg.norm(gen)), 1e-300):
            return None
        return gen

    def coords(self, rho):
        """Sector coordinates of ``rho``, or None when it lies outside."""
        t = self._vdag @ np.asarray(rho, dtype=complex) @ self._v
        x = t[self._rows, self._cols]
        t[self._rows, self._cols] = 0.0
        if float(np.linalg.norm(t)) > SECTOR_TOL:
            return None
        return x

    def density(self, x):
        """The density matrix with sector coordinates ``x``."""
        t = np.zeros((self.dim, self.dim), dtype=complex)
        t[self._rows, self._cols] = x
        rho = self._v @ t @ self._vdag
        return 0.5 * (rho + rho.conj().T)

    def row(self, op):
        """Row vector r with r @ x = Tr(op rho) for states in the sector."""
        return (self._vdag @ np.asarray(op, dtype=complex) @ self._v)[
            self._cols, self._rows
        ]

    def evolve(self, x, index, s):
        """Sector form of ``evolve(model, w, rho, s)`` with w the unit vector
        along jump ``index`` and the model's coherent setting.

        The same truncated-Taylor rule and guards apply: a Hermiticity/trace
        defect above 1e-7 raises :class:`EvolutionDefect`, and the -1e-6
        positivity floor is checked on each energy-group block.
        """
        if s < 0:
            raise NegativeTime(f"evolution time must be nonnegative, got {s}")
        if s > 10.0 + 1e-12:
            raise ValueError("guard: s * ||w||_1 must not exceed 10")
        if s == 0.0:
            return x.copy()
        gen, bound = self.generators[index]
        nsub = max(1, int(math.ceil(s * bound)))
        x = _taylor_substeps(gen, x, s / nsub, nsub, TAYLOR_TOL / nsub, bound,
                             self.dim, MAX_TAYLOR_TERMS)
        swapped = x[self._swap].conj()
        trace = complex(x[self._diag].sum())
        skew = x - swapped
        _check_defect(math.sqrt(np.vdot(skew, skew).real), abs(trace - 1.0))
        # Hermitizing keeps the real part of the diagonal, hence of the trace
        x = (0.5 / trace.real) * (x + swapped)
        # Gershgorin: every eigenvalue is >= some diag - (off-diagonal row
        # sum), so the floor holds when all of these do; else check exactly
        diag = x[self._diag].real
        radius = np.add.reduceat(np.abs(x), self._row_starts) - np.abs(diag)
        if min((diag - radius).tolist()) < -1e-6:
            for blocks in self._blocks:
                _check_floor(x[blocks])
        return x


def zero_frequency_sector(model: LindbladModel):
    """The model's :class:`ZeroFrequencySector`, or None if it has none.

    Only Davies models qualify, only while sum_g d_g^2 * d^2 stays within
    ``SECTOR_MAX_ENTRIES`` (the cost of building the sector generators),
    and only when every jump's generator maps the sector into itself within
    ``SECTOR_TOL``; a Bohr-frequency cluster that merges distinct energy
    differences can break this.  The result is cached on the model.
    """
    if model._sector is None:
        model._sector = False
        size = sum((sl.stop - sl.start) ** 2 for sl in model.sd.group_slices)
        if model.davies and size * model.dim**2 <= SECTOR_MAX_ENTRIES:
            sector = ZeroFrequencySector(model)
            if sector.generators is not None:
                model._sector = sector
    return model._sector or None
