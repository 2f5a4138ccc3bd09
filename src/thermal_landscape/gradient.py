"""Energy gradients, local-minimum certificates and the negative gradient
condition.

The per-jump gradient operator is L^dag_a[H]; its expectation on a state
is the rate of energy change along jump a.  A state is certified an
epsilon-approximate local minimum when the negative part of the gradient
vector is uniformly below epsilon.
"""

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import DimensionMismatch, NonFiniteValue, NotCommutingHamiltonian
from .hamiltonian import LocalHamiltonian, assemble
from .lindblad import LindbladModel

BOUNDARY_TOL = 1e-12

LOCAL_MIN_SUFFICIENT = "local_min_sufficient"
NECESSARY_VIOLATED = "not_local_min_necessary_violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GradientReport:
    """Per-jump energy gradients of a state.

    ``g = grad_plus - grad_minus`` entrywise, with at most one of the two
    nonzero per entry; ``inf_norm_minus`` is max(grad_minus).
    """

    labels: tuple
    g: np.ndarray
    grad_plus: np.ndarray
    grad_minus: np.ndarray
    inf_norm_minus: float


@dataclass(frozen=True)
class CertificateResult:
    kind: str
    epsilon: float
    witness: str | None
    inf_norm_minus: float


def gradient_operator(model: LindbladModel, label):
    """Hermitian gradient operator L^dag_a[H], a new array on each read: the
    model's cached eigenbasis entries (:meth:`LindbladModel._gradient_entries`)
    rotated out by V and Hermitized last, so it is exactly Hermitian.  It
    equals :func:`lindblad.lindblad_adjoint` of H, a general observable's adjoint."""
    op = model.sd.from_eig(ops.from_entries(model._gradient_entries(label), model.dim))
    op += op.conj().T
    op *= 0.5
    return op


def _transposed_parts(op):
    """Float positions and values of the entries of the layout of ``op``: conj(op^T),
    row-major, viewed as float64.  Read from the bits of op itself, with no d x d copy:
    conj(op^T)[a, b] is op[b, a] with its imaginary part negated."""
    d = len(op)
    floats = np.ascontiguousarray(op).view(np.float64).reshape(d, d, 2)
    b, a, part = np.nonzero(floats.view(np.uint64))
    vals = floats[b, a, part]
    return 2 * (a * d + b) + part, np.where(part == 1, -vals, vals)


def _indexed_layout(g, p):
    """:func:`_transposed_parts` of X = P g P^T Hermitized, P of ``p``, from the nonzero
    entries ``g`` = (rows, cols, values) of g, with no d x d array."""
    d = len(p)
    a, b, vals = g
    u = np.union1d(a * d + b, b * d + a)  # closed under transposition
    ua, ub = divmod(u, d)
    x = np.zeros(len(u), dtype=complex)
    x[np.searchsorted(u, a * d + b)] = vals + 0.0  # X at u, as from_eig writes it
    herm = 0.5 * (x + x[np.searchsorted(u, ub * d + ua)].conj())  # as gradient_operator does
    parts = herm.conj().view(np.float64).reshape(-1, 2)  # a zero of conj(X^T) is (+0.0, -0.0)
    at, part = np.nonzero(parts.view(np.uint64) != np.array([0.0, -0.0]).view(np.uint64))
    return 2 * (p[ub] * d + p[ua])[at] + part, parts[at, part]


class GradientScan:
    """Re Tr(X rho) for d x d operators X, as one real matvec.

    Re Tr(X rho) = sum_ij Re(X_ij rho_ji) is the dot product of conj(X^T)
    and rho, both row-major and viewed as float64, for any complex rho.
    Each of ``layouts`` is one X as those float positions and values
    (:func:`_transposed_parts`).  ``rows`` keeps ``support``, the union of
    the rows' nonzero columns: d of the 2 d^2 for the diagonal operators of
    the Ising chain under X jumps, where a basis-state certificate is one
    column.  Obtain a model's with :func:`gradient_scan`, or with
    :func:`eigenbasis_scan` in its eigenbasis.
    """

    def __init__(self, layouts, dim):
        self.dim = d = dim
        nonzero = np.zeros(2 * d * d, dtype=bool)
        for pos, vals in layouts:
            nonzero[pos[vals != 0]] = True
        self.support = np.flatnonzero(nonzero)
        self.rows = np.tile(np.where(self.support % 2, -0.0, 0.0), (len(layouts), 1))
        for row, (pos, vals) in zip(self.rows, layouts):
            hit = nonzero[pos]
            row[np.searchsorted(self.support, pos[hit])] = vals[hit]

    def read(self, x):
        """The gradients along every jump, then the energy, of the state
        whose row-major vec(rho) is the contiguous complex ``x``."""
        return self.rows.dot(x.view(np.float64)[self.support])

    def __call__(self, rho):
        """:meth:`read` of the d x d state ``rho``; for a bit string, of |bits><bits| with no
        density formed: the column of ``rows`` at its diagonal entry, plus +0.0 as in the matvec."""
        if isinstance(rho, str):
            if 2 ** len(rho) != self.dim:
                raise DimensionMismatch(f"{len(rho)} bits do not match dimension {self.dim}")
            at = 2 * ops.basis_index(rho) * (self.dim + 1)
            col = np.searchsorted(self.support, at)
            if col < len(self.support) and self.support[col] == at:
                return self.rows[:, col] + 0.0
            return np.zeros(len(self.rows))
        rho = np.ascontiguousarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"state shape {rho.shape} does not match dimension {self.dim}")
        return self.read(rho.reshape(-1))


def gradient_scan(model: LindbladModel) -> GradientScan:
    """The model's :class:`GradientScan` of X = L^dag_a[H] in jump order,
    then X = H, built on first use and cached: each row read from the bits
    of its operator or, with a permutation eigenbasis, found by index from
    its eigenbasis entries, with no operator formed."""
    if model._scan is None:
        p = model.sd.permutation
        layouts = [_transposed_parts(gradient_operator(model, label)) if p is None
                   else _indexed_layout(model._gradient_entries(label), p)
                   for label in model.jump_labels]
        model._scan = GradientScan(layouts + [_transposed_parts(model.ham.dense)], model.dim)
    return model._scan


def eigenbasis_scan(model: LindbladModel) -> GradientScan:
    """The rows of :func:`gradient_scan` in the eigenbasis V, which read
    vec(V^dag rho V): gradient rows found by index from the Hermitized
    eigenbasis entries, the energy row the eigenvalues on the diagonal, with
    no d x d array.  Built on each call."""
    d, same = model.dim, np.arange(model.dim)
    layouts = [_indexed_layout(model._gradient_entries(label), same) for label in model.jump_labels]
    return GradientScan(layouts + [(2 * (d + 1) * same, model.sd.eigenvalues)], d)


def gradient_vector(model: LindbladModel, rho, labels=None) -> GradientReport:
    """Energy gradient g_a = Tr(L^dag_a[H] rho) over a jump subset; rho may be bits."""
    values = gradient_scan(model)(rho)
    if labels is None:
        labels = model.jump_labels
        g = values[:-1]
    else:
        g = values[[model.jump_index(label) for label in labels]]
    plus = np.maximum(g, 0.0)
    minus = np.maximum(-g, 0.0)
    return GradientReport(
        labels=tuple(labels),
        g=g,
        grad_plus=plus,
        grad_minus=minus,
        inf_norm_minus=float(np.max(minus)) if len(minus) else 0.0,
    )


def certify_local_min(model: LindbladModel, rho, epsilon) -> CertificateResult:
    """Apply the sufficient (strict <) and necessary (<=) conditions.

    Equality of ||grad_minus||_inf and epsilon within 1e-12 is genuinely
    undecided by the two conditions and reported as inconclusive.  A
    gradient that is NaN or infinite raises :class:`NonFiniteValue`.
    """
    if not epsilon > 0:  # NaN too
        raise ValueError("epsilon must be positive")
    report = gradient_vector(model, rho)
    if not np.all(np.isfinite(report.g)):
        raise NonFiniteValue(f"gradient {report.g.tolist()} is not finite")
    value = report.inf_norm_minus
    if abs(value - epsilon) <= BOUNDARY_TOL:
        kind, witness = INCONCLUSIVE, None
    elif value < epsilon:
        kind, witness = LOCAL_MIN_SUFFICIENT, None
    else:
        kind = NECESSARY_VIOLATED
        witness = report.labels[int(np.argmax(report.grad_minus))]
    return CertificateResult(
        kind=kind, epsilon=float(epsilon), witness=witness,
        inf_norm_minus=value,
    )


def ngc_params(epsilon, delta):
    """Map the (epsilon, delta) guarantee to the raw (r, shift) pair.

    The no-suboptimal-minima condition reads
    -sum alpha_a L^dag_a[H] >= (2 eps / delta)(I - P_G) - eps I,
    i.e. r = 2 eps / delta with shift eps.
    """
    return 2.0 * epsilon / delta, epsilon


def ngc_weights(model: LindbladModel, alpha_hat):
    """``alpha_hat`` as a float array, checked as the negative gradient
    condition needs it: one entry per jump, each nonnegative (which rules
    out NaN), summing to 1 within 1e-9.  Raises ValueError otherwise."""
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    if alpha_hat.shape != (len(model.jumps),):
        raise ValueError(f"alpha_hat must have one entry per jump ({len(model.jumps)})")
    if not np.all(alpha_hat >= 0):
        raise ValueError("alpha_hat must be nonnegative")
    if abs(float(np.sum(alpha_hat)) - 1.0) > 1e-9:
        raise ValueError("alpha_hat must have unit 1-norm")
    return alpha_hat


def negative_gradient_condition(model: LindbladModel, alpha_hat, ground_projector,
                                r, epsilon):
    """Check -sum_a alpha_a L^dag_a[H] >= r (I - P_G) - epsilon I.

    Returns ``(holds, slack)`` where slack is the minimum eigenvalue of
    M = -sum alpha_a L^dag_a[H] - r (I - P_G) + epsilon I and the
    condition holds iff slack >= -1e-9.
    """
    alpha_hat = ngc_weights(model, alpha_hat)
    if not (r >= 0 and epsilon >= 0):  # NaN too
        raise ValueError("r and epsilon must be nonnegative")
    p_g = np.asarray(ground_projector, dtype=complex)
    if ops.operator_norm(p_g @ p_g - p_g) > 1e-9:
        raise ValueError("ground_projector is not idempotent")
    dim = model.dim
    m = np.zeros((dim, dim), dtype=complex)
    for a, jump in zip(alpha_hat, model.jumps):
        if a:
            m -= a * gradient_operator(model, jump.label)
    m -= r * (np.eye(dim) - p_g)
    m += epsilon * np.eye(dim)
    slack = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    return slack >= -1e-9, slack


def localize_commuting(model: LindbladModel, label) -> LocalHamiltonian:
    """For a commuting Hamiltonian, the part H_{in a} seen by jump a.

    Returns the sum of terms that fail to commute with A^a (embedded on
    the full register); the gradient of the full Hamiltonian equals the
    gradient of H_{in a} computed with H_{in a} as the Hamiltonian.
    """
    ham = model.ham
    n = ham.n
    embedded = [ops.kron_embed(op, sites, n) for op, sites in ham.terms]
    for i, a_mat in enumerate(embedded):
        for b_mat in embedded[i + 1:]:
            if ops.operator_norm(a_mat @ b_mat - b_mat @ a_mat) > 1e-10:
                raise NotCommutingHamiltonian(
                    "Hamiltonian terms do not pairwise commute"
                )
    jump_mat = model.jump(label).matrix
    kept = []
    for (op, sites), a_mat in zip(ham.terms, embedded):
        if ops.operator_norm(a_mat @ jump_mat - jump_mat @ a_mat) > 1e-10:
            kept.append((op, sites))
    return assemble(kept, n)
