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
from .errors import NotCommutingHamiltonian
from .hamiltonian import LocalHamiltonian, assemble
from .lindblad import LindbladModel, lindblad_adjoint

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
    """Hermitian gradient operator L^dag_a[H] (cached on the model)."""
    if label not in model._gradient_ops:
        op = lindblad_adjoint(model, label, model.ham.dense)
        model._gradient_ops[label] = op
    return model._gradient_ops[label]


def gradient_vector(model: LindbladModel, rho, labels=None) -> GradientReport:
    """Energy gradient g_a = Tr(L^dag_a[H] rho) over a jump subset."""
    if labels is None:
        labels = model.jump_labels
    rho = np.asarray(rho, dtype=complex)
    g = np.empty(len(labels))
    for i, label in enumerate(labels):
        op = gradient_operator(model, label)
        g[i] = float(np.sum(op * rho.T).real)
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
    undecided by the two conditions and reported as inconclusive.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    report = gradient_vector(model, rho)
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


def negative_gradient_condition(model: LindbladModel, alpha_hat, ground_projector,
                                r, epsilon):
    """Check -sum_a alpha_a L^dag_a[H] >= r (I - P_G) - epsilon I.

    Returns ``(holds, slack)`` where slack is the minimum eigenvalue of
    M = -sum alpha_a L^dag_a[H] - r (I - P_G) + epsilon I and the
    condition holds iff slack >= -1e-9.
    """
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    if alpha_hat.shape != (len(model.jumps),):
        raise ValueError(f"alpha_hat must have one entry per jump")
    if np.any(alpha_hat < 0):
        raise ValueError("alpha_hat must be nonnegative")
    if abs(float(np.sum(alpha_hat)) - 1.0) > 1e-9:
        raise ValueError("alpha_hat must have unit 1-norm")
    if r < 0 or epsilon < 0:
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
