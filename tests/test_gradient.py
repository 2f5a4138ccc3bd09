import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import NotCommutingHamiltonian


def qubit_ham():
    return tl.assemble([(0.5 * (np.eye(2) - tl.PAULI["Z"]), (0,))], 1)


def qubit_davies(beta=10.0):
    return tl.build_model(
        qubit_ham(), [("X0", tl.PAULI["X"].copy())],
        bath=BathSpec(beta=beta, tau=1.0), davies=True,
    )


def ising_davies(n, h, beta=5.0, lambda0=4.0, beta_infinite=False):
    ham = tl.build_ising_chain(n, h, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    return tl.build_model(
        ham, jumps, bath=BathSpec(beta=beta, tau=1.0, lambda0=lambda0),
        davies=True, beta_infinite=beta_infinite,
    )


def test_gradient_operator_qubit_davies():
    model = qubit_davies()
    spec = BathSpec(beta=10.0, tau=1.0)
    gm, gp = tl.gamma(-1.0, spec), tl.gamma(1.0, spec)
    op = tl.gradient_operator(model, "X0")
    assert np.linalg.norm(op - (-gm * np.diag([0, 1.0]) + gp * np.diag([1.0, 0])), 2) < 1e-12


def test_gradient_operator_commuting_jump_vanishes():
    ham = tl.assemble([(tl.PAULI["Z"], (0,))], 1)
    model = tl.build_model(ham, [("Z0", tl.PAULI["Z"].copy())],
                           bath=BathSpec(beta=3.0, tau=1.0), davies=True)
    assert np.linalg.norm(tl.gradient_operator(model, "Z0"), 2) < 1e-9


def test_gradient_operator_ising_domain_wall_structure():
    beta = 5.0
    model = ising_davies(4, 0.0, beta=beta)
    spec = BathSpec(beta=beta, tau=1.0, lambda0=4.0)
    theta0 = -4.0 * tl.gamma(-4.0, spec)
    p = tl.projector(tl.basis_state("010")) + tl.projector(tl.basis_state("101"))
    target = tl.kron_embed(theta0 * p, [0, 1, 2], 4)
    op = tl.gradient_operator(model, "X1")
    assert np.linalg.norm(op - target, 2) <= np.exp(-4.0 * beta)


def test_gradient_vector_ground_state_zero():
    model = ising_davies(3, 0.0, beta_infinite=True)
    rho = tl.projector(tl.basis_state("000"))
    report = tl.gradient_vector(model, rho)
    assert np.all(report.g <= 1e-8)
    assert report.inf_norm_minus <= 1e-8
    assert np.all(report.grad_plus * report.grad_minus == 0.0)
    assert np.allclose(report.g, report.grad_plus - report.grad_minus)


def test_gradient_vector_qubit_excited():
    model = qubit_davies(beta=10.0)
    spec = BathSpec(beta=10.0, tau=1.0)
    report = tl.gradient_vector(model, tl.projector(tl.basis_state("1")))
    assert report.g[0] == pytest.approx(-tl.gamma(-1.0, spec), abs=1e-10)


def test_gradient_vector_zero_temperature_no_positive_part():
    model = ising_davies(3, 0.5, beta_infinite=True)
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        report = tl.gradient_vector(model, rho)
        assert np.all(report.grad_plus <= 1e-10)


def test_certify_qubit_excited_violates_necessary():
    model = qubit_davies(beta=10.0)
    cert = tl.certify_local_min(model, tl.projector(tl.basis_state("1")), 0.01)
    assert cert.kind == "not_local_min_necessary_violated"
    assert cert.witness == "X0"
    assert cert.inf_norm_minus == pytest.approx(0.13790758, abs=1e-6)


def test_certify_ground_state_sufficient():
    model = ising_davies(3, 0.0, beta_infinite=True)
    cert = tl.certify_local_min(model, tl.projector(tl.basis_state("111")), 1e-3)
    assert cert.kind == "local_min_sufficient"
    assert cert.witness is None


def test_certify_isolated_domain_walls():
    beta = 5.0
    model = ising_davies(4, 0.0, beta=beta)
    rho = tl.projector(tl.basis_state("0011"))
    cert = tl.certify_local_min(model, rho, 10.0 * np.exp(-4.0 * beta))
    assert cert.kind == "local_min_sufficient"


def test_certify_boundary_inconclusive():
    model = qubit_davies(beta=10.0)
    rho = tl.projector(tl.basis_state("1"))
    value = tl.gradient_vector(model, rho).inf_norm_minus
    cert = tl.certify_local_min(model, rho, value)
    assert cert.kind == "inconclusive"


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, float("nan")])
def test_certify_rejects_a_nonpositive_or_nan_epsilon(epsilon):
    model = qubit_davies(beta=10.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        tl.certify_local_min(model, model.sd.ground_projector, epsilon)


@pytest.mark.parametrize("r, epsilon", [(float("nan"), 0.1), (0.1, float("nan")),
                                        (-0.1, 0.1), (0.1, -0.1)])
def test_negative_gradient_condition_rejects_a_negative_or_nan_parameter(r, epsilon):
    model = qubit_davies(beta=10.0)
    p_g = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="must be nonnegative"):
        tl.negative_gradient_condition(model, [1.0], p_g, r=r, epsilon=epsilon)


def test_negative_gradient_condition_rejects_a_non_idempotent_projector():
    model = qubit_davies(beta=10.0)
    with pytest.raises(ValueError, match="ground_projector is not idempotent"):
        tl.negative_gradient_condition(model, [1.0], np.diag([0.5, 0.0]), r=0.1, epsilon=0.1)
    with pytest.raises(tl.errors.DimensionMismatch):  # a projector, but of 4 levels
        tl.negative_gradient_condition(model, [1.0], np.diag([1.0, 0, 0, 0]), r=0.1, epsilon=0.1)


def test_ngc_params_mapping():
    r, shift = tl.ngc_params(0.02, 0.1)
    assert r == pytest.approx(0.4)
    assert shift == pytest.approx(0.02)


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
def test_ngc_params_rejects_a_delta_that_is_not_positive(delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        tl.ngc_params(0.1, delta)


def test_negative_gradient_condition_qubit_holds():
    model = qubit_davies(beta=10.0)
    spec = BathSpec(beta=10.0, tau=1.0)
    gm, gp = tl.gamma(-1.0, spec), tl.gamma(1.0, spec)
    p_g = np.diag([1.0, 0.0]).astype(complex)
    holds, slack = tl.negative_gradient_condition(model, [1.0], p_g, r=gm, epsilon=gp)
    assert holds
    assert slack == pytest.approx(0.0, abs=1e-12)


def test_negative_gradient_condition_ising_fails_with_suboptimal_minima():
    beta = 5.0
    model = ising_davies(4, 0.0, beta=beta)
    p_g = model.sd.ground_projector
    alpha = np.full(4, 0.25)
    eps = np.exp(-4.0 * beta)
    holds, slack = tl.negative_gradient_condition(
        model, alpha, p_g, r=20.0 * eps, epsilon=eps
    )
    assert not holds
    # witness: the slack is at least as negative as the |0011> diagnosis
    rho = tl.projector(tl.basis_state("0011"))
    g = tl.gradient_vector(model, rho).g
    diag = -float(alpha @ g) - 20.0 * eps + eps
    assert slack <= diag + 1e-12


def test_negative_gradient_condition_weak_field_metastable():
    model = ising_davies(4, 1.0, beta=6.0)
    p_g = model.sd.ground_projector
    alpha = np.full(4, 0.25)
    holds, slack = tl.negative_gradient_condition(
        model, alpha, p_g, r=1e-2, epsilon=1e-4
    )
    assert not holds
    vec = tl.basis_state("1111")
    # the metastable all-ones state certifies the failure direction
    m_diag = -float(alpha @ tl.gradient_vector(model, tl.projector(vec)).g)
    assert m_diag - 1e-2 + 1e-4 < 0
    assert slack <= m_diag - 1e-2 + 1e-4 + 1e-9


def test_localize_commuting_ising():
    n = 5
    ham = tl.build_ising_chain(n, 0.0, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=4.0, tau=1.0), davies=True)
    local = tl.localize_commuting(model, "X2")
    zz = np.kron(tl.PAULI["Z"], tl.PAULI["Z"])
    expected = tl.kron_embed(-zz, [1, 2], n) + tl.kron_embed(-zz, [2, 3], n)
    assert np.linalg.norm(local.dense - expected, 2) < 1e-12


def test_localize_commuting_full_vs_localized_gradient():
    n = 5
    ham = tl.build_ising_chain(n, 0.5, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=4.0, tau=1.0, lambda0=4.0),
                           davies=True)
    full_grad = tl.gradient_operator(model, "X2")
    local = tl.localize_commuting(model, "X2")
    reduced = tl.build_model(
        local, [("X2", tl.kron_embed(tl.PAULI["X"], [2], n))],
        bath=BathSpec(beta=4.0, tau=1.0, lambda0=4.0), davies=True,
    )
    local_grad = tl.gradient_operator(reduced, "X2")
    assert np.linalg.norm(full_grad - local_grad, 2) < 1e-8


def test_localize_commuting_trivial_jump():
    n = 3
    ham = tl.build_ising_chain(n, 0.0, periodic=True)
    jumps = [
        ("Z0", tl.kron_embed(tl.PAULI["Z"], [0], n)),
        ("X0", tl.kron_embed(tl.PAULI["X"], [0], n)),
    ]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=4.0, tau=1.0), davies=True)
    local = tl.localize_commuting(model, "Z0")
    assert np.allclose(local.dense, 0.0)
    assert np.linalg.norm(tl.gradient_operator(model, "Z0"), 2) < 1e-10


def test_localize_commuting_rejects_noncommuting():
    ham = tl.assemble(
        [(tl.PAULI["Z"], (0,)), (tl.PAULI["X"], (0,))], 1
    )
    model = tl.build_model(ham, [("X0", tl.PAULI["X"].copy())],
                           bath=BathSpec(beta=1.0, tau=1.0), davies=True)
    with pytest.raises(NotCommutingHamiltonian):
        tl.localize_commuting(model, "X0")


def test_finite_difference_gradient_consistency():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ham = tl.assemble([(a + a.conj().T, (0, 1))], 2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = m + m.conj().T
    m /= np.linalg.norm(m, 2)
    model = tl.build_model(ham, [("A", m)], bath=BathSpec(beta=1.5, tau=30.0))
    rho = np.diag(rng.uniform(0.1, 1.0, size=4)).astype(complex)
    rho /= np.trace(rho).real
    g = tl.gradient_vector(model, rho).g[0]
    e0 = model.energy(rho)
    errs = []
    for s in (1e-3, 5e-4):
        fd = (model.energy(tl.evolve(model, [1.0], rho, s)) - e0) / s
        errs.append(abs(fd - g))
    # first-order convergence: halving s roughly halves the error
    assert errs[1] <= 0.65 * errs[0] + 1e-11


def test_almost_negative_gradients_trend():
    # lambda_max(sum_a L^dag_a[H]) shrinks as beta and tau grow
    rng = np.random.default_rng(22)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ham = tl.assemble([((a + a.conj().T) / 4.0, (0, 1, 2))], 3)
    jumps = []
    for k in range(2):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = m + m.conj().T
        jumps.append((f"J{k}", m / np.linalg.norm(m, 2)))

    def lam_max(beta, tau):
        model = tl.build_model(ham, jumps, bath=BathSpec(beta=beta, tau=tau))
        total = sum(tl.gradient_operator(model, lab) for lab in model.jump_labels)
        return float(np.linalg.eigvalsh(total)[-1])

    grid = [(1.0, 50.0), (4.0, 200.0), (16.0, 800.0)]
    values = [lam_max(b, t) for b, t in grid]
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.25 * values[0]


def test_gradient_almost_diagonal_decay_with_tau():
    # off-block norm between well-separated eigenspaces decays with tau
    ham = tl.assemble(
        [(np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex), (0, 1))], 2
    )
    m = np.array(
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=complex
    )
    m /= np.linalg.norm(m, 2)
    p1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    p2 = np.eye(4) - p1
    norms = []
    for tau in (25.0, 100.0, 400.0):
        model = tl.build_model(ham, [("A", m)], bath=BathSpec(beta=2.0, tau=tau),
                               include_lamb_shift=False)
        grad = tl.gradient_operator(model, "A")
        norms.append(np.linalg.norm(p1 @ grad @ p2, 2))
    assert norms[0] > norms[1] > norms[2]


def test_subspace_gradient_relation():
    # lambda_min(-L^dag[H] + P L^dag[H] P) bounded below by a constant that
    # shrinks as (beta, tau) grow
    ham = tl.assemble(
        [(np.diag([0.0, 0.0, 1.0, 3.0]).astype(complex), (0, 1))], 2
    )
    rng = np.random.default_rng(23)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = m + m.conj().T
    m /= np.linalg.norm(m, 2)
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    bounds = []
    for beta, tau in ((2.0, 50.0), (8.0, 400.0)):
        model = tl.build_model(ham, [("A", m)], bath=BathSpec(beta=beta, tau=tau))
        grad = tl.gradient_operator(model, "A")
        gap = np.linalg.eigvalsh(-grad + p @ grad @ p)[0]
        bounds.append(gap)
    assert bounds[1] > bounds[0] - 1e-12
    assert bounds[1] > -0.05


def test_local_to_global_gradient_condition():
    # frustration-free H = h1 + h2 with h_i = (I - Z_i)/2 under zero-T jumps:
    # -L^dag[h_i] >= r_i h_i implies -L^dag[H] >= min(r_i) H
    n = 2
    h1 = tl.kron_embed(0.5 * (np.eye(2) - tl.PAULI["Z"]), [0], n)
    h2 = tl.kron_embed(0.5 * (np.eye(2) - tl.PAULI["Z"]), [1], n)
    ham = tl.assemble(
        [(0.5 * (np.eye(2) - tl.PAULI["Z"]), (j,)) for j in range(n)], n
    )
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(ham, jumps, beta_infinite=True)
    total = sum(tl.gradient_operator(model, lab) for lab in model.jump_labels)
    r_values = []
    for h_i in (h1, h2):
        minus = -sum(
            tl.lindblad_adjoint(model, lab, h_i) for lab in model.jump_labels
        )
        # largest r with -L^dag[h_i] - r h_i >= 0 on the support of h_i
        vals = []
        w, v = np.linalg.eigh(h_i)
        for idx in np.nonzero(w > 0.5)[0]:
            vec = v[:, idx]
            vals.append(float((vec.conj() @ minus @ vec).real / w[idx]))
        r_values.append(min(vals))
    r = min(r_values)
    assert r > 0
    slack = np.linalg.eigvalsh(-total - r * ham.dense)[0]
    assert slack >= -1e-9
