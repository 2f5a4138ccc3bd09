import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import lindblad as L
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import (
    JumpNotNormalized,
    JumpSetNotClosed,
    NegativeTime,
    UnknownJump,
)


def qubit_ham(j=1.0):
    return tl.assemble([(0.5 * j * (np.eye(2) - tl.PAULI["Z"]), (0,))], 1)


def qubit_davies_model(beta=10.0, lambda0=1.0, beta_infinite=False):
    return tl.build_model(
        qubit_ham(),
        [("X0", tl.PAULI["X"].copy())],
        bath=BathSpec(beta=beta, tau=1.0, lambda0=lambda0),
        davies=True,
        beta_infinite=beta_infinite,
    )


def random_model(rng, n=2, beta=2.0, tau=20.0, include_lamb=True,
                 hermitian_jumps=True, n_jumps=2):
    a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    ham = tl.assemble([(a + a.conj().T, tuple(range(n)))], n)
    jumps = []
    for k in range(n_jumps):
        m = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        if hermitian_jumps:
            m = m + m.conj().T
            m = m / np.linalg.norm(m, 2)
            jumps.append((f"J{k}", m))
        else:
            m = m / np.linalg.norm(m, 2)
            jumps.append((f"J{k}", m))
            jumps.append((f"J{k}dag", m.conj().T))
    return tl.build_model(
        ham, jumps, bath=BathSpec(beta=beta, tau=tau),
        include_lamb_shift=include_lamb,
    )


def random_state(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_jump_set_validation():
    ham = qubit_ham()
    with pytest.raises(JumpNotNormalized):
        tl.build_model(ham, [("big", 2.0 * tl.PAULI["X"])], davies=True,
                       bath=BathSpec(beta=1.0, tau=1.0))
    lower = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(JumpSetNotClosed):
        tl.build_model(ham, [("low", lower)], davies=True,
                       bath=BathSpec(beta=1.0, tau=1.0))
    # closed pair is accepted
    model = tl.build_model(
        ham, [("low", lower), ("raise", lower.conj().T)],
        davies=True, bath=BathSpec(beta=1.0, tau=1.0),
    )
    with pytest.raises(UnknownJump):
        model.jump("nope")


def plain_jump_set_closed(jumps):
    """Reference closure rule: every adjoint lies within 1e-10 ||A||_2 of a
    jump, in the spectral norm taken by SVD."""
    return all(
        any(np.linalg.norm(m.conj().T - other, 2) <= 1e-10 * np.linalg.norm(m, 2)
            for _, other in jumps)
        for _, m in jumps
    )


@pytest.mark.parametrize("s", [0.5, 0.9, 1.1, 1.5])
def test_jump_set_check_in_frobenius_band_matches_svd_rule(s):
    # B = A^dag + E with E = s 1e-10 diag(1, 1, 0, 0): ||E||_2 = s 1e-10 and
    # ||E||_F = sqrt(2) s 1e-10, inside the band (tol, 2 tol] of d = 4 for
    # s = 0.9 and 1.1, below it for 0.5 and above it for 1.5
    lower = np.kron(np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2)).astype(complex)
    e = s * 1e-10 * np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    jumps = [("A", lower), ("B", lower.conj().T + e)]
    closed = plain_jump_set_closed(jumps)
    assert closed == (s <= 1.0)
    ham = tl.build_ising_chain(2, 0.5, periodic=False)
    bath = BathSpec(beta=1.0, tau=1.0)
    if closed:
        tl.build_model(ham, jumps, bath=bath, davies=True)
    else:
        with pytest.raises(JumpSetNotClosed):
            tl.build_model(ham, jumps, bath=bath, davies=True)


def general_three_qubit_system():
    rng = np.random.default_rng(8)
    ham = tl.assemble([(tl.PAULI["X"], (0,)), (np.kron(tl.PAULI["Z"], tl.PAULI["Y"]), (0, 1)),
                       (0.7 * tl.PAULI["Z"], (2,))], 3)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = 0.8 * m / np.linalg.norm(m, 2)
    return ham, [("X1", tl.kron_embed(tl.PAULI["X"], [1], 3)), ("M", m), ("Mdag", m.conj().T)]


@pytest.mark.parametrize("ham, jumps", [
    pytest.param(*general_three_qubit_system(), id="general_n3"),
    pytest.param(tl.build_ising_chain(3, 0.0), [("X1", tl.kron_embed(tl.PAULI["X"], [1], 3))],
                 id="ising_n3_h0_x1"),
])
def test_build_model_jump_data_matches_projector_sandwiches(ham, jumps, sandwich_bohr_blocks):
    # the model reuses the norms of the jump-set check; its blocks must match
    # the projector sandwiches, and aa_norm the formula ||A^dag A||_2
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=2.0, tau=1.0), davies=True)
    for (label, mat), jump in zip(jumps, model.jumps):
        assert jump.label == label
        assert jump.aa_norm == np.linalg.norm(mat.conj().T @ mat, 2)
        keys, want = sandwich_bohr_blocks(mat, model.sd)
        assert jump.blocks.freq_indices.tolist() == keys
        norm = np.linalg.norm(mat, 2)
        for got, block in zip(jump.blocks.mats, want):
            assert np.max(np.abs(got - block)) <= 1e-12 * norm


def test_davies_adjoint_qubit_closed_form():
    model = qubit_davies_model(beta=10.0)
    spec = BathSpec(beta=10.0, tau=1.0)
    gm, gp = tl.gamma(-1.0, spec), tl.gamma(1.0, spec)
    out = tl.davies_adjoint(model, "X0", model.ham.dense)
    expected = -gm * np.diag([0.0, 1.0]) + gp * np.diag([1.0, 0.0])
    assert np.linalg.norm(out - expected, 2) < 1e-12
    assert gm == pytest.approx(0.13790758, abs=5e-7)


def test_davies_adjoint_gradient_identity():
    # for obs = H the Davies adjoint collapses to sum_nu nu gamma(nu) A_nu^dag A_nu
    rng = np.random.default_rng(17)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ham = tl.assemble([(a + a.conj().T, (0, 1, 2))], 3)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = (m + m.conj().T) / np.linalg.norm(m + m.conj().T, 2)
    model = tl.build_model(ham, [("A", m)], bath=BathSpec(beta=3.0, tau=1.0),
                           davies=True)
    jump = model.jump("A")
    weights = model.davies_gamma(jump.blocks.freqs)
    expected = np.zeros((8, 8), dtype=complex)
    for nu, w, mat in zip(jump.blocks.freqs, weights, jump.blocks.mats):
        expected += nu * w * (mat.conj().T @ mat)
    out = tl.davies_adjoint(model, "A", ham.dense)
    assert np.linalg.norm(out - expected, 2) < 1e-10


def test_davies_adjoint_identity_observable():
    model = qubit_davies_model()
    out = tl.davies_adjoint(model, "X0", np.eye(2, dtype=complex))
    assert np.linalg.norm(out, 2) < 1e-12


def test_davies_beta_infinite_no_heating():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ham = tl.assemble([(a + a.conj().T, (0, 1))], 2)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = m + m.conj().T
        m /= np.linalg.norm(m, 2)
        model = tl.build_model(ham, [("A", m)], beta_infinite=True)
        grad = tl.davies_adjoint(model, "A", ham.dense)
        assert np.linalg.eigvalsh(grad)[-1] <= 1e-10


def test_dissipative_adjoint_identity_and_norm():
    rng = np.random.default_rng(2)
    model = random_model(rng)
    out = tl.dissipative_adjoint(model, "J0", np.eye(4, dtype=complex))
    assert np.linalg.norm(out, 2) < 1e-9
    for _ in range(10):
        obs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = obs + obs.conj().T
        img = tl.dissipative_adjoint(model, "J0", obs)
        aa = model.jump("J0").aa_norm
        assert np.linalg.norm(img, 2) <= 2.0 * aa * np.linalg.norm(obs, 2) + 1e-8


def test_dissipative_adjoint_davies_cross_check():
    # finite-(beta, tau) dissipative adjoint approaches the Davies form
    ham = qubit_ham()
    jumps = [("X0", tl.PAULI["X"].copy())]
    fine = tl.build_model(ham, jumps, bath=BathSpec(beta=10.0, tau=1e4))
    davies = qubit_davies_model(beta=10.0)
    obs = ham.dense
    a = tl.dissipative_adjoint(fine, "X0", obs)
    b = tl.davies_adjoint(davies, "X0", obs)
    assert np.linalg.norm(a - b, 2) < 0.02


def test_gradient_norm_bound():
    rng = np.random.default_rng(3)
    for seed in range(5):
        model = random_model(np.random.default_rng(seed), include_lamb=True)
        h_norm = np.linalg.norm(model.ham.dense, 2)
        grad = tl.lindblad_adjoint(model, "J0", model.ham.dense)
        assert np.linalg.norm(grad, 2) <= 3.0 * h_norm + 1e-6


def test_lamb_shift_norm_and_identity_jump():
    rng = np.random.default_rng(4)
    model = random_model(rng, include_lamb=True)
    for label in model.jump_labels:
        h_ls = tl.lamb_shift_operator(model, label)
        aa = model.jump(label).aa_norm
        assert np.linalg.norm(h_ls - h_ls.conj().T, 2) < 1e-12
        assert np.linalg.norm(h_ls, 2) <= 0.5 * aa + 1e-6

    # identity jump: all weight in the nu = 0 block; no gradient contribution
    ham = qubit_ham()
    ident = tl.build_model(
        ham, [("I", np.eye(2, dtype=complex))],
        bath=BathSpec(beta=2.0, tau=20.0), include_lamb_shift=True,
    )
    h_ls = tl.lamb_shift_operator(ident, "I")
    assert np.linalg.norm(h_ls @ ham.dense - ham.dense @ h_ls, 2) < 1e-10
    grad = tl.lindblad_adjoint(ident, "I", ham.dense)
    assert np.linalg.norm(grad, 2) < 1e-8


def test_lamb_commutator_decreases_with_tau():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ham = tl.assemble([(a + a.conj().T, (0, 1))], 2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = m + m.conj().T
    m /= np.linalg.norm(m, 2)
    norms = []
    for tau in (1e2, 1e3, 1e4):
        model = tl.build_model(
            ham, [("A", m)], bath=BathSpec(beta=1.0, tau=tau),
            include_lamb_shift=True,
        )
        h_ls = tl.lamb_shift_operator(model, "A")
        norms.append(np.linalg.norm(
            h_ls @ ham.dense - ham.dense @ h_ls, 2
        ))
    assert norms[0] > norms[1] > norms[2]


def test_generator_structure_infinite_temperature():
    ham = tl.build_ising_chain(2, 0.3, periodic=False)
    jumps = [
        ("X0", tl.kron_embed(tl.PAULI["X"], [0], 2)),
        ("Z1", tl.kron_embed(tl.PAULI["Z"], [1], 2)),
    ]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=0.0, tau=15.0))
    rho = tl.maximally_mixed(2)
    out = tl.generator_apply(model, [1.0, 1.0], rho)
    assert abs(np.trace(out)) < 1e-9
    assert np.linalg.norm(out - out.conj().T, 2) < 1e-9


def test_adjoint_duality():
    rng = np.random.default_rng(8)
    model = random_model(rng)
    for _ in range(5):
        obs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = obs + obs.conj().T
        rho = random_state(rng, 4)
        lhs = np.trace(tl.dissipative_adjoint(model, "J0", obs) @ rho)
        rhs = np.trace(obs @ model._dissipator("J0").apply(rho))
        assert abs(lhs - rhs) < 1e-8


def test_evolve_identity_at_zero_time():
    model = qubit_davies_model()
    rho = tl.projector(tl.basis_state("1"))
    out = tl.evolve(model, [1.0], rho, 0.0)
    assert np.array_equal(out, rho)


def test_evolve_semigroup():
    rng = np.random.default_rng(9)
    model = random_model(rng, include_lamb=True)
    rho = random_state(rng, 4)
    w = [1.0, 0.5]
    one = tl.evolve(model, w, rho, 1.2)
    two = tl.evolve(model, w, tl.evolve(model, w, rho, 0.6), 0.6)
    diff = np.sum(np.abs(np.linalg.eigvalsh(one - two)))
    assert diff < 1e-8


def test_evolve_qubit_rate_equation_oracle():
    model = qubit_davies_model(beta=10.0)
    spec = BathSpec(beta=10.0, tau=1.0)
    gm, gp = tl.gamma(-1.0, spec), tl.gamma(1.0, spec)
    pbar = gp / (gm + gp)
    rho = tl.projector(tl.basis_state("1"))
    for s in (0.5, 2.0, 5.0):
        out = tl.evolve(model, [1.0], rho, s)
        expected = pbar + (1.0 - pbar) * np.exp(-(gm + gp) * s)
        assert out[1, 1].real == pytest.approx(expected, abs=1e-6)


def test_evolve_guards():
    model = qubit_davies_model()
    rho = tl.maximally_mixed(1)
    with pytest.raises(NegativeTime):
        tl.evolve(model, [1.0], rho, -0.1)
    with pytest.raises(ValueError):
        tl.evolve(model, [2.0], rho, 6.0)  # s * ||w||_1 > 10


def test_evolve_matrix_free_path_matches_superop():
    # force the matrix-free branch by lowering the dense-dim threshold
    rng = np.random.default_rng(10)
    model = random_model(rng)
    rho = random_state(rng, 4)
    dense = tl.evolve(model, [1.0, 0.3], rho, 0.8)
    old = L.SUPEROP_MAX_DIM
    try:
        L.SUPEROP_MAX_DIM = 1
        free = tl.evolve(model, [1.0, 0.3], rho, 0.8)
    finally:
        L.SUPEROP_MAX_DIM = old
    assert np.linalg.norm(dense - free, 2) < 1e-10


def test_davies_fixed_point_stationary():
    model = qubit_davies_model(beta=10.0)
    spec = BathSpec(beta=10.0, tau=1.0)
    gm, gp = tl.gamma(-1.0, spec), tl.gamma(1.0, spec)
    rho_ss = np.diag([gm, gp]).astype(complex) / (gm + gp)
    out = tl.generator_apply(model, [1.0], rho_ss)
    assert np.linalg.norm(out, 2) < 1e-8


def test_evolve_preserves_positivity():
    rng = np.random.default_rng(11)
    for seed in range(10):
        local = np.random.default_rng(seed)
        model = random_model(local, include_lamb=(seed % 2 == 0))
        rho = random_state(local, 4)
        out = tl.evolve(model, [1.0, 1.0], rho, 1.0)
        assert np.linalg.eigvalsh(out)[0] >= -1e-6
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_davies_recovery_superoperator_trend():
    # || D^dag_tau - D^dag_inf || on random Hermitian probes shrinks with tau
    ham = qubit_ham()
    jumps = [("X0", tl.PAULI["X"].copy())]
    davies = qubit_davies_model(beta=5.0)
    rng = np.random.default_rng(12)
    probes = []
    for _ in range(6):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = m + m.conj().T
        probes.append(m / np.linalg.norm(m, 2))
    dists = []
    for tau in (1e2, 1e3, 1e4):
        fine = tl.build_model(ham, jumps, bath=BathSpec(beta=5.0, tau=tau),
                              include_lamb_shift=False)
        worst = max(
            np.linalg.norm(
                tl.dissipative_adjoint(fine, "X0", p)
                - tl.davies_adjoint(davies, "X0", p), 2)
            for p in probes
        )
        dists.append(worst)
    assert dists[0] > dists[1] > dists[2]
