import dataclasses

import numpy as np
import pytest
import scipy.linalg

import thermal_landscape as tl
from thermal_landscape import lindblad as L
from thermal_landscape import operators as ops
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import (
    DimensionMismatch,
    JumpNotNormalized,
    JumpSetNotClosed,
    LambHermiticityDefect,
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


def ising_davies_model(n, h=1.0, beta=5.0, coherent=False):
    ham = tl.build_ising_chain(n, h)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    return tl.build_model(ham, jumps, bath=BathSpec(beta=beta, tau=1.0, lambda0=4.0),
                          davies=True, include_coherent=coherent)


def hermitian_probe(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


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
    out = tl.dissipative_adjoint(model, "X0", model.ham.dense)
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
    weights = model.davies_weights[jump.blocks.freq_indices]
    expected = np.zeros((8, 8), dtype=complex)
    for nu, w, mat in zip(jump.blocks.freqs, weights, jump.blocks.mats):
        expected += nu * w * (mat.conj().T @ mat)
    out = tl.dissipative_adjoint(model, "A", ham.dense)
    assert np.linalg.norm(out - expected, 2) < 1e-10


def test_davies_adjoint_identity_observable():
    model = qubit_davies_model()
    out = tl.dissipative_adjoint(model, "X0", np.eye(2, dtype=complex))
    assert np.linalg.norm(out, 2) < 1e-12


@pytest.mark.parametrize("weight", ["glauber", "flat"])
def test_davies_weights_are_gamma_at_the_bohr_frequencies(weight):
    # a flat Davies model weighs every jump block by 1, as the finite-tau path does
    spec = BathSpec(beta=10.0, tau=1.0, weight=weight)
    model = tl.build_model(qubit_ham(), [("X0", tl.PAULI["X"].copy())], bath=spec, davies=True)
    want = tl.gamma(model.sd.bohr_freqs, spec)
    assert model.davies and model.kernels is None
    assert model.davies_weights.tobytes() == want.tobytes()
    if weight == "flat":
        assert np.all(model.davies_weights == 1.0)
        assert np.allclose(tl.gradient_operator(model, "X0"), np.diag([1.0, -1.0]), atol=1e-12)


@pytest.mark.parametrize("lamb", [None, True])
def test_flat_weight_with_the_lamb_shift_is_rejected_up_front(lamb):
    # the flat surrogate's c_beta is a delta function: build_model names the way out
    spec = BathSpec(beta=1.0, tau=2.0, weight="flat")
    with pytest.raises(ValueError, match="use it with davies=True"):
        tl.build_model(qubit_ham(), [("X0", tl.PAULI["X"].copy())], bath=spec,
                       include_lamb_shift=lamb)


@pytest.mark.parametrize("tau", [2.0, 25.0, 100.0, 1e4])
@pytest.mark.parametrize("lamb", [None, False, True])
def test_flat_weight_at_finite_tau_is_rejected_up_front(tau, lamb):
    # no finite-tau flat model can be built (its overlap quadrature would need
    # some 4e9 panels at KERNEL_ABS_TOL): one ValueError, with or without the
    # Lamb shift, before any kernel is computed
    spec = BathSpec(beta=1.0, tau=tau, weight="flat")
    with pytest.raises(ValueError, match="no finite-tau kernel table"):
        tl.build_model(qubit_ham(), [("X0", tl.PAULI["X"].copy())], bath=spec,
                       include_lamb_shift=lamb)


def test_davies_beta_infinite_no_heating():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ham = tl.assemble([(a + a.conj().T, (0, 1))], 2)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = m + m.conj().T
        m /= np.linalg.norm(m, 2)
        model = tl.build_model(ham, [("A", m)], beta_infinite=True)
        grad = tl.dissipative_adjoint(model, "A", ham.dense)
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
    b = tl.dissipative_adjoint(davies, "X0", obs)
    assert np.linalg.norm(a - b, 2) < 0.02


def test_dissipative_adjoint_reads_a_davies_model(loop_davies_adjoint):
    model = ising_davies_model(3)
    obs = hermitian_probe(np.random.default_rng(7), model.dim)
    for label in model.jump_labels:
        want = loop_davies_adjoint(model, label, obs)
        got = tl.dissipative_adjoint(model, label, obs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(2, 8), (3, 3), (16,)])
def test_adjoints_reject_observables_of_the_wrong_shape(shape):
    model = random_model(np.random.default_rng(2))
    davies = ising_davies_model(2)
    assert model.dim == davies.dim == 4
    obs = np.ones(shape, dtype=complex)
    with pytest.raises(DimensionMismatch):
        tl.dissipative_adjoint(model, "J0", obs)
    with pytest.raises(DimensionMismatch):
        tl.lindblad_adjoint(model, "J0", obs)
    with pytest.raises(DimensionMismatch):
        tl.dissipative_adjoint(davies, "X0", obs)


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


def test_coherent_evolve_bounds_s_for_zero_weights(monkeypatch):
    """-i[H, .] acts with weight one, so on a coherent model s is bounded
    even for w = 0: s = 1e9 raises before any substep is taken."""
    n = 3
    ham = tl.build_ising_chain(n, 1.0, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    bath = BathSpec(beta=5.0, tau=1.0, lambda0=4.0)
    model = tl.build_model(ham, jumps, bath=bath, davies=True, include_coherent=True)
    rho = tl.maximally_mixed(n)
    zero = np.zeros(n)
    with monkeypatch.context() as patch:
        def refused(*args):
            raise AssertionError("evolve took substeps past the time guard")
        patch.setattr(L, "_taylor_substeps", refused)
        with pytest.raises(ValueError, match="must not exceed"):
            tl.evolve(model, zero, rho, 1e9)
        with pytest.raises(ValueError, match="must not exceed"):
            tl.evolve(model, [0.1] * n, rho, 11.0)
    # within the guard the coherent part alone leaves the mixed state as it is
    assert np.allclose(tl.evolve(model, zero, rho, 10.0), rho, atol=1e-12)
    # without the coherent part w = 0 is the identity, at any s
    quiet = tl.build_model(ham, jumps, bath=bath, davies=True)
    assert np.allclose(tl.evolve(quiet, zero, rho, 1e9), rho, atol=1e-15)


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
    out = tl.evolve(model, [1.0], rho, 0.0)
    assert out is not rho and np.array_equal(out, rho)
    # the sector step keeps the same guards, for a unit weight vector
    sector = L.zero_frequency_sector(model)
    x = sector.coords(rho)
    with pytest.raises(NegativeTime):
        sector.evolve(x, 0, -0.1)
    with pytest.raises(ValueError):
        sector.evolve(x, 0, 10.5)
    out = sector.evolve(x, 0, 0.0)
    assert out is not x and np.array_equal(out, x)


def test_evolve_matrix_free_path_matches_superop(pair_sums):
    # evolve's eigenbasis Taylor series against the exact exponential of the
    # weighted Kronecker-sum superoperator, on row-major vec(rho)
    superop = pair_sums[3]
    rng = np.random.default_rng(10)
    model = random_model(rng)
    rho = random_state(rng, 4)
    w = [1.0, 0.3]
    free = tl.evolve(model, w, rho, 0.8)
    gen = sum(wa * superop(model, label) for wa, label in zip(w, model.jump_labels))
    exact = (scipy.linalg.expm(0.8 * gen) @ rho.reshape(-1)).reshape(4, 4)
    assert np.linalg.norm(exact - free, 2) < 1e-10


def test_large_davies_generator_and_evolve_match_block_loop(loop_davies_adjoint):
    # at d = 64, generator_apply and evolve of a coherent model in the
    # eigenbasis are both checked by duality, Tr(O L[rho]) = Tr(L^dag[O] rho),
    # against the block loop plus i[H, O], evolve through the Heisenberg
    # series of that sum
    model = ising_davies_model(6, coherent=True)
    d = model.dim
    rng = np.random.default_rng(21)
    rho = random_state(rng, d)
    obs = hermitian_probe(rng, d)
    scale = np.linalg.norm(obs, 2)
    w = rng.uniform(size=len(model.jumps))
    adjoints = [loop_davies_adjoint(model, label, obs) for label in model.jump_labels]
    ham = model.ham.dense
    want = np.trace((sum(wa * adj for wa, adj in zip(w, adjoints))
                     + 1j * (ham @ obs - obs @ ham)) @ rho)
    got = np.trace(obs @ tl.generator_apply(model, w, rho))
    assert abs(got - want) <= 1e-12 * scale * (np.sum(w) + np.linalg.norm(ham, 2))
    s = 0.3
    for index, label in enumerate(model.jump_labels[:2]):
        got = tl.dissipative_adjoint(model, label, obs)
        assert np.max(np.abs(got - adjoints[index])) <= 1e-12 * np.max(np.abs(adjoints[index]))
        heis, term = obs.copy(), obs
        for k in range(1, 40):
            term = (s / k) * (loop_davies_adjoint(model, label, term)
                              + 1j * (ham @ term - term @ ham))
            heis += term
        out = tl.evolve(model, tl.weight_vector(model, label=label), rho, s)
        assert abs(np.trace(obs @ out) - np.trace(heis @ rho)) <= 1e-8 * scale


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
                - tl.dissipative_adjoint(davies, "X0", p), 2)
            for p in probes
        )
        dists.append(worst)
    assert dists[0] > dists[1] > dists[2]


def _pair_sector_generator(model, sector, label, pair_apply):
    """The complex sector matrix of D_a: column q holds the sector entries
    of V^dag D_a[E_q] V, E_q = V |r_q><c_q| V^dag, by the pair loops."""
    v = model.sd.eigenvectors
    rows, cols = sector._rows, sector._cols
    images = [model.sd.to_eig(pair_apply(model, label, np.outer(v[:, r], v[:, c].conj())))
              for r, c in zip(rows.tolist(), cols.tolist())]
    return np.array([img[rows, cols] for img in images]).T


@pytest.mark.parametrize("name, davies", [
    ("generic_n3", False),
    ("ising_n3_h0", False),
    ("clock_x_t3", False),
    ("random8_b16_t800", False),
    ("generic_n3", True),
    ("ising_n3_h0", True),
    ("clock_x_t3", True),
])
def test_eigenbasis_gathers_match_pair_sums(name, davies, oracle_system, pair_sums,
                                            pair_apply):
    # G, H_LS, the dissipator and its adjoint, the generator and the sector
    # generators, all read in the eigenbasis, match the sums over the pairs
    # of the loops over Bohr blocks and the Kronecker sum
    ham, jumps, spec = oracle_system(name)
    model = tl.build_model(ham, jumps, bath=spec, davies=davies)
    assert model.include_lamb_shift is not davies
    _, decay, lamb_shift, superop = pair_sums
    sector = L.zero_frequency_sector(model)
    assert (sector is not None) is davies
    rng = np.random.default_rng(3)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for index, label in enumerate(model.jump_labels):
        rho = random_state(rng, model.dim)
        dis = model._dissipator(label)
        assert_close(dis.apply(rho), pair_apply(model, label, rho))
        assert_close(dis.apply_adjoint(rho), pair_apply(model, label, rho, adjoint=True))
        if sector is not None:
            want = sector._real_generator(_pair_sector_generator(model, sector, label,
                                                                 pair_apply))[0]
            assert_close(sector.generators[index][0], want)
        decay_eig = ops.from_entries(model._decay_entries(model.jump(label).blocks), model.dim)
        assert_close(model.sd.from_eig(decay_eig), decay(model, label))
        if not davies:
            assert_close(tl.lamb_shift_operator(model, label), lamb_shift(model, label))
        unit = tl.weight_vector(model, label=label)
        assert_close(tl.generator_apply(model, unit, rho).reshape(-1),
                     superop(model, label) @ rho.reshape(-1))


@pytest.mark.parametrize("name", ["ising_n4_h1", "generic_n3"])
def test_model_reads_its_size_and_norm_from_the_spectrum(name, oracle_system):
    """dim is the spectrum's, and the coherent norm bound reads ||H||_2 as
    max |lambda|, which agrees with the SVD of H; neither reads the dense H."""
    if name == "generic_n3":
        ham, jumps, spec = oracle_system(name)
        model = tl.build_model(ham, jumps, bath=spec, include_coherent=True)
    else:
        ham = tl.build_ising_chain(4, 1.0)
        jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], 4)) for j in range(4)]
        model = tl.build_model(ham, jumps, bath=BathSpec(beta=5.0, tau=1.0, lambda0=4.0),
                               davies=True, include_coherent=True)
    d = ham.dense.shape[0]
    w = np.linspace(0.2, 1.0, len(model.jumps))
    want = 3.0 * sum(wa * j.aa_norm for wa, j in zip(w, model.jumps)) \
        + 2.0 * ops.operator_norm(ham.dense)
    assert abs(L._generator_norm_bound(model, w, True) - want) <= 1e-12 * want
    rho = tl.maximally_mixed(int(np.log2(d)))
    out = tl.evolve(model, w, rho, 0.5)
    model.ham = type(ham)(n=ham.n, terms=ham.terms, dense=None, norm_bound=ham.norm_bound)
    assert model.dim == d
    assert tl.evolve(model, w, rho, 0.5).tobytes() == out.tobytes()


def _apply_case(name):
    """A model of the one-apply oracle: ``generic`` is the generic 3-qubit
    Pauli chain at beta 2, tau 25 (non-degenerate), ``ising`` the Davies
    Ising ring n = 3 at h = 0.5 (degenerate energy groups); the suffixes
    ``lamb``, ``coherent`` and ``csr`` add the Lamb shift (generic only),
    the coherent part and CSR jumps."""
    n = 3
    embed = tl.kron_embed_csr if "csr" in name else tl.kron_embed
    coherent = "coherent" in name
    if name.startswith("ising"):
        jumps = [(f"X{j}", embed(tl.PAULI["X"], [j], n)) for j in range(n)]
        return tl.build_model(tl.build_ising_chain(n, 0.5), jumps,
                              bath=BathSpec(beta=2.0, tau=1.0, lambda0=2.0), davies=True,
                              include_coherent=coherent)
    rng = np.random.default_rng(0)
    local = [(tl.PAULI[p], (j,)) for j in range(n) for p in "XYZ"]
    local += [(np.kron(tl.PAULI[p], tl.PAULI[q]), (j, j + 1))
              for j in range(n - 1) for p in "XYZ" for q in "XYZ"]
    ham = tl.assemble([(c * op, sites) for c, (op, sites)
                       in zip(rng.normal(size=len(local)) / 4.0, local)], n)
    jumps = [(f"{p}{j}", embed(tl.PAULI[p], [j], n)) for j in range(n) for p in "XZ"]
    return tl.build_model(ham, jumps, bath=BathSpec(beta=2.0, tau=25.0),
                          include_lamb_shift="lamb" in name, include_coherent=coherent)


def _eig_superop(model, w, superops):
    """sum_a w_a L_a, plus -i[H, .] on a coherent model, as the Kronecker-sum
    superoperator over row-major vec, rotated into the eigenbasis:
    (V^dag (x) V^T) S (V (x) conj V); ``superops`` are the L_a of the
    ``pair_sums`` oracle."""
    d, v = model.dim, model.sd.eigenvectors
    gen = sum(wa * op for wa, op in zip(w, superops) if wa)
    if model.include_coherent:
        ham, eye = model.ham.dense, np.eye(d)
        gen = gen - 1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    return np.kron(v.conj().T, v.T) @ gen @ np.kron(v, v.conj())


@pytest.mark.parametrize("name", ["generic_lamb", "generic_lamb_coherent_csr", "generic_csr",
                                  "generic_coherent", "ising_csr", "ising_coherent"])
def test_one_apply_matches_the_kronecker_sum(name, pair_sums):
    """The one eigenbasis apply, forward and adjoint, at unit and mixed
    weights, against the Kronecker-sum superoperator within 1e-12 relative;
    each sector's real generators against that superoperator restricted to
    the sector's coordinates."""
    model = _apply_case(name)
    d, m = model.dim, len(model.jumps)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = random_state(rng, d)
    vec = model.sd.to_eig(x).reshape(-1)
    superops = [pair_sums[3](model, label) for label in model.jump_labels]
    weights = [tl.weight_vector(model, label=label) for label in model.jump_labels]
    for w in weights + [np.linspace(0.2, 1.0, m)]:
        want = _eig_superop(model, w, superops)
        terms = L._eig_terms(model, w, True, model.include_coherent)
        for adjoint, oracle in ((False, want), (True, want.conj().T)):
            got, ref = L._eig_apply(terms, vec, adjoint), oracle @ vec
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    sectors = [L.zero_frequency_sector(model, rho)]
    if model.davies:  # and its energy groups
        sectors.append(L.zero_frequency_sector(model))
        assert sectors[-1] is not None and sectors[-1].size < d * d
    assert sectors[0] is not None
    for sector in sectors:
        pos = sector._rows * d + sector._cols
        for w, (gen, _, _) in zip(weights, sector.generators):
            want = sector._real_generator(_eig_superop(model, w, superops)[np.ix_(pos, pos)])[0]
            assert np.max(np.abs(gen - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("blocked", [True, False])
def test_sector_leak_test_reads_the_commutator(blocked, pair_sums):
    """An energy-group sector keeps a jump whose M~ = -i H~_LS is
    block-diagonal over the groups, with the generator of the Kronecker
    sum, and drops one whose M~ reaches across groups, whose commutator
    then leaks out of the sector: here a Davies model given a Lamb part."""
    model = _apply_case("ising_csr")
    d, groups = model.dim, model.sd.group_slices
    assert len(groups) > 1
    label = model.jump_labels[0]
    v = model.sd.eigenvectors
    dissipator = np.kron(v.conj().T, v.T) @ pair_sums[3](model, label) @ np.kron(v, v.conj())
    group = np.repeat(np.arange(len(groups)), [sl.stop - sl.start for sl in groups])
    h = hermitian_probe(np.random.default_rng(6), d)
    if blocked:
        h = h * (group[:, None] == group)
    model.include_lamb_shift = True
    model._lamb_eigs.update({lab: h for lab in model.jump_labels})
    sector = L.ZeroFrequencySector(model, groups)
    if not blocked:
        assert sector.generators is None
        return
    m, eye = -1j * h, np.eye(d)
    full = dissipator + np.kron(m, eye) + np.kron(eye, m.conj())
    pos = sector._rows * d + sector._cols
    want = sector._real_generator(full[np.ix_(pos, pos)])[0]
    assert np.max(np.abs(sector.generators[0][0] - want)) <= 1e-12 * np.max(np.abs(want))


def test_jump_of_the_wrong_shape_is_rejected():
    ham = tl.build_ising_chain(2, 1.0)
    with pytest.raises(DimensionMismatch, match=r"jump 'X0' has shape \(2, 2\), expected \(4, 4\)"):
        tl.build_model(ham, [("X0", tl.PAULI["X"].copy())], bath=BathSpec(beta=1.0, tau=1.0),
                       davies=True)


@pytest.mark.parametrize("shift", [3e-7, 1e-6])
def test_lamb_shift_with_a_hermiticity_defect_raises(shift):
    """A Lamb kernel K whose H_LS,a is not Hermitian within 1e-6 ||A^dag A||
    raises rather than being Hermitized.  K plus i ``shift`` on every entry
    gives this jump (A Hermitian, ||A|| = 1) the defect 2 ``shift``: 6e-7
    is Hermitized, 2e-6 raises."""
    model = random_model(np.random.default_rng(3), include_lamb=True)
    model.kernels = dataclasses.replace(model.kernels, K=model.kernels.K + 1j * shift)
    if 2.0 * shift < 1e-6:
        h_ls = tl.lamb_shift_operator(model, "J0")
        assert np.array_equal(h_ls, h_ls.conj().T)
        return
    with pytest.raises(LambHermiticityDefect, match="Lamb shift of jump 'J0' has Hermiticity"):
        tl.lamb_shift_operator(model, "J0")
