import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermal_landscape as tl
from thermal_landscape.errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    NotHermitian,
    SiteOutOfRange,
    SizeLimit,
)


def test_pauli_single_z():
    mat = tl.pauli_matrix(tl.PauliTerm(1.0, "Z"), 1)
    assert np.allclose(mat, np.diag([1.0, -1.0]))


def test_pauli_identity_with_coefficient():
    mat = tl.pauli_matrix(tl.PauliTerm(3.0, "II"), 2)
    assert np.allclose(mat, 3.0 * np.eye(4))


def test_pauli_xz_squares_to_identity():
    # direct-multiplication oracle: (X (x) Z)^2 = I_4
    mat = tl.pauli_matrix(tl.PauliTerm(1.0, "XZ"), 2)
    assert np.linalg.norm(mat @ mat - np.eye(4), 2) < 1e-12


def test_pauli_guards():
    with pytest.raises(DimensionMismatch):
        tl.pauli_matrix(tl.PauliTerm(1.0, "XX"), 3)
    with pytest.raises(SizeLimit):
        tl.pauli_matrix(tl.PauliTerm(1.0, "I" * 15), 15)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="IXYZ", min_size=1, max_size=5))
def test_pauli_unit_coefficient_is_unitary_hermitian(letters):
    mat = tl.pauli_matrix(tl.PauliTerm(1.0, letters), len(letters))
    dim = 2 ** len(letters)
    assert np.linalg.norm(mat @ mat - np.eye(dim), 2) < 1e-12
    assert np.linalg.norm(mat - mat.conj().T, 2) < 1e-12


def test_kron_embed_single_site():
    x = tl.PAULI["X"]
    assert np.allclose(tl.kron_embed(x, [0], 2), np.kron(x, np.eye(2)))
    assert np.allclose(tl.kron_embed(x, [1], 2), np.kron(np.eye(2), x))


def test_kron_embed_cnot_reversed_sites():
    # brute force over the 4 basis states: control = qubit 1, target = qubit 0
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    embedded = tl.kron_embed(cnot, [1, 0], 2)
    expected = np.zeros((4, 4), dtype=complex)
    for b0 in (0, 1):
        for b1 in (0, 1):
            src = (b0 << 1) | b1
            dst = ((b0 ^ b1) << 1) | b1
            expected[dst, src] = 1.0
    assert np.allclose(embedded, expected)


def test_kron_embed_guards():
    x = tl.PAULI["X"]
    with pytest.raises(SiteOutOfRange):
        tl.kron_embed(x, [3], 2)
    with pytest.raises(SiteOutOfRange):
        tl.kron_embed(np.eye(4), [0, 0], 2)
    with pytest.raises(DimensionMismatch):
        tl.kron_embed(np.eye(3), [0], 2)


def test_herm_eig_pauli_spectra():
    w, _ = tl.herm_eig(tl.PAULI["Z"])
    assert np.allclose(w, [-1.0, 1.0])
    w, v = tl.herm_eig(tl.PAULI["X"])
    assert np.allclose(w, [-1.0, 1.0])
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert min(np.linalg.norm(v[:, 0] - minus), np.linalg.norm(v[:, 0] + minus)) < 1e-12
    assert min(np.linalg.norm(v[:, 1] - plus), np.linalg.norm(v[:, 1] + plus)) < 1e-12


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = a + a.conj().T
    w, v = tl.herm_eig(m)
    recon = v @ np.diag(w) @ v.conj().T
    norm = np.linalg.norm(m, 2)
    assert np.linalg.norm(recon - m, 2) <= 1e-9 * norm
    assert np.linalg.norm(v.conj().T @ v - np.eye(4), 2) <= 1e-10


def test_herm_eig_phase_convention_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = a + a.conj().T
    _, v1 = tl.herm_eig(m)
    _, v2 = tl.herm_eig(m.copy())
    assert np.array_equal(v1, v2)
    idx = np.argmax(np.abs(v1), axis=0)
    lead = v1[idx, np.arange(8)]
    assert np.all(np.abs(lead.imag) < 1e-12)
    assert np.all(lead.real > 0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        tl.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expectation_basics():
    z = tl.PAULI["Z"]
    rho0 = tl.projector(tl.basis_state("0"))
    assert tl.expectation(z, rho0) == pytest.approx(1.0)
    assert tl.expectation(z, np.eye(2) / 2) == pytest.approx(0.0)


@pytest.mark.parametrize("bits", ["0", "1", "0110", "11111"])
def test_basis_density_is_the_basis_projector_bit_for_bit(bits):
    want = tl.projector(tl.basis_state(bits))
    got = tl.basis_density(bits)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for part in ("real", "imag"):  # the same signed zeros, so artifacts keep their bytes
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


def test_basis_density_size_guard():
    with pytest.raises(SizeLimit):
        tl.basis_density("0" * (tl.MAX_QUBITS + 1))


def _classical_ising_energy(bits, h=0.0, periodic=True):
    spins = [1 - 2 * int(b) for b in bits]
    n = len(spins)
    bonds = range(n) if periodic else range(n - 1)
    e = -sum(spins[j] * spins[(j + 1) % n] for j in bonds)
    e += -h * sum(spins)
    return e


def test_expectation_matches_classical_ising_energy():
    ham = tl.build_ising_chain(3, 0.0, periodic=True)
    for bits in ("010", "000", "110"):
        rho = tl.projector(tl.basis_state(bits))
        assert tl.expectation(ham.dense, rho) == pytest.approx(
            _classical_ising_energy(bits), abs=1e-12
        )


def test_expectation_guards():
    with pytest.raises(DimensionMismatch):
        tl.expectation(np.eye(2), np.eye(4) / 4)
    with pytest.raises(NotHermitian):
        tl.expectation(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) / 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-2, 2), st.floats(-2, 2))
def test_expectation_linear_in_obs_and_state(seed, a, b):
    rng = np.random.default_rng(seed)

    def rand_herm():
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        return m + m.conj().T

    def rand_state():
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        return rho / np.trace(rho).real

    o1, o2 = rand_herm(), rand_herm()
    r1, r2 = rand_state(), rand_state()
    lhs = tl.expectation(a * o1 + b * o2, r1)
    rhs = a * tl.expectation(o1, r1) + b * tl.expectation(o2, r1)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    # convex mixture in the state
    lam = 0.3
    mix = lam * r1 + (1 - lam) * r2
    lhs = tl.expectation(o1, mix)
    rhs = lam * tl.expectation(o1, r1) + (1 - lam) * tl.expectation(o1, r2)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_check_density_matrix_guards():
    with pytest.raises(InvalidDensityMatrix):
        tl.check_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(InvalidDensityMatrix):
        tl.check_density_matrix(np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(InvalidDensityMatrix):
        tl.check_density_matrix(np.diag([1.5, -0.5]))
    rho = tl.check_density_matrix(np.diag([0.25, 0.75]))
    assert rho.shape == (2, 2)
