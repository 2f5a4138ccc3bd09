import math
from pathlib import Path

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape.errors import GroupingUnstable
from thermal_landscape.hamiltonian import spectral_data


def test_assemble_single_bond():
    ham = tl.build_ising_chain(2, 0.0, periodic=False)
    zz = np.kron(tl.PAULI["Z"], tl.PAULI["Z"])
    assert np.allclose(ham.dense, -zz)
    w = np.linalg.eigvalsh(ham.dense)
    assert np.allclose(w, [-1.0, -1.0, 1.0, 1.0])


def test_assemble_empty():
    ham = tl.assemble([], 1)
    assert np.allclose(ham.dense, 0.0)
    assert ham.norm_bound == 0.0


def test_ising_n3_periodic_spectrum_brute_force():
    ham = tl.build_ising_chain(3, 0.0, periodic=True)
    # brute force over the 8 bit strings: diagonal Hamiltonian
    expected = []
    for idx in range(8):
        bits = format(idx, "03b")
        spins = [1 - 2 * int(b) for b in bits]
        expected.append(-sum(spins[j] * spins[(j + 1) % 3] for j in range(3)))
    assert np.allclose(np.sort(np.linalg.eigvalsh(ham.dense)), np.sort(expected))
    w = np.sort(expected)
    assert list(w).count(-3) == 2 and list(w).count(1) == 6


def test_ising_ground_states():
    ham = tl.build_ising_chain(3, 0.0, periodic=True)
    sd = spectral_data(ham)
    assert sd.ground_energy == pytest.approx(-3.0)
    p = sd.ground_projector
    for bits in ("000", "111"):
        vec = tl.basis_state(bits)
        assert np.linalg.norm(p @ vec - vec) < 1e-10

    ham_h = tl.build_ising_chain(3, 0.5, periodic=True)
    sd_h = spectral_data(ham_h)
    assert sd_h.ground_energy == pytest.approx(-4.5)
    vec = tl.basis_state("000")
    assert np.linalg.norm(sd_h.ground_projector @ vec - vec) < 1e-10
    assert np.trace(sd_h.ground_projector).real == pytest.approx(1.0)


def test_spectral_data_single_qubit_z():
    sd = spectral_data(tl.assemble([(tl.PAULI["Z"], (0,))], 1))
    assert np.allclose(sd.energies, [-1.0, 1.0])
    assert np.allclose(sd.bohr_freqs, [-2.0, 0.0, 2.0])
    assert sd.spectral_gap == pytest.approx(2.0)
    assert sd.bohr_gap == pytest.approx(2.0)


def test_spectral_data_clock_diagonal_oracle():
    # H_clock for T = 3 is diagonal; group energies come from counting the
    # weighted 01 substrings in each clock string.
    f = [2.0 / 3.0, 1.0 / 3.0]
    p01 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    ham = tl.assemble([(f[0] * p01, (0, 1)), (f[1] * p01, (1, 2))], 3)
    energies = set()
    for idx in range(8):
        q = format(idx, "03b")
        e = f[0] * (q[0:2] == "01") + f[1] * (q[1:3] == "01")
        energies.add(round(e, 12))
    sd = spectral_data(ham)
    assert np.allclose(sorted(energies), sd.energies, atol=1e-12)


def test_spectral_data_invariants(group_projectors):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ham = tl.assemble([(a + a.conj().T, (0, 1, 2))], 3)
    sd = spectral_data(ham)
    projectors = group_projectors(sd)
    total = sum(projectors)
    assert np.linalg.norm(total - np.eye(8), 2) < 1e-9
    for i, pi in enumerate(projectors):
        assert np.linalg.norm(pi @ pi - pi, 2) < 1e-9
        for pj in projectors[i + 1:]:
            assert np.linalg.norm(pi @ pj, 2) < 1e-9
    # Bohr set closed under negation
    assert np.allclose(sd.bohr_freqs, -sd.bohr_freqs[::-1])


def test_norm_bound_dominates_spectrum():
    for n, h in ((3, 0.0), (4, 1.2)):
        ham = tl.build_ising_chain(n, h, periodic=True)
        assert ham.norm_bound >= np.max(np.abs(np.linalg.eigvalsh(ham.dense)))


def test_grouping_unstable():
    tol = 1e-6
    ham = tl.assemble([(np.diag([0.0, 2.5 * tol]).astype(complex), (0,))], 1)
    with pytest.raises(GroupingUnstable):
        spectral_data(ham, group_tol=tol)


def test_bohr_decompose_qubit_ladder():
    # H = J(I - Z)/2, A = X: blocks |1><0| at +J and |0><1| at -J
    ham = tl.assemble([(0.5 * (np.eye(2) - tl.PAULI["Z"]), (0,))], 1)
    sd = spectral_data(ham)
    blocks = tl.bohr_decompose(tl.PAULI["X"], sd)
    got = dict(zip(np.round(blocks.freqs, 10), blocks.mats))
    assert set(got) == {-1.0, 1.0}
    assert np.allclose(got[1.0], np.array([[0, 0], [1, 0]]))
    assert np.allclose(got[-1.0], np.array([[0, 1], [0, 0]]))


def test_bohr_decompose_commuting_case():
    sd = spectral_data(tl.assemble([(tl.PAULI["Z"], (0,))], 1))
    blocks = tl.bohr_decompose(tl.PAULI["Z"], sd)
    assert len(blocks.mats) == 1
    assert blocks.freqs[0] == pytest.approx(0.0)
    assert np.allclose(blocks.mats[0], tl.PAULI["Z"])


def test_bohr_decompose_ising_x2_projector_sandwich(sandwich_bohr_blocks):
    ham = tl.build_ising_chain(3, 0.0, periodic=True)
    sd = spectral_data(ham)
    x2 = tl.kron_embed(tl.PAULI["X"], [1], 3)
    blocks = tl.bohr_decompose(x2, sd)
    assert set(np.round(blocks.freqs, 10)) == {-4.0, 0.0, 4.0}
    # independent oracle: explicit P_E X P_E' products
    keys, expected = sandwich_bohr_blocks(x2, sd)
    assert blocks.freq_indices.tolist() == keys
    for mat, want in zip(blocks.mats, expected):
        assert np.linalg.norm(mat - want, 2) < 1e-10


@pytest.mark.parametrize("seed", [0, 1])
def test_bohr_block_invariants(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ham = tl.assemble([(a + a.conj().T, (0, 1, 2))], 3)
    sd = spectral_data(ham)
    jump = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    blocks = tl.bohr_decompose(jump, sd)
    norm = np.linalg.norm(jump, 2)
    # completeness
    assert np.linalg.norm(blocks.total() - jump, 2) < 1e-9 * norm
    # exact Bohr-block commutation [H, A_nu] = nu A_nu
    h = ham.dense
    for nu, mat in blocks.items():
        assert np.linalg.norm(h @ mat - mat @ h - nu * mat, 2) < 1e-8 * norm
    # Heisenberg evolution at sampled times
    w, v = tl.herm_eig(h)
    for t in (0.1, 1.0):
        u = v @ np.diag(np.exp(1j * w * t)) @ v.conj().T
        lhs = u @ jump @ u.conj().T
        rhs = sum(np.exp(1j * nu * t) * mat for nu, mat in blocks.items())
        assert np.linalg.norm(lhs - rhs, 2) < 1e-8 * norm
    # adjoint symmetry (A_nu)^dag = (A^dag)_{-nu}
    blocks_dag = tl.bohr_decompose(jump.conj().T, sd)
    dag_map = dict(zip(np.round(blocks_dag.freqs, 9), blocks_dag.mats))
    for nu, mat in blocks.items():
        counterpart = dag_map[round(-nu, 9)]
        assert np.linalg.norm(mat.conj().T - counterpart, 2) < 1e-10 * max(norm, 1)


REPO = Path(__file__).resolve().parents[1]


def generic_two_local(n, seed):
    rng = np.random.default_rng(seed)
    terms = []
    for j in range(n - 1):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        terms.append((a + a.conj().T, (j, j + 1)))
    return tl.assemble(terms, n)


def oracle_systems():
    """(Hamiltonian, jumps) of the systems the oracle test covers."""
    for n, seed in ((3, 0), (4, 1)):
        ham = generic_two_local(n, seed)
        jumps = [tl.kron_embed(tl.PAULI[p], [j], n) for j in range(n) for p in "XY"]
        rng = np.random.default_rng(seed + 10)
        jumps.append(rng.standard_normal((2**n, 2**n))
                     + 1j * rng.standard_normal((2**n, 2**n)))
        yield pytest.param(ham, jumps, id=f"generic_n{n}")
    cs = tl.load_circuit(str(REPO / "scripts" / "configs" / "circuit_x_t3.json"))
    clock = tl.build_clock_hamiltonian(cs, j_in=1e-3, j_prop=1e-2)
    yield pytest.param(clock.local, [m for _, m in tl.clock_jump_preset(cs)],
                       id="clock_circuit_x_t3")
    for h in (0.0, 1.0):
        ham = tl.build_ising_chain(4, h)
        yield pytest.param(ham, [tl.kron_embed(tl.PAULI["X"], [j], 4) for j in range(4)],
                           id=f"ising_n4_h{h}")


@pytest.mark.parametrize("ham, jumps", list(oracle_systems()))
def test_bohr_decompose_matches_projector_sandwiches(ham, jumps, sandwich_bohr_blocks):
    sd = spectral_data(ham)
    for a_mat in jumps:
        keys, mats = sandwich_bohr_blocks(a_mat, sd)
        blocks = tl.bohr_decompose(a_mat, sd)
        assert blocks.freq_indices.tolist() == keys
        assert np.array_equal(blocks.freqs, sd.bohr_freqs[keys])
        norm = np.linalg.norm(a_mat, 2)
        for got, want in zip(blocks.mats, mats):
            assert np.max(np.abs(got - want)) <= 1e-12 * norm


@pytest.mark.parametrize("a, b", [(0.9, 0.9), (0.99, 0.5), (1.05, 0.3), (1.2, 0.6),
                                  (0.5, 0.5), (2.0, 2.0)])
def test_drop_rule_in_frobenius_band_matches_svd_rule(a, b, sandwich_bohr_blocks):
    # H = diag(0, 1, 3, 4): the nu = 1 block of A holds A[1, 0] and A[3, 2]
    # only, so ||A_1||_2 = max(a, b) c and ||A_1||_F = hypot(a, b) c with
    # c = 1e-12 = the cutoff, because ||A||_2 = 1 from A[0, 3]
    ham = tl.assemble([(np.diag([0.0, 1.0, 3.0, 4.0]).astype(complex), (0, 1))], 2)
    sd = spectral_data(ham)
    c = 1e-12
    a_mat = np.zeros((4, 4), dtype=complex)
    a_mat[0, 3] = 1.0
    a_mat[1, 0] = a * c
    a_mat[3, 2] = b * c
    fro = math.hypot(a, b) * c
    in_band = c < fro <= math.sqrt(2) * c
    assert in_band == ((a, b) not in [(0.5, 0.5), (2.0, 2.0)])
    keys, _ = sandwich_bohr_blocks(a_mat, sd)
    blocks = tl.bohr_decompose(a_mat, sd)
    assert blocks.freq_indices.tolist() == keys
    assert (sd.bohr_index(1.0) in keys) == (max(a, b) > 1.0)


def test_bohr_index_is_nearest_frequency_elementwise():
    sd = spectral_data(tl.build_ising_chain(4, 1.0))
    freqs = sd.bohr_freqs
    rng = np.random.default_rng(3)
    span = freqs[-1] - freqs[0]
    nu = np.concatenate([freqs, 0.5 * (freqs[1:] + freqs[:-1]),
                         rng.uniform(freqs[0] - span, freqs[-1] + span, 200)])
    want = [int(np.argmin(np.abs(freqs - x))) for x in nu]
    assert sd.bohr_index(nu).tolist() == want
    assert [sd.bohr_index(x) for x in nu] == want
    assert sd.bohr_index(nu.reshape(-1, 1)).ravel().tolist() == want
