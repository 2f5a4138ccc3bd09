"""Set-up that skips the dense work its input's structure rules out: the
eigenbasis transforms of ``SpectralData`` (an index gather for a
permutation V), the Bohr drop rule from one bincount of Frobenius norms, a
Hermitian eigendecomposition without an SVD for an exactly Hermitian H and
a jump-set check without A^dag A for one-nonzero-per-row jumps; each
against the dense computation it replaces."""

import math
from pathlib import Path

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import gradient, lindblad
from thermal_landscape import operators as ops
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import NonFiniteValue, NotHermitian, NumericalGuard
from thermal_landscape.hamiltonian import _compact_block, spectral_data

REPO = Path(__file__).resolve().parents[1]


def _degenerate_diagonal(d, seed):
    """A diagonal H on log2(d) qubits whose d levels take 5 values."""
    n = d.bit_length() - 1
    levels = np.random.default_rng(seed).integers(0, 5, d).astype(float)
    return tl.assemble([(np.diag(levels).astype(complex), tuple(range(n)))], n)


def _clock():
    cs = tl.load_circuit(str(REPO / "scripts" / "configs" / "circuit_x_t3.json"))
    return tl.build_clock_hamiltonian(cs, j_in=0.6, j_prop=0.3).local, tl.clock_jump_preset(cs)


def _spectra():
    """(name, Hamiltonian, whether V is a permutation)."""
    yield "ising_n4_h0", tl.build_ising_chain(4, 0.0), True
    yield "ising_n4_h1", tl.build_ising_chain(4, 1.0), True
    yield "diagonal_d64", _degenerate_diagonal(64, 3), True
    yield "clock", _clock()[0], False
    yield "generic_n3", None, False


@pytest.fixture
def svd_calls(monkeypatch):
    """The arguments of every ``operators.operator_norm`` call."""
    calls = []
    svd = ops.operator_norm

    def spy(m):
        calls.append(np.array(m))
        return svd(m)

    monkeypatch.setattr(ops, "operator_norm", spy)
    return calls


def _hamiltonian(ham, oracle_system):
    return oracle_system("generic_n3")[0] if ham is None else ham


@pytest.mark.parametrize("name, ham, permutation", list(_spectra()))
def test_transforms_are_the_dense_products_byte_for_byte(name, ham, permutation,
                                                         oracle_system):
    sd = spectral_data(_hamiltonian(ham, oracle_system))
    v = sd.eigenvectors
    d = v.shape[0]
    if permutation:
        p = sd.permutation
        assert p is not None
        want = np.zeros((d, d), dtype=complex)
        want[p, np.arange(d)] = 1.0
        assert np.array_equal(v, want)
    else:
        assert sd.permutation is None
    rng = np.random.default_rng(d)
    x = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    x[rng.random(x.shape) < 0.4] = 0.0
    x[rng.random(x.shape) < 0.1] = complex(-0.0, -0.0)  # signed zeros too
    for y in (x[0], x, x.transpose(0, 2, 1)):
        assert sd.to_eig(y).tobytes() == (v.conj().T @ y @ v).tobytes()
        assert sd.from_eig(y).tobytes() == (v @ y @ v.conj().T).tobytes()


def _jump_sets():
    for n in (4, 8):
        for h in (0.0, 1.0):
            jumps = [tl.kron_embed(tl.PAULI[p], [j], n) for j in range(n) for p in "XY"]
            yield f"ising_n{n}_h{h}", tl.build_ising_chain(n, h), jumps
    clock, preset = _clock()
    yield "clock", clock, [mat for _, mat in preset]
    for n in (3, 4):
        jumps = [tl.kron_embed(tl.PAULI[p], [j], n) for j in range(n) for p in "XYZ"]
        yield f"generic_n{n}", n, jumps


@pytest.mark.parametrize("name, ham, jumps", list(_jump_sets()))
def test_drop_rule_matches_the_per_block_loop(name, ham, jumps, loop_bohr_decompose,
                                              generic_pauli_chain):
    if isinstance(ham, int):  # a qubit count: the generic chain
        ham = generic_pauli_chain(ham, 0)
    sd = spectral_data(ham)
    for a_mat in jumps:
        kept, a_eig = loop_bohr_decompose(a_mat, sd)
        blocks = tl.bohr_decompose(a_mat, sd)
        assert blocks.freq_indices.dtype == kept.dtype
        assert blocks.freq_indices.tobytes() == kept.tobytes()
        assert blocks.eig.tobytes() == a_eig.tobytes()


@pytest.mark.parametrize("a, b, band", [(0.9, 0.9, True), (0.5, 0.5, False),
                                        (2.0, 2.0, False)])
def test_only_a_block_in_the_frobenius_band_takes_the_svd(a, b, band, svd_calls,
                                                          loop_bohr_decompose):
    # H = diag(0, 1, 3, 4): the nu = 1 block of A holds A[1, 0] = a c and
    # A[3, 2] = b c only, c = 1e-12 being the cutoff, as ||A||_2 = 1
    ham = tl.assemble([(np.diag([0.0, 1.0, 3.0, 4.0]).astype(complex), (0, 1))], 2)
    sd = spectral_data(ham)
    c = 1e-12
    a_mat = np.zeros((4, 4), dtype=complex)
    a_mat[0, 3] = 1.0
    a_mat[1, 0] = a * c
    a_mat[3, 2] = b * c
    svd_calls.clear()  # those of the Hamiltonian's term checks
    blocks = tl.bohr_decompose(a_mat, sd, norm=1.0)
    k = sd.bohr_index(1.0)
    rows, cols = np.nonzero(sd.bohr_map == k)
    block = _compact_block(sd.to_eig(a_mat), rows, cols, 4)[0]
    assert any(np.array_equal(call, block) for call in svd_calls) == band
    assert len(svd_calls) == int(band)
    assert (k in blocks.freq_indices) == (max(a, b) > 1.0)
    kept, a_eig = loop_bohr_decompose(a_mat, sd, norm=1.0)
    assert blocks.freq_indices.tolist() == kept.tolist()
    assert blocks.eig.tobytes() == a_eig.tobytes()


@pytest.mark.parametrize("ham", [tl.build_ising_chain(4, 1.0), _clock()[0]],
                         ids=["ising_n4_h1", "clock"])
def test_exactly_hermitian_input_takes_no_svd(ham, svd_calls):
    assert np.array_equal(ham.dense, ham.dense.conj().T)
    svd_calls.clear()
    w, v = ops.herm_eig(ham.dense)
    assert svd_calls == []
    assert np.allclose(v @ np.diag(w) @ v.conj().T, ham.dense)


def test_hermiticity_guard_keeps_its_threshold(oracle_system):
    h = oracle_system("generic_n3")[0].dense
    rng = np.random.default_rng(1)
    s = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    s = (s + s.conj().T) / np.linalg.norm(s + s.conj().T, 2)
    scale = np.linalg.norm(h, 2)
    # m - m^dag = 2i delta S has norm 2 delta
    with pytest.raises(NotHermitian):
        ops.herm_eig(h + 1j * (1e-10 * scale) * s)
    ops.herm_eig(h + 1j * (2.5e-11 * scale) * s)


def test_non_finite_input_or_hermitian_part_is_a_numerical_guard():
    h = np.diag([1e308, -1.0]).astype(complex)  # 0.5 (m + m^dag) overflows
    for m in (h, np.diag([np.inf, 1.0]).astype(complex),
              np.array([[0.0, np.nan], [np.nan, 0.0]], dtype=complex)):
        with pytest.raises(NonFiniteValue):
            ops.herm_eig(m)
    assert issubclass(NonFiniteValue, NumericalGuard)


def test_certificate_of_a_nan_state_raises():
    ham = tl.assemble([(np.diag([0.0, 1.0]).astype(complex), (0,))], 1)
    model = tl.build_model(ham, [("X0", tl.PAULI["X"])],
                           bath=BathSpec(beta=10.0, tau=1.0), davies=True)
    rho = np.diag([np.nan, 1.0]).astype(complex)
    with pytest.raises(NonFiniteValue):
        gradient.certify_local_min(model, rho, 0.01)
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert gradient.certify_local_min(model, ground, 0.01).kind == gradient.LOCAL_MIN_SUFFICIENT


@pytest.mark.parametrize("name", ["pauli_n3", "clock", "sigma_pm"])
def test_one_nonzero_per_row_jump_takes_no_svd(name, svd_calls):
    if name == "pauli_n3":
        jumps = [(f"{p}{j}", tl.kron_embed(tl.PAULI[p], [j], 3)) for j in range(3) for p in "XYZ"]
    elif name == "clock":
        jumps = _clock()[1]
    else:
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        jumps = [("minus", lower), ("plus", lower.conj().T)]
    jumps = lindblad._as_jump_list(jumps)
    svd_calls.clear()  # those of building the clock Hamiltonian
    norms = lindblad._check_jump_set(jumps, jumps[0][1].shape[0])
    assert svd_calls == []
    for (_, mat), (norm, aa) in zip(jumps, norms):
        assert aa == np.linalg.norm(mat.conj().T @ mat, 2)
        assert norm == math.sqrt(aa)
