"""The Ising landscape path by index: the site embedding, the diagonal
eigendecomposition, the jump-set closure by pattern, the gradient scan built
without dense operators and the basis-state read, each against the dense
route it replaces (``dense_oracles`` in conftest.py)."""

from pathlib import Path

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import cli, lindblad
from thermal_landscape import operators as ops
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import DimensionMismatch, JumpSetNotClosed, SiteOutOfRange
from thermal_landscape.gradient import GradientScan, gradient_scan

REPO = Path(__file__).resolve().parents[1]
DAVIES = BathSpec(beta=5.0, tau=1.0, lambda0=4.0)


def _ising(n, h=1.0):
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    return tl.build_model(tl.build_ising_chain(n, h), jumps, bath=DAVIES, davies=True)


def _random_operator(rng, k):
    """A random 2^k x 2^k operator with exact zeros and signed zero parts."""
    m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
    m[rng.random(m.shape) < 0.4] = 0.0
    m.real[rng.random(m.shape) < 0.2] = -0.0
    m.imag[rng.random(m.shape) < 0.2] = -0.0
    return m


def test_kron_embed_matches_the_kronecker_route(dense_oracles):
    kron_transpose_embed = dense_oracles[0]
    rng = np.random.default_rng(12)
    cases = 0
    for n in range(1, 9):
        for _ in range(10):
            k = int(rng.integers(1, min(3, n) + 1))
            sites = [int(s) for s in rng.permutation(n)[:k]]
            for order in (sites, sites[::-1]):
                op = _random_operator(rng, k)
                got = tl.kron_embed(op, order, n)
                want = kron_transpose_embed(op, order, n)
                assert got.dtype == want.dtype and got.flags.c_contiguous
                assert np.array_equal(got, want)
                hit = want != 0  # there the same bytes, signed zero parts included
                assert got[hit].tobytes() == want[hit].tobytes()
                cases += 1
    assert cases == 160


@pytest.mark.parametrize("site", [1.5, 1.0, np.float64(0.0), True, np.bool_(False), "1"])
def test_kron_embed_rejects_a_site_that_is_not_an_integer(site):
    with pytest.raises(SiteOutOfRange):
        tl.kron_embed(tl.PAULI["X"], [site], 2)


def test_kron_embed_takes_numpy_integer_sites():
    got = tl.kron_embed(tl.PAULI["X"], [np.int64(1)], 2)
    assert np.array_equal(got, tl.kron_embed(tl.PAULI["X"], [1], 2))


@pytest.mark.parametrize("bits", ["-1", "0b11", "+101", "1_0", " 01", "01 ", ""])
@pytest.mark.parametrize("build", [tl.basis_state, tl.basis_density, ops.basis_index])
def test_basis_states_reject_what_is_not_a_bit_string(build, bits):
    with pytest.raises(DimensionMismatch):
        build(bits)


@pytest.mark.parametrize("n, h", [(n, h) for n in (4, 8, 10) for h in (0.0, 0.5, 1.0)])
def test_diagonal_hamiltonian_is_sorted_without_lapack(n, h, dense_oracles, monkeypatch):
    lapack_herm_eig = dense_oracles[1]
    dense = tl.build_ising_chain(n, h).dense
    want_w, want_v = lapack_herm_eig(dense)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
    w, v = ops.herm_eig(dense)
    assert calls == []
    assert w.tobytes() == want_w.tobytes()  # the same eigenvalues, bit for bit
    p = np.argmax(v.real, axis=0)
    perm = np.zeros_like(v)
    perm[p, np.arange(len(p))] = 1.0
    assert v.tobytes() == perm.tobytes() and sorted(p) == list(range(len(p)))
    assert np.array_equal(np.diagonal(dense).real[p], w)
    for value in np.unique(w):  # inside a group, the diagonal's order
        assert np.all(np.diff(p[w == value]) > 0)
    # the two bases span the same eigenspaces
    assert np.allclose(np.abs(want_v.conj().T @ v) ** 2 @ np.ones(len(w)), 1.0)


def test_general_hamiltonian_still_takes_lapack(oracle_system, dense_oracles):
    dense = oracle_system("generic_n3")[0].dense
    w, v = ops.herm_eig(dense)
    want_w, want_v = dense_oracles[1](dense)
    assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()


@pytest.fixture
def norm_checks(monkeypatch):
    """Every matrix handed to ``operators.spectral_norm_exceeds``."""
    calls = []
    exceeds = ops.spectral_norm_exceeds
    monkeypatch.setattr(ops, "spectral_norm_exceeds",
                        lambda m, bound: calls.append(m) or exceeds(m, bound))
    return calls


def test_one_nonzero_per_row_jumps_close_by_pattern(norm_checks):
    jumps = [(f"{p}{j}", tl.kron_embed(tl.PAULI[p], [j], 3)) for j in range(3) for p in "XYZ"]
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    lindblad._check_jump_set(lindblad._as_jump_list(jumps), 8)
    lindblad._check_jump_set([("minus", lower), ("plus", lower.conj().T)], 2)
    assert norm_checks == []


def test_closure_falls_back_to_the_norm_test(norm_checks):
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    near = lower.conj().T.copy()
    near[1, 0] += 1e-13  # within 1e-10 ||A||, not the same pattern
    lindblad._check_jump_set([("minus", lower), ("plus", near)], 2)
    assert norm_checks
    # an adjoint with two nonzeros in a row has no pattern of its own
    merge = np.array([[1, 0], [1, 0]], dtype=complex) / np.sqrt(2)
    lindblad._check_jump_set([("A", merge), ("B", merge.conj().T)], 2)
    with pytest.raises(JumpSetNotClosed):
        lindblad._check_jump_set([("minus", lower)], 2)
    with pytest.raises(JumpSetNotClosed):
        lindblad._check_jump_set([("minus", lower), ("other", lower)], 2)


def _scan_models(oracle_system):
    """Fresh models for the scan comparison: (name, factory)."""
    yield "ising_n4_h0", lambda: _ising(4, 0.0)
    yield "ising_n4_h1", lambda: _ising(4, 1.0)
    yield "ising_n8_h1", lambda: _ising(8, 1.0)

    def clock():
        cs = tl.load_circuit(str(REPO / "scripts" / "configs" / "circuit_x_t3.json"))
        clock = tl.build_clock_hamiltonian(cs, j_in=0.6, j_prop=0.3)
        return tl.build_model(clock.local, tl.clock_jump_preset(cs), bath=DAVIES, davies=True)

    yield "clock", clock

    def generic():
        ham, jumps, spec = oracle_system("generic_n3")
        return tl.build_model(ham, jumps, bath=spec)

    yield "generic_n3", generic


@pytest.mark.parametrize("name", ["ising_n4_h0", "ising_n4_h1", "ising_n8_h1", "clock",
                                  "generic_n3"])
def test_scan_rows_match_the_dense_operator_build(name, oracle_system, dense_oracles):
    make = dict(_scan_models(oracle_system))[name]
    model = make()
    scan = gradient_scan(model)
    # a permutation eigenbasis keeps no operator; other models cache them, as before
    assert (model._gradient_ops == {}) == (model.sd.permutation is not None)
    support, rows = dense_oracles[2](make())
    assert scan.support.dtype == support.dtype and scan.support.tobytes() == support.tobytes()
    assert scan.rows.dtype == rows.dtype and scan.rows.shape == rows.shape
    assert scan.rows.tobytes() == rows.tobytes()
    assert (model.sd.permutation is not None) == name.startswith("ising")
    # an operator cached before the scan changes nothing
    cached = make()
    tl.gradient_operator(cached, cached.jump_labels[-1])
    assert GradientScan(cached).rows.tobytes() == rows.tobytes()


def test_scan_only_landscape_keeps_no_operator():
    model = _ising(4, 1.0)
    result, _ = cli._scenario_ising({"epsilon": 1e-3}, model, None, {}, 0)
    assert result["certified"] == ["0000", "1111"]
    assert model._gradient_ops == {}
    op = tl.gradient_operator(model, "X0")  # still served, and cached, on request
    assert model._gradient_ops["X0"] is op
    assert np.array_equal(op, op.conj().T)


@pytest.mark.parametrize("n", [4, 8])
def test_basis_read_equals_the_density_route(n):
    model = _ising(n)
    scan = gradient_scan(model)
    for idx in range(2**n):
        bits = format(idx, f"0{n}b")
        rho = tl.basis_density(bits)
        got, want = scan(bits), scan(rho)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert tl.certify_local_min(model, bits, 1e-3) == tl.certify_local_min(model, rho, 1e-3)
        assert model.energy(bits) == model.energy(rho)
    with pytest.raises(DimensionMismatch):
        scan("0" * (n + 1))
    with pytest.raises(DimensionMismatch):
        scan("2" * n)


def test_projector_is_the_outer_product():
    rng = np.random.default_rng(4)
    for d in (1, 2, 8, 64):
        for _ in range(5):
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vec[rng.random(d) < 0.5] = 0.0
            vec.real[rng.random(d) < 0.2] = -0.0
            got = tl.projector(vec)
            assert got.dtype == complex and np.array_equal(got, np.outer(vec, vec.conj()))
        for k in range(d):  # basis vectors: bit for bit
            e = np.eye(d, dtype=complex)[k]
            assert tl.projector(e).tobytes() == np.outer(e, e.conj()).tobytes()
