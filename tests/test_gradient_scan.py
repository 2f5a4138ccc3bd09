"""The eigenbasis gather of the gradient operators and the one gradient
scan, in the eigenbasis, that certificates, energies and descent read them
through."""

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import descent, gradient
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import DimensionMismatch
from thermal_landscape.gradient import gradient_scan
from thermal_landscape.lindblad import zero_frequency_sector


def _cluster_system():
    """Four levels 0, 1, 1 + 1e-9, 2.5 in a random basis, with one random
    Hermitian jump.  The two middle levels share an energy group, so the
    group energy differs from their eigenvalues by 5e-10."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    h = q @ np.diag([0.0, 1.0, 1.0 + 1e-9, 2.5]) @ q.conj().T
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = m + m.conj().T
    ham = tl.assemble([(0.5 * (h + h.conj().T), (0, 1))], 2)
    return ham, [("A", m / np.linalg.norm(m, 2))], BathSpec(beta=2.0, tau=25.0)


def _model(name, davies, oracle_system):
    if name == "cluster":
        ham, jumps, spec = _cluster_system()
    elif name == "ising_n4_h0":
        ham = tl.build_ising_chain(4, 0.0)
        jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], 4)) for j in range(4)]
        spec = BathSpec(beta=5.0, tau=1.0, lambda0=4.0)
    else:
        ham, jumps, spec = oracle_system(name)
    return tl.build_model(ham, jumps, bath=spec, davies=davies)


@pytest.mark.parametrize("name, davies", [
    ("generic_n3", False),
    ("ising_n3_h0", False),
    ("clock_x_t3", False),
    ("random8_b16_t800", False),
    ("cluster", False),
    ("generic_n3", True),
    ("ising_n4_h0", True),
    ("cluster", True),
])
def test_gradient_operator_gather_matches_adjoint(name, davies, oracle_system):
    # the gather uses the eigenvalues of H, not its group energies, and
    # carries the Lamb term; the general adjoint of H is the oracle
    model = _model(name, davies, oracle_system)
    assert model.include_lamb_shift is not davies
    assert model.sd.eigenvalues.shape == (model.dim,)
    for label in model.jump_labels:
        got = tl.gradient_operator(model, label)
        want = tl.lindblad_adjoint(model, label, model.ham.dense)
        np.testing.assert_array_equal(got, got.conj().T)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _states(rng, dim):
    """A random non-Hermitian matrix, every basis state and a dense mixed
    state."""
    yield rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for k in range(dim):
        yield tl.projector(np.eye(dim, dtype=complex)[k])
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    yield rho / np.trace(rho).real


@pytest.mark.parametrize("name, davies", [("generic_n3", False), ("ising_n4_h0", True)])
def test_gradient_scan_matches_traces(name, davies, oracle_system):
    model = _model(name, davies, oracle_system)
    ops = [tl.gradient_operator(model, label) for label in model.jump_labels]
    subset = model.jump_labels[::-2]
    rng = np.random.default_rng(3)
    for rho in _states(rng, model.dim):
        want = np.array([np.trace(op @ rho).real for op in ops])
        scale = max(np.max(np.abs(want)), 1e-300)
        g = tl.gradient_vector(model, rho).g
        assert np.max(np.abs(g - want)) <= 1e-12 * scale
        part = tl.gradient_vector(model, rho, labels=subset)
        assert part.labels == tuple(subset)
        index = [model.jump_index(label) for label in subset]
        assert np.max(np.abs(part.g - want[index])) <= 1e-12 * scale
        energy = np.trace(model.ham.dense @ rho).real
        assert abs(model.energy(rho) - energy) <= 1e-12 * max(abs(energy), 1.0)


def _dense_reads(model, rho):
    """Re Tr(X rho) of every gradient operator, then of H, by dense traces."""
    ops = [tl.gradient_operator(model, label) for label in model.jump_labels]
    return np.array([np.trace(op @ rho).real for op in ops + [model.ham.dense]])


@pytest.mark.parametrize("name, davies", [("generic_n3", False), ("ising_n4_h0", True),
                                         ("cluster", True)])
def test_eigenbasis_scan_and_sector_rows_match_the_scan(name, davies, oracle_system):
    """The scan, on rho and on vec(V^dag rho V) as descent reads it, and a
    sector's rows of it on the sector's coordinates, against dense traces of
    the gradient operators and H: a dense V with the Lamb shift, a
    permutation V with energy groups, and a degenerate group in a dense V."""
    model = _model(name, davies, oracle_system)
    scan = gradient_scan(model)
    d = model.dim
    sectors = [zero_frequency_sector(model, np.full((d, d), 1.0 / d, dtype=complex))]
    if davies:
        sectors.append(zero_frequency_sector(model))
    assert all(sector is not None for sector in sectors)
    rng = np.random.default_rng(4)
    for rho in _states(rng, d):
        want = _dense_reads(model, rho)
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(scan(rho) - want)) <= 1e-13 * scale
        got = scan.read(model.sd.to_eig(rho).reshape(-1))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
    for sector in sectors:
        rows = sector.scan_rows(scan)
        for _ in range(3):
            rho = sector.density(rng.standard_normal(sector.size))
            want = _dense_reads(model, rho)
            got = rows @ sector.coords(rho)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)


@pytest.mark.parametrize("name", ["generic_n3", "clock_x_t3"])
def test_bit_strings_of_a_dense_eigenbasis_match_the_density(name, oracle_system):
    # a dense V reads a bit string as the rank-one V^dag |b><b| V
    model = _model(name, True, oracle_system)
    assert model.sd.permutation is None
    n = model.ham.n
    for k in range(model.dim):
        bits = format(k, f"0{n}b")
        got, want = gradient_scan(model)(bits), _dense_reads(model, tl.basis_density(bits))
        assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(want)), 1e-300)
        for epsilon in (1e-3, 1e-1):
            assert (tl.certify_local_min(model, bits, epsilon).kind
                    == tl.certify_local_min(model, tl.basis_density(bits), epsilon).kind)


def test_descent_and_its_certificate_read_one_scan(monkeypatch):
    # one descent followed by a certificate builds the model's scan once
    built = []

    class Counted(gradient.GradientScan):
        def __init__(self, model):
            built.append(model)
            super().__init__(model)

    monkeypatch.setattr(gradient, "GradientScan", Counted)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], 3)) for j in range(3)]
    model = tl.build_model(tl.build_ising_chain(3, 0.5), jumps,
                           bath=BathSpec(beta=2.0, tau=1.0), davies=True)
    assert model._scan is None
    trace = descent.thermal_gradient_descent(
        model, tl.maximally_mixed(3), descent.DescentConfig(epsilon=0.01, norm_bound=4.0))
    scan = model._scan
    assert isinstance(scan, Counted) and trace.steps
    cert = tl.certify_local_min(model, trace.terminal_state, 0.01)
    assert cert == trace.terminal_certificate
    assert model._scan is scan and gradient.gradient_scan(model) is scan
    assert built == [model]


def test_gradient_scan_support_of_a_diagonal_model(oracle_system):
    # the Ising gradient operators and H are diagonal: a basis-state
    # certificate reads at most the d real diagonal columns of the 2 d^2
    model = _model("ising_n4_h0", True, oracle_system)
    scan = gradient_scan(model)
    d = model.dim
    assert set(scan.support.tolist()) <= set((2 * (d + 1) * np.arange(d)).tolist())
    assert scan.rows.shape == (len(model.jumps) + 1, len(scan.support))
    assert gradient_scan(model) is scan
    # a generic model's operators are dense, but their diagonals are real
    generic = _model("generic_n3", False, oracle_system)
    d = generic.dim
    assert gradient_scan(generic).rows.shape == (len(generic.jumps) + 1, 2 * d * d - d)


def test_bit_string_outside_the_scan_support_reads_zero():
    # Z0 commutes with the diagonal H, so its gradient is zero, and |11> has
    # zero energy: no row of the scan has an entry on its diagonal, which
    # the permutation V files at its eigen index
    model = tl.build_model(tl.build_ising_chain(2, 1.0),
                           [("Z0", tl.kron_embed(tl.PAULI["Z"], [0], 2))],
                           bath=BathSpec(beta=1.0, tau=1.0), davies=True)
    scan = gradient_scan(model)
    index = int(np.flatnonzero(model.sd.permutation == 3)[0])
    assert 2 * index * (model.dim + 1) not in scan.support
    got = scan("11")
    assert got.tobytes() == scan(tl.basis_density("11")).tobytes() == np.zeros(2).tobytes()
    assert scan("00").tobytes() == scan(tl.basis_density("00")).tobytes()


def test_gradient_scan_rejects_a_state_of_the_wrong_shape():
    ham = tl.build_ising_chain(2, 0.5)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], 2)) for j in range(2)]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=1.0, tau=1.0), davies=True)
    with pytest.raises(DimensionMismatch):
        model.energy(np.eye(8) / 8)
    with pytest.raises(DimensionMismatch):
        tl.gradient_vector(model, np.eye(2) / 2)
