import json
import math

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import circuit_hamiltonian as circ
from thermal_landscape.errors import NonUnitaryGate


I2 = np.eye(2, dtype=complex)


def identity_circuit(n=1, t0=1, total=3):
    return circ.make_circuit(n, t0, [(I2, (0,))] * total)


def x_circuit():
    return circ.make_circuit(
        1, 1, [(I2, (0,)), (tl.PAULI["X"], (0,)), (I2, (0,))]
    )


def test_binomial_weights():
    xi = circ.binomial_weights(4)
    assert np.allclose(xi, np.array([1, 4, 6, 4, 1]) / 16.0)
    assert np.sum(circ.binomial_weights(9)) == pytest.approx(1.0, abs=1e-12)


def test_h_coupling_symmetry():
    cs = identity_circuit(total=5, t0=2)
    ch = circ.build_clock_hamiltonian(cs, 0.01, 0.05)
    h = ch.h_couplings
    assert np.allclose(h, h[::-1])


def test_identity_circuit_ground_state():
    cs = identity_circuit()
    ch = circ.build_clock_hamiltonian(cs, 0.1, 0.1)
    eta = circ.history_state(cs)
    assert np.linalg.norm(eta) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(ch.h_total @ eta) < 1e-9
    assert np.linalg.norm(ch.h_clock @ eta) < 1e-10
    # system register factors out as |0>
    xi = circ.binomial_weights(3)
    clock_part = np.zeros(8, dtype=complex)
    for t in range(4):
        clock_part[circ._clock_basis_index(t, 3)] = math.sqrt(xi[t])
    assert np.linalg.norm(eta - np.kron(np.array([1.0, 0.0]), clock_part)) < 1e-12


def test_x_circuit_ground_overlap():
    cs = x_circuit()
    ch = circ.build_clock_hamiltonian(cs, 0.1, 0.1)
    eta = circ.history_state(cs)
    w, v = tl.herm_eig(ch.h_total)
    assert abs(v[:, 0].conj() @ eta) ** 2 >= 1.0 - 1e-6
    assert w[1] - w[0] > 1e-3  # unique ground state at desk scale


def test_clock_and_input_terms_psd():
    cs = x_circuit()
    ch = circ.build_clock_hamiltonian(cs, 0.2, 0.3)
    assert np.linalg.eigvalsh(ch.h_clock)[0] >= -1e-9
    assert np.linalg.eigvalsh(ch.h_in)[0] >= -1e-9
    assert np.allclose(ch.h_total, ch.h_clock + ch.h_in + ch.h_prop)
    assert np.sum(ch.xi) == pytest.approx(1.0, abs=1e-12)


def test_effective_prop_block_spectrum():
    cs = x_circuit()
    j_prop = 0.25
    tri = circ.effective_prop_block(cs, "0", j_prop)
    spec = np.linalg.eigvalsh(tri)
    assert np.allclose(spec, j_prop * np.arange(4), atol=1e-9)
    # ground vector is sqrt(xi)
    _, vecs = np.linalg.eigh(tri)
    ground = vecs[:, 0] * np.sign(vecs[0, 0])
    assert np.linalg.norm(ground - np.sqrt(circ.binomial_weights(3))) < 1e-9


def test_effective_prop_block_assembles_only_the_propagation_terms(monkeypatch):
    cs = x_circuit()
    calls = []
    assemble = circ.assemble

    def spy(terms, n):
        calls.append(len(terms))
        return assemble(terms, n)

    monkeypatch.setattr(circ, "assemble", spy)
    circ.effective_prop_block(cs, "0", 0.25)
    assert calls == [cs.total_gates]


@pytest.mark.parametrize("j_prop", [0.0, -0.25])
def test_effective_prop_block_rejects_a_nonpositive_coupling(j_prop):
    with pytest.raises(ValueError, match="J_prop"):
        circ.effective_prop_block(x_circuit(), "0", j_prop)


def test_clock_hamiltonian_keeps_its_terms_not_dense_copies():
    cs = x_circuit()
    ch = circ.build_clock_hamiltonian(cs, 0.2, 0.3)
    d = 2 ** ch.local.n
    assert not [k for k, v in vars(ch).items()
                if isinstance(v, np.ndarray) and v.shape == (d, d)]
    assert ch.h_total is ch.local.dense
    parts = ch.clock_terms + ch.in_terms + ch.prop_terms
    assert [sites for _, sites in ch.local.terms] == [sites for _, sites in parts]
    assert (len(ch.clock_terms), len(ch.in_terms), len(ch.prop_terms)) == (2, 1, 3)
    total = ch.h_clock + ch.h_in + ch.h_prop
    assert np.max(np.abs(total - ch.h_total)) <= 1e-15 * np.max(np.abs(ch.h_total))


def test_history_state_weights_the_time_basis():
    """|eta_x> is the sum over t of sqrt(xi_t) U_t ... U_1 |x> (x) |C_t>, each
    entry one product, as a loop over t writes it."""
    cs = circ.make_circuit(2, 1, [(I2, (0,)), (circ.GATES["CNOT"], (0, 1)), (I2, (0,))])
    xi = circ.binomial_weights(cs.total_gates)
    clock_dim = 2**cs.total_gates
    for bits in ("00", "01", "10", "11"):
        want = np.zeros(2 ** (cs.n + cs.total_gates), dtype=complex)
        for t, psi in enumerate(circ._partial_states(cs, bits)):
            idx = circ._clock_basis_index(t, cs.total_gates)
            want[np.arange(2**cs.n) * clock_dim + idx] += math.sqrt(xi[t]) * psi
        assert circ.history_state(cs, bits).tobytes() == want.tobytes()


def test_effective_prop_block_input_independence():
    cs = x_circuit()
    a = circ.effective_prop_block(cs, "0", 0.25)
    b = circ.effective_prop_block(cs, "1", 0.25)
    assert np.allclose(a, b)


def test_effective_block_bohr_gap():
    cs = x_circuit()
    j_prop = 0.2
    tri = circ.effective_prop_block(cs, "0", j_prop)
    sd = tl.spectral_data(tri.astype(complex))
    assert sd.bohr_gap == pytest.approx(j_prop, abs=1e-10)


def test_projector_chain():
    cs = x_circuit()
    j_in, j_prop = 1e-3, 1e-2
    ch = circ.build_clock_hamiltonian(cs, j_in, j_prop)
    from thermal_landscape.hamiltonian import spectral_data

    p1 = spectral_data(ch.h_clock).ground_projector
    p2 = spectral_data(ch.h_clock + ch.h_prop).ground_projector
    p3 = spectral_data(ch.h_total).ground_projector
    assert np.trace(p1).real == pytest.approx(2 * 4)  # 2^n (T+1)
    assert np.trace(p2).real == pytest.approx(2)  # 2^n
    assert np.trace(p3).real == pytest.approx(1)
    assert np.linalg.norm(p1 @ p2 - p2, 2) < 1e-8
    assert np.linalg.norm(p2 @ p3 - p3, 2) < 1e-8


def test_h_in_diagonal_on_history_states():
    cs = circ.make_circuit(
        2, 1, [(I2, (0,)), (circ.GATES["CNOT"], (0, 1)), (I2, (0,))]
    )
    j_in = 0.37
    ch = circ.build_clock_hamiltonian(cs, j_in, 0.1)
    states = {bits: circ.history_state(cs, bits) for bits in ("00", "01", "10", "11")}
    for bx, ex in states.items():
        for by, ey in states.items():
            val = complex(ey.conj() @ ch.h_in @ ex)
            if bx == by:
                assert val.real == pytest.approx(j_in * bx.count("1"), abs=1e-9)
            else:
                assert abs(val) < 1e-9


def test_first_and_last_action_times():
    cs = x_circuit()
    assert cs.first_action_times() == [2]
    assert cs.last_action_times() == [2]
    ident = identity_circuit()
    assert ident.first_action_times() == [2]  # defaults to t0 + 1
    assert ident.last_action_times() == [0]


def test_observable_reduction_identity_circuit():
    cs = identity_circuit()
    red = circ.observable_reduction(cs, 0)
    xi = circ.binomial_weights(3)
    assert red.p_gt == pytest.approx(1.0 - xi[0])
    assert red.eps_exact == pytest.approx(xi[0])  # <0|Z|0> = 1 at t = 0
    assert abs(red.eps_exact) <= 1.0 - red.p_gt + 1e-12


def test_observable_reduction_x_circuit():
    cs = x_circuit()
    red = circ.observable_reduction(cs, 0)
    xi = circ.binomial_weights(3)
    # T_0 = 2: eps = xi_0 <Z>_0 + xi_1 <Z>_1 + xi_2 <Z>_2 = xi_0 + xi_1 - xi_2
    assert red.eps_exact == pytest.approx(xi[0] + xi[1] - xi[2])
    assert red.p_gt == pytest.approx(xi[3])
    # direct check of the reduction identity on the history state
    eta = circ.history_state(cs)
    z0 = tl.kron_embed(tl.PAULI["Z"], [0], 4)
    lhs = float((eta.conj() @ z0 @ eta).real)
    final = -1.0  # <0|X Z X|0> = -1
    assert lhs == pytest.approx(final * red.p_gt + red.eps_exact, abs=1e-12)


def test_center_weight_bound_sampled():
    for t0, comp in ((1, 1), (1, 2), (2, 2), (3, 2), (2, 1)):
        total = 2 * t0 + comp
        xi = circ.binomial_weights(total)
        bound = circ.center_weight_bound(t0, comp)
        for t in range(t0, total - t0 + 1):
            assert xi[t] >= bound


def test_load_circuit_json_and_custom_gate(tmp_path):
    mat = [[0.0, 1.0], [1.0, 0.0]]
    obj = {
        "n": 1,
        "t0": 1,
        "gates": [
            {"name": "I", "sites": [0]},
            {"name": "custom", "sites": [0],
             "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
            {"name": "I", "sites": [0]},
        ],
    }
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(obj))
    cs = circ.load_circuit(str(path))
    assert cs.n == 1 and cs.t0 == 1 and cs.total_gates == 3
    assert np.allclose(cs.gates[1][0], np.array(mat))

    obj["gates"][1] = {"name": "custom", "sites": [0],
                       "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    with pytest.raises(NonUnitaryGate):
        circ.load_circuit(obj)


def test_make_circuit_rejects_nontrivial_padding():
    with pytest.raises(ValueError):
        circ.make_circuit(1, 1, [(tl.PAULI["X"], (0,)), (I2, (0,)), (I2, (0,))])


def test_clock_jump_preset_shapes_and_normalization():
    cs = x_circuit()
    jumps = circ.clock_jump_preset(cs)
    assert len(jumps) == 2 * 3 + 1
    labels = [lab for lab, _ in jumps]
    assert labels[0] == "flip0"  # flips first: scan-order matters for descent
    for _, mat in jumps:
        assert mat.shape == (16, 16)
        assert np.linalg.norm(mat.conj().T @ mat, 2) <= 1.0 + 1e-12
