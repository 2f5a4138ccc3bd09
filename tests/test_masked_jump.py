"""Each jump kept as one masked eigenbasis matrix A~ = V^dag A V from
set-up on, and the loop-free gather that reads it, against the row-loop
oracle."""

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import hamiltonian, lindblad
from thermal_landscape import operators as ops
from thermal_landscape.bath import BathSpec


def _ising_davies(n, h):
    ham = tl.build_ising_chain(n, h)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    return tl.build_model(ham, jumps, bath=BathSpec(beta=5.0, tau=1.0, lambda0=4.0),
                          davies=True)


def _two_level_jump(davies):
    """Four nondegenerate levels with the jump |0><1| + |1><0|, whose A~ has
    all-zero rows and columns 2 and 3, and a zero jump, which keeps no
    Bohr block."""
    ham = tl.assemble([(np.diag([0.0, 1.0, 2.5, 4.0]).astype(complex), (0, 1))], 2)
    flip = np.zeros((4, 4), dtype=complex)
    flip[0, 1] = flip[1, 0] = 1.0
    jumps = [("F", flip), ("O", np.zeros((4, 4), dtype=complex))]
    return tl.build_model(ham, jumps, bath=BathSpec(beta=2.0, tau=25.0), davies=davies)


def _model(name, davies, oracle_system):
    if name.startswith("ising_n4_h"):
        return _ising_davies(4, float(name[-1]))
    if name == "two_level":
        return _two_level_jump(davies)
    ham, jumps, spec = oracle_system(name)
    return tl.build_model(ham, jumps, bath=spec, davies=davies)


def _gathers(model, label):
    """The argument lists of every gather the model makes for jump ``label``:
    G~, the gradient operator (with lambda) and, with the Lamb shift, H~_LS,
    whose left factor is A~ itself."""
    a_eig = model.jump(label).blocks.eig
    f = model.sd.bohr_map
    yield a_eig.conj().T, f.T, a_eig, f, model._pair_weight
    yield a_eig.conj().T, f.T, a_eig, f, model._pair_weight, model.sd.eigenvalues
    if model.include_lamb_shift:
        yield a_eig, f, a_eig, f, model._lamb_weight


def _entry_args(left, f_left, right, f_right, weight, lam=None):
    """The arguments of ``lindblad._gather`` for two dense d x d factors
    with their Bohr-index maps."""
    la, li = np.nonzero(left)
    ri, rb = np.nonzero(right)
    return ((la, li, left[la, li]), f_left[la, li], (ri, rb, right[ri, rb]), f_right[ri, rb],
            weight, right.shape[1], lam)


CASES = [
    ("ising_n4_h0", True),
    ("ising_n4_h1", True),
    ("generic_n3", False),
    ("ising_n3_h0", False),
    ("clock_x_t3", False),
    ("random8_b16_t800", False),
    ("two_level", False),
    ("two_level", True),
]


@pytest.mark.parametrize("name, davies", CASES)
def test_gather_matches_row_loop(name, davies, oracle_system, row_loop_gather, monkeypatch):
    model = _model(name, davies, oracle_system)
    # blocks of 7 and 40 terms split rows of A~ across chunks and limit the
    # rows of the result that one chunk reaches
    for block in (lindblad.GATHER_BLOCK, 7, 40):
        monkeypatch.setattr(lindblad, "GATHER_BLOCK", block)
        for label in model.jump_labels:
            for args in _gathers(model, label):
                got = ops.from_entries(lindblad._gather(*_entry_args(*args)), model.dim)
                want = row_loop_gather(*args)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("davies", [False, True])
def test_zero_rows_and_a_jump_without_blocks(davies):
    model = _two_level_jump(davies)
    a_eig = model.jump("F").blocks.eig
    assert not np.any(a_eig[2:]) and not np.any(a_eig[:, 2:])
    zero = model.jump("O").blocks
    assert len(zero.freq_indices) == 0 and len(zero.mats) == 0
    assert not np.any(zero.eig) and not np.any(zero.total())
    assert not np.any(tl.gradient_operator(model, "O"))
    assert np.any(tl.gradient_operator(model, "F"))


@pytest.mark.parametrize("name, davies", [("ising_n4_h1", True), ("generic_n3", False)])
def test_jump_eig_is_the_stored_masked_matrix(name, davies, oracle_system):
    model = _model(name, davies, oracle_system)
    v = model.sd.eigenvectors
    for jump in model.jumps:
        a_eig = jump.blocks.eig
        assert not a_eig.flags.writeable
        kept = np.isin(model.sd.bohr_map, jump.blocks.freq_indices)
        np.testing.assert_array_equal(a_eig, np.where(kept, v.conj().T @ jump.matrix @ v, 0.0))


def test_dense_blocks_are_formed_on_read_and_shared_while_held(monkeypatch):
    model = _ising_davies(4, 1.0)
    blocks = model.jump("X0").blocks
    held = blocks.mats[0]
    assert blocks.mats[0] is held

    def no_block(*args):
        raise AssertionError("a dense block was formed")

    monkeypatch.setattr(hamiltonian, "_compact_block", no_block)
    assert len(blocks.mats) == len(blocks.freq_indices)
    assert blocks.mats[0] is held
    with pytest.raises(AssertionError, match="formed"):
        blocks.mats[1]


def test_ising_landscape_reads_no_dense_block(monkeypatch):
    def no_mats(self):
        raise AssertionError("BohrBlocks.mats was read")

    monkeypatch.setattr(hamiltonian.BohrBlocks, "mats", property(no_mats))
    model = _ising_davies(4, 1.0)
    certified = []
    for k in range(16):
        bits = format(k, "04b")
        cert = tl.certify_local_min(model, tl.basis_density(bits), 1e-3)
        if cert.kind == "local_min_sufficient":
            certified.append(bits)
        assert model.energy(tl.basis_density(bits)) == pytest.approx(
            -sum(1 - 2 * (bits[j] != bits[(j + 1) % 4]) for j in range(4))
            - sum(1 - 2 * int(b) for b in bits), abs=1e-12)
    assert certified == ["0000", "1111"]
