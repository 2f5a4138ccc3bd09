"""Jumps kept as the nonzero entries of their masked A~ = V^dag A V: the
entry gather against the row-loop oracle, sparse jump input against dense,
blocks formed from the entries, and an Ising landscape that forms no dense
eigenbasis and no dense A~."""

import numpy as np
import pytest
import scipy.sparse as sp

import thermal_landscape as tl
from thermal_landscape import gradient, hamiltonian, lindblad
from thermal_landscape import operators as ops
from thermal_landscape.bath import BathSpec

from test_masked_jump import CASES, _entry_args, _gathers, _ising_davies, _model

DAVIES_BATH = BathSpec(beta=5.0, tau=1.0, lambda0=4.0)


def _in_order_sum(left, f_left, right, f_right, weight, lam=None):
    """The same sum with the terms of each entry added in order of i from
    0.0: for each i, the products left[a, i] right[i, b] w over the nonzeros
    of column i and row i as one flat elementwise product (as the gather forms
    its terms: numpy's complex product of arrays may round differently from a
    scalar one)."""
    out = np.zeros(right.shape, dtype=complex)
    for i in range(left.shape[1]):
        a, b = np.flatnonzero(left[:, i]), np.flatnonzero(right[i])
        a, b = np.repeat(a, len(b)), np.tile(b, len(a))
        w = weight(f_left[a, i], f_right[i, b])
        if lam is not None:
            w = w * (lam[i] - 0.5 * (lam[a] + lam[b]))
        out[a, b] += left[a, i] * (right[i, b] * w)
    return out


GATHER_CASES = CASES + [("ising_n8_h0", True), ("ising_n8_h1", True)]


@pytest.mark.parametrize("name, davies", GATHER_CASES)
def test_entry_gather_matches_the_row_loop(name, davies, oracle_system, row_loop_gather,
                                           monkeypatch):
    if name.startswith("ising_n8"):
        model = _ising_davies(8, float(name[-1]))
    else:
        model = _model(name, davies, oracle_system)
    default = lindblad.GATHER_BLOCK
    for label in model.jump_labels:
        for args in _gathers(model, label):
            left, right = args[0], args[2]
            terms = (left != 0).astype(int) @ (right != 0).astype(int)
            want = row_loop_gather(*args) + 0.0  # its signed zeros made +0.0
            in_order = _in_order_sum(*args) + 0.0
            for block in (default, 7, 40):
                monkeypatch.setattr(lindblad, "GATHER_BLOCK", block)
                rows, cols, vals = lindblad._gather(*_entry_args(*args))
                # keys: every (a, b) that some term reaches, once each, row-major
                assert np.array_equal(rows * len(right) + cols, np.flatnonzero(terms))
                got = np.zeros(right.shape, dtype=complex)
                got[rows, cols] = vals
                assert np.array_equal(got != 0, want != 0)
                if np.max(terms, initial=0) <= 1:
                    assert got.tobytes() == want.tobytes()
                else:  # the oracle's dot adds the terms in another order
                    scale = np.max(np.abs(want), initial=0.0)
                    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale
                if block == default:  # one chunk: every entry summed in term order
                    assert got.tobytes() == in_order.tobytes()


@pytest.mark.parametrize("name, davies", GATHER_CASES)
def test_entry_gather_sums_in_order_at_every_block(name, davies, oracle_system, monkeypatch):
    """Chunks end between rows of the result, so no key spans two of them,
    every block size gives the in-order sum byte for byte, and a chunk holds
    at most max(block, nnz(right)) terms; a block of 1 takes each row alone,
    rows longer than the block among them."""
    if name.startswith("ising_n8"):
        model = _ising_davies(8, float(name[-1]))
    else:
        model = _model(name, davies, oracle_system)
    for label in model.jump_labels:
        for args in _gathers(model, label):
            in_order = _in_order_sum(*args) + 0.0
            entry_args = list(_entry_args(*args))
            weight, chunks = entry_args[4], []

            def counted(f_left, f_right):
                chunks.append(len(f_left))
                return weight(f_left, f_right)

            entry_args[4] = counted
            nnz_right = len(entry_args[2][0])
            for block in (1, 7, 40):
                monkeypatch.setattr(lindblad, "GATHER_BLOCK", block)
                chunks.clear()
                rows, cols, vals = lindblad._gather(*entry_args)
                assert chunks and max(chunks) <= max(block, nnz_right)
                assert np.all(np.diff(rows * len(args[2]) + cols) > 0)  # once each, row-major
                got = np.zeros(args[2].shape, dtype=complex)
                got[rows, cols] = vals
                assert got.tobytes() == in_order.tobytes()


def _forbid(monkeypatch, owner, name):
    def read(self):
        raise AssertionError(f"{owner.__name__}.{name} was read")

    monkeypatch.setattr(owner, name, property(read))


@pytest.mark.parametrize("embed", [tl.kron_embed, tl.kron_embed_csr], ids=["dense", "csr"])
def test_ising_landscape_forms_no_dense_eigenbasis(embed, monkeypatch):
    for owner, name in [(hamiltonian.SpectralData, "eigenvectors"),
                        (hamiltonian.SpectralData, "bohr_map"),
                        (hamiltonian.BohrBlocks, "eig")]:
        _forbid(monkeypatch, owner, name)
    n = 8
    jumps = [(f"X{j}", embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(tl.build_ising_chain(n, 1.0), jumps, bath=DAVIES_BATH, davies=True)
    certified = [bits for bits in (format(k, f"0{n}b") for k in range(2**n))
                 if tl.certify_local_min(model, bits, 1e-3).kind == "local_min_sufficient"]
    assert certified == ["0" * n, "1" * n]


@pytest.mark.parametrize("name", ["ising_n4_h0", "ising_n4_h1", "ising_n8_h0", "ising_n8_h1",
                                  "generic_n3"])
def test_sparse_jumps_build_the_dense_jumps_model(name, generic_pauli_chain):
    if name == "generic_n3":
        n, ham, letters = 3, generic_pauli_chain(3, 0), "XZ"
        bath, davies = BathSpec(beta=2.0, tau=25.0), False
    else:
        n, ham, letters = int(name[7]), tl.build_ising_chain(int(name[7]), float(name[-1])), "XY"
        bath, davies = DAVIES_BATH, True
    models = []
    for embed in (tl.kron_embed, tl.kron_embed_csr):
        jumps = [(f"{p}{j}", embed(tl.PAULI[p], [j], n)) for j in range(n) for p in letters]
        models.append(tl.build_model(ham, jumps, bath=bath, davies=davies))
    dense, sparse = models
    for a, b in zip(dense.jumps, sparse.jumps):
        assert sp.issparse(b.given) and isinstance(b.matrix, np.ndarray)
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.aa_norm == b.aa_norm
        assert a.blocks.freq_indices.tobytes() == b.blocks.freq_indices.tobytes()
        assert a.blocks.eig.tobytes() == b.blocks.eig.tobytes()
        for x, y in zip(a.blocks.entries, b.blocks.entries):
            assert x.tobytes() == y.tobytes()
    scans = [gradient.gradient_scan(m) for m in models]
    assert scans[0].rows.tobytes() == scans[1].rows.tobytes()
    assert scans[0].support.tobytes() == scans[1].support.tobytes()


def test_sparse_jump_set_is_checked_without_densifying(monkeypatch):
    def no_dense(m):
        raise AssertionError("a jump was densified")

    monkeypatch.setattr(ops, "as_dense", no_dense)
    n = 6
    jumps = [(f"{p}{j}", tl.kron_embed_csr(tl.PAULI[p], [j], n)) for j in range(n) for p in "XY"]
    model = tl.build_model(tl.build_ising_chain(n, 1.0), jumps, bath=DAVIES_BATH, davies=True)
    assert [j.aa_norm for j in model.jumps] == [1.0] * 2 * n


def test_sparse_jump_is_read_in_canonical_form():
    # stored out of order, with a duplicate and a stored zero
    rows, cols = np.array([1, 0, 0, 1]), np.array([0, 1, 1, 1])
    vals = np.array([0.5, 0.25, 0.25, 0.0], dtype=complex)
    coo = sp.coo_array((vals, (rows, cols)), shape=(2, 2))
    lower = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    got = ops.entries(coo)
    assert [x.tolist() for x in got] == [[0, 1], [1, 0], [0.5, 0.5]]
    (_, kept), = lindblad._as_jump_list([("A", coo)])
    assert kept.has_canonical_format and np.array_equal(kept.toarray(), lower)
    assert lindblad._check_jump_set([("A", coo)], 2) == lindblad._check_jump_set([("A", lower)], 2)


def test_sparse_jump_with_two_nonzeros_in_a_row_takes_the_norm_route():
    n = 3
    both = tl.kron_embed(tl.PAULI["X"], [0], n) + tl.kron_embed(tl.PAULI["X"], [1], n)
    jumps = [("XX", 0.5 * both)]
    sparse = [("XX", sp.csr_array(0.5 * both))]
    assert lindblad._check_jump_set(lindblad._as_jump_list(sparse), 8) == \
        lindblad._check_jump_set(lindblad._as_jump_list(jumps), 8)


def test_each_dense_jump_is_scanned_once(monkeypatch):
    calls = []
    scan = ops.nonzero

    def spy(m):
        calls.append(id(m))
        return scan(m)

    def no_transform(self, x):
        raise AssertionError("a jump was transformed densely")

    monkeypatch.setattr(ops, "nonzero", spy)
    monkeypatch.setattr(hamiltonian.SpectralData, "to_eig", no_transform)
    n = 8
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    tl.build_model(tl.build_ising_chain(n, 1.0), jumps, bath=DAVIES_BATH, davies=True)
    ids = [id(mat) for _, mat in jumps]
    assert [i for i in calls if i in ids] == ids


@pytest.mark.parametrize("name", ["ising_n4_h1", "generic_n3"])
def test_blocks_from_the_entries_are_the_dense_products(name, monkeypatch, oracle_system):
    model = _model(name, name.startswith("ising"), oracle_system)
    sd = model.sd
    v, f = sd.eigenvectors, sd.bohr_map
    if sd.permutation is not None:
        _forbid(monkeypatch, hamiltonian.SpectralData, "bohr_map")
    for jump in model.jumps:
        blocks = jump.blocks
        for k, mat in zip(blocks.freq_indices, blocks.mats):
            rows, cols = np.nonzero(f == k)
            block, r, c = hamiltonian._compact_block(blocks.eig, rows, cols, sd.dim)
            want = v[:, r] @ block @ np.ascontiguousarray(v[:, c].conj().T)
            assert mat.tobytes() == want.tobytes()


def test_permutation_eigenbasis_is_formed_on_first_read():
    ham = tl.build_ising_chain(6, 1.0)
    sd = hamiltonian.spectral_data(ham)
    w, v = tl.herm_eig(ham.dense)
    assert sd.basis.ndim == 1 and sd.permutation is sd.basis
    assert "eigenvectors" not in vars(sd)
    assert sd.eigenvectors is sd.eigenvectors
    assert not sd.eigenvectors.flags.writeable
    assert sd.eigenvectors.tobytes() == v.tobytes()
    assert sd.eigenvalues.tobytes() == w.tobytes()
    generic = hamiltonian.spectral_data(tl.build_ising_chain(3, 1.0).dense
                                        + 0.1 * tl.kron_embed(tl.PAULI["X"], [0], 3))
    assert generic.permutation is None and generic.eigenvectors is generic.basis
