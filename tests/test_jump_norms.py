"""||A^dag A||_2 of the jump-set check: max |diag| when A^dag A is
diagonal, equal to the SVD bit for bit, and the SVD for every other jump."""

from pathlib import Path

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import lindblad
from thermal_landscape.errors import JumpNotNormalized

REPO = Path(__file__).resolve().parents[1]


def _one_per_column(d, seed):
    """A jump with one nonzero per column, in distinct rows, and its adjoint."""
    rng = np.random.default_rng(seed)
    m = np.zeros((d, d), dtype=complex)
    m[rng.permutation(d), np.arange(d)] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    m /= np.max(np.abs(m)) * rng.uniform(1.0, 2.0)
    return [("M", m), ("Mdag", m.conj().T)]


def _diagonal_sets():
    for p in "XYZ":
        yield p, [(f"{p}{j}", tl.kron_embed(tl.PAULI[p], [j], 3)) for j in range(3)]
    cs = tl.load_circuit(str(REPO / "scripts" / "configs" / "circuit_x_t3.json"))
    yield "clock", tl.clock_jump_preset(cs)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # non-normal, A^dag A = |1><1|
    yield "sigma_minus", [("minus", lower), ("plus", lower.conj().T)]
    for seed, d in enumerate((2, 3, 5, 16, 31, 64, 100, 128, 200, 256)):
        yield f"one_per_column_d{d}", _one_per_column(d, seed)


DIAGONAL_SETS = dict(_diagonal_sets())


@pytest.fixture
def svd_calls(monkeypatch):
    """The arguments of every ``operators.operator_norm`` call."""
    calls = []
    svd = lindblad.ops.operator_norm

    def spy(m):
        calls.append(np.array(m))
        return svd(m)

    monkeypatch.setattr(lindblad.ops, "operator_norm", spy)
    return calls


@pytest.mark.parametrize("name", list(DIAGONAL_SETS))
def test_diagonal_aa_norm_is_the_svd_norm_bit_for_bit(name, svd_calls):
    jumps = lindblad._as_jump_list(DIAGONAL_SETS[name])
    norms = lindblad._check_jump_set(jumps, jumps[0][1].shape[0])
    for (_, mat), (norm, aa) in zip(jumps, norms):
        aa_mat = mat.conj().T @ mat
        assert np.count_nonzero(aa_mat - np.diag(np.diagonal(aa_mat))) == 0
        assert aa == np.linalg.norm(aa_mat, 2)
        assert norm == np.sqrt(aa)
        assert not any(c.shape == aa_mat.shape and np.array_equal(c, aa_mat) for c in svd_calls)


def test_dense_jump_takes_the_svd(svd_calls):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = 0.9 * m / np.linalg.norm(m, 2)
    jumps = [("M", m), ("Mdag", m.conj().T)]
    norms = lindblad._check_jump_set(jumps, 8)
    for (_, mat), (_, aa) in zip(jumps, norms):
        aa_mat = mat.conj().T @ mat
        assert any(np.array_equal(c, aa_mat) for c in svd_calls)
        assert aa == np.linalg.norm(aa_mat, 2)


@pytest.mark.parametrize("jump", [
    1.1 * tl.PAULI["X"],
    np.diag([np.sqrt(1.0 + 2e-9), 0.5]).astype(complex),
], ids=["scaled_x", "diagonal_over_threshold"])
def test_diagonal_shortcut_keeps_the_threshold(jump):
    assert np.max(np.abs(np.diagonal(jump.conj().T @ jump))) > 1.0 + 1e-9
    with pytest.raises(JumpNotNormalized):
        lindblad._check_jump_set([("A", jump)], 2)
