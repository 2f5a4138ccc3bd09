"""Reference formulas shared by the Hamiltonian and Lindbladian tests."""

import numpy as np
import pytest


def _group_projectors(sd):
    return [sd.group_projector(g) for g in range(len(sd.energies))]


def _sandwich_bohr_blocks(a_mat, sd, drop_factor=1e-12):
    """A_nu = sum_{E2-E1=nu} P_{E2} A P_{E1}, written out over every pair of
    group projectors with each pair filed under the Bohr frequency nearest
    to its energy difference; a block is kept when ||A_nu||_2 > drop ||A||_2,
    both norms by SVD.  Returns the kept Bohr indices and their blocks."""
    cutoff = drop_factor * max(np.linalg.norm(a_mat, 2), 1e-300)
    projectors = _group_projectors(sd)
    acc = {}
    for i, pi in enumerate(projectors):
        for j, pj in enumerate(projectors):
            nu = sd.energies[i] - sd.energies[j]
            k = int(np.argmin(np.abs(sd.bohr_freqs - nu)))
            acc[k] = acc.get(k, 0) + pi @ a_mat @ pj
    keys = sorted(k for k, m in acc.items() if np.linalg.norm(m, 2) > cutoff)
    return keys, [acc[k] for k in keys]


@pytest.fixture
def group_projectors():
    """``group_projectors(sd)``: every group projector of a spectrum."""
    return _group_projectors


@pytest.fixture
def sandwich_bohr_blocks():
    """``sandwich_bohr_blocks(a_mat, sd)``: the projector-sandwich oracle."""
    return _sandwich_bohr_blocks
