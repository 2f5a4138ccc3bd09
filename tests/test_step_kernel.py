"""The descent step kernels against their complex and pre-kernel forms."""

from pathlib import Path

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import descent, hamiltonian, lindblad
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import JumpNotNormalized, MaxStepsExceeded
from thermal_landscape.lindblad import zero_frequency_sector

from test_descent import _reference_descent

REPO = Path(__file__).resolve().parents[1]


def qubit_model(field="Z", jump="X"):
    ham = tl.assemble([(0.5 * (np.eye(2) - tl.PAULI[field]), (0,))], 1)
    return tl.build_model(ham, [(f"{jump}0", tl.PAULI[jump].copy())],
                          bath=BathSpec(beta=10.0, tau=1.0), davies=True)


def generic_davies6():
    """An open chain of 6 qubits with Gaussian coefficients (seed 0) on X_j,
    Z_j, Z_j Z_{j+1} and X_j X_{j+1}, CSR X jumps and a Davies bath at
    beta = 2, a Haar-random pure start (drawn next from the same generator),
    epsilon = 1e-2 and B = max |lambda|: ``scripts/descent_runs.py
    generic_davies6_haar``, capped at 200 steps.  Its eigenbasis is no
    permutation."""
    n = 6
    rng = np.random.default_rng(0)
    local = [(tl.PAULI[p], (j,)) for j in range(n) for p in "XZ"]
    local += [(np.kron(tl.PAULI[p], tl.PAULI[p]), (j, j + 1)) for j in range(n - 1) for p in "ZX"]
    coeffs = rng.normal(size=len(local))
    ham = tl.assemble([(c * op, sites) for c, (op, sites) in zip(coeffs, local)], n)
    jumps = [(f"X{j}", tl.kron_embed_csr(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(ham, jumps, bath=BathSpec(beta=2.0, tau=1.0), davies=True)
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi /= np.linalg.norm(psi)
    b = float(np.max(np.abs(model.sd.eigenvalues)))
    return model, np.outer(psi, psi.conj()), tl.DescentConfig(epsilon=1e-2, norm_bound=b,
                                                              max_steps=200)


def ising_model(include_coherent=False):
    n = 4
    ham = tl.build_ising_chain(n, 1.5, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    return tl.build_model(ham, jumps, bath=BathSpec(beta=6.0, tau=1.0, lambda0=4.0),
                          davies=True, include_coherent=include_coherent)


def _descend(model, rho, cfg):
    try:
        return tl.thermal_gradient_descent(model, rho, cfg)
    except MaxStepsExceeded as exc:
        return exc.trace


def _off_sector_case(name, oracle_system):
    """(model, start state, config) of a descent outside any energy-group
    sector: ``generic_n3`` (finite tau) and ``qubit_plus`` (a Davies model
    started off its sector) run in the one-group sector; ``ising_n6``, the
    d = 64 Davies Ising ring, has no sector within ``SECTOR_MAX_ENTRIES``
    and runs on vec(V^dag rho V), capped at 100 steps, as does
    ``generic_davies6`` (:func:`generic_davies6`), whose V is no permutation."""
    if name == "generic_davies6":
        return generic_davies6()
    if name == "ising_n6":
        n = 6
        ham = tl.build_ising_chain(n, 1.0, periodic=True)
        jumps = [(f"X{j}", tl.kron_embed_csr(tl.PAULI["X"], [j], n)) for j in range(n)]
        model = tl.build_model(ham, jumps, bath=BathSpec(beta=5.0, tau=1.0, lambda0=4.0),
                               davies=True)
        return (model, tl.maximally_mixed(n),
                tl.DescentConfig(epsilon=1e-2, norm_bound=ham.norm_bound, max_steps=100))
    if name == "generic_n3":
        ham, jumps, spec = oracle_system("generic_n3")
        zero = tl.projector(tl.basis_state("000"))
        return (tl.build_model(ham, jumps, bath=spec), zero,
                tl.DescentConfig(epsilon=2e-2, norm_bound=1.01))
    plus = tl.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    return qubit_model(), plus, tl.DescentConfig(epsilon=1e-2, norm_bound=1.0)


@pytest.mark.parametrize("case", ["generic_n3", "qubit_plus", "ising_n6", "generic_davies6"])
def test_vec_kernel_descent_matches_parent_evolve(case, oracle_system, parent_vec_path):
    _, _, parent_descent = parent_vec_path
    model, rho, cfg = _off_sector_case(case, oracle_system)
    assert zero_frequency_sector(model) is None or zero_frequency_sector(model).coords(rho) is None
    trace = _descend(model, rho, cfg)
    if case in ("ising_n6", "generic_davies6"):
        # d^2 x d^2 dense superoperators would take 1.6 GB: the oracle steps with evolve()
        assert zero_frequency_sector(model, rho) is None
        assert (model.sd.permutation is None) == (case == "generic_davies6")
        ref_steps, ref_rho = _reference_descent(model, rho, cfg)
        assert len(trace.steps) == len(ref_steps) == cfg.max_steps
    else:
        ref_steps, ref_rho = parent_descent(model, rho, cfg)
    assert len(ref_steps) > 10
    assert [st.jump for st in trace.steps] == [label for label, _, _ in ref_steps]
    for st, (_, e_before, e_after) in zip(trace.steps, ref_steps):
        assert abs(st.e_before - e_before) <= 1e-12
        assert abs(st.e_after - e_after) <= 1e-12
    assert np.max(np.abs(trace.terminal_state - ref_rho)) <= 1e-12


def test_vec_kernel_step_matches_parent_evolve(oracle_system, parent_vec_path, pair_sums):
    _, parent_evolve, _ = parent_vec_path
    superop = pair_sums[3]
    ham, jumps, spec = oracle_system("generic_n3")
    model = tl.build_model(ham, jumps, bath=spec)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    rho = psi @ psi.conj().T
    rho /= np.trace(rho).real
    for label in model.jump_labels:
        unit = tl.weight_vector(model, label=label)
        gen = superop(model, label)
        for s in (1e-4, 0.3, 2.5):
            got = tl.evolve(model, unit, rho, s)
            assert np.max(np.abs(got - parent_evolve(model, label, rho, s, gen))) <= 1e-12


@pytest.mark.parametrize("frame", ["diagonal", "rotated"])
@pytest.mark.parametrize("block, error", [
    pytest.param([[0.2, 0.4], [0.4, 0.8]], None, id="rank_one"),
    pytest.param([[0.5, 0.6], [0.6, 0.5]], tl.errors.PositivityDefect, id="below_floor"),
    pytest.param([[0.3 + 5e-8, 0.1j], [-0.1j, 0.7]], None, id="trace_defect_5e-8"),
    pytest.param([[0.5, 0.1], [0.0, 0.5]], tl.errors.EvolutionDefect, id="hermiticity_defect"),
    pytest.param([[0.6, 0.0], [0.0, 0.5]], tl.errors.EvolutionDefect, id="trace_defect_0.1"),
])
def test_eigenbasis_step_guards_through_evolve_and_descent(block, error, frame, parent_vec_path):
    """The one guarded eigenbasis step, through evolve() and through an
    off-sector descent step, over s = 1e-30, which leaves the state as it
    is: it keeps the pre-kernel post-step's result, or raises as that does.
    The qubit's eigenbasis is the identity (H = (1 - Z)/2) or a rotation
    (H = (1 - X)/2), where every guard reads the rotated state."""
    post_step = parent_vec_path[0]
    model = qubit_model() if frame == "diagonal" else qubit_model("X", "Z")
    assert (model.sd.permutation is None) == (frame == "rotated")
    rho = np.asarray(block, dtype=complex)
    space = descent._FullSpace(model)
    steps = (lambda: tl.evolve(model, [1.0], rho, 1e-30),
             lambda: space.density(space.evolve(model.sd.to_eig(rho).reshape(-1), 0, 1e-30)))
    if error is not None:
        with pytest.raises(error):
            post_step(rho)
        for step in steps:
            with pytest.raises(error):
                step()
        return
    want = post_step(rho)
    for step in steps:
        got = step()
        assert np.array_equal(got, got.conj().T)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert abs(np.trace(got) - 1.0) <= 1e-15


def _check_real_generators(model, sector, size):
    """Each real sector generator acts on coordinates as generator_apply
    does on the state, with the model's coherent setting."""
    assert sector.size == size
    rng = np.random.default_rng(2)
    for index, label in enumerate(model.jump_labels):
        gen, _, leak = sector.generators[index]
        assert gen.dtype == np.float64
        # leak is sqrt(d) ||G Q - Q R||_F, checked at build against 1e-12 ||G||_F
        assert leak <= np.sqrt(sector.dim) * 1e-12 * np.linalg.norm(gen) * (1.0 + 1e-9)
        unit = tl.weight_vector(model, label=label)
        for _ in range(3):
            x = rng.standard_normal(sector.size)
            rho = sector.density(x)
            assert np.max(np.abs(sector.coords(rho) - x)) <= 1e-12
            img = sector.coords(tl.generator_apply(model, unit, rho))
            assert img is not None
            assert np.linalg.norm(gen @ x - img) <= 1e-12 * np.linalg.norm(img)


@pytest.mark.parametrize("coherent", [False, True])
def test_real_sector_generators_match_their_complex_form(coherent):
    model = ising_model(include_coherent=coherent)
    sector = zero_frequency_sector(model)
    _check_real_generators(model, sector,
                           sum((sl.stop - sl.start) ** 2 for sl in model.sd.group_slices))


@pytest.mark.parametrize("case", ["generic_n3", "ising_coherent"])
def test_one_group_generators_match_their_complex_form(case, oracle_system):
    """One group of all d levels: a finite-tau model with the Lamb shift,
    and the coherent Davies Ising ring from a start outside its energy-group
    sector."""
    if case == "generic_n3":
        ham, jumps, spec = oracle_system("generic_n3")
        model = tl.build_model(ham, jumps, bath=spec)
        assert model.include_lamb_shift and zero_frequency_sector(model) is None
    else:
        model = ising_model(include_coherent=True)
    d = model.dim
    plus = np.full((d, d), 1.0 / d, dtype=complex)
    grouped = zero_frequency_sector(model)
    assert grouped is None or grouped.coords(plus) is None
    sector = zero_frequency_sector(model, plus)
    _check_real_generators(model, sector, d * d)


def test_anti_hermitian_start_descends_from_its_hermitian_part(oracle_system, parent_vec_path):
    """A start with an anti-Hermitian part of 1e-11 relative, which
    check_density_matrix accepts and which an energy-group sector's
    SECTOR_TOL would reject: the one-group sector descends from its
    Hermitian part with the vec(rho) oracle's records."""
    _, _, parent_descent = parent_vec_path
    model, rho, cfg = _off_sector_case("generic_n3", oracle_system)
    rho = rho.copy()
    rho[0, 1], rho[1, 0] = 1e-11, -1e-11
    tl.check_density_matrix(rho)
    assert np.linalg.norm(rho - rho.conj().T) > lindblad.SECTOR_TOL
    assert zero_frequency_sector(model, rho).size == model.dim**2
    trace = _descend(model, rho, cfg)
    ref_steps, ref_rho = parent_descent(model, rho, cfg)
    assert len(ref_steps) > 10
    assert [st.jump for st in trace.steps] == [label for label, _, _ in ref_steps]
    for st, (_, e_before, e_after) in zip(trace.steps, ref_steps):
        assert abs(st.e_before - e_before) <= 1e-12
        assert abs(st.e_after - e_after) <= 1e-12
    assert np.max(np.abs(trace.terminal_state - ref_rho)) <= 1e-12


def test_real_form_check_rejects_anti_hermitian_images():
    sector = zero_frequency_sector(ising_model())
    n = sector.size
    ident, _ = sector._real_generator(np.eye(n, dtype=complex))
    assert np.max(np.abs(ident - np.eye(n))) <= 1e-15
    assert sector._real_generator(1j * np.eye(n)) is None
    # t_ij -> t_ij, t_ji -> -t_ji on the first pair (complex coordinates d,
    # d + 1) takes Hermitian blocks to non-Hermitian ones; a small such part
    # passes below 1e-12 relative and fails above
    d = sector.dim
    assert n > d
    skew = np.zeros(n)
    skew[d], skew[d + 1] = 1.0, -1.0
    skew = np.diag(skew)
    assert sector._real_generator(np.eye(n) + 1e-14 * skew) is not None
    assert sector._real_generator(np.eye(n) + 1e-10 * skew) is None


def test_sector_leak_check_rejects_a_chained_bohr_cluster(monkeypatch):
    # the differences 1, 1 + t, ..., 1 + 4t (t = group_tol) chain into one
    # Bohr frequency, so the Davies block of |1><0| + |1 + 4t><0| maps
    # |0><0| onto a coherence between the groups at 1 and 1 + 4t
    t = 2.0**-10
    levels = [0.0, 1.0, 1.0 + 4 * t, 10.0, 11.0 + t, 20.0, 21.0 + 2 * t, 30.0, 31.0 + 3 * t]
    levels += [100.0 * k for k in range(1, 8)]
    ham = tl.assemble([(np.diag(levels), (0, 1, 2, 3))], 4)
    a = np.zeros((16, 16), dtype=complex)
    a[1, 0] = a[2, 0] = np.sqrt(0.5)
    # group_tol is the factor times max |level| = 700
    monkeypatch.setattr(hamiltonian, "DEFAULT_GROUP_TOL_FACTOR", t / 700.0)
    model = tl.build_model(ham, [("A", a), ("Adag", a.conj().T)],
                           bath=BathSpec(beta=1.0, tau=1.0), davies=True)
    sd = model.sd
    assert sd.group_tol == t
    assert len(sd.energies) == 16 and sd.bohr_map[1, 0] == sd.bohr_map[2, 0]
    assert zero_frequency_sector(model) is None


def test_sector_coords_reject_non_hermitian_states():
    sector = zero_frequency_sector(qubit_model())
    assert sector.coords(np.diag([0.3, 0.7])) is not None
    assert sector.coords(np.array([[0.3, 1e-9], [-1e-9, 0.7]])) is None


def _clock_jumps():
    cs = tl.load_circuit(str(REPO / "scripts" / "configs" / "circuit_x_t3.json"))
    return tl.clock_jump_preset(cs)


def _jump_sets():
    paulis = [(f"{p}{j}", tl.kron_embed(tl.PAULI[p], [j], 3)) for j in range(3) for p in "XYZ"]
    yield "pauli", paulis
    yield "clock", _clock_jumps()
    rng = np.random.default_rng(9)
    m = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    m = 0.9 * m / np.linalg.norm(m, 2)
    yield "non_normal", [("M", m), ("Mdag", m.conj().T)]


@pytest.mark.parametrize("name", ["pauli", "clock", "non_normal"])
def test_jump_set_norms_match_svd(name):
    jumps = lindblad._as_jump_list(dict(_jump_sets())[name])
    norms = lindblad._check_jump_set(jumps, jumps[0][1].shape[0])
    for (_, mat), (norm, aa) in zip(jumps, norms):
        assert abs(aa - np.linalg.norm(mat.conj().T @ mat, 2)) <= 1e-12
        assert abs(norm - np.linalg.norm(mat, 2)) <= 1e-12


def test_jump_set_threshold_unchanged():
    for scale, raises in ((1.0 + 4e-10, False), (1.0 + 2e-9, True)):
        jumps = [("X", np.sqrt(scale) * tl.PAULI["X"])]
        if raises:
            with pytest.raises(JumpNotNormalized):
                lindblad._check_jump_set(jumps, 2)
        else:
            lindblad._check_jump_set(jumps, 2)


def test_sector_hermiticity_bound_enters_the_defect_guard():
    model = ising_model()
    sector = zero_frequency_sector(model)
    x = sector.coords(tl.maximally_mixed(4))
    gen, bound, _ = sector.generators[0]
    sector.evolve(x, 0, 0.5)
    # a real form that had lost delta = 0.1 ||x||-relative would breach 1e-7
    sector.generators[0] = (gen, bound, 0.1)
    with pytest.raises(tl.errors.EvolutionDefect):
        sector.evolve(x, 0, 0.5)
