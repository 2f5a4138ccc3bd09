import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import cli
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import MaxStepsExceeded, TriggerNotMet
from thermal_landscape.lindblad import zero_frequency_sector

REPO = Path(__file__).resolve().parents[1]


def qubit_model(beta=10.0):
    ham = tl.assemble([(0.5 * (np.eye(2) - tl.PAULI["Z"]), (0,))], 1)
    return tl.build_model(
        ham, [("X0", tl.PAULI["X"].copy())],
        bath=BathSpec(beta=beta, tau=1.0), davies=True,
    )


def ising_model(h, beta=6.0):
    n = 4
    ham = tl.build_ising_chain(n, h, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    return tl.build_model(
        ham, jumps, bath=BathSpec(beta=beta, tau=1.0, lambda0=4.0), davies=True,
    )


def test_config_defaults_match_constants():
    cfg = tl.DescentConfig(epsilon=0.01, norm_bound=2.0)
    assert cfg.max_steps == int(np.ceil(42.0 * 8.0 / 1e-4))
    assert cfg.grad_tol == pytest.approx(0.0099 * 0.01)
    assert cfg.trigger == pytest.approx(-0.99 * 0.01)


def test_replace_derives_the_trigger_from_the_new_epsilon():
    """The trigger and noise scale follow epsilon through ``replace``; the
    resolved step budget is kept."""
    cfg = dataclasses.replace(tl.DescentConfig(epsilon=1e-2, norm_bound=1.0), epsilon=1e-3)
    assert cfg.trigger == -0.99 * 1e-3 and cfg.grad_tol == 0.0099 * 1e-3
    assert cfg.max_steps == 420_000
    assert tl.DescentConfig(epsilon=1e-3, norm_bound=1.0).max_steps == 42_000_000
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "epsilon", "norm_bound", "max_steps", "noise", "seed", "record_stride"]


def test_qubit_descent_reaches_ground():
    model = qubit_model()
    cfg = tl.DescentConfig(epsilon=1e-3, norm_bound=1.0)
    trace = tl.thermal_gradient_descent(
        model, tl.projector(tl.basis_state("1")), cfg
    )
    assert trace.terminated_early
    assert trace.terminal_certificate.kind == "local_min_sufficient"
    assert trace.terminal_state[0, 0].real >= 0.99
    energies = [trace.steps[0].e_before] + [st.e_after for st in trace.steps]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    # per-step drop bound from the cooling lemma (epsilon-tilde = 0.99 eps)
    bound = 0.99**2 * cfg.epsilon**2 / (20.0 * cfg.norm_bound**2) - 1e-9
    drops = [st.e_before - st.e_after for st in trace.steps]
    assert min(drops) >= bound
    assert len(trace.steps) <= cfg.max_steps


def test_qubit_descent_follows_rate_equation_oracle():
    model = qubit_model()
    spec = BathSpec(beta=10.0, tau=1.0)
    gm, gp = tl.gamma(-1.0, spec), tl.gamma(1.0, spec)
    pbar = gp / (gm + gp)
    cfg = tl.DescentConfig(epsilon=5e-2, norm_bound=1.0)
    trace = tl.thermal_gradient_descent(
        model, tl.projector(tl.basis_state("1")), cfg
    )
    p1 = 1.0
    for st in trace.steps:
        p1 = pbar + (p1 - pbar) * np.exp(-(gm + gp) * st.s)
        assert st.e_after == pytest.approx(p1, abs=1e-7)


def test_descent_ground_start_zero_steps():
    model = qubit_model()
    cfg = tl.DescentConfig(epsilon=1e-3, norm_bound=1.0)
    trace = tl.thermal_gradient_descent(
        model, tl.projector(tl.basis_state("0")), cfg
    )
    assert trace.steps == []
    assert trace.terminated_early
    assert trace.terminal_certificate.kind == "local_min_sufficient"


def test_ising_metastable_all_ones():
    model = ising_model(h=1.5)
    rho = tl.projector(tl.basis_state("1111"))
    cfg = tl.DescentConfig(epsilon=1e-4, norm_bound=model.ham.norm_bound)
    trace = tl.thermal_gradient_descent(model, rho, cfg)
    assert trace.steps == []
    assert trace.terminal_certificate.kind == "local_min_sufficient"
    assert trace.terminal_state[-1, -1].real >= 0.95


def test_ising_descent_from_domain_walls():
    model = ising_model(h=1.5)
    rho = tl.projector(tl.basis_state("0110"))
    cfg = tl.DescentConfig(epsilon=8e-2, norm_bound=model.ham.norm_bound)
    trace = tl.thermal_gradient_descent(model, rho, cfg)
    assert trace.terminated_early
    assert len(trace.steps) > 0
    energies = [trace.steps[0].e_before] + [st.e_after for st in trace.steps]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert trace.terminal_certificate.kind == "local_min_sufficient"
    assert model.energy(trace.terminal_state) < model.energy(rho)


def test_cool_step_trigger_boundary():
    model = qubit_model()
    cfg = tl.DescentConfig(epsilon=1e-3, norm_bound=1.0)
    rho = tl.projector(tl.basis_state("1"))
    with pytest.raises(TriggerNotMet):
        tl.cool_step(model, rho, "X0", cfg.trigger, cfg)
    out = tl.cool_step(model, rho, "X0", -0.1, cfg)
    assert model.energy(out) < model.energy(rho)


def test_cool_step_monotone_sequence():
    model = qubit_model()
    cfg = tl.DescentConfig(epsilon=1e-3, norm_bound=1.0)
    rho = tl.projector(tl.basis_state("1"))
    energies = [model.energy(rho)]
    for _ in range(20):
        g = tl.gradient_vector(model, rho).g[0]
        rho = tl.cool_step(model, rho, "X0", g, cfg)
        energies.append(model.energy(rho))
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_max_steps_exceeded_carries_partial_trace():
    model = qubit_model()
    cfg = tl.DescentConfig(epsilon=1e-3, norm_bound=1.0, max_steps=3)
    with pytest.raises(MaxStepsExceeded) as excinfo:
        tl.thermal_gradient_descent(
            model, tl.projector(tl.basis_state("1")), cfg
        )
    partial = excinfo.value.trace
    assert len(partial.steps) == 3
    assert not partial.terminated_early
    assert partial.terminal_certificate is None


def test_descent_determinism():
    model = ising_model(h=1.5)
    rho = tl.projector(tl.basis_state("0110"))
    cfg = tl.DescentConfig(epsilon=5e-2, norm_bound=model.ham.norm_bound)
    t1 = tl.thermal_gradient_descent(model, rho, cfg)
    t2 = tl.thermal_gradient_descent(model, rho, cfg)
    assert [dataclasses.astuple(a) for a in t1.steps] == [
        dataclasses.astuple(b) for b in t2.steps
    ]
    assert np.array_equal(t1.terminal_state, t2.terminal_state)


def test_descent_noise_mode_reproducible():
    model = qubit_model()
    cfg = tl.DescentConfig(epsilon=5e-2, norm_bound=1.0, noise=True, seed=11)
    rho = tl.projector(tl.basis_state("1"))
    t1 = tl.thermal_gradient_descent(model, rho, cfg)
    t2 = tl.thermal_gradient_descent(model, rho, cfg)
    assert [st.g for st in t1.steps] == [st.g for st in t2.steps]
    other = tl.thermal_gradient_descent(
        model, rho, dataclasses.replace(cfg, seed=12)
    )
    assert [st.g for st in t1.steps] != [st.g for st in other.steps]


def test_record_stride_keeps_first_strided_and_final_steps():
    model = qubit_model()
    rho = tl.projector(tl.basis_state("1"))
    cfg = tl.DescentConfig(epsilon=1e-2, norm_bound=1.0)
    full = tl.thermal_gradient_descent(model, rho, cfg).steps
    last = full[-1].index
    assert [st.index for st in full] == list(range(1, last + 1))
    stride = 3 if last % 3 else 4
    thin = tl.thermal_gradient_descent(
        model, rho, dataclasses.replace(cfg, record_stride=stride)
    )
    assert thin.steps == [
        st for st in full
        if st.index == 1 or st.index % stride == 0 or st.index == last
    ]
    assert thin.steps[-1].index == last
    # the partial trace of an exhausted budget ends at the last step taken too
    capped = dataclasses.replace(cfg, record_stride=stride, max_steps=stride + 1)
    with pytest.raises(MaxStepsExceeded) as excinfo:
        tl.thermal_gradient_descent(model, rho, capped)
    assert [st.index for st in excinfo.value.trace.steps] == [1, stride, stride + 1]
    assert excinfo.value.trace.steps == full[:1] + full[stride - 1:stride + 1]


def _reference_descent(model, rho, cfg):
    """Descent on vec(rho): gradients one at a time, evolve() on the full state."""
    steps = []
    for _ in range(cfg.max_steps):
        chosen = None
        for label in model.jump_labels:
            g = float(tl.gradient_vector(model, rho, labels=[label]).g[0])
            if g < cfg.trigger:
                chosen = (label, g)
                break
        if chosen is None:
            break
        label, g = chosen
        e_before = model.energy(rho)
        s = abs(g) / (9.0 * cfg.norm_bound**2)
        rho = tl.evolve(model, tl.weight_vector(model, label=label), rho, s)
        steps.append((label, e_before, model.energy(rho)))
    return steps, rho


def _descend(model, rho, cfg):
    try:
        return tl.thermal_gradient_descent(model, rho, cfg)
    except MaxStepsExceeded as exc:
        return exc.trace


def clock_cooling_model():
    cfg = json.loads((REPO / "scripts/configs/clock_cooling_t3.json").read_text())
    cfg["hamiltonian"]["circuit_file"] = str(
        REPO / cfg["hamiltonian"]["circuit_file"]
    )
    ham, clock, _ = cli._resolve_hamiltonian(cfg)
    _, model_kwargs = cli._build_model(cfg, ham)
    jumps, _ = cli._resolve_jumps(cfg, ham, clock)
    return tl.build_model(ham, jumps, **model_kwargs), cfg["descent"]


def oracle_cases():
    qubit = qubit_model()
    yield qubit, tl.projector(tl.basis_state("1")), 1e-2, 1.0, None
    ising = ising_model(h=1.5)
    for bits, eps in (("0110", 8e-2), ("1111", 1e-4)):
        state = tl.projector(tl.basis_state(bits))
        yield ising, state, eps, ising.ham.norm_bound, 1500
    clock, descent = clock_cooling_model()
    state = tl.maximally_mixed(int(np.log2(clock.dim)))
    yield clock, state, descent["epsilon"], descent["B"], 3000


@pytest.mark.parametrize("case", range(4))
def test_sector_descent_matches_full_state_reference(case):
    model, rho, eps, bound, max_steps = list(oracle_cases())[case]
    assert zero_frequency_sector(model).coords(rho) is not None
    cfg = tl.DescentConfig(epsilon=eps, norm_bound=bound, max_steps=max_steps)
    trace = _descend(model, rho, cfg)
    ref_steps, ref_rho = _reference_descent(model, rho, cfg)
    assert [st.jump for st in trace.steps] == [label for label, _, _ in ref_steps]
    for st, (_, e_before, e_after) in zip(trace.steps, ref_steps):
        assert abs(st.e_before - e_before) <= 1e-10
        assert abs(st.e_after - e_after) <= 1e-10
    assert np.max(np.abs(trace.terminal_state - ref_rho)) <= 1e-10


def test_clock_sector_is_smaller_than_vec_rho():
    model, _ = clock_cooling_model()
    assert zero_frequency_sector(model).size == 20 < model.dim**2


def test_state_outside_sector_takes_one_group_sector():
    model = qubit_model()
    plus = tl.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert zero_frequency_sector(model).coords(plus) is None
    assert zero_frequency_sector(model, plus).size == model.dim**2  # one group of both levels
    cfg = tl.DescentConfig(epsilon=1e-2, norm_bound=1.0)
    trace = tl.thermal_gradient_descent(model, plus, cfg)
    ref_steps, ref_rho = _reference_descent(model, plus, cfg)
    assert [st.jump for st in trace.steps] == [label for label, _, _ in ref_steps]
    for st, (_, _, e_after) in zip(trace.steps, ref_steps):
        assert abs(st.e_after - e_after) <= 1e-10
    assert np.max(np.abs(trace.terminal_state - ref_rho)) <= 1e-10
    # the coherence survives descent, which a sector state cannot carry
    assert abs(trace.terminal_state[0, 1]) > 1e-3


def test_sector_needs_a_davies_model():
    ham = tl.assemble([(0.5 * (np.eye(2) - tl.PAULI["Z"]), (0,))], 1)
    model = tl.build_model(
        ham, [("X0", tl.PAULI["X"].copy())], bath=BathSpec(beta=2.0, tau=5.0),
        include_lamb_shift=False,
    )
    assert zero_frequency_sector(model) is None


def test_sector_evolve_matches_evolve_with_coherent_part():
    n = 4
    ham = tl.build_ising_chain(n, 1.5, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    model = tl.build_model(
        ham, jumps, bath=BathSpec(beta=6.0, tau=1.0, lambda0=4.0), davies=True,
        include_coherent=True,
    )
    sector = zero_frequency_sector(model)
    rho = tl.maximally_mixed(n)
    for index, label in enumerate(model.jump_labels):
        out = tl.evolve(model, tl.weight_vector(model, label=label), rho, 0.7)
        x = sector.evolve(sector.coords(rho), index, 0.7)
        assert np.max(np.abs(sector.density(x) - out)) <= 1e-12


def test_sector_evolve_keeps_the_guards():
    model, _ = clock_cooling_model()
    sector = zero_frequency_sector(model)
    sd = model.sd
    pair = next(sl for sl in sd.group_slices if sl.stop - sl.start == 2)
    v = sd.eigenvectors[:, pair]

    def state(block):
        return v @ np.asarray(block, dtype=complex) @ v.conj().T

    # a rank-one block fails the Gershgorin test but passes the exact check
    x = sector.evolve(sector.coords(state([[0.2, 0.4], [0.4, 0.8]])), 0, 1e-6)
    assert np.linalg.eigvalsh(sector.density(x))[0] > -1e-9
    with pytest.raises(tl.errors.PositivityDefect):
        sector.evolve(sector.coords(state([[0.5, 0.6], [0.6, 0.5]])), 0, 1e-6)
    with pytest.raises(tl.errors.EvolutionDefect):
        sector.evolve(sector.coords(state([[0.6, 0.0], [0.0, 0.5]])), 0, 1e-6)


# each case keeps a fixed id, so that its name survives cases added or removed
@pytest.mark.parametrize("fields, name", [
    pytest.param({"epsilon": float("nan")}, "epsilon", id="fields0-epsilon"),
    pytest.param({"norm_bound": float("nan")}, "norm_bound", id="fields1-norm_bound"),
    pytest.param({"norm_bound": float("inf")}, "norm_bound", id="fields2-norm_bound"),
    # the budget 42 B^3 / eps^2 overflows
    pytest.param({"norm_bound": 1e200}, "max_steps", id="fields5-max_steps"),
    pytest.param({"epsilon": 1e-200}, "max_steps", id="fields6-max_steps"),
    pytest.param({"max_steps": True}, "max_steps", id="fields7-max_steps"),
    pytest.param({"max_steps": 10.0}, "max_steps", id="fields8-max_steps"),
    pytest.param({"record_stride": 2.5}, "record_stride", id="fields9-record_stride"),
    pytest.param({"record_stride": False}, "record_stride", id="fields10-record_stride"),
    pytest.param({"record_stride": None}, "record_stride", id="fields11-record_stride"),
    pytest.param({"epsilon": 0.0}, "epsilon must be positive", id="fields12-epsilon"),
    pytest.param({"norm_bound": -1.0}, "norm_bound must be positive", id="fields13-norm_bound"),
    pytest.param({"record_stride": 0}, "record_stride must be at least 1",
                 id="fields14-record_stride"),
    pytest.param({"max_steps": 0}, "max_steps must be at least 1", id="fields15-max_steps"),
])
def test_config_rejects_non_finite_and_non_int_fields(fields, name):
    with pytest.raises(ValueError, match=name):
        tl.DescentConfig(**{"epsilon": 0.01, "norm_bound": 2.0, **fields})


def test_config_keeps_numpy_ints_and_a_finite_budget():
    cfg = tl.DescentConfig(epsilon=0.01, norm_bound=2.0, max_steps=np.int64(5),
                           record_stride=np.int32(2))
    assert cfg.max_steps == 5 and cfg.record_stride == 2
    big = tl.DescentConfig(epsilon=1e-200, norm_bound=1e200, max_steps=7)
    assert big.max_steps == 7
