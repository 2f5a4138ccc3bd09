"""Run blocks of the omega = 0 sector descent against the one-step loop.

The oracle is ``sector_step_descent`` (tests/conftest.py): the sector loop
as it ran before blocks, one ``ZeroFrequencySector.evolve`` per step.
"""

import dataclasses

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import descent, lindblad
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import EvolutionDefect, MaxStepsExceeded

from test_descent import _descend, qubit_model


def clock_cool_model(reverse=False):
    """The T = 3 clock Hamiltonian of the one-qubit circuit I, X, I with its
    clock jumps, in reverse order if asked, and a beta = 30 Davies bath."""
    eye = np.eye(2, dtype=complex)
    cs = tl.make_circuit(1, 1, [(eye, [0]), (tl.PAULI["X"], [0]), (eye, [0])])
    clock = tl.build_clock_hamiltonian(cs, j_in=0.6, j_prop=0.3)
    jumps = tl.clock_jump_preset(cs)
    return tl.build_model(clock.local, jumps[::-1] if reverse else jumps,
                          bath=BathSpec(beta=30.0, tau=1.0), davies=True)


def ising_model(n, h):
    """The periodic Ising ring with X jumps on every site, beta = 5, lambda0 = 4."""
    ham = tl.build_ising_chain(n, h, periodic=True)
    jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], n)) for j in range(n)]
    return tl.build_model(ham, jumps, bath=BathSpec(beta=5.0, tau=1.0, lambda0=4.0),
                          davies=True)


def _case(name):
    """(model, start, config) of a named descent."""
    if name.startswith("clock_cool"):
        return (clock_cool_model(reverse=name.endswith("reversed")),
                np.eye(16, dtype=complex) / 16, tl.DescentConfig(epsilon=1.5e-2, norm_bound=2.43))
    if name == "ising4":
        model = ising_model(4, 1.5)
        return (model, tl.maximally_mixed(4),
                tl.DescentConfig(epsilon=1e-2, norm_bound=model.ham.norm_bound, max_steps=20000))
    if name == "ising5":
        model = ising_model(5, 1.0)
        return (model, tl.maximally_mixed(5),
                tl.DescentConfig(epsilon=0.1, norm_bound=model.ham.norm_bound, max_steps=20000))
    return (qubit_model(), tl.projector(tl.basis_state("1")),
            tl.DescentConfig(epsilon=1e-2, norm_bound=1.0))


def _count_sector_steps(monkeypatch):
    """Count the calls of ``ZeroFrequencySector.evolve`` from now on."""
    calls = []
    step = lindblad.ZeroFrequencySector.evolve

    def counted(self, x, index, s):
        calls.append(index)
        return step(self, x, index, s)

    monkeypatch.setattr(lindblad.ZeroFrequencySector, "evolve", counted)
    return calls


@pytest.mark.parametrize("name", ["clock_cool", "ising4", "ising5", "qubit", "clock_cool_reversed"])
def test_run_blocks_match_the_one_step_loop(name, sector_step_descent, monkeypatch):
    """Identical jumps and step indices, and every float within 1e-12.  With
    the clock's jumps reversed, runs end when a jump declared earlier starts
    to trigger, which the block's jump-choice rule must see."""
    model, rho, cfg = _case(name)
    want, want_rho = sector_step_descent(model, rho, cfg)
    calls = _count_sector_steps(monkeypatch)
    trace = _descend(model, rho, cfg)
    assert [(st.index, st.jump) for st in trace.steps] == [w[:2] for w in want]
    got = np.array([(st.g, st.s, st.e_before, st.e_after) for st in trace.steps])
    assert np.max(np.abs(got - np.array([w[2:] for w in want]))) <= 1e-12
    assert np.max(np.abs(trace.terminal_state - want_rho)) <= 1e-12
    if name == "clock_cool":
        assert len(want) == 46263 and trace.terminated_early
        assert len(calls) <= 200  # the blocks took all but about 5 x RUN_WARMUP steps


def _inflate(model, label, leak):
    sector = lindblad.zero_frequency_sector(model)
    index = model.jump_labels.index(label)
    gen, bound, _ = sector.generators[index]
    sector.generators[index] = (gen, bound, leak)


@pytest.mark.parametrize("after", [0, descent.RUN_WARMUP])
def test_hermiticity_guard_raises_at_the_oracle_step(after, sector_step_descent, monkeypatch):
    """A real form that had lost delta = 1e-3 / sqrt(d) breaches 1e-7 on the
    first step along the jump that it is given to: from the start (clockX2,
    whose run follows clockX1's blocks), or once clockX1's run has taken
    ``after`` steps one at a time, so that the first block's rule fails."""
    label = "clockX2" if after == 0 else "clockX1"
    runs = {}
    for kind in ("oracle", "capped", "blocks"):
        model, rho, cfg = _case("clock_cool")
        index = model.jump_labels.index(label)
        if after == 0:
            _inflate(model, label, 1e-3)
        step = lindblad.ZeroFrequencySector.evolve
        along = [0]  # steps along the jump taken one at a time

        def inflating(self, x, j, s, model=model, step=step, along=along):
            out = step(self, x, j, s)
            if j == index:
                along[0] += 1
                if along[0] == after:
                    _inflate(model, label, 1e-3)
            return out

        monkeypatch.setattr(lindblad.ZeroFrequencySector, "evolve", inflating)
        if kind == "oracle":
            records = []
            with pytest.raises(EvolutionDefect) as excinfo:
                sector_step_descent(model, rho, cfg, records)
            fail = len(records) + 1
            assert records[-1][1] == ("clockX1" if after == 0 else label)
            runs[kind] = str(excinfo.value)
        elif kind == "capped":  # every step before the failing one is taken
            with pytest.raises(MaxStepsExceeded) as capped:
                tl.thermal_gradient_descent(model, rho, dataclasses.replace(cfg,
                                                                            max_steps=fail - 1))
            assert capped.value.trace.steps[-1].index == fail - 1
        else:
            with pytest.raises(EvolutionDefect) as excinfo:
                tl.thermal_gradient_descent(model, rho, dataclasses.replace(cfg,
                                                                            max_steps=fail))
            runs[kind] = str(excinfo.value)
        monkeypatch.undo()
    assert runs["blocks"] == runs["oracle"]


def test_cap_inside_a_block_keeps_the_uncapped_records():
    model, rho, cfg = _case("clock_cool")
    full = tl.thermal_gradient_descent(model, rho, cfg).steps
    # blocks of the first run end at steps 64, 128, 256, 384, ...: 1000 falls inside one
    with pytest.raises(MaxStepsExceeded) as excinfo:
        tl.thermal_gradient_descent(model, rho, dataclasses.replace(cfg, max_steps=1000))
    assert excinfo.value.trace.steps == full[:1000]


def test_record_stride_thins_the_block_records():
    model, rho, cfg = _case("clock_cool")
    full = tl.thermal_gradient_descent(model, rho, cfg).steps
    last = full[-1].index
    stride = 100
    thin = tl.thermal_gradient_descent(model, rho, dataclasses.replace(cfg, record_stride=stride))
    assert thin.steps == [st for st in full
                          if st.index == 1 or st.index % stride == 0 or st.index == last]


def test_noise_takes_one_sector_step_per_step(monkeypatch):
    model, rho, cfg = _case("clock_cool")
    cfg = dataclasses.replace(cfg, noise=True, seed=3, max_steps=300)
    calls = _count_sector_steps(monkeypatch)
    trace = _descend(model, rho, cfg)
    assert len(calls) == trace.steps[-1].index == 300


def test_gershgorin_screen_sends_steps_to_the_exact_check(sector_step_descent, monkeypatch):
    """A rank-one block with unequal diagonals in a degenerate pair fails the
    Gershgorin screen, whose failures the one-step loop settles by the exact
    positivity check: the blocks must leave every such step to it, and,
    keeping no step, be tried again after twice as many steps each time."""
    model, _, cfg = _case("clock_cool")
    sd = model.sd
    pair = next(sl for sl in sd.group_slices if sl.stop - sl.start == 2)
    t = np.eye(model.dim, dtype=complex) / model.dim
    t[pair, pair] = 2.0 / model.dim * np.array([[0.2, 0.4], [0.4, 0.8]])
    v = sd.eigenvectors
    rho = v @ t @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    cfg = dataclasses.replace(cfg, max_steps=3000)
    checks = []
    floor = lindblad._check_floor

    def counted(blocks):
        checks.append(len(blocks))
        return floor(blocks)

    monkeypatch.setattr(lindblad, "_check_floor", counted)
    want, want_rho = sector_step_descent(model, rho, cfg)
    oracle_checks = len(checks)
    checks.clear()
    attempts = []
    run_block = descent._RunBlocks.run

    def counted_run(self, *args):
        attempts.append(args[1])
        return run_block(self, *args)

    monkeypatch.setattr(descent._RunBlocks, "run", counted_run)
    trace = _descend(model, rho, cfg)
    assert oracle_checks > 0 and len(checks) == oracle_checks
    # 1,429 steps along flip0, then 1,571 along clockX1: blocks after 32,
    # 64, 128, 256, 512 and 1,024 steps of each run
    assert len(attempts) == 12
    assert [(st.index, st.jump) for st in trace.steps] == [w[:2] for w in want]
    got = np.array([(st.g, st.s, st.e_before, st.e_after) for st in trace.steps])
    assert np.max(np.abs(got - np.array([w[2:] for w in want]))) <= 1e-12
    assert np.max(np.abs(trace.terminal_state - want_rho)) <= 1e-12
