"""Run blocks of the omega = 0 sector descent against the one-step loop.

The oracle is ``sector_step_descent`` (tests/conftest.py): the sector loop
as it ran before blocks, one ``ZeroFrequencySector.evolve`` per step.
"""

import dataclasses
import re

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import descent, lindblad
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import EvolutionDefect, MaxStepsExceeded, PositivityDefect

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


def _rank_one_pair_start(model):
    """The maximally mixed state with a rank-one block of unequal diagonals
    in a degenerate pair of levels, which fails the Gershgorin screen."""
    sd = model.sd
    pair = next(sl for sl in sd.group_slices if sl.stop - sl.start == 2)
    t = np.eye(model.dim, dtype=complex) / model.dim
    t[pair, pair] = 2.0 / model.dim * np.array([[0.2, 0.4], [0.4, 0.8]])
    v = sd.eigenvectors
    rho = v @ t @ v.conj().T
    return 0.5 * (rho + rho.conj().T), pair


def test_gershgorin_screen_sends_steps_to_the_exact_check(sector_step_descent, monkeypatch):
    """A rank-one block with unequal diagonals in a degenerate pair fails the
    Gershgorin screen, whose failures the one-step loop settles by the exact
    positivity check, one state at a time.  The blocks settle them for all
    of a block's states at once and keep the steps whose floor holds: every
    step but the two runs' warm-ups is taken in blocks."""
    model, _, cfg = _case("clock_cool")
    rho, _ = _rank_one_pair_start(model)
    cfg = dataclasses.replace(cfg, max_steps=3000)
    checks = []
    floor = lindblad._check_floor

    def counted(blocks):
        checks.append(len(blocks))
        return floor(blocks)

    monkeypatch.setattr(lindblad, "_check_floor", counted)
    want, want_rho = sector_step_descent(model, rho, cfg)
    assert len(want) == 3000 and len(checks) >= len(want)  # every oracle step checked exactly
    checked = []
    below_floor = lindblad.ZeroFrequencySector.below_floor

    def counted_below(self, xs):
        checked.append(len(xs))
        return below_floor(self, xs)

    monkeypatch.setattr(lindblad.ZeroFrequencySector, "below_floor", counted_below)
    calls = _count_sector_steps(monkeypatch)
    trace = _descend(model, rho, cfg)
    # 1,429 steps along flip0, then 1,571 along clockX1, each run after its warm-up
    # in blocks, whose every kept state failed the screen and passed the exact check
    assert len(calls) == 2 * descent.RUN_WARMUP
    assert sum(checked) >= len(want) - len(calls)
    assert [(st.index, st.jump) for st in trace.steps] == [w[:2] for w in want]
    got = np.array([(st.g, st.s, st.e_before, st.e_after) for st in trace.steps])
    assert np.max(np.abs(got - np.array([w[2:] for w in want]))) <= 1e-12
    assert np.max(np.abs(trace.terminal_state - want_rho)) <= 1e-12


def test_positivity_guard_raises_at_the_oracle_step(sector_step_descent, monkeypatch):
    """flip0's generator plus c x_D Tr(.), with D = P_+ - P_0 traceless in the
    pair of :func:`_rank_one_pair_start` and P_0 the projector on its null
    vector, drives that block's zero eigenvalue below -1e-6 at step 352,
    inside the run's fourth block (steps 257-384).  The block keeps the steps
    before it, and the step raises as it does in the one-step loop."""
    runs = {}
    for kind in ("oracle", "capped", "blocks"):
        model, _, cfg = _case("clock_cool")
        rho, pair = _rank_one_pair_start(model)
        sector = lindblad.zero_frequency_sector(model)
        v = model.sd.eigenvectors
        null = np.array([2.0, -1.0]) / np.sqrt(5.0)
        t = np.zeros((model.dim, model.dim), dtype=complex)
        t[pair, pair] = np.eye(2) - 2.0 * np.outer(null, null)
        x_d = sector.coords(v @ t @ v.conj().T)
        gen, bound, leak = sector.generators[0]
        trace_row = sector._post[0, :sector.size]
        sector.generators[0] = (gen + 1e-5 * np.outer(x_d, trace_row), bound, leak)
        cfg = dataclasses.replace(cfg, max_steps=3000)
        if kind == "oracle":
            records = []
            with pytest.raises(PositivityDefect) as excinfo:
                sector_step_descent(model, rho, cfg, records)
            fail = len(records) + 1
            assert fail == 352 and {r[1] for r in records} == {"flip0"}
            runs[kind] = str(excinfo.value)
            continue
        calls = _count_sector_steps(monkeypatch)
        if kind == "capped":  # every step before the failing one is taken
            with pytest.raises(MaxStepsExceeded) as capped:
                tl.thermal_gradient_descent(model, rho, dataclasses.replace(cfg,
                                                                            max_steps=fail - 1))
            assert capped.value.trace.steps[-1].index == fail - 1
            assert len(calls) == descent.RUN_WARMUP
        else:
            with pytest.raises(PositivityDefect) as excinfo:
                tl.thermal_gradient_descent(model, rho, cfg)
            assert len(calls) == descent.RUN_WARMUP + 1  # the failing step, one at a time
            runs[kind] = str(excinfo.value)
        monkeypatch.undo()
    assert runs["blocks"] == runs["oracle"]


def test_finite_tau_lamb_runs_in_blocks(oracle_system, sector_step_descent, monkeypatch):
    """The benchmark's finite-tau problem (generic 3-qubit chain, X and Z
    jumps, beta = 2, tau = 25, Lamb shift) from |000>: a near-pure state,
    which fails the Gershgorin screen at every step, descends at least 80%
    of its steps in blocks, with the oracle's jumps and records."""
    ham, jumps, spec = oracle_system("generic_n3")
    model = tl.build_model(ham, jumps, bath=spec)
    rho = tl.projector(tl.basis_state("000"))
    cfg = tl.DescentConfig(epsilon=5e-3, norm_bound=1.01)
    want, want_rho = sector_step_descent(model, rho, cfg)
    calls = _count_sector_steps(monkeypatch)
    trace = tl.thermal_gradient_descent(model, rho, cfg)
    assert len(want) == 24973 and trace.terminated_early
    assert len(calls) <= 0.2 * len(want)
    assert [(st.index, st.jump) for st in trace.steps] == [w[:2] for w in want]
    got = np.array([(st.g, st.s, st.e_before, st.e_after) for st in trace.steps])
    assert np.max(np.abs(got - np.array([w[2:] for w in want]))) <= 1e-12
    assert np.max(np.abs(trace.terminal_state - want_rho)) <= 1e-12


def test_tighter_aliasing_tolerance_trims_blocks(sector_step_descent, monkeypatch):
    """With ``ALIAS_TOL`` at the aliasing bound of S r = 0.01, below the
    reach of most clock_cool blocks, each block keeps only the steps up to
    that reach; the rest are taken later, to the oracle's records."""
    model, rho, cfg = _case("clock_cool")
    cfg = dataclasses.replace(cfg, max_steps=3000)
    want, want_rho = sector_step_descent(model, rho, cfg)
    monkeypatch.setattr(descent, "ALIAS_TOL", descent._alias_bound(0.01))
    reach = []
    run_block = descent._RunBlocks.run

    def measured(self, x, a, *args):
        block = run_block(self, x, a, *args)
        r = self._jump(a)[1]
        reach.append((np.sum(block.s) * r, np.sum(block.s[:block.count]) * r))
        return block

    monkeypatch.setattr(descent._RunBlocks, "run", measured)
    trace = _descend(model, rho, cfg)
    assert max(kept for _, kept in reach) <= 0.01
    assert sum(full > 0.01 and kept > 0.0 for full, kept in reach) >= 5  # trimmed blocks
    assert [(st.index, st.jump) for st in trace.steps] == [w[:2] for w in want]
    got = np.array([(st.g, st.s, st.e_before, st.e_after) for st in trace.steps])
    assert np.max(np.abs(got - np.array([w[2:] for w in want]))) <= 1e-12
    assert np.max(np.abs(trace.terminal_state - want_rho)) <= 1e-12


class _CountedGenerator:
    """A sector generator that counts its products: the Taylor degree of a
    one-substep :func:`lindblad._taylor_substeps`."""

    def __init__(self, gen):
        self.gen, self.products = gen, 0

    def dot(self, x):
        self.products += 1
        return self.gen.dot(x)


def test_block_degrees_match_the_one_step_rule():
    """The Taylor degrees that a block reads for steps of sizes 1e-6 to
    0.9 / bound, searched above ``top`` = 1 one k at a time, are those that
    one :func:`lindblad._taylor_substeps` substep takes."""
    model, rho, cfg = _case("clock_cool")
    sector, x, _, blocks = descent._state_space(model, rho, cfg)
    for a, (gen, bound, _) in enumerate(sector.generators):
        scaled, r, _ = blocks._jump(a)
        s = np.geomspace(1e-6, 0.9 / bound, 12)
        coef = np.tile(np.eye(1, descent.CONTOUR_POINTS), (len(s), 1))  # x itself
        got = blocks._degrees(coef, s, descent._Krylov(scaled, r, x), bound, 1)
        want = []
        for step in s:
            counted = _CountedGenerator(gen)
            lindblad._taylor_substeps(counted.dot, x, step, 1, bound, model.dim)
            want.append(counted.products)
        assert got.tolist() == want and max(want) >= 5


def test_guessed_sizes_continue_lines_and_cubics():
    """Fewer than 6 earlier sizes: the line through s0 and the last one,
    clipped at 0.  Otherwise the cubic through s0 and three of them, which
    continues a cubic exactly."""
    line = 1e-3 - 1e-5 * np.arange(-5, 120)  # sizes at steps -5..-1, then s0 at 0
    got = descent._guess_sizes(line[5], line[:5].tolist(), 120)
    assert np.allclose(got, np.maximum(line[5:], 0.0), rtol=0, atol=1e-15)
    assert got[-1] == 0.0 and got[0] == line[5]
    v = np.arange(-12, 64, dtype=float)
    cubic = 1e-3 + 2e-5 * v - 3e-7 * v**2 + 1e-9 * v**3
    got = descent._guess_sizes(cubic[12], cubic[:12].tolist(), 64)
    assert np.allclose(got, cubic[12:], rtol=1e-12, atol=0)


def test_each_run_logs_its_steps_at_debug_level(caplog):
    """The DEBUG line of each run, which scripts/descent_runs.py parses: its
    block steps plus its one-at-a-time steps are its steps, and the runs'
    steps add up to the last step of a capped clock_cool descent."""
    model, rho, cfg = _case("clock_cool")
    cfg = dataclasses.replace(cfg, max_steps=3000)
    with caplog.at_level("DEBUG", logger="thermal_landscape.descent"):
        with pytest.raises(MaxStepsExceeded) as exc:
            tl.thermal_gradient_descent(model, rho, cfg)
    pattern = re.compile(r"run along (\S+): (\d+) steps, (\d+) in (\d+) blocks "
                         r"\((\d+) Picard sweeps\), (\d+) one at a time")
    runs = [pattern.fullmatch(r.getMessage()) for r in caplog.records
            if r.name == "thermal_landscape.descent" and r.getMessage().startswith("run along")]
    assert len(runs) >= 2 and all(runs)
    counts = [[int(v) for v in run.groups()[1:]] for run in runs]
    assert all(block + single == steps for steps, block, _, _, single in counts)
    assert sum(blocks for _, _, blocks, _, _ in counts) > 0
    assert sum(steps for steps, *_ in counts) == exc.value.trace.steps[-1].index == 3000
