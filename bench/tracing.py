"""Spans around the package's layers, recorded from outside the package.

:meth:`Tracer.installed` replaces each name in ``PATCHES`` where its caller
looks it up (a module global or a class attribute) with a wrapper that
records a span (name, start, end, parent) and restores every name on exit.
:func:`layer_metrics` turns the spans of one round into the per-layer
metrics.  A layer's self time is its duration minus its children's.
"""

import contextlib
import statistics
from array import array
from collections import defaultdict
from time import perf_counter_ns

from thermal_landscape import circuit_hamiltonian as circ
from thermal_landscape import cli, descent, gradient, hamiltonian, lindblad


def _count_spectrum(tracer, args, result):
    tracer.counts["hamiltonian.energy_groups"] = len(result.energies)
    tracer.counts["hamiltonian.bohr_freqs"] = len(result.bohr_freqs)


def _count_blocks(tracer, args, result):
    tracer.counts["hamiltonian.bohr_blocks"] += len(result.mats)


def _count_kernel(tracer, args, result):
    k_size = 0 if result.K is None else result.K.size
    tracer.counts["bath.kernel_entries"] += result.C.size + k_size


def _count_pairs(tracer, args, result):
    # the dissipator is built once per jump and cached; count each jump once
    key = (id(args[0]), args[1])
    if key not in tracer.seen:
        tracer.seen.add(key)
        tracer.counts["lindblad.dissipator_pairs"] += len(result.coeffs)


def _count_sector(tracer, args, result):
    if result is not None:
        tracer.counts["lindblad.sector.size"] = result.size


def _count_steps(tracer, args, result):
    tracer.counts["descent.steps"] += result.steps[-1].index if result.steps else 0


def _evolve_jump(args):
    """The jump an ``evolve(model, w, rho, s)`` call moves along."""
    w = args[1]
    return max(range(len(w)), key=lambda i: w[i])


# (owner, attribute, span name, count hook, tag) -- the owner is where the
# caller looks the name up, so a function imported by name into another
# module is patched there
PATCHES = [
    (circ, "build_clock_hamiltonian", "circuit_hamiltonian.build_clock_hamiltonian",
     None, None),
    (circ, "clock_jump_preset", "circuit_hamiltonian.clock_jump_preset", None, None),
    (hamiltonian, "assemble", "hamiltonian.assemble", None, None),
    (hamiltonian, "build_ising_chain", "hamiltonian.build_ising_chain", None, None),
    (lindblad, "build_model", "lindblad.build_model", None, None),
    (lindblad, "spectral_data", "hamiltonian.spectral_data", _count_spectrum, None),
    (lindblad, "bohr_decompose", "hamiltonian.bohr_decompose", _count_blocks, None),
    (lindblad, "BathCorrelation", "bath.BathCorrelation", None, None),
    (lindblad, "build_kernel_table", "bath.build_kernel_table", _count_kernel, None),
    (lindblad.LindbladModel, "_dissipator", "lindblad.dissipator", _count_pairs, None),
    (descent, "thermal_gradient_descent", "descent.thermal_gradient_descent",
     _count_steps, None),
    (descent, "zero_frequency_sector", "lindblad.zero_frequency_sector", _count_sector, None),
    (lindblad.ZeroFrequencySector, "evolve", "lindblad.sector_evolve", None, None),
    (descent, "evolve", "lindblad.evolve", None, _evolve_jump),
    (descent, "certify_local_min", "gradient.certify_local_min", None, None),
    (gradient, "certify_local_min", "gradient.certify_local_min", None, None),
    (descent, "gradient_operator", "gradient.gradient_operator", None, None),
    (gradient, "gradient_operator", "gradient.gradient_operator", None, None),
    (cli, "emit_trace", "cli.emit_trace", None, None),
]


class Tracer:
    """Spans of one round, kept in flat arrays until the round ends."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = []
        self.counts = defaultdict(int)
        self.seen = set()

    def _wrap(self, name, fn, hook, tag):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)

        def wrapped(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.tag.append(tag(args) if tag else -1)
            self.end.append(0)
            self._open.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self._open.pop()
            if hook:
                hook(self, args, result)
            return result

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook, tag in PATCHES:
                if hasattr(owner, attr):  # a layer the package no longer has is skipped
                    fn = getattr(owner, attr)
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn, hook, tag))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def layer_metrics(tracer, t0_ns, t1_ns):
    """Per-layer metrics of a traced round that ran from ``t0_ns`` to ``t1_ns``."""
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0] * len(dur)
    spans = defaultdict(list)  # span name -> indices
    for i, (nid, p) in enumerate(zip(tracer.name_id, tracer.parent)):
        spans[tracer.names[nid]].append(i)
        if p >= 0:
            child[p] += dur[i]

    def total_s(name):
        return sum(dur[i] for i in spans[name]) * 1e-9

    def self_s(name):
        return sum(dur[i] - child[i] for i in spans[name]) * 1e-9

    def median_us(indices):
        return statistics.median(dur[i] for i in indices) * 1e-3 if indices else 0.0

    evolve = spans["lindblad.evolve"]
    first, later, seen = [], [], set()
    for i in evolve:
        (later if tracer.tag[i] in seen else first).append(i)
        seen.add(tracer.tag[i])
    sector = spans["lindblad.sector_evolve"]
    certify = spans["gradient.certify_local_min"]
    steps = tracer.counts["descent.steps"]
    covered = sum(dur[i] for i, p in enumerate(tracer.parent) if p < 0)
    wall = t1_ns - t0_ns

    m = {
        "hamiltonian.spectral_data.s": (total_s("hamiltonian.spectral_data"), "s"),
        "hamiltonian.bohr_decompose.s": (total_s("hamiltonian.bohr_decompose"), "s"),
        "circuit_hamiltonian.build_clock_hamiltonian.s":
            (total_s("circuit_hamiltonian.build_clock_hamiltonian"), "s"),
        "bath.BathCorrelation.s": (total_s("bath.BathCorrelation"), "s"),
        "bath.build_kernel_table.s": (total_s("bath.build_kernel_table"), "s"),
        "lindblad.build_model.self_s": (self_s("lindblad.build_model"), "s"),
        "lindblad.evolve.first_s": (sum(dur[i] for i in first) * 1e-9, "s"),
        "lindblad.evolve.us": (median_us(later), "us"),
        "lindblad.evolve.calls": (len(evolve), "count"),
        "lindblad.zero_frequency_sector.s": (total_s("lindblad.zero_frequency_sector"), "s"),
        "lindblad.sector_evolve.us": (median_us(sector), "us"),
        "lindblad.sector_evolve.calls": (len(sector), "count"),
        "gradient.gradient_operator.s": (total_s("gradient.gradient_operator"), "s"),
        "gradient.certify_local_min.s": (total_s("gradient.certify_local_min"), "s"),
        "gradient.certify_local_min.calls": (len(certify), "count"),
        "descent.self_us_per_step":
            (self_s("descent.thermal_gradient_descent") * 1e6 / steps if steps else 0.0, "us"),
        "cli.emit_trace.s": (total_s("cli.emit_trace"), "s"),
        "trace.uncovered_pct": (100.0 * (wall - covered) / wall, "%"),
    }
    for name in ("hamiltonian.energy_groups", "hamiltonian.bohr_freqs",
                 "hamiltonian.bohr_blocks", "bath.kernel_entries",
                 "lindblad.dissipator_pairs", "lindblad.sector.size", "descent.steps"):
        m[name] = (tracer.counts[name], "count")
    return m
