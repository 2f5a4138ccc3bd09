"""Modified circuit-to-Hamiltonian construction with binomial history state.

A circuit of T = 2 t0 + L gates (identity-padded by t0 on both ends) maps
to a Hamiltonian H_C = H_clock + H_in + H_prop on n + T qubits whose
unique ground state is the binomially weighted history state.  The clock
register encodes time as unary strings |C_t> = |1^t 0^(T-t)>; H_clock
penalizes |01> substrings, which annihilates exactly these strings.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import DimensionMismatch, NonUnitaryGate, SiteOutOfRange, SizeLimit
from .hamiltonian import LocalHamiltonian, assemble

GATES = {
    "I": np.eye(2, dtype=complex),
    "X": ops.PAULI["X"],
    "Y": ops.PAULI["Y"],
    "Z": ops.PAULI["Z"],
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "T": np.diag([1.0, np.exp(1j * math.pi / 4.0)]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


@dataclass(frozen=True)
class CircuitSpec:
    """A padded circuit: ``gates[t-1]`` is the gate applied at time t."""

    n: int
    t0: int
    gates: tuple  # of (unitary, sites)

    @property
    def total_gates(self):
        return len(self.gates)

    @property
    def computational_gates(self):
        return len(self.gates) - 2 * self.t0

    @property
    def idle_constant(self):
        """c in t0 = c L^2."""
        return self.t0 / self.computational_gates**2

    def _acts_nontrivially(self, t):
        mat, _ = self.gates[t - 1]
        return ops.operator_norm(mat - np.eye(mat.shape[0])) > 1e-12

    def _action_times(self):
        """Per qubit, the times at which it is acted on non-trivially, in order."""
        times = [[] for _ in range(self.n)]
        for t in range(1, self.total_gates + 1):
            if self._acts_nontrivially(t):
                for j in self.gates[t - 1][1]:
                    times[j].append(t)
        return times

    def first_action_times(self):
        """t_j per qubit: first time qubit j is acted on non-trivially.

        Qubits never acted on default to t0 + 1, the first slot after the
        initial identity padding.
        """
        return [ts[0] if ts else self.t0 + 1 for ts in self._action_times()]

    def last_action_times(self):
        """T_j per qubit: last time qubit j is acted on non-trivially (0 if never)."""
        return [ts[-1] if ts else 0 for ts in self._action_times()]


@dataclass(frozen=True)
class ClockHamiltonian:
    """H_C = H_clock + H_in + H_prop on n + T qubits, with its couplings.

    ``local`` is H_C assembled from the three term lists; the dense H_clock,
    H_in and H_prop are assembled from their terms on each read, and
    ``h_total`` is ``local.dense``.
    """

    circuit: CircuitSpec
    j_in: float
    j_prop: float
    local: LocalHamiltonian
    clock_terms: tuple  # of (matrix, sites)
    in_terms: tuple
    prop_terms: tuple
    f: np.ndarray  # f_t = (T - t)/T, t = 1..T-1
    g: np.ndarray  # g_j = 1/xi_{t_j - 1}
    h_couplings: np.ndarray  # h_t = sqrt(t (T - t + 1)), t = 1..T
    xi: np.ndarray

    j_clock = 1.0
    h_clock = property(lambda self: assemble(self.clock_terms, self.local.n).dense)
    h_in = property(lambda self: assemble(self.in_terms, self.local.n).dense)
    h_prop = property(lambda self: assemble(self.prop_terms, self.local.n).dense)
    h_total = property(lambda self: self.local.dense)


def make_circuit(n, t0, gates) -> CircuitSpec:
    """Validate and freeze a padded circuit description."""
    if t0 < 1:
        raise ValueError("t0 must be at least 1")
    total = len(gates)
    if total < 2 * t0 + 1:
        raise ValueError(f"need at least 2*t0+1 = {2 * t0 + 1} gates, got {total}")
    frozen = []
    for t, (mat, sites) in enumerate(gates, start=1):
        mat = np.asarray(mat, dtype=complex)
        sites = tuple(sites)
        k = len(sites)
        if mat.shape != (2**k, 2**k):
            raise DimensionMismatch(
                f"gate at time {t} has shape {mat.shape} for {k} sites"
            )
        for s in sites:
            if not 0 <= s < n:
                raise SiteOutOfRange(f"gate at time {t} touches site {s}")
        if ops.operator_norm(mat.conj().T @ mat - np.eye(2**k)) > 1e-10:
            raise NonUnitaryGate(f"gate at time {t} is not unitary within 1e-10")
        frozen.append((mat, sites))
    spec = CircuitSpec(n=n, t0=t0, gates=tuple(frozen))
    for t in list(range(1, t0 + 1)) + list(range(total - t0 + 1, total + 1)):
        if spec._acts_nontrivially(t):
            raise ValueError(
                f"gate at time {t} must be an identity (t0 = {t0} padding)"
            )
    return spec


def load_circuit(source) -> CircuitSpec:
    """Read a circuit from the JSON file format.

    ``{"n": int, "t0": int, "gates": [{"name": ..., "sites": [...],
    "matrix": [[[re, im], ...], ...]?}, ...]}``; gates named "custom"
    carry explicit entries as [re, im] pairs.
    """
    if isinstance(source, (str,)):
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = source
    gates = []
    for g in obj["gates"]:
        name = g["name"]
        if name == "custom":
            entries = np.asarray(g["matrix"], dtype=float)
            mat = entries[..., 0] + 1j * entries[..., 1]
        else:
            try:
                mat = GATES[name]
            except KeyError:
                raise ValueError(f"unknown gate name {name!r}") from None
        gates.append((mat, tuple(g["sites"])))
    return make_circuit(int(obj["n"]), int(obj["t0"]), gates)


def binomial_weights(total_gates: int):
    """xi_t = C(T, t) / 2^T for t = 0..T."""
    t_count = total_gates
    return np.array(
        [math.comb(t_count, t) / 2.0**t_count for t in range(t_count + 1)]
    )


def center_weight_bound(t0: int, comp_gates: int):
    """Lower bound e^{-c/4} / (T + 1) on xi_t for t in [t0, T - t0]."""
    c = t0 / comp_gates**2
    t_count = 2 * t0 + comp_gates
    return math.exp(-c / 4.0) / (t_count + 1)


def _clock_site(cs: CircuitSpec, t):
    """Full-register index of clock qubit t (1-based)."""
    return cs.n + t - 1


def _clock_basis_index(t, t_count):
    """Basis index of |C_t> = |1^t 0^(T-t)> within the clock register."""
    return sum(1 << (t_count - i) for i in range(1, t + 1))


_P01 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)  # |01><01|
_P10 = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)  # |10><10|
_P1 = np.diag([0.0, 1.0]).astype(complex)


def _prop_term(cs: CircuitSpec, t, j_prop):
    """(J_prop/2) * H_prop(t) as a (matrix, sites) term."""
    t_count = cs.total_gates
    mat, gate_sites = cs.gates[t - 1]
    k = len(gate_sites)
    h_t = math.sqrt(t * (t_count - t + 1))
    if t == 1:
        hop = np.zeros((4, 4), dtype=complex)
        hop[2, 0] = 1.0  # |10><00|
        clock_sites = (_clock_site(cs, 1), _clock_site(cs, 2))
    elif t == t_count:
        hop = np.zeros((4, 4), dtype=complex)
        hop[3, 2] = 1.0  # |11><10|
        clock_sites = (_clock_site(cs, t_count - 1), _clock_site(cs, t_count))
    else:
        hop = np.zeros((8, 8), dtype=complex)
        hop[0b110, 0b100] = 1.0  # |110><100|
        clock_sites = (
            _clock_site(cs, t - 1),
            _clock_site(cs, t),
            _clock_site(cs, t + 1),
        )
    dim = 2**k * hop.shape[0]
    term = np.eye(dim, dtype=complex)
    coupling = np.kron(mat, hop)
    term -= h_t * (coupling + coupling.conj().T)
    return 0.5 * j_prop * term, gate_sites + clock_sites


def build_clock_hamiltonian(cs: CircuitSpec, j_in, j_prop) -> ClockHamiltonian:
    """The terms of H_clock, H_in and H_prop on n + T qubits, and their sum
    assembled once."""
    if j_in <= 0 or j_prop <= 0:
        raise ValueError("J_in and J_prop must be positive")
    t_count = cs.total_gates
    n_total = cs.n + t_count
    if n_total > ops.MAX_QUBITS:
        raise SizeLimit(
            f"n + T = {n_total} exceeds the dense-size guard of {ops.MAX_QUBITS}"
        )
    xi = binomial_weights(t_count)
    f = np.array([(t_count - t) / t_count for t in range(1, t_count)])
    h_couplings = np.array(
        [math.sqrt(t * (t_count - t + 1)) for t in range(1, t_count + 1)]
    )
    t_first = cs.first_action_times()
    g = np.array([1.0 / xi[tj - 1] for tj in t_first])

    clock_terms = tuple(
        (f[t - 1] * _P01, (_clock_site(cs, t), _clock_site(cs, t + 1)))
        for t in range(1, t_count)
    )
    in_terms = tuple(
        (j_in * g[j] * np.kron(_P1, _P10), (j, _clock_site(cs, tj - 1), _clock_site(cs, tj)))
        for j, tj in enumerate(t_first)
    )
    prop_terms = tuple(_prop_term(cs, t, j_prop) for t in range(1, t_count + 1))
    return ClockHamiltonian(
        circuit=cs,
        j_in=float(j_in),
        j_prop=float(j_prop),
        local=assemble(clock_terms + in_terms + prop_terms, n_total),
        clock_terms=clock_terms,
        in_terms=in_terms,
        prop_terms=prop_terms,
        f=f,
        g=g,
        h_couplings=h_couplings,
        xi=xi,
    )


def _partial_states(cs: CircuitSpec, bits):
    """System states U_t ... U_1 |bits> for t = 0..T."""
    psi = ops.basis_state(bits)
    out = [psi]
    for mat, sites in cs.gates:
        gate = ops.kron_embed(mat, sites, cs.n)
        psi = gate @ psi
        out.append(psi)
    return out


def history_state(cs: CircuitSpec, bits: str | None = None):
    """|eta_x> = sum_t sqrt(xi_t) (U_t ... U_1 |x>) tensor |C_t>, the columns
    of :func:`_time_basis` weighted by sqrt(xi_t)."""
    if bits is None:
        bits = "0" * cs.n
    if len(bits) != cs.n:
        raise DimensionMismatch(f"input bits {bits!r} do not match n={cs.n}")
    return _time_basis(cs, bits) @ np.sqrt(binomial_weights(cs.total_gates))


def _time_basis(cs: CircuitSpec, bits):
    """Orthonormal vectors |eta_{x,t}> for t = 0..T."""
    t_count = cs.total_gates
    states = _partial_states(cs, bits)
    clock_dim = 2**t_count
    out = []
    for t in range(t_count + 1):
        vec = np.zeros(2 ** (cs.n + t_count), dtype=complex)
        idx = _clock_basis_index(t, t_count)
        vec[np.arange(2**cs.n) * clock_dim + idx] = states[t]
        out.append(vec)
    return np.stack(out, axis=1)


def effective_prop_block(cs: CircuitSpec, bits, j_prop):
    """The (T+1) x (T+1) block <eta_{x,t'}| H_prop |eta_{x,t}>.

    Equals the tridiagonal J_prop (T/2 I - L_x) with spectrum
    J_prop {0, ..., T}; the sandwich, with H_prop assembled from its terms
    alone, is verified against the explicit tridiagonal within 1e-9.
    """
    if j_prop <= 0:
        raise ValueError("J_prop must be positive")
    t_count = cs.total_gates
    tri = np.zeros((t_count + 1, t_count + 1))
    np.fill_diagonal(tri, j_prop * t_count / 2.0)
    for t in range(1, t_count + 1):
        h_t = math.sqrt(t * (t_count - t + 1))
        tri[t - 1, t] = tri[t, t - 1] = -0.5 * j_prop * h_t
    h_prop = assemble([_prop_term(cs, t, j_prop) for t in range(1, t_count + 1)],
                      cs.n + t_count).dense
    basis = _time_basis(cs, bits)
    sandwich = basis.conj().T @ h_prop @ basis
    if np.max(np.abs(sandwich - tri)) > 1e-9:
        raise AssertionError(
            "effective propagation block deviates from the tridiagonal form"
        )
    return tri


@dataclass(frozen=True)
class ObservableReduction:
    """Ground-state Z_j expectation split into signal and idle-tail error."""

    p_gt: float  # P_{t > T_j} = sum_{t > T_j} xi_t
    eps_bound: float  # Hoeffding bound on |eps_j|
    eps_exact: float  # exact sum_{t <= T_j} xi_t <Z_j>_t


def observable_reduction(cs: CircuitSpec, j: int) -> ObservableReduction:
    """Decompose <eta_0| Z_j |eta_0> = <Z_j>_final P_{t>T_j} + eps_j."""
    if not 0 <= j < cs.n:
        raise SiteOutOfRange(f"qubit {j} out of range for n={cs.n}")
    t_count = cs.total_gates
    comp = cs.computational_gates
    c = cs.idle_constant
    xi = binomial_weights(t_count)
    t_last = cs.last_action_times()[j]
    p_gt = float(np.sum(xi[t_last + 1:]))
    z_j = ops.kron_embed(ops.PAULI["Z"], [j], cs.n)
    states = _partial_states(cs, "0" * cs.n)
    eps = 0.0
    for t in range(t_last + 1):
        psi = states[t]
        eps += xi[t] * float((psi.conj() @ (z_j @ psi)).real)
    frac = (c * comp**2 + comp / 4.0) / (2.0 * c * comp**2 + comp)
    eps_bound = math.exp(-2.0 * t_count * (0.5 - frac) ** 2)
    return ObservableReduction(p_gt=p_gt, eps_bound=eps_bound, eps_exact=eps)


def clock_jump_preset(cs: CircuitSpec):
    """Jump set {X_j (x) |0><0|_{t_j}} plus {X_t, Z_t on the clock}.

    The input-flip jumps come first: descent scans jumps in declared order
    with first-trigger selection, and the slow clock channels would
    otherwise starve the flips.
    """
    t_count = cs.total_gates
    n_total = cs.n + t_count
    jumps = []
    p0 = np.diag([1.0, 0.0]).astype(complex)
    for j, tj in enumerate(cs.first_action_times()):
        op = np.kron(ops.PAULI["X"], p0)
        sites = [j, _clock_site(cs, tj)]
        jumps.append((f"flip{j}", ops.kron_embed(op, sites, n_total)))
    for t in range(1, t_count + 1):
        site = _clock_site(cs, t)
        jumps.append((f"clockX{t}", ops.kron_embed(ops.PAULI["X"], [site], n_total)))
        jumps.append((f"clockZ{t}", ops.kron_embed(ops.PAULI["Z"], [site], n_total)))
    return jumps
