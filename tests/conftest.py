"""Reference formulas shared by the Hamiltonian and Lindbladian tests."""

import itertools
from pathlib import Path

import numpy as np
import pytest

import thermal_landscape as tl
from thermal_landscape import bath, gradient, hamiltonian, lindblad
from thermal_landscape import operators as ops
from thermal_landscape.bath import BathSpec

REPO = Path(__file__).resolve().parents[1]


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


def _loop_bohr_decompose(a_mat, sd, drop_factor=1e-12, norm=None):
    """The drop rule of ``bohr_decompose`` as one pass over the Bohr blocks:
    A~ = V^dag A V by two dense products, then each Bohr index k that the
    Bohr map F reaches, ascending, decided by ``spectral_norm_exceeds`` on
    the compact entries of its pairs F == k and zeroed when dropped.
    Returns (kept Bohr indices, A~)."""
    a_mat = np.asarray(a_mat, dtype=complex)
    v = sd.eigenvectors
    if norm is None:
        norm = ops.operator_norm(a_mat)
    cutoff = drop_factor * max(norm, 1e-300)
    a_eig = v.conj().T @ a_mat @ v
    kept = []
    for k in np.unique(sd.bohr_map).tolist():
        rows, cols = np.nonzero(sd.bohr_map == k)
        block = hamiltonian._compact_block(a_eig, rows, cols, v.shape[0])[0]
        if ops.spectral_norm_exceeds(block, cutoff):
            kept.append(k)
        else:
            a_eig[rows, cols] = 0.0
    return np.array(kept, dtype=int), a_eig


@pytest.fixture
def loop_bohr_decompose():
    """``loop_bohr_decompose(a_mat, sd, drop_factor=1e-12, norm=None)``: the
    per-block oracle of the drop rule in ``hamiltonian.bohr_decompose``."""
    return _loop_bohr_decompose


def _kron_transpose_embed(op, sites, n):
    """``op`` on ``sites`` of ``n`` qubits as the Kronecker product with the
    2^(n-k) identity, its qubits then moved into register order by one
    transpose of the 2n-axis tensor."""
    sites = list(sites)
    k = len(sites)
    rest = [q for q in range(n) if q not in sites]
    full = np.kron(np.asarray(op, dtype=complex), np.eye(2 ** (n - k), dtype=complex))
    src = sites + rest
    perm = [src.index(q) for q in range(n)]
    tensor = full.reshape((2,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**n, 2**n))


def _lapack_herm_eig(m):
    """LAPACK ``eigh`` of the Hermitian part of ``m``, each eigenvector's
    largest-magnitude component made real positive."""
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    idx = np.argmax(np.abs(v), axis=0)
    phases = v[idx, np.arange(v.shape[1])]
    return w, v / (phases / np.abs(phases))[np.newaxis, :]


def _dense_eigenbasis_scan(model):
    """(support, rows) of the gradient scan built from dense eigenbasis
    operators: each jump's cached eigenbasis entries as a d x d array
    (``from_entries``), Hermitized as ``gradient_operator`` does, and
    diag(eigenvalues) for H, each laid out as conj(X^T) in float64 and read
    bit for bit at ``support``, the union of their nonzero entries."""
    d = model.dim
    mats = []
    for label in model.jump_labels:
        op = ops.from_entries(model._gradient_entries(label), d)
        op += op.conj().T
        op *= 0.5
        mats.append(op)
    mats.append(np.diag(model.sd.eigenvalues).astype(complex))
    layouts = [np.ascontiguousarray(op.T.conj()).reshape(-1).view(np.float64) for op in mats]
    support = np.flatnonzero(np.any([lay != 0.0 for lay in layouts], axis=0))
    return support, np.array([lay[support] for lay in layouts])


@pytest.fixture
def dense_oracles():
    """The dense routes the index paths replace: ``(kron_transpose_embed,
    lapack_herm_eig, dense_eigenbasis_scan)``."""
    return _kron_transpose_embed, _lapack_herm_eig, _dense_eigenbasis_scan


def _loop_lamb_once(freqs, spec, corr, edges):
    """One Lamb-kernel quadrature pass as a double loop over the Bohr pairs:
    S[k, l] = sum_n b_n e^{i (nu_k - nu_l) u_n / 2} f(nu_k + nu_l, w_n),
    with f(sigma, w) = w sinc(sigma w / 2 pi) the integral of e^{i sigma v}
    over |v| <= w / 2."""
    nodes, wts = bath._panel_nodes(edges)
    base = -np.sign(nodes) * corr(nodes) * wts
    widths = spec.tau - np.abs(nodes)
    half_phase = np.exp(0.5j * np.outer(nodes, freqs))
    m = len(freqs)
    out = np.empty((m, m), dtype=complex)
    for k in range(m):
        row_base = base * half_phase[:, k]
        for l in range(m):
            sigma = freqs[k] + freqs[l]
            out[k, l] = np.sum(row_base * half_phase[:, l].conj()
                               * widths * np.sinc(sigma * widths / (2.0 * np.pi)))
    return (1j / (2.0 * bath.SQRT_2PI * spec.tau)) * out


def _outer_c_beta_direct(t_values, spec, abs_tol):
    """c_beta at each time with a phase e^{i omega t} per time and node:
    ``exp(1j * outer(t, nodes)) @ (gamma * weights)`` on the panels of
    ``linspace`` edges, refined by ``_refine_edges`` until halving the
    panels moves a subsample of the times by at most abs_tol / 2, and
    c(-t) = conj(c(t))."""
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    t_abs = np.unique(np.abs(t_values))
    rate = float(t_abs[-1]) if t_abs.size else 1.0
    w_rad = bath._gamma_support_radius(spec, abs_tol * 1e-3)
    h = min(bath._freq_panel_width(spec, rate), (2 * w_rad) / 8)

    def one_pass(edges, ts):
        nodes, wts = bath._panel_nodes(edges)
        g = bath.gamma(nodes, spec) * wts
        out = np.empty(len(ts), dtype=complex)
        chunk = max(1, int(4e6 // max(len(nodes), 1)))
        for i in range(0, len(ts), chunk):
            out[i : i + chunk] = np.exp(1j * np.outer(ts[i : i + chunk], nodes)) @ g
        return out / bath.SQRT_2PI

    probe = t_abs[:: max(1, len(t_abs) // 48)]
    edges = bath._make_edges(-w_rad, w_rad, h)
    for _ in range(3):
        fine = bath._refine_edges(edges)
        err = float(np.max(np.abs(one_pass(edges, probe) - one_pass(fine, probe))))
        if err <= 0.5 * abs_tol:
            break
        edges = fine
    else:
        raise tl.errors.QuadratureFailure(f"error estimate {err:.3e}")
    lookup = dict(zip(t_abs.tolist(), one_pass(edges, t_abs)))
    return np.array([lookup[abs(t)] if t >= 0 else np.conj(lookup[abs(t)])
                     for t in t_values.tolist()], dtype=complex)


@pytest.fixture
def outer_c_beta():
    """``outer_c_beta(t_values, spec, abs_tol)``: the phase-per-node oracle
    of the c_beta quadrature."""
    return _outer_c_beta_direct


def _pair_lists(model, label):
    """The dissipator's pairs (coeffs, rights A_nu, lefts_dag A_nu'^dag),
    as loops over the jump's Bohr blocks, every pair kept: (A_nu, A_nu)
    with gamma(nu) in the Davies limit, (A_nu', A_nu) with C(nu', nu) at
    finite tau."""
    blocks = model.jump(label).blocks
    coeffs, rights, lefts_dag = [], [], []
    if model.davies:
        for w, mat in zip(model.davies_weights[blocks.freq_indices], blocks.mats):
            coeffs.append(w)
            rights.append(mat)
            lefts_dag.append(mat.conj().T)
    else:
        c_mat = model.kernels.C
        for p, kp in enumerate(blocks.freq_indices):
            for q, kq in enumerate(blocks.freq_indices):
                coeffs.append(c_mat[kp, kq])
                rights.append(blocks.mats[q])
                lefts_dag.append(blocks.mats[p].conj().T)
    return np.array(coeffs, dtype=complex), rights, lefts_dag


def _pair_decay(model, label):
    """G = sum_p c_p A_nu'^dag A_nu over the pairs of :func:`_pair_lists`."""
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for c, a_r, b_d in zip(*_pair_lists(model, label)):
        out += c * (b_d @ a_r)
    return out


def _pair_apply(model, label, rho, adjoint=False):
    """D_a[rho] = sum_p c_p A_nu rho A_nu'^dag - {G, rho}/2 over the pairs of
    :func:`_pair_lists`; with ``adjoint``, its Hilbert-Schmidt adjoint
    sum_p conj(c_p) A_nu'^dag rho A_nu - {G, rho}/2."""
    decay = _pair_decay(model, label)
    out = -0.5 * (decay @ rho + rho @ decay)
    for c, a_r, b_d in zip(*_pair_lists(model, label)):
        out += np.conj(c) * (b_d @ rho @ a_r) if adjoint else c * (a_r @ rho @ b_d)
    return out


def _pair_sum_lamb_shift(model, label):
    """H_LS = sum K(nu2, nu1) A_nu2 A_nu1 over every block pair, Hermitized."""
    blocks = model.jump(label).blocks
    raw = np.zeros((model.dim, model.dim), dtype=complex)
    for p, kp in enumerate(blocks.freq_indices):
        for q, kq in enumerate(blocks.freq_indices):
            raw += model.kernels.K[kp, kq] * (blocks.mats[p] @ blocks.mats[q])
    return 0.5 * (raw + raw.conj().T)


def _kron_superop(model, label):
    """The row-major superoperator of L_a as one Kronecker product per kept
    pair plus the decay and Lamb-shift terms."""
    d = model.dim
    eye = np.eye(d, dtype=complex)
    decay = _pair_decay(model, label)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for c, a_r, b_d in zip(*_pair_lists(model, label)):
        mat += c * np.kron(a_r, b_d.T)
    mat -= 0.5 * (np.kron(decay, eye) + np.kron(eye, decay.T))
    if model.include_lamb_shift:
        h_ls = _pair_sum_lamb_shift(model, label)
        mat += -1j * (np.kron(h_ls, eye) - np.kron(eye, h_ls.T))
    return mat


def _row_loop_gathered_product(left, f_left, right, f_right, weight, lam=None):
    """sum_i left[a, i] right[i, b] weight(f_left[a, i], f_right[i, b]),
    each term times lam[i] - (lam[a] + lam[b]) / 2 when ``lam`` is given:
    one row a at a time, over the i with left[a, i] != 0."""
    out = np.zeros(right.shape, dtype=complex)
    for a, row in enumerate(left):
        nz = np.flatnonzero(row)
        w = weight(f_left[a, nz][:, None], f_right[nz])
        if lam is not None:
            w = w * (lam[nz, None] - 0.5 * (lam[a] + lam))
        out[a] = row[nz] @ (right[nz] * w)
    return out


@pytest.fixture
def row_loop_gather():
    """``row_loop_gather(left, f_left, right, f_right, weight, lam=None)``:
    the row-loop oracle of ``lindblad._gather``, densified."""
    return _row_loop_gathered_product


@pytest.fixture
def loop_lamb_once():
    """``loop_lamb_once(freqs, spec, corr, edges)``: the pair-loop oracle of
    one Lamb quadrature pass."""
    return _loop_lamb_once


@pytest.fixture
def pair_sums():
    """The pair-sum oracles ``(pair_lists, decay, lamb_shift, superop)``,
    each called as ``f(model, label)``."""
    return _pair_lists, _pair_decay, _pair_sum_lamb_shift, _kron_superop


@pytest.fixture
def pair_apply():
    """``pair_apply(model, label, rho, adjoint=False)``: D_a[rho], or
    D^dag_a[rho], summed over the pair lists."""
    return _pair_apply


def _loop_davies_adjoint(model, label, obs):
    """Davies-limit D^dag_a[obs] as one loop over the jump's Bohr blocks:
    sum gamma(nu) A_nu^dag obs A_nu - {G, obs}/2 with G = sum gamma(nu)
    A_nu^dag A_nu, gamma at the exact Bohr frequencies, Hermitized."""
    jump = model.jump(label)
    obs = np.asarray(obs, dtype=complex)
    out = np.zeros_like(obs)
    decay = np.zeros_like(obs)
    for w, mat in zip(model.davies_weights[jump.blocks.freq_indices], jump.blocks.mats):
        md = mat.conj().T
        out += w * (md @ obs @ mat)
        decay += w * (md @ mat)
    out -= 0.5 * (decay @ obs + obs @ decay)
    return 0.5 * (out + out.conj().T)


@pytest.fixture
def loop_davies_adjoint():
    """``loop_davies_adjoint(model, label, obs)``: the block-loop oracle of
    the Davies-limit adjoint."""
    return _loop_davies_adjoint


def _generic_pauli_chain(n, seed):
    """All one- and two-local Paulis on a chain of ``n`` qubits with
    Gaussian coefficients, scaled to ||H|| = 1: generic, non-degenerate."""
    rng = np.random.default_rng(seed)
    local = [(tl.PAULI[p], (j,)) for j in range(n) for p in "XYZ"]
    local += [(np.kron(tl.PAULI[p], tl.PAULI[q]), (j, j + 1))
              for j in range(n - 1) for p, q in itertools.product("XYZ", repeat=2)]
    coeffs = rng.normal(size=len(local))
    dense = sum(c * tl.kron_embed(op, sites, n) for c, (op, sites) in zip(coeffs, local))
    coeffs = coeffs / np.linalg.norm(dense, 2)
    return tl.assemble([(c * op, sites) for c, (op, sites) in zip(coeffs, local)], n)


@pytest.fixture
def generic_pauli_chain():
    """``generic_pauli_chain(n, seed)``: every 1- and 2-local Pauli on a
    chain with Gaussian coefficients, scaled to ||H|| = 1."""
    return _generic_pauli_chain


def _oracle_system(name):
    """(Hamiltonian, jumps, BathSpec) of the finite-tau oracle systems:

    - ``generic_n3``: the generic 3-qubit Pauli chain, jumps X_j and Z_j,
      beta 2, tau 25;
    - ``ising_n3_h0``: the degenerate Ising ring n = 3 at h = 0, jumps X_j;
    - ``clock_x_t3``: the clock Hamiltonian of ``circuit_x_t3`` (J_in 0.6,
      J_prop 0.3) with its preset jumps, beta 1, tau 10 (its 173 Bohr
      frequencies make the pair-loop oracle the slow side);
    - ``random8_b16_t800``: a random 8-level Hamiltonian with two Hermitian
      jumps at beta 16, tau 800, where the Lamb quadrature needs a few
      hundred thousand nodes.
    """
    if name == "generic_n3":
        jumps = [(f"{p}{j}", tl.kron_embed(tl.PAULI[p], [j], 3)) for j in range(3) for p in "XZ"]
        return _generic_pauli_chain(3, 0), jumps, BathSpec(beta=2.0, tau=25.0)
    if name == "ising_n3_h0":
        jumps = [(f"X{j}", tl.kron_embed(tl.PAULI["X"], [j], 3)) for j in range(3)]
        return tl.build_ising_chain(3, 0.0), jumps, BathSpec(beta=2.0, tau=25.0)
    if name == "clock_x_t3":
        cs = tl.load_circuit(str(REPO / "scripts" / "configs" / "circuit_x_t3.json"))
        clock = tl.build_clock_hamiltonian(cs, j_in=0.6, j_prop=0.3)
        return clock.local, tl.clock_jump_preset(cs), BathSpec(beta=1.0, tau=10.0)
    if name == "random8_b16_t800":
        rng = np.random.default_rng(22)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ham = tl.assemble([((a + a.conj().T) / 4.0, (0, 1, 2))], 3)
        jumps = []
        for k in range(2):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            m = m + m.conj().T
            jumps.append((f"J{k}", m / np.linalg.norm(m, 2)))
        return ham, jumps, BathSpec(beta=16.0, tau=800.0)
    raise KeyError(name)


@pytest.fixture
def oracle_system():
    """``oracle_system(name)``: (Hamiltonian, jumps, BathSpec) of a named
    finite-tau oracle system."""
    return _oracle_system


def _parent_post_step(out):
    """The post-step of ``evolve`` as it was before the vec(rho) kernel:
    Frobenius Hermiticity defect and ``np.trace`` defect against 1e-7,
    Hermitize, renormalize, then the -1e-6 floor by ``np.linalg.cholesky``
    of out + 1e-6 I with an ``eigvalsh`` fallback."""
    herm_defect = float(np.linalg.norm(out - out.conj().T))
    defect = max(herm_defect, abs(complex(np.trace(out)) - 1.0))
    if defect > 1e-7:
        raise tl.errors.EvolutionDefect(f"defect {defect:.3e} > 1e-7")
    out = 0.5 * (out + out.conj().T)
    out = out / float(np.trace(out).real)
    try:
        np.linalg.cholesky(out + 1e-6 * np.eye(out.shape[0]))
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(out)[0])
        if lo < -1e-6:
            raise tl.errors.PositivityDefect(f"minimum eigenvalue {lo:.3e}") from None
    return out


def _parent_evolve(model, label, rho, s, gen=None):
    """``evolve`` along jump ``label`` with unit weight on the dense
    superoperator ``gen`` (by default :func:`_kron_superop`), for a model
    without the coherent part: the substepped Taylor series written out,
    then :func:`_parent_post_step`."""
    d = model.dim
    gen = _kron_superop(model, label) if gen is None else gen
    bound = 3.0 * model.jump(label).aa_norm
    nsub = max(1, int(np.ceil(s * bound)))
    h, tol = s / nsub, lindblad.TAYLOR_TOL / nsub
    state = np.asarray(rho, dtype=complex).reshape(-1)
    for _ in range(nsub):
        term, acc = state, state.copy()
        for k in range(1, lindblad.MAX_TAYLOR_TERMS + 1):
            term = (h / k) * (gen @ term)
            acc = acc + term
            if np.sqrt(d) * np.linalg.norm(term) * h * bound / (k + 1) < 0.1 * tol:
                break
        state = acc
    return _parent_post_step(state.reshape(d, d))


def _parent_vec_descent(model, rho, cfg):
    """Descent on vec(rho) with :func:`_parent_evolve` as its step and each
    gradient read by ``gradient_vector``: the jump sequence and the
    (e_before, e_after) of every step, and the terminal state."""
    steps = []
    gens = {label: _kron_superop(model, label) for label in model.jump_labels}
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
        rho = _parent_evolve(model, label, rho, abs(g) / (9.0 * cfg.norm_bound**2), gens[label])
        steps.append((label, e_before, model.energy(rho)))
    return steps, rho


@pytest.fixture
def parent_vec_path():
    """The pre-kernel vec(rho) oracles ``(post_step, evolve, descent)``."""
    return _parent_post_step, _parent_evolve, _parent_vec_descent


def _sector_step_descent(model, rho, cfg, records=None):
    """The omega = 0 sector descent one step at a time, as it ran before run
    blocks: the first jump, in declared order, whose gradient lies below the
    trigger, then ``ZeroFrequencySector.evolve`` with s = |g| / (9 B^2), then
    one matvec of the sector's rows of the model's gradient scan.  Appends every step as
    (index, label, g, s, e_before, e_after) to ``records`` (so that a caller
    keeps the steps before a raising one) and returns them with the terminal
    density; stops when no jump triggers or after ``cfg.max_steps`` steps.
    Noise-free configs only."""
    sector = lindblad.zero_frequency_sector(model, rho)
    x = sector.coords(rho)
    labels = model.jump_labels
    scan = sector.scan_rows(gradient.gradient_scan(model))
    records = [] if records is None else records
    m = len(labels)
    values = scan.dot(x).tolist()
    for t in range(1, cfg.max_steps + 1):
        chosen = next((j for j in range(m) if values[j] < cfg.trigger), None)
        if chosen is None:
            break
        g, e_before = values[chosen], values[m]
        s = abs(g) / (9.0 * cfg.norm_bound**2)
        x = sector.evolve(x, chosen, s)
        values = scan.dot(x).tolist()
        records.append((t, labels[chosen], g, s, e_before, values[m]))
    return records, sector.density(x)


@pytest.fixture
def sector_step_descent():
    """``sector_step_descent(model, rho, cfg, records=None)``: the one-step
    sector descent that run blocks replace."""
    return _sector_step_descent
