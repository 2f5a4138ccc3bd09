"""Each check in checks.py passes the program's right answer and rejects a wrong one.

    python3 bench/test_checks.py        (or: python3 -m pytest bench/test_checks.py)

Small inputs only: a 3-qubit Davies Ising chain and a 3-frequency kernel
table.  Runs in a few seconds.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from thermal_landscape import gradient, hamiltonian, lindblad  # noqa: E402
from thermal_landscape import operators as ops  # noqa: E402
from thermal_landscape.bath import BathSpec, build_kernel_table  # noqa: E402

N, H, BETA, LAMBDA0 = 3, 1.0, 5.0, 4.0


def _rejects(fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed:
        return
    raise AssertionError(f"{fn.__name__} accepted a wrong answer")


def _ising_model():
    jumps = [(f"X{j}", ops.kron_embed(ops.PAULI["X"], [j], N)) for j in range(N)]
    return lindblad.build_model(hamiltonian.build_ising_chain(N, H), jumps,
                                BathSpec(beta=BETA, tau=1.0, lambda0=LAMBDA0), davies=True)


def test_davies_oracle_rejects_perturbed_gradient():
    model = _ising_model()
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2**N, 2**N)) + 1j * rng.normal(size=(2**N, 2**N))
    rho = z @ z.conj().T
    rho /= np.trace(rho).real  # full rank, with coherences inside degenerate groups
    want = checks.davies_gradients(model.ham.dense, [j.matrix for j in model.jumps],
                                   rho, BETA, LAMBDA0)
    got = gradient.gradient_vector(model, rho).g
    checks.check_gradients("random state", got, want, atol=1e-10)
    got[1] += 1e-8
    _rejects(checks.check_gradients, "perturbed", got, want, 1e-10)
    _rejects(checks.check_local_min, "state", np.array([0.0, -2e-3]), 1e-3)


def test_flip_formula_rejects_perturbed_gradient_and_wrong_set():
    model = _ising_model()
    certified = []
    for i in range(2**N):
        bits = format(i, f"0{N}b")
        rho = ops.projector(ops.basis_state(bits))
        want = checks.ising_flip_gradients(bits, H, BETA, LAMBDA0)
        got = gradient.gradient_vector(model, rho).g
        checks.check_gradients(bits, got, want, atol=1e-10)
        _rejects(checks.check_gradients, bits, got + np.array([0.0, 0.0, 1e-8]), want, 1e-10)
        if gradient.certify_local_min(model, rho, 1e-3).kind == "local_min_sufficient":
            certified.append(bits)
    checks.check_certified_set(certified, ["000", "111"])
    _rejects(checks.check_certified_set, ["000"], ["000", "111"])
    _rejects(checks.check_certified_set, ["000", "010", "111"], ["000", "111"])


def test_overlap_checks_reject_shifted_entry():
    freqs = np.array([-0.5, 0.0, 0.5])
    table = build_kernel_table(freqs, BathSpec(beta=2.0, tau=25.0))
    pairs = [(0, 0), (0, 2), (1, 2)]
    checks.check_overlap_entries(table.C, freqs, pairs, 2.0, 25.0, 1.0)
    checks.check_psd_gram(table.C)
    shifted = table.C.copy()
    shifted[0, 2] += 1e-7
    _rejects(checks.check_overlap_entries, shifted, freqs, pairs, 2.0, 25.0, 1.0)
    _rejects(checks.check_psd_gram, shifted)  # no longer Hermitian
    top = float(np.linalg.eigvalsh(table.C)[-1])
    _rejects(checks.check_psd_gram, table.C - 1.01 * top * np.eye(3))


def test_descent_checks_reject_bad_states():
    checks.check_density(np.diag([0.75, 0.25]))
    _rejects(checks.check_density, np.diag([1.1, -0.1]))
    _rejects(checks.check_density, np.diag([0.6, 0.3]))
    _rejects(checks.check_density, np.array([[0.5, 0.1], [0.0, 0.5]]))
    checks.check_descent_budget(0.0, -1.0, 1000, 1e-2, 1.0)
    _rejects(checks.check_descent_budget, 0.0, -1e-3, 1000, 1e-2, 1.0)
    _rejects(checks.check_descent_budget, 0.0, -1e6, 10**6, 1e-2, 1.0)
    g = -0.3
    checks.check_finite_difference(g, lambda s: 1.0 + g * s + s**2, 1.0)
    _rejects(checks.check_finite_difference, g, lambda s: 1.0 + 0.9 * g * s, 1.0)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
