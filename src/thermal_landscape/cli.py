"""Command-line driver: scenario configs in, JSON/CSV results out.

One scenario per invocation: ``thermal-landscape <scenario> config.json
[--seed S] [--output PATH]``.  Config files are JSON with
``schema_version`` 1; all resolved values are echoed into the result so
every artifact is self-describing.  Exit codes: 0 success, 2 config
error, 3 numerical guard (or a non-real expectation value) or exhausted
descent budget; every failure writes one JSON error record naming a
field to stderr.  Any other package error raised while the scenario
itself runs is reported as a config error on ``scenario.<name>``.
"""

import argparse
import contextlib
import json
import sys

import numpy as np

from . import circuit_hamiltonian as circ
from . import landscape_unitary as unitary
from . import operators as ops
from .bath import BathSpec
from .descent import DescentConfig, DescentTrace, thermal_gradient_descent
from .errors import (
    ConfigError,
    MaxStepsExceeded,
    NonRealExpectation,
    NumericalGuard,
    ThermalLandscapeError,
)
from .gradient import (
    certify_local_min,
    gradient_vector,
    negative_gradient_condition,
    ngc_params,
)
from .hamiltonian import assemble, build_ising_chain
from .lindblad import build_model

SCENARIOS = (
    "grad",
    "certify",
    "ngc",
    "descend",
    "ising",
    "clockham",
    "plateau",
    "kernels",
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, obj):
    """Byte-stable JSON: sorted keys, shortest round-trip float format."""
    text = json.dumps(_jsonify(obj), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _certificate_dict(cert):
    return {
        "kind": cert.kind,
        "epsilon": cert.epsilon,
        "witness": cert.witness,
        "inf_norm_minus": cert.inf_norm_minus,
    }


def emit_trace(trace: DescentTrace, path, config_echo=None, terminal_extra=None):
    """Serialize a descent trace to the scenario JSON record format."""
    terminal = {}
    if trace.terminal_certificate is not None:
        terminal["certificate"] = _certificate_dict(trace.terminal_certificate)
    if trace.steps:
        terminal["energy"] = trace.steps[-1].e_after
    if terminal_extra:
        terminal.update(terminal_extra)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "config_echo": config_echo if config_echo is not None else {},
        "steps": [
            {
                "i": st.index,
                "a": st.jump,
                "g": st.g,
                "s": st.s,
                "e_before": st.e_before,
                "e_after": st.e_after,
            }
            for st in trace.steps
        ],
        "terminal": terminal,
    }
    write_json(path, obj)
    return obj


# ---------------------------------------------------------------------------
# config validation / builders
# ---------------------------------------------------------------------------


def _require(cfg, field, typ, path):
    if field not in cfg:
        raise ConfigError(f"{path}{field}", "missing required field")
    val = cfg[field]
    if typ is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if typ is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if not isinstance(val, typ):
        raise ConfigError(f"{path}{field}", f"expected {typ.__name__}")
    return val


@contextlib.contextmanager
def _config_field(path):
    """Report a package error raised while ``path`` is resolved as a
    :class:`ConfigError` on that field; guards and budgets pass through."""
    try:
        yield
    except (ConfigError, NumericalGuard, NonRealExpectation, MaxStepsExceeded):
        raise
    except ThermalLandscapeError as exc:
        raise ConfigError(path, f"{type(exc).__name__}: {exc}") from exc


def _resolve_bath(cfg):
    raw = cfg.get("bath", {})
    if not isinstance(raw, dict):
        raise ConfigError("bath", "expected an object")
    out = {
        "beta": raw.get("beta", 1.0),
        "tau": raw.get("tau", 100.0),
        "lambda0": raw.get("lambda0", 1.0),
        "davies": bool(raw.get("davies", False)),
        "beta_infinite": bool(raw.get("beta_infinite", False)),
        "beta_cap": raw.get("beta_cap", 1e6),
    }
    for key in ("beta", "tau", "lambda0", "beta_cap"):
        val = out[key]
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"bath.{key}", "expected a number")
        out[key] = float(val)
    if out["beta"] < 0:
        raise ConfigError("bath.beta", "must be nonnegative")
    if out["tau"] <= 0:
        raise ConfigError("bath.tau", "must be positive")
    if out["lambda0"] <= 0:
        raise ConfigError("bath.lambda0", "must be positive")
    return out


def _pauli_term_matrix(entry, path):
    letters = _require(entry, "pauli", str, path)
    coeff = float(entry.get("coeff", 1.0))
    mat = ops.pauli_matrix(ops.PauliTerm(coeff, letters), len(letters))
    sites = _require(entry, "sites", list, path)
    if len(sites) != len(letters):
        raise ConfigError(f"{path}sites", "length must match the Pauli string")
    return mat, tuple(int(s) for s in sites)


def _resolve_hamiltonian(cfg):
    """Returns (LocalHamiltonian, clock_or_none, resolved_echo)."""
    raw = cfg.get("hamiltonian")
    if not isinstance(raw, dict):
        raise ConfigError("hamiltonian", "expected an object")
    sources = [k for k in ("ising", "terms", "circuit_file") if k in raw]
    if len(sources) != 1:
        raise ConfigError(
            "hamiltonian", "exactly one of ising | terms | circuit_file required"
        )
    if "ising" in raw:
        ising = raw["ising"]
        n = _require(ising, "n", int, "hamiltonian.ising.")
        h = float(ising.get("h", 0.0))
        periodic = bool(ising.get("periodic", True))
        j_scale = float(ising.get("j_scale", 1.0))
        ham = build_ising_chain(n, h, periodic=periodic, j_scale=j_scale)
        echo = {"ising": {"n": n, "h": h, "periodic": periodic, "j_scale": j_scale}}
        return ham, None, echo
    if "terms" in raw:
        entries = raw["terms"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("hamiltonian.terms", "expected a nonempty list")
        n = _require(raw, "n", int, "hamiltonian.")
        terms = [
            _pauli_term_matrix(e, f"hamiltonian.terms[{i}].")
            for i, e in enumerate(entries)
        ]
        ham = assemble(terms, n)
        return ham, None, {"n": n, "terms": entries}
    path = raw["circuit_file"]
    j_in = float(raw.get("j_in", 1e-3))
    j_prop = float(raw.get("j_prop", 1e-2))
    try:
        cs = circ.load_circuit(path)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise ConfigError("hamiltonian.circuit_file", str(exc)) from exc
    clock = circ.build_clock_hamiltonian(cs, j_in=j_in, j_prop=j_prop)
    echo = {"circuit_file": path, "j_in": j_in, "j_prop": j_prop,
            "n": cs.n, "t0": cs.t0, "total_gates": cs.total_gates}
    return clock.local, clock, echo


def _resolve_jumps(cfg, ham, clock):
    raw = cfg.get("jumps", {"preset": "pauli_x_all"})
    if not isinstance(raw, dict):
        raise ConfigError("jumps", "expected an object")
    if "preset" in raw:
        preset = raw["preset"]
        if preset == "pauli_x_all":
            n = ham.n
            jumps = [
                (f"X{j}", ops.kron_embed(ops.PAULI["X"], [j], n)) for j in range(n)
            ]
        elif preset == "pauli_xz_clock_plus_flip":
            if clock is None:
                raise ConfigError(
                    "jumps.preset",
                    "pauli_xz_clock_plus_flip needs a circuit hamiltonian",
                )
            jumps = circ.clock_jump_preset(clock.circuit)
        else:
            raise ConfigError("jumps.preset", f"unknown preset {preset!r}")
        return jumps, {"preset": preset}
    if "explicit" in raw:
        entries = raw["explicit"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("jumps.explicit", "expected a nonempty list")
        jumps = []
        for i, entry in enumerate(entries):
            mat, sites = _pauli_term_matrix(entry, f"jumps.explicit[{i}].")
            label = entry.get("label", f"J{i}")
            jumps.append((label, ops.kron_embed(mat, sites, ham.n)))
        return jumps, {"explicit": entries}
    raise ConfigError("jumps", "expected preset or explicit")


def _resolve_state(cfg, model, clock):
    raw = cfg.get("state", {"kind": "maximally_mixed"})
    if not isinstance(raw, dict):
        raise ConfigError("state", "expected an object")
    kind = raw.get("kind")
    n = int(np.log2(model.dim))
    if kind == "maximally_mixed":
        return ops.maximally_mixed(n), {"kind": kind}
    if kind == "basis":
        bits = _require(raw, "bits", str, "state.")
        if len(bits) != n or any(c not in "01" for c in bits):
            raise ConfigError("state.bits", f"expected a {n}-bit string")
        return ops.projector(ops.basis_state(bits)), {"kind": kind, "bits": bits}
    if kind == "ground":
        return _ground_state_projector_density(model), {"kind": kind}
    if kind == "history":
        if clock is None:
            raise ConfigError("state.kind", "history needs a circuit hamiltonian")
        vec = circ.history_state(clock.circuit)
        return ops.projector(vec), {"kind": kind}
    raise ConfigError("state.kind", f"unknown state kind {kind!r}")


def _ground_state_projector_density(model):
    p = model.sd.ground_projector
    return p / float(np.trace(p).real)


def _build_model(cfg, ham):
    bath_cfg = _resolve_bath(cfg)
    include_lamb = cfg.get("include_lamb_shift")
    include_coherent = bool(cfg.get("include_coherent", False))
    jumps_needed = True
    clock = None
    if bath_cfg["davies"] or bath_cfg["beta_infinite"]:
        bath = BathSpec(
            beta=bath_cfg["beta"], tau=bath_cfg["tau"], lambda0=bath_cfg["lambda0"]
        )
        return bath_cfg, dict(
            bath=bath,
            davies=True,
            beta_infinite=bath_cfg["beta_infinite"],
            beta_cap=bath_cfg["beta_cap"],
            include_lamb_shift=False,
            include_coherent=include_coherent,
        )
    bath = BathSpec(
        beta=bath_cfg["beta"], tau=bath_cfg["tau"], lambda0=bath_cfg["lambda0"]
    )
    return bath_cfg, dict(
        bath=bath,
        davies=False,
        beta_infinite=False,
        beta_cap=bath_cfg["beta_cap"],
        include_lamb_shift=include_lamb,
        include_coherent=include_coherent,
    )


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _scenario_grad(cfg, model, clock, echo, seed):
    rho, state_echo = _resolve_state(cfg, model, clock)
    echo["state"] = state_echo
    report = gradient_vector(model, rho)
    return {
        "labels": list(report.labels),
        "g": report.g,
        "grad_plus": report.grad_plus,
        "grad_minus": report.grad_minus,
        "inf_norm_minus": report.inf_norm_minus,
        "one_norm_minus": float(np.sum(report.grad_minus)),
        "energy": model.energy(rho),
    }, None


def _scenario_certify(cfg, model, clock, echo, seed):
    rho, state_echo = _resolve_state(cfg, model, clock)
    epsilon = cfg.get("epsilon", 1e-3)
    echo["state"] = state_echo
    echo["epsilon"] = epsilon
    cert = certify_local_min(model, rho, epsilon)
    return _certificate_dict(cert), None


def _scenario_ngc(cfg, model, clock, echo, seed):
    raw = cfg.get("ngc", {})
    if "r" in raw:
        r = float(raw["r"])
        shift = float(raw.get("epsilon", 0.0))
    elif "epsilon" in raw and "delta" in raw:
        r, shift = ngc_params(float(raw["epsilon"]), float(raw["delta"]))
    else:
        raise ConfigError("ngc", "expected r (+epsilon) or epsilon+delta")
    alpha = raw.get("alpha_hat")
    m = len(model.jumps)
    alpha = np.full(m, 1.0 / m) if alpha is None else np.asarray(alpha, dtype=float)
    echo["ngc"] = {"r": r, "epsilon": shift, "alpha_hat": alpha}
    holds, slack = negative_gradient_condition(
        model, alpha, model.sd.ground_projector, r, shift
    )
    return {"holds": bool(holds), "min_eigenvalue_slack": slack}, None


def _scenario_descend(cfg, model, clock, echo, seed):
    rho, state_echo = _resolve_state(cfg, model, clock)
    raw = cfg.get("descent", {})
    epsilon = float(raw.get("epsilon", cfg.get("epsilon", 1e-3)))
    norm_bound = float(raw.get("B", model.ham.norm_bound))
    max_steps = raw.get("max_steps")
    dcfg = DescentConfig(
        epsilon=epsilon,
        norm_bound=norm_bound,
        max_steps=None if max_steps is None else int(max_steps),
        noise=bool(raw.get("noise", False)),
        seed=seed,
        record_stride=int(raw.get("record_stride", 1)),
    )
    echo["state"] = state_echo
    echo["descent"] = {
        "epsilon": dcfg.epsilon,
        "B": dcfg.norm_bound,
        "max_steps": dcfg.max_steps,
        "grad_tol": dcfg.grad_tol,
        "trigger": dcfg.trigger,
        "noise": dcfg.noise,
        "record_stride": dcfg.record_stride,
    }
    try:
        trace, exhausted = thermal_gradient_descent(model, rho, dcfg), None
    except MaxStepsExceeded as exc:
        trace, exhausted = exc.trace, exc
    extra = {"energy": model.energy(trace.terminal_state)}
    if bool(cfg.get("report_ground_overlap", True)):
        p_g = model.sd.ground_projector
        extra["ground_overlap"] = float(
            np.trace(p_g @ trace.terminal_state).real
        )
    if exhausted is not None:
        extra["status"] = "max_steps"
    return ("trace", trace, extra, exhausted), None


def _scenario_ising(cfg, model, clock, echo, seed):
    epsilon = cfg.get("epsilon", 1e-3)
    echo["epsilon"] = epsilon
    n = model.ham.n
    certified = []
    rows = []
    reports = {}
    for idx in range(2**n):
        bits = format(idx, f"0{n}b")
        rho = ops.projector(ops.basis_state(bits))
        cert = certify_local_min(model, rho, epsilon)
        energy = model.energy(rho)
        rows.append((bits, energy, cert.inf_norm_minus, cert.kind))
        reports[bits] = _certificate_dict(cert)
        if cert.kind == "local_min_sufficient":
            certified.append(bits)
    return {"certified": certified, "reports": reports}, (
        ["bits", "energy", "inf_norm_minus", "kind"],
        rows,
    )


def _scenario_clockham(cfg, model, clock, echo, seed):
    if clock is None:
        raise ConfigError("hamiltonian", "clockham needs a circuit_file source")
    cs = clock.circuit
    block = circ.effective_prop_block(cs, "0" * cs.n, clock.j_prop)
    block_spectrum = np.linalg.eigvalsh(block)
    eta = circ.history_state(cs)
    w, v = ops.herm_eig(clock.h_total)
    ground_overlap = float(np.abs(v[:, 0].conj() @ eta) ** 2)
    return {
        "effective_block_spectrum": block_spectrum,
        "ground_energy": float(w[0]),
        "first_excited_energy": float(w[1]),
        "history_overlap_with_ground": ground_overlap,
        "xi": clock.xi,
        "couplings": {
            "j_clock": 1.0,
            "j_in": clock.j_in,
            "j_prop": clock.j_prop,
            "f": clock.f,
            "g": clock.g,
            "h": clock.h_couplings,
        },
    }, None


def _scenario_plateau(cfg, model_unused, clock, echo, seed):
    raw = cfg.get("plateau", {})
    n = _require(raw, "n", int, "plateau.")
    num_samples = int(raw.get("num_samples", 100))
    ham_entries = raw.get("hamiltonian_terms")
    if ham_entries:
        terms = [
            _pauli_term_matrix(e, f"plateau.hamiltonian_terms[{i}].")
            for i, e in enumerate(ham_entries)
        ]
        h_mat = assemble(terms, n).dense
    else:
        h_mat = build_ising_chain(n, h=0.5).dense
        h_mat = h_mat / ops.operator_norm(h_mat)
    obs_entry = raw.get("observable", {"pauli": "Z", "sites": [0]})
    o_small, o_sites = _pauli_term_matrix(obs_entry, "plateau.observable.")
    o_mat = ops.kron_embed(o_small, o_sites, n)
    gens = unitary.pauli_x_generators(n)
    stats = unitary.plateau_stats(n, h_mat, o_mat, gens, num_samples, seed)
    result = {
        "n": n,
        "num_samples": num_samples,
        "reference": stats.reference,
        "mean_max_gradient": stats.mean_max_gradient,
        "max_max_gradient": stats.max_max_gradient,
        "mean_obs_deviation": stats.mean_obs_deviation,
        "max_obs_deviation": stats.max_obs_deviation,
    }
    rows = [(i, g, d) for i, g, d in stats.rows]
    return result, (["sample_index", "max_abs_gradient", "obs_deviation"], rows)


def _scenario_kernels(cfg, model, clock, echo, seed):
    if model.davies:
        freqs = model.sd.bohr_freqs
        values = model.davies_gamma(freqs)
        rows = [(float(nu), float(nu), float(v), 0.0) for nu, v in zip(freqs, values)]
        return {
            "bohr_freqs": freqs,
            "davies": True,
            "gamma": values,
        }, (["nu_prime", "nu", "re", "im"], rows)
    table = model.kernels
    rows = []
    for i, np_ in enumerate(table.bohr_freqs):
        for j, nv in enumerate(table.bohr_freqs):
            rows.append((float(np_), float(nv), float(table.C[i, j].real),
                         float(table.C[i, j].imag)))
    result = {
        "bohr_freqs": table.bohr_freqs,
        "C": {"re": table.C.real, "im": table.C.imag},
        "quad_report": {
            "abs_tol": table.quad_report.abs_tol,
            "max_estimated_error": table.quad_report.max_estimated_error,
        },
        "davies": False,
    }
    if table.K is not None:
        result["K"] = {"re": table.K.real, "im": table.K.imag}
    return result, (["nu_prime", "nu", "re", "im"], rows)


_SCENARIO_FUNCS = {
    "grad": _scenario_grad,
    "certify": _scenario_certify,
    "ngc": _scenario_ngc,
    "descend": _scenario_descend,
    "ising": _scenario_ising,
    "clockham": _scenario_clockham,
    "plateau": _scenario_plateau,
    "kernels": _scenario_kernels,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(scenario, config_path, seed_override=None, output_override=None):
    """Run one scenario; returns (exit_code, result_object_or_None)."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error("config", str(exc))
        return 2, None
    try:
        result = _run_validated(scenario, cfg, seed_override, output_override)
        return 0, result
    except ConfigError as exc:
        _emit_error(exc.field, str(exc))
        return 2, None
    except (NumericalGuard, NonRealExpectation) as exc:
        _emit_error("numerical_guard", f"{type(exc).__name__}: {exc}")
        return 3, None
    except MaxStepsExceeded as exc:
        # the partial trace is already written, with terminal.status max_steps
        _emit_error("descent.max_steps", str(exc))
        return 3, None
    except ThermalLandscapeError as exc:
        _emit_error(f"scenario.{scenario}", f"{type(exc).__name__}: {exc}")
        return 2, None


def _run_validated(scenario, cfg, seed_override, output_override):
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {scenario!r}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top-level JSON object expected")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")
    declared = cfg.get("scenario")
    if declared is not None and declared != scenario:
        raise ConfigError(
            "scenario", f"config declares {declared!r}, invoked as {scenario!r}"
        )
    seed = seed_override if seed_override is not None else cfg.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed", "expected an integer")
    output = output_override or cfg.get("output")
    if output is None:
        raise ConfigError("output", "missing output path")
    csv_output = cfg.get("csv_output")

    echo = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "seed": seed,
    }
    if scenario == "plateau":
        model, clock = None, None
        echo["plateau"] = cfg.get("plateau", {})
    else:
        with _config_field("hamiltonian"):
            ham, clock, ham_echo = _resolve_hamiltonian(cfg)
        echo["hamiltonian"] = ham_echo
        bath_echo, model_kwargs = _build_model(cfg, ham)
        echo["bath"] = bath_echo
        with _config_field("jumps"):
            jumps, jump_echo = _resolve_jumps(cfg, ham, clock)
            echo["jumps"] = jump_echo
            model = build_model(ham, jumps, **model_kwargs)
        echo["include_lamb_shift"] = model.include_lamb_shift
        echo["include_coherent"] = model.include_coherent

    payload, csv_payload = _SCENARIO_FUNCS[scenario](cfg, model, clock, echo, seed)

    if isinstance(payload, tuple) and payload[0] == "trace":
        _, trace, extra, exhausted = payload
        result = emit_trace(trace, output, config_echo=echo, terminal_extra=extra)
        if exhausted is not None:
            raise exhausted
    else:
        result = {
            "schema_version": SCHEMA_VERSION,
            "config_echo": echo,
            "result": payload,
        }
        write_json(output, result)
    if csv_payload is not None and csv_output:
        header, rows = csv_payload
        write_csv(csv_output, header, rows)
    return result


def _emit_error(field, message):
    sys.stderr.write(
        json.dumps({"error": {"field": field, "message": message}}, sort_keys=True)
        + "\n"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thermal-landscape",
        description="Energy-landscape scenarios for thermally perturbed qubits",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a scenario config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    code, _ = run(args.scenario, args.config, args.seed, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
