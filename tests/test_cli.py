import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from thermal_landscape import cli
from thermal_landscape.errors import NonRealExpectation


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def qubit_hamiltonian_section():
    return {
        "n": 1,
        "terms": [
            {"pauli": "I", "sites": [0], "coeff": 0.5},
            {"pauli": "Z", "sites": [0], "coeff": -0.5},
        ],
    }


def certify_config(tmp_path, out="result.json"):
    return {
        "schema_version": 1,
        "scenario": "certify",
        "hamiltonian": qubit_hamiltonian_section(),
        "bath": {"beta": 10.0, "tau": 1.0, "davies": True},
        "jumps": {"preset": "pauli_x_all"},
        "state": {"kind": "basis", "bits": "1"},
        "epsilon": 0.01,
        "seed": 0,
        "output": str(tmp_path / out),
    }


def test_certify_scenario_qubit(tmp_path):
    cfg = certify_config(tmp_path)
    code, result = cli.run("certify", write_config(tmp_path, cfg))
    assert code == 0
    on_disk = json.loads((tmp_path / "result.json").read_text())
    assert on_disk == cli._jsonify(result)
    assert on_disk["result"]["kind"] == "not_local_min_necessary_violated"
    assert on_disk["result"]["witness"] == "X0"
    assert on_disk["config_echo"]["bath"]["davies"] is True


def test_grad_scenario(tmp_path):
    cfg = certify_config(tmp_path)
    cfg["scenario"] = "grad"
    code, result = cli.run("grad", write_config(tmp_path, cfg))
    assert code == 0
    g = result["result"]["g"]
    assert g[0] == pytest.approx(-0.13790758, abs=1e-6)


def test_clockham_scenario_identity_circuit(tmp_path):
    circuit = {
        "n": 1,
        "t0": 1,
        "gates": [{"name": "I", "sites": [0]}] * 3,
    }
    cpath = write_config(tmp_path, circuit, "circuit.json")
    j = 0.01
    cfg = {
        "schema_version": 1,
        "scenario": "clockham",
        "hamiltonian": {"circuit_file": cpath, "j_in": 1e-3, "j_prop": j},
        "bath": {"beta": 10.0, "tau": 1.0, "davies": True},
        "jumps": {"preset": "pauli_xz_clock_plus_flip"},
        "seed": 0,
        "output": str(tmp_path / "clock.json"),
    }
    code, result = cli.run("clockham", write_config(tmp_path, cfg))
    assert code == 0
    spec = result["result"]["effective_block_spectrum"]
    assert np.allclose(spec, [0.0, j, 2 * j, 3 * j], atol=1e-9)
    assert result["result"]["history_overlap_with_ground"] >= 1.0 - 1e-6


def test_malformed_config_negative_beta(tmp_path, capsys):
    cfg = certify_config(tmp_path)
    cfg["bath"]["beta"] = -2.0
    code, result = cli.run("certify", write_config(tmp_path, cfg))
    assert code == 2
    assert result is None
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["field"] == "bath.beta"


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = cli.run("certify", str(path))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["field"] == "config"


def test_scenario_mismatch_rejected(tmp_path):
    cfg = certify_config(tmp_path)
    code, _ = cli.run("grad", write_config(tmp_path, cfg))
    assert code == 2


def test_descend_scenario_trace_format(tmp_path):
    cfg = {
        "schema_version": 1,
        "scenario": "descend",
        "hamiltonian": qubit_hamiltonian_section(),
        "bath": {"beta": 10.0, "tau": 1.0, "davies": True},
        "jumps": {"preset": "pauli_x_all"},
        "state": {"kind": "basis", "bits": "1"},
        "descent": {"epsilon": 0.01, "B": 1.0},
        "seed": 0,
        "output": str(tmp_path / "trace.json"),
    }
    code, result = cli.run("descend", write_config(tmp_path, cfg))
    assert code == 0
    obj = json.loads((tmp_path / "trace.json").read_text())
    assert obj["schema_version"] == 1
    steps = obj["steps"]
    assert len(steps) > 0
    assert set(steps[0]) == {"i", "a", "g", "s", "e_before", "e_after"}
    e_after = [s["e_after"] for s in steps]
    assert all(b < a for a, b in zip(e_after, e_after[1:]))
    assert obj["terminal"]["certificate"]["kind"] == "local_min_sufficient"
    assert obj["terminal"]["ground_overlap"] >= 0.9


def test_clock_cooling_config_bound_covers_hamiltonian_norm():
    repo = Path(__file__).resolve().parents[1]
    cfg = json.loads((repo / "scripts/configs/clock_cooling_t3.json").read_text())
    assert cfg["scenario"] == "descend"
    cfg["hamiltonian"]["circuit_file"] = str(
        repo / cfg["hamiltonian"]["circuit_file"]
    )
    ham, _, _ = cli._resolve_hamiltonian(cfg)
    assert cfg["descent"]["B"] >= np.linalg.norm(ham.dense, 2)


def test_descend_ground_start_empty_steps(tmp_path):
    cfg = {
        "schema_version": 1,
        "scenario": "descend",
        "hamiltonian": qubit_hamiltonian_section(),
        "bath": {"beta": 10.0, "tau": 1.0, "davies": True},
        "jumps": {"preset": "pauli_x_all"},
        "state": {"kind": "basis", "bits": "0"},
        "descent": {"epsilon": 0.01, "B": 1.0},
        "seed": 0,
        "output": str(tmp_path / "trace.json"),
    }
    code, _ = cli.run("descend", write_config(tmp_path, cfg))
    assert code == 0
    obj = json.loads((tmp_path / "trace.json").read_text())
    assert obj["steps"] == []


def test_rerun_byte_identical(tmp_path):
    cfg = {
        "schema_version": 1,
        "scenario": "descend",
        "hamiltonian": qubit_hamiltonian_section(),
        "bath": {"beta": 10.0, "tau": 1.0, "davies": True},
        "jumps": {"preset": "pauli_x_all"},
        "state": {"kind": "basis", "bits": "1"},
        "descent": {"epsilon": 0.05, "B": 1.0, "noise": True},
        "seed": 7,
        "output": str(tmp_path / "a.json"),
    }
    path = write_config(tmp_path, cfg)
    assert cli.run("descend", path)[0] == 0
    assert cli.run("descend", path, output_override=str(tmp_path / "b.json"))[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_ising_scenario_certified_set(tmp_path):
    cfg = {
        "schema_version": 1,
        "scenario": "ising",
        "hamiltonian": {"ising": {"n": 4, "h": 1.0, "periodic": True}},
        "bath": {"beta": 5.0, "tau": 1.0, "lambda0": 4.0, "davies": True},
        "jumps": {"preset": "pauli_x_all"},
        "epsilon": 1e-3,
        "seed": 0,
        "output": str(tmp_path / "ising.json"),
        "csv_output": str(tmp_path / "ising.csv"),
    }
    code, result = cli.run("ising", write_config(tmp_path, cfg))
    assert code == 0
    assert sorted(result["result"]["certified"]) == ["0000", "1111"]
    lines = (tmp_path / "ising.csv").read_text().strip().splitlines()
    assert lines[0] == "bits,energy,inf_norm_minus,kind"
    assert len(lines) == 17


def test_kernels_scenario_round_trip(tmp_path):
    cfg = {
        "schema_version": 1,
        "scenario": "kernels",
        "hamiltonian": qubit_hamiltonian_section(),
        "bath": {"beta": 2.0, "tau": 20.0},
        "jumps": {"preset": "pauli_x_all"},
        "include_lamb_shift": True,
        "seed": 0,
        "output": str(tmp_path / "kern.json"),
        "csv_output": str(tmp_path / "kern.csv"),
    }
    code, result = cli.run("kernels", write_config(tmp_path, cfg))
    assert code == 0
    obj = json.loads((tmp_path / "kern.json").read_text())
    freqs = obj["result"]["bohr_freqs"]
    assert freqs == [-1.0, 0.0, 1.0]
    assert "K" in obj["result"]
    header = (tmp_path / "kern.csv").read_text().splitlines()[0]
    assert header == "nu_prime,nu,re,im"


def test_plateau_scenario_csv(tmp_path):
    cfg = {
        "schema_version": 1,
        "scenario": "plateau",
        "plateau": {"n": 4, "num_samples": 20,
                    "observable": {"pauli": "Z", "sites": [0]}},
        "seed": 3,
        "output": str(tmp_path / "plateau.json"),
        "csv_output": str(tmp_path / "plateau.csv"),
    }
    code, result = cli.run("plateau", write_config(tmp_path, cfg))
    assert code == 0
    assert result["result"]["reference"] == 0.0
    lines = (tmp_path / "plateau.csv").read_text().strip().splitlines()
    assert lines[0] == "sample_index,max_abs_gradient,obs_deviation"
    assert len(lines) == 21


def test_ngc_scenario(tmp_path):
    cfg = {
        "schema_version": 1,
        "scenario": "ngc",
        "hamiltonian": qubit_hamiltonian_section(),
        "bath": {"beta": 10.0, "tau": 1.0, "davies": True},
        "jumps": {"preset": "pauli_x_all"},
        "ngc": {"r": 0.13, "epsilon": 1e-5},
        "seed": 0,
        "output": str(tmp_path / "ngc.json"),
    }
    code, result = cli.run("ngc", write_config(tmp_path, cfg))
    assert code == 0
    assert result["result"]["holds"] is True


def test_result_reparses_and_echoes_defaults(tmp_path):
    cfg = certify_config(tmp_path)
    del cfg["seed"]
    code, result = cli.run("certify", write_config(tmp_path, cfg))
    assert code == 0
    obj = json.loads((tmp_path / "result.json").read_text())
    echo = obj["config_echo"]
    assert echo["seed"] == 0
    assert echo["bath"]["beta_cap"] == 1e6
    assert echo["include_coherent"] is False
    assert echo["epsilon"] == 0.01


def test_missing_output_rejected(tmp_path, capsys):
    cfg = certify_config(tmp_path)
    del cfg["output"]
    code, _ = cli.run("certify", write_config(tmp_path, cfg))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["field"] == "output"


def test_main_entry_point(tmp_path):
    cfg = certify_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert cli.main(["certify", path]) == 0
    assert cli.main(["certify", path, "--output", str(tmp_path / "o2.json")]) == 0
    assert (tmp_path / "o2.json").exists()


REPO = Path(__file__).resolve().parents[1]


def test_size_limit_exits_2_with_field_path(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "scenario": "ising",
        "hamiltonian": {"ising": {"n": 20, "h": 1.0}},
        "bath": {"beta": 5.0, "tau": 1.0, "davies": True},
        "jumps": {"preset": "pauli_x_all"},
        "output": str(tmp_path / "ising.json"),
    }
    code, result = cli.run("ising", write_config(tmp_path, cfg))
    assert (code, result) == (2, None)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip())
    assert record["error"]["field"] == "hamiltonian"
    assert "SizeLimit" in record["error"]["message"]


def test_unnormalized_explicit_jump_exits_2_with_field_path(tmp_path, capsys):
    cfg = certify_config(tmp_path)
    cfg["jumps"] = {"explicit": [{"pauli": "X", "sites": [0], "coeff": 2.0}]}
    code, _ = cli.run("certify", write_config(tmp_path, cfg))
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["field"] == "jumps"
    assert "JumpNotNormalized" in record["error"]["message"]
    assert not (tmp_path / "result.json").exists()


def test_error_inside_scenario_exits_2_on_scenario_field(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "scenario": "plateau",
        "plateau": {"n": 2, "num_samples": 2,
                    "observable": {"pauli": "Z", "sites": [5]}},
        "output": str(tmp_path / "plateau.json"),
    }
    code, result = cli.run("plateau", write_config(tmp_path, cfg))
    assert (code, result) == (2, None)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip())
    assert record["error"]["field"] == "scenario.plateau"
    assert "SiteOutOfRange" in record["error"]["message"]
    assert not (tmp_path / "plateau.json").exists()


def test_non_real_expectation_inside_scenario_exits_3(tmp_path, capsys, monkeypatch):
    def defect(*args):
        raise NonRealExpectation("imaginary part 1e-3 exceeds 1e-9 * ||obs||")

    monkeypatch.setitem(cli._SCENARIO_FUNCS, "certify", defect)
    code, result = cli.run("certify", write_config(tmp_path, certify_config(tmp_path)))
    assert (code, result) == (3, None)
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["field"] == "numerical_guard"
    assert "NonRealExpectation" in record["error"]["message"]


def test_exhausted_descent_budget_exits_3_and_keeps_partial_trace(tmp_path, capsys):
    cfg = json.loads((REPO / "scripts/configs/qubit_descend.json").read_text())
    cfg["descent"]["max_steps"] = 3
    cfg["output"] = str(tmp_path / "trace.json")
    code, result = cli.run("descend", write_config(tmp_path, cfg))
    assert (code, result) == (3, None)
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["field"] == "descent.max_steps"
    obj = json.loads((tmp_path / "trace.json").read_text())
    assert [st["i"] for st in obj["steps"]] == [1, 2, 3]
    assert obj["terminal"]["status"] == "max_steps"
    assert "certificate" not in obj["terminal"]
    assert obj["terminal"]["energy"] == obj["steps"][-1]["e_after"]
    assert obj["config_echo"]["descent"]["max_steps"] == 3


def test_clock_cooling_config_resolves_from_any_directory(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "clock_cooling", REPO / "scripts" / "clock_cooling.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(tmp_path)
    cfg = script.load_config()
    circuit = Path(cfg["hamiltonian"]["circuit_file"])
    assert circuit.is_absolute()
    assert circuit == REPO / "scripts" / "configs" / "circuit_x_t3.json"
    ham, clock, _ = cli._resolve_hamiltonian(cfg)
    assert clock.circuit.n == 1 and ham.dense.shape == (16, 16)


@pytest.mark.parametrize("field, value", [
    ("max_steps", 0),
    ("record_stride", 0),
    ("epsilon", "small"),
])
def test_bad_descent_field_exits_2_with_field_path(tmp_path, capsys, field, value):
    cfg = json.loads((REPO / "scripts/configs/qubit_descend.json").read_text())
    cfg["descent"][field] = value
    cfg["output"] = str(tmp_path / "trace.json")
    code, result = cli.run("descend", write_config(tmp_path, cfg))
    assert (code, result) == (2, None)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip())["error"]["field"] == f"descent.{field}"
    assert not (tmp_path / "trace.json").exists()


def _ising_config(tmp_path, h):
    return {
        "schema_version": 1,
        "scenario": "ising",
        "hamiltonian": {"ising": {"n": 2, "h": h}},
        "bath": {"beta": 5.0, "tau": 1.0, "davies": True},
        "jumps": {"preset": "pauli_x_all"},
        "output": str(tmp_path / "ising.json"),
    }


def _assert_config_error(code, result, capsys, field):
    assert (code, result) == (2, None)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip())["error"]["field"] == field


def test_ising_string_field_exits_2_with_field_path(tmp_path, capsys):
    code, result = cli.run("ising", write_config(tmp_path, _ising_config(tmp_path, "abc")))
    _assert_config_error(code, result, capsys, "hamiltonian.ising.h")
    assert not (tmp_path / "ising.json").exists()


def test_ising_null_field_exits_2_with_field_path(tmp_path, capsys):
    code, result = cli.run("ising", write_config(tmp_path, _ising_config(tmp_path, None)))
    _assert_config_error(code, result, capsys, "hamiltonian.ising.h")
    assert not (tmp_path / "ising.json").exists()


def test_certify_non_numeric_epsilon_exits_2_with_field_path(tmp_path, capsys):
    cfg = certify_config(tmp_path)
    cfg["epsilon"] = "x"
    code, result = cli.run("certify", write_config(tmp_path, cfg))
    _assert_config_error(code, result, capsys, "epsilon")
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("alpha_hat", [
    "abc", [1.0, 2.0, 3.0], [0.5], [-1.0], [float("nan")], [True],
], ids=["string", "wrong_length", "not_unit_sum", "negative", "nan", "bool"])
def test_ngc_bad_alpha_hat_exits_2_with_field_path(tmp_path, capsys, alpha_hat):
    cfg = certify_config(tmp_path, out="ngc.json")  # the qubit has one jump
    cfg.update(scenario="ngc", ngc={"r": 0.13, "epsilon": 1e-5, "alpha_hat": alpha_hat})
    code, result = cli.run("ngc", write_config(tmp_path, cfg))
    _assert_config_error(code, result, capsys, "ngc.alpha_hat")
    assert not (tmp_path / "ngc.json").exists()


def test_ngc_section_not_an_object_exits_2(tmp_path, capsys):
    cfg = certify_config(tmp_path, out="ngc.json")
    cfg.update(scenario="ngc", ngc=3)
    code, result = cli.run("ngc", write_config(tmp_path, cfg))
    _assert_config_error(code, result, capsys, "ngc")


def test_ngc_integer_alpha_hat_is_accepted(tmp_path):
    cfg = certify_config(tmp_path, out="ngc.json")
    cfg.update(scenario="ngc", ngc={"r": 0.13, "epsilon": 1e-5, "alpha_hat": [1]})
    code, result = cli.run("ngc", write_config(tmp_path, cfg))
    assert code == 0
    assert result["result"]["holds"] is True


def _old_trace_bytes(trace, config_echo, terminal_extra):
    """The trace record as written before steps skipped ``_jsonify``: the
    whole object through ``_jsonify``, then ``json.dumps(indent=2)``."""
    terminal = {"energy": trace.steps[-1].e_after} if trace.steps else {}
    terminal.update(terminal_extra)
    obj = {
        "schema_version": cli.SCHEMA_VERSION,
        "config_echo": config_echo,
        "steps": [{"i": st.index, "a": st.jump, "g": st.g, "s": st.s,
                   "e_before": st.e_before, "e_after": st.e_after} for st in trace.steps],
        "terminal": terminal,
    }
    return (json.dumps(cli._jsonify(obj), sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("numpy_step", [False, True])
def test_emit_trace_bytes_match_the_full_jsonify_writer(tmp_path, numpy_step):
    from thermal_landscape.descent import DescentTrace, StepRecord

    steps = [
        StepRecord(1, 'X0, "quoted"', -0.125, 1e-3, 0.5, 0.4999),
        StepRecord(2, "Ψ→ü, 'x'", -1.0 / 3.0, 2.5e-17, 0.4999, 0.1 + 0.2),
        StepRecord(7, "J\\n\t", -7e-300, 1e300, -0.0, float("1e-5")),
    ]
    if numpy_step:  # a record that is not JSON-native takes the _jsonify path
        steps.append(StepRecord(np.int64(8), "X0", np.float64(-0.5), np.float32(0.25),
                                np.float64(0.1), 0.05))
    trace = DescentTrace(steps=steps, terminal_state=np.eye(2) / 2,
                         terminal_certificate=None, terminated_early=False)
    echo = {"epsilon": np.float64(1e-3), "n": np.int64(4), "flag": np.bool_(True),
            "alpha": np.array([0.5, 0.25]), "pair": (1, 2.0), "z": complex(1.0, -2.0),
            "label": 'a, "b" ß'}
    extra = {"energy": np.float64(0.25), "ground_overlap": np.float32(0.5)}
    path = tmp_path / "trace.json"
    cli.emit_trace(trace, str(path), config_echo=echo, terminal_extra=extra)
    assert path.read_bytes() == _old_trace_bytes(trace, echo, extra)


_EDGE_STEPS = {
    "no_steps": [],
    "one_step": [(3, "Z1", -0.25, 1e-4, 0.75, 0.5)],
    "nan_g": [(1, "X0", -0.5, 1e-3, 0.5, 0.25), (2, "X0", float("nan"), 0.0, 0.25, 0.25)],
    "inf_energy": [(1, "X0", -0.5, 1e-3, float("inf"), -float("inf"))],
    "echo_steps": [(1, '"steps": []', -0.5, 1e-3, 0.5, 0.25), (2, "X1", -0.1, 2e-3, 0.25, 0.2)],
}


@pytest.mark.parametrize("case", sorted(_EDGE_STEPS))
def test_emit_trace_template_edge_cases(tmp_path, case):
    """The template writer matches ``json.dumps`` with no steps, one step,
    non-finite numbers (which take the general path) and a config echo
    that holds a ``"steps": []`` of its own at several depths."""
    from thermal_landscape.descent import DescentTrace, StepRecord

    steps = [StepRecord(*rec) for rec in _EDGE_STEPS[case]]
    trace = DescentTrace(steps=steps, terminal_state=np.eye(2) / 2,
                         terminal_certificate=None, terminated_early=False)
    echo = {"steps": [], "descent": {"steps": [], "note": '\n  "steps": []'}, "x": 1.5}
    extra = {"status": "ok"}
    path = tmp_path / "trace.json"
    cli.emit_trace(trace, str(path), config_echo=echo, terminal_extra=extra)
    assert path.read_bytes() == _old_trace_bytes(trace, echo, extra)
    assert len(json.loads(path.read_text())["steps"]) == len(steps)
