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
