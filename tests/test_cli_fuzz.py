"""The CLI's exit-code contract under malformed configs: one field of a
recorded config set to a wrong value exits 0, 2 or 3, never with a raw
traceback, and the listed cases exit 2 on the field they name."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermal_landscape import cli

REPO = Path(__file__).resolve().parents[1]
CONFIGS = {name: json.loads((REPO / "scripts" / "configs" / f"{name}.json").read_text())
           for name in ("qubit_certify", "qubit_descend")}
SCENARIOS = {"qubit_certify": "certify", "qubit_descend": "descend"}
BAD_VALUES = ["x", None, True, [1], {"a": 1}, math.nan, -1, -2.5, 1e308, 10**30]
B_MAX = 10.0  # a larger finite B gives a step budget 42 B^3 / epsilon^2 that never ends


def _leaves(obj, path=()):
    """Paths of every non-container value of a parsed JSON config."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


def _set_leaf(cfg, path, value):
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _run(name, cfg):
    """(exit code, stderr) of ``thermal-landscape <scenario> cfg`` run in a
    fresh directory, so a mutated ``output`` path lands there."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            with contextlib.redirect_stderr(err):
                code = cli.main([SCENARIOS[name], "config.json"])
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


def _keeps_descent_finite(path, value):
    if path != ("descent", "B"):
        return True
    return not (isinstance(value, (int, float)) and not isinstance(value, bool)
                and B_MAX < value < math.inf)


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    path = draw(st.sampled_from(_leaves(CONFIGS[name])))
    value = draw(st.sampled_from(BAD_VALUES).filter(
        lambda v: _keeps_descent_finite(path, v)))
    return name, path, value


@settings(max_examples=200, deadline=None)
@given(_mutations())
def test_mutated_config_keeps_the_exit_code_contract(mutation):
    name, path, value = mutation
    code, err = _run(name, _set_leaf(CONFIGS[name], path, value))
    assert code in (0, 2, 3), (path, value, code, err)
    assert "Traceback" not in err, (path, value, err)


@pytest.mark.parametrize("name, path, value, field", [
    ("qubit_descend", ("hamiltonian", "terms", 0), 5, "hamiltonian.terms[0]"),
    ("qubit_descend", ("hamiltonian", "terms", 1), None, "hamiltonian.terms[1]"),
    ("qubit_descend", ("hamiltonian", "terms", 0, "coeff"), math.nan,
     "hamiltonian.terms[0].coeff"),
    ("qubit_descend", ("bath", "tau"), math.nan, "bath.tau"),
    ("qubit_descend", ("bath", "beta"), math.nan, "bath.beta"),
    ("qubit_descend", ("bath", "lambda0"), math.nan, "bath.lambda0"),
    ("qubit_descend", ("descent", "B"), 1e308, "descent.B"),
    ("qubit_descend", ("descent", "epsilon"), 1e308, "descent.epsilon"),
    ("qubit_descend", ("bath", "lambda0"), 1e308, "bath.lambda0"),
    ("qubit_descend", ("hamiltonian", "n"), -1, "hamiltonian.n"),
    ("qubit_certify", ("epsilon",), math.inf, "epsilon"),
    ("qubit_certify", ("output",), True, "output"),
])
def test_malformed_field_exits_2_naming_it(name, path, value, field):
    code, err = _run(name, _set_leaf(CONFIGS[name], path, value))
    assert code == 2, err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"]["field"] == field


@pytest.mark.parametrize("name, path", [
    ("qubit_certify", ("bath", "davies")),
    ("qubit_certify", ("bath", "beta_infinite")),
    ("qubit_certify", ("include_coherent",)),
    ("qubit_descend", ("descent", "noise")),
    ("qubit_descend", ("report_ground_overlap",)),
    ("ising_landscape_h0", ("hamiltonian", "ising", "periodic")),
])
@pytest.mark.parametrize("value", ["x", None, 1, []], ids=["str", "null", "int", "list"])
def test_non_boolean_flag_exits_2_naming_it(name, path, value, monkeypatch):
    cfg = json.loads((REPO / "scripts" / "configs" / f"{name}.json").read_text())
    monkeypatch.setitem(SCENARIOS, name, cfg["scenario"])
    code, err = _run(name, _set_leaf(cfg, path, value))
    assert code == 2, err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"]["field"] == ".".join(path)


@pytest.mark.parametrize("value, code", [("x", 2), (1, 2), ([], 2), (None, 0), (True, 0)])
def test_lamb_shift_flag_is_a_boolean_or_null(value, code):
    cfg = _set_leaf(CONFIGS["qubit_certify"], ("bath", "davies"), False)
    got, err = _run("qubit_certify", _set_leaf(cfg, ("include_lamb_shift",), value))
    assert got == code, err
    if code == 2:
        assert json.loads(err.strip().splitlines()[-1])["error"]["field"] == "include_lamb_shift"


def test_overflowing_hamiltonian_exits_3():
    cfg = _set_leaf(CONFIGS["qubit_certify"], ("hamiltonian", "terms", 0, "coeff"), 1e308)
    code, err = _run("qubit_certify", cfg)
    assert code == 3, err
    assert "Traceback" not in err
    record = json.loads(err.strip().splitlines()[-1])["error"]
    assert record["field"] == "numerical_guard"
    assert record["message"].startswith("NonFiniteValue")
