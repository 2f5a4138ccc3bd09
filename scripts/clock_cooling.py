#!/usr/bin/env python3
"""End-to-end cooling of the T = 3 circuit Hamiltonian via the CLI.

Runs the recorded descend scenario (``scripts/configs/clock_cooling_t3.json``)
from the maximally mixed state and reports the terminal ground overlap.
This is the long-running qualitative check; expect a few minutes.  It runs
from any working directory: the config's circuit file is resolved against
the repository root.
"""

import argparse
import json
import tempfile
from pathlib import Path

from thermal_landscape import cli

CONFIG = Path(__file__).resolve().parent / "configs" / "clock_cooling_t3.json"
REPO = CONFIG.parents[2]


def load_config():
    """The recorded config with ``hamiltonian.circuit_file`` made absolute
    under the repository root (an absolute path is kept as it is)."""
    cfg = json.loads(CONFIG.read_text(encoding="utf-8"))
    ham = cfg["hamiltonian"]
    ham["circuit_file"] = str(REPO / ham["circuit_file"])
    return cfg


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="clock_cooling_trace.json")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / CONFIG.name
        path.write_text(json.dumps(load_config()), encoding="utf-8")
        code, result = cli.run("descend", str(path), output_override=args.output)
    if code != 0:
        raise SystemExit(code)
    terminal = result["terminal"]
    print(json.dumps({
        "steps": result["steps"][-1]["i"] if result["steps"] else 0,
        "terminal_energy": terminal.get("energy"),
        "ground_overlap": terminal.get("ground_overlap"),
        "certificate": terminal.get("certificate", {}).get("kind"),
    }, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
