"""The exit-code contract over the config schema: every path of five small
configs, set in turn to each value of one fixed list, ends in exit 0, 2
or 3, never in a traceback or a Python warning, and a refusal is one
stderr line with nothing on stdout."""
import copy
import dataclasses
import json

import pytest

from casfric.cli import _PROFILES, _SCAN_KEYS, _TOP_LEVEL_KEYS, main
from casfric.core import PhysicalParams, TimeGrid

BASES = {
    "grid": {
        "scenario_id": "sweep",
        "params": {"mass": 1.0, "omega": 1.0, "hbar": 1.0},
        "profile": {"type": "gaussian_pulse", "q0": 0.01, "tau": 1.0},
        "grid": {"t_start": -6.0, "t_end": 6.0, "n_samples": 61},
        "routes": ["barton", "hb", "mode_oracle", "fock_oracle"],
        "fock_truncation": 3,
        "fock_substeps": 2,
        "mode_substeps": 2,
        "tail_rel": 1e-6,
        "scan": None,
    },
    "amplitude": {
        "params": {"mass": 1.0, "omega": 1.0},
        "profile": {"type": "exponential_ramp", "gamma": 0.001, "eta": 1.0},
        "grid": {"t_start": 0.0, "t_end": 12.0, "n_samples": 61},
        "routes": ["hb"],
        "scan": {"kind": "amplitude", "values": [0.001, 0.002]},
    },
    "eta": {
        "params": {"mass": 1.0, "omega": 1.0},
        "profile": {"type": "symmetric_ramp", "gamma": 0.001, "eta": 1.0},
        "routes": ["hb"],
        "scan": {"kind": "eta", "values": [1.0, 2.0], "dt": 0.1, "tail_rel": 1e-6},
    },
    "sampled": {
        "params": {"mass": 1.0, "omega": 1.0},
        "profile": {"type": "sampled", "grid": {"t_start": -2.0, "t_end": 2.0, "n_samples": 5},
                    "values": [0.0, 0.001, 0.002, 0.001, 0.0]},
        "grid": {"t_start": -2.0, "t_end": 2.0, "n_samples": 9},
        "routes": ["barton", "hb"],
    },
    "flyby": {
        "params": {"mass": 1.0, "omega": 1.0},
        "profile": {"type": "flyby", "charge": 1.0, "d": 1.0, "v": 1.0},
        "grid": {"t_start": -20.0, "t_end": 20.0, "n_samples": 81},
        "routes": ["hb"],
    },
}

VALUES = [None, True, False, "", "hb", "0.001", [], {}, [[0.1]], ["0.001", True], [1.0, 1.0],
          0, 1, -1, 2, 3, 1.5, 1e308, -1e308, 5e-324, 1e-300, 10**400, 2**63, 1e6]


def paths(node, prefix=()):
    """Every key path into ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from paths(child, (*prefix, key))


def with_value(base, path, value):
    config = copy.deepcopy(base)
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config


def run(tmp_path, capsys, config):
    """What is wrong with the CLI's run of ``config``: a list of faults."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    try:
        code = main([str(path)])
    except Exception as exc:  # a traceback, or a warning raised as an error
        capsys.readouterr()
        return [f"{type(exc).__name__}: {exc}"]
    out, err = capsys.readouterr()
    if code not in (0, 2, 3):
        return [f"exit {code}"]
    if code and out:
        return [f"exit {code} wrote to stdout"]
    if code and not (err.count("\n") == 1 and err.endswith("\n")):
        return [f"exit {code} with stderr {err!r}"]
    return []


def test_the_bases_cover_every_schema_field():
    assert set(_TOP_LEVEL_KEYS) <= {key for base in BASES.values() for key in base}
    scans = {base["scan"]["kind"]: set(base["scan"]) for base in BASES.values() if base.get("scan")}
    assert scans == {kind: set(keys) for kind, keys in _SCAN_KEYS.items()}
    profiles = {base["profile"]["type"]: set(base["profile"]) - {"type"} for base in BASES.values()}
    for kind, cls in _PROFILES.items():
        assert profiles[kind] == {field.name for field in dataclasses.fields(cls)}, kind
    assert profiles["sampled"] == {"grid", "values"}
    for key, cls in (("params", PhysicalParams), ("grid", TimeGrid)):
        assert set(BASES["grid"][key]) == {field.name for field in dataclasses.fields(cls)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BASES)
def test_every_value_at_every_path_ends_in_an_exit_code(tmp_path, capsys, name):
    base = BASES[name]
    assert run(tmp_path, capsys, base) == []
    faults = []
    for path in paths(base):
        label = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
        for value in VALUES:
            faults += [f"{name}{label} = {str(value)[:20]}: {fault}"
                       for fault in run(tmp_path, capsys, with_value(base, path, value))]
    assert faults == [], "\n".join(faults)
