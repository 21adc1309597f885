"""The CLI's exit-code contract, held by one checker: every config ends in a report (exit 0), a refusal at
a config path (exit 2) or a numerical failure (exit 3), and pyproject's filterwarnings makes a Python warning an
error.  Five small bases, each of which runs clean, are edited at every site: each key they hold, and in each
object every other key its schema names and one it does not.  A fixed grid of values is set at every site, and
hypothesis draws more."""
import copy
import csv
import io
import json
import math
from dataclasses import MISSING, fields
from functools import reduce
from operator import getitem

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casfric.cli import _PROFILES, _SCAN_KEYS, _TOP_LEVEL_KEYS, CSV_HEADER, ConfigError, load_config, main
from casfric.core import PhysicalParams, TimeGrid

BASES = {
    "grid": {"scenario_id": "sweep", "params": {"mass": 1.0, "omega": 1.0, "hbar": 1.0}, "tail_rel": 1e-6,
             "profile": {"type": "gaussian_pulse", "q0": 0.01, "tau": 1.0}, "scan": None,
             "grid": {"t_start": -6.0, "t_end": 6.0, "n_samples": 61}, "fock_truncation": 3,
             "routes": ["barton", "hb", "mode_oracle", "fock_oracle"], "fock_substeps": 3, "mode_substeps": 3},
    "amplitude": {"params": {"mass": 1.0, "omega": 1.0}, "grid": {"t_start": 0.0, "t_end": 12.0, "n_samples": 61},
                  "profile": {"type": "exponential_ramp", "gamma": 0.001, "eta": 1.0}, "routes": ["hb"],
                  "scan": {"kind": "amplitude", "values": [0.001, 0.002]}},
    "eta": {"params": {"mass": 1.0, "omega": 1.0}, "profile": {"type": "symmetric_ramp", "gamma": 0.001, "eta": 1.0},
            "routes": ["hb"], "scan": {"kind": "eta", "values": [1.0, 2.0], "dt": 0.1, "tail_rel": 1e-6}},
    "sampled": {"params": {"mass": 1.0, "omega": 1.0}, "grid": {"t_start": -2.0, "t_end": 2.0, "n_samples": 9},
                "profile": {"type": "sampled", "grid": {"t_start": -2.0, "t_end": 2.0, "n_samples": 5},
                            "values": [0.0, 0.001, 0.002, 0.001, 0.0]}, "routes": ["barton", "hb"]},
    "flyby": {"params": {"mass": 1.0, "omega": 1.0}, "profile": {"type": "flyby", "charge": 1.0, "d": 1.0, "v": 1.0},
              "grid": {"t_start": -20.0, "t_end": 20.0, "n_samples": 81}, "routes": ["hb"]},
}

# an edit that deletes its key, a key no object accepts, and the NaN and Infinity tokens
DELETE, UNKNOWN, NAN, INF = object(), "surplus", float("nan"), float("inf")
VALUES = [None, True, False, "", "hb", "0.001", [], {}, [[0.1]], ["0.001", True], [1.0, 1.0],
          0, 1, -1, 2, 3, 1.5, 1e308, -1e308, 5e-324, 1e-300, 10**400, 2**63, 1e6,
          NAN, INF, -INF, -0.0, 1e-320, DELETE]
# the text alphabet favours the characters that delimit CSV cells and rows
DRAWN = (st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300) | st.sampled_from([NAN, INF, -INF])
         | st.text(st.sampled_from(',"#\r\n') | st.characters(exclude_categories=()))
         | st.sampled_from([None, True, False, [], {}, [1.0], DELETE]))
# the keys that hold a number, and those a config must hold
FIELDS = [field for cls in (PhysicalParams, TimeGrid, *_PROFILES.values()) for field in fields(cls)]
NUMERIC = {field.name for field in FIELDS} | {"fock_truncation", "fock_substeps", "mode_substeps", "tail_rel", "dt"}
REQUIRED = {field.name for field in FIELDS if field.default is MISSING}
REQUIRED |= {"params", "profile", "grid", "routes", "type", "kind", "values"}


def schema(node, path):
    """The keys the loader accepts in the object ``node`` at ``path``."""
    if path in ((), ("scan",)):
        return _SCAN_KEYS[node["kind"]] if path else _TOP_LEVEL_KEYS
    if path == ("profile",):
        kind = node["type"]
        return ("type", *(field.name for field in fields(_PROFILES[kind]))) if kind in _PROFILES else tuple(node)
    return tuple(field.name for field in fields(PhysicalParams if path == ("params",) else TimeGrid))


def sites(node, path=()):
    """Every key path into ``node``, and in each object every schema key it lacks and UNKNOWN."""
    if isinstance(node, dict):
        yield from ((*path, key) for key in (*schema(node, path), UNKNOWN) if key not in node)
    for key, child in node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ():
        yield (*path, key)
        yield from sites(child, (*path, key))


def label(path):
    """The config path the loader names ``path`` by."""
    text = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return f"config{text}" if len(path) == 1 else text[1:]


def edit(base, path, value):
    """``base`` with ``value`` at ``path``, or without that key for DELETE; and the path its refusal must
    name, for a non-number at a number, a required key deleted or an unknown key set, else None."""
    config = copy.deepcopy(base)
    parent, key = reduce(getitem, path[:-1], config), path[-1]
    if value is not DELETE:
        parent[key] = value
        number = type(value) is int or type(value) is float and math.isfinite(value)
        named = key == UNKNOWN or not number and (key in NUMERIC or path[-2:-1] == ("values",))
    else:
        named = key in REQUIRED and key in parent  # REQUIRED holds no list index
        if isinstance(parent, list) or key in parent:
            del parent[key]
    return config, label(path) if named else None


def check(tmp_path, capsys, config, at=None):
    """Run the CLI on ``config`` and assert the contract, with a refusal at ``at`` if given; return the exit code."""
    text, file = json.dumps(config), tmp_path / "contract.json"
    file.write_text(text)
    try:
        scenario, refusal = load_config(file), None
    except ConfigError as exc:
        scenario, refusal = None, f"error: {exc}\n"
    code = main([str(file)])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3) and (code == 2) == (refusal is not None), (text, code, err)
    assert at is None or str(refusal).startswith(f"error: {at}: "), (text, at, refusal)
    if code:  # one stderr line: load_config's refusal, or the numerical failure
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (text, code, err)
        assert err == refusal if code == 2 else err.startswith("numerical failure: "), (text, err)
        return code
    points = len(scenario.run.points)
    header, *records = csv.reader(io.StringIO(out, newline=""))
    assert header == CSV_HEADER.split(",") and out.endswith("\n"), (text, out)
    assert len(records) == points + (points + 3 if scenario.run.kind == "eta" else 0), (text, out)
    assert all(len(row) == len(header) and row[0][:1] != "#" for row in records[:points]), (text, out)
    assert all(row[0].startswith("# adiabatic") for row in records[points:]), (text, out)
    assert err == "" or err.startswith("warning: ") and err.count("\n") == 1, (text, err)
    return code


SITES = [(name, path) for name, base in BASES.items() for path in sites(base)]


def test_the_bases_hold_every_profile_type_and_scan_kind():
    assert {base["profile"]["type"] for base in BASES.values()} == {*_PROFILES, "sampled"}
    assert {base["scan"]["kind"] for base in BASES.values() if base.get("scan")} == set(_SCAN_KEYS)


@pytest.mark.parametrize("name", BASES)
def test_every_base_runs_clean(tmp_path, capsys, name):
    assert check(tmp_path, capsys, BASES[name]) == 0


@pytest.mark.parametrize("name, path", SITES, ids=[f"{name}:{label(path)}" for name, path in SITES])
def test_every_value_at_every_site_keeps_the_contract(tmp_path, capsys, name, path):
    for value in VALUES:
        check(tmp_path, capsys, *edit(BASES[name], path, value))


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(site=st.sampled_from(SITES), value=DRAWN)
def test_a_drawn_value_at_any_site_keeps_the_contract(tmp_path, capsys, site, value):
    check(tmp_path, capsys, *edit(BASES[site[0]], site[1], value))
