"""Scenario configs, report rendering, exit codes, and determinism."""
import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from casfric.cli import (
    _PROFILES,
    CSV_HEADER,
    ConfigError,
    ScenarioResult,
    emit_report,
    load_config,
    main,
    run_scenario,
)
from casfric import adiabatic_scan
from casfric.core import MAX_GRID_SAMPLES, PhysicalParams, TimeGrid
from casfric.dissipation import SCAN_TAIL_REL_DEFAULT
from cli_probes import PROBES, run_all, stderr_matches, write_probe

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def write_config(tmp_path, body, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body) if isinstance(body, dict) else body)
    return path


def small_benchmark(**overrides):
    body = {
        "scenario_id": "small-benchmark",
        "params": {"mass": 1.0, "omega": 1.0},
        "profile": {"type": "gaussian_pulse", "q0": 0.01, "tau": 1.0},
        "grid": {"t_start": -12.0, "t_end": 12.0, "n_samples": 1201},
        "routes": ["barton", "hb", "mode_oracle", "fock_oracle"],
        "fock_truncation": 6,
        "fock_substeps": 2,
    }
    body.update(overrides)
    return body


def eta_scan_config(**scan):
    return {
        "params": {"mass": 1.0, "omega": 1.0},
        "profile": {"type": "symmetric_ramp", "gamma": 0.001, "eta": 1.0},
        "routes": ["hb"],
        "scan": {"kind": "eta", "values": [0.1], **scan},
    }


class TestConfigValidation:
    def test_valid_config_loads(self, tmp_path):
        scenario = load_config(write_config(tmp_path, small_benchmark()))
        assert scenario.scenario_id == "small-benchmark"
        assert scenario.routes == ("barton", "hb", "mode_oracle", "fock_oracle")

    def test_a_null_scan_is_absent(self, tmp_path):
        assert load_config(write_config(tmp_path, small_benchmark(scan=None))).scan is None

    def test_a_null_grid_is_absent_in_an_eta_scan(self, tmp_path):
        scenario = load_config(write_probe(PROBES["eta_grid_null"], tmp_path)[0])
        assert scenario.grid is None and scenario.scan.kind == "eta"

    def test_a_null_tail_rel_is_not_a_number_in_a_grid_config(self, tmp_path, capsys):
        # the eta scan's case is the probe eta_tail_rel_null
        assert main([str(write_config(tmp_path, small_benchmark(tail_rel=None)))]) == 2
        assert capsys.readouterr().err == "error: config.tail_rel: expected a number, got None\n"

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = write_config(tmp_path, '{\n  "params": {,}\n}')
        with pytest.raises(ConfigError, match=r"line 2, column 14"):
            load_config(path)

    def test_missing_field_reports_its_path(self, tmp_path):
        body = small_benchmark()
        del body["profile"]
        with pytest.raises(ConfigError, match=r"config\.profile"):
            load_config(write_config(tmp_path, body))
        body = small_benchmark()
        del body["params"]["omega"]
        with pytest.raises(ConfigError, match=r"params\.omega"):
            load_config(write_config(tmp_path, body))

    def test_unknown_profile_type(self, tmp_path):
        body = small_benchmark(profile={"type": "square_wave", "q0": 1.0})
        with pytest.raises(ConfigError, match="square_wave"):
            load_config(write_config(tmp_path, body))

    def test_unknown_route(self, tmp_path):
        body = small_benchmark(routes=["barton", "kubo"])
        with pytest.raises(ConfigError, match=r"routes\[1\]"):
            load_config(write_config(tmp_path, body))

    def test_empty_routes(self, tmp_path):
        body = small_benchmark(routes=[])
        with pytest.raises(ConfigError, match="at least one route"):
            load_config(write_config(tmp_path, body))

    def test_empty_scan_list(self, tmp_path):
        body = small_benchmark(scan={"kind": "amplitude", "values": []})
        with pytest.raises(ConfigError, match="nonempty"):
            load_config(write_config(tmp_path, body))

    def test_eta_scan_requires_a_ramp(self, tmp_path):
        body = small_benchmark(scan={"kind": "eta", "values": [0.1]})
        with pytest.raises(ConfigError, match="ramp"):
            load_config(write_config(tmp_path, body))

    def test_amplitude_scan_rejects_flyby(self, tmp_path):
        body = small_benchmark(
            profile={"type": "flyby", "charge": 1.0, "d": 1.0, "v": 1.0},
            scan={"kind": "amplitude", "values": [0.1]},
        )
        with pytest.raises(ConfigError, match="amplitude"):
            load_config(write_config(tmp_path, body))

    def test_grid_required_without_eta_scan(self, tmp_path):
        body = small_benchmark()
        del body["grid"]
        with pytest.raises(ConfigError, match=r"config\.grid"):
            load_config(write_config(tmp_path, body))

    def test_physical_validation_is_surfaced(self, tmp_path):
        body = small_benchmark(params={"mass": -1.0, "omega": 1.0})
        with pytest.raises(ConfigError, match="mass"):
            load_config(write_config(tmp_path, body))


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        assert main([str(write_config(tmp_path, small_benchmark()))]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER + "\n")

    def test_config_error_is_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "{not json")
        assert main([str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_is_exit_two(self, tmp_path):
        assert main([str(tmp_path / "absent.json")]) == 2

    def test_seedless_flag_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, small_benchmark())
        assert main([str(path), "--seedless"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_format_flag_is_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, small_benchmark())
        assert main([str(path), "--format", "yaml"]) == 2

    def test_numerical_failure_is_exit_three(self, tmp_path, capsys):
        body = small_benchmark(profile={"type": "gaussian_pulse", "q0": 2.0, "tau": 1.0},
                               routes=["mode_oracle"])
        assert main([str(write_config(tmp_path, body))]) == 3
        assert "Omega" in capsys.readouterr().err

    def test_norm_drift_failure_is_exit_three(self, tmp_path, capsys):
        body = small_benchmark(
            grid={"t_start": -8.0, "t_end": 8.0, "n_samples": 81},
            routes=["fock_oracle"],
            fock_substeps=1,
        )
        assert main([str(write_config(tmp_path, body))]) == 3
        assert "norm" in capsys.readouterr().err

    def test_diverging_fock_state_is_exit_three_not_nan(self, tmp_path, capsys):
        body = small_benchmark(profile={"type": "gaussian_pulse", "q0": 1e100, "tau": 1.0},
                               grid={"t_start": -12.0, "t_end": 12.0, "n_samples": 481},
                               routes=["fock_oracle"], fock_truncation=3)
        assert main([str(write_config(tmp_path, body))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith("numerical failure: norm drifted by nan"), captured.err

    def test_unresolved_tails_are_one_warning_line_and_exit_zero(self, tmp_path, capsys):
        body = small_benchmark(grid={"t_start": -2.0, "t_end": 2.0, "n_samples": 41},
                               routes=["mode_oracle", "fock_oracle"], fock_truncation=4)
        assert main([str(write_config(tmp_path, body))]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: row(s) 0: coupling at a grid endpoint above tail_rel=1e-10 of its peak\n"
        )
        assert captured.out.startswith(CSV_HEADER)

    def test_tail_warning_names_the_flagged_rows_at_the_configured_tail_rel(self, tmp_path, capsys):
        # exp(-4) = 1.8e-2 at the endpoints: flagged at 1e-3, not at 0.5
        body = small_benchmark(grid={"t_start": -2.0, "t_end": 2.0, "n_samples": 41}, routes=["hb"],
                               scan={"kind": "amplitude", "values": [0.01, 0.02]}, tail_rel=1e-3)
        assert main([str(write_config(tmp_path, body))]) == 0
        assert capsys.readouterr().err == (
            "warning: row(s) 0, 1: coupling at a grid endpoint above tail_rel=0.001 of its peak\n"
        )
        assert main([str(write_config(tmp_path, dict(body, tail_rel=0.5)))]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "profile, params",
        [
            ({"type": "symmetric_ramp", "gamma": 1e300, "eta": 1.0}, {"mass": 1.0, "omega": 1.0}),
            ({"type": "gaussian_pulse", "q0": 1e200, "tau": 1.0}, {"mass": 1.0, "omega": 1.0}),
            ({"type": "symmetric_ramp", "gamma": 0.001, "eta": 1.0}, {"mass": 1e-300, "omega": 1.0}),
        ],
    )
    def test_overflow_is_exit_three_naming_the_route(self, tmp_path, capsys, profile, params):
        body = small_benchmark(profile=profile, params=params, routes=["barton", "hb", "mode_oracle"],
                               grid={"t_start": -40.0, "t_end": 40.0, "n_samples": 3201})
        assert main([str(write_config(tmp_path, body))]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure: barton: float overflow"), err


class TestCsvOutput:
    def test_header_is_the_documented_schema(self):
        assert CSV_HEADER == (
            "scenario_id,profile,eta_or_amp,delta_e_barton,delta_e_hb,"
            "delta_e_mode,delta_e_fock,relative_spread,validity_flag"
        )

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, small_benchmark())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([str(path), "--out", str(out1)]) == 0
        assert main([str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_amplitude_scenario(self, tmp_path, capsys):
        body = small_benchmark(profile={"type": "gaussian_pulse", "q0": 0.0, "tau": 1.0})
        assert main([str(write_config(tmp_path, body))]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        fields = row.split(",")
        assert fields[0] == "small-benchmark"
        assert fields[1] == "gaussian_pulse"
        assert fields[2] == ""  # not a scan point
        assert all(float(v) == 0.0 for v in fields[3:8])
        assert fields[8] == "false"

    def test_numbers_round_trip_through_17_digits(self, tmp_path, capsys):
        path = write_config(tmp_path, small_benchmark(routes=["barton", "hb"]))
        assert main([str(path)]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        de = float(row[3])
        assert f"{de:.17g}" == row[3]
        assert float(f"{de:.17g}") == de

    def test_empty_row_set_renders_header_only(self, tmp_path):
        scenario = load_config(write_config(tmp_path, small_benchmark()))
        payload = emit_report(ScenarioResult(scenario, rows=()), "csv")
        assert payload.decode() == CSV_HEADER + "\n"

    def test_emit_report_rejects_unknown_format(self, tmp_path):
        scenario = load_config(write_config(tmp_path, small_benchmark()))
        with pytest.raises(ConfigError, match="format"):
            emit_report(ScenarioResult(scenario, rows=()), "parquet")


class TestJsonOutput:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = write_config(tmp_path, small_benchmark(routes=["barton", "hb"]))
        scenario = load_config(path)
        result = run_scenario(scenario)
        payload = emit_report(result, "json")
        parsed = json.loads(payload)
        assert parsed["schema_version"] == "1"
        row = parsed["rows"][0]
        _, report = result.rows[0]
        assert row["delta_e_barton"] == report.delta_e_time_domain
        assert row["delta_e_hb"] == report.delta_e_spectral
        assert row["relative_spread"] == report.relative_spread
        assert row["delta_e_mode"] is None
        # a second render parses to the same document
        assert json.loads(emit_report(result, "json")) == parsed

    def test_cli_json_format(self, tmp_path, capsys):
        path = write_config(tmp_path, small_benchmark(routes=["hb"]))
        assert main([str(path), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["routes"] == ["hb"]
        assert parsed["scan"] is None


def test_json_row_keys_are_the_csv_columns_after_profile(tmp_path):
    result = run_scenario(load_config(write_config(tmp_path, small_benchmark(routes=["barton", "hb"]))))
    row = json.loads(emit_report(result, "json"))["rows"][0]
    columns = CSV_HEADER.split(",")
    assert set(row) == set(columns[columns.index("profile") + 1:]) | {"tail_warning", "grid"}
    cells = emit_report(result, "csv").decode().splitlines()[1].split(",")
    for column, cell in zip(columns[2:], cells[2:]):
        if row[column] is None:
            assert cell == ""
        elif isinstance(row[column], bool):
            assert cell == ("true" if row[column] else "false")
        else:
            assert float(cell) == row[column]


class TestScans:
    def test_amplitude_scan_rows_scale_quadratically(self, tmp_path, capsys):
        body = small_benchmark(
            routes=["barton", "hb"],
            scan={"kind": "amplitude", "values": [0.001, 0.003, 0.01]},
        )
        assert main([str(write_config(tmp_path, body))]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        amps = [float(r[2]) for r in rows]
        des = [float(r[3]) for r in rows]
        assert amps == [0.001, 0.003, 0.01]
        np.testing.assert_allclose(des[1] / des[0], 9.0, rtol=1e-12)
        np.testing.assert_allclose(des[2] / des[0], 100.0, rtol=1e-12)

    def test_eta_scan_appends_footer_records(self, tmp_path, capsys):
        body = {
            "scenario_id": "scan",
            "params": {"mass": 1.0, "omega": 1.0},
            "profile": {"type": "symmetric_ramp", "gamma": 0.001, "eta": 1.0},
            "routes": ["hb"],
            "scan": {"kind": "eta", "values": [0.05, 0.1, 0.2]},
        }
        assert main([str(write_config(tmp_path, body))]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        data = [line for line in lines[1:] if not line.startswith("#")]
        footer = [line for line in lines if line.startswith("#")]
        assert len(data) == 3
        assert footer[0] == "# adiabatic,eta,delta_e,delta_e_times_eta"
        assert len([line for line in footer if line.startswith("# adiabatic,")]) == 4
        slopes = [line for line in footer if line.startswith("# adiabatic_fit,")]
        assert len(slopes) == 2
        slope = float(slopes[0].split(",")[2])
        assert 1.9 < slope < 2.05

    def test_eta_scan_json_carries_the_fits(self, tmp_path, capsys):
        body = {
            "params": {"mass": 1.0, "omega": 1.0},
            "profile": {"type": "symmetric_ramp", "gamma": 0.001, "eta": 1.0},
            "routes": ["hb"],
            "scan": {"kind": "eta", "values": [0.05, 0.1]},
        }
        assert main([str(write_config(tmp_path, body)), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        scan = parsed["scan"]
        assert scan["etas"] == [0.05, 0.1]
        assert len(scan["delta_e"]) == 2
        assert np.isfinite(scan["slope_delta_e"])


def assert_matches_recorded(produced, recorded):
    """Header, line count and text fields exact; numbers within 1e-9 relative.

    libm and BLAS may differ in the last bits between CPUs, so numbers are
    not compared byte for byte.  barton and hb agree to the last bit, so
    their relative_spread is 0 and a last-bit change in either makes it
    ~1e-16; it also passes when both values are at most 1e-12.
    """
    got_lines, want_lines = produced.splitlines(), recorded.splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    columns = want_lines[0].split(",")
    for got, want in zip(got_lines[1:], want_lines[1:]):
        got_fields, want_fields = got.split(","), want.split(",")
        assert len(got_fields) == len(want_fields), (got, want)
        for column, g, w in zip(columns, got_fields, want_fields):
            try:
                g_num, w_num = float(g), float(w)
            except ValueError:
                assert g == w, (got, want)
                continue
            close = abs(g_num - w_num) <= 1e-9 * abs(w_num)
            if column == "relative_spread" and not want.startswith("#"):
                close = close or max(g_num, w_num) <= 1e-12
            assert close, (column, got, want)


@pytest.mark.parametrize(
    "name",
    [
        "exponential_ramp.json",
        "symmetric_ramp.json",
        "flyby.json",
        "sampled_profile.json",
        "amplitude_scan.json",
        "adiabatic_scan.json",
        "gaussian_benchmark.json",
    ],
)
def test_shipped_configs_run_clean(name, tmp_path):
    """Every documented example config must execute end to end and
    reproduce its recorded report."""
    out = tmp_path / "report.csv"
    assert main([str(CONFIG_DIR / name), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith(CSV_HEADER)
    data_rows = [line for line in text.strip().split("\n")[1:] if not line.startswith("#")]
    assert len(data_rows) >= 1
    assert_matches_recorded(text, (EXPECTED_DIR / name).with_suffix(".csv").read_text())


class TestRangesAndSampleBudget:
    @pytest.mark.parametrize(
        "body, field",
        [
            (eta_scan_config(tail_rel=2.0), r"scan\.tail_rel"),
            (eta_scan_config(tail_rel=-1.0), r"scan\.tail_rel"),
            (small_benchmark(tail_rel=2.0), r"config\.tail_rel"),
            (small_benchmark(tail_rel=0.0), r"config\.tail_rel"),
            (eta_scan_config(dt=0.0), r"scan\.dt"),
            (eta_scan_config(dt=-0.1), r"scan\.dt"),
            # json.loads accepts NaN and Infinity; they are refused at load time
            (small_benchmark(profile={"type": "gaussian_pulse", "q0": float("nan"), "tau": 1.0}),
             r"profile\.q0: must be a finite number"),
            (eta_scan_config(values=[0.1, float("nan")]), r"scan\.values\[1\]: must be a finite number"),
            (small_benchmark(scan={"kind": "amplitude", "values": [0.01, float("nan")]}),
             r"scan\.values\[1\]: must be a finite number"),
            (small_benchmark(params={"mass": float("inf"), "omega": 1.0}), r"params\.mass: must be a finite number"),
            (small_benchmark(grid={"t_start": float("-inf"), "t_end": 12.0, "n_samples": 1201}),
             r"grid\.t_start: must be a finite number"),
            (small_benchmark(params={"mass": 10**400, "omega": 1.0}), r"params\.mass: must be a finite number"),
            # a Python float square raises instead of overflowing to inf
            (small_benchmark(profile={"type": "flyby", "charge": 1e200, "d": 1.0, "v": 1.0}, routes=["hb"]),
             r"profile: Flyby\.charge must have a finite square"),
            (small_benchmark(profile={"type": "flyby", "charge": 1.0, "d": 1e200, "v": 1.0}, routes=["hb"]),
             r"profile: Flyby\.d must have a finite square"),
            # an eta scan builds its own grids and tests their tails at scan.tail_rel
            (dict(eta_scan_config(), grid={"t_start": -1.0, "t_end": 1.0, "n_samples": 3}),
             r"config\.grid: .*scan\.dt"),
            (dict(eta_scan_config(), tail_rel=0.999), r"config\.tail_rel: .*scan\.tail_rel"),
            (small_benchmark(params=5), r"^error: config\.params: expected dict, got int\n$"),
            (small_benchmark(scan=[1]), r"^error: config\.scan: expected dict, got list\n$"),
            (small_benchmark(grid="x"), r"^error: config\.grid: expected dict, got str\n$"),
            (small_benchmark(scan={"kind": "bogus", "values": [0.1]}),
             r"^error: scan\.kind: expected 'eta' or 'amplitude', got 'bogus'\n$"),
            (eta_scan_config(values=[0.1, -1.0]), r"^error: scan\.values\[1\]: eta must be positive, got -1\.0\n$"),
            ("[1, 2]", r"^error: scenario\.json: top level must be a JSON object\n$"),
        ],
    )
    def test_out_of_range_value_is_exit_two_with_its_field(self, tmp_path, capsys, body, field):
        assert main([str(write_config(tmp_path, body))]) == 2
        err = capsys.readouterr().err
        assert re.search(field, err), err

    def test_scan_tail_rel_below_the_span_floor_is_refused_at_load_time(self, tmp_path, capsys):
        path = write_config(tmp_path, eta_scan_config(tail_rel=1e-322))
        with pytest.raises(ConfigError, match=r"scan\.tail_rel: tail_rel=1e-322 is too small"):
            load_config(path)
        assert main([str(path)]) == 2
        assert "1e-323" not in capsys.readouterr().err

    def test_small_scan_tail_rel_above_the_floor_runs(self, tmp_path, capsys):
        assert main([str(write_config(tmp_path, eta_scan_config(tail_rel=1e-300)))]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 2 + 4  # header, row, footer

    def test_config_tail_rel_is_refused_by_the_library_rule_at_its_path(self, tmp_path, capsys):
        assert main([str(write_config(tmp_path, small_benchmark(tail_rel=2.0)))]) == 2
        assert capsys.readouterr().err == "error: config.tail_rel: tail_rel must be in (0, 1), got 2.0\n"

    def test_an_eta_scan_without_tail_rel_takes_the_library_default(self, tmp_path):
        scenario = load_config(write_config(tmp_path, eta_scan_config()))
        assert scenario.scan.tail_rel == SCAN_TAIL_REL_DEFAULT == 1e-12
        assert inspect.signature(adiabatic_scan).parameters["tail_rel"].default == SCAN_TAIL_REL_DEFAULT

    def test_tail_rel_message_quotes_the_configured_value(self, tmp_path, capsys):
        assert main([str(write_config(tmp_path, eta_scan_config(tail_rel=-1.0)))]) == 2
        err = capsys.readouterr().err
        assert "got -1.0" in err and "-0.1" not in err

    def test_eta_scan_over_the_budget_is_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a grid was sampled")

        monkeypatch.setattr("casfric.dissipation.sample", no_sampling)
        body = eta_scan_config()
        body["scan"]["values"] = [0.01, 1e-6]
        assert main([str(write_config(tmp_path, body))]) == 2
        err = capsys.readouterr().err
        assert re.search(r"eta=1e-06 needs a grid of \d+ samples", err), err
        assert str(MAX_GRID_SAMPLES) in err

    def test_explicit_grid_over_the_budget_is_exit_two(self, tmp_path, capsys):
        body = small_benchmark(grid={"t_start": -12.0, "t_end": 12.0, "n_samples": MAX_GRID_SAMPLES + 1})
        assert main([str(write_config(tmp_path, body))]) == 2
        assert "grid.n_samples" in capsys.readouterr().err


class TestFockAndSubstepLimits:
    # small_benchmark runs 1200 intervals: at its fock_substeps of 2, N = 202
    # is the first truncation over the work budget
    @pytest.mark.parametrize("key, value, run", [
        ("fock_truncation", 202, "Fock (N = 202) oracle's 2400 steps"),
        ("fock_truncation", 10**6, "Fock (N = 1000000) oracle's 2400 steps"),
        ("fock_substeps", 100000, "Fock (N = 6) oracle's 120000000 steps"),
        ("mode_substeps", 10**9, "mode oracle's 1200000000000 steps"),
    ])
    def test_a_run_over_the_work_budget_is_exit_two_before_any_route_runs(self, tmp_path, capsys, monkeypatch,
                                                                           key, value, run):
        def no_route(*args):
            raise AssertionError("a route ran")

        monkeypatch.setattr("casfric.dissipation._walk", no_route)
        assert main([str(write_config(tmp_path, small_benchmark(**{key: value})))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the {run} would take about ") and key in err, err

    def test_the_last_truncation_in_the_budget_reaches_the_routes(self, tmp_path, monkeypatch):
        class Walked(Exception):
            pass

        def walked(*args):
            raise Walked

        monkeypatch.setattr("casfric.dissipation._walk", walked)
        with pytest.raises(Walked):
            main([str(write_config(tmp_path, small_benchmark(fock_truncation=201)))])

    def test_truncation_loads_uncapped(self, tmp_path):
        scenario = load_config(write_config(tmp_path, small_benchmark(fock_truncation=10**6)))
        assert scenario.fock_truncation == 10**6

    @pytest.mark.parametrize("key", ["fock_substeps", "mode_substeps"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_substeps_below_one_are_exit_two_even_with_their_route_off(self, tmp_path, capsys, key, value):
        body = small_benchmark(routes=["barton", "hb"], **{key: value})
        assert main([str(write_config(tmp_path, body))]) == 2
        err = capsys.readouterr().err
        assert f"config.{key}" in err and f"got {value}" in err, err


def sampled_inline(**profile):
    body = small_benchmark(routes=["barton", "hb"])
    body["profile"] = {
        "type": "sampled",
        "grid": {"t_start": -12.0, "t_end": 12.0, "n_samples": 5},
        "values": [0.0, 0.005, 0.01, 0.005, 0.0],
        **profile,
    }
    return body


def with_key(body, section, key, value):
    """``body`` with ``key`` set in ``body[section]`` (the top level for None)."""
    target = body
    for name in section.split(".") if section else ():
        target = target[name]
    target[key] = value
    return body


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "body, field",
        [
            (with_key(small_benchmark(), None, "fock_trunction", 500), "config.fock_trunction"),
            (with_key(small_benchmark(), "params", "omgea", 2.0), "params.omgea"),
            (with_key(small_benchmark(), "grid", "n_sampels", 11), "grid.n_sampels"),
            (with_key(eta_scan_config(), "scan", "tail_rle", 1e-3), "scan.tail_rle"),
            (with_key(small_benchmark(scan={"kind": "amplitude", "values": [0.01]}), "scan", "dt", 0.1), "scan.dt"),
            (with_key(small_benchmark(), "profile", "eta", 1.0), "profile.eta"),
            (with_key(sampled_inline(), "profile.grid", "n_sampels", 9), "profile.grid.n_sampels"),
        ],
    )
    def test_unknown_key_is_exit_two_with_its_path(self, tmp_path, capsys, body, field):
        assert main([str(write_config(tmp_path, body))]) == 2
        err = capsys.readouterr().err
        assert f"{field}: unknown field" in err, err

    def test_inline_sampled_profile_runs(self, tmp_path, capsys):
        assert main([str(write_config(tmp_path, sampled_inline()))]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[1] == "sampled" and float(row[3]) > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text", ["t,q\n\n", "", "t,q\n0.0,0.001\n"], ids=["blank-line", "empty", "one-row"]
    )
    def test_sampled_csv_with_fewer_than_two_rows_is_one_error_line(self, tmp_path, capsys, text):
        # np.loadtxt warns on a file with no data row; the refusal is one line without it
        # (a header only is the probe no_data)
        (tmp_path / "samples.csv").write_text(text)
        body = json.loads((CONFIG_DIR / "sampled_profile.json").read_text())
        body["profile"]["csv"] = "samples.csv"
        assert main([str(write_config(tmp_path, body))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: profile: {tmp_path / 'samples.csv'}: need at least two samples\n"

    def test_sampled_csv_with_inline_samples_is_refused(self, tmp_path, capsys):
        assert main([str(write_config(tmp_path, sampled_inline(csv="samples.csv")))]) == 2
        assert "either csv or grid and values" in capsys.readouterr().err


def schema_cases():
    """(section, profile type, field, fault) for every field of every dataclass the config names."""
    tables = [("params", None, PhysicalParams), ("grid", None, TimeGrid)]
    tables += [("profile", kind, cls) for kind, cls in _PROFILES.items()]
    for section, kind, cls in tables:
        for field in dataclasses.fields(cls):
            faults = ["nan", "string"]
            if field.default is dataclasses.MISSING:
                faults.append("missing")
            for fault in faults:
                yield pytest.param(section, kind, cls, field.name, fault, id=f"{kind or section}.{field.name}-{fault}")


@pytest.mark.parametrize("section, kind, cls, name, fault", list(schema_cases()))
def test_every_schema_field_is_checked_with_its_path(tmp_path, capsys, section, kind, cls, name, fault):
    body = small_benchmark(routes=["hb"])
    if kind is not None:
        body["profile"] = {"type": kind, **{field.name: 1.0 for field in dataclasses.fields(cls)}}
    load_config(write_config(tmp_path, body, name="valid.json"))  # the body before the fault loads
    if fault == "missing":
        del body[section][name]
    else:
        body[section][name] = float("nan") if fault == "nan" else "1.0"
    assert main([str(write_config(tmp_path, body))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {section}.{name}: "), captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probe", PROBES.values(), ids=list(PROBES))
def test_cli_probe(tmp_path, capsys, probe):
    assert main(write_probe(probe, tmp_path)) == probe.code
    captured = capsys.readouterr()
    assert stderr_matches(probe, captured.err, tmp_path), captured.err
    assert probe.code == 0 or captured.out == "", captured.out


def test_the_probe_runner_reports_every_failing_probe(capsys, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC_DIR))
    wrong_code = dataclasses.replace(PROBES["tiny_mass"], code=3)
    wrong_stderr = dataclasses.replace(PROBES["span_overflow"], stderr="error: grid: the span overflows\n")
    assert run_all([wrong_code, wrong_stderr]) == 1
    out = capsys.readouterr().out
    assert "tiny_mass: exit 2, expected 3\n" in out
    assert "span_overflow: stderr is not 'error: grid: the span overflows\\n'\n" in out
    assert out.endswith("2 probes, 2 faults\n")


def probe_row(tmp_path, capsys, name):
    """The CSV data row the CLI prints for the table's probe ``name``."""
    assert main(write_probe(PROBES[name], tmp_path)) == 0
    return capsys.readouterr().out.strip().split("\n")[1].split(",")


def test_small_hbar_gives_a_finite_barton_equal_to_hb(tmp_path, capsys):
    # b^2 underflows and |I|^2 overflows; barton squares their product instead
    row = probe_row(tmp_path, capsys, "small_hbar")
    barton, hb = float(row[3]), float(row[4])
    assert np.isfinite(barton) and barton > 0.0
    assert barton == pytest.approx(hb, rel=1e-12)


class TestExtremeParamsEndCleanly:
    """Configs whose floats overflow or underflow end in exit 2 or 3 with
    one line on stderr: no traceback and no numpy warning."""

    @pytest.mark.filterwarnings("error")
    def test_underflowing_gap_is_exit_two_naming_params(self, tmp_path, capsys):
        # the fock_oracle case is the probe zero_gap
        body = small_benchmark(params={"mass": 1.0, "omega": 3.0e-81, "hbar": 8.7e-299},
                               profile={"type": "exponential_ramp", "gamma": 1.16e115, "eta": 1.0},
                               grid={"t_start": -12.0, "t_end": 12.0, "n_samples": 241}, routes=["barton"])
        assert main([str(write_config(tmp_path, body))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith("error: params: the gap 2*hbar*omega underflows to 0"), captured.err

    @pytest.mark.parametrize("name", ["symmetric_eta", "exponential_eta"])
    def test_a_ramp_whose_eta_t_overflows_is_zero(self, tmp_path, capsys, name):
        # eta*|t| = inf gives exp = 0 and q = 0
        assert float(probe_row(tmp_path, capsys, name)[4]) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_a_sum_that_overflows_only_when_its_parts_are_added_is_exit_three(self, tmp_path, capsys):
        # each half of the pulse's pairs sums to about 1.42e308; the probe
        # block_sum_overflow spreads them over two blocks
        body = small_benchmark(params={"mass": 1.0, "omega": 1e-3},
                               profile={"type": "gaussian_pulse", "q0": 8e307, "tau": 2.0},
                               grid={"t_start": -12.0, "t_end": 12.0, "n_samples": 48001}, routes=["hb"])
        assert main([str(write_config(tmp_path, body))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: hb: float overflow\n"
