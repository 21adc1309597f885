"""Scenario configs, report rendering, exit codes, and determinism."""
import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from casfric.cli import (
    CSV_HEADER,
    ConfigError,
    ScenarioResult,
    emit_report,
    load_config,
    main,
    run_scenario,
)
from casfric import AdiabaticScanResult, SymmetricRamp, adiabatic_scan, compare_routes, sample
from casfric.core import MAX_GRID_SAMPLES
from casfric.dissipation import SCAN_TAIL_REL_DEFAULT, _ramp_grid
from cli_probes import PROBES, eta_scan, inline, run_all, stderr_matches, table, write_probe

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


class TestConfigValidation:
    def test_valid_config_loads(self, tmp_path):
        scenario = load_config(write_config(tmp_path, small_benchmark()))
        assert scenario.scenario_id == "small-benchmark"
        assert scenario.routes == ("barton", "hb", "mode_oracle", "fock_oracle")

    def test_a_null_scan_is_absent(self, tmp_path):
        assert load_config(write_config(tmp_path, small_benchmark(scan=None))).scan is None

    def test_a_null_grid_is_absent_in_an_eta_scan(self, tmp_path):
        scenario = load_config(write_probe(PROBES["eta_grid_null"], tmp_path)[0])
        ramps = [SymmetricRamp(gamma=0.001, eta=eta) for eta in scenario.scan.values]
        assert scenario.scan.kind == "eta"  # each point runs on the grid the scan builds for its eta
        assert scenario.points == tuple((ramp, _ramp_grid(ramp, ramp.eta, np.pi / 32.0, SCAN_TAIL_REL_DEFAULT))
                                        for ramp in ramps)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        assert main([str(write_config(tmp_path, small_benchmark()))]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER + "\n")

    def test_missing_file_is_exit_two(self, tmp_path):
        assert main([str(tmp_path / "absent.json")]) == 2

    def test_seedless_flag_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, small_benchmark())
        assert main([str(path), "--seedless"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_format_flag_is_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, small_benchmark())
        assert main([str(path), "--format", "yaml"]) == 2


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
        assert parsed["schema_version"] == "2"
        row = parsed["rows"][0]
        _, report = result.rows[0]
        assert row["delta_e_barton"] == report.delta_e_time_domain
        assert row["delta_e_hb"] == report.delta_e_spectral
        assert row["relative_spread"] == report.relative_spread
        assert row["tail_ratio"] == report.tail_ratio
        assert row["tail_rel"] == report.tail_rel == 1e-10
        assert row["transition_probability"] == report.transition_probability
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
    assert set(row) == set(columns[columns.index("profile") + 1:]) | {
        "tail_warning", "tail_ratio", "tail_rel", "transition_probability", "grid"}
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

    @pytest.mark.parametrize("gamma, values", [(0.001, [0.1]), (0.0, [0.05, 0.1])])
    def test_a_scan_without_a_slope_is_strict_json_with_null_slopes(self, tmp_path, capsys, gamma, values):
        """A one-point scan, or one whose dE is 0, has NaN slopes: the JSON
        writes them as null, which strict parsers accept, and the CSV keeps nan."""
        body = {
            "params": {"mass": 1.0, "omega": 1.0},
            "profile": {"type": "symmetric_ramp", "gamma": gamma, "eta": 1.0},
            "routes": ["hb"],
            "scan": {"kind": "eta", "values": values},
        }
        path = str(write_config(tmp_path, body))
        assert main([path, "--format", "json"]) == 0
        scan = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)["scan"]
        assert scan["slope_delta_e"] is None and scan["slope_delta_e_times_eta"] is None
        assert main([path]) == 0
        assert capsys.readouterr().out.endswith(
            "# adiabatic_fit,slope_delta_e,nan\n# adiabatic_fit,slope_delta_e_times_eta,nan\n"
        )

    def test_an_overflowed_delta_e_times_eta_is_null_in_the_json(self):
        # dE near the float maximum times eta = 20 overflows; the scan keeps the inf
        scenario = load_config(CONFIG_DIR / "adiabatic_scan.json")
        scan = AdiabaticScanResult(etas=np.array([20.0, 30.0]), delta_e=np.array([4.9e307, 4.4e306]),
                                   delta_e_times_eta=np.array([np.inf, 1.32e308]), slope_delta_e=-5.9,
                                   slope_delta_e_times_eta=np.nan, reports=())
        payload = emit_report(ScenarioResult(scenario, rows=(), scan=scan), "json")
        fit = json.loads(payload, parse_constant=refuse_constant)["scan"]
        assert fit["delta_e_times_eta"] == [None, 1.32e308]
        assert fit["slope_delta_e"] == -5.9 and fit["slope_delta_e_times_eta"] is None


def refuse_constant(token):
    """json.loads' parse_constant for a strict parser: NaN and Infinity are not JSON."""
    raise ValueError(f"{token} is not JSON")


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


@pytest.mark.parametrize("name", sorted(path.name for path in CONFIG_DIR.glob("*.json")))
def test_a_scenario_holds_the_one_tail_rel_its_reports_are_tested_against(name):
    scenario = load_config(CONFIG_DIR / name)
    assert {report.tail_rel for _, report in run_scenario(scenario).rows} == {scenario.tail_rel}


class TestRangesAndSampleBudget:
    def test_small_scan_tail_rel_above_the_floor_runs(self, tmp_path, capsys):
        assert main([str(write_config(tmp_path, eta_scan(tail_rel=1e-300)))]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 2 + 4  # header, row, footer

    def test_an_eta_scan_without_tail_rel_takes_the_library_default(self, tmp_path):
        scenario = load_config(write_config(tmp_path, eta_scan()))
        assert scenario.tail_rel == SCAN_TAIL_REL_DEFAULT == 1e-12
        assert inspect.signature(adiabatic_scan).parameters["tail_rel"].default == SCAN_TAIL_REL_DEFAULT

    def test_eta_scan_over_the_budget_is_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a grid was sampled")

        monkeypatch.setattr("casfric.dissipation.sample", no_sampling)
        assert main([str(write_config(tmp_path, eta_scan(values=[0.01, 1e-6])))]) == 2
        err = capsys.readouterr().err
        assert re.search(r"eta=1e-06 needs a grid of \d+ samples", err), err
        assert str(MAX_GRID_SAMPLES) in err


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
        assert err.startswith(f"error: config: the {run} would take about ") and key in err, err

    def test_the_last_truncation_in_the_budget_reaches_the_routes(self, tmp_path, monkeypatch):
        class Walked(Exception):
            pass

        def walked(*args):
            raise Walked

        monkeypatch.setattr("casfric.dissipation._walk", walked)
        with pytest.raises(Walked):
            main([str(write_config(tmp_path, small_benchmark(fock_truncation=201)))])

    def test_truncation_loads_uncapped(self, tmp_path):
        scenario = load_config(write_config(tmp_path, small_benchmark(fock_truncation=10**6, routes=["hb"])))
        assert scenario.fock_truncation == 10**6


@pytest.mark.parametrize("routes", [("barton", "hb"), ("hb", "mode_oracle")])
def test_inline_sampled_profile_runs(tmp_path, capsys, routes):
    """The 5 inline samples run on the config's 481-sample grid as if sampled on it."""
    path = write_config(tmp_path, {**inline(), "routes": list(routes)})
    assert main([str(path)]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row[1] == "sampled" and float(row[4]) > 0.0
    scenario = load_config(path)
    [(signal, grid)] = scenario.points
    assert (signal.grid.n_samples, grid.n_samples) == (5, 481)
    [(_, report)] = run_scenario(scenario).rows
    assert report == compare_routes(sample(signal, grid), scenario.params, routes=routes)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probe", PROBES.values(), ids=list(PROBES))
def test_cli_probe(tmp_path, capsys, probe):
    argv = write_probe(probe, tmp_path)
    if probe.code == 2 and "--out" not in probe.args:  # refused at load time, with the whole of the row's stderr
        with pytest.raises(ConfigError) as refusal:
            load_config(argv[0])
        assert stderr_matches(probe, f"error: {refusal.value}\n", tmp_path), refusal.value
    else:
        load_config(argv[0])
    assert main(argv) == probe.code
    captured = capsys.readouterr()
    assert stderr_matches(probe, captured.err, tmp_path), captured.err
    assert captured.out.startswith(CSV_HEADER) if probe.code == 0 else captured.out == "", captured.out


def test_the_table_refuses_a_repeated_name_and_holds_every_row():
    with pytest.raises(ValueError, match="^two probes are named 'tiny_mass'$"):
        table([PROBES["tiny_mass"], PROBES["span_overflow"], PROBES["tiny_mass"]])
    assert len(PROBES) == 114


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


@pytest.mark.parametrize("name", ["symmetric_eta", "exponential_eta"])
def test_a_ramp_whose_eta_t_overflows_is_zero(tmp_path, capsys, name):
    # eta*|t| = inf gives exp = 0 and q = 0
    assert float(probe_row(tmp_path, capsys, name)[4]) == 0.0
