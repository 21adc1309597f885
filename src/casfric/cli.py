"""Batch front end: JSON scenario configs in, CSV/JSON reports out.

One canonical input form (a single JSON config file) keeps runs
reproducible: identical configs produce byte-identical CSV.  Exit codes:
0 success, 2 config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .core import MAX_FOCK_TRUNCATION, MAX_GRID_SAMPLES, PhysicalParams, TimeGrid
from .coupling import (
    CouplingProfile,
    CouplingSignal,
    ExponentialRamp,
    Flyby,
    GaussianPulse,
    SymmetricRamp,
    load_sampled_csv,
    sample,
    with_amplitude,
)
from .dissipation import (
    _SCAN_TAIL_FACTOR,
    ROUTES,
    AdiabaticScanResult,
    _check_tail_rel,
    adiabatic_scan,
    compare_routes,
)
from .errors import NumericalFailure

__all__ = ["ConfigError", "Scenario", "ScanSpec", "ScenarioResult", "load_config", "run_scenario", "emit_report", "main"]

# (report column, DissipationReport attribute): the CSV columns after
# eta_or_amp, and the JSON row keys beside it
_REPORT_COLUMNS = (
    ("delta_e_barton", "delta_e_time_domain"),
    ("delta_e_hb", "delta_e_spectral"),
    ("delta_e_mode", "delta_e_mode_oracle"),
    ("delta_e_fock", "delta_e_fock_oracle"),
    ("relative_spread", "relative_spread"),
    ("validity_flag", "validity_flag"),
)

CSV_HEADER = ",".join(["scenario_id", "profile", "eta_or_amp"] + [column for column, _ in _REPORT_COLUMNS])

# the fields each config object accepts; any other key is refused
_TOP_LEVEL_KEYS = ("scenario_id", "params", "profile", "grid", "routes", "scan",
                   "fock_truncation", "fock_substeps", "mode_substeps", "tail_rel")
_PARAMS_KEYS = ("mass", "omega", "charge", "hbar")
_GRID_KEYS = ("t_start", "t_end", "n_samples")
# dt and tail_rel size the per-eta grids; an amplitude scan runs on config.grid
_SCAN_KEYS = {"eta": ("kind", "values", "dt", "tail_rel"), "amplitude": ("kind", "values")}
_PROFILE_KEYS = {
    "exponential_ramp": ("type", "gamma", "eta"),
    "symmetric_ramp": ("type", "gamma", "eta"),
    "gaussian_pulse": ("type", "q0", "tau"),
    "flyby": ("type", "charge", "d", "v"),
    "sampled": ("type", "csv", "grid", "values"),
}


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScanSpec:
    kind: str  # "eta" or "amplitude"
    values: tuple
    dt: Optional[float] = None
    tail_rel: float = 1e-12


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    params: PhysicalParams
    profile: CouplingProfile
    profile_config: dict
    grid: Optional[TimeGrid]
    routes: tuple
    fock_truncation: int = 10
    fock_substeps: int = 4
    mode_substeps: int = 1
    tail_rel: float = 1e-10
    scan: Optional[ScanSpec] = None


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    rows: tuple  # of (eta_or_amp | None, DissipationReport)
    scan: Optional[AdiabaticScanResult] = None


def _reject_unknown_keys(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field; valid fields are {list(allowed)}")


def _expect(mapping, key, path, kind, required=True, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = mapping[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _build_params(cfg, path="params") -> PhysicalParams:
    _reject_unknown_keys(cfg, _PARAMS_KEYS, path)
    try:
        return PhysicalParams(
            mass=_expect(cfg, "mass", path, float),
            omega=_expect(cfg, "omega", path, float),
            charge=_expect(cfg, "charge", path, float, required=False, default=1.0),
            hbar=_expect(cfg, "hbar", path, float, required=False, default=1.0),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def _int_in_range(cfg, key, default, low, high=None, path="config") -> int:
    value = _expect(cfg, key, path, int, required=False, default=default)
    if value < low:
        raise ConfigError(f"{path}.{key}: must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{path}.{key}: {value} is above the budget of {high}")
    return value


def _tail_rel(cfg, path, default) -> float:
    value = _expect(cfg, "tail_rel", path, float, required=False, default=default)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{path}.tail_rel: must be in (0, 1), got {value!r}")
    return value


def _build_grid(cfg, path="grid") -> TimeGrid:
    _reject_unknown_keys(cfg, _GRID_KEYS, path)
    n_samples = _expect(cfg, "n_samples", path, int)
    if n_samples > MAX_GRID_SAMPLES:
        raise ConfigError(f"{path}.n_samples: {n_samples} is above the budget of {MAX_GRID_SAMPLES} samples")
    try:
        return TimeGrid(
            t_start=_expect(cfg, "t_start", path, float),
            t_end=_expect(cfg, "t_end", path, float),
            n_samples=n_samples,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def _build_profile(cfg, config_dir: Path, path="profile") -> CouplingProfile:
    kind = _expect(cfg, "type", path, str)
    if kind not in _PROFILE_KEYS:
        raise ConfigError(f"{path}.type: unknown profile type {kind!r}; valid types are {list(_PROFILE_KEYS)}")
    _reject_unknown_keys(cfg, _PROFILE_KEYS[kind], path)
    try:
        if kind == "exponential_ramp":
            return ExponentialRamp(_expect(cfg, "gamma", path, float), _expect(cfg, "eta", path, float))
        if kind == "symmetric_ramp":
            return SymmetricRamp(_expect(cfg, "gamma", path, float), _expect(cfg, "eta", path, float))
        if kind == "gaussian_pulse":
            return GaussianPulse(_expect(cfg, "q0", path, float), _expect(cfg, "tau", path, float))
        if kind == "flyby":
            return Flyby(
                _expect(cfg, "charge", path, float),
                _expect(cfg, "d", path, float),
                _expect(cfg, "v", path, float),
            )
        if "csv" in cfg:  # sampled
            if "grid" in cfg or "values" in cfg:
                raise ConfigError(f"{path}: give either csv or grid and values, not both")
            csv_path = Path(_expect(cfg, "csv", path, str))
            if not csv_path.is_absolute():
                csv_path = config_dir / csv_path
            return load_sampled_csv(csv_path)
        grid = _build_grid(_expect(cfg, "grid", path, dict), f"{path}.grid")
        return CouplingSignal(grid, _expect(cfg, "values", path, list))
    except (ValueError, OSError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def _build_scan(cfg, path="scan") -> ScanSpec:
    kind = _expect(cfg, "kind", path, str)
    if kind not in _SCAN_KEYS:
        raise ConfigError(f"{path}.kind: expected 'eta' or 'amplitude', got {kind!r}")
    _reject_unknown_keys(cfg, _SCAN_KEYS[kind], path)
    values = _expect(cfg, "values", path, list)
    if not values:
        raise ConfigError(f"{path}.values: scan list must be nonempty")
    cleaned = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path}.values[{i}]: expected a number, got {v!r}")
        if kind == "eta" and v <= 0:
            raise ConfigError(f"{path}.values[{i}]: eta must be positive, got {v!r}")
        cleaned.append(float(v))
    dt = _expect(cfg, "dt", path, float, required=False)
    if dt is not None and not 0.0 < dt < float("inf"):
        raise ConfigError(f"{path}.dt: must be finite and positive, got {dt!r}")
    tail_rel = _expect(cfg, "tail_rel", path, float, required=False, default=1e-12)
    try:
        # each eta's grid span is solved for a fraction of tail_rel
        _check_tail_rel(tail_rel, _SCAN_TAIL_FACTOR)
    except ValueError as exc:
        raise ConfigError(f"{path}.tail_rel: {exc}") from exc
    return ScanSpec(kind=kind, values=tuple(cleaned), dt=dt, tail_rel=tail_rel)


def load_config(path) -> Scenario:
    """Parse and validate a scenario config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path.name}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path.name}: top level must be a JSON object")
    _reject_unknown_keys(raw, _TOP_LEVEL_KEYS, "config")

    scenario_id = _expect(raw, "scenario_id", "config", str, required=False, default="scenario")
    params = _build_params(_expect(raw, "params", "config", dict))
    profile_config = _expect(raw, "profile", "config", dict)
    profile = _build_profile(profile_config, path.parent)
    scan = _build_scan(raw["scan"]) if raw.get("scan") is not None else None

    grid = None
    if raw.get("grid") is not None:
        grid = _build_grid(raw["grid"])
    elif scan is None or scan.kind != "eta":
        raise ConfigError("config.grid: required unless the scenario is an eta scan")

    routes = _expect(raw, "routes", "config", list)
    if not routes:
        raise ConfigError("config.routes: at least one route must be selected")
    for i, route in enumerate(routes):
        if route not in ROUTES:
            raise ConfigError(f"config.routes[{i}]: unknown route {route!r}; valid routes are {list(ROUTES)}")

    if scan is not None and scan.kind == "eta" and not isinstance(profile, (ExponentialRamp, SymmetricRamp)):
        raise ConfigError("config.scan: eta scans need an exponential_ramp or symmetric_ramp profile")
    if scan is not None and scan.kind == "amplitude":
        if grid is None:
            raise ConfigError("config.grid: required for amplitude scans")
        if not isinstance(profile, (ExponentialRamp, SymmetricRamp, GaussianPulse)):
            raise ConfigError("config.scan: amplitude scans need a profile with an amplitude parameter")

    return Scenario(
        scenario_id=scenario_id,
        params=params,
        profile=profile,
        profile_config=dict(profile_config),
        grid=grid,
        routes=tuple(routes),
        # checked whether or not their route runs
        fock_truncation=_int_in_range(raw, "fock_truncation", default=10, low=2, high=MAX_FOCK_TRUNCATION),
        fock_substeps=_int_in_range(raw, "fock_substeps", default=4, low=1),
        mode_substeps=_int_in_range(raw, "mode_substeps", default=1, low=1),
        tail_rel=_tail_rel(raw, "config", default=1e-10),
        scan=scan,
    )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute all selected routes, one report row per scan point."""
    opts = dict(
        routes=scenario.routes,
        fock_truncation=scenario.fock_truncation,
        fock_substeps=scenario.fock_substeps,
        mode_substeps=scenario.mode_substeps,
    )
    if scenario.scan is None:
        report = compare_routes(sample(scenario.profile, scenario.grid), scenario.params,
                                tail_rel=scenario.tail_rel, **opts)
        return ScenarioResult(scenario, rows=((None, report),))

    if scenario.scan.kind == "amplitude":
        rows = []
        for amplitude in scenario.scan.values:
            profile = with_amplitude(scenario.profile, amplitude)
            report = compare_routes(sample(profile, scenario.grid), scenario.params,
                                    tail_rel=scenario.tail_rel, **opts)
            rows.append((amplitude, report))
        return ScenarioResult(scenario, rows=tuple(rows))

    scan = adiabatic_scan(
        scenario.profile,
        scenario.scan.values,
        scenario.params,
        dt=scenario.scan.dt,
        tail_rel=scenario.scan.tail_rel,
        **opts,
    )
    rows = tuple(zip(scenario.scan.values, scan.reports))
    return ScenarioResult(scenario, rows=rows, scan=scan)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}"


def _render_csv(result: ScenarioResult) -> str:
    scenario = result.scenario
    profile_tag = scenario.profile_config.get("type", "unknown")
    lines = [CSV_HEADER]
    for eta_or_amp, report in result.rows:
        cells = [scenario.scenario_id, profile_tag, _cell(eta_or_amp)]
        cells += [_cell(getattr(report, attribute)) for _, attribute in _REPORT_COLUMNS]
        lines.append(",".join(cells))
    scan = result.scan
    if scan is not None:
        lines.append("# adiabatic,eta,delta_e,delta_e_times_eta")
        for eta, de, dee in zip(scan.etas, scan.delta_e, scan.delta_e_times_eta):
            lines.append(f"# adiabatic,{eta:.17g},{de:.17g},{dee:.17g}")
        lines.append(f"# adiabatic_fit,slope_delta_e,{scan.slope_delta_e:.17g}")
        lines.append(f"# adiabatic_fit,slope_delta_e_times_eta,{scan.slope_delta_e_times_eta:.17g}")
    return "\n".join(lines) + "\n"


def _render_json(result: ScenarioResult) -> str:
    scenario = result.scenario
    rows = []
    for eta_or_amp, report in result.rows:
        rows.append({
            "eta_or_amp": eta_or_amp,
            **{column: getattr(report, attribute) for column, attribute in _REPORT_COLUMNS},
            "tail_warning": report.tail_warning,
            "grid": {
                "t_start": report.grid.t_start,
                "t_end": report.grid.t_end,
                "n_samples": report.grid.n_samples,
                "dt": report.grid.dt,
            },
        })
    scan_obj = None
    if result.scan is not None:
        scan_obj = {
            "kind": "eta",
            "etas": list(map(float, result.scan.etas)),
            "delta_e": list(map(float, result.scan.delta_e)),
            "delta_e_times_eta": list(map(float, result.scan.delta_e_times_eta)),
            "slope_delta_e": result.scan.slope_delta_e,
            "slope_delta_e_times_eta": result.scan.slope_delta_e_times_eta,
        }
    obj = {
        "schema_version": "1",
        "scenario_id": scenario.scenario_id,
        "profile": scenario.profile_config,
        "params": {
            "mass": scenario.params.mass,
            "omega": scenario.params.omega,
            "charge": scenario.params.charge,
            "hbar": scenario.params.hbar,
        },
        "routes": list(scenario.routes),
        "rows": rows,
        "scan": scan_obj,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_report(result: ScenarioResult, fmt: str = "csv") -> bytes:
    """Render a scenario result as CSV rows or a JSON document."""
    if fmt == "csv":
        return _render_csv(result).encode("utf-8")
    if fmt == "json":
        return _render_json(result).encode("utf-8")
    raise ConfigError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="casfric",
        description="Run a dissipated-energy scenario from a JSON config.",
    )
    parser.add_argument("config", help="path to the scenario config (JSON)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--out", default=None, help="output path (default: standard output)")
    parser.add_argument("--seedless", action="store_true",
                        help="reserved; the tool has no randomness and rejects this flag")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        if args.seedless:
            raise ConfigError("--seedless is reserved: there is no randomness to disable")
        scenario = load_config(args.config)
        payload = emit_report(run_scenario(scenario), args.format)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    if args.out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        Path(args.out).write_bytes(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
