"""Batch front end: JSON scenario configs in, CSV/JSON reports out.

One canonical input form (a single JSON config file) keeps runs
reproducible: identical configs produce byte-identical CSV.  Exit codes:
0 success, 2 config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from .core import MAX_GRID_SAMPLES, PhysicalParams, TimeGrid
from .coupling import (
    CouplingProfile,
    CouplingSignal,
    ExponentialRamp,
    Flyby,
    GaussianPulse,
    SymmetricRamp,
    load_sampled_csv,
)
from .dissipation import (
    _ORACLE_DEFAULTS,
    SCAN_TAIL_REL_DEFAULT,
    TAIL_REL_DEFAULT,
    AdiabaticScanResult,
    _fit,
    _plan,
    _run_points,
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

# the keys each config object accepts; any other key is refused.  params,
# grid and the closed-form profiles accept their dataclass's fields
_TOP_LEVEL_KEYS = ("scenario_id", "params", "profile", "grid", "routes", "scan",
                   "fock_truncation", "fock_substeps", "mode_substeps", "tail_rel")
# dt and tail_rel size the per-eta grids; an amplitude scan runs on config.grid
_SCAN_KEYS = {"eta": ("kind", "values", "dt", "tail_rel"), "amplitude": ("kind", "values")}
_PROFILES = {
    "exponential_ramp": ExponentialRamp,
    "symmetric_ramp": SymmetricRamp,
    "gaussian_pulse": GaussianPulse,
    "flyby": Flyby,
}
# the config path of each field a refusal of the library's plan names; an eta scan's tail_rel is scan.tail_rel
_PLAN_PATHS = {"scan": "config.scan", "routes": "config.routes", "tail_rel": "config.tail_rel", "budget": "config"}


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScanSpec:
    kind: str  # "eta" or "amplitude"
    values: tuple


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    params: PhysicalParams
    points: tuple  # of (profile, grid): the run's own, one per scan value or the single run's
    profile_config: dict
    routes: tuple
    fock_truncation: int
    fock_substeps: int
    mode_substeps: int
    tail_rel: float  # the one the points' tails are tested against: scan.tail_rel in an eta scan
    scan: Optional[ScanSpec]


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    rows: tuple  # of (eta_or_amp | None, DissipationReport)
    scan: Optional[AdiabaticScanResult] = None


def _reject_unknown_keys(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field; valid fields are {list(allowed)}")


def _finite_number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    # json.loads also accepts NaN, Infinity and integers beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return float(value)


def _finite_numbers(cfg, key, path) -> list:
    """The list at ``path.key``, each item a finite number checked at ``path.key[i]``."""
    return [_finite_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(_expect(cfg, key, path, list))]


def _expect(mapping, key, path, kind, required=True, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = mapping[key]
    if kind is float:
        return _finite_number(value, f"{path}.{key}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _construct(make, path, *args, **kwargs):
    """make(*args, **kwargs), with a refusal reported as a ConfigError at ``path``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build(cls, cfg, path, extra=()):
    """The dataclass ``cls`` from the JSON object ``cfg``.

    Its fields are the schema: any other key (beyond ``extra``) is
    refused, a field without a default is required, and a field
    annotated ``int`` takes a JSON integer, any other a finite number.
    """
    schema = fields(cls)
    _reject_unknown_keys(cfg, (*extra, *(field.name for field in schema)), path)
    kwargs = {
        field.name: _expect(cfg, field.name, path, int if field.type in (int, "int") else float)
        for field in schema
        if field.name in cfg or field.default is MISSING
    }
    return _construct(cls, path, **kwargs)


def _oracle_option(cfg, key, low) -> int:
    """Option ``key`` or the library's default; below ``low`` it is refused even with its route off."""
    value = _expect(cfg, key, "config", int, required=False, default=_ORACLE_DEFAULTS[key])
    if value < low:
        raise ConfigError(f"config.{key}: must be >= {low}, got {value}")
    return value


def _build_grid(cfg, path="grid") -> TimeGrid:
    grid = _build(TimeGrid, cfg, path)
    if grid.n_samples > MAX_GRID_SAMPLES:
        raise ConfigError(f"{path}.n_samples: {grid.n_samples} is above the budget of {MAX_GRID_SAMPLES} samples")
    return grid


def _build_profile(cfg, config_dir: Path, path="profile") -> CouplingProfile:
    kind = _expect(cfg, "type", path, str)
    if kind in _PROFILES:
        return _build(_PROFILES[kind], cfg, path, extra=("type",))
    if kind != "sampled":
        raise ConfigError(f"{path}.type: unknown profile type {kind!r}; valid types are {[*_PROFILES, 'sampled']}")
    _reject_unknown_keys(cfg, ("type", "csv", "grid", "values"), path)
    if "csv" in cfg:
        if "grid" in cfg or "values" in cfg:
            raise ConfigError(f"{path}: give either csv or grid and values, not both")
        # an absolute csv path replaces config_dir
        return _construct(load_sampled_csv, path, config_dir / _expect(cfg, "csv", path, str))
    grid = _build_grid(_expect(cfg, "grid", path, dict), f"{path}.grid")
    return _construct(CouplingSignal, path, grid, _finite_numbers(cfg, "values", path))


def _build_scan(raw, path="scan") -> tuple:
    """The config's ScanSpec, with the dt and tail_rel an eta scan builds its grids for; Nones without a scan."""
    if raw.get("scan") is None:  # a null scan means absent
        return None, None, None
    cfg = _expect(raw, "scan", "config", dict)
    kind = _expect(cfg, "kind", path, str)
    if kind not in _SCAN_KEYS:
        raise ConfigError(f"{path}.kind: expected 'eta' or 'amplitude', got {kind!r}")
    _reject_unknown_keys(cfg, _SCAN_KEYS[kind], path)
    values = _finite_numbers(cfg, "values", path)
    if not values:
        raise ConfigError(f"{path}.values: scan list must be nonempty")
    dt = _expect(cfg, "dt", path, float, required=False)
    tail_rel = _expect(cfg, "tail_rel", path, float, required=False, default=SCAN_TAIL_REL_DEFAULT)
    return ScanSpec(kind=kind, values=tuple(values)), dt, tail_rel


def load_config(path) -> Scenario:
    """Parse a scenario config file and plan its run by the library's own rules, each refusal at its config path."""
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
    # the CSV's first cell, in UTF-8: a comma, quote or line break breaks its row, and a leading # reads as a footer
    if scenario_id.startswith("#") or any(c in ',"\r\n' or "\ud800" <= c <= "\udfff" for c in scenario_id):
        raise ConfigError(f"config.scenario_id: must not start with # or hold a comma, double quote, CR, LF or "
                          f"lone surrogate, got {scenario_id!r}")
    params = _build(PhysicalParams, _expect(raw, "params", "config", dict), "params")
    profile_config = _expect(raw, "profile", "config", dict)
    profile = _build_profile(profile_config, path.parent)
    scan, dt, scan_tail_rel = _build_scan(raw)
    kind = scan.kind if scan else None
    if kind != "eta" and raw.get("grid") is None:  # an eta scan builds its own grids
        raise ConfigError("config.grid: required unless the scenario is an eta scan")
    grid = None if kind == "eta" else _build_grid(_expect(raw, "grid", "config", dict))

    routes = _expect(raw, "routes", "config", list)
    options = {key: _oracle_option(raw, key, low)
               for key, low in (("fock_truncation", 2), ("fock_substeps", 1), ("mode_substeps", 1))}
    tail_rel = _expect(raw, "tail_rel", "config", float, required=False, default=TAIL_REL_DEFAULT)
    if kind == "eta":  # a top-level tail_rel is refused below
        tail_rel = scan_tail_rel
    try:
        routes, points = _plan(params, routes, kind, profile, scan.values if scan else None, grid, dt, tail_rel,
                               **options)
    except (ValueError, TypeError) as exc:
        at = "scan.tail_rel" if kind == "eta" and exc.field == "tail_rel" else _PLAN_PATHS[exc.field]
        raise ConfigError(f"{at}: {exc}") from exc
    for key, instead in (("grid", "scan.dt"), ("tail_rel", "scan.tail_rel")):
        if kind == "eta" and raw.get(key) is not None:  # it sizes its own grids and tests their tails
            raise ConfigError(f"config.{key}: an eta scan builds its own grids; set {instead} instead")
    # q finite at each grid end, where a ramp's |gamma*t| peaks
    at = "config.scan" if scan else "config.grid"
    for point, point_grid in points:  # a signal refuses a grid outside its span
        if not all(map(math.isfinite, _construct(point.evaluate, at, [point_grid.t_start, point_grid.t_end]))):
            raise ConfigError(f"{at}: q of {point} is not finite at a grid end")

    return Scenario(
        scenario_id=scenario_id,
        params=params,
        points=tuple(points),
        profile_config=dict(profile_config),
        routes=routes,
        **options,
        tail_rel=tail_rel,
        scan=scan,
    )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run the selected routes over the scenario's points in one route pass, one report row per point."""
    scan = scenario.scan
    eta_scan = scan is not None and scan.kind == "eta"
    reports = _run_points(scenario.params, scenario.routes, scenario.points, scenario.tail_rel,
                          scenario.fock_truncation, scenario.fock_substeps, scenario.mode_substeps,
                          refuse_tails=eta_scan)
    if scan is None:
        return ScenarioResult(scenario, rows=((None, reports[0]),))
    rows = tuple(zip(scan.values, reports))
    return ScenarioResult(scenario, rows=rows, scan=_fit(scan.values, reports, scenario.routes) if eta_scan else None)


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


def _json_float(value) -> Optional[float]:
    """``value`` as a JSON number, or None (null) where it is not finite: strict
    JSON has no NaN or Infinity, and a scan fit has no slope for one point or a dE of 0."""
    value = float(value)
    return value if math.isfinite(value) else None


def _render_json(result: ScenarioResult) -> str:
    scenario = result.scenario
    rows = []
    for eta_or_amp, report in result.rows:
        rows.append({
            "eta_or_amp": eta_or_amp,
            **{column: getattr(report, attribute) for column, attribute in _REPORT_COLUMNS},
            "tail_warning": report.tail_warning,
            "tail_ratio": report.tail_ratio,
            "tail_rel": report.tail_rel,
            "transition_probability": _json_float(report.transition_probability),
            "grid": {**asdict(report.grid), "dt": report.grid.dt},
        })
    scan_obj = None
    if result.scan is not None:
        scan_obj = {
            "kind": "eta",
            "etas": list(map(float, result.scan.etas)),
            "delta_e": list(map(float, result.scan.delta_e)),
            "delta_e_times_eta": list(map(_json_float, result.scan.delta_e_times_eta)),
            "slope_delta_e": _json_float(result.scan.slope_delta_e),
            "slope_delta_e_times_eta": _json_float(result.scan.slope_delta_e_times_eta),
        }
    obj = {
        "schema_version": "2",
        "scenario_id": scenario.scenario_id,
        "profile": scenario.profile_config,
        "params": asdict(scenario.params),
        "routes": list(scenario.routes),
        "rows": rows,
        "scan": scan_obj,
    }
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        result = run_scenario(load_config(args.config))
        payload = emit_report(result, args.format)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    flagged = [(i, report) for i, (_, report) in enumerate(result.rows) if report.tail_warning]
    if flagged:
        print(f"warning: row(s) {', '.join(str(i) for i, _ in flagged)}: coupling at a grid endpoint above "
              f"tail_rel={flagged[0][1].tail_rel:g} of its peak", file=sys.stderr)
    if args.out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return 0
    try:
        Path(args.out).write_bytes(payload)
    except OSError as exc:  # a missing directory, a directory, no permission
        print(f"error: --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
