"""Every CLI exit-code probe, in one table.

Each probe is a config that must end in one exit code (0, 2 or 3) with
one expected stderr.  ``test_cli.py`` runs the table in-process through
``casfric.cli.main``.  Run as a script, this module spawns
``python -W error -m casfric.cli`` on each probe, so the same table can be
checked with the runtime dependencies only:

    PYTHONPATH=src python tests/cli_probes.py

Expected stderr is literal text in which ``{dir}`` stands for the
directory the probe's files are written to and ``...`` for any text
within a line (a platform-dependent number); it must match the whole of
stderr.  A probe exits 2 exactly when ``load_config`` refuses its config,
with the refusal's ``error:`` line as the whole of stderr, unless its
arguments hold ``--out``.
"""
import json
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@dataclass(frozen=True)
class Probe:
    name: str
    config: dict | str  # the config, the top-level edits of ``shipped``, or raw text
    code: int
    stderr: str = ""
    shipped: str | None = None  # a shipped config that ``config`` edits
    csv: Callable | None = None  # the shipped CSV's lines -> the lines of <name>.csv
    args: tuple = ()  # extra CLI arguments; {dir} as in stderr


def pulse(**edits):
    """A Gaussian pulse through hb on 481 samples, with top-level ``edits``."""
    return {"params": {"mass": 1.0, "omega": 1.0},
            "profile": {"type": "gaussian_pulse", "q0": 0.01, "tau": 1.0},
            "grid": {"t_start": -12.0, "t_end": 12.0, "n_samples": 481},
            "routes": ["hb"], **edits}


def without(key):
    """The pulse without its top-level ``key``."""
    return {name: value for name, value in pulse().items() if name != key}


def eta_scan(**scan):
    """A symmetric ramp's eta scan through hb at eta = 0.1, with ``scan``'s keys replaced."""
    return {"params": {"mass": 1.0, "omega": 1.0},
            "profile": {"type": "symmetric_ramp", "gamma": 0.001, "eta": 1.0},
            "routes": ["hb"], "scan": {"kind": "eta", "values": [0.1], **scan}}


def ramp(kind, t_start, **rates):
    """A ramp through hb on 101 samples from ``t_start`` to 1e10."""
    return pulse(profile={"type": kind, **rates}, grid={"t_start": t_start, "t_end": 1e10, "n_samples": 101})


def inline(value=0.005, **profile):
    """A pulse whose inline sampled values hold ``value`` at index 1, with ``profile`` edits."""
    return pulse(profile={"type": "sampled", "grid": INLINE_GRID, "values": [0.0, value, 0.01, 0.005, 0.0],
                          **profile})


def sampled(name, csv, code, stderr, **fields):
    """The shipped sampled config, reading <name>.csv made by ``csv`` from the shipped CSV."""
    config = {"profile": {"type": "sampled", "csv": f"{name}.csv"}}
    return Probe(name, config, code, stderr, shipped="sampled_profile.json", csv=csv, **fields)


def table(probes):
    """``probes`` by name; a name given twice is refused."""
    by_name = {}
    for probe in probes:
        if probe.name in by_name:
            raise ValueError(f"two probes are named {probe.name!r}")
        by_name[probe.name] = probe
    return by_name


GRID_241 = {"t_start": -12.0, "t_end": 12.0, "n_samples": 241}
GRID_41 = {"t_start": -2.0, "t_end": 2.0, "n_samples": 41}
GRID_3201 = {"t_start": -40.0, "t_end": 40.0, "n_samples": 3201}
INLINE_GRID = {"t_start": -12.0, "t_end": 12.0, "n_samples": 5}
NAN, INF = float("nan"), float("inf")
OVERFLOW = "numerical failure: {}: float overflow\n"
NOT_FINITE = "error: config.{}: q of {} is not finite at a grid end\n"
MODE_UNSTABLE = ("numerical failure: mode {}: h*Omega_max = {} is above RK4's stability limit 2*sqrt(2) = 2.83; "
                 "raise mode_substeps\n")
FOCK_OVER_BUDGET = ("error: config: the Fock (N = 10) oracle's {} steps would take about {} s, above the work budget "
                    "of 60 s; lower fock_truncation, fock_substeps or the grid's sample count\n")
SCENARIO_ID = ("error: config.scenario_id: must not start with # or hold a comma, double quote, CR, LF or lone "
               "surrogate, got {!r}\n")
RAMP_3201 = pulse(profile={"type": "symmetric_ramp", "gamma": 0.05, "eta": 0.1},
                  grid={"t_start": -400.0, "t_end": 400.0, "n_samples": 3201}, routes=["hb", "mode_oracle"])

PROBES = table([
    Probe("overflow", pulse(profile={"type": "gaussian_pulse", "q0": 1e308, "tau": 1.0}, routes=["barton", "hb"]),
          3, OVERFLOW.format("barton")),
    # every sample is finite; the trapezoid's pair sums overflow in hb alone too
    Probe("overflow_hb", pulse(profile={"type": "gaussian_pulse", "q0": 1e308, "tau": 1.0}), 3, OVERFLOW.format("hb")),
    # h*omega*(2N+1) = 0.12*81 = 9.72 > 2*sqrt(2): the Fock state diverges
    Probe("unstable_fock", pulse(grid={"t_start": -12.0, "t_end": 12.0, "n_samples": 201}, routes=["fock_oracle"],
                                 fock_truncation=40, fock_substeps=1),
          3, ("numerical failure: norm drifted by ... (> 1e-06); h*omega*(2N+1) = 9.72 is above RK4's stability limit "
             "2*sqrt(2) = 2.83; raise dt_substeps\n")),
    # b^2 underflows and |I|^2 overflows; barton squares b*|I|
    Probe("small_hbar", pulse(params={"mass": 1.0, "omega": 1.0, "hbar": 1e-300},
                              profile={"type": "gaussian_pulse", "q0": 1.0, "tau": 1.0}, routes=["barton", "hb"]),
          0),
    # b = hbar/(2*mass*omega) overflows to inf: refused at load time
    Probe("tiny_mass", pulse(params={"mass": 5e-324, "omega": 1.0}, routes=["barton", "hb"]),
          2, ("error: params: b = hbar/(2*mass*omega) must be positive and finite, "
             "got hbar=1.0, mass=5e-324, omega=1.0\n")),
    Probe("missing_out_dir", {}, 2, "error: --out {dir}/missing/report.csv: No such file or directory\n",
          shipped="flyby.json", args=("--out", "{dir}/missing/report.csv")),
    Probe("out_is_dir", {}, 2, "error: --out {dir}: Is a directory\n", shipped="flyby.json", args=("--out", "{dir}")),
    # the trapezoid is finite; barton's -i/(2 hbar) scaling of it overflows
    Probe("barton_scaling", pulse(params={"mass": 1.0, "omega": 1.0e-20, "hbar": 8.7e-299},
                                  profile={"type": "exponential_ramp", "gamma": 1.16e115, "eta": 1.0},
                                  grid={"t_start": 0.0, "t_end": 40.0, "n_samples": 241}, routes=["barton"]),
          3, OVERFLOW.format("barton")),
    # 2*hbar*omega underflows to 0: refused at load time
    Probe("zero_gap", pulse(params={"mass": 1.0, "omega": 1.85e-219, "hbar": 4.49e-252},
                            profile={"type": "flyby", "charge": 1e-150, "d": 1.0, "v": 1.0},
                            grid=GRID_241, routes=["fock_oracle"]),
          2, "error: params: the gap 2*hbar*omega underflows to 0, got hbar=4.49e-252, omega=1.85e-219\n"),
    # 2*hbar*omega overflows to inf while b = 5e299 is finite: refused at load time
    Probe("gap_overflow", pulse(params={"mass": 1e-10, "omega": 1e10, "hbar": 1e300},
                                profile={"type": "gaussian_pulse", "q0": 1e-30, "tau": 1e-9},
                                grid={"t_start": -1.2e-8, "t_end": 1.2e-8, "n_samples": 4801},
                                routes=["hb", "mode_oracle", "fock_oracle"], fock_truncation=4, fock_substeps=4),
          2, "error: params: the gap 2*hbar*omega overflows to inf, got hbar=1e+300, omega=10000000000.0\n"),
    # hb's transform is finite; its product with b/hbar = 5e299 overflows
    Probe("hb_overflow", pulse(params={"mass": 1e-300, "omega": 1.0},
                               profile={"type": "gaussian_pulse", "q0": 1e10, "tau": 1.0}),
          3, OVERFLOW.format("hb")),
    # the coupling strength is the profile's: params has no charge field
    Probe("params_charge", pulse(params={"mass": 1.0, "omega": 1.0, "charge": 1.0}),
          2, "error: params.charge: unknown field; valid fields are ['mass', 'omega', 'hbar']\n"),
    # d**2 underflows to 0, so the flyby's peak charge^2/d^3 is infinite: refused at load time
    Probe("flyby_peak", pulse(profile={"type": "flyby", "charge": 1.0, "d": 2.1e-262, "v": 1.0}, grid=GRID_241),
          2, "error: profile: Flyby.d must give a finite peak coupling charge^2/d^3, got d=2.1e-262 with charge=1.0\n"),
    # the mode oracle's transfer-matrix product would overflow, but h*Omega is
    # far past RK4's stability limit: refused before the sweep begins
    Probe("mode_unstable", pulse(params={"mass": 1.0, "omega": 3.23e48},
                                 profile={"type": "gaussian_pulse", "q0": 1.92, "tau": 0.376},
                                 grid=GRID_241, routes=["mode_oracle"]),
          3, MODE_UNSTABLE.format("+1", "3.23e+47")),
    # three samples on +-12: the first-order routes print a number, the mode oracle refuses h = 12
    Probe("mode_coarse_grid", pulse(profile={"type": "gaussian_pulse", "q0": 0.3, "tau": 1.0},
                                    grid={"t_start": -12.0, "t_end": 12.0, "n_samples": 3},
                                    routes=["hb", "mode_oracle"]),
          3, MODE_UNSTABLE.format("+1", "13.7")),
    # every step is stable, but one substep's error over 3200 steps breaks |alpha|^2 - |beta|^2 = 1
    Probe("mode_defect", RAMP_3201, 3,
          ("numerical failure: mode +1: |alpha|^2 - |beta|^2 drifted from 1 by -1.087e-02 of |alpha|^2 + |beta|^2 "
           "(> 1e-06); raise mode_substeps\n")),
    Probe("mode_defect_resolved", {**RAMP_3201, "mode_substeps": 16}, 0),
    # the + mode is past RK4's stability limit, but the - mode inverts: that is
    # refused from the samples first, still with exit 3
    Probe("mode_inversion_before_overflow",
          pulse(profile={"type": "gaussian_pulse", "q0": 1e10, "tau": 1.0}, routes=["mode_oracle"]),
          3, "numerical failure: Omega^2 <= 0 for mode -1: max q = 1e+10 reaches m*w^2 = 1\n"),
    # a NaN time in data row 500 of the shipped CSV: the loader's spacing tests both read false on it
    sampled("nan_time", lambda rows: [*rows[:500], "nan," + rows[500].split(",")[1], *rows[501:]],
            2, "error: profile: {dir}/nan_time.csv: times must be finite\n"),
    # two blocks (2 * BLOCK_SAMPLES + 1 samples) whose pair sums are finite
    # (about 1.42e308 each) but overflow when added
    Probe("block_sum_overflow", pulse(params={"mass": 1.0, "omega": 1e-3},
                                      profile={"type": "gaussian_pulse", "q0": 8e307, "tau": 2.0},
                                      grid={"t_start": -12.0, "t_end": 12.0, "n_samples": 131073}),
          3, OVERFLOW.format("hb")),
    # t_end - t_start overflows to inf: refused at load time
    Probe("span_overflow", pulse(grid={"t_start": -1e308, "t_end": 1e308, "n_samples": 3}),
          2, "error: grid: the span t_end - t_start overflows, got [-1e+308, 1e+308]\n"),
    # three times at -1e308, 0 and 1e308: the span of the implied grid overflows
    sampled("extreme_times", lambda rows: [rows[0], "-1e308,0.0", "0.0,0.001", "1e308,0.0"],
            2, "error: profile: the span t_end - t_start overflows, got [-1e+308, 1e+308]\n"),
    # a header and no data row: refused as too few samples, without np.loadtxt's warning
    sampled("no_data", lambda rows: rows[:1], 2, "error: profile: {dir}/no_data.csv: need at least two samples\n"),
    # charge**2 and d**2 underflow to 0, so the flyby's peak is 0/0: refused at load time
    Probe("flyby_underflow", pulse(profile={"type": "flyby", "charge": 1e-200, "d": 1e-200, "v": 1.0}, grid=GRID_241),
          2, ("error: profile: Flyby.d must give a finite peak coupling charge^2/d^3, got d=1e-200 with "
              "charge=1e-200\n")),
    # eta*|t| overflows, so exp gives 0 and q = 0: exit 0
    Probe("symmetric_eta", ramp("symmetric_ramp", -1e10, gamma=1.0, eta=1e300), 0),
    Probe("exponential_eta", ramp("exponential_ramp", 0.0, gamma=1.0, eta=1e300), 0),
    # gamma*t overflows, so q is not finite at a grid end: refused at load time
    Probe("symmetric_gamma", ramp("symmetric_ramp", -1e10, gamma=1e300, eta=1e-300), 2,
          NOT_FINITE.format("grid", "SymmetricRamp(gamma=1e+300, eta=1e-300)")),
    Probe("exponential_gamma", ramp("exponential_ramp", 0.0, gamma=1e300, eta=1e-300), 2,
          NOT_FINITE.format("grid", "ExponentialRamp(gamma=1e+300, eta=1e-300)")),
    # an amplitude scan's every amplitude is checked at the grid ends, not only its first
    Probe("amplitude_overflow", {**ramp("symmetric_ramp", -1e10, gamma=0.001, eta=1e-300),
                                 "scan": {"kind": "amplitude", "values": [0.001, 1e300]}}, 2,
          NOT_FINITE.format("scan", "SymmetricRamp(gamma=1e+300, eta=1e-300)")),
    # scan and grid must be JSON objects; a null one still means absent
    Probe("scan_not_object", pulse(scan=5), 2, "error: config.scan: expected dict, got int\n"),
    Probe("grid_not_object", pulse(grid=5), 2, "error: config.grid: expected dict, got int\n"),
    # a null grid is absent in an eta scan; a null tail_rel is not a number
    Probe("eta_grid_null", {"grid": None}, 0, shipped="adiabatic_scan.json"),
    Probe("eta_tail_rel_null", {"tail_rel": None}, 2, "error: config.tail_rel: expected a number, got None\n",
          shipped="adiabatic_scan.json"),
    # a run the work budget refuses is refused at load time: 4.8e12
    # mode steps would take days and ask for 70 GB of chunk products
    Probe("mode_over_budget", {"mode_substeps": 10**9, "routes": ["hb", "mode_oracle"]}, 2,
          ("error: config: the mode oracle's 4800000000000 steps would take about 705600 s, above the work budget "
           "of 60 s; lower mode_substeps or the grid's sample count\n"), shipped="gaussian_benchmark.json"),
    Probe("fock_over_budget", {"fock_substeps": 100000}, 2, FOCK_OVER_BUDGET.format(480000000, 6716),
          shipped="gaussian_benchmark.json"),
    # the eta = 1e-4 grid's Fock run is over the budget; the eta = 2 point
    # alone is exit 3 (its one mode substep leaves a defect of 4.3e-6), so
    # the budget is checked on the largest eta grid, at load time
    Probe("eta_scan_over_budget", {"routes": ["hb", "mode_oracle", "fock_oracle"],
                                   "scan": {"kind": "eta", "values": [2.0, 1e-4]}},
          2, FOCK_OVER_BUDGET.format(28091788, 393), shipped="adiabatic_scan.json"),
    # inline sampled values are numbers, checked at their index as scan values are
    Probe("inline_object", inline({}), 2, "error: profile.values[1]: expected a number, got {}\n"),
    Probe("inline_string", inline("0.001"), 2, "error: profile.values[1]: expected a number, got '0.001'\n"),
    Probe("inline_bool", inline(True), 2, "error: profile.values[1]: expected a number, got True\n"),
    Probe("inline_huge", inline(10**400), 2, f"error: profile.values[1]: must be a finite number, got {10**400}\n"),
    # the budget's message is built from integers, so a count beyond the float range still reads
    Probe("truncation_huge", {"fock_truncation": 10**400}, 2,
          (f"error: config: the Fock (N = {10**400}) oracle's 19200 steps would take about 576... s, above the "
           "work budget of 60 s; lower fock_truncation, fock_substeps or the grid's sample count\n"),
          shipped="gaussian_benchmark.json"),
    # a tiny eta or dt asks for an infinite grid, refused before it is converted to a count
    Probe("eta_tiny", {"scan": {"kind": "eta", "values": [0.01, 5e-324]}}, 2,
          ("error: config.scan: eta=4.94066e-324 needs a grid of inf samples, above the budget of 100000000; "
           "raise eta or dt\n"),
          shipped="adiabatic_scan.json"),
    Probe("dt_tiny", {"scan": {"kind": "eta", "values": [0.01], "dt": 5e-324}}, 2,
          "error: config.scan: eta=0.01 needs a grid of inf samples, above the budget of 100000000; raise eta or dt\n",
          shipped="adiabatic_scan.json"),
    # dE near the float maximum times eta = 20 overflows: inf in the CSV, null in the JSON, without a warning
    Probe("eta_scan_times_eta_overflow",
          {"profile": {"type": "symmetric_ramp", "gamma": 1.00984747873744e+157, "eta": 1.0},
           "scan": {"kind": "eta", "values": [20, 30], "dt": 0.001}}, 0, shipped="adiabatic_scan.json"),
    # dE = 0 has no logarithm: the slopes are NaN, without a warning
    Probe("eta_scan_zero_gamma", {"profile": {"type": "symmetric_ramp", "gamma": 0.0, "eta": 1.0},
                                  "scan": {"kind": "eta", "values": [0.01, 0.1]}}, 0, shipped="adiabatic_scan.json"),
    # repeated etas have no slope: refused by the library's scan rule at config.scan
    Probe("eta_repeated", {"scan": {"kind": "eta", "values": [0.01, 0.1, 0.01]}}, 2,
          "error: config.scan: etas[2] repeats 0.01; a slope needs distinct etas\n", shipped="adiabatic_scan.json"),
    # the cap of N = 83 is gone: N = 84 runs 20 steps in about 40 ms
    Probe("truncation_84", pulse(profile={"type": "gaussian_pulse", "q0": 0.01, "tau": 0.01},
                                 grid={"t_start": -0.1, "t_end": 0.1, "n_samples": 21},
                                 routes=["hb", "fock_oracle"], fock_truncation=84, fock_substeps=1),
          0),
    # a config that is not JSON is refused at its line and column; JSON that
    # is not an object, as a whole
    Probe("invalid_json", '{\n  "params": {,}\n}', 2,
          ("error: invalid_json.json: invalid JSON at line 2, column 14: "
           "Expecting property name enclosed in double quotes\n")),
    Probe("top_level_list", "[1, 2]", 2, "error: top_level_list.json: top level must be a JSON object\n"),
    # every refusal at load time names the config path of the field at fault
    Probe("missing_profile", without("profile"), 2, "error: config.profile: missing required field\n"),
    Probe("missing_omega", pulse(params={"mass": 1.0}), 2, "error: params.omega: missing required field\n"),
    Probe("missing_grid", without("grid"), 2, "error: config.grid: required unless the scenario is an eta scan\n"),
    Probe("params_not_object", pulse(params=5), 2, "error: config.params: expected dict, got int\n"),
    Probe("negative_mass", pulse(params={"mass": -1.0, "omega": 1.0}), 2,
          "error: params: mass must be finite and positive, got -1.0\n"),
    Probe("unknown_profile", pulse(profile={"type": "square_wave", "q0": 1.0}), 2,
          ("error: profile.type: unknown profile type 'square_wave'; valid types are "
           "['exponential_ramp', 'symmetric_ramp', 'gaussian_pulse', 'flyby', 'sampled']\n")),
    Probe("unknown_route", pulse(routes=["barton", "kubo"]), 2,
          ("error: config.routes: unknown route 'kubo' at routes[1]; "
           "valid tokens are ['barton', 'hb', 'mode_oracle', 'fock_oracle']\n")),
    Probe("empty_routes", pulse(routes=[]), 2, "error: config.routes: at least one route must be selected\n"),
    Probe("tail_rel_null", pulse(tail_rel=None), 2, "error: config.tail_rel: expected a number, got None\n"),
    # json.loads accepts NaN, Infinity and integers beyond the float range; each is refused at its path
    Probe("q0_nan", pulse(profile={"type": "gaussian_pulse", "q0": NAN, "tau": 1.0}), 2,
          "error: profile.q0: must be a finite number, got nan\n"),
    Probe("mass_inf", pulse(params={"mass": INF, "omega": 1.0}), 2,
          "error: params.mass: must be a finite number, got inf\n"),
    Probe("mass_huge", pulse(params={"mass": 10**400, "omega": 1.0}), 2,
          f"error: params.mass: must be a finite number, got {10**400}\n"),
    Probe("t_start_inf", pulse(grid={"t_start": -INF, "t_end": 12.0, "n_samples": 481}), 2,
          "error: grid.t_start: must be a finite number, got -inf\n"),
    Probe("amplitude_nan", pulse(scan={"kind": "amplitude", "values": [0.01, NAN]}), 2,
          "error: scan.values[1]: must be a finite number, got nan\n"),
    Probe("eta_nan", eta_scan(values=[0.1, NAN]), 2, "error: scan.values[1]: must be a finite number, got nan\n"),
    # a Python float square raises instead of overflowing to inf
    Probe("flyby_charge_square", pulse(profile={"type": "flyby", "charge": 1e200, "d": 1.0, "v": 1.0}), 2,
          "error: profile: Flyby.charge must have a finite square, got 1e+200\n"),
    Probe("flyby_d_square", pulse(profile={"type": "flyby", "charge": 1.0, "d": 1e200, "v": 1.0}), 2,
          "error: profile: Flyby.d must have a finite square, got 1e+200\n"),
    Probe("grid_over_budget", pulse(grid={"t_start": -12.0, "t_end": 12.0, "n_samples": 100_000_001}), 2,
          "error: grid.n_samples: 100000001 is above the budget of 100000000 samples\n"),
    # tail_rel is in (0, 1), by the library's rule at its path, quoting the value given
    Probe("tail_rel_above_one", pulse(tail_rel=2.0), 2,
          "error: config.tail_rel: tail_rel must be in (0, 1), got 2.0\n"),
    Probe("tail_rel_zero", pulse(tail_rel=0.0), 2, "error: config.tail_rel: tail_rel must be in (0, 1), got 0.0\n"),
    Probe("scan_tail_rel_above_one", eta_scan(tail_rel=2.0), 2,
          "error: scan.tail_rel: tail_rel must be in (0, 1), got 2.0\n"),
    Probe("scan_tail_rel_negative", eta_scan(tail_rel=-1.0), 2,
          "error: scan.tail_rel: tail_rel must be in (0, 1), got -1.0\n"),
    Probe("scan_tail_rel_below_span_floor", eta_scan(tail_rel=1e-322), 2,
          "error: scan.tail_rel: tail_rel=1e-322 is too small: the span solve needs at least ~6.05e-307\n"),
    # an unknown key is refused at its path, in every object of the config
    Probe("unknown_top_key", pulse(fock_trunction=500), 2,
          ("error: config.fock_trunction: unknown field; valid fields are ['scenario_id', 'params', 'profile', "
           "'grid', 'routes', 'scan', 'fock_truncation', 'fock_substeps', 'mode_substeps', 'tail_rel']\n")),
    Probe("unknown_grid_key", pulse(grid={"t_start": -12.0, "t_end": 12.0, "n_samples": 481, "n_sampels": 11}), 2,
          "error: grid.n_sampels: unknown field; valid fields are ['t_start', 't_end', 'n_samples']\n"),
    Probe("unknown_profile_key", pulse(profile={"type": "gaussian_pulse", "q0": 0.01, "tau": 1.0, "eta": 1.0}), 2,
          "error: profile.eta: unknown field; valid fields are ['type', 'q0', 'tau']\n"),
    Probe("unknown_inline_grid_key", inline(grid={**INLINE_GRID, "n_sampels": 9}), 2,
          "error: profile.grid.n_sampels: unknown field; valid fields are ['t_start', 't_end', 'n_samples']\n"),
    Probe("unknown_scan_key", eta_scan(tail_rle=1e-3), 2,
          "error: scan.tail_rle: unknown field; valid fields are ['kind', 'values', 'dt', 'tail_rel']\n"),
    # an amplitude scan runs on config.grid: dt is not one of its keys
    Probe("amplitude_scan_dt", pulse(scan={"kind": "amplitude", "values": [0.01], "dt": 0.1}), 2,
          "error: scan.dt: unknown field; valid fields are ['kind', 'values']\n"),
    # scenario_id is the CSV's first cell: each of these would split its row, read as a footer or not encode
    Probe("scenario_id_comma", pulse(scenario_id="a,b"), 2, SCENARIO_ID.format("a,b")),
    Probe("scenario_id_quote", pulse(scenario_id='a"b'), 2, SCENARIO_ID.format('a"b')),
    Probe("scenario_id_cr", pulse(scenario_id="line1\rline2"), 2, SCENARIO_ID.format("line1\rline2")),
    Probe("scenario_id_lf", pulse(scenario_id="line1\nline2"), 2, SCENARIO_ID.format("line1\nline2")),
    Probe("scenario_id_hash", pulse(scenario_id="#adiabatic"), 2, SCENARIO_ID.format("#adiabatic")),
    Probe("scenario_id_surrogate", pulse(scenario_id="a\ud800b"), 2, SCENARIO_ID.format("a\ud800b")),
    # a sampled profile is a csv or inline samples, and a csv has at least two data rows
    Probe("csv_and_inline", inline(csv="samples.csv"), 2,
          "error: profile: give either csv or grid and values, not both\n"),
    sampled("csv_empty", lambda rows: [], 2, "error: profile: {dir}/csv_empty.csv: need at least two samples\n"),
    sampled("csv_blank_line", lambda rows: [rows[0], ""], 2,
            "error: profile: {dir}/csv_blank_line.csv: need at least two samples\n"),
    sampled("csv_one_row", lambda rows: rows[:2], 2,
            "error: profile: {dir}/csv_one_row.csv: need at least two samples\n"),
    # a signal is read only inside its sampled span, so config.grid must lie in it
    Probe("sampled_grid_outside_span", {"profile": {"type": "sampled", "csv": str(CONFIG_DIR / "sampled_profile.csv")},
                                        "grid": {"t_start": -20.0, "t_end": 20.0, "n_samples": 4001}},
          2, "error: config.grid: query outside the sampled span [-10.0, 10.0]\n", shipped="sampled_profile.json"),
    # a count below its floor is refused even with its route off
    Probe("fock_substeps_zero", pulse(fock_substeps=0), 2, "error: config.fock_substeps: must be >= 1, got 0\n"),
    Probe("fock_substeps_negative", pulse(fock_substeps=-1), 2, "error: config.fock_substeps: must be >= 1, got -1\n"),
    Probe("mode_substeps_zero", pulse(mode_substeps=0), 2, "error: config.mode_substeps: must be >= 1, got 0\n"),
    Probe("mode_substeps_negative", pulse(mode_substeps=-1), 2, "error: config.mode_substeps: must be >= 1, got -1\n"),
    # a scan is an eta scan of a ramp or an amplitude scan of a profile with an amplitude
    Probe("scan_kind_bogus", pulse(scan={"kind": "bogus", "values": [0.1]}), 2,
          "error: scan.kind: expected 'eta' or 'amplitude', got 'bogus'\n"),
    Probe("empty_scan", pulse(scan={"kind": "amplitude", "values": []}), 2,
          "error: scan.values: scan list must be nonempty\n"),
    Probe("eta_scan_of_a_pulse", pulse(scan={"kind": "eta", "values": [0.1]}), 2,
          "error: config.scan: adiabatic scans take a ramp family, got GaussianPulse\n"),
    Probe("amplitude_scan_of_a_flyby", pulse(profile={"type": "flyby", "charge": 1.0, "d": 1.0, "v": 1.0},
                                             scan={"kind": "amplitude", "values": [0.1]}),
          2, "error: config.scan: Flyby has no amplitude parameter\n"),
    Probe("eta_negative", eta_scan(values=[0.1, -1.0]), 2, "error: config.scan: etas[1] must be positive, got -1.0\n"),
    Probe("dt_zero", eta_scan(dt=0.0), 2, "error: config.scan: dt must be finite and positive, got 0.0\n"),
    Probe("dt_negative", eta_scan(dt=-0.1), 2, "error: config.scan: dt must be finite and positive, got -0.1\n"),
    # the default dt pi/(32*omega) overflows for a subnormal omega
    Probe("default_dt_overflows", {**eta_scan(), "params": {"mass": 1e300, "omega": 5e-324}}, 2,
          "error: config.scan: the default dt pi/(32*omega) overflows for omega=5e-324; set dt (scan.dt)\n"),
    # an eta scan builds its own grids and tests their tails at scan.tail_rel
    Probe("eta_scan_with_grid", {**eta_scan(), "grid": {"t_start": -1.0, "t_end": 1.0, "n_samples": 3}}, 2,
          "error: config.grid: an eta scan builds its own grids; set scan.dt instead\n"),
    Probe("eta_scan_with_tail_rel", {**eta_scan(), "tail_rel": 0.999}, 2,
          "error: config.tail_rel: an eta scan builds its own grids; set scan.tail_rel instead\n"),
    # distinct etas whose logs are equal leave the fit rank 1: NaN slopes, without numpy's RankWarning
    Probe("eta_nearly_equal", {"scan": {"kind": "eta", "values": [0.1, 0.10000000000000002]}}, 0,
          shipped="adiabatic_scan.json"),
    # an oracle that cannot resolve its run is exit 3 with one line, never a NaN
    Probe("mode_inverted", pulse(profile={"type": "gaussian_pulse", "q0": 2.0, "tau": 1.0}, routes=["mode_oracle"]),
          3, "numerical failure: Omega^2 <= 0 for mode -1: max q = 2 reaches m*w^2 = 1\n"),
    Probe("fock_norm_drift", pulse(grid={"t_start": -8.0, "t_end": 8.0, "n_samples": 81}, routes=["fock_oracle"],
                                   fock_truncation=6, fock_substeps=1),
          3, "numerical failure: norm drifted by ... (> 1e-06); refine dt_substeps or raise the truncation\n"),
    Probe("fock_diverges", pulse(profile={"type": "gaussian_pulse", "q0": 1e100, "tau": 1.0}, routes=["fock_oracle"],
                                 fock_truncation=3, fock_substeps=2),
          3, "numerical failure: norm drifted by nan (> 1e-06); refine dt_substeps or raise the truncation\n"),
    # barton's overflow is named first, whatever overflows it: the ramp's
    # gamma, the pulse's q0, or b = hbar/(2*mass*omega) = 5e299
    Probe("ramp_overflow", pulse(profile={"type": "symmetric_ramp", "gamma": 1e300, "eta": 1.0},
                                 grid=GRID_3201, routes=["barton", "hb", "mode_oracle"]),
          3, OVERFLOW.format("barton")),
    Probe("pulse_overflow", pulse(profile={"type": "gaussian_pulse", "q0": 1e200, "tau": 1.0},
                                  grid=GRID_3201, routes=["barton", "hb", "mode_oracle"]),
          3, OVERFLOW.format("barton")),
    Probe("small_mass_overflow", pulse(params={"mass": 1e-300, "omega": 1.0},
                                       profile={"type": "symmetric_ramp", "gamma": 0.001, "eta": 1.0},
                                       grid=GRID_3201, routes=["barton", "hb", "mode_oracle"]),
          3, OVERFLOW.format("barton")),
    # one block whose two halves' pair sums (about 1.42e308 each) overflow when added
    Probe("pair_sum_overflow", pulse(params={"mass": 1.0, "omega": 1e-3},
                                     profile={"type": "gaussian_pulse", "q0": 8e307, "tau": 2.0},
                                     grid={"t_start": -12.0, "t_end": 12.0, "n_samples": 48001}),
          3, OVERFLOW.format("hb")),
    # unresolved tails are one warning line naming the flagged rows at the configured tail_rel, and exit 0
    Probe("tails_unresolved", pulse(grid=GRID_41, routes=["mode_oracle", "fock_oracle"],
                                    fock_truncation=4, fock_substeps=2),
          0, "warning: row(s) 0: coupling at a grid endpoint above tail_rel=1e-10 of its peak\n"),
    # exp(-4) = 1.8e-2 at the endpoints: flagged at 1e-3, not at 0.5
    Probe("tails_flagged_at_tail_rel", pulse(grid=GRID_41, scan={"kind": "amplitude", "values": [0.01, 0.02]},
                                             tail_rel=1e-3),
          0, "warning: row(s) 0, 1: coupling at a grid endpoint above tail_rel=0.001 of its peak\n"),
    Probe("tails_resolved_at_tail_rel", pulse(grid=GRID_41, scan={"kind": "amplitude", "values": [0.01, 0.02]},
                                              tail_rel=0.5),
          0),
])


def write_probe(probe, directory):
    """Write ``probe``'s files into ``directory``; return the CLI's argv."""
    config = probe.config
    if probe.shipped is not None:
        config = {**json.loads((CONFIG_DIR / probe.shipped).read_text()), **config}
    path = Path(directory) / f"{probe.name}.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    if probe.csv is not None:
        rows = probe.csv((CONFIG_DIR / "sampled_profile.csv").read_text().splitlines())
        path.with_suffix(".csv").write_text("".join(f"{row}\n" for row in rows))
    return [str(path), *(arg.replace("{dir}", str(directory)) for arg in probe.args)]


def stderr_matches(probe, stderr, directory):
    """Whether ``stderr`` is the whole of ``probe``'s expected stderr."""
    pieces = probe.stderr.replace("{dir}", str(directory)).split("...")
    return re.fullmatch(".*".join(map(re.escape, pieces)), stderr) is not None


def spawn(probe, directory):
    """What is wrong when ``python -W error -m casfric.cli`` runs ``probe``."""
    run = subprocess.run([sys.executable, "-W", "error", "-m", "casfric.cli", *write_probe(probe, directory)],
                         capture_output=True, text=True)
    faults = [f"exit {run.returncode}, expected {probe.code}"] if run.returncode != probe.code else []
    if not stderr_matches(probe, run.stderr, directory):
        faults.append(f"stderr is not {probe.stderr!r}")
    if probe.code and run.stdout:
        faults.append("a failure wrote to stdout")
    if "Traceback" in run.stderr or "Warning" in run.stderr:
        faults.append("a traceback or warning on stderr")
    return [f"{probe.name}: {fault}\n{run.stderr}" for fault in faults]


def run_all(probes):
    """Spawn every probe; print each fault and return 1 if there is any."""
    with tempfile.TemporaryDirectory() as directory:
        faults = [fault for probe in probes for fault in spawn(probe, directory)]
    print(*faults, f"{len(probes)} probes, {len(faults)} faults", sep="\n")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(run_all(list(PROBES.values())))
