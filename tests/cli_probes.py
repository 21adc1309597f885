"""Every CLI exit-code probe, in one table.

Each probe is a config that must end in one exit code (0, 2 or 3) with
one expected stderr.  ``test_cli.py`` runs the table in-process through
``casfric.cli.main``.  Run as a script, this module spawns
``python -W error -m casfric.cli`` on each probe, so the same table can be
checked with the runtime dependencies only:

    PYTHONPATH=src python tests/cli_probes.py

Expected stderr is literal text in which ``{dir}`` stands for the
directory the probe's files are written to and ``...`` for any text
within a line; it must match the whole of stderr.
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
    config: dict  # the config, or the top-level edits of ``shipped``
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


def ramp(kind, t_start, **rates):
    """A ramp through hb on 101 samples from ``t_start`` to 1e10."""
    return pulse(profile={"type": kind, **rates}, grid={"t_start": t_start, "t_end": 1e10, "n_samples": 101})


def sampled(name, csv, code, stderr):
    """The shipped sampled config, reading <name>.csv made by ``csv`` from the shipped CSV."""
    config = {"profile": {"type": "sampled", "csv": f"{name}.csv"}}
    return Probe(name, config, code, stderr, shipped="sampled_profile.json", csv=csv)


GRID_241 = {"t_start": -12.0, "t_end": 12.0, "n_samples": 241}
OVERFLOW = "numerical failure: {}: float overflow\n"
NOT_FINITE = "error: signal values must be finite\n"
MODE_UNSTABLE = ("numerical failure: mode {}: h*Omega_max = {} is above RK4's stability limit 2*sqrt(2) = 2.83; "
                 "raise mode_substeps\n")
FOCK_OVER_BUDGET = ("error: the Fock (N = 10) oracle's {} steps would take about {} s, above the work budget "
                    "of 60 s; lower fock_truncation, fock_substeps or n_samples\n")
RAMP_3201 = pulse(profile={"type": "symmetric_ramp", "gamma": 0.05, "eta": 0.1},
                  grid={"t_start": -400.0, "t_end": 400.0, "n_samples": 3201}, routes=["hb", "mode_oracle"])

PROBES = {probe.name: probe for probe in [
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
          2, "error: profile: Flyby.d must give a finite peak coupling charge^2/d^3, got d=1e-200 with charge=1e-200\n"),
    # eta*|t| overflows, so exp gives 0 and q = 0: exit 0
    Probe("symmetric_eta", ramp("symmetric_ramp", -1e10, gamma=1.0, eta=1e300), 0),
    Probe("exponential_eta", ramp("exponential_ramp", 0.0, gamma=1.0, eta=1e300), 0),
    # gamma*t overflows, so q is not finite: refused with exit 2
    Probe("symmetric_gamma", ramp("symmetric_ramp", -1e10, gamma=1e300, eta=1e-300), 2, NOT_FINITE),
    Probe("exponential_gamma", ramp("exponential_ramp", 0.0, gamma=1e300, eta=1e-300), 2, NOT_FINITE),
    # scan and grid must be JSON objects; a null one still means absent
    Probe("scan_not_object", pulse(scan=5), 2, "error: config.scan: expected dict, got int\n"),
    Probe("grid_not_object", pulse(grid=5), 2, "error: config.grid: expected dict, got int\n"),
    # a null grid is absent in an eta scan; a null tail_rel is not a number
    Probe("eta_grid_null", {"grid": None}, 0, shipped="adiabatic_scan.json"),
    Probe("eta_tail_rel_null", {"tail_rel": None}, 2, "error: config.tail_rel: expected a number, got None\n",
          shipped="adiabatic_scan.json"),
    # a run the work budget refuses exits 2 before any route runs: 4.8e12
    # mode steps would take days and ask for 70 GB of chunk products
    Probe("mode_over_budget", {"mode_substeps": 10**9, "routes": ["hb", "mode_oracle"]}, 2,
          ("error: the mode oracle's 4800000000000 steps would take about 7.06e+05 s, above the work budget "
           "of 60 s; lower mode_substeps or n_samples\n"), shipped="gaussian_benchmark.json"),
    Probe("fock_over_budget", {"fock_substeps": 100000}, 2, FOCK_OVER_BUDGET.format(480000000, "6.72e+03"),
          shipped="gaussian_benchmark.json"),
    # the eta = 1e-4 grid's Fock run is over the budget; the eta = 2 point
    # alone is exit 3 (its one mode substep leaves a defect of 4.3e-6), so
    # the scan is refused before any point runs
    Probe("eta_scan_over_budget", {"routes": ["hb", "mode_oracle", "fock_oracle"],
                                   "scan": {"kind": "eta", "values": [2.0, 1e-4]}},
          2, FOCK_OVER_BUDGET.format(28091788, "393"), shipped="adiabatic_scan.json"),
    # the cap of N = 83 is gone: N = 84 runs 20 steps in about 40 ms
    Probe("truncation_84", pulse(profile={"type": "gaussian_pulse", "q0": 0.01, "tau": 0.01},
                                 grid={"t_start": -0.1, "t_end": 0.1, "n_samples": 21},
                                 routes=["hb", "fock_oracle"], fock_truncation=84, fock_substeps=1),
          0),
]}


def write_probe(probe, directory):
    """Write ``probe``'s files into ``directory``; return the CLI's argv."""
    config = probe.config
    if probe.shipped is not None:
        config = {**json.loads((CONFIG_DIR / probe.shipped).read_text()), **config}
    path = Path(directory) / f"{probe.name}.json"
    path.write_text(json.dumps(config))
    if probe.csv is not None:
        rows = probe.csv((CONFIG_DIR / "sampled_profile.csv").read_text().splitlines())
        path.with_suffix(".csv").write_text("\n".join(rows) + "\n")
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
