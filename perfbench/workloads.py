"""The benchmark's workloads: inputs made from a seed, the public casfric
calls that do the work, and the checks that every result must pass.

Each library workload runs in a fresh interpreter, one per repetition, so
import, set-up and peak memory are paid per repetition:

    PYTHONPATH=src python3 perfbench/workloads.py fock-cross-oracle --seed 0

It prints one JSON object on its last line of standard output. ``run.py``
starts these processes and spawns the casfric CLI itself for
``cli-configs``; this module gives that workload its configs and checks.

Nothing here imports numpy or casfric at module level: the first import of
casfric in a process is part of ``setup_s``.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"

# Acceptance tolerances (ROADMAP criteria 1, 2, 3 and 5).
ROUTE_AGREEMENT = 1e-12  # |barton - hb| / barton
FIRST_ORDER = 0.01  # |mode - barton| / barton
CROSS_ORACLE = 1e-3  # |fock - mode| / mode
SLOPE_TOL = 0.05  # fitted log-log slopes
FLATNESS = 1.05  # max/min of the abrupt ramp's dE
# CLI outputs: numeric fields within this relative distance of the recorded
# output; see expected/README.md.
CLI_REL_TOL = 1e-9

# Library exceptions are recorded as failed operations and the run goes on.
# casfric's ConfigError is a ValueError, its NumericalFailure a RuntimeError.
_OPERATION_ERRORS = (ArithmeticError, ValueError, TypeError, RuntimeError)


class Checks:
    """Outcome of every operation of one repetition.

    An operation is one config run, one scan point or one amplitude point.
    It fails when any check on it fails or its computation raised.
    """

    def __init__(self):
        self.ops = {}  # operation label -> list of (layer, message)

    def expect(self, op, layer, ok, message):
        problems = self.ops.setdefault(op, [])
        if not ok:
            problems.append((layer, message))

    def fail(self, op, layer, message):
        self.expect(op, layer, False, message)

    def summary(self):
        failures = {op: problems for op, problems in self.ops.items() if problems}
        by_layer = {}
        for problems in failures.values():
            for layer, _ in problems:
                by_layer[layer] = by_layer.get(layer, 0) + 1
        return {
            "attempted": len(self.ops),
            "failed": len(failures),
            "failures": failures,
            "failed_checks_by_layer": by_layer,
        }


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def scan_values(lo, hi, count, seed):
    """``count`` values from ``lo`` to ``hi``, both ends always included.

    Seed 0 gives the geometric grid. Another seed moves each interior value
    by up to a thirty-second of its log-spaced cell, in both directions, so
    the values stay ordered and the work per run stays within 1 % of seed
    0's (eta-scan work goes as the sum of 1/eta).
    """
    import numpy as np

    values = np.geomspace(lo, hi, count)
    if seed:
        rng = random.Random(seed)
        cell = math.log(hi / lo) / (count - 1)
        for k in range(1, count - 1):
            values[k] *= math.exp(rng.uniform(-1 / 32, 1 / 32) * cell)
    return [float(v) for v in values]


# --------------------------------------------------------------------------
# fock-cross-oracle: criterion 3, all four routes on one Gaussian pulse.


def fock_setup(cf, seed, small):
    # The seed has nothing to choose: criterion 3 fixes q0, tau and the grid.
    return {
        "params": cf.PhysicalParams(mass=1.0, omega=1.0),
        "grid": cf.TimeGrid(-12.0, 12.0, 4801 if small else 48001),
        "profile": cf.GaussianPulse(q0=1e-2, tau=1.0),
    }


def fock_run(cf, inputs, checks):
    op = "q0=0.01"
    try:
        signal = cf.sample(inputs["profile"], inputs["grid"])
        report = cf.compare_routes(
            signal, inputs["params"], routes=cf.ROUTES, fock_truncation=10, fock_substeps=1
        )
    except _OPERATION_ERRORS as exc:
        checks.fail(op, "oracle", f"{type(exc).__name__}: {exc}")
        return
    check_fock_row(checks, op, report.populated())


def check_fock_row(checks, op, de):
    d = rel(de["barton"], de["hb"])
    checks.expect(op, "dissipation", d <= ROUTE_AGREEMENT, f"barton vs hb differ by {d:.3e}")
    d = rel(de["fock_oracle"], de["mode_oracle"])
    checks.expect(op, "oracle", d <= CROSS_ORACLE, f"fock vs mode differ by {d:.3e}")
    d = rel(de["mode_oracle"], de["barton"])
    checks.expect(op, "oracle", d <= FIRST_ORDER, f"mode vs first order differ by {d:.3e}")


# --------------------------------------------------------------------------
# mode-amplitude-scan: criterion 2, q0 from 1e-3 to 1e-2, no Fock run.
# Below q0 ~ 5e-4 the mode-vs-first-order discrepancy reaches the O(dt^2)
# floor of the two routes' discretisations (-1.5e-7 at q0 = 1e-4 on this
# grid) and no longer falls with q0; see README.md.


def amplitude_setup(cf, seed, small):
    return {
        "params": cf.PhysicalParams(mass=1.0, omega=1.0),
        "grid": cf.TimeGrid(-12.0, 12.0, 48001),
        "q0s": scan_values(1e-3, 1e-2, 3 if small else 9, seed),
    }


def amplitude_run(cf, inputs, checks):
    rows = []
    for q0 in inputs["q0s"]:
        try:
            signal = cf.sample(cf.GaussianPulse(q0=q0, tau=1.0), inputs["grid"])
            report = cf.compare_routes(
                signal, inputs["params"], routes=("barton", "hb", "mode_oracle")
            )
        except _OPERATION_ERRORS as exc:
            checks.fail(f"q0={q0:.6g}", "oracle", f"{type(exc).__name__}: {exc}")
            continue
        rows.append((q0, report.populated()))
    check_amplitude_rows(checks, rows)


def check_amplitude_rows(checks, rows):
    """``rows``: (q0, route -> dE) in increasing q0."""
    previous = None
    for q0, de in rows:
        op = f"q0={q0:.6g}"
        d = rel(de["barton"], de["hb"])
        checks.expect(op, "dissipation", d <= ROUTE_AGREEMENT, f"barton vs hb differ by {d:.3e}")
        disc = rel(de["mode_oracle"], de["barton"])
        checks.expect(op, "oracle", disc <= FIRST_ORDER, f"mode vs first order differ by {disc:.3e}")
        if previous is not None:
            checks.expect(op, "oracle", disc > previous,
                          f"discrepancy {disc:.3e} does not exceed {previous:.3e} at the smaller q0")
        previous = disc


# --------------------------------------------------------------------------
# eta-scan: criterion 5, smooth and abrupt ramps, eta from 1e-4 to 1e-2.


def eta_setup(cf, seed, small):
    return {
        "params": cf.PhysicalParams(mass=1.0, omega=1.0),
        "etas": scan_values(1e-3 if small else 1e-4, 1e-2, 3 if small else 9, seed),
        "families": {
            "smooth": cf.SymmetricRamp(gamma=1.0, eta=1.0),
            "abrupt": cf.ExponentialRamp(gamma=1.0, eta=1.0),
        },
    }


def eta_run(cf, inputs, checks):
    etas = inputs["etas"]
    for kind, family in inputs["families"].items():
        ops = [f"{kind} eta={eta:.6g}" for eta in etas]
        try:
            scan = cf.adiabatic_scan(family, etas, inputs["params"], routes=("barton", "hb"))
        except _OPERATION_ERRORS as exc:
            for op in ops:
                checks.fail(op, "dissipation", f"{type(exc).__name__}: {exc}")
            continue
        check_eta_scan(
            checks,
            kind,
            ops,
            [report.populated() for report in scan.reports],
            [float(v) for v in scan.delta_e],
            scan.slope_delta_e,
            scan.slope_delta_e_times_eta,
        )


def check_eta_scan(checks, kind, ops, rows, delta_e, slope, slope_times_eta):
    """A slope or flatness miss fails every point of that scan."""
    for op, de in zip(ops, rows):
        d = rel(de["barton"], de["hb"])
        checks.expect(op, "dissipation", d <= ROUTE_AGREEMENT, f"barton vs hb differ by {d:.3e}")
    if kind == "smooth":
        scan_ok = abs(slope - 2.0) <= SLOPE_TOL
        message = f"smooth dE slope {slope:.4f}, expected 2 +- {SLOPE_TOL}"
    else:
        flatness = max(delta_e) / min(delta_e) if min(delta_e) > 0.0 else math.inf
        scan_ok = abs(slope_times_eta - 1.0) <= SLOPE_TOL and flatness < FLATNESS
        message = (f"abrupt dE*eta slope {slope_times_eta:.4f} (expected 1 +- {SLOPE_TOL}), "
                   f"dE max/min {flatness:.4f} (expected < {FLATNESS})")
    for op in ops:
        checks.expect(op, "dissipation", scan_ok, message)


# --------------------------------------------------------------------------
# cli-configs: every shipped config through casfric.cli, checked against
# the output recorded in expected/.


def cli_configs(expected_dir=EXPECTED_DIR):
    """(config path, expected CSV path) for each recorded output."""
    return [(ROOT / "configs" / f"{path.stem}.json", path)
            for path in sorted(Path(expected_dir).glob("*.csv"))]


def check_cli_output(checks, op, produced, expected):
    """Header and text fields exact; numeric fields within CLI_REL_TOL.

    ``relative_spread`` of two first-order routes that agree bit-exactly is
    0, and a last-digit change in either route moves it by 100 %; it
    therefore also passes when both values are within the route-agreement
    tolerance of criterion 1.
    """
    got_lines, want_lines = produced.splitlines(), expected.splitlines()
    if not got_lines or got_lines[0] != want_lines[0]:
        checks.fail(op, "cli", "CSV header differs")
        return
    if len(got_lines) != len(want_lines):
        checks.fail(op, "cli", f"{len(got_lines)} lines, expected {len(want_lines)}")
        return
    columns = want_lines[0].split(",")
    for line_no, (got, want) in enumerate(zip(got_lines, want_lines), start=1):
        got_fields, want_fields = got.split(","), want.split(",")
        if len(got_fields) != len(want_fields):
            checks.fail(op, "cli", f"line {line_no}: {len(got_fields)} fields, expected {len(want_fields)}")
            continue
        for col, (g, w) in enumerate(zip(got_fields, want_fields)):
            try:
                g_num, w_num = float(g), float(w)
            except ValueError:
                checks.expect(op, "cli", g == w, f"line {line_no} field {col + 1}: {g!r} != {w!r}")
                continue
            close = abs(g_num - w_num) <= CLI_REL_TOL * abs(w_num)
            if columns[col] == "relative_spread" and not got.startswith("#"):
                close = close or max(g_num, w_num) <= ROUTE_AGREEMENT
            checks.expect(op, "cli", close, f"line {line_no} field {col + 1}: {g} != {w}")


def cli_setup(cf, seed, small):
    # The seed has nothing to choose: the configs are the shipped files.
    # Loading every config once is this workload's set-up.
    import casfric.cli as cli

    pairs = cli_configs()
    for config, _ in pairs:
        cli.load_config(config)
    return {"cli": cli, "pairs": pairs}


def cli_run(cf, inputs, checks):
    """The CLI's own sequence in-process: load_config, run_scenario, emit_report.

    Used by the traced run only; the timed workload spawns the CLI.
    """
    cli = inputs["cli"]
    for config, expected in inputs["pairs"]:
        try:
            payload = cli.emit_report(cli.run_scenario(cli.load_config(config)), "csv")
        except _OPERATION_ERRORS as exc:
            checks.fail(config.name, "cli", f"{type(exc).__name__}: {exc}")
            continue
        check_cli_output(checks, config.name, payload.decode("utf-8"), expected.read_text())


WORKLOADS = {
    "fock-cross-oracle": (fock_setup, fock_run),
    "mode-amplitude-scan": (amplitude_setup, amplitude_run),
    "eta-scan": (eta_setup, eta_run),
    "cli-configs": (cli_setup, cli_run),
}


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload once, in this process.")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--small", action="store_true", help="reduced inputs for the self-check")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--trace", action="store_true",
                        help="after the timed run, run with spans, untraced, and with "
                             "tracemalloc, and report per-layer metrics")
    args = parser.parse_args(argv)
    setup, run = WORKLOADS[args.workload]

    start = time.perf_counter()
    import casfric as cf

    inputs = setup(cf, args.seed, args.small)
    out = {"setup_s": time.perf_counter() - start}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    checks = Checks()
    cpu0, start = _cpu_s(), time.perf_counter()
    run(cf, inputs, checks)
    out["wall_s"] = time.perf_counter() - start
    out["cpu_s"] = _cpu_s() - cpu0
    out.update(checks.summary())

    if args.trace:
        import tracing

        # The first pass above also paid one-off costs (BLAS thread start,
        # first page faults); the overhead is taken against a second,
        # untraced pass that follows the traced one.
        traced_checks = Checks()
        with tracing.Tracer() as timing:
            start = time.perf_counter()
            run(cf, inputs, traced_checks)
            traced_s = time.perf_counter() - start
        start = time.perf_counter()
        run(cf, inputs, traced_checks)
        untraced_s = time.perf_counter() - start
        with tracing.Tracer(memory=True) as memory:
            run(cf, inputs, traced_checks)
        spans = tracing.finish(timing.spans, memory.spans)
        traced = traced_checks.summary()
        out["trace"] = {
            "spans": spans,
            "layers": tracing.layer_metrics(spans, traced["failed_checks_by_layer"]),
            "overhead_s": traced_s - untraced_s,
            "attempted": traced["attempted"],
            "failed": traced["failed"],
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
