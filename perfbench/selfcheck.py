"""Quick self-check of the benchmark harness (about a minute).

    python3 perfbench/selfcheck.py

1. Runs every workload at reduced size (``--small``: shorter grids and
   scans, one repetition; ``cli-configs`` runs each config once), with
   ``--trace 0`` and ``--trace 1``, and asserts that the last output line
   names every metric of BENCHMARK.json with its unit and that no operation
   failed.
2. Runs ``cli-configs`` against a copy of the expected outputs with one
   numeric field changed, and asserts that the change is counted as a
   failed operation, so ``fail_ratio`` rises above 0.
3. Gives each library workload's check a wrong value and asserts that it
   counts a failed operation.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, trace, *extra):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_emitted(spec):
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, f"{workload} trace {trace}: {sorted(set(got) ^ set(wanted))}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations, 0 failed")


def check_wrong_cli_output_fails():
    wrong = ROOT / ".perfbench_out" / "selfcheck-expected"
    shutil.rmtree(wrong, ignore_errors=True)
    shutil.copytree(workloads.EXPECTED_DIR, wrong)
    target = wrong / "gaussian_benchmark.csv"
    header, row = target.read_text().splitlines()
    fields = row.split(",")
    column = header.split(",").index("delta_e_fock")
    fields[column] = repr(float(fields[column]) * (1 + 1e-6))
    target.write_text(header + "\n" + ",".join(fields) + "\n")
    result = run("cli-configs", 0, "--expected", str(wrong))
    assert not result["correct"] and result["failed"] >= 1, result
    print(f"ok  wrong expected delta_e_fock: fail_ratio {result['failed']}/{result['attempted']}")


def check_library_checks_fail():
    good = {"barton": 1.0, "hb": 1.0, "mode_oracle": 1.001, "fock_oracle": 1.001}
    cases = {
        "fock: mode 2 % from first order": lambda c: workloads.check_fock_row(
            c, "op", dict(good, mode_oracle=1.02, fock_oracle=1.02)),
        "fock: fock 1e-2 from mode": lambda c: workloads.check_fock_row(
            c, "op", dict(good, fock_oracle=1.011)),
        "amplitude: barton vs hb 1e-9": lambda c: workloads.check_amplitude_rows(
            c, [(1e-3, dict(good, hb=1.0 + 1e-9))]),
        "amplitude: discrepancy not falling": lambda c: workloads.check_amplitude_rows(
            c, [(1e-3, dict(good, mode_oracle=1.002)), (2e-3, good)]),
        "eta: smooth slope 2.1": lambda c: workloads.check_eta_scan(
            c, "smooth", ["op"], [good], [1.0], 2.1, 3.1),
        "eta: abrupt dE not flat": lambda c: workloads.check_eta_scan(
            c, "abrupt", ["a", "b"], [good, good], [1.0, 1.1], 0.0, 1.0),
    }
    for name, feed in cases.items():
        checks = workloads.Checks()
        feed(checks)
        summary = checks.summary()
        assert summary["failed"] >= 1, name
        print(f"ok  {name}: {summary['failed']}/{summary['attempted']} failed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_library_checks_fail()
    check_wrong_cli_output_fails()
    check_metrics_emitted(spec)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
