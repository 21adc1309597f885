"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It benchmarks the casfric source checkout this directory sits in (``src/``
and ``configs/`` beside it); nothing needs to be installed. It
repeats the workload, each repetition in fresh processes, until the next
repetition would end after ``--seconds``, with at least three repetitions
(one with ``--trace 1``). All its processes run on one CPU, with BLAS on one
thread. Between repetitions it runs ``calibrate.py``'s reference
computation, and it scales the run's times by how fast the machine ran that
computation (see ``calibrate.py``). Every metric is the median over
repetitions.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from a separate traced run. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run's record
(metadata and every repetition), also written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 120.0
LAST_START_S = 100.0  # start no repetition after this, so a run ends within 180 s
CLI = "import sys; from casfric.cli import main; sys.exit(main())"
# The times that are scaled by the calibration, and the calibration time
# that scales each.
SCALED = {"wall_s": "wall_s", "cpu_s": "cpu_s", "setup_s": "wall_s"}
# Thread variables set for every process of the benchmark.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def pin_to_one_cpu():
    """Run this process and every one it starts on a single CPU; return it.

    On a shared host two busy CPUs are stolen from independently, and the
    BLAS threads of one small matvec then wait on each other; one CPU and
    one BLAS thread make the work sequential, so the times follow the
    machine's speed, which the calibration measures on the same CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env():
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, env):
    """Run ``argv`` in ROOT; return (exit code, wall seconds, rusage, stdout).

    ``os.wait4`` gives the child's own CPU time and peak RSS. Output goes to
    files, so a chatty child cannot block on a full pipe.
    """
    out_path, err_path = OUT_DIR / "child.stdout", OUT_DIR / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return code, wall, usage, out_path.read_text()


def run_child(workload, seed, small, env, *flags):
    argv = [sys.executable, str(BENCH_DIR / "workloads.py"), workload, "--seed", str(seed), *flags]
    if small:
        argv.append("--small")
    code, _, usage, out = spawn(argv, env)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise HarnessError(f"{' '.join(argv[1:])} exited with {code}")
    return json.loads(lines[-1]), usage


def library_rep(workload, seed, small, env):
    result, usage = run_child(workload, seed, small, env)
    return {
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": result["setup_s"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
    }


def cli_rep(seed, small, env, expected_dir):
    """One CLI process per config, timed from spawn to exit, output checked."""
    setup, _ = run_child("cli-configs", seed, small, env, "--setup-only")
    checks = workloads.Checks()
    cpu_s = peak_kb = 0.0
    per_config_s = {}
    start = time.perf_counter()
    for config, expected in workloads.cli_configs(expected_dir):
        out = OUT_DIR / f"{config.stem}.csv"
        out.unlink(missing_ok=True)
        code, per_config_s[config.name], usage, _ = spawn(
            [sys.executable, "-c", CLI, str(config), "--out", str(out)], env)
        cpu_s += usage.ru_utime + usage.ru_stime
        peak_kb = max(peak_kb, usage.ru_maxrss)
        if code != 0:
            checks.fail(config.name, "cli", f"exit code {code}")
        elif not out.exists():
            checks.fail(config.name, "cli", "no output written")
        else:
            workloads.check_cli_output(checks, config.name, out.read_text(), expected.read_text())
    wall_s = time.perf_counter() - start
    summary = checks.summary()
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": setup["setup_s"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "failures": summary["failures"],
        "per_config_s": per_config_s,
    }


def import_times(env):
    """Cumulative import seconds of casfric and scipy.special (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import casfric"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError("import casfric failed")
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    # 0 when scipy.special is no longer imported
    return {"import.casfric_s": cumulative["casfric"],
            "import.scipy_special_s": cumulative.get("scipy.special", 0.0)}


def trace_rep(workload, seed, small, env, spans_path):
    result, _ = run_child(workload, seed, small, env, "--trace")
    trace = result["trace"]
    if not spans_path.exists():
        spans_path.write_text(json.dumps(trace["spans"]) + "\n")
    layers = dict(trace["layers"], **import_times(env))
    layers["trace.overhead_s"] = trace["overhead_s"]
    return {
        "layers": layers,
        "attempted": result["attempted"] + trace["attempted"],
        "failed": result["failed"] + trace["failed"],
        "failures": result["failures"],
    }


class Calibration:
    """The reference computation of ``calibrate.py``, served by one process."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "calibrate.py")], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def measure(self):
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise HarnessError("the calibration process ended")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def scale(reps, calibrations):
    """Scale the times of a run's repetitions to the machine of ``calibrate.REFERENCE_S``.

    The machine's speed over the run is the median of its calibrations, so
    the noise of a single calibration does not enter; the drift from run to
    run, which the median over repetitions cannot remove, is divided out.
    The raw times are kept under ``raw``.
    """
    factor = {key: calibrate.REFERENCE_S / statistics.median(c[key] for c in calibrations)
              for key in ("wall_s", "cpu_s")}
    for rep in reps:
        rep["raw"] = {name: rep[name] for name in SCALED}
        for name, basis in SCALED.items():
            rep[name] = rep["raw"][name] * factor[basis]


def metadata():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "casfric").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        # as found in the environment; the benchmark's processes run with THREADS
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "benchmark_threads": THREADS,
    }


def steal_s():
    """Seconds the hypervisor gave this machine's CPUs to others (Linux), or None.

    Recorded per run, so a slow run can be told from a slow program.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def spread(values):
    if len(values) < 2:
        return {"n": 1, "median": values[0], "q1": values[0], "q3": values[0],
                "min": values[0], "max": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true", help="reduced inputs (self-check)")
    parser.add_argument("--expected", type=Path, default=workloads.EXPECTED_DIR,
                        help="directory of expected CLI outputs")
    args = parser.parse_args(argv)

    if not (SRC / "casfric" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise HarnessError(f"no casfric source checkout at {ROOT} (need src/casfric and configs/)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    meta = metadata()
    meta["pinned_cpu"] = pin_to_one_cpu()
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT_DIR / f"spans-{tag}.json"
    spans_path.unlink(missing_ok=True)

    # Warm the bytecode and file caches once; users import from a warm install.
    if spawn([sys.executable, "-c", "import casfric, casfric.cli"], env)[0] != 0:
        raise HarnessError("import casfric failed")

    min_reps = 1 if args.trace or args.small else 3
    reps = []
    calibration = None if args.trace else Calibration(env)
    try:
        steal_start = steal_s()
        start = time.perf_counter()
        calibrations = [calibration.measure()] if calibration else []
        while True:
            if args.trace:
                reps.append(trace_rep(args.workload, args.seed, args.small, env, spans_path))
            elif args.workload == "cli-configs":
                reps.append(cli_rep(args.seed, args.small, env, args.expected))
            else:
                reps.append(library_rep(args.workload, args.seed, args.small, env))
            if calibration:
                calibrations.append(calibration.measure())
            elapsed = time.perf_counter() - start
            next_end = elapsed * (len(reps) + 1) / len(reps)
            if len(reps) >= min_reps and (next_end > args.seconds or elapsed > LAST_START_S):
                break
    finally:
        if calibration:
            calibration.close()

    steal_end = steal_s()
    if calibrations:
        scale(reps, calibrations)
    per_rep = [rep["layers"] if args.trace else rep for rep in reps]
    summary = {m["name"]: spread([rep[m["name"]] for rep in per_rep]) for m in wanted}
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "measured_s": elapsed,
        "host_steal_s": None if steal_start is None else steal_end - steal_start,
        "metadata": meta, "metrics": summary, "repetitions": reps,
        "raw_metrics": {} if args.trace else
        {name: spread([rep["raw"][name] for rep in reps]) for name in SCALED},
        "calibrations": calibrations,
        "fail_ratio": failed / attempted,
    }
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    values = {}
    for m in wanted:
        values[m["name"]] = summary[m["name"]]["median"]
        sys.stderr.write(f"{m['name']} = {values[m['name']]:.6g} {m['unit']} "
                         f"(median of {summary[m['name']]['n']})\n")
    sys.stderr.write(f"fail_ratio = {failed}/{attempted}\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
