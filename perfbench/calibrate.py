"""A fixed reference computation that gauges how fast the machine is right now.

The benchmark runs on a few cores of a shared host, whose speed drifts by
half and more over minutes as other tenants come and go. ``run.py`` runs
this computation between repetitions and scales the run's times by
``REFERENCE_S / (median measured)``, so that the times it reports are
seconds on a machine that runs this computation in ``REFERENCE_S``.

The computation does not touch casfric, so a change to casfric moves the
scaled times as much as the raw ones. Its three parts mimic what the
workloads spend their time on: the interpreter, many small BLAS calls (the
Fock loop) and streaming arrays larger than the cache (the eta scan). Its
peak memory is about 100 MB.

Served from its own process, so that its memory never shows in the
parent's or a workload's peak RSS:

    python3 perfbench/calibrate.py     # then one line "run" per measurement

answers each "run" with one JSON line ``{"wall_s": ..., "cpu_s": ...}``.
"""
from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

# A round figure near the wall seconds of one measurement on the machine the
# benchmark was built on (2 vCPUs of an Intel Xeon host, Python 3.11,
# numpy 2.4, OpenBLAS on one thread). Only a constant of scale: the bounds
# compare scaled times with scaled times.
REFERENCE_S = 0.25


def _interpreter(n=400_000):
    acc, table = 0.0, {}
    for i in range(n):
        acc += (i % 7) * 0.5 - acc * 1e-6
        table[i & 255] = acc
    return acc + len(table)


def _small_blas(steps=1_500, dim=121, dt=1e-3):
    # RK4 on a fixed Hermitian matrix of the Fock oracle's size.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = -1j * (a + a.conj().T) / (2.0 * dim)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    for _ in range(steps):
        k1 = h @ psi
        k2 = h @ (psi + 0.5 * dt * k1)
        k3 = h @ (psi + 0.5 * dt * k2)
        k4 = h @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(abs(psi[0]))


def _stream(n=3_000_000):
    # Arrays of 24 MB, larger than the cache, as in the eta scan.
    t = np.linspace(-12.0, 12.0, n)
    y = np.exp(-t * t) * np.cos(t)
    return float(np.cumsum(y)[-1])


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure():
    cpu0, start = _cpu_s(), time.perf_counter()
    _interpreter()
    _small_blas()
    _stream()
    return {"wall_s": time.perf_counter() - start, "cpu_s": _cpu_s() - cpu0}


def serve():
    measure()  # first touch of the pages and of BLAS
    for line in sys.stdin:
        if line.strip() != "run":
            break
        sys.stdout.write(json.dumps(measure()) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(serve())
