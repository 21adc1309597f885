"""Physical parameters, uniform time grids, and oscillator conventions.

Default natural units hbar = m = 1 with omega dimensionless, but every
constant stays an explicit field so SI-like values work unchanged.  All
values are immutable after construction and every operation is pure.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "PhysicalParams",
    "TimeGrid",
    "ladder_factor",
    "BLOCK_SAMPLES",
    "MAX_GRID_SAMPLES",
    "MAX_FOCK_TRUNCATION",
]

# Samples per block of the streamed passes over a grid (sampling, the two
# first-order quadratures and an eta scan's points): their working set is
# O(BLOCK_SAMPLES) beside the signal, if any, whatever the grid length.
BLOCK_SAMPLES = 1 << 16

# Largest grid a scan builds or a config may declare: a sampled signal
# takes 8 bytes per sample, so this caps it at 0.8 GB.  A first-order scan
# point holds no signal, so there the cap bounds work, not memory.
MAX_GRID_SAMPLES = 100_000_000

# Largest Fock truncation N a config may declare or evolve_fock accepts.
# It was derived from a dense (N+1)^2 x (N+1)^2 complex coupling operator,
# 16*(N+1)^4 bytes, held to the same 0.8 GB as the largest grid (N = 83).
# evolve_fock now holds O((N+1)^2) numbers; the cap stays until a load-time
# bound on the work per run (steps times per-step cost) replaces it.
MAX_FOCK_TRUNCATION = math.isqrt(math.isqrt(8 * MAX_GRID_SAMPLES // 16)) - 1


def _blocks(n_samples: int, size: int = BLOCK_SAMPLES):
    """(lo, hi) of the trapezoid blocks over a grid of n_samples: ``size``
    intervals each, every block sharing its end sample with the next.

    The first-order routes' bits depend on the partition into blocks of
    BLOCK_SAMPLES, so coupling._walk, the one loop that integrates a grid,
    takes its blocks, and each block's tiles, from here.
    """
    for lo in range(0, n_samples - 1, size):
        yield lo, min(lo + size + 1, n_samples)


# Trapezoid pairs per tile of coupling._walk, which fills each block's
# pairs one tile at a time: a tile's buffers and its part of the pairs,
# about 0.8 MB for both routes and a ramp's values, stay in a 2 MB L2 cache.
_TILE_PAIRS = 1 << 13


def _require_integer(value, name: str, least: int) -> None:
    """Refuse anything but an integer >= least: a Python or numpy integer
    passes ``operator.index``, an integral float such as 4.0 does not."""
    try:
        valid = operator.index(value) >= least
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _finite_delta_e(delta_e: float, route: str) -> float:
    """``delta_e``, or OverflowError naming ``route`` if it is not finite."""
    if not math.isfinite(delta_e):
        raise OverflowError(f"the {route} dE overflowed")
    return delta_e


@dataclass(frozen=True)
class PhysicalParams:
    """Two identical oscillators: mass, shared eigenfrequency and hbar.

    The fields fix every matrix element of the problem.  The coupling
    strength comes from the profile (a Flyby's charge, a ramp's gamma),
    never from here.  ``hbar`` is keyword-only.
    """

    mass: float
    omega: float
    hbar: float = field(default=1.0, kw_only=True)

    def __post_init__(self):
        for name in ("mass", "omega", "hbar"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        # every route scales by b; 2*mass*omega may underflow to 0 or b to 0 or inf
        denominator = 2.0 * self.mass * self.omega
        if not (denominator > 0.0 and 0.0 < self.hbar / denominator < math.inf):
            raise ValueError(
                f"b = hbar/(2*mass*omega) must be positive and finite, got hbar={self.hbar!r}, "
                f"mass={self.mass!r}, omega={self.omega!r}"
            )
        # the |00> -> |11> gap; every route's dE scales by it, the validity flag divides by it
        gap = 2.0 * self.hbar * self.omega
        if not 0.0 < gap < math.inf:
            fault = "underflows to 0" if gap == 0.0 else "overflows to inf"
            raise ValueError(f"the gap 2*hbar*omega {fault}, got hbar={self.hbar!r}, omega={self.omega!r}")


def ladder_factor(params: PhysicalParams) -> float:
    """Squared length scale b = hbar/(2 m omega) of position matrix elements."""
    return params.hbar / (2.0 * params.mass * params.omega)


@dataclass(frozen=True)
class TimeGrid:
    """Uniformly spaced time samples; the only sampling the quadratures accept."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        _require_integer(self.n_samples, "n_samples", 2)
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ValueError("grid endpoints must be finite")
        if not self.t_end > self.t_start:
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        # every time is t_start + i*dt: a span that overflows makes inf*0 = nan at i = 0
        if not float(self.t_end) - float(self.t_start) < math.inf:
            raise ValueError(f"the span t_end - t_start overflows, got [{self.t_start}, {self.t_end}]")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_samples - 1)

    def times(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Sample times with indices in [lo, hi), all of them by default.

        First is exactly t_start, last exactly t_end.  Any slice is
        bit-identical to the same slice of np.linspace(t_start, t_end, n):
        the same step, product and sum, elementwise.
        """
        n = self.n_samples
        hi = n if hi is None else hi
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"need 0 <= lo <= hi <= {n}, got [{lo}, {hi})")
        step = (float(self.t_end) - float(self.t_start)) / (n - 1)
        out = np.arange(lo, hi, dtype=float)
        out *= step
        out += self.t_start
        if hi == n and hi > lo:
            out[-1] = self.t_end
        return out
