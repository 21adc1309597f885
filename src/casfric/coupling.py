"""Time-dependent coupling strength q(t) between the two oscillators.

q(t) multiplies the bilinear interaction y1*y2.  For relative motion at
separation s(t) the physical coupling is q = e^2/s^3; the analytic
profiles below are switching protocols and a straight-line flyby, all of
which decay to zero as |t| -> infinity (asymptotically free coupling).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import _TILE_PAIRS, BLOCK_SAMPLES, TimeGrid, _blocks

__all__ = [
    "CouplingProfile",
    "ExponentialRamp",
    "SymmetricRamp",
    "GaussianPulse",
    "Flyby",
    "CouplingSignal",
    "sample",
    "load_sampled_csv",
]


def _require_finite(obj, *names, positive=()):
    """Refuse a field of ``obj`` that is not finite, or, among ``positive``, not positive."""
    for name in (*names, *positive):
        value = getattr(obj, name)
        if not np.isfinite(value) or (name in positive and value <= 0.0):
            qualifier = " and positive" if name in positive else ""
            raise ValueError(f"{type(obj).__name__}.{name} must be finite{qualifier}, got {value!r}")


def _finite_range(values: np.ndarray):
    """(min, max) of the samples ``values``; ValueError if any is NaN or infinite.

    min and max are NaN or infinite exactly when some value is, and unlike
    np.isfinite they make no full-length temporary.
    """
    q_min, q_max = values.min(), values.max()
    if not (np.isfinite(q_min) and np.isfinite(q_max)):
        raise ValueError("signal values must be finite")
    return q_min, q_max


def _require_signal(signal, entry_point: str) -> None:
    """TypeError unless ``signal``, the input of ``entry_point``, is a
    CouplingSignal: a closed-form profile is sampled first, or transformed
    by fourier_analytic."""
    if not isinstance(signal, CouplingSignal):
        raise TypeError(f"{entry_point} takes a CouplingSignal, got {type(signal).__name__}")


class CouplingProfile:
    """Base class; subclasses define q(t) through ``_eval_array``."""

    def _eval_array(self, t: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write q(t) into ``out``; ``scratch`` is a work buffer of t's shape.

        Both buffers are the caller's and neither shares memory with t, which
        is only read.  This is the profile's one formula: evaluate, sample
        and an eta scan's points all go through it.
        """
        raise NotImplementedError

    def evaluate(self, t):
        """q(t) for a scalar or array argument, matching the input shape."""
        arr = np.asarray(t, dtype=float)
        times = np.atleast_1d(arr)
        out = np.empty_like(times)
        self._eval_array(times, out, np.empty_like(times))
        return float(out[0]) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ExponentialRamp(CouplingProfile):
    """q(t) = gamma * t * exp(-eta*t) for t > 0, identically zero before.

    The derivative of q jumps at switch-on; that abrupt start leaves a
    residual dissipation that survives the eta -> 0 limit.
    """

    gamma: float
    eta: float

    def __post_init__(self):
        _require_finite(self, "gamma", positive=("eta",))

    def _eval_array(self, t, out, scratch):
        # (gamma*t) * exp((-eta)*t) where t > 0, +0.0 elsewhere (a NaN time too).
        # Unmasked on max(t, 0), which is t where t > 0 and keeps the t <= 0
        # lanes from overflowing (exp, gamma*t) or making 0*inf; they are
        # then written +0.0 in one masked pass.
        with np.errstate(over="ignore", invalid="ignore"):  # see SymmetricRamp
            np.maximum(t, 0.0, out=out)
            np.multiply(out, -self.eta, out=scratch)
            np.exp(scratch, out=scratch)
            out *= self.gamma
            out *= scratch
            np.copyto(out, 0.0, where=~(t > 0.0))


@dataclass(frozen=True)
class SymmetricRamp(CouplingProfile):
    """q(t) = gamma * t * exp(-eta*|t|) for all t; odd, no switch-on kink."""

    gamma: float
    eta: float

    def __post_init__(self):
        _require_finite(self, "gamma", positive=("eta",))

    def _eval_array(self, t, out, scratch):
        # (gamma*t) * exp((-eta)*|t|)
        # eta*|t| = inf gives exp = 0, so q = 0, its correctly rounded limit;
        # gamma*t = inf gives inf or nan, which the callers' finite checks refuse
        with np.errstate(over="ignore", invalid="ignore"):
            np.abs(t, out=scratch)
            scratch *= -self.eta
            np.exp(scratch, out=scratch)
            np.multiply(t, self.gamma, out=out)
            out *= scratch


@dataclass(frozen=True)
class GaussianPulse(CouplingProfile):
    """q(t) = q0 * exp(-t^2/tau^2); smooth, even test pulse."""

    q0: float
    tau: float

    def __post_init__(self):
        _require_finite(self, "q0", positive=("tau",))

    def _eval_array(self, t, out, scratch):
        # q0 * exp(-((t/tau)**2))
        with np.errstate(over="ignore"):  # a square overflowing to inf: exp(-inf) = 0 exactly
            np.divide(t, self.tau, out=out)
            np.square(out, out=out)
            np.negative(out, out=out)
            np.exp(out, out=out)
            out *= self.q0


@dataclass(frozen=True)
class Flyby(CouplingProfile):
    """Straight-line pass: q(t) = e^2/(d^2 + v^2 t^2)^{3/2}.

    Realizes q = e^2/s^3 for s(t) = sqrt(d^2 + v^2 t^2) (rigidly guided
    constant-velocity motion with closest approach d).  The |t|^{-3} tail
    decays slowly, so transforms of this profile need wide grids.
    """

    charge: float
    d: float
    v: float

    def __post_init__(self):
        _require_finite(self, positive=("charge", "d", "v"))
        for name in ("charge", "d"):  # _eval_array squares them as Python floats
            value = float(getattr(self, name))
            if np.isinf(value * value):
                raise ValueError(f"Flyby.{name} must have a finite square, got {value!r}")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below
            peak = self.evaluate(0.0)
        if not np.isfinite(peak):
            raise ValueError(
                f"Flyby.d must give a finite peak coupling charge^2/d^3, got d={self.d!r} "
                f"with charge={self.charge!r}"
            )

    def _eval_array(self, t, out, scratch):
        # charge**2 / (d**2 + (v*t)**2) ** 1.5, with charge**2 and d**2 Python floats
        with np.errstate(over="ignore"):  # a square overflowing to inf: e^2/inf = 0 exactly
            np.multiply(t, self.v, out=out)
            np.square(out, out=out)
            out += self.d**2
            np.power(out, 1.5, out=out)
            np.divide(self.charge**2, out, out=out)


@dataclass(frozen=True, eq=False)
class CouplingSignal(CouplingProfile):
    """q sampled on a uniform grid; the common input of every route.

    As a profile it interpolates linearly between samples and refuses
    queries outside the sampled span.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) != self.grid.n_samples:
            raise ValueError(
                f"need exactly {self.grid.n_samples} values, got shape {values.shape}"
            )
        _finite_range(values)
        object.__setattr__(self, "values", values)

    def _eval_array(self, t, out, scratch):
        grid = self.grid
        if not t.size:
            return
        t_min, t_max = t.min(), t.max()
        # a NaN time compares false and is refused with the rest
        if not (grid.t_start <= t_min and t_max <= grid.t_end):
            raise ValueError(f"query outside the sampled span [{grid.t_start}, {grid.t_end}]")
        out[...] = self._interpolate(t, t_min, t_max)

    def _interpolate(self, t: np.ndarray, t_min: float, t_max: float) -> np.ndarray:
        """np.interp of the signal at times t in [t_min, t_max], bit for bit,
        from the samples of the cells those times fall in.

        The slice of the grid is padded by one cell at each end, so a cell
        index off by one in rounding still leaves every query inside it,
        and np.interp picks the same two samples as on the whole grid.
        Queries past a grid end (by rounding) get its end sample, as there.
        """
        grid = self.grid
        lo = max(int((t_min - grid.t_start) / grid.dt) - 1, 0)
        hi = min(int((t_max - grid.t_start) / grid.dt) + 3, grid.n_samples)
        return np.interp(t, grid.times(lo, hi), self.values[lo:hi])


def sample(profile: CouplingProfile, grid: TimeGrid) -> CouplingSignal:
    """Evaluate ``profile`` on every grid time.

    The profile's formula writes one block of times at a time straight
    into the signal array, with one block of scratch, so no other
    full-length array is made; every profile is elementwise, so the values
    equal a single full-grid evaluation bit for bit.
    """
    values = np.empty(grid.n_samples)
    scratch = np.empty(min(BLOCK_SAMPLES, grid.n_samples))
    for lo in range(0, grid.n_samples, BLOCK_SAMPLES):
        hi = min(lo + BLOCK_SAMPLES, grid.n_samples)
        profile._eval_array(grid.times(lo, hi), values[lo:hi], scratch[: hi - lo])
    return CouplingSignal(grid, values)


def _block_and_tile(n_samples: int):
    """(block, tile): the samples in the largest block and the largest tile
    that _walk feeds a sum over grids of up to ``n_samples``."""
    block = min(BLOCK_SAMPLES + 1, n_samples)
    return block, min(_TILE_PAIRS + 1, block)


def _walk(grid: TimeGrid, source: CouplingProfile, sums, buffers=None):
    """Reset the first-order ``sums`` to ``grid`` and stream ``source``'s samples into them.

    Each block of core._blocks gets its times from one grid.times call and
    is walked in tiles of _TILE_PAIRS pairs: a CouplingSignal's tiles are
    slices, any other profile's are evaluated into ``buffers``, the
    caller's (values, scratch) rows of a tile.  A non-finite tile is
    refused as ``sample`` refuses it.  Each sum ``fill``s every tile, then
    ``add_pairs`` once per block.  Returns the first, last, min and max samples.
    """
    for total in sums:
        total.reset(grid)
    sliced = isinstance(source, CouplingSignal)
    q_min, q_max = math.inf, -math.inf
    for lo, hi in _blocks(grid.n_samples):
        times = grid.times(lo, hi)
        for a, b in _blocks(hi - lo, _TILE_PAIRS):
            tile_times = times[a:b]
            if sliced:
                tile = source.values[lo + a : lo + b]
            else:
                tile = buffers[0, : b - a]
                source._eval_array(tile_times, tile, buffers[1, : b - a])
            tile_min, tile_max = _finite_range(tile)
            q_min, q_max = min(q_min, tile_min), max(q_max, tile_max)
            if lo + a == 0:
                first = tile[0]
            last = tile[-1]
            for total in sums:
                total.fill(tile_times, tile, a)
        for total in sums:
            total.add_pairs(hi - lo - 1)
        del times, tile_times  # so no two blocks' times are held at once
    return first, last, q_min, q_max


def load_sampled_csv(path) -> CouplingSignal:
    """Load a (time, q) profile from a two-column CSV with a one-line header
    and at least two data rows.

    Times must be strictly increasing and uniformly spaced to within a
    1e-9 relative tolerance; the samples become a CouplingSignal on the
    implied uniform grid.
    """
    with warnings.catch_warnings():  # a file with no data rows is refused below, in one error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least two samples")
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (time, q), got {data.shape[1]}")
    times, values = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(times)):  # a NaN would pass both tests below
        raise ValueError(f"{path}: times must be finite")
    steps = np.diff(times)
    if np.any(steps <= 0.0):
        raise ValueError(f"{path}: times must be strictly increasing")
    grid = TimeGrid(float(times[0]), float(times[-1]), len(times))  # refuses a span that overflows
    if np.max(np.abs(steps - grid.dt)) > 1e-9 * grid.dt:
        raise ValueError(f"{path}: times must be uniform to 1e-9 relative spacing")
    return CouplingSignal(grid, values)


def _with_amplitude(profile: CouplingProfile, amplitude: float) -> CouplingProfile:
    """Copy of ``profile`` with its amplitude parameter set to ``amplitude``.

    Ramps expose gamma, the Gaussian pulse exposes q0.  Flyby and sampled
    profiles have no single amplitude knob and are rejected.
    """
    if isinstance(profile, (ExponentialRamp, SymmetricRamp)):
        return replace(profile, gamma=amplitude)
    if isinstance(profile, GaussianPulse):
        return replace(profile, q0=amplitude)
    raise TypeError(f"{type(profile).__name__} has no amplitude parameter")
