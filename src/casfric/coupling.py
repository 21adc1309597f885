"""Time-dependent coupling strength q(t) between the two oscillators.

q(t) multiplies the bilinear interaction y1*y2.  For relative motion at
separation s(t) the physical coupling is q = e^2/s^3; the analytic
profiles below are switching protocols and a straight-line flyby, all of
which decay to zero as |t| -> infinity (asymptotically free coupling).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import BLOCK_SAMPLES, TimeGrid

__all__ = [
    "CouplingProfile",
    "ExponentialRamp",
    "SymmetricRamp",
    "GaussianPulse",
    "Flyby",
    "CouplingSignal",
    "sample",
    "coupling_from_separation",
    "load_sampled_csv",
    "with_amplitude",
]


def _require_positive(obj, *names):
    for name in names:
        value = getattr(obj, name)
        if not np.isfinite(value) or value <= 0.0:
            raise ValueError(f"{type(obj).__name__}.{name} must be finite and positive, got {value!r}")


def _finite_range(values: np.ndarray):
    """(min, max) of the samples ``values``; ValueError if any is NaN or infinite.

    min and max are NaN or infinite exactly when some value is, and unlike
    np.isfinite they make no full-length temporary.
    """
    q_min, q_max = values.min(), values.max()
    if not (np.isfinite(q_min) and np.isfinite(q_max)):
        raise ValueError("signal values must be finite")
    return q_min, q_max


class CouplingProfile:
    """Base class; subclasses define q(t) through ``_eval_array``."""

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, t):
        """q(t) for a scalar or array argument, matching the input shape."""
        arr = np.asarray(t, dtype=float)
        out = self._eval_array(np.atleast_1d(arr))
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
        _require_positive(self, "eta")

    def _eval_array(self, t):
        out = np.zeros_like(t)
        pos = t > 0.0
        tp = t[pos]
        out[pos] = self.gamma * tp * np.exp(-self.eta * tp)
        return out


@dataclass(frozen=True)
class SymmetricRamp(CouplingProfile):
    """q(t) = gamma * t * exp(-eta*|t|) for all t; odd, no switch-on kink."""

    gamma: float
    eta: float

    def __post_init__(self):
        _require_positive(self, "eta")

    def _eval_array(self, t):
        return self.gamma * t * np.exp(-self.eta * np.abs(t))


@dataclass(frozen=True)
class GaussianPulse(CouplingProfile):
    """q(t) = q0 * exp(-t^2/tau^2); smooth, even test pulse."""

    q0: float
    tau: float

    def __post_init__(self):
        _require_positive(self, "tau")

    def _eval_array(self, t):
        with np.errstate(over="ignore"):  # a square overflowing to inf: exp(-inf) = 0 exactly
            return self.q0 * np.exp(-((t / self.tau) ** 2))


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
        _require_positive(self, "charge", "d", "v")
        for name in ("charge", "d"):  # _eval_array squares them as Python floats
            value = float(getattr(self, name))
            if np.isinf(value * value):
                raise ValueError(f"Flyby.{name} must have a finite square, got {value!r}")
        with np.errstate(divide="ignore", over="ignore"):  # refused below
            peak = self._eval_array(np.zeros(1))[0]
        if not np.isfinite(peak):
            raise ValueError(
                f"Flyby.d must give a finite peak coupling charge^2/d^3, got d={self.d!r} "
                f"with charge={self.charge!r}"
            )

    def _eval_array(self, t):
        with np.errstate(over="ignore"):  # a square overflowing to inf: e^2/inf = 0 exactly
            return self.charge**2 / (self.d**2 + (self.v * t) ** 2) ** 1.5


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

    def _eval_array(self, t):
        grid = self.grid
        if not t.size:
            return np.empty(0)
        t_min, t_max = t.min(), t.max()
        # a NaN time compares false and is refused with the rest
        if not (grid.t_start <= t_min and t_max <= grid.t_end):
            raise ValueError(f"query outside the sampled span [{grid.t_start}, {grid.t_end}]")
        return self._interpolate(t, t_min, t_max)

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


def coupling_from_separation(e: float, s: float) -> float:
    """Instantaneous coupling e^2/s^3 at separation s > 0."""
    if s <= 0.0:
        raise ValueError(f"separation must be positive, got {s!r}")
    return e**2 / s**3


def sample(profile: CouplingProfile, grid: TimeGrid) -> CouplingSignal:
    """Evaluate ``profile`` on every grid time.

    The profile is evaluated one block of times at a time into the signal
    array, so no other full-length array is made; every profile is
    elementwise, so the values equal a single full-grid evaluation bit
    for bit.
    """
    values = np.empty(grid.n_samples)
    for lo in range(0, grid.n_samples, BLOCK_SAMPLES):
        hi = min(lo + BLOCK_SAMPLES, grid.n_samples)
        values[lo:hi] = profile.evaluate(grid.times(lo, hi))
    return CouplingSignal(grid, values)


def load_sampled_csv(path) -> CouplingSignal:
    """Load a (time, q) profile from a two-column CSV with a one-line header.

    Times must be strictly increasing and uniformly spaced to within a
    1e-9 relative tolerance; the samples become a CouplingSignal on the
    implied uniform grid.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (time, q), got {data.shape[1]}")
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least two samples")
    times, values = data[:, 0], data[:, 1]
    steps = np.diff(times)
    if np.any(steps <= 0.0):
        raise ValueError(f"{path}: times must be strictly increasing")
    dt = (times[-1] - times[0]) / (len(times) - 1)
    if np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise ValueError(f"{path}: times must be uniform to 1e-9 relative spacing")
    grid = TimeGrid(float(times[0]), float(times[-1]), len(times))
    return CouplingSignal(grid, values)


def with_amplitude(profile: CouplingProfile, amplitude: float) -> CouplingProfile:
    """Copy of ``profile`` with its amplitude parameter set to ``amplitude``.

    Ramps expose gamma, the Gaussian pulse exposes q0.  Flyby and sampled
    profiles have no single amplitude knob and are rejected.
    """
    if isinstance(profile, (ExponentialRamp, SymmetricRamp)):
        return replace(profile, gamma=amplitude)
    if isinstance(profile, GaussianPulse):
        return replace(profile, q0=amplitude)
    raise TypeError(f"{type(profile).__name__} has no amplitude parameter")
