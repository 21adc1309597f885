"""Fourier transform qhat(w) = integral q(t) exp(-i w t) dt of the coupling.

Trapezoidal quadrature on uniform grids, no FFT: every route needs the
transform at isolated frequencies (the +-2*omega transition lines), not a
full spectrum.  Slowly decaying tails are handled by requiring wide grids
plus a tail warning rather than analytic tail corrections.

For a ramp q(t) = gamma*t*exp(-eta*|t|) the closed-form transform is
-4i*gamma*eta*w/(eta^2+w^2)^2, so the product qhat(w)*qhat(-w) equals
gamma^2 * 16*eta^2*w^2/(eta^2+w^2)^4; in particular |qhat|^2 at fixed
w != 0 vanishes as eta^2 in the slow-switching limit.  (Squared moduli
here always come from the transform itself, never from a separately
quoted product formula.)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BLOCK_SAMPLES
from .coupling import (
    CouplingProfile,
    CouplingSignal,
    ExponentialRamp,
    GaussianPulse,
    SymmetricRamp,
)

__all__ = ["SpectralValue", "fourier_numeric", "fourier_analytic", "power_at", "TAIL_REL_DEFAULT"]

TAIL_REL_DEFAULT = 1e-10


@dataclass(frozen=True)
class SpectralValue:
    """qhat at a single angular frequency, with a grid-adequacy flag."""

    omega: float
    value: complex
    tail_warning: bool = False


def tails_resolved(signal: CouplingSignal, tail_rel: float = TAIL_REL_DEFAULT) -> bool:
    """True when |q| at both grid endpoints is below tail_rel * max|q|."""
    q = signal.values
    threshold = tail_rel * max(q.max(), -q.min())
    return bool(abs(q[0]) <= threshold and abs(q[-1]) <= threshold)


def fourier_numeric(signal: CouplingSignal, omega: float, tail_rel: float = TAIL_REL_DEFAULT) -> SpectralValue:
    """Trapezoidal quadrature of q(t) exp(-i*omega*t) over the signal grid.

    A tail warning is attached when the grid endpoints still carry more
    than ``tail_rel`` of the peak coupling (truncated-tail quadrature).
    Hermitian symmetry holds bit-exactly: the integrand at -omega is the
    elementwise conjugate of the integrand at +omega.

    The grid is integrated in blocks of BLOCK_SAMPLES intervals, each
    sharing its end sample with the next, so the working set is
    O(BLOCK_SAMPLES) whatever the grid length; a grid of one block is a
    single trapezoid call.  A power-of-two count of terms per block keeps
    numpy's pairwise summation close to its full-array order, so long
    grids move only in the last digits.
    """
    q = signal.values
    if len(q) == 0:
        raise ValueError("empty signal")
    if not (np.isfinite(q.min()) and np.isfinite(q.max())):
        raise ValueError("signal contains NaN or infinite values")
    grid = signal.grid
    value = 0j
    for lo in range(0, grid.n_samples - 1, BLOCK_SAMPLES):
        hi = min(lo + BLOCK_SAMPLES + 1, grid.n_samples)
        phase = np.exp(-1j * omega * grid.times(lo, hi))
        value += np.trapezoid(q[lo:hi] * phase, dx=grid.dt)
    return SpectralValue(float(omega), complex(value), not tails_resolved(signal, tail_rel))


def fourier_analytic(profile: CouplingProfile, omega: float) -> SpectralValue:
    """Closed-form transform for the profiles that have one.

    ExponentialRamp: gamma/(eta + i*w)^2
    SymmetricRamp:   -4i*gamma*eta*w/(eta^2 + w^2)^2
    GaussianPulse:   q0*tau*sqrt(pi)*exp(-w^2 tau^2/4)

    Flyby and sampled profiles are rejected; transform those numerically.
    """
    w = float(omega)
    if isinstance(profile, ExponentialRamp):
        value = profile.gamma / (profile.eta + 1j * w) ** 2
    elif isinstance(profile, SymmetricRamp):
        value = -4j * profile.gamma * profile.eta * w / (profile.eta**2 + w**2) ** 2
    elif isinstance(profile, GaussianPulse):
        value = profile.q0 * profile.tau * np.sqrt(np.pi) * np.exp(-(w * profile.tau) ** 2 / 4.0)
    else:
        raise TypeError(f"no closed-form transform for {type(profile).__name__}; use fourier_numeric")
    return SpectralValue(w, complex(value))


def _transform(source, omega: float, tail_rel: float) -> SpectralValue:
    """qhat(omega) of a CouplingSignal (numeric) or a closed-form profile (analytic)."""
    # a CouplingSignal is a CouplingProfile too, so it is tested first
    if isinstance(source, CouplingSignal):
        return fourier_numeric(source, omega, tail_rel)
    if isinstance(source, CouplingProfile):
        return fourier_analytic(source, omega)
    raise TypeError(f"expected a CouplingSignal or CouplingProfile, got {type(source).__name__}")


def power_at(source, omega: float, tail_rel: float = TAIL_REL_DEFAULT) -> float:
    """qhat(w)*qhat(-w) for real q, i.e. |qhat(w)|^2.

    Accepts a CouplingSignal (numeric transform) or a closed-form profile
    (analytic transform).
    """
    return abs(_transform(source, omega, tail_rel).value) ** 2
