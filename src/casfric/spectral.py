"""Fourier transform qhat(w) = integral q(t) exp(-i w t) dt of the coupling.

Trapezoidal quadrature on uniform grids, no FFT: every route needs the
transform at isolated frequencies (the +-2*omega transition lines), not a
full spectrum.  Slowly decaying tails are handled by requiring wide grids
(checked by compare_routes' endpoint tail test) rather than analytic tail
corrections.

For a ramp q(t) = gamma*t*exp(-eta*|t|) the closed-form transform is
-4i*gamma*eta*w/(eta^2+w^2)^2, so the product qhat(w)*qhat(-w) equals
gamma^2 * 16*eta^2*w^2/(eta^2+w^2)^4; in particular |qhat|^2 at fixed
w != 0 vanishes as eta^2 in the slow-switching limit.  (Squared moduli
here always come from the transform itself, never from a separately
quoted product formula.)
"""
from __future__ import annotations

import cmath

import numpy as np

from .core import BLOCK_SAMPLES, TimeGrid, _blocks
from .coupling import (
    CouplingProfile,
    CouplingSignal,
    ExponentialRamp,
    GaussianPulse,
    SymmetricRamp,
)

__all__ = ["fourier_numeric", "fourier_analytic"]


class _SpectralSum:
    """Trapezoid of q(t) exp(-i*omega*t) over a grid, fed one block at a time.

    Its three buffers hold blocks of up to ``size`` samples and share one
    allocation of 5*size - 2 floats: ``work`` if given, else one made here.
    ``reset`` starts the transform over a grid, so one instance serves
    every grid of an eta scan; ``add`` then takes the times and samples of
    each block of the grid's partition, in order.
    """

    def __init__(self, omega: float, size: int, work=None):
        self.w = -omega  # -1j*omega*t has imaginary part w*t, bit for bit
        work = np.empty(5 * size - 2) if work is None else work
        self.integrand = work[: 2 * size].view(np.complex128)
        self.pairs = work[2 * size : 4 * size - 2].view(np.complex128)
        self.trig = work[4 * size - 2 :]

    def reset(self, grid: TimeGrid) -> None:
        """Start a new transform over ``grid``."""
        self.dt, self.value = grid.dt, 0j

    def add(self, times: np.ndarray, block: np.ndarray) -> None:
        """Add the trapezoid over one block: sample times ``times``, values ``block``.

        Both arrays are only read.
        """
        n = len(block)
        cos_sin, y, pair = self.trig[:n], self.integrand[:n], self.pairs[: n - 1]
        phase = self.pairs.view(np.float64)[:n]  # the pair buffer is free until the pairs are summed
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused by total
            np.multiply(times, self.w, out=phase)
            np.multiply(block, np.cos(phase, out=cos_sin), out=y.real)
            np.multiply(block, np.sin(phase, out=cos_sin), out=y.imag)
            np.add(y[1:], y[:-1], out=pair)
            pair_real = pair.view(np.float64)
            pair_real *= self.dt
            pair_real *= 0.5
            self.value += pair.sum()

    def total(self) -> complex:
        """The transform; OverflowError if the sum is not finite."""
        if not cmath.isfinite(self.value):
            raise OverflowError("the spectral quadrature overflowed")
        return complex(self.value)


def fourier_numeric(signal: CouplingSignal, omega: float) -> complex:
    """Trapezoidal quadrature of q(t) exp(-i*omega*t) over the signal grid.

    The phase -omega*t is the imaginary part of the complex argument that
    np.exp(-1j*omega*t) would take; q*cos goes into the real part and
    q*sin into the imaginary part of the integrand block, the cos and sin
    that libm's cexp of a zero real part returns.  Hermitian symmetry
    holds bit-exactly: the phase at -omega is the exact negation of the
    phase at +omega, cos is even and sin is odd in libm, so the integrand
    at -omega is the elementwise conjugate of the integrand at +omega.

    The grid is integrated in blocks of BLOCK_SAMPLES intervals, each
    sharing its end sample with the next, so the working set is three
    O(BLOCK_SAMPLES) buffers allocated once per call, whatever the grid
    length.  Each block's trapezoid runs in place with np.trapezoid's
    terms and pairwise sum, so a grid of one block gives the bits of a
    single trapezoid call.  A power-of-two count of terms per block keeps
    numpy's pairwise summation close to its full-array order, so long
    grids move only in the last digits.  A sum that overflows raises
    OverflowError instead of returning inf or nan.
    """
    grid, q = signal.grid, signal.values
    if not (np.isfinite(q.min()) and np.isfinite(q.max())):
        raise ValueError("signal contains NaN or infinite values")
    transform = _SpectralSum(omega, min(BLOCK_SAMPLES + 1, grid.n_samples))
    transform.reset(grid)
    for lo, hi in _blocks(grid.n_samples):
        transform.add(grid.times(lo, hi), q[lo:hi])
    return transform.total()


def fourier_analytic(profile: CouplingProfile, omega: float) -> complex:
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
    return complex(value)


def _transform(source, omega: float) -> complex:
    """qhat(omega) of a CouplingSignal (numeric) or a closed-form profile (analytic)."""
    # a CouplingSignal is a CouplingProfile too, so it is tested first
    if isinstance(source, CouplingSignal):
        return fourier_numeric(source, omega)
    if isinstance(source, CouplingProfile):
        return fourier_analytic(source, omega)
    raise TypeError(f"expected a CouplingSignal or CouplingProfile, got {type(source).__name__}")
