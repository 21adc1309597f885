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

from .core import TimeGrid
from .coupling import (
    CouplingProfile,
    CouplingSignal,
    ExponentialRamp,
    GaussianPulse,
    SymmetricRamp,
    _block_and_tile,
    _walk,
)

__all__ = ["fourier_numeric", "fourier_analytic"]


class _SpectralSum:
    """Trapezoid of q(t) exp(-i*omega*t) over a grid, fed by coupling._walk.

    Its pair buffer holds a block of up to ``size`` samples, its integrand
    and trig buffers a tile of ``tile``: one allocation of 3*tile +
    2*size - 2 floats, ``work`` if given.  ``reset`` starts the transform
    over a grid, so one instance serves every grid of an eta scan.
    """

    def __init__(self, omega: float, size: int, tile: int, work=None):
        self.w = -omega  # -1j*omega*t has imaginary part w*t, bit for bit
        work = np.empty(3 * tile + 2 * size - 2) if work is None else work
        self.integrand = work[: 2 * tile].view(np.complex128)
        self.pairs = work[2 * tile : 2 * tile + 2 * size - 2].view(np.complex128)
        self.trig = work[2 * tile + 2 * size - 2 :]

    def reset(self, grid: TimeGrid) -> None:
        """Start a new transform over ``grid``."""
        self.dt, self.value = grid.dt, 0j

    def fill(self, times: np.ndarray, block: np.ndarray, at: int) -> None:
        """Write the trapezoid pairs of ``block``, sampled at ``times``, to
        the pair buffer from pair ``at`` on; both arrays are only read."""
        n = len(block)
        cos_sin, y, pair = self.trig[:n], self.integrand[:n], self.pairs[at : at + n - 1]
        phase = self.pairs[at:].view(np.float64)[:n]  # these pairs are free until they are written
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused by total
            np.multiply(times, self.w, out=phase)
            np.multiply(block, np.cos(phase, out=cos_sin), out=y.real)
            np.multiply(block, np.sin(phase, out=cos_sin), out=y.imag)
            np.add(y[1:], y[:-1], out=pair)
            pair_real = pair.view(np.float64)
            pair_real *= self.dt
            pair_real *= 0.5

    def add_pairs(self, count: int) -> None:
        """Add the sum of the first ``count`` pairs, a block's, to the trapezoid."""
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused by total
            self.value += self.pairs[:count].sum()

    def total(self) -> complex:
        """The transform; OverflowError if the sum is not finite."""
        if not cmath.isfinite(self.value):
            raise OverflowError("the spectral quadrature overflowed")
        return complex(self.value)


def fourier_numeric(signal: CouplingSignal, omega: float) -> complex:
    """Trapezoidal quadrature of q(t) exp(-i*omega*t) over the signal grid.

    The phase -omega*t is the imaginary part of the complex argument that
    np.exp(-1j*omega*t) would take; q*cos goes into the real part and
    q*sin into the imaginary part of the integrand tile, the cos and sin
    that libm's cexp of a zero real part returns.  Hermitian symmetry
    holds bit-exactly: the phase at -omega is the exact negation of the
    phase at +omega, cos is even and sin is odd in libm, so the integrand
    at -omega is the elementwise conjugate of the integrand at +omega.

    coupling._walk feeds it blocks of BLOCK_SAMPLES intervals, each sharing
    its end sample with the next, in tiles: the working set is tile-sized
    integrand and trig buffers and one block's pairs, whatever the grid
    length.  Each block's trapezoid is summed with np.trapezoid's terms
    and pairwise order, so a grid of one block gives the bits of a single
    trapezoid call, and long grids move only in the last digits.  A NaN
    or infinite sample raises ValueError; a sum that overflows raises
    OverflowError instead of returning inf or nan.
    """
    transform = _SpectralSum(omega, *_block_and_tile(signal.grid.n_samples))
    _walk(signal.grid, signal, [transform])
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
