"""Four ways to compute the same dissipated energy.

A pair of identical harmonic oscillators is driven through a weak
Gaussian coupling pulse q(t) = q0 * exp(-t^2/tau^2) multiplying y1*y2.
Starting from the joint ground state at T = 0, the energy left behind
after the pulse is computed by:

  barton       time-domain amplitude integral, dE = 8 hbar w b^2 |I|^2
  hb           Fourier route, dE = 2 hbar w |b_1100|^2 at the 2w line
  mode_oracle  exact Bogoliubov evolution of the +- normal modes
  fock_oracle  direct Schroedinger evolution, truncated number basis

The two first-order routes differ only in where the oscillatory factor
sits, so they must agree to rounding.  The oracles are non-perturbative;
their offset from first order is the real relative O(q0^2) correction
plus a bias of the sampled grid that does not depend on q0.
"""
import numpy as np

from casfric import (
    GaussianPulse,
    PhysicalParams,
    TimeGrid,
    amplitude_scan,
    compare_routes,
    sample,
)

params = PhysicalParams(mass=1.0, omega=1.0)
grid = TimeGrid(-12.0, 12.0, 4801)

print(__doc__)
print(f"{'q0':>8} | {'barton':>13} {'hb':>13} {'mode':>13} {'fock':>13} | {'spread':>9}")
print("-" * 82)
amplitudes = (1e-3, 3e-3, 1e-2, 3e-2)
reports = amplitude_scan(
    GaussianPulse(q0=amplitudes[0], tau=1.0), amplitudes, grid, params,
    routes=("barton", "hb", "mode_oracle", "fock_oracle"),
    fock_truncation=8, fock_substeps=2,
)
for q0, rep in zip(amplitudes, reports):
    print(
        f"{q0:8.0e} | {rep.delta_e_time_domain:13.6e} {rep.delta_e_spectral:13.6e} "
        f"{rep.delta_e_mode_oracle:13.6e} {rep.delta_e_fock_oracle:13.6e} "
        f"| {rep.relative_spread:9.2e}"
    )

signal = sample(GaussianPulse(q0=1e-2, tau=1.0), grid)
rep = compare_routes(signal, params, routes=("barton", "hb"))
print()
print("first-order routes on the shared grid:")
print(f"  |barton - hb| / dE = {abs(rep.delta_e_time_domain - rep.delta_e_spectral) / rep.delta_e_time_domain:.1e}")
print()
x = params.omega * grid.dt
bias = (np.sin(x) / x) ** 4 - 1.0
print("The spread column is the exact-vs-first-order gap, in two parts.")
print("The oracles read q through the grid's linear interpolant, which")
print(f"scales their dE by sinc^4(w*dt), a shift of {bias:.3e} at dt = {grid.dt:g}")
print("whatever q0; at q0 = 1e-03 this bias is almost the whole spread.")
print("The relative O(q0^2) correction is positive and grows quadratically")
print("with q0: at 3e-03 it cancels part of the bias, and from 1e-02 on it")
print("dominates.")
print("The two first-order routes themselves agree to machine rounding.")
