"""A straight-line flyby: friction needs speed.

Two oscillators pass each other on a rigid straight-line trajectory with
closest approach d and relative speed v, so the coupling is the physical
q(t) = e^2 / (d^2 + v^2 t^2)^{3/2}.  The encounter dissipates energy
only through its Fourier weight at the two-quantum line 2w, and that
weight dies exponentially for slow passes (the encounter time d/v is
long compared with the oscillator period): dE ~ exp(-4 w d / v) up to
powers of v.  Doubling the speed can buy many orders of magnitude.
"""
import numpy as np

from casfric import Flyby, PhysicalParams, TimeGrid, delta_e_spectral, delta_e_time_domain, sample

params = PhysicalParams(mass=1.0, omega=1.0)

print(__doc__)
print("peak coupling at closest approach, e = d = 1:",
      Flyby(charge=1.0, d=1.0, v=1.0).evaluate(0.0))
print()
print(f"{'v':>6} | {'dE':>13} | {'dE * exp(+4wd/v)':>18}")
print("-" * 45)
for v in (0.5, 0.7, 1.0, 1.5, 2.0, 3.0):
    # span wide enough that the |t|^-3 tails are below 1e-10 of the peak
    span = 2200.0 / v
    n = int(np.ceil(2.0 * span / 0.05)) + 1
    signal = sample(Flyby(charge=1.0, d=1.0, v=v), TimeGrid(-span, span, n))
    de = delta_e_time_domain(signal, params)
    assert abs(de - delta_e_spectral(signal, params)) <= 1e-12 * de
    print(f"{v:6.2f} | {de:13.4e} | {de * np.exp(4.0 * params.omega / v):18.4e}")

print()
print("The rightmost column compensates the leading exponential; its")
print("slow variation is the residual power-law prefactor in v.")
