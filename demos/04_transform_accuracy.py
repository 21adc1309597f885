"""Trapezoid transforms against closed forms, with the error's order in dt.

The quadrature is plain trapezoid on a uniform grid.  For pulses whose
derivatives all vanish at the grid ends (the Gaussian) it is accurate
far beyond its nominal order; a switch-on kink (the abrupt ramp) pins
it at the textbook O(dt^2).  Tails matter too: truncating a slowly
decaying profile (the flyby's |t|^-3) costs accuracy that no dt
refinement recovers.  The endpoint ratio |q(end)|/max|q| shows it; a
report flags it (tail_warning) when the ratio exceeds its tail_rel.
"""
import numpy as np

from casfric import (
    ExponentialRamp,
    Flyby,
    GaussianPulse,
    PhysicalParams,
    TimeGrid,
    compare_routes,
    fourier_analytic,
    fourier_numeric,
    sample,
)

print(__doc__)
w = 2.0

print("abrupt ramp (gamma = eta = 1), transform at w = 2, grid [0, 40]:")
profile = ExponentialRamp(gamma=1.0, eta=1.0)
exact = fourier_analytic(profile, w)
print(f"{'n':>7} {'dt':>10} | {'|error|':>11} {'ratio':>7}")
prev = None
for n in (1251, 2501, 5001, 10001, 20001):
    grid = TimeGrid(0.0, 40.0, n)
    err = abs(fourier_numeric(sample(profile, grid), w) - exact)
    ratio = f"{prev / err:7.2f}" if prev else "      -"
    print(f"{n:7d} {grid.dt:10.2e} | {err:11.4e} {ratio}")
    prev = err
print("(ratio -> 4 under dt halving: order 2, set by the switch-on kink)")

print()
print("Gaussian pulse (q0 = tau = 1), transform at w = 2, grid [-12, 12]:")
profile = GaussianPulse(q0=1.0, tau=1.0)
exact = fourier_analytic(profile, w)
for n in (301, 601, 1201, 2401):
    grid = TimeGrid(-12.0, 12.0, n)
    err = abs(fourier_numeric(sample(profile, grid), w) - exact)
    print(f"{n:7d} {grid.dt:10.2e} | {err:11.4e}")
print("(error collapses to rounding once dt resolves the oscillation:")
print(" every boundary term in the quadrature's error expansion vanishes)")

print()
print("flyby (e = d = v = 1), transform at w = 2: tail truncation cost")
for span in (50.0, 200.0, 800.0, 2200.0):
    n = int(np.ceil(2 * span / 0.05)) + 1
    signal = sample(Flyby(charge=1.0, d=1.0, v=1.0), TimeGrid(-span, span, n))
    # 4*K_1(2), the closed form the package deliberately does not ship
    err = abs(fourier_numeric(signal, w) - 0.55946352726608971)
    tail = compare_routes(signal, PhysicalParams(mass=1.0, omega=1.0), routes=("hb",)).tail_ratio
    print(f"  span +-{span:6.0f} | |error| = {err:10.3e} | |q(end)|/max|q| = {tail:9.3e}")
