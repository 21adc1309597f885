"""Energy dissipated by two harmonic oscillators with a time-dependent
bilinear coupling, at zero temperature.

The package computes the dissipated energy dE through two first-order
formulations that must agree (a time-domain amplitude integral and a
Fourier-transform route), checks both against two non-perturbative
oracles (exact Bogoliubov mode functions and a truncated-Fock-basis
integration), and exposes switching-rate scans that separate genuine
slow-switching friction from the abrupt-start artefact.
"""

from .core import PhysicalParams, TimeGrid, ladder_factor
from .coupling import (
    CouplingProfile,
    CouplingSignal,
    ExponentialRamp,
    Flyby,
    GaussianPulse,
    SymmetricRamp,
    coupling_from_separation,
    load_sampled_csv,
    sample,
    with_amplitude,
)
from .dissipation import (
    ROUTES,
    AdiabaticScanResult,
    DissipationReport,
    adiabatic_scan,
    compare_routes,
    delta_e_spectral,
    delta_e_time_domain,
    time_domain_amplitude,
)
from .errors import InvertedModeError, NormDriftError, NumericalFailure, TailSpanError
from .oracle import (
    BogoliubovPair,
    FockStateVector,
    delta_e_fock,
    delta_e_modes,
    evolve_fock,
    evolve_mode,
)
from .spectral import fourier_analytic, fourier_numeric

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams",
    "TimeGrid",
    "ladder_factor",
    "CouplingProfile",
    "CouplingSignal",
    "ExponentialRamp",
    "SymmetricRamp",
    "GaussianPulse",
    "Flyby",
    "coupling_from_separation",
    "sample",
    "load_sampled_csv",
    "with_amplitude",
    "fourier_numeric",
    "fourier_analytic",
    "DissipationReport",
    "AdiabaticScanResult",
    "ROUTES",
    "time_domain_amplitude",
    "delta_e_time_domain",
    "delta_e_spectral",
    "compare_routes",
    "adiabatic_scan",
    "BogoliubovPair",
    "FockStateVector",
    "evolve_mode",
    "delta_e_modes",
    "evolve_fock",
    "delta_e_fock",
    "NumericalFailure",
    "InvertedModeError",
    "NormDriftError",
    "TailSpanError",
]
