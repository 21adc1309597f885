"""The public API: ``casfric.__all__`` names exactly these, all import, and
every entry point that takes a sampled signal refuses anything else."""
import pytest

import casfric
from casfric import ExponentialRamp, PhysicalParams

PUBLIC_NAMES = [
    "PhysicalParams",
    "TimeGrid",
    "ladder_factor",
    "CouplingProfile",
    "CouplingSignal",
    "ExponentialRamp",
    "SymmetricRamp",
    "GaussianPulse",
    "Flyby",
    "sample",
    "load_sampled_csv",
    "fourier_numeric",
    "fourier_analytic",
    "DissipationReport",
    "AdiabaticScanResult",
    "ROUTES",
    "time_domain_amplitude",
    "delta_e_time_domain",
    "delta_e_spectral",
    "compare_routes",
    "amplitude_scan",
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


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 32
    assert sorted(casfric.__all__) == sorted(PUBLIC_NAMES)


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from casfric import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC_NAMES)


PARAMS = PhysicalParams(mass=1.0, omega=1.0)

# every entry point that takes a sampled signal, with its other arguments
# invalid where it has any that could be: the signal's type is checked first
SIGNAL_ENTRY_POINTS = {
    "time_domain_amplitude": lambda signal: casfric.time_domain_amplitude(signal, PARAMS),
    "delta_e_time_domain": lambda signal: casfric.delta_e_time_domain(signal, PARAMS),
    "delta_e_spectral": lambda signal: casfric.delta_e_spectral(signal, PARAMS),
    "fourier_numeric": lambda signal: casfric.fourier_numeric(signal, 1.0),
    "evolve_mode": lambda signal: casfric.evolve_mode(signal, PARAMS, mode_sign=0),
    "evolve_fock": lambda signal: casfric.evolve_fock(signal, PARAMS, truncation=1),
    "compare_routes": lambda signal: casfric.compare_routes(signal, PARAMS, routes=[]),
}


@pytest.mark.parametrize("entry_point", sorted(SIGNAL_ENTRY_POINTS))
def test_a_closed_form_profile_where_a_signal_is_required_is_a_type_error(entry_point):
    with pytest.raises(TypeError, match=f"^{entry_point} takes a CouplingSignal, got ExponentialRamp$"):
        SIGNAL_ENTRY_POINTS[entry_point](ExponentialRamp(gamma=1e-3, eta=1.0))
