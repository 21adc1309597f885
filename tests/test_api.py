"""The public API: ``casfric.__all__`` names exactly these, and all import."""
import casfric

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


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 33
    assert sorted(casfric.__all__) == sorted(PUBLIC_NAMES)


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from casfric import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC_NAMES)
