"""Both first-order dissipation routes, their comparison, and eta scans.

Frozen expectations come from 30-digit evaluation of the closed-form
transforms chained through the dissipation formulas (cross-checked with
mpmath.quad); the quadrature paths must land on them within the stated
grid tolerances.
"""
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casfric import (
    CouplingSignal,
    ExponentialRamp,
    Flyby,
    GaussianPulse,
    NumericalFailure,
    PhysicalParams,
    SymmetricRamp,
    TailSpanError,
    TimeGrid,
    adiabatic_scan,
    amplitude_scan,
    compare_routes,
    delta_e_spectral,
    delta_e_time_domain,
    fourier_numeric,
    sample,
    time_domain_amplitude,
)
import casfric
from casfric.dissipation import ramp_tail_span

PARAMS = PhysicalParams(mass=1.0, omega=1.0)

# Gaussian pulse q0 = 0.01, tau = 1 at m = w = hbar = 1:
#   qhat(-2) = 0.01*sqrt(pi)*exp(-1)     = 6.5204933217329218e-3
#   I(inf)   = -(i/2)*qhat(-2)           = -3.2602466608664609e-3 i
#   dE       = 8*h*w*b^2*|I|^2           = 2.1258416579381816e-5
GAUSS_AMPLITUDE = -3.2602466608664609e-3j
GAUSS_DELTA_E = 2.1258416579381816e-5

# Exponential ramp gamma = 1e-3, eta = 1 at m = w = hbar = 1:
#   qhat(-2) = 1e-3/(1-2i)^2 = (-1.2 + 1.6i)e-4
#   I(inf)   = (8 + 6i)e-5, |I|^2 = 1e-8, dE = 2e-8
RAMP_AMPLITUDE = 8e-5 + 6e-5j
RAMP_DELTA_E = 2e-8


def gauss_signal(q0=0.01, n=4801):
    return sample(GaussianPulse(q0=q0, tau=1.0), TimeGrid(-12.0, 12.0, n))


def ramp_signal(gamma=1e-3, n=16001):
    return sample(ExponentialRamp(gamma=gamma, eta=1.0), TimeGrid(0.0, 40.0, n))


def zero_signal():
    return CouplingSignal(TimeGrid(-1.0, 1.0, 21), np.zeros(21))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_first_order_entry_refuses_a_non_finite_sample_alike(bad):
    """The quadratures, both dE and compare_routes stream the signal through
    one walk, so a NaN or infinite sample gets the one refusal."""
    signal = gauss_signal()
    signal.values[2400] = bad  # bypasses construction-time validation
    entries = {
        "fourier_numeric": lambda: fourier_numeric(signal, -2.0),
        "time_domain_amplitude": lambda: time_domain_amplitude(signal, PARAMS),
        "delta_e_time_domain": lambda: delta_e_time_domain(signal, PARAMS),
        "delta_e_spectral": lambda: delta_e_spectral(signal, PARAMS),
        "compare_routes": lambda: compare_routes(signal, PARAMS),
    }
    for name, entry in entries.items():
        with pytest.raises(ValueError) as caught:
            entry()
        assert type(caught.value) is ValueError, name
        assert str(caught.value) == "signal values must be finite", name


class TestTimeDomainAmplitude:
    def test_zero_signal(self):
        assert time_domain_amplitude(zero_signal(), PARAMS) == 0.0

    def test_gaussian_pulse_frozen_value(self):
        amp = time_domain_amplitude(gauss_signal(), PARAMS)
        np.testing.assert_allclose(amp, GAUSS_AMPLITUDE, rtol=1e-9)

    def test_exponential_ramp_frozen_value(self):
        amp = time_domain_amplitude(ramp_signal(), PARAMS)
        np.testing.assert_allclose(amp, RAMP_AMPLITUDE, rtol=1e-5)
        np.testing.assert_allclose(abs(amp) ** 2, 1e-8, rtol=1e-5)


class TestDeltaETimeDomain:
    def test_zero_signal(self):
        assert delta_e_time_domain(zero_signal(), PARAMS) == 0.0

    def test_gaussian_pulse_frozen_value(self):
        np.testing.assert_allclose(delta_e_time_domain(gauss_signal(), PARAMS), GAUSS_DELTA_E, rtol=1e-9)

    @given(lam=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_coupling_scaling(self, lam):
        signal = gauss_signal(n=801)
        base = delta_e_time_domain(signal, PARAMS)
        scaled = delta_e_time_domain(CouplingSignal(signal.grid, lam * signal.values), PARAMS)
        np.testing.assert_allclose(scaled, lam**2 * base, rtol=1e-12)

    def test_nonnegative_for_odd_profiles(self):
        signal = sample(SymmetricRamp(gamma=-3.0, eta=0.7), TimeGrid(-60.0, 60.0, 24001))
        assert delta_e_time_domain(signal, PARAMS) >= 0.0

    def test_overflowing_product_raises_instead_of_returning_inf(self):
        # b = 1e300 and |I| ~ 3e9: b*|I| is inf before it is squared
        params = PhysicalParams(mass=5e-301, omega=1.0)
        with pytest.raises(OverflowError):
            delta_e_time_domain(gauss_signal(q0=1e10, n=481), params)


class TestDeltaESpectral:
    def test_zero_signal(self):
        assert delta_e_spectral(zero_signal(), PARAMS) == 0.0

    @pytest.mark.parametrize(
        "source", [ExponentialRamp(gamma=1e-3, eta=1.0), ramp_signal(n=5).values], ids=["closed-form", "array"]
    )
    def test_takes_only_a_signal(self, source):
        # closed forms have one entry point, fourier_analytic
        with pytest.raises(TypeError, match="takes a CouplingSignal"):
            delta_e_spectral(source, PARAMS)

    def test_exponential_ramp_quadrature(self):
        np.testing.assert_allclose(delta_e_spectral(ramp_signal(), PARAMS), RAMP_DELTA_E, rtol=1e-5)

    def test_rejects_profiles_without_closed_form(self):
        with pytest.raises(TypeError):
            delta_e_spectral(Flyby(charge=1.0, d=1.0, v=1.0), PARAMS)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_product_raises_instead_of_returning_inf(self):
        # qhat is finite; b/hbar = 5e299 times it overflows the complex product to inf
        params = PhysicalParams(mass=1e-300, omega=1.0)
        with pytest.raises(OverflowError, match="the spectral dE overflowed"):
            delta_e_spectral(gauss_signal(q0=1e10, n=481), params)

    @pytest.mark.parametrize(
        "signal_factory",
        [
            lambda: gauss_signal(),
            lambda: ramp_signal(),
            lambda: sample(SymmetricRamp(gamma=1e-3, eta=1.0), TimeGrid(-40.0, 40.0, 32001)),
            lambda: sample(Flyby(charge=1.0, d=1.0, v=1.0), TimeGrid(-2200.0, 2200.0, 88001)),
        ],
    )
    def test_agrees_with_time_domain_route(self, signal_factory):
        """The two routes share only the raw samples, yet must coincide."""
        signal = signal_factory()
        de_spec = delta_e_spectral(signal, PARAMS)
        de_time = delta_e_time_domain(signal, PARAMS)
        assert abs(de_spec - de_time) / max(de_spec, 1e-300) <= 1e-12


class TestCompareRoutes:
    @pytest.mark.parametrize(
        "routes, route",
        [
            (("barton",), "barton"),
            (("hb",), "hb"),
            # routes fail in the order barton, hb, mode, Fock, whatever the order they are listed in
            (("fock_oracle", "mode_oracle", "hb", "barton"), "barton"),
            (("fock_oracle", "mode_oracle", "hb"), "hb"),
        ],
    )
    def test_overflow_is_a_numerical_failure_naming_the_route(self, routes, route):
        with pytest.raises(NumericalFailure, match=f"^{route}: float overflow") as info:
            compare_routes(gauss_signal(q0=1e200, n=801), PARAMS, routes=routes)
        assert isinstance(info.value.__cause__, OverflowError)

    @pytest.mark.filterwarnings("error")
    def test_an_oracle_energy_that_overflows_is_a_numerical_failure(self):
        # q = 0.1 m w^2 sin(2wt) over 160 cycles pumps ~2e9 quanta by parametric
        # resonance, ~1e7 times what first order predicts: hb's dE stays finite
        # while hbar*w times the oracle's quanta overflows
        w = 8e7
        grid = TimeGrid(-160 * np.pi / w, 160 * np.pi / w, 32001)
        t = grid.times()
        values = 0.1 * w**2 * np.sin(2.0 * w * t) * np.exp(-((4.0 * t / (grid.t_end - grid.t_start)) ** 2))
        signal, params = CouplingSignal(grid, values), PhysicalParams(mass=1.0, omega=w, hbar=1e295)
        with pytest.raises(NumericalFailure, match="^mode_oracle: float overflow"):
            compare_routes(signal, params, routes=("hb", "mode_oracle"))
        assert np.isfinite(compare_routes(signal, params, routes=("hb",)).delta_e_spectral)

    def test_zero_signal_report(self):
        report = compare_routes(zero_signal(), PARAMS, routes=("barton", "hb"))
        assert report.delta_e_time_domain == 0.0
        assert report.delta_e_spectral == 0.0
        assert report.relative_spread == 0.0
        assert report.transition_probability == 0.0 and not report.validity_flag
        assert report.tail_ratio == 0.0 and not report.tail_warning

    def test_four_route_benchmark(self):
        report = compare_routes(
            gauss_signal(), PARAMS, routes=("barton", "hb", "mode_oracle", "fock_oracle"),
            fock_truncation=8, fock_substeps=2,
        )
        values = report.populated()
        assert set(values) == {"barton", "hb", "mode_oracle", "fock_oracle"}
        assert report.relative_spread < 3e-4
        assert abs(values["barton"] - values["hb"]) / values["barton"] <= 1e-12
        assert not report.validity_flag
        assert not report.tail_warning

    def test_validity_flag_trips_at_strained_coupling(self):
        report = compare_routes(gauss_signal(q0=1.1), PARAMS, routes=("barton", "hb"))
        assert report.validity_flag

    def test_a_report_stores_numbers_and_reads_its_flags_off_them(self):
        report = compare_routes(gauss_signal(q0=1.1), PARAMS, routes=("hb",))
        fields = asdict(report)
        assert {"tail_ratio", "tail_rel", "transition_probability"} <= set(fields)
        assert not {"tail_warning", "validity_flag"} & set(fields)
        # both views are strict: a number at its threshold is not flagged
        assert not replace(report, tail_rel=report.tail_ratio).tail_warning
        assert replace(report, tail_rel=np.nextafter(report.tail_ratio, 0.0)).tail_warning
        assert not replace(report, transition_probability=0.1).validity_flag

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown route 'kubo' at routes\[1\]; valid tokens are \['barton', "):
            compare_routes(zero_signal(), PARAMS, routes=("barton", "kubo"))
        with pytest.raises(ValueError, match="at least one"):
            compare_routes(zero_signal(), PARAMS, routes=())

    def test_a_bare_string_of_routes_is_refused_as_a_string(self):
        # a str is a sequence of one-letter tokens; naming 'h' would hide the real fault
        match = r"^routes is a sequence of route tokens such as \('hb',\), not the string 'hb'$"
        for run in (lambda routes: compare_routes(zero_signal(), PARAMS, routes=routes),
                    lambda routes: amplitude_scan(GaussianPulse(q0=0.01, tau=1.0), [0.01], TimeGrid(-12.0, 12.0, 481),
                                                  PARAMS, routes=routes),
                    lambda routes: adiabatic_scan(SymmetricRamp(gamma=0.001, eta=1.0), [0.1], PARAMS, routes=routes)):
            with pytest.raises(TypeError, match=match):
                run("hb")

    def test_refuses_an_integral_float_fock_truncation(self):
        with pytest.raises(ValueError, match=r"truncation must be an integer >= 2, got 4\.0"):
            compare_routes(gauss_signal(n=481), PARAMS, routes=("fock_oracle",), fock_truncation=4.0)

    def test_tail_warning_recorded(self):
        narrow = sample(GaussianPulse(q0=0.01, tau=1.0), TimeGrid(-2.0, 2.0, 41))
        report = compare_routes(narrow, PARAMS, routes=("hb",))
        assert report.tail_warning

    def test_unresolved_tails_are_a_report_flag_not_a_warning(self):
        narrow = sample(GaussianPulse(q0=0.01, tau=1.0), TimeGrid(-2.0, 2.0, 101))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare_routes(narrow, PARAMS, routes=("mode_oracle", "fock_oracle"), fock_truncation=4)
        assert report.tail_warning

    @pytest.mark.parametrize("q0", [0.01, -0.01])
    def test_the_tail_test_reads_max_abs_q_for_either_sign(self, q0):
        wide, narrow = gauss_signal(q0=q0, n=481), sample(GaussianPulse(q0=q0, tau=1.0), TimeGrid(-2.0, 2.0, 41))
        for signal, flagged in ((wide, False), (narrow, True)):
            report = compare_routes(signal, PARAMS, routes=("hb",))
            q = np.abs(signal.values)
            assert report.tail_ratio == q[[0, -1]].max() / q.max()
            assert report.tail_rel == 1e-10
            assert report.tail_warning is flagged

    @pytest.mark.parametrize("tail_rel", [float("nan"), 0.0, -1.0, 1.0, 2.0, float("inf")])
    def test_a_tail_rel_outside_the_unit_interval_is_refused_with_its_value(self, tail_rel):
        # nan, 0 and -1 flagged every report, 2 none
        with pytest.raises(ValueError, match=rf"tail_rel must be in \(0, 1\), got {tail_rel!r}"):
            compare_routes(gauss_signal(n=481), PARAMS, routes=("hb",), tail_rel=tail_rel)

    def test_a_tail_rel_below_the_span_floor_still_tests_the_tails(self):
        # only an eta scan solves a span for its tail_rel
        report = compare_routes(gauss_signal(n=481), PARAMS, routes=("hb",), tail_rel=1e-320)
        assert report.tail_warning

    def test_the_one_tail_threshold_is_the_callers_tail_rel(self):
        # exp(-s^2) = 3e-10 at both endpoints, between the two thresholds
        s = np.sqrt(-np.log(3e-10))
        signal = sample(GaussianPulse(q0=0.01, tau=1.0), TimeGrid(-s, s, 401))
        ratios = signal.values[[0, -1]] / signal.values.max()
        assert np.all((1e-10 < ratios) & (ratios < 1e-9))
        for tail_rel, flagged in ((1e-10, True), (1e-9, False)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = compare_routes(signal, PARAMS, routes=("mode_oracle",), tail_rel=tail_rel)
            assert report.tail_warning is flagged


class TestAdiabaticScan:
    def test_symmetric_ramp_slope_near_two(self):
        result = adiabatic_scan(
            SymmetricRamp(gamma=1e-3, eta=1.0), [0.002, 0.005, 0.01], PARAMS, routes=("hb",)
        )
        assert 1.95 < result.slope_delta_e < 2.01
        np.testing.assert_allclose(result.delta_e_times_eta, result.delta_e * result.etas, rtol=1e-15)
        assert np.all(np.diff(result.delta_e) > 0.0)

    def test_abrupt_ramp_keeps_residual_dissipation(self):
        result = adiabatic_scan(
            ExponentialRamp(gamma=1e-3, eta=1.0), [0.002, 0.005, 0.01], PARAMS, routes=("barton",)
        )
        assert abs(result.slope_delta_e) < 0.01
        assert 0.99 < result.slope_delta_e_times_eta < 1.01
        assert np.all(result.delta_e > 0.0)

    def test_reports_carry_requested_routes(self):
        result = adiabatic_scan(
            SymmetricRamp(gamma=1e-3, eta=1.0), [0.01], PARAMS, routes=("barton", "hb")
        )
        assert set(result.reports[0].populated()) == {"barton", "hb"}
        # each grid is solved for a tenth of the default tail_rel, so no report of a scan is flagged
        assert result.reports[0].tail_ratio < result.reports[0].tail_rel == 1e-12
        assert not result.reports[0].tail_warning

    def test_rejects_non_ramp_families(self):
        with pytest.raises(TypeError, match="ramp"):
            adiabatic_scan(GaussianPulse(q0=1.0, tau=1.0), [0.01], PARAMS)

    def test_rejects_empty_nonpositive_or_repeated_etas(self):
        ramp = SymmetricRamp(gamma=1.0, eta=1.0)
        with pytest.raises(ValueError, match="^etas must be a nonempty sequence"):
            adiabatic_scan(ramp, [], PARAMS)
        with pytest.raises(ValueError, match=r"^etas\[1\] must be positive, got -0\.2$"):
            adiabatic_scan(ramp, [0.1, -0.2], PARAMS)
        # two equal etas leave the log-log fit without a slope
        with pytest.raises(ValueError, match=r"^etas\[2\] repeats 0\.1; a slope needs distinct etas$"):
            adiabatic_scan(ramp, [0.1, 0.05, 0.1], PARAMS)

    def test_a_zero_delta_e_has_nan_slopes_and_no_warning(self):
        result = adiabatic_scan(SymmetricRamp(gamma=0.0, eta=1.0), [0.1, 0.2], PARAMS, routes=("hb",))
        assert list(result.delta_e) == [0.0, 0.0]
        assert np.isnan(result.slope_delta_e) and np.isnan(result.slope_delta_e_times_eta)

    def test_etas_too_close_for_a_fit_have_nan_slopes_and_no_warning(self):
        # distinct etas with equal logs: the fit has rank 1, where numpy's
        # plain polyfit warns and returns a meaningless slope
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = adiabatic_scan(SymmetricRamp(gamma=0.001, eta=1.0), [0.1, 0.10000000000000002], PARAMS,
                                    routes=("hb",))
        assert caught == []
        assert np.all(result.delta_e > 0.0)
        assert np.isnan(result.slope_delta_e) and np.isnan(result.slope_delta_e_times_eta)

    def test_huge_dt_cannot_resolve_the_tails(self):
        with pytest.raises(TailSpanError):
            adiabatic_scan(SymmetricRamp(gamma=1.0, eta=1.0), [0.1], PARAMS, dt=1e4)

    def test_tail_span_solves_the_threshold_equation(self):
        eta, rel = 0.05, 1e-12
        span = ramp_tail_span(eta, rel)
        peak = 1.0 / (np.e * eta)  # max of t*exp(-eta*t)
        np.testing.assert_allclose(span * np.exp(-eta * span) / peak, rel, rtol=1e-9)

    def test_tail_span_is_bit_identical_to_scipy_lambertw(self):
        special = pytest.importorskip("scipy.special")
        rels = np.concatenate([np.geomspace(1e-300, 0.9, 2001), [1e-13, 1e-12, 1e-11, 1e-10]])
        for eta in (1.0, 1e-3, 0.37):
            expected = -special.lambertw(-rels / np.e, -1).real / eta
            got = np.array([ramp_tail_span(eta, float(rel)) for rel in rels])
            mismatched = rels[got != expected]
            assert mismatched.size == 0, f"eta={eta}: differs at tail_rel={mismatched[:5]}"

    @pytest.mark.parametrize("rel", [5e-324, 1e-323, 1e-322, 1e-310])
    def test_tail_rel_below_the_normal_range_is_refused(self, rel):
        with pytest.raises(ValueError, match="too small"):
            ramp_tail_span(1.0, rel)


class TestScanPreflight:
    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_dt_is_refused_with_its_value(self, dt):
        with pytest.raises(ValueError, match=rf"dt must be finite and positive, got {dt!r}"):
            adiabatic_scan(SymmetricRamp(gamma=1.0, eta=1.0), [0.1], PARAMS, dt=dt)

    @pytest.mark.parametrize("etas, dt", [([0.1, 5e-324], None), ([0.1], 5e-324)])
    def test_a_tiny_eta_or_dt_is_refused_as_a_grid_over_the_budget(self, etas, dt):
        # the span over dt is inf: refused before it is converted to a sample count
        with pytest.raises(ValueError, match=r"needs a grid of inf samples, above the budget of 100000000; raise eta"):
            adiabatic_scan(SymmetricRamp(gamma=1.0, eta=1.0), etas, PARAMS, dt=dt)

    def test_a_default_dt_that_overflows_is_refused_naming_omega(self):
        # pi/(32*omega) is inf for a subnormal omega, which would ask for a 1-sample grid
        params = PhysicalParams(mass=1e300, omega=5e-324)
        message = r"^the default dt pi/\(32\*omega\) overflows for omega=5e-324; set dt \(scan\.dt\)$"
        with pytest.raises(ValueError, match=message):
            adiabatic_scan(SymmetricRamp(gamma=0.001, eta=1.0), [0.1], params, routes=("hb",))

    def test_tail_rel_out_of_range_names_the_value_given(self):
        with pytest.raises(ValueError, match=r"got -1\.0"):
            adiabatic_scan(SymmetricRamp(gamma=1.0, eta=1.0), [0.1], PARAMS, tail_rel=-1.0)

    def test_tail_rel_below_the_span_floor_names_the_value_given(self):
        with pytest.raises(ValueError, match=r"tail_rel=1e-322 is too small"):
            adiabatic_scan(SymmetricRamp(gamma=1.0, eta=1.0), [0.1], PARAMS, tail_rel=1e-322)

    def test_grid_over_the_budget_is_refused_before_any_point_runs(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a grid was sampled")

        # an oracle route samples each point's grid, so the first point would reach sample
        monkeypatch.setattr("casfric.dissipation.sample", no_sampling)
        with pytest.raises(ValueError, match=r"eta=1e-06 needs a grid of \d+ samples"):
            adiabatic_scan(
                ExponentialRamp(gamma=1.0, eta=1.0), [0.01, 1e-6], PARAMS, routes=("hb", "mode_oracle")
            )


    def test_a_misspelled_oracle_option_is_refused_before_any_point_is_evaluated(self, monkeypatch):
        def no_evaluation(self, t, out, scratch):
            raise AssertionError("a scan point was evaluated")

        monkeypatch.setattr(SymmetricRamp, "_eval_array", no_evaluation)
        with pytest.raises(TypeError, match=r"adiabatic_scan\(\) got an unexpected keyword argument 'fock_trunc'"):
            adiabatic_scan(
                SymmetricRamp(gamma=1.0, eta=1.0), [0.1, 0.05], PARAMS, routes=("hb", "fock_oracle"), fock_trunc=3
            )


def eta_scan_of(routes):
    """An eta scan's reports and dE, which its routes pick (AdiabaticScanResult has no ==)."""
    scan = adiabatic_scan(SymmetricRamp(gamma=0.05, eta=1.0), [0.5, 0.2], PARAMS, routes=routes, mode_substeps=4)
    return scan.reports, scan.delta_e.tolist()


# each entry point on ``routes``
ENTRY_POINTS = {
    "compare_routes": lambda routes: compare_routes(gauss_signal(n=481), PARAMS, routes=routes),
    "amplitude_scan": lambda routes: amplitude_scan(GaussianPulse(q0=0.01, tau=1.0), [0.01, 0.02],
                                                    TimeGrid(-12.0, 12.0, 481), PARAMS, routes=routes),
    "adiabatic_scan": eta_scan_of,
}


@pytest.mark.parametrize("one_shot", [iter, lambda routes: (route for route in routes)], ids=["iterator", "generator"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_one_shot_routes_run_every_route_as_a_tuple_does(name, one_shot):
    routes = ("barton", "hb", "mode_oracle")
    assert ENTRY_POINTS[name](one_shot(routes)) == ENTRY_POINTS[name](routes)


def run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports this casfric."""
    src = str(Path(casfric.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_loads_no_scipy():
    code = (
        "import sys, casfric.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = run_python(code)
    assert out.strip() == "[]", out


def test_repeated_compare_routes_calls_fault_in_no_new_pages():
    """Both first-order workspaces are one allocation.  As two allocations
    alive at once, glibc trimmed the heap after every call and the next
    call faulted ~1,000 pages back in on this 48001-sample pulse."""
    pytest.importorskip("resource")
    code = (
        "import resource\n"
        "from casfric import GaussianPulse, PhysicalParams, TimeGrid, compare_routes, sample\n"
        "params = PhysicalParams(mass=1.0, omega=1.0)\n"
        "signal = sample(GaussianPulse(q0=0.01, tau=1.0), TimeGrid(-12.0, 12.0, 48001))\n"
        "for _ in range(3):\n"
        "    compare_routes(signal, params)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    compare_routes(signal, params)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    faults = int(run_python(code))
    assert faults < 20 * 10, faults
