"""Fourier transforms: frozen closed-form values, symmetries, convergence.

Expected numbers were computed from the closed forms with 30-digit
arithmetic and cross-checked by independent adaptive quadrature
(mpmath.quad) before being frozen here.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casfric import (
    CouplingSignal,
    ExponentialRamp,
    Flyby,
    GaussianPulse,
    PhysicalParams,
    SymmetricRamp,
    TimeGrid,
    delta_e_spectral,
    fourier_analytic,
    fourier_numeric,
    sample,
)

# closed-form transform of the unit Gaussian pulse at omega = 2:
# sqrt(pi) * exp(-1)
GAUSS_QHAT_2 = 0.65204933217329218
# closed-form |qhat|^2 of the unit Gaussian at omega = 2: pi * exp(-2)
GAUSS_POWER_2 = 0.42516833158763633
# transform of the unit flyby (e = d = v = 1) at omega = 2: 4*K_1(2)
FLYBY_QHAT_2 = 0.55946352726608971


def gaussian_signal(n=4801, span=12.0, q0=1.0, tau=1.0):
    return sample(GaussianPulse(q0=q0, tau=tau), TimeGrid(-span, span, n))


class TestFourierNumeric:
    def test_zero_signal_transforms_to_zero(self):
        signal = CouplingSignal(TimeGrid(-1.0, 1.0, 11), np.zeros(11))
        for w in (0.0, 1.0, 17.3):
            assert fourier_numeric(signal, w) == 0.0 + 0.0j

    def test_gaussian_pulse_matches_closed_form(self):
        qhat = fourier_numeric(gaussian_signal(), 2.0)
        np.testing.assert_allclose(qhat.real, GAUSS_QHAT_2, atol=1e-8)
        assert abs(qhat.imag) < 1e-10

    def test_exponential_ramp_matches_closed_form(self):
        # gamma/(eta + i w)^2 at gamma = eta = w = 1 is 1/(1+i)^2 = -i/2
        signal = sample(ExponentialRamp(gamma=1.0, eta=1.0), TimeGrid(0.0, 40.0, 16001))
        qhat = fourier_numeric(signal, 1.0)
        np.testing.assert_allclose([qhat.real, qhat.imag], [0.0, -0.5], atol=1e-6)

    def test_flyby_matches_bessel_closed_form(self):
        signal = sample(Flyby(charge=1.0, d=1.0, v=1.0), TimeGrid(-2200.0, 2200.0, 88001))
        qhat = fourier_numeric(signal, 2.0)
        np.testing.assert_allclose(qhat.real, FLYBY_QHAT_2, atol=1e-8)
        assert abs(qhat.imag) < 1e-10

    def test_rejects_nan_values(self):
        signal = gaussian_signal(n=101, span=8.0)
        signal.values[3] = np.nan  # bypasses construction-time validation
        with pytest.raises(ValueError, match="must be finite"):
            fourier_numeric(signal, 1.0)

    @pytest.mark.parametrize("omega", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_omega(self, omega):
        with pytest.raises(ValueError, match=r"^omega must be finite, got -?(nan|inf)$"):
            fourier_numeric(gaussian_signal(n=101, span=8.0), omega)

    @given(w=st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_hermitian_symmetry_is_bitwise(self, w):
        """For real signals, qhat(-w) equals conj(qhat(w)) exactly."""
        signal = gaussian_signal(n=801, span=8.0)
        plus = fourier_numeric(signal, w)
        minus = fourier_numeric(signal, -w)
        assert minus == np.conj(plus)

    def test_linearity_on_a_shared_grid(self):
        grid = TimeGrid(-10.0, 10.0, 2001)
        s1 = sample(GaussianPulse(q0=1.0, tau=1.0), grid)
        s2 = sample(GaussianPulse(q0=0.5, tau=2.0), grid)
        combo = CouplingSignal(grid, 2.0 * s1.values - 3.0 * s2.values)
        w = 1.7
        lhs = fourier_numeric(combo, w)
        rhs = 2.0 * fourier_numeric(s1, w) - 3.0 * fourier_numeric(s2, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-16)


class TestFourierAnalytic:
    def test_exponential_ramp_at_zero_frequency(self):
        assert fourier_analytic(ExponentialRamp(gamma=1.0, eta=1.0), 0.0) == 1.0 + 0.0j

    def test_symmetric_ramp_has_zero_mean(self):
        assert fourier_analytic(SymmetricRamp(gamma=1.0, eta=1.0), 0.0) == 0.0

    def test_gaussian_at_zero_frequency(self):
        np.testing.assert_allclose(
            fourier_analytic(GaussianPulse(q0=2.0, tau=1.0), 0.0),
            2.0 * np.sqrt(np.pi),
            rtol=1e-15,
        )

    def test_symmetric_ramp_formula_validated_by_quadrature(self):
        """-4i*gamma*eta*w/(eta^2+w^2)^2 against the numeric transform.

        The closed form is not taken on trust: at gamma = eta = 1, w = 2
        it gives -8i/25 = -0.32i, which the trapezoid quadrature must
        reproduce (independent check: mpmath.quad agrees to 15 digits).
        """
        profile = SymmetricRamp(gamma=1.0, eta=1.0)
        closed = fourier_analytic(profile, 2.0)
        np.testing.assert_allclose(closed, -0.32j, rtol=1e-15)
        signal = sample(profile, TimeGrid(-40.0, 40.0, 32001))
        numeric = fourier_numeric(signal, 2.0)
        np.testing.assert_allclose(numeric, closed, atol=1e-6)

    @pytest.mark.parametrize("w", [-3.0, -1.0, 0.5, 2.0])
    def test_closed_forms_match_quadrature(self, w):
        cases = [
            (ExponentialRamp(gamma=0.8, eta=1.3), TimeGrid(0.0, 50.0, 20001)),
            (SymmetricRamp(gamma=0.8, eta=1.3), TimeGrid(-50.0, 50.0, 40001)),
            (GaussianPulse(q0=0.8, tau=1.3), TimeGrid(-16.0, 16.0, 6401)),
        ]
        for profile, grid in cases:
            closed = fourier_analytic(profile, w)
            numeric = fourier_numeric(sample(profile, grid), w)
            np.testing.assert_allclose(numeric, closed, atol=1e-6)

    def test_flyby_and_sampled_are_numeric_only(self):
        with pytest.raises(TypeError, match="fourier_numeric"):
            fourier_analytic(Flyby(charge=1.0, d=1.0, v=1.0), 1.0)
        with pytest.raises(TypeError, match="fourier_numeric"):
            fourier_analytic(CouplingSignal(TimeGrid(0.0, 1.0, 2), np.zeros(2)), 1.0)

    def test_trapezoid_error_is_second_order_in_dt(self):
        """The switch-on kink makes the ramp a clean order-2 probe."""
        profile = ExponentialRamp(gamma=1.0, eta=1.0)
        exact = fourier_analytic(profile, 1.0)
        dts, errs = [], []
        for n in (1251, 2501, 5001, 10001):
            grid = TimeGrid(0.0, 40.0, n)
            err = abs(fourier_numeric(sample(profile, grid), 1.0) - exact)
            dts.append(grid.dt)
            errs.append(err)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 1.9 < slope < 2.1
        # the error is bounded by C*dt^2 with a stable constant
        constants = np.array(errs) / np.array(dts) ** 2
        assert constants.max() / constants.min() < 1.5


class TestPowerAt:
    """|qhat(w)|^2 = qhat(w)*qhat(-w) for real q, from either transform."""

    def test_zero_signal(self):
        signal = CouplingSignal(TimeGrid(-1.0, 1.0, 11), np.zeros(11))
        assert abs(fourier_numeric(signal, 3.0)) ** 2 == 0.0

    def test_exponential_ramp_quarter(self):
        # |1/(1+i)^2|^2 = 1/4, from the closed form and by hand
        profile = ExponentialRamp(gamma=1.0, eta=1.0)
        np.testing.assert_allclose(abs(fourier_analytic(profile, 1.0)) ** 2, 0.25, rtol=1e-15)
        signal = sample(profile, TimeGrid(0.0, 40.0, 16001))
        np.testing.assert_allclose(abs(fourier_numeric(signal, 1.0)) ** 2, 0.25, atol=1e-6)

    def test_gaussian_power(self):
        power = abs(fourier_analytic(GaussianPulse(q0=1.0, tau=1.0), 2.0)) ** 2
        np.testing.assert_allclose(power, GAUSS_POWER_2, rtol=1e-15)
        power = abs(fourier_numeric(gaussian_signal(), 2.0)) ** 2
        np.testing.assert_allclose(power, GAUSS_POWER_2, atol=1e-8)

    def test_nonnegative_real(self):
        signal = sample(SymmetricRamp(gamma=-2.0, eta=0.5), TimeGrid(-80.0, 80.0, 16001))
        value = abs(fourier_numeric(signal, 1.0)) ** 2
        assert isinstance(value, float) and value >= 0.0

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError):
            delta_e_spectral(np.zeros(5), PhysicalParams(mass=1.0, omega=1.0))

    def test_symmetric_ramp_power_vanishes_as_eta_squared(self):
        """Slow switching kills the transform at fixed w != 0."""
        etas = np.geomspace(1e-4, 1e-2, 7)
        powers = [abs(fourier_analytic(SymmetricRamp(gamma=1.0, eta=float(e)), 2.0)) ** 2 for e in etas]
        slope = np.polyfit(np.log(etas), np.log(powers), 1)[0]
        assert abs(slope - 2.0) < 0.05
