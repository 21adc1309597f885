"""Coupling profiles: pointwise values, symmetries, sampling, CSV loading."""
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casfric import (
    CouplingSignal,
    ExponentialRamp,
    Flyby,
    GaussianPulse,
    SymmetricRamp,
    TimeGrid,
    coupling_from_separation,
    load_sampled_csv,
    sample,
    with_amplitude,
)
from casfric.core import BLOCK_SAMPLES

finite_times = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestEvaluate:
    def test_ramp_is_zero_before_switch_on(self):
        assert ExponentialRamp(gamma=1.0, eta=1.0).evaluate(-0.5) == 0.0
        assert ExponentialRamp(gamma=1.0, eta=1.0).evaluate(0.0) == 0.0

    def test_ramp_value_after_switch_on(self):
        np.testing.assert_allclose(
            ExponentialRamp(gamma=2.0, eta=1.0).evaluate(1.0), 2.0 * np.exp(-1.0), rtol=1e-15
        )

    def test_ramp_does_not_overflow_at_large_negative_times(self):
        assert ExponentialRamp(gamma=1.0, eta=1.0).evaluate(-1e6) == 0.0

    @pytest.mark.parametrize(
        "profile", [GaussianPulse(q0=1.0, tau=1e-300), Flyby(charge=1.0, d=1.0, v=1e200)]
    )
    def test_a_square_overflowing_to_inf_samples_its_exact_limit(self, profile):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            signal = sample(profile, TimeGrid(-1.0, 1.0, 5))
        # off t = 0 the true value underflows to 0 as well
        assert signal.values.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_flyby_peak_is_closest_approach(self):
        assert Flyby(charge=1.0, d=1.0, v=1.0).evaluate(0.0) == 1.0

    def test_scalar_in_scalar_out_array_in_array_out(self):
        pulse = GaussianPulse(q0=1.0, tau=1.0)
        assert isinstance(pulse.evaluate(0.3), float)
        out = pulse.evaluate(np.array([0.0, 1.0]))
        assert out.shape == (2,)

    @given(t=finite_times)
    def test_symmetric_ramp_is_odd(self, t):
        ramp = SymmetricRamp(gamma=0.7, eta=0.3)
        np.testing.assert_allclose(ramp.evaluate(-t), -ramp.evaluate(t), rtol=1e-15, atol=0.0)

    @given(t=finite_times)
    def test_gaussian_and_flyby_are_even(self, t):
        for profile in (GaussianPulse(q0=0.5, tau=2.0), Flyby(charge=1.0, d=2.0, v=0.5)):
            np.testing.assert_allclose(profile.evaluate(-t), profile.evaluate(t), rtol=1e-15)

    @pytest.mark.parametrize("t", [100.0, 250.0, 1000.0])
    def test_flyby_inverse_cube_tail(self, t):
        """q(t)/q(2t) -> 8 within 1% once v|t|/d >= 100."""
        profile = Flyby(charge=1.0, d=1.0, v=1.0)
        ratio = profile.evaluate(t) / profile.evaluate(2.0 * t)
        assert abs(ratio - 8.0) / 8.0 < 0.01


class TestCouplingFromSeparation:
    def test_unit_values(self):
        assert coupling_from_separation(1.0, 1.0) == 1.0

    def test_quadratic_in_charge(self):
        assert coupling_from_separation(2.0, 1.0) == 4.0

    def test_inverse_cube_in_separation(self):
        assert coupling_from_separation(1.0, 2.0) == 0.125

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_rejects_nonpositive_separation(self, s):
        with pytest.raises(ValueError):
            coupling_from_separation(1.0, s)

    def test_matches_flyby_at_closest_approach(self):
        e, d = 1.3, 0.8
        np.testing.assert_allclose(
            coupling_from_separation(e, d),
            Flyby(charge=e, d=d, v=2.0).evaluate(0.0),
            rtol=1e-15,
        )


class TestSample:
    def test_zero_amplitude_profile_gives_zero_signal(self):
        signal = sample(GaussianPulse(q0=0.0, tau=1.0), TimeGrid(-5.0, 5.0, 11))
        np.testing.assert_array_equal(signal.values, 0.0)

    def test_gaussian_symmetry_on_grid(self):
        signal = sample(GaussianPulse(q0=1.0, tau=1.0), TimeGrid(-1.0, 1.0, 3))
        np.testing.assert_allclose(signal.values, [np.exp(-1.0), 1.0, np.exp(-1.0)], rtol=1e-15)

    def test_exponential_ramp_on_grid(self):
        signal = sample(ExponentialRamp(gamma=1.0, eta=2.0), TimeGrid(0.0, 1.0, 3))
        np.testing.assert_allclose(
            signal.values, [0.0, 0.5 * np.exp(-1.0), np.exp(-2.0)], rtol=1e-15
        )

    def test_signal_validates_length_and_finiteness(self):
        grid = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            CouplingSignal(grid, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CouplingSignal(grid, np.array([1.0, np.nan, 2.0]))


class TestSampledProfile:
    """A CouplingSignal as a profile: linear interpolation between its samples."""

    def test_linear_interpolation_between_neighbors(self):
        profile = CouplingSignal(TimeGrid(0.0, 2.0, 3), np.array([0.0, 2.0, 0.0]))
        assert profile.evaluate(0.5) == 1.0
        assert profile.evaluate(1.5) == 1.0

    def test_exact_at_nodes(self):
        grid = TimeGrid(-1.0, 1.0, 5)
        values = np.array([0.1, 0.2, 0.3, 0.2, 0.1])
        profile = CouplingSignal(grid, values)
        np.testing.assert_array_equal(sample(profile, grid).values, values)

    def test_sampling_on_its_own_grid_returns_its_values_bit_for_bit(self):
        grid = TimeGrid(-3.0, 7.0, BLOCK_SAMPLES + 3)  # more than one sampling block
        signal = CouplingSignal(grid, np.random.default_rng(0).standard_normal(grid.n_samples))
        assert sample(signal, signal.grid).values.tobytes() == signal.values.tobytes()

    def test_out_of_span_query_is_an_error(self):
        profile = CouplingSignal(TimeGrid(0.0, 1.0, 2), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="span"):
            profile.evaluate(1.5)
        with pytest.raises(ValueError, match="span"):
            profile.evaluate(np.array([0.5, -0.1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CouplingSignal(TimeGrid(0.0, 1.0, 3), np.array([1.0, 2.0]))


class TestCsvLoading:
    def _write(self, path, times, values, header="t,q"):
        lines = [header] + [f"{float(t)!r},{float(v)!r}" for t, v in zip(times, values)]
        path.write_text("\n".join(lines) + "\n")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "profile.csv"
        times = np.linspace(-2.0, 2.0, 41)
        values = np.exp(-(times**2))
        self._write(path, times, values)
        profile = load_sampled_csv(path)
        assert profile.grid.n_samples == 41
        assert profile.grid.t_start == -2.0 and profile.grid.t_end == 2.0
        np.testing.assert_allclose(profile.values, values, rtol=1e-15)

    def test_rejects_decreasing_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write(path, [0.0, 1.0, 0.5], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="increasing"):
            load_sampled_csv(path)

    def test_rejects_nonuniform_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write(path, [0.0, 1.0, 2.5], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="uniform"):
            load_sampled_csv(path)

    def test_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,q,extra\n0.0,1.0,9.0\n1.0,2.0,9.0\n")
        with pytest.raises(ValueError, match="two columns"):
            load_sampled_csv(path)

    def test_tolerates_tiny_spacing_jitter(self, tmp_path):
        path = tmp_path / "jitter.csv"
        times = [0.0, 1.0, 2.0 + 1e-12, 3.0]
        self._write(path, times, [0.0, 1.0, 1.0, 0.0])
        profile = load_sampled_csv(path)
        assert profile.grid.n_samples == 4


class TestAmplitudeKnob:
    def test_sets_ramp_gamma_and_pulse_q0(self):
        assert with_amplitude(ExponentialRamp(gamma=1.0, eta=2.0), 0.3).gamma == 0.3
        assert with_amplitude(SymmetricRamp(gamma=1.0, eta=2.0), 0.3).gamma == 0.3
        assert with_amplitude(GaussianPulse(q0=1.0, tau=2.0), 0.3).q0 == 0.3

    def test_flyby_and_sampled_have_no_amplitude(self):
        with pytest.raises(TypeError):
            with_amplitude(Flyby(charge=1.0, d=1.0, v=1.0), 0.3)
        with pytest.raises(TypeError):
            with_amplitude(CouplingSignal(TimeGrid(0.0, 1.0, 2), np.zeros(2)), 0.3)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: ExponentialRamp(gamma=1.0, eta=0.0),
        lambda: SymmetricRamp(gamma=1.0, eta=-1.0),
        lambda: GaussianPulse(q0=1.0, tau=0.0),
        lambda: Flyby(charge=0.0, d=1.0, v=1.0),
        lambda: Flyby(charge=1.0, d=0.0, v=1.0),
        lambda: Flyby(charge=1.0, d=1.0, v=0.0),
    ],
)
def test_profiles_reject_nonpositive_shape_parameters(bad):
    with pytest.raises(ValueError):
        bad()
