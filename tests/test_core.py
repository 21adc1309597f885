"""Parameter container and uniform-grid plumbing."""
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from casfric import PhysicalParams, TimeGrid, ladder_factor


class TestLadderFactor:
    def test_unit_values(self):
        assert ladder_factor(PhysicalParams(mass=1.0, omega=1.0, hbar=1.0)) == 0.5

    def test_heavy_slow_oscillator(self):
        assert ladder_factor(PhysicalParams(mass=2.0, omega=0.25, hbar=1.0)) == 1.0

    def test_linear_in_hbar(self):
        assert ladder_factor(PhysicalParams(mass=1.0, omega=1.0, hbar=2.0)) == 1.0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_inverse_mass_homogeneity(self, lam):
        """b(lam*m, w, hbar) = b(m, w, hbar)/lam."""
        base = ladder_factor(PhysicalParams(mass=1.0, omega=1.0))
        scaled = ladder_factor(PhysicalParams(mass=lam, omega=1.0))
        np.testing.assert_allclose(scaled, base / lam, rtol=1e-15)

    def test_positive_and_finite(self):
        b = ladder_factor(PhysicalParams(mass=1e-6, omega=1e-6, hbar=1e-9))
        assert np.isfinite(b) and b > 0


@pytest.mark.parametrize("field", ["mass", "omega", "hbar"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_params_reject_nonpositive(field, bad):
    kwargs = dict(mass=1.0, omega=1.0, hbar=1.0)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=field):
        PhysicalParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mass=5e-324, omega=1.0),  # 2*mass*omega = 1e-323: b overflows to inf
        dict(mass=1e-200, omega=1e-200),  # 2*mass*omega underflows to 0
        dict(mass=1e300, omega=1e300),  # 2*mass*omega overflows to inf: b = 0
        dict(mass=1.0, omega=1.0, hbar=5e-324),  # b = 2.5e-324 rounds to 0
    ],
)
def test_params_reject_a_zero_or_infinite_ladder_factor(kwargs):
    with pytest.raises(ValueError, match=r"b = hbar/\(2\*mass\*omega\) must be positive and finite"):
        PhysicalParams(**kwargs)


def test_params_are_mass_omega_and_a_keyword_only_hbar():
    # the coupling strength comes from the profile; a third positional
    # argument, once charge, must not silently become hbar
    assert [field.name for field in dataclasses.fields(PhysicalParams)] == ["mass", "omega", "hbar"]
    with pytest.raises(TypeError):
        PhysicalParams(1.0, 1.0, 2.0)
    assert PhysicalParams(1.0, 1.0, hbar=2.0).hbar == 2.0


@pytest.mark.parametrize(
    "kwargs, fault",
    [
        (dict(mass=1.0, omega=1.85e-219, hbar=4.49e-252), "underflows to 0"),
        (dict(mass=1e-10, omega=1e10, hbar=1e300), "overflows to inf"),
    ],
)
def test_params_reject_a_gap_that_is_zero_or_infinite(kwargs, fault):
    with pytest.raises(ValueError, match=re.escape(f"the gap 2*hbar*omega {fault}")):
        PhysicalParams(**kwargs)


class TestTimeGrid:
    def test_two_point_grid_is_endpoints(self):
        np.testing.assert_array_equal(TimeGrid(0.0, 1.0, 2).times(), [0.0, 1.0])

    def test_three_point_grid_hits_midpoint(self):
        np.testing.assert_array_equal(TimeGrid(0.0, 1.0, 3).times(), [0.0, 0.5, 1.0])

    def test_symmetric_grid(self):
        np.testing.assert_array_equal(TimeGrid(-2.0, 2.0, 5).times(), [-2.0, -1.0, 0.0, 1.0, 2.0])

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_rejects_too_few_samples(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            TimeGrid(0.0, 1.0, n)

    def test_rejects_reversed_or_degenerate_span(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 5)

    def test_rejects_nonfinite_endpoints(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, float("inf"), 5)

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_span_that_overflows(self):
        with pytest.raises(ValueError, match="the span t_end - t_start overflows"):
            TimeGrid(np.float64(-1e308), np.float64(1e308), 3)
        assert TimeGrid(-8e307, 8e307, 3).times()[1] == 0.0  # the largest spans stay

    def test_refuses_an_integral_float_sample_count(self):
        with pytest.raises(ValueError, match=r"n_samples must be an integer >= 2, got 121\.0"):
            TimeGrid(-6.0, 6.0, 121.0)

    def test_accepts_a_numpy_integer_sample_count(self):
        np.testing.assert_array_equal(TimeGrid(-6.0, 6.0, np.int64(121)).times(), TimeGrid(-6.0, 6.0, 121).times())

    @given(
        t0=st.floats(min_value=-100.0, max_value=99.0),
        span=st.floats(min_value=1e-3, max_value=200.0),
        n=st.integers(min_value=2, max_value=2000),
    )
    # step error 3.15e-14 against 2 rounding units of the times (2.84e-14)
    @example(t0=-53.81795798595977, span=181.2038002697102, n=136)
    def test_times_are_linspace_bit_for_bit(self, t0, span, n):
        """The times are np.linspace's, so the spacing is as even as
        linspace's own arithmetic makes it, and the endpoints are exact."""
        times = TimeGrid(t0, t0 + span, n).times()
        assert times[0] == t0 and times[-1] == t0 + span
        assert np.array_equal(times, np.linspace(t0, t0 + span, n))

    def test_dt(self):
        grid = TimeGrid(-1.0, 3.0, 9)
        assert grid.dt == 0.5
