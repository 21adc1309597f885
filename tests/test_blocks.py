"""Block-streamed passes over long grids: grid slices, sampling and the
two first-order quadratures, against full-array references."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casfric import CouplingSignal, GaussianPulse, PhysicalParams, SymmetricRamp, TimeGrid, sample
from casfric.core import BLOCK_SAMPLES
from casfric.dissipation import time_domain_amplitude
from casfric.spectral import fourier_numeric

PARAMS = PhysicalParams(mass=1.0, omega=1.0)
SIZES = [2, 3, BLOCK_SAMPLES - 1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1, BLOCK_SAMPLES + 2, 3 * BLOCK_SAMPLES + 17]


class TestGridSlices:
    @settings(max_examples=60, deadline=None)
    @given(
        t0=st.floats(min_value=-1e4, max_value=1e4),
        span=st.floats(min_value=1e-3, max_value=1e4),
        n=st.sampled_from(SIZES),
        cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_slice_is_bit_identical_to_linspace(self, t0, span, n, cuts):
        grid = TimeGrid(t0, t0 + span, n)
        lo, hi = sorted(int(c * n) for c in cuts)
        reference = np.linspace(grid.t_start, grid.t_end, n)
        np.testing.assert_array_equal(grid.times(lo, hi), reference[lo:hi])
        np.testing.assert_array_equal(grid.times(lo, n), reference[lo:])
        np.testing.assert_array_equal(grid.times(), reference)

    def test_rejects_ranges_outside_the_grid(self):
        grid = TimeGrid(0.0, 1.0, 5)
        for lo, hi in ((-1, 3), (2, 6), (3, 2)):
            with pytest.raises(ValueError, match="lo <= hi"):
                grid.times(lo, hi)


def pulse(n):
    """Well-conditioned integrand: |qhat(2)| is a few % of the integral of |q|."""
    return sample(GaussianPulse(q0=1.0, tau=2.0), TimeGrid(-20.0, 20.0, n))


def reference_trapezoid(signal, omega):
    times = np.linspace(signal.grid.t_start, signal.grid.t_end, signal.grid.n_samples)
    return np.trapezoid(signal.values * np.exp(-1j * omega * times), dx=signal.grid.dt)


class TestBlockedQuadratures:
    def test_sampling_matches_one_full_grid_evaluation(self):
        coarse = TimeGrid(-20.0, 20.0, 2001)
        tabulated = CouplingSignal(coarse, GaussianPulse(q0=1.0, tau=2.0).evaluate(coarse.times()))
        for profile in (GaussianPulse(q0=1.0, tau=2.0), SymmetricRamp(gamma=0.3, eta=0.2), tabulated):
            grid = TimeGrid(-20.0, 20.0, 3 * BLOCK_SAMPLES + 17)
            np.testing.assert_array_equal(sample(profile, grid).values, profile.evaluate(grid.times()))

    @pytest.mark.parametrize("n", [2 * BLOCK_SAMPLES + 1, 3 * BLOCK_SAMPLES + 17])
    def test_both_routes_match_a_full_array_trapezoid(self, n):
        signal = pulse(n)
        want = reference_trapezoid(signal, -2.0)
        got_hb = fourier_numeric(signal, -2.0).value
        got_barton = time_domain_amplitude(signal, PARAMS) / -0.5j
        assert abs(got_hb - want) <= 1e-13 * abs(want)
        assert abs(got_barton - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("n", [2, BLOCK_SAMPLES, BLOCK_SAMPLES + 1])
    def test_one_block_is_one_trapezoid_call(self, n):
        signal = pulse(n)
        assert fourier_numeric(signal, -2.0).value == reference_trapezoid(signal, -2.0)
        assert time_domain_amplitude(signal, PARAMS) == complex(-0.5j * reference_trapezoid(signal, -2.0))

    @pytest.mark.parametrize("omega", [0.7, 2.0, 31.0])
    def test_hermitian_symmetry_is_bit_exact_across_blocks(self, omega):
        signal = pulse(3 * BLOCK_SAMPLES + 17)
        plus = fourier_numeric(signal, omega).value
        minus = fourier_numeric(signal, -omega).value
        assert minus == plus.conjugate()


def traced_peak(function, *args):
    """Bytes allocated by ``function(*args)`` at its peak, above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        function(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    def test_peak_memory_does_not_grow_with_the_grid(self):
        short, long = (pulse(k * (1 << 20) + 1) for k in (2, 4))
        quadratures = {
            "fourier_numeric": lambda s: fourier_numeric(s, -2.0),
            "time_domain_amplitude": lambda s: time_domain_amplitude(s, PARAMS),
        }
        for name, run in quadratures.items():
            peak_short, peak_long = traced_peak(run, short), traced_peak(run, long)
            # a few blocks' temporaries; the long signal itself takes 32 MB
            assert peak_long < 128 * BLOCK_SAMPLES, name
            assert peak_long <= peak_short + 4096, name

    def test_sampling_allocates_the_signal_and_one_block(self):
        profile = SymmetricRamp(gamma=1.0, eta=0.01)
        for n in (2 * (1 << 20) + 1, 4 * (1 << 20) + 1):
            grid = TimeGrid(-4000.0, 4000.0, n)
            assert traced_peak(sample, profile, grid) - 8 * n < 128 * BLOCK_SAMPLES
