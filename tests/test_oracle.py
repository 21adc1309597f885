"""Exact mode-function and truncated-number-basis evolutions.

The frozen mode-occupation numbers were produced by an independent
adaptive integrator (scipy.integrate.solve_ivp, rtol=1e-12) on the true
analytic profile; the fixed-step evolution here sees the grid's linear
interpolant instead, which shifts results by O(dt^2), so tolerances are
set from the measured dt^2 coefficient.
"""
import tracemalloc

import numpy as np
import pytest

from casfric import (
    BogoliubovPair,
    FockStateVector,
    GaussianPulse,
    InvertedModeError,
    NormDriftError,
    PhysicalParams,
    SymmetricRamp,
    TimeGrid,
    delta_e_fock,
    delta_e_modes,
    delta_e_time_domain,
    evolve_fock,
    evolve_mode,
    mode_state_at,
    power_at,
    sample,
    wronskian,
)
from casfric.core import MAX_FOCK_TRUNCATION
from casfric.coupling import CouplingSignal

PARAMS = PhysicalParams(mass=1.0, omega=1.0)

# Gaussian pulse q0 = 0.01, tau = 1, m = w = hbar = 1; solve_ivp at
# rtol=1e-12 on the analytic profile:
BETA_PLUS_SQ = 1.0450817476252223e-05
BETA_MINUS_SQ = 1.0810078229006643e-05
DELTA_E_MODES = 2.1260895705258868e-05


def gauss_signal(q0=0.01, n=24001, span=12.0):
    return sample(GaussianPulse(q0=q0, tau=1.0), TimeGrid(-span, span, n))


def zero_signal(n=201, span=10.0):
    return CouplingSignal(TimeGrid(-span, span, n), np.zeros(n))


class TestEvolveMode:
    def test_zero_signal_is_free_evolution(self):
        pair = evolve_mode(zero_signal(n=401), PARAMS, +1)
        assert pair.alpha == 1.0 and pair.beta == 0.0

    def test_negligible_coupling_stays_numerically_free(self):
        """The integrator itself (no fast path) on an almost-free mode."""
        pair = evolve_mode(gauss_signal(q0=1e-8, n=2401), PARAMS, +1)
        assert abs(pair.beta) < 1e-8
        assert abs(pair.alpha - 1.0) < 1e-6
        assert abs(pair.normalization_defect) < 1e-9

    def test_frozen_occupations_both_modes(self):
        signal = gauss_signal()
        plus = evolve_mode(signal, PARAMS, +1)
        minus = evolve_mode(signal, PARAMS, -1)
        np.testing.assert_allclose(plus.occupation, BETA_PLUS_SQ, rtol=2e-6)
        np.testing.assert_allclose(minus.occupation, BETA_MINUS_SQ, rtol=2e-6)

    def test_occupation_matches_first_order_estimate(self):
        """|beta|^2 ~ |qhat(2w)|^2/(4 m^2 w^2) in the weak-coupling limit.

        Each mode individually carries an O(q0) correction of opposite
        sign (+-1.7% at q0 = 0.01); the corrections cancel in the
        two-mode sum, which lands within 0.05% of the estimate.
        """
        signal = gauss_signal()
        estimate = power_at(GaussianPulse(q0=0.01, tau=1.0), 2.0) / 4.0
        plus = evolve_mode(signal, PARAMS, +1)
        minus = evolve_mode(signal, PARAMS, -1)
        np.testing.assert_allclose(plus.occupation, estimate, rtol=0.025)
        np.testing.assert_allclose(minus.occupation, estimate, rtol=0.025)
        np.testing.assert_allclose(plus.occupation + minus.occupation, 2.0 * estimate, rtol=5e-4)

    @pytest.mark.parametrize(
        "profile,grid",
        [
            (GaussianPulse(q0=0.01, tau=1.0), TimeGrid(-12.0, 12.0, 4801)),
            (GaussianPulse(q0=0.3, tau=2.0), TimeGrid(-16.0, 16.0, 6401)),
            (SymmetricRamp(gamma=0.2, eta=0.8), TimeGrid(-50.0, 50.0, 20001)),
        ],
    )
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_bogoliubov_normalization(self, profile, grid, sign):
        pair = evolve_mode(sample(profile, grid), PARAMS, sign)
        assert abs(pair.normalization_defect) < 1e-9

    def test_wronskian_conserved(self):
        signal = gauss_signal(q0=0.3, n=4801)
        pair = evolve_mode(signal, PARAMS, +1)
        start = mode_state_at(BogoliubovPair(1.0, 0.0), PARAMS, signal.grid.t_start)
        end = mode_state_at(pair, PARAMS, signal.grid.t_end)
        w0, w1 = wronskian(start), wronskian(end)
        np.testing.assert_allclose(w0, -2.0 * PARAMS.omega, rtol=1e-12)
        np.testing.assert_allclose(w1, w0, rtol=1e-9)

    def test_inverted_mode_is_a_hard_error(self):
        signal = gauss_signal(q0=1.5, n=4801)
        with pytest.raises(InvertedModeError):
            evolve_mode(signal, PARAMS, -1)
        # the + mode stiffens instead of inverting and stays integrable
        pair = evolve_mode(signal, PARAMS, +1)
        assert abs(pair.normalization_defect) < 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="mode_sign"):
            evolve_mode(zero_signal(), PARAMS, 2)
        with pytest.raises(ValueError, match="substeps"):
            evolve_mode(zero_signal(), PARAMS, +1, substeps=0)

    def test_warns_when_tails_are_not_free(self):
        signal = gauss_signal(n=101, span=2.0)
        with pytest.warns(UserWarning, match="endpoints"):
            evolve_mode(signal, PARAMS, +1)

    def test_step_self_convergence_is_fourth_order(self):
        """Halving the substep shrinks the dE increment ~16x on a fixed grid."""
        signal = gauss_signal(q0=0.5, n=161, span=8.0)
        des = []
        for substeps in (1, 2, 4):
            plus = evolve_mode(signal, PARAMS, +1, substeps=substeps)
            minus = evolve_mode(signal, PARAMS, -1, substeps=substeps)
            des.append(delta_e_modes(plus, minus, PARAMS))
        ratio = (des[0] - des[1]) / (des[1] - des[2])
        assert 10.0 < ratio < 24.0


class TestDeltaEModes:
    def test_no_excitation_no_energy(self):
        quiet = BogoliubovPair(alpha=1.0 + 0.0j, beta=0.0j)
        assert delta_e_modes(quiet, quiet, PARAMS) == 0.0

    def test_frozen_benchmark_value(self):
        signal = gauss_signal()
        de = delta_e_modes(evolve_mode(signal, PARAMS, +1), evolve_mode(signal, PARAMS, -1), PARAMS)
        np.testing.assert_allclose(de, DELTA_E_MODES, rtol=2e-6)

    def test_approaches_first_order_route_at_weak_coupling(self):
        for q0, bound in ((0.01, 2e-4), (0.001, 3e-6)):
            signal = gauss_signal(q0=q0)
            de_exact = delta_e_modes(
                evolve_mode(signal, PARAMS, +1), evolve_mode(signal, PARAMS, -1), PARAMS
            )
            de_first = delta_e_time_domain(signal, PARAMS)
            assert abs(de_exact - de_first) / de_first < bound


class TestEvolveFock:
    def test_zero_signal_stays_in_the_ground_state(self):
        state = evolve_fock(zero_signal(n=2001), PARAMS, truncation=3, dt_substeps=1)
        assert abs(abs(state.amplitudes[0, 0]) - 1.0) < 1e-9
        excited = np.ones((4, 4), dtype=bool)
        excited[0, 0] = False
        assert np.all(state.amplitudes[excited] == 0.0)

    def test_parity_selection_rule(self):
        """Quanta appear pairwise across the two oscillators; odd total
        occupation stays exactly unpopulated (the coupling matrix has no
        elements into that sector)."""
        state = evolve_fock(gauss_signal(n=2401), PARAMS, truncation=6, dt_substeps=2)
        n = np.arange(7)
        odd = (n[:, None] + n[None, :]) % 2 == 1
        assert np.max(np.abs(state.amplitudes[odd]) ** 2) < 1e-20

    def test_energy_gain_matches_mode_oracle(self):
        signal = gauss_signal(n=4801)
        state = evolve_fock(signal, PARAMS, truncation=8, dt_substeps=2)
        de_fock = delta_e_fock(state, PARAMS)
        de_modes = delta_e_modes(
            evolve_mode(signal, PARAMS, +1), evolve_mode(signal, PARAMS, -1), PARAMS
        )
        assert abs(de_fock - de_modes) / de_modes < 1e-3

    def test_double_excitation_channel_dominates(self):
        state = evolve_fock(gauss_signal(n=2401), PARAMS, truncation=6, dt_substeps=2)
        de = delta_e_fock(state, PARAMS)
        channel = state.population(1, 1) * 2.0 * PARAMS.hbar * PARAMS.omega
        assert channel / de >= 0.99

    def test_truncation_converged_by_n_eight(self):
        signal = gauss_signal(n=2401)
        de8 = delta_e_fock(evolve_fock(signal, PARAMS, 8, dt_substeps=2), PARAMS)
        de12 = delta_e_fock(evolve_fock(signal, PARAMS, 12, dt_substeps=2), PARAMS)
        assert abs(de12 - de8) / de8 < 1e-8

    def test_norm_drift_is_an_error_not_a_renormalization(self):
        coarse = gauss_signal(n=81, span=8.0)
        with pytest.raises(NormDriftError, match="refine"):
            evolve_fock(coarse, PARAMS, truncation=6, dt_substeps=1)
        # the same run passes with a loosened diagnostic threshold
        state = evolve_fock(coarse, PARAMS, truncation=6, dt_substeps=1, norm_tol=1e-2)
        assert state.norm_drift > 1e-6

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            evolve_fock(zero_signal(), PARAMS, truncation=1)

    def test_truncation_over_the_budget_is_refused_before_any_allocation(self, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("an array was built")

        monkeypatch.setattr("casfric.oracle._substep_coupling", no_allocation)
        monkeypatch.setattr("casfric.oracle._ladder_position", no_allocation)
        with pytest.raises(ValueError, match=rf"truncation {MAX_FOCK_TRUNCATION + 1} is above the budget"):
            evolve_fock(zero_signal(), PARAMS, truncation=MAX_FOCK_TRUNCATION + 1)

    def test_peak_memory_is_one_coupling_operator(self):
        truncation = 30
        operator_bytes = 16 * (truncation + 1) ** 4
        tracemalloc.start()
        try:
            evolve_fock(zero_signal(n=21, span=1.0), PARAMS, truncation=truncation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * operator_bytes, peak / operator_bytes

    def test_truncation_budget_is_the_largest_operator_within_0_8_gb(self):
        assert 16 * (MAX_FOCK_TRUNCATION + 1) ** 4 <= 8e8 < 16 * (MAX_FOCK_TRUNCATION + 2) ** 4


class TestDeltaEFock:
    def test_fresh_ground_state(self):
        amplitudes = np.zeros((4, 4), dtype=complex)
        amplitudes[0, 0] = 1.0
        assert delta_e_fock(FockStateVector(3, amplitudes), PARAMS) == 0.0

    def test_pure_double_excitation(self):
        amplitudes = np.zeros((4, 4), dtype=complex)
        amplitudes[1, 1] = 1.0
        assert delta_e_fock(FockStateVector(3, amplitudes), PARAMS) == 2.0 * PARAMS.hbar * PARAMS.omega
