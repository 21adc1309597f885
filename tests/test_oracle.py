"""Exact mode-function and truncated-number-basis evolutions.

The frozen mode-occupation numbers were produced by an independent
adaptive integrator (scipy.integrate.solve_ivp, rtol=1e-12) on the true
analytic profile; the fixed-step evolution here sees the grid's linear
interpolant instead, which shifts results by O(dt^2), so tolerances are
set from the measured dt^2 coefficient.
"""
import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casfric import (
    BogoliubovPair,
    FockStateVector,
    GaussianPulse,
    InvertedModeError,
    NormDriftError,
    NumericalFailure,
    PhysicalParams,
    SymmetricRamp,
    TimeGrid,
    delta_e_fock,
    delta_e_modes,
    delta_e_time_domain,
    evolve_fock,
    evolve_mode,
    fourier_analytic,
    sample,
)
from casfric.cli import load_config
from casfric.core import ladder_factor
from casfric.coupling import CouplingSignal
from casfric.oracle import (
    _CHUNK_STEPS,
    _RUN_BYTES,
    _evolve_modes,
    _ladder_position,
    _ordered_product,
    _rk4_transfer_matrices,
    _substep_coupling,
    _substeps,
)
from cli_probes import CONFIG_DIR

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


def parametric_pump(span):
    """q = 0.9 sin(2t) sin^2(pi t/span) on [0, span] at dt = 0.1: at twice
    the mode frequency, so the modes grow by parametric resonance."""
    grid = TimeGrid(0.0, span, int(round(span / 0.1)) + 1)
    t = grid.times()
    return CouplingSignal(grid, 0.9 * np.sin(2.0 * t) * np.sin(np.pi * t / span) ** 2)


def free_mode_state(pair, t):
    """(f, fdot) of the free solution alpha e^{-iwt} + beta e^{iwt} at time t."""
    w = PARAMS.omega
    f = pair.alpha * np.exp(-1j * w * t) + pair.beta * np.exp(1j * w * t)
    fdot = -1j * w * pair.alpha * np.exp(-1j * w * t) + 1j * w * pair.beta * np.exp(1j * w * t)
    return complex(f), complex(fdot)


def wronskian(f, fdot):
    """W = i*(f*conj(fdot) - conj(f)*fdot): -2w for f = e^{-iwt}, and
    W_end/W_start = |alpha|^2 - |beta|^2 for exact evolution."""
    return float((1j * (f * np.conj(fdot) - np.conj(f) * fdot)).real)


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
        estimate = abs(fourier_analytic(GaussianPulse(q0=0.01, tau=1.0), 2.0)) ** 2 / 4.0
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
        start = free_mode_state(BogoliubovPair(1.0, 0.0), signal.grid.t_start)
        end = free_mode_state(pair, signal.grid.t_end)
        w0, w1 = wronskian(*start), wronskian(*end)
        np.testing.assert_allclose(w0, -2.0 * PARAMS.omega, rtol=1e-12)
        np.testing.assert_allclose(w1, w0, rtol=1e-9)

    def test_inverted_mode_is_a_hard_error(self):
        signal = gauss_signal(q0=1.5, n=4801)
        with pytest.raises(InvertedModeError):
            evolve_mode(signal, PARAMS, -1)
        # the + mode stiffens instead of inverting and stays integrable
        pair = evolve_mode(signal, PARAMS, +1)
        assert abs(pair.normalization_defect) < 1e-9

    def test_a_step_past_rk4s_stability_limit_is_refused_before_any_step_is_built(self, monkeypatch):
        # three samples on +-12: h*Omega_max = 12*sqrt(1 + 0.3) for the + mode, 12 for the - mode
        signal = gauss_signal(q0=0.3, n=3)
        builds = []
        monkeypatch.setattr("casfric.oracle._rk4_transfer_matrices", lambda *args: builds.append(args))
        for sign, stiffness in ((+1, "13.7"), (-1, "12")):
            message = (f"mode {sign:+d}: h*Omega_max = {stiffness} is above RK4's stability limit "
                       "2*sqrt(2) = 2.83; raise mode_substeps")
            with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$") as raised:
                evolve_mode(signal, PARAMS, sign)
            assert type(raised.value) is NumericalFailure
        assert builds == []

    @pytest.mark.parametrize(
        "stiffness, steps, error, message",
        [(2.83, 1, NumericalFailure, r"h\*Omega_max = 2\.83 is above RK4's stability limit"),
         # stable, but RK4's step shrinks |alpha|^2 - |beta|^2 by about 4 %
         (2.82, 1, NormDriftError, r"\|alpha\|\^2 - \|beta\|\^2 drifted from 1 by -4\."),
         # ... until alpha and beta underflow to 0
         (2.82, 40000, NormDriftError, r"\|alpha\|\^2 - \|beta\|\^2 drifted from 1 by -inf ")],
    )
    def test_the_stability_limit_is_rk4s_on_the_imaginary_axis(self, stiffness, steps, error, message):
        # constant q = 1e-3, so Omega_max^2 = 1.001 for the + mode
        h = stiffness / 1.001**0.5
        signal = CouplingSignal(TimeGrid(0.0, h * steps, steps + 1), np.full(steps + 1, 1e-3))
        with pytest.raises(error, match=f"^mode \\+1: {message}") as raised:
            evolve_mode(signal, PARAMS, +1)
        assert type(raised.value) is error

    def test_a_bogoliubov_defect_above_the_norm_tolerance_is_refused(self):
        # every step is stable, but one substep's error adds up over 3200 steps
        signal = sample(SymmetricRamp(gamma=0.05, eta=0.1), TimeGrid(-400.0, 400.0, 3201))
        message = (r"^mode \+1: \|alpha\|\^2 - \|beta\|\^2 drifted from 1 by -1\.087e-02 "
                   r".* \(> 1e-06\); raise mode_substeps$")
        with pytest.raises(NormDriftError, match=message):
            evolve_mode(signal, PARAMS, +1)
        pair = evolve_mode(signal, PARAMS, +1, substeps=16)
        assert abs(pair.normalization_defect) < 1e-6

    def test_an_amplified_mode_is_returned_until_its_propagator_overflows(self):
        # h*Omega_max = 0.1*sqrt(1.9) = 0.138; both modes grow by parametric resonance
        pairs = _evolve_modes(parametric_pump(4000.0), PARAMS, (+1, -1), 1)
        for pair in pairs:
            # |alpha|^2 would overflow a float; |alpha|^2 - |beta|^2 = 1 leaves |alpha| = |beta| in floats
            assert abs(pair.alpha) > 1e191
            assert abs(pair.beta) / abs(pair.alpha) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(OverflowError, match="^the mode propagator overflowed$"):
            _evolve_modes(parametric_pump(7000.0), PARAMS, (+1, -1), 1)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_a_nan_sample_is_named(self, sign):
        # values is a mutable array, so a finite signal can be spoiled after construction
        signal = gauss_signal(n=481)
        signal.values[200] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            evolve_mode(signal, PARAMS, sign)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="mode_sign"):
            evolve_mode(zero_signal(), PARAMS, 2)
        with pytest.raises(ValueError, match="substeps"):
            evolve_mode(zero_signal(), PARAMS, +1, substeps=0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_refuses_an_integral_float_mode_sign(self, sign):
        with pytest.raises(ValueError, match=rf"^mode_sign must be \+1 or -1, got {sign!r}$"):
            evolve_mode(gauss_signal(n=201), PARAMS, sign)

    def test_refuses_an_integral_float_substep_count(self):
        with pytest.raises(ValueError, match=r"substeps must be an integer >= 1, got 2\.0"):
            evolve_mode(gauss_signal(n=201), PARAMS, +1, substeps=2.0)

    def test_step_self_convergence_is_fourth_order(self):
        """Halving the substep shrinks the dE increment ~16x on a fixed grid."""
        signal = gauss_signal(q0=0.5, n=161, span=8.0)
        des = []
        # one substep leaves a Bogoliubov defect of 2.7e-6, which is refused
        for substeps in (2, 4, 8):
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

    @pytest.mark.filterwarnings("error")
    def test_an_energy_that_overflows_raises_instead_of_returning_inf(self):
        # the gap 2*hbar*w = 1.6e308 is finite; hbar*w times 6 created quanta is not
        pair = BogoliubovPair(alpha=2.0 + 0.0j, beta=3.0**0.5 + 0.0j)
        with pytest.raises(OverflowError, match="the mode dE overflowed"):
            delta_e_modes(pair, pair, PhysicalParams(mass=1.0, omega=8e7, hbar=1e300))


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
        # the threshold is fixed, not an option
        assert "norm_tol" not in inspect.signature(evolve_fock).parameters

    def test_unstable_step_advice_names_the_rk4_limit(self):
        # h*w*(2N+1) = 0.12*81 = 9.72 > 2*sqrt(2): a larger truncation only makes it worse
        coarse = gauss_signal(n=201, span=12.0)
        with pytest.raises(NormDriftError) as failure:
            evolve_fock(coarse, PARAMS, truncation=40, dt_substeps=1)
        message = str(failure.value)
        assert message.startswith("norm drifted by inf")
        assert "h*omega*(2N+1) = 9.72" in message and "2*sqrt(2) = 2.83" in message
        assert message.endswith("raise dt_substeps") and "truncation" not in message

    def test_a_nan_sample_is_named(self):
        signal = gauss_signal(n=481)
        signal.values[200] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            evolve_fock(signal, PARAMS, 4, 1)

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            evolve_fock(zero_signal(), PARAMS, truncation=1)

    def test_refuses_an_integral_float_truncation(self):
        with pytest.raises(ValueError, match=r"truncation must be an integer >= 2, got 4\.0"):
            evolve_fock(gauss_signal(n=201), PARAMS, truncation=4.0)

    def test_refuses_an_integral_float_substep_count(self):
        with pytest.raises(ValueError, match=r"substeps must be an integer >= 1, got 2\.0"):
            evolve_fock(gauss_signal(n=201), PARAMS, truncation=4, dt_substeps=2.0)

    def test_accepts_numpy_integer_counts(self):
        signal = gauss_signal(n=201)
        state = evolve_fock(signal, PARAMS, truncation=np.int64(4), dt_substeps=np.int32(2))
        assert np.array_equal(state.amplitudes, evolve_fock(signal, PARAMS, 4, 2).amplitudes)

    @pytest.mark.parametrize("truncation, dt_substeps", [(500, 1), (10, 30000)])
    def test_truncation_over_the_budget_is_refused_before_any_allocation(self, monkeypatch, truncation, dt_substeps):
        def no_allocation(*args):
            raise AssertionError("an array was built")

        monkeypatch.setattr("casfric.oracle._substep_coupling", no_allocation)
        monkeypatch.setattr("casfric.oracle._ladder_position", no_allocation)
        message = (rf"^the Fock \(N = {truncation}\) oracle's {200 * dt_substeps} steps would take about .* s, "
                   r"above the work budget of 60 s; lower fock_truncation, fock_substeps or the grid's sample count$")
        with pytest.raises(ValueError, match=message):
            evolve_fock(zero_signal(), PARAMS, truncation=truncation, dt_substeps=dt_substeps)

    def test_working_set_is_a_few_amplitude_matrices(self):
        """At N=30 the dense coupling operator alone would take 14.8 MB."""
        tracemalloc.start()
        try:
            evolve_fock(zero_signal(n=21, span=1.0), PARAMS, truncation=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_converges_in_the_truncation(self):
        """A strong pulse (q0 = 0.5): the error in dE against N = 40 and the
        population on the truncation edge both fall with N."""
        signal = gauss_signal(q0=0.5, n=481)
        states = {n: evolve_fock(signal, PARAMS, n, dt_substeps=4) for n in (3, 6, 10, 20, 40)}
        reference = delta_e_fock(states.pop(40), PARAMS)
        errors, edges = [], []
        for n, state in states.items():
            errors.append(abs(delta_e_fock(state, PARAMS) - reference) / reference)
            populations = np.abs(state.amplitudes) ** 2
            edges.append(populations[n, :].sum() + populations[:n, n].sum())
        assert all(a > b for a, b in zip(errors, errors[1:])), errors
        assert all(a > b for a, b in zip(edges, edges[1:])), edges
        assert errors[0] > 1e-3 and edges[0] > 1e-4  # N = 3 is visibly truncated

    def test_a_truncation_above_83_runs_when_its_work_is_in_the_budget(self):
        # the old cap of N = 83 came from a dense operator the oracle no longer builds
        signal = sample(GaussianPulse(q0=0.01, tau=0.01), TimeGrid(-0.1, 0.1, 21))
        assert evolve_fock(signal, PARAMS, truncation=84).norm_drift < 1e-12


class TestWorkBudget:
    def test_every_shipped_oracle_run_is_at_least_50_times_under_the_budget(self):
        """The work is linear in the substeps, so 50 times the substeps must pass."""
        runs = [(48001, 1, 10)]  # criterion 3's Fock run
        for path in sorted(CONFIG_DIR.glob("*.json")):
            run = load_config(path).run
            n_samples = max(grid.n_samples for _, grid in run.points)
            if "mode_oracle" in run.routes:
                runs.append((n_samples, run.mode_substeps, None))
            if "fock_oracle" in run.routes:
                runs.append((n_samples, run.fock_substeps, run.fock_truncation))
        assert len(runs) == 5
        for n_samples, substeps, truncation in runs:
            _substeps(TimeGrid(0.0, 1.0, n_samples), 50 * substeps, truncation)

    @pytest.mark.parametrize("truncation", [None, 2, 83])
    def test_the_budget_is_a_minute_of_steps(self, truncation):
        step_ns = 147 if truncation is None else 10_000 + 3 * (truncation + 1) ** 3
        steps = 60 * 10**9 // step_ns
        assert _substeps(TimeGrid(0.0, 1.0, steps + 1), 1, truncation)[1] == steps
        with pytest.raises(ValueError, match=rf" {steps + 1} steps would take about 60 s, above the work budget"):
            _substeps(TimeGrid(0.0, 1.0, steps + 2), 1, truncation)

    @pytest.mark.parametrize("substeps, truncation, run", [
        (1, 10**400, rf"Fock \(N = {10**400}\) oracle's 10 steps"),
        (10**400, None, rf"mode oracle's {10**401} steps"),
    ], ids=["fock", "mode"])
    def test_counts_beyond_the_float_range_are_refused_in_integers(self, substeps, truncation, run):
        with pytest.raises(ValueError, match=rf"^the {run} would take about \d+ s, above the work budget of 60 s"):
            _substeps(TimeGrid(0.0, 1.0, 11), substeps, truncation)

    def test_numpy_counts_cannot_wrap(self):
        # (2^40 - 1) * 2^30 wraps to a negative int64
        with pytest.raises(ValueError, match="above the work budget"):
            _substeps(TimeGrid(0.0, 1.0, np.int64(2**40)), np.int64(2**30))

    def test_a_fock_run_over_the_memory_budget_is_refused_before_any_allocation(self, monkeypatch):
        """One step at N = 1335 is in both budgets and reaches the first
        allocation (patched out); N = 1336 would hold 56 floats per
        (N+1)^2, above the 0.8 GB a signal may take."""
        class Allocated(Exception):
            pass

        def allocated(*args):
            raise Allocated

        monkeypatch.setattr("casfric.oracle._ladder_position", allocated)
        with pytest.raises(Allocated):
            evolve_fock(zero_signal(n=2), PARAMS, truncation=1335)
        message = (r"^the Fock \(N = 1336\) oracle's arrays would take 800830912 bytes, "
                   r"above the memory budget of 800000000 bytes; lower fock_truncation$")
        with pytest.raises(ValueError, match=message):
            evolve_fock(zero_signal(n=2), PARAMS, truncation=1336)

    def test_the_mode_oracle_refuses_before_any_allocation(self, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("the samples were read")

        monkeypatch.setattr("casfric.oracle._finite_range", no_allocation)
        monkeypatch.setattr("casfric.oracle._substep_coupling", no_allocation)
        message = (r"^the mode oracle's 2000000000000 steps would take about 294000 s, "
                   r"above the work budget of 60 s; lower mode_substeps or the grid's sample count$")
        for sign in (+1, -1):
            with pytest.raises(ValueError, match=message):
                evolve_mode(zero_signal(), PARAMS, sign, substeps=10**10)


class TestDeltaEFock:
    def test_fresh_ground_state(self):
        amplitudes = np.zeros((4, 4), dtype=complex)
        amplitudes[0, 0] = 1.0
        assert delta_e_fock(FockStateVector(3, amplitudes), PARAMS) == 0.0

    def test_pure_double_excitation(self):
        amplitudes = np.zeros((4, 4), dtype=complex)
        amplitudes[1, 1] = 1.0
        assert delta_e_fock(FockStateVector(3, amplitudes), PARAMS) == 2.0 * PARAMS.hbar * PARAMS.omega

    @pytest.mark.filterwarnings("error")
    def test_an_energy_that_overflows_raises_instead_of_returning_inf(self):
        # the gap 2*hbar*w = 1.6e308 is finite; hbar*w times 4 quanta is not
        amplitudes = np.zeros((4, 4), dtype=complex)
        amplitudes[2, 2] = 1.0
        with pytest.raises(OverflowError, match="the Fock dE overflowed"):
            delta_e_fock(FockStateVector(3, amplitudes), PhysicalParams(mass=1.0, omega=8e7, hbar=1e300))

    @pytest.mark.parametrize("n1, n2", [(-1, 0), (0, -4), (4, 0), (0, 4)])
    def test_population_refuses_an_index_outside_the_basis(self, n1, n2):
        amplitudes = np.zeros((4, 4), dtype=complex)
        amplitudes[0, 0], amplitudes[3, 0] = 0.8, 0.6
        state = FockStateVector(3, amplitudes)
        assert state.population(3, 0) == pytest.approx(0.36)
        with pytest.raises(ValueError, match=r"indexed 0\.\.3"):
            state.population(n1, n2)


# Reference copies of the whole-array mode oracle the chunked one replaced:
# the full-length substep interpolant, the stacked 2x2 build and one fold
# over every step.  The chunked oracle must give the same bits.


def whole_array_substep_coupling(signal, substeps):
    times = signal.grid.times()
    h = signal.grid.dt / substeps
    n_steps = (signal.grid.n_samples - 1) * substeps
    t_nodes = times[0] + h * np.arange(n_steps + 1)
    q_nodes = np.interp(t_nodes, times, signal.values)
    q_mid = np.interp(t_nodes[:-1] + 0.5 * h, times, signal.values)
    return h, q_nodes, q_mid


def stacked_transfer_matrices(w2_start, w2_mid, w2_end, h):
    n = len(w2_start)
    eye = np.broadcast_to(np.eye(2), (n, 2, 2))

    def a_mat(w2):
        a = np.zeros((n, 2, 2))
        a[:, 0, 1] = 1.0
        a[:, 1, 0] = -w2
        return a

    a0, a1, a2 = a_mat(w2_start), a_mat(w2_mid), a_mat(w2_end)
    k1 = a0
    k2 = a1 @ (eye + (0.5 * h) * k1)
    k3 = a1 @ (eye + (0.5 * h) * k2)
    k4 = a2 @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def whole_array_omega2(signal, params, mode_sign, substeps):
    h, q_nodes, q_mid = whole_array_substep_coupling(signal, substeps)
    w2_nodes = params.omega**2 + mode_sign * q_nodes / params.mass
    w2_mid = params.omega**2 + mode_sign * q_mid / params.mass
    return h, w2_nodes, w2_mid


def whole_array_evolve_mode(signal, params, mode_sign, substeps):
    h, w2_nodes, w2_mid = whole_array_omega2(signal, params, mode_sign, substeps)
    propagator = _ordered_product(stacked_transfer_matrices(w2_nodes[:-1], w2_mid, w2_nodes[1:], h))
    w = params.omega
    f0 = np.exp(-1j * w * signal.grid.t_start)
    f, fdot = propagator @ np.array([f0, -1j * w * f0])
    alpha = 0.5 * (f + 1j * fdot / w) * np.exp(1j * w * signal.grid.t_end)
    beta = 0.5 * (f - 1j * fdot / w) * np.exp(-1j * w * signal.grid.t_end)
    return complex(alpha), complex(beta)


def two_sided_signal():
    """q = 2 e^{-(t-5)^2} for t < 10, -2 e^{-(t-90)^2} for t > 80 and 0 between."""
    grid = TimeGrid(0.0, 100.0, 20001)
    t = grid.times()
    q = np.where(t < 10.0, 2.0 * np.exp(-((t - 5.0) ** 2)), 0.0)
    q += np.where(t > 80.0, -2.0 * np.exp(-((t - 90.0) ** 2)), 0.0)
    return CouplingSignal(grid, q)


def criterion_3_pulse():
    return gauss_signal(q0=1e-2, n=48001)


class TestChunkedModeSweep:
    @pytest.mark.parametrize("h", [1e-3, 0.05, 0.7])
    def test_entry_by_entry_build_is_the_stacked_build_on_random_omega2(self, h):
        rng = np.random.default_rng(7)
        w2_start, w2_mid, w2_end = rng.uniform(1e-3, 10.0, (3, 1000))
        got = _rk4_transfer_matrices(w2_start, w2_mid, w2_end, h)
        assert np.array_equal(got, stacked_transfer_matrices(w2_start, w2_mid, w2_end, h))

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_entry_by_entry_build_is_the_stacked_build_on_the_criterion_3_pulse(self, sign):
        h, w2_nodes, w2_mid = whole_array_omega2(criterion_3_pulse(), PARAMS, sign, 1)
        args = (w2_nodes[:-1], w2_mid, w2_nodes[1:], h)
        assert np.array_equal(_rk4_transfer_matrices(*args), stacked_transfer_matrices(*args))

    @pytest.mark.parametrize("substeps", [1, 3])
    @pytest.mark.parametrize("intervals", [1, 2, 4095, 4096, 4097, 8192, 100000])
    def test_chunked_sweep_is_one_whole_array_fold(self, intervals, substeps):
        # dt <= 0.1: one or two intervals on +-12 are past RK4's stability limit
        signal = gauss_signal(q0=0.3, n=intervals + 1, span=min(12.0, 0.05 * intervals))
        swept = _evolve_modes(signal, PARAMS, (+1, -1), substeps)
        for sign, both in zip((+1, -1), swept):
            alone = evolve_mode(signal, PARAMS, sign, substeps=substeps)
            want = whole_array_evolve_mode(signal, PARAMS, sign, substeps)
            assert (alone.alpha, alone.beta) == (both.alpha, both.beta) == want

    @pytest.mark.parametrize(
        "grid",
        [
            TimeGrid(-12.0, 12.0, 48001),
            TimeGrid(-12.0, 12.0, 2),
            TimeGrid(0.0, 1.0, _CHUNK_STEPS + 1),
            TimeGrid(-3.7, 1e3 + 0.1, 3 * _CHUNK_STEPS + 5),
            TimeGrid(123.456, 123.5, 777),
        ],
    )
    @pytest.mark.parametrize("substeps", [1, 2, 3, 4])
    def test_chunked_interpolant_is_the_full_array_interp(self, grid, substeps):
        signal = CouplingSignal(grid, np.random.default_rng(3).standard_normal(grid.n_samples))
        h, q_nodes, q_mid = whole_array_substep_coupling(signal, substeps)
        h_chunked, n_steps = _substeps(signal.grid, substeps)
        assert h_chunked == h and n_steps == len(q_mid)
        for lo in range(0, n_steps, _CHUNK_STEPS):
            hi = min(lo + _CHUNK_STEPS, n_steps)
            q = _substep_coupling(signal, h, lo, hi)
            assert np.array_equal(q[0::2], q_nodes[lo : hi + 1])
            assert np.array_equal(q[1::2], q_mid[lo:hi])

    def test_inversion_in_a_later_chunk_is_the_same_error(self):
        # the pulse peaks ~40000 steps in; the first chunks are nearly free
        signal = sample(GaussianPulse(q0=1.5, tau=1.0), TimeGrid(-100.0, 12.0, 48001))
        assert np.max(np.abs(signal.values[: 4 * _CHUNK_STEPS])) < 1e-10
        message = (
            f"Omega^2 <= 0 for mode -1: max q = {np.max(signal.values):g} "
            f"reaches m*w^2 = {PARAMS.mass * PARAMS.omega**2:g}"
        )
        with pytest.raises(InvertedModeError) as raised:
            evolve_mode(signal, PARAMS, -1)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "signal, error, message",
        [
            # - inverts near t = 5, + only near t = 90
            (two_sided_signal(), InvertedModeError, "Omega^2 <= 0 for mode +1: min q = -2 reaches -m*w^2 = -1"),
            # only - inverts
            (gauss_signal(q0=1.5, n=4801), InvertedModeError, "Omega^2 <= 0 for mode -1: max q = 1.5 reaches m*w^2 = 1"),
        ],
        ids=["plus-inverts-later", "minus-inverts"],
    )
    def test_the_two_sign_sweep_raises_what_plus_then_minus_raises(self, signal, error, message):
        with pytest.raises(error, match=re.escape(message)):
            for sign in (+1, -1):
                evolve_mode(signal, PARAMS, sign)
        with pytest.raises(error, match=re.escape(message)):
            _evolve_modes(signal, PARAMS, (+1, -1), 1)

    def test_the_minus_inversion_is_refused_before_the_plus_instability(self):
        # + stiffens past RK4's stability limit; - inverts, and each sign's
        # inversion is decided before any sign's stability
        signal = gauss_signal(q0=1e10, n=481)
        with pytest.raises(NumericalFailure, match=r"^mode \+1: h\*Omega_max = 5e\+03 is above"):
            evolve_mode(signal, PARAMS, +1)
        message = "Omega^2 <= 0 for mode -1: max q = 1e+10 reaches m*w^2 = 1"
        with pytest.raises(InvertedModeError, match=re.escape(message)):
            _evolve_modes(signal, PARAMS, (+1, -1), 1)

    @pytest.mark.parametrize("signs", [(-1,), (+1, -1)])
    def test_an_inversion_is_refused_before_any_step_is_built(self, monkeypatch, signs):
        # the pulse of test_inversion_in_a_later_chunk_is_the_same_error
        signal = sample(GaussianPulse(q0=1.5, tau=1.0), TimeGrid(-100.0, 12.0, 48001))
        builds = []

        def counted(*args):
            builds.append(args)
            return _rk4_transfer_matrices(*args)

        monkeypatch.setattr("casfric.oracle._rk4_transfer_matrices", counted)
        with pytest.raises(InvertedModeError, match="for mode -1"):
            _evolve_modes(signal, PARAMS, signs, 1)
        assert builds == []

    def test_a_rounding_past_the_samples_range_is_still_refused(self):
        # the largest sample is an ulp under m*w^2 = 1, but np.interp rounds the
        # interpolant at that sample's substep node up to 1.0, so Omega^2 = 0 there
        values = np.array([-378.3757593880971, 0.9999999999999999, -529.2781532559253, -1267.3195524133898])
        signal = CouplingSignal(TimeGrid(5.3013059651194, 781551.563803988, 4), values)
        h, n_steps = _substeps(signal.grid, 3)
        assert _substep_coupling(signal, h, 0, n_steps)[2 * 3] == 1.0 > values.max()
        # the message quotes the end of q that inverts the mode, not max|q| = 1267.32
        message = "Omega^2 <= 0 for mode -1: max q = 1 reaches m*w^2 = 1"
        with pytest.raises(InvertedModeError, match=re.escape(message)):
            evolve_mode(signal, PARAMS, -1, substeps=3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q0, mass", [(np.finfo(float).max, 1.0), (1e300, 1e-10)])
    def test_an_omega2_that_overflows_is_refused_without_a_warning(self, q0, mass):
        signal = sample(GaussianPulse(q0=q0, tau=1.0), TimeGrid(-12.0, 12.0, 481))
        with pytest.raises(InvertedModeError, match="for mode -1"):
            evolve_mode(signal, PhysicalParams(mass=mass, omega=1.0), -1)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        t_start=st.floats(-1e6, 1e6),
        span=st.floats(1e-3, 1e6),
        rises=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40),
        substeps=st.integers(1, 9),
        split=st.floats(0.0, 1.0),
    )
    def test_the_substep_interpolant_stays_in_the_samples_range(self, t_start, span, rises, substeps, split):
        """What deciding inversion from the samples' range relies on: the
        interpolant leaves it by less than the ulp of max|q| it is widened by."""
        values = np.cumsum(rises)
        signal = CouplingSignal(TimeGrid(t_start, t_start + span, len(values)), values)
        reach = np.spacing(np.max(np.abs(values)))
        h, n_steps = _substeps(signal.grid, substeps)
        lo = int(split * n_steps)
        for first, last in [(0, n_steps), (0, max(lo, 1)), (min(lo, n_steps - 1), n_steps)]:
            q = _substep_coupling(signal, h, first, last)
            assert values.min() - reach <= q.min() and q.max() <= values.max() + reach

    def test_peak_memory_does_not_grow_with_the_grid(self):
        """Chunk-sized temporaries, plus 32 B per chunk and sign for the chunk products."""
        peaks = {(+1,): [], (+1, -1): []}
        for n in (2 * (1 << 20) + 1, 4 * (1 << 20) + 1):
            # q0 < m w^2, so neither mode inverts
            signal = sample(GaussianPulse(q0=0.5, tau=2.0), TimeGrid(-20.0, 20.0, n))
            for signs, sweep_peaks in peaks.items():
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    _evolve_modes(signal, PARAMS, signs, 1)
                    sweep_peaks.append(tracemalloc.get_traced_memory()[1] - start)
                finally:
                    tracemalloc.stop()
                # the signal itself takes 16 MB at the shorter length
                assert sweep_peaks[-1] < 1024 * _CHUNK_STEPS, peaks
        grown_chunks = (4 - 2) * (1 << 20) // _CHUNK_STEPS
        for signs, (short, long) in peaks.items():
            assert long <= short + len(signs) * 2 * 32 * grown_chunks + 4096, peaks


def whole_array_evolve_fock(signal, params, truncation, dt_substeps):
    """RK4 with the dense (N+1)^2 x (N+1)^2 operator kron(x, x) on the
    flattened state, over the full-length substep interpolant."""
    h, q_nodes, q_mid = whole_array_substep_coupling(signal, dt_substeps)
    n_levels = truncation + 1
    n = np.arange(n_levels)
    h0_diag = params.hbar * params.omega * (n[:, None] + n[None, :] + 1.0).ravel()
    x = np.diag(np.sqrt(np.arange(1.0, n_levels)), 1)
    x = x + x.T
    coupling_op = np.kron(x.astype(np.complex128), x)
    coupling_op *= ladder_factor(params)
    minus_i_h0 = (-1j / params.hbar) * h0_diag
    minus_i = -1j / params.hbar
    psi = np.zeros(n_levels * n_levels, dtype=np.complex128)
    psi[0] = 1.0

    def rhs(q, y):
        return minus_i_h0 * y + (minus_i * q) * (coupling_op @ y)

    for j in range(len(q_mid)):
        k1 = rhs(q_nodes[j], psi)
        k2 = rhs(q_mid[j], psi + (0.5 * h) * k1)
        k3 = rhs(q_mid[j], psi + (0.5 * h) * k2)
        k4 = rhs(q_nodes[j + 1], psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi.reshape(n_levels, n_levels)


def test_fock_chunking_changes_no_bit(monkeypatch):
    signal = gauss_signal(n=4801)  # 9600 substeps: two whole chunks and a part
    chunked = evolve_fock(signal, PARAMS, truncation=2, dt_substeps=2).amplitudes
    monkeypatch.setattr("casfric.oracle._CHUNK_STEPS", 1 << 20)
    assert np.array_equal(evolve_fock(signal, PARAMS, truncation=2, dt_substeps=2).amplitudes, chunked)


@pytest.mark.parametrize("truncation", [2, 10])
def test_fock_loop_agrees_with_the_dense_operator(truncation):
    signal = gauss_signal(n=4801)
    state = evolve_fock(signal, PARAMS, truncation, dt_substeps=2)
    dense = whole_array_evolve_fock(signal, PARAMS, truncation, 2)
    assert np.max(np.abs(state.amplitudes - dense)) <= 1e-13


def closure_loop_evolve_fock(signal, params, truncation, dt_substeps):
    """evolve_fock's amplitudes from its earlier step loop: the same
    operator and stacks, with each stage's two products in a `derivative`
    closure and every `out` passed by keyword, over the full-length
    substep interpolant rather than the chunked one under test."""
    n_levels = truncation + 1
    h, q_nodes, q_mid = whole_array_substep_coupling(signal, dt_substeps)
    x = _ladder_position(truncation)
    minus_i = np.array([[0.0, -1.0], [1.0, 0.0]])
    n = np.arange(n_levels, dtype=float)
    right = np.hstack([
        np.kron((ladder_factor(params) / params.hbar) * x, minus_i),
        np.kron(np.eye(n_levels), minus_i),
        np.kron(np.diag(params.omega * (n + 1.0)), minus_i),
    ])
    left = np.stack([x, np.diag(params.omega * n), np.eye(n_levels)], axis=2).reshape(n_levels, -1)
    coupling_columns = left[:, 0::3]
    products = np.empty((n_levels, right.shape[1]))
    products_by_row = products.reshape(3 * n_levels, 2 * n_levels)

    def derivative(y, out):
        np.dot(y, right, out=products)
        np.dot(left, products_by_row, out=out)

    stacks = np.zeros((2, 5, n_levels, n_levels), dtype=np.complex128)
    stacks[0, 4, 0, 0] = 1.0
    stacks_real = stacks.view(np.float64)
    now, after = ((*stacks_real[i], stacks_real[i].reshape(5, -1)) for i in range(2))
    stage_input = np.empty((n_levels, 2 * n_levels))
    stage_input_flat = stage_input.reshape(-1)
    to_k2 = np.array([0.5 * h, 0.0, 0.0, 0.0, 1.0])
    to_k3 = np.array([0.0, 0.5 * h, 0.0, 0.0, 1.0])
    to_k4 = np.array([0.0, 0.0, h, 0.0, 1.0])
    update = np.array([h / 6.0, h / 3.0, h / 3.0, h / 6.0, 1.0])
    q_nodes = q_nodes.tolist()
    np.multiply(q_nodes[0], x, out=coupling_columns)
    for q_half, q_end in zip(q_mid.tolist(), q_nodes[1:]):
        k1, k2, k3, k4, psi, stack = now
        derivative(psi, k1)
        np.multiply(q_half, x, out=coupling_columns)
        np.dot(to_k2, stack, out=stage_input_flat)
        derivative(stage_input, k2)
        np.dot(to_k3, stack, out=stage_input_flat)
        derivative(stage_input, k3)
        np.multiply(q_end, x, out=coupling_columns)
        np.dot(to_k4, stack, out=stage_input_flat)
        derivative(stage_input, k4)
        np.dot(update, stack, out=after[-1][4])
        now, after = after, now
    return now[4].view(np.complex128).copy()


BIT_IDENTITY_SIGNALS = {
    # 4800 or 19200 substeps: each run crosses a chunk boundary
    "gaussian": lambda: gauss_signal(n=4801),
    # q < 0 for t < 0, so the q x columns hold -0.0 where x is zero
    "symmetric_ramp": lambda: sample(SymmetricRamp(gamma=0.01, eta=1.0), TimeGrid(-12.0, 12.0, 601)),
}


@pytest.mark.parametrize("dt_substeps", [1, 4])
@pytest.mark.parametrize("truncation", [2, 10, 20])
@pytest.mark.parametrize("profile", sorted(BIT_IDENTITY_SIGNALS))
def test_fock_step_loop_is_the_closure_loop_bit_for_bit(profile, truncation, dt_substeps):
    signal = BIT_IDENTITY_SIGNALS[profile]()
    state = evolve_fock(signal, PARAMS, truncation, dt_substeps)
    assert np.array_equal(state.amplitudes, closure_loop_evolve_fock(signal, PARAMS, truncation, dt_substeps))


def run_bytes(truncation, run_steps):
    """The _RUN_BYTES that gives evolve_fock runs of run_steps steps: a
    run's stage operators are 2 run_steps + 1 (N+1) x 3(N+1) float matrices."""
    return 2 * 8 * 3 * (truncation + 1) ** 2 * run_steps


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))


@pytest.mark.parametrize("run_steps", [1, 7, _CHUNK_STEPS])
@pytest.mark.parametrize(
    "profile, truncation, dt_substeps",
    [
        # 9600 substeps: chunks of 4096, 4096 and 1408 steps, none a multiple
        # of 7 or of the default 606 (N = 2) and 45 (N = 10) steps a run
        ("gaussian", 2, 2),
        ("gaussian", 10, 2),
        # 4800 substeps across a chunk boundary; q < 0 for t < 0, so the q x
        # columns hold -0.0 where x is zero
        ("symmetric_ramp", 10, 8),
        # 600 substeps, 5 a run by default; one run per chunk is 600 steps
        ("symmetric_ramp", 30, 1),
    ],
)
def test_fock_run_boundaries_change_no_bit(monkeypatch, profile, truncation, dt_substeps, run_steps):
    signal = BIT_IDENTITY_SIGNALS[profile]()
    default = evolve_fock(signal, PARAMS, truncation, dt_substeps).amplitudes
    monkeypatch.setattr("casfric.oracle._RUN_BYTES", run_bytes(truncation, run_steps))
    assert_same_bits(evolve_fock(signal, PARAMS, truncation, dt_substeps).amplitudes, default)


@pytest.mark.parametrize("run_steps", [None, 1000])
def test_fock_step_loop_makes_no_per_step_write(monkeypatch, run_steps):
    """Every np.multiply an evolve_fock run makes is counted: there is one per
    run of steps (its q x columns), none per step."""
    signal = gauss_signal(n=4801)  # 9600 substeps at dt_substeps = 2
    chunks = [4096, 4096, 1408]
    assert sum(chunks) == _substeps(signal.grid, 2)[1] and max(chunks) == _CHUNK_STEPS
    if run_steps is None:
        run_steps = _RUN_BYTES // run_bytes(10, 1)
    else:
        monkeypatch.setattr("casfric.oracle._RUN_BYTES", run_bytes(10, run_steps))
    runs = sum(-(-chunk // run_steps) for chunk in chunks)
    calls = []
    multiply = np.multiply

    def counting_multiply(*args, **kwargs):
        calls.append(1)
        return multiply(*args, **kwargs)

    monkeypatch.setattr(np, "multiply", counting_multiply)
    evolve_fock(signal, PARAMS, truncation=10, dt_substeps=2)
    monkeypatch.undo()
    assert len(calls) <= runs + len(chunks) < 9600, (len(calls), runs)


def test_fock_step_loop_calls_no_module_level_dot(monkeypatch):
    """The step's 8 products and 4 weighted sums are each operand's bound
    ndarray.dot, which skips np.dot's __array_function__ dispatch: an
    evolve_fock run of 9600 steps makes no np.dot call at all."""
    signal = gauss_signal(n=4801)  # 9600 substeps at dt_substeps = 2
    calls = []
    dot = np.dot

    def counting_dot(*args, **kwargs):
        calls.append(1)
        return dot(*args, **kwargs)

    monkeypatch.setattr(np, "dot", counting_dot)
    evolve_fock(signal, PARAMS, truncation=10, dt_substeps=2)
    monkeypatch.undo()
    assert len(calls) == 0


@pytest.mark.parametrize("oracle", ["two-sign mode sweep", "evolve_fock"])
def test_each_chunk_is_one_interp_call(monkeypatch, oracle):
    """Both oracles read a chunk's nodes and midpoints, interleaved, from one
    np.interp call: a grid of three whole chunks makes three calls."""
    signal = gauss_signal(n=3 * _CHUNK_STEPS + 1)
    queries = []
    interp = np.interp

    def counting_interp(x, *args, **kwargs):
        queries.append(len(x))
        return interp(x, *args, **kwargs)

    monkeypatch.setattr(np, "interp", counting_interp)
    if oracle == "evolve_fock":
        evolve_fock(signal, PARAMS, truncation=2, dt_substeps=1)
    else:
        _evolve_modes(signal, PARAMS, (+1, -1), 1)
    monkeypatch.undo()
    assert queries == [2 * _CHUNK_STEPS + 1] * 3
