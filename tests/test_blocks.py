"""Block-streamed passes over long grids: grid slices, sampling and the
two first-order quadratures, against full-array references."""
import functools
import gc
import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casfric import (
    CouplingSignal,
    NumericalFailure,
    NormDriftError,
    ExponentialRamp,
    Flyby,
    GaussianPulse,
    PhysicalParams,
    SymmetricRamp,
    TimeGrid,
    TailSpanError,
    adiabatic_scan,
    amplitude_scan,
    compare_routes,
    sample,
)
from casfric import dissipation
from casfric.cli import _PROFILES, load_config, main, run_scenario
from casfric.core import _TILE_PAIRS, BLOCK_SAMPLES, _blocks
from casfric.coupling import _walk, _with_amplitude
from casfric.dissipation import (
    _SCAN_TAIL_FACTOR,
    TAIL_REL_DEFAULT,
    _TimeDomainSum,
    _delta_e_barton,
    _delta_e_hb,
    _execute,
    _plan,
    _ramp_grid,
    ramp_tail_span,
    time_domain_amplitude,
)
from casfric.spectral import _SpectralSum, fourier_numeric

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


class TestSignalInterpolation:
    """CouplingSignal interpolates from a padded slice of its grid; the
    values are those of np.interp on the whole grid, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        t0=st.floats(min_value=-1e4, max_value=1e4),
        span=st.floats(min_value=1e-3, max_value=1e4),
        n=st.sampled_from(SIZES),
        cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_query_range_is_the_full_array_interp(self, t0, span, n, cuts, seed):
        grid = TimeGrid(t0, t0 + span, n)
        rng = np.random.default_rng(seed)
        signal = CouplingSignal(grid, rng.standard_normal(n))
        a, b = sorted(grid.t_start + c * (grid.t_end - grid.t_start) for c in cuts)
        queries = np.concatenate(
            [rng.uniform(a, b, 500), grid.times(int(n * cuts[0]), n)[:50], [a, b], [grid.t_start, grid.t_end]]
        )
        queries = np.clip(queries, grid.t_start, grid.t_end)
        rng.shuffle(queries)
        want = np.interp(queries, grid.times(), signal.values)
        assert np.array_equal(signal.evaluate(queries), want)

    def test_empty_and_nan_queries(self):
        signal = CouplingSignal(TimeGrid(0.0, 1.0, 3), np.array([0.0, 1.0, 0.0]))
        assert signal.evaluate(np.array([])).shape == (0,)
        with pytest.raises(ValueError, match="span"):
            signal.evaluate(np.array([0.5, np.nan]))


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
        got_hb = fourier_numeric(signal, -2.0)
        got_barton = time_domain_amplitude(signal, PARAMS) / -0.5j
        assert abs(got_hb - want) <= 1e-13 * abs(want)
        assert abs(got_barton - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("n", [2, BLOCK_SAMPLES, BLOCK_SAMPLES + 1])
    def test_one_block_is_one_trapezoid_call(self, n):
        signal = pulse(n)
        assert fourier_numeric(signal, -2.0) == reference_trapezoid(signal, -2.0)
        assert time_domain_amplitude(signal, PARAMS) == complex(-0.5j * reference_trapezoid(signal, -2.0))

    @pytest.mark.parametrize("omega", [0.7, 2.0, 31.0])
    def test_hermitian_symmetry_is_bit_exact_across_blocks(self, omega):
        signal = pulse(3 * BLOCK_SAMPLES + 17)
        plus = fourier_numeric(signal, omega)
        minus = fourier_numeric(signal, -omega)
        assert minus == plus.conjugate()


def exp_trapezoid_blocks(signal, argument):
    """The block loop both quadratures ran with np.exp and np.trapezoid:
    the bits their cos/sin loops must keep.  ``argument`` is the complex
    factor of t in the exponent, 2j*omega (barton) or -1j*omega (hb)."""
    grid, q = signal.grid, signal.values
    value = 0j
    for lo in range(0, grid.n_samples - 1, BLOCK_SAMPLES):
        hi = min(lo + BLOCK_SAMPLES + 1, grid.n_samples)
        value += np.trapezoid(q[lo:hi] * np.exp(argument * grid.times(lo, hi)), dx=grid.dt)
    return value


def assert_both_routes_keep_the_exp_trapezoid_bits(signal, omegas=(-2.0 * PARAMS.omega,)):
    barton = complex(-0.5j / PARAMS.hbar * exp_trapezoid_blocks(signal, 2j * PARAMS.omega))
    assert time_domain_amplitude(signal, PARAMS) == barton
    for omega in omegas:
        assert fourier_numeric(signal, omega) == exp_trapezoid_blocks(signal, -1j * omega), omega


HB_OMEGAS = (0.0, 0.7, 2.0, 31.0, -2.0)


class TestBitIdentity:
    """Both routes write q*cos and q*sin into one block and sum its
    trapezoid in place; every result is == to the np.exp/np.trapezoid loop."""

    @pytest.mark.parametrize("family", [SymmetricRamp(gamma=1.0, eta=1.0), ExponentialRamp(gamma=1.0, eta=1.0)])
    def test_default_eta_scan_grids(self, family):
        # the abrupt ramp's grid starts at t = 0, the smooth one's is symmetric
        scan = adiabatic_scan(family, [1e-2, 1e-3], PARAMS, routes=("hb",))
        for report, eta in zip(scan.reports, scan.etas):
            assert (report.grid.t_start == 0.0) == isinstance(family, ExponentialRamp)
            profile = type(family)(gamma=1.0, eta=float(eta))
            assert_both_routes_keep_the_exp_trapezoid_bits(sample(profile, report.grid))

    @pytest.mark.parametrize("n", SIZES)
    def test_every_block_split(self, n):
        assert_both_routes_keep_the_exp_trapezoid_bits(pulse(n), omegas=HB_OMEGAS)

    def test_subnormal_signal(self):
        n = 1001
        values = 5e-320 * np.sin(np.arange(n, dtype=float))
        assert np.all(np.abs(values) < np.finfo(float).tiny) and np.count_nonzero(values) > n - 5
        signal = CouplingSignal(TimeGrid(0.0, 1.0, n), values)
        assert_both_routes_keep_the_exp_trapezoid_bits(signal, omegas=HB_OMEGAS)


def subnormal_signal(n=1001):
    values = 5e-320 * np.sin(np.arange(n, dtype=float))
    return CouplingSignal(TimeGrid(0.0, 1.0, n), values)


ROUTE_PAIRS = [("barton", "hb"), ("hb",)]
# a block of one tile, then blocks of T + 1, T + 2 and 2T + 8 pairs, filled in 2, 2 and 3 tiles
TILE_SPLITS = [_TILE_PAIRS + 1, _TILE_PAIRS + 2, _TILE_PAIRS + 3, 2 * _TILE_PAIRS + 9]


class TestTiledFill:
    """Filling a block's pairs one tile at a time writes the bits that one
    fill of the whole block writes, so the block's one .sum() is the same."""

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.integers(1, BLOCK_SAMPLES), seed=st.integers(0, 2**32 - 1))
    @example(pairs=_TILE_PAIRS, seed=0)
    @example(pairs=_TILE_PAIRS + 1, seed=1)
    @example(pairs=2 * _TILE_PAIRS + 4, seed=2)
    @example(pairs=BLOCK_SAMPLES, seed=3)
    def test_tiles_write_the_pairs_of_one_fill(self, pairs, seed):
        # samples from 1e-320 to 1e300 in magnitude, both signs, zeros of both signs
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(pairs + 1) * 10.0 ** rng.integers(-320, 301, size=pairs + 1)
        values[rng.integers(0, pairs + 1, size=pairs // 8 + 1)] = 0.0
        values[rng.integers(0, pairs + 1, size=pairs // 8 + 1)] = -0.0
        grid = TimeGrid(-12.0, 12.0, pairs + 1)
        times = grid.times()
        for whole, tiled in [
            (_SpectralSum(0.7, pairs + 1, tile=pairs + 1), _SpectralSum(0.7, pairs + 1, tile=_TILE_PAIRS + 1)),
            (_TimeDomainSum(PARAMS, pairs + 1, tile=pairs + 1), _TimeDomainSum(PARAMS, pairs + 1, tile=_TILE_PAIRS + 1)),
        ]:
            whole.reset(grid)
            tiled.reset(grid)
            whole.fill(times, values, 0)
            whole.add_pairs(pairs)
            for a, b in _blocks(pairs + 1, _TILE_PAIRS):
                tiled.fill(times[a:b], values[a:b], a)
            tiled.add_pairs(pairs)
            assert_same_bits(tiled.pairs.view(np.float64), whole.pairs.view(np.float64))
            assert_same_bits(np.array([tiled.value.real, tiled.value.imag]), np.array([whole.value.real, whole.value.imag]))


class TestOneFirstOrderPass:
    """compare_routes feeds both first-order routes from one pass over the
    signal's blocks; every dE field is == to the dE of the test-local
    np.exp/np.trapezoid block loop, which shares no code with the pass."""

    @staticmethod
    def assert_fields_are_the_exp_trapezoid_routes(signal, routes):
        report = compare_routes(signal, PARAMS, routes=routes)
        amplitude = complex(-0.5j / PARAMS.hbar * exp_trapezoid_blocks(signal, 2j * PARAMS.omega))
        barton = _delta_e_barton(amplitude, PARAMS) if "barton" in routes else None
        hb = _delta_e_hb(exp_trapezoid_blocks(signal, -1j * (-2.0 * PARAMS.omega)), PARAMS)
        assert report.delta_e_time_domain == barton
        assert report.delta_e_spectral == hb
        assert report.transition_probability == hb / (2.0 * PARAMS.hbar * PARAMS.omega)

    @pytest.mark.parametrize("routes", ROUTE_PAIRS)
    @pytest.mark.parametrize("n", SIZES)
    def test_every_block_split(self, n, routes):
        self.assert_fields_are_the_exp_trapezoid_routes(pulse(n), routes)

    @pytest.mark.parametrize("routes", ROUTE_PAIRS)
    @pytest.mark.parametrize("n", TILE_SPLITS)
    def test_every_tile_split(self, n, routes):
        self.assert_fields_are_the_exp_trapezoid_routes(pulse(n), routes)

    @pytest.mark.parametrize("routes", ROUTE_PAIRS)
    def test_subnormal_signal(self, routes):
        self.assert_fields_are_the_exp_trapezoid_routes(subnormal_signal(), routes)

    @pytest.mark.parametrize("routes", ROUTE_PAIRS)
    def test_each_block_is_read_once(self, monkeypatch, routes):
        """One grid.times call per block, and no call into the public quadratures."""
        signal = pulse(3 * BLOCK_SAMPLES + 17)
        calls = []
        original_times = TimeGrid.times

        def recorded(self, lo=0, hi=None):
            calls.append((lo, hi))
            return original_times(self, lo, hi)

        def refused(*args):
            raise AssertionError("compare_routes called a public quadrature")

        monkeypatch.setattr(TimeGrid, "times", recorded)
        for name in ("delta_e_time_domain", "delta_e_spectral", "time_domain_amplitude", "fourier_numeric"):
            monkeypatch.setattr(f"casfric.dissipation.{name}", refused)
        monkeypatch.setattr("casfric.spectral.fourier_numeric", refused)
        compare_routes(signal, PARAMS, routes=routes)
        blocks = [(lo, min(lo + BLOCK_SAMPLES + 1, signal.grid.n_samples))
                  for lo in range(0, signal.grid.n_samples - 1, BLOCK_SAMPLES)]
        assert calls == blocks


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

    def test_compare_routes_leaves_nothing_behind(self):
        """No reference cycle keeps a call's arrays alive until the cyclic
        collector runs: with it off, five calls hold what two held."""
        signal = pulse(3 * BLOCK_SAMPLES + 17)
        gc.disable()
        tracemalloc.start()
        try:
            held = []
            for _ in range(5):
                compare_routes(signal, PARAMS)
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            gc.enable()
        assert abs(held[4] - held[1]) < 4096, held

    def test_sampling_a_signal_reads_only_slices_of_its_grid(self, monkeypatch):
        """Each block interpolates from the few cells it covers, not from
        the whole time array of the sampled signal (which made sampling
        quadratic in the grid length)."""
        grid = TimeGrid(-20.0, 20.0, 3 * BLOCK_SAMPLES + 17)
        signal = pulse(grid.n_samples)
        calls = []
        original_times = TimeGrid.times

        def recorded(self, lo=0, hi=None):
            calls.append((lo, self.n_samples if hi is None else hi))
            return original_times(self, lo, hi)

        monkeypatch.setattr(TimeGrid, "times", recorded)
        again = sample(signal, signal.grid)
        assert again.values.tobytes() == signal.values.tobytes()
        assert calls and max(hi - lo for lo, hi in calls) <= BLOCK_SAMPLES + 4, calls

    def test_sampling_allocates_the_signal_and_one_block(self):
        profile = SymmetricRamp(gamma=1.0, eta=0.01)
        for n in (2 * (1 << 20) + 1, 4 * (1 << 20) + 1):
            grid = TimeGrid(-4000.0, 4000.0, n)
            assert traced_peak(sample, profile, grid) - 8 * n < 128 * BLOCK_SAMPLES


FAMILIES = [SymmetricRamp(gamma=1.0, eta=1.0), ExponentialRamp(gamma=1.0, eta=1.0)]
FIRST_ORDER_ROUTES = [("hb",), ("barton",), ("barton", "hb")]


def sampled_scan_reports(family, etas, params, routes, dt=None, tail_rel=1e-12, **route_options):
    """What an eta scan's reports were: sample each point's grid, then compare_routes."""
    dt = np.pi / (32.0 * params.omega) if dt is None else dt
    reports = []
    for eta in etas:
        profile = type(family)(gamma=family.gamma, eta=eta)
        signal = sample(profile, _ramp_grid(profile, eta, dt, tail_rel))
        reports.append(compare_routes(signal, params, routes=routes, tail_rel=tail_rel, **route_options))
    return reports


def two_block_dt(family, eta, tail_rel=1e-12):
    """A dt that gives the scan point a grid of BLOCK_SAMPLES + 2 samples:
    two blocks, the second of one interval."""
    span = ramp_tail_span(eta, _SCAN_TAIL_FACTOR * tail_rel)
    length = 2.0 * span if isinstance(family, SymmetricRamp) else span
    return length / (BLOCK_SAMPLES + 0.5)


# a grid of two blocks, the second of one interval, for each family with an amplitude
AMPLITUDE_FAMILIES = [
    (GaussianPulse(q0=0.01, tau=1.0), TimeGrid(-12.0, 12.0, BLOCK_SAMPLES + 2)),
    (SymmetricRamp(gamma=1e-3, eta=1.0), TimeGrid(-40.0, 40.0, BLOCK_SAMPLES + 2)),
    (ExponentialRamp(gamma=1e-3, eta=1.0), TimeGrid(0.0, 40.0, BLOCK_SAMPLES + 2)),
]
AMPLITUDE_ROUTES = [
    ("barton",), ("hb",), ("barton", "hb"), ("hb", "mode_oracle"), ("barton", "hb", "mode_oracle"), ("hb", "fock_oracle"),
]


def sampled_amplitude_reports(family, amplitudes, grid, routes, **options):
    """What an amplitude scan's reports were: sample each amplitude's profile, then compare_routes."""
    return [compare_routes(sample(_with_amplitude(family, amplitude), grid), PARAMS, routes=routes, **options)
            for amplitude in amplitudes]


# each scan's (run, reference), both taking ``values`` of ``family`` on ``grid``
# (None for an eta scan, which builds its grids): the reference samples each point
# and runs compare_routes, and takes ``routes`` as its fourth argument
SCANS = {
    "eta": (
        lambda family, values, grid, **options: list(adiabatic_scan(family, values, PARAMS, **options).reports),
        lambda family, values, grid, routes, **options: sampled_scan_reports(family, values, PARAMS, routes, **options),
    ),
    "amplitude": (
        lambda family, values, grid, **options: list(amplitude_scan(family, values, grid, PARAMS, **options)),
        sampled_amplitude_reports,
    ),
}


def write_scan_config(tmp_path, scan, family, values, grid, options):
    """The config of a SCANS run at PARAMS; an eta scan's dt and tail_rel go in its scan object."""
    scan_keys = ("dt", "tail_rel") if scan == "eta" else ()
    if isinstance(family, CouplingSignal):
        profile = {"type": "sampled", "grid": asdict(family.grid), "values": family.values.tolist()}
    else:
        profile = {"type": next(name for name, cls in _PROFILES.items() if cls is type(family)), **asdict(family)}
    config = {"params": asdict(PARAMS), "profile": profile, "routes": list(options.get("routes", ("barton", "hb"))),
              "scan": {"kind": scan, "values": values, **{key: options[key] for key in scan_keys if key in options}},
              **{key: value for key, value in options.items() if key not in (*scan_keys, "routes")}}
    if grid is not None:
        config["grid"] = asdict(grid)
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config))
    return path


def single_run(n_samples, tmp_path):
    """run_scenario on a loaded config: a Gaussian pulse through barton and hb on ``n_samples``."""
    path = tmp_path / f"pulse_{n_samples}.json"
    path.write_text(json.dumps({
        "params": {"mass": 1.0, "omega": 1.0},
        "profile": {"type": "gaussian_pulse", "q0": 0.01, "tau": 1.0},
        "grid": {"t_start": -12.0, "t_end": 12.0, "n_samples": n_samples},
        "routes": ["barton", "hb"],
    }))
    return functools.partial(run_scenario, load_config(path))


class TestStreamedScans:
    """Every run is one route pass over its points: a first-order point walks
    its profile one tile at a time and feeds each block to the routes, and
    every report is == to the one of sampling the whole grid and running
    compare_routes on it.  The eta and amplitude scans share these tests,
    and the CLI's single run joins the flat-peak one."""

    @pytest.mark.parametrize("scan, family, values, grid, routes", [
        # 5e-3 needs more than one block on either ramp
        *(("eta", family, [0.05, 5e-3], None, routes) for family in FAMILIES for routes in FIRST_ORDER_ROUTES),
        # a Fock point takes ~0.25 s here
        *(("amplitude", family, [1e-2] if "fock_oracle" in routes else [1e-3, 1e-2], grid, routes)
          for family, grid in AMPLITUDE_FAMILIES for routes in AMPLITUDE_ROUTES),
    ])
    def test_reports_equal_sampling_then_comparing(self, scan, family, values, grid, routes):
        run, sampled = SCANS[scan]
        options = dict(fock_truncation=2, fock_substeps=1)
        reports = run(family, values, grid, routes=routes, **options)
        assert reports[-1].grid.n_samples > BLOCK_SAMPLES + 1
        assert reports == sampled(family, values, grid, routes, **options)
        assert all(set(report.populated()) == set(routes) for report in reports)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_last_block_of_one_interval(self, family):
        dt = two_block_dt(family, 0.01)
        scan = adiabatic_scan(family, [0.01], PARAMS, routes=("barton", "hb"), dt=dt)
        assert scan.reports[0].grid.n_samples == BLOCK_SAMPLES + 2
        assert list(scan.reports) == sampled_scan_reports(family, [0.01], PARAMS, ("barton", "hb"), dt=dt)

    @pytest.mark.parametrize(
        "routes",
        [("hb", "mode_oracle"), ("mode_oracle",), ("barton", "hb", "mode_oracle"), ("hb", "fock_oracle"), ("barton", "hb")],
    )
    def test_oracle_scan_equals_sampling_then_comparing(self, routes):
        family = SymmetricRamp(gamma=0.05, eta=1.0)
        # at 2 mode substeps the eta = 0.2 point's Bogoliubov defect, 1.4e-6, is refused
        options = dict(mode_substeps=4, fock_truncation=6, fock_substeps=4)
        scan = adiabatic_scan(family, [0.5, 0.2], PARAMS, routes=routes, **options)
        want = sampled_scan_reports(family, [0.5, 0.2], PARAMS, routes, **options)
        assert list(scan.reports) == want
        assert all(set(report.populated()) == set(routes) for report in scan.reports)

    @pytest.mark.parametrize("routes", [("barton", "hb"), ("hb", "mode_oracle")])
    def test_a_signal_on_another_grid_runs_as_if_sampled_on_it(self, routes):
        """A CouplingSignal off its own grid is interpolated tile by tile, with the bits sample gives it."""
        signal = sample(GaussianPulse(q0=0.01, tau=2.0), TimeGrid(-20.0, 20.0, 2001))
        grid = TimeGrid(-19.0, 19.0, 3 * BLOCK_SAMPLES + 17)
        [report], _ = _execute(_plan(PARAMS, routes, None, signal, None, grid, None, TAIL_REL_DEFAULT))
        assert report == compare_routes(sample(signal, grid), PARAMS, routes=routes)

    def test_an_oracle_point_that_one_mode_substep_cannot_resolve_is_refused(self):
        # the eta = 0.5 grid: one substep leaves a Bogoliubov defect of 1.7e-5, two leave 5.4e-7
        family = SymmetricRamp(gamma=0.05, eta=1.0)
        with pytest.raises(NormDriftError, match=r"^mode \+1: .* \(> 1e-06\); raise mode_substeps$"):
            adiabatic_scan(family, [0.5], PARAMS, routes=("hb", "mode_oracle"))
        scan = adiabatic_scan(family, [0.5], PARAMS, routes=("hb", "mode_oracle"), mode_substeps=2)
        assert set(scan.reports[0].populated()) == {"hb", "mode_oracle"}

    @pytest.mark.parametrize("routes, oracle", [(("hb", "mode_oracle"), True), (("barton", "hb"), False)])
    @pytest.mark.parametrize("scan, family, values, grid, field, options", [
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [0.5, 0.2], None, "eta", {"mode_substeps": 4}),
        ("amplitude", GaussianPulse(q0=1.0, tau=1.0), [1e-3, 1e-2], TimeGrid(-12.0, 12.0, 2401), "q0", {}),
    ])
    def test_every_point_walks_its_profile_and_samples_only_for_the_oracles(self, monkeypatch, scan, family, values,
                                                                            grid, field, options, routes, oracle):
        calls = []

        def walk(grid, source, *args):
            calls.append(("walk", type(source).__name__, getattr(source, field)))
            return _walk(grid, source, *args)

        def sample_once(profile, grid):
            calls.append(("sample", type(profile).__name__, getattr(profile, field)))
            return sample(profile, grid)

        monkeypatch.setattr(dissipation, "_walk", walk)
        monkeypatch.setattr(dissipation, "sample", sample_once)
        SCANS[scan][0](family, values, grid, routes=routes, **options)
        steps = ("walk", "sample") if oracle else ("walk",)
        assert calls == [(step, type(family).__name__, value) for value in values for step in steps]

    @pytest.mark.parametrize("run, short, long", [
        *(pytest.param(lambda eta, _, family=family: functools.partial(
            adiabatic_scan, family, [eta], PARAMS, routes=("barton", "hb")), 2e-3, 5e-4, id=f"eta-{type(family).__name__}")
          for family in FAMILIES),
        pytest.param(lambda n_samples, _: functools.partial(
            amplitude_scan, GaussianPulse(q0=0.01, tau=1.0), [1e-3, 1e-2], TimeGrid(-12.0, 12.0, n_samples), PARAMS,
            routes=("barton", "hb")), (1 << 18) + 1, (1 << 20) + 1, id="amplitude"),
        pytest.param(single_run, (1 << 18) + 1, (1 << 20) + 1, id="run_scenario"),
    ])
    def test_peak_memory_does_not_grow_with_the_grid(self, tmp_path, run, short, long):
        """``run`` at ``long`` has 4x the samples it has at ``short``: a whole
        sampled signal would raise the peak by 4-9 MB."""
        peak_short, peak_long = traced_peak(run(short, tmp_path)), traced_peak(run(long, tmp_path))
        assert peak_long <= peak_short + 4096

    @pytest.mark.parametrize("scan, family, values, grid, options, error, message, field, at", [
        # each rule of the plan; ``at`` is the config path the CLI names it by, None where the
        # config parser refuses the fault first (no values, NaN, routes not a list)
        ("eta", GaussianPulse(q0=0.01, tau=1.0), [0.1], None, {}, TypeError,
         "^adiabatic scans take a ramp family, got GaussianPulse$", "scan", "config.scan"),
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [], None, {}, ValueError,
         "^etas must be a nonempty sequence of positive rates$", "scan", None),
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [0.1, -1.0], None, {}, ValueError,
         r"^etas\[1\] must be positive, got -1.0$", "scan", "config.scan"),
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [0.1, 0.2, 0.1], None, {}, ValueError,
         r"^etas\[2\] repeats 0.1; a slope needs distinct etas$", "scan", "config.scan"),
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [0.1], None, {"dt": 0.0}, ValueError,
         "^dt must be finite and positive, got 0.0$", "scan", "config.scan"),
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [0.1], None, {"routes": "hb"}, TypeError,
         r"^routes is a sequence of route tokens such as \('hb',\), not the string 'hb'$", "routes", None),
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [0.1], None, {"tail_rel": 2.0}, ValueError,
         r"^tail_rel must be in \(0, 1\), got 2.0$", "tail_rel", "scan.tail_rel"),
        # the plan's one order: the routes before tail_rel, as in compare_routes and amplitude_scan
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [0.1], None, {"routes": [], "tail_rel": 2.0}, ValueError,
         "^at least one route must be selected$", "routes", "config.routes"),
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [0.1], None, {"tail_rel": 1e-322}, ValueError,
         "^tail_rel=1e-322 is too small: the span solve needs at least ~6.05e-307$", "tail_rel", "scan.tail_rel"),
        # the eta = 1e-4 grid holds about 7 M samples: four Fock substeps each is 6.6 min of work
        ("eta", SymmetricRamp(gamma=0.05, eta=1.0), [0.5, 1e-4], None, {"routes": ("hb", "fock_oracle")}, ValueError,
         r"^the Fock \(N = 10\) oracle's \d+ steps would take about 393 s, above the work budget", "budget", "config"),
        ("eta", ExponentialRamp(gamma=1.0, eta=1.0), [0.01, 1e-6], None, {"routes": ("hb",)}, ValueError,
         r"eta=1e-06 needs a grid of \d+ samples", "scan", "config.scan"),
        *(("amplitude", family, amplitudes, TimeGrid(-12.0, 12.0, 7_000_001), options, error, message, field, at)
          for family, amplitudes, options, error, message, field, at in [
            (CouplingSignal(TimeGrid(-1.0, 1.0, 3), [0.0, 1.0, 0.0]), [0.1], {}, TypeError,
             "^CouplingSignal has no amplitude parameter$", "scan", "config.scan"),
            (Flyby(charge=1.0, d=1.0, v=1.0), [0.1], {}, TypeError, "^Flyby has no amplitude parameter$", "scan",
             "config.scan"),
            (GaussianPulse(q0=0.01, tau=1.0), [0.1, np.nan], {}, ValueError,
             "^GaussianPulse.q0 must be finite, got nan$", "scan", None),
            (GaussianPulse(q0=0.01, tau=1.0), [], {}, ValueError, "^amplitudes must be a nonempty sequence$", "scan",
             None),
            (GaussianPulse(q0=0.01, tau=1.0), [0.1], {"routes": ("hb", "kubo")}, ValueError,
             r"^unknown route 'kubo' at routes\[1\]", "routes", "config.routes"),
            (GaussianPulse(q0=0.01, tau=1.0), [0.1], {"tail_rel": 1.0}, ValueError,
             r"^tail_rel must be in \(0, 1\), got 1.0$", "tail_rel", "config.tail_rel"),
            # the grid's 7 M samples at four Fock substeps each are about 6.5 min of work
            (GaussianPulse(q0=0.01, tau=1.0), [0.1], {"routes": ("hb", "fock_oracle")}, ValueError,
             r"^the Fock \(N = 10\) oracle's 28000000 steps would take about 391 s, above the work budget", "budget",
             "config"),
        ]),
    ])
    def test_refusals_come_before_any_point_is_walked_sampled_or_evaluated(self, monkeypatch, tmp_path, capsys, scan,
                                                                           family, values, grid, options, error,
                                                                           message, field, at):
        """Each rule of the plan, from the library with its field and from the CLI at ``at`` with the same text."""
        def no_point(*args):
            raise AssertionError("a point ran")

        monkeypatch.setattr(dissipation, "_walk", no_point)
        monkeypatch.setattr(dissipation, "sample", no_point)
        for profile in (ExponentialRamp, SymmetricRamp, GaussianPulse, Flyby, CouplingSignal):
            monkeypatch.setattr(profile, "_eval_array", no_point)
        with pytest.raises(error, match=message) as caught:
            SCANS[scan][0](family, values, grid, **options)
        assert caught.value.field == field
        monkeypatch.undo()  # building a Flyby from its config evaluates its peak
        if at is not None:
            assert main([str(write_scan_config(tmp_path, scan, family, values, grid, options))]) == 2
            assert capsys.readouterr().err == f"error: {at}: {caught.value}\n"

    def test_unresolved_tails_are_refused_before_a_route_overflows(self):
        # two samples at +-span: the tails are the peak, and barton's
        # -i/(2 hbar) scaling of the finite sum would overflow
        family = SymmetricRamp(gamma=1e300, eta=1.0)
        params = PhysicalParams(mass=1.0, omega=1.0, hbar=1e-30)
        grid = _ramp_grid(SymmetricRamp(gamma=1e300, eta=0.1), 0.1, 1e4, 1e-12)
        with pytest.raises(NumericalFailure, match="barton: float overflow"):
            compare_routes(sample(SymmetricRamp(gamma=1e300, eta=0.1), grid), params, routes=("barton",))
        with pytest.raises(TailSpanError) as caught:
            adiabatic_scan(family, [0.1], params, routes=("barton",), dt=1e4)
        assert str(caught.value) == "grid span insufficient for eta=0.1: coupling tails above 1e-12 of peak"

    @pytest.mark.parametrize("scan, family, values, grid, options", [
        # gamma*t overflows to inf at a grid end of the last point
        ("eta", SymmetricRamp(gamma=1e308, eta=1.0), [0.1], None, {}),
        ("eta", SymmetricRamp(gamma=1e308, eta=1.0), [0.1], None, {"dt": 1e4}),
        ("amplitude", SymmetricRamp(gamma=1.0, eta=1e-3), [1.0, 1e308], TimeGrid(0.0, 1e3, 481), {}),
    ])
    def test_a_non_finite_sample_is_refused_as_sampling_refuses_it(self, monkeypatch, tmp_path, capsys, scan, family,
                                                                  values, grid, options):
        """The plan refuses the point with the ValueError sampling it raises, before any point is walked
        or sampled, and the CLI refuses it with the same text."""
        if scan == "eta":
            point = replace(family, eta=values[-1])
            grid = _ramp_grid(family, values[-1], options.get("dt", np.pi / 32.0), 1e-12)
        else:
            point = _with_amplitude(family, values[-1])
        with pytest.raises(ValueError, match="^signal values must be finite$"):
            sample(point, grid)

        def no_point(*args):
            raise AssertionError("a point ran")

        monkeypatch.setattr(dissipation, "_walk", no_point)
        monkeypatch.setattr(dissipation, "sample", no_point)
        with pytest.raises(ValueError) as scanned:
            SCANS[scan][0](family, values, None if scan == "eta" else grid, routes=("hb",), **options)
        assert type(scanned.value) is ValueError and scanned.value.field == "scan"
        assert str(scanned.value) == f"q of {point} is not finite at a grid end"
        config = write_scan_config(tmp_path, scan, family, values, None if scan == "eta" else grid,
                                   {"routes": ("hb",), **options})
        assert main([str(config)]) == 2
        assert capsys.readouterr().err == f"error: config.scan: {scanned.value}\n"

    def test_flagged_tails_are_those_of_compare_routes(self):
        # exp(-4) = 1.8e-2 of the peak at the endpoints: flagged at 1e-3, not at 0.5
        grid = TimeGrid(-2.0, 2.0, 41)
        for tail_rel, flagged in ((1e-3, True), (0.5, False)):
            reports = amplitude_scan(GaussianPulse(q0=0.01, tau=1.0), [0.01, 0.02], grid, PARAMS, tail_rel=tail_rel)
            assert [report.tail_warning for report in reports] == [flagged, flagged]
            assert list(reports) == sampled_amplitude_reports(
                GaussianPulse(q0=0.01, tau=1.0), [0.01, 0.02], grid, ("barton", "hb"), tail_rel=tail_rel
            )


def formula_reference(profile, t):
    """Each closed-form profile's q(t) as the allocating numpy expression it
    was before its formula wrote into caller-owned buffers: the bits the
    formula must keep."""
    if isinstance(profile, ExponentialRamp):
        out = np.zeros_like(t)
        pos = t > 0.0
        tp = t[pos]
        out[pos] = profile.gamma * tp * np.exp(-profile.eta * tp)
        return out
    if isinstance(profile, SymmetricRamp):
        return profile.gamma * t * np.exp(-profile.eta * np.abs(t))
    with np.errstate(over="ignore"):
        if isinstance(profile, GaussianPulse):
            return profile.q0 * np.exp(-((t / profile.tau) ** 2))
        return profile.charge**2 / (profile.d**2 + (profile.v * t) ** 2) ** 1.5


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


AMPLITUDES = st.floats(-1e3, 1e3)
RATES = st.floats(1e-3, 1e3)
CLOSED_FORM_PROFILES = st.one_of(
    st.builds(ExponentialRamp, gamma=AMPLITUDES, eta=RATES),
    st.builds(SymmetricRamp, gamma=AMPLITUDES, eta=RATES),
    st.builds(GaussianPulse, q0=AMPLITUDES, tau=RATES),
    st.builds(Flyby, charge=RATES, d=st.floats(1e-2, 1e3), v=RATES),
)
# zeros of both signs, subnormals, and |t| whose Gaussian and Flyby squares overflow to inf
EDGE_TIMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 1e200, -1e200, 1e300, -1e300]
TIMES = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300), st.sampled_from(EDGE_TIMES))


class TestOneFormulaPerProfile:
    """evaluate, sample and an eta scan's buffers all run a profile's one
    formula, and it keeps the bits of the expression it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(profile=CLOSED_FORM_PROFILES, times=st.lists(TIMES, min_size=1, max_size=40))
    @example(profile=ExponentialRamp(gamma=-2.5, eta=1.0), times=EDGE_TIMES + [-1.0, 1.0])
    @example(profile=GaussianPulse(q0=-1.0, tau=1e-3), times=EDGE_TIMES)
    @example(profile=Flyby(charge=1e3, d=1e-2, v=1e3), times=EDGE_TIMES)
    def test_evaluate_and_the_scan_buffers(self, profile, times):
        t = np.array(times)
        want = formula_reference(profile, t)
        assert_same_bits(profile.evaluate(t), want)
        for time, value in zip(times, want):
            assert_same_bits(np.array([profile.evaluate(time)]), np.array([value]))
        # the scan's buffers hold the previous point's values: all of them must be overwritten
        values, scratch = np.full((2, len(t) + 3), np.nan)
        profile._eval_array(t, values[: len(t)], scratch[: len(t)])
        assert_same_bits(values[: len(t)], want)

    @settings(max_examples=60, deadline=None)
    @given(
        profile=CLOSED_FORM_PROFILES,
        ends=st.lists(TIMES, min_size=2, max_size=2, unique=True),
        n=st.sampled_from([2, 3, 41, BLOCK_SAMPLES + 3]),
    )
    def test_sample(self, profile, ends, n):
        grid = TimeGrid(min(ends), max(ends), n)
        assert_same_bits(sample(profile, grid).values, formula_reference(profile, grid.times()))


def one_time_bytes(routes):
    """The buffers an eta scan allocates once: per first-order accumulator
    a block of pairs and a tile of integrand and trig, 3*tile + 2*block - 2
    floats, and a tile of the profile's values and scratch."""
    accumulators = 2 if "barton" in routes else 1
    block, tile = BLOCK_SAMPLES + 1, _TILE_PAIRS + 1
    return 8 * (accumulators * (3 * tile + 2 * block - 2) + 2 * tile)


class TestScanBuffers:
    @pytest.mark.parametrize("routes", [("hb",), ("barton", "hb")])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_the_block_loop_allocates_no_block_buffer(self, family, routes):
        """Beyond the buffers allocated once and each block's times from
        grid.times, a scan point of several blocks allocates less than a tile."""
        eta = 1e-3
        n = _ramp_grid(family, eta, np.pi / 32.0, 1e-12).n_samples
        assert n > 3 * BLOCK_SAMPLES + 1
        peak = traced_peak(adiabatic_scan, family, [eta], PARAMS, routes)
        times = 8 * (BLOCK_SAMPLES + 1)
        assert peak - one_time_bytes(routes) - times < 8 * _TILE_PAIRS
