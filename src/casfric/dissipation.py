"""Dissipated energy at T = 0 for the bilinearly coupled oscillator pair.

Two first-order routes are implemented side by side and must agree:

* time-domain route: I(inf) = -(i/2 hbar) * integral q(t) e^{2 i w t} dt,
  then dE = 8 hbar w b^2 |I(inf)|^2;
* spectral route:    b_1100 = -(1/i hbar) * A_1100 * qhat(-2w) with
  A_1100 = -b, then dE = (2 hbar w) * |b_1100|^2.

The two differ only in where the oscillatory factor is attached
(qhat(-2w) = 2 i hbar I(inf)); they share nothing but the raw sampled
signal, which keeps their agreement a meaningful consistency check.
Only |qhat| enters dE, so the sign convention of the transform argument
(fixed here to the literal -2w) cannot affect the result.

The single open channel at T = 0 is |00> -> |11> (one quantum in each
oscillator) with energy gap exactly 2 hbar w.
"""
from __future__ import annotations

import cmath
import itertools
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import oracle as _oracle
from .core import MAX_GRID_SAMPLES, PhysicalParams, TimeGrid, _finite_delta_e, ladder_factor
from .coupling import (
    CouplingProfile,
    CouplingSignal,
    ExponentialRamp,
    SymmetricRamp,
    _block_and_tile,
    _require_signal,
    _walk,
    _with_amplitude,
    sample,
)
from .errors import NumericalFailure, TailSpanError
from .spectral import _SpectralSum, fourier_numeric

__all__ = [
    "DissipationReport",
    "AdiabaticScanResult",
    "STRAINED_PROBABILITY",
    "ROUTES",
    "time_domain_amplitude",
    "delta_e_time_domain",
    "delta_e_spectral",
    "compare_routes",
    "amplitude_scan",
    "adiabatic_scan",
]

# Transition probability above which first-order perturbation theory is
# considered strained; a report flag, never an error.
STRAINED_PROBABILITY = 0.1

# Route token, as it appears in scenario configs, -> the DissipationReport
# field that holds its dE, in the order the routes run and fail.
_FIELDS = {
    "barton": "delta_e_time_domain",
    "hb": "delta_e_spectral",
    "mode_oracle": "delta_e_mode_oracle",
    "fock_oracle": "delta_e_fock_oracle",
}
ROUTES = tuple(_FIELDS)

_SPREAD_FLOOR = 1e-300

# |q| at a grid endpoint, relative to max|q|, above which a report has tail_warning.
TAIL_REL_DEFAULT = 1e-10

# The oracle options' defaults, in compare_routes, adiabatic_scan and the CLI.
_ORACLE_DEFAULTS = {"fock_truncation": 10, "fock_substeps": 4, "mode_substeps": 1}

# The default tail_rel of an eta scan, which builds grids wide enough for it.
SCAN_TAIL_REL_DEFAULT = 1e-12

# A scan solves each grid's span for this fraction of its tail_rel, so the
# endpoint samples sit safely below the threshold, not on it.
_SCAN_TAIL_FACTOR = 0.1


class _TimeDomainSum:
    """I(inf) = -(i/2 hbar) * trapezoid of q(t) e^{2 i w t}, fed by coupling._walk.

    Its pair buffer holds a block of up to ``size`` samples, its integrand
    and trig buffers a tile of ``tile``: one allocation of 3*tile +
    2*size - 2 floats, ``work`` if given.  ``reset`` starts the amplitude
    over a grid, so one instance serves every grid of an eta scan.
    """

    def __init__(self, params: PhysicalParams, size: int, tile: int, work=None):
        self.hbar = params.hbar
        self.w = 2.0 * params.omega  # 2j*omega*t has imaginary part w*t, bit for bit
        work = np.empty(3 * tile + 2 * size - 2) if work is None else work
        self.integrand = work[: 2 * tile].view(np.complex128)
        self.pairs = work[2 * tile : 2 * tile + 2 * size - 2].view(np.complex128)
        self.trig = work[2 * tile + 2 * size - 2 :]

    def reset(self, grid: TimeGrid) -> None:
        """Start a new amplitude over ``grid``."""
        self.dt, self.value = grid.dt, 0j

    def fill(self, times: np.ndarray, block: np.ndarray, at: int) -> None:
        """Write the trapezoid pairs of ``block``, sampled at ``times``, to
        the pair buffer from pair ``at`` on; both arrays are only read."""
        n = len(block)
        cos_sin, y, pair = self.trig[:n], self.integrand[:n], self.pairs[at : at + n - 1]
        phase = self.pairs[at:].view(np.float64)[:n]  # these pairs are free until they are written
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused by total
            np.multiply(times, self.w, out=phase)
            np.multiply(block, np.cos(phase, out=cos_sin), out=y.real)
            np.multiply(block, np.sin(phase, out=cos_sin), out=y.imag)
            np.add(y[1:], y[:-1], out=pair)
            pair_real = pair.view(np.float64)
            pair_real *= self.dt
            pair_real *= 0.5

    def add_pairs(self, count: int) -> None:
        """Add the sum of the first ``count`` pairs, a block's, to the trapezoid."""
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused by total
            self.value += self.pairs[:count].sum()

    def total(self) -> complex:
        """I(inf); OverflowError if the sum or its scaling by -i/(2 hbar) is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum stays non-finite
            amplitude = -0.5j / self.hbar * self.value
        if not cmath.isfinite(amplitude):
            raise OverflowError("the time-domain quadrature overflowed")
        return complex(amplitude)


def time_domain_amplitude(signal: CouplingSignal, params: PhysicalParams) -> complex:
    """I(inf) = -(i/2 hbar) * integral q(t) e^{2 i w t} dt over the grid.

    Trapezoidal quadrature in the time domain, deliberately independent
    of the spectral module but for coupling._walk, which delivers the
    samples of each block of BLOCK_SAMPLES intervals in tiles: the working
    set is tile-sized integrand and trig buffers and one block's pairs.

    The phase 2*w*t is the imaginary part of the argument np.exp(2j*w*t)
    would take; q*cos goes into the real part and q*sin into the
    imaginary part of the integrand tile.  libm's cexp of a zero real
    part returns that same cos and sin, so every term is the one
    q*np.exp(...) gives, and, cos being even and sin odd in libm, the
    integrand at -w would still be its exact conjugate.  The trapezoid
    runs in place: pair sum, times dt, times 0.5 and one pairwise sum per
    block, np.trapezoid's terms and order, so a grid of one block gives
    the bits of a single trapezoid call.  A ``signal`` that is not a
    CouplingSignal raises TypeError, a NaN or infinite sample ValueError;
    a sum, or its scaling by -i/(2 hbar), that overflows raises
    OverflowError instead of returning inf or nan.
    """
    _require_signal(signal, "time_domain_amplitude")
    amplitude = _TimeDomainSum(params, *_block_and_tile(signal.grid.n_samples))
    _walk(signal.grid, signal, [amplitude])
    return amplitude.total()


def _delta_e_barton(amplitude: complex, params: PhysicalParams) -> float:
    """dE = 8 hbar w (b |I(inf)|)^2 from the time-domain amplitude I(inf)."""
    delta_e = 8.0 * params.hbar * params.omega * (ladder_factor(params) * abs(amplitude)) ** 2
    return _finite_delta_e(delta_e, "time-domain")


def delta_e_time_domain(signal: CouplingSignal, params: PhysicalParams) -> float:
    """dE = 8 hbar w (b |I(inf)|)^2 from the time-domain amplitude.

    b is squared with |I| and not alone: for a small hbar, b^2 underflows
    while |I|^2, which goes as 1/hbar^2, overflows.  A ``signal`` that is
    not a CouplingSignal raises TypeError; a dE that still overflows raises
    OverflowError.
    """
    _require_signal(signal, "delta_e_time_domain")
    return _delta_e_barton(time_domain_amplitude(signal, params), params)


def delta_e_spectral(signal: CouplingSignal, params: PhysicalParams) -> float:
    """dE = (2 hbar w) * B_1100 with B_1100 = (b^2/hbar^2) |qhat(-2w)|^2.

    The transition sum dE = sum_nm (E_n - E_m) P_m B_nm at T = 0, with its
    one open channel |00> -> |11> and A_1100 = <11| -y1*y2 |00> = -b.

    ``signal`` is a CouplingSignal, as for every other route; anything
    else raises TypeError (closed forms are fourier_analytic's).  qhat
    comes from the spectral module, never from the time-domain amplitude.
    A dE that overflows raises OverflowError.
    """
    _require_signal(signal, "delta_e_spectral")
    return _delta_e_hb(fourier_numeric(signal, -2.0 * params.omega), params)


def _delta_e_hb(qhat: complex, params: PhysicalParams) -> float:
    """dE = (2 hbar w) |b_1100|^2 from qhat(-2w)."""
    b_1100 = (-1.0 / (1j * params.hbar)) * -ladder_factor(params) * qhat
    return _finite_delta_e(2.0 * params.hbar * params.omega * abs(b_1100) ** 2, "spectral")


@dataclass(frozen=True)
class DissipationReport:
    """dE from each requested route plus agreement and validity numbers, off which its flags are read."""

    delta_e_time_domain: Optional[float]
    delta_e_spectral: Optional[float]
    delta_e_mode_oracle: Optional[float]
    delta_e_fock_oracle: Optional[float]
    relative_spread: float
    transition_probability: float  # hb's B_1100 = dE/(2 hbar w)
    grid: TimeGrid
    tail_ratio: float  # max(|q(t0)|, |q(t1)|)/max|q| on grid, 0.0 for q = 0
    tail_rel: float  # the threshold tail_warning tests tail_ratio against

    @property
    def validity_flag(self) -> bool:
        """B_1100 above STRAINED_PROBABILITY: first-order theory is strained."""
        return self.transition_probability > STRAINED_PROBABILITY

    @property
    def tail_warning(self) -> bool:
        """|q| at a grid endpoint above tail_rel * max|q|: the states there are not free."""
        return self.tail_ratio > self.tail_rel

    def populated(self) -> dict:
        """Route token -> dE for the routes that ran."""
        values = ((token, getattr(self, field)) for token, field in _FIELDS.items())
        return {token: value for token, value in values if value is not None}


def _relative_spread(values: Sequence[float]) -> float:
    pairs = itertools.combinations(values, 2)
    return max((abs(a - b) / max(abs(a), abs(b), _SPREAD_FLOOR) for a, b in pairs), default=0.0)


def _check_routes(routes: Sequence[str]) -> None:
    if isinstance(routes, str):
        raise TypeError(f"routes is a sequence of route tokens such as ('hb',), not the string {routes!r}")
    if not routes:
        raise ValueError("at least one route must be selected")
    for i, route in enumerate(routes):
        if route not in ROUTES:
            raise ValueError(f"unknown route {route!r} at routes[{i}]; valid tokens are {list(ROUTES)}")


def _check_budget(routes, grid: TimeGrid, fock_truncation, fock_substeps, mode_substeps) -> None:
    if "mode_oracle" in routes:
        _oracle._substeps(grid, mode_substeps)
    if "fock_oracle" in routes:
        _oracle._substeps(grid, fock_substeps, fock_truncation)


@contextmanager
def _overflow_fails(route: str):
    """Report a float overflow inside a route as a NumericalFailure naming it."""
    try:
        yield
    except OverflowError as exc:
        raise NumericalFailure(f"{route}: float overflow") from exc


class _RoutePass:
    """``run`` feeds hb's transform (always: it gives B_1100) and, if
    selected, barton's amplitude by one coupling._walk, and keeps the tail
    ratio; ``report`` adds the selected oracles and builds the report.

    The sums' workspaces and the walk's tile buffers for a profile
    (untouched for a signal on its own grid) share one allocation, made
    once for grids of up to ``largest``'s samples if each selected
    oracle's run fits the budget.
    """

    def __init__(self, params, routes, largest, fock_truncation, fock_substeps, mode_substeps):
        _check_budget(routes, largest, fock_truncation, fock_substeps, mode_substeps)
        self.params, self.routes = params, routes
        self.fock_truncation, self.fock_substeps, self.mode_substeps = fock_truncation, fock_substeps, mode_substeps
        size, tile = _block_and_tile(largest.n_samples)
        stride = 3 * tile + 2 * size - 2
        sums = 2 if "barton" in routes else 1
        work = np.empty(sums * stride + 2 * tile)
        self.transform = _SpectralSum(-2.0 * params.omega, size, tile, work[:stride])
        self.amplitude = _TimeDomainSum(params, size, tile, work[stride : 2 * stride]) if sums == 2 else None
        self.buffers = work[sums * stride :].reshape(2, tile)

    def run(self, grid: TimeGrid, source) -> float:
        """Walk ``source``, any profile, a CouplingSignal included, on ``grid``, and
        keep and return its tail ratio max(|q(t0)|, |q(t1)|)/max|q|, 0.0 for q = 0."""
        sums = [self.transform] if self.amplitude is None else [self.transform, self.amplitude]
        first, last, q_min, q_max = _walk(grid, source, sums, self.buffers)
        peak = max(q_max, -q_min)
        self.tail_ratio = float(max(abs(first), abs(last)) / peak) if peak > 0.0 else 0.0
        return self.tail_ratio

    def report(self, grid: TimeGrid, source, tail_rel: float) -> DissipationReport:
        """The report of the last ``run`` at ``tail_rel``; routes fail in _FIELDS'
        order, and the oracles sample ``source`` on ``grid`` once, here, unless it
        is a CouplingSignal on ``grid``."""
        params, routes = self.params, self.routes
        delta_e = {}
        if self.amplitude is not None:
            with _overflow_fails("barton"):
                delta_e["barton"] = _delta_e_barton(self.amplitude.total(), params)
        with _overflow_fails("hb"):
            de_hb = _delta_e_hb(self.transform.total(), params)
        if "hb" in routes:
            delta_e["hb"] = de_hb
        if "mode_oracle" in routes or "fock_oracle" in routes:
            signal = source if isinstance(source, CouplingSignal) and source.grid == grid else sample(source, grid)
        if "mode_oracle" in routes:
            with _overflow_fails("mode_oracle"):
                pairs = _oracle._evolve_modes(signal, params, (+1, -1), self.mode_substeps)
                delta_e["mode_oracle"] = _oracle.delta_e_modes(*pairs, params)
        if "fock_oracle" in routes:
            with _overflow_fails("fock_oracle"):
                state = _oracle.evolve_fock(signal, params, self.fock_truncation, self.fock_substeps)
                delta_e["fock_oracle"] = _oracle.delta_e_fock(state, params)
        return DissipationReport(
            **{field: delta_e.get(token) for token, field in _FIELDS.items()},
            relative_spread=_relative_spread(list(delta_e.values())),
            transition_probability=de_hb / (2.0 * params.hbar * params.omega),
            grid=grid,
            tail_ratio=self.tail_ratio,
            tail_rel=tail_rel,
        )


def _run_points(params, routes, points, tail_rel, fock_truncation, fock_substeps, mode_substeps, refuse_tails=False):
    """The report of each (profile, grid) of ``points``, from one route pass sized
    on their largest grid, so an oracle run over the work budget is refused
    before any point runs.  With ``refuse_tails`` (an eta scan) a point whose
    tail ratio exceeds ``tail_rel`` raises TailSpanError before any total is read."""
    largest = max((grid for _, grid in points), key=lambda grid: grid.n_samples)
    route_pass = _RoutePass(params, routes, largest, fock_truncation, fock_substeps, mode_substeps)
    reports = []
    for profile, grid in points:
        if route_pass.run(grid, profile) > tail_rel and refuse_tails:
            raise TailSpanError(f"grid span insufficient for eta={profile.eta:g}: coupling tails above "
                                f"{tail_rel:g} of peak")
        reports.append(route_pass.report(grid, profile, tail_rel))
    return tuple(reports)


def compare_routes(
    signal: CouplingSignal,
    params: PhysicalParams,
    routes: Sequence[str] = ("barton", "hb"),
    fock_truncation: int = _ORACLE_DEFAULTS["fock_truncation"],
    fock_substeps: int = _ORACLE_DEFAULTS["fock_substeps"],
    mode_substeps: int = _ORACLE_DEFAULTS["mode_substeps"],
    tail_rel: float = TAIL_REL_DEFAULT,
) -> DissipationReport:
    """Run the selected routes on one shared signal and collect a report.

    Route tokens: "barton" (time-domain), "hb" (spectral), "mode_oracle"
    (Bogoliubov mode functions), "fock_oracle" (truncated number basis).
    Whichever routes run, the report holds hb's transition probability
    B_1100 = dE/(2 hbar w), above 0.1 of which validity_flag is set, and
    the tail ratio max(|q(t0)|, |q(t1)|)/max|q| with ``tail_rel``, which
    must lie in (0, 1): tail_warning is set when the ratio exceeds it (the
    incoming or outgoing state is not free).  One route pass takes both
    first-order routes and the tail ratio over the signal's blocks, then
    the oracles.  A ``signal`` that is not a CouplingSignal raises
    TypeError; a float overflow inside a route is raised as a
    NumericalFailure naming it.  A selected oracle whose run is over the
    work budget, about a minute of steps, is a ValueError before any
    route runs.  The oracles refuse what RK4 cannot resolve:
    the mode oracle a step past RK4's stability limit (a NumericalFailure,
    before it integrates), and each oracle a drift of its invariant, the
    Bogoliubov normalization or the Fock norm, above 1e-6 (NormDriftError);
    more ``mode_substeps`` or ``fock_substeps`` resolve them.
    """
    _require_signal(signal, "compare_routes")
    _check_routes(routes)
    _check_tail_rel(tail_rel)
    return _run_points(params, routes, [(signal, signal.grid)], tail_rel, fock_truncation, fock_substeps,
                       mode_substeps)[0]


def amplitude_scan(
    family: CouplingProfile,
    amplitudes: Sequence[float],
    grid: TimeGrid,
    params: PhysicalParams,
    routes: Sequence[str] = ("barton", "hb"),
    tail_rel: float = TAIL_REL_DEFAULT,
    fock_truncation: int = _ORACLE_DEFAULTS["fock_truncation"],
    fock_substeps: int = _ORACLE_DEFAULTS["fock_substeps"],
    mode_substeps: int = _ORACLE_DEFAULTS["mode_substeps"],
) -> tuple:
    """One DissipationReport on ``grid`` per amplitude of ``family``.

    ``family`` is a ramp, whose gamma is set to each amplitude, or a
    GaussianPulse, whose q0 is; any other profile, a CouplingSignal
    included, has no amplitude and is a TypeError.  No amplitudes, bad
    routes and a tail_rel outside (0, 1) are refused as well, all before
    anything runs.  Each report is that of compare_routes on the sampled
    grid, bit for bit, from one route pass sized on ``grid``, so a selected
    oracle over the work budget is refused before any point is walked or
    sampled.  Every point's walk evaluates its profile into the pass's tile
    buffers, so the first-order routes hold O(BLOCK_SAMPLES) whatever the
    grid; with an oracle route the point then samples the grid once, for
    the oracles only.  Each report's tail_ratio, tail_rel and flags, the
    oracle options and the refusals are those of compare_routes.
    """
    _check_routes(routes)
    _check_tail_rel(tail_rel)
    if len(amplitudes) == 0:
        raise ValueError("amplitudes must be a nonempty sequence")
    points = [(_with_amplitude(family, amplitude), grid) for amplitude in amplitudes]
    return _run_points(params, routes, points, tail_rel, fock_truncation, fock_substeps, mode_substeps)


def _check_tail_rel(tail_rel: float, factor: Optional[float] = None) -> None:
    """Refuse a tail_rel outside (0, 1) and, given ``factor``, one for which
    ramp_tail_span(eta, factor*tail_rel) has no span.

    The message quotes ``tail_rel`` itself, so a scan, which solves for
    _SCAN_TAIL_FACTOR of its tail_rel, names the value it was given.
    """
    if not 0.0 < tail_rel < 1.0:
        raise ValueError(f"tail_rel must be in (0, 1), got {tail_rel!r}")
    # below the smallest normal float the W_-1 iteration can divide by zero
    if factor is not None and factor * tail_rel / math.e < sys.float_info.min:
        floor = sys.float_info.min * math.e / factor
        raise ValueError(f"tail_rel={tail_rel!r} is too small: the span solve needs at least ~{floor:.3g}")


def ramp_tail_span(eta: float, tail_rel: float) -> float:
    """Smallest T with |q(T)| <= tail_rel * max|q| for a ramp of rate eta.

    For q ~ t e^{-eta t} the peak sits at t = 1/eta, so the condition is
    x e^{-x} = tail_rel/e with x = eta*T, i.e. x = -W_{-1}(-tail_rel/e)
    on the lower real branch of the Lambert W function.  Solved by
    Halley's iteration (Corless et al., Adv. Comput. Math. 5, 1996, eq.
    5.9) from w = log(-z), with the same start, step and stopping rule
    as scipy.special.lambertw(z, -1), so the span is bit-identical to it.
    """
    _check_tail_rel(tail_rel, 1.0)
    z = -tail_rel / math.e
    w = math.log(-z)
    for _ in range(100):
        ew = math.exp(w)
        wew = w * ew
        wewz = wew - z
        wn = w - wewz / (wew + ew - (w + 2.0) * wewz / (2.0 * w + 2.0))
        if abs(wn - w) <= 1e-8 * abs(wn):
            return -wn / eta
        w = wn
    raise NumericalFailure(f"the W_-1 iteration did not converge for tail_rel={tail_rel!r}")


def _check_scan(family: CouplingProfile, etas: Sequence[float], dt: Optional[float]) -> None:
    """Refuse a family that is not a ramp (TypeError), no etas, an eta that is not positive or
    repeats one (a slope needs distinct etas), and a ``dt`` given but not finite and positive."""
    if not isinstance(family, (SymmetricRamp, ExponentialRamp)):
        raise TypeError(f"adiabatic scans take a ramp family, got {type(family).__name__}")
    if len(etas) == 0:
        raise ValueError("etas must be a nonempty sequence of positive rates")
    for i, eta in enumerate(etas):
        if not eta > 0.0:
            raise ValueError(f"etas[{i}] must be positive, got {eta!r}")
        if eta in etas[:i]:
            raise ValueError(f"etas[{i}] repeats {eta!r}; a slope needs distinct etas")
    if dt is not None and not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")


def _ramp_grid(profile, eta: float, dt: float, tail_rel: float) -> TimeGrid:
    span = ramp_tail_span(eta, _SCAN_TAIL_FACTOR * tail_rel)
    t_start = -span if isinstance(profile, SymmetricRamp) else 0.0
    intervals = np.ceil((span - t_start) / dt)  # inf for a tiny eta or dt
    if not intervals < MAX_GRID_SAMPLES:
        raise ValueError(f"eta={eta:g} needs a grid of {intervals + 1:.0f} samples, above the budget of "
                         f"{MAX_GRID_SAMPLES}; raise eta or dt")
    return TimeGrid(t_start, span, int(intervals) + 1)


def _scan_grids(family, etas, params: PhysicalParams, dt: Optional[float], tail_rel: float) -> list:
    """(profile, grid) of each eta of a scan of ``family``, at ``dt`` or 32 samples per cycle of 2*omega."""
    dt = np.pi / (32.0 * params.omega) if dt is None else dt
    if not math.isfinite(dt):  # the default, for a subnormal omega; _check_scan refuses any other
        raise ValueError(f"the default dt pi/(32*omega) overflows for omega={params.omega!r}; set dt (scan.dt)")
    return [(replace(family, eta=eta), _ramp_grid(family, eta, dt, tail_rel)) for eta in map(float, etas)]


@dataclass(frozen=True, eq=False)
class AdiabaticScanResult:
    """dE(eta) over a switching-rate scan, with log-log slope fits.

    delta_e_times_eta is the dissipation per decay time (the coupling
    acts over ~1/eta), which separates genuine slow-switching friction
    from the abrupt-start artefact: for the smooth symmetric ramp dE
    itself vanishes as eta^2, while for the abrupt ramp dE tends to a
    nonzero constant and only dE*eta vanishes.
    """

    etas: np.ndarray
    delta_e: np.ndarray
    delta_e_times_eta: np.ndarray
    slope_delta_e: float
    slope_delta_e_times_eta: float
    reports: tuple


def adiabatic_scan(
    family: CouplingProfile,
    etas: Sequence[float],
    params: PhysicalParams,
    routes: Sequence[str] = ("barton", "hb"),
    dt: Optional[float] = None,
    tail_rel: float = SCAN_TAIL_REL_DEFAULT,
    fock_truncation: int = _ORACLE_DEFAULTS["fock_truncation"],
    fock_substeps: int = _ORACLE_DEFAULTS["fock_substeps"],
    mode_substeps: int = _ORACLE_DEFAULTS["mode_substeps"],
) -> AdiabaticScanResult:
    """Scan dE over switching rates for a ramp family with gamma fixed.

    ``family`` is a SymmetricRamp or ExponentialRamp whose eta is replaced
    per scan point; each point gets its own grid, widened as 1/eta so the
    ramp tails decay below ``tail_rel`` of the peak coupling.  ``dt``
    defaults to 32 samples per cycle of the 2*omega transition line.
    Every grid is sized before any point runs, so a point above
    MAX_GRID_SAMPLES, or whose oracle run is over the work budget, is
    refused first.  Each point's reports are those of compare_routes on
    the sampled grid, bit for bit, from one route pass allocated for the
    whole scan.  Every point's walk evaluates its ramp into the pass's
    tile buffers, so the first-order routes hold O(BLOCK_SAMPLES)
    whatever eta; with an oracle route the point then samples its grid
    once, for the oracles only.  The oracle options and their defaults
    are those of compare_routes, and so are the oracles' refusals.  A
    point's grid widens as 1/eta and so does the oracles' RK4 error: at
    the default dt, one mode substep leaves a Bogoliubov defect of 4.3e-6
    already at eta = 2 (symmetric ramp), which raises NormDriftError, and
    two resolve eta = 0.5.  A point whose tail ratio exceeds ``tail_rel``
    raises TailSpanError before any route's total is read, so each report
    holds a tail_ratio at most its tail_rel and no report has tail_warning.
    """
    etas = np.asarray(list(etas), dtype=float)
    _check_scan(family, etas.tolist(), dt)
    _check_tail_rel(tail_rel, _SCAN_TAIL_FACTOR)
    _check_routes(routes)

    points = _scan_grids(family, etas, params, dt, tail_rel)
    reports = _run_points(params, routes, points, tail_rel, fock_truncation, fock_substeps, mode_substeps,
                          refuse_tails=True)
    return _fit(etas, reports, routes)


def _fit(etas, reports, routes) -> AdiabaticScanResult:
    """The scan result of an eta scan's ``reports`` at ``etas``: its dE is hb's
    where it ran, else barton's, else an oracle's, with dE*eta and both slopes."""
    etas = np.asarray(etas, dtype=float)
    token = next(token for token in ("hb", "barton", "mode_oracle", "fock_oracle") if token in routes)
    delta_e = np.array([report.populated()[token] for report in reports])
    with np.errstate(over="ignore"):  # a product that overflows has no slope and is null in the JSON
        delta_e_times_eta = delta_e * etas
    return AdiabaticScanResult(
        etas=etas,
        delta_e=delta_e,
        delta_e_times_eta=delta_e_times_eta,
        slope_delta_e=_log_log_slope(etas, delta_e),
        slope_delta_e_times_eta=_log_log_slope(etas, delta_e_times_eta),
        reports=tuple(reports),
    )


def _log_log_slope(etas: np.ndarray, values: np.ndarray) -> float:
    """Slope of log(values) on log(etas); NaN, without a warning, for one point,
    a value <= 0, or etas too close for the fit to have rank 2."""
    if len(etas) < 2 or not np.all(values > 0.0):
        return float("nan")
    # full=True returns the rank instead of warning on a rank-deficient fit
    (slope, _), _, rank, _, _ = np.polyfit(np.log(etas), np.log(values), 1, full=True)
    return float("nan") if rank < 2 else float(slope)
