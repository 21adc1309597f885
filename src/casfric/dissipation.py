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

import math
import sys
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from . import oracle as _oracle
from .core import BLOCK_SAMPLES, MAX_GRID_SAMPLES, PhysicalParams, TimeGrid, ladder_factor
from .coupling import CouplingProfile, CouplingSignal, ExponentialRamp, SymmetricRamp, sample
from .errors import NumericalFailure, TailSpanError
from .spectral import TAIL_REL_DEFAULT, _transform, tails_resolved

__all__ = [
    "TransitionAmplitude",
    "DissipationReport",
    "AdiabaticScanResult",
    "STRAINED_PROBABILITY",
    "ROUTES",
    "time_domain_amplitude",
    "delta_e_time_domain",
    "interaction_matrix_element",
    "spectral_transition_coefficient",
    "delta_e_spectral",
    "dissipation_from_transitions",
    "compare_routes",
    "adiabatic_scan",
]

# Transition probability above which first-order perturbation theory is
# considered strained; a report flag, never an error.
STRAINED_PROBABILITY = 0.1

# Route tokens, as they appear in scenario configs and report columns.
ROUTES = ("barton", "hb", "mode_oracle", "fock_oracle")

_SPREAD_FLOOR = 1e-300

# A scan solves each grid's span for this fraction of its tail_rel, so the
# endpoint samples sit safely below the threshold, not on it.
_SCAN_TAIL_FACTOR = 0.1


@dataclass(frozen=True)
class TransitionAmplitude:
    """First-order amplitude connecting two unperturbed states."""

    from_state: tuple
    to_state: tuple
    amplitude: complex

    @property
    def probability(self) -> float:
        return abs(self.amplitude) ** 2

    @property
    def perturbation_strained(self) -> bool:
        """Transition probability large enough to strain first order."""
        return self.probability > STRAINED_PROBABILITY


def time_domain_amplitude(signal: CouplingSignal, params: PhysicalParams) -> complex:
    """I(inf) = -(i/2 hbar) * integral q(t) e^{2 i w t} dt over the grid.

    Trapezoidal quadrature in the time domain, deliberately independent
    of the spectral module.  Blocks of BLOCK_SAMPLES intervals, each
    sharing its end sample with the next, keep the working set
    O(BLOCK_SAMPLES); a grid of one block is a single trapezoid call.
    """
    grid, q = signal.grid, signal.values
    value = 0j
    for lo in range(0, grid.n_samples - 1, BLOCK_SAMPLES):
        hi = min(lo + BLOCK_SAMPLES + 1, grid.n_samples)
        phase = np.exp(2j * params.omega * grid.times(lo, hi))
        value += np.trapezoid(q[lo:hi] * phase, dx=grid.dt)
    return complex(-0.5j / params.hbar * value)


def delta_e_time_domain(signal: CouplingSignal, params: PhysicalParams) -> float:
    """dE = 8 hbar w b^2 |I(inf)|^2 from the time-domain amplitude."""
    b = ladder_factor(params)
    amp = time_domain_amplitude(signal, params)
    return 8.0 * params.hbar * params.omega * b**2 * abs(amp) ** 2


def interaction_matrix_element(params: PhysicalParams) -> float:
    """<11| -y1*y2 |00> = -<1|y|0>^2 = -b; always strictly negative."""
    return -ladder_factor(params)


def spectral_transition_coefficient(qhat_at_minus_2omega: complex, params: PhysicalParams) -> complex:
    """b_1100 = -(1/i hbar) * A_1100 * qhat(-2w), the ground -> |11> amplitude."""
    return (-1.0 / (1j * params.hbar)) * interaction_matrix_element(params) * qhat_at_minus_2omega


def delta_e_spectral(source, params: PhysicalParams, tail_rel: float = TAIL_REL_DEFAULT) -> float:
    """dE = (2 hbar w) * B_1100 with B_1100 = (b^2/hbar^2) |qhat(-2w)|^2.

    ``source`` is a CouplingSignal (numeric transform) or a closed-form
    profile (analytic transform).  Computed through the spectral module,
    never through the time-domain amplitude.
    """
    qhat = _transform(source, -2.0 * params.omega, tail_rel).value
    b_1100 = spectral_transition_coefficient(qhat, params)
    return 2.0 * params.hbar * params.omega * abs(b_1100) ** 2


def dissipation_from_transitions(
    levels: Sequence[tuple],
    occupation: Mapping,
    amplitudes: Sequence[TransitionAmplitude],
) -> float:
    """General transition sum dE = sum_nm (E_n - E_m) P_m B_nm.

    ``levels`` pairs each state label with its unperturbed energy;
    ``occupation`` maps state labels to probabilities (sum to one within
    1e-12).  At T = 0 the ground state carries probability one and, with
    the single open channel |00> -> |11>, the sum reduces to
    (2 hbar w) * B_1100.
    """
    energies = dict(levels)
    probs = dict(occupation)
    for state, p in probs.items():
        if p < 0.0:
            raise ValueError(f"negative occupation probability for state {state!r}: {p}")
        if state not in energies:
            raise ValueError(f"occupation references unknown state {state!r}")
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"occupation probabilities sum to {total!r}, expected 1")
    delta_e = 0.0
    for amp in amplitudes:
        if amp.from_state not in energies or amp.to_state not in energies:
            raise ValueError(f"transition {amp.from_state!r} -> {amp.to_state!r} uses unknown states")
        gap = energies[amp.to_state] - energies[amp.from_state]
        delta_e += gap * probs.get(amp.from_state, 0.0) * amp.probability
    return delta_e


@dataclass(frozen=True)
class DissipationReport:
    """dE from each requested route plus agreement and validity metadata."""

    delta_e_time_domain: Optional[float]
    delta_e_spectral: Optional[float]
    delta_e_mode_oracle: Optional[float]
    delta_e_fock_oracle: Optional[float]
    relative_spread: float
    validity_flag: bool
    grid: TimeGrid
    tail_warning: bool

    def populated(self) -> dict:
        """Route token -> dE for the routes that ran."""
        pairs = (
            ("barton", self.delta_e_time_domain),
            ("hb", self.delta_e_spectral),
            ("mode_oracle", self.delta_e_mode_oracle),
            ("fock_oracle", self.delta_e_fock_oracle),
        )
        return {token: value for token, value in pairs if value is not None}


def _relative_spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    spread = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            scale = max(abs(values[i]), abs(values[j]), _SPREAD_FLOOR)
            spread = max(spread, abs(values[i] - values[j]) / scale)
    return spread


def compare_routes(
    signal: CouplingSignal,
    params: PhysicalParams,
    routes: Sequence[str] = ("barton", "hb"),
    fock_truncation: int = 10,
    fock_substeps: int = 4,
    mode_substeps: int = 1,
    tail_rel: float = TAIL_REL_DEFAULT,
) -> DissipationReport:
    """Run the selected routes on one shared signal and collect a report.

    Route tokens: "barton" (time-domain), "hb" (spectral), "mode_oracle"
    (Bogoliubov mode functions), "fock_oracle" (truncated number basis).
    The perturbative-validity flag is always evaluated, whichever routes
    run, from the transition probability B_1100.
    """
    unknown = [r for r in routes if r not in ROUTES]
    if unknown:
        raise ValueError(f"unknown routes {unknown}; valid tokens are {list(ROUTES)}")
    if not routes:
        raise ValueError("at least one route must be selected")

    de_time = delta_e_time_domain(signal, params) if "barton" in routes else None
    de_spec = delta_e_spectral(signal, params, tail_rel) if "hb" in routes else None

    de_mode = None
    if "mode_oracle" in routes:
        pair_plus = _oracle.evolve_mode(signal, params, +1, substeps=mode_substeps)
        pair_minus = _oracle.evolve_mode(signal, params, -1, substeps=mode_substeps)
        de_mode = _oracle.delta_e_modes(pair_plus, pair_minus, params)

    de_fock = None
    if "fock_oracle" in routes:
        state = _oracle.evolve_fock(signal, params, fock_truncation, fock_substeps)
        de_fock = _oracle.delta_e_fock(state, params)

    # B_1100 = dE/(2 hbar w) of the spectral route; reuse it when it ran.
    de_for_validity = de_spec if de_spec is not None else delta_e_spectral(signal, params, tail_rel)
    b_1100_probability = de_for_validity / (2.0 * params.hbar * params.omega)

    populated = [v for v in (de_time, de_spec, de_mode, de_fock) if v is not None]
    return DissipationReport(
        delta_e_time_domain=de_time,
        delta_e_spectral=de_spec,
        delta_e_mode_oracle=de_mode,
        delta_e_fock_oracle=de_fock,
        relative_spread=_relative_spread(populated),
        validity_flag=b_1100_probability > STRAINED_PROBABILITY,
        grid=signal.grid,
        tail_warning=not tails_resolved(signal, tail_rel),
    )


def _check_tail_rel(tail_rel: float, factor: float = 1.0) -> None:
    """Refuse a tail_rel for which ramp_tail_span(eta, factor*tail_rel) has no span.

    The message quotes ``tail_rel`` itself, so a scan, which solves for
    _SCAN_TAIL_FACTOR of its tail_rel, names the value it was given.
    """
    if not 0.0 < tail_rel < 1.0:
        raise ValueError(f"tail_rel must be in (0, 1), got {tail_rel!r}")
    # below the smallest normal float the W_-1 iteration can divide by zero
    if factor * tail_rel / math.e < sys.float_info.min:
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
    _check_tail_rel(tail_rel)
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


def _ramp_grid(profile, eta: float, dt: float, tail_rel: float) -> TimeGrid:
    span = ramp_tail_span(eta, _SCAN_TAIL_FACTOR * tail_rel)
    t_start = -span if isinstance(profile, SymmetricRamp) else 0.0
    n = int(np.ceil((span - t_start) / dt)) + 1
    if n > MAX_GRID_SAMPLES:
        raise ValueError(
            f"eta={eta:g} needs a grid of {n} samples, above the budget of "
            f"{MAX_GRID_SAMPLES}; raise eta or dt"
        )
    return TimeGrid(t_start, span, n)


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
    tail_rel: float = 1e-12,
    **route_options,
) -> AdiabaticScanResult:
    """Scan dE over switching rates for a ramp family with gamma fixed.

    ``family`` is a SymmetricRamp or ExponentialRamp whose eta is replaced
    per scan point; each point gets its own grid, widened as 1/eta so the
    ramp tails decay below ``tail_rel`` of the peak coupling.  ``dt``
    defaults to 32 samples per cycle of the 2*omega transition line.
    Every grid is sized before any is sampled, so a scan point above
    MAX_GRID_SAMPLES is refused before the scan runs.
    """
    if not isinstance(family, (SymmetricRamp, ExponentialRamp)):
        raise TypeError(f"adiabatic scans take a ramp family, got {type(family).__name__}")
    etas = np.asarray(list(etas), dtype=float)
    if len(etas) == 0 or np.any(etas <= 0.0):
        raise ValueError("etas must be a nonempty sequence of positive rates")
    _check_tail_rel(tail_rel, _SCAN_TAIL_FACTOR)
    if dt is None:
        dt = np.pi / (32.0 * params.omega)
    elif not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")

    profiles = [replace(family, eta=float(eta)) for eta in etas]
    grids = [_ramp_grid(profile, profile.eta, dt, tail_rel) for profile in profiles]
    reports = []
    for profile, grid in zip(profiles, grids):
        signal = sample(profile, grid)
        if not tails_resolved(signal, tail_rel):
            raise TailSpanError(
                f"grid span insufficient for eta={profile.eta:g}: coupling tails above {tail_rel:g} of peak"
            )
        reports.append(compare_routes(signal, params, routes=routes, tail_rel=tail_rel, **route_options))
        del signal  # so no two points' samples are held at once

    def pick(report: DissipationReport) -> float:
        populated = report.populated()
        for token in ("hb", "barton", "mode_oracle", "fock_oracle"):
            if token in populated:
                return populated[token]
        raise ValueError("no route produced a value")

    delta_e = np.array([pick(r) for r in reports])
    delta_e_times_eta = delta_e * etas
    if len(etas) >= 2:
        slope = float(np.polyfit(np.log(etas), np.log(delta_e), 1)[0])
        slope_times_eta = float(np.polyfit(np.log(etas), np.log(delta_e_times_eta), 1)[0])
    else:
        slope = slope_times_eta = float("nan")  # a slope needs >= 2 scan points
    return AdiabaticScanResult(
        etas=etas,
        delta_e=delta_e,
        delta_e_times_eta=delta_e_times_eta,
        slope_delta_e=slope,
        slope_delta_e_times_eta=slope_times_eta,
        reports=tuple(reports),
    )
