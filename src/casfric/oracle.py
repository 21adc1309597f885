"""Non-perturbative reference computations.

Two structurally independent oracles guard the perturbative routes:

* exact mode-function evolution of the +- normal modes, which for this
  quadratic Hamiltonian is equivalent to a Bogoliubov transformation:
  f'' + Omega_pm(t)^2 f = 0 with Omega_pm^2 = w^2 +- q(t)/m, incoming
  free solution f ~ e^{-iwt}, outgoing f = alpha e^{-iwt} + beta e^{iwt};
  |beta|^2 is the mean number of quanta created in that mode and the
  energy gain is hbar*w*(|beta_+|^2 + |beta_-|^2);

* direct integration of the Schroedinger equation in a truncated
  two-oscillator number basis under H0 + q(t)*b*(a1+a1')(a2+a2').

Both use a fixed-step classical 4th-order integrator (deterministic,
testable convergence order); the step is grid dt / substeps with the
sampled coupling interpolated linearly inside grid intervals.  Neither
oracle approximates the mode frequencies by w during the pulse, so small
systematic offsets from first-order theory at finite coupling are
expected and quantified rather than reconciled analytically.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import MAX_FOCK_TRUNCATION, PhysicalParams, ladder_factor
from .coupling import CouplingSignal
from .errors import InvertedModeError, NormDriftError
from .spectral import TAIL_REL_DEFAULT, tails_resolved

__all__ = [
    "ModeFunctionState",
    "BogoliubovPair",
    "FockStateVector",
    "evolve_mode",
    "delta_e_modes",
    "evolve_fock",
    "delta_e_fock",
    "mode_state_at",
    "wronskian",
]


@dataclass(frozen=True)
class ModeFunctionState:
    """Mode function and its time derivative at one instant."""

    f: complex
    fdot: complex


def wronskian(state: ModeFunctionState) -> float:
    """W = i*(f*conj(fdot) - conj(f)*fdot); conserved by the evolution.

    With the incoming normalization f = e^{-iwt} the conserved value is
    -2*omega, and W_end/W_start equals |alpha|^2 - |beta|^2.
    """
    return float((1j * (state.f * np.conj(state.fdot) - np.conj(state.f) * state.fdot)).real)


@dataclass(frozen=True)
class BogoliubovPair:
    """Linear map between incoming and outgoing free solutions."""

    alpha: complex
    beta: complex

    @property
    def occupation(self) -> float:
        """Mean quanta created from the ground state: |beta|^2."""
        return abs(self.beta) ** 2

    @property
    def normalization_defect(self) -> float:
        """|alpha|^2 - |beta|^2 - 1; zero for exact evolution."""
        return abs(self.alpha) ** 2 - abs(self.beta) ** 2 - 1.0


def mode_state_at(pair: BogoliubovPair, params: PhysicalParams, t: float) -> ModeFunctionState:
    """Free-asymptotics mode function alpha e^{-iwt} + beta e^{iwt} at time t."""
    w = params.omega
    f = pair.alpha * np.exp(-1j * w * t) + pair.beta * np.exp(1j * w * t)
    fdot = -1j * w * pair.alpha * np.exp(-1j * w * t) + 1j * w * pair.beta * np.exp(1j * w * t)
    return ModeFunctionState(complex(f), complex(fdot))


def _substep_coupling(signal: CouplingSignal, substeps: int):
    """Coupling at substep nodes and midpoints (linear inside grid cells)."""
    if int(substeps) != substeps or substeps < 1:
        raise ValueError(f"substeps must be an integer >= 1, got {substeps!r}")
    times = signal.grid.times()
    h = signal.grid.dt / substeps
    n_steps = (signal.grid.n_samples - 1) * substeps
    t_nodes = times[0] + h * np.arange(n_steps + 1)
    q_nodes = np.interp(t_nodes, times, signal.values)
    q_mid = np.interp(t_nodes[:-1] + 0.5 * h, times, signal.values)
    return h, q_nodes, q_mid


def _warn_unresolved_tails(signal: CouplingSignal, caller: str):
    if not tails_resolved(signal, TAIL_REL_DEFAULT):
        warnings.warn(
            f"{caller}: coupling not negligible at the grid endpoints; "
            "incoming/outgoing states are not free",
            stacklevel=3,
        )


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0] by pairwise folding (log-depth, vectorized)."""
    prod = mats
    while prod.shape[0] > 1:
        paired = 2 * (prod.shape[0] // 2)
        combined = prod[1:paired:2] @ prod[0:paired:2]
        if prod.shape[0] % 2:
            combined = np.concatenate([combined, prod[-1:]], axis=0)
        prod = combined
    return prod[0]


def _rk4_transfer_matrices(w2_start, w2_mid, w2_end, h: float) -> np.ndarray:
    """Per-step RK4 propagators for u' = A(t) u, A = [[0, 1], [-Omega^2, 0]].

    The ODE is linear, so one RK4 step is a 2x2 matrix; building all steps
    at once keeps the sequential recurrence out of Python.
    """
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


def evolve_mode(
    signal: CouplingSignal,
    params: PhysicalParams,
    mode_sign: int,
    substeps: int = 1,
) -> BogoliubovPair:
    """Evolve one normal mode through the coupling pulse exactly.

    Integrates f'' + (w^2 + mode_sign*q(t)/m) f = 0 from the incoming
    free solution f(t0) = e^{-iw t0}, fdot(t0) = -iw e^{-iw t0}, then
    projects the outgoing state onto e^{-+iwt} to read off (alpha, beta).

    Raises InvertedModeError when the coupling drives Omega^2 <= 0
    anywhere on the grid (inverted oscillator; outside the model's
    operating regime and prone to masquerading exponential blowup).
    """
    if mode_sign not in (+1, -1):
        raise ValueError(f"mode_sign must be +1 or -1, got {mode_sign!r}")
    h, q_nodes, q_mid = _substep_coupling(signal, substeps)
    _warn_unresolved_tails(signal, "evolve_mode")
    if not np.any(signal.values):
        # zero coupling is exactly free evolution; nothing to integrate
        return BogoliubovPair(1.0 + 0.0j, 0.0j)

    w = params.omega
    w2_nodes = w**2 + mode_sign * q_nodes / params.mass
    w2_mid = w**2 + mode_sign * q_mid / params.mass
    if np.min(w2_nodes) <= 0.0 or np.min(w2_mid) <= 0.0:
        raise InvertedModeError(
            f"Omega^2 <= 0 for mode {mode_sign:+d}: max|q| = {np.max(np.abs(signal.values)):g} "
            f"reaches m*w^2 = {params.mass * w**2:g}"
        )

    steps = _rk4_transfer_matrices(w2_nodes[:-1], w2_mid, w2_nodes[1:], h)
    propagator = _ordered_product(steps)

    t0, t1 = signal.grid.t_start, signal.grid.t_end
    f0 = np.exp(-1j * w * t0)
    u0 = np.array([f0, -1j * w * f0])
    f, fdot = propagator @ u0
    alpha = 0.5 * (f + 1j * fdot / w) * np.exp(1j * w * t1)
    beta = 0.5 * (f - 1j * fdot / w) * np.exp(-1j * w * t1)
    return BogoliubovPair(complex(alpha), complex(beta))


def delta_e_modes(pair_plus: BogoliubovPair, pair_minus: BogoliubovPair, params: PhysicalParams) -> float:
    """Energy gained by the ground state: hbar*w per created quantum, both modes."""
    return params.hbar * params.omega * (pair_plus.occupation + pair_minus.occupation)


@dataclass(frozen=True, eq=False)
class FockStateVector:
    """Two-oscillator state over |n1, n2> with 0 <= n1, n2 <= truncation."""

    truncation: int
    amplitudes: np.ndarray  # shape (N+1, N+1), amplitudes[n1, n2]

    def population(self, n1: int, n2: int) -> float:
        return abs(self.amplitudes[n1, n2]) ** 2

    @property
    def norm_drift(self) -> float:
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)


def _ladder_position(n: int) -> np.ndarray:
    """(a + a') in the number basis, truncated at n quanta."""
    x = np.zeros((n + 1, n + 1))
    roots = np.sqrt(np.arange(1.0, n + 1))
    x[np.arange(n), np.arange(1, n + 1)] = roots
    x[np.arange(1, n + 1), np.arange(n)] = roots
    return x


def evolve_fock(
    signal: CouplingSignal,
    params: PhysicalParams,
    truncation: int,
    dt_substeps: int = 1,
    norm_tol: float = 1e-6,
) -> FockStateVector:
    """Integrate i hbar d|psi>/dt = [H0 + q(t) b (a1+a1')(a2+a2')] |psi> from |00>.

    Fixed-step 4th-order integration with step dt/dt_substeps.  No
    renormalization is applied; a final norm drift beyond ``norm_tol``
    raises NormDriftError as a signal to refine the step or raise the
    truncation.
    """
    if int(truncation) != truncation or truncation < 2:
        raise ValueError(f"truncation must be an integer >= 2, got {truncation!r}")
    if truncation > MAX_FOCK_TRUNCATION:
        raise ValueError(
            f"truncation {truncation} is above the budget of {MAX_FOCK_TRUNCATION}: "
            f"its coupling operator would take {16 * (truncation + 1) ** 4} bytes"
        )
    _warn_unresolved_tails(signal, "evolve_fock")
    n_levels = truncation + 1
    h, q_nodes, q_mid = _substep_coupling(signal, dt_substeps)

    n1 = np.repeat(np.arange(n_levels), n_levels)
    n2 = np.tile(np.arange(n_levels), n_levels)
    h0_diag = params.hbar * params.omega * (n1 + n2 + 1.0)
    x = _ladder_position(truncation)
    # built complex and scaled in place: no float or scaled copy beside it
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

    state = FockStateVector(truncation, psi.reshape(n_levels, n_levels))
    if state.norm_drift > norm_tol:
        raise NormDriftError(
            f"norm drifted by {state.norm_drift:.3e} (> {norm_tol:g}); "
            "refine dt_substeps or raise the truncation"
        )
    return state


def delta_e_fock(state: FockStateVector, params: PhysicalParams) -> float:
    """Energy above the ground state: sum hbar*w*(n1+n2) |amplitude|^2."""
    n = np.arange(state.truncation + 1, dtype=float)
    quanta = n[:, None] + n[None, :]
    return float(params.hbar * params.omega * np.sum(quanta * np.abs(state.amplitudes) ** 2))
