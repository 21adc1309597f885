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
sampled coupling interpolated linearly inside grid intervals.  Both
refuse a run whose predicted work is above one budget, a drift of their
invariant (the Fock norm, the Bogoliubov normalization) above 1e-6, and
name RK4's stability limit when the step is past it.  Neither oracle
approximates the mode frequencies by w during the pulse, so small
systematic offsets from first-order theory at finite coupling are
expected and quantified rather than reconciled analytically.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import MAX_GRID_SAMPLES, PhysicalParams, TimeGrid, _finite_delta_e, _require_integer, ladder_factor
from .coupling import CouplingSignal, _finite_range, _require_signal
from .errors import InvertedModeError, NormDriftError, NumericalFailure

__all__ = [
    "BogoliubovPair",
    "FockStateVector",
    "evolve_mode",
    "delta_e_modes",
    "evolve_fock",
    "delta_e_fock",
]


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
        """(|alpha|^2 - |beta|^2 - 1)/(|alpha|^2 + |beta|^2); zero for exact
        evolution, and what the mode oracle refuses above 1e-6.

        Relative, so a healthy amplified mode reads its rounding, not its
        amplification; from |alpha| and |beta| over the larger of them, as
        an amplified mode's |alpha| can be far above 1e154, where a float's
        square overflows.  -inf for a mode damped to nothing.
        """
        scale = max(abs(self.alpha), abs(self.beta))
        if scale == 0.0:
            return -math.inf
        a, b = abs(self.alpha) / scale, abs(self.beta) / scale
        return (a * a - b * b - 1.0 / scale / scale) / (a * a + b * b)


# Steps per chunk of both oracles' sweeps: each chunk's coupling, step
# matrices and Fock drive are O(chunk) whatever the grid length.  A power
# of two, so a chunk is a whole subtree of the mode oracle's pairwise fold.
_CHUNK_STEPS = 1 << 12

# Bytes for evolve_fock's stage operators: a run of r steps needs 2r + 1
# (N+1) x 3(N+1) float operators, and r is this over two of them, at least
# 1.  So the buffer stays near this size whatever N: 45 steps a run at
# N = 10, 5 at N = 30, one from N = 52.
_RUN_BYTES = 1 << 18

# Largest final norm drift evolve_fock accepts, and largest relative
# Bogoliubov defect the mode oracle accepts: neither renormalizes.
_NORM_TOL = 1e-6

# RK4 is stable on the imaginary axis for |h*lambda| <= 2*sqrt(2).  The free
# Fock Hamiltonian's largest rate is w*(2N+1), so h*w*(2N+1) above this
# diverges whatever the coupling, and a larger truncation makes it worse;
# a normal mode's largest rate is Omega_max, its frequency at the coupling's
# extreme, so h*Omega_max above this diverges.
_RK4_IMAGINARY_LIMIT = 2.0 * 2.0**0.5


# Most work one oracle run may take: a minute, in nanoseconds.  On one CPU
# with one BLAS thread a Fock step takes about 10 us + 3 ns*(N+1)^3 (10.1 us
# at N = 2, 1.86 ms at N = 83), a two-sign mode step about 147 ns.
_WORK_BUDGET_NS = 60 * 10**9

# Most memory one Fock run may hold: the 0.8 GB MAX_GRID_SAMPLES allows a
# signal.  Once lefts holds one step (from N = 52) evolve_fock peaks at 56
# floats per (N+1)^2: x 1, right 12, left 3, lefts 9, products 6, the two
# RK4 stacks 20 and stage_input 2, then the returned amplitudes 2 and
# norm_drift's |amplitudes| 1 (tracemalloc reads 56.0 at N = 300).  So
# N = 1335 is the largest truncation.
_MEMORY_BUDGET_BYTES = 8 * MAX_GRID_SAMPLES
_FOCK_BYTES_PER_LEVEL_PAIR = 8 * 56


def _substeps(grid: TimeGrid, substeps: int, truncation=None):
    """Substep h = dt/substeps and the (n_samples - 1)*substeps steps of an
    oracle run on ``grid``: evolve_fock's at ``truncation``, else the mode
    oracle's.  ValueError, before the run allocates anything, for a count
    that is not an integer, steps that cost above _WORK_BUDGET_NS, or a
    Fock run whose arrays take above _MEMORY_BUDGET_BYTES, in Python
    integers so that nothing wraps."""
    if truncation is None:
        step_ns, run, knobs, fock_bytes = 147, "mode", "mode_substeps", 0
    else:
        _require_integer(truncation, "truncation", 2)
        levels = operator.index(truncation) + 1
        step_ns, fock_bytes = 10_000 + 3 * levels**3, _FOCK_BYTES_PER_LEVEL_PAIR * levels**2
        run, knobs = f"Fock (N = {truncation})", "fock_truncation, fock_substeps"
    _require_integer(substeps, "substeps", 1)
    steps = (operator.index(grid.n_samples) - 1) * operator.index(substeps)
    if steps * step_ns > _WORK_BUDGET_NS:  # in whole seconds: a count beyond the float range still formats
        raise ValueError(f"the {run} oracle's {steps} steps would take about {steps * step_ns // 10**9} s, above "
                         f"the work budget of {_WORK_BUDGET_NS // 10**9} s; lower {knobs} or the grid's sample count")
    if fock_bytes > _MEMORY_BUDGET_BYTES:
        raise ValueError(f"the {run} oracle's arrays would take {fock_bytes} bytes, above the memory "
                         f"budget of {_MEMORY_BUDGET_BYTES} bytes; lower fock_truncation")
    return grid.dt / substeps, steps


def _substep_coupling(signal: CouplingSignal, h: float, lo: int, hi: int) -> np.ndarray:
    """Coupling at substep nodes lo..hi and their steps' midpoints, linear
    inside grid cells and interleaved (node lo + j at 2j, its midpoint at
    2j + 1), from one np.interp call over the grid cells the steps cross."""
    t = np.empty(2 * (hi - lo) + 1)
    t[0::2] = signal.grid.t_start + h * np.arange(lo, hi + 1)
    t[1::2] = t[0:-1:2] + 0.5 * h
    return signal._interpolate(t, t[0], t[-1])


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[..., -1, :, :] @ ... @ mats[..., 0, :, :] by pairwise folding
    (log-depth, vectorized, one fold for all leading axes)."""
    prod = mats
    while prod.shape[-3] > 1:
        paired = 2 * (prod.shape[-3] // 2)
        combined = prod[..., 1:paired:2, :, :] @ prod[..., 0:paired:2, :, :]
        if prod.shape[-3] % 2:
            combined = np.concatenate([combined, prod[..., -1:, :, :]], axis=-3)
        prod = combined
    return prod[..., 0, :, :]


def _rk4_transfer_matrices(w2_start, w2_mid, w2_end, h: float) -> np.ndarray:
    """Per-step RK4 propagators for u' = A(t) u, A = [[0, 1], [-Omega^2, 0]].

    The ODE is linear, so one RK4 step is the 2x2 matrix
    1 + h/6 (k1 + 2 k2 + 2 k3 + k4) with k1 = A0, k2 = A1 (1 + h/2 k1),
    k3 = A1 (1 + h/2 k2), k4 = A2 (1 + h k3).  It is written out entry
    by entry: every product in those 2x2 products has an exact 0 or 1
    factor, so each entry takes the same roundings as the matrix form.
    """
    s = 0.5 * h
    ms = w2_mid * s
    # k2 = [[-s w2_start, 1], [-w2_mid, -ms]]
    k2_00 = -s * w2_start
    # k3 = [[-ms, k3_01], [k3_10, -ms]]
    k3_01 = 1.0 - s * ms
    k3_10 = -w2_mid * (1.0 + s * k2_00)
    # k4 = [[h k3_10, p], [-w2_end p, -w2_end h k3_01]] with p = 1 - h ms
    p = 1.0 - h * ms
    c = h / 6.0
    steps = np.empty(w2_mid.shape + (2, 2))
    steps[..., 0, 0] = 1.0 + c * ((2.0 * k2_00 - 2.0 * ms) + h * k3_10)
    steps[..., 0, 1] = c * ((3.0 + 2.0 * k3_01) + p)
    steps[..., 1, 0] = c * (((-w2_start - 2.0 * w2_mid) + 2.0 * k3_10) - w2_end * p)
    steps[..., 1, 1] = 1.0 + c * (-4.0 * ms - w2_end * (h * k3_01))
    return steps


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
    This is decided before integrating, from the samples' range.  As
    evolve_fock does for its state, it refuses what RK4 cannot resolve:
    a NumericalFailure, also decided before integrating, when the step
    h = dt/substeps has h*Omega_max above RK4's stability limit
    2*sqrt(2); OverflowError when the propagator overflows; and
    NormDriftError when the pair's normalization_defect is above 1e-6.
    The last two come after the sweep, in that order.  A ``signal`` that
    is not a CouplingSignal raises TypeError, a run over the work budget
    ValueError before the samples are read.
    """
    _require_signal(signal, "evolve_mode")
    try:
        sign = operator.index(mode_sign)  # an integral float such as 1.0 is refused
    except TypeError:
        sign = None
    if sign not in (+1, -1):
        raise ValueError(f"mode_sign must be +1 or -1, got {mode_sign!r}")
    return _evolve_modes(signal, params, (sign,), substeps)[0]


def _evolve_modes(signal: CouplingSignal, params: PhysicalParams, signs, substeps: int) -> list:
    """evolve_mode for each of ``signs`` in one sweep: each chunk's coupling is
    one interleaved array, and its Omega^2, steps and product are one array.
    Inversion is decided before the sweep, for each sign in turn, from the
    samples' range, which the linear interpolant leaves only by rounding;
    then stability, for each sign in turn.  After the sweep come the
    propagators' overflow and each sign's normalization defect."""
    h, n_steps = _substeps(signal.grid, substeps)
    q_min, q_max = _finite_range(signal.values)
    if q_min == q_max == 0.0:
        # zero coupling is exactly free evolution; nothing to integrate
        return [BogoliubovPair(1.0 + 0.0j, 0.0j)] * len(signs)

    w = params.omega
    with np.errstate(over="ignore", invalid="ignore"):  # an Omega^2 of -inf inverts; inf propagators fail below
        # Omega^2 = w^2 + sign*q/m is monotone in q; np.interp's rounding takes the
        # interpolant past the samples' range by under 0.2 ulp of max|q| (800,000 random grids)
        reach = np.spacing(max(q_max, -q_min))
        for sign in signs:
            if min(w**2 + sign * q / params.mass for q in (q_min - reach, q_max + reach)) <= 0.0:
                # - inverts where q >= m w^2, + where q <= -m w^2
                end, q_end, bound = ("max q", q_max, "m*w^2") if sign < 0 else ("min q", q_min, "-m*w^2")
                raise InvertedModeError(
                    f"Omega^2 <= 0 for mode {sign:+d}: {end} = {q_end:g} "
                    f"reaches {bound} = {-sign * params.mass * w**2:g}"
                )
        for sign in signs:
            stiffness = h * (w**2 + max(sign * q_min, sign * q_max) / params.mass) ** 0.5
            if stiffness > _RK4_IMAGINARY_LIMIT:
                raise NumericalFailure(
                    f"mode {sign:+d}: h*Omega_max = {stiffness:.3g} is above RK4's stability limit "
                    f"2*sqrt(2) = {_RK4_IMAGINARY_LIMIT:.3g}; raise mode_substeps"
                )
        sign_column = np.array(signs, dtype=float)[:, None]
        # one product per chunk, folded again at the end: the same pairwise
        # tree as one fold over every step, so the same bits
        starts = range(0, n_steps, _CHUNK_STEPS)
        chunk_products = np.empty((len(signs), len(starts), 2, 2))
        for k, lo in enumerate(starts):
            q = _substep_coupling(signal, h, lo, min(lo + _CHUNK_STEPS, n_steps))
            w2 = w**2 + sign_column * q / params.mass
            steps = _rk4_transfer_matrices(w2[:, 0:-1:2], w2[:, 1::2], w2[:, 2::2], h)
            chunk_products[:, k] = _ordered_product(steps)
        propagators = _ordered_product(chunk_products)
    if not np.isfinite(propagators).all():
        raise OverflowError("the mode propagator overflowed")

    t0, t1 = signal.grid.t_start, signal.grid.t_end
    f0 = np.exp(-1j * w * t0)
    u0 = np.array([f0, -1j * w * f0])
    pairs = []
    for sign, propagator in zip(signs, propagators):
        f, fdot = propagator @ u0
        alpha = 0.5 * (f + 1j * fdot / w) * np.exp(1j * w * t1)
        beta = 0.5 * (f - 1j * fdot / w) * np.exp(-1j * w * t1)
        pair = BogoliubovPair(complex(alpha), complex(beta))
        defect = pair.normalization_defect
        if not abs(defect) <= _NORM_TOL:  # NaN fails it too
            raise NormDriftError(
                f"mode {sign:+d}: |alpha|^2 - |beta|^2 drifted from 1 by {defect:.3e} of |alpha|^2 + |beta|^2 "
                f"(> {_NORM_TOL:g}); raise mode_substeps"
            )
        pairs.append(pair)
    return pairs


def delta_e_modes(pair_plus: BogoliubovPair, pair_minus: BogoliubovPair, params: PhysicalParams) -> float:
    """Energy gained by the ground state: hbar*w per created quantum, both
    modes; OverflowError if it is not finite."""
    return _finite_delta_e(params.hbar * params.omega * (pair_plus.occupation + pair_minus.occupation), "mode")


@dataclass(frozen=True, eq=False)
class FockStateVector:
    """Two-oscillator state over |n1, n2> with 0 <= n1, n2 <= truncation."""

    truncation: int
    amplitudes: np.ndarray  # shape (N+1, N+1), amplitudes[n1, n2]

    def population(self, n1: int, n2: int) -> float:
        if not (0 <= n1 <= self.truncation and 0 <= n2 <= self.truncation):
            raise ValueError(f"populations are indexed 0..{self.truncation}, got ({n1!r}, {n2!r})")
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
) -> FockStateVector:
    """Integrate i hbar d|psi>/dt = [H0 + q(t) b (a1+a1')(a2+a2')] |psi> from |00>.

    Fixed-step 4th-order integration with step dt/dt_substeps.  No
    renormalization is applied; a final norm drift beyond 1e-6 raises
    NormDriftError as a signal to refine the step or raise the
    truncation, or, when h*w*(2N+1) is above RK4's stability limit
    2*sqrt(2), to refine the step alone.  A ``signal`` that is not a
    CouplingSignal raises TypeError, a run over the work budget ValueError.
    """
    _require_signal(signal, "evolve_fock")
    h, n_steps = _substeps(signal.grid, dt_substeps, truncation)
    n_levels = truncation + 1
    _finite_range(signal.values)

    # The state is the amplitude matrix Y[n1, n2], x = a + a' truncated, and
    # -i/hbar H(q) Y = -i [w (n1 + n2 + 1) Y + q b/hbar x Y x].  On the float
    # view of Y (re, im interleaved along n2), -i is the 2x2 block J acting
    # from the right, so the derivative is sum_j L_j Y R_j over
    # (L_j, R_j) = (q x, b/hbar x kron J), (w N1, 1 kron J) and
    # (1, w diag(n2 + 1) kron J).  With the R_j side by side, Y @ right is
    # (N+1, 3*2(N+1)), which reads as (3(N+1), 2(N+1)) with row 3 m + j;
    # interleaving the L_j columns the same way makes the sum over j one
    # more product.  Two real matmuls per stage, O((N+1)^2) memory.
    x = _ladder_position(truncation)
    minus_i = np.array([[0.0, -1.0], [1.0, 0.0]])
    n = np.arange(n_levels, dtype=float)
    right = np.hstack([
        np.kron((ladder_factor(params) / params.hbar) * x, minus_i),
        np.kron(np.eye(n_levels), minus_i),
        np.kron(np.diag(params.omega * (n + 1.0)), minus_i),
    ])
    left = np.stack([x, np.diag(params.omega * n), np.eye(n_levels)], axis=2).reshape(n_levels, -1)
    products = np.empty((n_levels, right.shape[1]))
    products_by_row = products.reshape(3 * n_levels, 2 * n_levels)

    # Every stage's left operand for a run of steps, ahead of the steps:
    # lefts[2j] has q at node j in its q x columns, lefts[2j + 1] q at the
    # midpoint of step j.  The w N1 and identity columns are copied in once;
    # a run's q x columns are one multiply of its slice of the chunk's q by x.
    run_steps = max(1, min(_RUN_BYTES // (2 * left.nbytes), _CHUNK_STEPS, n_steps))
    lefts = np.repeat(left[None], 2 * run_steps + 1, axis=0)
    coupling_columns = lefts[:, :, 0::3]
    # step j of a run: the .dot of (k1's, k2's and k3's, k4's) operator
    stage_lefts = [(start.dot, half.dot, end.dot)
                   for start, half, end in zip(lefts[0::2], lefts[1::2], lefts[2::2])]

    # k1..k4 and psi (last) in one stack, so every stage input and the
    # update is one weighted sum over it; the update goes into the psi slot
    # of the other stack and the two swap each step.  Zeros, not empty: a
    # zero weight times uninitialised NaN would still be NaN.
    stacks = np.zeros((2, 5, n_levels, n_levels), dtype=np.complex128)
    stacks[0, 4, 0, 0] = 1.0
    stacks_real = stacks.view(np.float64)
    rows = [stacks_real[i].reshape(5, -1) for i in range(2)]
    # per stack: the k1..k4 and psi float views, the stack as 5 rows, the
    # other stack's psi row, which the step's update writes, and psi's .dot
    now = (*stacks_real[0], rows[0], rows[1][4], stacks_real[0][4].dot)
    after = (*stacks_real[1], rows[1], rows[0][4], stacks_real[1][4].dot)
    stage_input = np.empty((n_levels, 2 * n_levels))
    stage_input_flat = stage_input.reshape(-1)
    stage_input_dot = stage_input.dot
    to_k2 = np.array([0.5 * h, 0.0, 0.0, 0.0, 1.0]).dot
    to_k3 = np.array([0.0, 0.5 * h, 0.0, 0.0, 1.0]).dot
    to_k4 = np.array([0.0, 0.0, h, 0.0, 1.0]).dot
    update = np.array([h / 6.0, h / 3.0, h / 3.0, h / 6.0, 1.0]).dot
    # At N ~ 10 a call costs about a microsecond, so a step is its 12 calls
    # (8 products, 4 weighted sums) and nothing else.  Each is its left
    # operand's bound .dot: np.dot runs the same matrix product, but only
    # after numpy's __array_function__ dispatch, about 0.2-0.5 us a call.
    # Positional outs, no closure, no write of q x.

    with np.errstate(over="ignore", invalid="ignore"):  # a diverging state fails the norm test
        for lo in range(0, n_steps, _CHUNK_STEPS):
            q = _substep_coupling(signal, h, lo, min(lo + _CHUNK_STEPS, n_steps))
            for start in range(0, len(q) - 1, 2 * run_steps):
                run = q[start : start + 2 * run_steps + 1, None, None]
                np.multiply(run, x, coupling_columns[: len(run)])
                # each stage's derivative is its left @ (stage @ right), through `products`
                for left_start, left_half, left_end in stage_lefts[: len(run) // 2]:
                    k1, k2, k3, k4, _, stack, psi_next, psi_dot = now
                    psi_dot(right, products)
                    left_start(products_by_row, k1)
                    to_k2(stack, stage_input_flat)
                    stage_input_dot(right, products)
                    left_half(products_by_row, k2)
                    to_k3(stack, stage_input_flat)
                    stage_input_dot(right, products)
                    left_half(products_by_row, k3)
                    to_k4(stack, stage_input_flat)
                    stage_input_dot(right, products)
                    left_end(products_by_row, k4)
                    update(stack, psi_next)
                    now, after = after, now
        amplitudes = now[4].view(np.complex128).copy()
        state = FockStateVector(truncation, amplitudes)
        norm_drift = state.norm_drift
    if not norm_drift <= _NORM_TOL:  # NaN fails it too
        stiffness = h * params.omega * (2 * truncation + 1)
        if stiffness > _RK4_IMAGINARY_LIMIT:
            advice = (f"h*omega*(2N+1) = {stiffness:.3g} is above RK4's stability limit "
                      f"2*sqrt(2) = {_RK4_IMAGINARY_LIMIT:.3g}; raise dt_substeps")
        else:
            advice = "refine dt_substeps or raise the truncation"
        raise NormDriftError(f"norm drifted by {norm_drift:.3e} (> {_NORM_TOL:g}); {advice}")
    return state


def delta_e_fock(state: FockStateVector, params: PhysicalParams) -> float:
    """Energy above the ground state: sum hbar*w*(n1+n2) |amplitude|^2;
    OverflowError if it is not finite."""
    n = np.arange(state.truncation + 1, dtype=float)
    quanta = n[:, None] + n[None, :]
    # a Python float: a product that overflows is inf, not a numpy warning
    mean_quanta = float(np.sum(quanta * np.abs(state.amplitudes) ** 2))
    return _finite_delta_e(params.hbar * params.omega * mean_quanta, "Fock")
