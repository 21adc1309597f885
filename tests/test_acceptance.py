"""Acceptance suite: one test per exit criterion.

Each test prints a single pass/fail line with its headline numbers
(run with ``pytest -v -s tests/test_acceptance.py`` to see them) and
enforces the stated tolerance and runtime budget.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from casfric import (
    CouplingSignal,
    ExponentialRamp,
    Flyby,
    GaussianPulse,
    PhysicalParams,
    SymmetricRamp,
    TimeGrid,
    adiabatic_scan,
    delta_e_fock,
    delta_e_modes,
    delta_e_spectral,
    delta_e_time_domain,
    evolve_fock,
    evolve_mode,
    fourier_analytic,
    fourier_numeric,
    sample,
)
from casfric.cli import CSV_HEADER, main

PARAMS = PhysicalParams(mass=1.0, omega=1.0)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def profile_corpus():
    """Five profile families on grids wide enough to resolve their tails."""
    mixture_grid = TimeGrid(-15.0, 15.0, 6001)
    mixture_times = mixture_grid.times()
    mixture = CouplingSignal(
        mixture_grid,
        0.008 * np.exp(-((mixture_times + 2.0) / 1.5) ** 2)
        + 0.004 * np.exp(-((mixture_times - 1.0) / 1.0) ** 2),
    )
    return [
        ("exponential_ramp", ExponentialRamp(gamma=1e-3, eta=1.0), TimeGrid(0.0, 40.0, 16001)),
        ("symmetric_ramp", SymmetricRamp(gamma=1e-3, eta=1.0), TimeGrid(-40.0, 40.0, 32001)),
        ("gaussian_pulse", GaussianPulse(q0=0.01, tau=1.0), TimeGrid(-12.0, 12.0, 4801)),
        ("flyby", Flyby(charge=1.0, d=1.0, v=1.0), TimeGrid(-2200.0, 2200.0, 88001)),
        ("sampled", mixture, mixture_grid),
    ]


def test_criterion_1_route_equivalence():
    """Both first-order routes coincide to 1e-12 on shared grids, < 1 s."""
    start = time.perf_counter()
    worst = 0.0
    for name, profile, grid in profile_corpus():
        signal = sample(profile, grid)
        de_time = delta_e_time_domain(signal, PARAMS)
        de_spec = delta_e_spectral(signal, PARAMS)
        rel = abs(de_time - de_spec) / max(de_time, 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-12, f"{name}: routes differ by {rel:.3e}"
    elapsed = time.perf_counter() - start
    report(
        "1 route-equivalence",
        worst <= 1e-12 and elapsed < 1.0,
        f"max rel diff {worst:.2e} over 5 profiles, {elapsed:.2f} s",
    )


def test_criterion_2_perturbation_vs_exact():
    """Mode-function dE within 1% of first order at q0 = 1e-2, shrinking with q0."""
    start = time.perf_counter()
    grid = TimeGrid(-12.0, 12.0, 48001)
    discrepancies = []
    for q0 in (1e-2, 3e-3, 1e-3):
        signal = sample(GaussianPulse(q0=q0, tau=1.0), grid)
        de_exact = delta_e_modes(
            evolve_mode(signal, PARAMS, +1), evolve_mode(signal, PARAMS, -1), PARAMS
        )
        de_first = delta_e_time_domain(signal, PARAMS)
        discrepancies.append(abs(de_exact - de_first) / de_first)
    elapsed = time.perf_counter() - start
    ok = (
        discrepancies[0] <= 0.01
        and discrepancies[0] > discrepancies[1] > discrepancies[2]
        and elapsed < 5.0
    )
    report(
        "2 perturbation-vs-exact",
        ok,
        "rel disc " + ", ".join(f"{d:.2e}" for d in discrepancies) + f" at q0 = 1e-2, 3e-3, 1e-3; {elapsed:.2f} s",
    )


def test_criterion_3_cross_oracle():
    """Truncated-Fock dE (N = 10) within 1e-3 of the mode-function dE."""
    start = time.perf_counter()
    signal = sample(GaussianPulse(q0=1e-2, tau=1.0), TimeGrid(-12.0, 12.0, 48001))
    de_modes = delta_e_modes(
        evolve_mode(signal, PARAMS, +1), evolve_mode(signal, PARAMS, -1), PARAMS
    )
    de_fock = delta_e_fock(evolve_fock(signal, PARAMS, truncation=10, dt_substeps=1), PARAMS)
    rel = abs(de_fock - de_modes) / de_modes
    elapsed = time.perf_counter() - start
    report("3 cross-oracle", rel <= 1e-3 and elapsed < 30.0, f"rel diff {rel:.2e}, {elapsed:.1f} s")


def test_criterion_4_analytic_transforms():
    """Quadrature lands on each closed form to 1e-6 abs, converging at order 2."""
    closed_form_cases = [
        (ExponentialRamp(gamma=1.0, eta=1.0), TimeGrid(0.0, 40.0, 32001)),
        (SymmetricRamp(gamma=1.0, eta=1.0), TimeGrid(-40.0, 40.0, 64001)),
        (GaussianPulse(q0=1.0, tau=1.0), TimeGrid(-12.0, 12.0, 4801)),
    ]
    worst = 0.0
    for profile, grid in closed_form_cases:
        signal = sample(profile, grid)
        for w in (1.0, 2.0, -2.0):
            err = abs(fourier_numeric(signal, w) - fourier_analytic(profile, w))
            worst = max(worst, err)
            assert err <= 1e-6, f"{type(profile).__name__} at w={w}: |error| = {err:.3e}"

    # dt-halving on the ramp, whose switch-on kink pins the trapezoid at order 2
    profile = ExponentialRamp(gamma=1.0, eta=1.0)
    exact = fourier_analytic(profile, 1.0)
    dts, errors = [], []
    for n in (1251, 2501, 5001, 10001):
        grid = TimeGrid(0.0, 40.0, n)
        dts.append(grid.dt)
        errors.append(abs(fourier_numeric(sample(profile, grid), 1.0) - exact))
    order = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    report(
        "4 analytic-transforms",
        worst <= 1e-6 and 1.9 < order < 2.1,
        f"max abs err {worst:.2e}, observed order {order:.3f}",
    )


def test_criterion_5_adiabatic_zero_friction():
    """Smooth switching: dE ~ eta^2.  Abrupt start: dE -> const, dE*eta -> 0."""
    etas = np.geomspace(1e-4, 1e-2, 9)
    smooth = adiabatic_scan(SymmetricRamp(gamma=1.0, eta=1.0), etas, PARAMS, routes=("hb",))
    abrupt = adiabatic_scan(ExponentialRamp(gamma=1.0, eta=1.0), etas, PARAMS, routes=("hb",))
    flatness = abrupt.delta_e.max() / abrupt.delta_e.min()
    ok = (
        abs(smooth.slope_delta_e - 2.0) <= 0.05
        and abs(abrupt.slope_delta_e_times_eta - 1.0) <= 0.05
        and abrupt.delta_e.min() > 0.0
        and flatness < 1.05
        and np.all(np.diff(smooth.delta_e) > 0.0)
    )
    report(
        "5 adiabatic-zero-friction",
        ok,
        f"smooth slope {smooth.slope_delta_e:.4f}, abrupt dE*eta slope "
        f"{abrupt.slope_delta_e_times_eta:.4f}, abrupt dE flat to {flatness - 1.0:.2e}",
    )


def test_criterion_6_structural_invariants():
    """Hermitian transforms, Bogoliubov normalization, norm drift, parity, scaling."""
    benchmark = sample(GaussianPulse(q0=1e-2, tau=1.0), TimeGrid(-12.0, 12.0, 4801))
    ramp = sample(SymmetricRamp(gamma=0.2, eta=0.8), TimeGrid(-50.0, 50.0, 20001))

    # Hermitian symmetry, exact at the bit level
    for signal in (benchmark, ramp):
        for w in (0.7, 2.0, 13.5):
            assert fourier_numeric(signal, -w) == np.conj(fourier_numeric(signal, w))

    # Bogoliubov normalization
    defect = 0.0
    for signal in (benchmark, ramp):
        for sign in (+1, -1):
            defect = max(defect, abs(evolve_mode(signal, PARAMS, sign).normalization_defect))
    assert defect < 1e-9

    # Fock norm drift and the parity selection rule
    state = evolve_fock(benchmark, PARAMS, truncation=10, dt_substeps=4)
    assert state.norm_drift < 1e-6
    n = np.arange(11)
    odd_sector = (n[:, None] + n[None, :]) % 2 == 1
    max_odd = float(np.max(np.abs(state.amplitudes[odd_sector]) ** 2))
    assert max_odd < 1e-20

    # quadratic coupling scaling on both routes
    lam = 3.7
    scaling_err = 0.0
    for route in (delta_e_time_domain, delta_e_spectral):
        base = route(benchmark, PARAMS)
        scaled = route(CouplingSignal(benchmark.grid, lam * benchmark.values), PARAMS)
        scaling_err = max(scaling_err, abs(scaled - lam**2 * base) / scaled)
    assert scaling_err <= 1e-12

    report(
        "6 structural-invariants",
        True,
        f"norm defect {defect:.1e}, drift {state.norm_drift:.1e}, "
        f"odd-parity max {max_odd:.1e}, scaling err {scaling_err:.1e}",
    )


def test_criterion_7_cli_contract(tmp_path):
    """Byte-identical benchmark CSV; exit codes 2/2/2 on malformed, 3 on numerical."""
    config = CONFIG_DIR / "gaussian_benchmark.json"
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([str(config), "--out", str(out_a)]) == 0
    assert main([str(config), "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    assert identical
    assert out_a.read_text().startswith(CSV_HEADER + "\n")

    bad_json = tmp_path / "bad_syntax.json"
    bad_json.write_text('{"params": }')
    missing_field = tmp_path / "missing_profile.json"
    missing_field.write_text(json.dumps({
        "params": {"mass": 1.0, "omega": 1.0},
        "grid": {"t_start": -1.0, "t_end": 1.0, "n_samples": 11},
        "routes": ["barton"],
    }))
    bad_route = tmp_path / "bad_route.json"
    bad_route.write_text(json.dumps({
        "params": {"mass": 1.0, "omega": 1.0},
        "profile": {"type": "gaussian_pulse", "q0": 0.01, "tau": 1.0},
        "grid": {"t_start": -1.0, "t_end": 1.0, "n_samples": 11},
        "routes": ["kubo"],
    }))
    codes = [main([str(path)]) for path in (bad_json, missing_field, bad_route)]

    inverted = tmp_path / "inverted.json"
    inverted.write_text(json.dumps({
        "params": {"mass": 1.0, "omega": 1.0},
        "profile": {"type": "gaussian_pulse", "q0": 2.0, "tau": 1.0},
        "grid": {"t_start": -12.0, "t_end": 12.0, "n_samples": 1201},
        "routes": ["mode_oracle"],
    }))
    numerical_code = main([str(inverted)])

    ok = identical and codes == [2, 2, 2] and numerical_code == 3
    report(
        "7 cli-contract",
        ok,
        f"byte-identical: {identical}, malformed exits {codes}, numerical exit {numerical_code}",
    )
