"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 6 runs the full 20-ordering calibration at default resolution;
everything else completes in seconds.
"""
import math
import time
from dataclasses import astuple

import numpy as np
import pytest

from giantatoms import (
    ChiralitySpec,
    CoefficientSet,
    INITIAL_EG,
    INITIAL_GE,
    build_heff,
    calibrate_presets,
    coefficients,
    compare_initial_states,
    find_max,
    make_preset,
    propagate_closed,
    rates_from_chirality,
    trajectory,
)
from giantatoms.coefficients import psd_mask
from giantatoms.dynamics import propagate_numeric_batch
from giantatoms.experiments import CALIBRATION_TARGETS, _deviation, all_orderings, layout_from_pattern

from conftest import brute_force_nonchiral, random_initial

SQRT3 = math.sqrt(3.0)
PI = math.pi
NONCHIRAL = ChiralitySpec(1.0, 0.0)
CASCADE = ChiralitySpec(1.0, 1.0)
PRESets = ("separated", "fully_braided", "partially_braided", "fully_nested", "partially_nested")


def report(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed {tail}"


def heff(preset_or_cfg, phi, chi=0.0):
    cfg = make_preset(preset_or_cfg) if isinstance(preset_or_cfg, str) else preset_or_cfg
    gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
    return build_heff(coefficients(cfg, phi, gr, gl))


@pytest.fixture(scope="module")
def calibration():
    start = time.perf_counter()
    result = calibrate_presets()
    duration = time.perf_counter() - start
    return result, duration


def test_c01_decoupling_zeros():
    worst = 0.0
    cfg = make_preset("separated")
    for chi in (0.0, 1.0):
        gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
        for phi in (2 * PI / 3, 4 * PI / 3):
            c = coefficients(cfg, phi, gr, gl)
            worst = max(worst, abs(c.gamma_a), abs(c.gamma_b), abs(c.gamma_coll), abs(c.g))
    report(1, "decoupling zeros", worst < 1e-12, f"max |coef| = {worst:.2e}")


def test_c02_df_oscillation_exact():
    gr, gl = rates_from_chirality(NONCHIRAL)
    c = coefficients(make_preset("fully_braided"), PI / 3, gr, gl)
    coef_ok = max(abs(c.gamma_a), abs(c.gamma_b), abs(c.gamma_coll)) < 1e-12
    g_ok = abs(c.g - SQRT3) < 1e-12
    times = np.linspace(0.0, 10.0, 2001)
    traj = trajectory(build_heff(c), INITIAL_EG, times)
    err = float(np.max(np.abs(traj.concurrence - np.abs(np.sin(2 * SQRT3 * times)))))
    peak = find_max(make_preset("fully_braided"), NONCHIRAL, INITIAL_EG,
                    phi_range=(PI / 3, PI / 3), t_horizon=10.0).c_max
    ok = coef_ok and g_ok and err < 1e-9 and abs(peak - 1.0) < 1e-6
    report(2, "DF oscillation exact", ok,
           f"|C - |sin||_max = {err:.2e}, peak = {peak:.8f}")


def test_c03_steady_plateaus_at_half():
    cases = [(p, phi) for p in PRESets for phi in (0.0, PI)]
    cases += [("separated", PI / 3), ("separated", 5 * PI / 3)]
    cases += [("partially_braided", PI / 3), ("partially_braided", 2 * PI / 3)]
    worst = 0.0
    for preset, phi in cases:
        from giantatoms import concurrence

        c50 = concurrence(propagate_closed(heff(preset, phi), INITIAL_EG, 50.0))
        worst = max(worst, abs(c50 - 0.5))
    report(3, "steady plateaus at 0.5", worst < 1e-3,
           f"{len(cases)} cases, max |C(50) - 0.5| = {worst:.2e}")


def test_c04_cascade_maximum():
    res = find_max(make_preset("separated"), CASCADE, INITIAL_EG)
    ok = abs(res.c_max - 0.736) < 0.005
    report(4, "cascade maximum 0.736", ok, f"c_max = {res.c_max:.6f} (2/e = {2/math.e:.6f})")


def test_c05_cascade_null_channel():
    traj = trajectory(heff("separated", 0.7, chi=1.0), INITIAL_GE, np.linspace(0.0, 50.0, 5001))
    worst = float(np.max(traj.concurrence))
    for phi in (0.0, PI / 3, PI, 1.9):
        tr = trajectory(heff("separated", phi, chi=1.0), INITIAL_GE, np.linspace(0.0, 50.0, 1001))
        worst = max(worst, float(np.max(tr.concurrence)))
    report(5, "cascade null channel", worst < 1e-12, f"max C = {worst:.2e}")


def test_c06_table_reproduction(calibration):
    result, duration = calibration
    ok = duration < 300.0
    details = [f"calibration {duration:.0f} s"]
    assert result.assignments["separated"].pattern == "aaabbb"
    assert result.assignments["fully_braided"].pattern == "ababab"
    worst = 0.0
    for preset, (bands, _) in CALIBRATION_TARGETS.items():
        cal = result.assignments[preset.value]
        for label, band in bands.items():
            dev = _deviation(band, cal.values[label])
            worst = max(worst, dev)
            if dev > 0.015:
                ok = False
                details.append(f"{preset.value}/{label}: {cal.values[label]:.4f} off by {dev:.4f}")
    details.append(f"max deviation = {worst:.4f}")
    report(6, "benchmark maxima reproduced (20 entries)", ok and worst <= 0.015, ", ".join(details))


def test_c07_quoted_peak_locations(calibration):
    result, _ = calibration
    details = []

    fn = result.layout("fully_nested")
    fn_peak = find_max(fn, NONCHIRAL, INITIAL_EG, phi_range=(PI / 4, PI / 4)).c_max
    ok = abs(fn_peak - 0.67) < 0.01
    details.append(f"FN@pi/4 = {fn_peak:.4f}")

    pn = result.layout("partially_nested")
    for phi in (PI / 4, 7 * PI / 4):
        pn_peak = find_max(pn, NONCHIRAL, INITIAL_EG, phi_range=(phi, phi)).c_max
        ok = ok and abs(pn_peak - 0.83) < 0.01
        details.append(f"PN@{phi/PI:.2f}pi = {pn_peak:.4f}")

    pb = result.layout("partially_braided")
    res = find_max(pb, NONCHIRAL, INITIAL_EG)
    loc = min(abs(res.phi_star - 11 * PI / 25), abs((2 * PI - res.phi_star) - 11 * PI / 25))
    ok = ok and abs(res.c_max - 0.77) < 0.01 and loc < 0.1
    details.append(f"PB max = {res.c_max:.4f} at |phi - 11pi/25| = {loc:.3f}")

    report(7, "quoted peak locations", ok, ", ".join(details))


@pytest.mark.xfail(strict=True, reason=(
    "find_max's alternating one-dimensional golden-section chains stall on a diagonal ridge: the fully "
    "braided maxima read 0.9999974-0.9999979 where the true value is 1; mending it moves calibrate's "
    "output by more than bench/oracles.py's CALIBRATION_REFERENCE_TOL = 1e-9, so it waits for a "
    "benchmark change"))
def test_fully_braided_maxima_reach_one(calibration):
    # each column reaches 1 (to RK4 at dt 1e-4: 0.9999999999997) at t = 2.267249, phi = 2pi/3 for chi 0 and
    # pi/3 for chi 1; the bound leaves the refinement 1e-7 of slack
    values = calibration[0].assignments["fully_braided"].values
    assert all(v >= 1 - 1e-7 for v in values.values()), values


def test_c08_chirality_robustness():
    cfg = make_preset("fully_braided")
    times = np.linspace(0.0, 50.0, 2001)
    t0 = trajectory(heff(cfg, PI / 3, 0.0), INITIAL_EG, times).concurrence
    t1 = trajectory(heff(cfg, PI / 3, 1.0), INITIAL_EG, times).concurrence
    overlap = float(np.max(np.abs(t0 - t1)))
    ok = overlap < 1e-9
    peaks = []
    for chi in (0.3, 0.5, 0.9):
        res = find_max(cfg, ChiralitySpec(1.0, chi), INITIAL_EG, phi_range=(PI / 3, PI / 3))
        peaks.append(res.c_max)
        ok = ok and abs(res.c_max - 1.0) < 1e-3
    report(8, "chirality robustness", ok,
           f"chi 0 vs 1 overlap = {overlap:.2e}, peaks = {['%.6f' % p for p in peaks]}")


def test_c09_oracle_equivalence():
    rng = np.random.default_rng(2024)
    patterns = all_orderings()
    matrices = []
    amps0 = []
    for _ in range(100):
        cfg = layout_from_pattern(patterns[rng.integers(len(patterns))])
        gr, gl = rates_from_chirality(ChiralitySpec(1.0, rng.uniform(0.0, 1.0)))
        h = build_heff(coefficients(cfg, rng.uniform(0.0, 2 * PI), gr, gl))
        c0 = random_initial(rng)
        matrices.append(h.matrix)
        amps0.append([c0.c_eg, c0.c_ge])
    matrices = np.array(matrices)
    amps0 = np.array(amps0)
    checkpoints = np.linspace(0.05, 50.0, 1000)
    rk4 = propagate_numeric_batch(matrices, amps0, checkpoints, 1e-3)
    c_rk4 = 2.0 * np.abs(rk4[:, :, 0]) * np.abs(rk4[:, :, 1])

    from giantatoms.dynamics import _evolve

    c1, c2 = _evolve(
        matrices[:, None, 0, 0], matrices[:, None, 0, 1],
        matrices[:, None, 1, 0], matrices[:, None, 1, 1],
        amps0[:, None, 0], amps0[:, None, 1], checkpoints[None, :],
    )
    c_closed = 2.0 * np.abs(c1) * np.abs(c2)
    worst = float(np.max(np.abs(c_closed - c_rk4)))
    report(9, "closed form vs RK4 oracle", worst < 1e-6, f"100 cases, max |dC| = {worst:.2e}")


def test_c10_symmetry_suite():
    from giantatoms import InitialState

    details = []
    times = np.linspace(0.0, 50.0, 51)
    real_states = (INITIAL_EG, INITIAL_GE, InitialState(0.6, -0.8))
    worst_mirror = 0.0
    for preset in PRESets:
        cfg = make_preset(preset)
        for chi in (0.0, 0.5, 1.0):
            for phi in (0.31, 1.1, 1.9, 2.7):
                h1 = heff(cfg, phi, chi)
                h2 = heff(cfg, 2 * PI - phi, chi)
                for c0 in real_states:
                    d = np.max(np.abs(trajectory(h1, c0, times).concurrence
                                      - trajectory(h2, c0, times).concurrence))
                    worst_mirror = max(worst_mirror, float(d))
    ok = worst_mirror < 1e-9
    details.append(f"mirror = {worst_mirror:.2e}")

    worst_pi = 0.0
    cfg = make_preset("fully_braided")
    for chi in (0.0, 0.5, 1.0):
        for phi in (0.2, 0.9, 1.6, 2.4):
            h1 = heff(cfg, phi, chi)
            h2 = heff(cfg, phi + PI, chi)
            for c0 in (INITIAL_EG, INITIAL_GE):
                d = np.max(np.abs(trajectory(h1, c0, times).concurrence
                                  - trajectory(h2, c0, times).concurrence))
                worst_pi = max(worst_pi, float(d))
    ok = ok and worst_pi < 1e-9
    details.append(f"FB pi-period = {worst_pi:.2e}")

    worst_eq = 0.0
    grids = np.linspace(0.0, 2 * PI, 41), np.linspace(0.0, 40.0, 81)
    for preset in ("separated", "fully_braided", "partially_braided"):
        cmp = compare_initial_states(make_preset(preset), NONCHIRAL, *grids)
        worst_eq = max(worst_eq, cmp.max_abs_diff)
    ok = ok and worst_eq < 1e-9
    details.append(f"eg/ge equality = {worst_eq:.2e}")

    rng = np.random.default_rng(77)
    patterns = all_orderings()
    psd_ok = True
    for _ in range(10_000):
        cfg = layout_from_pattern(patterns[rng.integers(len(patterns))])
        gr, gl = rates_from_chirality(ChiralitySpec(rng.uniform(0.2, 2.0), rng.uniform(0, 1)))
        if not psd_mask(*astuple(coefficients(cfg, rng.uniform(0, 2 * PI), gr, gl))):
            psd_ok = False
            break
    ok = ok and psd_ok
    details.append(f"PSD 1e4 samples = {psd_ok}")

    from giantatoms.dynamics import _evolve

    m = np.empty((10_000, 2, 2), dtype=complex)
    c0s = np.empty((10_000, 2), dtype=complex)
    for k in range(1_000):
        cfg = layout_from_pattern(patterns[rng.integers(len(patterns))])
        gr, gl = rates_from_chirality(ChiralitySpec(1.0, rng.uniform(0, 1)))
        h = build_heff(coefficients(cfg, rng.uniform(0, 2 * PI), gr, gl))
        c0 = random_initial(rng)
        m[10 * k : 10 * (k + 1)] = h.matrix
        c0s[10 * k : 10 * (k + 1)] = (c0.c_eg, c0.c_ge)
    t1 = rng.uniform(0.0, 25.0, size=10_000)
    t2 = t1 + rng.uniform(0.0, 25.0, size=10_000)
    n1 = np.empty(10_000)
    n2 = np.empty(10_000)
    for ts, out in ((t1, n1), (t2, n2)):
        a, b = _evolve(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1], c0s[:, 0], c0s[:, 1], ts)
        out[:] = np.abs(a) ** 2 + np.abs(b) ** 2
    mono_ok = bool(np.all(n2 <= n1 + 1e-9)) and bool(np.all(n1 <= 1 + 1e-9))
    ok = ok and mono_ok
    details.append(f"norm monotone 1e4 samples = {mono_ok}")

    report(10, "symmetry suite", ok, ", ".join(details))


def test_c11_chiral_nonchiral_reduction():
    rng = np.random.default_rng(4096)
    patterns = all_orderings()
    worst = 0.0
    for _ in range(10_000):
        cfg = layout_from_pattern(patterns[rng.integers(len(patterns))])
        phi = rng.uniform(0.0, 4 * PI)
        gamma = rng.choice((0.5, 1.0, 2.0))
        a = coefficients(cfg, phi, gamma / 2, gamma / 2)
        b = CoefficientSet(*brute_force_nonchiral(cfg.positions_a, cfg.positions_b, phi, gamma))
        worst = max(
            worst,
            abs(a.delta_omega_a - b.delta_omega_a), abs(a.delta_omega_b - b.delta_omega_b),
            abs(a.gamma_a - b.gamma_a), abs(a.gamma_b - b.gamma_b),
            abs(a.gamma_coll - b.gamma_coll), abs(a.g - b.g),
        )
    report(11, "chiral-nonchiral reduction", worst < 1e-12, f"1e4 samples, max |d| = {worst:.2e}")
