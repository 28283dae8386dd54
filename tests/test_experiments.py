import math

import numpy as np
import pytest

from giantatoms import (
    ChiralitySpec,
    INITIAL_EG,
    INITIAL_GE,
    ModeClass,
    PhaseKind,
    build_heff,
    calibrate_presets,
    chirality_scan,
    coefficients,
    coefficients_nonchiral,
    compare_initial_states,
    dark_modes,
    detect_steady,
    evaluate_concurrence,
    find_max,
    find_special_phases,
    make_preset,
    rates_from_chirality,
    sweep,
    trajectory,
)
from giantatoms.experiments import (
    CALIBRATION_TARGETS,
    _count_peaks,
    _golden_max,
    all_orderings,
    layout_from_pattern,
)

SQRT3 = math.sqrt(3.0)
NONCHIRAL = ChiralitySpec(1.0, 0.0)
CASCADE = ChiralitySpec(1.0, 1.0)


def traj_for(preset, phi, chi=0.0, t_max=60.0, n=1201, c0=INITIAL_EG):
    gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
    h = build_heff(coefficients(make_preset(preset), phi, gr, gl))
    return trajectory(h, c0, np.linspace(0.0, t_max, n))


def test_golden_max_finds_peak():
    x, v = _golden_max(lambda u: -(u - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_sweep_decoupled_row_is_zero():
    grid = sweep(make_preset("separated"), NONCHIRAL, INITIAL_EG,
                 [2 * math.pi / 3], np.linspace(0.0, 20.0, 51))
    assert grid.c_matrix.shape == (1, 51)
    assert np.max(grid.c_matrix) < 1e-12


def test_sweep_df_unit_cell():
    grid = sweep(make_preset("fully_braided"), NONCHIRAL, INITIAL_EG,
                 [math.pi / 3], [math.pi / (4 * SQRT3)])
    assert grid.c_matrix[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_sweep_cascade_ge_all_zero():
    grid = sweep(make_preset("separated"), CASCADE, INITIAL_GE,
                 np.linspace(0.0, 2 * math.pi, 41), np.linspace(0.0, 30.0, 61))
    assert np.max(grid.c_matrix) < 1e-12


def test_sweep_metadata_and_validation():
    grid = sweep(make_preset("separated"), ChiralitySpec(2.0, 0.5), INITIAL_GE,
                 [0.1, 0.2], [0.0, 1.0])
    assert grid.metadata.layout_label == "separated"
    assert grid.metadata.chi == 0.5
    assert grid.metadata.gamma == 2.0
    assert grid.metadata.initial_label == "ge"
    with pytest.raises(ValueError):
        sweep(make_preset("separated"), NONCHIRAL, INITIAL_EG, [], [0.0, 1.0])
    with pytest.raises(ValueError):
        sweep(make_preset("separated"), NONCHIRAL, INITIAL_EG, [0.2, 0.1], [0.0, 1.0])


def test_find_max_fb_reaches_unity():
    res = find_max(make_preset("fully_braided"), NONCHIRAL, INITIAL_EG)
    assert res.c_max == pytest.approx(1.0, abs=1e-4)
    # peak sits at a DF phase (pi-periodic pair pi/3, 2pi/3 mod pi)
    assert min(abs(res.phi_star - k * math.pi / 3) for k in (1, 2, 4, 5)) < 1e-3


def test_find_max_separated_cascade():
    res = find_max(make_preset("separated"), CASCADE, INITIAL_EG)
    assert res.c_max == pytest.approx(0.736, abs=0.005)
    assert res.c_max == pytest.approx(2 / math.e, abs=1e-4)


def test_find_max_separated_nonchiral():
    res = find_max(make_preset("separated"), NONCHIRAL, INITIAL_EG)
    assert res.c_max == pytest.approx(0.5, abs=0.005)


def test_find_max_never_below_grid():
    cfg = make_preset("partially_nested")
    res = find_max(cfg, NONCHIRAL, INITIAL_EG, phi_points=101, t_points=201)
    grid = sweep(cfg, NONCHIRAL, INITIAL_EG,
                 np.linspace(0.0, 2 * math.pi, 101), np.linspace(0.0, 50.0, 201))
    assert res.c_max >= float(grid.c_matrix.max()) - 1e-12


def test_find_max_consistency_invariant():
    res = find_max(make_preset("partially_braided"), CASCADE, INITIAL_EG,
                   phi_points=201, t_points=401)
    from giantatoms import concurrence

    assert res.c_max == pytest.approx(concurrence(res.amplitudes_at_max), abs=1e-12)


def test_detect_steady_separated_plateau():
    rep = detect_steady(traj_for("separated", 0.0))
    assert rep.is_steady
    assert rep.c_ss == pytest.approx(0.5, abs=1e-3)
    assert rep.mode.classification is ModeClass.STEADY_PLATEAU
    assert abs(rep.c_ss - rep.mode.predicted_c_ss) < 2e-3


def test_detect_steady_df_oscillation_is_not_steady():
    rep = detect_steady(traj_for("fully_braided", math.pi / 3, t_max=60.0, n=4801))
    assert not rep.is_steady


def test_detect_steady_decoupled_not_steady():
    rep = detect_steady(traj_for("separated", 2 * math.pi / 3))
    assert not rep.is_steady


def test_detect_steady_requires_horizon():
    with pytest.raises(ValueError):
        detect_steady(traj_for("separated", 0.0, t_max=5.0, n=51))


def test_detect_steady_agrees_with_dark_modes():
    for preset in ("separated", "fully_braided", "partially_braided",
                   "fully_nested", "partially_nested"):
        for phi in (0.0, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi):
            traj = traj_for(preset, phi)
            rep = detect_steady(traj)
            if rep.is_steady:
                assert rep.mode.classification is ModeClass.STEADY_PLATEAU
                assert abs(rep.c_ss - rep.mode.predicted_c_ss) < 2e-3


def test_special_phases_separated_nonchiral():
    cfg = make_preset("separated")
    phases = find_special_phases(cfg, NONCHIRAL)
    dec = sorted(p.phi for p in phases if p.kind is PhaseKind.DECOUPLED)
    dark = sorted(p.phi for p in phases if p.kind is PhaseKind.DARK_STATE)
    df = [p for p in phases if p.kind is PhaseKind.DECOHERENCE_FREE]
    assert np.allclose(dec, [2 * math.pi / 3, 4 * math.pi / 3], atol=1e-6)
    assert np.allclose(dark, [0.0, math.pi / 3, math.pi, 5 * math.pi / 3], atol=1e-6)
    assert df == []


def test_special_phases_fb_nonchiral():
    phases = find_special_phases(make_preset("fully_braided"), NONCHIRAL)
    df = sorted(p.phi for p in phases if p.kind is PhaseKind.DECOHERENCE_FREE)
    dark = sorted(p.phi for p in phases if p.kind is PhaseKind.DARK_STATE)
    assert np.allclose(df, [math.pi / 3, 2 * math.pi / 3, 4 * math.pi / 3, 5 * math.pi / 3], atol=1e-6)
    assert np.allclose(dark, [0.0, math.pi], atol=1e-6)
    assert not any(p.kind is PhaseKind.DECOUPLED for p in phases)


def test_special_phases_fb_cascade():
    phases = find_special_phases(make_preset("fully_braided"), CASCADE)
    df = sorted(p.phi for p in phases if p.kind is PhaseKind.DECOHERENCE_FREE)
    assert np.allclose(df, [math.pi / 3, 2 * math.pi / 3, 4 * math.pi / 3, 5 * math.pi / 3], atol=1e-6)
    # chirality destroys the phi = 0, pi plateaus
    dark = [p.phi for p in phases if p.kind is PhaseKind.DARK_STATE]
    assert all(min(d, abs(d - math.pi), abs(d - 2 * math.pi)) > 1e-3 for d in dark)


@pytest.mark.parametrize("chi", [0.0, 1.0])
@pytest.mark.parametrize("preset", ["partially_braided", "fully_nested", "partially_nested"])
def test_special_phases_meet_their_conditions(preset, chi, coefficient_oracle):
    cfg = make_preset(preset)
    gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
    phases = find_special_phases(cfg, ChiralitySpec(1.0, chi))
    assert phases
    for sp in phases:
        if chi == 0.0:
            c = coefficients_nonchiral(cfg, sp.phi, 1.0)
            da, db, ga, gb, gc, g = c.delta_omega_a, c.delta_omega_b, c.gamma_a, c.gamma_b, c.gamma_coll, c.g
        else:
            da, db, ga, gb, gc, g = coefficient_oracle(cfg.atom_a.positions, cfg.atom_b.positions, sp.phi, gr, gl)
        decay = max(abs(ga), abs(gb), abs(gc))
        if sp.kind is PhaseKind.DECOUPLED:
            assert max(decay, abs(g)) < 1e-8
        elif sp.kind is PhaseKind.DECOHERENCE_FREE:
            assert decay < 1e-8 < abs(g)
        else:
            report = dark_modes(build_heff(coefficients(cfg, sp.phi, gr, gl)), INITIAL_EG)
            assert report.classification is ModeClass.STEADY_PLATEAU
            assert report.dark_overlap > 1e-6
            assert decay > 1e-6
    # mirror phi -> 2pi - phi maps the set of special phases onto itself
    for sp in phases:
        mirror = (2 * math.pi - sp.phi) % (2 * math.pi)
        assert any(q.kind is sp.kind and min(abs(q.phi - mirror), 2 * math.pi - abs(q.phi - mirror)) < 1e-6
                   for q in phases)


def test_chirality_scan_overlap_and_peaks():
    cfg = make_preset("fully_braided")
    ts = np.linspace(0.0, 50.0, 4001)
    scan = chirality_scan(cfg, math.pi / 3, (0.0, 0.5, 1.0), INITIAL_EG, ts)
    c0 = scan.trajectories[0].concurrence
    c1 = scan.trajectories[2].concurrence
    assert np.max(np.abs(c0 - c1)) < 1e-9
    assert scan.gamma_rights == (0.5, 0.75, 1.0)
    # DF dynamics: same peak count for every chi on a fixed gamma*t grid
    assert len(set(scan.peak_counts)) == 1
    assert scan.peak_counts[0] >= 50  # |sin| peaks every pi/(2 sqrt 3)


def test_chirality_scan_peak_value():
    res = find_max(make_preset("fully_braided"), ChiralitySpec(1.0, 0.5), INITIAL_EG,
                   phi_range=(math.pi / 3, math.pi / 3), t_horizon=50.0)
    assert res.c_max == pytest.approx(1.0, abs=1e-3)


def test_peak_count_grows_on_fixed_pump_time_horizon():
    # with the horizon fixed in gamma_R t units, smaller chi spans more
    # internal time and collects more unit-height peaks
    cfg = make_preset("fully_braided")
    horizon_pump = 40.0
    counts = {}
    for chi in (0.1, 0.01):
        gamma_r = (1 + chi) / 2
        ts = np.linspace(0.0, horizon_pump / gamma_r, 8001)
        scan = chirality_scan(cfg, math.pi / 3, (chi,), INITIAL_EG, ts)
        counts[chi] = scan.peak_counts[0]
    assert counts[0.01] > counts[0.1]


def test_count_peaks_simple():
    c = np.array([0.0, 0.9995, 0.0, 0.9991, 0.5])
    assert _count_peaks(c, 1 - 1e-3) == 2


def test_compare_initial_states_symmetric_nonchiral():
    grids = np.linspace(0.0, 2 * math.pi, 31), np.linspace(0.0, 40.0, 81)
    for preset in ("separated", "fully_braided", "partially_braided"):
        cmp = compare_initial_states(make_preset(preset), NONCHIRAL, *grids)
        assert cmp.max_abs_diff < 1e-9


def test_compare_initial_states_cascade_null():
    cmp = compare_initial_states(make_preset("separated"), CASCADE,
                                 np.linspace(0.0, 2 * math.pi, 31), np.linspace(0.0, 30.0, 61))
    assert np.max(cmp.grid_ge.c_matrix) < 1e-12
    assert np.max(cmp.grid_eg.c_matrix) > 0.5


def test_compare_initial_states_nested_asymmetric():
    cmp = compare_initial_states(make_preset("fully_nested"), NONCHIRAL,
                                 np.linspace(0.0, 2 * math.pi, 101), np.linspace(0.0, 50.0, 201))
    assert cmp.max_abs_diff > 0.05


def test_evaluate_concurrence_matches_sweep():
    cfg = make_preset("partially_nested")
    val = evaluate_concurrence(cfg, NONCHIRAL, INITIAL_EG, 1.1, 7.0)
    grid = sweep(cfg, NONCHIRAL, INITIAL_EG, [1.1], [7.0])
    assert val == grid.c_matrix[0, 0]


def test_orderings_enumeration():
    pats = all_orderings()
    assert len(pats) == 20
    assert len(set(pats)) == 20
    assert all(sorted(p) == ["a", "a", "a", "b", "b", "b"] for p in pats)
    cfg = layout_from_pattern("aababb")
    assert cfg.atom_a.positions == (0, 1, 3)
    assert cfg.atom_b.positions == (2, 4, 5)
    with pytest.raises(ValueError):
        layout_from_pattern("aaabb")


def test_calibration_quick():
    # reduced grids keep this fast; the full-resolution run is exercised by
    # the acceptance suite
    result = calibrate_presets(phi_points=501, t_points=1001)
    chosen = {name: cal.pattern for name, cal in result.assignments.items()}
    assert chosen["separated"] == "aaabbb"
    assert chosen["fully_braided"] == "ababab"
    assert chosen["partially_braided"] == "aababb"
    assert chosen["fully_nested"] == "abbbaa"
    assert chosen["partially_nested"] == "ababba"
    for name, cal in result.assignments.items():
        assert not cal.unresolved, f"{name} unresolved with score {cal.score}"
        assert cal.peaks_ok
    assert result.assignments["separated"].matches_default
    assert result.assignments["fully_braided"].matches_default
    assert result.assignments["partially_braided"].matches_default
    # the nested defaults are outscored by their mirror/reordered variants
    assert not result.assignments["fully_nested"].matches_default
    assert not result.assignments["partially_nested"].matches_default
    layout = result.layout("partially_nested")
    assert layout.atom_a.positions == (0, 2, 5)
    assert layout.atom_b.positions == (1, 3, 4)
    assert set(result.value_table) == set(all_orderings())


def test_calibration_targets_shape():
    from giantatoms import Preset

    named = {Preset.SEPARATED, Preset.FULLY_BRAIDED, Preset.PARTIALLY_BRAIDED,
             Preset.FULLY_NESTED, Preset.PARTIALLY_NESTED}
    assert set(CALIBRATION_TARGETS) == named
    for tg in CALIBRATION_TARGETS.values():
        labels = [lbl for lbl, _ in tg.bands()]
        assert labels == ["nonchiral_eg", "nonchiral_ge", "chiral_eg", "chiral_ge"]
