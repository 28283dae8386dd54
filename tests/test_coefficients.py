import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from giantatoms import (
    CoefficientSet,
    ChiralitySpec,
    InitialState,
    all_orderings,
    check_dissipator_psd,
    coefficients,
    coefficients_nonchiral,
    evaluate_concurrence,
    layout_from_pattern,
    make_layout,
    make_preset,
    phase_distance,
    rates_from_chirality,
)
from giantatoms.coefficients import _coefficient_arrays, psd_mask
from giantatoms.model import LayoutError

SQRT3 = math.sqrt(3.0)


def as_tuple(c: CoefficientSet):
    return (c.delta_omega_a, c.delta_omega_b, c.gamma_a, c.gamma_b, c.gamma_coll, c.g)


def test_phase_distance_examples():
    assert phase_distance(0, 3, math.pi / 3) == pytest.approx(math.pi, abs=1e-15)
    assert phase_distance(5, 5, 1.7) == 0.0
    assert phase_distance(4, 1, math.pi / 4) == pytest.approx(3 * math.pi / 4, abs=1e-15)
    assert phase_distance(1, 4, 0.3) == phase_distance(4, 1, 0.3)


def test_separated_decoupling_phase():
    cfg = make_preset("separated")
    c = coefficients(cfg, 2 * math.pi / 3, 0.5, 0.5)
    assert abs(c.gamma_a) < 1e-12
    assert abs(c.gamma_b) < 1e-12
    assert abs(c.gamma_coll) < 1e-12
    assert abs(c.g) < 1e-12


def test_fully_braided_df_phase():
    cfg = make_preset("fully_braided")
    c = coefficients(cfg, math.pi / 3, 0.5, 0.5)
    assert abs(c.gamma_a) < 1e-12
    assert abs(c.gamma_b) < 1e-12
    assert abs(c.gamma_coll) < 1e-12
    # DF exchange survives: g = (5 sin(phi) + 3 sin(3 phi) + sin(5 phi))/2 at pi/3
    assert c.g == pytest.approx(SQRT3, abs=1e-12)
    assert c.g.imag == pytest.approx(0.0, abs=1e-15)


def test_separated_pi_third_values():
    cfg = make_preset("separated")
    c = coefficients(cfg, math.pi / 3, 0.5, 0.5)
    assert c.gamma_a == pytest.approx(4.0, abs=1e-12)
    assert c.gamma_b == pytest.approx(4.0, abs=1e-12)
    assert c.gamma_coll == pytest.approx(-4.0, abs=1e-12)
    assert abs(c.g) < 1e-12


def test_nonchiral_fb_zero_phase():
    c = coefficients_nonchiral(make_preset("fully_braided"), 0.0, 1.0)
    assert as_tuple(c) == (0.0, 0.0, 9.0, 9.0, 9.0 + 0j, 0.0 + 0j)


def test_nonchiral_separated_decoupling():
    c = coefficients_nonchiral(make_preset("separated"), 2 * math.pi / 3, 1.0)
    assert abs(c.gamma_a) < 1e-12
    assert abs(c.gamma_b) < 1e-12
    assert abs(c.gamma_coll) < 1e-12
    assert abs(c.g) < 1e-12


def test_nonchiral_pb_pi_third():
    c = coefficients_nonchiral(make_preset("partially_braided"), math.pi / 3, 1.0)
    assert c.gamma_a == pytest.approx(1.0, abs=1e-12)
    assert c.gamma_b == pytest.approx(1.0, abs=1e-12)
    assert c.gamma_coll.real == pytest.approx(-1.0, abs=1e-12)
    assert c.g.real == pytest.approx(SQRT3 / 2, abs=1e-12)


def test_matches_brute_force_oracle(coefficient_oracle, ordering_layouts):
    rng = np.random.default_rng(7)
    for cfg in ordering_layouts:
        for _ in range(5):
            phi = rng.uniform(0, 2 * math.pi)
            chi = rng.uniform(0, 1)
            gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
            got = coefficients(cfg, phi, gr, gl)
            want = coefficient_oracle(cfg.atom_a.positions, cfg.atom_b.positions, phi, gr, gl)
            for a, b in zip(as_tuple(got), want):
                assert a == pytest.approx(b, abs=1e-12)


def test_nonchiral_matches_brute_force(nonchiral_oracle, ordering_layouts):
    rng = np.random.default_rng(8)
    for cfg in ordering_layouts:
        phi = rng.uniform(0, 2 * math.pi)
        got = coefficients_nonchiral(cfg, phi, 1.3)
        want = nonchiral_oracle(cfg.atom_a.positions, cfg.atom_b.positions, phi, 1.3)
        for a, b in zip(as_tuple(got), want):
            assert a == pytest.approx(b, abs=1e-12)


def test_chiral_reduces_to_nonchiral(ordering_layouts):
    phis = np.linspace(0.0, 4 * math.pi, 37)
    for cfg in ordering_layouts:
        for phi in phis:
            for gamma in (0.5, 1.0, 2.0):
                split = coefficients(cfg, phi, gamma / 2, gamma / 2)
                plain = coefficients_nonchiral(cfg, phi, gamma)
                for a, b in zip(as_tuple(split), as_tuple(plain)):
                    assert abs(a - b) < 1e-12 * max(1.0, gamma * 9)


def test_individual_decay_is_coherent_sum(ordering_layouts):
    # Gamma_j must equal gamma * |sum_n exp(i phi x_n)|^2 under uniform rates
    rng = np.random.default_rng(9)
    for cfg in ordering_layouts:
        for _ in range(10):
            phi = rng.uniform(0, 2 * math.pi)
            chi = rng.uniform(0, 1)
            gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
            c = coefficients(cfg, phi, gr, gl)
            for atom, got in ((cfg.atom_a, c.gamma_a), (cfg.atom_b, c.gamma_b)):
                amp = sum(np.exp(1j * phi * p) for p in atom.positions)
                assert got == pytest.approx(abs(amp) ** 2, abs=1e-12)
                assert got >= -1e-12


def test_psd_over_random_samples(ordering_layouts):
    rng = np.random.default_rng(10)
    for _ in range(10_000):
        cfg = ordering_layouts[rng.integers(len(ordering_layouts))]
        phi = rng.uniform(0, 2 * math.pi)
        gr, gl = rates_from_chirality(ChiralitySpec(rng.uniform(0.1, 3.0), rng.uniform(0, 1)))
        assert check_dissipator_psd(coefficients(cfg, phi, gr, gl))


def test_two_pi_periodicity(ordering_layouts):
    rng = np.random.default_rng(11)
    for cfg in ordering_layouts:
        for _ in range(5):
            phi = rng.uniform(0, 2 * math.pi)
            chi = rng.uniform(0, 1)
            gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
            a = coefficients(cfg, phi, gr, gl)
            b = coefficients(cfg, phi + 2 * math.pi, gr, gl)
            for x, y in zip(as_tuple(a), as_tuple(b)):
                assert abs(x - y) < 1e-12


@given(phi=st.floats(0.0, 2 * math.pi), chi=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_fb_pi_parity(phi, chi):
    # within-atom distances are even, cross distances odd: phi -> phi + pi
    # flips the cross coefficients only
    cfg = make_preset("fully_braided")
    gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
    a = coefficients(cfg, phi, gr, gl)
    b = coefficients(cfg, phi + math.pi, gr, gl)
    assert abs(a.delta_omega_a - b.delta_omega_a) < 1e-12
    assert abs(a.gamma_a - b.gamma_a) < 1e-12
    assert abs(a.gamma_b - b.gamma_b) < 1e-12
    assert abs(a.gamma_coll + b.gamma_coll) < 1e-12
    assert abs(a.g + b.g) < 1e-12


def test_nonchiral_case_is_real(ordering_layouts):
    rng = np.random.default_rng(12)
    for cfg in ordering_layouts:
        phi = rng.uniform(0, 2 * math.pi)
        c = coefficients(cfg, phi, 0.7, 0.7)
        assert abs(c.gamma_coll.imag) < 1e-12
        assert abs(c.g.imag) < 1e-12


def test_psd_examples():
    c = coefficients_nonchiral(make_preset("separated"), math.pi / 3, 1.0)
    assert check_dissipator_psd(c)
    assert not check_dissipator_psd(CoefficientSet(0, 0, 1.0, 1.0, 2.0 + 0j, 0j))
    assert check_dissipator_psd(CoefficientSet(0, 0, 0.0, 0.0, 0j, 0j))


def test_psd_mask_agrees_with_scalar_check():
    rng = np.random.default_rng(13)
    n = 2000
    da, db = rng.normal(size=n), rng.normal(size=n)
    ga, gb = rng.uniform(-0.1, 3.0, size=n), rng.uniform(-0.1, 3.0, size=n)
    gc = rng.uniform(0.0, 3.0, size=n) * np.exp(1j * rng.uniform(0, 2 * math.pi, size=n))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    # the separated cascade sits on the boundary |G_coll| = sqrt(G_a G_b);
    # scaling G_coll by 1 + 1e-9 pushes it just outside
    phis = np.linspace(0.0, 2 * math.pi, 400)
    cascade = _coefficient_arrays(make_preset("separated"), phis, 1.0, 0.0)
    outside = cascade[:4] + (cascade[4] * (1 + 1e-9),) + cascade[5:]
    for coeffs in ((da, db, ga, gb, gc, g), cascade, outside):
        mask = psd_mask(*coeffs)
        scalar = [check_dissipator_psd(CoefficientSet(*(x[k].item() for x in coeffs))) for k in range(mask.size)]
        assert mask.tolist() == scalar
    assert psd_mask(*cascade).all()
    assert not psd_mask(*outside)[np.abs(cascade[4]) > 1e-3].any()
    assert 0 < psd_mask(da, db, ga, gb, gc, g).sum() < n


def test_psd_mask_at_huge_rates():
    # G_a * G_b overflows above about 1e154; the PSD rule must not
    assert not psd_mask(0.0, 0.0, 1e155, 1e155, 3e155, 0.0)
    assert psd_mask(0.0, 0.0, 1e155, 1e155, 1e155, 0.0)


def test_rate_overflow_is_a_named_error():
    cfg = make_preset("separated")
    # the largest coefficient is 9 (gamma_R + gamma_L): rates this large are fine
    big = as_tuple(coefficients(cfg, 1.0, 5e199, 5e199))
    unit = as_tuple(coefficients(cfg, 1.0, 0.5, 0.5))
    for x, y in zip(big, unit):
        assert abs(x - 1e200 * y) <= 1e-15 * abs(1e200 * y)
    with pytest.raises(ValueError, match="overflow"):
        coefficients(cfg, 1.0, 1e308, 1e308)


def test_invalid_layout_rejected():
    # an invalid layout cannot reach a coefficient call: it fails to construct
    with pytest.raises(LayoutError, match="duplicate position 2 shared by atoms a and b"):
        make_layout((0, 1, 2), (2, 3, 4))


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_rejected(phi):
    with pytest.raises(ValueError, match="phase shifts must be finite"):
        coefficients(make_preset("separated"), phi, 0.5, 0.5)


def test_bad_rates_rejected():
    cfg = make_preset("separated")
    with pytest.raises(ValueError):
        coefficients(cfg, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        coefficients(cfg, 1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        coefficients_nonchiral(cfg, 1.0, 0.0)


layout_positions = st.lists(st.integers(0, 10**6), min_size=6, max_size=6, unique=True)


@given(points=layout_positions, order=st.permutations(range(6)), phi=st.floats(0.0, 2 * math.pi),
       chi=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_arrays_match_brute_force_on_custom_layouts(coefficient_oracle, points, order, phi, chi):
    # the six points dealt to the atoms in any interleaving, far apart or not
    pos_a = tuple(sorted(points[i] for i in order[:3]))
    pos_b = tuple(sorted(points[i] for i in order[3:]))
    gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
    got = _coefficient_arrays(make_layout(pos_a, pos_b), np.asarray([phi]), gr, gl)
    want = coefficient_oracle(pos_a, pos_b, phi, gr, gl)
    for a, b in zip(got, want):
        assert abs(a[0] - b) <= 1e-12 * (gr + gl) * 9


def test_one_phase_call_equals_grid_element(ordering_layouts):
    # a scalar evaluation (refinement, special phases, point queries) and a
    # grid evaluation give the same bits at the same phase
    phis = np.linspace(0.0, 2 * math.pi, 2001)
    far = make_layout((0, 7, 100), (3, 1000, 123456))
    rng = np.random.default_rng(14)
    for cfg in ordering_layouts[::3] + [far]:
        for chi in (0.0, 0.37, 1.0):
            gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
            grid = _coefficient_arrays(cfg, phis, gr, gl)
            for i in rng.integers(0, phis.size, 8):
                one = _coefficient_arrays(cfg, phis[i : i + 1], gr, gl)
                for x, y in zip(grid, one):
                    assert x[i].tobytes() == y[0].tobytes()


def test_reversal_keeps_coefficient_bits_at_equal_rates():
    # reading the waveguide from its other end exchanges the forward and
    # backward pair sums; with gamma_R == gamma_L that leaves every bit in
    # place, signed zeros included, which lets calibrate_presets search an
    # ordering and its reverse once at chi = 0
    phis = np.linspace(0.0, 4 * math.pi, 10_001)
    for pattern in all_orderings():
        for gamma in (1.0, 0.37, 3.0):
            gr, gl = rates_from_chirality(ChiralitySpec(gamma, 0.0))
            got = _coefficient_arrays(layout_from_pattern(pattern), phis, gr, gl)
            rev = _coefficient_arrays(layout_from_pattern(pattern[::-1]), phis, gr, gl)
            for x, y in zip(got, rev):
                assert np.array_equal(x.view(np.uint8), y.view(np.uint8)), (pattern, gamma)


def test_reversal_changes_the_chiral_coefficients():
    # at chi = 1 the reverse ordering is other physics, so the calibration
    # table may not share its chiral cells
    phis = np.linspace(0.0, 2 * math.pi, 2001)
    gr, gl = rates_from_chirality(ChiralitySpec(1.0, 1.0))
    for pattern in all_orderings():
        got = _coefficient_arrays(layout_from_pattern(pattern), phis, gr, gl)
        rev = _coefficient_arrays(layout_from_pattern(pattern[::-1]), phis, gr, gl)
        assert max(np.abs(x - y).max() for x, y in zip(got, rev)) > 0.1, pattern


@given(pattern=st.sampled_from(all_orderings()), gamma=st.sampled_from([1.0, 0.37, 3.0]),
       phi=st.floats(0.0, 2 * math.pi), t=st.floats(0.0, 50.0), theta=st.floats(0.0, math.pi / 2),
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 2 * math.pi)))
@settings(max_examples=200, deadline=None)
def test_reversal_keeps_concurrence_bits_at_chi_zero(pattern, gamma, phi, t, theta, alpha):
    # real starts (alpha = 0) and complex ones alike
    c0 = InitialState(math.cos(theta), math.sin(theta) * cmath.exp(1j * alpha))
    spec = ChiralitySpec(gamma, 0.0)
    got = evaluate_concurrence(layout_from_pattern(pattern), spec, c0, phi, t)
    rev = evaluate_concurrence(layout_from_pattern(pattern[::-1]), spec, c0, phi, t)
    assert got.hex() == rev.hex()
