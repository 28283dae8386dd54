import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from giantatoms import (
    CoefficientSet,
    ChiralitySpec,
    check_dissipator_psd,
    coefficients,
    coefficients_nonchiral,
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


def test_rate_overflow_is_a_named_error():
    cfg = make_preset("separated")
    with pytest.raises(ValueError, match="overflow"):
        coefficients(cfg, 1.0, 5e199, 5e199)
    with pytest.raises(ValueError, match="overflow"):
        coefficients(cfg, 1.0, 1e160, 0.0)


def test_invalid_layout_rejected():
    cfg = make_layout((0, 1, 2), (2, 3, 4))
    with pytest.raises(LayoutError):
        coefficients(cfg, 1.0, 0.5, 0.5)
    with pytest.raises(LayoutError):
        coefficients_nonchiral(cfg, 1.0, 1.0)


def test_bad_rates_rejected():
    cfg = make_preset("separated")
    with pytest.raises(ValueError):
        coefficients(cfg, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        coefficients(cfg, 1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        coefficients_nonchiral(cfg, 1.0, 0.0)


def test_per_point_rates_override():
    # points carrying explicit rates take precedence over the uniform ones
    cfg = make_preset("separated")
    from giantatoms.model import CouplingPoint, GiantAtom, LayoutConfiguration

    atom_a = GiantAtom("a", tuple(CouplingPoint(p, 0.25, 0.25) for p in (0, 1, 2)))
    cfg2 = LayoutConfiguration(atom_a, cfg.atom_b, cfg.preset_tag)
    c_mixed = coefficients(cfg2, 0.9, 0.5, 0.5)
    c_uniform = coefficients(cfg, 0.9, 0.5, 0.5)
    # atom b untouched; atom a decays at half rate
    assert c_mixed.gamma_b == pytest.approx(c_uniform.gamma_b, abs=1e-12)
    assert c_mixed.gamma_a == pytest.approx(0.5 * c_uniform.gamma_a, abs=1e-12)
