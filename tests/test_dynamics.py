import math

import numpy as np
import pytest

from giantatoms import (
    AmplitudePair,
    ChiralitySpec,
    CoefficientSet,
    EffectiveHamiltonian,
    InitialState,
    INITIAL_EG,
    INITIAL_GE,
    ModeClass,
    PhysicalityError,
    build_heff,
    coefficients,
    concurrence,
    dark_modes,
    make_preset,
    propagate_closed,
    rates_from_chirality,
    trajectory,
)
from giantatoms.dynamics import _cos_sinc, _evolve, eigen_split, heff_entries, propagate_numeric_batch
from giantatoms.experiments import _m_components, all_orderings, layout_from_pattern

SQRT3 = math.sqrt(3.0)
ZERO_SET = CoefficientSet(0.0, 0.0, 0.0, 0.0, 0j, 0j)


def rk4(h, c0, t, dt):
    """The batch RK4 for one system and one checkpoint t."""
    c = propagate_numeric_batch([h.matrix], [[c0.c_eg, c0.c_ge]], [t], dt)[0, 0]
    return AmplitudePair(complex(c[0]), complex(c[1]))


def heff_for(preset, phi, chi=0.0, gamma=1.0):
    gr, gl = rates_from_chirality(ChiralitySpec(gamma, chi))
    return build_heff(coefficients(make_preset(preset), phi, gr, gl))


def test_build_heff_zero():
    h = build_heff(ZERO_SET)
    assert np.all(h.matrix == 0)


def test_build_heff_separated_phi0():
    c = CoefficientSet(0.0, 0.0, 9.0, 9.0, 9.0 + 0j, 0j)
    h = build_heff(c)
    expected = -4.5j * np.ones((2, 2))
    assert np.allclose(h.matrix, expected, atol=1e-15)


def test_build_heff_fb_df():
    h = heff_for("fully_braided", math.pi / 3)
    dw = h.matrix[0, 0].real
    expected = np.array([[dw, SQRT3], [SQRT3, dw]], dtype=complex)
    assert np.allclose(h.matrix, expected, atol=1e-12)


def test_build_heff_nonchiral_is_symmetric():
    for preset in ("separated", "partially_braided", "fully_nested"):
        h = heff_for(preset, 0.77)
        assert h.matrix[0, 1] == pytest.approx(h.matrix[1, 0], abs=1e-14)


def test_build_heff_matches_array_path_bitwise(ordering_layouts):
    # the scalar and the array route share one matrix layout and PSD rule
    phis = np.random.default_rng(5).uniform(0.0, 2 * math.pi, size=12)
    for cfg in ordering_layouts:
        for chi in (0.0, 0.5, 1.0):
            gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
            m11, m12, m21, m22 = _m_components(cfg, gr, gl, phis)
            for k, phi in enumerate(phis):
                expected = np.array([[m11[k], m12[k]], [m21[k], m22[k]]])
                got = build_heff(coefficients(cfg, float(phi), gr, gl)).matrix
                assert got.tobytes() == expected.tobytes()


def test_build_heff_rejects_unphysical():
    # |G_coll| > sqrt(G_a G_b): every route to the matrix entries runs the one check
    bad = CoefficientSet(0, 0, 1.0, 1.0, 2.0 + 0j, 0j)
    coeffs = (bad.delta_omega_a, bad.delta_omega_b, bad.gamma_a, bad.gamma_b, bad.gamma_coll, bad.g)
    with pytest.raises(PhysicalityError, match="G_coll=.2"):
        build_heff(bad)
    with pytest.raises(PhysicalityError):
        heff_entries(*coeffs)
    with pytest.raises(PhysicalityError, match="1 of 2 points"):
        heff_entries(*(np.array([0.0, x]) for x in coeffs))


def test_decay_matrix_psd():
    rng = np.random.default_rng(3)
    patterns = all_orderings()
    for _ in range(200):
        cfg = layout_from_pattern(patterns[rng.integers(len(patterns))])
        gr, gl = rates_from_chirality(ChiralitySpec(1.0, rng.uniform(0, 1)))
        h = build_heff(coefficients(cfg, rng.uniform(0, 2 * math.pi), gr, gl))
        decay = 1j * (h.matrix - h.matrix.conj().T)
        eig = np.linalg.eigvalsh(decay)
        assert eig.min() > -1e-12


def test_propagate_closed_frozen():
    h = build_heff(ZERO_SET)
    out = propagate_closed(h, INITIAL_EG, 7.0)
    assert out.c_eg == 1.0 and out.c_ge == 0.0


def test_propagate_closed_df_oscillation():
    h = heff_for("fully_braided", math.pi / 3)
    for t in np.linspace(0.0, 10.0, 401):
        out = propagate_closed(h, INITIAL_EG, float(t))
        assert concurrence(out) == pytest.approx(abs(math.sin(2 * SQRT3 * t)), abs=1e-9)
    peak = propagate_closed(h, INITIAL_EG, math.pi / (4 * SQRT3))
    assert concurrence(peak) == pytest.approx(1.0, abs=1e-12)
    assert abs(peak.c_eg) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_propagate_closed_dark_plateau():
    # separated at phi=0: c_eg = (1+e^{-9t})/2, c_ge = (e^{-9t}-1)/2
    h = heff_for("separated", 0.0)
    for t in (0.0, 0.1, 0.5, 2.0, 10.0):
        out = propagate_closed(h, INITIAL_EG, t)
        decay = math.exp(-9.0 * t)
        assert out.c_eg == pytest.approx((1 + decay) / 2, abs=1e-12)
        assert out.c_ge == pytest.approx((decay - 1) / 2, abs=1e-12)
    late = propagate_closed(h, INITIAL_EG, 10.0)
    assert concurrence(late) == pytest.approx(0.5, abs=1e-6)


def test_propagate_closed_cascade_jordan_branch():
    # perfectly chiral separated at phi=0 is a defective (Jordan) matrix:
    # C(t) = 18 t exp(-9t), peaking at exactly 2/e
    h = heff_for("separated", 0.0, chi=1.0)
    for t in (0.0, 0.05, 1.0 / 9.0, 0.3, 1.0):
        out = propagate_closed(h, INITIAL_EG, t)
        assert concurrence(out) == pytest.approx(18 * t * math.exp(-9 * t), abs=1e-12)
    top = propagate_closed(h, INITIAL_EG, 1.0 / 9.0)
    assert concurrence(top) == pytest.approx(2 / math.e, abs=1e-12)


def test_propagate_closed_rejects_negative_time():
    with pytest.raises(ValueError):
        propagate_closed(build_heff(ZERO_SET), INITIAL_EG, -1.0)


def test_propagate_numeric_identity():
    h = build_heff(ZERO_SET)
    out = rk4(h, INITIAL_GE, 3.0, 1e-3)
    assert abs(out.c_eg) < 1e-12
    assert abs(out.c_ge - 1.0) < 1e-12


@pytest.mark.parametrize("preset,phi,chi,t", [
    ("fully_braided", math.pi / 3, 0.0, 1.0),
    ("separated", 0.0, 0.0, 2.0),
    ("separated", 0.0, 1.0, 2.0),
    ("partially_nested", 1.1, 0.6, 3.0),
])
def test_numeric_agrees_with_closed(preset, phi, chi, t):
    h = heff_for(preset, phi, chi)
    exact = propagate_closed(h, INITIAL_EG, t)
    numeric = rk4(h, INITIAL_EG, t, 1e-3)
    assert abs(exact.c_eg - numeric.c_eg) < 1e-8
    assert abs(exact.c_ge - numeric.c_ge) < 1e-8


def test_numeric_partial_final_step():
    h = heff_for("fully_braided", math.pi / 3)
    # 0.0005 does not divide 0.77 * dt grid evenly; must land exactly on t
    out = rk4(h, INITIAL_EG, 0.7705, 1e-3)
    exact = propagate_closed(h, INITIAL_EG, 0.7705)
    assert abs(out.c_eg - exact.c_eg) < 1e-9


def test_numeric_input_validation():
    zero, m = np.zeros((2, 2)), np.array([[0.3 - 0.5j, 0.1], [0.2, -0.1 - 0.2j]])
    for matrix, checkpoints, dt in [
        (zero, [1.0], 2.0),
        (zero, [math.nan], 1e-3),
        (zero, [-1.0], 1e-3),
        (np.array([[math.nan, 0.1], [0.2, 0.0]]), [1.0], 1e-3),
        (m, [1.0, 0.5], 1e-3),
        (m, [1.0], -0.01),
        (m, [1.0], math.inf),
        (m, [1.0], 0.0),
    ]:
        with pytest.raises(ValueError):
            propagate_numeric_batch([matrix], [[1.0, 0.0]], checkpoints, dt)


def test_concurrence_examples():
    s = 1 / math.sqrt(2)
    assert concurrence(AmplitudePair(s, s)) == pytest.approx(1.0, abs=1e-15)
    assert concurrence(AmplitudePair(1.0, 0.0)) == 0.0
    assert concurrence(AmplitudePair(0.5, -0.5)) == pytest.approx(0.5, abs=1e-15)


def test_trajectory_frozen_grid():
    h = build_heff(ZERO_SET)
    traj = trajectory(h, INITIAL_EG, [0.0, 1.0, 2.0])
    assert np.all(traj.concurrence == 0.0)
    assert np.all(traj.amplitudes[:, 0] == 1.0)


def test_trajectory_df_peak_and_plateau():
    h = heff_for("fully_braided", math.pi / 3)
    traj = trajectory(h, INITIAL_EG, [math.pi / (4 * SQRT3)])
    assert traj.concurrence[0] == pytest.approx(1.0, abs=1e-9)
    h = heff_for("separated", 0.0)
    traj = trajectory(h, INITIAL_EG, [0.0, 10.0])
    assert traj.concurrence[0] == 0.0
    assert traj.concurrence[1] == pytest.approx(0.5, abs=1e-6)


def test_trajectory_rejects_unsorted_grid():
    h = build_heff(ZERO_SET)
    with pytest.raises(ValueError):
        trajectory(h, INITIAL_EG, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        trajectory(h, INITIAL_EG, [-1.0, 0.0])


@pytest.mark.parametrize("grid", [[], [[0.0, 1.0], [2.0, 3.0]]], ids=["empty", "2-d"])
def test_trajectory_rejects_grid_shape(grid):
    with pytest.raises(ValueError, match="must be a time or a non-empty 1-d grid"):
        trajectory(build_heff(ZERO_SET), INITIAL_EG, grid)


def test_trajectory_matches_pointwise_propagation():
    # grid evaluation must be bit-identical to one-shot propagation
    h = heff_for("partially_braided", 1.3, chi=0.4)
    times = np.linspace(0.0, 20.0, 41)
    traj = trajectory(h, INITIAL_EG, times)
    for k in (0, 7, 23, 40):
        single = propagate_closed(h, INITIAL_EG, float(times[k]))
        assert traj.amplitudes[k, 0] == single.c_eg
        assert traj.amplitudes[k, 1] == single.c_ge


def test_long_cascade_trajectory_matches_pointwise_propagation():
    # 20 001 small-z times in one call, past numpy's in-place size for complex
    # temporaries (16 384), against one time per call
    h = heff_for("separated", 1.0, chi=1.0)
    c0 = InitialState(0.6, 0.8j)
    times = np.linspace(0.0, 50.0, 20001)
    traj = trajectory(h, c0, times)
    for k in range(0, times.size, 97):
        single = propagate_closed(h, c0, float(times[k]))
        assert (traj.amplitudes[k, 0], traj.amplitudes[k, 1]) == (single.c_eg, single.c_ge), k
        assert traj.concurrence[k] == concurrence(single), k


@pytest.mark.parametrize("exp", [600, -600])
def test_eigen_split_is_exact_under_power_of_two_scaling(exp):
    # s of a matrix scaled by 2**exp is the unscaled s times 2**exp, bit for
    # bit: the products that would over- or underflow at that scale are
    # formed on entries scaled back to [1/2, 1), each row by its own scale,
    # so a row alone gives the bits it gives among other rows
    rng = np.random.default_rng(5)
    rows = [(p, chi, rng.uniform(0, 2 * math.pi)) for p in all_orderings() for chi in (0.0, rng.uniform(0, 1), 1.0)]
    m = np.array([_m_components(layout_from_pattern(p), *rates_from_chirality(ChiralitySpec(1.0, chi)),
                                np.array([phi])) for p, chi, phi in rows])[:, :, 0]  # (R, 4)
    scaled = np.ldexp(m.view(float), exp).view(complex)
    s = eigen_split(*m.T)[2]
    s_scaled = eigen_split(*scaled.T)[2]
    assert np.all(np.isfinite(s_scaled)) and np.any(s_scaled != 0)
    assert s_scaled.tobytes() == np.ldexp(s.view(float), exp).view(complex).tobytes()
    for i in range(len(rows)):
        assert eigen_split(*scaled[i:i + 1].T)[2].tobytes() == s_scaled[i:i + 1].tobytes()


@pytest.mark.parametrize("per_row_starts", [True, False])
def test_evolve_broadcast_grid_matches_rows_and_cells(per_row_starts):
    # the row constants are computed before broadcasting; a times x rows grid
    # (1-d entries, times[:, None]) must equal one call per row (a trajectory:
    # 0-d matrix, times vector) and one call per cell, in every branch, with
    # per-row starts (as c09 and c10 use) or one shared start (as sweep and
    # the scan use)
    named = [("aaabbb", 1.0, 1.0), ("aaabbb", 0.0, 0.3), ("abaabb", 0.37, 2.0), ("ababab", 0.8, 4.4)]
    rng = np.random.default_rng(11)
    rows = named + [(p, rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)) for p in all_orderings() * 15]
    m = np.array([_m_components(layout_from_pattern(p), *rates_from_chirality(ChiralitySpec(1.0, chi)),
                                np.array([phi])) for p, chi, phi in rows])[:, :, 0]  # (R, 4)
    starts = rng.normal(size=(len(rows), 2)) + 1j * rng.normal(size=(len(rows), 2))
    if not per_row_starts:
        starts[:] = (0.6, 0.8j)
    times = np.concatenate([[0.0, 1e-9], np.linspace(0.05, 50.0, 30)])
    z = np.abs(eigen_split(*m[: len(named)].T)[2])[:, None] * times[None, :]
    assert np.any(z < 1e-6) and np.any((z >= 1e-6) & (z <= 1.0)) and np.any(z > 1.0)
    assert np.all(eigen_split(*m[0])[2] == 0)  # the cascade row: series branch throughout

    c1, c2 = starts.T if per_row_starts else (0.6, 0.8j)
    grid = _evolve(*m.T, c1, c2, times[:, None])
    for i in range(len(rows)):
        row = _evolve(*m[i], starts[i, 0], starts[i, 1], times)
        assert all(g[:, i].tobytes() == r.tobytes() for g, r in zip(grid, row))
    for i in range(len(named)):
        for j in range(times.size):
            cell = _evolve(*m[i], starts[i, 0], starts[i, 1], times[j : j + 1])
            assert all(g[j, i].tobytes() == c[0].tobytes() for g, c in zip(grid, cell))

    # a grid of one row has one-element entries: its row constants must round
    # as a row's, also against a shared start with four nonzero parts
    for i in range(len(rows)):
        start = starts[i] if per_row_starts else (0.36 + 0.48j, 0.48 + 0.64j)
        c1, c2 = starts[i : i + 1].T if per_row_starts else start
        lone = _evolve(*m[i : i + 1].T, c1, c2, times[:, None])
        row = _evolve(*m[i], *start, times)
        assert all(g[:, 0].tobytes() == r.tobytes() for g, r in zip(lone, row))


_ONE = ("0x1.0000000000000p+0", "0x0.0p+0")
_NAN = ("nan", "nan")


@pytest.mark.parametrize("z, cos, sinc", [
    ([0.0], [("0x1.0000000000000p+0", "-0x0.0p+0")], [_ONE]),
    ([5e-7], [("0x1.ffffffffffb9ap-1", "-0x0.0p+0")], [("0x1.ffffffffffe89p-1", "0x0.0p+0")]),
    # the series' bound is strict: 1e-6 takes sin z / z
    ([1e-6], [("0x1.fffffffffee68p-1", "-0x0.0p+0")], [("0x1.ffffffffffa23p-1", "0x0.0p+0")]),
    ([complex("nan")], [("nan", "0x0.0p+0")], [_NAN]),
    # no tiny cell, so no series
    ([1e-6, 0.3 + 0.2j, -2.5j, 4.0 - 1e-3j],
     [("0x1.fffffffffee68p-1", "-0x0.0p+0"), ("0x1.f2f294a134306p-1", "-0x1.e76a25a9c2c0ap-5"),
      ("0x1.88776e4b30aa3p+2", "-0x0.0p+0"), ("-0x1.4eaa6b65131e5p-1", "-0x1.8cc85411a6e41p-11")],
     [("0x1.ffffffffffa23p-1", "0x0.0p+0"), ("0x1.fbaec9ccd8771p-1", "-0x1.4609f6bde9327p-6"),
      ("0x1.35c53d7c09243p+1", "-0x0.0p+0"), ("-0x1.837bae75955c2p-3", "0x1.e700f6b882d89p-14")]),
    # tiny and other cells side by side: each keeps the bits it has alone
    ([0.0, 5e-7, 1e-6, complex("nan")],
     [("0x1.0000000000000p+0", "-0x0.0p+0"), ("0x1.ffffffffffb9ap-1", "-0x0.0p+0"),
      ("0x1.fffffffffee68p-1", "-0x0.0p+0"), ("nan", "0x0.0p+0")],
     [_ONE, ("0x1.ffffffffffe89p-1", "0x0.0p+0"), ("0x1.ffffffffffa23p-1", "0x0.0p+0"), _NAN]),
], ids=["zero", "series", "boundary", "nan", "no-tiny-cell", "mixed"])
def test_cos_sinc_keeps_its_bits(z, cos, sinc):
    # both branches' bits, signed zeros included, as the propagator and the
    # search scan read them
    with np.errstate(invalid="ignore"):  # sin(nan) / nan is its NaN
        got = _cos_sinc(np.asarray(z, dtype=complex))
    hexes = [[(float(x.real).hex(), float(x.imag).hex()) for x in part] for part in got]
    assert hexes == [cos, sinc]


def test_eigenvalues_match_numpy():
    rng = np.random.default_rng(4)
    patterns = all_orderings()
    for _ in range(100):
        cfg = layout_from_pattern(patterns[rng.integers(len(patterns))])
        gr, gl = rates_from_chirality(ChiralitySpec(1.0, rng.uniform(0, 1)))
        h = build_heff(coefficients(cfg, rng.uniform(0, 2 * math.pi), gr, gl))
        report = dark_modes(h, INITIAL_EG)
        got = sorted(report.eigenvalues, key=lambda z: (z.real, z.imag))
        want = sorted(np.linalg.eigvals(h.matrix), key=lambda z: (z.real, z.imag))
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_dark_modes_plateau():
    h = heff_for("separated", math.pi / 3)
    report = dark_modes(h, INITIAL_EG)
    assert report.classification is ModeClass.STEADY_PLATEAU
    assert report.predicted_c_ss == pytest.approx(0.5, abs=1e-12)
    assert abs(report.dark_projection.c_eg) == pytest.approx(0.5, abs=1e-12)
    # a power-of-two rate scale far past where a product of two entries
    # under- or overflows scales the eigenvalues and nothing else
    for scale in (2.0**-600, 2.0**600):
        scaled = dark_modes(EffectiveHamiltonian(h.matrix * scale), INITIAL_EG)
        assert scaled.classification is report.classification, scale
        assert scaled.predicted_c_ss.hex() == report.predicted_c_ss.hex(), scale
        assert scaled.eigenvalues == tuple(lam * scale for lam in report.eigenvalues), scale


def test_dark_modes_oscillation():
    report = dark_modes(heff_for("fully_braided", math.pi / 3), INITIAL_EG)
    assert report.classification is ModeClass.PERSISTENT_OSCILLATION
    assert report.predicted_c_ss is None


def test_dark_modes_decay():
    report = dark_modes(heff_for("separated", 0.4 * math.pi), INITIAL_EG)
    assert report.classification is ModeClass.DECAYS_TO_ZERO
    assert report.predicted_c_ss == 0.0
    assert all(lam.imag < 0 for lam in report.eigenvalues)


def test_norm_monotone_along_trajectories():
    rng = np.random.default_rng(5)
    patterns = all_orderings()
    times = np.linspace(0.0, 30.0, 61)
    for _ in range(100):
        cfg = layout_from_pattern(patterns[rng.integers(len(patterns))])
        gr, gl = rates_from_chirality(ChiralitySpec(1.0, rng.uniform(0, 1)))
        h = build_heff(coefficients(cfg, rng.uniform(0, 2 * math.pi), gr, gl))
        traj = trajectory(h, INITIAL_EG, times)
        norms = np.abs(traj.amplitudes[:, 0]) ** 2 + np.abs(traj.amplitudes[:, 1]) ** 2
        assert norms.max() <= 1 + 1e-9
        assert np.all(np.diff(norms) <= 1e-9)


def test_mirror_symmetry_quick():
    times = np.linspace(0.0, 25.0, 26)
    real_state = InitialState(0.6, -0.8)
    for preset in ("separated", "fully_nested"):
        for chi in (0.0, 0.5, 1.0):
            for phi in (0.3, 1.1, 2.9):
                gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
                cfg = make_preset(preset)
                h1 = build_heff(coefficients(cfg, phi, gr, gl))
                h2 = build_heff(coefficients(cfg, 2 * math.pi - phi, gr, gl))
                for c0 in (INITIAL_EG, real_state):
                    t1 = trajectory(h1, c0, times).concurrence
                    t2 = trajectory(h2, c0, times).concurrence
                    assert np.max(np.abs(t1 - t2)) < 1e-9


def test_fb_pi_periodic_quick():
    times = np.linspace(0.0, 25.0, 26)
    cfg = make_preset("fully_braided")
    for chi in (0.0, 1.0):
        gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
        for phi in (0.2, 0.9, 2.0):
            h1 = build_heff(coefficients(cfg, phi, gr, gl))
            h2 = build_heff(coefficients(cfg, phi + math.pi, gr, gl))
            for c0 in (INITIAL_EG, INITIAL_GE):
                t1 = trajectory(h1, c0, times).concurrence
                t2 = trajectory(h2, c0, times).concurrence
                assert np.max(np.abs(t1 - t2)) < 1e-9


def test_decoupling_freeze():
    # decoupled: populations frozen (the residual Lamb shift only rotates a
    # global phase), no entanglement ever builds up
    h = heff_for("separated", 2 * math.pi / 3)
    traj = trajectory(h, INITIAL_EG, np.linspace(0.0, 50.0, 101))
    assert np.max(np.abs(np.abs(traj.amplitudes[:, 0]) - 1.0)) < 1e-9
    assert np.max(np.abs(traj.amplitudes[:, 1])) < 1e-9
    assert np.max(traj.concurrence) < 1e-9
