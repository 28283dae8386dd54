import cmath
import dataclasses
import inspect
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from giantatoms import (
    ChiralitySpec,
    INITIAL_EG,
    INITIAL_GE,
    InitialState,
    ModeClass,
    PhaseKind,
    Preset,
    Trajectory,
    build_heff,
    calibrate_presets,
    chirality_scan,
    coefficients,
    compare_initial_states,
    dark_modes,
    evaluate_concurrence,
    find_max,
    find_special_phases,
    make_layout,
    make_preset,
    propagate_closed,
    rates_from_chirality,
    sweep,
    trajectory,
)
from giantatoms import dynamics, experiments
from giantatoms.dynamics import (
    _SINC_FORM_MAX_Z,
    _SINC_SERIES_MAX_Z,
    concurrence_values,
    eigen_split,
    spectral_weights,
)
from giantatoms.experiments import (
    CALIBRATION_TARGETS,
    _golden_max,
    _row_first_max,
    _stationary_phases,
    all_orderings,
    layout_from_pattern,
)

from conftest import brute_force_nonchiral, detect_steady

SQRT3 = math.sqrt(3.0)
NONCHIRAL = ChiralitySpec(1.0, 0.0)
CASCADE = ChiralitySpec(1.0, 1.0)


def heff_for(preset, phi, chi=0.0):
    return build_heff(coefficients(make_preset(preset), phi, *rates_from_chirality(ChiralitySpec(1.0, chi))))


def traj_for(preset, phi, chi=0.0, t_max=60.0, n=1201, c0=INITIAL_EG):
    return trajectory(heff_for(preset, phi, chi), c0, np.linspace(0.0, t_max, n))


def unit_peaks(c):
    """The interior local maxima of a sampled concurrence curve above 1 - 1e-3."""
    inner = (c[1:-1] > c[:-2]) & (c[1:-1] >= c[2:]) & (c[1:-1] > 1 - 1e-3)
    return int(np.count_nonzero(inner))


def test_golden_max_finds_peak():
    def f(u):
        return -(u - 0.3) ** 2

    x = _golden_max(f, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert f(x) == pytest.approx(0.0, abs=1e-12)


def _golden_reference(f, a, b):
    """The plain golden-section search: one point at a time, f of a float."""
    inv, tol = (math.sqrt(5.0) - 1.0) / 2.0, experiments._MAX_REFINE_TOL
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class _Logged:
    """A value that logs, by point, every comparison the search makes on it."""

    def __init__(self, x, value, log):
        self.x, self.value, self.log = x, value, log

    def __gt__(self, other):
        self.log.append((self.x, other.x))
        return self.value > other.value


_GOLDEN_OBJECTIVES = {
    "peak": lambda x: -(x - 0.3) ** 2,
    "constant": lambda x: 1.0,  # every comparison a tie, fc == fd
    "step": lambda x: float(math.floor(4.0 * x)),  # ties on the treads
    "nan": lambda x: math.nan if 0.2 < x < 0.6 else math.cos(3.0 * x),
    "multimodal": lambda x: math.sin(40.0 * x) * math.cos(7.0 * x),
}
# brackets 1e6, 7e6, 3, 1 and 0.4 times _MAX_REFINE_TOL = 1e-6 wide: 29, 33, 3, 0 and 0 steps
_GOLDEN_BRACKETS = [(0.0, 1.0), (-2.0, 5.0), (0.3, 0.3 + 3e-6), (0.25, 0.25 + 1e-6), (0.7, 0.7 + 4e-7)]


@pytest.mark.parametrize("name", list(_GOLDEN_OBJECTIVES))
def test_look_ahead_search_matches_the_sequential_search(name, monkeypatch):
    # every look-ahead reads the sequential search's values in its order: the
    # same comparisons, on the same points, and the same result
    g = _GOLDEN_OBJECTIVES[name]
    for a, b in _GOLDEN_BRACKETS:
        log, asked = [], []

        def one(x):
            asked.append(x)
            return _Logged(x, g(x), log)

        expected = _golden_reference(one, a, b)
        for look_ahead in range(1, 7):
            monkeypatch.setattr(experiments, "_LOOK_AHEAD", look_ahead)
            ahead_log, batches = [], []

            def batch(xs):
                batches.append(list(xs))
                return [_Logged(x, g(x), ahead_log) for x in xs]

            assert _golden_max(batch, a, b) == expected, (name, a, b, look_ahead)
            assert ahead_log == log, (name, a, b, look_ahead)
            evaluated = [x for xs in batches for x in xs]
            assert set(asked) <= set(evaluated)
            assert len(batches[0]) <= 2**look_ahead and all(len(xs) < 2**look_ahead for xs in batches[1:])
            if look_ahead == 1:
                assert evaluated == asked


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


def test_sweep_axes_and_validation():
    grid = sweep(make_preset("separated"), ChiralitySpec(2.0, 0.5), INITIAL_GE,
                 [0.1, 0.2], [0.0, 1.0])
    assert grid.phi_values.tolist() == [0.1, 0.2] and grid.t_values.tolist() == [0.0, 1.0]
    assert grid.c_matrix.shape == (2, 2)
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
    res = find_max(cfg, NONCHIRAL, INITIAL_EG, phi_points=101)
    grid = sweep(cfg, NONCHIRAL, INITIAL_EG,
                 np.linspace(0.0, 2 * math.pi, 101), np.linspace(0.0, 50.0, experiments._SEARCH_T_POINTS))
    assert res.c_max >= float(grid.c_matrix.max()) - 1e-12


def test_find_max_consistency_invariant():
    res = find_max(make_preset("partially_braided"), CASCADE, INITIAL_EG, phi_points=201)
    from giantatoms import concurrence

    assert res.c_max == pytest.approx(concurrence(res.amplitudes_at_max), abs=1e-12)


def _tie_matrices():
    ties = np.zeros((7, 5))
    ties[[1, 4, 6], [3, 0, 2]] = 1.0  # equal maxima in different blocks
    nan_late = ties.copy()
    nan_late[5, 1] = np.nan  # a NaN after the first maximum still wins
    two_nans = nan_late.copy()
    two_nans[2, 4] = np.nan
    return [ties, nan_late, two_nans, np.full((7, 5), -np.inf), np.zeros((7, 5)),
            np.random.default_rng(2).integers(0, 3, size=(7, 5)).astype(float)]


def _reduce_rows(matrix, blocks):
    """The scan's result, (row, col, value), when _row_first_max takes each
    (rows, width) of blocks, the rows' first width columns of matrix."""
    cols, values = np.full(matrix.shape[0], -1), np.full(matrix.shape[0], np.nan)
    for rows, width in blocks:
        _row_first_max(matrix[rows, :width], rows, cols, values)
    i = int(np.argmax(values))
    return i, int(cols[i]), float(values[i])


@pytest.mark.parametrize("matrix", _tie_matrices())
def test_first_max_matches_argmax(matrix):
    # the rows' first maxima, reduced by one argmax over rows, keep the cell of
    # one argmax over the matrix, in whatever order the row blocks come
    i, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
    rng = np.random.default_rng(4)
    for rows in (1, 2, 3, 5, 7):
        for order in (np.arange(7), np.arange(7)[::-1], rng.permutation(7)):
            blocks = [(order[lo : lo + rows], matrix.shape[1]) for lo in range(0, 7, rows)]
            row, col, value = _reduce_rows(matrix, blocks)
            assert (row, col) == (i, j)
            assert np.array_equal(value, matrix[i, j], equal_nan=True)


@pytest.mark.parametrize("matrix", _tie_matrices())
def test_first_max_handles_blocks_of_different_widths(matrix):
    # a row computed to fewer columns than another leaves its other cells out:
    # the first-occurrence and NaN rules stay those of one argmax over the
    # cells present, whichever rows share a block
    rng = np.random.default_rng(3)
    for rows in (1, 2, 3, 5, 7):
        for _ in range(8):
            order = rng.permutation(matrix.shape[0])
            blocks = [(order[lo : lo + rows], int(rng.integers(1, matrix.shape[1] + 1)))
                      for lo in range(0, matrix.shape[0], rows)]
            present = np.full(matrix.shape, -np.inf)
            for block_rows, width in blocks:
                present[block_rows, :width] = matrix[block_rows, :width]
            i, j = np.unravel_index(int(np.argmax(present)), matrix.shape)
            row, col, value = _reduce_rows(matrix, blocks)
            assert (row, col) == (i, j)
            assert np.array_equal(value, matrix[i, j], equal_nan=True)


def _spy_blocks(monkeypatch):
    """Record (rows, cells) of every block the scan reduces, in order."""
    blocks = []
    reduce = experiments._row_first_max

    def keep(cells, rows, cols, values):
        blocks.append((rows.copy(), cells.copy()))
        reduce(cells, rows, cols, values)

    monkeypatch.setattr(experiments, "_row_first_max", keep)
    return blocks


def _scan(monkeypatch, cells, cfg, spec, c0, phis, n_t):
    """The scan's result at one cell budget, the matrix of every cell and the
    scan's cuts, each a bound with its rows: the first is every row's
    envelope, the second the spectral rows' state norm. The row cutoff is
    patched to the full width, so no cut narrows a row: after the incumbent
    pass the scan computes every row again at full width; those blocks form
    the matrix."""
    assert n_t > experiments._INCUMBENT_COLUMNS
    monkeypatch.setattr(experiments, "_SCAN_CELLS", cells)
    blocks, cuts = _spy_blocks(monkeypatch), []

    def full_width(bound, rows, incumbent, incumbent_row, n_t, dt):
        cuts.append((bound, rows))
        return np.full(rows.size, n_t)

    monkeypatch.setattr(experiments, "_scan_widths", full_width)
    result = experiments._concurrence_scan_uniform(cfg, spec, c0, phis, n_t, 50.0 / (n_t - 1))
    full = [(rows, block) for rows, block in blocks if block.shape[1] == n_t]
    assert np.array_equal(np.concatenate([rows for rows, _ in full]), np.arange(phis.size))
    return result, np.concatenate([block for _, block in full]), cuts


_SCANS = [
    ("abaabb", 0.37, InitialState(0.6, 0.8j), 4001),  # spectral rows only
    ("aaabbb", 1.0, INITIAL_EG, 401),  # the cascade: every row has s = 0
    ("aaabbb", 0.37, InitialState(0.6, 0.8j), 401),  # both kinds of row
    ("aaabbb", 1.0, INITIAL_EG, 4001),
    ("aaabbb", 0.0, InitialState(0.6, 0.8j), 4001),  # near-degenerate rows of different |s|
]


@pytest.mark.parametrize("pattern, chi, c0, n_t", _SCANS)
def test_scan_does_not_depend_on_block_size(monkeypatch, pattern, chi, c0, n_t):
    # cell budgets of one row, the default and all 101 rows give every cell
    # and the first maximum the same bits
    args = (layout_from_pattern(pattern), ChiralitySpec(1.0, chi), c0, np.linspace(0.0, 2 * math.pi, 101), n_t)
    result, matrix, _ = _scan(monkeypatch, experiments._SCAN_CELLS, *args)
    i, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
    assert result == (i, j, matrix[i, j])
    for cells in (n_t, 101 * n_t):
        other, other_matrix, _ = _scan(monkeypatch, cells, *args)
        assert other == result
        assert other_matrix.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("pattern, chi, c0, n_t", _SCANS)
def test_pruned_scan_computes_prefixes_of_the_full_scan(monkeypatch, pattern, chi, c0, n_t):
    # the incumbent is the best cell of every row's first columns, and each
    # row the pruned scan computes holds the full scan's first columns, bit
    # for bit: a cell's cos/sinc depends on its own z alone, and its phase is
    # a prefix of the same cumulative product
    args = (layout_from_pattern(pattern), ChiralitySpec(1.0, chi), c0, np.linspace(0.0, 2 * math.pi, 101), n_t)
    result, matrix, _ = _scan(monkeypatch, experiments._SCAN_CELLS, *args)
    monkeypatch.undo()
    blocks, incumbents = _spy_blocks(monkeypatch), []
    scan_widths = experiments._scan_widths

    def widths(bound, rows, incumbent, incumbent_row, n_t, dt):
        incumbents.append((incumbent, incumbent_row))
        return scan_widths(bound, rows, incumbent, incumbent_row, n_t, dt)

    monkeypatch.setattr(experiments, "_scan_widths", widths)
    assert experiments._concurrence_scan_uniform(*args, 50.0 / (n_t - 1)) == result
    row_best = matrix[:, : experiments._INCUMBENT_COLUMNS].max(axis=1)
    assert incumbents[0] == (row_best.max(), list(row_best).index(row_best.max()))
    # a later cut is against a higher incumbent: the best computed cell of a
    # row that the scan computed again, once that row's first maximum took over
    for (before, _), (incumbent, incumbent_row) in zip(incumbents, incumbents[1:]):
        assert incumbent >= before
        assert incumbent in matrix[incumbent_row]
    for rows, block in blocks:
        for row, cells in zip(rows, block):
            assert cells.tobytes() == matrix[row, : cells.size].tobytes()
    assert sum(block.size for _, block in blocks) < matrix.size


def test_scan_widths_keep_every_column_a_maximum_could_hold():
    # rows whose envelopes decay at rates 0, 1 and 2, a NaN row and a constant
    # row; a column is cut only where bound * (1 + slack) < incumbent, or,
    # after the incumbent's row, where it is <= incumbent
    rates = np.array([0.0, 1.0, 2.0, np.nan, 0.0])
    scale = np.array([1.0, 1.0, 1.0, 1.0, 0.25])
    n_t, dt = 501, 0.01

    def envelope(t):
        return scale * np.exp(-rates * t)

    def widths(incumbent, incumbent_row=4):
        return list(experiments._scan_widths(envelope, np.arange(5), incumbent, incumbent_row, n_t, dt))

    slack = 1.0 + experiments._ENVELOPE_SLACK
    kept = [int(np.count_nonzero(np.exp(-r * np.arange(n_t) * dt) * slack >= 0.5)) for r in (1.0, 2.0)]
    assert 1 < kept[1] < kept[0] < n_t
    for row in (4, -1):
        assert widths(0.5, row) == [n_t, *kept, n_t, 1]  # the NaN row keeps every column, the others at least one
        assert widths(np.nan, row) == [n_t] * 5
    assert widths(0.25 * slack)[4] == n_t  # a bound tied with the incumbent is kept up to its row
    assert widths(0.25 * slack, 3)[4] == 1  # and cut after it: a later tie is not the first maximum
    assert widths(slack, 0) == [n_t, 1, 1, n_t, 1]  # the incumbent's own row keeps its tie
    assert widths(slack, -1) == [1, 1, 1, n_t, 1]
    # a cut of some rows, in any order, gives each the width it has in a cut
    # of all: the tie rule goes by row number, not by place in the cut
    for rows in map(np.array, ([4, 0, 2], [3, 1], [2])):
        def bound(t):
            return scale[rows] * np.exp(-rates[rows] * t)

        for incumbent, incumbent_row in ((0.5, 4), (0.25 * slack, 3), (slack, 0), (slack, -1)):
            some = experiments._scan_widths(bound, rows, incumbent, incumbent_row, n_t, dt)
            assert list(some) == [widths(incumbent, incumbent_row)[r] for r in rows]
            # a row given fewer columns keeps at most those
            limits = np.array([7, 300, 1000])[: rows.size]
            fewer = experiments._scan_widths(bound, rows, incumbent, incumbent_row, limits, dt)
            assert list(fewer) == list(np.minimum(some, limits))


def _row_kinds(cfg, spec, phis, t_max):
    """The scan's row kinds by |s| t_max: degenerate, near-degenerate or
    spectral."""
    _, _, s = eigen_split(*experiments._m_components(cfg, *rates_from_chirality(spec), phis))
    z = np.abs(s) * t_max
    kinds = (("degenerate", z < _SINC_SERIES_MAX_Z), ("near", (z >= _SINC_SERIES_MAX_Z) & (z <= _SINC_FORM_MAX_Z)),
             ("spectral", z > _SINC_FORM_MAX_Z))
    return {kind for kind, rows in kinds if rows.any()}


_DEGENERATE_SCANS = [
    ("aaabbb", 1.0, np.linspace(0.0, 2 * math.pi, 101), {"degenerate"}),  # every row has s = 0
    ("aaabbb", 0.0, np.linspace(0.0, 2 * math.pi, 101), {"near", "spectral"}),
    ("abbaab", 1.0, np.linspace(0.0, 2 * math.pi, 2001)[950:1051], {"degenerate", "near", "spectral"}),
]
_DEGENERATE_IDS = ["cascade", "aaabbb-chi0", "abbaab-near-pi"]


@pytest.mark.parametrize("pattern, chi, phis, kinds", _DEGENERATE_SCANS, ids=_DEGENERATE_IDS)
def test_scan_matches_exact_propagator_without_evolve(monkeypatch, pattern, chi, phis, kinds):
    cfg, spec, c0, n_t = layout_from_pattern(pattern), ChiralitySpec(1.0, chi), InitialState(0.6, 0.8j), 4001
    assert _row_kinds(cfg, spec, phis, 50.0) == kinds
    exact = experiments._concurrence_matrix(cfg, spec, c0, phis, np.arange(n_t) * (50.0 / (n_t - 1)))

    def refuse(*args):
        raise AssertionError("the scan called _evolve")

    monkeypatch.setattr(experiments, "_evolve", refuse)
    _, matrix, _ = _scan(monkeypatch, experiments._SCAN_CELLS, cfg, spec, c0, phis, n_t)
    assert np.max(np.abs(matrix - exact)) < 1e-11


@pytest.mark.parametrize("pattern, chi", [("abaabb", 0.37), ("aaabbb", 1.0)])
def test_sweep_does_not_depend_on_block_size(monkeypatch, pattern, chi):
    # one block of all 101 rows puts 40 501 cells into one _evolve call, past
    # numpy's in-place size for complex temporaries (16 384); one row does not.
    # A block of one row must round its row constants as the others do; only
    # a start with all four parts nonzero makes those products inexact
    runs = [(layout_from_pattern(pattern), ChiralitySpec(1.0, chi), c0,
             np.linspace(0.0, 2 * math.pi, 101), np.linspace(0.0, 50.0, 401))
            for c0 in (InitialState(0.6, 0.8j), InitialState(0.36 + 0.48j, 0.48 + 0.64j))]
    grids = [sweep(*args).c_matrix for args in runs]
    for rows in (1, 101):
        monkeypatch.setattr(experiments, "_SCAN_CELLS", rows * 401)
        for args, grid in zip(runs, grids):
            assert sweep(*args).c_matrix.tobytes() == grid.tobytes()


_PLAIN_SCANS = [
    ("abaabb", 0.37, np.linspace(0.0, 2 * math.pi, 101), {"spectral"}),
    *_DEGENERATE_SCANS[1:],
]


@pytest.mark.parametrize("pattern, chi, phis, kinds", _PLAIN_SCANS, ids=["spectral", *_DEGENERATE_IDS[1:]])
def test_scan_matches_plain_expressions(monkeypatch, pattern, chi, phis, kinds):
    # the scan's reused work arrays and in-place ufuncs must round exactly
    # like the plain whole-matrix expressions, written out here in the scan's
    # operand order: each spectral row from its two geometric sequences, each
    # other row as phase (cos z c0 - i t sinc z d) with the propagator's
    # cos/sinc and the geometric phase
    cfg, spec, c0 = layout_from_pattern(pattern), ChiralitySpec(1.0, chi), InitialState(0.6, 0.8j)
    n_t, dt = 4001, 50.0 / 4000
    assert _row_kinds(cfg, spec, phis, (n_t - 1) * dt) == kinds
    _, matrix, _ = _scan(monkeypatch, experiments._SCAN_CELLS, cfg, spec, c0, phis, n_t)

    m11, m12, m21, m22 = experiments._m_components(cfg, *rates_from_chirality(spec), phis)
    mu, dd, s = eigen_split(m11, m12, m21, m22)
    d1, d2 = dd * c0.c_eg + m12 * c0.c_ge, m21 * c0.c_eg - dd * c0.c_ge
    spectral = np.abs(s) * (n_t - 1) * dt > _SINC_FORM_MAX_Z

    def geometric(rate):
        seq = np.empty((rate.size, n_t), dtype=complex)
        seq[:, 0] = 1.0
        seq[:, 1:] = np.exp(-1j * rate * dt)[:, None]
        return np.cumprod(seq, axis=1)

    c1, c2 = np.empty((2, phis.size, n_t), dtype=complex)
    p1, q1, p2, q2 = spectral_weights(s[spectral], c0.c_eg, c0.c_ge, d1[spectral], d2[spectral])
    ep, em = geometric(mu[spectral] + s[spectral]), geometric(mu[spectral] - s[spectral])
    c1[spectral] = ep * p1[:, None] + em * q1[:, None]
    c2[spectral] = ep * p2[:, None] + em * q2[:, None]
    near = ~spectral
    ts = np.arange(n_t) * dt
    cos, sinc = dynamics._cos_sinc(np.multiply(s[near][:, None], ts))
    phase = geometric(mu[near])
    cz, its = np.multiply(phase, cos), np.multiply(phase, np.multiply(sinc, 1j * ts))
    c1[near] = np.multiply(cz, c0.c_eg) - np.multiply(its, d1[near][:, None])
    c2[near] = np.multiply(cz, c0.c_ge) - np.multiply(its, d2[near][:, None])
    assert matrix.tobytes() == (2.0 * np.abs(c1) * np.abs(c2)).tobytes()


def _real_start(angle):
    return InitialState(math.cos(angle), math.sin(angle))


def _complex_start(v):
    norm = math.hypot(*v)
    return InitialState(complex(v[0], v[1]) / norm, complex(v[2], v[3]) / norm)


_STARTS = st.one_of(
    st.sampled_from([INITIAL_EG, INITIAL_GE]),
    st.floats(0.0, 2 * math.pi).map(_real_start),
    st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda v: math.hypot(*v) > 0.1).map(_complex_start),
)
# 41 rows over the whole range and the 21 default-grid rows around pi, where
# abbaab at chi = 1 has degenerate, near-degenerate and spectral rows
_ENVELOPE_PHIS = np.union1d(np.linspace(0.0, 2 * math.pi, 41), np.linspace(0.0, 2 * math.pi, 2001)[990:1011])


@given(pattern=st.sampled_from(all_orderings()), chi=st.floats(0.0, 1.0), c0=_STARTS)
@example(pattern="aaabbb", chi=1.0, c0=INITIAL_EG)  # degenerate rows only
@example(pattern="aaabbb", chi=0.0, c0=InitialState(0.6, 0.8j))  # near-degenerate and dark (a- = 0) rows
@example(pattern="abbaab", chi=1.0, c0=_real_start(2.0))  # all three kinds
@settings(max_examples=30, deadline=None)
def test_envelope_bounds_every_scan_cell(pattern, chi, c0):
    # the pruning is sound only if each row's envelope lies above every cell
    # the full scan computes in that row, within the slack, and never rises
    cfg, spec, n_t = layout_from_pattern(pattern), ChiralitySpec(1.0, chi), 1001
    with pytest.MonkeyPatch.context() as mp:
        _, matrix, cuts = _scan(mp, experiments._SCAN_CELLS, cfg, spec, c0, _ENVELOPE_PHIS, n_t)
    envelope, rows = cuts[0]
    assert np.array_equal(rows, np.arange(_ENVELOPE_PHIS.size))
    bound = envelope((np.arange(n_t) * (50.0 / (n_t - 1)))[:, None]).T
    assert np.all(matrix <= bound * (1.0 + experiments._ENVELOPE_SLACK))
    assert np.all(bound[:, 1:] <= bound[:, :-1] * (1.0 + 1e-12))


def _threshold_phase(cfg, spec, t_max):
    """The phase, on a fine grid, of the spectral row nearest the form switch
    |s| t_max = _SINC_FORM_MAX_Z: the largest spectral weights (they grow as
    1/|s|) and the deepest cancellation between the two exponential terms."""
    phis = np.linspace(0.0, 2 * math.pi, 20001)
    _, _, s = eigen_split(*experiments._m_components(cfg, *rates_from_chirality(spec), phis))
    z = np.abs(s) * t_max
    return phis[np.argmin(np.where(z > _SINC_FORM_MAX_Z, z, np.inf))]


@given(pattern=st.sampled_from(all_orderings()), chi=st.floats(0.0, 1.0), c0=_STARTS)
@example(pattern="abbaab", chi=1.0, c0=_real_start(2.0))  # rows on both sides of the form switch
@example(pattern="aaabbb", chi=0.0, c0=InitialState(0.6, 0.8j))  # near-degenerate and dark (a- = 0) rows
@settings(max_examples=30, deadline=None)
def test_state_norm_bounds_every_later_scan_cell(pattern, chi, c0):
    """The state norm N(t_j), times 1 + _ENVELOPE_SLACK, must lie at or above
    every cell at columns j and after in each spectral row, and the norm's cut
    against any incumbent, a tiny one included, must leave only cells below
    it.

    Error model. N never rises where the decay matrix is PSD; psd_mask bounds
    its lowest eigenvalue below by -1e-12 times the coefficient scale,
    so N may rise by a factor of about 1 + 1e-12 scale t, and _row_norm holds
    it at e^{rise t_max} N for the rise the row's matrix allows. It sums
    |c_k|^2 of the spectral amplitudes c_k = p_k e^{-i(mu+s)t} +
    q_k e^{-i(mu-s)t}, whose two terms, of size up to |p| + |q|, cancel to
    |c_k| <= 1, which leaves an absolute error of about eps (|p| + |q|)^2 in
    N; next to the form switch (_threshold_phase) the weights are largest,
    and where N is small the slack relative to N does not cover that error,
    so _row_norm adds the absolute margin _NORM_ROUNDOFF (|p| + |q|)^2. The
    scan's own drift, O(n_t eps) relative per amplitude, moves a cell by at
    most about sqrt(N) n_t eps (|p| + |q|), within the relative slack
    wherever N is above about 1e-12 (|p| + |q|)^2 and within the margin below
    it. The bound is evaluated inside the closure under np.errstate, so an
    overflow there is no RuntimeWarning.
    """
    cfg, spec, n_t, t_max = layout_from_pattern(pattern), ChiralitySpec(1.0, chi), 1001, 50.0
    phis = np.union1d(_ENVELOPE_PHIS, [_threshold_phase(cfg, spec, t_max)])
    with pytest.MonkeyPatch.context() as mp:
        _, matrix, cuts = _scan(mp, experiments._SCAN_CELLS, cfg, spec, c0, phis, n_t)
    _, _, s = eigen_split(*experiments._m_components(cfg, *rates_from_chirality(spec), phis))
    spectral = np.flatnonzero(np.abs(s) * t_max > _SINC_FORM_MAX_Z)
    if not spectral.size:
        return
    norm, rows = cuts[1]
    assert np.array_equal(rows, spectral)
    ts = np.arange(n_t) * (t_max / (n_t - 1))
    bound = norm(ts[:, None]).T * (1.0 + experiments._ENVELOPE_SLACK)
    later = np.maximum.accumulate(matrix[spectral, ::-1], axis=1)[:, ::-1]  # the best cell at j and after
    assert np.all(later <= bound)
    for incumbent in (1e-300, 1e-12, float(np.median(matrix)), float(matrix.max())):
        widths = experiments._scan_widths(norm, rows, incumbent, -1, n_t, t_max / (n_t - 1))
        assert all(np.all(cells[width:] < incumbent) for cells, width in zip(matrix[spectral], widths))


def _nan_row(monkeypatch, row):
    """Make one phase row of the scan NaN: its effective matrix entries."""
    m_components = experiments._m_components

    def with_nan(*args):
        m = [x.copy() for x in m_components(*args)]
        m[0][row] = np.nan
        return m

    monkeypatch.setattr(experiments, "_m_components", with_nan)


@pytest.mark.parametrize("nan_row", [None, 600], ids=["ties", "nan-row"])
def test_rising_incumbent_keeps_the_full_scans_first_maximum(monkeypatch, nan_row):
    # after a wide block the incumbent can move to another row; the rows not
    # yet computed are then cut again under that row's tie rule. In the
    # cascade from eg every row reaches the same maximum, so each later row
    # ties the incumbent; a NaN row's NaN is the first maximum. Either way the
    # pruned scan returns the full scan's (row, col, value), bit for bit
    cfg, spec = layout_from_pattern("aaabbb"), CASCADE
    phis, n_t = np.linspace(0.0, 2 * math.pi, 2001)[:1001], 4001
    if nan_row is not None:
        _nan_row(monkeypatch, nan_row)
    full, matrix, _ = _scan(monkeypatch, experiments._SCAN_CELLS, cfg, spec, INITIAL_EG, phis, n_t)
    i, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
    assert full[:2] == (i, j) and np.array_equal(full[2], matrix[i, j], equal_nan=True)
    monkeypatch.undo()
    if nan_row is not None:
        _nan_row(monkeypatch, nan_row)
    scan_widths, incumbent_rows = experiments._scan_widths, []

    def widths(bound, rows, incumbent, incumbent_row, n_t, dt):
        incumbent_rows.append(incumbent_row)
        return scan_widths(bound, rows, incumbent, incumbent_row, n_t, dt)

    monkeypatch.setattr(experiments, "_scan_widths", widths)
    pruned = experiments._concurrence_scan_uniform(cfg, spec, INITIAL_EG, phis, n_t, 50.0 / (n_t - 1))
    assert pruned[:2] == full[:2]
    assert np.array_equal(pruned[2], full[2], equal_nan=True)
    if nan_row is None:
        assert len(set(incumbent_rows)) > 1  # the incumbent moved, and the rows left were cut again
    else:
        assert set(incumbent_rows) == {nan_row}  # a NaN incumbent cuts nothing


_PRUNED_SEARCHES = [
    ("aaabbb", 1.0, InitialState(0.6, 0.8)),  # the cascade tie: every row starts at its maximum
    ("aaabbb", 1.0, INITIAL_GE),  # C = 0 everywhere: the rows after the first are cut at their ties
    ("aaabbb", 0.0, INITIAL_EG),  # the maximum lies on the phi = 0 row, which has a dark mode (a- = 0)
    ("bbaaab", 0.7388496187722705, InitialState(0.3485351275070701 + 0.6206217717157976j,
                                                -0.005356172642051363 + 0.7023696980797246j)),
    ("aabbba", 0.0, INITIAL_GE),  # a calibration search whose incumbent moves: the rows left are cut again
]


# computed cells of each search in test_pruned_search_matches_the_full_scan
_PRUNED_SEARCH_CELLS = [153421, 36033, 315509, 112044, 141113, 32032, 65517]


def test_pruned_search_matches_the_full_scan(monkeypatch):
    # on the default grid the pruned scan finds the full scan's first maximum,
    # so find_max returns the same result bit for bit, while it computes a
    # small share of the cells: the exact counts are pinned, so a change that
    # prunes less fails here rather than only running slower
    rng = np.random.default_rng(13)
    searches = _PRUNED_SEARCHES + [(str(rng.choice(all_orderings())), float(rng.uniform(0.0, 1.0)), start)
                                   for start in (_real_start(rng.uniform(0.0, 2 * math.pi)), _random_start(rng))]
    scan_widths = experiments._scan_widths
    computed, grid = [], 0
    for pattern, chi, c0 in searches:
        cfg, spec = layout_from_pattern(pattern), ChiralitySpec(1.0, chi)
        widths, blocks = [], _spy_blocks(monkeypatch)
        monkeypatch.setattr(experiments, "_scan_widths", lambda *args: widths.append(scan_widths(*args)) or widths[-1])
        pruned = find_max(cfg, spec, c0)
        computed.append(sum(block.size for _, block in blocks))
        grid += widths[0].size * 4001
        monkeypatch.setattr(experiments, "_scan_widths", lambda bound, rows, *args: np.full(rows.size, 4001))
        assert find_max(cfg, spec, c0) == pruned, (pattern, chi, c0)
    assert computed == _PRUNED_SEARCH_CELLS
    assert sum(computed) < 0.25 * grid


def test_pruned_search_computes_no_cell_twice(monkeypatch):
    # the incumbent pass computes every row's first 32 columns once; only the
    # rows that keep more columns, after every cut, are computed again, each
    # once and to at least its width, in blocks within the cell budget, widest
    # first
    scan_widths = experiments._scan_widths
    k0 = experiments._INCUMBENT_COLUMNS
    for pattern, chi, c0 in _PRUNED_SEARCHES:
        cuts, blocks = [], _spy_blocks(monkeypatch)

        def widths(bound, rows, *args):
            cuts.append((rows, scan_widths(bound, rows, *args)))
            return cuts[-1][1]

        monkeypatch.setattr(experiments, "_scan_widths", widths)
        find_max(layout_from_pattern(pattern), ChiralitySpec(1.0, chi), c0)
        w = np.full(cuts[0][0].size, 4001)  # each row's narrowest cut
        for rows, cut in cuts:
            w[rows] = np.minimum(w[rows], cut)
        incumbent_pass = [rows for rows, block in blocks if block.shape[1] == k0]
        assert np.array_equal(np.concatenate(incumbent_pass), np.arange(w.size))
        again = blocks[len(incumbent_pass) :]
        assert all(block.shape[1] > k0 and block.size <= experiments._SCAN_CELLS for _, block in again)
        rows = np.concatenate([rows for rows, _ in again])
        assert sorted(rows) == list(np.flatnonzero(w > k0)), (pattern, chi, c0)
        for block_rows, block in again:
            assert block.shape[1] == w[block_rows].max()
        assert list(w[rows]) == sorted(w[rows], reverse=True)


def test_find_max_rejects_grid_sizes():
    with pytest.raises(ValueError, match="phi_points"):
        find_max(make_preset("separated"), CASCADE, INITIAL_EG, phi_points=0)


def test_find_max_rejects_reversed_phase_range():
    with pytest.raises(ValueError, match="reversed"):
        find_max(make_preset("separated"), NONCHIRAL, INITIAL_EG, (3.0, 1.0))


_GRID_ENTRIES = ["trajectory", "sweep", "compare_initial_states", "chirality_scan"]
_TIME_ENTRIES = ["evaluate_concurrence", "propagate_closed", "find_max", "find_max_phi_range",
                 *_GRID_ENTRIES, *(f"{e}_leading" for e in _GRID_ENTRIES)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("entry", _TIME_ENTRIES)
def test_non_finite_times_rejected(entry, bad):
    # every time a study takes must be finite and >= 0, wherever it sits in a grid (and so must
    # find_max's phase range be finite); the error names the bad value
    cfg = make_preset("separated")
    spec = ChiralitySpec(1.0, 0.3)
    h = build_heff(coefficients(cfg, 1.0, 0.65, 0.35))
    small = {"phi_points": 3}
    grid = [bad, 2.0] if entry.endswith("_leading") else [0.0, bad]
    calls = {
        "evaluate_concurrence": lambda: evaluate_concurrence(cfg, spec, INITIAL_EG, 1.0, bad),
        "propagate_closed": lambda: propagate_closed(h, INITIAL_EG, bad),
        "trajectory": lambda: trajectory(h, INITIAL_EG, grid),
        "sweep": lambda: sweep(cfg, spec, INITIAL_EG, [0.5, 1.0], grid),
        "compare_initial_states": lambda: compare_initial_states(cfg, spec, [0.5, 1.0], grid),
        "chirality_scan": lambda: chirality_scan(cfg, 1.0, [0.3], INITIAL_EG, grid),
        "find_max": lambda: find_max(cfg, spec, INITIAL_EG, t_horizon=bad, **small),
        "find_max_phi_range": lambda: find_max(cfg, spec, INITIAL_EG, (0.0, bad), **small),
    }
    with pytest.raises(ValueError, match=f"finite.*got.*{re.escape(str(bad))}"):
        calls[entry.removesuffix("_leading")]()


def _swap(pattern):
    return pattern.translate(str.maketrans("ab", "ba"))


def _count_scan_rows(monkeypatch, full_phis=None):
    """Record the phase rows each scan receives; with full_phis, scan those
    instead, which gives find_max's result without the mirror reduction."""
    scan = experiments._concurrence_scan_uniform
    rows = []

    def counted(cfg, chirality, c0, phis, n_t, dt):
        rows.append(phis.size)
        return scan(cfg, chirality, c0, phis if full_phis is None else full_phis, n_t, dt)

    monkeypatch.setattr(experiments, "_concurrence_scan_uniform", counted)
    return rows


@pytest.mark.parametrize("phi_points", [201, 200])
@pytest.mark.parametrize("pattern, chi, c0", [
    ("abbaab", 0.0, INITIAL_EG),
    ("aababb", 0.3, INITIAL_GE),
    ("abbbaa", 1.0, INITIAL_EG),
    ("ababba", 0.7, InitialState(0.6, -0.8)),
    ("aabbba", 0.5, InitialState(0.6j, 0.8j)),  # real up to a global phase
    ("aaabbb", 0.8, InitialState(0.96 * cmath.exp(0.7j), -0.28 * cmath.exp(0.7j))),
])
def test_mirror_reduced_search_matches_full_scan(monkeypatch, pattern, chi, c0, phi_points):
    cfg, spec = layout_from_pattern(pattern), ChiralitySpec(1.0, chi)
    rows = _count_scan_rows(monkeypatch)
    res = find_max(cfg, spec, c0, phi_points=phi_points)
    assert rows == [(phi_points + 1) // 2]
    _count_scan_rows(monkeypatch, np.linspace(0.0, 2 * math.pi, phi_points))
    ref = find_max(cfg, spec, c0, phi_points=phi_points)
    assert res.c_max == pytest.approx(ref.c_max, abs=1e-12)
    assert min(abs(res.phi_star - ref.phi_star), abs(res.phi_star - (2 * math.pi - ref.phi_star))) < 1e-6
    assert res.t_star == pytest.approx(ref.t_star, abs=1e-6)


@pytest.mark.parametrize("c0, phi_range", [
    (InitialState(0.6, 0.8j), (0.0, 2 * math.pi)),  # complex start
    (INITIAL_EG, (0.0, math.pi)),  # range not symmetric about pi
    (INITIAL_EG, (0.5, 2 * math.pi)),
])
def test_mirror_reduction_needs_real_start_and_symmetric_range(monkeypatch, c0, phi_range):
    rows = _count_scan_rows(monkeypatch)
    find_max(layout_from_pattern("abbaab"), ChiralitySpec(1.0, 0.4), c0, phi_range, phi_points=101)
    assert rows == [101]


@pytest.mark.parametrize("chi", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("pattern", ["aaabbb", "abbaab", "aababb"])
def test_label_swap_maps_eg_onto_ge(pattern, chi):
    # calibrate_presets fills swap(p)'s row from p's: the physics behind it
    spec = ChiralitySpec(1.0, chi)
    res = find_max(layout_from_pattern(pattern), spec, INITIAL_EG, phi_points=201)
    twin = find_max(layout_from_pattern(_swap(pattern)), spec, INITIAL_GE, phi_points=201)
    assert twin.c_max == pytest.approx(res.c_max, abs=1e-12)


def test_find_max_ties_keep_the_first_cell():
    # from (0.6, 0.8) the cascade's concurrence starts at its maximum 0.96 in
    # every phase row, so the first row and the first time win
    res = find_max(layout_from_pattern("aaabbb"), CASCADE, InitialState(0.6, 0.8))
    assert (res.phi_star, res.t_star, res.c_max) == (0.0, 0.0, 0.96)


def test_cascade_search_memory_is_bounded():
    # the scan holds one block of phase rows, never the 401 x 4001 matrix
    # (12 MiB) or blocks of hundreds of rows
    tracemalloc.start()
    try:
        find_max(layout_from_pattern("aaabbb"), CASCADE, INITIAL_EG, phi_points=401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_detect_steady_separated_plateau():
    rep = detect_steady(traj_for("separated", 0.0))
    assert rep.is_steady
    assert rep.c_ss == pytest.approx(0.5, abs=1e-3)
    mode = dark_modes(heff_for("separated", 0.0), INITIAL_EG)
    assert mode.classification is ModeClass.STEADY_PLATEAU
    assert abs(rep.c_ss - mode.predicted_c_ss) < 2e-3


@pytest.mark.parametrize("preset, phi, n, steady", [
    ("separated", 0.0, 1201, True),  # the nonchiral C = 1/2 plateau
    ("fully_braided", math.pi / 3, 4801, False),  # decoherence-free oscillation
])
def test_detect_steady_reads_only_the_concurrence(preset, phi, n, steady):
    built = traj_for(preset, phi, n=n)
    bare = Trajectory(built.times.copy(), built.amplitudes.copy(), built.concurrence.copy())
    rep = detect_steady(bare)
    assert rep.is_steady is steady
    assert repr(rep) == repr(detect_steady(built))  # repr: a NaN settle time equals itself


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
            rep = detect_steady(traj_for(preset, phi))
            if rep.is_steady:
                mode = dark_modes(heff_for(preset, phi), INITIAL_EG)
                assert mode.classification is ModeClass.STEADY_PLATEAU
                assert abs(rep.c_ss - mode.predicted_c_ss) < 2e-3


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
            da, db, ga, gb, gc, g = brute_force_nonchiral(cfg.positions_a, cfg.positions_b, sp.phi, 1.0)
        else:
            da, db, ga, gb, gc, g = coefficient_oracle(cfg.positions_a, cfg.positions_b, sp.phi, gr, gl)
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


def test_stationary_phases_are_the_roots_of_the_derivative():
    # each trigonometric polynomial is its coefficients c_k, k = -n..n
    sixths = np.arange(12) * math.pi / 6
    cos3 = np.array([0.5, 0, 0, 0, 0, 0, 0.5])  # cos 3 phi
    assert np.abs(np.sort(_stationary_phases(cos3)) - sixths[::2]).max() < 1e-15
    assert _stationary_phases(np.r_[np.zeros(4), 2.5, np.zeros(4)]).size == 0  # f' is the zero polynomial
    shifted = lambda s: np.r_[0.5 * np.exp(-3j * s), np.zeros(5), 0.5 * np.exp(3j * s)]  # cos 3 (phi + s)
    assert np.sort(_stationary_phases(shifted(1e-12)))[0] == 0.0  # a root 1e-12 below 2pi
    assert np.sort(_stationary_phases(shifted(-1e-12)))[0] == 0.0  # a root 1e-12 above 0
    # Re(S_a + S_b) of ababab has degree 4 below the padded 5: its ends are exact zeros
    cfg = layout_from_pattern("ababab")
    tr = np.zeros(11)
    tr[5 + cfg.distances.astype(int)] = cfg.pair_counts[0] + cfg.pair_counts[1]
    phis = _stationary_phases(tr + tr[::-1])
    assert phis.size == 8 and np.abs(phis[:, None] - sixths).min(axis=1).max() < 1e-15
    # cos phi + a cos 2 phi: beside the root at z = -1, two at z = -1 -+ 0.005, off the
    # circle and farther apart than a cluster; the on-circle test keeps neither
    a = 0.25 / (1 + 1.25e-5)
    assert np.sort(_stationary_phases(np.array([a / 2, 0.5, 0.0, 0.5, a / 2]))).tolist() == [0.0, math.pi]


def test_special_phases_reject_a_pair_distance_past_the_limit():
    with pytest.raises(ValueError, match="pair distances up to 128, got 129"):
        find_special_phases(make_layout((0, 1, 129), (2, 3, 4)), NONCHIRAL)


def test_special_phases_reject_what_fails_the_final_check(monkeypatch):
    # each candidate root is checked at its phase; the fully
    # braided layout has decoherence-free and dark-state candidates, and each
    # rejection is reached by patching what that check reads
    cfg = make_preset("fully_braided")

    def by_kind():
        phases = find_special_phases(cfg, NONCHIRAL)
        return {kind: [p.phi for p in phases if p.kind is kind] for kind in PhaseKind}

    plain = by_kind()
    assert plain[PhaseKind.DECOHERENCE_FREE] and plain[PhaseKind.DARK_STATE]

    with monkeypatch.context() as m:  # no decay is below a zero tolerance
        m.setattr(experiments, "_PHASE_COEF_TOL", 0.0)
        assert by_kind() == {**plain, PhaseKind.DECOUPLED: [], PhaseKind.DECOHERENCE_FREE: []}

    with monkeypatch.context() as m:  # no eigenvalue is real below a zero tolerance
        m.setattr(dynamics, "_DARK_TOL", 0.0)
        assert by_kind() == {**plain, PhaseKind.DARK_STATE: []}

    coefs = experiments.coefficients
    with monkeypatch.context() as m:  # no exchange coupling: decoupled, not decoherence-free
        m.setattr(experiments, "coefficients", lambda *args: dataclasses.replace(coefs(*args), g=0j))
        assert by_kind() == {**plain, PhaseKind.DECOUPLED: plain[PhaseKind.DECOHERENCE_FREE],
                             PhaseKind.DECOHERENCE_FREE: []}

    modes = experiments.dark_modes
    with monkeypatch.context() as m:  # no overlap with the dark mode: no dark state
        m.setattr(experiments, "dark_modes", lambda h, c0: dataclasses.replace(modes(h, c0), dark_overlap=0.0))
        assert by_kind() == {**plain, PhaseKind.DARK_STATE: []}


# special-phase counts of every ordering from eg: decoupled and decoherence-free
# (the same at chi 0, 0.5 and 1), and dark state at each of those chi
_SPECIAL_PHASE_COUNTS = {
    "aaabbb": (2, 0, (4, 0, 0)), "aababb": (0, 0, (8, 2, 6)), "aabbab": (0, 0, (2, 0, 4)), "aabbba": (2, 0, (2, 0, 0)),
    "abaabb": (0, 0, (2, 0, 4)), "ababab": (0, 4, (2, 0, 0)), "ababba": (0, 0, (2, 0, 4)), "abbaab": (0, 0, (10, 4, 8)),
    "abbaba": (0, 0, (2, 0, 4)), "abbbaa": (2, 0, (2, 0, 0)), "baaabb": (2, 0, (2, 0, 0)), "baabab": (0, 0, (2, 0, 4)),
    "baabba": (0, 0, (10, 4, 8)), "babaab": (0, 0, (2, 0, 4)), "bababa": (0, 4, (2, 0, 0)), "babbaa": (0, 0, (2, 0, 4)),
    "bbaaab": (2, 0, (2, 0, 0)), "bbaaba": (0, 0, (2, 0, 4)), "bbabaa": (0, 0, (8, 2, 6)), "bbbaaa": (2, 0, (4, 0, 0)),
}


def test_special_phase_counts_are_pinned(coefficient_oracle):
    assert sorted(_SPECIAL_PHASE_COUNTS) == sorted(all_orderings())
    for pattern, (decoupled, decoherence_free, dark) in _SPECIAL_PHASE_COUNTS.items():
        cfg = layout_from_pattern(pattern)
        for chi, dark_at_chi in zip((0.0, 0.5, 1.0), dark):
            spec = ChiralitySpec(1.0, chi)
            phases = find_special_phases(cfg, spec)
            counts = tuple(sum(p.kind is kind for p in phases) for kind in PhaseKind)
            assert counts == (decoupled, decoherence_free, dark_at_chi), (pattern, chi)
            gr, gl = rates_from_chirality(spec)
            for p in phases:
                _, _, ga, gb, gc, g = coefficient_oracle(cfg.positions_a, cfg.positions_b, p.phi, gr, gl)
                decay = max(abs(ga), abs(gb), abs(gc))
                if p.kind is PhaseKind.DARK_STATE:
                    m = build_heff(coefficients(cfg, p.phi, gr, gl)).matrix
                    residual = np.abs(np.linalg.eigvals(m).imag).min() / np.abs(m).max()
                else:
                    residual = max(decay, abs(g)) if p.kind is PhaseKind.DECOUPLED else decay
                assert residual < 1e-13, (pattern, chi, p)


def test_special_phases_do_not_depend_on_gamma_total():
    # neither polynomial holds gamma and every rule scales with it, so the phases
    # and kinds are those at gamma 1, bit for bit, also where a product of two
    # rates under- or overflows
    for pattern in all_orderings():
        cfg = layout_from_pattern(pattern)
        for chi in (0.0, 0.5, 1.0):
            unit = find_special_phases(cfg, ChiralitySpec(1.0, chi))
            for gamma in (0.3, 2.5, 1e3, 1e-170, 1e170):
                phases = find_special_phases(cfg, ChiralitySpec(gamma, chi))
                bits = [(p.phi.hex(), p.kind) for p in phases]
                assert bits == [(p.phi.hex(), p.kind) for p in unit], (pattern, chi, gamma)


# layouts whose special phases are multiple roots, which np.roots scatters into
# rings of computed roots, from eg: positions, chi, the counts by kind, and the
# phases, in steps of pi/12, where a ring member off the root read a dark state
# that the root itself does not host
_MULTIPLE_ROOT_LAYOUTS = [
    # its dark modes at 2pi/3 and 4pi/3 lie on one atom (test_dark_state_lies_on_both_atoms)
    ((2, 15, 16), (1, 19, 23), 1.0, {}, ()),
    ((0, 16, 27), (21, 22, 23), 1.0, {PhaseKind.DARK_STATE: 4}, (8,)),
    ((2, 15, 25), (4, 8, 12), 0.3493332801709793, {PhaseKind.DECOUPLED: 2}, (20,)),
    ((1, 22, 24), (3, 14, 16), 1.0, {}, (8, 16)),
]


@pytest.mark.parametrize("pos_a, pos_b, chi, counts, no_dark_state", _MULTIPLE_ROOT_LAYOUTS,
                         ids=["-".join(map(str, a + b)) for a, b, *_ in _MULTIPLE_ROOT_LAYOUTS])
def test_special_phases_at_multiple_roots_are_exact(pos_a, pos_b, chi, counts, no_dark_state):
    # the true special phases of these layouts are multiples of pi/12; a
    # cluster of computed roots is read once, at its mean
    step, cfg, spec = math.pi / 12, make_layout(pos_a, pos_b), ChiralitySpec(1.0, chi)
    phases = find_special_phases(cfg, spec, INITIAL_EG)
    assert Counter(p.kind for p in phases) == counts
    assert all(abs(p.phi - step * round(p.phi / step)) < 1e-12 for p in phases), phases
    for k in no_dark_state:
        h = build_heff(coefficients(cfg, k * step, *rates_from_chirality(spec)))
        assert dark_modes(h, INITIAL_EG).dark_overlap < 1e-12


# layouts where one atom decouples by itself at 2pi/3 and 4pi/3: its decay, the
# collective decay and g vanish there, so the resultant has a root whose dark
# mode holds only that atom, and C stays 0. From eg: positions, chi, and the
# dark-state phases reported, in steps of pi/12
_ONE_ATOM_DARK_LAYOUTS = [
    ((18, 19, 23), (3, 7, 10), 0.0, (0, 3, 9, 12, 15, 21)),
    ((18, 19, 23), (3, 7, 10), 0.5, ()),
    ((18, 19, 23), (3, 7, 10), 1.0, ()),
    ((2, 15, 16), (1, 19, 23), 0.0, (0, 12)),
    ((2, 15, 16), (1, 19, 23), 1.0, ()),
]


@pytest.mark.parametrize("pos_a, pos_b, chi, reported", _ONE_ATOM_DARK_LAYOUTS,
                         ids=["-".join(map(str, a + b)) + f"-chi{chi}" for a, b, chi, _ in _ONE_ATOM_DARK_LAYOUTS])
def test_dark_state_lies_on_both_atoms(monkeypatch, pos_a, pos_b, chi, reported):
    step, cfg, spec = math.pi / 12, make_layout(pos_a, pos_b), ChiralitySpec(1.0, chi)
    candidates = []  # every root find_special_phases reads through coefficients()
    read = experiments.coefficients
    monkeypatch.setattr(experiments, "coefficients", lambda cfg, phi, *rates: candidates.append(phi) or read(cfg, phi, *rates))
    phases = find_special_phases(cfg, spec, INITIAL_EG)
    assert [(round(p.phi / step), p.kind) for p in phases] == [(k, PhaseKind.DARK_STATE) for k in reported]

    def dark_mode(phi):
        report = dark_modes(build_heff(coefficients(cfg, phi, *rates_from_chirality(spec))), INITIAL_EG)
        assert report.classification is ModeClass.STEADY_PLATEAU
        amplitudes = sorted(map(abs, (report.dark_projection.c_eg, report.dark_projection.c_ge)))
        return amplitudes[0] / amplitudes[1], report.predicted_c_ss

    for p in phases:
        share, c_ss = dark_mode(p.phi)
        assert share > 0.3 and c_ss > 0.49, (p, share, c_ss)
    # the roots at 2pi/3 and 4pi/3 are found, and dropped: their dark mode is one atom's
    for k in (8, 16):
        phi = min(candidates, key=lambda x: abs(x - k * step))
        assert abs(phi - k * step) < 1e-12
        share, c_ss = dark_mode(phi)
        assert share < 1e-11 and c_ss < 1e-11, (phi, share, c_ss)


def test_chirality_scan_overlap_and_peaks():
    cfg = make_preset("fully_braided")
    ts = np.linspace(0.0, 50.0, 4001)
    scan = chirality_scan(cfg, math.pi / 3, (0.0, 0.5, 1.0), INITIAL_EG, ts)
    c0 = scan.trajectories[0].concurrence
    c1 = scan.trajectories[2].concurrence
    assert np.max(np.abs(c0 - c1)) < 1e-9
    assert tuple(rates_from_chirality(ChiralitySpec(1.0, chi))[0] for chi in scan.chis) == (0.5, 0.75, 1.0)
    # DF dynamics: same peak count for every chi on a fixed gamma*t grid
    counts = [unit_peaks(tr.concurrence) for tr in scan.trajectories]
    assert len(set(counts)) == 1
    assert counts[0] >= 50  # |sin| peaks every pi/(2 sqrt 3)


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
        counts[chi] = unit_peaks(scan.trajectories[0].concurrence)
    assert counts[0.01] > counts[0.1]


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


def _random_start(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return InitialState(complex(v[0], v[1]), complex(v[2], v[3]))


def test_evaluate_concurrence_matches_sweep():
    # one value per (phi, t) cell: a point evaluation equals the sweep cell
    # bit for bit, over random orderings, chiralities and starts, with the
    # separated cascade (every cell in _evolve's small-z branch) included
    rng = np.random.default_rng(7)
    cases = [("aaabbb", 1.0, INITIAL_EG), ("bbbaaa", 1.0, InitialState(0.6, 0.8j))]
    for k in range(8):
        start = (INITIAL_EG, INITIAL_GE, _random_start(rng))[k % 3]
        cases.append((str(rng.choice(all_orderings())), float(rng.uniform(0.0, 1.0)), start))
    ts = np.linspace(0.0, 50.0, 2001)
    for pattern, chi, c0 in cases:
        cfg, spec = layout_from_pattern(pattern), ChiralitySpec(1.0, chi)
        phis = np.sort(rng.uniform(0.0, 2 * math.pi, 16))
        grid = sweep(cfg, spec, c0, phis, ts).c_matrix
        for i, j in zip(rng.integers(0, phis.size, 30), rng.integers(0, ts.size, 30)):
            assert evaluate_concurrence(cfg, spec, c0, phis[i], ts[j]) == grid[i, j], (pattern, chi, i, j)


def test_point_batches_equal_points_alone():
    # the array evaluator that find_max's refinement calls gives each (phi, t)
    # of a batch the bits of evaluate_concurrence at that point alone, over
    # batches of phases at one time, of times at one phase, and of pairs
    rng = np.random.default_rng(17)
    near_pi = np.linspace(0.0, 2 * math.pi, 2001)[995:1006]  # abbaab at chi = 1: degenerate and near-degenerate
    cases = [("aaabbb", 1.0, INITIAL_EG), ("aaabbb", 1.0, InitialState(0.6, 0.8j)),  # the cascade: s = 0
             ("abbaab", 1.0, _real_start(2.0)), ("abaabb", 0.37, _random_start(rng)), ("bbaaab", 0.74, INITIAL_GE)]
    branches = set()
    for pattern, chi, c0 in cases:
        cfg, spec = layout_from_pattern(pattern), ChiralitySpec(1.0, chi)
        phis = np.concatenate([rng.uniform(0.0, 2 * math.pi, 10), near_pi])
        ts = np.concatenate([[0.0, 1e-9, 1e-3], rng.uniform(0.0, 0.5, 6), rng.uniform(0.0, 50.0, 12)])
        _, _, s = eigen_split(*experiments._m_components(cfg, *rates_from_chirality(spec), phis))
        z = np.abs(np.multiply.outer(s, ts))  # _evolve's branch at (phi, t)
        kinds = {"series": z < _SINC_SERIES_MAX_Z, "sinc": (z >= _SINC_SERIES_MAX_Z) & (z <= _SINC_FORM_MAX_Z),
                 "spectral": z > _SINC_FORM_MAX_Z}
        branches |= {kind for kind, hit in kinds.items() if hit.any()}

        def alone(p, t):
            c1, c2 = experiments._point_amplitudes(cfg, spec, c0, [p])(np.asarray([t]))
            assert float(concurrence_values(c1, c2)[0]) == evaluate_concurrence(cfg, spec, c0, p, t)
            return [complex(c1[0]), complex(c2[0])]

        for t in rng.choice(ts, 4):
            batch = experiments._point_amplitudes(cfg, spec, c0, phis)(np.asarray([t]))
            assert np.array(batch).T.tolist() == [alone(p, t) for p in phis], (pattern, t)
        for p in rng.choice(phis, 4):
            batch = experiments._point_amplitudes(cfg, spec, c0, [p])(ts)
            assert np.array(batch).T.tolist() == [alone(p, t) for t in ts], (pattern, p)
        pairs = rng.choice(ts, phis.size)
        batch = experiments._point_amplitudes(cfg, spec, c0, phis)(pairs)
        assert np.array(batch).T.tolist() == [alone(p, t) for p, t in zip(phis, pairs)], pattern
    assert branches == {"series", "sinc", "spectral"}


# find_max results on the default grid, float hex of (c_max, phi_star, t_star,
# c_eg, c_ge): a change to the refinement that moves a bit shows here
_PINNED_SEARCHES = [
    ("ababab", 0.0, INITIAL_EG, {}, ("0x1.ffffb061798d6p-1", "0x1.0c1ca77943572p+1", "0x1.22148fee5cde4p+1",
                                     "0x1.161899ee75f88p-2", "-0x1.4e8a5ec02f59cp-1",
                                     "-0x1.4e14e104cc80ep-1", "-0x1.15b713bc9bfc1p-2")),
    ("aaabbb", 1.0, INITIAL_EG, {}, ("0x1.78b56362cef39p-1", "0x1.922a11b280fcap+1", "0x1.00000345d39c8p+0",
                                     "0x1.368b2fd3b3d80p-1", "0x1.515084fc6e741p-36",
                                     "0x1.368b269236ea0p-1", "0x1.2da57479431dep-11")),
    ("aaabbb", 1.0, INITIAL_GE, {}, ("0x0.0p+0", "0x1.9bb798e7c5d7ep-9", "0x1.99962253cf741p-7",
                                     "0x0.0p+0", "0x0.0p+0", "0x1.e3ff003109726p-1", "-0x1.3758d74a15c83p-13")),
    ("abbaab", 0.6, InitialState(0.6, 0.8j), {}, ("0x1.f9da173f72fefp-1", "0x1.c530c50711873p-1",
                                                  "0x1.4f571e24d77f4p-5", "0x1.5fb0d8cf01cd5p-1",
                                                  "-0x1.6b5fab793e88fp-7", "0x1.14b7c79bfde76p-6",
                                                  "0x1.7010f2343ab1cp-1")),
    ("bbaaab", 0.7388496187722705, InitialState(0.3485351275070701 + 0.6206217717157976j,
                                                -0.005356172642051363 + 0.7023696980797246j), {},
     ("0x1.fff80c773f42ep-1", "0x1.0be8534f05f62p+1", "0x1.2cccc7812b06cp+0", "0x1.6b65b2bc87553p-1",
      "0x1.d00494748f694p-6", "0x1.3265db423f218p-1", "0x1.7b6dc83a54baap-2")),
    # the cascade's C does not depend on phi up to roundoff, on a coarse phase grid
    ("aaabbb", 1.0, INITIAL_EG, {"phi_points": 101}, ("0x1.78b56362cef39p-1", "0x1.9229e69de1ae6p+1",
                                                      "0x1.00000345d39c8p+0", "0x1.368b2fc2eb52dp-1",
                                                      "0x1.4124e5d4a2690p-36", "0x1.368b26ee85c57p-1",
                                                      "0x1.28bf3b2a4311cp-11")),
    # calibrate_presets' peak check of the chosen partially braided ordering
    ("aababb", 0.0, INITIAL_EG, {"phi_range": (11 * math.pi / 25, 11 * math.pi / 25), "phi_points": 1},
     ("0x1.85f2d7f7824c4p-1", "0x1.61de768dfd5c3p+0", "0x1.5d9174a959b18p-1", "0x1.4dd3e49cd92cdp-1",
      "-0x1.2d127e6d93a97p-3", "-0x1.209edf14ba0b0p-2", "-0x1.fb09790ed96ecp-2")),
]


@pytest.mark.parametrize("pattern, chi, c0, kwargs, expected", _PINNED_SEARCHES,
                         ids=["fully-braided", "cascade-eg", "cascade-ge", "complex-start", "complex-random", "cascade-101",
                              "peak"])
def test_find_max_results_keep_their_bits(pattern, chi, c0, kwargs, expected):
    res = find_max(layout_from_pattern(pattern), ChiralitySpec(1.0, chi), c0, **kwargs)
    a = res.amplitudes_at_max
    got = (res.c_max, res.phi_star, res.t_star, a.c_eg.real, a.c_eg.imag, a.c_ge.real, a.c_ge.imag)
    assert tuple(float(x).hex() for x in got) == expected


@pytest.mark.parametrize("pattern, chi, c0", [
    ("ababab", 0.0, INITIAL_EG),
    ("aaabbb", 1.0, INITIAL_EG),
    ("abbaab", 0.6, InitialState(0.6, 0.8j)),
])
def test_find_max_reports_its_cell_value(pattern, chi, c0):
    cfg, spec = layout_from_pattern(pattern), ChiralitySpec(1.0, chi)
    res = find_max(cfg, spec, c0, phi_points=201)
    assert res.c_max == evaluate_concurrence(cfg, spec, c0, res.phi_star, res.t_star)
    assert res.c_max == sweep(cfg, spec, c0, [res.phi_star], [res.t_star]).c_matrix[0, 0]


@pytest.mark.xfail(strict=True, reason=(
    "find_max refines only around the grid's first maximum; here a near-equal peak elsewhere is higher"))
def test_find_max_finds_the_global_maximum():
    cfg, spec = layout_from_pattern("bbaaab"), ChiralitySpec(1.0, 0.7388496187722705)
    c0 = InitialState(0.3485351275070701 + 0.6206217717157976j, -0.005356172642051363 + 0.7023696980797246j)
    res = find_max(cfg, spec, c0, phi_points=2001)
    assert res.c_max >= evaluate_concurrence(cfg, spec, c0, 2.0941946665273043, 43.34483455485605) - 1e-9


@pytest.mark.parametrize("gamma", [0.25, 4.0, 2.0**-500, 2.0**500], ids=["0.25", "4", "2**-500", "2**500"])
def test_the_rate_is_a_time_unit_of_sweep(gamma):
    # the effective matrix is gamma times the unit-rate one, so the sweep at
    # rate gamma and time t is the sweep at rate 1 and time gamma t; at a
    # power of two gamma t is exact, and so is every bit
    cfg, c0 = make_preset("partially_nested"), InitialState(0.36 + 0.48j, 0.48 + 0.64j)
    phis, ts = np.linspace(0.0, 2 * math.pi, 21), np.linspace(0.0, 50.0 / gamma, 101)
    grid = sweep(cfg, ChiralitySpec(gamma, 0.3), c0, phis, ts)
    unit = sweep(cfg, ChiralitySpec(1.0, 0.3), c0, phis, gamma * ts)
    assert np.any(grid.c_matrix > 0.5)
    assert grid.c_matrix.tobytes() == unit.c_matrix.tobytes()


@pytest.mark.parametrize("gamma", [0.25, 4.0])
@pytest.mark.parametrize("c0", [INITIAL_EG, InitialState(0.36 + 0.48j, 0.48 + 0.64j)], ids=["eg", "complex"])
def test_the_rate_is_a_time_unit_of_find_max(gamma, c0):
    # the search at rate gamma over [0, T] is the one at rate 1 over
    # [0, gamma T], up to where its golden-section brackets stop: at a width
    # of _MAX_REFINE_TOL in t, so gamma times that in tau
    cfg = make_preset("partially_nested")
    unit = find_max(cfg, ChiralitySpec(1.0, 0.3), c0, phi_points=101)
    res = find_max(cfg, ChiralitySpec(gamma, 0.3), c0, t_horizon=50.0 / gamma, phi_points=101)
    assert res.c_max == pytest.approx(unit.c_max, abs=1e-8)
    assert gamma * res.t_star == pytest.approx(unit.t_star, abs=1e-5)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "find_max scans 4001 times on [0, t_horizon], which resolve gamma * t_horizon only up to about 50"))
def test_find_max_resolves_a_large_rate():
    # the dynamics at rate g and time t are those at rate 1 and time g t, and
    # the horizon at gamma 100 holds the gamma-1 peak, so the maximum there is
    # at least the gamma-1 maximum; the scan steps past that peak
    cfg = make_preset("partially_nested")
    unit = find_max(cfg, ChiralitySpec(1.0, 0.3), INITIAL_EG)
    fast = find_max(cfg, ChiralitySpec(100.0, 0.3), INITIAL_EG)
    assert unit.t_star / 100.0 <= 50.0
    assert fast.c_max >= unit.c_max - 1e-9


def test_orderings_enumeration():
    pats = all_orderings()
    assert len(pats) == 20
    assert len(set(pats)) == 20
    assert all(sorted(p) == ["a", "a", "a", "b", "b", "b"] for p in pats)
    cfg = layout_from_pattern("aababb")
    assert cfg.positions_a == (0, 1, 3)
    assert cfg.positions_b == (2, 4, 5)
    with pytest.raises(ValueError):
        layout_from_pattern("aaabb")


def test_calibration_quick(calibration):
    # the acceptance suite's calibration at the defaults, the one search grid
    result, _ = calibration
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
    assert layout.positions_a == (0, 2, 5)
    assert layout.positions_b == (1, 3, 4)
    assert list(result.value_table) == all_orderings()
    # each swap twin's row is its partner's with the eg and ge columns
    # exchanged, and at chi = 0 an ordering's reverse shares its values
    for pattern, (ne, ng, ce, cg) in result.value_table.items():
        assert result.value_table[_swap(pattern)] == (ng, ne, cg, ce)
        assert result.value_table[pattern[::-1]][:2] == (ne, ng)


def test_calibration_checks_each_ordering_peak_once(monkeypatch):
    # with every table value equal, every fully nested ordering ties with the
    # first that passes its peak check, so the walk up the score order and
    # the tie list both reach the winner
    search = experiments.find_max
    checked = []

    def counted(cfg, chirality, c0, *args, **kwargs):
        if not args:  # a value-table search; a peak check passes its one phase
            return experiments.MaxResult(0.9, 0.0, 0.0, None)
        checked.append(cfg.positions_a)
        return search(cfg, chirality, c0, *args, **kwargs)

    monkeypatch.setattr(experiments, "find_max", counted)
    monkeypatch.setattr(experiments, "CALIBRATION_TARGETS",
                        {Preset.FULLY_NESTED: CALIBRATION_TARGETS[Preset.FULLY_NESTED]})
    result = calibrate_presets()
    assert result.assignments["fully_nested"].peaks_ok
    nested = experiments._SHAPE_ORDERINGS[Preset.FULLY_NESTED]
    assert sorted(checked) == sorted(layout_from_pattern(p).positions_a for p in nested)


def test_calibration_without_a_passing_peak_takes_the_best_score(monkeypatch):
    # when no candidate passes its peak check, the best-scoring one is
    # assigned anyway and reported with peaks_ok False. The chi-1 search of
    # abbbaa from eg fills baaabb's chiral ge cell by label swap, which lifts
    # that cell to 0.93 and makes baaabb, not the smallest ordering, score best
    checked = []

    def fake(cfg, chirality, c0, *args, **kwargs):
        if args:  # a peak check, at its one phase
            checked.append(cfg.positions_a)
            return experiments.MaxResult(0.0, 0.0, 0.0, None)
        lifted = (cfg.positions_a, chirality.chi, c0) == ((0, 4, 5), 1.0, INITIAL_EG)
        return experiments.MaxResult(0.93 if lifted else 0.9, 0.0, 0.0, None)

    monkeypatch.setattr(experiments, "find_max", fake)
    monkeypatch.setattr(experiments, "CALIBRATION_TARGETS",
                        {Preset.FULLY_NESTED: CALIBRATION_TARGETS[Preset.FULLY_NESTED]})
    cal = calibrate_presets().assignments["fully_nested"]
    assert (cal.pattern, cal.peaks_ok, cal.unresolved) == ("baaabb", False, True)
    assert cal.score == pytest.approx(0.96 - 0.9)
    nested = experiments._SHAPE_ORDERINGS[Preset.FULLY_NESTED]
    assert sorted(checked) == sorted(layout_from_pattern(p).positions_a for p in nested)


def test_calibration_never_assigns_a_nan_value(monkeypatch):
    # every cell reads 0.9, so the four fully nested orderings tie and the
    # smallest, aabbba, wins; a NaN in its chiral eg cell (and, by label swap,
    # in bbaaab's chiral ge cell) puts both outside every band
    def fake(cfg, chirality, c0, *args, **kwargs):
        if args:  # a peak check, at its one phase
            return experiments.MaxResult(0.67, 0.0, 0.0, None)
        poisoned = (cfg.positions_a, chirality.chi, c0) == ((0, 1, 5), 1.0, INITIAL_EG)
        return experiments.MaxResult(math.nan if poisoned else 0.9, 0.0, 0.0, None)

    monkeypatch.setattr(experiments, "find_max", fake)
    monkeypatch.setattr(experiments, "CALIBRATION_TARGETS",
                        {Preset.FULLY_NESTED: CALIBRATION_TARGETS[Preset.FULLY_NESTED]})
    result = calibrate_presets()
    assert math.isnan(result.value_table["aabbba"][2]) and math.isnan(result.value_table["bbaaab"][3])
    cal = result.assignments["fully_nested"]
    assert (cal.pattern, cal.peaks_ok) == ("abbbaa", True)
    assert cal.score == pytest.approx(0.98 - 0.9)


def _orbit(pattern, chi, label):
    """The value-table cells that share (pattern, chi, label)'s value: label
    swap at any chi, waveguide reversal where the rates are equal."""
    other = {"eg": "ge", "ge": "eg"}
    cells = {(pattern, chi, label), (_swap(pattern), chi, other[label])}
    if chi == 0.0:
        cells |= {(p[::-1], chi, lbl) for p, _, lbl in cells}
    return frozenset(cells)


def test_calibration_pool_matches_in_process_searches(monkeypatch):
    # the pool runs one search per orbit, its smallest (ordering, start), and
    # returns that search's in-process float; every table cell matches the
    # search of its own ordering and start, run here with no symmetry shortcut
    import multiprocessing.pool

    starmap = multiprocessing.pool.Pool.starmap
    handed = []

    def spy(pool, func, iterable, chunksize=None):
        iterable = list(iterable)
        handed.extend(iterable)
        return starmap(pool, func, iterable, chunksize)

    monkeypatch.setattr(multiprocessing.pool.Pool, "starmap", spy)
    table = calibrate_presets().value_table
    assert list(table) == all_orderings()
    columns = [(chi, label) for chi in (0.0, 1.0) for label in ("eg", "ge")]
    cells = {(p, chi, label): table[p][columns.index((chi, label))]
             for p in all_orderings() for chi, label in columns}
    own = {(p, chi, label): find_max(layout_from_pattern(p), ChiralitySpec(1.0, chi),
                                     INITIAL_EG if label == "eg" else INITIAL_GE).c_max
           for p, chi, label in cells}

    searched = [(pattern, chi, label) for pattern, label, chi, *_ in handed]
    orbits = {_orbit(*cell) for cell in cells}
    assert len(searched) == len(orbits) == 30
    for orbit in orbits:
        assert [cell for cell in searched if cell in orbit] == [min(orbit, key=lambda c: (c[0], c[2]))]
    for cell in searched:
        assert cells[cell].hex() == own[cell].hex()
    # the worker-failure test in test_io_cli.py fails every ababab search,
    # so it needs ababab searched at both chi
    assert {("ababab", 0.0, "eg"), ("ababab", 1.0, "eg")} <= set(searched)

    # both symmetries keep every bit: reversal at chi = 0, label swap at any chi
    for cell, value in cells.items():
        assert value.hex() == own[cell].hex(), cell


def test_calibration_targets_shape():
    named = {Preset.SEPARATED, Preset.FULLY_BRAIDED, Preset.PARTIALLY_BRAIDED,
             Preset.FULLY_NESTED, Preset.PARTIALLY_NESTED}
    assert set(CALIBRATION_TARGETS) == named
    for bands, _ in CALIBRATION_TARGETS.values():
        assert list(bands) == ["nonchiral_eg", "nonchiral_ge", "chiral_eg", "chiral_ge"]


@pytest.mark.parametrize("value, expected", [
    (0.865, 0.0), (0.86, 0.0), (0.87, 0.0), (0.85, 0.86 - 0.85), (0.9, 0.9 - 0.87), (math.nan, math.inf),
])
def test_deviation_is_the_distance_outside_the_band(value, expected):
    assert experiments._deviation((0.86, 0.87), value) == expected


# Parameter positions that bench/tracer.py reads from the positional arguments
# of the private functions it wraps: a refactor that moves one of them would
# silently zero the per-layer work counts.
_TRACED_PARAMETERS = [
    ("_coefficient_arrays", {"phis": 1}),
    ("_m_components", {"phis": 3}),
    ("_concurrence_scan_uniform", {"phis": 3, "n_t": 4}),
    ("_concurrence_matrix", {"phis": 3, "ts": 4}),
    ("_evolve", {"m11": 0, "m12": 1, "m21": 2, "m22": 3, "t": 6}),
]


@pytest.mark.parametrize("name,positions", _TRACED_PARAMETERS, ids=[n for n, _ in _TRACED_PARAMETERS])
def test_traced_functions_keep_their_parameter_positions(name, positions):
    params = list(inspect.signature(getattr(experiments, name)).parameters)
    assert {p: params.index(p) for p in positions if p in params} == positions
