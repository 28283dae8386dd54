import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import giantatoms
from giantatoms import (
    ChiralitySpec,
    InitialState,
    LayoutError,
    Preset,
    PRESET_POSITIONS,
    make_layout,
    make_preset,
    rates_from_chirality,
)
from giantatoms.model import LayoutConfiguration


CANONICAL = {
    Preset.SEPARATED: ((0, 1, 2), (3, 4, 5)),
    Preset.FULLY_BRAIDED: ((0, 2, 4), (1, 3, 5)),
    Preset.PARTIALLY_BRAIDED: ((0, 1, 3), (2, 4, 5)),
    Preset.FULLY_NESTED: ((0, 1, 5), (2, 3, 4)),
    Preset.PARTIALLY_NESTED: ((0, 1, 4), (2, 3, 5)),
}


@pytest.mark.parametrize("tag,expected", CANONICAL.items())
def test_make_preset_positions(tag, expected):
    cfg = make_preset(tag)
    assert (cfg.positions_a, cfg.positions_b) == expected


def test_make_preset_accepts_strings():
    assert make_preset("separated") == make_preset(Preset.SEPARATED)


def test_make_preset_rejects_custom():
    # a layout is its points: "custom" names no preset
    with pytest.raises(ValueError, match="'custom' is not a valid Preset"):
        make_preset("custom")


def test_preset_table_is_canonical():
    assert PRESET_POSITIONS == CANONICAL


def test_every_preset_validates_clean():
    # a preset constructs, and its table holds all 3 x 3 ordered pairs within
    # each atom and across them (forward plus backward)
    for tag in CANONICAL:
        s_a, s_b, fw, bw = make_preset(tag).pair_counts.sum(axis=1)
        assert (s_a, s_b, fw + bw) == (9.0, 9.0, 9.0)


def test_validate_duplicate_position():
    with pytest.raises(LayoutError, match="duplicate position 2"):
        make_layout((0, 1, 2), (2, 3, 4))


def test_validate_wrong_point_count():
    with pytest.raises(LayoutError, match="expected 3 coupling points, got 2"):
        LayoutConfiguration((0, 1), (2, 3, 4))


def test_validate_ordering_and_negative():
    with pytest.raises(LayoutError, match="strictly increasing"):
        make_layout((2, 1, 0), (3, 4, 5))
    with pytest.raises(LayoutError, match="non-negative"):
        make_layout((-1, 0, 1), (2, 3, 4))


@pytest.mark.parametrize("pos_a", [(0, 1.5, 2.7), (0.0, 1.0, 2.0), (0, 1, True), (False, 1, 2)])
def test_make_layout_rejects_non_integer_positions(pos_a):
    # floats are never truncated to the lattice, and bools are not positions
    with pytest.raises(LayoutError, match="positions must be non-negative integers"):
        make_layout(pos_a, (3, 4, 5))


def test_make_layout_accepts_numpy_integers():
    cfg = make_layout(np.arange(3), (np.int32(3), np.uint8(4), 5))
    assert cfg == make_layout((0, 1, 2), (3, 4, 5))
    assert all(type(p) is int for p in cfg.positions_a + cfg.positions_b)


def test_equal_layouts_compare_and_hash_equal():
    # layouts with the same points are equal, whatever built them
    preset = make_preset("separated")
    built = make_layout((0, 1, 2), (3, 4, 5))
    assert preset == built and hash(preset) == hash(built)
    assert {preset: "x"}[built] == "x"
    direct = LayoutConfiguration([0, 1, 2], np.arange(3, 6))
    assert direct == preset and hash(direct) == hash(preset)
    assert preset != make_layout((3, 4, 5), (0, 1, 2))
    assert repr(preset) == "LayoutConfiguration(positions_a=(0, 1, 2), positions_b=(3, 4, 5))"


def test_pair_table_is_read_only():
    cfg = make_preset("fully_nested")
    for table in (cfg.distances, cfg.pair_counts):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_rates_examples():
    assert rates_from_chirality(ChiralitySpec(1.0, 0.0)) == (0.5, 0.5)
    assert rates_from_chirality(ChiralitySpec(1.0, 1.0)) == (1.0, 0.0)
    assert rates_from_chirality(ChiralitySpec(2.0, 0.5)) == (1.5, 0.5)
    # the largest rates stay finite: gamma is halved before the (1 + chi) product
    assert rates_from_chirality(ChiralitySpec(1e308, 1.0)) == (1e308, 0.0)
    # and the smallest ones underflow: below about 1e-323 both rates are 0
    assert rates_from_chirality(ChiralitySpec(1e-323)) == (5e-324, 5e-324)
    assert rates_from_chirality(ChiralitySpec(1e-323, 1.0)) == (1e-323, 0.0)
    assert rates_from_chirality(ChiralitySpec(5e-324)) == (0.0, 0.0)


@given(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_rates_round_trip(gamma, chi):
    gr, gl = rates_from_chirality(ChiralitySpec(gamma, chi))
    assert abs((gr + gl) - gamma) <= 1e-15 * gamma
    assert abs((gr - gl) / (gr + gl) - chi) <= 1e-15 * max(1.0, chi)


@pytest.mark.parametrize("gamma,chi", [(0.0, 0.5), (-1.0, 0.0), (1.0, -0.1), (1.0, 1.5), (math.inf, 0.5),
                                       (math.nan, 0.5)])
def test_chirality_domain_errors(gamma, chi):
    with pytest.raises(ValueError):
        ChiralitySpec(gamma, chi)


def test_initial_state_normalization():
    InitialState(1 / math.sqrt(2), complex(0, 1 / math.sqrt(2)))
    with pytest.raises(ValueError):
        InitialState(1.0, 1.0)
    with pytest.raises(ValueError):
        InitialState(0.5, 0.5)


@pytest.mark.parametrize("c_eg, c_ge", [(complex("nan"), 0j), (0j, complex("nan")), (complex(1.0, math.nan), 0j)])
def test_initial_state_rejects_nan(c_eg, c_ge):
    # a NaN norm passes the normalization check (abs(nan - 1) > tol is
    # False), so the finiteness check is the only guard
    with pytest.raises(ValueError, match="initial amplitudes must be finite"):
        InitialState(c_eg, c_ge)


def test_package_exports_no_submodule():
    # importing the public names binds the submodules on the package as well
    assert "find_special_phases" in giantatoms.__all__
    assert not [name for name in giantatoms.__all__ if isinstance(getattr(giantatoms, name), type(giantatoms))]
    # the independent oracles are not package API; the bench reads the RK4 from its module
    for name in ("coefficients_nonchiral", "propagate_numeric", "propagate_numeric_batch"):
        assert name not in giantatoms.__all__ and not hasattr(giantatoms, name), name
    assert callable(giantatoms.dynamics.propagate_numeric_batch)
