import math

import pytest
from hypothesis import given, strategies as st

from giantatoms import (
    ChiralitySpec,
    InitialState,
    Preset,
    PRESET_POSITIONS,
    epsilon,
    make_layout,
    make_preset,
    rates_from_chirality,
    validate_layout,
)
from giantatoms.model import CouplingPoint, GiantAtom, LayoutConfiguration


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
    assert (cfg.atom_a.positions, cfg.atom_b.positions) == expected
    assert cfg.preset_tag is tag


def test_make_preset_accepts_strings():
    assert make_preset("separated").preset_tag is Preset.SEPARATED


def test_make_preset_rejects_custom():
    with pytest.raises(ValueError):
        make_preset(Preset.CUSTOM)


def test_preset_table_is_canonical():
    assert PRESET_POSITIONS == CANONICAL


def test_every_preset_validates_clean():
    for tag in CANONICAL:
        assert validate_layout(make_preset(tag)) == []


def test_validate_duplicate_position():
    cfg = make_layout((0, 1, 2), (2, 3, 4))
    report = validate_layout(cfg)
    assert any("duplicate position 2" in line for line in report)


def test_validate_wrong_point_count():
    atom_a = GiantAtom("a", (CouplingPoint(0), CouplingPoint(1)))
    atom_b = GiantAtom("b", tuple(CouplingPoint(p) for p in (2, 3, 4)))
    report = validate_layout(LayoutConfiguration(atom_a, atom_b))
    assert any("expected 3 coupling points, got 2" in line for line in report)


def test_validate_ordering_and_negative():
    cfg = make_layout((2, 1, 0), (3, 4, 5))
    assert any("strictly increasing" in line for line in validate_layout(cfg))
    cfg = make_layout((-1, 0, 1), (2, 3, 4))
    assert any("non-negative" in line for line in validate_layout(cfg))


def test_epsilon_examples():
    assert epsilon(0, 1) == 1
    assert epsilon(3, 3) == 0
    assert epsilon(4, 1) == -1


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_epsilon_antisymmetric(x, y):
    assert epsilon(x, y) == -epsilon(y, x)


def test_rates_examples():
    assert rates_from_chirality(ChiralitySpec(1.0, 0.0)) == (0.5, 0.5)
    assert rates_from_chirality(ChiralitySpec(1.0, 1.0)) == (1.0, 0.0)
    assert rates_from_chirality(ChiralitySpec(2.0, 0.5)) == (1.5, 0.5)
    # the largest rates stay finite: gamma is halved before the (1 + chi) product
    assert rates_from_chirality(ChiralitySpec(1e308, 1.0)) == (1e308, 0.0)


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
