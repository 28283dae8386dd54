"""Waveguide layout geometry, named presets, chirality and initial states.

Positions are integers in units of the fixed spacing between neighbouring
coupling points, so every inter-point propagation phase is an integer
multiple of the single phase parameter phi.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np


class Preset(str, Enum):
    SEPARATED = "separated"
    FULLY_BRAIDED = "fully_braided"
    PARTIALLY_BRAIDED = "partially_braided"
    FULLY_NESTED = "fully_nested"
    PARTIALLY_NESTED = "partially_nested"


# Canonical coupling-point positions on the lattice {0..5} for each named
# arrangement of the two atoms (atom a first).
PRESET_POSITIONS: dict[Preset, tuple[tuple[int, int, int], tuple[int, int, int]]] = {
    Preset.SEPARATED: ((0, 1, 2), (3, 4, 5)),
    Preset.FULLY_BRAIDED: ((0, 2, 4), (1, 3, 5)),
    Preset.PARTIALLY_BRAIDED: ((0, 1, 3), (2, 4, 5)),
    Preset.FULLY_NESTED: ((0, 1, 5), (2, 3, 4)),
    Preset.PARTIALLY_NESTED: ((0, 1, 4), (2, 3, 5)),
}

POINTS_PER_ATOM = 3


class LayoutError(ValueError):
    """Raised when a layout fails validation at construction."""


def _pair_table(pa: tuple[int, ...], pb: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pair distances and a 4 x len(dists) table of how many
    ordered point pairs sit at each: within a, within b, b right of a, b left
    of a."""
    pairs = [(0, 0, len(pa)), (1, 0, len(pb))]  # each atom's diagonal pairs
    pairs += [(row, y - x, 2) for row, pos in ((0, pa), (1, pb)) for x, y in combinations(pos, 2)]
    pairs += [(2, y - x, 1) if x < y else (3, x - y, 1) for x in pa for y in pb]
    dists = sorted({d for _, d, _ in pairs})
    counts = np.zeros((4, len(dists)))
    for row, d, n in pairs:
        counts[row, dists.index(d)] += n
    return np.array(dists, dtype=float), counts


def _lattice_positions(positions) -> tuple:
    # numpy integers become ints; anything else is kept as given, never
    # truncated, for the layout check to judge (it rejects floats and bools)
    return tuple(operator.index(p) if isinstance(p, np.integer) else p for p in positions)


@dataclass(frozen=True)
class LayoutConfiguration:
    """Two atoms' coupling points, valid by construction (``LayoutError``
    otherwise) and reduced once to the read-only pair-distance table of
    ``_pair_table`` that every coefficient evaluation reads.  Equality,
    hashing and repr use only the two position tuples, so layouts with the
    same points are equal however they were built."""

    positions_a: tuple[int, ...]
    positions_b: tuple[int, ...]
    distances: np.ndarray = field(init=False, compare=False, repr=False)
    pair_counts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        atoms = (("a", _lattice_positions(self.positions_a)), ("b", _lattice_positions(self.positions_b)))
        for label, pos in atoms:  # tuples, whatever sequence was given, so equal points compare equal
            object.__setattr__(self, f"positions_{label}", pos)
        problems: list[str] = []
        for label, pos in atoms:
            if len(pos) != POINTS_PER_ATOM:
                problems.append(f"atom {label}: expected {POINTS_PER_ATOM} coupling points, got {len(pos)}")
            if any(not isinstance(p, int) or isinstance(p, bool) or p < 0 for p in pos):
                problems.append(f"atom {label}: positions must be non-negative integers, got {pos}")
            if any(q <= p for p, q in zip(pos, pos[1:])):
                problems.append(f"atom {label}: positions not strictly increasing: {pos}")
        seen: dict[int, str] = {}
        for label, pos in atoms:
            for p in pos:
                if p in seen:
                    problems.append(f"duplicate position {p} shared by atoms {seen[p]} and {label}")
                else:
                    seen[p] = label
        if problems:
            raise LayoutError("; ".join(problems))
        for name, table in zip(("distances", "pair_counts"), _pair_table(self.positions_a, self.positions_b)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)


def make_layout(positions_a: tuple[int, ...] | list[int],
                positions_b: tuple[int, ...] | list[int]) -> LayoutConfiguration:
    """Build a layout from bare positions; raises ``LayoutError`` if it is invalid."""
    return LayoutConfiguration(positions_a, positions_b)


def make_preset(name: Preset | str) -> LayoutConfiguration:
    """Return the canonical layout of a named preset."""
    return make_layout(*PRESET_POSITIONS[Preset(name)])


@dataclass(frozen=True)
class ChiralitySpec:
    """Total emission rate and coupling asymmetry chi = (gR - gL)/(gR + gL)."""

    gamma_total: float
    chi: float = 0.0

    def __post_init__(self):
        if not (0 < self.gamma_total < math.inf):
            raise ValueError(f"gamma_total must be positive and finite, got {self.gamma_total}")
        if not (0.0 <= self.chi <= 1.0):
            raise ValueError(f"chi must lie in [0, 1], got {self.chi}")


def rates_from_chirality(spec: ChiralitySpec) -> tuple[float, float]:
    """Split gamma_total into (gamma_right, gamma_left) for the given chi.

    The studies and the command line split only gamma_total = 1 and carry
    gamma as a time scale. Below about 1e-323 both rates underflow to 0,
    which ``coefficients()`` rejects with its own rate message."""
    # halved first, so no product overflows for any finite gamma_total
    gamma_r = 0.5 * spec.gamma_total * (1.0 + spec.chi)
    gamma_l = 0.5 * spec.gamma_total * (1.0 - spec.chi)
    return gamma_r, gamma_l


_NORM_TOL = 1e-12


@dataclass(frozen=True)
class InitialState:
    """Single-excitation amplitudes (c_eg, c_ge); must be normalized."""

    c_eg: complex
    c_ge: complex

    def __post_init__(self):
        a, b = abs(self.c_eg), abs(self.c_ge)
        norm = a * a + b * b  # inf, not OverflowError, for huge amplitudes
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"initial state not normalized: |c|^2 = {norm!r}")
        if not (cmath.isfinite(self.c_eg) and cmath.isfinite(self.c_ge)):
            raise ValueError("initial amplitudes must be finite")


INITIAL_EG = InitialState(1.0 + 0.0j, 0.0j)  # atom a excited
INITIAL_GE = InitialState(0.0j, 1.0 + 0.0j)  # atom b excited
INITIAL_STATES = {"eg": INITIAL_EG, "ge": INITIAL_GE}  # the starts by label
