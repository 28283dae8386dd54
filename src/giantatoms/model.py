"""Waveguide layout geometry, named presets, chirality and initial states.

Positions are integers in units of the fixed spacing between neighbouring
coupling points, so every inter-point propagation phase is an integer
multiple of the single phase parameter phi.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum


class Preset(str, Enum):
    SEPARATED = "separated"
    FULLY_BRAIDED = "fully_braided"
    PARTIALLY_BRAIDED = "partially_braided"
    FULLY_NESTED = "fully_nested"
    PARTIALLY_NESTED = "partially_nested"
    CUSTOM = "custom"


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
    """Raised when an operation receives a layout that fails validation."""


@dataclass(frozen=True)
class CouplingPoint:
    """One connection point of an atom to the waveguide.

    Every point emits into right/left movers at the rates a ChiralitySpec
    gives.
    """

    position: int


@dataclass(frozen=True)
class GiantAtom:
    label: str  # "a" or "b"
    points: tuple[CouplingPoint, ...]

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(p.position for p in self.points)


@dataclass(frozen=True)
class LayoutConfiguration:
    atom_a: GiantAtom
    atom_b: GiantAtom
    preset_tag: Preset = Preset.CUSTOM

    @property
    def all_positions(self) -> tuple[int, ...]:
        return self.atom_a.positions + self.atom_b.positions


def make_layout(
    positions_a: tuple[int, ...] | list[int],
    positions_b: tuple[int, ...] | list[int],
    tag: Preset = Preset.CUSTOM,
) -> LayoutConfiguration:
    """Build a layout from bare positions."""
    atom_a = GiantAtom("a", tuple(CouplingPoint(int(p)) for p in positions_a))
    atom_b = GiantAtom("b", tuple(CouplingPoint(int(p)) for p in positions_b))
    return LayoutConfiguration(atom_a, atom_b, tag)


def make_preset(tag: Preset | str) -> LayoutConfiguration:
    """Return the canonical layout for a named preset (tag must not be CUSTOM)."""
    tag = Preset(tag)
    if tag is Preset.CUSTOM:
        raise ValueError("make_preset requires a named preset, not CUSTOM")
    pos_a, pos_b = PRESET_POSITIONS[tag]
    return make_layout(pos_a, pos_b, tag)


def validate_layout(cfg: LayoutConfiguration) -> list[str]:
    """Return a list of violations; an empty list means the layout is valid."""
    problems: list[str] = []
    for atom in (cfg.atom_a, cfg.atom_b):
        n = len(atom.points)
        if n != POINTS_PER_ATOM:
            problems.append(f"atom {atom.label}: expected {POINTS_PER_ATOM} coupling points, got {n}")
        pos = atom.positions
        if any(not isinstance(p, int) or p < 0 for p in pos):
            problems.append(f"atom {atom.label}: positions must be non-negative integers, got {pos}")
        if any(q <= p for p, q in zip(pos, pos[1:])):
            problems.append(f"atom {atom.label}: positions not strictly increasing: {pos}")
    seen: dict[int, str] = {}
    for atom in (cfg.atom_a, cfg.atom_b):
        for p in atom.positions:
            if p in seen:
                problems.append(f"duplicate position {p} shared by atoms {seen[p]} and {atom.label}")
            else:
                seen[p] = atom.label
    return problems


def epsilon(x_a: int, x_b: int) -> int:
    """Direction sign of a cross pair: +1 if x_a < x_b, 0 if equal, -1 otherwise."""
    if x_a < x_b:
        return 1
    if x_a > x_b:
        return -1
    return 0


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
    """Split gamma_total into (gamma_right, gamma_left) for the given chi."""
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
