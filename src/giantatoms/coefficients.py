"""Waveguide-induced coefficients for a pair of three-point giant atoms.

Every point couples with rate gamma_R into right movers and gamma_L into
left movers.  For each atom j the Lamb shift and individual decay are sums
over its 9 ordered point pairs (diagonal included), and the cross-atom
collective decay and exchange coupling sum over the 9 (a_n, b_m) pairs.
Each term is a phase e^{i phi d} at an integer pair distance d, so a layout
enters only through how many pairs sit at each distance: within a, within b,
b right of a (forward) and b left of a (backward).  The layout counts these
once, at construction (``LayoutConfiguration.distances`` and
``pair_counts``), and ``_coefficient_arrays`` reads that table.  With each
row's sum

    S_j, fw, bw = sum_d count(d) e^{i phi d}   (within j, forward, backward)
    F = fw + conj(bw),   H = fw - conj(bw)

the six coefficients are

    delta_omega_j = (gamma_R + gamma_L)/2 Im S_j
    Gamma_j       = (gamma_R + gamma_L)   Re S_j
    Gamma_coll    = gamma_R F + gamma_L conj(F)
    g             = (gamma_R H - gamma_L conj(H)) / 2i

Under symmetric rates (gamma_R = gamma_L = gamma/2) these reduce to the
purely real cos/sin forms implemented independently in
``coefficients_nonchiral``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LayoutConfiguration


@dataclass(frozen=True)
class CoefficientSet:
    """Lamb shifts, individual and collective decay rates and exchange coupling of the two atoms at one phase."""

    delta_omega_a: float
    delta_omega_b: float
    gamma_a: float
    gamma_b: float
    gamma_coll: complex
    g: complex


def phase_distance(p: int, q: int, phi: float) -> float:
    """Propagation phase accumulated between lattice positions p and q."""
    return abs(p - q) * phi


def _coefficient_arrays(cfg, phis, gamma_r, gamma_l):
    """Vectorized coefficient evaluation over an array of phase shifts.

    Returns (delta_a, delta_b, gamma_a, gamma_b, gamma_coll, g); the first
    four are float arrays, the last two complex arrays, all shaped like phis.
    """
    if gamma_r < 0 or gamma_l < 0 or (gamma_r == 0 and gamma_l == 0):
        raise ValueError("rates must be non-negative and not both zero")
    total = gamma_r + gamma_l
    # no coefficient exceeds the 9 pairs' total weight
    if not math.isfinite(9.0 * total):
        raise ValueError("coupling rates too large: the coefficients overflow")
    phis = np.asarray(phis, dtype=float)
    if not np.all(np.isfinite(phis)):
        raise ValueError("phase shifts must be finite")

    e = np.exp(1j * np.multiply.outer(phis, cfg.distances))
    s_a, s_b, fw, bw = ((e * row).sum(-1) for row in cfg.pair_counts)
    f = fw + np.conj(bw)
    h = fw - np.conj(bw)
    return (0.5 * total * s_a.imag, 0.5 * total * s_b.imag, total * s_a.real, total * s_b.real,
            gamma_r * f + gamma_l * np.conj(f), (gamma_r * h - gamma_l * np.conj(h)) / 2j)


def coefficients(cfg: LayoutConfiguration, phi: float, gamma_r: float, gamma_l: float) -> CoefficientSet:
    """Evaluate the full (possibly direction-asymmetric) coefficient set."""
    da, db, ga, gb, gc, g = _coefficient_arrays(cfg, np.asarray([phi]), gamma_r, gamma_l)
    return CoefficientSet(float(da[0]), float(db[0]), float(ga[0]), float(gb[0]),
                          complex(gc[0]), complex(g[0]))


def coefficients_nonchiral(cfg: LayoutConfiguration, phi: float, gamma: float) -> CoefficientSet:
    """Symmetric-coupling coefficients via the real cos/sin expressions.

    Independent code path from ``coefficients``; kept separate so the
    reduction identity coefficients(cfg, phi, g/2, g/2) == this can serve as
    a cross-check.
    """
    if not (gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")

    within = []
    for atom in (cfg.atom_a, cfg.atom_b):
        pos = atom.positions
        delta = 0.0
        decay = 0.0
        for n in range(len(pos)):
            for m in range(len(pos)):
                arg = phase_distance(pos[n], pos[m], phi)
                delta += (gamma / 2.0) * math.sin(arg)
                decay += gamma * math.cos(arg)
        within.append((delta, decay))

    pa, pb = cfg.atom_a.positions, cfg.atom_b.positions
    gamma_coll = 0.0
    g = 0.0
    for n in range(len(pa)):
        for m in range(len(pb)):
            arg = phase_distance(pa[n], pb[m], phi)
            gamma_coll += gamma * math.cos(arg)
            g += (gamma / 2.0) * math.sin(arg)

    (delta_a, dec_a), (delta_b, dec_b) = within
    return CoefficientSet(delta_a, delta_b, dec_a, dec_b, complex(gamma_coll), complex(g))


# slack of the PSD test: relative, and absolute times the largest coefficient (at least 1)
_PSD_TOL = 1e-12


def psd_mask(da, db, ga, gb, gc, g):
    """True where the collective decay matrix [[G_a, G*_coll], [G_coll, G_b]] is PSD.

    Takes the six coefficients (Lamb shifts, decays, collective decay,
    exchange coupling) as scalars or arrays of one shape.  Compared in
    magnitude space with an absolute slack tied to the overall coefficient
    scale: near exact-decoupling phases the decays are sums of O(gamma)
    terms cancelling to ~0, and in the perfectly directional case
    |G_coll| = sqrt(G_a G_b) holds identically, so roundoff sits on either
    side of the exact inequality.
    """
    scale = np.maximum.reduce([
        np.full(np.shape(ga), 1.0), np.abs(ga), np.abs(gb), np.abs(gc),
        2.0 * np.abs(g), np.abs(da), np.abs(db),
    ])
    slack = _PSD_TOL * scale
    return (
        (ga >= -slack)
        & (gb >= -slack)
        & (np.abs(gc) <= np.sqrt(np.maximum(ga, 0.0)) * np.sqrt(np.maximum(gb, 0.0)) * (1 + _PSD_TOL) + slack)
    )


def check_dissipator_psd(c: CoefficientSet) -> bool:
    """``psd_mask`` for one coefficient set."""
    return bool(psd_mask(c.delta_omega_a, c.delta_omega_b, c.gamma_a, c.gamma_b, c.gamma_coll, c.g))
