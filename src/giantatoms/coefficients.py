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
purely real cos/sin forms, which the tests sum independently.
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


def _coefficient_arrays(cfg, phis, gamma_r, gamma_l):
    """Vectorized coefficient evaluation over an array of phase shifts.

    Returns (delta_a, delta_b, gamma_a, gamma_b, gamma_coll, g); the first
    four are float arrays, the last two complex arrays, all shaped like phis.
    """
    if gamma_r < 0 or gamma_l < 0 or (gamma_r == 0 and gamma_l == 0):
        raise ValueError("rates must be non-negative and not both zero")
    total = gamma_r + gamma_l
    # no coefficient exceeds the total weight of the pairs of the larger atom
    if not math.isfinite(max(len(cfg.positions_a), len(cfg.positions_b)) ** 2 * total):
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


# slack of the PSD test, times the largest coefficient (at least 1)
_PSD_TOL = 1e-12


def psd_mask(da, db, ga, gb, gc, g):
    """True where the collective decay matrix [[G_a, G*_coll], [G_coll, G_b]] is PSD.

    Takes the six coefficients (Lamb shifts, decays, collective decay,
    exchange coupling) as scalars or arrays of one shape.  The rule: the
    matrix's lowest eigenvalue, (G_a + G_b)/2 - hypot((G_a - G_b)/2, |G_coll|),
    is at least -_PSD_TOL times the overall coefficient scale.  Near
    exact-decoupling phases the decays are sums of O(gamma) terms cancelling
    to ~0, and in the perfectly directional case |G_coll| = sqrt(G_a G_b)
    holds identically, so roundoff sits on either side of the exact
    inequality.  The eigenvalue stays within a few eps times the scale of
    its exact value there, also next to a phase where one decay alone
    vanishes, where the product form |G_coll|^2 <= G_a G_b does not.  Every
    term is halved before it is added, so no finite input overflows.
    """
    scale = np.maximum.reduce([
        np.full(np.shape(ga), 1.0), np.abs(ga), np.abs(gb), np.abs(gc),
        2.0 * np.abs(g), np.abs(da), np.abs(db),
    ])
    return 0.5 * ga + 0.5 * gb - np.hypot(0.5 * ga - 0.5 * gb, np.abs(gc)) >= -_PSD_TOL * scale
