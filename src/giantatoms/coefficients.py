"""Waveguide-induced coefficients for a pair of three-point giant atoms.

For each atom j the Lamb shift and individual decay are double sums over its
coupling points n, m (all 9 ordered pairs, diagonal included):

    delta_omega_j = sum (sqrt(r_n r_m) + sqrt(l_n l_m))/2 * sin(phi*|x_n - x_m|)
    Gamma_j       = sum (sqrt(r_n r_m) + sqrt(l_n l_m))   * cos(phi*|x_n - x_m|)

and the cross-atom collective decay and exchange coupling run over the 9
(a_n, b_m) pairs with a direction sign eps = sign(x_bm - x_an):

    Gamma_coll = sum  sqrt(r_an r_bm) e^{+i eps phi d} + sqrt(l_an l_bm) e^{-i eps phi d}
    g          = sum (eps/2i) [ sqrt(r_an r_bm) e^{+i eps phi d} - sqrt(l_an l_bm) e^{-i eps phi d} ]

with d = |x_an - x_bm|.  Under symmetric rates (r = l = gamma/2) these reduce
to the purely real cos/sin forms implemented independently in
``coefficients_nonchiral``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LayoutConfiguration, GiantAtom, LayoutError, epsilon, validate_layout


@dataclass(frozen=True)
class CoefficientSet:
    delta_omega_a: float
    delta_omega_b: float
    gamma_a: float
    gamma_b: float
    gamma_coll: complex
    g: complex


def phase_distance(p: int, q: int, phi: float) -> float:
    """Propagation phase accumulated between lattice positions p and q."""
    return abs(p - q) * phi


def _point_rates(atom: GiantAtom, gamma_r: float, gamma_l: float) -> tuple[list[float], list[float]]:
    right = [pt.rate_right if pt.rate_right is not None else gamma_r for pt in atom.points]
    left = [pt.rate_left if pt.rate_left is not None else gamma_l for pt in atom.points]
    return right, left


def _require_valid(cfg: LayoutConfiguration) -> None:
    problems = validate_layout(cfg)
    if problems:
        raise LayoutError("; ".join(problems))


def _coefficient_arrays(cfg, phis, gamma_r, gamma_l):
    """Vectorized coefficient evaluation over an array of phase shifts.

    Returns (delta_a, delta_b, gamma_a, gamma_b, gamma_coll, g); the first
    four are float arrays, the last two complex arrays, all shaped like phis.
    """
    _require_valid(cfg)
    if gamma_r < 0 or gamma_l < 0 or (gamma_r == 0 and gamma_l == 0):
        raise ValueError("rates must be non-negative and not both zero")
    phis = np.asarray(phis, dtype=float)
    if not np.all(np.isfinite(phis)):
        raise ValueError("phase shifts must be finite")

    ra, la = _point_rates(cfg.atom_a, gamma_r, gamma_l)
    rb, lb = _point_rates(cfg.atom_b, gamma_r, gamma_l)
    # every pair weight sqrt(r_n r_m) is finite iff every r_n * r_n is
    if not all(math.isfinite(r * r) for r in ra + la + rb + lb):
        raise ValueError("coupling rates too large: the pair weights sqrt(r_n r_m) overflow")

    within = []
    for (right, left), atom in (((ra, la), cfg.atom_a), ((rb, lb), cfg.atom_b)):
        pos = atom.positions
        delta = np.zeros_like(phis)
        decay = np.zeros_like(phis)
        for n in range(len(pos)):
            for m in range(len(pos)):
                w = math.sqrt(right[n] * right[m]) + math.sqrt(left[n] * left[m])
                arg = phis * phase_distance(pos[n], pos[m], 1.0)
                delta = delta + (w / 2.0) * np.sin(arg)
                decay = decay + w * np.cos(arg)
        within.append((delta, decay))

    pa, pb = cfg.atom_a.positions, cfg.atom_b.positions
    gamma_coll = np.zeros(phis.shape, dtype=complex)
    g = np.zeros(phis.shape, dtype=complex)
    for n in range(len(pa)):
        for m in range(len(pb)):
            eps = epsilon(pa[n], pb[m])
            d = phase_distance(pa[n], pb[m], 1.0)
            wr = math.sqrt(ra[n] * rb[m])
            wl = math.sqrt(la[n] * lb[m])
            e = np.exp(1j * eps * d * phis)
            ec = np.conj(e)
            gamma_coll = gamma_coll + wr * e + wl * ec
            if eps != 0:
                g = g + (eps / 2j) * (wr * e - wl * ec)

    (delta_a, dec_a), (delta_b, dec_b) = within
    return delta_a, delta_b, dec_a, dec_b, gamma_coll, g


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
    _require_valid(cfg)
    if not (gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")

    def tot(atom):
        out = []
        for pt in atom.points:
            if pt.rate_right is not None and pt.rate_left is not None:
                out.append(pt.rate_right + pt.rate_left)
            else:
                out.append(gamma)
        return out

    within = []
    for atom in (cfg.atom_a, cfg.atom_b):
        rates = tot(atom)
        pos = atom.positions
        delta = 0.0
        decay = 0.0
        for n in range(len(pos)):
            for m in range(len(pos)):
                w = math.sqrt(rates[n] * rates[m])
                arg = phase_distance(pos[n], pos[m], phi)
                delta += (w / 2.0) * math.sin(arg)
                decay += w * math.cos(arg)
        within.append((delta, decay))

    rates_a, rates_b = tot(cfg.atom_a), tot(cfg.atom_b)
    pa, pb = cfg.atom_a.positions, cfg.atom_b.positions
    gamma_coll = 0.0
    g = 0.0
    for n in range(len(pa)):
        for m in range(len(pb)):
            w = math.sqrt(rates_a[n] * rates_b[m])
            arg = phase_distance(pa[n], pb[m], phi)
            gamma_coll += w * math.cos(arg)
            g += (w / 2.0) * math.sin(arg)

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
