"""Parameter sweeps, extremum searches and special-phase studies.

Everything here is deterministic: sweep grids are evaluated with the exact
propagator cell by cell (no accumulated state), searches are grid scans
plus golden-section refinements whose winning points are re-evaluated
exactly (a refinement evaluates the points of several steps in one array
call, but compares them as the one-point-at-a-time search would; special
phases are polynomial roots, not searched), and no randomness or
threading is involved, so repeated runs produce identical results.
calibrate_presets searches each symmetry orbit of its value table once (label
swap, and waveguide reversal at chi = 0) on a pool of forked processes, each
the same find_max on the same inputs with the same code, and places the results
by job, not by arrival: the table is the one a sequential loop builds.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import combinations, product

import numpy as np

from .coefficients import _coefficient_arrays, coefficients
from .dynamics import (
    ModeClass,
    AmplitudePair,
    Trajectory,
    _SINC_FORM_MAX_Z,
    _cos_sinc,
    _evolve,
    _times,
    build_heff,
    concurrence_values,
    dark_modes,
    eigen_split,
    heff_entries,
    spectral_weights,
)
from .model import (
    ChiralitySpec,
    InitialState,
    INITIAL_EG,
    INITIAL_GE,
    INITIAL_STATES,
    LayoutConfiguration,
    Preset,
    PRESET_POSITIONS,
    make_layout,
    rates_from_chirality,
)

TWO_PI = 2.0 * math.pi

_GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps whose points a refinement chain (_golden_max)
# evaluates in one call; a call costs far more than a point in it, and the
# points grow as 2^steps (measured in CHANGES.md)
_LOOK_AHEAD = 5


def _golden_step(bracket, left):
    """One golden-section step: the bracket (a, b, c, d) after the comparison
    f(c) > f(d) came out as left, and the point whose value it asks for."""
    a, b, c, d = bracket
    if left:
        b, d = d, c
        c = b - _GOLDEN_INV * (b - a)
        return (a, b, c, d), c
    a, c = c, d
    d = a + _GOLDEN_INV * (b - a)
    return (a, b, c, d), d


def _golden_max(f, a, b):
    """Golden-section maximization of f on [a, b]: the midpoint of the final
    bracket; needs a < b. The chain stops once the bracket is at most
    _MAX_REFINE_TOL wide, or once a step leaves it no narrower, as it does
    where the spacing of floats exceeds that width (far from 0), so it
    always stops.

    f maps a float array of points to their values, one for one, and is
    pointwise: a point's value does not depend on the points it is evaluated
    with, so equal floats have equal values. The search is the
    one-point-at-a-time search, which makes the same comparisons on the same
    values and returns the same float; it only fetches the values in
    batches, and keeps them by point. When it needs a value it does not
    hold, one call of f evaluates that point and every point the next
    _LOOK_AHEAD - 1 steps could ask for, whichever way their comparisons
    fall: 2^_LOOK_AHEAD - 1 points at most. The first call holds the two
    interior points and the points ahead of them.
    """
    def ahead(bracket, depth):
        """The points the next depth steps from bracket can ask for."""
        if depth == 0 or not bracket[1] - bracket[0] > _MAX_REFINE_TOL:
            return []
        out = []
        for left in (True, False):
            after, x = _golden_step(bracket, left)
            out += [x] + ahead(after, depth - 1)
        return out

    values = {}

    def fetch(points, bracket):
        """The values of points; one call of f evaluates those not held yet
        and the points ahead of bracket."""
        missing = [x for x in points if x not in values]
        if missing:
            batch = missing + ahead(bracket, _LOOK_AHEAD - 1)
            values.update(zip(batch, f(np.array(batch))))
        return [values[x] for x in points]

    bracket = (a, b, b - _GOLDEN_INV * (b - a), a + _GOLDEN_INV * (b - a))
    fc, fd = fetch(list(bracket[2:]), bracket)
    width = math.inf
    while width > bracket[1] - bracket[0] > _MAX_REFINE_TOL:
        width = bracket[1] - bracket[0]
        left = fc > fd
        bracket, x = _golden_step(bracket, left)
        (fx,) = fetch([x], bracket)
        fc, fd = (fx, fc) if left else (fd, fx)
    return 0.5 * (bracket[0] + bracket[1])


def _m_components(cfg, gamma_r, gamma_l, phis):
    """Effective-matrix entries (m11, m12, m21, m22) over an array of phase
    shifts, PSD-checked."""
    return heff_entries(*_coefficient_arrays(cfg, phis, gamma_r, gamma_l))


def _concurrence_matrix(cfg, chirality, c0, phis, ts):
    """Exact concurrence over phis x ts, in blocks of as many phase rows as
    the scan's cell budget (_SCAN_CELLS) holds, and at least one; a block is
    one point-evaluator call (_point_amplitudes) over times x rows."""
    out = np.empty((phis.size, ts.size), dtype=float)
    rows = max(1, _SCAN_CELLS // ts.size)
    for lo in range(0, phis.size, rows):
        c1, c2 = _point_amplitudes(cfg, chirality, c0, phis[lo : lo + rows])(ts[:, None])
        out[lo : lo + rows] = concurrence_values(c1, c2).T
    return out


def _row_first_max(cells, rows, cols, values):
    """Each row's first maximum (or first NaN) over the 2-D cells, written as
    column and value to cols and values at rows. np.argmax over the values
    then keeps the first row's: one np.argmax's cell over all the cells."""
    j = np.argmax(cells, axis=1)
    cols[rows] = j
    values[rows] = cells[np.arange(j.size), j]


# The search scan's pruning (_scan_widths): a cell is skipped only when a
# bound on its row, times 1 + _ENVELOPE_SLACK, is below the incumbent: the
# row's envelope (_row_envelope), or on a spectral row the envelope leaves
# wide its state norm (_row_norm). The incumbent starts as the best cell of
# every row's first _INCUMBENT_COLUMNS columns, and the rows not yet computed
# are cut again each time a computed row takes it over. The slack stands far
# above the scan's O(n_t eps) drift; the norm adds an absolute margin of
# _NORM_ROUNDOFF (|p| + |q|)^2, far above the few eps (|p| + |q|)^2 that
# its amplitudes' cancelling terms leave. A short incumbent prefix costs less
# than the cells a later, higher one would prune (measured in CHANGES.md).
# On calibrate_presets' grids the scan computes 1.9% of the cells.
_ENVELOPE_SLACK = 1e-6
_NORM_ROUNDOFF = 2.0**-40
_INCUMBENT_COLUMNS = 32
# Cells per scan block (at least one row): 256 kB per complex work array,
# four rows of _SEARCH_T_POINTS times; other budgets measured slower
# (CHANGES.md). The sweep's blocks (_concurrence_matrix) take the same budget.
_SCAN_CELLS = 2**14


def _row_envelope(mu, s, c0, d1, d2, weights, spectral, t_max):
    """Per phase row of the scan, a bound on C at every time in [t, t_max]
    that never rises with t, as a function of t.

    The dissipator is PSD, so Im(mu +- s) <= 0: every exponential decays.
    - spectral rows: |c_k| <= |p_k| e^{a+ t} + |q_k| e^{a- t}, with
      a+- = Im(mu +- s) and the spectral weights (p_k, q_k);
    - cos/sinc rows: |c_k| <= e^{Im(mu) t} (cosh|z| |c0_k| + t sinh|z|/|z| |d_k|),
      taken at the row's largest |z| = |s| t_max, as both factors grow with
      |z|. This rises to one peak and then falls.
    Each term is held at its supremum over [t, t_max], which makes the bound
    non-increasing and keeps it valid where roundoff leaves an exponent above
    0. C = 2 |c_1| |c_2| is bounded by twice the product of the two.
    """
    a_plus, a_minus, alpha = (mu + s).imag, (mu - s).imag, mu.imag
    z = np.where(spectral, 0.0, np.abs(s) * t_max)  # spectral rows take the other form
    with np.errstate(all="ignore"):  # an infinite or NaN bound keeps its row
        sinhc = np.where(z > 0, np.sinh(z) / z, 1.0)
        series = [(np.cosh(z) * abs(c), sinhc * np.abs(d)) for c, d in ((c0.c_eg, d1), (c0.c_ge, d2))]
        # e^{alpha u} (a + b u) peaks at u = -1/alpha - a/b; it only grows when alpha >= 0
        peaks = [np.where(alpha < 0, -1.0 / alpha - a / b, t_max) for a, b in series]
    spectral_terms = [(np.abs(weights[0]), np.abs(weights[1])), (np.abs(weights[2]), np.abs(weights[3]))]

    def held(rate, t):
        """The supremum of e^{rate u} over u in [t, t_max]."""
        return np.exp(rate * np.where(rate > 0, t_max, t))

    @np.errstate(all="ignore")
    def envelope(t):
        h_plus, h_minus = held(a_plus, t), held(a_minus, t)
        bound = 2.0
        for (p, q), (a, b), peak in zip(spectral_terms, series, peaks):
            u = np.minimum(np.fmax(t, peak), t_max)  # fmax: a NaN peak (a = b = 0) is not a peak
            bound = bound * np.where(spectral, p * h_plus + q * h_minus, np.exp(alpha * u) * (a + b * u))
        return bound

    return envelope


def _row_norm(mu, s, weights, rise, t_max):
    """Per spectral row of the scan, a bound on C at t and after, as a
    function of t: the state norm N = |c_1|^2 + |c_2|^2 with a margin for
    roundoff.

    C = 2 |c_1| |c_2| <= N, and dN/dt = -c^H Gamma c with Gamma the decay
    matrix, so N never rises where Gamma is PSD. psd_mask bounds the lowest
    eigenvalue of Gamma below by -1e-12 times the coefficient scale;
    with rise its negation where positive, N grows at most by e^{rise t}, so
    the bound takes e^{rise t_max} N, with the amplitudes of the spectral
    blocks, c_k = p_k e^{-i(mu+s)t} + q_k e^{-i(mu-s)t}.
    Near |s| t_max = _SINC_FORM_MAX_Z the weights grow as 1/|s| and the two
    terms cancel to |c_k| <= 1, leaving an absolute error of a few
    eps (|p| + |q|)^2 in N, which the slack relative to N need not cover:
    the margin adds _NORM_ROUNDOFF (|p| + |q|)^2.
    """
    p1, q1, p2, q2 = weights
    hold = np.exp(rise * t_max)
    roundoff = _NORM_ROUNDOFF * ((np.abs(p1) + np.abs(q1)) ** 2 + (np.abs(p2) + np.abs(q2)) ** 2)

    @np.errstate(all="ignore")
    def norm(t):
        e_plus, e_minus = np.exp(-1j * (mu + s) * t), np.exp(-1j * (mu - s) * t)
        return hold * (np.abs(p1 * e_plus + q1 * e_minus) ** 2 + np.abs(p2 * e_plus + q2 * e_minus) ** 2) + roundoff

    return norm


def _scan_widths(bound, rows, incumbent, incumbent_row, n_t, dt):
    """For each phase row in rows, how many of its first n_t time columns (a
    count, or one per row) the scan computes: up to the last whose bound,
    times 1 + _ENVELOPE_SLACK, is not below the incumbent, and at least one.
    In the rows after incumbent_row, the first row that holds the incumbent,
    the bound must be above it: a cell there that ties the incumbent comes
    after it, so it cannot be the first maximum. bound(t) takes one time per
    row of rows and bounds each row's cells at t and after; it never rises
    with t, up to roundoff, so the kept columns are a prefix, found by
    bisection, and each cut column's bound covers every column after it. A
    NaN bound or incumbent keeps every column.
    """
    hi = np.array(np.broadcast_to(n_t, rows.shape), dtype=np.intp)  # columns from hi on are not kept
    lo = np.zeros_like(hi)  # columns before lo are
    after = rows > incumbent_row
    for _ in range(int(hi.max(initial=0)).bit_length()):
        mid = (lo + hi) // 2
        scaled = bound(mid * dt) * (1.0 + _ENVELOPE_SLACK)
        cut = np.where(after, scaled <= incumbent, scaled < incumbent)
        lo, hi = np.where(cut, lo, np.minimum(mid + 1, hi)), np.where(cut, mid, hi)
    return np.maximum(lo, 1)


def _concurrence_scan_uniform(cfg, chirality, c0, phis, n_t, dt):
    """First maximum (row, col, value) of the concurrence over
    phis x (0, dt, 2dt, ...): fast search-grade scan that skips the cells
    under two decaying bounds, with the full scan's result. The scan is
    rate-free: a row holds the unit-rate matrix of its phase at chirality.chi,
    and the columns step tau = gamma_total t by dt, so every t below is a tau.

    Exploits the uniform time grid: every exponential is a geometric
    sequence, built by cumulative products instead of per-cell exp calls.
    A row takes one of two forms by its largest |z| = |s| t:
    - |z| beyond _SINC_FORM_MAX_Z: the two eigen-exponentials e^{-i(mu+-s)t}
      with their spectral weights;
    - otherwise, degenerate or nearly so: c = e^{-i mu t} (cos z c0 -
      i t sinc z d), the phase on the recurrence and cos z and sinc z the
      propagator's own (_cos_sinc), or 1 and 1 in a block whose rows all
      have s = 0 exactly.
    No row calls _evolve. Accumulated drift is O(n_t * eps) ~ 1e-12, fine
    for locating extrema; anything that matters gets re-evaluated with the
    exact propagator.

    The scan first keeps each row's first maximum over its first
    _INCUMBENT_COLUMNS columns (_row_first_max); the best is the incumbent.
    Two bounds on a row's C never rise with t: its envelope (_row_envelope),
    and on a spectral row its state norm N = |c_1|^2 + |c_2|^2 (_row_norm),
    which stays tight where an amplitude's two exponential terms cancel and
    the envelope, adding their sizes, does not. So the cells whose bound,
    with slack, lies below the incumbent, or only ties it in a row after the
    incumbent's, are the row's tail (_scan_widths): none of them can hold the
    first maximum. The envelope cuts every row, then the norm cuts the
    spectral rows left wide. Only the rows that keep more columns are
    computed again, from column 0, and their first maxima replace the
    incumbent pass's. Whenever that moves the incumbent to another row, the
    rows not yet computed are cut again by both bounds against it, under its
    row's tie rule. The incumbent never falls, so each cut drops only cells
    that cannot be the first maximum. A prefix of a
    cumulative product has the bits of the same columns of the whole one
    (continuing one from a carried column does not always), so every
    computed cell has the bits of the full scan's, every cell equal to the
    maximum is computed, and the first of the rows' first maxima is the full
    scan's. On calibrate_presets' grids the scan computes 1.9% of the cells
    (CHANGES.md).

    Blocks of at most _SCAN_CELLS cells (rows x columns) go one at a time
    into the front of work arrays allocated once per call (fresh memory for
    every temporary of every block costs page faults that outweigh the
    arithmetic): consecutive rows in the incumbent pass, then the wide rows
    widest first, each block as wide as its widest row; the extra columns
    lie under their rows' envelopes. No row's value depends on its block
    mates; the spectral rows use the plain expressions' ufuncs, in order.
    """
    m11, m12, m21, m22 = _m_components(cfg, *rates_from_chirality(ChiralitySpec(1.0, chirality.chi)), phis)
    mu, dd, s = eigen_split(m11, m12, m21, m22)
    d1 = dd * c0.c_eg + m12 * c0.c_ge
    d2 = m21 * c0.c_eg - dd * c0.c_ge
    t_max = (n_t - 1) * dt
    spectral = np.abs(s) * t_max > _SINC_FORM_MAX_Z
    weights = np.zeros((4, phis.size), dtype=complex)  # (p1, q1, p2, q2), on spectral rows only
    weights[:, spectral] = spectral_weights(s[spectral], c0.c_eg, c0.c_ge, d1[spectral], d2[spectral])
    # how fast roundoff in the decay matrix lets N rise: minus its lowest eigenvalue, where positive
    ga, gb = -2.0 * m11.imag, -2.0 * m22.imag
    rise = np.maximum(np.hypot(0.5 * (ga - gb), np.abs(m21 - np.conj(m12))) - 0.5 * (ga + gb), 0.0)

    ts = np.arange(n_t) * dt
    i_t = 1j * ts
    size = max(_SCAN_CELLS, n_t)
    work = [np.empty(size, dtype=complex) for _ in range(4)] + [np.empty(size) for _ in range(3)]
    cols, values = np.empty(phis.size, dtype=np.intp), np.empty(phis.size)

    def geometric(rate, sq, dest):
        """e^{-i rate t} over the block's time columns, per row, into dest."""
        sq[:, 0] = 1.0
        sq[:, 1:] = np.exp(-1j * rate * dt)[:, None]
        return np.cumprod(sq, axis=1, out=dest)

    def block(rows, width):
        """Each row's first maximum of C over its first width columns."""
        seq, ep, em, tmp, out, mag1, mag2 = (x[: rows.size * width].reshape(rows.size, width) for x in work)
        kinds = spectral[rows]
        at = np.flatnonzero(kinds)
        if at.size:
            k, idx = at.size, rows[at]
            p1, q1, p2, q2 = weights[:, idx]
            sq, e_p, e_m, t_k, r1, r2 = seq[:k], ep[:k], em[:k], tmp[:k], mag1[:k], mag2[:k]
            geometric(mu[idx] + s[idx], sq, e_p)
            geometric(mu[idx] - s[idx], sq, e_m)
            # c1 = e_p p1 + e_m q1 into sq, c2 = e_p p2 + e_m q2 into e_p
            np.add(np.multiply(e_p, p1[:, None], out=sq), np.multiply(e_m, q1[:, None], out=t_k), out=sq)
            np.add(np.multiply(e_p, p2[:, None], out=e_p), np.multiply(e_m, q2[:, None], out=t_k), out=e_p)
            out[at] = concurrence_values(sq, e_p, (r1, r2))
        at = np.flatnonzero(~kinds)
        if at.size:
            k, idx = at.size, rows[at]
            sq, cz, its, t_k, r1, r2 = seq[:k], ep[:k], em[:k], tmp[:k], mag1[:k], mag2[:k]
            cos, sinc = 1.0, 1.0
            if s[idx].any():
                with np.errstate(invalid="ignore"):  # sin(nan) / nan of a NaN row is its NaN
                    cos, sinc = _cos_sinc(np.multiply(s[idx][:, None], ts[:width], out=sq))
            # the phase goes into both factors first: c1 into sq, c2 into cz
            phase = geometric(mu[idx], t_k, sq)
            np.multiply(phase, cos, out=cz)
            np.multiply(phase, np.multiply(sinc, i_t[:width], out=its), out=its)
            np.subtract(np.multiply(cz, c0.c_eg, out=sq), np.multiply(its, d1[idx][:, None], out=t_k), out=sq)
            np.subtract(np.multiply(cz, c0.c_ge, out=cz), np.multiply(its, d2[idx][:, None], out=its), out=cz)
            out[at] = concurrence_values(sq, cz, (r1, r2))
        _row_first_max(out, rows, cols, values)

    k0 = min(n_t, _INCUMBENT_COLUMNS)
    for rows in np.split(np.arange(phis.size), range(size // k0, phis.size, size // k0)):
        block(rows, k0)
    widths = np.full(phis.size, n_t)

    def envelope(rows):
        return _row_envelope(mu[rows], s[rows], c0, d1[rows], d2[rows], weights[:, rows], spectral[rows], t_max)

    def norm(rows):
        return _row_norm(mu[rows], s[rows], weights[:, rows], rise[rows], t_max)

    def cut(rows, bound):
        """Narrow the rows' widths under bound(rows) against the incumbent."""
        if rows.size:
            widths[rows] = _scan_widths(bound(rows), rows, values[row], row, widths[rows], dt)

    def narrow(rows):
        """Cut the rows by their envelope, then the spectral ones left wide
        by their state norm; the rows still wider than the incumbent pass,
        widest first."""
        cut(rows, envelope)
        rows = rows[widths[rows] > k0]
        cut(rows[spectral[rows]], norm)
        rows = rows[widths[rows] > k0]
        return rows[np.argsort(-widths[rows], kind="stable")]

    row = int(np.argmax(values))  # the first row holding the incumbent, or a NaN
    wide = narrow(np.arange(phis.size))
    while wide.size:
        rows, wide = np.split(wide, [size // widths[wide[0]]])
        block(rows, int(widths[rows[0]]))
        if int(np.argmax(values)) != row:
            row = int(np.argmax(values))
            wide = narrow(wide)
    i = int(np.argmax(values))
    return i, int(cols[i]), float(values[i])


def _point_amplitudes(cfg, chirality, c0, phis):
    """Exact amplitudes (c_eg, c_ge) at the 1-d array of phases phis, as a
    function of a float array of times broadcast against phis (ts[:, None]
    gives a times x phases grid).

    The matrix is built once, here, at unit total rate; each call of the
    function is one _evolve call for tau = gamma_total t. An element has the
    bits of the same point evaluated alone (a point is one-element arrays),
    as every step is elementwise.
    """
    m11, m12, m21, m22 = _m_components(cfg, *rates_from_chirality(ChiralitySpec(1.0, chirality.chi)), phis)
    return lambda ts: _evolve(m11, m12, m21, m22, c0.c_eg, c0.c_ge, np.multiply(chirality.gamma_total, ts))


def _trajectory_at(cfg, chirality, c0, phi, t_grid) -> Trajectory:
    """The trajectory at one phase on a time grid: one _point_amplitudes call."""
    at_phi = _point_amplitudes(cfg, chirality, c0, [phi])
    times = _times("t_grid", t_grid)
    c1, c2 = at_phi(times)
    return Trajectory(times, np.stack([c1, c2], axis=-1), concurrence_values(c1, c2))


def evaluate_concurrence(cfg, chirality, c0, phi, t) -> float:
    """Concurrence of the evolved state at a single (phi, t) point."""
    ts = _times("t", float(t))
    return float(concurrence_values(*_point_amplitudes(cfg, chirality, c0, [phi])(ts))[0])


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Concurrence over a phase x time product grid, with its axes."""

    phi_values: np.ndarray
    t_values: np.ndarray
    c_matrix: np.ndarray  # shape (len(phi), len(t))


def sweep(cfg, chirality, c0, phi_grid, t_grid) -> SweepGrid:
    """Concurrence over the (phi, t) product grid."""
    phis = np.asarray(phi_grid, dtype=float)
    if phis.size == 0 or not np.all(np.isfinite(phis)) or np.any(np.diff(phis) <= 0):
        raise ValueError("phi_grid must be non-empty, finite and strictly increasing")
    ts = _times("t_grid", t_grid)
    return SweepGrid(phis, ts, _concurrence_matrix(cfg, chirality, c0, phis, ts))


_SEARCH_T_POINTS = 4001  # find_max: the times of its one search grid on [0, gamma_total * t_horizon] in tau
_MAX_REFINE_TOL = 1e-6  # find_max: golden-section bracket width in tau = gamma_total t and in phi


@dataclass(frozen=True)
class MaxResult:
    """The largest concurrence find_max found, where, and the amplitudes there."""

    c_max: float
    phi_star: float
    t_star: float
    amplitudes_at_max: AmplitudePair


def find_max(
    cfg,
    chirality,
    c0,
    phi_range: tuple[float, float] = (0.0, TWO_PI),
    t_horizon: float = 50.0,
    phi_points: int = 2001,
) -> MaxResult:
    """Maximum concurrence over phi_range x [0, t_horizon].

    The search runs the unit-rate problem in tau = gamma_total t: its scan and
    refinements take the rates of ChiralitySpec(1, chi) on [0, gamma_total *
    t_horizon], and only the cell it reports is evaluated at the caller's rate,
    at t_star = tau_star / gamma_total, so c_max is evaluate_concurrence's
    value at (phi_star, t_star). The result depends on gamma_total and
    t_horizon only through their product: at a power-of-two rate bit for bit,
    at any other the product and tau_star / gamma_total are each rounded once.

    Coarse grid scan, phi_points phases by _SEARCH_T_POINTS times, followed by
    alternating golden-section refinement in tau and phi inside the bracketing
    grid cells, each down to a bracket of _MAX_REFINE_TOL; the result never
    falls below the best coarse-grid sample. The scan skips the cells whose row
    bounds, a decaying envelope and on spectral rows the state norm, lie below
    the incumbent, which starts as the best of every row's first columns and is
    raised by each row computed past them, with the rows not yet computed cut
    again each time it moves: 98% of calibrate_presets' grids. It computes the
    rest in blocks of a cell budget, each row once past the incumbent's
    (_concurrence_scan_uniform); its result is the full scan's, so the output
    is unchanged. Each golden-section chain fetches its values in batches
    (_golden_max, _LOOK_AHEAD steps ahead), each batch one array evaluation: a
    tau-chain builds the effective matrix at its phase once and evolves each
    batch of times, a phi-chain builds and evolves each batch of phases. Every
    point has the bits of its one-point evaluation, so the chains visit and
    compare what the one-point-at-a-time search would. A search over more than
    one phase runs three rounds, a tau-chain and then a phi-chain each.

    The effective matrix obeys m(2pi - phi) = -conj(m(phi)), so C is
    symmetric under phi -> 2pi - phi when c0 is real up to a global phase
    (c_eg conj(c_ge) real). When that holds and phi_range is symmetric
    about pi (phi_lo + phi_hi == 2pi), the scan covers only the first
    (phi_points + 1) // 2 phase rows. The grid is not ulp-symmetric, so
    phi_star may then be the mirror of the full scan's and c_max may differ
    from it in the last bits. Any other start or range scans every row.

    The grid's density is fixed by its point count, so it resolves a tau
    horizon gamma_total * t_horizon only up to about 50: over a longer one the
    scan may step over the peak and report a lower local maximum.
    """
    tau_h = float(_times("[0, gamma_total * t_horizon]", (0.0, chirality.gamma_total * t_horizon))[1])
    if phi_points < 1:
        raise ValueError(f"phi_points must be at least 1, got {phi_points}")
    phi_lo, phi_hi = phi_range
    if not (-math.inf < phi_lo <= phi_hi < math.inf):
        raise ValueError(f"phi_range must be finite and not reversed, got ({phi_lo}, {phi_hi})")
    phis = np.linspace(phi_lo, phi_hi, phi_points) if phi_hi > phi_lo else np.asarray([phi_lo])
    unit = ChiralitySpec(1.0, chirality.chi)
    taus = np.linspace(0.0, tau_h, _SEARCH_T_POINTS)
    mirrored = (c0.c_eg * c0.c_ge.conjugate()).imag == 0 and phi_lo + phi_hi == TWO_PI
    scanned = phis[: (phis.size + 1) // 2] if mirrored else phis
    i, j, grid_best = _concurrence_scan_uniform(cfg, unit, c0, scanned, taus.size, tau_h / (taus.size - 1))

    def cell(phi, t):
        c1, c2 = _point_amplitudes(cfg, chirality, c0, [phi])(np.asarray([t]))
        return MaxResult(float(concurrence_values(c1, c2)[0]), phi, t, AmplitudePair(complex(c1[0]), complex(c2[0])))

    phi_star, tau_star = float(phis[i]), float(taus[j])
    tau_lo = float(taus[max(j - 1, 0)])
    tau_hi = float(taus[min(j + 1, taus.size - 1)])
    p_lo = float(phis[max(i - 1, 0)])
    p_hi = float(phis[min(i + 1, phis.size - 1)])
    # with one phase there is nothing to alternate with: more rounds would
    # repeat the same tau search
    for _ in range(3 if p_hi > p_lo else 1):
        at_phi = _point_amplitudes(cfg, unit, c0, [phi_star])
        tau_star = _golden_max(lambda tau_batch: concurrence_values(*at_phi(tau_batch)), tau_lo, tau_hi)
        if p_hi > p_lo:
            at_tau = np.asarray([tau_star])
            phi_star = _golden_max(lambda phi_batch: concurrence_values(
                *_point_amplitudes(cfg, unit, c0, phi_batch)(at_tau)), p_lo, p_hi)

    # the reported cell is the one at the caller's rate and t = tau / gamma_total
    best = cell(phi_star, tau_star / chirality.gamma_total)
    return cell(float(phis[i]), float(taus[j]) / chirality.gamma_total) if best.c_max < grid_best else best


class PhaseKind(Enum):
    DECOUPLED = "decoupled"
    DECOHERENCE_FREE = "decoherence_free"
    DARK_STATE = "dark_state"


@dataclass(frozen=True)
class SpecialPhase:
    """A phase shift at which the coefficients meet one of the PhaseKind conditions."""

    phi: float
    kind: PhaseKind


# find_special_phases: the decay at unit total rate below which the decays
# vanish (and |g| must not, for a decoherence-free phase) and the largest pair distance d
# (its roots are eigenvalues of an 8d x 8d matrix: 2 s at d = 128, 0.3 s at d = 64);
# _stationary_phases: the distance below which computed roots are one multiple
# root (a triple root's computed roots lie within about 1e-5 of it; 1e-3 gave
# the same phases as 1e-4, CHANGES.md)
_PHASE_COEF_TOL = 1e-9
_PHASE_MAX_DISTANCE = 128
# the least ratio of a dark mode's smaller amplitude to its larger: below it the
# mode lies on one atom, which then keeps its excitation unentangled (measured
# on 300 random layouts: 2.7e-12 at most on one atom, 0.313 at least on both)
_DARK_SHARE_TOL = 1e-6
_ROOT_CLUSTER_RADIUS = 1e-4


def _stationary_phases(c):
    """The phases in [0, 2*pi) where f' = 0 (none if f is constant), for the real
    trigonometric polynomial f(phi) = sum_k c_k e^(i k phi) given by its coefficients
    c_k, k = -n..n (so c_-k = conj c_k): the roots on the unit circle of
    z^n f'(z) / i = sum_k k c_k z^(k + n) (Boyd, J. Eng. Math. 2006); one within 1e-9
    of 0 or of 2*pi reads 0.0, whichever side of it roundoff put the root.

    np.roots scatters a multiple root into a ring of computed roots, each 1e-6 to
    1e-5 off and on either side of the circle. Roots linked by distances below
    _ROOT_CLUSTER_RADIUS are one root at their mean, which is well conditioned where
    the ring's members are not (Z. Zeng, Math. Comp. 74, 2005); a lone root keeps its
    phase, bit for bit."""
    n = len(c) // 2
    z = np.roots((np.arange(-n, n + 1) * c)[::-1])
    near = np.abs(z[:, None] - z) < _ROOT_CLUSTER_RADIUS
    cluster, linked = None, np.arange(z.size)  # a root's cluster: the least index it links to
    while not np.array_equal(cluster, linked):
        cluster, linked = linked, np.where(near, linked, z.size).min(axis=1, initial=z.size)
    z = np.array([z[cluster == k].mean() for k in np.unique(cluster)], dtype=complex)
    phis = np.angle(z[np.abs(np.abs(z) - 1.0) < 1e-6]) % TWO_PI
    phis[np.minimum(phis, TWO_PI - phis) < 1e-9] = 0.0
    return phis


def find_special_phases(cfg, chirality, initial: InitialState = INITIAL_EG) -> list[SpecialPhase]:
    """Locate phases where the pair decouples, interacts without decay, or
    hosts a dark state overlapping the initial state.

    With z = e^(i phi), m = -i (gamma/2) P(z): P has S_a, S_b on its diagonal and
    (1 + chi) bw + (1 - chi) fw, (1 + chi) fw + (1 - chi) bw off it, no gamma. Candidates
    are the stationary phases of two nonnegative trigonometric polynomials, each root read
    once through coefficients() at unit total rate. Re(S_a + S_b), of degree d (the largest
    pair distance, at most _PHASE_MAX_DISTANCE), is zero where no decay is left: a root is
    decoherence-free when its decays are below _PHASE_COEF_TOL and |g| is not, decoupled
    when both are. The resultant -(D - ~D)^2 - (T + ~T)(D ~T + ~D T), T = tr P, D = det P and ~
    the conjugate on the circle (degree 4d), is zero where m has a real eigenvalue: a root
    with decay is a dark state when dark_modes finds one overlapping the initial state and
    lying on both atoms, its smaller amplitude above _DARK_SHARE_TOL times its larger."""
    chi = chirality.chi
    degree = int(cfg.distances.max())
    if degree > _PHASE_MAX_DISTANCE:
        raise ValueError(f"special phases take pair distances up to {_PHASE_MAX_DISTANCE}, got {degree}")
    # the coefficients of powers -degree..degree: an array reversed is its ~
    s_a, s_b, fw, bw = (np.bincount(degree + cfg.distances.astype(int), row, 2 * degree + 1) for row in cfg.pair_counts)
    tr = s_a + s_b
    det = np.convolve(s_a, s_b) - np.convolve((1 + chi) * bw + (1 - chi) * fw, (1 + chi) * fw + (1 - chi) * bw)
    cross = np.convolve(det, tr[::-1])
    resultant = -np.convolve(det - det[::-1], det - det[::-1]) - np.convolve(tr + tr[::-1], cross + cross[::-1])

    def at(phis):
        for phi in phis.tolist():
            c = coefficients(cfg, phi, *rates_from_chirality(ChiralitySpec(1.0, chi)))
            yield phi, c, max(abs(c.gamma_a), abs(c.gamma_b), abs(c.gamma_coll))

    found: list[SpecialPhase] = []
    for phi, c, decay in at(_stationary_phases(tr + tr[::-1])):
        if decay < _PHASE_COEF_TOL:
            coupled = abs(c.g) >= _PHASE_COEF_TOL
            found.append(SpecialPhase(phi, PhaseKind.DECOHERENCE_FREE if coupled else PhaseKind.DECOUPLED))
    # without decay every eigenvalue is real, so decoupled and decoherence-free
    # phases are roots of the resultant too; a dark state needs decay to stand out
    for phi, c, decay in at(_stationary_phases(resultant)):
        if decay >= 1e-6:
            report = dark_modes(build_heff(c), initial)
            if report.classification is ModeClass.STEADY_PLATEAU and report.dark_overlap > 1e-6:
                low, high = sorted(map(abs, (report.dark_projection.c_eg, report.dark_projection.c_ge)))
                if low > _DARK_SHARE_TOL * high:
                    found.append(SpecialPhase(phi, PhaseKind.DARK_STATE))
    return sorted(found, key=lambda sp: sp.phi)


@dataclass(frozen=True, eq=False)
class ChiralityScanResult:
    """Trajectories at one phase over a chirality grid."""

    chis: tuple[float, ...]
    trajectories: tuple[Trajectory, ...]


def chirality_scan(cfg, phi, chi_values, c0, t_grid, gamma_total: float = 1.0) -> ChiralityScanResult:
    """Trajectories at fixed phase for a list of chirality values.

    gamma_total is held fixed across the scan; a chi's right-moving rate is
    gamma_total (1 + chi) / 2. Each trajectory evolves its chi's unit-rate
    matrix for tau = gamma_total t (_trajectory_at).
    """
    trajs = tuple(_trajectory_at(cfg, ChiralitySpec(gamma_total, chi), c0, phi, t_grid) for chi in chi_values)
    return ChiralityScanResult(tuple(float(c) for c in chi_values), trajs)


@dataclass(frozen=True, eq=False)
class InitialStateComparison:
    """Sweeps from eg and from ge and their largest pointwise difference."""

    grid_eg: SweepGrid
    grid_ge: SweepGrid
    max_abs_diff: float


def compare_initial_states(cfg, chirality, phi_grid, t_grid) -> InitialStateComparison:
    """Sweeps for both single-excitation starts plus their largest pointwise gap."""
    grid_eg = sweep(cfg, chirality, INITIAL_EG, phi_grid, t_grid)
    grid_ge = sweep(cfg, chirality, INITIAL_GE, phi_grid, t_grid)
    diff = float(np.max(np.abs(grid_eg.c_matrix - grid_ge.c_matrix)))
    return InitialStateComparison(grid_eg, grid_ge, diff)


# --- preset calibration against benchmark concurrence maxima ---------------


# Reference maximum-concurrence bands (lo, hi) per column, nonchiral/chiral
# x eg/ge start in the value table's column order, for the five named
# arrangements, plus reference (phi, value) peaks used as plausibility
# predicates during ordering calibration: the nonchiral max-over-t
# concurrence from eg at phi must sit within value +- _PEAK_BAND.  The
# chiral_eg band for the partially braided arrangement spans two equally
# defensible values.
CALIBRATION_TARGETS: dict[Preset, tuple[dict[str, tuple[float, float]], tuple[tuple[float, float], ...]]] = {
    Preset.SEPARATED: (
        {"nonchiral_eg": (0.5, 0.5), "nonchiral_ge": (0.5, 0.5),
         "chiral_eg": (0.736, 0.736), "chiral_ge": (0.0, 0.0)},
        (),
    ),
    Preset.FULLY_BRAIDED: (
        {"nonchiral_eg": (1.0, 1.0), "nonchiral_ge": (1.0, 1.0),
         "chiral_eg": (1.0, 1.0), "chiral_ge": (1.0, 1.0)},
        (),
    ),
    Preset.PARTIALLY_BRAIDED: (
        {"nonchiral_eg": (0.77, 0.77), "nonchiral_ge": (0.77, 0.77),
         "chiral_eg": (0.86, 0.87), "chiral_ge": (0.89, 0.89)},
        ((11 * math.pi / 25, 0.77),),
    ),
    Preset.FULLY_NESTED: (
        {"nonchiral_eg": (0.87, 0.87), "nonchiral_ge": (0.96, 0.96),
         "chiral_eg": (0.90, 0.90), "chiral_ge": (0.98, 0.98)},
        ((math.pi / 4, 0.67),),
    ),
    Preset.PARTIALLY_NESTED: (
        {"nonchiral_eg": (0.83, 0.83), "nonchiral_ge": (0.78, 0.78),
         "chiral_eg": (0.94, 0.94), "chiral_ge": (0.93, 0.93)},
        ((math.pi / 4, 0.83),),
    ),
}
_PEAK_BAND = 0.02


def _deviation(band, value: float) -> float:
    """How far value lies outside the closed interval band = (lo, hi); a NaN
    value lies infinitely far outside every band."""
    lo, hi = band
    if value < lo:
        return lo - value
    if value > hi:
        return value - hi
    return math.inf if math.isnan(value) else 0.0


def _pattern(positions_a) -> str:
    """The ordering of points 0..5 whose 'a' points sit at positions_a."""
    return "".join("a" if i in positions_a else "b" for i in range(6))


def all_orderings() -> list[str]:
    """The 20 ways to interleave three 'a' and three 'b' points on 0..5."""
    return sorted(_pattern(apos) for apos in combinations(range(6), 3))


def layout_from_pattern(pattern: str) -> LayoutConfiguration:
    if sorted(pattern) != ["a", "a", "a", "b", "b", "b"]:
        raise ValueError(f"pattern must contain three 'a' and three 'b', got {pattern!r}")
    pos_a = tuple(i for i, ch in enumerate(pattern) if ch == "a")
    pos_b = tuple(i for i, ch in enumerate(pattern) if ch == "b")
    return make_layout(pos_a, pos_b)


_SWAP_LABELS = str.maketrans("ab", "ba")


def _images(pattern: str) -> set[str]:
    """An ordering under label swap and waveguide reversal."""
    return {q for p in (pattern, pattern[::-1]) for q in (p, p.translate(_SWAP_LABELS))}


# The orderings each named configuration may take. An unambiguous shape takes
# the images of its preset's ordering; the partially braided and nested shapes
# are pictorial only, so they take every other ordering and let the scores
# decide.
_SHAPE_ORDERINGS = {preset: _images(_pattern(PRESET_POSITIONS[preset][0]))
                    for preset in (Preset.SEPARATED, Preset.FULLY_BRAIDED, Preset.FULLY_NESTED)}
_PARTIAL_ORDERINGS = set(all_orderings()).difference(*_SHAPE_ORDERINGS.values())


@dataclass(frozen=True)
class ConfigCalibration:
    """The ordering assigned to one named configuration, with its score and values."""

    pattern: str
    score: float
    residuals: dict[str, float]
    values: dict[str, float]
    peaks_ok: bool
    unresolved: bool
    matches_default: bool


@dataclass(frozen=True)
class CalibrationResult:
    """Assignments of orderings to the named configurations, and the value table they were scored on."""

    assignments: dict[str, ConfigCalibration]
    value_table: dict[str, tuple[float, float, float, float]]

    def layout(self, preset: Preset | str) -> LayoutConfiguration:
        return layout_from_pattern(self.assignments[Preset(preset).value].pattern)


_UNRESOLVED_SCORE = 0.02
_TIE_TOL = 1e-6


def _search_job(pattern, initial_label, chi) -> float:
    """One value-table search of calibrate_presets, from plain values so a
    pool worker can run it."""
    return find_max(layout_from_pattern(pattern), ChiralitySpec(1.0, chi), INITIAL_STATES[initial_label]).c_max


def calibrate_presets() -> CalibrationResult:
    """Score all 20 point orderings against the benchmark maxima and assign
    the best name-consistent ordering to each named configuration.

    Every search runs at the setting of CALIBRATION_TARGETS: gamma_total = 1
    over find_max's default horizon.

    The canonical presets are never modified; a chosen ordering that differs
    from the preset default is reported via matches_default=False, and a
    score above 0.02 flags the assignment as unresolved.

    Each value-table cell (p, chi, start) reads the search of the smallest
    (ordering, start) in its orbit: swap(p) from the other start and, at
    chi = 0 only, p[::-1] from the same start. Reversing the waveguide
    exchanges the forward and backward pair sums, which keeps the
    coefficients' bits only where gamma_R == gamma_L. Each search is a default
    find_max from eg or ge over the full phase range: half the phase rows.

    The 30 value-table searches share no state, so they run on a pool of
    forked processes, one per CPU this process may use (at most one per
    search); the results come back in job order and each is the float the
    same find_max call returns in this process. A search's exception is
    raised here. The forked workers inherit this process's modules as they
    stand, warning filters included. The peak checks run in this process.
    Needs the "fork" start method and os.sched_getaffinity (Linux).
    """
    import multiprocessing  # here only: importing the package should not pay for it

    orderings = all_orderings()
    # columns in the order of CALIBRATION_TARGETS' bands: nonchiral eg, ge, chiral eg, ge
    columns = [(chi, label) for chi in (0.0, 1.0) for label in INITIAL_STATES]
    job_of = {}
    for p, (chi, label) in product(orderings, columns):
        orbit = [(p, label), (p.translate(_SWAP_LABELS), label[::-1])]  # label[::-1] swaps eg and ge
        if chi == 0.0:
            orbit += [(q[::-1], start) for q, start in orbit]
        job_of[p, chi, label] = (*min(orbit), chi)
    jobs = list(dict.fromkeys(job_of.values()))
    with multiprocessing.get_context("fork").Pool(min(len(os.sched_getaffinity(0)), len(jobs))) as pool:
        found = dict(zip(jobs, pool.starmap(_search_job, jobs, chunksize=1)))
    value_table = {p: tuple(found[job_of[p, chi, label]] for chi, label in columns) for p in orderings}

    assignments: dict[str, ConfigCalibration] = {}
    for preset, (bands, peaks) in CALIBRATION_TARGETS.items():
        candidates = [p for p in orderings if p in _SHAPE_ORDERINGS.get(preset, _PARTIAL_ORDERINGS)]
        scored = []
        for pattern in candidates:
            vals = value_table[pattern]
            devs = {label: _deviation(band, v) for (label, band), v in zip(bands.items(), vals)}
            score = max(devs.values())
            scored.append((score, pattern, devs, vals))
        scored.sort(key=lambda item: (item[0], item[1]))

        # once per ordering: the walk below and the tie list both ask
        @cache
        def peaks_pass(pattern):
            cfg = layout_from_pattern(pattern)
            for phi, value in peaks:
                v = find_max(cfg, ChiralitySpec(1.0, 0.0), INITIAL_EG, (phi, phi)).c_max
                if abs(v - value) > _PEAK_BAND:
                    return False
            return True

        # walk up the score order until the location predicates pass
        best = None
        for item in scored:
            if peaks_pass(item[1]):
                best = item
                peaks_ok = True
                break
        if best is None:
            best = scored[0]
            peaks_ok = False
        else:
            # mirror-degenerate orderings can tie; pick the lexicographically
            # smallest so the assignment is reproducible
            ties = [it for it in scored if it[0] <= best[0] + _TIE_TOL and peaks_pass(it[1])]
            best = min(ties, key=lambda it: it[1])

        score, pattern, devs, vals = best
        assignments[preset.value] = ConfigCalibration(
            pattern=pattern,
            score=score,
            residuals=devs,
            values=dict(zip(bands, vals)),
            peaks_ok=peaks_ok,
            unresolved=score > _UNRESOLVED_SCORE,
            matches_default=pattern == _pattern(PRESET_POSITIONS[preset][0]),
        )

    return CalibrationResult(assignments, value_table)
