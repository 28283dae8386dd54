"""Parameter sweeps, extremum searches, steady-state and special-phase studies.

Everything here is deterministic: sweep grids are evaluated with the exact
propagator cell by cell (no accumulated state), searches are plain
grid-plus-golden-section refinements whose winning points are re-evaluated
exactly, and no randomness or threading is involved, so repeated runs
produce identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .coefficients import _coefficient_arrays, coefficients, psd_mask
from .dynamics import (
    EffectiveHamiltonian,
    ModeClass,
    ModeReport,
    PhysicalityError,
    AmplitudePair,
    Trajectory,
    _SINC_FORM_MAX_Z,
    _evolve,
    build_heff,
    concurrence,
    dark_modes,
    eigen_split,
    heff_entries,
    spectral_weights,
    trajectory,
)
from .model import (
    ChiralitySpec,
    InitialState,
    INITIAL_EG,
    INITIAL_GE,
    LayoutConfiguration,
    Preset,
    PRESET_POSITIONS,
    make_layout,
    rates_from_chirality,
)

TWO_PI = 2.0 * math.pi

_GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b] to bracket width tol."""
    if b < a:
        a, b = b, a
    c = b - _GOLDEN_INV * (b - a)
    d = a + _GOLDEN_INV * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN_INV * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN_INV * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _golden_min(f, a: float, b: float, tol: float) -> tuple[float, float]:
    x, v = _golden_max(lambda u: -f(u), a, b, tol)
    return x, -v


def _m_components(cfg, gamma_r, gamma_l, phis):
    """Effective-matrix entries (m11, m12, m21, m22) over an array of phase
    shifts, PSD-checked."""
    coeffs = _coefficient_arrays(cfg, phis, gamma_r, gamma_l)
    ok = psd_mask(*coeffs)
    if not np.all(ok):
        bad = np.asarray(phis)[~ok]
        raise PhysicalityError(f"decay matrix not PSD at phi={bad[:3]}...")
    return heff_entries(*coeffs)


# phase rows per propagator batch: the exact grid and the uniform-t scan
_MATRIX_CHUNK = 128
_SCAN_CHUNK = 256


def _concurrence_matrix(cfg, chirality, c0, phis, ts):
    gamma_r, gamma_l = rates_from_chirality(chirality)
    m11, m12, m21, m22 = _m_components(cfg, gamma_r, gamma_l, phis)
    out = np.empty((phis.size, ts.size), dtype=float)
    for lo in range(0, phis.size, _MATRIX_CHUNK):
        sl = slice(lo, min(lo + _MATRIX_CHUNK, phis.size))
        c1, c2 = _evolve(
            m11[sl][:, None], m12[sl][:, None], m21[sl][:, None], m22[sl][:, None],
            c0.c_eg, c0.c_ge, ts[None, :],
        )
        out[sl] = 2.0 * np.abs(c1) * np.abs(c2)
    return out


def _concurrence_scan_uniform(cfg, chirality, c0, phis, n_t, dt):
    """Concurrence over phis x (0, dt, 2dt, ...): fast search-grade scan.

    Exploits the uniform time grid: the two eigen-exponentials are geometric
    sequences, built by cumulative products instead of per-cell exp calls.
    Accumulated drift is O(n_t * eps) ~ 1e-12, fine for locating extrema;
    anything that matters gets re-evaluated with the exact propagator.
    """
    gamma_r, gamma_l = rates_from_chirality(chirality)
    m11, m12, m21, m22 = _m_components(cfg, gamma_r, gamma_l, phis)
    t_max = (n_t - 1) * dt
    out = np.empty((phis.size, n_t), dtype=float)
    for lo in range(0, phis.size, _SCAN_CHUNK):
        sl = slice(lo, min(lo + _SCAN_CHUNK, phis.size))
        a11, a12, a21, a22 = m11[sl], m12[sl], m21[sl], m22[sl]
        mu, dd, s = eigen_split(a11, a12, a21, a22)
        d1 = dd * c0.c_eg + a12 * c0.c_ge
        d2 = a21 * c0.c_eg - dd * c0.c_ge

        spectral = np.abs(s) * t_max > _SINC_FORM_MAX_Z
        rows = np.flatnonzero(spectral)
        if rows.size:
            lam_p = (mu + s)[rows]
            lam_m = (mu - s)[rows]
            p1, q1, p2, q2 = spectral_weights(s[rows], c0.c_eg, c0.c_ge, d1[rows], d2[rows])
            seq = np.empty((rows.size, n_t), dtype=complex)
            seq[:, 0] = 1.0
            seq[:, 1:] = np.exp(-1j * lam_p * dt)[:, None]
            ep = np.cumprod(seq, axis=1)
            seq[:, 1:] = np.exp(-1j * lam_m * dt)[:, None]
            em = np.cumprod(seq, axis=1)
            c1 = ep * p1[:, None] + em * q1[:, None]
            c2 = ep * p2[:, None] + em * q2[:, None]
            out[lo + rows] = 2.0 * np.abs(c1) * np.abs(c2)
        rows = np.flatnonzero(~spectral)
        if rows.size:
            ts = np.arange(n_t) * dt
            c1, c2 = _evolve(
                a11[rows][:, None], a12[rows][:, None], a21[rows][:, None],
                a22[rows][:, None], c0.c_eg, c0.c_ge, ts[None, :],
            )
            out[lo + rows] = 2.0 * np.abs(c1) * np.abs(c2)
    return out


def _heff_at(cfg, chirality, phi) -> EffectiveHamiltonian:
    gamma_r, gamma_l = rates_from_chirality(chirality)
    return build_heff(coefficients(cfg, phi, gamma_r, gamma_l))


def _point_amplitudes(cfg, chirality, c0, phi, t):
    """Exact amplitudes (c_eg, c_ge) at a single (phi, t) point."""
    gamma_r, gamma_l = rates_from_chirality(chirality)
    m11, m12, m21, m22 = _m_components(cfg, gamma_r, gamma_l, np.asarray([phi]))
    c1, c2 = _evolve(m11, m12, m21, m22, c0.c_eg, c0.c_ge, np.asarray([t], dtype=float))
    return c1[0], c2[0]


def evaluate_concurrence(cfg, chirality, c0, phi, t) -> float:
    """Concurrence of the evolved state at a single (phi, t) point."""
    c1, c2 = _point_amplitudes(cfg, chirality, c0, phi, t)
    return float(2.0 * abs(c1) * abs(c2))


@dataclass(frozen=True)
class SweepMetadata:
    layout_label: str
    chi: float
    gamma: float
    initial_label: str


def _layout_label(cfg: LayoutConfiguration) -> str:
    if cfg.preset_tag is not Preset.CUSTOM:
        return cfg.preset_tag.value
    return f"custom[a={list(cfg.atom_a.positions)};b={list(cfg.atom_b.positions)}]"


def _initial_label(c0: InitialState) -> str:
    if c0 == INITIAL_EG:
        return "eg"
    if c0 == INITIAL_GE:
        return "ge"
    return "custom"


@dataclass(frozen=True, eq=False)
class SweepGrid:
    phi_values: np.ndarray
    t_values: np.ndarray
    c_matrix: np.ndarray  # shape (len(phi), len(t))
    metadata: SweepMetadata


def sweep(cfg, chirality, c0, phi_grid, t_grid) -> SweepGrid:
    """Concurrence over the (phi, t) product grid."""
    phis = np.asarray(phi_grid, dtype=float)
    ts = np.asarray(t_grid, dtype=float)
    for name, grid in (("phi_grid", phis), ("t_grid", ts)):
        if grid.size == 0:
            raise ValueError(f"{name} must be non-empty")
        if np.any(np.diff(grid) <= 0):
            raise ValueError(f"{name} must be strictly increasing")
    if ts[0] < 0:
        raise ValueError("t_grid must start at t >= 0")
    c = _concurrence_matrix(cfg, chirality, c0, phis, ts)
    meta = SweepMetadata(_layout_label(cfg), chirality.chi, chirality.gamma_total, _initial_label(c0))
    return SweepGrid(phis, ts, c, meta)


_MAX_REFINE_TOL = 1e-6  # find_max: golden-section bracket width in t and phi


@dataclass(frozen=True)
class MaxResult:
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
    t_points: int = 4001,
) -> MaxResult:
    """Maximum concurrence over phi_range x [0, t_horizon].

    Coarse grid scan followed by alternating golden-section refinement in t
    and phi inside the bracketing grid cells; the result never falls below
    the best coarse-grid sample.
    """
    if not (t_horizon > 0):
        raise ValueError("t_horizon must be positive")
    phi_lo, phi_hi = phi_range
    phis = np.linspace(phi_lo, phi_hi, phi_points) if phi_hi > phi_lo else np.asarray([phi_lo])
    ts = np.linspace(0.0, t_horizon, t_points)
    c = _concurrence_scan_uniform(cfg, chirality, c0, phis, t_points, t_horizon / (t_points - 1))
    i, j = np.unravel_index(int(np.argmax(c)), c.shape)
    grid_best = float(c[i, j])

    def value(phi, t):
        return evaluate_concurrence(cfg, chirality, c0, phi, t)

    phi_star, t_star = float(phis[i]), float(ts[j])
    t_lo = float(ts[max(j - 1, 0)])
    t_hi = float(ts[min(j + 1, ts.size - 1)])
    p_lo = float(phis[max(i - 1, 0)])
    p_hi = float(phis[min(i + 1, phis.size - 1)])
    # with one phase there is nothing to alternate with: more rounds would
    # repeat the same t search
    for _ in range(3 if p_hi > p_lo else 1):
        if t_hi > t_lo:
            t_star, _ = _golden_max(lambda t: value(phi_star, t), t_lo, t_hi, _MAX_REFINE_TOL)
        if p_hi > p_lo:
            phi_star, _ = _golden_max(lambda p: value(p, t_star), p_lo, p_hi, _MAX_REFINE_TOL)

    if value(phi_star, t_star) < grid_best:
        phi_star, t_star = float(phis[i]), float(ts[j])

    c1, c2 = _point_amplitudes(cfg, chirality, c0, phi_star, t_star)
    amps = AmplitudePair(complex(c1), complex(c2))
    return MaxResult(concurrence(amps), phi_star, t_star, amps)


@dataclass(frozen=True)
class SteadyStateReport:
    is_steady: bool
    c_ss: float
    settle_time: float
    mode: ModeReport | None


def detect_steady(traj: Trajectory, window: float = 10.0, tol: float = 1e-3) -> SteadyStateReport:
    """Detect a concurrence plateau: a time T from which the concurrence
    varies by less than tol over [T, T + window] while staying above tol.

    Requiring the whole window (not just its first sample) to sit above tol
    keeps slow decays that merely drift through the threshold from
    registering as plateaus.  The trajectory must extend at least one window
    beyond its start.
    """
    t = traj.times
    c = traj.concurrence
    if t[-1] - t[0] < window:
        raise ValueError(f"trajectory horizon {t[-1]} too short for window {window}")
    mode = None
    if traj.hamiltonian is not None and traj.initial is not None:
        mode = dark_modes(traj.hamiltonian, traj.initial)
    limit = t[-1] - window
    ends = np.searchsorted(t, t + window, side="right")
    for i in range(t.size):
        if t[i] > limit:
            break
        seg = c[i : max(ends[i], i + 2)]
        if float(seg.min()) > tol and float(seg.max() - seg.min()) < tol:
            return SteadyStateReport(True, float(seg.mean()), float(t[i]), mode)
    return SteadyStateReport(False, 0.0, math.nan, mode)


class PhaseKind(Enum):
    DECOUPLED = "decoupled"
    DECOHERENCE_FREE = "decoherence_free"
    DARK_STATE = "dark_state"


@dataclass(frozen=True)
class SpecialPhase:
    phi: float
    kind: PhaseKind


def _candidate_runs(mask):
    """Contiguous index runs where mask is true."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    runs = []
    start = prev = idx[0]
    for k in idx[1:]:
        if k != prev + 1:
            runs.append((start, prev))
            start = k
        prev = k
    runs.append((start, prev))
    return runs


# find_special_phases: phase grid size, golden-section bracket width, and the
# residual a refined phase must fall below (also |g|/gamma for a
# decoherence-free phase to count as interacting)
_PHASE_GRID_POINTS = 100_000
_PHASE_REFINE_TOL = 1e-10
_PHASE_COEF_TOL = 1e-9


def _phase_residuals(da, db, ga, gb, gc, g, gamma):
    """Residuals of the three special-phase conditions, as scalars or arrays.

    Returns ({kind: residual}, |g|, largest decay magnitude). A phase is
    decoupled when every decay and the exchange coupling vanish,
    decoherence-free when every decay vanishes, and dark when one eigenvalue
    of the effective matrix is real (relative to the matrix scale).
    """
    decay = np.maximum(np.maximum(np.abs(ga), np.abs(gb)), np.abs(gc))
    g_abs = np.abs(g)
    m11, m12, m21, m22 = heff_entries(da, db, ga, gb, gc, g)
    mu, _, s = eigen_split(m11, m12, m21, m22)
    scale = np.maximum(np.maximum.reduce([np.abs(m11), np.abs(m12), np.abs(m21), np.abs(m22)]), 1e-300)
    residuals = {
        PhaseKind.DECOUPLED: np.maximum(decay, g_abs) / gamma,
        PhaseKind.DECOHERENCE_FREE: decay / gamma,
        PhaseKind.DARK_STATE: np.minimum(np.abs((mu + s).imag), np.abs((mu - s).imag)) / scale,
    }
    return residuals, g_abs, decay


def find_special_phases(cfg, chirality, initial: InitialState = INITIAL_EG) -> list[SpecialPhase]:
    """Locate phases where the pair decouples, interacts without decay, or
    hosts a dark state overlapping the initial state.

    Scans phi in [0, 2*pi), then refines each candidate by golden-section
    minimization of its kind's residual down to a bracket of 1e-10.
    """
    gamma_r, gamma_l = rates_from_chirality(chirality)
    gamma = chirality.gamma_total
    phis = np.linspace(0.0, TWO_PI, _PHASE_GRID_POINTS, endpoint=False)
    on_grid = _phase_residuals(*_coefficient_arrays(cfg, phis, gamma_r, gamma_l), gamma)[0]
    dphi = phis[1] - phis[0]

    def at(phi):
        c = coefficients(cfg, phi, gamma_r, gamma_l)
        return _phase_residuals(c.delta_omega_a, c.delta_omega_b, c.gamma_a, c.gamma_b, c.gamma_coll, c.g, gamma)

    found: list[SpecialPhase] = []
    for kind in PhaseKind:
        for lo_i, hi_i in _candidate_runs(on_grid[kind] < 1e-4):
            i_min = lo_i + int(np.argmin(on_grid[kind][lo_i : hi_i + 1]))
            phi_star, _ = _golden_min(lambda p: at(p)[0][kind], phis[i_min] - dphi, phis[i_min] + dphi,
                                      _PHASE_REFINE_TOL)
            phi_star %= TWO_PI
            if TWO_PI - phi_star < 1e-9:
                phi_star = 0.0
            if any(abs(phi_star - sp.phi) < 1e-6 or abs(abs(phi_star - sp.phi) - TWO_PI) < 1e-6 for sp in found):
                continue
            residuals, g_abs, decay = at(phi_star)
            if residuals[kind] >= _PHASE_COEF_TOL:
                continue
            if kind is PhaseKind.DECOHERENCE_FREE and g_abs < _PHASE_COEF_TOL * gamma:
                continue
            if kind is PhaseKind.DARK_STATE:
                # a dark state needs finite dissipation to stand out against; points
                # in the flat halo of a decoupling phase are not separate roots
                if decay < 1e-6 * gamma:
                    continue
                report = dark_modes(_heff_at(cfg, chirality, phi_star), initial)
                if not (report.classification is ModeClass.STEADY_PLATEAU and report.dark_overlap > 1e-6):
                    continue
            found.append(SpecialPhase(phi_star, kind))

    return sorted(found, key=lambda sp: sp.phi)


@dataclass(frozen=True, eq=False)
class ChiralityScanResult:
    phi: float
    gamma_total: float
    chis: tuple[float, ...]
    gamma_rights: tuple[float, ...]
    trajectories: tuple[Trajectory, ...]
    peak_counts: tuple[int, ...]


def _count_peaks(c: np.ndarray, threshold: float) -> int:
    if c.size < 3:
        return int(np.any(c > threshold))
    inner = (c[1:-1] > c[:-2]) & (c[1:-1] >= c[2:]) & (c[1:-1] > threshold)
    return int(np.count_nonzero(inner))


def chirality_scan(cfg, phi, chi_values, c0, t_grid, gamma_total: float = 1.0) -> ChiralityScanResult:
    """Trajectories at fixed phase for a list of chirality values.

    gamma_total is held fixed across the scan and all times are in units of
    1/gamma_total; peak counts tally local maxima with C > 1 - 1e-3 on the
    supplied grid.
    """
    trajs = []
    counts = []
    grs = []
    for chi in chi_values:
        spec = ChiralitySpec(gamma_total, chi)
        h = _heff_at(cfg, spec, phi)
        tr = trajectory(h, c0, t_grid)
        trajs.append(tr)
        counts.append(_count_peaks(tr.concurrence, 1.0 - 1e-3))
        grs.append(rates_from_chirality(spec)[0])
    return ChiralityScanResult(
        phi, gamma_total, tuple(float(c) for c in chi_values), tuple(grs), tuple(trajs), tuple(counts)
    )


@dataclass(frozen=True, eq=False)
class InitialStateComparison:
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


@dataclass(frozen=True)
class TargetBand:
    lo: float
    hi: float

    def deviation(self, value: float) -> float:
        if value < self.lo:
            return self.lo - value
        if value > self.hi:
            return value - self.hi
        return 0.0


@dataclass(frozen=True)
class PeakConstraint:
    """Requires max-over-t concurrence at a reference phase to sit within value +- band."""

    phi: float
    value: float
    band: float
    chi: float
    initial_label: str  # "eg" or "ge"


@dataclass(frozen=True)
class ConfigTargets:
    nonchiral_eg: TargetBand
    nonchiral_ge: TargetBand
    chiral_eg: TargetBand
    chiral_ge: TargetBand
    peaks: tuple[PeakConstraint, ...] = ()

    def bands(self):
        return (
            ("nonchiral_eg", self.nonchiral_eg),
            ("nonchiral_ge", self.nonchiral_ge),
            ("chiral_eg", self.chiral_eg),
            ("chiral_ge", self.chiral_ge),
        )


def _exact(v: float) -> TargetBand:
    return TargetBand(v, v)


# Reference maximum-concurrence 4-tuples (nonchiral/chiral x eg/ge start)
# for the five named arrangements, plus reference peak phases used as
# plausibility predicates during ordering calibration.  The chiral_eg band
# for the partially braided arrangement spans two equally defensible values.
CALIBRATION_TARGETS: dict[Preset, ConfigTargets] = {
    Preset.SEPARATED: ConfigTargets(_exact(0.5), _exact(0.5), _exact(0.736), _exact(0.0)),
    Preset.FULLY_BRAIDED: ConfigTargets(_exact(1.0), _exact(1.0), _exact(1.0), _exact(1.0)),
    Preset.PARTIALLY_BRAIDED: ConfigTargets(
        _exact(0.77), _exact(0.77), TargetBand(0.86, 0.87), _exact(0.89),
        peaks=(PeakConstraint(11 * math.pi / 25, 0.77, 0.02, 0.0, "eg"),),
    ),
    Preset.FULLY_NESTED: ConfigTargets(
        _exact(0.87), _exact(0.96), _exact(0.90), _exact(0.98),
        peaks=(PeakConstraint(math.pi / 4, 0.67, 0.02, 0.0, "eg"),),
    ),
    Preset.PARTIALLY_NESTED: ConfigTargets(
        _exact(0.83), _exact(0.78), _exact(0.94), _exact(0.93),
        peaks=(PeakConstraint(math.pi / 4, 0.83, 0.02, 0.0, "eg"),),
    ),
}


def all_orderings() -> list[str]:
    """The 20 ways to interleave three 'a' and three 'b' points on 0..5."""
    out = []
    for apos in combinations(range(6), 3):
        out.append("".join("a" if i in apos else "b" for i in range(6)))
    return sorted(out)


def layout_from_pattern(pattern: str, tag: Preset = Preset.CUSTOM) -> LayoutConfiguration:
    if sorted(pattern) != ["a", "a", "a", "b", "b", "b"]:
        raise ValueError(f"pattern must contain three 'a' and three 'b', got {pattern!r}")
    pos_a = tuple(i for i, ch in enumerate(pattern) if ch == "a")
    pos_b = tuple(i for i, ch in enumerate(pattern) if ch == "b")
    return make_layout(pos_a, pos_b, tag)


def _is_contiguous(pattern: str) -> bool:
    return pattern in ("aaabbb", "bbbaaa")


def _is_alternating(pattern: str) -> bool:
    return pattern in ("ababab", "bababa")


def _is_fully_nested(pattern: str) -> bool:
    """One atom's three points all inside a single gap of the other atom."""
    for inner, outer in (("a", "b"), ("b", "a")):
        pos_in = [i for i, ch in enumerate(pattern) if ch == inner]
        pos_out = [i for i, ch in enumerate(pattern) if ch == outer]
        for lo, hi in zip(pos_out, pos_out[1:]):
            if all(lo < p < hi for p in pos_in):
                return True
    return False


def _name_consistent(preset: Preset, pattern: str) -> bool:
    if preset is Preset.SEPARATED:
        return _is_contiguous(pattern)
    if preset is Preset.FULLY_BRAIDED:
        return _is_alternating(pattern)
    if preset is Preset.FULLY_NESTED:
        return _is_fully_nested(pattern)
    # The partially braided/nested shapes are pictorial only; admit anything
    # that is not one of the unambiguous shapes and let the scores decide.
    return not (_is_contiguous(pattern) or _is_alternating(pattern) or _is_fully_nested(pattern))


@dataclass(frozen=True)
class ConfigCalibration:
    pattern: str
    positions_a: tuple[int, ...]
    positions_b: tuple[int, ...]
    score: float
    residuals: dict[str, float]
    values: dict[str, float]
    peaks_ok: bool
    unresolved: bool
    matches_default: bool


@dataclass(frozen=True)
class CalibrationResult:
    assignments: dict[str, ConfigCalibration]
    value_table: dict[str, tuple[float, float, float, float]]

    def layout(self, preset: Preset | str) -> LayoutConfiguration:
        preset = Preset(preset)
        cal = self.assignments[preset.value]
        return make_layout(cal.positions_a, cal.positions_b, preset)


_UNRESOLVED_SCORE = 0.02
_TIE_TOL = 1e-6


def calibrate_presets(
    gamma_total: float = 1.0,
    t_horizon: float = 50.0,
    phi_points: int = 2001,
    t_points: int = 4001,
) -> CalibrationResult:
    """Score all 20 point orderings against the benchmark maxima and assign
    the best name-consistent ordering to each named configuration.

    The canonical presets are never modified; a chosen ordering that differs
    from the preset default is reported via matches_default=False, and a
    score above 0.02 flags the assignment as unresolved.
    """
    cases = (("nonchiral_eg", 0.0, INITIAL_EG), ("nonchiral_ge", 0.0, INITIAL_GE),
             ("chiral_eg", 1.0, INITIAL_EG), ("chiral_ge", 1.0, INITIAL_GE))

    value_table: dict[str, tuple[float, float, float, float]] = {}
    for pattern in all_orderings():
        cfg = layout_from_pattern(pattern)
        vals = []
        for _, chi, c0 in cases:
            res = find_max(cfg, ChiralitySpec(gamma_total, chi), c0,
                           t_horizon=t_horizon, phi_points=phi_points, t_points=t_points)
            vals.append(res.c_max)
        value_table[pattern] = tuple(vals)

    assignments: dict[str, ConfigCalibration] = {}
    for preset, tg in CALIBRATION_TARGETS.items():
        candidates = [p for p in all_orderings() if _name_consistent(preset, p)]
        scored = []
        for pattern in candidates:
            vals = value_table[pattern]
            devs = {label: band.deviation(v) for (label, band), v in zip(tg.bands(), vals)}
            score = max(devs.values())
            scored.append((score, pattern, devs, vals))
        scored.sort(key=lambda item: (item[0], item[1]))

        def peaks_pass(pattern):
            cfg = layout_from_pattern(pattern)
            for pk in tg.peaks:
                c0 = INITIAL_EG if pk.initial_label == "eg" else INITIAL_GE
                v = find_max(cfg, ChiralitySpec(gamma_total, pk.chi), c0, (pk.phi, pk.phi), t_horizon,
                             phi_points=1, t_points=t_points).c_max
                if abs(v - pk.value) > pk.band:
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
        cfg = layout_from_pattern(pattern)
        default = PRESET_POSITIONS[preset]
        assignments[preset.value] = ConfigCalibration(
            pattern=pattern,
            positions_a=cfg.atom_a.positions,
            positions_b=cfg.atom_b.positions,
            score=score,
            residuals=devs,
            values=dict(zip((lbl for lbl, _ in tg.bands()), vals)),
            peaks_ok=peaks_ok,
            unresolved=score > _UNRESOLVED_SCORE,
            matches_default=(cfg.atom_a.positions, cfg.atom_b.positions) == default,
        )

    return CalibrationResult(assignments, value_table)
