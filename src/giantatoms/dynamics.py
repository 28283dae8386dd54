"""Single-excitation dynamics under the non-Hermitian effective Hamiltonian.

In the ordered basis (|e_a g_b>, |g_a e_b>) the effective matrix is

    m = [[ dw_a - i G_a/2,        conj(g) - i conj(G_coll)/2 ],
         [ g - i G_coll/2,        dw_b - i G_b/2             ]]

and amplitudes obey i dc/dt = m c.  The off-diagonal placement is fixed by
the cascaded limit: with purely right-moving coupling and atom a fully
upstream, g = -i G_coll / 2, so m12 vanishes identically and an excitation
starting on atom b can never flow back to atom a, while m21 stays finite and
lets atom a drive atom b.  The decay matrix i(m - m^dagger) then equals
[[G_a, conj(G_coll)], [G_coll, G_b]], whose positive semidefiniteness is the
physicality condition enforced by build_heff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coefficients import CoefficientSet, check_dissipator_psd
from .model import InitialState

# |s t| at or below this uses the cos/sinc form of exp(-i m t) (exact at
# degenerate eigenvalues); above it the spectral form, which is free of
# overflow because each exponential carries a full eigenvalue.
_SINC_FORM_MAX_Z = 1.0
_SINC_SERIES_MAX_Z = 1e-6
# dark_modes: |Im lambda| below this times the matrix scale is non-decaying
_DARK_TOL = 1e-9


class PhysicalityError(ValueError):
    """Decay matrix failed positive semidefiniteness; dynamics undefined."""


@dataclass(frozen=True)
class AmplitudePair:
    c_eg: complex
    c_ge: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.c_eg) ** 2 + abs(self.c_ge) ** 2


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    matrix: np.ndarray  # (2, 2) complex

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.matrix)))


def heff_entries(da, db, ga, gb, gc, g):
    """Entries (m11, m12, m21, m22) of the effective matrix from the six
    coefficients, as scalars or arrays of one shape (layout in the module
    docstring)."""
    return da - 0.5j * ga, np.conj(g) - 0.5j * np.conj(gc), g - 0.5j * gc, db - 0.5j * gb


def build_heff(c: CoefficientSet) -> EffectiveHamiltonian:
    if not check_dissipator_psd(c):
        raise PhysicalityError(f"collective decay matrix not PSD for {c}")
    m11, m12, m21, m22 = heff_entries(c.delta_omega_a, c.delta_omega_b, c.gamma_a, c.gamma_b, c.gamma_coll, c.g)
    return EffectiveHamiltonian(np.array([[m11, m12], [m21, m22]], dtype=complex))


def eigen_split(m11, m12, m21, m22):
    """(mu, dd, s) of a 2x2 matrix: the eigenvalues are mu +- s, mu the mean
    of the diagonal and dd its half-difference.  Either sqrt branch of s
    serves every formula here, as all are even in s."""
    mu = 0.5 * (m11 + m22)
    dd = 0.5 * (m11 - m22)
    return mu, dd, np.sqrt(dd * dd + m12 * m21)


def spectral_weights(s, c1, c2, d1, d2):
    """(p1, q1, p2, q2) with exp(-i m t) c = e^{-i(mu+s)t} p + e^{-i(mu-s)t} q,
    where d = (m - mu I) c; needs s != 0."""
    half = 0.5 / s
    return (s * c1 + d1) * half, (s * c1 - d1) * half, (s * c2 + d2) * half, (s * c2 - d2) * half


def concurrence(c: AmplitudePair) -> float:
    """Entanglement of the pure single-excitation state: 2 |c_eg| |c_ge|."""
    return 2.0 * abs(c.c_eg) * abs(c.c_ge)


def _evolve(m11, m12, m21, m22, c1, c2, t):
    """Apply exp(-i m t) to (c1, c2), broadcasting over every argument.

    Writes exp(-i m t) = e^{-i mu t} [cos(z) I - i t sinc(z) (m - mu I)] with
    mu the mean eigenvalue, s^2 the squared half-splitting and z = s t; for
    |z| beyond _SINC_FORM_MAX_Z it switches to the explicit two-eigenvalue
    form whose exponentials are bounded for a decaying spectrum.
    """
    m11, m12, m21, m22, c1, c2, t = np.broadcast_arrays(
        *(np.asarray(x, dtype=complex) for x in (m11, m12, m21, m22, c1, c2, t))
    )
    mu, dd, s = eigen_split(m11, m12, m21, m22)
    z = s * t
    d1 = dd * c1 + m12 * c2  # (m - mu I) @ c
    d2 = m21 * c1 - dd * c2

    out1 = np.empty(z.shape, dtype=complex)
    out2 = np.empty(z.shape, dtype=complex)

    small = np.abs(z) <= _SINC_FORM_MAX_Z
    if np.any(small):
        zs = z[small]
        tiny = np.abs(zs) < _SINC_SERIES_MAX_Z
        zsafe = np.where(tiny, 1.0, zs)
        sinc = np.where(tiny, 1.0 - zs * zs / 6.0, np.sin(zsafe) / zsafe)
        phase = np.exp(-1j * mu[small] * t[small])
        cz = np.cos(zs)
        ts = t[small]
        out1[small] = phase * (cz * c1[small] - 1j * ts * sinc * d1[small])
        out2[small] = phase * (cz * c2[small] - 1j * ts * sinc * d2[small])

    big = ~small
    if np.any(big):
        sb = s[big]
        tb = t[big]
        e_plus = np.exp(-1j * (mu[big] + sb) * tb)
        e_minus = np.exp(-1j * (mu[big] - sb) * tb)
        p1, q1, p2, q2 = spectral_weights(sb, c1[big], c2[big], d1[big], d2[big])
        out1[big] = e_plus * p1 + e_minus * q1
        out2[big] = e_plus * p2 + e_minus * q2

    return out1, out2


def _amplitude_curves(h: EffectiveHamiltonian, c0, times):
    """Closed-form amplitudes over an array of times for one Hamiltonian."""
    m = h.matrix
    times = np.asarray(times, dtype=float)
    return _evolve(m[0, 0], m[0, 1], m[1, 0], m[1, 1], c0.c_eg, c0.c_ge, times)


def propagate_closed(h: EffectiveHamiltonian, c0: InitialState | AmplitudePair, t: float) -> AmplitudePair:
    """Exact amplitudes at time t >= 0."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    c1, c2 = _amplitude_curves(h, c0, np.asarray([t]))
    return AmplitudePair(complex(c1[0]), complex(c2[0]))


def _rk4_steps(m, c, n_steps, dt):
    """n_steps classical RK4 steps of dc/dt = -i m c; c is (..., 2)."""
    m11, m12, m21, m22 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    c1, c2 = c[..., 0], c[..., 1]

    def rhs(a, b):
        return -1j * (m11 * a + m12 * b), -1j * (m21 * a + m22 * b)

    for _ in range(n_steps):
        k1a, k1b = rhs(c1, c2)
        k2a, k2b = rhs(c1 + 0.5 * dt * k1a, c2 + 0.5 * dt * k1b)
        k3a, k3b = rhs(c1 + 0.5 * dt * k2a, c2 + 0.5 * dt * k2b)
        k4a, k4b = rhs(c1 + dt * k3a, c2 + dt * k3b)
        c1 = c1 + (dt / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        c2 = c2 + (dt / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
    return np.stack([c1, c2], axis=-1)


def _integrate_interval(m, c, duration, dt):
    if duration <= 0:
        return c
    n_full = int(math.floor(duration / dt))
    c = _rk4_steps(m, c, n_full, dt)
    rem = duration - n_full * dt
    if rem > 1e-15 * max(duration, 1.0):
        c = _rk4_steps(m, c, 1, rem)
    return c


def propagate_numeric(h: EffectiveHamiltonian, c0: InitialState | AmplitudePair, t: float, dt: float) -> AmplitudePair:
    """Fixed-step RK4 integration to time t; the last partial step lands on t.

    Deliberately independent of propagate_closed so the two act as mutual
    oracles.
    """
    if not (np.isfinite(t) and np.isfinite(dt)) or not np.all(np.isfinite(h.matrix)):
        raise ValueError("non-finite inputs to propagate_numeric")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t > 0 and not (0 < dt <= t):
        raise ValueError(f"require 0 < dt <= t, got dt={dt}, t={t}")
    c = np.array([c0.c_eg, c0.c_ge], dtype=complex)
    c = _integrate_interval(h.matrix, c, t, dt)
    return AmplitudePair(complex(c[0]), complex(c[1]))


def propagate_numeric_batch(matrices, amps0, t_checkpoints, dt):
    """RK4-integrate a stack of systems, recording amplitudes at checkpoints.

    matrices: (N, 2, 2), amps0: (N, 2), t_checkpoints: increasing, starting
    at >= 0.  Returns (N, K, 2).  Used for bulk oracle comparisons where
    calling propagate_numeric per (system, time) would be wasteful.
    """
    matrices = np.asarray(matrices, dtype=complex)
    c = np.array(amps0, dtype=complex)
    t_checkpoints = np.asarray(t_checkpoints, dtype=float)
    out = np.empty((c.shape[0], t_checkpoints.size, 2), dtype=complex)
    t_prev = 0.0
    for k, t in enumerate(t_checkpoints):
        c = _integrate_interval(matrices, c, t - t_prev, dt)
        out[:, k, :] = c
        t_prev = t
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray        # (N,)
    amplitudes: np.ndarray   # (N, 2) complex
    concurrence: np.ndarray  # (N,)
    hamiltonian: EffectiveHamiltonian | None = None
    initial: InitialState | None = None

    @property
    def states(self) -> list[AmplitudePair]:
        return [AmplitudePair(complex(a), complex(b)) for a, b in self.amplitudes]


def trajectory(h: EffectiveHamiltonian, c0: InitialState, t_grid) -> Trajectory:
    """Concurrence trajectory on a strictly increasing, non-negative grid.

    Every point is evaluated independently with the exact propagator, so the
    result carries no step-to-step accumulation and is order-independent.
    """
    times = np.asarray(t_grid, dtype=float)
    if times.size == 0 or times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("t_grid must be strictly increasing with t_grid[0] >= 0")
    c1, c2 = _amplitude_curves(h, c0, times)
    conc = 2.0 * np.abs(c1) * np.abs(c2)
    return Trajectory(times, np.stack([c1, c2], axis=-1), conc, h, c0)


class ModeClass(Enum):
    DECAYS_TO_ZERO = "decays_to_zero"
    STEADY_PLATEAU = "steady_plateau"
    PERSISTENT_OSCILLATION = "persistent_oscillation"


@dataclass(frozen=True)
class ModeReport:
    eigenvalues: tuple[complex, complex]
    classification: ModeClass
    predicted_c_ss: float | None  # None when undefined (persistent oscillation)
    dark_overlap: float = 0.0
    dark_projection: AmplitudePair | None = None


def dark_modes(h: EffectiveHamiltonian, c0: InitialState) -> ModeReport:
    """Classify the decay spectrum and predict the long-time concurrence.

    An eigenvalue counts as non-decaying when |Im lambda| < _DARK_TOL
    relative to the matrix scale.  With exactly one such mode the initial
    state is projected onto it through the left (dual) eigenvector and the
    plateau concurrence follows from the surviving amplitudes.
    """
    m = h.matrix
    mu, _, s = eigen_split(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    lam1, lam2 = mu + s, mu - s
    scale = h.scale
    thr = _DARK_TOL * scale if scale > 0 else _DARK_TOL
    real_flags = [abs(lam.imag) < thr for lam in (lam1, lam2)]
    n_real = sum(real_flags)

    if n_real == 2:
        return ModeReport((complex(lam1), complex(lam2)), ModeClass.PERSISTENT_OSCILLATION, None)
    if n_real == 0:
        return ModeReport((complex(lam1), complex(lam2)), ModeClass.DECAYS_TO_ZERO, 0.0)

    lam = lam1 if real_flags[0] else lam2
    # Right eigenvector and left (row) eigenvector of lam; pick the
    # better-conditioned algebraic form of each.
    r_opts = (np.array([m[0, 1], lam - m[0, 0]]), np.array([lam - m[1, 1], m[1, 0]]))
    w_opts = (np.array([m[1, 0], lam - m[0, 0]]), np.array([lam - m[1, 1], m[0, 1]]))
    r = max(r_opts, key=lambda v: float(np.abs(v).sum()))
    w = max(w_opts, key=lambda v: float(np.abs(v).sum()))
    c0_vec = np.array([c0.c_eg, c0.c_ge])
    denom = w @ r
    if denom == 0:
        return ModeReport((complex(lam1), complex(lam2)), ModeClass.STEADY_PLATEAU, 0.0)
    p = r * ((w @ c0_vec) / denom)
    overlap = float(abs(w @ c0_vec) / (np.linalg.norm(w) * np.linalg.norm(c0_vec)))
    c_ss = 2.0 * abs(p[0]) * abs(p[1])
    return ModeReport(
        (complex(lam1), complex(lam2)),
        ModeClass.STEADY_PLATEAU,
        float(c_ss),
        overlap,
        AmplitudePair(complex(p[0]), complex(p[1])),
    )
