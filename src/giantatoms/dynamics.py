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
physicality condition; heff_entries, the one constructor of the entries,
enforces it.  Times follow one rule too (_times): finite, >= 0 and, for a
grid, non-empty and strictly increasing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coefficients import CoefficientSet, psd_mask
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
    """Amplitudes of the two single-excitation states |eg> and |ge>."""

    c_eg: complex
    c_ge: complex


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    """The 2x2 non-Hermitian effective matrix of the single-excitation dynamics."""

    matrix: np.ndarray  # (2, 2) complex


def heff_entries(da, db, ga, gb, gc, g):
    """Entries (m11, m12, m21, m22) of the effective matrix from the six
    coefficients, as scalars or arrays of one shape (layout in the module
    docstring).

    Raises PhysicalityError unless the decay matrix is PSD (psd_mask) at
    every point.
    """
    ok = psd_mask(da, db, ga, gb, gc, g)
    if not ok.all():
        i = int(np.argmin(ok))
        a, b, c = (np.ravel(x)[i] for x in (ga, gb, gc))
        raise PhysicalityError(f"decay matrix not PSD at {np.size(ok) - np.count_nonzero(ok)} of {np.size(ok)} "
                               f"points, the first with G_a={a}, G_b={b}, G_coll={c}")
    return da - 0.5j * ga, np.conj(g) - 0.5j * np.conj(gc), g - 0.5j * gc, db - 0.5j * gb


def build_heff(c: CoefficientSet) -> EffectiveHamiltonian:
    m11, m12, m21, m22 = heff_entries(c.delta_omega_a, c.delta_omega_b, c.gamma_a, c.gamma_b, c.gamma_coll, c.g)
    return EffectiveHamiltonian(np.array([[m11, m12], [m21, m22]], dtype=complex))


def eigen_split(m11, m12, m21, m22):
    """(mu, dd, s) of a 2x2 matrix: the eigenvalues are mu +- s, mu the mean
    of the diagonal and dd its half-difference.  Either sqrt branch of s
    serves every formula here, as all are even in s.

    m12 * m21 is formed from real products, which commute, so exchanging m12
    and m21 (the atom label swap) keeps its bits; numpy's complex multiply
    kernels can round a*b and b*a differently. dd * dd is an np.multiply call,
    which rounds scalars (dark_modes) as its array loop does; the * of numpy
    scalars may not. The products are formed on the entries as given: those
    of a unit-rate matrix, or of one _unit_scaled."""
    mu = 0.5 * (m11 + m22)
    dd = 0.5 * (m11 - m22)
    off = np.empty_like(dd)
    off.real = m12.real * m21.real - m12.imag * m21.imag
    off.imag = m12.real * m21.imag + m12.imag * m21.real
    return mu, dd, np.sqrt(np.multiply(dd, dd) + off)


def _unit_scaled(matrix):
    """(matrix / 2**k, k), a largest entry in [1/2, 1): exact, so products of
    entries neither under- nor overflow at any rate scale, and evolving it for
    2**k t keeps every bit of exp(-i m t)."""
    k = math.frexp(float(np.max(np.abs(matrix))))[1]
    return np.ldexp(np.ascontiguousarray(matrix, complex).view(float), -k).view(complex), k


def spectral_weights(s, c1, c2, d1, d2):
    """(p1, q1, p2, q2) with exp(-i m t) c = e^{-i(mu+s)t} p + e^{-i(mu-s)t} q,
    where d = (m - mu I) c; needs s != 0."""
    half = 0.5 / s
    return (s * c1 + d1) * half, (s * c1 - d1) * half, (s * c2 + d2) * half, (s * c2 - d2) * half


def concurrence_values(c1, c2, out=(None, None)):
    """Concurrence 2 |c_eg| |c_ge| of amplitude arrays, elementwise, worked
    out in the float arrays out = (result, scratch) when they are given.

    Every concurrence the package reports comes from this expression on
    arrays, a point as one-element arrays: numpy's scalar abs rounds
    differently from its array loop.
    """
    r1 = np.abs(c1, out=out[0])
    return np.multiply(np.multiply(2.0, r1, out=r1), np.abs(c2, out=out[1]), out=r1)


def concurrence(c: AmplitudePair) -> float:
    """Entanglement of the pure single-excitation state: 2 |c_eg| |c_ge|."""
    return float(concurrence_values(np.array([c.c_eg]), np.array([c.c_ge]))[0])


def _cos_sinc(z):
    """(cos z, sin z / z) of a complex array, elementwise: the one place
    the propagator's cos/sinc form is written. Below _SINC_SERIES_MAX_Z in
    |z| the quotient is 1 - z^2 / 6, exact there to rounding."""
    tiny = np.abs(z) < _SINC_SERIES_MAX_Z
    zsafe = np.where(tiny, 1.0, z)
    return np.cos(z), np.where(tiny, 1.0 - z * z / 6.0, np.sin(zsafe) / zsafe)


def _evolve(m11, m12, m21, m22, c1, c2, t):
    """Apply exp(-i m t) to (c1, c2).

    Matrix entries and starts are scalars or 1-d arrays, one element per
    row; the times broadcast against them: a 1-d array along one row, or
    times[:, None] for a times x rows grid.

    Writes exp(-i m t) = e^{-i mu t} [cos(z) I - i t sinc(z) (m - mu I)] with
    mu the mean eigenvalue, s^2 the squared half-splitting and z = s t; for
    |z| beyond _SINC_FORM_MAX_Z it switches to the explicit two-eigenvalue
    form whose exponentials are bounded for a decaying spectrum.

    mu, s and d = (m - mu I) c depend on the matrix and start only, so they
    are computed before broadcasting against t: once per row, not once per
    cell. The inputs are made at least 1-d, and so is the result: numpy
    turns results of 0-d operands into scalars, whose complex products round
    differently from its array loops, and the constants must equal those
    computed per cell.

    Each complex product over cells is an explicit np.multiply(a, b). For
    the operator form a * b, numpy computes b *= a in place once b is a
    temporary of 256 KiB or more, and its complex loops round b * a
    differently from a * b: a cell's last bit would depend on how many
    cells share the call. None writes into an operand (out=), as numpy
    rounds such a product of one-element arrays differently too.
    """
    m11, m12, m21, m22, c1, c2 = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (m11, m12, m21, m22, c1, c2))
    mu, dd, s = eigen_split(m11, m12, m21, m22)
    d1 = dd * c1 + m12 * c2  # (m - mu I) @ c
    d2 = m21 * c1 - dd * c2
    mu, s, c1, c2, d1, d2, t = np.broadcast_arrays(mu, s, c1, c2, d1, d2, np.asarray(t, dtype=complex))
    z = s * t

    out1 = np.empty(z.shape, dtype=complex)
    out2 = np.empty(z.shape, dtype=complex)

    small = np.abs(z) <= _SINC_FORM_MAX_Z
    if small.any():
        cz, sinc = _cos_sinc(z[small])
        ts = t[small]
        its = np.multiply(np.multiply(1j, ts), sinc)
        phase = np.exp(np.multiply(np.multiply(-1j, mu[small]), ts))
        out1[small] = np.multiply(phase, np.multiply(cz, c1[small]) - np.multiply(its, d1[small]))
        out2[small] = np.multiply(phase, np.multiply(cz, c2[small]) - np.multiply(its, d2[small]))

    big = ~small
    if big.any():
        sb = s[big]
        tb = t[big]
        e_plus = np.exp(np.multiply(np.multiply(-1j, mu[big] + sb), tb))
        e_minus = np.exp(np.multiply(np.multiply(-1j, mu[big] - sb), tb))
        p1, q1, p2, q2 = spectral_weights(sb, c1[big], c2[big], d1[big], d2[big])
        out1[big] = np.multiply(e_plus, p1) + np.multiply(e_minus, q1)
        out2[big] = np.multiply(e_plus, p2) + np.multiply(e_minus, q2)

    return out1, out2


def _times(name, t):
    """t as a 1-d float array of times: raises ValueError, naming the first
    value that breaks the rule, unless they are non-empty, finite, >= 0 and
    strictly increasing."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"{name} must be a time or a non-empty 1-d grid of finite times, got shape {times.shape}")
    ok = (times >= 0) & (times < math.inf)  # NaN fails both
    ok[1:] &= times[1:] > times[:-1]
    if not ok.all():
        i = int(np.argmin(ok))
        if times.size == 1:
            raise ValueError(f"{name} must be finite and >= 0, got {times[0]}")
        raise ValueError(f"{name} must be finite, >= 0 and strictly increasing, got {times[i]} at index {i}")
    return times


def _amplitude_curves(h: EffectiveHamiltonian, c0, times):
    """Closed-form amplitudes over a float array of times for one Hamiltonian of any scale."""
    m, k = _unit_scaled(h.matrix)
    return _evolve(m[0, 0], m[0, 1], m[1, 0], m[1, 1], c0.c_eg, c0.c_ge, np.ldexp(times, k))


def propagate_closed(h: EffectiveHamiltonian, c0: InitialState | AmplitudePair, t: float) -> AmplitudePair:
    """Exact amplitudes at a finite time t >= 0."""
    c1, c2 = _amplitude_curves(h, c0, _times("t", float(t)))
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


def propagate_numeric_batch(matrices, amps0, t_checkpoints, dt):
    """Fixed-step RK4 integration of a stack of systems, recording amplitudes
    at checkpoints; a last partial step lands on each checkpoint.

    matrices: (N, 2, 2) finite, amps0: (N, 2), t_checkpoints: a time or grid
    under the _times rule, dt: finite, > 0 and no longer than a last
    checkpoint above 0.  Returns (N, K, 2).  Deliberately independent of
    propagate_closed (_times only checks inputs), so the two act as mutual
    oracles.
    """
    matrices = np.asarray(matrices, dtype=complex)
    times = _times("t_checkpoints", t_checkpoints)
    if not np.all(np.isfinite(matrices)):
        raise ValueError("matrices must be finite")
    if not 0 < dt < math.inf or dt > times[-1] > 0:
        raise ValueError(f"dt must be finite, > 0 and at most the last checkpoint {times[-1]}, got {dt}")
    c = np.array(amps0, dtype=complex)
    out = np.empty((c.shape[0], times.size, 2), dtype=complex)
    t_prev = 0.0
    for k, t in enumerate(times):
        c = _integrate_interval(matrices, c, t - t_prev, dt)
        out[:, k, :] = c
        t_prev = t
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Amplitudes and concurrence on a time grid."""

    times: np.ndarray        # (N,)
    amplitudes: np.ndarray   # (N, 2) complex
    concurrence: np.ndarray  # (N,)


def trajectory(h: EffectiveHamiltonian, c0: InitialState, t_grid) -> Trajectory:
    """Concurrence trajectory on a finite, strictly increasing, non-negative grid.

    Every point is evaluated independently with the exact propagator, so the
    result carries no step-to-step accumulation and is order-independent.
    """
    times = _times("t_grid", t_grid)
    c1, c2 = _amplitude_curves(h, c0, times)
    return Trajectory(times, np.stack([c1, c2], axis=-1), concurrence_values(c1, c2))


class ModeClass(Enum):
    DECAYS_TO_ZERO = "decays_to_zero"
    STEADY_PLATEAU = "steady_plateau"
    PERSISTENT_OSCILLATION = "persistent_oscillation"


@dataclass(frozen=True)
class ModeReport:
    """Decay spectrum class and long-time concurrence prediction of dark_modes."""

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
    m, exp = _unit_scaled(h.matrix)
    mu, _, s = eigen_split(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    lam1, lam2 = mu + s, mu - s
    eigenvalues = tuple(complex(math.ldexp(lam.real, exp), math.ldexp(lam.imag, exp)) for lam in (lam1, lam2))
    scale = float(np.max(np.abs(m)))
    thr = _DARK_TOL * scale if scale > 0 else _DARK_TOL
    real_flags = [abs(lam.imag) < thr for lam in (lam1, lam2)]
    n_real = sum(real_flags)

    if n_real == 2:
        return ModeReport(eigenvalues, ModeClass.PERSISTENT_OSCILLATION, None)
    if n_real == 0:
        return ModeReport(eigenvalues, ModeClass.DECAYS_TO_ZERO, 0.0)

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
        return ModeReport(eigenvalues, ModeClass.STEADY_PLATEAU, 0.0)
    p = r * ((w @ c0_vec) / denom)
    overlap = float(abs(w @ c0_vec) / (np.linalg.norm(w) * np.linalg.norm(c0_vec)))
    c_ss = concurrence_values(p[:1], p[1:])[0]
    return ModeReport(
        eigenvalues,
        ModeClass.STEADY_PLATEAU,
        float(c_ss),
        overlap,
        AmplitudePair(complex(p[0]), complex(p[1])),
    )
