"""Shared fixtures: independent brute-force oracles, the trajectory plateau
detector, sampling helpers and the one default calibration run.

The oracle implementations here deliberately avoid the package's vectorized
code paths (plain python loops, cmath) so they can serve as cross-checks.
"""
import cmath
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from giantatoms import Trajectory, all_orderings, calibrate_presets, layout_from_pattern


def brute_force_coefficients(pos_a, pos_b, phi, gamma_r, gamma_l):
    """Term-by-term evaluation of the direction-resolved coefficient sums."""
    def within(pos):
        delta = 0.0
        decay = 0.0
        for xn in pos:
            for xm in pos:
                w = math.sqrt(gamma_r * gamma_r) + math.sqrt(gamma_l * gamma_l)
                delta += w / 2.0 * math.sin(phi * abs(xn - xm))
                decay += w * math.cos(phi * abs(xn - xm))
        return delta, decay

    gamma_coll = 0.0 + 0.0j
    g = 0.0 + 0.0j
    for xa in pos_a:
        for xb in pos_b:
            if xa < xb:
                eps = 1
            elif xa > xb:
                eps = -1
            else:
                eps = 0
            ph = phi * abs(xa - xb)
            forward = cmath.exp(1j * eps * ph)
            backward = cmath.exp(-1j * eps * ph)
            gamma_coll += gamma_r * forward + gamma_l * backward
            g += (eps / 2j) * (gamma_r * forward - gamma_l * backward)
    da, ga = within(pos_a)
    db, gb = within(pos_b)
    return da, db, ga, gb, gamma_coll, g


def brute_force_nonchiral(pos_a, pos_b, phi, gamma):
    def within(pos):
        delta = 0.0
        decay = 0.0
        for xn in pos:
            for xm in pos:
                delta += gamma / 2.0 * math.sin(phi * abs(xn - xm))
                decay += gamma * math.cos(phi * abs(xn - xm))
        return delta, decay

    gamma_coll = 0.0
    g = 0.0
    for xa in pos_a:
        for xb in pos_b:
            gamma_coll += gamma * math.cos(phi * abs(xa - xb))
            g += gamma / 2.0 * math.sin(phi * abs(xa - xb))
    da, ga = within(pos_a)
    db, gb = within(pos_b)
    return da, db, ga, gb, gamma_coll, g


@dataclass(frozen=True)
class SteadyStateReport:
    """Whether and where a trajectory settles on a plateau."""

    is_steady: bool
    c_ss: float
    settle_time: float


# detect_steady: the plateau's length in time and the tolerance both of its
# variation and of its floor
_STEADY_WINDOW = 10.0
_STEADY_TOL = 1e-3


def detect_steady(traj: Trajectory) -> SteadyStateReport:
    """Detect a concurrence plateau: a time T from which the concurrence
    varies by less than _STEADY_TOL over [T, T + _STEADY_WINDOW] while
    staying above _STEADY_TOL.

    Requiring the whole window (not just its first sample) to sit above the
    tolerance keeps slow decays that merely drift through the threshold from
    registering as plateaus.  The trajectory must extend at least one window
    beyond its start.  Only the trajectory's times and concurrence are read;
    dark_modes(h, c0) gives the decay-mode analysis of the matrix and start
    behind it.
    """
    t = traj.times
    c = traj.concurrence
    if t[-1] - t[0] < _STEADY_WINDOW:
        raise ValueError(f"trajectory horizon {t[-1]} too short for window {_STEADY_WINDOW}")
    limit = t[-1] - _STEADY_WINDOW
    ends = np.searchsorted(t, t + _STEADY_WINDOW, side="right")
    for i in range(t.size):
        if t[i] > limit:
            break
        seg = c[i : max(ends[i], i + 2)]
        if float(seg.min()) > _STEADY_TOL and float(seg.max() - seg.min()) < _STEADY_TOL:
            return SteadyStateReport(True, float(seg.mean()), float(t[i]))
    return SteadyStateReport(False, 0.0, math.nan)


@pytest.fixture(scope="session")
def calibration():
    """calibrate_presets() and its wall time in seconds: one
    run for the acceptance suite and the calibration tests."""
    start = time.perf_counter()
    result = calibrate_presets()
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def coefficient_oracle():
    return brute_force_coefficients


@pytest.fixture(scope="session")
def ordering_layouts():
    """All 20 canonical point orderings as layout configurations."""
    return [layout_from_pattern(p) for p in all_orderings()]


def random_initial(rng):
    v = rng.normal(size=4)
    c = v[:2] + 1j * v[2:]
    c = c / np.linalg.norm(c)
    from giantatoms import InitialState

    return InitialState(complex(c[0]), complex(c[1]))


@pytest.fixture(scope="session")
def random_initial_factory():
    return random_initial
