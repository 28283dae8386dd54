"""Shared fixtures: independent brute-force oracles, sampling helpers and
the one default calibration run.

The oracle implementations here deliberately avoid the package's vectorized
code paths (plain python loops, cmath) so they can serve as cross-checks.
"""
import cmath
import math
import time

import numpy as np
import pytest

from giantatoms import all_orderings, calibrate_presets, layout_from_pattern


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


@pytest.fixture(scope="session")
def calibration():
    """calibrate_presets() at its defaults and its wall time in seconds: one
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
