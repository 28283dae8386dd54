"""Correctness checks for benchmark outputs, independent of the shared path.

Coefficients are term-by-term sums of the formulas in the
``giantatoms.coefficients`` module docstring (plain Python and ``cmath``).
The effective matrix is assembled from the layout stated in the
``giantatoms.dynamics`` module docstring. Amplitudes come from the package's
fixed-step RK4 integrator, which shares no code with the closed-form
propagator. None of this calls the package's coefficient, effective-matrix
or closed-form code.

Every ``check_*`` function returns a list of problem strings; an empty list
means the output passed.
"""
from __future__ import annotations

import cmath
import json
import math
from itertools import combinations

import numpy as np

TWO_PI = 2.0 * math.pi

# At this phase advance per step (|m t| / steps) the RK4 amplitudes stay
# within 1e-7 of the exact ones; outputs must match them to RK4_TOL.
RK4_STEP_PHASE = 0.05
RK4_TOL = 1e-6
# Closed-form coefficient sums against the brute-force sums, in units of gamma.
COEF_TOL = 1e-9
# A special phase must zero its defining residual to this, in units of gamma.
SPECIAL_TOL = 1e-7

# Colour anchors of the SVG heatmap at C = 0, 0.5, 1 (README output contract).
SVG_ANCHORS = ((13, 8, 135), (204, 71, 120), (240, 249, 33))

# Calibration: the assignments tier-1 asserts, the seed commit's c_max values
# (nonchiral_eg, nonchiral_ge, chiral_eg, chiral_ge) and the paper's target
# maxima, which the computed values must reproduce within TARGET_TOL.
CALIBRATION_ORDERINGS = {
    "separated": "aaabbb",
    "fully_braided": "ababab",
    "partially_braided": "aababb",
    "fully_nested": "abbbaa",
    "partially_nested": "ababba",
}
CALIBRATION_REFERENCE = {
    "separated": (0.5, 0.5, 0.73575888234288467, 0.0),
    "fully_braided": (0.99999762716177076, 0.99999762716177076,
                      0.99999735159550163, 0.99999787042853727),
    "partially_braided": (0.76642481895310366, 0.76642481895310366,
                          0.8726872016574585, 0.89480420893983759),
    "fully_nested": (0.8847648588803741, 0.9632806556605806, 0.910751507015539, 0.9816945906760945),
    "partially_nested": (0.8293548796859334, 0.7776554068541586, 0.9388124453739146, 0.9317151444630236),
}
CALIBRATION_REFERENCE_TOL = 1e-9
CALIBRATION_TARGETS = {
    "separated": (0.5, 0.5, 0.736, 0.0),
    "fully_braided": (1.0, 1.0, 1.0, 1.0),
    "partially_braided": (0.77, 0.77, 0.865, 0.89),
    "fully_nested": (0.87, 0.96, 0.90, 0.98),
    "partially_nested": (0.83, 0.78, 0.94, 0.93),
}
TARGET_TOL = 0.015
CALIBRATION_LABELS = ("nonchiral_eg", "nonchiral_ge", "chiral_eg", "chiral_ge")


def orderings() -> list[str]:
    """The 20 interleavings of three 'a' and three 'b' points on sites 0..5."""
    return sorted("".join("a" if i in apos else "b" for i in range(6))
                  for apos in combinations(range(6), 3))


def positions(pattern: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (tuple(i for i, ch in enumerate(pattern) if ch == "a"),
            tuple(i for i, ch in enumerate(pattern) if ch == "b"))


def rates(gamma: float, chi: float) -> tuple[float, float]:
    """(gamma_R, gamma_L) from chi = (gamma_R - gamma_L) / (gamma_R + gamma_L)."""
    return gamma * (1.0 + chi) / 2.0, gamma * (1.0 - chi) / 2.0


def brute_coefficients(pos_a, pos_b, phi, gamma_r, gamma_l):
    """(delta_a, delta_b, gamma_a, gamma_b, gamma_coll, g) by direct summation."""
    def within(pos):
        delta = decay = 0.0
        for xn in pos:
            for xm in pos:
                w = math.sqrt(gamma_r * gamma_r) + math.sqrt(gamma_l * gamma_l)
                delta += w / 2.0 * math.sin(phi * abs(xn - xm))
                decay += w * math.cos(phi * abs(xn - xm))
        return delta, decay

    gamma_coll = 0j
    g = 0j
    for xa in pos_a:
        for xb in pos_b:
            eps = (xa < xb) - (xa > xb)
            wr = math.sqrt(gamma_r * gamma_r)
            wl = math.sqrt(gamma_l * gamma_l)
            fwd = cmath.exp(1j * eps * phi * abs(xa - xb))
            bwd = cmath.exp(-1j * eps * phi * abs(xa - xb))
            gamma_coll += wr * fwd + wl * bwd
            g += (eps / 2j) * (wr * fwd - wl * bwd)
    da, ga = within(pos_a)
    db, gb = within(pos_b)
    return da, db, ga, gb, gamma_coll, g


def effective_matrix(coeffs) -> np.ndarray:
    da, db, ga, gb, gc, g = coeffs
    return np.array([[da - 0.5j * ga, g.conjugate() - 0.5j * gc.conjugate()],
                     [g - 0.5j * gc, db - 0.5j * gb]], dtype=complex)


class Cell:
    """One (layout, chi, gamma, phi, t, start) point whose amplitudes an output reports."""

    __slots__ = ("pattern", "chi", "gamma", "phi", "t", "start")

    def __init__(self, pattern, chi, gamma, phi, t, start):
        self.pattern, self.chi, self.gamma = pattern, chi, gamma
        self.phi, self.t, self.start = phi, t, start

    def matrix(self) -> np.ndarray:
        pos_a, pos_b = positions(self.pattern)
        return effective_matrix(brute_coefficients(pos_a, pos_b, self.phi, *rates(self.gamma, self.chi)))


def rk4_amplitudes(cells: list[Cell]) -> np.ndarray:
    """(N, 2) amplitudes at each cell's own time from the package's RK4.

    Each cell integrates dc/dtau = -i (m t) c over tau in [0, 1], so one
    batch serves cells with different times.
    """
    from giantatoms.dynamics import propagate_numeric_batch

    if not cells:
        return np.empty((0, 2), dtype=complex)
    mats = np.stack([c.matrix() * c.t for c in cells])
    starts = np.array([c.start for c in cells], dtype=complex)
    steps = max(100, math.ceil(float(np.abs(mats).max()) / RK4_STEP_PHASE))
    return propagate_numeric_batch(mats, starts, [1.0], 1.0 / steps)[:, 0, :]


def concurrence(amps) -> np.ndarray:
    amps = np.asarray(amps)
    return 2.0 * np.abs(amps[..., 0]) * np.abs(amps[..., 1])


class Pending:
    """Cells collected from several outputs, checked in one RK4 batch.

    ``add`` records a cell of an output with the value the output reported
    for it: a concurrence (float), an amplitude pair (tuple of two complex
    numbers), a maximum the cell may not exceed (``_Bound``) or an SVG fill
    (``_Colour``). ``run`` returns (output id, problem) pairs.
    """

    def __init__(self):
        self.items = []

    def add(self, output_id: str, where: str, cell: Cell, reported) -> None:
        self.items.append((output_id, where, cell, reported))

    def run(self) -> list[tuple[str, str]]:
        amps = rk4_amplitudes([item[2] for item in self.items])
        problems = []
        for (output_id, where, cell, reported), amp in zip(self.items, amps):
            c = float(concurrence(amp))
            if isinstance(reported, tuple):
                ok = max(abs(complex(reported[0]) - amp[0]), abs(complex(reported[1]) - amp[1])) <= RK4_TOL
            elif isinstance(reported, _Bound):
                ok = c <= reported + RK4_TOL
            elif isinstance(reported, _Colour):
                ok = reported in (svg_colour(c - RK4_TOL), svg_colour(c + RK4_TOL))
            else:
                ok = abs(float(reported) - c) <= RK4_TOL
            if not ok:
                problems.append((output_id, f"{output_id} {where}: phi={cell.phi!r} t={cell.t!r} reported "
                                            f"{reported!r}, RK4 oracle gives C={c!r}"))
        return problems


# --- output checks ---------------------------------------------------------


def _floats(line: str) -> list[float]:
    return [float(v) for v in line.split(",")]


def sample_indices(rng, n: int, k: int) -> list[int]:
    """k distinct indices in [0, n), all of them when n <= k."""
    return sorted(range(n)) if n <= k else sorted(rng.sample(range(n), k))


def check_sweep_csv(label, lines: dict[int, str], n_lines: int, spec, pending: Pending) -> list[str]:
    """Sampled rows of a sweep CSV; ``lines`` maps line numbers (header = 0) to text."""
    phis = np.linspace(0.0, TWO_PI, spec["n"])
    ts = np.linspace(0.0, 50.0, spec["n"])
    problems = []
    if n_lines != 1 + phis.size * ts.size:
        problems.append(f"{label}: {n_lines} lines, expected {1 + phis.size * ts.size}")
    if lines.get(0) != "phi,t,concurrence":
        problems.append(f"{label}: bad header {lines.get(0)!r}")
    for k, line in lines.items():
        if k == 0:
            continue
        i, j = divmod(k - 1, ts.size)
        try:
            phi, t, c = _floats(line)
        except ValueError:
            problems.append(f"{label}: line {k} unparsable: {line!r}")
            continue
        if phi != phis[i] or t != ts[j]:
            problems.append(f"{label}: line {k} grid point ({phi!r}, {t!r}) out of order")
            continue
        pending.add(label, f"line {k}", Cell(spec["pattern"], spec["chi"], 1.0, phi, t, spec["start"]), c)
    return problems


def check_coeffs_csv(label, text: str, spec, rng, k=16) -> list[str]:
    rows = text.splitlines()
    if rows[0] != "phi,delta_a,delta_b,gamma_a,gamma_b,gcoll_re,gcoll_im,g_re,g_im":
        return [f"{label}: bad header"]
    phis = np.linspace(0.0, TWO_PI, spec["n"])
    if len(rows) != 1 + phis.size:
        return [f"{label}: {len(rows) - 1} rows, expected {phis.size}"]
    pos_a, pos_b = positions(spec["pattern"])
    gr, gl = rates(1.0, spec["chi"])
    problems = []
    for i in sample_indices(rng, phis.size, k):
        v = _floats(rows[1 + i])
        da, db, ga, gb, gc, g = brute_coefficients(pos_a, pos_b, phis[i], gr, gl)
        want = [phis[i], da, db, ga, gb, gc.real, gc.imag, g.real, g.imag]
        err = max(abs(a - b) for a, b in zip(v, want))
        if not err <= COEF_TOL:
            problems.append(f"{label}: row {i} off the brute-force sums by {err:.3g}")
    return problems


def check_trajectory_csv(label, text: str, spec, pending: Pending, rng, k=12, chis=None) -> list[str]:
    """evolve output, or chirality-scan output when ``chis`` is given."""
    rows = text.splitlines()
    lead = ["chi"] if chis else []
    if rows[0] != ",".join(lead + ["t", "c_eg_re", "c_eg_im", "c_ge_re", "c_ge_im", "concurrence"]):
        return [f"{label}: bad header"]
    ts = np.linspace(0.0, 50.0, spec["n"])
    blocks = chis or [spec["chi"]]
    if len(rows) != 1 + len(blocks) * ts.size:
        return [f"{label}: {len(rows) - 1} rows, expected {len(blocks) * ts.size}"]
    problems = []
    for r in sample_indices(rng, len(blocks) * ts.size, k):
        b, j = divmod(r, ts.size)
        v = _floats(rows[1 + r])
        if chis:
            if v[0] != blocks[b]:
                problems.append(f"{label}: row {r} has chi {v[0]!r}, expected {blocks[b]!r}")
                continue
            v = v[1:]
        t, er, ei, gr_, gi, c = v
        if t != ts[j] or abs(c - 2.0 * math.hypot(er, ei) * math.hypot(gr_, gi)) > 1e-12:
            problems.append(f"{label}: row {r} inconsistent")
            continue
        cell = Cell(spec["pattern"], blocks[b], 1.0, spec["phi"], t, spec["start"])
        pending.add(label, f"row {r}", cell, (complex(er, ei), complex(gr_, gi)))
    return problems


def check_find_max_csv(label, text: str, spec, pending: Pending, rng, k=16) -> list[str]:
    rows = text.splitlines()
    if rows[0] != "c_max,phi_star,t_star,c_eg_re,c_eg_im,c_ge_re,c_ge_im" or len(rows) != 2:
        return [f"{label}: bad layout"]
    c_max, phi, t, er, ei, gr_, gi = _floats(rows[1])
    problems = []
    if not (0.0 <= phi <= TWO_PI and 0.0 <= t <= 50.0):
        problems.append(f"{label}: maximiser ({phi!r}, {t!r}) outside the search box")
    if abs(c_max - 2.0 * math.hypot(er, ei) * math.hypot(gr_, gi)) > 1e-12:
        problems.append(f"{label}: c_max disagrees with its amplitudes")
    pending.add(label, "maximiser", Cell(spec["pattern"], spec["chi"], 1.0, phi, t, spec["start"]),
                (complex(er, ei), complex(gr_, gi)))
    # No sampled point may beat the reported maximum.
    for _ in range(k):
        cell = Cell(spec["pattern"], spec["chi"], 1.0, rng.uniform(0.0, TWO_PI), rng.uniform(0.0, 50.0),
                    spec["start"])
        pending.add(label, "bound", cell, _Bound(c_max))
    return problems


class _Bound(float):
    """A reported maximum: the oracle value at a cell may not exceed it."""


def check_special_csv(label, text: str, spec) -> list[str]:
    rows = text.splitlines()
    if rows[0] != "phi,kind":
        return [f"{label}: bad header"]
    pos_a, pos_b = positions(spec["pattern"])
    gr, gl = rates(1.0, spec["chi"])
    problems = []
    for row in rows[1:]:
        phi_s, kind = row.split(",")
        phi = float(phi_s)
        da, db, ga, gb, gc, g = brute_coefficients(pos_a, pos_b, phi, gr, gl)
        decay = max(abs(ga), abs(gb), abs(gc))
        if kind == "decoupled":
            ok = max(decay, abs(g)) < SPECIAL_TOL
        elif kind == "decoherence_free":
            ok = decay < SPECIAL_TOL and abs(g) > SPECIAL_TOL
        elif kind == "dark_state":
            m = effective_matrix((da, db, ga, gb, gc, g))
            lam = np.linalg.eigvals(m)
            ok = float(np.min(np.abs(lam.imag))) / max(float(np.abs(m).max()), 1e-300) < SPECIAL_TOL
        else:
            ok = False
        if not (0.0 <= phi < TWO_PI and ok):
            problems.append(f"{label}: {kind} at phi={phi!r} fails its defining condition")
    return problems


def check_compare_ndjson(label, text: str, spec, pending: Pending, rng, k=8) -> list[str]:
    n = spec["n_small"]
    lines = text.splitlines()
    if len(lines) != n * n + 1:
        return [f"{label}: {len(lines)} records, expected {n * n + 1}"]
    recs = [json.loads(line) for line in lines]
    summary = recs.pop()
    diffs = [r["abs_diff"] for r in recs]
    problems = []
    if set(summary) != {"max_abs_diff"} or summary["max_abs_diff"] != max(diffs):
        problems.append(f"{label}: summary record does not match the rows")
    if any(r["abs_diff"] != abs(r["c_from_eg"] - r["c_from_ge"]) for r in recs):
        problems.append(f"{label}: abs_diff column inconsistent")
    phis = np.linspace(0.0, TWO_PI, n)
    ts = np.linspace(0.0, 50.0, n)
    for r in sample_indices(rng, len(recs), k):
        rec = recs[r]
        i, j = divmod(r, n)
        if rec["phi"] != phis[i] or rec["t"] != ts[j]:
            problems.append(f"{label}: record {r} out of order")
            continue
        for key, start in (("c_from_eg", (1.0, 0.0)), ("c_from_ge", (0.0, 1.0))):
            cell = Cell(spec["pattern"], spec["chi"], 1.0, rec["phi"], rec["t"], start)
            pending.add(label, f"record {r} {key}", cell, rec[key])
    return problems


def svg_colour(c: float) -> str:
    c = min(max(c, 0.0), 1.0)
    lo, hi, frac = (SVG_ANCHORS[0], SVG_ANCHORS[1], c / 0.5) if c <= 0.5 else \
        (SVG_ANCHORS[1], SVG_ANCHORS[2], (c - 0.5) / 0.5)
    return "rgb(%d,%d,%d)" % tuple(round(a + frac * (b - a)) for a, b in zip(lo, hi))


class _Colour(str):
    """A reported SVG fill: it must be the colour of the oracle value."""


def check_sweep_svg(label, text: str, spec, pending: Pending, rng, k=12) -> list[str]:
    n = spec["n_small"]
    lines = text.splitlines()
    cells = [ln for ln in lines[2:2 + n * n] if ln.startswith("<rect ")]
    if not lines[0].startswith("<svg ") or lines[-1] != "</svg>" or len(cells) != n * n:
        return [f"{label}: expected {n * n} cell rects inside <svg>"]
    phis = np.linspace(0.0, TWO_PI, n)
    ts = np.linspace(0.0, 50.0, n)
    for r in sample_indices(rng, n * n, k):
        i, j = divmod(r, n)
        fill = cells[r].rsplit('fill="', 1)[1].split('"', 1)[0]
        pending.add(label, f"cell {r}", Cell(spec["pattern"], spec["chi"], 1.0, phis[i], ts[j], spec["start"]),
                    _Colour(fill))
    return []


def check_calibration_ndjson(label, text: str) -> list[str]:
    recs = [json.loads(line) for line in text.splitlines()]
    got = {r.get("config"): r for r in recs}
    if set(got) != set(CALIBRATION_ORDERINGS) or len(recs) != len(CALIBRATION_ORDERINGS):
        return [f"{label}: configs {sorted(map(str, got))}"]
    problems = []
    for name, rec in got.items():
        if rec["ordering"] != CALIBRATION_ORDERINGS[name]:
            problems.append(f"{label}: {name} assigned {rec['ordering']}, expected {CALIBRATION_ORDERINGS[name]}")
        values = [rec["values"][lbl] for lbl in CALIBRATION_LABELS]
        ref = CALIBRATION_REFERENCE[name]
        if max(abs(a - b) for a, b in zip(values, ref)) > CALIBRATION_REFERENCE_TOL:
            problems.append(f"{label}: {name} c_max {values} differs from the reference {ref}")
        if max(abs(a - b) for a, b in zip(values, CALIBRATION_TARGETS[name])) > TARGET_TOL:
            problems.append(f"{label}: {name} c_max {values} misses the paper targets")
    return problems
