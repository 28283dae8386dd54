"""Declarative experiment configs, deterministic CSV/NDJSON emission, SVG
heatmaps and the command-line front end.

Column contracts (fixed order, floats printed with 17 significant digits):

    trajectory   t,c_eg_re,c_eg_im,c_ge_re,c_ge_im,concurrence
    sweep        phi,t,concurrence            (phi outer, t inner)
    coeffs       phi,delta_a,delta_b,gamma_a,gamma_b,gcoll_re,gcoll_im,g_re,g_im
    find-max     c_max,phi_star,t_star,c_eg_re,c_eg_im,c_ge_re,c_ge_im
    special      phi,kind
    chi-scan     chi,t,c_eg_re,c_eg_im,c_ge_re,c_ge_im,concurrence
    compare      phi,t,c_from_eg,c_from_ge,abs_diff
    calibrate    config,ordering,score,unresolved,matches_default,target,computed,residual

Exit codes: 0 success (every emitted number finite), 1 validation/usage
error or numerical overflow, 2 I/O error, 3 unphysical decay matrix.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, coefficients
from .dynamics import PhysicalityError, Trajectory, build_heff, trajectory
from .experiments import (
    CalibrationResult,
    ChiralityScanResult,
    InitialStateComparison,
    MaxResult,
    SpecialPhase,
    SweepGrid,
    TWO_PI,
    calibrate_presets,
    chirality_scan,
    compare_initial_states,
    find_max,
    find_special_phases,
    sweep,
)
from .model import (
    ChiralitySpec,
    InitialState,
    INITIAL_EG,
    INITIAL_GE,
    LayoutError,
    Preset,
    make_layout,
    make_preset,
    rates_from_chirality,
    validate_layout,
)


class ConfigError(ValueError):
    pass


class ConfigSyntaxError(ConfigError):
    pass


class ConfigValidationError(ConfigError):
    def __init__(self, field: str, message: str):
        super().__init__(f"invalid field '{field}': {message}")
        self.field = field


def _fmt(x: float) -> str:
    """17-significant-digit rendering; losslessly round-trips doubles."""
    return "%.17g" % x


def _json_number(x: float) -> str:
    s = _fmt(x)
    if all(ch not in s for ch in ".eE") and s.lstrip("-").isdigit():
        s += ".0"
    return s


def _emit_json(value) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _json_number(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit_json(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_emit_json(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


# --- experiment specification ----------------------------------------------


@dataclass(frozen=True)
class GridRange:
    start: float
    stop: float
    count: int

    def linspace(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


_DEFAULT_PHI = GridRange(0.0, TWO_PI, 2001)
_DEFAULT_TIME = GridRange(0.0, 50.0, 2001)


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of a run; mirrors the JSON config schema."""

    preset: Preset | None = None
    positions: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    gamma: float = 1.0
    chi: float = 0.0
    phi: float | GridRange = _DEFAULT_PHI
    time: GridRange = _DEFAULT_TIME
    initial: str | tuple[float, float, float, float] = "eg"
    window: float = 10.0
    tol: float = 1e-3
    chis: tuple[float, ...] | None = None
    out: str | None = None
    fmt: str = "csv"

    def layout(self):
        if self.preset is not None:
            return make_preset(self.preset)
        if self.positions is None:
            raise ConfigValidationError("layout", "required: give a config layout, --preset or --layout-a/--layout-b")
        return make_layout(*self.positions)

    def chirality(self) -> ChiralitySpec:
        return ChiralitySpec(self.gamma, self.chi)

    def initial_state(self) -> InitialState:
        if self.initial == "eg":
            return INITIAL_EG
        if self.initial == "ge":
            return INITIAL_GE
        re1, im1, re2, im2 = self.initial
        return InitialState(complex(re1, im1), complex(re2, im2))

    def to_document(self) -> dict:
        doc: dict = {}
        if self.preset is not None:
            doc["layout"] = self.preset.value
        else:
            doc["layout"] = {"a": list(self.positions[0]), "b": list(self.positions[1])}
        doc["gamma"] = self.gamma
        doc["chi"] = self.chi
        if isinstance(self.phi, GridRange):
            doc["phi"] = {"start": self.phi.start, "stop": self.phi.stop, "count": self.phi.count}
        else:
            doc["phi"] = self.phi
        doc["time"] = {"start": self.time.start, "stop": self.time.stop, "count": self.time.count}
        doc["initial"] = self.initial if isinstance(self.initial, str) else list(self.initial)
        doc["window"] = self.window
        doc["tol"] = self.tol
        if self.chis is not None:
            doc["chis"] = list(self.chis)
        if self.out is not None:
            doc["out"] = self.out
        doc["format"] = self.fmt
        return doc


def serialize_spec(spec: ExperimentSpec) -> bytes:
    return (_emit_json(spec.to_document()) + "\n").encode()


def _as_float(field: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigValidationError(field, f"expected a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigValidationError(field, "must be finite")
    return v


def _parse_grid(field: str, v, t0_min=None) -> GridRange:
    if not isinstance(v, dict) or set(v) != {"start", "stop", "count"}:
        raise ConfigValidationError(field, "expected {start, stop, count}")
    start = _as_float(field + ".start", v["start"])
    stop = _as_float(field + ".stop", v["stop"])
    if isinstance(v["count"], bool) or not isinstance(v["count"], int) or v["count"] < 1:
        raise ConfigValidationError(field + ".count", "must be a positive integer")
    if stop < start:
        raise ConfigValidationError(field, "stop must be >= start")
    if t0_min is not None and start < t0_min:
        raise ConfigValidationError(field + ".start", f"must be >= {t0_min}")
    return GridRange(start, stop, v["count"])


_KNOWN_FIELDS = {"layout", "gamma", "chi", "phi", "time", "initial", "window", "tol", "chis", "out", "format"}


def _load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigValidationError("document", "top level must be an object")
    return doc


def parse_experiment_config(text: str) -> ExperimentSpec:
    """Parse and validate a JSON experiment document, applying defaults."""
    doc = _load_document(text)
    if "layout" not in doc:
        raise ConfigValidationError("layout", "required")
    return _spec_from_document(doc)


def _spec_from_document(doc: dict) -> ExperimentSpec:
    """Validate the fields of an experiment document; a missing layout is
    reported only when a command asks for it."""
    unknown = set(doc) - _KNOWN_FIELDS
    if unknown:
        raise ConfigValidationError(sorted(unknown)[0], "unknown field")

    preset = None
    positions = None
    layout = doc.get("layout")
    if isinstance(layout, str):
        try:
            preset = Preset(layout)
        except ValueError:
            raise ConfigValidationError("layout", f"unknown preset {layout!r}") from None
        if preset is Preset.CUSTOM:
            raise ConfigValidationError("layout", "custom layouts must give explicit positions")
    elif isinstance(layout, dict) and set(layout) == {"a", "b"}:
        for key in ("a", "b"):
            pts = layout[key]
            if not isinstance(pts, list) or not all(isinstance(p, int) and not isinstance(p, bool) for p in pts):
                raise ConfigValidationError(f"layout.{key}", "expected a list of integers")
        positions = (tuple(sorted(layout["a"])), tuple(sorted(layout["b"])))
        problems = validate_layout(make_layout(*positions))
        if problems:
            raise ConfigValidationError("layout", "; ".join(problems))
    elif "layout" in doc:
        raise ConfigValidationError("layout", "expected a preset name or {a: [...], b: [...]}")

    gamma = _as_float("gamma", doc.get("gamma", 1.0))
    if gamma <= 0:
        raise ConfigValidationError("gamma", "must be positive")
    chi = _as_float("chi", doc.get("chi", 0.0))
    if not 0.0 <= chi <= 1.0:
        raise ConfigValidationError("chi", "must lie in [0, 1]")

    phi_doc = doc.get("phi")
    if phi_doc is None:
        phi: float | GridRange = _DEFAULT_PHI
    elif isinstance(phi_doc, dict):
        phi = _parse_grid("phi", phi_doc)
    else:
        phi = _as_float("phi", phi_doc)

    time_doc = doc.get("time")
    time = _DEFAULT_TIME if time_doc is None else _parse_grid("time", time_doc, t0_min=0.0)

    initial_doc = doc.get("initial", "eg")
    if isinstance(initial_doc, str):
        if initial_doc not in ("eg", "ge"):
            raise ConfigValidationError("initial", "expected 'eg', 'ge' or [re, im, re, im]")
        initial: str | tuple = initial_doc
    elif isinstance(initial_doc, list) and len(initial_doc) == 4:
        vals = tuple(_as_float("initial", v) for v in initial_doc)
        try:
            InitialState(complex(vals[0], vals[1]), complex(vals[2], vals[3]))
        except ValueError as exc:
            raise ConfigValidationError("initial", str(exc)) from None
        initial = vals
    else:
        raise ConfigValidationError("initial", "expected 'eg', 'ge' or [re, im, re, im]")

    window = _as_float("window", doc.get("window", 10.0))
    if window <= 0:
        raise ConfigValidationError("window", "must be positive")
    tol = _as_float("tol", doc.get("tol", 1e-3))
    if tol <= 0:
        raise ConfigValidationError("tol", "must be positive")

    chis = None
    if "chis" in doc:
        if not isinstance(doc["chis"], list) or not doc["chis"]:
            raise ConfigValidationError("chis", "expected a non-empty list of numbers")
        chis = tuple(_as_float("chis", v) for v in doc["chis"])
        if any(not 0.0 <= v <= 1.0 for v in chis):
            raise ConfigValidationError("chis", "every value must lie in [0, 1]")

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigValidationError("out", "expected a path string")
    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "ndjson", "svg"):
        raise ConfigValidationError("format", "expected csv, ndjson or svg")

    return ExperimentSpec(preset, positions, gamma, chi, phi, time, initial, window, tol, chis, out, fmt)


# --- result serialization ---------------------------------------------------


def _table_bytes(header: list[str], rows, fmt: str, extra_ndjson=None) -> bytes:
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "ndjson":
        lines = [_emit_json(dict(zip(header, row))) for row in rows]
        if extra_ndjson is not None:
            lines.append(_emit_json(extra_ndjson))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unsupported format {fmt!r}")


def _trajectory_rows(traj: Trajectory, lead: tuple = ()):
    for t, (ceg, cge), conc in zip(traj.times, traj.amplitudes, traj.concurrence):
        yield lead + (float(t), float(ceg.real), float(ceg.imag), float(cge.real), float(cge.imag), float(conc))


def _coeff_row(phi: float, c: CoefficientSet):
    return (
        phi, c.delta_omega_a, c.delta_omega_b, c.gamma_a, c.gamma_b,
        float(c.gamma_coll.real), float(c.gamma_coll.imag), float(c.g.real), float(c.g.imag),
    )


_COEFF_HEADER = ["phi", "delta_a", "delta_b", "gamma_a", "gamma_b", "gcoll_re", "gcoll_im", "g_re", "g_im"]
_TRAJ_HEADER = ["t", "c_eg_re", "c_eg_im", "c_ge_re", "c_ge_im", "concurrence"]


def serialize_results(result, fmt: str = "csv") -> bytes:
    """Render a result object to CSV or NDJSON bytes (deterministic)."""
    if isinstance(result, SweepGrid):
        rows = (
            (float(p), float(t), float(result.c_matrix[i, j]))
            for i, p in enumerate(result.phi_values)
            for j, t in enumerate(result.t_values)
        )
        return _table_bytes(["phi", "t", "concurrence"], rows, fmt)

    if isinstance(result, Trajectory):
        return _table_bytes(_TRAJ_HEADER, _trajectory_rows(result), fmt)

    if isinstance(result, CoefficientSet):
        return _table_bytes(_COEFF_HEADER, [_coeff_row(math.nan, result)], fmt)

    if isinstance(result, MaxResult):
        a = result.amplitudes_at_max
        row = (
            result.c_max, result.phi_star, result.t_star,
            float(a.c_eg.real), float(a.c_eg.imag), float(a.c_ge.real), float(a.c_ge.imag),
        )
        return _table_bytes(
            ["c_max", "phi_star", "t_star", "c_eg_re", "c_eg_im", "c_ge_re", "c_ge_im"], [row], fmt
        )

    if isinstance(result, ChiralityScanResult):
        rows = (
            row
            for chi, traj in zip(result.chis, result.trajectories)
            for row in _trajectory_rows(traj, lead=(float(chi),))
        )
        return _table_bytes(["chi"] + _TRAJ_HEADER, rows, fmt)

    if isinstance(result, InitialStateComparison):
        eg, ge = result.grid_eg, result.grid_ge
        rows = (
            (float(p), float(t), float(eg.c_matrix[i, j]), float(ge.c_matrix[i, j]),
             float(abs(eg.c_matrix[i, j] - ge.c_matrix[i, j])))
            for i, p in enumerate(eg.phi_values)
            for j, t in enumerate(eg.t_values)
        )
        return _table_bytes(
            ["phi", "t", "c_from_eg", "c_from_ge", "abs_diff"], rows, fmt,
            extra_ndjson={"max_abs_diff": result.max_abs_diff},
        )

    if isinstance(result, CalibrationResult):
        if fmt == "ndjson":
            lines = []
            for name, cal in result.assignments.items():
                lines.append(_emit_json({
                    "config": name,
                    "ordering": cal.pattern,
                    "score": cal.score,
                    "unresolved": cal.unresolved,
                    "matches_default": cal.matches_default,
                    "values": cal.values,
                    "residuals": cal.residuals,
                }))
            return ("\n".join(lines) + "\n").encode()
        rows = []
        for name, cal in result.assignments.items():
            for label, value in cal.values.items():
                rows.append((name, cal.pattern, cal.score, str(cal.unresolved).lower(),
                             str(cal.matches_default).lower(), label, value, cal.residuals[label]))
        return _table_bytes(
            ["config", "ordering", "score", "unresolved", "matches_default", "target", "computed", "residual"],
            rows, fmt,
        )

    if isinstance(result, (list, tuple)):
        if all(isinstance(x, SpecialPhase) for x in result):
            rows = ((float(sp.phi), sp.kind.value) for sp in result)
            return _table_bytes(["phi", "kind"], rows, fmt)
        if all(isinstance(x, tuple) and len(x) == 2 and isinstance(x[1], CoefficientSet) for x in result):
            rows = (_coeff_row(float(p), c) for p, c in result)
            return _table_bytes(_COEFF_HEADER, rows, fmt)

    raise TypeError(f"cannot serialize result of type {type(result).__name__}")


# --- SVG heatmap -------------------------------------------------------------

_COLOR_ANCHORS = ((13, 8, 135), (204, 71, 120), (240, 249, 33))  # C = 0, 0.5, 1


@dataclass(frozen=True)
class SvgOptions:
    width: int = 720
    height: int = 560
    margin_left: int = 70
    margin_right: int = 20
    margin_top: int = 20
    margin_bottom: int = 55
    anchors: tuple = _COLOR_ANCHORS


def _cell_color(c: float, anchors) -> str:
    c = min(max(c, 0.0), 1.0)
    if c <= 0.5:
        lo, hi, frac = anchors[0], anchors[1], c / 0.5
    else:
        lo, hi, frac = anchors[1], anchors[2], (c - 0.5) / 0.5
    rgb = tuple(round(l + frac * (h - l)) for l, h in zip(lo, hi))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_svg_heatmap(grid: SweepGrid, options: SvgOptions = SvgOptions()) -> bytes:
    """Static heatmap of a sweep: gamma*t on x, phi/pi on y, one rect per cell."""
    n_phi, n_t = grid.c_matrix.shape
    if n_phi == 0 or n_t == 0:
        raise ValueError("cannot render an empty sweep grid")
    o = options
    plot_w = o.width - o.margin_left - o.margin_right
    plot_h = o.height - o.margin_top - o.margin_bottom
    cell_w = plot_w / n_t
    cell_h = plot_h / n_phi

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{o.width}" height="{o.height}" '
        f'viewBox="0 0 {o.width} {o.height}">',
        f'<rect x="0" y="0" width="{o.width}" height="{o.height}" fill="white"/>',
    ]
    for i in range(n_phi):
        y = o.margin_top + (n_phi - 1 - i) * cell_h
        for j in range(n_t):
            x = o.margin_left + j * cell_w
            color = _cell_color(float(grid.c_matrix[i, j]), o.anchors)
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{color}"/>'
            )

    x0, x1 = o.margin_left, o.margin_left + plot_w
    y0, y1 = o.margin_top + plot_h, o.margin_top
    parts.append(f'<rect x="{x0}" y="{y1}" width="{plot_w}" height="{plot_h}" fill="none" stroke="black"/>')
    t_lo, t_hi = float(grid.t_values[0]), float(grid.t_values[-1])
    p_lo, p_hi = float(grid.phi_values[0]) / math.pi, float(grid.phi_values[-1]) / math.pi
    label = '<text x="{x:.2f}" y="{y:.2f}" font-size="13" text-anchor="{anchor}">{s}</text>'
    parts.append(label.format(x=x0, y=y0 + 18, anchor="middle", s=f"{t_lo:.6g}"))
    parts.append(label.format(x=x1, y=y0 + 18, anchor="middle", s=f"{t_hi:.6g}"))
    parts.append(label.format(x=x0 - 8, y=y0, anchor="end", s=f"{p_lo:.6g}"))
    parts.append(label.format(x=x0 - 8, y=y1 + 10, anchor="end", s=f"{p_hi:.6g}"))
    parts.append(label.format(x=(x0 + x1) / 2, y=o.height - 12, anchor="middle", s="&#947;t"))
    parts.append(label.format(x=18, y=(y0 + y1) / 2, anchor="middle", s="&#966;/&#960;"))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


# --- command line ------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _flag_number(field: str, text: str, convert=float):
    try:
        return convert(text)
    except ValueError:
        raise ConfigValidationError(field, f"not a number: {text!r}") from None


def _flag_numbers(field: str, text: str, convert=float) -> list:
    return [_flag_number(field, v, convert) for v in text.split(",")]


def _flag_grid(field: str, text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigValidationError(field, "expected start:stop:count")
    return {"start": _flag_number(field, parts[0]), "stop": _flag_number(field, parts[1]),
            "count": _flag_number(field, parts[2], int)}


def _flag_document(args) -> dict:
    """The flags given on the command line, as experiment-document fields."""
    doc: dict = {}
    if args.preset is not None:
        doc["layout"] = args.preset
    if args.layout_a is not None or args.layout_b is not None:
        if args.layout_a is None or args.layout_b is None:
            raise ConfigValidationError("layout", "--layout-a and --layout-b must be given together")
        doc["layout"] = {"a": _flag_numbers("layout.a", args.layout_a, int),
                         "b": _flag_numbers("layout.b", args.layout_b, int)}
    for field in ("gamma", "chi", "window", "tol", "out"):
        if getattr(args, field) is not None:
            doc[field] = getattr(args, field)
    if args.fmt is not None:
        doc["format"] = args.fmt
    if args.phi is not None:
        doc["phi"] = _flag_grid("phi", args.phi) if ":" in args.phi else _flag_number("phi", args.phi)
    if args.t is not None:
        doc["time"] = _flag_grid("time", args.t)
    if args.initial is not None:
        doc["initial"] = args.initial if args.initial in ("eg", "ge") else _flag_numbers("initial", args.initial)
    if args.chis is not None:
        doc["chis"] = _flag_numbers("chis", args.chis)
    return doc


def _build_parser() -> _Parser:
    parser = _Parser(prog="giantatoms", description=__doc__, add_help=True,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")
    commands = ("coeffs", "evolve", "sweep", "find-max", "special-phases",
                "chirality-scan", "compare-initial", "calibrate")
    for name in commands:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", help="path to a JSON experiment document")
        p.add_argument("--preset", help="named layout preset")
        p.add_argument("--layout-a", help="comma-separated positions of atom a")
        p.add_argument("--layout-b", help="comma-separated positions of atom b")
        p.add_argument("--phi", help="phase shift: <real> or start:stop:count")
        p.add_argument("--gamma", type=float, help="total emission rate (default 1)")
        p.add_argument("--chi", type=float, help="chirality in [0, 1] (default 0)")
        p.add_argument("--t", help="time grid start:stop:count")
        p.add_argument("--initial", help="eg | ge | re,im,re,im")
        p.add_argument("--window", type=float, help="steady-state window (1/gamma)")
        p.add_argument("--tol", type=float, help="steady-state tolerance")
        p.add_argument("--chis", help="comma-separated chirality list (chirality-scan)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "ndjson", "svg"), help="output format")
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    """The --config document with the flags laid over it, validated as one
    document, so that a flag accepts exactly what its config field does."""
    doc: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = _load_document(fh.read())
    doc.update(_flag_document(args))
    return _spec_from_document(doc)


def _scalar_phi(spec: ExperimentSpec) -> float:
    if isinstance(spec.phi, GridRange):
        raise ConfigValidationError("phi", "this command needs a single phi value")
    return spec.phi


def _phi_grid(spec: ExperimentSpec) -> np.ndarray:
    if isinstance(spec.phi, GridRange):
        return spec.phi.linspace()
    return np.asarray([spec.phi])


def _run_command(command: str, spec: ExperimentSpec):
    if command == "calibrate":
        return calibrate_presets(gamma_total=spec.gamma, t_horizon=spec.time.stop)
    cfg = spec.layout()
    chirality = spec.chirality()
    gamma_r, gamma_l = rates_from_chirality(chirality)

    if command == "coeffs":
        return [(float(p), coefficients(cfg, float(p), gamma_r, gamma_l)) for p in _phi_grid(spec)]
    if command == "evolve":
        h = build_heff(coefficients(cfg, _scalar_phi(spec), gamma_r, gamma_l))
        return trajectory(h, spec.initial_state(), spec.time.linspace())
    if command == "sweep":
        return sweep(cfg, chirality, spec.initial_state(), _phi_grid(spec), spec.time.linspace())
    if command == "find-max":
        phi = spec.phi
        phi_range = (phi.start, phi.stop) if isinstance(phi, GridRange) else (phi, phi)
        phi_points = phi.count if isinstance(phi, GridRange) else 1
        return find_max(cfg, chirality, spec.initial_state(), phi_range,
                        t_horizon=spec.time.stop, phi_points=phi_points)
    if command == "special-phases":
        return find_special_phases(cfg, chirality, spec.initial_state())
    if command == "chirality-scan":
        chis = spec.chis if spec.chis is not None else (0.0, 0.25, 0.5, 0.75, 1.0)
        return chirality_scan(cfg, _scalar_phi(spec), chis, spec.initial_state(),
                              spec.time.linspace(), gamma_total=spec.gamma)
    if command == "compare-initial":
        return compare_initial_states(cfg, chirality, _phi_grid(spec), spec.time.linspace())
    raise _UsageError(f"unknown command {command!r}")


def _require_finite(result) -> None:
    """Raise ValueError unless every number the result carries is finite, so
    that a run which exits 0 emits only finite values."""
    arrays: list = []
    scalars: list = []

    def collect(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (float, complex, np.floating, np.complexfloating)):
            scalars.append(value)
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                collect(getattr(value, f.name))
        elif isinstance(value, (list, tuple, dict)):
            for item in (value.values() if isinstance(value, dict) else value):
                collect(item)

    collect(result)
    arrays.append(np.asarray(scalars, dtype=complex))
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("numerical overflow: the result holds non-finite values")


def _write_output(data: bytes, out: str | None):
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        spec = _spec_from_args(args)
        result = _run_command(args.command, spec)
        _require_finite(result)
        if spec.fmt == "svg":
            if not isinstance(result, SweepGrid):
                raise ConfigValidationError("format", "svg output is only available for sweep grids")
            data = render_svg_heatmap(result)
        else:
            data = serialize_results(result, spec.fmt)
        _write_output(data, spec.out)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except PhysicalityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, LayoutError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
