"""Declarative experiment configs, deterministic CSV/NDJSON emission, SVG
heatmaps and the command-line front end.

Every result type has one column table: ordered header names and one column
per name. The CSV writer, the NDJSON writer and the command line's
finite-output check all read it, so the columns a result emits are defined
once. Column contracts (fixed order, floats printed with 17 significant
digits; NDJSON writes integral floats with a trailing ".0"):

    trajectory   t,c_eg_re,c_eg_im,c_ge_re,c_ge_im,concurrence
    sweep        phi,t,concurrence            (phi outer, t inner)
    coeffs       phi,delta_a,delta_b,gamma_a,gamma_b,gcoll_re,gcoll_im,g_re,g_im
    find-max     c_max,phi_star,t_star,c_eg_re,c_eg_im,c_ge_re,c_ge_im
    special      phi,kind
    chi-scan     chi,t,c_eg_re,c_eg_im,c_ge_re,c_ge_im,concurrence
    compare      phi,t,c_from_eg,c_from_ge,abs_diff
    calibrate    config,ordering,score,unresolved,matches_default,target,computed,residual

NDJSON has one record per row, except that `compare` closes with a
{"max_abs_diff": ...} record and `calibrate` writes one record per
configuration with nested `values`/`residuals` maps in place of the
target, computed and residual columns.

A command line is a command, then flags spelled in full: --name value or
--name=value. A flag's value is the next token, even one starting with "-";
a repeated flag keeps its last value. Each flag is the text of one config
field, laid over the --config document and checked with it, so it accepts
exactly what that field accepts; --layout-a/-b win over --preset. A field
is checked by the model type it builds (layout a LayoutConfiguration, gamma,
chi and chis a ChiralitySpec, initial an InitialState, time.start and the
tau horizon gamma * time.stop the time rule: finite and >= 0), with its
message, and the run keeps what was built; every command checks them all.
A grid start:stop:count needs stop >= start, and stop > start when its
count exceeds 1. Every command but calibrate needs a layout. chis defaults
to 0,0.25,0.5,0.75,1. --help or -h prints this text. gamma is only a time
scale: coeffs prints gamma times the coefficients at unit total rate, and
the studies run at unit rate in tau = gamma t. find-max searches t over
[0, time.stop] (time.start = 0, time.stop > 0) in tau: it scans tau over
[0, gamma * time.stop], which must be positive, on a grid of 4001 times,
and reports t* = tau* / gamma; it ignores time.count. Its result depends on
gamma and time.stop only through their product. That grid resolves a tau
horizon only up to about 50: past it the scan may step over the peak and
report a lower maximum. calibrate searches at the setting of its benchmark
maxima (gamma = 1, t over [0, 50]) on that same grid; it uses only the
output format and path, and checks but ignores every other field.

Exit codes: 0 success (every emitted number finite), 1 validation/usage
error, numerical overflow or a grid too large to allocate, 2 I/O error, 3
unphysical decay matrix.
"""
from __future__ import annotations

import io
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .coefficients import CoefficientSet, _coefficient_arrays
from .dynamics import PhysicalityError, Trajectory, _times
from .experiments import (
    CalibrationResult,
    ChiralityScanResult,
    InitialStateComparison,
    MaxResult,
    SpecialPhase,
    SweepGrid,
    TWO_PI,
    _trajectory_at,
    calibrate_presets,
    chirality_scan,
    compare_initial_states,
    find_max,
    find_special_phases,
    sweep,
)
from .model import (
    ChiralitySpec,
    INITIAL_EG,
    INITIAL_STATES,
    InitialState,
    LayoutConfiguration,
    make_layout,
    make_preset,
    rates_from_chirality,
)


class ConfigError(ValueError):
    pass


class ConfigSyntaxError(ConfigError):
    pass


class ConfigValidationError(ConfigError):
    def __init__(self, field: str, message: str):
        super().__init__(f"invalid field '{field}': {message}")
        self.field = field


_fmt = "%.17g".__mod__  # 17 significant digits: losslessly round-trips doubles


def _json_float(s: str) -> str:
    """A ``_fmt`` rendering as a JSON-style float: integral values gain ".0"."""
    return s + ".0" if s.lstrip("-").isdigit() else s


def _emit_json(value) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _json_float(_fmt(float(value)))
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
    """A grid start:stop:count, as the CLI and config documents write it."""

    start: float
    stop: float
    count: int

    def linspace(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of a run: the model values its config fields
    build, the grids and the output, with the JSON config's defaults."""

    layout: LayoutConfiguration | None = None
    chirality: ChiralitySpec = ChiralitySpec(1.0)
    phi: float | GridRange = GridRange(0.0, TWO_PI, 2001)
    time: GridRange = GridRange(0.0, 50.0, 2001)
    initial: InitialState = INITIAL_EG
    chis: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    out: str | None = None
    fmt: str = "csv"

    def to_document(self) -> dict:
        """The config document of this run: a layout as its positions, a start
        as its four numbers, so the document reproduces the run."""
        doc: dict = {}
        if self.layout is not None:
            doc["layout"] = {"a": list(self.layout.positions_a), "b": list(self.layout.positions_b)}
        doc["gamma"] = self.chirality.gamma_total
        doc["chi"] = self.chirality.chi
        doc["phi"] = asdict(self.phi) if isinstance(self.phi, GridRange) else self.phi
        doc["time"] = asdict(self.time)
        c0 = self.initial
        doc["initial"] = [c0.c_eg.real, c0.c_eg.imag, c0.c_ge.real, c0.c_ge.imag]
        doc["chis"] = list(self.chis)
        if self.out is not None:
            doc["out"] = self.out
        doc["format"] = self.fmt
        return doc


def serialize_spec(spec: ExperimentSpec) -> bytes:
    return (_emit_json(spec.to_document()) + "\n").encode()


def _checked(field: str, build, *args):
    """build(*args), the model type's ValueError reported as the field's."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigValidationError(field, str(exc)) from None


def _as_float(field: str, v) -> float:
    """A document number as a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigValidationError(field, f"expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigValidationError(field, "must be finite")
    return v


def _parse_grid(field: str, v) -> GridRange:
    if not isinstance(v, dict) or set(v) != {"start", "stop", "count"}:
        raise ConfigValidationError(field, "expected {start, stop, count}")
    start = _as_float(field + ".start", v["start"])
    stop = _as_float(field + ".stop", v["stop"])
    if isinstance(v["count"], bool) or not isinstance(v["count"], int) or v["count"] < 1:
        raise ConfigValidationError(field + ".count", "must be a positive integer")
    if v["count"] > np.iinfo(np.intp).max:
        raise ConfigValidationError(field + ".count", f"must be at most {np.iinfo(np.intp).max}")
    if stop < start:
        raise ConfigValidationError(field, "stop must be >= start")
    if v["count"] > 1 and stop == start:
        raise ConfigValidationError(field, "stop must be > start for a count above 1")
    return GridRange(start, stop, v["count"])


def _load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigValidationError("document", "top level must be an object")
    return doc


def parse_experiment_config(text: str) -> ExperimentSpec:
    """Parse and validate a JSON experiment document, applying defaults, as
    --config reads it: a missing layout is reported when a study asks for it."""
    return _spec_from_document(_load_document(text))


def _spec_from_document(doc: dict) -> ExperimentSpec:
    """Validate the fields of an experiment document (a config file, flags or
    both); a missing layout is reported only when a command asks for it."""
    unknown = set(doc) - _KNOWN_FIELDS
    if unknown:
        raise ConfigValidationError(sorted(unknown)[0], "unknown field")
    for name in sorted(doc):
        if doc[name] is None:  # no flag writes null: a field is given or absent
            raise ConfigValidationError(name, "must not be null; leave the field out for its default")

    layout = doc.get("layout")
    if isinstance(layout, str):
        layout = _checked("layout", make_preset, layout)
    elif isinstance(layout, dict) and set(layout) == {"a", "b"}:
        for key in ("a", "b"):
            pts = layout[key]
            if not isinstance(pts, list) or not all(isinstance(p, int) and not isinstance(p, bool) for p in pts):
                raise ConfigValidationError(f"layout.{key}", "expected a list of integers")
        layout = _checked("layout", make_layout, sorted(layout["a"]), sorted(layout["b"]))
    elif "layout" in doc:
        raise ConfigValidationError("layout", "expected a preset name or {a: [...], b: [...]}")

    defaults = ExperimentSpec()
    gamma = _as_float("gamma", doc.get("gamma", defaults.chirality.gamma_total))
    gamma = _checked("gamma", ChiralitySpec, gamma).gamma_total
    chirality = _checked("chi", ChiralitySpec, gamma, _as_float("chi", doc.get("chi", defaults.chirality.chi)))

    phi = doc.get("phi", defaults.phi)
    if isinstance(phi, dict):
        phi = _parse_grid("phi", phi)
    elif "phi" in doc:
        phi = _as_float("phi", phi)

    time = _parse_grid("time", doc["time"]) if "time" in doc else defaults.time
    _checked("time.start", _times, "time.start", time.start)
    _checked("time.stop", _times, "gamma * time.stop", chirality.gamma_total * time.stop)

    initial = doc.get("initial", defaults.initial)
    if isinstance(initial, list) and len(initial) == 4:
        re_eg, im_eg, re_ge, im_ge = (_as_float("initial", v) for v in initial)
        initial = _checked("initial", InitialState, complex(re_eg, im_eg), complex(re_ge, im_ge))
    elif isinstance(initial, str) and initial in INITIAL_STATES:
        initial = INITIAL_STATES[initial]
    elif initial is not defaults.initial:
        raise ConfigValidationError("initial", "expected 'eg', 'ge' or [re, im, re, im]")

    chis = doc.get("chis", list(defaults.chis))
    if not isinstance(chis, list) or not chis:
        raise ConfigValidationError("chis", "expected a non-empty list of numbers")
    chis = tuple(_checked("chis", ChiralitySpec, gamma, _as_float("chis", v)).chi for v in chis)

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigValidationError("out", "expected a path string")
    fmt = doc.get("format", defaults.fmt)
    if fmt not in ("csv", "ndjson", "svg"):
        raise ConfigValidationError("format", "expected csv, ndjson or svg")

    return ExperimentSpec(layout, chirality, phi, time, initial, chis, out, fmt)


# --- result serialization ---------------------------------------------------

_BLOCK_ROWS = 8192  # rows formatted at a time: a writer's working set does not grow with the table
_TRAJ_HEADER = ("t", "c_eg_re", "c_eg_im", "c_ge_re", "c_ge_im", "concurrence")
_COEFF_HEADER = ("phi", "delta_a", "delta_b", "gamma_a", "gamma_b", "gcoll_re", "gcoll_im", "g_re", "g_im")
_CAL_HEADER = ("config", "ordering", "score", "unresolved", "matches_default")
_CAL_TEXT = ("config", "ordering", "unresolved", "matches_default", "target", "values", "residuals")


def _row_table(header, rows, text=()) -> tuple:
    """A table from row tuples: the columns named in `text` keep their
    values, every other column becomes a float array."""
    columns = list(zip(*rows)) or [()] * len(header)
    return header, tuple(list(c) if h in text else np.array(c, dtype=float) for h, c in zip(header, columns)), None


def _trajectory_block(traj: Trajectory) -> np.ndarray:
    """The trajectory's rows as an (N, 6) float array, in _TRAJ_HEADER order."""
    a = traj.amplitudes
    return np.column_stack([traj.times, a[:, 0].real, a[:, 0].imag, a[:, 1].real, a[:, 1].imag, traj.concurrence])


def _grid_axes(grid: SweepGrid) -> tuple:
    """The phi and t columns of a grid table, phi outer."""
    return np.repeat(grid.phi_values, len(grid.t_values)), np.tile(grid.t_values, len(grid.phi_values))


def _table(result, fmt: str = "csv") -> tuple:
    """The column table (header, columns, trailer) of a result: the header
    names in order, one column per name (a float array or a list of
    str/bool/dict values), and a record that closes the NDJSON stream, or
    None.  Its CSV table holds every number that CSV, NDJSON or SVG output
    emits; only calibration has another NDJSON table, one record per
    configuration with nested values/residuals maps."""
    if isinstance(result, SweepGrid):
        return ("phi", "t", "concurrence"), (*_grid_axes(result), result.c_matrix.ravel()), None
    if isinstance(result, Trajectory):
        return _TRAJ_HEADER, tuple(_trajectory_block(result).T), None
    if isinstance(result, MaxResult):
        a = result.amplitudes_at_max
        return _row_table(("c_max", "phi_star", "t_star", "c_eg_re", "c_eg_im", "c_ge_re", "c_ge_im"),
                          [(result.c_max, result.phi_star, result.t_star,
                            a.c_eg.real, a.c_eg.imag, a.c_ge.real, a.c_ge.imag)])
    if isinstance(result, ChiralityScanResult):
        blocks = [np.column_stack([np.full(len(tr.times), chi), _trajectory_block(tr)])
                  for chi, tr in zip(result.chis, result.trajectories)]
        return ("chi",) + _TRAJ_HEADER, tuple(np.vstack([np.empty((0, 7)), *blocks]).T), None
    if isinstance(result, InitialStateComparison):
        eg, ge = result.grid_eg.c_matrix.ravel(), result.grid_ge.c_matrix.ravel()
        return (("phi", "t", "c_from_eg", "c_from_ge", "abs_diff"),
                (*_grid_axes(result.grid_eg), eg, ge, np.abs(eg - ge)), {"max_abs_diff": result.max_abs_diff})
    if isinstance(result, CalibrationResult):
        lead = [((name, c.pattern, c.score, c.unresolved, c.matches_default), c)
                for name, c in result.assignments.items()]
        if fmt == "ndjson":
            return _row_table(_CAL_HEADER + ("values", "residuals"),
                              [row + (c.values, c.residuals) for row, c in lead], _CAL_TEXT)
        return _row_table(_CAL_HEADER + ("target", "computed", "residual"),
                          [row + (label, value, c.residuals[label])
                           for row, c in lead for label, value in c.values.items()], _CAL_TEXT)
    if isinstance(result, (list, tuple)):
        if all(isinstance(x, SpecialPhase) for x in result):
            return _row_table(("phi", "kind"), [(sp.phi, sp.kind.value) for sp in result], ("kind",))
        if all(isinstance(x, tuple) and len(x) == 2 and isinstance(x[1], CoefficientSet) for x in result):
            return _row_table(_COEFF_HEADER, [
                (p, c.delta_omega_a, c.delta_omega_b, c.gamma_a, c.gamma_b,
                 c.gamma_coll.real, c.gamma_coll.imag, c.g.real, c.g.imag) for p, c in result])
    raise TypeError(f"cannot serialize result of type {type(result).__name__}")


def _cells(column, fmt: str) -> list[str]:
    """The rendered values of one column block; CSV leaves strings bare."""
    if isinstance(column, np.ndarray):
        cells = list(map(_fmt, column.tolist()))
        return cells if fmt == "csv" else list(map(_json_float, cells))
    return [v if fmt == "csv" and isinstance(v, str) else _emit_json(v) for v in column]


def serialize_results(result, fmt: str = "csv") -> bytes:
    """Render a result object to CSV or NDJSON bytes (deterministic)."""
    header, columns, trailer = _table(result, fmt)
    if fmt == "csv":
        head, join = ",".join(header) + "\n", ",".join
    elif fmt == "ndjson":
        head = ""
        join = ("{" + ",".join(json.dumps(h) + ":%s" for h in header) + "}").__mod__
    else:
        raise ValueError(f"unsupported format {fmt!r}")
    out = io.BytesIO()
    out.write(head.encode())
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = [_cells(c[lo:lo + _BLOCK_ROWS], fmt) for c in columns]
        out.write(("\n".join(map(join, zip(*cells))) + "\n").encode())
    if fmt == "ndjson" and trailer is not None:
        out.write((_emit_json(trailer) + "\n").encode())
    return out.getvalue() or b"\n"  # an empty NDJSON stream is one newline


# --- SVG heatmap -------------------------------------------------------------

_COLOR_ANCHORS = ((13, 8, 135), (204, 71, 120), (240, 249, 33))  # C = 0, 0.5, 1
_SVG_WIDTH, _SVG_HEIGHT = 720, 560
_SVG_LEFT, _SVG_RIGHT, _SVG_TOP, _SVG_BOTTOM = 70, 20, 20, 55  # plot margins


def _cell_color(c: float) -> str:
    c = min(max(c, 0.0), 1.0)
    if c <= 0.5:
        lo, hi, frac = _COLOR_ANCHORS[0], _COLOR_ANCHORS[1], c / 0.5
    else:
        lo, hi, frac = _COLOR_ANCHORS[1], _COLOR_ANCHORS[2], (c - 0.5) / 0.5
    rgb = tuple(round(l + frac * (h - l)) for l, h in zip(lo, hi))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_svg_heatmap(grid: SweepGrid) -> bytes:
    """Static heatmap of a sweep: gamma*t on x, phi/pi on y, one rect per cell."""
    n_phi, n_t = grid.c_matrix.shape
    if n_phi == 0 or n_t == 0:
        raise ValueError("cannot render an empty sweep grid")
    plot_w = _SVG_WIDTH - _SVG_LEFT - _SVG_RIGHT
    plot_h = _SVG_HEIGHT - _SVG_TOP - _SVG_BOTTOM
    cell_w = plot_w / n_t
    cell_h = plot_h / n_phi

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
    ]
    for i in range(n_phi):
        y = _SVG_TOP + (n_phi - 1 - i) * cell_h
        for j in range(n_t):
            x = _SVG_LEFT + j * cell_w
            color = _cell_color(float(grid.c_matrix[i, j]))
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{color}"/>'
            )

    x0, x1 = _SVG_LEFT, _SVG_LEFT + plot_w
    y0, y1 = _SVG_TOP + plot_h, _SVG_TOP
    parts.append(f'<rect x="{x0}" y="{y1}" width="{plot_w}" height="{plot_h}" fill="none" stroke="black"/>')
    t_lo, t_hi = float(grid.t_values[0]), float(grid.t_values[-1])
    p_lo, p_hi = float(grid.phi_values[0]) / math.pi, float(grid.phi_values[-1]) / math.pi
    label = '<text x="{x:.2f}" y="{y:.2f}" font-size="13" text-anchor="{anchor}">{s}</text>'
    parts.append(label.format(x=x0, y=y0 + 18, anchor="middle", s=f"{t_lo:.6g}"))
    parts.append(label.format(x=x1, y=y0 + 18, anchor="middle", s=f"{t_hi:.6g}"))
    parts.append(label.format(x=x0 - 8, y=y0, anchor="end", s=f"{p_lo:.6g}"))
    parts.append(label.format(x=x0 - 8, y=y1 + 10, anchor="end", s=f"{p_hi:.6g}"))
    parts.append(label.format(x=(x0 + x1) / 2, y=_SVG_HEIGHT - 12, anchor="middle", s="&#947;t"))
    parts.append(label.format(x=18, y=(y0 + y1) / 2, anchor="middle", s="&#966;/&#960;"))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


# --- command line ------------------------------------------------------------


class _UsageError(Exception):
    pass


def _number(text: str, convert=float):
    """Flag text as the number a config document would hold there; other
    text stays a string, for the validator to reject."""
    try:
        return convert(text)
    except ValueError:
        return text


def _numbers(text: str, convert=float):
    """A comma-separated number list; one non-number word stays a string ("eg")."""
    items = [_number(v, convert) for v in text.split(",")]
    return text if items == [text] else items


def _grid(text: str):
    """start:stop:count as a grid object; text without a colon is a number."""
    parts = text.split(":")
    if len(parts) == 3:
        return {"start": _number(parts[0]), "stop": _number(parts[1]), "count": _number(parts[2], int)}
    return _number(text) if len(parts) == 1 else text


# Every flag: its name, the config field it sets ("layout.a" is key a of
# layout), the rule turning its text into the field's value, and its help.
_FLAGS = (
    ("config", None, str, "path to a JSON experiment document"),
    ("layout-a", "layout.a", lambda text: _numbers(text, int), "comma-separated positions of atom a"),
    ("layout-b", "layout.b", lambda text: _numbers(text, int), "comma-separated positions of atom b"),
    ("preset", "layout", str, "named layout preset"),
    ("phi", "phi", _grid, "phase shift: <real> or start:stop:count"),
    ("gamma", "gamma", _number, "total emission rate"),
    ("chi", "chi", _number, "chirality in [0, 1]"),
    ("t", "time", _grid, "time grid start:stop:count"),
    ("initial", "initial", _numbers, "eg | ge | re,im,re,im"),
    ("chis", "chis", _numbers, "comma-separated chirality list (chirality-scan)"),
    ("out", "out", str, "output path (default stdout)"),
    ("format", "format", str, "output format: csv | ndjson | svg"),
)
_KNOWN_FIELDS = {field.partition(".")[0] for _, field, _, _ in _FLAGS if field is not None}


def _parse_argv(argv: list[str]) -> tuple[str | None, dict[str, str]]:
    """The command and the text of each flag given, by flag name; the command
    is None when --help or -h stands where the command or a flag belongs."""
    tokens = iter(argv)
    command = next(tokens, None)
    if command in ("--help", "-h"):
        return None, {}
    if command not in _COMMANDS:
        raise _UsageError("a command is required" if command is None else f"unknown command {command!r}")
    texts: dict[str, str] = {}
    for token in tokens:
        if token in ("--help", "-h"):
            return None, {}
        name, eq, text = token[2:].partition("=")
        if not token.startswith("--") or name not in {flag for flag, *_ in _FLAGS}:
            raise _UsageError(f"unrecognized argument {token!r}")
        text = text if eq else next(tokens, None)
        if text is None:
            raise _UsageError(f"{token} needs a value")
        texts[name] = text
    return command, texts


def _spec_from_args(texts: dict[str, str]) -> ExperimentSpec:
    """The --config document with the flags laid over it, validated as one
    document, so that a flag accepts exactly what its config field does; an
    earlier flag of the table wins (--layout-a/-b over --preset), and
    --layout-a/-b set only their own key of a config layout object."""
    doc: dict = {}
    if "config" in texts:
        with open(texts["config"], "r", encoding="utf-8") as fh:
            doc = _load_document(fh.read())
    flags: dict = {}
    for name, field, rule, _ in _FLAGS:
        if field is None or name not in texts:
            continue
        field, _, key = field.partition(".")
        if key:
            flags.setdefault(field, {})[key] = rule(texts[name])
        else:
            flags.setdefault(field, rule(texts[name]))
    if isinstance(doc.get("layout"), dict) and isinstance(flags.get("layout"), dict):
        flags["layout"] = {**doc["layout"], **flags["layout"]}
    doc.update(flags)
    return _spec_from_document(doc)


def _scalar_phi(spec: ExperimentSpec) -> float:
    if isinstance(spec.phi, GridRange):
        raise ConfigValidationError("phi", "this command needs a single phi value")
    return spec.phi


def _phi_grid(spec: ExperimentSpec) -> np.ndarray:
    if isinstance(spec.phi, GridRange):
        return spec.phi.linspace()
    return np.asarray([spec.phi])


def _coeffs(spec: ExperimentSpec):
    phis = _phi_grid(spec)
    unit = _coefficient_arrays(spec.layout, phis, *rates_from_chirality(ChiralitySpec(1.0, spec.chirality.chi)))
    # gamma times each real and imaginary part, so a signed zero keeps its sign
    columns = (np.multiply(spec.chirality.gamma_total, x.view(float)).view(x.dtype).tolist() for x in unit)
    return [(p, CoefficientSet(*c)) for p, *c in zip(phis.tolist(), *columns)]


def _find_max(spec: ExperimentSpec):
    phi = spec.phi
    phi_range = (phi.start, phi.stop) if isinstance(phi, GridRange) else (phi, phi)
    phi_points = phi.count if isinstance(phi, GridRange) else 1
    return find_max(spec.layout, spec.chirality, spec.initial, phi_range,
                    t_horizon=spec.time.stop, phi_points=phi_points)


# Every command, in --help order, and the study it runs on the validated spec
_COMMANDS = {
    "coeffs": _coeffs,
    "evolve": lambda spec: _trajectory_at(spec.layout, spec.chirality, spec.initial, _scalar_phi(spec),
                                          spec.time.linspace()),
    "sweep": lambda spec: sweep(spec.layout, spec.chirality, spec.initial, _phi_grid(spec), spec.time.linspace()),
    "find-max": _find_max,
    "special-phases": lambda spec: find_special_phases(spec.layout, spec.chirality, spec.initial),
    "chirality-scan": lambda spec: chirality_scan(spec.layout, _scalar_phi(spec), spec.chis, spec.initial,
                                                  spec.time.linspace(), gamma_total=spec.chirality.gamma_total),
    "compare-initial": lambda spec: compare_initial_states(spec.layout, spec.chirality, _phi_grid(spec),
                                                           spec.time.linspace()),
    "calibrate": lambda spec: calibrate_presets(),
}
_USAGE = "usage: giantatoms {%s} [--flag value | --flag=value]..." % ",".join(_COMMANDS)


def _help() -> str:
    """The --help text: the usage line, the module docstring and the flags."""
    flags = [f"  --{name:<10} {text}" + ("" if field is None else f" (field {field})")
             for name, field, _, text in _FLAGS]
    return "\n".join([_USAGE, "", (__doc__ or "").strip(), "", "flags:", *flags, ""])


def _run_command(command: str, spec: ExperimentSpec):
    if command == "find-max":
        if spec.time.start != 0:
            raise ConfigValidationError("time.start", "find-max scans t from 0 to time.stop; must be 0")
        _checked("time.stop", _times, "[0, gamma * time.stop]", (0.0, spec.chirality.gamma_total * spec.time.stop))
    if spec.fmt == "svg" and command != "sweep":
        raise ConfigValidationError("format", "svg output is only available for sweep grids")
    if spec.layout is None and command != "calibrate":
        raise ConfigValidationError("layout", "required: give a config layout, --preset or --layout-a/--layout-b")
    return _COMMANDS[command](spec)


def _require_finite(result) -> None:
    """Raise ValueError unless every number in the result's CSV table is
    finite; that table holds every number CSV, NDJSON or SVG output emits,
    so a run that exits 0 emits only finite values."""
    _, columns, _ = _table(result)
    if not all(np.isfinite(c).all() for c in columns if isinstance(c, np.ndarray)):
        raise ValueError("numerical overflow: the result holds non-finite values")


def _write_output(data: bytes, out: str | None):
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def cli_main(argv: list[str] | None = None) -> int:
    try:
        command, texts = _parse_argv(sys.argv[1:] if argv is None else argv)
        if command is None:
            sys.stdout.write(_help())
            return 0
        spec = _spec_from_args(texts)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = _run_command(command, spec)
        _require_finite(result)
        data = render_svg_heatmap(result) if spec.fmt == "svg" else serialize_results(result, spec.fmt)
        _write_output(data, spec.out)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return 1
    except PhysicalityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except RuntimeWarning as exc:
        print(f"numerical overflow: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
