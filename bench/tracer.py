"""Per-layer spans taken from outside giantatoms.

``Tracer.install`` rebinds the module-level functions that one giantatoms
module calls in another (for example ``io_cli.sweep``) to timing wrappers.
This happens in the current process only; no package file changes. Spans
nest, and a span's self time is its duration minus that of its wrapped
children. Bookkeeping done after a span ends (byte counts, propagator branch
classification, RSS readings) is kept out of every open span, so it shows only
in the difference between traced and untraced wall time.

A wrapped name that does not exist at the current commit is listed in
``absent`` and otherwise ignored.
"""
from __future__ import annotations

import importlib
import resource
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, kind). The io_cli -> experiments calls are the
# experiments layer's entry points.
WRAPPED = (
    ("io_cli", "sweep", "entry"),
    ("io_cli", "find_max", "find_max_entry"),
    ("io_cli", "calibrate_presets", "entry"),
    ("io_cli", "find_special_phases", "entry"),
    ("io_cli", "chirality_scan", "entry"),
    ("io_cli", "compare_initial_states", "entry"),
    ("io_cli", "coefficients", "coef_scalar"),
    ("io_cli", "build_heff", "build_heff"),
    ("io_cli", "trajectory", "trajectory"),
    ("io_cli", "serialize_results", "serialize"),
    ("io_cli", "render_svg_heatmap", "svg"),
    ("io_cli", "_write_output", "write"),
    ("experiments", "_coefficient_arrays", "coef_array"),
    ("experiments", "coefficients", "coef_scalar"),
    ("experiments", "_evolve", "evolve"),
    ("experiments", "build_heff", "build_heff"),
    ("experiments", "find_max", "find_max"),
    ("experiments", "_concurrence_scan_uniform", "scan"),
    ("experiments", "_concurrence_matrix", "grid"),
    ("experiments", "_m_components", "heff_arrays"),
    ("dynamics", "check_dissipator_psd", "psd"),
)

_ENTRY_KINDS = ("entry", "find_max_entry")
_IO_KINDS = ("serialize", "svg", "write")

# Branch limits of the closed-form propagator in |s t| (the values in
# giantatoms.dynamics at the seed commit, used when the module no longer
# defines them).
_SERIES_MAX_Z = 1e-6
_SINC_MAX_Z = 1.0


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class _Span:
    __slots__ = ("kind", "start", "book", "child", "rss", "scan_end", "scan_book")

    def __init__(self, kind, start, book, rss):
        self.kind, self.start, self.book, self.rss = kind, start, book, rss
        self.child = 0.0
        self.scan_end = None
        self.scan_book = 0.0


class Tracer:
    """Collects span times and work counts into ``counts`` (name -> number)."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.book = 0.0  # seconds of bookkeeping done after spans ended
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.series_max_z = _SERIES_MAX_Z
        self.sinc_max_z = _SINC_MAX_Z

    def install(self) -> None:
        for modname, attr, kind in WRAPPED:
            try:
                mod = importlib.import_module("giantatoms." + modname)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
            else:
                setattr(mod, attr, self.wrap(fn, kind))
        dynamics = importlib.import_module("giantatoms.dynamics")
        self.series_max_z = getattr(dynamics, "_SINC_SERIES_MAX_Z", _SERIES_MAX_Z)
        self.sinc_max_z = getattr(dynamics, "_SINC_FORM_MAX_Z", _SINC_MAX_Z)

    def wrap(self, fn, kind):
        def traced(*args, **kwargs):
            span = self.open(kind)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, args, kwargs, None)
                raise
            self.close(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def open(self, kind: str) -> _Span:
        rss = _maxrss_kb() if kind in _IO_KINDS or kind in _ENTRY_KINDS else 0
        span = _Span(kind, perf_counter(), self.book, rss)
        self.stack.append(span)
        return span

    def close(self, span: _Span, args=(), kwargs=None, result=None) -> None:
        end = perf_counter()
        self.stack.pop()
        dur = end - span.start - (self.book - span.book)
        if self.stack:
            self.stack[-1].child += dur
        else:
            self.counts["root_s"] += dur
        self._account(span, end, dur, args, kwargs or {}, result)
        self.book += perf_counter() - end

    def _enclosing(self, kinds):
        for span in reversed(self.stack):
            if span.kind in kinds:
                return span
        return None

    def _account(self, span, end, dur, args, kwargs, result) -> None:
        c = self.counts
        kind = span.kind
        self_s = dur - span.child
        if kind == "cli":
            c["io_cli.cli_self_s"] += self_s
        if kind in _ENTRY_KINDS:
            c["experiments.entry_self_s"] += self_s
            c["experiments.rss_growth_kb"] += _maxrss_kb() - span.rss
        if kind in _IO_KINDS:
            c["io_cli.rss_growth_kb"] += _maxrss_kb() - span.rss
        if kind == "serialize":
            fmt = _arg(args, kwargs, 1, "fmt", "csv")
            c[f"io_cli.{fmt}_s"] += dur
            c[f"io_cli.{fmt}_bytes"] += len(result) if result is not None else 0
        elif kind == "svg":
            c["io_cli.svg_s"] += dur
            c["io_cli.svg_cells"] += np.size(args[0].c_matrix)
        elif kind == "write":
            c["io_cli.write_s"] += dur
        elif kind in ("find_max", "find_max_entry"):
            c["experiments.find_max_calls"] += 1
            if span.scan_end is not None:
                c["experiments.refine_s"] += end - span.scan_end - (self.book - span.scan_book)
        elif kind == "scan":
            rows = np.size(_arg(args, kwargs, 3, "phis"))
            c["experiments.scan_s"] += dur
            c["experiments.scan_rows"] += rows
            c["experiments.scan_cells"] += rows * int(_arg(args, kwargs, 4, "n_t"))
            owner = self._enclosing(("find_max", "find_max_entry"))
            if owner is not None:
                owner.scan_end, owner.scan_book = end, self.book
        elif kind == "grid":
            c["experiments.grid_s"] += dur
            c["experiments.grid_cells"] += np.size(_arg(args, kwargs, 3, "phis")) * np.size(_arg(args, kwargs, 4, "ts"))
        elif kind == "heff_arrays":
            c["experiments.heff_arrays_calls"] += 1
            owner = self._enclosing(("find_max", "find_max_entry"))
            if np.size(_arg(args, kwargs, 3, "phis")) == 1 and owner is not None and owner.scan_end is not None:
                c["experiments.refine_evals"] += 1
        elif kind == "coef_array":
            n = np.size(_arg(args, kwargs, 1, "phis"))
            if n == 1:
                c["coefficients.scalar_calls"] += 1
                c["coefficients.scalar_s"] += dur
            else:
                c["coefficients.array_calls"] += 1
                c["coefficients.array_phis"] += n
                c["coefficients.array_s"] += dur
        elif kind == "coef_scalar":
            c["coefficients.scalar_calls"] += 1
            c["coefficients.scalar_s"] += dur
        elif kind == "psd":
            c["coefficients.psd_checks"] += 1
        elif kind == "build_heff":
            c["dynamics.build_heff_calls"] += 1
            c["dynamics.build_heff_s"] += dur
        elif kind == "trajectory":
            c["dynamics.trajectory_s"] += dur
        elif kind == "evolve":
            self._count_evolve(dur, *args[:4], args[6] if len(args) > 6 else kwargs["t"])
            if self._enclosing(("scan",)) is not None:
                c["experiments.scan_fallback_rows"] += np.shape(np.broadcast(*args[:7]))[0]
        elif kind == "propagate":
            m = args[0].matrix
            self._count_evolve(dur, m[0, 0], m[0, 1], m[1, 0], m[1, 1], _arg(args, kwargs, 2, "t"))

    def _count_evolve(self, dur, m11, m12, m21, m22, t) -> None:
        """Cells per propagator branch, decided by |s t| as giantatoms.dynamics does."""
        m11, m12, m21, m22 = (np.asarray(x, dtype=complex) for x in (m11, m12, m21, m22))
        dd = 0.5 * (m11 - m22)
        z = np.abs(np.sqrt(dd * dd + m12 * m21)) * np.abs(np.asarray(t, dtype=complex))
        c = self.counts
        c["dynamics.evolve_calls"] += 1
        c["dynamics.evolve_s"] += dur
        c["dynamics.evolve_cells"] += z.size
        series = int(np.count_nonzero(z < self.series_max_z))
        sinc = int(np.count_nonzero(z <= self.sinc_max_z)) - series
        c["dynamics.branch_series_cells"] += series
        c["dynamics.branch_sinc_cells"] += sinc
        c["dynamics.branch_spectral_cells"] += z.size - series - sinc

    def snapshot(self) -> dict:
        return {"counts": {k: float(v) for k, v in self.counts.items()},
                "book_s": self.book, "absent": self.absent}


def merge(snapshots) -> dict:
    """Sum the counts of several processes; RSS growth takes the largest."""
    counts: Counter = Counter()
    book = 0.0
    absent: set[str] = set()
    for snap in snapshots:
        for k, v in snap["counts"].items():
            counts[k] = max(counts[k], v) if k.endswith(".rss_growth_kb") else counts[k] + v
        book += snap["book_s"]
        absent.update(snap["absent"])
    return {"counts": counts, "book_s": book, "absent": sorted(absent)}


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("io_cli.cli_self_s", "s"),
    ("io_cli.csv_s", "s"),
    ("io_cli.csv_bytes", "bytes"),
    ("io_cli.csv_ns_per_byte", "ns/byte"),
    ("io_cli.ndjson_s", "s"),
    ("io_cli.ndjson_bytes", "bytes"),
    ("io_cli.ndjson_ns_per_byte", "ns/byte"),
    ("io_cli.svg_s", "s"),
    ("io_cli.svg_cells", "count"),
    ("io_cli.svg_ns_per_cell", "ns/cell"),
    ("io_cli.write_s", "s"),
    ("io_cli.rss_growth_mb", "MB"),
    ("experiments.entry_self_s", "s"),
    ("experiments.scan_s", "s"),
    ("experiments.scan_cells", "count"),
    ("experiments.scan_ns_per_cell", "ns/cell"),
    ("experiments.scan_fallback_row_share", "ratio"),
    ("experiments.grid_s", "s"),
    ("experiments.grid_cells", "count"),
    ("experiments.find_max_calls", "count"),
    ("experiments.refine_evals", "count"),
    ("experiments.refine_s", "s"),
    ("experiments.heff_arrays_calls", "count"),
    ("experiments.rss_growth_mb", "MB"),
    ("dynamics.evolve_calls", "count"),
    ("dynamics.evolve_cells", "count"),
    ("dynamics.evolve_s", "s"),
    ("dynamics.evolve_ns_per_cell", "ns/cell"),
    ("dynamics.branch_series_share", "ratio"),
    ("dynamics.branch_sinc_share", "ratio"),
    ("dynamics.branch_spectral_share", "ratio"),
    ("dynamics.build_heff_calls", "count"),
    ("dynamics.build_heff_s", "s"),
    ("dynamics.trajectory_s", "s"),
    ("coefficients.array_calls", "count"),
    ("coefficients.array_phis", "count"),
    ("coefficients.array_s", "s"),
    ("coefficients.scalar_calls", "count"),
    ("coefficients.scalar_us_per_call", "us"),
    ("coefficients.psd_checks", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("trace.absent_names", "count"),
)


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(merged: dict, traced_wall: float, untraced_wall: float, process_wall: float) -> dict:
    """Per-layer metric values from merged span counts.

    ``traced_wall`` and ``untraced_wall`` are the workload's wall_s with and
    without tracing; ``process_wall`` is the summed wall time of the traced
    processes, of which the root spans cover ``trace.span_coverage``.
    """
    c = merged["counts"]
    out = {name: float(c.get(name, 0.0)) for name, _ in PER_LAYER}
    out["io_cli.csv_ns_per_byte"] = _ratio(c["io_cli.csv_s"], c["io_cli.csv_bytes"], 1e9)
    out["io_cli.ndjson_ns_per_byte"] = _ratio(c["io_cli.ndjson_s"], c["io_cli.ndjson_bytes"], 1e9)
    out["io_cli.svg_ns_per_cell"] = _ratio(c["io_cli.svg_s"], c["io_cli.svg_cells"], 1e9)
    out["io_cli.rss_growth_mb"] = c["io_cli.rss_growth_kb"] / 1024.0
    out["experiments.scan_ns_per_cell"] = _ratio(c["experiments.scan_s"], c["experiments.scan_cells"], 1e9)
    out["experiments.scan_fallback_row_share"] = _ratio(c["experiments.scan_fallback_rows"],
                                                        c["experiments.scan_rows"])
    out["experiments.rss_growth_mb"] = c["experiments.rss_growth_kb"] / 1024.0
    cells = c["dynamics.evolve_cells"]
    out["dynamics.evolve_ns_per_cell"] = _ratio(c["dynamics.evolve_s"], cells, 1e9)
    for branch in ("series", "sinc", "spectral"):
        out[f"dynamics.branch_{branch}_share"] = _ratio(c[f"dynamics.branch_{branch}_cells"], cells)
    out["coefficients.scalar_us_per_call"] = _ratio(c["coefficients.scalar_s"], c["coefficients.scalar_calls"], 1e6)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_share"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    out["trace.span_coverage"] = _ratio(c["root_s"], process_wall - merged["book_s"])
    out["trace.absent_names"] = float(len(merged["absent"]))
    return out
