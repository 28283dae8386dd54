"""Benchmark of the giantatoms package: CLI and library workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package in ``src`` and
writes only below ``.bench_build/``. Each workload is a closed loop with one
client: one operation at a time, each started when the previous one ended,
for the whole number of operations that best fills S seconds (at least one).
Inputs come from the seed alone. Every output is checked outside the timed
interval against the oracles in ``oracles.py``, and its sha256 is printed.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` each operation runs once plain and once with layer spans (see
``tracer.py``), and the last line holds the per-layer metrics, the tracing
overhead and the share of traced wall time the spans cover. Everything
before the last line is a human-readable report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
import tracer  # noqa: E402

WORK = ROOT / ".bench_build" / "giantatoms-bench"
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(SRC))
CALL_TIMEOUT_S = 170
SETUP_STARTS = 4  # before and again after the operations

END_TO_END = (
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Reported by point_queries only. That workload is not in BENCHMARK.json: on
# a 2-vCPU VM its run-to-run spread exceeded every allowed bound.
QUERY_METRICS = (
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
)


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Child(NamedTuple):
    wall: float
    code: int  # negative: killed by that signal
    stderr: str
    maxrss_kb: int


def spawn(cmd, errpath: Path) -> Child:
    """Run cmd to completion, or kill it after CALL_TIMEOUT_S, and measure it."""
    with open(errpath, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=ENV, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, errpath.read_text(errors="replace").strip()[-300:], usage.ru_maxrss)


def sha256_file(path: Path) -> tuple[str, int, int]:
    """(hex digest, bytes, newline count) of a file, read in chunks."""
    digest = hashlib.sha256()
    size = lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 23):
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), size, lines


def read_lines(path: Path, wanted: set[int]) -> dict[int, str]:
    out = {}
    last = max(wanted)
    with open(path, "rb") as fh:
        for k, line in enumerate(fh):
            if k in wanted:
                out[k] = line.rstrip(b"\n").decode()
            if k >= last:
                break
    return out


def start_args(start) -> str:
    """CLI --initial value of an amplitude pair given as (c_eg, c_ge)."""
    a, b = (complex(c) for c in start)
    return ",".join(repr(v) for v in (a.real, a.imag, b.real, b.imag))


def random_start(rng, real: bool) -> tuple[complex, complex]:
    """A normalised start: real (a rotation) or with a complex relative phase."""
    if real:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return complex(math.cos(theta), 0.0), complex(math.sin(theta), 0.0)
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in v))
    return complex(v[0], v[1]) / norm, complex(v[2], v[3]) / norm


def layout_args(pattern: str) -> list[str]:
    pos_a, pos_b = oracles.positions(pattern)
    return ["--layout-a", ",".join(map(str, pos_a)), "--layout-b", ",".join(map(str, pos_b))]


def phi_grid(n: int) -> list[str]:
    return ["--phi", "0:%r:%d" % (oracles.TWO_PI, n)]


def t_grid(n: int) -> list[str]:
    return ["--t", "0:50:%d" % n]


# --- workloads ----------------------------------------------------------------
#
# A CLI workload turns operation k into CLI calls (label, argv, output path)
# and checks each call's output. Parameters of operation k depend only on the
# seed and k, so the plain and traced runs of an operation see equal inputs.
# Grid flags spell out the CLI defaults (2001 points over [0, 2 pi] and
# [0, 50]); the self-test shrinks them.


class GridExport:
    """One default 2001 x 2001 sweep written as CSV: io_cli serialisation dominates."""

    name = "grid_export"
    n = 2001
    samples = 48

    def __init__(self, seed: int):
        self.seed = seed

    def params(self, k: int) -> dict:
        rng = random.Random(f"{self.name}/{self.seed}/{k}")
        initial = rng.choice(("eg", "ge"))
        return {"pattern": rng.choice(oracles.orderings()), "chi": rng.random(), "initial": initial,
                "start": (1.0, 0.0) if initial == "eg" else (0.0, 1.0)}

    def calls(self, k: int, outdir: Path):
        p = self.params(k)
        out = outdir / "sweep.csv"
        return [("sweep", ["sweep", *layout_args(p["pattern"]), "--chi", repr(p["chi"]), "--initial", p["initial"],
                           *phi_grid(self.n), *t_grid(self.n), "--out", str(out)], out)]

    def check(self, k: int, name: str, call_id: str, path: Path, lines: int, pending, rng) -> list[str]:
        spec = dict(self.params(k), n=self.n)
        wanted = {0} | {1 + i for i in oracles.sample_indices(rng, self.n * self.n, self.samples)}
        return oracles.check_sweep_csv(call_id, read_lines(path, wanted), lines, spec, pending)


class Calibrate:
    """The 20-ordering preset calibration at its defaults: the experiments scan dominates.

    ``calibrate`` exits 1 without a layout flag, which it then ignores, so the
    call passes ``--preset separated``.
    """

    name = "calibrate"

    def __init__(self, seed: int):
        self.seed = seed  # no free inputs

    def calls(self, k: int, outdir: Path):
        out = outdir / "calibration.ndjson"
        return [("calibrate", ["calibrate", "--preset", "separated", "--format", "ndjson", "--out", str(out)], out)]

    def check(self, k, name, call_id, path, lines, pending, rng) -> list[str]:
        return oracles.check_calibration_ndjson(call_id, path.read_text())


class PhaseStudies:
    """Seven short CLI calls per study on one seeded ordering, chi and phi.

    Many small CSV, NDJSON and SVG outputs and seven argument parses per
    study. find-max starts from a complex state, so a mirror reduction that
    needs a real start cannot apply.
    """

    name = "phase_studies"
    n = 2001  # coeffs, evolve, chirality-scan and find-max grids
    n_small = 201  # compare-initial and the SVG sweep

    def __init__(self, seed: int):
        self.seed = seed

    def params(self, k: int) -> dict:
        rng = random.Random(f"{self.name}/{self.seed}/{k}")
        pattern = rng.choice(oracles.orderings())
        chi = rng.uniform(0.05, 0.95)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return {"pattern": pattern, "chi": chi, "phi": phi, "start": random_start(rng, real=False)}

    def calls(self, k: int, outdir: Path):
        p = self.params(k)
        base = layout_args(p["pattern"])
        chi = ["--chi", repr(p["chi"])]
        start = ["--initial=" + start_args(p["start"])]  # "=" because values may start with "-"
        phi = ["--phi", repr(p["phi"])]
        small = phi_grid(self.n_small) + t_grid(self.n_small)
        spec = [
            ("coeffs", ["coeffs", *base, *chi, *phi_grid(self.n)], "coeffs.csv"),
            ("special-phases", ["special-phases", *base, *chi, *start], "special.csv"),
            ("evolve", ["evolve", *base, *chi, *phi, *start, *t_grid(self.n)], "evolve.csv"),
            ("chirality-scan", ["chirality-scan", *base, *phi, *start, *t_grid(self.n)], "chiscan.csv"),
            ("find-max", ["find-max", *base, *chi, *start, *phi_grid(self.n)], "findmax.csv"),
            ("compare-initial", ["compare-initial", *base, *chi, *small, "--format", "ndjson"], "compare.ndjson"),
            ("sweep-svg", ["sweep", *base, *chi, *start, *small, "--format", "svg"], "sweep.svg"),
        ]
        return [(label, argv + ["--out", str(outdir / fname)], outdir / fname) for label, argv, fname in spec]

    def check(self, k, name, label, path, lines, pending, rng) -> list[str]:
        p = dict(self.params(k), n=self.n, n_small=self.n_small)
        text = path.read_text()
        if name == "coeffs":
            return oracles.check_coeffs_csv(label, text, p, rng)
        if name == "special-phases":
            return oracles.check_special_csv(label, text, p)
        if name == "evolve":
            return oracles.check_trajectory_csv(label, text, p, pending, rng)
        if name == "chirality-scan":
            return oracles.check_trajectory_csv(label, text, p, pending, rng, chis=[0.0, 0.25, 0.5, 0.75, 1.0])
        if name == "find-max":
            return oracles.check_find_max_csv(label, text, p, pending, rng)
        if name == "compare-initial":
            return oracles.check_compare_ndjson(label, text, p, pending, rng)
        return oracles.check_sweep_svg(label, text, p, pending, rng)


class MaxSearch:
    """Eight maximum-concurrence searches at the default grids.

    Searches 0 to 6 take chi in [j/7, (j+1)/7) and a seeded ordering that is
    not separated. Search 7 is the separated cascade at chi = 1, whose
    degenerate scan rows all go to the _evolve fallback; it sets the peak
    memory of every operation. Even searches start from a real state, odd
    ones from a complex one, so a mirror reduction that needs a real start
    applies to half of them. Interpreter start is a smaller share of a
    search than of a phase-study call.
    """

    name = "max_search"
    n = 2001
    searches = 8
    separated = ("aaabbb", "bbbaaa")

    def __init__(self, seed: int):
        self.seed = seed

    def params(self, k: int, j: int) -> dict:
        rng = random.Random(f"{self.name}/{self.seed}/{k}/{j}")
        if j == self.searches - 1:
            pattern, chi = rng.choice(self.separated), 1.0
        else:
            pattern = rng.choice([o for o in oracles.orderings() if o not in self.separated])
            chi = (j + rng.random()) / (self.searches - 1)
        return {"pattern": pattern, "chi": chi, "start": random_start(rng, real=j % 2 == 0)}

    def calls(self, k: int, outdir: Path):
        out = []
        for j in range(self.searches):
            p = self.params(k, j)
            path = outdir / f"findmax{j}.csv"
            out.append((f"find-max{j}", ["find-max", *layout_args(p["pattern"]), "--chi", repr(p["chi"]),
                                         "--initial=" + start_args(p["start"]), *phi_grid(self.n),
                                         *t_grid(self.n), "--out", str(path)], path))
        return out

    def check(self, k, name, label, path, lines, pending, rng) -> list[str]:
        p = self.params(k, int(name[len("find-max"):]))
        return oracles.check_find_max_csv(label, path.read_text(), p, pending, rng)


CLI_WORKLOADS = {w.name: w for w in (GridExport, Calibrate, PhaseStudies, MaxSearch)}

QUERY_STREAM = 2048
QUERY_SAMPLES = 64


def query_stream(seed: int) -> list:
    """Scalar queries on random ordering, chi, phi, t and start; even ones use evaluate_concurrence."""
    rng = random.Random(f"point_queries/{seed}")
    out = []
    for i in range(QUERY_STREAM):
        pos_a, pos_b = oracles.positions(rng.choice(oracles.orderings()))
        chi = rng.random()
        phi = rng.uniform(0.0, 2.0 * math.pi)
        t = rng.uniform(0.0, 50.0)
        a, b = random_start(rng, real=rng.random() < 0.5)
        kind = "evaluate" if i % 2 == 0 else "library"
        out.append([kind, pos_a, pos_b, chi, phi, t, [a.real, a.imag, b.real, b.imag]])
    return out


# --- running ------------------------------------------------------------------


class Run:
    """Everything one benchmark run measures and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = workdir
        self.check_rng = random.Random(f"check/{workload}/{seed}")
        self.pending = oracles.Pending()
        self.attempted = 0
        self.failed: set[str] = set()  # ids of failed operations
        self.query_errors = 0  # queries that raised
        self.problems: list[str] = []
        self.op_wall = {False: [], True: []}  # traced -> operation wall times
        self.op_rss_kb: list[int] = []  # peak RSS of each plain operation
        self.latency_us: list[float] = []  # plain point queries
        self.spans: list[dict] = []
        self.traced_process_s = 0.0
        self.digests: dict[tuple[int, str], str] = {}

    def fail(self, call_id: str, problems) -> None:
        for msg in problems:
            self.failed.add(call_id)
            self.problems.append(msg)

    # CLI workloads

    def cli_call(self, argv, traced: bool) -> Child:
        if traced:
            stats = self.workdir / "spans.json"
            cmd = [PY, str(BENCH / "child.py"), "cli", str(stats), *argv]
        else:
            cmd = [PY, "-m", "giantatoms", *argv]
        child = spawn(cmd, self.workdir / "stderr.txt")
        if traced:
            self.traced_process_s += child.wall
            if stats.exists():
                self.spans.append(json.loads(stats.read_text()))
                stats.unlink()
        return child

    def cli_op(self, wl, k: int, traced: bool) -> None:
        outdir = self.workdir / f"op{k}{'-traced' if traced else ''}"
        outdir.mkdir(parents=True, exist_ok=True)
        calls = wl.calls(k, outdir)
        results = [(label, out, self.cli_call(argv, traced)) for label, argv, out in calls]
        self.op_wall[traced].append(sum(child.wall for _, _, child in results))
        if not traced:
            self.op_rss_kb.append(max(child.maxrss_kb for _, _, child in results))
        print(f"op {k}{' traced' if traced else ''} calls " + " ".join(f"{r[0]}={r[2].wall:.4f}" for r in results))
        for label, out, child in results:
            call_id = f"op{k}/{label}" + ("/traced" if traced else "")
            self.attempted += 1
            if child.code != 0 or not out.exists():
                self.fail(call_id, [f"{call_id}: exit {child.code}: {child.stderr}"])
                continue
            digest, size, lines = sha256_file(out)
            print(f"output {call_id} {size} bytes sha256 {digest}")
            prior = self.digests.setdefault((k, label), digest)
            if prior != digest:
                self.fail(call_id, [f"{call_id}: traced output differs from the plain output"])
            try:
                problems = wl.check(k, label, call_id, out, lines, self.pending, self.check_rng)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"{call_id}: malformed output: {exc!r}"]
            self.fail(call_id, problems)
        shutil.rmtree(outdir)

    def run_cli(self) -> None:
        wl = CLI_WORKLOADS[self.workload](self.seed)
        measured = 0.0
        k = 0
        # Whole operations, as many as fit --seconds best: a further one
        # starts only if at least half of it, at the mean so far, fits.
        while k == 0 or measured + measured / k / 2 < self.seconds:
            for traced in ((False, True) if self.trace else (False,)):
                self.cli_op(wl, k, traced)
                measured += self.op_wall[traced][-1]
            k += 1

    # point_queries

    def query_child(self, queries_path: Path, seconds: float, traced: bool) -> dict | None:
        out = self.workdir / f"queries-{int(traced)}.json"
        cmd = [PY, str(BENCH / "child.py"), "queries", str(queries_path), repr(seconds), str(int(traced)), str(out)]
        child = spawn(cmd, self.workdir / "stderr.txt")
        if child.code != 0 or not out.exists():
            self.attempted += 1
            self.fail("query-child", [f"query child: exit {child.code}: {child.stderr}"])
            return None
        data = json.loads(out.read_text())
        if traced:
            self.traced_process_s += child.wall
            self.spans.append(data["spans"])
        else:
            self.op_rss_kb.append(child.maxrss_kb)
        return data

    def run_queries(self) -> None:
        queries = query_stream(self.seed)
        qpath = self.workdir / "queries.json"
        qpath.write_text(json.dumps(queries))
        share = self.seconds / 2.0 if self.trace else self.seconds
        for traced in ((False, True) if self.trace else (False,)):
            data = self.query_child(qpath, share, traced)
            if data is None:
                continue
            self.op_wall[traced].extend(data["batch_s"])
            self.attempted += len(data["latency_ns"])
            if not traced:
                self.latency_us.extend(ns / 1000.0 for ns in data["latency_ns"])
            label = "queries" + ("/traced" if traced else "")
            self.query_errors += data["errors"]
            self.problems.extend(f"{label}: {msg}" for msg in data["error_examples"])
            results = data["results"]
            blob = json.dumps(results).encode()
            digest = hashlib.sha256(blob).hexdigest()
            print(f"output {label} {len(blob)} bytes sha256 {digest}")
            if self.digests.setdefault((0, "queries"), digest) != digest:
                self.fail(label, [f"{label}: traced results differ from the plain results"])
            for i in oracles.sample_indices(self.check_rng, len(queries), QUERY_SAMPLES):
                kind, pos_a, pos_b, chi, phi, t, (r1, i1, r2, i2) = queries[i]
                if results[i] is None:
                    continue
                pattern = "".join("a" if s in pos_a else "b" for s in range(6))
                cell = oracles.Cell(pattern, chi, 1.0, phi, t, (complex(r1, i1), complex(r2, i2)))
                value = results[i]
                reported = value[0] if kind == "evaluate" else (complex(value[0], value[1]),
                                                                complex(value[2], value[3]))
                self.pending.add(f"{label}/{i}", "", cell, reported)
        qpath.unlink()

    def check_pending(self) -> None:
        for output_id, msg in self.pending.run():
            self.fail(output_id, [msg])


def time_imports(n: int, workdir: Path) -> list[float]:
    """Wall times of n fresh interpreters that import giantatoms."""
    times = []
    for _ in range(n):
        child = spawn([PY, "-c", "import giantatoms"], workdir / "stderr.txt")
        if child.code != 0:
            raise RuntimeError(f"import giantatoms failed: {child.stderr}")
        times.append(child.wall)
    return times


WORKLOADS = tuple(CLI_WORKLOADS) + ("point_queries",)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "giantatoms" / "__init__.py").is_file():
        print(f"giantatoms sources not found under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        # One unmeasured start first, so that bytecode is written.
        setup_times = [] if args.trace else time_imports(1 + SETUP_STARTS, workdir)[1:]
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        if args.workload == "point_queries":
            run.run_queries()
        else:
            run.run_cli()
        if not args.trace:
            setup_times += time_imports(SETUP_STARTS, workdir)
        run.check_pending()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failed) + run.query_errors
    for msg in run.problems[:20]:
        print(f"FAIL {msg}")
    print(f"error_rate {failed / max(run.attempted, 1):.6g} ratio ({failed} of {run.attempted} failed)")

    if args.trace:
        merged = tracer.merge(run.spans)
        values = tracer.layer_metrics(merged, statistics.median(run.op_wall[True]),
                                      statistics.median(run.op_wall[False]), run.traced_process_s)
        units = dict(tracer.PER_LAYER)
        for name in merged["absent"]:
            print(f"absent {name}")
    else:
        values = {
            "wall_s": statistics.median(run.op_wall[False]),
            "peak_rss_mb": statistics.median(run.op_rss_kb) / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = dict(END_TO_END)
        if run.latency_us:
            print(f"query_samples {len(run.latency_us)} count")
            values["query_p50_us"] = percentile(run.latency_us, 50)
            values["query_p99_us"] = percentile(run.latency_us, 99)
            units.update(QUERY_METRICS)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
