"""Self-test of the benchmark harness on tiny grids.

    python3 bench/selftest.py

Run from the root of a checkout. It checks that:

- every run emits exactly the metrics BENCHMARK.json names, each with its
  unit: the end-to-end ones with ``--trace 0`` (plus the query latencies on
  point_queries, which BENCHMARK.json leaves out) and the per-layer ones with
  ``--trace 1``;
- an output with one changed digit is counted as a failed operation;
- the calibration oracle accepts the reference document and rejects it with
  one changed digit (calibrate has no grid flags, so it cannot run tiny);
- a wrapped name missing from the package is reported as absent;
- the benchmark exits non-zero, printing no result, without the package.

Exits 0 when every check passes.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import run  # noqa: E402  (puts the checkout's src on sys.path)
import oracles  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_main(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    assert code == 0, f"{argv}: exit {code}"
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def assert_metrics(result: dict, section: str, label: str, extra=()) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]} | dict(extra)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json {section}"
    assert all(isinstance(m["value"], float) for m in result["metrics"].values()), label


def corrupt_one_digit(path: Path) -> None:
    """Change the tenths digit of the first concurrence at or above 0.1 in a sweep CSV."""
    lines = path.read_text().splitlines(keepends=True)
    for k, line in enumerate(lines[1:], start=1):
        head, value = line.rsplit(",", 1)
        if value.startswith("0.") and value[2] != "0":
            lines[k] = f"{head},0.{(int(value[2]) + 1) % 10}{value[3:]}"
            path.write_text("".join(lines))
            return
    raise AssertionError(f"no concurrence >= 0.1 in {path}")


def main() -> int:
    run.GridExport.n = 21
    run.GridExport.samples = 21 * 21  # every cell, so the corrupted one is checked
    run.PhaseStudies.n = 41
    run.PhaseStudies.n_small = 11
    run.MaxSearch.n = 201  # coarser grids can miss the global maximum the oracle samples

    for workload in run.WORKLOADS:
        if workload == "calibrate":
            continue
        for trace in (0, 1):
            result = run_main(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)])
            label = f"{workload} trace {trace}"
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label
            extra = run.QUERY_METRICS if workload == "point_queries" and not trace else ()
            assert_metrics(result, "per_layer" if trace else "end_to_end", label, extra)
            print(f"ok   {label}: {len(result['metrics'])} metrics with units, {result['attempted']} operations")

    plain_call = run.Run.cli_call
    corrupted = []

    def corrupting_call(self, argv, traced):
        child = plain_call(self, argv, traced)
        if not corrupted:
            corrupted.append(argv)
            corrupt_one_digit(Path(argv[argv.index("--out") + 1]))
        return child

    run.Run.cli_call = corrupting_call
    try:
        result = run_main(["--workload", "grid_export", "--seed", "7", "--seconds", "0.5", "--trace", "0"])
    finally:
        run.Run.cli_call = plain_call
    assert result["failed"] == 1 and not result["correct"], result
    print(f"ok   grid_export with one changed digit: 1 of {result['attempted']} operations failed")

    ref = [json.dumps({"config": name, "ordering": oracles.CALIBRATION_ORDERINGS[name],
                       "values": dict(zip(oracles.CALIBRATION_LABELS, values))})
           for name, values in oracles.CALIBRATION_REFERENCE.items()]
    assert oracles.check_calibration_ndjson("reference", "\n".join(ref)) == []
    ref[2] = ref[2].replace("0.8726872016574585", "0.8726972016574585")
    assert oracles.check_calibration_ndjson("corrupted", "\n".join(ref)), "changed digit not caught"
    print("ok   calibration oracle: reference passes, one changed digit fails")

    from giantatoms import experiments
    saved = experiments._m_components
    del experiments._m_components
    try:
        tr = tracer.Tracer()
        tr.install()
        assert "experiments._m_components" in tr.absent, tr.absent
    finally:
        for modname, attr, _ in tracer.WRAPPED:
            mod = sys.modules["giantatoms." + modname]
            fn = getattr(mod, attr, None)
            if fn is not None:
                setattr(mod, attr, getattr(fn, "__wrapped__", fn))
        experiments._m_components = saved
    print("ok   missing wrapped name reported as absent")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload", "point_queries",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok   without the package: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
