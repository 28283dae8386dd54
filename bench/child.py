"""Child processes of the benchmark.

    python3 bench/child.py cli STATS ARGV...
        Runs the giantatoms CLI on ARGV in this process with layer spans
        installed, writes the span counts as JSON to STATS and exits with the
        CLI's exit code.

    python3 bench/child.py queries QUERIES SECONDS TRACE OUT
        Runs the scalar query stream in QUERIES (JSON, written by run.py)
        round after round in batches until SECONDS have been measured, with
        layer spans when TRACE is 1, and writes latencies, batch times, the
        first round's results and span counts as JSON to OUT.

giantatoms is imported from PYTHONPATH, which run.py points at the
checkout's ``src``.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter, perf_counter_ns

sys.dont_write_bytecode = True

import tracer  # noqa: E402  (after the bytecode switch)

BATCH = 256


def run_cli(stats_path: str, argv: list[str]) -> int:
    from giantatoms import io_cli

    tr = tracer.Tracer()
    tr.install()
    span = tr.open("cli")
    try:
        code = io_cli.cli_main(argv)
    finally:
        tr.close(span)
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tr.snapshot(), fh)
    return code


def _query_functions(tr):
    from giantatoms import (ChiralitySpec, InitialState, build_heff, coefficients, evaluate_concurrence,
                            make_layout, propagate_closed, rates_from_chirality)

    if tr is not None:
        evaluate_concurrence = tr.wrap(evaluate_concurrence, "entry")
        coefficients = tr.wrap(coefficients, "coef_scalar")
        build_heff = tr.wrap(build_heff, "build_heff")
        propagate_closed = tr.wrap(propagate_closed, "propagate")

    def query(q):
        """One user query from raw numbers: the README library path or evaluate_concurrence."""
        kind, pos_a, pos_b, chi, phi, t, (re1, im1, re2, im2) = q
        cfg = make_layout(pos_a, pos_b)
        spec = ChiralitySpec(1.0, chi)
        c0 = InitialState(complex(re1, im1), complex(re2, im2))
        if kind == "evaluate":
            return [evaluate_concurrence(cfg, spec, c0, phi, t)]
        gamma_r, gamma_l = rates_from_chirality(spec)
        amps = propagate_closed(build_heff(coefficients(cfg, phi, gamma_r, gamma_l)), c0, t)
        return [amps.c_eg.real, amps.c_eg.imag, amps.c_ge.real, amps.c_ge.imag]

    return query


def run_queries(queries_path: str, seconds: float, trace: bool, out_path: str) -> int:
    with open(queries_path, encoding="utf-8") as fh:
        queries = json.load(fh)
    tr = None
    if trace:
        tr = tracer.Tracer()
        tr.install()
    query = _query_functions(tr)

    latency_ns: list[int] = []
    batch_s: list[float] = []
    results: list = [None] * len(queries)
    errors = 0
    error_examples: list[str] = []
    measured = 0.0
    k = 0
    while measured < seconds or k < len(queries):
        t_batch = perf_counter()
        for _ in range(BATCH):
            i = k % len(queries)
            t0 = perf_counter_ns()
            span = tr.open("query") if tr else None
            try:
                value = query(queries[i])
            except Exception as exc:  # a failed query is counted, not fatal
                value = None
                errors += 1
                if len(error_examples) < 5:
                    error_examples.append(f"query {i}: {exc!r}")
            if span:
                tr.close(span)
            latency_ns.append(perf_counter_ns() - t0)
            if k < len(queries):
                results[i] = value
            k += 1
        batch_s.append(perf_counter() - t_batch)
        measured += batch_s[-1]

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"latency_ns": latency_ns, "batch_s": batch_s, "errors": errors,
                   "error_examples": error_examples, "results": results,
                   "spans": tr.snapshot() if tr else None}, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return run_cli(argv[1], argv[2:])
    if argv[:1] == ["queries"] and len(argv) == 5:
        return run_queries(argv[1], float(argv[2]), argv[3] == "1", argv[4])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
