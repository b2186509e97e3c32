"""loopcert benchmark.

    python3 bench/run.py --workload {exact-suite,fourier,norms} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: loopcert is imported from ``src/``
next to this directory.  Each run repeats whole rounds of its workload's
operations for about ``--seconds`` (at least one round), checks every
output against the oracles in ``oracles.py`` after the timed region, writes
a result file under ``.bench_out/`` and prints one JSON object as its last
line of standard output.

``--trace 0`` reports the end-to-end metrics: ``solve_s`` (median wall time
of a round), ``setup_s`` (median over fresh interpreters of the time to
import loopcert and generate the inputs) and ``peak_rss_mib``.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of ``tracing.py`` plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
WORKLOADS = ("exact-suite", "fourier", "norms")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import loopcert and build
    the workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(ops, fresh_caches, tracer=None) -> tuple[float, list, list]:
    """Wall time of one round, the outputs, and each operation's seconds."""
    gc.collect()
    outputs, op_times = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        fresh_caches()
        if tracer is not None:
            tracer.current_op[0] = i
        t_op = time.perf_counter()
        try:
            outputs.append(op.call())
        except Exception as exc:  # an operation that raises is a failed operation
            outputs.append(exc)
        op_times.append(time.perf_counter() - t_op)
    return time.perf_counter() - t0, outputs, op_times


def judge(ops, outputs, oracle_cache: dict) -> tuple[int, bool]:
    """Run every check; returns (failed operations, correct)."""
    state = {"oracle": oracle_cache}
    failed, correct = 0, True
    for op, output in zip(ops, outputs):
        if isinstance(output, Exception):
            problems = [f"raised {output!r}"]
        else:
            try:
                problems = op.check(output, state)
            except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            failed += 1
            tag = f"known fault ({op.known_fault})" if op.known_fault else "FAILED"
            print(f"{tag}: {op.name}: {'; '.join(problems[:3])}", file=sys.stderr)
            if not op.known_fault:
                correct = False
    return failed, correct


def machine_facts() -> dict:
    import mpmath

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loopcert" / "__init__.py").is_file():
        print(f"error: no loopcert sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    ops = workloads.build(args.workload, args.seed, OUT / "reports" / args.workload)
    if args.setup_only:
        return 0
    setup_s = measure_setup(args) if not args.trace else None

    tracer = tracing.Tracer() if args.trace else None
    plain_times, traced_times, layer_runs, op_runs = [], [], [], []
    oracle_cache: dict = {}
    tally = {"correct": True, "attempted": 0, "failed": 0}

    def check_round(outputs):  # before the next round overwrites the reports
        f, ok = judge(ops, outputs, oracle_cache)
        tally["attempted"] += len(ops)
        tally["failed"] += f
        tally["correct"] = tally["correct"] and ok

    start = time.perf_counter()
    while True:
        seconds, outputs, op_times = run_round(ops, workloads.fresh_caches)
        plain_times.append(seconds)
        op_runs.append(op_times)
        if len(plain_times) == 1:  # before any check runs, so oracle memory is not counted
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_round(outputs)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                seconds, outputs, _ = run_round(ops, workloads.fresh_caches, tracer)
            finally:
                tracer.uninstall()
            traced_times.append(seconds)
            layer_runs.append(tracer.metrics())
            check_round(outputs)
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(plain_times)
        if elapsed + per_pass > args.seconds:
            break

    if tracer is None:
        metrics = {
            "solve_s": {"value": statistics.median(plain_times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    else:
        metrics = {}
        for name, unit, _ in tracing.per_layer_metric_specs():
            if name == "trace.overhead_s":
                value = statistics.median(traced_times) - statistics.median(plain_times)
            else:
                value = statistics.median(run[name] for run in layer_runs)
            metrics[name] = {"value": value, "unit": unit}
        tracer.write_spans(OUT / f"spans-{args.workload}.txt.gz")

    result = dict(tally, metrics=metrics)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  round_s=plain_times, traced_round_s=traced_times,
                  operation_s={op.name: [run[i] for run in op_runs] for i, op in enumerate(ops)},
                  machine=machine_facts(), finished_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
