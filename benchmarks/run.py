"""ldlab benchmark: three workloads, timed from outside the package.

    python3 benchmarks/run.py --workload filter-pair --seed 1 --seconds 20 --trace 0

One closed-loop caller runs passes of top-level calls until --seconds have
passed, each call starting when the previous one returns. Every pass is a
short list of calls on fresh inputs made from --seed and the pass index.
Afterwards the outputs are checked against independent references, and one
call per input kind of the first pass is rerun to check byte-identical
output. The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json). Latency is
the mean of the 20 fastest calls of each call kind. On a shared 2-vCPU
virtual machine, interpreter-bound calls doing identical work ran 1.7 to 2.1
times slower in phases of 10 to 20 seconds, and the share of a 30-second run
spent in slow phases varies from none to all of it, so on finite-oracle
(about 400 short calls a run) the median and tail mostly measure that share;
the 20 fastest of them fall in the fast phases. The median, the tail and the
whole-run throughput are printed in the record line but are not metrics.

--trace 1 repeats the first pass, alternating untraced runs of it with runs
in which every layer boundary is wrapped (tracer.py), and reports self time
and call counts per layer per pass, plus the tracing overhead: traced pass
time minus untraced pass time.

The benchmark starts no threads. Set-up time is measured in separate, fresh
interpreters started one at a time before the timed loop, because an
interpreter that has imported ldlab cannot measure the import again.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("filter-pair", "experiment-mc", "finite-oracle")
SETUP_PROBES = 5
# A 30-second run makes 14 to 21 calls per filter-pair preset, 11 to 16 mc
# calls and 320 to 480 finite calls: the mean of the 20 fastest is the mean
# of (nearly) every call on the first two and drops the host's slow phases
# on finite-oracle.
BEST_CALLS = 20


def _best_metrics(calls, latencies):
    """run_best20_ms and steps_per_s from the BEST_CALLS fastest calls of each kind.

    Per kind, the mean latency of its BEST_CALLS fastest calls (of all its
    calls when it has fewer); run_best20_ms is the mean of that over kinds,
    and steps_per_s the steps of one call of each kind over the sum of it.
    """
    by_kind = {}
    for call, t in zip(calls, latencies):
        by_kind.setdefault(call.kind, (call.steps, []))[1].append(t)
    best = {kind: statistics.mean(sorted(ts)[:BEST_CALLS])
            for kind, (_, ts) in by_kind.items()}
    steps = sum(n for n, _ in by_kind.values())
    return (1000.0 * statistics.mean(best.values()), steps / sum(best.values()),
            {kind: round(1000.0 * t, 2) for kind, t in best.items()})


def _percentiles(latencies):
    """Median, and the highest percentile with at least ten samples beyond it.

    With fewer than 21 samples no such percentile lies above the median, and
    the median is reported as the tail.
    """
    xs = sorted(latencies)
    p50 = statistics.median(xs)
    k = len(xs) - 11
    if k < len(xs) / 2:
        return p50, p50, 50.0
    return p50, xs[k], 100.0 * (k + 1) / len(xs)


def _run_pass(calls, keep=None):
    """One pass in a closed loop; returns (latencies, failed, wall seconds)."""
    latencies, failed = [], 0
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        output, ok = call.run()
        latencies.append(time.perf_counter() - t0)
        failed += not ok
        if keep is not None:
            keep.append(output)
    return latencies, failed, time.perf_counter() - start


def _setup_seconds(workload, seed):
    """Median time for a fresh interpreter to import ldlab and build the workload."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


def _machine(workload, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": _commit(),
    }


def _commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _untraced(work, seconds, out):
    """End-to-end run: a warm-up call, then timed passes on fresh inputs."""
    _, ok = work.calls(0)[0].run()  # warm-up, untimed
    calls, outputs, latencies, pass_s, failed = [], [], [], [], int(not ok)
    start = time.perf_counter()
    while not (calls and time.perf_counter() - start >= seconds):
        pass_calls = work.calls(len(pass_s))
        lat, bad, wall = _run_pass(pass_calls, keep=outputs)
        pass_s.append(round(wall, 4))
        calls += pass_calls
        latencies += lat
        failed += bad
    wall = time.perf_counter() - start
    p50, tail, pct = _percentiles(latencies)
    best, steps_per_s, best_by_kind = _best_metrics(calls, latencies)
    out["latency"] = {"samples": len(latencies), "p50_ms": 1000.0 * p50,
                      "tail_ms": 1000.0 * tail, "tail_percentile": round(pct, 1),
                      "best20_ms_by_kind": best_by_kind,
                      "steps_per_wall_s": sum(c.steps for c in calls) / wall,
                      "wall_s": wall, "pass_s": pass_s,
                      "calls_ms": [round(1000.0 * t, 1) for t in latencies]}
    metrics = {
        "run_best20_ms": _metric(best, "ms"),
        "steps_per_s": _metric(steps_per_s, "1/s"),
    }
    return calls, outputs, metrics, len(latencies) + 1, failed, True


def _traced(work, seconds, out):
    """Per-layer run: untraced and traced passes of pass 0 alternate until --seconds."""
    from tracer import COUNTERS, TIMED_LAYERS, Tracer, install_ldlab

    calls = work.calls(0)
    _, ok = calls[0].run()  # warm-up, untimed
    outputs, plain, traced, per_pass = [], [], [], []
    failed, attempted = int(not ok), 1
    tracer = Tracer()
    start = time.perf_counter()
    while not (plain and time.perf_counter() - start >= seconds):
        lat, bad, wall = _run_pass(calls, keep=outputs if not plain else None)
        plain.append(wall)
        failed += bad
        attempted += len(lat)
        tracer.reset()
        install_ldlab(tracer)
        try:
            lat, bad, wall = _run_pass(calls)
        finally:
            tracer.uninstall()
        traced.append(wall)
        failed += bad
        attempted += len(lat)
        per_pass.append((dict(tracer.self_s), dict(tracer.calls), dict(tracer.counts)))
    metrics = {}
    for layer in TIMED_LAYERS:
        ms = statistics.median(1000.0 * p[0].get(layer, 0.0) for p in per_pass)
        metrics[f"{layer}_ms"] = _metric(ms, "ms")
        metrics[f"{layer}_calls"] = _metric(per_pass[0][1].get(layer, 0), "count")
    for key in COUNTERS:
        metrics[key] = _metric(per_pass[0][2].get(key, 0),
                               "B" if key.endswith("bytes_written") else "count")
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_ms"] = _metric(1000.0 * overhead, "ms")
    repeat = all(p[1:] == per_pass[0][1:] for p in per_pass)
    out["trace"] = {"untraced_pass_s": plain, "traced_pass_s": traced, "counts_repeat": repeat}
    return calls, outputs, metrics, attempted, failed, repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole passes until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ldlab", "__init__.py")):
        print(f"ldlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, os.devnull)
        print(repr(time.time()))
        return 0

    record = _machine(args.workload, args.seed)
    metrics = {}
    if not args.trace:
        setup, samples = _setup_seconds(args.workload, args.seed)
        record["setup_samples_s"] = samples
        metrics["setup_s"] = _metric(setup, "s")

    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        work = WORKLOADS[args.workload](args.seed, out_root)
        record["facts"] = work.facts
        runner = _traced if args.trace else _untraced
        calls, outputs, layer_metrics, attempted, failed, repeat = runner(
            work, args.seconds, record)
        checks = work.check(calls, outputs)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    metrics.update(layer_metrics)
    problems = checks.verdicts() + ([] if repeat else ["exact counts differ between passes"])
    attempted += checks.attempted
    failed += checks.failed
    if args.trace:
        for key, kind in (("filtering.log_tv_err_max", "log_tv"),
                          ("bounds.mass_log_err_max", "mass_log"),
                          ("bounds.far_phi_log_err_max", "far_phi_log"),
                          ("filtering.oracle_err_max", "oracle")):
            metrics[key] = _metric(checks.errors.get(kind, 0.0), "abs")
    else:
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["ref_err_max"] = _metric(checks.ref_err_max(), "abs")
    record["errors"] = checks.errors
    record["fail_frac"] = failed / attempted
    record["problems"] = problems

    print("record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:28s} {m['value']:.6g} {m['unit']}")
    if "latency" in record:
        lat = record["latency"]
        print(f"{args.workload:14s} {'median call (not a metric)':28s} {lat['p50_ms']:.6g} ms "
              f"of {lat['samples']} calls")
        print(f"{args.workload:14s} {'tail call (not a metric)':28s} {lat['tail_ms']:.6g} ms "
              f"(p{lat['tail_percentile']})")
    print(f"{args.workload:14s} {'fail_frac':28s} {record['fail_frac']:.6g} "
          f"({failed} of {attempted} calls)")
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
