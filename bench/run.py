#!/usr/bin/env python3
"""gtrel benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout (standard library only, one process and one
thread per workload):

    python3 bench/run.py --workload axioms --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
untraced throughput for half the time, then wraps every layer of gtrel (see
``layertrace.py``) and reports the per-layer metrics of a traced set-up plus
a traced pass.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's environment and its failures.

A pass runs every op of the workload once.  Passes repeat until
``--seconds`` have gone by.  The measuring machine's speed swings by up to
1.7x in phases of a few seconds, so every time is scaled to a reference
speed: a fixed chunk of pure-Python work (``calibration_chunk``) runs
between consecutive ops, and an op's time is multiplied by
``CAL_REF_S`` / (mean time of the chunks either side of it).  Each op's
latency is the median of its scaled times over the passes; throughput and
latency percentiles are taken over these per-op latencies, and ``setup_s``
is the median of several fresh interpreters that import gtrel and build the
workload, each scaled by the chunks timed just before and after it.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "gtrel")
SCRATCH = os.path.join(BENCH, ".scratch")
WORKLOADS = ("axioms", "mults", "build")
SETUP_PROBES = 9
# loop length of calibration_chunk, and the chunk time of the reference
# speed that all times are scaled to (about the chunk time of the 2-core VM
# the benchmark was tuned on, in its fast phases)
CAL_ITERS = 300
CAL_REF_S = 0.001
# chunks timed before and after each set-up probe
CAL_SETUP_CHUNKS = 9

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_gtrel():
    """Put the checkout's src/ first on the path and import gtrel from it."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise SystemExit("bench: gtrel sources not found under src/gtrel")
    sys.path.insert(0, SRC)
    import gtrel

    if os.path.dirname(os.path.abspath(gtrel.__file__)) != PACKAGE:
        raise SystemExit("bench: imported gtrel from %s, not src/gtrel" % gtrel.__file__)


def failure_kind(exc, workloads):
    """(error type, layer it was raised in)."""
    if isinstance(exc, workloads.CliExit):
        # the CLI turns the exception into an exit code, so its traceback is gone
        return exc.error, "cli"
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        path = os.path.abspath(tb.tb_frame.f_code.co_filename)
        if os.path.dirname(path) == PACKAGE:
            layer = os.path.splitext(os.path.basename(path))[0]
        tb = tb.tb_next
    return type(exc).__name__, layer


def calibration_chunk():
    """Fixed pure-Python work of the kind gtrel does: Fraction arithmetic,
    tuple keys and dict updates.  Returns its time in seconds."""
    t0 = perf_counter()
    d = {}
    x = Fraction(1, 3)
    for i in range(CAL_ITERS):
        key = (i % 17, i % 5, Fraction(i, 7))
        d[key] = d.get(key, x) + x
    return perf_counter() - t0


def run_pass(wl, workloads, tracer=None):
    """Run every op once; time each op alone, between two calibration
    chunks, and check it outside the timer."""
    gc.collect()
    for key in wl.counts:
        wl.counts[key] = 0
    if tracer is not None:
        tracer.reset()
    times = []
    chunks = [calibration_chunk()]
    ok = 0
    busy = 0.0
    failures = Counter()
    problems = []
    for op in wl.ops:
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:
            dt = perf_counter() - t0
            kind, layer = failure_kind(exc, workloads)
            failures["%s@%s" % (kind, layer)] += 1
            problems.append("%s: raised %s: %s" % (op.label, kind, exc))
            problem = kind
        else:
            dt = perf_counter() - t0
            if tracer is None:
                problem = op.check(out)
            else:
                with tracer.paused():
                    problem = op.check(out)
            if problem is not None:
                failures["mismatch"] += 1
                problems.append("%s: %s" % (op.label, problem))
            else:
                ok += 1
        busy += dt
        chunks.append(calibration_chunk())
        times.append((dt * 2 * CAL_REF_S / (chunks[-2] + chunks[-1]), problem is None))
    result = {
        "attempted": len(wl.ops),
        "ok": ok,
        "busy": busy,
        "chunk_s": statistics.median(chunks),
        "times": times,
        "failures": failures,
        "problems": problems,
    }
    if tracer is not None:
        result["trace"] = unit_snapshot(tracer, wl)
    return result


def unit_snapshot(tracer, wl):
    snap = tracer.snapshot()
    snap["counts"].update(wl.counts)
    return snap


def run_passes(wl, workloads, seconds, tracer=None):
    """Passes until ``seconds`` are used up; a pass is started only while at
    least half of the last pass's time remains, so runs end near
    ``seconds`` rather than up to a whole pass beyond it."""
    passes = []
    start = perf_counter()
    pass_s = 0.0
    while not passes or perf_counter() + pass_s / 2 < start + seconds:
        t0 = perf_counter()
        passes.append(run_pass(wl, workloads, tracer))
        pass_s = perf_counter() - t0
    return passes


def op_times(passes):
    """(median scaled time over the passes, succeeded in every pass) per op."""
    return [
        (statistics.median(t for t, _ in runs), all(ok for _, ok in runs))
        for runs in zip(*(p["times"] for p in passes))
    ]


def ops_per_s(per_op):
    """Successful ops per second of the time all ops took."""
    return sum(ok for _, ok in per_op) / sum(t for t, _ in per_op)


def probe_setup(workload, seed, count):
    """(scaled, raw) set-up times of ``count`` fresh interpreters, run one
    after another.  Each probe times its own set-up (importing gtrel,
    building the modules and generating the recipes) and scales it by the
    median calibration chunks it times just before and just after."""
    times = []
    raw = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 4 or words[0] != "ready":
            raise RuntimeError("set-up probe failed with exit code %d" % proc.returncode)
        elapsed, before, after = map(float, words[1:])
        raw.append(elapsed)
        times.append(elapsed * 2 * CAL_REF_S / (before + after))
    return times, raw


def end_to_end(passes, setup_s):
    per_op = op_times(passes)
    latencies = [t for t, ok in per_op if ok]
    if len(latencies) < 100:
        raise RuntimeError("only %d ops succeeded; op_p90_ms needs 100" % len(latencies))
    attempted = sum(p["attempted"] for p in passes)
    values = {
        "ops_per_s": ops_per_s(per_op),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        "ok_ratio": sum(p["ok"] for p in passes) / attempted,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}, len(latencies)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def known_defect_probe(workloads, seed):
    """hw_module_of once on each weight of ``workloads.defect_weights``,
    untimed: outcomes by error type and raising layer.  The weights are the
    case-a family that the timed ``build`` recipes leave out, because
    hw_module_of raises StructureViolation on most of them; this keeps the
    defect in every build run's record until it is fixed."""
    outcomes = Counter()
    for lam in workloads.defect_weights(seed):
        try:
            workloads.g.hw_module_of(lam)
        except Exception as exc:
            outcomes["%s@%s" % failure_kind(exc, workloads)] += 1
        else:
            outcomes["ok"] += 1
    return dict(sorted(outcomes.items()))


def measure(args):
    import_gtrel()
    import workloads

    wl = workloads.setup(args.workload, args.seed, SCRATCH)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "threads": 1,
        "ops_per_pass": len(wl.ops),
        "inputs": wl.info,
    }
    if args.trace:
        import layertrace

        base = run_passes(wl, workloads, args.seconds / 2)
        tracer = layertrace.Tracer()
        restore, absent = layertrace.install(tracer)
        try:
            traced_wl = workloads.setup(args.workload, args.seed, SCRATCH)
            setup_snap = unit_snapshot(tracer, traced_wl)
            traced = run_passes(traced_wl, workloads, args.seconds / 2, tracer)
        finally:
            restore()
        same_inputs = [op.label for op in traced_wl.ops] == [op.label for op in wl.ops]
        overhead = 1 - ops_per_s(op_times(traced)) / ops_per_s(op_times(base))
        metrics = layertrace.per_layer_metrics(setup_snap, [p["trace"] for p in traced], overhead)
        passes = base + traced
        record.update(untraced_passes=len(base), traced_passes=len(traced), absent_functions=absent)
    else:
        # half the set-up probes before the passes and half after, so that
        # they meet different phases of the machine's speed
        setup_s, probes = probe_setup(args.workload, args.seed, SETUP_PROBES // 2)
        passes = run_passes(wl, workloads, args.seconds)
        later = probe_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
        setup_s += later[0]
        probes += later[1]
        metrics, samples = end_to_end(passes, statistics.median(setup_s))
        same_inputs = True
        record.update(passes=len(passes), latency_samples=samples, setup_probes_s=probes)
    if args.workload == "build":
        record["known_defect"] = known_defect_probe(workloads, args.seed)

    failures = Counter()
    for p in passes:
        failures.update(p["failures"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(failures.values())
    problems = [msg for p in passes for msg in p["problems"]]
    record.update(
        pass_busy_s=[p["busy"] for p in passes],
        pass_chunk_s=[p["chunk_s"] for p in passes],
        pass_ops_per_s=[p["ok"] / p["busy"] for p in passes],
        failures_by_type_and_layer=dict(sorted(failures.items())),
        fail_ratio=failed / attempted,
        problems=problems[:10],
    )
    correct = same_inputs and failed == 0
    for name, m in metrics.items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"record": record}, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def setup_probe(args):
    before = statistics.median(calibration_chunk() for _ in range(CAL_SETUP_CHUNKS))
    t0 = perf_counter()
    import_gtrel()
    import workloads

    workloads.setup(args.workload, args.seed, SCRATCH)
    elapsed = perf_counter() - t0
    after = statistics.median(calibration_chunk() for _ in range(CAL_SETUP_CHUNKS))
    print("ready %r %r %r" % (elapsed, before, after))


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        os.makedirs(SCRATCH, exist_ok=True)
        try:
            result = measure(args)
        finally:
            for name in os.listdir(SCRATCH):
                if name.endswith("-%d.json" % os.getpid()):
                    os.remove(os.path.join(SCRATCH, name))
            try:
                os.rmdir(SCRATCH)
            except OSError:
                pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
