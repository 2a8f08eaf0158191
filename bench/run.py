"""siegelkit benchmark: one closed-loop client, one op at a time.

    python3 bench/run.py --workload {certify-cold,period-geometry,query-mix}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones.
Before the result, one JSON line records the machine, the sample count and
the error rate.  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 2 without a result when the library is missing or a worker crashes.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from worker import ROOT

WORKER = str(Path(__file__).resolve().parent / "worker.py")
WORKLOADS = ("certify-cold", "period-geometry", "query-mix")
SETUP_SAMPLES = 5


class WorkerError(RuntimeError):
    pass


def machine_facts():
    import numpy
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                get = getattr(handle, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                threads = get()
                break
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "openblas_threads": threads,
            "SIEGELKIT_THREADS": os.environ.get("SIEGELKIT_THREADS")}


def spawn(workload, seed, trace=0, setup_only=False):
    """Run one worker; returns (set-up seconds, its last JSON line, peak RSS MB)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - start
    lines = proc.stdout.read().splitlines()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode or not ready.strip() or not (setup_only or lines):
        raise WorkerError(f"{workload} worker exited with {proc.returncode}")
    return setup, json.loads(lines[-1]) if lines else None, usage.ru_maxrss / 1024


def rounds(args, traces):
    """Worker processes, one round of the same ops each, until the next round
    would end after --seconds.  Round i runs with trace flag traces[i % len]."""
    out = []
    start = time.perf_counter()
    last = 0.0
    while len(out) < len(traces) or time.perf_counter() + last - start <= args.seconds:
        began = time.perf_counter()
        trace = traces[len(out) % len(traces)]
        out.append((trace, *spawn(args.workload, args.seed, trace)))
        last = time.perf_counter() - began
    return out


def best_times(results, key="time"):
    """Each op's least time over the rounds: the machine's noise only ever adds."""
    return [min(times) for times in zip(*([s[key] for s in r["samples"]] for r in results))]


def failures_of(results):
    """Failed checks per op run; set-up and trace checks are charged to the first."""
    failures = [s["failures"] for r in results for s in r["samples"]]
    failures[0] = failures[0] + [f for r in results
                                 for f in r["setup_failures"] + r.get("layer_failures", [])]
    return failures


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(args):
    extra = [spawn(args.workload, args.seed, setup_only=True)[0]
             for _ in range(SETUP_SAMPLES - 1)]
    runs = rounds(args, (0,))
    results = [r for _, _, r, _ in runs]
    best = best_times(results)
    metrics = {
        "setup_s": (statistics.median(extra + [setup for _, setup, _, _ in runs]), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (percentile(best, 0.50) * 1e3, "ms"),
        "op_p99_ms": (percentile(best, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (max(rss for *_, rss in runs), "MB"),
    }
    return metrics, failures_of(results), {"rounds": len(runs), "ops_per_round": len(best)}


def per_layer(args):
    cold = args.workload == "certify-cold"
    runs = rounds(args, (0, 1) if cold else (1,))
    results = [r for _, _, r, _ in runs]
    traced = [r for trace, _, r, _ in runs if trace]
    if cold:    # one op per process: compare the best untraced and traced runs
        pairs = zip(best_times([r for trace, _, r, _ in runs if not trace]),
                    best_times(traced, "traced_time"))
    else:
        pairs = ((s["time"], s["traced_time"]) for r in traced for s in r["samples"])
    ops = sum(len(r["samples"]) for r in traced)
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, self_s, raised = (sum(col) for col in zip(*(r["layers"]["stats"][name]
                                                           for r in traced)))
        metrics[f"{name}.calls"] = (calls / ops, "count")
        metrics[f"{name}.self_s"] = (self_s / ops, "s")
        metrics[f"{name}.raised"] = (raised / ops, "count")
    hits, misses, kept = (sum(r["layers"][key] for r in traced)
                          for key in ("cache_hits", "cache_misses", "kept"))
    metrics["thetaforms.short_vectors.vectors_kept"] = (kept / ops, "count")
    metrics["thetaforms.short_vectors.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["trace_overhead_frac"] = (statistics.median(t / u for u, t in pairs) - 1, "ratio")
    return metrics, failures_of(results), {"rounds": len(runs), "traced_ops": ops}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "siegelkit" / "__init__.py").is_file():
        print(f"no siegelkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, failures, detail = (per_layer if args.trace else end_to_end)(args)
    except WorkerError as err:
        print(err, file=sys.stderr)
        return 2
    failed = sum(1 for fs in failures if fs)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine_facts(), "ops": len(failures),
                      "error_rate": failed / len(failures),
                      "failures": [fs for fs in failures if fs][:5], **detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(failures), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
