"""One workload process: set-up, then one round of ops.  Started by run.py,
to which it talks in JSON lines.

It imports siegelkit from the checkout's src/, runs the workload's set-up and
prints a ready line; run.py times set-up up to that line.  ``--setup-only``
stops there.  Otherwise it runs the round's ops back to back and prints each
op's time and failed checks; ``--trace 1`` adds a run of each op with spans
installed.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def timed(op):
    start = time.perf_counter()
    try:
        failures = op()
    except Exception as err:        # a failed op is counted, never fatal
        failures = [f"raised:{type(err).__name__}:{err}"]
    return time.perf_counter() - start, failures


def import_siegelkit():
    sys.path.insert(0, str(ROOT / "src"))
    import siegelkit
    if Path(siegelkit.__file__).resolve().parent != ROOT / "src" / "siegelkit":
        raise SystemExit(f"siegelkit imported from {siegelkit.__file__}, not from the checkout")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_siegelkit()
    import spans
    import workloads
    from siegelkit import thetaforms

    cache_info = thetaforms.short_vectors.cache_info    # the lru_cache, before spans wrap it
    ops, setup_failures = workloads.setup(args.workload, args.seed)
    emit({"ready": True})
    if args.setup_only:
        return 0

    # Traced, each op also runs untraced just before, so the overhead compares
    # neighbours in time.  A cold examples-table can run only once per process.
    plain = not (args.trace and args.workload == "certify-cold")
    tracer = spans.Tracer()
    before = cache_info()
    samples = []
    for name, op in ops:
        sample = {"op": name, "failures": []}
        if plain:
            sample["time"], sample["failures"] = timed(op)
        if args.trace:
            tracer.install()
            sample["traced_time"], failures = timed(op)
            tracer.uninstall()
            sample["failures"] += failures
        samples.append(sample)
    out = {"samples": samples, "setup_failures": setup_failures}
    if args.trace:
        after = cache_info()
        out["layers"] = {
            "stats": tracer.stats,
            "kept": sum(len(vectors) for _, _, vectors in tracer.kept),
            "cache_hits": after.hits - before.hits,
            "cache_misses": after.misses - before.misses,
        }
        out["layer_failures"] = workloads.trace_failures(args.workload, tracer)
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
