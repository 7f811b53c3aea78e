"""One round of one workload, in a fresh process.

Run by ``run.py``, never imported. The process caps its own address space,
times ``import recdist``, runs the workload's operations one after another,
then checks their outputs, and prints one JSON object as its last line:

    {"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "attempted", "failed",
     "failures", "errors", "op_seconds", "layers"}

``wall_s`` and ``cpu_s`` cover the operations only, not the import or the
checks. ``--workload setup`` only times the import.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

#: address-space cap, so a memory regression becomes a failed operation
#: (MemoryError) instead of pressure on the machine
MEM_CAP_MB = 3072
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "recdist")


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                    help="0: untraced, 1: spans and counts, 2: also peak allocations")
    ap.add_argument("--scale", default="full")
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    cap = MEM_CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    t0 = time.perf_counter()
    import recdist

    setup_s = time.perf_counter() - t0
    where = os.path.realpath(recdist.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"recdist was imported from {where}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans
    import workloads

    rnd = workloads.Round(args.workload, args.seed, args.scale, args.work_dir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(peaks=args.trace == 2)
        spans.install(tracer)

    failures = []
    op_seconds = {}
    cpu0, w0 = _cpu_seconds(), time.perf_counter()
    for op in rnd.operations:
        t = time.perf_counter()
        try:
            rnd.outputs[op.name] = op.run()
        except Exception as exc:  # counted and reported, the round goes on
            failures.append({"op": op.name, "type": type(exc).__name__, "message": str(exc)[:200]})
        op_seconds[op.name] = time.perf_counter() - t
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_seconds() - cpu0

    layers = None
    if tracer is not None:
        tracer.enabled = False
        layers = tracer.layer_metrics()
    try:
        errors = rnd.check()
    except Exception as exc:  # an output without the expected shape fails its checks
        errors = [f"checks raised {type(exc).__name__}: {exc}"]
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(rnd.operations),
        "failed": len(failures),
        "failures": failures,
        "errors": errors,
        "op_seconds": op_seconds,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
