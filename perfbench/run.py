"""Run one workload of the recdist benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-dp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The package is imported from
``src/`` of that checkout, never from an installed copy. A run is a sequence
of rounds; each round is one fresh child process (``child.py``) that runs the
workload's operations once and checks their outputs. Rounds repeat until
``--seconds`` are used up, so every run attempts whole rounds.

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over the run's rounds: ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and
``setup_s`` (the time to import recdist, over the rounds and two extra
import-only children). With ``--trace 1`` three kinds of rounds take turns:
untraced, traced with spans, and traced with peak allocations (tracemalloc,
which slows Python code too much to time with). The last line then reports
the per-layer metrics, the import breakdown from ``python -X importtime``,
and the tracing overhead ``trace.overhead_s`` (``wall_s`` of the span rounds
minus that of the untraced rounds).

Exit code 0 means the run finished, whatever the checks said; ``correct`` in
the last line says whether every output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS, parse_importtime
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: a run stops starting rounds after this many seconds and must end by 180 s
DEADLINE_S = 150.0
SETUP_PROBES = 2

#: end-to-end metrics taken as the median over a run's untraced rounds;
#: setup_s also counts the import-only children
ROUND_METRICS = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class ChildError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list, deadline: float, capture_stderr: bool = False) -> tuple:
    """Run a child to its end; returns (stdout, stderr). Kills it at the deadline."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"child {argv[1:4]} overran the run's deadline") from None
    if proc.returncode != 0:
        raise ChildError(f"child {argv[1:4]} exited with {proc.returncode}")
    return out, err


def _child(workload: str, seed: int, trace: int, scale: str, work_dir: Path, deadline: float) -> dict:
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--scale", scale, "--work-dir", str(work_dir),
    ]
    out, _ = _spawn(argv, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise ChildError(f"child for {workload} printed no result")
    return json.loads(lines[-1])


def _import_breakdown(deadline: float) -> dict:
    _, err = _spawn([sys.executable, "-X", "importtime", "-c", "import recdist"], deadline,
                    capture_stderr=True)
    return parse_importtime(err)


def run(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """All rounds of one run; returns the result object printed as the last line."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work_dir = WORK / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [
            _child("setup", seed, 0, scale, work_dir, deadline + 20)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        rounds: dict = {0: [], 1: [], 2: []}  # untraced, spans, peak allocations
        imports = []
        kinds = (0, 1, 2) if trace else (0,)
        measure_start = time.monotonic()
        while True:
            kind = kinds[sum(len(r) for r in rounds.values()) % len(kinds)]
            t = time.monotonic()
            rounds[kind].append(_child(workload, seed, kind, scale, work_dir, deadline + 20))
            if kind == 1:
                imports.append(_import_breakdown(deadline + 20))
            now = time.monotonic()
            complete = all(rounds[k] for k in kinds)
            if complete and (now - measure_start + (now - t) > seconds or now > deadline):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    every = [r for k in kinds for r in rounds[k]]
    _report(workload, rounds)
    plain, spans, peaks = rounds[0], rounds[1], rounds[2]
    med = lambda key, rows: statistics.median(r[key] for r in rows)  # noqa: E731
    if trace:
        metrics = {}
        for name, unit, _ in LAYER_METRICS:
            if name.startswith("import."):
                value = statistics.median(b[name] for b in imports)
            elif name == "trace.overhead_s":
                value = med("wall_s", spans) - med("wall_s", plain)
            else:
                source = peaks if name.endswith("_peak_alloc_mb") else spans
                value = statistics.median(r["layers"][name] for r in source)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": med(name, plain), "unit": unit} for name, unit in ROUND_METRICS}
        metrics["setup_s"] = {"value": statistics.median(setups + [r["setup_s"] for r in plain]), "unit": "s"}
    return {
        "correct": all(not r["errors"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": metrics,
    }


def _report(workload: str, rounds: dict) -> None:
    """Human-readable lines before the result: rounds, failures, slow operations."""
    kinds = ("untraced", "spans", "peak allocations")
    for kind, rows in rounds.items():
        for r in rows:
            print(f"{workload} round ({kinds[kind]}): wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
                  f"peak rss {r['peak_rss_mb']:.0f} MB, import {r['setup_s']:.3f} s, "
                  f"{r['attempted']} operations, {r['failed']} failed")
    plain = rounds[0]
    for f in plain[0]["failures"]:
        print(f"  failed each round: {f['op']}: {f['type']}: {f['message']}")
    ops = plain[0]["op_seconds"]
    for name in sorted(ops, key=ops.get, reverse=True)[:12]:
        print(f"  untraced {name}: {statistics.median(r['op_seconds'][name] for r in plain):.3f} s")
    for rows in rounds.values():
        for r in rows:
            for e in r["errors"]:
                print(f"CHECK FAILED: {e}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="input sizes; 'small' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "recdist" / "__init__.py").is_file():
        print(f"no recdist sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except ChildError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
