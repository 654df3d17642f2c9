"""Benchmark launcher for solenoidlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload (workloads.py) for about S seconds, each in
a fresh worker process (worker.py) whose BLAS thread pool is pinned to
BLAS_THREADS.  Times are in seconds at reference speed (speed.py).

--trace 0  At least one repetition.  Reports the medians of wall_s, cpu_s
           and peak_rss_mb over the repetitions, and of setup_s over the
           repetitions plus SETUP_PROBES processes that only set up.
--trace 1  Alternates plain and traced repetitions, at least one of each.
           Reports the per-layer metrics (lower medians over the traced
           repetitions, so counts stay whole) and trace.overhead_s, the
           traced minus the plain median wall time.

A repetition whose check fails, whose call raises, or whose output digest
differs from the other repetitions' counts as a failed operation.  The
next-to-last stdout line is a JSON record of the machine, the versions, the
seed and every repetition; the last line is the result.  If a worker cannot
set up (for instance, without the library's sources) the launcher exits
non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS threads per worker.  A second OpenBLAS thread inside eval_deriv's
#: matmul doubles cpu_s and ties wall_s to whatever else the machine runs.
BLAS_THREADS = 1
PINNED_ENV = {
    name: str(BLAS_THREADS)
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
SETUP_PROBES = 5
#: A run must end within 180 s; no worker is started or kept past this.
HARD_LIMIT_S = 160.0

#: End-to-end metrics: (name, unit, better).
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]


class WorkerError(RuntimeError):
    pass


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def start_worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(
            [*cmd, "--mode", mode],
            cwd=ROOT,
            env={**os.environ, **PINNED_ENV},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Worker records of one run, in the order they ran."""
    start = time.perf_counter()
    deadline = start + min(seconds, HARD_LIMIT_S)
    records = []
    if not trace:
        for _ in range(SETUP_PROBES):
            records.append(start_worker(workload, seed, "setup", HARD_LIMIT_S))
    modes = ("plain", "traced") if trace else ("plain",)
    longest = 0.0
    for n in itertools.count():
        now = time.perf_counter()
        # start another repetition only if it would end less than half a
        # repetition past the deadline, and before the hard limit
        left = start + HARD_LIMIT_S - now
        if n >= len(modes) and (now + longest / 2 > deadline or longest > left):
            break
        rec = start_worker(workload, seed, modes[n % len(modes)], max(1.0, left))
        longest = max(longest, time.perf_counter() - now)
        records.append(rec)
    return records


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records if key in r)


def summarize(records: list[dict], trace: bool) -> dict:
    """The result line: failures counted, metrics as medians with units."""
    reps = [r for r in records if r["mode"] != "setup"]
    digests = Counter(r["digest"] for r in reps if r["ok"])
    expected = digests.most_common(1)[0][0] if digests else None
    failed = sum(1 for r in reps if not r["ok"] or r["digest"] != expected)
    if trace:
        traced = [r for r in reps if r["mode"] == "traced"]
        plain = [r for r in reps if r["mode"] == "plain"]
        metrics = {}
        for name, unit, _ in PER_LAYER:
            values = [r["layers"][name] for r in traced if name in r.get("layers", {})]
            if values:
                metrics[name] = {"value": statistics.median_low(values), "unit": unit}
        overhead = _median(traced, "wall_s") - _median(plain, "wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            name: {"value": _median(records if name == "setup_s" else reps, name), "unit": unit}
            for name, unit, _ in END_TO_END
        }
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}


def raw_medians(records: list[dict]) -> dict:
    """Medians of the times as measured, and of the speeds they were taken at."""
    raws = [r["raw"] for r in records]
    return {
        key: statistics.median(raw[key] for raw in raws if key in raw)
        for key in ("wall_s", "cpu_s", "setup_s", "setup_speed")
        if any(key in raw for raw in raws)
    } | {"speed": statistics.median(r["speed"] for r in records if "speed" in r)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="solenoidlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    trace = bool(args.trace)
    try:
        records = collect(args.workload, args.seed, args.seconds, trace)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "blas_threads": BLAS_THREADS,
        **records[0]["env"],
        "system_wide_tracing": "none: only the workers' own clocks, getrusage and layers.py",
        "raw_medians": raw_medians(records),
        "digests": sorted({str(r.get("digest")) for r in records if r["mode"] != "setup"}),
        "reps": [{k: v for k, v in r.items() if k != "env"} for r in records],
    }
    print(json.dumps(info))
    print(json.dumps(summarize(records, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
