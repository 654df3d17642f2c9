"""One repetition of one workload, in the fresh process that runs this file.

    python3 perfbench/worker.py --workload NAME --seed N --mode plain|traced|setup

Prints one JSON line: set-up time (import of solenoidlab plus construction
of the inputs), and unless ``--mode setup`` also the wall and CPU time of the
workload call, the process's peak resident memory, the output check and the
output digest.  Times are in seconds at reference speed (speed.py); the
times as measured are under ``raw``.  ``--mode traced`` wraps the layers
(layers.py) and adds the per-layer metrics.  The launcher run.py starts this process with the BLAS
thread pool pinned.  A failing call or check is reported with ``ok: false``;
a failure to set up exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def environment() -> dict:
    """Versions and settings that the timings depend on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    threads = {k: v for k, v in os.environ.items() if k.endswith(("_NUM_THREADS", "_MAX_THREADS"))}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": dict(sorted(threads.items())),
    }


def run_once(workload, inputs, traced: bool) -> dict:
    """Time one call of ``workload`` on ``inputs``, then check its output.

    An exception in the call or the check is a failed operation, recorded
    with its traceback; the timings of the attempt are kept.
    """
    import speed

    tracer = None
    rec: dict = {}
    try:
        if traced:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            # the monitor's samples run on the call's CPU, in place of the
            # call, and all of them inside the timed interval
            cpu0, t0 = time.process_time(), time.perf_counter()
            monitor = speed.Monitor()
            monitor.start()
            try:
                out = workload.call(inputs)
            finally:
                monitor.stop()
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
                rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                rec["speed"] = monitor.speed
                rec["wall_s"] = (wall - monitor.busy_s) * monitor.speed
                rec["cpu_s"] = (cpu - monitor.cpu_s) * monitor.speed
                rec["raw"] = {"wall_s": wall, "cpu_s": cpu, "samples": len(monitor.durations)}
        finally:
            if tracer is not None:
                tracer.uninstall()
                rec["layers"] = tracer.metrics(rec.get("speed", 1.0))
                rec["unbound"] = tracer.missing
        check = workload.check(inputs, out)
        rec.update(ok=check.ok, detail=check.detail, digest=workload.digest(out))
    except Exception:  # a crashing workload is a failed operation, not a crashed run
        rec.update(ok=False, detail=traceback.format_exc(limit=-3), digest=None)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    args = ap.parse_args(argv)

    # one CPU for the call and the speed monitor, so that the monitor samples
    # the CPU the call runs on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    t0 = time.perf_counter()
    import workloads  # imports numpy; solenoidlab comes from the checkout's src/

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup = time.perf_counter() - t0
    import speed

    setup_speed = speed.setup_speed()
    try:
        rec = run_once(workload, inputs, args.mode == "traced") if args.mode != "setup" else {}
    finally:
        workload.cleanup(inputs)
    rec["setup_s"] = setup * setup_speed
    rec.setdefault("raw", {}).update(setup_s=setup, setup_speed=setup_speed)
    rec.update(mode=args.mode, pinned_cpu=cpu, env=environment())
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
