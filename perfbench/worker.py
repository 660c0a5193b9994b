"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --t0 EPOCH_SECONDS [--trace 1] [--setup-only 1]

`--t0` is the wall-clock time at which the parent started this interpreter;
set-up time runs from there until the first evaluation begins.  The last
line of standard output is one JSON object with the set-up and run times,
the process's CPU time and peak resident memory over the evaluations, and
each evaluation's encoded value or error.  With `--trace 1` the calls into
every layer are recorded as spans (see spans.py), summarized in the output
and written to perfbench/out/<workload>.spans.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident memory of this interpreter (VmHWM).  ru_maxrss would not
    do: Linux carries the forking parent's resident size over into it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    inputs = wl.setup()
    evaluations = wl.evaluations(inputs)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(run_id=f"{args.workload}-{os.getpid()}-{time.time_ns()}")
        tracer.install()

    raw = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for name, call in evaluations:
        try:
            if tracer is not None:
                out = tracer.call(f"{wl.layer}.{name}", wl.layer, call)
            else:
                out = call()
            raw.append((name, out, None))
        except Exception:  # a failed evaluation is counted, not fatal
            raw.append((name, None, traceback.format_exc()))
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = _peak_rss_mb()

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "evaluations": [
            {"name": name, "error": err} if err else {"name": name, "value": wl.encode(out)}
            for name, out, err in raw
        ],
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        from lfunlab import kuznetsov

        result["trace"]["uv_cache"] = kuznetsov.uv_cache_stats()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}.spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
