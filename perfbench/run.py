"""Run one workload of the lfunlab benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from src/).
Each round is one fresh interpreter (worker.py) that builds the workload's
inputs and runs its evaluations once, so module-level caches start cold as
they do for a user.  Rounds repeat until --seconds have passed (at least
one).  With --trace 0, set-up is also timed in processes that stop before
evaluating, one after each round and then as many as the run needs to hold
MIN_SETUP_SAMPLES set-up samples.  Every evaluation of every round is
checked (checks.py) outside the timed region.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:
medians over the run's rounds.  With --trace 1 one more round runs with
spans around every layer (spans.py), and the metrics are the per-layer ones;
`trace.overhead_s` is that round's run_s minus the untraced median.

No input is random: --seed only labels the run.  Lines before the last
record each evaluation's value, error estimate and check deviations; the
last line is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUP_SAMPLES = 25
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

from checks import check, references  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, *, trace: bool = False, setup_only: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and return its result object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    t0 = time.time()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--t0", repr(t0),
        "--trace", str(int(trace)),
        "--setup-only", str(int(setup_only)),
    ]  # fmt: skip
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker for {workload!r} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def layer_metrics(traced: dict, untraced_run_s: float, cpu_s: float) -> dict:
    """Per-layer values of one traced round, keyed as in BENCHMARK.json."""
    t = traced["trace"]
    fns = t["functions"]

    def fn(name: str, key: str):
        return fns.get(name, {}).get(key, 0)

    out = {f"{layer}.self_s": s for layer, s in t["self_s"].items()}
    for name in (
        "exactarith.kloosterman",
        "special.log_gamma",
        "quadrature.gauss_legendre_panels",
        "mpmath.zeta",
        "heckegl3.coefficient_block",
    ):
        out[f"{name}.calls"] = fn(name, "calls")
        out[f"{name}.s"] = fn(name, "s")
    out["special.log_gamma.points"] = fn("special.log_gamma", "count")
    out["quadrature.gauss_legendre_panels.nodes"] = fn("quadrature.gauss_legendre_panels", "count")
    weights = ("afe.gl2_afe_weight", "afe.rankin_selberg_afe_weight")
    out["afe.weight.calls"] = sum(fn(w, "calls") for w in weights)
    out["afe.weight.s"] = sum(fn(w, "s") for w in weights)
    uv = t["uv_cache"]
    lookups = uv["hits"] + uv["misses"]
    out["kuznetsov.uv_cache.hits"] = uv["hits"]
    out["kuznetsov.uv_cache.misses"] = uv["misses"]
    out["kuznetsov.uv_cache.hit_ratio"] = uv["hits"] / lookups if lookups else 0.0
    out["util.ordered_parallel_map.s"] = t["map_s"]
    out["util.ordered_parallel_map.busy_ratio"] = t["map_busy_ratio"]
    out["process.cpu_s"] = cpu_s
    out["trace.overhead_s"] = traced["run_s"] - untraced_run_s
    return out


def select(values: dict, specs: list) -> dict:
    """The metrics BENCHMARK.json names, with their units; 0 for a layer the
    workload never entered."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one lfunlab benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="labels the run; no input is random")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "lfunlab" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"needs src/lfunlab and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())

    try:
        rounds, setups = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(spawn(args.workload))
            setups.append(rounds[-1]["setup_s"])
            if not args.trace:
                setups.append(spawn(args.workload, setup_only=True)["setup_s"])
        traced = spawn(args.workload, trace=True) if args.trace else None
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn(args.workload, setup_only=True)["setup_s"])
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    ref = references(args.workload)
    attempted = failed = 0
    correct = True
    for i, r in enumerate(rounds + ([traced] if traced else [])):
        for ev in r["evaluations"]:
            attempted += 1
            record = {"round": i, "traced": r is traced, "round_run_s": r["run_s"], "evaluation": ev["name"]}
            if "error" in ev:
                failed += 1
                record["error"] = ev["error"]
            else:
                findings = check(args.workload, ev["name"], ev["value"], ref)
                record["value"] = ev["value"]
                record["findings"] = [f.as_dict() for f in findings]
                bad = [f for f in findings if not f.ok]
                if bad:
                    failed += 1
                    # a failure the named program fault explains is counted,
                    # but only an unexplained one makes the run incorrect
                    correct = correct and all(f.explained for f in bad)
            print(json.dumps(record))

    run_s = statistics.median(r["run_s"] for r in rounds)
    if args.trace:
        values = layer_metrics(traced, run_s, statistics.median(r["cpu_s"] for r in rounds))
        metrics = select(values, bench["per_layer"])
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = select(values, bench["end_to_end"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
