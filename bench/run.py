"""fhkex benchmark: one workload per invocation.

    python3 bench/run.py --workload sweep-dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run, plus the
tracing overhead against an untraced run of the same length. Every run
writes a full record, environment included, to ``bench/out/``.

This process only orchestrates: the workload runs in worker processes of
its own (worker.py), one at a time, each single-threaded, so set-up time and
peak memory belong to that workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT = BENCH_DIR / "out"
WORKLOADS = ("sweep-dense", "frontier-shadowed", "cli-oneshot")

# set-up is measured in this many fresh processes per run (the last one is the measured worker)
SETUP_SAMPLES = 7

# End-to-end times are speed-normalised: a time t measured while the reference
# kernel (worker.reference_kernel) took r seconds is reported as t * REF_S / r.
# The host's speed drifts by +-20% over tens of seconds and the kernel's time
# drifts with it, so the ratio is steadier than raw seconds. REF_S is the
# kernel's typical time on the 2-vCPU machine the benchmark was defined on,
# so normalised seconds read close to real ones there. Raw seconds are kept
# in the run record.
REF_S = 0.015

WORKER_TIMEOUT_S = 120.0

# numpy's BLAS/OpenMP pools read these when numpy is first imported
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    pass


def run_worker(args, index: int, seconds: float, trace: int, extra=()) -> tuple[float, dict]:
    """Start one worker and wait for it: (seconds from start to READY, its summary)."""
    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}-{index}"
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--out", str(scratch), *extra,
    ]
    env = dict(os.environ, **SINGLE_THREAD, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited {code}")
    try:
        return ready, json.loads(last)
    except (TypeError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no summary: {exc}") from exc


def quantile(values: list[float], q: float) -> float:
    """Quantile q in (0, 1) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=20, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def environment(args, loadavg: str, versions: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "versions": versions,
        "git_describe": git_describe(),
    }


def op_scales(summary: dict) -> list[float]:
    """Per operation, REF_S over the mean of the reference times measured just before and after it."""
    refs = summary["refs"]
    return [2.0 * REF_S / (refs[i] + refs[i + 1]) for i in range(len(summary["op_walls"]))]


def normalised_walls(summary: dict) -> list[float]:
    return [wall * scale for wall, scale in zip(summary["op_walls"], op_scales(summary))]


def workload_extras(summary: dict) -> dict:
    """Per-call-kind latencies, throughput and raw seconds, recorded beside the end-to-end metrics."""
    scales = op_scales(summary)
    extras = {
        "ops": len(scales),
        "raw_wall_s": statistics.median(summary["op_walls"]),
        "reference_kernel_s": statistics.median(summary["refs"]),
    }
    by_kind = {}
    for kind, op, latency in summary["calls"]:
        by_kind.setdefault(kind, []).append(latency * scales[op] * 1e3)
    for kind, ms in sorted(by_kind.items()):
        extras[f"{kind}_p50_ms"] = statistics.median(ms)
        extras[f"{kind}_p90_ms"] = quantile(ms, 0.9)
        extras[f"{kind}_samples"] = len(ms)
    if summary["trials_per_op"]:
        extras["trials_per_s"] = summary["trials_per_op"] / statistics.median(normalised_walls(summary))
    extras["fail_frac"] = summary["failed"] / summary["attempted"]
    return extras


def end_to_end(args) -> tuple[dict, dict, dict]:
    probes = [run_worker(args, i, args.seconds, 0, ["--setup-only"]) for i in range(SETUP_SAMPLES - 1)]
    probes.append(run_worker(args, SETUP_SAMPLES, args.seconds, 0))
    summary = probes[-1][1]
    setups = [ready * REF_S / probe["start_ref_s"] for ready, probe in probes]
    scales = op_scales(summary)
    calls = [latency * scales[op] for _, op, latency in summary["calls"]]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(normalised_walls(summary)), "unit": "s"},
        "call_p50_ms": {"value": statistics.median(calls) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
    }
    extras = workload_extras(summary)
    extras["raw_setup_s"] = statistics.median(ready for ready, _ in probes)
    return metrics, extras, summary


def per_layer(args) -> tuple[dict, dict, dict]:
    """Half the time untraced, half traced; the difference in wall_s is the tracing overhead."""
    half = args.seconds / 2.0
    _, plain = run_worker(args, 0, half, 0)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.csv"
    _, traced = run_worker(args, 1, half, 1, ["--spans", str(spans)])
    plain_wall = statistics.median(normalised_walls(plain))
    traced_wall = statistics.median(normalised_walls(traced))
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    extras = {"absent": traced["absent"], "spans_file": str(spans.relative_to(ROOT))}
    summary = dict(traced)
    summary["attempted"] += plain["attempted"]
    summary["failed"] += plain["failed"]
    summary["failures"] = plain["failures"] + traced["failures"]
    return metrics, extras, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fhkex" / "__init__.py").is_file():
        print(f"error: no fhkex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that run_worker's cleanup stops the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().strip()
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        metrics, extras, summary = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(args, loadavg, summary["versions"])
    record = {
        "environment": env,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "failures": summary["failures"],
        "metrics": metrics,
        "extras": extras,
        "diagnostics": summary["diagnostics"],
        "op_walls_s": summary["op_walls"],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in summary["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps({"environment": env, "extras": extras, "record": str(path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
