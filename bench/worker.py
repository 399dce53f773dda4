"""One benchmark workload in a process of its own.

Started by run.py: imports fhkex from the checkout's ``src``, prepares the
workload's inputs from the seed, prints ``READY``, then runs operations
through ``fhkex.cli.main(argv)`` until ``--seconds`` have passed, checks
every call's outputs, and prints one JSON summary as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

from tracer import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

FROZEN_MIN_N = {64: 156, 128: 295, 256: 567}
SESSION_ROUNDS = 2000
FRONTIER_CSV_TRIALS = 20


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def axis(start: int, stop: int, step: int) -> list[int]:
    return list(range(start, stop + 1, step))


# ---------------------------------------------------------------- output checks


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        records = [rec for rec in csv.reader(fh) if rec]
    require(bool(records), f"{path.name} is empty")
    return records[0], records[1:]


def check_sweep_csv(path: Path, result_columns, points: set, trials: int) -> list[dict]:
    """Header, one row per grid point, ci_lo <= p_hat <= ci_hi inside [0, 1]."""
    header, records = read_csv(path)
    require(tuple(header) == tuple(result_columns), f"sweep header {header}")
    rows = [dict(zip(header, rec)) for rec in records]
    require(all(len(rec) == len(header) for rec in records), "sweep row with a missing field")
    keys = [(int(r["k"]), int(r["n"]), float(r["d_be"]), float(r["sigma"])) for r in rows]
    require(len(keys) == len(points) and set(keys) == points, f"{len(keys)} rows for {len(points)} grid points")
    for r in rows:
        lo, p, hi = float(r["ci_lo"]), float(r["p_hat"]), float(r["ci_hi"])
        require(0.0 <= lo <= p <= hi <= 1.0, f"interval {lo} <= {p} <= {hi} violated")
        require(int(r["trials"]) == trials, f"row reports {r['trials']} trials")
    return rows


def sweep_diagnostics(rows: list[dict]) -> dict:
    """Rows per (d_be, sigma) slice, and rows whose estimate misses the closed form by > 3 half-widths."""
    slices = {(r["d_be"], r["sigma"]) for r in rows}
    outside = sum(
        1 for r in rows
        if r["p_analytic"] != ""
        and abs(float(r["p_hat"]) - float(r["p_analytic"])) > 1.5 * (float(r["ci_hi"]) - float(r["ci_lo"]))
    )
    return {"rows_per_slice": len(rows) / len(slices), "mc_outside_3hw": outside, "grid_points": len(rows)}


def check_frontier_csv(path: Path, d_values: list[float], n_values: list[int]) -> None:
    """One row per distance in order; min_n on the n axis and non-increasing in d_be."""
    header, records = read_csv(path)
    require(header == ["d_be", "min_n", "status"], f"frontier header {header}")
    require([float(rec[0]) for rec in records] == sorted(d_values), "frontier distances")
    previous = math.inf
    for _, min_n, status in records:
        if status == "ok":
            value = int(min_n)
            require(value in n_values, f"frontier min_n {value} not on the n axis")
        else:
            require(status == "infeasible" and min_n == "", f"frontier row {min_n!r}, {status!r}")
            value = math.inf
        require(value <= previous, "frontier increases with d_be")
        previous = value


def check_session(out: Path, n_rounds: int) -> None:
    """Key length equals the transcript's bit count; secret <= generated."""
    with open(out / "transcript.csv", newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    key_lines = [line for line in lines if line.startswith("# key=")]
    require(len(key_lines) == 1, "transcript has no key line")
    key = key_lines[0][len("# key="):]
    records = list(csv.reader(line for line in lines if not line.startswith("#")))
    header, rows = records[0], records[1:]
    outcome = header.index("outcome")
    generated = sum(1 for rec in rows if rec[outcome] == "bit")
    require(len(rows) == n_rounds, f"transcript has {len(rows)} of {n_rounds} slots")
    require(len(key) == generated, f"key of {len(key)} bits, {generated} bit slots")
    header, trace = read_csv(out / "eve_trace.csv")
    correct = header.index("correct")
    judged = [rec[correct] for rec in trace if rec[correct] != ""]
    require(len(trace) == n_rounds, f"eve trace has {len(trace)} of {n_rounds} slots")
    require(len(judged) == generated, f"eve judged {len(judged)} of {generated} bits")
    secret = judged.count("0")
    require(0 <= secret <= generated, f"secret {secret} > generated {generated}")


MIN_N_RE = re.compile(r"minimum transmissions for k=(\d+) at target [0-9.]+: (\d+)")


def check_min_n(stdout: str, k: int, expected: int | None) -> None:
    match = MIN_N_RE.search(stdout)
    require(match is not None and int(match.group(1)) == k, "no minimum-transmissions line")
    value = int(match.group(2))
    if expected is None:
        require(value >= k, f"minimum transmissions {value} < k {k}")
    else:
        require(value == expected, f"k={k}: minimum transmissions {value}, expected {expected}")


def check_privacy(stdout: str, k: int, n: int) -> None:
    check_min_n(stdout, k, None)
    prob = re.search(rf"P\(L >= {k} \| N={n}\) = (\S+)", stdout)
    require(prob is not None and 0.0 <= float(prob.group(1)) <= 1.0, "no key probability in [0, 1]")
    radius = re.search(rf"privacy radius at N={n}: (\S+) m", stdout)
    require(radius is not None and 0.0 < float(radius.group(1)) < math.inf, "no finite privacy radius")


# ---------------------------------------------------------------- workloads
#
# A workload prepares its inputs once (setup), then each operation is a list
# of (kind, argv, check) calls. Seeds for every call come from --seed.


class Workload:
    trials_per_op = 0

    def __init__(self, fhkex, seed: int, out: Path):
        self.experiments = fhkex.experiments
        self.rng = random.Random(seed)
        self.out = out

    def next_seed(self) -> str:
        return str(self.rng.getrandbits(63))


class MonteCarlo(Workload):
    """One sweep or frontier call per operation; its CSVs are checked and the first kept for diagnostics."""

    COMMAND, ARGS, K, N, D, SIGMA, TRIALS = "", (), (), (), (), 0.0, 0

    def __init__(self, fhkex, seed, out):
        super().__init__(fhkex, seed, out)
        self.points = {(k, n, d, self.SIGMA) for k in self.K for n in self.N for d in self.D}
        self.trials_per_op = len(self.points) * self.TRIALS
        self.diagnostics = None

    def op(self):
        argv = [
            self.COMMAND, "--seed", self.next_seed(), *self.ARGS,
            "--trials", str(self.TRIALS), "--out", str(self.out),
        ]
        return [(self.COMMAND, argv, self.check)]

    def check(self, stdout):
        rows = check_sweep_csv(self.out / "sweep.csv", self.experiments.RESULT_COLUMNS, self.points, self.TRIALS)
        if self.COMMAND == "frontier":
            check_frontier_csv(self.out / "frontier.csv", self.D, self.N)
        if self.diagnostics is None:
            self.diagnostics = sweep_diagnostics(rows)


class SweepDense(MonteCarlo):
    """Criterion-3 shape: one (d_be, sigma) slice, 165 rows, exact closed form."""

    COMMAND = "sweep"
    ARGS = (
        "--k-list", "64,128,256", "--n-list", "60:600:10", "--d-be-list", "60", "--sigma-list", "0",
        "--geometry", "equidistant", "--rule", "ml-pairwise", "--metric", "per-bit-secret",
    )
    K, N, D, SIGMA, TRIALS = (64, 128, 256), axis(60, 600, 10), (60.0,), 0.0, 100


class FrontierShadowed(MonteCarlo):
    """README frontier shape: three slices of 19 rows, sigma = 8, then frontier extraction."""

    COMMAND = "frontier"
    ARGS = (
        "--k-list", "64", "--n-list", "100:1000:50", "--d-be-list", "2,20,35", "--sigma-list", "8",
        "--target", "0.99",
    )
    K, N, D, SIGMA, TRIALS = (64,), axis(100, 1000, 50), (2.0, 20.0, 35.0), 8.0, 200


class CliOneshot(Workload):
    """Closed loop, one client: session --eve, five analyze calls, frontier --from-csv."""

    D = [20.0, 35.0, 60.0, 100.0]
    N = axis(100, 1000, 50)

    def __init__(self, fhkex, seed, out):
        super().__init__(fhkex, seed, out)
        self.source = out / "source"
        self.source.mkdir(parents=True, exist_ok=True)
        argv = [
            "sweep", "--seed", self.next_seed(), "--k-list", "64", "--n-list", "100:1000:50",
            "--d-be-list", "20,35,60,100", "--sigma-list", "8",
            "--trials", str(FRONTIER_CSV_TRIALS), "--out", str(self.source),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = fhkex.cli.main(argv)
        require(rc == 0, f"source sweep exited {rc}")
        points = {(64, n, d, 8.0) for n in self.N for d in self.D}
        rows = check_sweep_csv(
            self.source / "sweep.csv", self.experiments.RESULT_COLUMNS, points, FRONTIER_CSV_TRIALS
        )
        self.diagnostics = sweep_diagnostics(rows)

    def op(self):
        out = str(self.out)
        calls = [(
            "session",
            ["session", "--seed", self.next_seed(), "--n-rounds", str(SESSION_ROUNDS),
             "--d-be", "20", "--eve", "--out", out],
            lambda stdout: check_session(self.out, SESSION_ROUNDS),
        )]
        for k, expected in FROZEN_MIN_N.items():
            calls.append((
                "analyze",
                ["analyze", "--k", str(k), "--pb", "0.5", "--target", "0.99"],
                lambda stdout, k=k, expected=expected: check_min_n(stdout, k, expected),
            ))
        calls.append((
            "analyze",
            ["analyze", "--k", "64", "--sigma", "8", "--d-be", "20", "--n", "400"],
            lambda stdout: check_privacy(stdout, 64, 400),
        ))
        calls.append((
            "analyze",
            ["analyze", "--k", "128", "--sigma", "8", "--d-be", "35"],
            lambda stdout: check_min_n(stdout, 128, None),
        ))
        calls.append((
            "frontier_csv",
            ["frontier", "--from-csv", str(self.source / "sweep.csv"), "--target", "0.99", "--out", out],
            lambda stdout: check_frontier_csv(self.out / "frontier.csv", self.D, self.N),
        ))
        return calls


WORKLOADS = {"sweep-dense": SweepDense, "frontier-shadowed": FrontierShadowed, "cli-oneshot": CliOneshot}


# ---------------------------------------------------------------- per-layer metrics

COUNT_UNIT = "count"

# Per-layer metrics, by function: "calls", "s" (inclusive seconds), "self_s"
# (seconds not covered by child spans), "evals_per_call" (key_prob calls made
# directly by the function, per call), or a counter kept by the tracer.
LAYER_METRICS = (
    ("experiments.simulate_session_counts", ("calls", "slots", "s")),
    ("experiments.run_grid_point", ("calls", "self_s")),
    ("experiments.analytic_prob", ("calls", "s")),
    ("experiments.frontier", ("s",)),
    ("experiments.write_result_csv", ("bytes", "s")),
    ("experiments.read_result_csv", ("bytes", "s")),
    ("analysis.key_prob", ("calls", "s")),
    ("analysis.min_transmissions", ("calls", "evals_per_call", "s")),
    ("analysis.privacy_radius", ("calls", "evals_per_call", "s")),
    ("protocol.run_session", ("calls", "slots", "s")),
    ("protocol.write_transcript_csv", ("bytes", "s")),
    ("adversary.simulate_eavesdropper", ("calls", "rounds", "s")),
    ("adversary.write_adversary_trace_csv", ("bytes", "s")),
    ("adversary.pg_closed_form", ("calls",)),
    ("channel.rss", ("calls", "s")),
    ("scenario.build_deployment", ("calls", "s")),
    ("cli.main", ("calls", "self_s")),
)
DIAGNOSTICS = ("rows_per_slice", "mc_outside_3hw", "grid_points")


def _members(name: str, wrapped: set) -> list[str]:
    """Wrapped functions behind one metric name; both build_*_deployment functions count as one."""
    if name == "scenario.build_deployment":
        return sorted(f for f in wrapped if re.fullmatch(r"scenario\.build_\w*deployment", f))
    return [name] if name in wrapped else []


def layer_metrics(tracer, diagnostics: dict) -> tuple[dict, list[str]]:
    """Counts come from operation 0, so they repeat exactly; seconds are medians over operations."""
    first, ops = tracer.op_stats[0], tracer.op_stats
    metrics, absent = {}, []
    for name, kinds in LAYER_METRICS:
        members = _members(name, tracer.wrapped)
        for kind in kinds:
            metric = f"{name}.{kind}"
            if not members or (kind not in ("calls", "s", "self_s", "evals_per_call")
                               and any(f in tracer.broken_counters for f in members)):
                absent.append(metric)
            elif kind == "calls":
                metrics[metric] = {"value": sum(first.calls[f] for f in members), "unit": COUNT_UNIT}
            elif kind in ("s", "self_s"):
                value = statistics.median([sum(getattr(op, kind)[f] for f in members) for op in ops])
                metrics[metric] = {"value": value, "unit": "s"}
            elif kind == "evals_per_call":
                if "analysis.key_prob" not in tracer.wrapped:
                    absent.append(metric)
                    continue
                evals = first.nested[(name, "analysis.key_prob")]
                metrics[metric] = {"value": evals / max(first.calls[name], 1), "unit": COUNT_UNIT}
            else:
                metrics[metric] = {"value": first.counters[f"{name}.{kind}"], "unit": COUNT_UNIT}

    run_session = "protocol.run_session"
    if "protocol.run_session.slots" in metrics:
        slots = first.counters[f"{run_session}.slots"]
        bits = first.counters[f"{run_session}.bits"]
        metrics["protocol.bits_per_slot"] = {"value": bits / slots if slots else 0.0, "unit": "1"}
    else:
        absent.append("protocol.bits_per_slot")
    for key in DIAGNOSTICS:
        metrics[f"experiments.{key}"] = {"value": diagnostics.get(key, 0), "unit": COUNT_UNIT}
    for layer in LAYERS:
        names = [f for f in tracer.wrapped if f.startswith(layer + ".")]
        value = statistics.median([sum(op.self_s[f] for f in names) for op in ops])
        metrics[f"{layer}.self_s"] = {"value": value, "unit": "s"}
    metrics["trace.spans_per_op"] = {"value": first.spans, "unit": COUNT_UNIT}
    return metrics, absent


# ---------------------------------------------------------------- main loop


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter work and small numpy calls that use no fhkex code.

    The host's speed drifts by +-20% over tens of seconds. run.py divides
    each measured time by this kernel's time measured beside it, which
    removes most of that drift (see README.md, "Noise").
    """
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(50_000):
        total += i * i
    for i in range(25_000):
        table[i & 255] = total % 7
        total += len(table)
    rng = numpy.random.default_rng(12345)
    for _ in range(500):
        bits = rng.integers(0, 2, size=400)
        total += int((bits[0::2] != bits[1::2]).sum())
    return time.perf_counter() - start


def run_call(cli, argv):
    """One fhkex.cli.main call: (exit code or None, latency, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation; the run goes on
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def import_fhkex():
    sys.path.insert(0, str(SRC))
    import fhkex
    import fhkex.cli

    if Path(fhkex.__file__).resolve().parent != (SRC / "fhkex").resolve():
        raise SystemExit(f"fhkex imported from {fhkex.__file__}, not from {SRC}")
    return fhkex


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="scratch directory for CLI outputs")
    parser.add_argument("--spans", help="file for the spans of the first traced operation")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        fhkex = import_fhkex()
        import scipy

        workload = WORKLOADS[args.workload](fhkex, args.seed, out)
        print("READY", flush=True)
        start_ref = statistics.median(reference_kernel() for _ in range(3))
        if args.setup_only:
            print(json.dumps({"start_ref_s": start_ref}), flush=True)
            return 0

        tracer = None
        if args.trace:
            tracer = Tracer(always=[name for name, _ in LAYER_METRICS])
            tracer.install(fhkex.__name__)

        op_walls, calls, failures, refs = [], [], [], [reference_kernel()]
        attempted = failed = nonzero = 0
        deadline = time.perf_counter() + args.seconds
        op = 0
        while True:
            if tracer:
                tracer.begin_op(op)
            wall = 0.0
            for kind, argv, check in workload.op():
                rc, latency, stdout, stderr = run_call(fhkex.cli, argv)
                wall += latency
                attempted += 1
                calls.append((kind, op, latency))
                problem = None
                if rc != 0:
                    nonzero += 1
                    problem = f"exit {rc}: {stderr.strip()[-500:]}"
                else:
                    try:
                        check(stdout)
                    except (CheckFailed, OSError, ValueError, IndexError, KeyError) as exc:
                        problem = f"check: {exc!r}"
                if problem:
                    failed += 1
                    if len(failures) < 5:
                        failures.append(f"{' '.join(argv[:3])}: {problem}")
            if tracer:
                tracer.end_op()
            op_walls.append(wall)
            refs.append(reference_kernel())
            op += 1
            if time.perf_counter() >= deadline:
                break

        summary = {
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "start_ref_s": start_ref,
            "op_walls": op_walls,
            "refs": refs,
            "calls": calls,
            "trials_per_op": workload.trials_per_op,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "diagnostics": workload.diagnostics,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "fhkex": getattr(fhkex, "__version__", "unknown"),
            },
        }
        if tracer:
            metrics, absent = layer_metrics(tracer, workload.diagnostics or {})
            metrics["cli.main.nonzero_exits"] = {"value": nonzero, "unit": COUNT_UNIT}
            summary["layers"], summary["absent"] = metrics, absent
            if args.spans:
                tracer.write_spans(args.spans)
        print(json.dumps(summary), flush=True)
        return 0
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
