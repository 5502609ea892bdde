#!/usr/bin/env python3
"""Outside-in benchmark of inclab: four workloads, closed loop, one caller.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

runs one workload and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Earlier lines carry the machine block and run details.

    python3 perfbench/run.py --all

runs every workload untraced and twice traced, prints every metric by
name with its unit, the tracing overhead, and checks that the trace's
counts repeat exactly. See perfbench/README.md.

This process imports nothing from the program. It starts fresh
interpreters (``child.py``): set-up probes that time import plus input
generation, then the child that runs the workload, whose peak RSS comes
from ``wait4``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracing import COUNT_METRICS, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("shapeopt", "sweep", "verify", "potentials")
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    pass


def _child(args: list[str]):
    """Run child.py; return (parsed last stdout line, rusage, start time)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(args)} printed nothing")
    return json.loads(lines[-1]), usage, start


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]

    def probe_setup():
        probe, _, start = _child(["setup", *common])
        return probe["ready"] - start

    # Set-up is timed three times, by probes before and after the workload
    # child and by the child itself, so the median spans the whole run.
    setup = [] if trace else [probe_setup()]
    raw, usage, start = _child(["run", *common, "--seconds", str(seconds), "--trace", str(trace)])
    setup.append(raw["ready"] - start)
    if not trace:
        setup.append(probe_setup())
    if trace:
        metrics = {name: raw["layer"][name] for name in LAYER_METRICS}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": raw["wall_s"],
            "ops_per_s": raw["ops_per_s"],
            "op_p90_ms": raw["op_p90_ms"],
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
        }
        metrics = {name: values[name] for name in END_TO_END}
    units = LAYER_METRICS if trace else END_TO_END
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": raw["passes"],
        "pass_walls_s": raw["pass_walls_s"],
        "pass_cpu_s": raw["pass_cpu_s"],
        "latency_samples": raw["samples"],
        "op_p50_ms": raw["op_p50_ms"],
        "failed_ratio": raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0,
        "setup_samples_s": setup,
        "problems": raw["problems"],
        "known_defects": raw["known_defects"],
        "selfcheck": raw.get("selfcheck"),
        "spans_file": raw.get("spans_file"),
    }
    return {
        "machine": raw["machine"],
        "details": details,
        "result": {
            "correct": raw["failed"] == 0 and raw["attempted"] > 0,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        },
    }


def _save(report: dict) -> None:
    d = report["details"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{d['workload']}-seed{d['seed']}-trace{d['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)


def _fmt(value) -> str:
    if isinstance(value, float) and value != int(value):
        return f"{value:.6g}"
    return str(int(value)) if isinstance(value, float) else str(value)


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and twice traced: all metrics, overhead,
    and the check that trace counts repeat exactly."""
    ok = True
    machine_printed = False
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, 0)
        traced = [run_workload(workload, seed, seconds, 1) for _ in range(2)]
        for report in (plain, *traced):
            _save(report)
        if not machine_printed:
            print("machine", json.dumps(plain["machine"]))
            machine_printed = True
        res, det = plain["result"], plain["details"]
        print(f"\n== {workload} (seed {seed}, {det['passes']} passes, "
              f"{det['latency_samples']} latency samples)")
        for name, m in res["metrics"].items():
            print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']}")
        print(f"  {'op_p50_ms':<28} {_fmt(det['op_p50_ms']):>14} ms (not bounded, see README)")
        print(f"  {'failed_ratio':<28} {_fmt(det['failed_ratio']):>14} "
              f"({res['failed']} of {res['attempted']})")
        layer = traced[0]["result"]["metrics"]
        overhead = layer["trace.wall_s"]["value"] - res["metrics"]["wall_s"]["value"]
        print(f"  {'trace_overhead_s':<28} {_fmt(overhead):>14} s (traced wall_s - untraced wall_s)")
        for name, m in layer.items():
            if m["value"]:
                print(f"  {name:<44} {_fmt(m['value']):>14} {m['unit']}")
        second = traced[1]["result"]["metrics"]
        drift = [n for n in COUNT_METRICS if layer[n]["value"] != second[n]["value"]]
        checks = traced[0]["details"]["selfcheck"]
        print(f"  counts repeat across two traced runs: {'yes' if not drift else drift}")
        print(f"  trace self-check: {'ok' if not checks else checks}")
        for report in (plain, *traced):
            for problem in report["details"]["problems"]:
                print(f"  FAILED {problem}")
        for line in plain["details"]["known_defects"]:
            print(f"  known-defect probe (untimed, not in failed): {line}")
        ok = ok and not drift and not checks and all(
            r["result"]["correct"] for r in (plain, *traced)
        )
    return 0 if ok else 1


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, every metric")
    parser.add_argument("--record-digests", action="store_true",
                        help="store report digests of the seed-free CLI calls")
    args = parser.parse_args()
    try:
        if args.record_digests:
            print(json.dumps(_child(["digests"])[0]))
            return 0
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload is required (or --all)")
        report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    _save(report)
    print(json.dumps({"machine": report["machine"]}))
    print(json.dumps({"details": report["details"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
