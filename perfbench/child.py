"""Child process of the benchmark: set up one workload, run it, report.

``run.py`` starts this file in a fresh interpreter. In ``setup`` mode it
only imports the program and builds the inputs, then prints the
monotonic time at which the first operation could be issued; in ``run``
mode it goes on to the timed phase and prints the raw measurements as one
JSON line. ``digests`` mode records the report digests of the seed-free
CLI calls that pass their oracle into ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")


def import_program():
    """Import ``inclab`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import inclab
    import inclab.cli  # noqa: F401  (part of the set-up every CLI user pays)

    if not os.path.abspath(inclab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"inclab was imported from {inclab.__file__}, not from {SRC}")
    return inclab


def warm_up(inclab) -> None:
    """One small solve, so BLAS threads and first-call paths are ready.
    It touches no cache a workload relies on."""
    inclab.polarization_tensor(inclab.discretize(inclab.Ellipse(1.0, 1.0), 64), 2.0)


def percentile(values, q: int) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(one_pass, seconds: float, single: bool):
    """Closed loop over whole passes of the plan.

    Another pass starts while it is expected to end no later than half a
    pass after the deadline, so a run makes round(seconds / pass) passes
    and at least one. A traced run (``single``) makes exactly one pass, so
    its counts repeat exactly. Returns wall and CPU seconds per pass.
    """
    walls, cpu = [], []
    begin = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        one_pass()
        walls.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        elapsed = time.perf_counter() - begin
        if single or elapsed + walls[-1] / 2 > seconds:
            return walls, cpu


def run_shapeopt(inclab, plan, seconds, tracer):
    from tracing import rebind
    from workloads import check_shapeopt

    import inclab.shapeopt as shapeopt

    latencies = []
    original = shapeopt.objective

    def timed(problem, coeffs):
        # One objective evaluation is one operation; Nelder-Mead issues
        # the next only after this one returns.
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            return original(problem, coeffs)
        finally:
            latencies.append(time.perf_counter() - t0)

    rebind(original, timed)
    traces = []
    walls, cpu = run_passes(
        lambda: traces.append(inclab.minimize_trace(plan.problem, plan.start)),
        seconds, tracer is not None,
    )
    attempted = failed = 0
    problems = []
    for trace in traces:
        bad, why = check_shapeopt(trace, float(plan.problem.area), plan.problem.k.k)
        attempted += trace.evaluations
        failed += bad
        problems += why
    return walls, cpu, latencies, attempted, failed, problems, []


def run_plan(inclab, plan, seconds, tracer):
    latencies = []
    outputs = []

    def one_pass():
        for op in plan:
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # an operation that raises has failed
                out, err = None, exc
            latencies.append(time.perf_counter() - t0)
            outputs.append((op, out, err))

    walls, cpu = run_passes(one_pass, seconds, tracer is not None)
    failed = 0
    problems = []
    for op, out, err in outputs:
        why = [f"raised {type(err).__name__}: {err}"] if err is not None else op.check(out)
        if why:
            failed += 1
            problems.append(f"{op.label}: {'; '.join(why)}")
    return walls, cpu, latencies, len(outputs), failed, problems, outputs


def probe_defects(workload: str, seed: int) -> list[str]:
    """Run the workload's known-defect probes, untimed; one line each."""
    from workloads import defect_probes

    lines = []
    for op in defect_probes(workload, seed):
        try:
            why = op.check(op.call())
        except Exception as exc:
            why = [f"raised {type(exc).__name__}: {exc}"]
        lines.append(f"{op.label}: {'; '.join(why) if why else 'passes'}")
    return lines


def reports_identical(outputs) -> float:
    """Share of seed-free CLI reports whose bytes match the stored digest."""
    from workloads import digest

    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        return 0.0
    compared = matched = 0
    for op, out, err in outputs:
        if err is None and op.digest_key in stored:
            compared += 1
            matched += digest(out[1]) == stored[op.digest_key]
    return matched / compared if compared else 0.0


def record_digests() -> None:
    from workloads import build_plan, digest

    stored = {}
    for workload in ("sweep", "potentials"):
        for op in build_plan(workload, 0):
            if op.digest_key is None:
                continue
            output = op.call()
            if not op.check(output):  # a failing report is no reference
                stored[op.digest_key] = digest(output[1])
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"digests": len(stored), "file": os.path.relpath(DIGESTS, ROOT)}))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "digests"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    inclab = import_program()
    if args.mode == "digests":
        record_digests()
        return 0
    from workloads import build_plan

    plan = build_plan(args.workload, args.seed)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    warm_up(inclab)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runner = run_shapeopt if args.workload == "shapeopt" else run_plan
    walls, cpu, latencies, attempted, failed, problems, outputs = runner(
        inclab, plan, args.seconds, tracer
    )

    from machine import machine_block

    result = {
        "ready": ready,
        "passes": len(walls),
        "pass_walls_s": walls,
        "pass_cpu_s": cpu,
        "samples": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "wall_s": statistics.median(walls),
        "ops_per_s": attempted / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "machine": machine_block(ROOT, args.seed),
    }
    if tracer is not None:
        layer = tracer.metrics(wall_s=sum(walls))
        layer["cli.reports_identical"] = reports_identical(outputs)
        selfcheck = tracer.self_check()
        layer["trace.selfcheck_failures"] = len(selfcheck)
        result["layer"] = layer
        result["selfcheck"] = selfcheck
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    # after the trace is summed up, so the probes add no spans to it
    result["known_defects"] = probe_defects(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
