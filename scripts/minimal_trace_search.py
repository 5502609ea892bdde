#!/usr/bin/env python3
"""Search for the area-constrained shape minimizing the polarization-tensor trace.

Runs BFGS on the analytic shape gradient over area-preserving Fourier
perturbations of the disk, then reports how far the best shape found sits above the disk
value and how large its residual perturbation coefficients are.  Artifacts
written to the output directory:

  minimal_trace_summary.json  final objective, gap, coefficients
  minimal_trace_trace.jsonl   one record per objective evaluation
  minimal_trace_overlay.svg   initial shape, optimized shape, and the disk
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from inclab.serialize import to_json, to_jsonl
from inclab.shapeopt import OptProblem, disk_verdict, minimize_trace, overlay_svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=float, default=3.0, help="conductivity contrast (> 1)")
    parser.add_argument("--m-max", type=int, default=6, help="highest Fourier mode perturbed")
    parser.add_argument("--n", type=int, default=256, help="boundary nodes per shape evaluation")
    parser.add_argument("--max-iter", type=int, default=4000, help="BFGS iteration cap")
    parser.add_argument(
        "--start", type=float, nargs=2, default=None,
        metavar=("EPS2", "EPS3"),
        help="initial cosine amplitudes of modes 2 and 3 (default: OptProblem.start)",
    )
    parser.add_argument("--out", default="artifacts", help="output directory")
    args = parser.parse_args()

    problem = OptProblem(k=args.k, m_max=args.m_max, n=args.n, max_iter=args.max_iter)
    initial = problem.start() if args.start is None else problem.start(args.start)

    trace = minimize_trace(problem, initial)
    disk = problem.disk_value
    verdict = disk_verdict(problem, trace)

    os.makedirs(args.out, exist_ok=True)
    summary = {
        "k": args.k,
        "disk_value": disk,
        "final_objective": trace.final_objective,
        "relative_gap": verdict["relative_gap"],
        "max_abs_coefficient": verdict["max_coefficient"],
        "undercut": verdict["disk_undercut"],
        "evaluations": trace.evaluations,
        "converged": trace.converged,
        "final_coefficients": trace.final_coefficients,
    }
    with open(os.path.join(args.out, "minimal_trace_summary.json"), "w", encoding="utf-8") as fh:
        fh.write(to_json(summary) + "\n")
    with open(os.path.join(args.out, "minimal_trace_trace.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(trace.history))
    with open(os.path.join(args.out, "minimal_trace_overlay.svg"), "w", encoding="utf-8") as fh:
        fh.write(overlay_svg(problem, trace, initial))

    print(f"contrast k = {args.k}, {problem.dof} degrees of freedom, "
          f"{trace.evaluations} objective evaluations")
    print(f"disk trace value     {disk:.12f}")
    print(f"best trace found     {trace.final_objective:.12f}")
    print(f"relative gap         {verdict['relative_gap']:.3e}")
    print(f"max |coefficient|    {verdict['max_coefficient']:.3e}")
    print(f"artifacts in {args.out}/")
    if verdict["disk_undercut"] > verdict["undercut_tol"]:
        print("WARNING: best shape undercuts the disk beyond numerical noise")
        return 1
    print("the disk is the minimizer to within search resolution")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
