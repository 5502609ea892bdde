"""Trace minimization over star-shaped inclusions at fixed area.

Minimizes the polarization-tensor trace over Fourier-parametrized star
shapes with the enclosed area held exactly fixed by radial rescaling.  The
minimum is attained by the disk; the optimizer rediscovers that fact
numerically, and the run trace doubles as evidence that no evaluated
candidate ever undercuts the disk value.

The search space is deliberately restricted to simply connected
star-shaped boundaries: the minimality statement holds among simply
connected domains, and the Fourier parametrization cannot leave that
class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidShapeError
from .geometry import FourierStar, ShapeSpec, discretize, measure
from .polarization import hs_bounds, minimal_trace_target, polarization_tensor
from .transmission import Contrast, _as_contrast

__all__ = [
    "OptProblem",
    "OptTrace",
    "coefficients_to_star",
    "objective",
    "minimize_trace",
    "disk_verdict",
    "bound_gap_scan",
    "overlay_svg",
]


@dataclass(frozen=True)
class OptProblem:
    """Configuration of one trace-minimization run.

    ``m_max`` is the highest Fourier mode searched (modes 2..m_max, two
    amplitudes each); mode 1 is excluded because it only translates the
    shape at leading order.  The area constraint is enforced exactly at
    every evaluation by rescaling the base radius.
    """

    k: Contrast
    area: float = float(np.pi)
    m_max: int = 6
    n: int = 256
    simplex_step: float = 0.05
    max_iter: int = 4000
    restarts: int = 1
    xatol: float = 1e-6
    fatol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "k", _as_contrast(self.k))
        if self.k.k <= 1.0:
            raise ConfigError("trace minimization is posed for k > 1")
        if self.area <= 0:
            raise ConfigError("target area must be positive")
        if self.m_max < 2:
            raise ConfigError("mode cutoff must be at least 2")
        if self.n < 128:
            raise ConfigError("need at least 128 boundary nodes")

    @property
    def dof(self) -> int:
        return 2 * (self.m_max - 1)

    @property
    def disk_value(self) -> float:
        return minimal_trace_target(self.k, self.area, 2)

    def start(self, amplitudes=(0.2, 0.1)) -> np.ndarray:
        """Non-circular search start: cosine amplitudes of modes 2 and 3
        (mode 3 only when searched), every other coefficient zero."""
        start = np.zeros(self.dof)
        start[0] = amplitudes[0]
        if self.dof > 2:
            start[2] = amplitudes[1]
        return start


@dataclass
class OptTrace:
    """Complete record of a minimization run.

    ``history`` holds one record per objective evaluation (coefficients,
    value, and whether it improved the running best); the best-so-far
    sequence is non-increasing by construction.
    """

    history: list[dict] = field(default_factory=list)
    final_coefficients: np.ndarray | None = None
    final_shape: FourierStar | None = None
    final_objective: float = float("nan")
    gap: float = float("nan")
    converged: bool = False
    evaluations: int = 0


def coefficients_to_star(coeffs, area: float, m_max: int) -> FourierStar:
    """Star shape of exactly the requested area from relative amplitudes.

    ``coeffs`` interleaves cosine and sine amplitudes for modes
    2..m_max, relative to the base radius.  The base radius solving the
    area constraint is exact (mean-square identity for trigonometric
    polynomials), so no evaluation ever drifts off the constraint.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (2 * (m_max - 1),):
        raise ConfigError(f"expected {2 * (m_max - 1)} coefficients")
    power = 1.0 + 0.5 * float(np.sum(coeffs**2))
    r0 = float(np.sqrt(area / (np.pi * power)))
    modes = tuple(
        (m, float(coeffs[2 * (m - 2)]), float(coeffs[2 * (m - 2) + 1]))
        for m in range(2, m_max + 1)
    )
    return FourierStar(r0, modes)


def objective(problem: OptProblem, coeffs) -> float:
    """Polarization-tensor trace of the area-normalized candidate.

    Invalid candidates (radius touching zero) score a flat penalty of
    ten disk values so the simplex retreats without crashing.
    """
    try:
        star = coefficients_to_star(coeffs, problem.area, problem.m_max)
    except (InvalidShapeError, ConfigError):
        return 10.0 * problem.disk_value
    grid = discretize(star, problem.n)
    pt = polarization_tensor(grid, problem.k)
    return float(np.trace(pt.M))


def minimize_trace(problem: OptProblem, initial_coeffs) -> OptTrace:
    """Derivative-free descent to the trace-minimal shape.

    Runs a simplex search from the initial coefficients, then restarts
    from the best point with a contracted simplex; every objective
    evaluation is logged.  The reported gap is measured against the
    closed-form minimal trace at the problem's area.
    """
    from scipy.optimize import minimize as _nelder_mead

    x0 = np.asarray(initial_coeffs, dtype=float).copy()
    if x0.shape != (problem.dof,):
        raise ConfigError(f"expected {problem.dof} initial coefficients")
    trace = OptTrace()
    best = {"value": float("inf")}

    def logged(x):
        value = objective(problem, x)
        improved = value < best["value"]
        if improved:
            best["value"] = value
        trace.history.append(
            {
                "eval": len(trace.history),
                "coefficients": [float(c) for c in x],
                "objective": float(value),
                "best": bool(improved),
            }
        )
        return value

    converged = True
    step = problem.simplex_step
    x = x0
    for stage in range(problem.restarts + 1):
        simplex = np.vstack([x, x + step * np.eye(problem.dof)])
        result = _nelder_mead(
            logged,
            x,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "xatol": problem.xatol,
                "fatol": problem.fatol,
                "maxiter": problem.max_iter,
                "maxfev": 4 * problem.max_iter,
            },
        )
        x = np.asarray(result.x, dtype=float)
        converged = converged and bool(result.success)
        step = 0.2 * step

    trace.final_coefficients = x
    trace.final_shape = coefficients_to_star(x, problem.area, problem.m_max)
    trace.final_objective = objective(problem, x)
    trace.gap = trace.final_objective - problem.disk_value
    trace.converged = converged
    trace.evaluations = len(trace.history)
    return trace


def disk_verdict(problem: OptProblem, trace: OptTrace, gap_tol: float = 1e-3) -> dict:
    """Whether a finished search found the disk, each number beside its tolerance.

    Relative gap of the final objective to the disk value at most
    ``gap_tol``, largest final coefficient at most 1e-2, and relative
    undercut of the disk value by the best evaluation at most 1e-5.
    """
    disk = problem.disk_value
    rel_gap = trace.gap / disk
    max_coeff = float(np.max(np.abs(trace.final_coefficients)))
    undercut = (disk - min(r["objective"] for r in trace.history)) / disk
    return {
        "relative_gap": rel_gap,
        "gap_tol": gap_tol,
        "max_coefficient": max_coeff,
        "coefficient_tol": 1e-2,
        "disk_undercut": undercut,
        "undercut_tol": 1e-5,
        "passed": rel_gap <= gap_tol and max_coeff <= 1e-2 and undercut <= 1e-5,
    }


def bound_gap_scan(shapes, k, n: int = 256) -> list[dict]:
    """Trace and inverse-trace-bound slack for a batch of shapes.

    One record per shape with the tensor trace, its eigenvalue pair, and
    the slack of the inverse-trace bound — the numerical face of the
    fact that ellipses sit on the bound curve and everything else sits
    strictly inside.
    """
    records = []
    for shape in shapes:
        grid = discretize(shape, n)
        pt = polarization_tensor(grid, k)
        report = hs_bounds(pt)
        eigs = np.sort(np.linalg.eigvalsh(pt.M))
        records.append(
            {
                "label": _label(shape),
                "tr_M": float(np.trace(pt.M)),
                "eig_low": float(eigs[0]),
                "eig_high": float(eigs[-1]),
                "slack2": float(report.slack2),
                "saturated2": bool(report.saturated2),
            }
        )
    return records


def _label(shape: ShapeSpec) -> str:
    name = type(shape).__name__
    if isinstance(shape, FourierStar):
        ms = ",".join(str(m) for m, _, _ in shape.modes)
        return f"{name}(modes={ms})"
    return name


def overlay_svg(problem: OptProblem, trace: OptTrace, initial_coeffs) -> str:
    """SVG overlay of the initial shape, the optimized shape, and the disk.

    The viewBox is the joint bounding box enlarged by 20 percent; the
    exact minimal disk at the target area is drawn for reference.
    """
    initial = coefficients_to_star(
        np.asarray(initial_coeffs, dtype=float), problem.area, problem.m_max
    )
    disk_r = float(np.sqrt(problem.area / np.pi))
    curves = [
        (initial.outline(512), "#888888", "4 3", "initial"),
        (trace.final_shape.outline(512), "#c0392b", "", "optimized"),
    ]
    theta = 2 * np.pi * np.arange(256) / 256
    disk = disk_r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    curves.append((disk, "#2471a3", "8 4", "target disk"))

    allpts = np.vstack([c[0] for c in curves])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = hi - lo
    pad = 0.1 * span
    x0, y0 = lo - pad
    w, h = span + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.4f} {-(y0 + h):.4f} '
        f'{w:.4f} {h:.4f}" width="480" height="{480 * h / w:.0f}">',
        f'<rect x="{x0:.4f}" y="{-(y0 + h):.4f}" width="{w:.4f}" height="{h:.4f}" '
        'fill="white"/>',
    ]
    stroke_w = 0.008 * max(w, h)
    for pts, color, dash, label in curves:
        coords = " ".join(f"{p[0]:.5f},{-p[1]:.5f}" for p in pts)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke_w:.5f}"{dash_attr}><title>{label}</title></polygon>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
