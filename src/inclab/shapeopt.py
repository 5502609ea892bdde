"""Trace minimization over star-shaped inclusions at fixed area.

Minimizes the polarization-tensor trace over Fourier-parametrized star
shapes with the enclosed area held exactly fixed by radial rescaling.  The
minimum is attained by the disk; BFGS on the analytic shape gradient of the
trace rediscovers that fact numerically, and the run trace doubles as
evidence that no evaluated candidate ever undercuts the disk value.

The search space is deliberately restricted to simply connected
star-shaped boundaries: the minimality statement holds among simply
connected domains, and the Fourier parametrization cannot leave that
class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidShapeError
from .geometry import Ellipse, FourierStar, discretize
from .layerpot import tangential_derivative
from .polarization import bounds_verdict, minimal_trace_target, polarization_tensor
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


# BFGS stops once the largest gradient entry is at most this.
_GTOL = 1e-6


@dataclass(frozen=True)
class OptProblem:
    """Configuration of one trace-minimization run.

    ``m_max`` is the highest Fourier mode searched (modes 2..m_max, two
    amplitudes each); mode 1 is excluded because it only translates the
    shape at leading order.  The area constraint is enforced exactly at
    every evaluation by rescaling the base radius.  ``n`` must be even
    (the alternating-point rule of the shape gradient); ``max_iter`` caps
    the BFGS iterations.
    """

    k: Contrast
    area: float = float(np.pi)
    m_max: int = 6
    n: int = 256
    max_iter: int = 4000

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
        if self.n % 2:
            raise ConfigError("need an even number of boundary nodes for the shape gradient")

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


def objective(problem: OptProblem, coeffs) -> tuple[float, np.ndarray]:
    """Polarization-tensor trace of the area-normalized candidate and its
    gradient in the coefficients.

    The shape derivative (Ammari, Kang, Lim & Zribi, Trans. AMS 362, 2010)
    of the trace under the normal velocity V_c of coefficient c is

        d tr M / dc = (k - 1) sum_i int V_c [k (d_nu u_i^-)^2 + (d_T u_i)^2] ds,

    with u_i the transmission solution of direction e_i: d_nu u_i^- =
    phi_i / (k - 1) by the boundary equation, d_T u_i = T_i + d_T S[phi_i]
    (``tangential_derivative``), and V_c ds = (dr/dc) r dt, where dr/dc
    includes the area rescale of r0.  The densities phi_i are the ones
    ``polarization_tensor`` solved, so nothing is assembled or solved twice.
    Invalid candidates (radius touching zero) score a flat penalty of ten
    disk values with a zero gradient, so the line search backs off.
    """
    try:
        star = coefficients_to_star(coeffs, problem.area, problem.m_max)
    except (InvalidShapeError, ConfigError):
        return 10.0 * problem.disk_value, np.zeros(problem.dof)
    grid = discretize(star, problem.n)
    pt = polarization_tensor(grid, problem.k)
    k = problem.k.k
    phis = pt.densities
    tangent = np.stack([-grid.normals[:, 1], grid.normals[:, 0]], axis=1)
    d_t = tangent + tangential_derivative(grid, phis)
    integrand = np.sum(k / (k - 1.0) * phis**2 + (k - 1.0) * d_t**2, axis=1)
    coeffs = np.asarray(coeffs, dtype=float)
    mt = grid.params[:, None] * np.arange(2, problem.m_max + 1)
    modes = np.stack([np.cos(mt), np.sin(mt)], axis=2).reshape(grid.n, problem.dof)
    radius = np.hypot(grid.nodes[:, 0], grid.nodes[:, 1])
    # r = r0 (1 + modes @ c) with r0 ~ (1 + |c|^2 / 2)^(-1/2), so dr/dc
    # = r0 modes - r c / (2 + |c|^2)
    dr_dc = star.r0 * modes - np.outer(radius, coeffs) / (2.0 + np.sum(coeffs**2))
    gradient = (integrand * radius * (2 * np.pi / grid.n)) @ dr_dc
    return float(np.trace(pt.M)), gradient


def minimize_trace(problem: OptProblem, initial_coeffs) -> OptTrace:
    """BFGS descent on the analytic shape gradient to the trace-minimal shape.

    Each BFGS evaluation is one ``objective`` call (value and gradient
    together) and one logged record; the search stops once the largest
    gradient entry is at most 1e-6 or after ``max_iter`` iterations.  The
    reported gap is measured against the closed-form minimal trace at the
    problem's area.
    """
    from scipy.optimize import minimize as _bfgs

    x0 = np.asarray(initial_coeffs, dtype=float).copy()
    if x0.shape != (problem.dof,):
        raise ConfigError(f"expected {problem.dof} initial coefficients")
    trace = OptTrace()
    best = {"value": float("inf")}

    def logged(x):
        value, gradient = objective(problem, x)
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
        return value, gradient

    result = _bfgs(
        logged,
        x0,
        jac=True,
        method="BFGS",
        options={"gtol": _GTOL, "maxiter": problem.max_iter},
    )
    trace.final_coefficients = np.asarray(result.x, dtype=float)
    trace.final_shape = coefficients_to_star(
        trace.final_coefficients, problem.area, problem.m_max
    )
    trace.final_objective = float(result.fun)
    trace.gap = trace.final_objective - problem.disk_value
    trace.converged = bool(result.success)
    trace.evaluations = len(trace.history)
    return trace


def disk_verdict(problem: OptProblem, trace: OptTrace) -> dict:
    """Whether a finished search found the disk, each number beside its tolerance.

    Relative gap of the final objective to the disk value at most
    1e-3, largest final coefficient at most 1e-2, and relative
    undercut of the disk value by the best evaluation at most 1e-5.
    """
    disk = problem.disk_value
    rel_gap = trace.gap / disk
    max_coeff = float(np.max(np.abs(trace.final_coefficients)))
    undercut = (disk - float(np.min([r["objective"] for r in trace.history]))) / disk
    return {
        "relative_gap": rel_gap,
        "gap_tol": 1e-3,
        "max_coefficient": max_coeff,
        "coefficient_tol": 1e-2,
        "disk_undercut": undercut,
        "undercut_tol": 1e-5,
        "passed": rel_gap <= 1e-3 and max_coeff <= 1e-2 and undercut <= 1e-5,
    }


def bound_gap_scan(shapes, k, n: int = 256) -> list[dict]:
    """Trace and inverse-trace-bound slack for a batch of shapes.

    One record per shape with the tensor trace, its eigenvalue pair, the
    slack of the inverse-trace bound and whether ``bounds_verdict`` passed
    — the numerical face of the fact that ellipses sit on the bound curve
    and everything else sits strictly inside.
    """
    records = []
    for shape in shapes:
        pt = polarization_tensor(discretize(shape, n), k)
        report = bounds_verdict(pt)
        eigs = np.sort(np.linalg.eigvalsh(pt.M))
        records.append(
            {
                "tr_M": report["trace_M"],
                "eig_low": float(eigs[0]),
                "eig_high": float(eigs[-1]),
                "slack2": report["slack2"],
                "saturated2": report["saturated2"],
                "passed": report["passed"],
            }
        )
    return records


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
        (Ellipse(disk_r, disk_r).outline(256), "#2471a3", "8 4", "target disk"),
    ]

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
