"""Trace minimization over star-shaped inclusions at fixed area.

Minimizes the polarization-tensor trace over Fourier-parametrized star
shapes with the enclosed area held exactly fixed by radial rescaling.  The
minimum is attained by the disk; a Newton descent on the analytic shape
gradient of the trace, scaled by the disk's own curvature, rediscovers that
fact numerically, and the run trace doubles as evidence that no evaluated
candidate ever undercuts the disk value.

The search space is deliberately restricted to simply connected
star-shaped boundaries: the minimality statement holds among simply
connected domains, and the Fourier parametrization cannot leave that
class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, InvalidShapeError
from .geometry import Ellipse, FourierStar, discretize
from .layerpot import tangential_derivative
from .polarization import minimal_trace_target, polarization_tensor
from .transmission import Contrast, _as_contrast

__all__ = [
    "OptProblem",
    "OptTrace",
    "coefficients_to_star",
    "objective",
    "minimize_trace",
    "disk_verdict",
    "overlay_svg",
]


# The search stops once the disk-scaled step is at most this in every
# coefficient, and backtracks no shorter than this.
_STEP_TOL = 1e-6
# Armijo's sufficient-decrease fraction.
_ARMIJO = 1e-4


@dataclass(frozen=True)
class OptProblem:
    """Configuration of one trace-minimization run: the contrast ``k`` and
    the boundary node count ``n``.

    The search runs at area pi (tr M scales exactly with area, so no other
    area adds anything) over Fourier modes 2..m_max, two amplitudes each;
    mode 1 is excluded because it only translates the shape at leading
    order.  The area constraint is enforced exactly at every evaluation by
    rescaling the base radius.  ``n`` must be even (the alternating-point
    rule of the shape gradient); ``max_iter`` caps the objective
    evaluations of a search, backtracking included.  ``k`` must not exceed
    ``k_max``: the gradient term (k - 1)(d_T u)^2 multiplies the rounding
    error of d_T u, which tends to 0 like 1/k, by k.  From criterion 13's
    start the search converges at 1e22 and 1e23, stops unconverged from
    1e24, and fails the disk verdict from about 1e28.
    """

    area: ClassVar[float] = float(np.pi)
    m_max: ClassVar[int] = 6
    max_iter: ClassVar[int] = 200
    k_max: ClassVar[float] = 1e23

    k: Contrast
    n: int = 256

    def __post_init__(self):
        object.__setattr__(self, "k", _as_contrast(self.k))
        if self.k.k <= 1.0:
            raise ConfigError("trace minimization is posed for k > 1")
        if self.k.k > self.k_max:
            raise ConfigError(
                f"trace minimization is posed for k <= {self.k_max:g}, "
                "where the shape gradient keeps its digits"
            )
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

    @property
    def disk_curvature(self) -> np.ndarray:
        """Diagonal of the objective's Hessian at the disk: (m - 1) 8 pi
        lambda^3 for both amplitudes of mode m, lambda = (k - 1)/(k + 1).
        The Hessian has no off-diagonal part there, so this is all of it."""
        lam = (self.k.k - 1.0) / (self.k.k + 1.0)
        return np.repeat(np.arange(1.0, self.m_max), 2) * 8 * np.pi * lam**3

    def start(self) -> np.ndarray:
        """Non-circular search start: cosine amplitude 0.2 of mode 2 and
        0.1 of mode 3, every other coefficient zero."""
        start = np.zeros(self.dof)
        start[0], start[2] = 0.2, 0.1
        return start


@dataclass(frozen=True)
class OptTrace:
    """Complete record of a minimization run.

    ``history`` holds one record per objective evaluation (coefficients,
    value, and whether it improved the running best); the best-so-far
    sequence is non-increasing by construction.
    """

    history: list[dict]
    final_coefficients: np.ndarray
    final_shape: FourierStar
    final_objective: float
    gap: float
    converged: bool
    evaluations: int


def coefficients_to_star(coeffs) -> FourierStar:
    """Star shape of area ``OptProblem.area`` from relative amplitudes.

    ``coeffs`` interleaves cosine and sine amplitudes for modes
    2..``OptProblem.m_max``, relative to the base radius.  The base radius
    solving the area constraint is exact (mean-square identity for
    trigonometric polynomials), so no evaluation ever drifts off the
    constraint.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    m_max = OptProblem.m_max
    if coeffs.shape != (2 * (m_max - 1),):
        raise ConfigError(f"expected {2 * (m_max - 1)} coefficients")
    power = 1.0 + 0.5 * float(np.sum(coeffs**2))
    r0 = float(np.sqrt(OptProblem.area / (np.pi * power)))
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
    disk values with a zero gradient, so the line search backs off; a wrong
    coefficient count raises ConfigError.
    """
    try:
        star = coefficients_to_star(coeffs)
    except InvalidShapeError:
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
    """Newton descent, scaled by the disk's curvature, to the trace-minimal shape.

    Each step is x - t H^-1 g with H = ``problem.disk_curvature``: at the
    disk it is the exact Newton step, so the search converges quadratically
    whatever the contrast.  The step length t starts at 1, or at the value
    that moves no coefficient by more than 1 (where r0 (1 + cos mt) already
    touches zero), and halves until Armijo's sufficient decrease holds; a
    non-finite value or gradient is a rejected step.  The search stops,
    converged, once the scaled step H^-1 g is at most 1e-6 in every
    coefficient; it stops unconverged when no step of that length or more
    decreases the trace, or after ``max_iter`` evaluations.  Each
    evaluation is one ``objective`` call and one logged record.  The
    reported gap is measured against the closed-form minimal trace at the
    problem's area.
    """
    history = []
    best = float("inf")

    def logged(x):
        nonlocal best
        value, gradient = objective(problem, x)
        history.append({"eval": len(history), "coefficients": [float(c) for c in x],
                        "objective": float(value), "best": bool(value < best)})
        best = min(best, value)
        return value, gradient

    x = np.asarray(initial_coeffs, dtype=float)
    value, gradient = logged(x)
    converged = False
    while np.isfinite(value) and len(history) < problem.max_iter:
        step = gradient / problem.disk_curvature
        size = float(np.max(np.abs(step)))
        converged = size <= _STEP_TOL
        if converged or not np.isfinite(size):
            break
        t = min(1.0, 1.0 / size)
        while t * size >= _STEP_TOL and len(history) < problem.max_iter:
            trial = x - t * step
            trial_value, trial_gradient = logged(trial)
            if (np.isfinite(trial_value) and np.all(np.isfinite(trial_gradient))
                    and trial_value <= value - _ARMIJO * (gradient @ (t * step))):
                break
            t /= 2
        else:
            break
        x, value, gradient = trial, trial_value, trial_gradient
    return OptTrace(
        history=history,
        final_coefficients=x,
        final_shape=coefficients_to_star(x),
        final_objective=float(value),
        gap=float(value) - problem.disk_value,
        converged=bool(converged),
        evaluations=len(history),
    )


def disk_verdict(problem: OptProblem, trace: OptTrace) -> dict:
    """Whether a finished search found the disk, each number beside its tolerance.

    The relative gap of the final objective to the disk value, the largest
    final coefficient, and the relative undercut of the disk value by the
    best evaluation must each be at most its ``*_tol`` field.
    """
    disk = problem.disk_value
    out = {
        "relative_gap": trace.gap / disk,
        "gap_tol": 1e-3,
        "max_coefficient": float(np.max(np.abs(trace.final_coefficients))),
        "coefficient_tol": 1e-2,
        "disk_undercut": (disk - float(np.min([r["objective"] for r in trace.history]))) / disk,
        "undercut_tol": 1e-5,
    }
    out["passed"] = (out["relative_gap"] <= out["gap_tol"]
                     and out["max_coefficient"] <= out["coefficient_tol"]
                     and out["disk_undercut"] <= out["undercut_tol"])
    return out


def overlay_svg(problem: OptProblem, trace: OptTrace) -> str:
    """SVG overlay of the search start, the optimized shape, and the disk.

    The viewBox is the joint bounding box enlarged by 20 percent; the
    exact minimal disk at the target area is drawn for reference.
    """
    initial = coefficients_to_star(problem.start())
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
