"""Kelvin fundamental solution and hydrostatic trace identities.

For an isotropic elastic medium the matrix fundamental solution (Kelvin
matrix) couples a point force to the displacement field.  This module
evaluates that matrix, forms conormal derivatives (tractions) of linear
displacement fields, and verifies the interior identities that relate the
elastic single layer of the hydrostatic traction to a plain inverse-distance
moment of the normal — the computational core of the elastic uniformity
argument for ellipsoids.

Both sides of each identity are evaluated literally: the right-hand sides
use the plain positive kernel 1/(4 pi |x-y|), making the checks independent
of any global sign convention chosen elsewhere for harmonic layer
potentials.  Every 3D surface sum lives here: the Kelvin layer, the plain
moment (the 3D single layer is its negative) and the Green identity.  One
guarded walk, ``_surface_sums``, serves all of them but ``plain_kernel_moment``
(a density of any width) and sums each density on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import ConfigError, InvalidShapeError
from .geometry import BoundaryGrid, Ellipsoid, default_interior_sample
from .layerpot import _guarded_blocks

__all__ = [
    "LameParams",
    "kelvin_matrix",
    "conormal_linear",
    "elastic_single_layer",
    "plain_kernel_moment",
    "trace_identity_check",
    "identity_verdict",
    "kolosov",
]


@dataclass(frozen=True)
class LameParams:
    """Isotropic elastic constants of the matrix and inclusion phases.

    ``lam, mu`` describe the background (matrix) material and
    ``lam_inc, mu_inc`` the inclusion.  Admissibility requires strong
    ellipticity of both phases and that the phase contrasts of the two
    moduli do not pull in opposite directions.
    """

    lam: float
    mu: float
    lam_inc: float
    mu_inc: float

    def __post_init__(self):
        for phase in ("", "_inc"):
            lam, mu = getattr(self, "lam" + phase), getattr(self, "mu" + phase)
            if not mu > 0:
                raise ConfigError(f"mu{phase} must be positive")
            if not 3 * lam + 2 * mu > 0:
                raise ConfigError(f"3*lam{phase} + 2*mu{phase} must be positive")
        if (self.lam - self.lam_inc) * (self.mu - self.mu_inc) < 0:
            raise ConfigError(
                "(lam - lam_inc) * (mu - mu_inc) must be >= 0: the two "
                "moduli contrasts must not have opposite signs"
            )


def _alphas(lam: float, mu: float) -> tuple[float, float]:
    """Kelvin coefficients; their sum is 1/mu, their difference 1/(2mu+lam)."""
    a1 = 0.5 * (1.0 / mu + 1.0 / (2.0 * mu + lam))
    a2 = 0.5 * (1.0 / mu - 1.0 / (2.0 * mu + lam))
    return a1, a2


def kelvin_matrix(x, lam: float, mu: float) -> np.ndarray:
    """Matrix fundamental solution at displacement(s) ``x`` (3-vectors).

    Returns shape (3, 3) for a single point or (m, 3, 3) for a batch;
    symmetric and homogeneous of degree -1 in ``x``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != 3:
        raise ConfigError("the Kelvin matrix is defined for 3-vectors")
    r = np.linalg.norm(pts, axis=-1)
    if np.any(r == 0.0):
        raise ConfigError("the Kelvin matrix is singular at the origin")
    a1, a2 = _alphas(lam, mu)
    eye = np.eye(3)
    out = (
        -a1 / (4 * np.pi) * eye[None, :, :] / r[:, None, None]
        - a2 / (4 * np.pi) * pts[:, :, None] * pts[:, None, :] / (r**3)[:, None, None]
    )
    return out[0] if single else out


def conormal_linear(A, lam: float, mu: float, n) -> np.ndarray:
    """Traction of the linear displacement field x -> Ax across normal n.

    Evaluates lam * tr(A) * n + mu * (A + A^T) n; accepts a single unit
    normal (d,) or a stack (m, d).
    """
    A = np.asarray(A, dtype=float)
    n = np.asarray(n, dtype=float)
    sym = A + A.T
    return lam * np.trace(A) * n + mu * n @ sym.T


def _weighted(grid: BoundaryGrid, densities) -> np.ndarray:
    """The form ``_surface_sums`` reads (n, 3) densities psi in: psi^T times
    the weights, stacked into one C-ordered (len(densities), 3, n) array."""
    weighted = np.empty((len(densities), 3, grid.n))
    for out, psi in zip(weighted, densities):
        np.multiply(psi.T, grid.weights, out=out)
    return weighted


def _surface_sums(grid: BoundaryGrid, points: np.ndarray, weighted: np.ndarray) -> list:
    """One (A, B) pair of (m, 3) arrays per density psi of the ``_weighted``
    stack, with dx = x_p - y_s:

        A[p] = sum_s psi_s w_s / |dx|,   B[p, i] = sum_s sum_j dx_i dx_j psi_sj w_s / |dx|^3.

    Each guarded block forms 1/|dx| and then 1/|dx|^3 over r2, and each of
    the six dx_i dx_j / |dx|^3 once, in the walk's one work array while every
    density reads it, and contracts each density on its own, so equal
    densities get equal sums."""
    if grid.dim != 3:
        raise InvalidShapeError("the Kelvin layer is evaluated on 3D surface grids")
    sums = [(np.empty((len(points), 3)), np.zeros((len(points), 3))) for _ in weighted]
    for rows, dx, r2, pair in _guarded_blocks(grid, points, spare=1):
        inv = np.divide(1.0, np.sqrt(r2, out=r2), out=r2)
        for (a, _), v in zip(sums, weighted):
            a[rows] = inv @ v.T
        inv3 = np.multiply(np.multiply(inv, inv, out=pair), inv, out=inv)
        for i, j in combinations_with_replacement(range(3), 2):
            np.multiply(dx[i], dx[j], out=pair)
            pair *= inv3
            for (_, b), v in zip(sums, weighted):
                b[rows, i] += pair @ v[j]
                if i != j:
                    b[rows, j] += pair @ v[i]
    return sums


def _kelvin(a: np.ndarray, b: np.ndarray, lam: float, mu: float) -> np.ndarray:
    """The Kelvin single layer read off a density's ``_surface_sums``."""
    a1, a2 = _alphas(lam, mu)
    return -(a1 / (4 * np.pi)) * a - (a2 / (4 * np.pi)) * b


def elastic_single_layer(
    grid: BoundaryGrid,
    psi: np.ndarray,
    points,
    lam: float,
    mu: float,
) -> np.ndarray:
    """Kelvin single layer of a vector density at interior points.

    ``psi`` holds one 3-vector per node; returns one 3-vector per
    evaluation point.  Points must respect the near-boundary margin.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (grid.n, 3):
        raise ConfigError("density must supply one 3-vector per grid node")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _kelvin(*_surface_sums(grid, points, _weighted(grid, [psi]))[0], lam, mu)


def plain_kernel_moment(grid: BoundaryGrid, values: np.ndarray, points) -> np.ndarray:
    """Boundary integral of values against the kernel 1/(4 pi |x-y|).

    The positive-kernel functional used verbatim on the right-hand sides
    of the trace identities; ``values`` may be (n,) or (n, c).
    """
    if grid.dim != 3:
        raise InvalidShapeError("the plain kernel moment is a 3D surface integral")
    values = np.asarray(values, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    flat = values if values.ndim == 2 else values[:, None]
    out = np.empty((len(points), flat.shape[1]))
    wvals = flat * grid.weights[:, None]
    for rows, _, r2 in _guarded_blocks(grid, points):
        out[rows] = np.divide(1.0, np.sqrt(r2, out=r2), out=r2) @ wvals
    out /= 4 * np.pi
    return out if values.ndim == 2 else out[:, 0]


def _relative(lhs: np.ndarray, rhs: np.ndarray, floor: float) -> float:
    scale = max(float(np.max(np.abs(rhs))), floor)
    return float(np.max(np.abs(lhs - rhs))) / scale


def trace_identity_check(
    grid: BoundaryGrid,
    params: LameParams,
    points,
) -> dict:
    """Check the interior identities tying Kelvin layers to plain moments.

    The hydrostatic displacement x -> x has traction (2 mu + 3 lam) n in
    each phase; its Kelvin single layer (matrix-phase kernel) must equal
    the corresponding multiple of the plain inverse-distance moment of
    the normal.  The difference identity and the closed-surface Green
    identity for the inverse-distance kernel are checked alongside.

    Returns the ``elastic-identity`` report's four ``residual_*`` fields.
    Each is max |lhs - rhs| over points and components, divided by the
    largest right-hand-side magnitude; the difference residual is absolute
    where its right-hand side vanishes (equal phases).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    eye = np.eye(3)
    # the tractions are freed once weighted, before the walk
    weighted = _weighted(grid, [conormal_linear(eye, params.lam, params.mu, grid.normals),
                                conormal_linear(eye, params.lam_inc, params.mu_inc, grid.normals),
                                grid.normals])
    sums = _surface_sums(grid, points, weighted)
    layer = _kelvin(*sums[0], params.lam, params.mu)
    layer_inc = _kelvin(*sums[1], params.lam, params.mu)
    inverse, green_lhs = sums[2]  # int n / r, and the Green left side
    moments = inverse / (4 * np.pi)

    denom = 2 * params.mu + params.lam
    coef = -(2 * params.mu + 3 * params.lam) / denom
    coef_inc = -(2 * params.mu_inc + 3 * params.lam_inc) / denom
    floor = 1e-300
    res_matrix = _relative(layer, coef * moments, floor)
    res_inc = _relative(layer_inc, coef_inc * moments, floor)
    diff_lhs = layer_inc - layer
    diff_rhs = (coef_inc - coef) * moments
    if np.max(np.abs(diff_rhs)) == 0.0:
        res_diff = float(np.max(np.abs(diff_lhs)))
    else:
        res_diff = _relative(diff_lhs, diff_rhs, floor)
    return {
        "residual_matrix_phase": res_matrix,
        "residual_inclusion_phase": res_inc,
        "residual_difference": res_diff,
        "residual_inverse_distance": _relative(green_lhs, -inverse, floor),
    }


def identity_verdict(grid: BoundaryGrid, params: LameParams) -> dict:
    """The ``elastic-identity`` report's checks, in its order after its setup:
    the identities at the 20 points of ``default_interior_sample(grid, 20)``
    in the ellipsoid ``grid.shape``.

    The matrix-phase, inclusion-phase and inverse-distance residuals must
    each be at most ``residual_tol``; the difference residual has no bound.
    """
    if not isinstance(grid.shape, Ellipsoid):
        raise InvalidShapeError("the elastic trace identities need an ellipsoid grid")
    points = default_interior_sample(grid, 20).points
    res = trace_identity_check(grid, params, points)
    out = {"points": len(points), **res, "residual_tol": 1e-6}
    bounded = ("residual_matrix_phase", "residual_inclusion_phase", "residual_inverse_distance")
    return {**out, "passed": all(out[key] <= out["residual_tol"] for key in bounded)}


def kolosov(lam: float, mu: float) -> float:
    """Plane-elasticity material constant (lam + 3 mu)/(lam + mu)."""
    if lam + mu == 0:
        raise ConfigError("lam + mu must be nonzero")
    return (lam + 3.0 * mu) / (lam + mu)
