"""Conductivity transmission solves and interior-field uniformity checks.

A bounded inclusion with conductivity ratio ``k`` sits in a background of
conductivity 1 under a uniform applied field ``a``.  The potential is
represented as the applied linear field plus a single layer potential whose
density solves a second-kind boundary integral equation driven by the
adjoint double-layer operator.  This module solves that equation, evaluates
the interior gradient, and quantifies how uniform it is — the property that
distinguishes ellipses among all inclusion shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolveError
from .geometry import (BoundaryGrid, Ellipse, InteriorSample, ShapeSpec, default_interior_sample,
                       discretize)
from .layerpot import (
    _one_sided_derivatives,
    npo_matrix,
    single_layer_eval,
    single_layer_gradient,
)

__all__ = [
    "Contrast",
    "solve_density",
    "interior_field",
    "default_interior_sample",
    "uniformity_verdict",
    "flux_continuity_check",
    "decay_check",
]


@dataclass(frozen=True)
class Contrast:
    """Conductivity ratio of the inclusion relative to the background."""

    k: float

    def __post_init__(self):
        if not (0.0 < self.k < np.inf) or self.k == 1.0:
            raise ConfigError("contrast k must be finite, positive and different from 1")

    @property
    def coupling(self) -> float:
        """Scalar multiple of the identity in the boundary equation.

        Its absolute value exceeds 1/2 in exact arithmetic, but in floats it
        is exactly 1/2 for k >= 1e16 and exactly -1/2 for k <= 1e-17.  At
        -1/2 the operator stays invertible, as K*'s spectrum lies in
        (-1/2, 1/2].  At +1/2, an eigenvalue of K*, the system is singular
        but consistent: each right-hand side n_j has weighted mean w^T n_j = 0,
        and w^T K* = w^T / 2 keeps every Krylov vector at mean 0, where the
        solution is the physical density.  Halving last keeps the coupling
        finite for k up to the float maximum.
        """
        return (self.k + 1.0) / (self.k - 1.0) / 2.0


def _as_contrast(k) -> Contrast:
    return k if isinstance(k, Contrast) else Contrast(float(k))


_GMRES_TOL = 4 * np.finfo(float).eps  # normwise backward error that ends a Krylov solve


def _gmres(mat: np.ndarray, rhs: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """x[s, :, i] with (shifts[s] I - mat) x[s, :, i] = rhs[:, i], by GMRES.

    As (c I - K) V_m = V_{m+1} (c I~ - H~_m), one Arnoldi basis (Gram-Schmidt twice) per
    column serves every shift through its own Givens rotations, until a value is not finite
    or every |r| / (|A| |x| + |b|) <= _GMRES_TOL, with |x| = |y| and |A| >= each column norm
    of c I~ - H~_m.
    """
    n, d = rhs.shape
    beta = np.sqrt((rhs * rhs).sum(0))[:, None]
    basis = (rhs.T / np.where(beta > 0, beta, 1.0))[:, None]
    small, norm_a = np.ones((2, d, len(shifts), 1, 1)), np.zeros((d, len(shifts)))
    for j in range(n):
        w, v, h = np.stack([mat @ u for u in basis[:, j]]), basis[:, : j + 1], 0.0
        for _ in range(2):
            h = h + (c := (v @ w[..., None])[..., 0])
            w -= (c[:, None] @ v)[:, 0]
        sub = np.sqrt((w * w).sum(1))[:, None]
        if j + 2 > small.shape[-1]:  # double Q^T and R^-1 per column and shift, and the basis
            small = np.concatenate([small, 0 * small], axis=-1)
            small = np.concatenate([small, 0 * small], axis=-2)
            basis = np.concatenate([basis, np.empty_like(basis)], axis=1)
        rot, inv = small[0, ..., : j + 2, : j + 2], small[1, ..., : j + 1, : j + 1]
        rot[..., j + 1, j + 1] = 1.0
        col = (rot @ np.concatenate([-h, -sub], axis=1)[:, None, :, None])[..., 0]
        col += shifts[:, None] * rot[..., j]
        norm_a = np.maximum(norm_a, np.sqrt((col * col).sum(-1)))
        rho = np.hypot(col[..., j], col[..., j + 1])
        cs, sn = (col[..., j] / rho)[..., None], (col[..., j + 1] / rho)[..., None]
        top, bot = rot[..., j, :], rot[..., j + 1, :]
        rot[..., j, :], rot[..., j + 1, :] = cs * top + sn * bot, cs * bot - sn * top
        inv[..., :j, j] = -(inv[..., :j, :j] @ col[..., :j, None])[..., 0] / rho[..., None]
        inv[..., j, j] = 1.0 / rho
        y = beta[..., None] * (inv @ rot[..., : j + 1, :1])[..., 0]
        bound = _GMRES_TOL * (norm_a * np.sqrt((y * y).sum(-1)) + beta)
        if not np.isfinite(y).all() or np.all(beta * np.abs(rot[..., j + 1, 0]) <= bound):
            break
        basis[:, j + 1] = w / np.maximum(sub, np.finfo(float).tiny)
    return (y @ basis[:, : j + 1]).transpose(1, 2, 0)


def _basis_densities(grid: BoundaryGrid, ks) -> list[np.ndarray]:
    """Densities for the basis directions e_1..e_d: one (n, d) array per contrast.

    The one boundary solve, (coupling I - K*) x = n_j: one K* per grid, one
    ``_gmres`` Krylov basis per unit column n_j for every contrast.  Every
    residual must be at most 1e-10 and every entry finite, or a SolveError
    is raised; a NaN fails.
    """
    mat = npo_matrix(grid)
    shifts = np.array([_as_contrast(k).coupling for k in ks])
    values = _gmres(mat, grid.normals, shifts)
    residual = np.max(np.abs(shifts[:, None, None] * values - mat @ values - grid.normals), axis=1)
    if not (np.all(residual <= 1e-10) and np.all(np.isfinite(values))):
        raise SolveError(
            f"boundary solve residual {np.max(residual):.3e} exceeds 1e-10 or the "
            "density is not finite; the system is unexpectedly ill-conditioned"
        )
    return list(values)


def solve_density(grid: BoundaryGrid, k, a) -> np.ndarray:
    """Layer density of the applied direction ``a``: the basis densities of
    ``_basis_densities`` combined with the entries of ``a``, a ``grid.dim``-vector."""
    a = np.asarray(a, dtype=float)
    if a.shape != (grid.dim,):
        raise ConfigError(f"direction must be a {grid.dim}-vector")
    return _basis_densities(grid, [k])[0] @ a


def interior_field(
    grid: BoundaryGrid,
    phi: np.ndarray,
    a,
    sample: InteriorSample,
) -> tuple[np.ndarray, float]:
    """Mean total gradient on an interior sample, and its largest relative deviation.

    The deviation ``delta`` is zero exactly when the interior field is uniform.
    """
    a = np.asarray(a, dtype=float)
    grads = a[None, :] + single_layer_gradient(grid, phi, sample.points)
    mean = grads.mean(axis=0)
    denom = float(np.linalg.norm(mean))
    if denom == 0.0:
        raise SolveError("mean interior gradient vanished; cannot normalize")
    return mean, float(np.max(np.linalg.norm(grads - mean, axis=1))) / denom


def uniformity_verdict(grid: BoundaryGrid, ks) -> dict:
    """The ``eshelby`` report's checks, in its order after ks and n.

    The interior field is sampled at the 40 points of
    ``default_interior_sample(grid)``.  The largest gradient deviation over the
    contrasts ``ks`` and the basis directions must be at most ``delta_tol``;
    ``rows`` has one record per pair.
    """
    sample = default_interior_sample(grid)
    eye = np.eye(grid.dim)
    rows = []
    for k, phis in zip(ks, _basis_densities(grid, ks)):
        for j in range(grid.dim):
            mean, delta = interior_field(grid, phis[:, j], eye[j], sample)
            gx, gy = (float(g) for g in mean)
            rows.append({"k": k, "direction": j + 1, "mean_gx": gx, "mean_gy": gy, "delta": delta})
    out = {"max_delta": float(np.max([row["delta"] for row in rows])), "delta_tol": 1e-6}
    return {**out, "passed": out["max_delta"] <= out["delta_tol"], "rows": rows}


def flux_continuity_check(grid: BoundaryGrid, phi: np.ndarray, k, a) -> float:
    """Max mismatch of k x (interior normal flux) against the exterior flux.

    The one-sided normal derivatives come from ``layerpot._one_sided_derivatives``,
    whose method and constants (``_QBX_*``) are stated there.  The mismatch is
    relative to the largest exterior flux, or absolute below 1.
    """
    contrast = _as_contrast(k)
    applied = grid.normals @ np.asarray(a, dtype=float)
    outer, inner = _one_sided_derivatives(grid, phi) + applied
    scale = max(1.0, float(np.max(np.abs(outer))))
    return float(np.max(np.abs(contrast.k * inner - outer))) / scale


# ``decay_check``: boundary nodes, evaluation radii in units of the shape's
# scale, angles per radius, and the cap on the relative error of the ratio.
_DECAY_N = 256
_DECAY_FACTORS = (10.0, 20.0)
_DECAY_ANGLES = 32
DECAY_TOL = 0.2


def decay_check(shape: ShapeSpec, k, a) -> tuple[float, float, float, bool]:
    """Ratio test for the far-field decay of the perturbation potential.

    The perturbation of a 2D inclusion decays like 1/distance; doubling
    the radius of the evaluation circle, centered on the midpoint of the
    shape's bounding box, should therefore halve its magnitude.  Returns
    the measured magnitude ratio, the power law's ratio, the relative
    error of the first against the second, and whether that error is at
    most DECAY_TOL.  K* is assembled on 2D grids only, so a 3D shape
    raises InvalidShapeError.
    """
    grid = discretize(shape, _DECAY_N)
    phi = solve_density(grid, k, a)
    dirs = Ellipse(1.0, 1.0).outline(_DECAY_ANGLES)
    lo, hi = shape.bbox()
    center = 0.5 * (lo + hi)
    radii = [f * shape.scale() for f in _DECAY_FACTORS]
    inner, outer = (
        float(np.max(np.abs(single_layer_eval(grid, phi, center + r * dirs)))) for r in radii
    )
    ratio, expected = inner / outer, radii[1] / radii[0]
    rel_error = abs(ratio / expected - 1.0)
    return ratio, expected, rel_error, rel_error <= DECAY_TOL
