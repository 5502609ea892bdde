"""Single-layer potentials and the boundary trace operator.

Conventions: the fundamental solution G satisfies (Laplacian G) = delta,
so G(x) = (1/2 pi) log|x| in 2D and G(x) = -1/(4 pi |x|) in 3D.  The
single layer is S[phi](x) = integral G(x - y) phi(y) dsigma(y), its normal
derivative jumps by the density,

    dS[phi]/dn (one-sided) = (+-1/2 I + K*) phi,

and K* is the trace operator with kernel <x - y, n(x)> / (omega_d |x-y|^d).
On the unit sphere K*[n_j] = n_j / 6 and on any ellipse K*[n_j] =
(1/2 - a_j) n_j with a_j the depolarization factors; these anchors pin the
sign convention of every routine here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidShapeError, NearBoundaryError
from .geometry import BoundaryGrid, _pair_blocks, discretize, shape_scale


@dataclass
class Density:
    """Boundary density given by node values on a grid."""

    values: np.ndarray
    grid: BoundaryGrid


@dataclass
class NpoOperator:
    """Dense Nystrom realization of the trace operator K*."""

    matrix: np.ndarray
    grid: BoundaryGrid

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values


def _values(phi) -> np.ndarray:
    return phi.values if isinstance(phi, Density) else np.asarray(phi, dtype=float)


def _guard(grid: BoundaryGrid, points: np.ndarray) -> None:
    for rows, _, r2 in _pair_blocks(points, grid.nodes):
        idx = np.argmin(r2, axis=1)
        dist = np.sqrt(r2[np.arange(len(idx)), idx])
        bad = dist < 2.0 * grid.spacing[idx]
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NearBoundaryError(
                f"point {points[rows][i]} is {dist[i]:.3e} from the boundary; "
                f"need >= {2 * grid.spacing[idx[i]]:.3e} for this grid"
            )


def single_layer_eval(grid: BoundaryGrid, phi, points: np.ndarray) -> np.ndarray:
    """S[phi] at off-boundary points (guarded against near-boundary loss)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _guard(grid, points)
    q = _values(phi) * grid.weights
    out = np.empty(len(points))
    for rows, _, r2 in _pair_blocks(points, grid.nodes):
        if grid.dim == 2:
            out[rows] = (np.log(r2) / (4 * np.pi)) @ q
        else:
            out[rows] = (-1.0 / (4 * np.pi * np.sqrt(r2))) @ q
    return out


def single_layer_gradient(grid: BoundaryGrid, phi, points: np.ndarray) -> np.ndarray:
    """grad S[phi] at off-boundary points (guarded)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _guard(grid, points)
    q = _values(phi) * grid.weights
    out = np.empty((len(points), grid.dim))
    for rows, dx, r2 in _pair_blocks(points, grid.nodes):
        if grid.dim == 2:
            ker = 1.0 / (2 * np.pi * r2)
        else:
            ker = 1.0 / (4 * np.pi * r2 * np.sqrt(r2))
        dx *= ker
        out[rows] = (dx @ q).T
    return out


def _directional_kernel_sum(grid, q, points, directions):
    """sum_s <x - y_s, dir(x)> / (2 pi |x - y_s|^2) q_s, chunked over x."""
    out = np.empty(len(points))
    for rows, dx, r2 in _pair_blocks(points, grid.nodes):
        num, dy = dx
        num *= directions[rows, 0:1]
        dy *= directions[rows, 1:2]
        num += dy
        num /= r2
        out[rows] = (num @ q) / (2 * np.pi)
    return out


def npo_matrix(grid: BoundaryGrid) -> NpoOperator:
    """Assemble the dense K* matrix on a 2D boundary grid.

    With nodes and normals as complex numbers z and nu, the off-diagonal
    entry (x, y) is Re(nu(x) / (z(x) - z(y))) w(y) / 2 pi, the plain kernel
    times the target-free weight.  The diagonal uses the smooth-curve limit
    kappa/(4 pi) on parametrized curves and is zero on polygon grids (the
    kernel vanishes identically along each straight edge).  K* does not
    depend on the contrast, so one matrix serves every solve on the grid.
    """
    if grid.dim != 2:
        raise InvalidShapeError("K* matrices are assembled for 2D grids only")
    z = grid.nodes[:, 0] + 1j * grid.nodes[:, 1]
    nu = grid.normals[:, 0] + 1j * grid.normals[:, 1]
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    mat = np.divide(nu[:, None], diff, out=diff).real * (grid.weights / (2 * np.pi))
    if grid.curvature is not None:
        np.fill_diagonal(mat, grid.curvature / (4 * np.pi) * grid.weights)
    else:
        np.fill_diagonal(mat, 0.0)
    return NpoOperator(matrix=mat, grid=grid)


# ---------------------------------------------------------------------------
# jump relation check

def upsample_periodic(values: np.ndarray, n_fine: int) -> np.ndarray:
    """Trigonometric interpolation of equispaced periodic samples."""
    n = len(values)
    if n_fine == n:
        return np.asarray(values, dtype=float)
    spec = np.fft.rfft(values)
    if n % 2 == 0:
        spec[-1] *= 0.5  # split the Nyquist bin between +-n/2
    pad = np.zeros(n_fine // 2 + 1, dtype=complex)
    pad[: len(spec)] = spec
    return np.fft.irfft(pad, n=n_fine) * (n_fine / n)


def _one_sided_derivatives(grid: BoundaryGrid, values, h: float | None = None):
    """Outer and inner normal derivatives of S[values] at the nodes of ``grid``.

    Richardson extrapolation of probes at x +- h n(x) and x +- 2h n(x)
    (h defaults to 1e-4 x shape scale), summed on a refined grid carrying
    the density by trigonometric interpolation.  Trapezoid sums at distance
    h lose accuracy like exp(-n h / max speed), so the refined grid is sized
    for about 2e-6 error, within 2^12..2^19 nodes.  Smooth curves only.
    """
    if grid.params is None:
        raise InvalidShapeError("jump and flux checks need a smooth parametrized grid")
    if h is None:
        h = 1e-4 * shape_scale(grid.shape)
    need = 13.0 * float(np.max(grid.speed)) / h
    n_fine = 1 << int(np.ceil(np.log2(max(need, 4096))))
    fine = discretize(grid.shape, min(n_fine, 1 << 19))
    q = upsample_periodic(values, fine.n) * fine.weights
    probes = np.concatenate([grid.nodes + s * h * grid.normals for s in (1, 2, -1, -2)])
    dirs = np.concatenate([grid.normals] * 4)
    g = _directional_kernel_sum(fine, q, probes, dirs).reshape(4, grid.n)
    return 2 * g[0] - g[1], 2 * g[2] - g[3]


def jump_check(grid: BoundaryGrid, phi, h: float | None = None) -> float:
    """Max mismatch of the one-sided normal derivatives of the single layer
    (``_one_sided_derivatives``) against (+-1/2 I + K*) phi."""
    values = _values(phi)
    d_plus, d_minus = _one_sided_derivatives(grid, values, h)
    kphi = npo_matrix(grid).apply(values)
    mis_plus = np.abs(d_plus - (0.5 * values + kphi))
    mis_minus = np.abs(d_minus - (-0.5 * values + kphi))
    return float(max(mis_plus.max(), mis_minus.max()))


# ---------------------------------------------------------------------------
# Green identity on closed surfaces

def green_identity_check(grid: BoundaryGrid, points: np.ndarray) -> float:
    """Residual of the closed-surface identity

        int (x_j - y_j) <x - y, n(y)> / |x-y|^3 dsigma(y)
            = - int n_j(y) / |x-y| dsigma(y),

    valid for x strictly inside; returns the max absolute residual over
    the requested interior points and components j.
    """
    if grid.dim != 3:
        raise InvalidShapeError("the identity is checked on 3D surface grids")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _guard(grid, points)
    lhs, rhs = _green_sides(grid, points)
    return float(np.max(np.abs(lhs - rhs)))


def _green_sides(grid: BoundaryGrid, points: np.ndarray):
    """Both integrals of ``green_identity_check`` at each point, (m, 3) each;
    unguarded, and the caller judges the residual."""
    lhs = np.empty_like(points)
    rhs = np.empty_like(points)
    for rows, dx, r2 in _pair_blocks(points, grid.nodes):
        r = np.sqrt(r2)
        flux = np.einsum("jps,sj->ps", dx, grid.normals) / r**3
        lhs[rows] = ((dx * flux) @ grid.weights).T
        rhs[rows] = -(1.0 / r) @ (grid.normals * grid.weights[:, None])
    return lhs, rhs
