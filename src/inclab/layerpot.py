"""Single-layer potentials and the boundary trace operator on 2D grids.

Conventions: the fundamental solution G satisfies (Laplacian G) = delta,
so G(x) = (1/2 pi) log|x|.  The single layer is S[phi](x) = integral
G(x - y) phi(y) ds(y), its normal derivative jumps by the density,

    dS[phi]/dn (one-sided) = (+-1/2 I + K*) phi,

and K* is the trace operator with kernel <x - y, n(x)> / (2 pi |x-y|^2).
On any ellipse K*[n_j] = (1/2 - a_j) n_j with a_j the depolarization
factors; this anchor pins the sign convention of every routine here.  The
3D surface sums (the single layer with kernel 1/(4 pi |x - y|), the Kelvin
layer and the Green identity) live in ``elastostatics``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShapeError, NearBoundaryError, ResolutionError
from .geometry import BoundaryGrid, _pair_blocks, _row_blocks, discretize

# Most nodes ``npo_matrix`` assembles K* on: the dense matrix alone is then 2 GiB.
_MAX_NPO_NODES = 1 << 14

# Entries of a row block of K* (at least one row).  This stays above the
# pair walks' 2^15: with blocks of 2^15 entries, one shape-search pass of five
# n = 256 assemblies took 1,280 minor page faults, against none at 2^17.
_NPO_CHUNK = 1 << 17


def _guarded_blocks(grid: BoundaryGrid, points: np.ndarray, spare: int = 0):
    """``_pair_blocks`` of points and grid nodes, with ``spare`` work arrays;
    the first point closer than two node spacings to its nearest node raises
    NearBoundaryError."""
    for rows, dx, r2, *work in _pair_blocks(points, grid.nodes, spare):
        idx = np.argmin(r2, axis=1)
        dist = np.sqrt(r2[np.arange(len(idx)), idx])
        bad = dist < 2.0 * grid.spacing[idx]
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NearBoundaryError(
                f"point {points[rows][i]} is {dist[i]:.3e} from the boundary; "
                f"need >= {2 * grid.spacing[idx[i]]:.3e} for this grid"
            )
        yield (rows, dx, r2, *work)


def _plane(grid: BoundaryGrid):
    """Refuse a 3D grid; ``elastostatics`` holds the 3D surface sums."""
    if grid.dim != 2:
        raise InvalidShapeError("layer potentials and K* are evaluated on 2D grids only")


def single_layer_eval(grid: BoundaryGrid, phi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """S[phi] at off-boundary points (guarded against near-boundary loss)."""
    _plane(grid)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    q = phi * grid.weights
    out = np.empty(len(points))
    for rows, _, r2 in _guarded_blocks(grid, points):
        np.log(r2, out=r2)
        r2 /= 4 * np.pi
        out[rows] = r2 @ q
    return out


def single_layer_gradient(grid: BoundaryGrid, phi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """grad S[phi] at off-boundary points (guarded)."""
    _plane(grid)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    q = phi * grid.weights
    out = np.empty((len(points), 2))
    for rows, dx, r2 in _guarded_blocks(grid, points):
        r2 *= 2 * np.pi
        dx *= np.divide(1.0, r2, out=r2)
        out[rows] = (dx @ q).T
    return out


def npo_matrix(grid: BoundaryGrid) -> np.ndarray:
    """The dense (n, n) K* matrix on a 2D boundary grid, as an array.

    With nodes and normals as complex numbers z and nu, the off-diagonal
    entry (x, y) is Re(nu(x) / (z(x) - z(y))) w(y) / 2 pi, the plain kernel
    times the target-free weight.  The diagonal uses the smooth-curve limit
    kappa/(4 pi) w on parametrized curves.  On polygon grids (no curvature)
    it is set by singularity subtraction so that the discrete Gauss identity
    w^T K* = w^T / 2 holds exactly: with the diagonal zeroed,
    diag = (w/2 - w^T K*) / w.  K* does not depend on the contrast, so one
    matrix serves every solve on the grid.  Rows are assembled in blocks of
    at most max(2^17, n) entries, so the complex temporary never holds the
    whole matrix.  A 3D grid raises InvalidShapeError, and a grid of more
    than _MAX_NPO_NODES nodes ResolutionError.
    """
    _plane(grid)
    if grid.n > _MAX_NPO_NODES:
        raise ResolutionError(f"K* on {grid.n} nodes exceeds the cap of {_MAX_NPO_NODES}")
    z = grid.nodes[:, 0] + 1j * grid.nodes[:, 1]
    nu = grid.normals[:, 0] + 1j * grid.normals[:, 1]
    w = grid.weights / (2 * np.pi)
    mat = np.empty((grid.n, grid.n))
    for rows in _row_blocks(grid.n, grid.n, _NPO_CHUNK):
        diff = z[rows, None] - z[None, :]
        np.fill_diagonal(diff[:, rows.start:], 1.0)
        np.multiply(np.divide(nu[rows, None], diff, out=diff).real, w, out=mat[rows])
    if grid.curvature is not None:
        np.fill_diagonal(mat, grid.curvature / (4 * np.pi) * grid.weights)
    else:
        np.fill_diagonal(mat, 0.0)
        np.fill_diagonal(mat, (0.5 * grid.weights - grid.weights @ mat) / grid.weights)
    return mat


def tangential_derivative(grid: BoundaryGrid, values: np.ndarray) -> np.ndarray:
    """Tangential derivative of S[values] at the nodes of a smooth 2D grid.

    The principal value of the kernel -Im(nu(x) / (z(x) - z(y))) w(y) / 2 pi
    (the imaginary half of ``npo_matrix``'s division; the tangent is i nu)
    by the alternating-point trapezoid rule: each node sums over the nodes
    an odd number of places away, at doubled weights.  Even nodes face odd
    nodes and back, so one (n/2) x (n/2) reciprocal serves both halves.
    ``values`` is (n,) or (n, m) with one density per column.
    """
    if grid.params is None:
        raise InvalidShapeError("tangential derivatives need a smooth parametrized grid")
    if grid.n % 2:
        raise InvalidShapeError("the alternating-point rule needs an even node count")
    z = grid.nodes[:, 0] + 1j * grid.nodes[:, 1]
    nu = grid.normals[:, 0] + 1j * grid.normals[:, 1]
    q = (values.T * (grid.weights / np.pi)).T
    inv = 1.0 / (z[0::2, None] - z[None, 1::2])
    out = np.empty(q.shape)
    out[0::2] = -(nu[0::2, None] * inv).imag @ q[1::2]
    out[1::2] = (nu[1::2, None] * inv.T).imag @ q[0::2]
    return out


# ---------------------------------------------------------------------------
# jump relation check

def upsample_periodic(values: np.ndarray, n_fine: int) -> np.ndarray:
    """Trigonometric interpolation of n equispaced periodic samples to n_fine > n."""
    n = len(values)
    spec = np.fft.rfft(values)
    if n % 2 == 0:
        spec[-1] *= 0.5  # split the Nyquist bin between +-n/2
    pad = np.zeros(n_fine // 2 + 1, dtype=complex)
    pad[: len(spec)] = spec
    return np.fft.irfft(pad, n=n_fine) * (n_fine / n)


# Close evaluation: center distance in node spacings, source nodes per node,
# and expansion order (a power of two, summed by repeated squaring).
_QBX_RADIUS = 2.0
_QBX_UPSAMPLE = 8
_QBX_ORDER = 16
# Bound tau on |t| for a source to count as far: tau^(P + 1) = 2^-51 at
# P = 16, so a far source's series is its plain kernel to rounding.
_QBX_TAU = 0.125


def _one_sided_derivatives(grid: BoundaryGrid, values) -> np.ndarray:
    """Outer and inner normal derivatives of S[values] at the nodes of ``grid``,
    as the rows of a (2, n) array.

    Quadrature by expansion (Kloeckner et al., J. Comput. Phys. 252, 2013).
    With q = density x weight / 2 pi on 8n source nodes w (trigonometric
    interpolation), g = dS/dx1 - i dS/dx2 = sum q / (z - w) is expanded to
    order P = 16 about one center c = x +- r nu(x) per side of each node x,
    r = 2 node spacings, and summed at x:

        g(x) ~ sum_j q_j sum_{p <= P} t_j^p / (c - w_j),  t_j = (c - x) / (c - w_j).

    For w_j != x the inner sum is exactly (1 - t_j^(P+1)) / (x - w_j).  A
    source with |x - w_j| > r (1 + 1/tau) has |t_j| < tau = 1/8 on both
    sides, so t_j^(P+1) < 2^-51 and its term is the plain kernel
    q_j / (x - w_j) to rounding: the far sources need no expansion, and
    their sum serves both sides.  Only the near sources are expanded, once
    per side.  Each expansion continues its own side's field, so the outer
    and inner limits Re(nu g), and the jump between them, are measured, not
    imposed.  Nodes are walked in ``_pair_blocks`` of node-source pairs,
    which also bound the near pairs gathered.
    """
    if grid.params is None:
        raise InvalidShapeError("jump and flux checks need a smooth parametrized grid")
    fine = discretize(grid.shape, _QBX_UPSAMPLE * grid.n)
    q = upsample_periodic(values, fine.n) * fine.weights / (2 * np.pi)
    to_z = np.array([1.0, 1j])
    reach = _QBX_RADIUS * grid.spacing * (grid.normals @ to_z)  # c - x, outer side
    near2 = (np.abs(reach) * (1.0 + 1.0 / _QBX_TAU)) ** 2
    g = np.empty((2, grid.n), dtype=complex)
    for rows, (dx, dy), r2 in _pair_blocks(grid.nodes, fine.nodes):
        pairs = np.flatnonzero(r2 <= near2[rows, None])
        i, j = np.divmod(pairs, fine.n)
        d = dx.ravel()[pairs] + 1j * dy.ravel()[pairs]  # x - w on the near pairs
        # far pairs: q / (x - w) = q conj(x - w) / |x - w|^2, one sum for both
        # sides; an infinite r2 drops the near pairs from it
        r2.ravel()[pairs] = np.inf
        dx /= r2
        dy /= r2
        g[:, rows] = dx @ q - 1j * (dy @ q)
        h, qj, block = reach[rows][i], q[j], len(r2)
        for side, c in enumerate((h, -h)):
            inv = 1.0 / (c + d)  # 1 / (c - w)
            t = c * inv
            # sum_{p <= P} t^p = (1 + t)(1 + t^2)(1 + t^4) ... (1 + t^(P/2)) + t^P
            series = t + 1.0
            for _ in range(_QBX_ORDER.bit_length() - 2):
                t *= t
                series *= t + 1.0
            t *= t
            series += t
            series *= inv * qj
            g[side, rows] += np.bincount(i, series.real, block) + 1j * np.bincount(
                i, series.imag, block
            )
    return ((grid.normals @ to_z) * g).real


def jump_check(grid: BoundaryGrid, phi: np.ndarray) -> float:
    """Max mismatch of the one-sided normal derivatives of the single layer
    against (+-1/2 I + K*) phi.

    The derivatives come from ``_one_sided_derivatives``, whose expansion
    order, radius, upsampling and far-source bound are the ``_QBX_*`` constants."""
    kphi = npo_matrix(grid) @ phi
    limits = np.stack([kphi + 0.5 * phi, kphi - 0.5 * phi])
    return float(np.max(np.abs(_one_sided_derivatives(grid, phi) - limits)))
