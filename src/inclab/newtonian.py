"""Volume potentials of homogeneous bodies and depolarization factors.

The Newtonian potential N(x) = integral_Omega G(x - y) dy (with
Laplacian G = delta, so Laplacian N = 1 inside the body) is computed two
independent ways:

* ``flux``: reduction to a boundary integral.  With H(z) = z u(|z|) chosen
  so that div_z H = -G, the divergence theorem turns the volume integral
  into N(x) = integral_bdry u(|x - y|) <x - y, n(y)> dsigma(y), where
  u(r) = (1 - 2 log r)/(8 pi) in 2D and u(r) = 1/(8 pi r) in 3D.  The
  integrand is smooth for interior x, so smooth grids converge spectrally.

* ``radial``: a polar / spherical product rule centered at the evaluation
  point.  Writing y = x + r omega the volume element cancels the kernel
  singularity and the radial integral is available in closed form per
  direction, leaving a smooth angular integrand.  The angular rule is
  the unit circle's boundary grid (2048 trapezoid nodes) in 2D and the
  unit sphere's (96 Gauss-Legendre x 192 trapezoid nodes) in 3D.  The
  shape's ``ray_exit`` gives the one distance r at which each ray leaves the
  body, so the route needs every ray from x to cross the boundary
  exactly once (the body star-shaped with respect to x).  Ellipses and
  ellipsoids are convex and always meet it, a polygon does at the points
  of its kernel, and a nonconvex star need not: on
  FourierStar(1, ((4, -0.106, 0.095),)) at margin 0.2, 2 of 8192 rays
  from x = (-0.812, -0.406) cross three times and the routes differ by
  3.0e-6 there, while the flux value moves by 8e-17 from 512 to 4096
  boundary nodes.

Where that precondition holds the routes agree to 1e-6, and they are
cross-checked in the test suite, together with a brute midpoint oracle
that lives there.

For ellipsoids the interior potential is exactly quadratic with pure
second-order coefficients a_j / 2, where a_j are the depolarization
factors

    a_j = (c1 c2 c3 / 2) integral_0^inf ds /
          ((c_j^2 + s) sqrt((c1^2+s)(c2^2+s)(c3^2+s))),

evaluated here through Carlson's symmetric integral R_D with the
duplication algorithm.  ``quadratic_interior_fit`` measures how far a
shape's potential is from such a quadratic; the misfit is the working
definition of "this shape is not an ellipsoid".
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import SolveError
from .geometry import (
    Box,
    Ellipse,
    Ellipsoid,
    FourierStar,
    Polygon,
    ShapeSpec,
    _RAY_CHUNK,
    _pair_blocks,
    _row_blocks,
    discretize,
    interior_points,
)

# ---------------------------------------------------------------------------
# Carlson symmetric integral

def carlson_rd(x: float, y: float, z: float) -> float:
    """R_D(x, y, z) by the duplication theorem, relative error ~1e-15.

    Requires finite x, y >= 0, z > 0 and at most one of x, y zero.
    """
    if not all(map(math.isfinite, (x, y, z))) or min(x, y) < 0 or z <= 0 or x + y == 0:
        raise ValueError("carlson_rd needs finite x, y >= 0 (not both zero) and z > 0")
    acc = 0.0
    fac = 1.0
    for _ in range(200):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        acc += fac / (sz * (z + lam))
        fac *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + 3.0 * z) / 5.0
        dx, dy, dz = (mu - x) / mu, (mu - y) / mu, (mu - z) / mu
        if max(abs(dx), abs(dy), abs(dz)) < 1e-4:
            break
    else:  # pragma: no cover - each step contracts the spread by 4 unless a sum overflows
        raise RuntimeError("carlson_rd failed to converge")
    ea = dx * dy
    eb = dz * dz
    ec = ea - eb
    ed = ea - 6.0 * eb
    ee = ed + ec + ec
    series = (
        1.0
        + ed * (-3.0 / 14.0 + 9.0 / 88.0 * ed - 9.0 / 52.0 * dz * ee)
        + dz * (ee / 6.0 + dz * (-9.0 / 22.0 * ec + dz * 3.0 / 26.0 * ea))
    )
    return 3.0 * acc + fac * series / (mu * math.sqrt(mu))


def depolarization_factors(shape: Ellipsoid) -> np.ndarray:
    """The three ellipsoid depolarization factors (they sum to one)."""
    c1, c2, c3 = shape.c1, shape.c2, shape.c3
    pref = c1 * c2 * c3 / 3.0
    a1 = pref * carlson_rd(c2 * c2, c3 * c3, c1 * c1)
    a2 = pref * carlson_rd(c3 * c3, c1 * c1, c2 * c2)
    a3 = pref * carlson_rd(c1 * c1, c2 * c2, c3 * c3)
    return np.array([a1, a2, a3])


def depolarization_factors_2d(shape: Ellipse) -> np.ndarray:
    """Planar analogues b/(a+b), a/(a+b); the disk gives (1/2, 1/2)."""
    a, b = shape.a, shape.b
    return np.array([b / (a + b), a / (a + b)])


def closed_form_factors(shape: ShapeSpec) -> np.ndarray | None:
    """Factors of an ellipsoid or ellipse; None for shapes without a closed form."""
    if isinstance(shape, Ellipsoid):
        return depolarization_factors(shape)
    if isinstance(shape, Ellipse):
        return depolarization_factors_2d(shape)
    return None


# ---------------------------------------------------------------------------
# Newtonian potential, boundary-flux path

def _flux_u(r: np.ndarray, dim: int) -> np.ndarray:
    if dim == 2:
        return (1.0 - 2.0 * np.log(r)) / (8.0 * np.pi)
    return 1.0 / (8.0 * np.pi * r)


# Boundary resolution of the flux route per shape class; boxes have no grid.
_FLUX_N = {Ellipse: 512, FourierStar: 512, Polygon: 48, Ellipsoid: 48}


@lru_cache(maxsize=16)
def _flux_grid(shape: ShapeSpec):
    return discretize(shape, _FLUX_N.get(type(shape)))


def _newtonian_flux(shape: ShapeSpec, points: np.ndarray) -> np.ndarray:
    grid = _flux_grid(shape)
    out = np.empty(len(points))
    for rows, dx, r2 in _pair_blocks(points, grid.nodes):
        flux = np.einsum("jps,sj->ps", dx, grid.normals)
        out[rows] = (_flux_u(np.sqrt(r2), grid.dim) * flux) @ grid.weights
    return out


# ---------------------------------------------------------------------------
# Newtonian potential, radial path

def _radial_value_2d(rho: np.ndarray) -> np.ndarray:
    # integral_0^rho r log r dr / (2 pi)
    return (0.5 * rho * rho * np.log(rho) - 0.25 * rho * rho) / (2 * np.pi)


def _radial_value_3d(rho: np.ndarray) -> np.ndarray:
    # integral_0^rho (-1/(4 pi r)) r^2 dr
    return -rho * rho / (8 * np.pi)


# Gauss-Legendre angles per polygon edge in the radial rule.
_POLYGON_GAUSS = 48


@lru_cache(maxsize=2)
def _ray_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights of the angular rule: the nodes and weights of
    the unit circle's 2048-node grid in 2D and of the unit sphere's 96 x 192
    grid in 3D, which are unit vectors with weights summing to 2 pi and 4 pi."""
    shape, n = (Ellipse(1.0, 1.0), 2048) if dim == 2 else (Ellipsoid(1.0, 1.0, 1.0), 96)
    unit = discretize(shape, n)
    return unit.nodes, unit.weights


def _newtonian_radial(shape: ShapeSpec, points: np.ndarray) -> np.ndarray:
    if isinstance(shape, Polygon):
        width = len(shape.vertices) * _POLYGON_GAUSS

        def block(x):
            return _polygon_radial_block(shape, x)
    else:  # boxes take their closed form; every other shape has ray_exit
        dirs, wts = _ray_rule(shape.dim)
        value = _radial_value_2d if shape.dim == 2 else _radial_value_3d
        width = len(dirs)

        def block(x):
            return np.sum(value(shape.ray_exit(x, dirs)) * wts, axis=1)
    out = np.empty(len(points))
    for rows in _row_blocks(len(points), width, _RAY_CHUNK):
        out[rows] = block(points[rows])
    return out


def _polygon_radial_block(shape: Polygon, x: np.ndarray) -> np.ndarray:
    # Each edge subtends an angular sector seen from x; along a direction in
    # it the ray meets the edge's line at distance p / <direction, normal>.
    gx, gw = np.polynomial.legendre.leggauss(_POLYGON_GAUSS)
    rel = np.asarray(shape.vertices)[None, :, :] - x[:, None, :]
    a0 = np.arctan2(rel[..., 1], rel[..., 0])
    da = (np.roll(a0, -1, axis=1) - a0) % (2 * np.pi)
    nrm = np.stack([shape.edges[:, 1], -shape.edges[:, 0]], axis=1) / shape.lengths[:, None]
    p = rel[..., 0] * nrm[:, 0] + rel[..., 1] * nrm[:, 1]
    th = a0[..., None] + (0.5 * gx + 0.5) * da[..., None]
    rho = p[..., None] / (np.cos(th) * nrm[:, :1] + np.sin(th) * nrm[:, 1:])
    return np.sum(np.sum(_radial_value_2d(rho) * gw, axis=2) * (0.5 * da), axis=1)


# ---------------------------------------------------------------------------
# box closed form

def _box_inverse_distance(shape: Box, x: np.ndarray) -> float:
    """integral over the box of dy / |x - y|, corner-sum closed form."""
    h = np.asarray(shape.half)
    corners = [((-1.0, lo), (1.0, hi)) for lo, hi in zip(-h - x, h - x)]
    total = 0.0
    for (sx, X), (sy, Y), (sz, Z) in itertools.product(*corners):
        R = math.sqrt(X * X + Y * Y + Z * Z)
        cyclic = ((X, Y, Z), (Y, Z, X), (Z, X, Y))
        term = 0.0
        for a, b, c in cyclic:
            if abs(a) > 0 and abs(b) > 0 and c + R > 0:
                term += a * b * math.log(c + R)
        # the primitive needs the principal arctangent branch; atan2 would
        # jump by pi whenever the first factor is negative
        for a, b, c in cyclic:
            if abs(a) > 0:
                term -= 0.5 * a * a * math.atan(b * c / (a * R))
        total += sx * sy * sz * term
    return total


# ---------------------------------------------------------------------------
# public entry points

def newtonian_potential(shape: ShapeSpec, points, method: str = "flux") -> np.ndarray:
    """N(x) at interior points.

    ``method`` picks the evaluation route: "flux" (boundary reduction,
    default) or "radial" (point-centered product rule).  Boxes always use
    their closed form.  The radial route assumes every ray from each
    point leaves the shape exactly once; where one crosses the boundary
    more than once its value is wrong by the part of the ray it misses.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(shape, Box):
        return np.array([-_box_inverse_distance(shape, x) / (4 * np.pi) for x in points])
    if method == "flux":
        return _newtonian_flux(shape, points)
    if method == "radial":
        return _newtonian_radial(shape, points)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# quadratic interior fit

def _default_margin(shape: ShapeSpec) -> float:
    """Default clearance for fit samples: deep enough that boundary-rule
    error is negligible, shallow enough that the sample sees the shape's
    non-quadratic behavior (the separation the residual check relies on)."""
    return shape.default_margin()


# Points in the fit sample of a 2D and of a 3D shape.
_FIT_COUNT = {2: 40, 3: 80}


def quadratic_interior_fit(shape: ShapeSpec) -> dict:
    """Fit the flux-route N on an interior sample to a full quadratic polynomial.

    The sample holds _FIT_COUNT points at the shape's default margin.  The
    least-squares fit runs on u = (x - m) / s, with m the sample mean and s
    the shape's scale, so its columns are of one size at any scale; A, b and
    c are then mapped back to x.  Returns the ``newtonian`` report's
    ``quadratic_fit`` fields: the symmetric A, b and c of N ~ x.Ax + b.x + c,
    and the rms residual over the spread of the sampled potential, which is
    scale-free.  For ellipses/ellipsoids the residual is at quadrature level
    and the diagonal of A reproduces half the depolarization factors;
    cornered shapes leave a residual well above 1e-3.
    """
    d = shape.dim
    pts = interior_points(shape, _FIT_COUNT[d], _default_margin(shape)).points
    vals = newtonian_potential(shape, pts)
    mean, scale = pts.mean(axis=0), shape.scale()
    u = (pts - mean) / scale
    quad_idx = [(i, j) for i in range(d) for j in range(i, d)]
    cols = [np.ones(len(u))] + [u[:, j] for j in range(d)]
    X = np.stack(cols + [u[:, i] * u[:, j] for i, j in quad_idx], axis=1)
    coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
    A = np.zeros((d, d))
    for (i, j), q in zip(quad_idx, coef[1 + d :]):
        A[i, j] = A[j, i] = q if i == j else 0.5 * q
    A /= scale * scale
    slope = coef[1 : 1 + d] / scale  # the gradient at the mean
    resid = vals - X @ coef
    spread = max(float(np.max(vals) - np.min(vals)), 1e-300)
    rms = float(np.sqrt(np.mean(resid**2)) / spread)
    if not np.isfinite(rms):
        raise SolveError("quadratic fit residual is not finite: the squared potentials overflow")
    b = slope - 2.0 * A @ mean
    c = float(coef[0] - slope @ mean + mean @ A @ mean)
    return {"A": A, "b": b, "c": c, "rms_residual": rms}


def quadratic_verdict(shape: ShapeSpec) -> dict:
    """The ``newtonian`` report's checks, in its order, each beside its tolerance.

    The fit's residual must be at most ``residual_tol``.  On an ellipse or
    ellipsoid (fields after ``passed``) diag(A) must come within ``diag_tol``
    of half the depolarization factors, and the ellipsoid's three must sum
    to 1 within ``factor_sum_tol``.
    """
    fit = {**quadratic_interior_fit(shape), "residual_tol": 1e-6}
    out = {"quadratic_fit": fit, "passed": fit["rms_residual"] <= fit["residual_tol"]}
    vals = closed_form_factors(shape)
    if vals is not None:
        out["depolarization_factors"] = vals
        if len(vals) == 3:
            out["factor_sum"] = float(sum(vals))
            out["factor_sum_tol"] = 1e-10
            out["passed"] = out["passed"] and abs(out["factor_sum"] - 1.0) <= out["factor_sum_tol"]
        out["diag_vs_half_factors"] = float(np.max(np.abs(np.diag(fit["A"]) - vals / 2.0)))
        out["diag_tol"] = 1e-5
        out["passed"] = out["passed"] and out["diag_vs_half_factors"] <= out["diag_tol"]
    return out
