"""Shape descriptions, boundary grids, and interior sampling.

Shapes are frozen dataclasses.  Ellipses, ellipsoids and boxes sit at the
origin with their axes on the coordinate axes: a polarization tensor turns to
R M R^T under a rotation R and stays put under a translation, so placement
adds nothing to check.  Each class carries its own geometry:
``dim``, ``measure``, ``scale``, ``center_point``, ``bbox``, ``clearance``,
``default_margin`` and ``boundary_grid``, plus ``outline`` on the 2D
shapes, ``curve_frame`` on the smooth curves, and ``ray_exit`` (where
rays from interior points leave the shape) on ellipses, stars and
ellipsoids; ``_Quadric`` holds the one copy that ellipses and ellipsoids
share.  Callers use these methods directly; ``discretize`` calls ``boundary_grid``.
A polygon's and a star's ``clearance`` run their inside test first (even-odd;
radial) and walk the distance to a polyline only at the points it keeps.

``discretize`` turns a shape into a quadrature-ready boundary grid:
equispaced-parameter trapezoid nodes for smooth curves (spectrally
accurate), per-edge Gauss-Legendre panels with dyadic grading into the
corners for polygons, and an n x 2n Gauss-Legendre x trapezoid product
grid for ellipsoids.  All normals are outward unit vectors; all weights are
positive and sum to the surface measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .errors import EmptySampleError, InvalidShapeError, ResolutionError

# Gauss-Legendre order per polygon panel and grading depth into corners.
PANEL_ORDER = 8
CORNER_DEPTH = 6

# Most nodes a boundary grid may hold; larger grids are refused before any
# array is allocated.
_MAX_GRID_NODES = 1 << 22

# ``interior_points`` keeps a point whose ``clearance`` (a bound that never
# exceeds its distance to the boundary) is at least margin - _MARGIN_SLACK * scale().
_MARGIN_SLACK = 1e-12

# Angles at which a star's radius is sampled for its area, extent, default
# margin and positivity check.
_STAR_ANGLES = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)

# Star modes must lie below this: r^2 holds frequencies up to twice the
# highest mode, and the sample integrates them exactly only below 4096.
_STAR_MODE_CAP = len(_STAR_ANGLES) // 2

# Point-node pairs ``_pair_blocks`` holds at once (a block is never smaller
# than one target row).
_CHUNK = 1 << 17

# Point-direction pairs of a ray-exit block and point-segment pairs of a
# clearance block (also never smaller than one point's row).
_RAY_CHUNK = 1 << 14

# Safeguarded Newton on a star's ray exits: iteration cap, and the absolute
# step, in units of the bracket length, below which a ray has converged.  The
# exit residual is only known to about eps * radius, so a relative (ulp) test
# could flip-flop between neighboring floats forever.
_NEWTON_CAP = 80
_NEWTON_STEP = 16 * np.finfo(float).eps


class _PlaneShape:
    """Geometry shared by the 2D shapes, which each define ``outline``."""

    dim: ClassVar[int] = 2

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.outline(1024)
        return p.min(axis=0), p.max(axis=0)


class _SmoothCurve(_PlaneShape):
    """A 2D shape with a smooth 2 pi-periodic parametrization ``curve_frame``."""

    def outline(self, count: int) -> np.ndarray:
        """Curve positions at ``count`` equispaced parameters."""
        t = 2 * np.pi * np.arange(count) / count
        return self.curve_frame(t)[0]

    def boundary_grid(self, n) -> BoundaryGrid:
        n = int(n)
        if n < 64:
            raise ResolutionError("smooth curves need n >= 64")
        _check_grid_size(n)
        t = 2 * np.pi * np.arange(n) / n
        p, normals, speed, kappa = self.curve_frame(t)
        w = speed * (2 * np.pi / n)
        return BoundaryGrid(self, p, normals, w, params=t, curvature=kappa)


class _Quadric:
    """Ellipse and ellipsoid geometry, read from their fields (a, b) or (c1, c2, c3)."""

    @property
    def semi_axes(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)])

    def scale(self) -> float:
        return float(np.max(self.semi_axes))

    def center_point(self) -> np.ndarray:
        return np.zeros(self.dim)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        c = self.semi_axes
        return -c, c

    def clearance(self, pts: np.ndarray) -> np.ndarray:
        # analytic bound: the distance is at least min(c) (1 - rho)
        c = self.semi_axes
        rho = np.sqrt(((pts / c) ** 2).sum(axis=1))
        return np.min(c) * (1.0 - rho)

    def default_margin(self) -> float:
        return 0.25 * float(np.min(self.semi_axes))

    def ray_exit(self, points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Distance t > 0 with sum_i ((q_i + t d_i) / c_i)^2 = 1 from each
        interior point q along each unit direction d, (len(points), len(dirs))."""
        inv = 1.0 / self.semi_axes
        # component by component: long inner loops, and each entry of B is
        # independent of how many points share the call
        qa = points * inv
        da = [dirs[:, j] * inv[j] for j in range(len(inv))]
        A = sum(c * c for c in da)
        B = 2.0 * sum(np.multiply.outer(qj, dj) for qj, dj in zip(qa.T, da))
        C = (qa * qa).sum(-1)[:, None] - 1.0
        root = np.sqrt(B * B - 4.0 * A * C)
        # C < 0 inside, so root > |B|; the second form avoids cancellation for B > 0
        return np.where(B > 0, -2.0 * C / (B + root), (root - B) / (2.0 * A))


@dataclass(frozen=True)
class Ellipse(_Quadric, _SmoothCurve):
    """Ellipse x^2/a^2 + y^2/b^2 = 1 with semi-axes ``a``, ``b``."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise InvalidShapeError("ellipse semi-axes must be positive")
        _check_lengths("ellipse semi-axes", (self.a, self.b))

    def curve_frame(self, t: np.ndarray):
        """Positions, outward normals, speed and curvature at parameters ``t``."""
        a, b = self.a, self.b
        p = np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
        d1 = np.stack([-a * np.sin(t), b * np.cos(t)], axis=1)
        speed = np.linalg.norm(d1, axis=1)
        kappa = a * b / speed**3
        return p, _outward_normals(d1, speed), speed, kappa

    def measure(self) -> float:
        return np.pi * self.a * self.b

    def boundary_grid(self, n) -> BoundaryGrid:
        # the trapezoid rule on an ellipse converges like rho^n with
        # rho = |a - b| / (a + b); at rho^n >= 1/2 the grid resolves no digit
        rho = abs(self.a - self.b) / (self.a + self.b)
        if rho > 0 and int(n) * math.log(rho) >= -math.log(2.0):
            raise InvalidShapeError(
                f"aspect ratio {max(self.a, self.b) / min(self.a, self.b):.6g} is beyond "
                f"what {int(n)} boundary nodes resolve"
            )
        return super().boundary_grid(n)


@dataclass(frozen=True)
class Polygon(_PlaneShape):
    """Simple polygon, vertices in counterclockwise order."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise InvalidShapeError("polygon needs at least 3 planar vertices")
        object.__setattr__(self, "vertices", tuple(map(tuple, v)))
        # an edge or its squared length may overflow: the differences are
        # taken quietly and the lengths by np.hypot, and refused before any use
        with np.errstate(over="ignore"):
            edges = np.roll(v, -1, axis=0) - v
        hypot = np.hypot(*edges.T)
        _check_lengths("polygon edge extremes", (np.min(hypot), np.max(hypot)))
        # edge i runs to vertex i + 1; its length is the dot product that
        # np.linalg.norm(edge) takes, which a plain sum of squares may miss by an ulp
        lengths = np.sqrt((edges[:, None, :] @ edges[:, :, None]).ravel())
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "lengths", lengths)
        if _signed_area(v) <= 0:
            raise InvalidShapeError("polygon vertices must be counterclockwise")
        if not _is_simple(v):
            raise InvalidShapeError("polygon must be simple (no self-intersection)")

    def outline(self, count: int) -> np.ndarray:
        """The vertices; a polygon's outline needs no sampling."""
        return np.asarray(self.vertices)

    def measure(self) -> float:
        return float(_signed_area(np.asarray(self.vertices)))

    def scale(self) -> float:
        v = np.asarray(self.vertices)
        return float(np.max(np.linalg.norm(v - v.mean(axis=0), axis=1)))

    def center_point(self) -> np.ndarray:
        v = np.asarray(self.vertices)
        x, y = v[:, 0], v[:, 1]
        xr, yr = np.roll(x, -1), np.roll(y, -1)
        cross = x * yr - xr * y
        moments = np.array([np.sum((x + xr) * cross), np.sum((y + yr) * cross)])
        return moments / (6 * self.measure())

    def clearance(self, pts: np.ndarray) -> np.ndarray:
        v, out = np.asarray(self.vertices), np.full(len(pts), -np.inf)
        inside = _even_odd(pts, v)
        out[inside] = _polyline_distance(pts[inside], v)  # exact edge distances
        return out

    def default_margin(self) -> float:
        return 0.4 * self.measure() / np.sum(self.lengths)  # fraction of the inradius bound

    def boundary_grid(self, n) -> BoundaryGrid:
        n_per_edge = int(n)
        if n_per_edge < 16:
            raise ResolutionError("polygons need n >= 16 per edge")
        verts = np.asarray(self.vertices, dtype=float)
        q = PANEL_ORDER
        base = max(2, int(np.ceil(n_per_edge / q)))
        # base panels per edge, the two end panels each cut into CORNER_DEPTH + 1
        _check_grid_size(len(verts) * (base + 2 * CORNER_DEPTH) * q)
        bp = np.linspace(0.0, 1.0, base + 1)
        # the first base panel cut toward its corner at 0, 2^-CORNER_DEPTH, ...,
        # 1/2, 1, the middle panels, and the last panel mirrored
        s = np.concatenate([[0.0], 2.0 ** np.arange(-CORNER_DEPTH, 1)])
        breaks = np.concatenate([
            bp[0] + (bp[1] - bp[0]) * s[:-1],
            bp[1:base - 1],
            bp[-1] - (bp[-1] - bp[-2]) * s[::-1],
        ])
        half = 0.5 * (breaks[1:] - breaks[:-1])
        mid = 0.5 * (breaks[1:] + breaks[:-1])
        gx, gw = np.polynomial.legendre.leggauss(q)
        tang = self.edges / self.lengths[:, None]
        # nodes and weights indexed (edge, panel, Gauss node), the grid's order
        t = half[:, None] * gx + mid[:, None]
        nodes = verts[:, None, None] + t[..., None] * self.edges[:, None, None]
        weights = half[:, None] * gw * self.lengths[:, None, None]
        normals = np.repeat(np.stack([tang[:, 1], -tang[:, 0]], axis=1), t.size, axis=0)
        return BoundaryGrid(self, nodes.reshape(-1, 2), normals, weights.reshape(-1))


@dataclass(frozen=True)
class FourierStar(_SmoothCurve):
    """Star-shaped curve r(t) = r0 (1 + sum eps_m cos mt + del_m sin mt).

    ``modes`` is a sequence of (m, cos_coefficient, sin_coefficient) with
    integer 2 <= m < 2048; the radius must stay strictly positive.
    """

    r0: float
    modes: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        if not self.r0 > 0:
            raise InvalidShapeError("base radius must be positive")
        norm = []
        for m, c, s in self.modes:
            if not m < _STAR_MODE_CAP:  # before any trigonometry, and before int(m)
                raise InvalidShapeError(
                    f"star modes must be below {_STAR_MODE_CAP}, where the area's "
                    f"{len(_STAR_ANGLES)}-angle sample is exact"
                )
            if int(m) != m or m < 2:
                raise InvalidShapeError("star modes must be integers >= 2")
            norm.append((int(m), float(c), float(s)))
        object.__setattr__(self, "modes", tuple(norm))
        # one radius sample serves the checks, measure, scale and default_margin;
        # a huge amplitude overflows it quietly, and the checks below refuse it
        with np.errstate(over="ignore"):
            r = _star_radius(self, _STAR_ANGLES)
        if np.min(r) <= 0:
            raise InvalidShapeError("star radius must stay strictly positive")
        _check_lengths("star radius extremes", (np.min(r), np.max(r)))
        object.__setattr__(self, "_area", float(0.5 * np.mean(r * r) * 2 * np.pi))
        object.__setattr__(self, "_r_max", float(np.max(r)))
        object.__setattr__(self, "_r_min", float(np.min(r)))

    def curve_frame(self, t: np.ndarray):
        """Positions, outward normals, speed and curvature at parameters ``t``."""
        r, r1, r2 = _star_radius_derivs(self, t)
        ct, st = np.cos(t), np.sin(t)
        p = np.stack([r * ct, r * st], axis=1)
        d1 = np.stack([r1 * ct - r * st, r1 * st + r * ct], axis=1)
        speed = np.sqrt(r * r + r1 * r1)
        kappa = (r * r + 2 * r1 * r1 - r * r2) / speed**3
        return p, _outward_normals(d1, speed), speed, kappa

    def boundary_grid(self, n) -> BoundaryGrid:
        # n equispaced nodes resolve modes below n / 2; at or above it the
        # trapezoid rule aliases a mode onto a lower one
        top = max((m for m, _, _ in self.modes), default=0)
        if int(n) <= 2 * top:
            raise ResolutionError(
                f"star mode {top} needs more than {2 * top} boundary nodes, not {int(n)}"
            )
        return super().boundary_grid(n)

    def measure(self) -> float:
        return self._area

    def scale(self) -> float:
        return self._r_max

    def center_point(self) -> np.ndarray:
        return np.zeros(2)

    def clearance(self, pts: np.ndarray) -> np.ndarray:
        # distance to the polyline through 2048 (or 8 per period of the
        # highest mode) equispaced curve points, less how far the curve can
        # stray from it: a chord is the linear interpolant over a parameter
        # step dt, off the curve c(t) by at most max|c''| dt^2 / 8, and
        # |c''|^2 = (r'' - r)^2 + 4 r'^2 is bounded through the mode
        # amplitudes.  On a concave arc the polyline runs outside the curve,
        # so without this it overestimates the distance.
        m, c, s = np.reshape(self.modes, (-1, 3)).T
        count = max(2048, 8 * int(np.max(m, initial=0)))
        t = 2 * np.pi * np.arange(count) / count
        r = _star_radius(self, t)
        poly = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        amp = np.hypot(c, s)
        bend = self.r0 * math.hypot(1.0 + np.sum((m * m + 1) * amp), 2.0 * np.sum(m * amp))
        stray = bend * (2 * np.pi / count) ** 2 / 8
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        inside = np.linalg.norm(pts, axis=1) < _star_radius(self, theta)
        out = np.full(len(pts), -np.inf)
        out[inside] = _polyline_distance(pts[inside], poly) - stray
        return out

    def default_margin(self) -> float:
        return 0.25 * self._r_min

    def ray_exit(self, points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Distance from each interior point along each unit direction to the
        curve, shape (len(points), len(dirs)).

        Safeguarded Newton on f(t) = |x + t d| - r(angle(x + t d)) inside the
        bracket [0, 2.5 scale], from the exit of the circle of radius
        r(angle(d)); a step that leaves the bracket is a bisection.  Each ray
        must leave the star exactly once; where it crosses the curve more
        often, the crossing found is one of several.
        """
        m = len(dirs)
        x0, y0 = np.repeat(points[:, 0], m), np.repeat(points[:, 1], m)
        dx, dy = np.tile(dirs[:, 0], len(points)), np.tile(dirs[:, 1], len(points))
        span = 2.5 * self.scale()
        reach = np.tile(_star_radius(self, np.arctan2(dirs[:, 1], dirs[:, 0])), len(points))
        xd = x0 * dx + y0 * dy
        with np.errstate(invalid="ignore"):
            t = -xd + np.sqrt(xd * xd - x0 * x0 - y0 * y0 + reach * reach)
        t = np.where(np.isfinite(t), np.clip(t, 0.0, span), 0.5 * span)
        lo, hi = np.zeros_like(t), np.full_like(t, span)
        idx = np.arange(len(t))
        out = np.empty(len(t))
        for _ in range(_NEWTON_CAP):
            ux, uy = x0 + t * dx, y0 + t * dy
            r = np.sqrt(ux * ux + uy * uy)
            rad, rad1, _ = _star_radius_derivs(self, np.arctan2(uy, ux))
            f = r - rad
            outside = f >= 0
            hi = np.where(outside, t, hi)
            lo = np.where(outside, lo, t)
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = (ux * dx + uy * dy) / r - rad1 * (ux * dy - uy * dx) / (r * r)
                step = t - f / slope
            # inclusive: an exact zero of f sits on a bracket end
            step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
            done = np.abs(step - t) <= _NEWTON_STEP * span
            t = step
            if done.any():
                out[idx[done]] = t[done]
                keep = ~done
                idx, t, lo, hi, x0, y0, dx, dy = (
                    v[keep] for v in (idx, t, lo, hi, x0, y0, dx, dy)
                )
                if not len(idx):
                    break
        out[idx] = t
        return out.reshape(len(points), m)


@dataclass(frozen=True)
class Ellipsoid(_Quadric):
    """Axis-aligned ellipsoid with semi-axes ``c1, c2, c3 > 0``."""

    dim: ClassVar[int] = 3

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0 and self.c3 > 0):
            raise InvalidShapeError("ellipsoid semi-axes must be positive")
        _check_lengths("ellipsoid semi-axes", (self.c1, self.c2, self.c3))

    def measure(self) -> float:
        return 4.0 / 3.0 * np.pi * self.c1 * self.c2 * self.c3

    def boundary_grid(self, n) -> BoundaryGrid:
        n_pol, n_az = int(n), 2 * int(n)
        if n_pol < 16:
            raise ResolutionError("ellipsoids need at least a 16 x 32 grid")
        _check_grid_size(n_pol * n_az)
        c1, c2, c3 = self.c1, self.c2, self.c3
        u, wu = np.polynomial.legendre.leggauss(n_pol)
        phi = 2 * np.pi * np.arange(n_az) / n_az
        wphi = 2 * np.pi / n_az
        U, P = np.meshgrid(u, phi, indexing="ij")
        s = np.sqrt(1.0 - U * U)
        nodes = np.stack([c1 * s * np.cos(P), c2 * s * np.sin(P), c3 * U], axis=-1).reshape(-1, 3)
        jac = np.sqrt(
            (c2 * c3) ** 2 * (1 - U * U) * np.cos(P) ** 2
            + (c1 * c3) ** 2 * (1 - U * U) * np.sin(P) ** 2
            + (c1 * c2) ** 2 * U * U
        )
        weights = (jac * wu[:, None] * wphi).reshape(-1)
        grad = nodes / np.array([c1 * c1, c2 * c2, c3 * c3])
        normals = grad / np.linalg.norm(grad, axis=1)[:, None]
        spacing = np.full(len(nodes), max(c1, c2, c3) * np.pi / n_pol)
        return BoundaryGrid(self, nodes, normals, weights, spacing=spacing)


@dataclass(frozen=True)
class Box:
    """Axis-aligned 3D box given by half-extents about the origin.

    Supporting shape for volume-potential checks on cornered solids; it has
    no boundary grid.
    """

    dim: ClassVar[int] = 3

    half: tuple[float, float, float]

    def __post_init__(self):
        if np.shape(self.half) != (3,):
            raise InvalidShapeError("box needs three half-extents")
        if not all(h > 0 for h in self.half):
            raise InvalidShapeError("box half-extents must be positive")
        _check_lengths("box half-extents", self.half)

    def measure(self) -> float:
        h = self.half
        return 8.0 * h[0] * h[1] * h[2]

    def scale(self) -> float:
        return float(np.linalg.norm(self.half))

    def center_point(self) -> np.ndarray:
        return np.zeros(3)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        h = np.asarray(self.half, dtype=float)
        return -h, h

    def clearance(self, pts: np.ndarray) -> np.ndarray:
        return np.min(np.asarray(self.half) - np.abs(pts), axis=1)

    def default_margin(self) -> float:
        return 0.2 * min(self.half)

    def boundary_grid(self, n) -> BoundaryGrid:
        raise InvalidShapeError("no boundary grid for Box")


ShapeSpec = Ellipse | Polygon | FourierStar | Ellipsoid | Box


@dataclass
class BoundaryGrid:
    """Quadrature nodes on a shape boundary.

    Attributes
    ----------
    shape : the generating shape description
    nodes : (n, d) node coordinates
    normals : (n, d) outward unit normals
    weights : (n,) positive quadrature weights, summing to the measure of
        the boundary
    params : (n,) parameter values (smooth 2D curves only)
    curvature : (n,) signed curvature (smooth 2D curves only; positive on
        convex arcs of a counterclockwise curve)
    spacing : (n,) distance to the nearest neighboring node, used by the
        near-boundary evaluation guard
    """

    shape: ShapeSpec
    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    params: np.ndarray | None = None
    curvature: np.ndarray | None = None
    spacing: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.spacing is None:
            d = np.linalg.norm(np.diff(self.nodes, axis=0, append=self.nodes[:1]), axis=1)
            self.spacing = np.minimum(d, np.roll(d, 1))
        nrm = np.linalg.norm(self.normals, axis=1)
        if np.max(np.abs(nrm - 1.0)) > 1e-12:
            raise InvalidShapeError("normals must be unit vectors")
        if np.any(self.weights <= 0):
            raise InvalidShapeError("quadrature weights must be positive")

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class InteriorSample:
    """Deterministic interior evaluation points at a safety margin."""

    points: np.ndarray
    margin: float


# ---------------------------------------------------------------------------
# parametrizations

def _check_lengths(name: str, lengths):
    """Refuse lengths whose fourth powers leave the normal float range.

    Curvatures divide by cubed lengths, the ellipsoid's surface Jacobian
    squares products of two semi-axes, and the Newtonian fit squares
    potentials that grow like squared lengths.
    """
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    lengths = tuple(map(float, lengths))
    if not all(tiny <= h * h * h * h <= huge for h in lengths):
        raise InvalidShapeError(
            f"{name} {lengths} must lie within {tiny**0.25:.1e} .. {huge**0.25:.1e}, "
            "where their fourth powers are normal floats"
        )


def _check_grid_size(count: int):
    """Refuse a boundary grid of more than _MAX_GRID_NODES nodes."""
    if count > _MAX_GRID_NODES:
        raise ResolutionError(f"a grid of {count} nodes exceeds the cap of {_MAX_GRID_NODES}")


def _star_radius(shape: FourierStar, t: np.ndarray) -> np.ndarray:
    r = np.ones_like(t)
    for m, c, s in shape.modes:
        r = r + c * np.cos(m * t) + s * np.sin(m * t)
    return shape.r0 * r


def _star_radius_derivs(shape: FourierStar, t: np.ndarray):
    r = np.ones_like(t)
    r1 = np.zeros_like(t)
    r2 = np.zeros_like(t)
    for m, c, s in shape.modes:
        cm, sm = np.cos(m * t), np.sin(m * t)
        r += c * cm + s * sm
        r1 += m * (-c * sm + s * cm)
        r2 += m * m * (-c * cm - s * sm)
    return shape.r0 * r, shape.r0 * r1, shape.r0 * r2


def _outward_normals(d1: np.ndarray, speed: np.ndarray) -> np.ndarray:
    # the tangent turned clockwise: outward on a counterclockwise curve
    return np.stack([d1[:, 1], -d1[:, 0]], axis=1) / speed[:, None]


# ---------------------------------------------------------------------------
# discretize

def discretize(shape: ShapeSpec, n) -> BoundaryGrid:
    """Build a boundary quadrature grid.

    ``n`` is the node count for smooth curves (>= 64, and on a star more
    than twice its highest mode), the per-edge node count before corner
    grading for polygons (>= 16), and the polar count for ellipsoids, whose
    grid is n x 2n (n >= 16).
    """
    return shape.boundary_grid(n)


# ---------------------------------------------------------------------------
# interior sampling

def interior_points(shape: ShapeSpec, count: int, margin: float) -> InteriorSample:
    """Deterministic quasi-uniform interior points with a boundary margin.

    Candidates come from coarse-to-fine lattices over the margin-shrunk
    bounding box, topped up with scaled copies of the boundary; those whose
    ``clearance`` is at least ``margin`` survive, and the first ``count``
    survivors (uniform stride over the ordered pool) are returned.
    Candidates closer than 1e-9 of the shape's scale count as one.
    """
    if count < 1:
        raise EmptySampleError("count must be positive")
    d = shape.dim
    lo, hi = shape.bbox()
    lo, hi = lo + margin, hi - margin
    if np.any(hi < lo):
        raise EmptySampleError("margin leaves no interior room")
    tol = 1e-9 * shape.scale()
    floor = margin - _MARGIN_SLACK * shape.scale()
    k0 = int(np.ceil(count ** (1.0 / d)))
    pool: list[np.ndarray] = []
    for k in (k0, k0 + 2, k0 + 4):
        axes = [np.linspace(lo[i], hi[i], k) for i in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        pool.append(mesh[shape.clearance(mesh) >= floor])
        cand = _dedupe(np.concatenate(pool), tol)
        if len(cand) >= count:
            break
    if len(cand) < count and d == 2:
        center = shape.center_point()
        bnd = shape.outline(64)
        for s in (0.85, 0.7, 0.5, 0.3):
            ring = center + s * (bnd - center)
            pool.append(ring[shape.clearance(ring) >= floor])
        cand = _dedupe(np.concatenate(pool), tol)
    if len(cand) < count:
        raise EmptySampleError(f"only {len(cand)} interior points fit margin {margin}")
    idx = np.linspace(0, len(cand) - 1, count).round().astype(int)
    return InteriorSample(points=cand[idx], margin=margin)


def _dedupe(pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """``pts`` without each point whose coordinates, rounded to multiples of
    ``tol``, repeat those of an earlier point; order is kept.

    One sort of the rounded coordinates.  This keeps what a greedy
    first-come loop at distance ``tol`` keeps whenever near points coincide
    exactly, as the lattice and ring pools of ``interior_points`` do.
    """
    _, first = np.unique(np.rint(pts / tol), axis=0, return_index=True)
    return pts[np.sort(first)]


# ---------------------------------------------------------------------------
# point-node pairs

def _pair_blocks(points: np.ndarray, nodes: np.ndarray):
    """Every difference x - y of a target point and a node, block by block.

    Walks ``points`` in row blocks of at most max(_CHUNK, n) pairs for n
    nodes and yields ``(rows, dx, r2)``: the slice of ``points`` covered,
    the component-major differences dx[j, p, s] = x_p[j] - y_s[j] of shape
    (d, rows, n), and r2 = |x_p - y_s|^2 of shape (rows, n).  Each block's
    arrays are fresh, so a caller may overwrite them.
    """
    nodes_t = np.ascontiguousarray(nodes.T)[:, None, :]
    for rows in _row_blocks(len(points), len(nodes), _CHUNK):
        dx = points[rows].T[:, :, None] - nodes_t
        yield rows, dx, np.einsum("jps,jps->ps", dx, dx)


def _row_blocks(count: int, width: int, budget: int):
    """Slices of ``count`` rows, each holding at most max(budget, width)
    row-by-``width`` pairs."""
    step = max(1, budget // max(width, 1))
    for i0 in range(0, count, step):
        yield slice(i0, i0 + step)


# ---------------------------------------------------------------------------
# polygon helpers

def _signed_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _is_simple(v: np.ndarray) -> bool:
    """No two non-adjacent edges of the closed polygon ``v`` cross, tested
    in blocks of at most _RAY_CHUNK edge pairs."""
    m = len(v)
    w = np.roll(v, -1, axis=0)
    j = np.arange(m)
    for rows in _row_blocks(m, m, _RAY_CHUNK):
        p, q = v[rows, None], w[rows, None]
        i = j[rows, None]
        cross = (_orient(p, q, v) > 0) != (_orient(p, q, w) > 0)
        cross &= (_orient(v, w, p) > 0) != (_orient(v, w, q) > 0)
        # each pair once, less the edges sharing a vertex
        if np.any(cross & (j > i + 1) & ((i > 0) | (j < m - 1))):
            return False
    return True


def _orient(a, b, c):
    """Twice the signed area of the triangles (a, b, c), broadcast."""
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _even_odd(pts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Even-odd test of each point against the polygon ``v``, by blocks of _RAY_CHUNK pairs."""
    x0, y0 = v[:, 0], v[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    ax, ay = x1 - x0, y1 - y0
    inside = np.empty(len(pts), dtype=bool)
    # the crossing abscissa of a horizontal edge divides by zero, and of a
    # nearly horizontal one may overflow; only edges that cross the point's
    # row use it, and an infinite abscissa compares as it should
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows in _row_blocks(len(pts), len(v), _RAY_CHUNK):
            x, y = pts[rows, :1], pts[rows, 1:]
            crosses = ((y0 > y) != (y1 > y)) & (x < ax * (y - y0) / ay + x0)
            inside[rows] = np.logical_xor.reduce(crosses, axis=1)
    return inside


def _polyline_distance(pts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distance of each point to the closed polyline ``v``, by blocks of _RAY_CHUNK pairs."""
    x0, y0 = v[:, 0], v[:, 1]
    ax, ay = np.roll(x0, -1) - x0, np.roll(y0, -1) - y0
    ab2 = ax * ax + ay * ay
    dist = np.empty(len(pts))
    for rows in _row_blocks(len(pts), len(v), _RAY_CHUNK):
        x, y = pts[rows, :1], pts[rows, 1:]
        tt = np.clip(((x - x0) * ax + (y - y0) * ay) / ab2, 0.0, 1.0)
        ex, ey = x - (x0 + tt * ax), y - (y0 + tt * ay)
        dist[rows] = np.sqrt(np.min(ex * ex + ey * ey, axis=1))
    return dist
