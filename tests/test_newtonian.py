import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import (
    Box,
    Ellipse,
    Ellipsoid,
    FourierStar,
    Polygon,
    carlson_rd,
    depolarization_factors,
    depolarization_factors_2d,
    interior_points,
    newtonian_potential,
    quadratic_interior_fit,
)

axis = st.floats(0.5, 3.0, allow_nan=False)


def _midpoint_oracle(shape, points):
    """N at ``points`` by the literal midpoint rule on 400 radial x 1600
    angular cells of an ellipse or star: a brute reference whose own error
    is a few 1e-6."""
    from inclab.geometry import _star_radius

    nr, na = 400, 1600
    r = (np.arange(nr) + 0.5) / nr
    t = 2 * np.pi * (np.arange(na) + 0.5) / na
    Rg, Tg = np.meshgrid(r, t, indexing="ij")
    if isinstance(shape, Ellipse):
        pts = np.stack([Rg * shape.a * np.cos(Tg), Rg * shape.b * np.sin(Tg)], axis=-1)
        jac = Rg * shape.a * shape.b
    else:
        rad = _star_radius(shape, t)[None, :]
        pts = np.stack([Rg * rad * np.cos(Tg), Rg * rad * np.sin(Tg)], axis=-1)
        jac = Rg * rad**2
    w = (jac * (1.0 / nr) * (2 * np.pi / na)).reshape(-1)
    flat = pts.reshape(-1, 2)
    return np.array([np.sum(np.log(((x - flat) ** 2).sum(-1)) / (4 * np.pi) * w) for x in points])


def test_carlson_degenerate_equal_arguments():
    # all arguments equal: the integral collapses to x^{-3/2}
    assert carlson_rd(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert carlson_rd(4.0, 4.0, 4.0) == pytest.approx(4.0**-1.5, rel=1e-15)


def test_carlson_refuses_non_finite_arguments():
    # an infinite argument used to run all 200 duplication steps on NaNs
    for args in ((np.inf, 1.0, 1.0), (1.0, 1.0, np.inf), (np.nan, 1.0, 1.0)):
        with pytest.raises(ValueError):
            carlson_rd(*args)


@settings(max_examples=30, deadline=None)
@given(axis, axis, axis)
def test_carlson_matches_scipy(x, y, z):
    from scipy.special import elliprd

    assert carlson_rd(x, y, z) == pytest.approx(float(elliprd(x, y, z)), rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(axis, axis, axis)
def test_carlson_scaling_law(x, y, z):
    # R_D(t x, t y, t z) = t^{-3/2} R_D(x, y, z)
    t = 2.0
    assert carlson_rd(t * x, t * y, t * z) == pytest.approx(
        t**-1.5 * carlson_rd(x, y, z), rel=1e-13
    )


def test_sphere_depolarization_exact_thirds():
    vals = depolarization_factors(Ellipsoid(1.0, 1.0, 1.0))
    assert all(v == pytest.approx(1.0 / 3.0, abs=1e-15) for v in vals)


@settings(max_examples=20, deadline=None)
@given(axis, axis, axis)
def test_depolarization_sum_and_ordering(c1, c2, c3):
    vals = depolarization_factors(Ellipsoid(c1, c2, c3))
    assert abs(vals.sum() - 1.0) <= 1e-12
    assert np.all(vals > 0)
    # longer axis -> smaller factor
    order_axes = np.argsort([c1, c2, c3])
    assert np.all(np.diff(vals[order_axes]) <= 1e-12)


@settings(max_examples=10, deadline=None)
@given(axis, axis, axis)
def test_depolarization_scale_invariance(c1, c2, c3):
    v1 = depolarization_factors(Ellipsoid(c1, c2, c3))
    v2 = depolarization_factors(Ellipsoid(2 * c1, 2 * c2, 2 * c3))
    assert np.max(np.abs(v1 - v2)) <= 1e-12


def test_depolarization_frozen_values():
    vals = depolarization_factors(Ellipsoid(2.0, 1.5, 1.0))
    frozen = np.array([0.21126560531930363, 0.30500625786742153, 0.48372813681327476])
    assert np.max(np.abs(vals - frozen)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(axis, axis)
def test_two_axis_factors(a, b):
    vals = depolarization_factors_2d(Ellipse(a, b))
    assert vals[0] == pytest.approx(b / (a + b), rel=1e-14)
    assert vals[1] == pytest.approx(a / (a + b), rel=1e-14)


def test_disk_interior_closed_form():
    # quarter-radius-squared profile: N(x) = (|x|^2 - 1) / 4 on the unit disk
    shape = Ellipse(1.0, 1.0)
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.3]])
    vals = newtonian_potential(shape, pts)
    expect = (np.sum(pts**2, axis=1) - 1.0) / 4.0
    assert np.max(np.abs(vals - expect)) <= 1e-10
    # the center-relative profile is the pure quadratic |x|^2 / 4
    assert vals[1] - vals[0] == pytest.approx(0.0625, abs=1e-10)


def test_ball_interior_closed_form():
    shape = Ellipsoid(1.0, 1.0, 1.0)
    pts = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1]])
    vals = newtonian_potential(shape, pts)
    expect = (np.sum(pts**2, axis=1) - 3.0) / 6.0
    assert np.max(np.abs(vals - expect)) <= 1e-9


def test_flux_and_radial_routes_agree_off_center():
    # the boundary-reduction and point-centered product routes are two
    # independent quadratures of the same integral; their agreement is
    # the module's dual-route contract (1e-6), comfortably exceeded.
    # the literal midpoint lattice is a coarser sanity anchor whose own
    # discretization error at the default cell count is a few 1e-6.
    shape = Ellipse(2.0, 1.0)
    pts = np.array([[0.7, -0.3], [-1.1, 0.2], [0.0, 0.55]])
    a = newtonian_potential(shape, pts, method="flux")
    b = newtonian_potential(shape, pts, method="radial")
    c = _midpoint_oracle(shape, pts)
    assert np.max(np.abs(a - b)) <= 1e-8
    assert np.max(np.abs(a - c)) <= 5e-6


def test_routes_agree_on_star_shape():
    shape = FourierStar(1.0, ((3, 0.15, 0.05),))
    pts = np.array([[0.2, 0.1], [-0.3, 0.25]])
    a = newtonian_potential(shape, pts, method="flux")
    b = newtonian_potential(shape, pts, method="radial")
    c = _midpoint_oracle(shape, pts)
    assert np.max(np.abs(a - b)) <= 1e-8
    assert np.max(np.abs(a - c)) <= 5e-6


def test_flux_grid_cache_is_bounded():
    from inclab.newtonian import _flux_grid

    shapes = [Ellipse(1.0 + 0.05 * i, 1.0) for i in range(20)]
    for shape in shapes:
        newtonian_potential(shape, [[0.1, 0.2]])
    assert _flux_grid.cache_info().currsize <= 16
    # the latest shape is still cached: asking again discretizes nothing
    misses = _flux_grid.cache_info().misses
    assert _flux_grid(Ellipse(1.0 + 0.05 * 19, 1.0)) is _flux_grid(shapes[-1])
    assert _flux_grid.cache_info().misses == misses


def test_routes_agree_inside_polygon():
    shape = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    pts = np.array([[0.5, 0.5], [0.3, 0.6]])
    a = newtonian_potential(shape, pts, method="flux")
    b = newtonian_potential(shape, pts, method="radial")
    assert np.max(np.abs(a - b)) <= 1e-8


def test_box_closed_form_against_lattice_oracle():
    cube = Box((0.5, 0.5, 0.5))
    pts = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, -0.15]])
    vals = newtonian_potential(cube, pts)
    m = 128
    g = (np.arange(m) + 0.5) / m - 0.5
    Y = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    for val, x in zip(vals, pts):
        r = np.linalg.norm(Y - x, axis=1)
        brute = -(1.0 / (4 * np.pi)) * m**-3 * np.sum(1.0 / r)
        assert val == pytest.approx(brute, abs=5e-6)


def _box_loop(half, x):
    """integral over the box of dy / |x - y| at one point, corner by corner in
    scalar arithmetic: the per-point form of ``Box.closed_form_potential``."""
    h = np.asarray(half)
    corners = [((-1.0, lo), (1.0, hi)) for lo, hi in zip(-h - x, h - x)]
    total = 0.0
    for (sx, X), (sy, Y), (sz, Z) in itertools.product(*corners):
        R = math.sqrt(X * X + Y * Y + Z * Z)
        cyclic = ((X, Y, Z), (Y, Z, X), (Z, X, Y))
        term = 0.0
        for a, b, c in cyclic:
            if abs(a) > 0 and abs(b) > 0 and c + R > 0:
                term += a * b * math.log(c + R)
        for a, b, c in cyclic:
            if abs(a) > 0:
                term -= 0.5 * a * a * math.atan(b * c / (a * R))
        total += sx * sy * sz * term
    return total


def test_box_closed_form_runs_the_per_point_loop_on_all_points_at_once():
    # the same operations in the same order; NumPy's log and arctan may round
    # an ulp away from the math module's, so the bound is a few ulps
    box = Box((0.5, 0.25, 1.0))
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (200, 3)) * box.half
    pts[:3] = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.25, 1.0]]  # a face and a corner
    ref = np.array([-_box_loop(box.half, x) / (4 * np.pi) for x in pts])
    np.testing.assert_allclose(box.closed_form_potential(pts), ref, rtol=1e-14, atol=0)
    assert np.array_equal(newtonian_potential(box, pts), box.closed_form_potential(pts))


def test_quadratic_fit_ellipsoid_recovers_half_factors():
    shape = Ellipsoid(2.0, 1.5, 1.0)
    rep = quadratic_interior_fit(shape)
    assert list(rep) == ["A", "b", "c", "rms_residual"]
    assert rep["rms_residual"] <= 1e-6
    facs = depolarization_factors(shape)
    assert np.max(np.abs(np.diag(rep["A"]) - facs / 2.0)) <= 1e-5
    off = rep["A"] - np.diag(np.diag(rep["A"]))
    assert np.max(np.abs(off)) <= 1e-6


@pytest.mark.parametrize("vertices", [
    ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
    ((1.0, 0.0), (0.0, 0.7), (-0.6, 0.0), (0.0, -0.7)),
], ids=["square", "kite"])
def test_quadratic_fit_follows_a_translated_polygon(vertices):
    # N moved by t is N(x - t): A stays, b' = b - 2 A t and c' = c - b.t + t.A t
    t = np.array([5.0, -3.0])
    rep = quadratic_interior_fit(Polygon(vertices))
    moved = quadratic_interior_fit(Polygon(tuple(map(tuple, np.asarray(vertices) + t))))
    A, b, c = rep["A"], rep["b"], rep["c"]
    assert np.max(np.abs(moved["A"] - A)) <= 1e-12
    assert np.max(np.abs(moved["b"] - (b - 2.0 * A @ t))) <= 1e-12
    assert abs(moved["c"] - (c - b @ t + t @ A @ t)) <= 1e-12
    assert moved["rms_residual"] == pytest.approx(rep["rms_residual"], rel=1e-12)


def test_quadratic_fit_ellipse():
    rep = quadratic_interior_fit(Ellipse(2.0, 1.0))
    assert rep["rms_residual"] <= 1e-6
    vals = depolarization_factors_2d(Ellipse(2.0, 1.0))
    assert np.max(np.abs(np.diag(rep["A"]) - vals / 2.0)) <= 1e-6


def test_volume_potential_gradient_equals_minus_single_layer_of_normals():
    # d_j N(x) = -S[n_j](x) at interior points: ties the volume potential
    # to the boundary layer machinery through the divergence theorem
    from inclab import discretize, single_layer_eval

    shape = Ellipse(2.0, 1.0)
    grid = discretize(shape, 256)
    pts = np.array([[0.4, 0.2], [-0.8, -0.3]])
    h = 1e-5
    for j in range(2):
        nj = grid.normals[:, j]
        s = single_layer_eval(grid, nj, pts)
        step = np.zeros(2)
        step[j] = h
        dN = (
            newtonian_potential(shape, pts + step)
            - newtonian_potential(shape, pts - step)
        ) / (2 * h)
        assert np.max(np.abs(s + dN)) <= 1e-5


def test_quadratic_fit_fails_on_cube_and_square():
    assert quadratic_interior_fit(Box((0.5, 0.5, 0.5)))["rms_residual"] >= 1e-3
    square = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    assert quadratic_interior_fit(square)["rms_residual"] >= 1e-3


# ---------------------------------------------------------------------------
# batched ray exits

# The star on which the radial route is 3.0e-6 off the flux route at margin
# 0.2, because a few rays leave it three times.
MODE4_STAR = FourierStar(1.0, ((4, -0.10596098051165517, 0.09499353177172293),))


def _bisect_exit(outside, x, dirs, span):
    """Reference ray exits: 80 bisection steps on [0, span] per direction,
    in the arithmetic of ``x``'s dtype."""
    lo = np.zeros(len(dirs), dtype=x.dtype)
    hi = np.full(len(dirs), span, dtype=x.dtype)
    for _ in range(80):
        mid = (lo + hi) / 2
        out = outside(x + mid[:, None] * dirs)
        hi = np.where(out, mid, hi)
        lo = np.where(out, lo, mid)
    return (lo + hi) / 2


def _long_star_outside(shape):
    ld = np.longdouble

    def outside(p):
        t = np.arctan2(p[:, 1], p[:, 0])
        r = np.ones_like(t)
        for m, c, s in shape.modes:
            r = r + ld(c) * np.cos(m * t) + ld(s) * np.sin(m * t)
        return np.sqrt((p * p).sum(axis=1)) >= ld(shape.r0) * r

    return outside


def _long_quadric_outside(semi_axes):
    s = np.asarray(semi_axes, dtype=np.longdouble)

    def outside(p):
        return ((p / s) ** 2).sum(axis=1) >= 1

    return outside


def _exit_cases():
    phi = 1.1 * np.arange(6)
    ring = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    cases = []
    for star in (FourierStar(1.0, ((3, 0.2, 0.0),)),
                 FourierStar(1.0, ((3, 0.2, 0.0), (5, 0.05, 0.03))), MODE4_STAR):
        r_min = 4 * star.default_margin()
        pts = np.concatenate([np.zeros((1, 2)), 0.3 * r_min * ring])
        cases.append((star, pts, _long_star_outside(star)))
    pts = np.concatenate([np.zeros((1, 2)), 0.3 * ring, 0.6 * ring])
    cases.append((Ellipse(2.0, 1.0), pts, _long_quadric_outside((2.0, 1.0))))
    pts = np.array([[0.0, 0.0, 0.0], [0.5, -0.3, 0.2], [-0.6, 0.4, -0.3], [0.2, 0.5, 0.4]])
    cases.append((Ellipsoid(2.0, 1.5, 1.0), pts, _long_quadric_outside((2.0, 1.5, 1.0))))
    return cases


@pytest.mark.parametrize("shape, pts, outside", _exit_cases(),
                         ids=["star3", "star3+5", "star4", "ellipse", "ellipsoid"])
def test_batched_ray_exits_match_an_extended_precision_bisection(shape, pts, outside):
    # rays from points near the center cross the boundary once and not
    # tangentially, so the exit is known to a few ulps; the reference runs
    # in long double (80-bit extended on x86-64)
    from inclab.newtonian import _ray_rule

    dirs = _ray_rule(shape.dim)[0][:: 3 if shape.dim == 2 else 7]
    got = shape.ray_exit(pts, dirs)
    assert got.shape == (len(pts), len(dirs))
    ld = np.longdouble
    want = np.array([_bisect_exit(outside, x.astype(ld), dirs.astype(ld), ld(2.5 * shape.scale()))
                     for x in pts])
    assert float(np.max(np.abs(got - want) / want)) <= 1e-15


def test_star_ray_exits_agree_with_a_float_bisection_on_the_fit_sample():
    # the interior sample newtonian fits: the float bisection the Newton
    # iteration replaced lands within the same rounding band
    from inclab.geometry import _star_radius
    from inclab.newtonian import _default_margin, _ray_rule

    dirs = _ray_rule(2)[0]
    shape = MODE4_STAR
    pts = interior_points(shape, 40, _default_margin(shape)).points[::4]

    def outside(p):
        return np.linalg.norm(p, axis=1) >= _star_radius(shape, np.arctan2(p[:, 1], p[:, 0]))

    got = shape.ray_exit(pts, dirs)
    want = np.array([_bisect_exit(outside, x, dirs, 2.5 * shape.scale()) for x in pts])
    assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_ray_rules_are_unit_directions_weighted_to_the_full_angle(dim):
    from inclab.newtonian import _ray_rule

    dirs, wts = _ray_rule(dim)
    assert dirs.shape == (len(wts), dim)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 1e-15
    assert abs(wts.sum() - (2 * np.pi if dim == 2 else 4 * np.pi)) <= 1e-13


def _radial_cases():
    from inclab.geometry import _RAY_CHUNK
    from inclab.newtonian import _POLYGON_GAUSS, _ray_rule

    square = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    cases = [
        (FourierStar(1.0, ((3, 0.2, 0.0),)), len(_ray_rule(2)[0])),
        (Ellipse(2.0, 1.0), len(_ray_rule(2)[0])),
        (square, 4 * _POLYGON_GAUSS),
        (Ellipsoid(2.0, 1.5, 1.0), len(_ray_rule(3)[0])),
    ]
    return [(shape, max(1, _RAY_CHUNK // width)) for shape, width in cases]


@pytest.mark.parametrize("shape, block", _radial_cases(),
                         ids=["star", "ellipse", "square", "ellipsoid"])
def test_radial_route_does_not_depend_on_its_blocks(shape, block):
    from inclab.newtonian import _default_margin

    pool = interior_points(shape, block + 1, _default_margin(shape)).points
    single = np.concatenate([newtonian_potential(shape, x[None], method="radial") for x in pool])
    for count in sorted({1, max(block - 1, 1), block + 1}):
        got = newtonian_potential(shape, pool[:count], method="radial")
        np.testing.assert_array_equal(got, single[:count])


def test_newtonian_module_keeps_ray_exits_on_the_shapes():
    import inspect

    from inclab import newtonian

    assert not [name for name in vars(newtonian) if name.startswith("_ray_exit")]
    assert "for i, x in enumerate" not in inspect.getsource(newtonian._newtonian_radial)
