import tracemalloc
import typing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import (
    Box,
    Ellipse,
    Ellipsoid,
    FourierStar,
    InvalidShapeError,
    Polygon,
    ResolutionError,
    discretize,
    interior_points,
)
from inclab import geometry
from inclab.geometry import ShapeSpec, _dedupe
from inclab.newtonian import _default_margin

axis = st.floats(0.3, 4.0, allow_nan=False)


def test_shape_validation_rejects_bad_axes():
    with pytest.raises(InvalidShapeError):
        Ellipse(0.0, 1.0)
    with pytest.raises(InvalidShapeError):
        Ellipsoid(1.0, -2.0, 1.0)
    with pytest.raises(InvalidShapeError):
        Box((1.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Ellipsoid(1e-300, 1.0, 1.0),  # c1^2 underflows
        lambda: Ellipsoid(1e200, 1.0, 1.0),  # c1^2 overflows
        lambda: Ellipsoid(1e150, 1e150, 1e150),  # the volume overflows
        lambda: Ellipsoid(1e-150, 1e-150, 1e-150),  # the volume underflows
        lambda: Ellipsoid(6.28e98, 6.28e98, 6.28e98),  # (c2 c3)^2 overflows
        lambda: Box((1e200, 1e200, 1e200)),
        lambda: FourierStar(1.0, ((2, 1.0, 1.6e-150),)),  # pinched to 2e-166
        lambda: Polygon(((0.0, 0.0), (1e154, 0.0), (1e154, 1e154), (0.0, 1e154))),  # area overflows
        lambda: discretize(Ellipse(1e154, 1e154), 256),  # the cubed speed overflows
    ],
)
def test_lengths_whose_fourth_powers_leave_the_float_range_are_refused(build):
    # every shape checks its lengths in its constructor, before anything else
    with pytest.raises(InvalidShapeError, match="fourth powers are normal floats"):
        build()


@pytest.mark.parametrize("half", [(0.5, 0.5), (0.5, 0.5, 0.5, 0.5)], ids=["two", "four"])
def test_box_needs_three_half_extents(half):
    # two built and then failed with an IndexError in measure(); four
    # measured the first three
    with pytest.raises(InvalidShapeError, match="three half-extents"):
        Box(half)


def test_polygon_rejects_degenerate_and_self_crossing():
    with pytest.raises(InvalidShapeError):
        Polygon(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(InvalidShapeError):
        Polygon(((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)))


def test_star_rejects_nonpositive_radius():
    with pytest.raises(InvalidShapeError):
        FourierStar(1.0, ((2, 0.9, 0.9),))


@pytest.mark.parametrize("build, field", [
    (lambda: FourierStar(float("inf")), "star base radius inf must be finite"),
    (lambda: FourierStar(float("nan")), "star base radius nan must be finite"),
    (lambda: FourierStar(1.0, ((2, float("nan"), 0.0),)),
     r"star mode 2 coefficients \(nan, 0.0\)"),
    (lambda: FourierStar(1.0, ((3, 0.1, 0.0), (5, 0.0, -float("inf")))),
     r"star mode 5 coefficients \(0.0, -inf\)"),
])
def test_star_refuses_a_non_finite_field_before_sampling(build, field):
    # refused by field, with no sample taken: a sample would end as
    # "star radius extremes (nan, nan)" or "(inf, inf)", naming no field
    with mock.patch.object(geometry, "_STAR_COS", None):
        with pytest.raises(InvalidShapeError, match=field):
            build()


def test_star_positivity_guard_fails_closed_on_a_nan_sample(monkeypatch):
    # finite fields never give a NaN radius; a poisoned table stands in for
    # one, and the guard refuses it rather than passing min(r) = nan on
    monkeypatch.setattr(geometry, "_STAR_COS", np.where(geometry._STAR_ANGLES > 3, np.nan, 0.5))
    with pytest.raises(InvalidShapeError, match="star radius must stay strictly positive"):
        FourierStar(1.0, ((2, 0.1, 0.0),))


def test_star_sample_reads_the_angle_tables(monkeypatch):
    # construction takes no trigonometry of its own: _star_radius serves
    # only the arbitrary angles of the frame, the inside test and the ray exits
    def refuse(*args):
        raise AssertionError("_star_radius called during construction")

    monkeypatch.setattr(geometry, "_star_radius", refuse)
    star = FourierStar(1.2, ((2, 0.1, 0.05), (7, -0.03, 0.02), (2047, 0.01, 0.0)))
    assert star.measure() > 0 and star.scale() > star.default_margin() > 0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1e-3, 1e3),
    st.lists(
        st.tuples(st.integers(2, 2047), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        min_size=1, max_size=8, unique_by=lambda mode: mode[0],
    ),
)
def test_star_area_is_parseval_on_random_stars(r0, raw):
    # area = pi r0^2 (1 + sum (c^2 + s^2) / 2) for distinct modes below 2048,
    # an oracle that takes no sample; amplitudes summing to 0.9 keep r > 0
    total = sum(abs(c) + abs(s) for _, c, s in raw) or 1.0
    modes = tuple((m, 0.9 * c / total, 0.9 * s / total) for m, c, s in raw)
    star = FourierStar(r0, modes)
    power = 1.0 + 0.5 * sum(c * c + s * s for _, c, s in modes)
    assert star.measure() == pytest.approx(np.pi * r0 * r0 * power, rel=1e-13, abs=0)
    # the per-angle route at fl(m t_k), whose angles are off by up to m 2 pi eps
    ref = geometry._star_radius(star, geometry._STAR_ANGLES)
    assert star.scale() == pytest.approx(np.max(ref), rel=1e-10, abs=0)
    assert star.default_margin() == pytest.approx(0.25 * np.min(ref), rel=1e-10, abs=0)


def test_star_modes_must_be_ones_the_samples_resolve():
    # the 4096-angle radius sample integrates r^2 exactly only below mode
    # 2048, and n equispaced nodes sample only modes below n / 2
    area = FourierStar(1.0, ((2047, 0.1, 0.0),)).measure()
    assert area == pytest.approx(np.pi * (1 + 0.1**2 / 2), rel=1e-14)
    with pytest.raises(InvalidShapeError, match="star modes must be below 2048"):
        FourierStar(1.0, ((2048, 0.1, 0.0),))
    star = FourierStar(1.0, ((2, 0.1, 0.0), (40, 0.01, 0.0)))
    with pytest.raises(ResolutionError, match="^star mode 40 needs more than 80 boundary nodes"):
        discretize(star, 80)
    assert discretize(star, 81).n == 81


@settings(max_examples=25, deadline=None)
@given(axis, axis)
def test_ellipse_area_and_dim(a, b):
    shape = Ellipse(a, b)
    assert shape.dim == 2
    assert shape.measure() == pytest.approx(np.pi * a * b, rel=1e-12)


def test_polygon_area_shoelace():
    tri = Polygon(((0.0, 0.0), (2.0, 0.0), (0.0, 1.0)))
    assert tri.measure() == pytest.approx(1.0, rel=1e-14)


def test_star_area_closed_form():
    # r(t) = r0 (1 + e cos mt): area = pi r0^2 (1 + e^2 / 2)
    shape = FourierStar(1.3, ((4, 0.2, 0.0),))
    assert shape.measure() == pytest.approx(
        np.pi * 1.3**2 * (1 + 0.5 * 0.2**2), rel=1e-12
    )


def test_measure_3d():
    assert Ellipsoid(2.0, 1.5, 1.0).measure() == pytest.approx(
        4 * np.pi / 3 * 3.0, rel=1e-12
    )
    assert Box((0.5, 1.0, 2.0)).measure() == pytest.approx(8.0, rel=1e-14)


@settings(max_examples=15, deadline=None)
@given(axis, axis)
def test_normals_outward_unit(a, b):
    grid = discretize(Ellipse(a, b), 64)
    norms = np.linalg.norm(grid.normals, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    radial = np.einsum("ij,ij->i", grid.nodes - Ellipse(a, b).center_point(), grid.normals)
    assert np.all(radial > 0)


def test_weights_sum_to_perimeter_converges():
    shape = Ellipse(2.0, 1.0)
    coarse = discretize(shape, 64).weights.sum()
    fine = discretize(shape, 256).weights.sum()
    from scipy.special import ellipe

    e2 = 1 - 1.0 / 4.0
    exact = 4 * 2.0 * ellipe(e2)
    assert abs(fine - exact) < 1e-12
    assert abs(fine - exact) <= abs(coarse - exact)


def test_polygon_weights_sum_to_perimeter():
    grid = discretize(Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))), 256)
    assert grid.weights.sum() == pytest.approx(4.0, rel=1e-12)


def test_ellipsoid_grid_weights_sum_to_surface_area():
    # sphere of radius 2: surface area 16 pi
    grid = discretize(Ellipsoid(2.0, 2.0, 2.0), 48)
    assert grid.weights.sum() == pytest.approx(16 * np.pi, rel=1e-10)


def test_interior_points_respect_margin():
    shape = Ellipse(2.0, 1.0)
    sample = interior_points(shape, 30, 0.25)
    assert len(sample.points) == 30
    # all points stay inside the shrunk ellipse
    x, y = sample.points[:, 0], sample.points[:, 1]
    level = (x / 2.0) ** 2 + y**2
    assert np.all(level < 1.0)
    grid = discretize(shape, 512)
    d = np.min(
        np.linalg.norm(sample.points[:, None, :] - grid.nodes[None, :, :], axis=2),
        axis=1,
    )
    assert np.all(d >= 0.25 - 1e-3)


def _greedy_dedupe(pts, tol=1e-9):
    """First-come loop: keep a point unless a kept point lies within tol."""
    out = [pts[0]]
    for p in pts[1:]:
        if np.min(np.linalg.norm(np.asarray(out) - p, axis=1)) > tol:
            out.append(p)
    return np.asarray(out)


_KITE = Polygon(((1.0, 0.0), (0.0, 0.7), (-0.6, 0.0), (0.0, -0.7)))


@pytest.mark.parametrize(
    "shape, count, margin",
    [
        (Ellipse(2.0, 1.0), 110, 0.2),
        (_KITE, 112, 0.3),  # lattices fall short: the boundary rings top up
        (FourierStar(1.0, ((3, 0.2, 0.0),)), 110, 0.2),
        (Ellipsoid(2.0, 1.5, 1.0), 80, 0.25),
        (Box((0.5, 0.4, 0.3)), 30, 0.1),
    ],
)
def test_dedupe_matches_greedy_loop_on_interior_pools(monkeypatch, shape, count, margin):
    pools = []

    def spy(pts, tol):
        pools.append((pts, tol))
        return _dedupe(pts, tol)

    monkeypatch.setattr(geometry, "_dedupe", spy)
    interior_points(shape, count, margin)
    assert pools
    for pool, tol in pools:
        assert tol == 1e-9 * shape.scale()
        np.testing.assert_array_equal(_dedupe(pool, tol), _greedy_dedupe(pool, tol))


def test_dedupe_keeps_first_copies_across_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    base = rng.random((40, 2))
    pool = base[rng.integers(0, 40, 300)]
    want = _greedy_dedupe(pool)
    assert len(want) < len(pool)
    np.testing.assert_array_equal(_dedupe(pool), want)
    monkeypatch.setattr(geometry, "_CHUNK", 7 * len(pool) + 3)
    np.testing.assert_array_equal(_dedupe(pool), want)


def test_interior_points_order_is_that_of_the_greedy_dedupe(monkeypatch):
    got = interior_points(Ellipse(2.0, 1.0), 1600, 0.05).points
    monkeypatch.setattr(geometry, "_dedupe", _greedy_dedupe)
    want = interior_points(Ellipse(2.0, 1.0), 1600, 0.05).points
    assert got.shape == (1600, 2)
    np.testing.assert_array_equal(got, want)


def test_shape_scale_positive():
    for shape in (Ellipse(2.0, 1.0), Box((0.5, 0.5, 0.5)), FourierStar(1.0, ((3, 0.2, 0.0),))):
        assert shape.scale() > 0


def test_discretize_rejects_tiny_resolution():
    with pytest.raises(Exception):
        discretize(Ellipse(1.0, 1.0), 4)


@pytest.mark.parametrize(
    "shape, n",
    [
        (Ellipse(2.0, 1.0), 256),
        (FourierStar(1.0, ((3, 0.2, 0.0),)), 128),
        (Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))), 256),
        (Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))), 100),
        (Ellipsoid(2.0, 1.5, 1.0), 16),
    ],
    ids=["ellipse", "star", "square", "triangle", "ellipsoid"],
)
def test_grids_above_the_node_cap_are_refused_before_they_are_built(monkeypatch, shape, n):
    # the count each grid checks is the count it builds
    size = discretize(shape, n).n
    monkeypatch.setattr(geometry, "_MAX_GRID_NODES", size)
    assert discretize(shape, n).n == size
    monkeypatch.setattr(geometry, "_MAX_GRID_NODES", size - 1)
    with pytest.raises(ResolutionError, match=f"a grid of {size} nodes exceeds the cap of {size - 1}"):
        discretize(shape, n)


# The recorded area or volume, dimension, scale, center, bounding box, fit
# margin and clearance (indices of the lattice points whose clearance is at
# least 0.1) of one shape per class; the shape methods must reproduce every
# bit.
RECORDED = [
    (
        Ellipse(2.0, 1.0),
        dict(
            measure=6.283185307179586,
            dim=2,
            scale=2.0,
            center=[0.0, 0.0],
            bbox=([-2.0, -1.0], [2.0, 1.0]),
            margin=0.25,
            keeps=[11, 12, 19, 20, 27, 28, 35, 36, 43, 44, 51, 52],
        ),
    ),
    (
        Polygon(((1.0, 0.0), (0.0, 0.7), (-0.6, 0.0), (0.0, -0.7))),
        dict(
            measure=1.1199999999999999,
            dim=2,
            scale=0.9,
            center=[0.13333333333333333, 0.0],
            bbox=([-0.6, -0.7], [1.0, 0.7]),
            margin=0.10454539054542852,
            keeps=[35, 36],
        ),
    ),
    (
        FourierStar(1.0, ((3, 0.2, 0.0), (5, 0.05, 0.03))),
        dict(
            measure=3.209765214172692,
            dim=2,
            scale=1.2536275643479273,
            center=[0.0, 0.0],
            bbox=([-0.9165381766587389, -1.0625498182287016],
                  [1.2525785229719628, 1.0654532424356113]),
            margin=0.18659310891301814,
            keeps=[26, 27, 28, 29, 35, 36, 43, 44],
        ),
    ),
    (
        Ellipsoid(2.0, 1.5, 1.0),
        dict(
            measure=12.566370614359172,
            dim=3,
            scale=2.0,
            center=[0.0, 0.0, 0.0],
            bbox=([-2.0, -1.5, -1.0], [2.0, 1.5, 1.0]),
            margin=0.25,
            keeps=[91, 92, 99, 100, 147, 148, 155, 156, 163, 164, 171, 172, 211, 212, 219,
                   220, 227, 228, 235, 236, 275, 276, 283, 284, 291, 292, 299, 300, 339, 340,
                   347, 348, 355, 356, 363, 364, 411, 412, 419, 420],
        ),
    ),
    (
        Box((0.5, 0.4, 0.45)),
        dict(
            measure=0.7200000000000001,
            dim=3,
            scale=0.7826237921249264,
            center=[0.0, 0.0, 0.0],
            bbox=([-0.5, -0.4, -0.45], [0.5, 0.4, 0.45]),
            margin=0.08000000000000002,
            keeps=[219, 220, 227, 228, 283, 284, 291, 292],
        ),
    ),
]


@pytest.mark.parametrize(
    "shape, want", RECORDED, ids=[type(shape).__name__ for shape, _ in RECORDED]
)
def test_shape_geometry_matches_recorded_values(shape, want):
    d = want["dim"]
    axis_points = np.linspace(-2.1, 2.1, 8)
    lattice = np.stack(np.meshgrid(*[axis_points] * d, indexing="ij"), axis=-1).reshape(-1, d)
    lo, hi = shape.bbox()
    assert shape.dim == d
    assert shape.measure() == want["measure"]
    assert shape.scale() == want["scale"]
    assert shape.center_point().tolist() == want["center"]
    assert (lo.tolist(), hi.tolist()) == want["bbox"]
    assert _default_margin(shape) == want["margin"]
    # read as interior_points reads it, less its slack
    keeps = shape.clearance(lattice) >= 0.1 - geometry._MARGIN_SLACK * shape.scale()
    assert np.flatnonzero(keeps).tolist() == want["keeps"]


def test_every_shape_class_has_the_geometry_methods():
    methods = (
        "measure", "scale", "center_point", "bbox", "clearance", "default_margin", "boundary_grid",
        "closed_form_factors", "closed_form_potential",
    )
    # ShapeSpec is the union of the classes the shape_type decorator registered
    assert typing.get_args(ShapeSpec) == tuple(cls for cls, *_ in geometry.SHAPE_TYPES.values())
    for cls in typing.get_args(ShapeSpec):
        assert cls.dim in (2, 3)
        for name in methods + (("outline",) if cls.dim == 2 else ()):
            assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name}"


def _loop_dist_to_segments(pts, v):
    # one segment at a time, as the clearance test was first written
    best = np.full(len(pts), np.inf)
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        ab = b - a
        tt = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(pts - (a + tt[:, None] * ab), axis=1))
    return best


def _clearance_cases():
    star = FourierStar(1.0, ((3, 0.2, 0.0), (5, 0.05, 0.03)))
    t = 2 * np.pi * np.arange(2048) / 2048
    r = geometry._star_radius(star, t)
    kite = Polygon(((1.0, 0.0), (0.0, 0.7), (-0.6, 0.0), (0.0, -0.7)))
    return [(star, np.stack([r * np.cos(t), r * np.sin(t)], axis=1)),
            (kite, np.asarray(kite.vertices))]


@pytest.mark.parametrize("shape, poly", _clearance_cases(), ids=["star", "kite"])
def test_block_clearance_matches_the_per_segment_loop(shape, poly, monkeypatch):
    rng = np.random.default_rng(3)
    lo, hi = shape.bbox()
    # random points, points exactly on vertices, and a count that is not a
    # multiple of the block
    pts = np.concatenate([lo + (hi - lo) * rng.random((1001, 2)), poly[::37]])
    got = geometry._polyline_distance(pts, poly)
    want = _loop_dist_to_segments(pts, poly)
    assert np.all(got[-len(poly[::37]):] == 0.0)
    assert np.max(np.abs(got - want)) <= 4e-16 * shape.scale()
    np.testing.assert_array_equal(geometry._even_odd(pts, poly), _loop_points_in_polygon(pts, poly))
    for margin in (0.0, 0.05, 0.1, 0.2):
        keep = shape.clearance(pts) >= margin
        monkeypatch.setattr(geometry, "_even_odd", _loop_points_in_polygon)
        monkeypatch.setattr(geometry, "_polyline_distance", _loop_dist_to_segments)
        np.testing.assert_array_equal(keep, shape.clearance(pts) >= margin)
        monkeypatch.undo()


def _curve_distance(shape, pts):
    """Distance from each point to the nearest of 4096 curve points, refined
    twice on 401 points within two steps of it: never below the distance to
    the curve, and within about 1e-9 of it 1e-5 or more inside."""
    t = 2 * np.pi * np.arange(4096) / 4096
    d2 = ((pts[:, None] - shape.curve_frame(t)[0]) ** 2).sum(-1)
    best, step = t[np.argmin(d2, axis=1)], 2 * np.pi / 4096
    for _ in range(2):
        tt = best[:, None] + np.linspace(-2 * step, 2 * step, 401)
        d2 = ((pts[:, None] - shape.curve_frame(tt.ravel())[0].reshape(*tt.shape, 2)) ** 2).sum(-1)
        best, step = tt[np.arange(len(pts)), np.argmin(d2, axis=1)], step / 100
    return np.sqrt(np.min(d2, axis=1))


def _sampled_distance(shape, pts):
    """Distance from each point to the nearest boundary sample (2001 per
    polygon edge, 51 x 51 per box face, 101 x 201 over an ellipsoid):
    never below the distance to the boundary."""
    u = np.linspace(0.0, 1.0, 2001)
    if isinstance(shape, Polygon):
        v = np.asarray(shape.vertices)
        bnd = (v[:, None] + u[:, None] * shape.edges[:, None]).reshape(-1, 2)
    elif isinstance(shape, Box):
        h = np.asarray(shape.half)
        a, b = np.meshgrid(2 * u[::40] - 1, 2 * u[::40] - 1)
        faces = []
        for j in range(3):
            for side in (-1.0, 1.0):
                face = np.insert(np.stack([a.ravel(), b.ravel()], axis=1), j, side, axis=1)
                faces.append(face * h)
        bnd = np.concatenate(faces)
    else:
        pol, az = np.meshgrid(np.pi * u[::20], 2 * np.pi * u[::10])
        sphere = [np.sin(pol) * np.cos(az), np.sin(pol) * np.sin(az), np.cos(pol)]
        bnd = np.stack(sphere, axis=-1).reshape(-1, 3) * shape.semi_axes
    return np.array([np.sqrt(np.min(((bnd - p) ** 2).sum(-1))) for p in pts])


def _random_shapes():
    rng = np.random.default_rng(11)
    shapes = [FourierStar(1.0, ((3, 0.2, 0.0),)),
              FourierStar(1.0, ((3, 0.2, 0.0), (5, 0.05, 0.03)))]
    for _ in range(3):
        modes = rng.choice(np.arange(2, 9), size=rng.integers(1, 4), replace=False)
        amps = rng.uniform(-1.0, 1.0, (len(modes), 2)) * 0.3 / len(modes)
        modes = tuple((int(m), float(c), float(s)) for m, (c, s) in zip(modes, amps))
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, rng.integers(3, 9)))
        radii = rng.uniform(0.5, 1.5, len(angles))
        shapes += [
            FourierStar(rng.uniform(0.5, 2.0), modes),
            Polygon(tuple(zip(radii * np.cos(angles), radii * np.sin(angles)))),
            Ellipse(*rng.uniform(0.5, 3.0, 2)),
            Ellipsoid(*rng.uniform(0.5, 3.0, 3)),
            Box(tuple(rng.uniform(0.2, 2.0, 3))),
        ]
    return shapes


@pytest.mark.parametrize("shape", _random_shapes(), ids=lambda s: type(s).__name__)
def test_clearance_never_exceeds_the_distance_to_the_boundary(shape):
    # random points in the bounding box, and on a smooth curve points 1e-5 to
    # 1e-2 inside along the normal: on the three-lobed star's concave troughs
    # (near t = pi/3) a polyline's distance alone exceeds the true one by up
    # to 1.2e-6
    rng = np.random.default_rng(7)
    lo, hi = shape.bbox()
    pts = lo + (hi - lo) * rng.random((400, shape.dim))
    if isinstance(shape, geometry._SmoothCurve):
        t = np.concatenate([np.pi / 3 + rng.uniform(-0.05, 0.05, 60), rng.uniform(0, 2 * np.pi, 60)])
        p, normals = shape.curve_frame(t)[:2]
        depth = 10.0 ** rng.uniform(-5.0, -2.0, len(t))
        pts = np.concatenate([pts, p - depth[:, None] * normals])
        dist = _curve_distance(shape, pts)
    else:
        dist = _sampled_distance(shape, pts)
    clear = shape.clearance(pts)
    assert np.sum(clear > 0) > 100
    # outside, a clearance is negative; an exact distance may round an ulp up
    assert np.max(clear - dist) <= 1e-14 * shape.scale()


def _loop_edge_lengths(shape):
    """The loop oracle's edge lengths: one norm per edge."""
    v = np.asarray(shape.vertices)
    return [float(np.linalg.norm(b - a)) for a, b in zip(v, np.roll(v, -1, axis=0))]


def _assert_margin_reads_grid_lengths(shape):
    assert shape.default_margin() == 0.4 * shape.measure() / np.sum(_loop_edge_lengths(shape))


def _loop_polygon_grid(shape, n):
    """The polygon grid as first written: one edge, then one panel at a time."""
    verts = np.asarray(shape.vertices, dtype=float)
    q, depth = geometry.PANEL_ORDER, geometry.CORNER_DEPTH
    base = max(2, int(np.ceil(n / q)))
    cuts = [2.0 ** (-j) for j in range(depth, 0, -1)]
    breaks = [(0.0, cuts[0])] + list(zip(cuts[:-1], cuts[1:])) + [(cuts[-1], 1.0)]
    bp = np.linspace(0.0, 1.0, base + 1)
    lo, hi = bp[0], bp[1]
    pieces = [(lo + (hi - lo) * s0, lo + (hi - lo) * s1) for s0, s1 in breaks]
    pieces += [(bp[i], bp[i + 1]) for i in range(1, base - 1)]
    lo, hi = bp[-2], bp[-1]
    pieces += [(hi - (hi - lo) * s1, hi - (hi - lo) * s0) for s0, s1 in reversed(breaks)]
    gx, gw = np.polynomial.legendre.leggauss(q)
    nodes, normals, weights = [], [], []
    for e, elen in enumerate(_loop_edge_lengths(shape)):
        v0, v1 = verts[e], verts[(e + 1) % len(verts)]
        edge = v1 - v0
        tang = edge / elen
        for lo, hi in pieces:
            nodes.append(v0 + (0.5 * (hi - lo) * gx + 0.5 * (hi + lo))[:, None] * edge)
            normals.append(np.broadcast_to([tang[1], -tang[0]], (q, 2)))
            weights.append(0.5 * (hi - lo) * gw * elen)
    return geometry.BoundaryGrid(
        shape, np.concatenate(nodes), np.concatenate(normals), np.concatenate(weights)
    )


def _assert_same_grid(got, want):
    for name in ("nodes", "normals", "weights", "spacing"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


_GRID_NS = (16, 17, 40, 256, 1000)


@pytest.mark.parametrize("n", _GRID_NS)
@pytest.mark.parametrize(
    "vertices",
    [
        ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        ((1.0, 0.0), (0.0, 0.7), (-0.6, 0.0), (0.0, -0.7)),
        ((0.0, 0.0), (2.0, 0.0), (0.0, 1.0)),  # 26.6 degree corner
        ((0.0, 0.0), (30.0, 0.0), (0.0, 1.0)),  # 1.9 degree corner
    ],
    ids=["square", "kite", "triangle-26.6", "triangle-1.9"],
)
def test_polygon_grid_is_the_per_panel_loop_bit_for_bit(vertices, n):
    shape = Polygon(vertices)
    _assert_same_grid(discretize(shape, n), _loop_polygon_grid(shape, n))


def _meshgrid_ellipsoid_grid(shape, n):
    """The ellipsoid grid as first written, on full-size meshgrid arrays."""
    c1, c2, c3 = shape.c1, shape.c2, shape.c3
    u, wu = np.polynomial.legendre.leggauss(n)
    phi = 2 * np.pi * np.arange(2 * n) / (2 * n)
    U, P = np.meshgrid(u, phi, indexing="ij")
    s = np.sqrt(1.0 - U * U)
    nodes = np.stack([c1 * s * np.cos(P), c2 * s * np.sin(P), c3 * U], axis=-1).reshape(-1, 3)
    jac = np.sqrt(
        (c2 * c3) ** 2 * (1 - U * U) * np.cos(P) ** 2
        + (c1 * c3) ** 2 * (1 - U * U) * np.sin(P) ** 2
        + (c1 * c2) ** 2 * U * U
    )
    weights = (jac * wu[:, None] * (2 * np.pi / (2 * n))).reshape(-1)
    grad = nodes / np.array([c1 * c1, c2 * c2, c3 * c3])
    normals = grad / np.linalg.norm(grad, axis=1)[:, None]
    spacing = np.full(len(nodes), max(c1, c2, c3) * np.pi / n)
    return geometry.BoundaryGrid(shape, nodes, normals, weights, spacing=spacing)


@pytest.mark.parametrize("n", [16, 48, 96, 128])
@pytest.mark.parametrize("axes", [(2.0, 1.5, 1.0), (1.0, 1.0, 1.0), (0.3, 4.0, 1.7)])
def test_ellipsoid_grid_broadcast_is_the_meshgrid_grid_bit_for_bit(axes, n):
    shape = Ellipsoid(*axes)
    _assert_same_grid(discretize(shape, n), _meshgrid_ellipsoid_grid(shape, n))


@pytest.mark.parametrize("q", [8, 48, 64, 96, 128])
def test_gauss_legendre_rules_are_built_once_and_read_only(q):
    nodes, weights = geometry._gauss_legendre(q)
    want = np.polynomial.legendre.leggauss(q)
    assert np.array_equal(nodes, want[0]) and np.array_equal(weights, want[1])
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert geometry._gauss_legendre(q)[0] is nodes


@settings(max_examples=20, deadline=None)
@given(
    gaps=st.lists(st.floats(0.5, 1.0), min_size=4, max_size=12),
    data=st.data(),
    n=st.sampled_from(_GRID_NS),
)
def test_star_shaped_polygon_grid_is_the_per_panel_loop_bit_for_bit(gaps, data, n):
    # angular gaps below pi about the origin: simple and counterclockwise
    angles = 2 * np.pi * np.cumsum(gaps) / np.sum(gaps)
    radii = np.array(data.draw(st.lists(st.floats(0.2, 3.0), min_size=len(gaps),
                                        max_size=len(gaps))))
    shape = Polygon(tuple(zip(radii * np.cos(angles), radii * np.sin(angles))))
    _assert_same_grid(discretize(shape, n), _loop_polygon_grid(shape, n))
    _assert_margin_reads_grid_lengths(shape)


@pytest.mark.parametrize(
    "vertices",
    [
        ((1.0, 0.0), (0.0, 0.7), (-0.6, 0.0), (0.0, -0.7)),
        ((0.0, 0.0), (30.0, 0.0), (0.0, 1.0)),  # 1.9 degree corner
    ],
    ids=["kite", "triangle-1.9"],
)
def test_polygon_default_margin_sums_the_grid_edge_lengths(vertices):
    # the default margin's perimeter sums the lengths that scale the grid's
    # weights, which the loop oracle matches bit for bit
    _assert_margin_reads_grid_lengths(Polygon(vertices))


def _loop_is_simple(v):
    """The simplicity test as first written: one edge pair at a time."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    m = len(v)
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            p, q, r, s = v[i], v[(i + 1) % m], v[j], v[(j + 1) % m]
            if ((orient(p, q, r) > 0) != (orient(p, q, s) > 0)) and (
                (orient(r, s, p) > 0) != (orient(r, s, q) > 0)
            ):
                return False
    return True


def _loop_points_in_polygon(pts, v):
    """The even-odd test as first written: one edge at a time."""
    inside = np.zeros(len(pts), dtype=bool)
    x, y = pts[:, 0], pts[:, 1]
    for i in range(len(v)):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % len(v)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inside ^= ((y0 > y) != (y1 > y)) & (x < (x1 - x0) * (y - y0) / (y1 - y0) + x0)
    return inside


# vertex sets of any orientation, self-intersecting ones included; small
# integers give collinear and touching edges, horizontal edges and points on
# the boundary
_coordinate = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))
_vertex_sets = st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=10).map(
    np.array
)


@settings(max_examples=300, deadline=None)
@given(v=_vertex_sets, chunk=st.sampled_from([1, 7, 1 << 14]))
def test_simplicity_test_is_the_per_pair_loop(v, chunk):
    with mock.patch.object(geometry, "_RAY_CHUNK", chunk):
        assert geometry._is_simple(v) == _loop_is_simple(v)


@settings(max_examples=200, deadline=None)
@given(
    v=_vertex_sets,
    pts=st.lists(st.tuples(_coordinate, _coordinate), max_size=40).map(
        lambda p: np.array(p, dtype=float).reshape(-1, 2)
    ),
    chunk=st.sampled_from([1, 7, 1 << 14]),
)
def test_even_odd_test_is_the_per_edge_loop(v, pts, chunk):
    pts = np.concatenate([pts, v])  # the vertices themselves lie on the boundary
    with mock.patch.object(geometry, "_RAY_CHUNK", chunk):
        got = geometry._even_odd(pts, v)
    np.testing.assert_array_equal(got, _loop_points_in_polygon(pts, v))


def test_a_large_polygon_is_built_and_sampled_in_bounded_memory():
    # all 2,000^2 edge pairs at once would take 32 MB per array; blocks of
    # at most 2^14 pairs keep the peak near 1.4 MiB
    t = 2 * np.pi * np.arange(2000) / 2000
    r = 1.0 + 0.2 * np.cos(5 * t)
    tracemalloc.start()
    try:
        shape = Polygon(tuple(zip(r * np.cos(t), r * np.sin(t))))
        sample = interior_points(shape, 64, shape.default_margin())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.points.shape == (64, 2)
    assert peak < 2 * 2**20
