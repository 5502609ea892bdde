import typing

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


def test_polygon_rejects_degenerate_and_self_crossing():
    with pytest.raises(InvalidShapeError):
        Polygon(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(InvalidShapeError):
        Polygon(((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)))


def test_star_rejects_nonpositive_radius():
    with pytest.raises(InvalidShapeError):
        FourierStar(1.0, ((2, 0.9, 0.9),))


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
# margin and margin test (indices of the lattice points that keep a 0.1
# clearance) of one shape per class; the shape methods must reproduce every
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
            margin=0.10454539054542855,
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
    assert np.flatnonzero(shape.margin_ok(lattice, 0.1)).tolist() == want["keeps"]


def test_every_shape_class_has_the_geometry_methods():
    methods = (
        "measure", "scale", "center_point", "bbox", "margin_ok", "default_margin", "boundary_grid"
    )
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
    got = geometry._dist_to_segments(pts, poly)
    want = _loop_dist_to_segments(pts, poly)
    assert np.all(got[-len(poly[::37]):] == 0.0)
    assert np.max(np.abs(got - want)) <= 4e-16 * shape.scale()
    for margin in (0.0, 0.05, 0.1, 0.2):
        keep = shape.margin_ok(pts, margin)
        monkeypatch.setattr(geometry, "_dist_to_segments", _loop_dist_to_segments)
        np.testing.assert_array_equal(keep, shape.margin_ok(pts, margin))
        monkeypatch.undo()
