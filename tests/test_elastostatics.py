import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import (
    ConfigError,
    Ellipse,
    Ellipsoid,
    InvalidShapeError,
    LameParams,
    Polygon,
    conormal_linear,
    default_interior_sample,
    discretize,
    elastic_single_layer,
    interior_points,
    kelvin_matrix,
    kolosov,
    plain_kernel_moment,
    trace_identity_check,
)
from inclab.elastostatics import _surface_sums, _weighted, identity_verdict

lam_s = st.floats(0.2, 5.0)
mu_s = st.floats(0.2, 5.0)


@pytest.mark.parametrize(
    "shape, n",
    [(Ellipse(2.0, 1.0), 64), (Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))), 16)],
    ids=["ellipse", "polygon"],
)
def test_identity_verdict_refuses_a_grid_that_is_not_an_ellipsoid(shape, n):
    # refused before sampling: a 2D grid reached a matmul ValueError in
    # conormal_linear, and a polygon grid an AttributeError on semi_axes
    grid = discretize(shape, n)
    with pytest.raises(InvalidShapeError, match="ellipsoid"):
        identity_verdict(grid, LameParams(2.0, 1.0, 1.0, 0.5))
    # the sums behind it refuse the 2D grid too, and a density of 2-vectors first
    with pytest.raises(ConfigError, match="^density must supply one 3-vector per grid node$"):
        elastic_single_layer(grid, grid.normals, np.zeros((1, 3)), 2.0, 1.0)
    with pytest.raises(InvalidShapeError, match="^the Kelvin layer is evaluated on 3D surface grids$"):
        elastic_single_layer(grid, np.zeros((grid.n, 3)), np.zeros((1, 3)), 2.0, 1.0)
    with pytest.raises(InvalidShapeError, match="^the plain kernel moment is a 3D surface integral$"):
        plain_kernel_moment(grid, np.ones(grid.n), np.zeros((1, 2)))


def test_lame_validation():
    with pytest.raises(ConfigError):
        LameParams(1.0, -1.0, 1.0, 0.5)
    with pytest.raises(ConfigError):
        LameParams(-10.0, 1.0, 1.0, 0.5)  # 3 lam + 2 mu <= 0
    with pytest.raises(ConfigError):
        # convexity-ordering constraint between the phases violated
        LameParams(2.0, 1.0, 3.0, 0.5)


@settings(max_examples=25, deadline=None)
@given(lam_s, mu_s)
def test_kernel_coefficient_identities(lam, mu):
    from inclab.elastostatics import _alphas

    a1, a2 = _alphas(lam, mu)
    assert a1 - a2 == pytest.approx(1.0 / (2 * mu + lam), rel=1e-13)
    assert a1 + a2 == pytest.approx(1.0 / mu, rel=1e-13)


def test_kelvin_matrix_symmetries():
    x = np.array([0.7, -0.4, 1.1])
    G = kelvin_matrix(x, 2.0, 1.0)
    assert G.shape == (3, 3)
    assert np.allclose(G, G.T, atol=1e-15)
    assert np.allclose(kelvin_matrix(-x, 2.0, 1.0), G, atol=1e-15)
    # degree -1 homogeneity
    assert np.allclose(kelvin_matrix(2 * x, 2.0, 1.0), G / 2, atol=1e-15)
    with pytest.raises(ConfigError, match="^the Kelvin matrix is defined for 3-vectors$"):
        kelvin_matrix(x[:2], 2.0, 1.0)
    with pytest.raises(ConfigError, match="^the Kelvin matrix is singular at the origin$"):
        kelvin_matrix(np.zeros(3), 2.0, 1.0)


def test_kelvin_matrix_annihilated_by_operator():
    # each column solves the homogeneous system away from the source:
    # mu lap(u) + (lam + mu) grad(div u) = 0, checked by central
    # differences column by column
    lam, mu = 2.0, 1.0
    x0 = np.array([0.9, -0.6, 0.8])
    h = 1e-3

    def col(x, j):
        return kelvin_matrix(x, lam, mu)[:, j]

    for j in range(3):
        lap = np.zeros(3)
        graddiv = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            lap += (col(x0 + e, j) + col(x0 - e, j) - 2 * col(x0, j)) / h**2
        for i in range(3):
            for m in range(3):
                ei = np.zeros(3)
                em = np.zeros(3)
                ei[i] = h
                em[m] = h
                d2 = (
                    col(x0 + ei + em, j)[m]
                    - col(x0 + ei - em, j)[m]
                    - col(x0 - ei + em, j)[m]
                    + col(x0 - ei - em, j)[m]
                ) / (4 * h**2)
                graddiv[i] += d2
        resid = mu * lap + (lam + mu) * graddiv
        assert np.max(np.abs(resid)) <= 1e-4


def test_conormal_of_linear_fields():
    lam, mu = 2.0, 1.0
    n = np.array([0.0, 0.6, 0.8])
    # identity displacement: traction is (d lam + 2 mu) n
    t = conormal_linear(np.eye(3), lam, mu, n)
    assert np.allclose(t, (3 * lam + 2 * mu) * n, atol=1e-14)
    # antisymmetric gradient (rigid rotation): zero traction
    W = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(conormal_linear(W, lam, mu, n), 0.0, atol=1e-14)


def test_trace_identities_on_ellipsoid():
    shape = Ellipsoid(2.0, 1.5, 1.0)
    grid = discretize(shape, 64)
    pts = interior_points(shape, 20, 0.3)
    rep = trace_identity_check(grid, LameParams(2.0, 1.0, 1.0, 0.5), pts.points)
    assert list(rep) == [
        "residual_matrix_phase", "residual_inclusion_phase", "residual_difference",
        "residual_inverse_distance",
    ]
    assert all(value <= 1e-6 for value in rep.values())


def test_green_identity_inside_ellipsoid():
    shape = Ellipsoid(2.0, 1.5, 1.0)
    grid = discretize(shape, 48)
    pts = interior_points(shape, 8, 0.55)
    # int (x_j - y_j) <x - y, n(y)> / |x-y|^3 dsigma(y) = - int n_j(y) / |x-y| dsigma(y)
    ((inverse, flux),) = _surface_sums(grid, pts.points, _weighted(grid, [grid.normals]))
    assert np.max(np.abs(flux + inverse)) <= 1e-6


def test_plain_kernel_moment_at_sphere_center():
    # the unit density against 1/(4 pi |x - y|) on a sphere of radius R, at
    # its center: surface area / (4 pi R) = R; the 3D single layer is its negative
    R = 2.0
    grid = discretize(Ellipsoid(R, R, R), 32)
    val = plain_kernel_moment(grid, np.ones(grid.n), np.zeros((1, 3)))[0]
    assert val == pytest.approx(R, rel=1e-10)


def test_equal_phase_difference_vanishes_identically():
    # equal tractions take identical operations, here and on the grids of the
    # elastic-identity benchmark
    shape = Ellipsoid(1.5, 1.0, 1.0)
    grid = discretize(shape, 32)
    pts = interior_points(shape, 8, 0.45)
    rep = trace_identity_check(grid, LameParams(2.0, 1.0, 2.0, 1.0), pts.points)
    assert rep["residual_difference"] == 0.0
    for n in (64, 96, 128):
        grid = discretize(Ellipsoid(2.0, 1.5, 1.0), n)
        for lame in [(2.0, 1.0, 2.0, 1.0), (1.3, 0.7, 1.3, 0.7)]:
            assert identity_verdict(grid, LameParams(*lame))["residual_difference"] == 0.0


def test_residual_drops_under_refinement():
    # the quadrature converges spectrally: points that a 16x32 grid
    # resolves to ~1e-9 are machine-exact one refinement later; the sample
    # rule sets them clear of the coarse grid's guard, which needs a rounder
    # ellipsoid than 2:1.5:1
    shape = Ellipsoid(1.5, 1.25, 1.0)
    grid = discretize(shape, 16)
    pts = default_interior_sample(grid, 8)
    lame = LameParams(2.0, 1.0, 1.0, 0.5)
    coarse = trace_identity_check(grid, lame, pts.points)
    fine = trace_identity_check(discretize(shape, 32), lame, pts.points)
    assert fine["residual_matrix_phase"] <= coarse["residual_matrix_phase"] / 10


@settings(max_examples=25, deadline=None)
@given(lam_s, mu_s)
def test_kolosov_range(lam, mu):
    kappa = kolosov(lam, mu)
    assert kappa == pytest.approx((lam + 3 * mu) / (lam + mu), rel=1e-14)
    assert 1.0 < kappa < 3.0


def test_kolosov_frozen_value():
    assert kolosov(2.0, 1.0) == pytest.approx(5.0 / 3.0, rel=1e-15)
    with pytest.raises(ConfigError, match=r"^lam \+ mu must be nonzero$"):
        kolosov(-1.0, 1.0)
